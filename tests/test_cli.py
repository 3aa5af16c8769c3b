import contextlib
import gc
import importlib
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knotbound import cli, khovanov
from knotbound.braid import (
    MAX_STRANDS,
    BraidWord,
    canonical_closure_key,
    closure_components,
    conjugate,
    parse_braid_word,
    stabilize,
)
from knotbound.cache import (
    CACHE_VERSION,
    INVARIANTS,
    InvariantRecord,
    ResultCache,
    _servable,
    key_string,
)
from knotbound.cli import build_parser, main
from knotbound.homfly import MAX_WIDTH
from conftest import random_word


KSTAR_TEXT = "1 2 2 1 1 2 2 1 1 -2 -2 -2"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_homfly_main_knot(capsys):
    code, out, _ = run(capsys, ["invariants", KSTAR_TEXT, "--strands", "3", "--homfly"])
    assert code == 0
    assert "a^8*(-q^4 - 1 - q^-4) + a^6*(q^6 + q^2 + q^-2 + q^-6)" in out


def test_invariants_all_unknot(capsys):
    code, out, _ = run(capsys, ["invariants", "1", "--strands", "2", "--all", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["homfly"]["terms"] == [[0, 0, 1]]
    assert payload["khovanov"]["ranks"] == [[0, 0, 1]]
    assert payload["signature"] == 0 and payload["determinant"] == 1
    assert payload["components"] == 1


def test_invariants_parse_error_exit_2(capsys):
    code, _, err = run(capsys, ["invariants", "3", "--strands", "3"])
    assert code == 2
    assert "error" in err


def test_invariants_precondition_exit_3(capsys):
    code, _, err = run(capsys, ["invariants", "1 1", "--strands", "3", "--seifert"])
    assert code == 3
    assert "precondition" in err


def test_invariants_missing_strands(capsys):
    code, _, _ = run(capsys, ["invariants", "1 2"])
    assert code == 2


def test_family_word(capsys):
    code, out, _ = run(capsys, ["family", "elrifai-k", "--k", "1", "--emit", "word"])
    assert code == 0
    assert out.strip() == KSTAR_TEXT


def test_family_bm_bounds(capsys):
    code, out, _ = run(
        capsys,
        ["family", "bm", "--x", "1", "--y", "1", "--z", "1", "--w", "1",
         "--emit", "bounds", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["b_d"] == 4 and payload["w_d"] == 8


def test_family_torus_bounds_sharp(capsys):
    code, out, _ = run(
        capsys, ["family", "torus2", "--q", "7", "--emit", "bounds", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mfw_bound"] == 2
    assert payload["mfw_sharp_lower"] and payload["mfw_sharp_upper"]


def test_family_missing_parameter(capsys):
    code, _, _ = run(capsys, ["family", "elrifai-k", "--emit", "word"])
    assert code == 2


def test_family_unknown_kind_exit_2(capsys):
    code, out, _ = run(capsys, ["family", "nope"])
    assert (code, out) == (2, "")


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_bounds_with_deltas(capsys):
    code, out, _ = run(
        capsys,
        ["bounds", KSTAR_TEXT, "--strands", "3",
         "--delta-minus", "4", "--delta-plus", "8", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kr_bound"] == 3
    assert payload["kr_sharp_lower"] and payload["kr_sharp_upper"]
    assert payload["mfw_bound"] == 2 and not payload["mfw_sharp_lower"]


def test_bounds_parity_error(capsys):
    code, _, _ = run(
        capsys,
        ["bounds", KSTAR_TEXT, "--strands", "3",
         "--delta-minus", "4", "--delta-plus", "7"],
    )
    assert code == 2


def test_verify_sections_pass(capsys):
    for section in ("1", "3", "4"):
        code, out, _ = run(capsys, ["verify-paper", "--section", section])
        assert code == 0, out
        assert "FAIL" not in out


def test_verify_section_two_has_ten_checks(capsys):
    code, out, _ = run(capsys, ["verify-paper", "--section", "2", "--json"])
    assert code == 0
    results = json.loads(out)
    assert len(results) == 10
    assert all(r["passed"] for r in results)


def test_verify_section_two_computes_main_khovanov_once(monkeypatch):
    import knotbound.verify as verify
    from knotbound.braid import elrifai_k_word
    from knotbound.khovanov import braid_to_pd, reduced_khovanov

    main_pd = braid_to_pd(elrifai_k_word(1))
    calls = []

    def counting(pd):
        calls.append(pd == main_pd)
        return reduced_khovanov(pd)

    monkeypatch.setattr(verify, "reduced_khovanov", counting)
    verify._main_khovanov.cache_clear()
    results = verify.run_claims("2")
    assert all(r["passed"] for r in results)
    assert sum(calls) == 1


def test_verify_failing_claim_exits_one(capsys, monkeypatch):
    import knotbound.verify as verify

    broken = verify.Claim(1, "always-fails", lambda: (False, "intentional"))
    crashed = verify.Claim(1, "always-crashes", lambda: 1 / 0)
    monkeypatch.setitem(verify.SECTIONS, 1, [broken, crashed])
    code, out, _ = run(capsys, ["verify-paper", "--section", "1"])
    assert code == 1
    assert "FAIL" in out and "exception" in out


def test_emit_and_import_pd(tmp_path, capsys):
    code, out, _ = run(capsys, ["invariants", "1 1 1", "--strands", "2", "--emit-pd"])
    assert code == 0
    pd_file = tmp_path / "trefoil.pd"
    pd_file.write_text(out)
    code, out2, _ = run(
        capsys, ["invariants", "--pd-file", str(pd_file), "--khovanov", "--json"]
    )
    assert code == 0
    payload = json.loads(out2)
    assert payload["khovanov"]["ranks"] == [[2, 0, 1], [6, 2, 1], [8, 3, 1]]


@pytest.mark.parametrize(
    "text, message",
    [
        ("X a 1 2 3 +\nM 0\n", "not an integer"),
        ("X 0 1 1 0 +\nU\n", "exactly one edge id"),
        ("X 0 1 1 0 +\nM\n", "exactly one edge id"),
        ("X -1 0 1 2 +\nX 2 1 0 -1 +\nM 0\n", "out of range"),
        # Edge counts are right, but edge 4 enters twice and edge 0 never.
        ("X 3 4 1 0 -\nX 4 5 2 1 +\nX 5 3 0 2 +\nM 0\n", "edges [0, 4] are not incoming"),
        # Checked before per-edge lists, so no message lists 100k edge ids.
        ("X 0 1 1 99999 +\nM 0\n",
         "100000 edge ids for 1 crossings and 0 free circles; expected 2"),
        ("M 0\nM 1\nU 0\nU 1\n", "a second M line: 'M 1'"),
    ],
    ids=["non-integer-port", "bare-U", "bare-M", "negative-edge", "misoriented",
         "sparse-edge-ids", "second-M"],
)
def test_malformed_pd_file_exit_2(tmp_path, capsys, text, message):
    pd_file = tmp_path / "bad.pd"
    pd_file.write_text(text)
    code, out, err = run(
        capsys, ["invariants", "--pd-file", str(pd_file), "--khovanov", "--json"]
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_pd_edge_count_checked_before_allocation(tmp_path):
    # One crossing names edge 300000000: the edge count must refuse it before
    # per-edge lists of that length are built, here under a 1 GiB address limit.
    pd_file = tmp_path / "huge.pd"
    pd_file.write_text("X 0 1 1 300000000 +\nM 0\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "knotbound.cli", "invariants", "--pd-file", str(pd_file),
         "--khovanov"],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(khovanov.__file__).parents[1])},
    )
    assert proc.returncode == 2, proc.stderr
    assert "300000001 edge ids for 1 crossings and 0 free circles; expected 2" in proc.stderr


def test_strand_budget_checked_before_allocation():
    # A huge --strands must be refused before any per-strand object is built,
    # here under a 1 GiB address limit; at the budget a query still runs.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "knotbound.cli", *argv],
            capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(khovanov.__file__).parents[1])},
        )

    message = f"the braid has 30000000 strands, over the budget of {MAX_STRANDS}"
    for argv in (["invariants", "1 2", "--strands", "30000000", "--homfly"],
                 ["invariants", "1 2", "--strands", "30000000", "--seifert"],
                 ["invariants", "1 2", "--strands", "30000000", "--khovanov"],
                 ["bounds", "1 2", "--strands", "30000000"]):
        proc = cli(*argv)
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr
    proc = cli("invariants", "1 2", "--strands", str(MAX_STRANDS), "--khovanov")
    assert proc.returncode == 0, proc.stderr


def test_crossing_budget_exit_3(tmp_path, capsys, monkeypatch):
    # Record the object count of every scanning step that gets built.
    built = []
    build = khovanov._Step.build

    def recording(step):
        build(step)
        built.append(len(step.cx.objects))

    monkeypatch.setattr(khovanov._Step, "build", recording)
    # The CLI scans a knot from its key word, so the budget is set by the
    # diagram of that word.
    key = canonical_closure_key(parse_braid_word(KSTAR_TEXT, 3))
    pd = khovanov.braid_to_pd(BraidWord(*key))
    expected = khovanov.reduced_khovanov(pd)
    peak = max(built)
    # A diagram at the budget proceeds.
    monkeypatch.setattr(khovanov, "MAX_OBJECTS", peak)
    assert khovanov.reduced_khovanov(pd) == expected
    # Over it, both input paths exit 3 before the oversized step is built.
    monkeypatch.setattr(khovanov, "MAX_OBJECTS", peak - 1)
    pd_file = tmp_path / "over.pd"
    pd_file.write_text(khovanov.pd_to_text(pd))
    for argv in (["invariants", KSTAR_TEXT, "--strands", "3", "--khovanov"],
                 ["invariants", "--pd-file", str(pd_file), "--khovanov"]):
        built.clear()
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert f"objects, over the budget of {peak - 1}" in err
        assert built and max(built) < peak
        assert len(built) < len(pd.crossings)


@st.composite
def knot_words(draw):
    """Knot words on 2..5 strands, conjugated, then perhaps stabilized."""
    n = draw(st.integers(2, 5))
    gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
    w = BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), min_size=n - 1,
                                         max_size=8))))
    assume(closure_components(w) == 1)
    w = conjugate(w, BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=2)))))
    sign = draw(st.sampled_from([0, 1, -1]))
    return stabilize(w, sign) if sign else w


@settings(max_examples=100, deadline=None)
@given(knot_words())
def test_knot_khovanov_matches_query_word_scan(w):
    # The CLI scans a knot from its key word; the table must be the query
    # word's own.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["invariants", str(w), "--strands", str(w.strands),
                     "--khovanov", "--json"])
    assert code == 0
    expected = khovanov.reduced_khovanov(khovanov.braid_to_pd(w)).triples()
    assert json.loads(out.getvalue())["khovanov"]["ranks"] == [list(t) for t in expected]


def test_knot_scanned_from_key_word_link_from_its_own(tmp_path, capsys, monkeypatch):
    scanned = []
    to_pd = cli.braid_to_pd
    monkeypatch.setattr(cli, "braid_to_pd", lambda w: scanned.append(w) or to_pd(w))
    knot = parse_braid_word("-1 2 -1 -1 -1 -2 -2 1", 3)
    # A Hopf link beside a circle; cyclic reduction shortens its key word.
    link = parse_braid_word("2 1 1 -2", 3)
    assert closure_components(knot) == 1 and closure_components(link) == 3
    assert canonical_closure_key(link) == (3, (1, 1))
    for cache in ([], ["--cache-dir", str(tmp_path)]):
        for w, expected in ((knot, BraidWord(2, (-1, -1, -1))), (link, link)):
            scanned.clear()
            code, _, _ = run(capsys, ["invariants", str(w), "--strands", "3",
                                      "--khovanov", *cache])
            assert code == 0 and scanned == [expected]


def test_homfly_term_budget_exit_3(capsys, monkeypatch):
    # This word's Hecke expansion peaks at 8 basis terms.
    homfly = importlib.import_module("knotbound.homfly")
    argv = ["invariants", "1 1 2 2 3 3 1 2 3", "--strands", "4", "--homfly"]
    monkeypatch.setattr(homfly, "MAX_TERMS", 7)
    code, out, err = run(capsys, argv)
    assert (code, out) == (3, "")
    assert "needs 8 terms, over the budget of 7" in err
    code, out, err = run(capsys, ["bounds", "1 1 2 2 3 3 1 2 3", "--strands", "4"])
    assert (code, out) == (3, "")
    monkeypatch.setattr(homfly, "MAX_TERMS", 8)
    assert run(capsys, argv)[0] == 0


def test_homfly_width_budget_exit_3(capsys):
    # torus2(100000) would pack coefficients of about 10^10 bits.
    code, out, err = run(capsys, ["family", "torus2", "--q", "100000", "--emit", "bounds"])
    assert (code, out) == (3, "")
    assert f"needs digits of 100003 bits, over the budget of {MAX_WIDTH}" in err
    assert "Traceback" not in err
    # At the budget: W = q + min(q, 1) + 2.
    q = str(MAX_WIDTH - 3)
    assert run(capsys, ["family", "torus2", "--q", q, "--emit", "bounds"])[0] == 0


def test_seifert_loop_budget_exit_3(capsys):
    # 258 letters on 2 strands: 257 Seifert loops, one over MAX_LOOPS.
    word = " ".join(["1"] * 258)
    code, out, err = run(capsys, ["invariants", word, "--strands", "2", "--seifert"])
    assert (code, out) == (3, "")
    assert "needs 257 rows, over the budget of 256" in err
    assert run(capsys, ["invariants", word, "--strands", "2", "--homfly"])[0] == 0


def test_seifert_budget_refuses_before_khovanov(capsys, monkeypatch):
    def refuse(pd):
        raise RuntimeError("the Seifert budget must refuse before the Khovanov scan")

    monkeypatch.setattr("knotbound.cli.reduced_khovanov", refuse)
    code, out, err = run(capsys, ["family", "torus2", "--q", "400", "--emit", "invariants"])
    assert (code, out) == (3, "")
    assert err == ("precondition failed: the Seifert matrix needs 399 rows, "
                   "over the budget of 256\n")


# Each pair shares a closure key; the second word is refused uncached.  The
# loop budget's query has 301 letters on 3 strands, so 299 rows.
@pytest.mark.parametrize("stored, query, strands", [
    ("1 2 3 -2", "1 3", "4"),
    ("2 1 -2", "1", "3"),
    (" ".join(["1"] * 101 + ["2", "-2"]), " ".join(["1 2 -2"] * 100 + ["1"]), "3"),
], ids=["absent-generator", "absent-generator-conjugate", "loop-budget"])
def test_cache_never_lifts_a_seifert_refusal(tmp_path, capsys, stored, query, strands):
    def argv(word, *extra):
        return ["invariants", word, "--strands", strands, "--seifert", *extra]

    key = canonical_closure_key(parse_braid_word(query, int(strands)))
    assert canonical_closure_key(parse_braid_word(stored, int(strands))) == key
    code, out, err = run(capsys, argv(query))
    assert (code, out) == (3, "")
    cache = ["--cache-dir", str(tmp_path)]
    assert run(capsys, argv(stored, *cache))[0] == 0
    assert run(capsys, argv(query, *cache)) == (3, "", err)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cached_and_uncached_queries_agree(seed):
    # A word (which may miss a generator), its conjugates and its
    # stabilizations, each with some of --homfly and --seifert, asked in a
    # random order through one shared cache and with none.
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    w = random_word(rng, n, 6)
    gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
    words = [w, stabilize(w, 1), stabilize(w, -1)]
    words += [conjugate(v, BraidWord(v.strands, (rng.choice(gens),))) for v in words]
    flags = (["--homfly"], ["--seifert"], ["--homfly", "--seifert"])
    queries = [["invariants", str(v), "--strands", str(v.strands), "--json",
                *rng.choice(flags)] for v in words]
    rng.shuffle(queries)

    def answers(extra):
        results = []
        for argv in queries:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + extra)
            results.append((code, out.getvalue()))
        return results

    with tempfile.TemporaryDirectory() as cache_dir:
        assert answers(["--cache-dir", cache_dir]) == answers([])


def test_disconnected_surface_message_lists_ten_generators(capsys):
    code, out, err = run(capsys, ["invariants", "1", "--strands", "3", "--seifert"])
    assert (code, out) == (3, "")
    assert err == (
        "precondition failed: generator(s) [2] absent; "
        "the Seifert surface is disconnected\n"
    )
    # Ten absent generators are all listed; the eleventh is counted.
    code, _, err = run(capsys, ["invariants", "1", "--strands", "12", "--seifert"])
    assert code == 3
    assert "generator(s) [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] absent;" in err
    code, _, err = run(capsys, ["invariants", "1", "--strands", "13", "--seifert"])
    assert code == 3
    assert "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 1 more absent;" in err
    code, out, err = run(capsys, ["invariants", "1 2", "--strands", "1000", "--seifert"])
    assert (code, out) == (3, "")
    assert "[3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 987 more absent;" in err
    assert len(err.encode()) < 300


def test_key_string_leaves_no_garbage():
    key = canonical_closure_key(parse_braid_word("1 -2 1 -2", 3))
    gc.collect()
    gc.disable()
    try:
        strings = {key_string(key) for _ in range(10)}
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert strings == {"(3,(-2,1,-2,1))"}


def test_family_elrifai_k2_invariants_cached(tmp_path, capsys):
    # 22 crossings: out of reach of the cube of resolutions.
    from knotbound.braid import elrifai_k_word
    from knotbound.khovanov import BigradedRanks
    from knotbound.verify import euler_matches

    argv = ["family", "elrifai-k", "--k", "2", "--emit", "invariants", "--json",
            "--cache-dir", str(tmp_path)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    ranks = BigradedRanks.from_dict({(i, j): r for i, j, r in payload["khovanov"]["ranks"]})
    assert ranks.total_rank() == 29
    assert euler_matches(elrifai_k_word(2), ranks)
    (record,) = ResultCache(str(tmp_path)).records()
    assert all(getattr(record, name) is not None for name in INVARIANTS)
    assert run(capsys, argv) == (0, out, "")


def test_non_utf8_pd_file_exit_2(tmp_path, capsys):
    pd_file = tmp_path / "latin1.pd"
    pd_file.write_bytes(b"X 0 1 1 0 +\n# caf\xe9\nM 0\n")
    code, out, err = run(
        capsys, ["invariants", "--pd-file", str(pd_file), "--khovanov", "--json"]
    )
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


def test_bounds_inverted_delta_span_exit_2(capsys):
    code, out, err = run(
        capsys,
        ["bounds", "1 1 1", "--strands", "2", "--delta-minus", "8", "--delta-plus", "4"],
    )
    assert code == 2
    assert out == ""
    assert "delta_plus must be at least delta_minus" in err


def test_bounds_span_off_diagram_lines_exit_2(capsys):
    # elrifai-res 0 has writhe 5 on 3 strands: its lines are 3 and 7.
    code, out, err = run(
        capsys,
        ["family", "elrifai-res", "--label", "0", "--emit", "bounds",
         "--delta-minus", "1", "--delta-plus", "3"],
    )
    assert code == 2
    assert out == ""
    assert "leaves the diagram lines [3, 7]" in err


def test_pd_file_refuses_braid_invariants_exit_2(tmp_path, capsys):
    _, pd_text, _ = run(capsys, ["invariants", "1 1 1", "--strands", "2", "--emit-pd"])
    pd_file = tmp_path / "trefoil.pd"
    pd_file.write_text(pd_text)
    cache_dir = tmp_path / "cache"
    for extra in (
        ["--homfly", "--seifert"],
        ["1 2 1 2", "--strands", "3", "--khovanov"],
        ["--khovanov", "--emit-pd"],
        ["--khovanov", "--cache-dir", str(cache_dir)],
    ):
        code, out, err = run(capsys, ["invariants", "--pd-file", str(pd_file)] + extra)
        assert code == 2, extra
        assert out == ""
        assert "--pd-file takes only --khovanov and --json" in err
    assert not cache_dir.exists()


# --- cache ---------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    rec = InvariantRecord.fresh(
        canonical_key="k", strands=2, writhe=1, components=1, determinant=1
    )
    cache.store(rec)
    fresh = ResultCache(str(tmp_path))
    assert fresh.load("k").determinant == 1
    assert fresh.load("missing") is None


def test_cache_store_dedupes(tmp_path):
    cache = ResultCache(str(tmp_path))
    rec = InvariantRecord.fresh(canonical_key="k", strands=2, writhe=1, components=1)
    cache.store(rec)
    cache.store(rec)
    lines = (tmp_path / "invariants.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_cache_store_dedupes_across_timestamps(tmp_path):
    cache = ResultCache(str(tmp_path))
    fields = dict(canonical_key="k", strands=2, writhe=1, components=1, signature=0)
    cache.store(InvariantRecord(created="2026-01-01T00:00:00+00:00", **fields))
    cache.store(InvariantRecord(created="2026-01-01T00:00:05+00:00", **fields))
    lines = (tmp_path / "invariants.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert ResultCache(str(tmp_path)).load("k").created == "2026-01-01T00:00:00+00:00"


def test_cache_corrupt_line_skipped(tmp_path):
    good = InvariantRecord.fresh(
        canonical_key="k", strands=2, writhe=1, components=1, signature=0
    )
    path = tmp_path / "invariants.jsonl"
    path.write_text("this is not json\n" + good.to_json() + "\n")
    cache = ResultCache(str(tmp_path))
    with pytest.warns(UserWarning):
        assert cache.load("k").signature == 0


def test_cache_ignores_versionless_record(tmp_path, capsys):
    w = parse_braid_word("1 1 1", 2)
    stale = json.loads(InvariantRecord(
        canonical_key=key_string(canonical_closure_key(w)), strands=2, writhe=3,
        components=1, signature=99, determinant=99,
    ).to_json())
    del stale["version"]
    path = tmp_path / "invariants.jsonl"
    path.write_text(json.dumps(stale) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an old record is not a corrupt one
        code, out, _ = run(capsys, ["invariants", "1 1 1", "--strands", "2", "--seifert",
                                    "--json", "--cache-dir", str(tmp_path)])
    assert code == 0
    assert json.loads(out)["signature"] == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["version"] == CACHE_VERSION


TREFOIL_KEY = key_string(canonical_closure_key(parse_braid_word("1 1 1", 2)))
TREFOIL_LINE = json.loads(InvariantRecord(
    canonical_key=TREFOIL_KEY, strands=2, writhe=3, components=1,
).to_json())


@pytest.mark.parametrize(
    "line",
    [
        [],
        None,
        {**TREFOIL_LINE, "strands": None},
        {**TREFOIL_LINE, "canonical_key": ["x"]},
        {**TREFOIL_LINE, "homfly": 5},
        {**TREFOIL_LINE, "homfly": {"terms": [[0, 0]], "clearing": 0}},
        {**TREFOIL_LINE, "khovanov": [[0, 0, "1"]]},
        {**TREFOIL_LINE, "signature": True},
    ],
    ids=["list", "null", "null-strands", "list-key", "int-homfly", "short-term",
         "string-rank", "bool-signature"],
)
def test_cache_malformed_line_recomputed(tmp_path, capsys, line):
    argv = ["invariants", "1 1 1", "--strands", "2", "--all", "--json"]
    _, direct, _ = run(capsys, argv)
    path = tmp_path / "invariants.jsonl"
    path.write_text(json.dumps(line) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (code, out) == (0, direct)
    assert [w.category for w in caught] == [UserWarning]
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    appended = InvariantRecord.from_json(lines[1])
    assert appended.canonical_key == TREFOIL_KEY and appended.version == CACHE_VERSION
    assert json.loads(direct)["khovanov"]["ranks"] == appended.khovanov


def test_cache_unreadable_file_not_fatal(tmp_path, capsys, monkeypatch):
    argv = ["invariants", "1 1 1", "--strands", "2", "--homfly", "--json",
            "--cache-dir", str(tmp_path)]
    _, direct, _ = run(capsys, argv[:-2])
    # Not UTF-8, and no final newline: the record must land on a line of its own.
    (tmp_path / "invariants.jsonl").write_bytes(b"\xff\xfe")
    with pytest.warns(UserWarning, match="corrupt cache line 1"):
        code, out, _ = run(capsys, argv)
    assert (code, out) == (0, direct)

    def refuse(w):
        raise RuntimeError("the second query must be served from the cache")

    monkeypatch.setattr("knotbound.cli.homfly", refuse)
    with pytest.warns(UserWarning, match="corrupt cache line 1"):
        code, out, _ = run(capsys, argv)
    assert (code, out) == (0, direct)


def test_cache_never_serves_link_khovanov(tmp_path, capsys):
    # Conjugate words of a trefoil split from an unknot: one key, but the
    # marked strand lies on the trefoil in one and on the unknot in the other.
    words = ("-2 -1 -1 -1 2", "-1 -2 -1 -1 -1 2 1")
    keys = {canonical_closure_key(parse_braid_word(w, 3)) for w in words}
    assert len(keys) == 1
    direct = [run(capsys, ["invariants", w, "--strands", "3", "--khovanov", "--json"])[1]
              for w in words]
    assert direct[0] != direct[1]
    for w, expected in zip(words, direct):
        code, out, _ = run(capsys, ["invariants", w, "--strands", "3", "--khovanov",
                                    "--json", "--cache-dir", str(tmp_path)])
        assert (code, out) == (0, expected)
    for line in (tmp_path / "invariants.jsonl").read_text().splitlines():
        assert json.loads(line)["khovanov"] is None


# The figure-eight knot and its two stabilizations.
STABILIZED = (("1 -2 1 -2", "3"), ("1 -2 1 -2 3", "4"), ("1 -2 1 -2 -3", "4"))


def _refuse_engines(monkeypatch):
    def refuse(w):
        raise RuntimeError("a Markov-equivalent query must be served from the cache")

    for name in ("homfly", "signature", "determinant"):
        monkeypatch.setattr(f"knotbound.cli.{name}", refuse)


@pytest.mark.parametrize("first", range(3), ids=["base-first", "plus-first", "minus-first"])
def test_cache_shared_by_stabilizations(tmp_path, capsys, monkeypatch, first):
    def argv(word, strands, *extra):
        return ["invariants", word, "--strands", strands, "--homfly", "--seifert",
                "--json", *extra]

    direct = [run(capsys, argv(*w))[1] for w in STABILIZED]
    cache_argv = ["--cache-dir", str(tmp_path)]
    assert run(capsys, argv(*STABILIZED[first], *cache_argv)) == (0, direct[first], "")
    _refuse_engines(monkeypatch)
    for i in (i for i in range(3) if i != first):
        assert run(capsys, argv(*STABILIZED[i], *cache_argv)) == (0, direct[i], "")
    assert [json.loads(out)["strands"] for out in direct] == [3, 4, 4]
    assert [json.loads(out)["writhe"] for out in direct] == [0, 1, -1]
    code, out, _ = run(capsys, ["cache", "list", "--json", *cache_argv])
    (record,) = json.loads(out)
    assert code == 0
    assert (record["canonical_key"], record["strands"], record["writhe"]) == (
        "(3,(-2,1,-2,1))", 3, 0)


def test_cache_serves_version_3_record_to_stabilization(tmp_path, capsys, monkeypatch):
    # As a version-3 cache wrote the figure-eight knot before keys destabilized.
    line = {"canonical_key": "(3,(-2,1,-2,1))", "components": 1,
            "created": "2026-01-01T00:00:00+00:00", "determinant": 5, "homfly": None,
            "khovanov": None, "signature": 0, "strands": 3, "version": 3, "writhe": 0}
    path = tmp_path / "invariants.jsonl"
    path.write_text(json.dumps(line, sort_keys=True) + "\n")
    argv = ["invariants", "1 -2 1 -2 -3", "--strands", "4", "--seifert", "--json"]
    _, direct, _ = run(capsys, argv)
    _refuse_engines(monkeypatch)
    assert run(capsys, argv + ["--cache-dir", str(tmp_path)]) == (0, direct, "")
    assert path.read_text() == json.dumps(line, sort_keys=True) + "\n"


ints = st.integers(-10**6, 10**6)
triples = st.lists(st.lists(ints, min_size=3, max_size=3), max_size=4)
records = st.builds(
    InvariantRecord,
    canonical_key=st.text(max_size=8),
    strands=ints,
    writhe=ints,
    components=ints,
    homfly=st.none() | st.fixed_dictionaries({"terms": triples, "clearing": ints}),
    khovanov=st.none() | triples,
    signature=st.none() | ints,
    determinant=st.none() | ints,
    created=st.text(max_size=8),
    version=st.none() | ints,
)


@given(records, records)
def test_record_round_trip_and_merge(rec, earlier):
    assert rec.to_json() == json.dumps(asdict(rec), sort_keys=True)
    assert InvariantRecord.from_json(rec.to_json()) == rec
    merged = rec.merged_with(earlier)
    for name in INVARIANTS:
        own = getattr(rec, name)
        assert getattr(merged, name) == (getattr(earlier, name) if own is None else own)
    assert merged.created == (earlier.created or rec.created)
    for name in ("canonical_key", "strands", "writhe", "components", "version"):
        assert getattr(merged, name) == getattr(rec, name)


# --- per-key reads --------------------------------------------------------------

def _full_decode(data: bytes) -> dict:
    """Every current-version record of a cache file, merged per key in file order."""
    merged = {}
    for line in data.splitlines():
        try:
            rec = InvariantRecord.from_json(line.decode())
        except ValueError:
            continue
        if rec.version == CACHE_VERSION:
            known = merged.get(rec.canonical_key)
            merged[rec.canonical_key] = rec.merged_with(known) if known else rec
    return merged


def _warned_lines(caught) -> list[int]:
    return [int(re.search(r"corrupt cache line (\d+)", str(w.message)).group(1))
            for w in caught if "corrupt cache line" in str(w.message)]


CACHE_KEYS = ["k", "k2", 'q"uote', "back\\slash", "é", "(3,(1,2))", "",
              '"canonical_key": "k"']
small = st.integers(-3, 3)
key_records = st.builds(
    InvariantRecord,
    canonical_key=st.sampled_from(CACHE_KEYS),
    strands=small, writhe=small, components=st.sampled_from([1, 2]),
    homfly=st.none() | st.fixed_dictionaries(
        {"terms": st.lists(st.lists(small, min_size=3, max_size=3), max_size=2),
         "clearing": small}),
    khovanov=st.none() | st.lists(st.lists(small, min_size=3, max_size=3), max_size=2),
    signature=st.none() | small, determinant=st.none() | small,
    created=st.sampled_from(["", "t0", "t1"]),
    version=st.sampled_from([CACHE_VERSION, CACHE_VERSION, None, 2]),
)
corrupt_lines = st.sampled_from([
    b"[]", b"null", b"", b"   ", b"\xff\xfe", b"not json",
    json.dumps({"canonical_key": ["k"]}).encode(),
]) | key_records.map(lambda r: r.to_json().encode()[:-7]) | key_records.map(
    lambda r: json.dumps({**asdict(r), "strands": None}, sort_keys=True).encode())
cache_lines = st.lists(key_records.map(lambda r: r.to_json().encode()) | corrupt_lines,
                       max_size=12)


@settings(deadline=None)
@given(cache_lines, st.booleans())
def test_cache_load_matches_full_decode(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    full = _full_decode(data)
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (Path(d) / "invariants.jsonl").write_bytes(data)
        assert ResultCache(d).records() == sorted(full.values(),
                                                  key=lambda r: r.canonical_key)
        for key in CACHE_KEYS + ["missing"]:
            expected = _servable(full[key]) if key in full else None
            assert ResultCache(d).load(key) == expected, key


def test_cache_load_decodes_only_its_key(tmp_path, monkeypatch):
    recs = [InvariantRecord(canonical_key=f"(3,(1,{i}))", strands=3, writhe=i,
                            components=1, signature=i % 5) for i in range(200)]
    lines = [r.to_json() for r in recs]
    # A second, partial line of one key, and two lines with no readable key.
    lines[150:150] = [replace(recs[57], signature=None, determinant=7).to_json(), "[]"]
    lines.append("null")
    (tmp_path / "invariants.jsonl").write_text("\n".join(lines) + "\n")
    decoded = []
    real = InvariantRecord.from_json

    def counting(line):
        decoded.append(line)
        return real(line)

    monkeypatch.setattr(InvariantRecord, "from_json", staticmethod(counting))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = ResultCache(str(tmp_path)).load(recs[57].canonical_key)
    assert decoded == [lines[57], lines[150], "[]", "null"]
    assert _warned_lines(caught) == [152, 203]
    assert (rec.writhe, rec.signature, rec.determinant) == (57, 2, 7)


def _file_with_corrupt_lines(tmp_path) -> None:
    """Line 1 a good record of k, line 2 a corrupt record of another key,
    line 3 a line with no readable key."""
    good = InvariantRecord(canonical_key="k", strands=2, writhe=1, components=1,
                           signature=0)
    other = {**asdict(replace(good, canonical_key="other")), "strands": None}
    (tmp_path / "invariants.jsonl").write_text(
        good.to_json() + "\n" + json.dumps(other, sort_keys=True) + "\n[]\n")


def test_cache_lookup_warns_only_about_lines_it_could_serve(tmp_path):
    _file_with_corrupt_lines(tmp_path)
    for key, warned in (("k", [3]), ("other", [2, 3]), ("missing", [3])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ResultCache(str(tmp_path)).load(key)
        assert _warned_lines(caught) == warned, key


def test_cache_list_warns_once_per_corrupt_line(tmp_path, capsys):
    _file_with_corrupt_lines(tmp_path)
    path = tmp_path / "invariants.jsonl"
    with path.open("ab") as fh:
        fh.write(b"\xff\n" + InvariantRecord(canonical_key="z", strands=2, writhe=1,
                                            components=1).to_json().encode()[:-3] + b"\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert code == 0 and "1 record(s)" in out
    assert _warned_lines(caught) == [2, 3, 4, 5]


def test_cache_key_needs_no_normal_form(tmp_path, capsys, monkeypatch):
    def refuse(w):
        raise RuntimeError("the cache key must not compute a Garside normal form")

    monkeypatch.setattr("knotbound.braid.garside_normal_form", refuse)
    payloads = []
    # The figure-eight word and its conjugate by sigma_2.
    for word in ("1 -2 1 -2", "2 1 -2 1 -2 -2"):
        code, out, _ = run(capsys, ["invariants", word, "--strands", "3", "--homfly",
                                    "--seifert", "--json", "--cache-dir", str(tmp_path)])
        assert code == 0
        payloads.append(json.loads(out))
    for field in ("homfly", "signature", "determinant"):
        assert payloads[0][field] == payloads[1][field]
    assert len((tmp_path / "invariants.jsonl").read_text().splitlines()) == 1


def test_cache_hit_report_identical(tmp_path, capsys):
    argv = ["invariants", "1 1 1", "--strands", "2", "--all", "--json",
            "--cache-dir", str(tmp_path)]
    code1, cold, _ = run(capsys, argv)
    code2, warm, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert cold == warm
    assert (tmp_path / "invariants.jsonl").exists()


def test_cache_cli_list_and_clear(tmp_path, capsys):
    run(capsys, ["invariants", "1", "--strands", "2", "--all",
                 "--cache-dir", str(tmp_path)])
    code, out, _ = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert code == 0 and "1 record(s)" in out
    code, _, _ = run(capsys, ["cache", "clear", "--cache-dir", str(tmp_path)])
    assert code == 0
    code, out, _ = run(capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert code == 0 and "0 record(s)" in out


def test_cache_cli_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("KNOTBOUND_CACHE", raising=False)
    code, _, err = run(capsys, ["cache", "list"])
    assert code == 2 and "KNOTBOUND_CACHE" in err


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KNOTBOUND_CACHE", str(tmp_path))
    code, _, _ = run(capsys, ["invariants", "1", "--strands", "2", "--all"])
    assert code == 0
    assert (tmp_path / "invariants.jsonl").exists()


def test_json_output_deterministic(capsys):
    argv = ["invariants", "1 2 2 1 1 -2", "--strands", "3", "--all", "--json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
