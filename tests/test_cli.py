import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotbound import khovanov
from knotbound.braid import canonical_closure_key, parse_braid_word
from knotbound.cache import (
    CACHE_VERSION,
    INVARIANTS,
    InvariantRecord,
    ResultCache,
    key_string,
)
from knotbound.cli import build_parser, main


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
    ],
    ids=["non-integer-port", "bare-U", "bare-M", "negative-edge", "misoriented",
         "sparse-edge-ids"],
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


def test_crossing_budget_exit_3(tmp_path, capsys, monkeypatch):
    def refuse(pd, vertex):
        raise RuntimeError("the cube must not be built")

    monkeypatch.setattr(khovanov, "_vertex_circles", refuse)
    over = " ".join(["1"] * (khovanov.MAX_CROSSINGS + 1))
    code, out, err = run(capsys, ["invariants", over, "--strands", "2", "--khovanov"])
    assert (code, out) == (3, "")
    assert f"{khovanov.MAX_CROSSINGS + 1} crossings exceed" in err
    pd_file = tmp_path / "over.pd"
    pd_file.write_text(khovanov.pd_to_text(khovanov.braid_to_pd(parse_braid_word(over, 2))))
    code, out, err = run(capsys, ["invariants", "--pd-file", str(pd_file), "--khovanov"])
    assert (code, out) == (3, "")
    # A diagram at the budget goes on to build the cube.
    at = parse_braid_word(" ".join(["1"] * khovanov.MAX_CROSSINGS), 2)
    with pytest.raises(RuntimeError, match="must not be built"):
        khovanov.reduced_khovanov(khovanov.braid_to_pd(at))


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
    ],
    ids=["list", "null", "null-strands", "list-key", "int-homfly", "short-term",
         "string-rank"],
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


def test_cache_unreadable_file_not_fatal(tmp_path, capsys):
    argv = ["invariants", "1 1 1", "--strands", "2", "--homfly", "--json"]
    _, direct, _ = run(capsys, argv)
    (tmp_path / "invariants.jsonl").write_bytes(b"\xff\xfe\n")
    with pytest.warns(UserWarning, match="cache read failed"):
        code, out, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
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
    assert InvariantRecord.from_json(rec.to_json()) == rec
    merged = rec.merged_with(earlier)
    for name in INVARIANTS:
        own = getattr(rec, name)
        assert getattr(merged, name) == (getattr(earlier, name) if own is None else own)
    assert merged.created == (earlier.created or rec.created)
    for name in ("canonical_key", "strands", "writhe", "components", "version"):
        assert getattr(merged, name) == getattr(rec, name)


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
