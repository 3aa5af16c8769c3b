import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from knotbound import cli, khovanov, laurent
from knotbound.braid import (
    MAX_FAMILY_LETTERS,
    MAX_STRANDS,
    BraidError,
    BraidWord,
    FamilyTooLong,
    PreconditionFailed,
    _half_twist,
    canonical_closure_key,
    closure_components,
    conjugate,
    parse_braid_word,
    permutation_braid_word,
    scan_word,
    stabilize,
)
from knotbound.cache import (
    CACHE_VERSION,
    ENV_VAR,
    INVARIANTS,
    InvariantRecord,
    ResultCache,
    _servable,
    key_string,
)
from knotbound.cli import main
from knotbound.homfly import MAX_WIDTH, TooManyTerms, homfly
from knotbound.laurent import to_aq
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
    code, out, _ = run(
        capsys, ["family", "elrifai-k", "--k", "1", "--emit", "word", "--json"]
    )
    assert (code, out) == (0, f'{{"strands": 3, "word": "{KSTAR_TEXT}"}}\n')


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


@pytest.mark.parametrize("argv, letters", [
    (["torus2", "--q", "1000000000"], 10**9),
    (["elrifai-k", "--k", "1000000000"], 10**10 + 2),
    (["elrifai-l", "--k", "1000000000"], 10**10 + 4),
    (["bm", "--x", "1000000000", "--y", "1", "--z", "1", "--w", "1"], 10**9 + 9),
], ids=["q", "k", "k-l", "x"])
def test_family_letter_budget_checked_before_building(argv, letters):
    # Under a 1 GiB address limit, a word of 10^9 letters cannot be built:
    # it must be refused from its parameters.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "knotbound.cli", "family", *argv, "--emit", "word"],
        capture_output=True, text=True, preexec_fn=limit_memory, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(khovanov.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    assert proc.stderr == (f"precondition failed: the family word would have {letters} "
                           f"letters, over the budget of {MAX_FAMILY_LETTERS}\n")
    assert issubclass(FamilyTooLong, PreconditionFailed)


def test_family_letter_budget_admits_its_bound(capsys):
    q = str(MAX_FAMILY_LETTERS)
    code, out, _ = run(capsys, ["family", "torus2", "--q", q, "--emit", "word"])
    assert code == 0 and out.count("1") == MAX_FAMILY_LETTERS
    code, _, err = run(capsys, ["family", "torus2", "--q", str(MAX_FAMILY_LETTERS + 1)])
    assert code == 3 and "budget" in err


def test_parser_built_once():
    assert cli._parsers()[0] is cli._parsers()[0]


# Every usage error and help request of every verb, and of the top level.
USAGE_ARGVS = [
    [], ["nope"], ["--help"], ["-h"], ["--bogus"], ["--", "invariants"],
    ["invariants", "1", "--strands", "2", "--bogus"],
    ["invariants", "1", "2", "--strands", "2"],
    ["invariants", "1", "--strands"],
    ["invariants", "1", "--strands", "two"],
    ["invariants", "1", "--strands", "2", "--he"],
    ["invariants", "-h"],
    ["family", "torus2", "--q", "3", "--bogus"],
    ["family", "torus2", "extra"],
    ["family"],
    ["family", "nope"],
    ["family", "torus2", "--emit", "nope"],
    ["family", "torus2", "--q", "three"],
    ["family", "--help"],
    ["bounds", "1", "--strands", "2", "--bogus"],
    ["bounds", "1", "2", "--strands", "2"],
    ["bounds", "1"],
    ["bounds", "1", "--strands", "two"],
    ["bounds", "-h"],
    ["verify-paper", "--bogus"],
    ["verify-paper", "extra"],
    ["verify-paper", "--section"],
    ["verify-paper", "--section", "9"],
    ["verify-paper", "-h"],
    ["cache", "list", "--bogus"],
    ["cache", "list", "extra"],
    ["cache"],
    ["cache", "nuke"],
    ["cache", "-h"],
]


@pytest.mark.parametrize("argv", USAGE_ARGVS, ids=" ".join)
def test_usage_messages_are_the_full_parsers(capsys, argv):
    code, out, err = run(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        cli._parsers()[0].parse_args(argv)
    assert (code, out, err) == (exc.value.code, *capsys.readouterr())


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


@pytest.mark.parametrize("argv", [
    ["bounds", KSTAR_TEXT, "--strands", "3", "--delta-minus", "4"],
    ["family", "elrifai-k", "--k", "1", "--emit", "bounds", "--delta-plus", "8"],
], ids=["bounds-minus-only", "family-plus-only"])
def test_one_sided_delta_span_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "supply both --delta-minus and --delta-plus or neither" in err
    assert "Traceback" not in err


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
    # Once per run_claims call: the memo does not outlive the call.
    import knotbound.verify as verify
    from knotbound.braid import elrifai_k_word
    from knotbound.khovanov import braid_to_pd, reduced_khovanov

    main_pd = braid_to_pd(elrifai_k_word(1))
    calls = []

    def counting(pd):
        calls.append(pd == main_pd)
        return reduced_khovanov(pd)

    monkeypatch.setattr(verify, "reduced_khovanov", counting)
    for calls_so_far in (1, 2):
        results = verify.run_claims("2")
        assert all(r["passed"] for r in results)
        assert sum(calls) == calls_so_far


def counted_eliminations(monkeypatch) -> list:
    """Patch ``seifert._ldl`` to record the size of each form it eliminates."""
    from knotbound import seifert

    calls, real = [], seifert._ldl

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(seifert, "_ldl", counting)
    return calls


def test_verify_section_two_eliminates_each_resolution_once(monkeypatch):
    import knotbound.verify as verify

    calls = counted_eliminations(monkeypatch)
    results = verify.run_claims("2")
    assert all(r["passed"] for r in results)
    assert len(calls) == len(verify.SIGMA_DET_TABLE)


@pytest.mark.parametrize("argv", [
    ["invariants", KSTAR_TEXT, "--strands", "3", "--seifert"],
    ["invariants", "1 1 1", "--strands", "2", "--all"],
    ["family", "torus2", "--q", "5", "--emit", "invariants"],
], ids=["seifert", "all", "family"])
def test_seifert_fields_come_from_one_elimination(capsys, monkeypatch, argv):
    monkeypatch.delenv("KNOTBOUND_CACHE", raising=False)
    calls = counted_eliminations(monkeypatch)
    code, out, _ = run(capsys, argv)
    assert code == 0 and "signature" in out and "determinant" in out
    assert len(calls) == 1


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
        ("X 0 1 2 +\nM 0\n", "malformed crossing line 'X 0 1 2 +'"),
        ("X 0 1 1 0 *\nM 0\n", "malformed crossing line 'X 0 1 1 0 *'"),
        ("X 1 1 0 0 +\nY 0\n", "unrecognised PD line 'Y 0'"),
        # The closure of the one-letter 2-strand word, which has 2 edges.
        ("X 1 1 0 0 +\nM 7\n", "marked edge out of range"),
        ("X 0 0 0 1 +\nM 0\n", "edges [0, 1] do not appear exactly twice"),
        # Well-oriented, but on a torus: once an engine inconsistency, and
        # once a table printed with exit 0.
        ("X 5 2 0 4 -\nX 4 6 1 5 -\nX 1 6 2 3 +\nX 7 0 3 7 -\nM 0\n",
         "not planar: its components lie on surfaces of total genus 1"),
        ("X 3 2 0 1 +\nX 0 2 1 3 -\nM 0\n",
         "not planar: its components lie on surfaces of total genus 1"),
    ],
    ids=["non-integer-port", "bare-U", "bare-M", "negative-edge", "misoriented",
         "sparse-edge-ids", "second-M", "four-tokens", "bad-sign", "unknown-line",
         "marked-out-of-range", "edge-three-times", "genus-1-inconsistent",
         "genus-1-table"],
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
    assert "Traceback" not in err


def pd_file_khovanov(tmp_path, capsys, text) -> list:
    pd_file = tmp_path / "diagram.pd"
    pd_file.write_text(text)
    code, out, _ = run(
        capsys, ["invariants", "--pd-file", str(pd_file), "--khovanov", "--json"]
    )
    assert code == 0
    return json.loads(out)["khovanov"]["ranks"]


def test_pd_file_comments_and_default_marked_edge(tmp_path, capsys):
    # A trefoil (edges 0-5) beside a free unknot (edge 6): the table depends
    # on the marked component, so marking edge 6 tells a file with no M line
    # from one with M 0.
    crossings = "X 3 4 1 0 +\nX 4 5 2 1 +\nX 5 3 0 2 +\nU 6\n"
    marked_0 = pd_file_khovanov(tmp_path, capsys, crossings + "M 0\n")
    assert marked_0 != pd_file_khovanov(tmp_path, capsys, crossings + "M 6\n")
    commented = "# trefoil and a free circle\n\n" + crossings.replace("\n", "\n  \n# -\n", 1)
    assert pd_file_khovanov(tmp_path, capsys, commented) == marked_0


def test_emitted_free_circle_round_trips(tmp_path, capsys):
    argv = ["invariants", "1", "--strands", "3"]
    code, pd_text, _ = run(capsys, argv + ["--emit-pd"])
    assert code == 0 and "U 2\n" in pd_text.splitlines(keepends=True)
    code, out, _ = run(capsys, argv + ["--khovanov", "--json"])
    assert code == 0
    assert pd_file_khovanov(tmp_path, capsys, pd_text) == json.loads(out)["khovanov"]["ranks"]


def _planar(crossings) -> bool:
    """Oracle: Euler's formula V - E + F = 2 on each connected component of
    the crossings, with E = 2V and the faces traced turning clockwise."""
    ports: dict[int, list] = {}
    for x, (edges, _) in enumerate(crossings):
        for i, e in enumerate(edges):
            ports.setdefault(e, []).append((x, i))

    def far(x, i):
        a, b = ports[crossings[x][0][i]]
        return b if a == (x, i) else a

    unseen = set(range(len(crossings)))
    while unseen:
        component, stack = set(), [unseen.pop()]
        while stack:
            x = stack.pop()
            component.add(x)
            for i in range(4):
                y = far(x, i)[0]
                if y in unseen:
                    unseen.remove(y)
                    stack.append(y)
        darts = {(x, i) for x in component for i in range(4)}
        faces = 0
        while darts:
            faces += 1
            start = d = next(iter(darts))
            while True:
                darts.remove(d)
                y, j = far(*d)
                d = (y, (j - 1) % 4)
                if d == start:
                    break
        if faces - len(component) != 2:
            return False
    return True


@st.composite
def incidence_codes(draw):
    """1-6 crossings of random signs, each outgoing port joined to a random
    incoming port, and 0-2 free circles, under random edge ids: valid
    incidence and orientation, planar or not."""
    c = draw(st.integers(1, 6))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=c, max_size=c))
    outgoing = [(x, p) for x, s in enumerate(signs) for p in (2, 1 if s > 0 else 3)]
    incoming = [(x, p) for x, s in enumerate(signs) for p in (0, 3 if s > 0 else 1)]
    ids = draw(st.permutations(range(2 * c + draw(st.integers(0, 2)))))
    edges = [[0] * 4 for _ in signs]
    for e, (x, p), (y, q) in zip(ids, outgoing, draw(st.permutations(incoming))):
        edges[x][p] = edges[y][q] = e
    return [(tuple(ports), s) for ports, s in zip(edges, signs)], list(ids[2 * c:])


@st.composite
def pd_files(draw):
    """PD text from a random code, a scrambled braid closure diagram (its
    crossings shuffled, its edge ids permuted) or a split union of the two,
    with a random marked edge or none; whether every component is planar;
    and for a scrambled diagram, its braid's diagram with the same edge
    marked."""
    source = draw(st.sampled_from(["code", "braid", "union"]))
    crossings, free = draw(incidence_codes()) if source != "braid" else ([], [])
    if source != "code":
        n = draw(st.integers(1, 4))
        gens = [s * g for g in range(1, n) for s in (1, -1)]
        letters = draw(st.lists(st.sampled_from(gens), max_size=8) if gens else st.just([]))
        pd = khovanov.braid_to_pd(BraidWord(n, tuple(letters)))
        shift = 2 * len(crossings) + len(free)
        ids = [shift + e for e in draw(st.permutations(range(pd.n_edges)))]
        crossings += draw(st.permutations(
            [(tuple(ids[e] for e in ports), s) for ports, s in pd.crossings]))
        free += [ids[e] for e in pd.free_edges]
    marked = draw(st.none() | st.integers(0, 2 * len(crossings) + len(free) - 1))
    lines = [f"X {' '.join(map(str, ports))} {'+' if s > 0 else '-'}"
             for ports, s in crossings]
    lines += [f"U {e}" for e in free] + ([] if marked is None else [f"M {marked}"])
    original = None
    if source == "braid":
        original = replace(pd, marked_edge=ids.index(marked or 0))
    return "".join(line + "\n" for line in lines), _planar(crossings), original


@settings(max_examples=400, deadline=None)
@given(pd_files())
# A split union of a torus diagram and a trefoil: refused for the first.
@example(("X 3 2 0 1 +\nX 0 2 1 3 -\nX 7 8 5 4 +\nX 8 9 6 5 +\nX 9 7 4 6 +\n", False,
          None))
def test_pd_file_exits_0_exactly_when_planar(case):
    text, planar, original = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "diagram.pd")
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["invariants", "--pd-file", str(path), "--khovanov", "--json"])
    assert "Traceback" not in err.getvalue()
    assert code == (0 if planar else 2), err.getvalue()
    if not planar:
        assert "not planar" in err.getvalue()
    if original is not None:
        expected = khovanov.reduced_khovanov(original).triples()
        assert json.loads(out.getvalue())["khovanov"]["ranks"] == [list(t) for t in expected]


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


def scanned_steps(monkeypatch):
    """The diagram the CLI scans for KSTAR_TEXT, its table, and a list that
    records the object count of every scanning step built from now on."""
    built = []
    build = khovanov._Step.build

    def recording(step):
        build(step)
        built.append(len(step.cx.objects))

    monkeypatch.setattr(khovanov._Step, "build", recording)
    # The CLI scans a knot from scan_word of its key word, from the start
    # reduced_khovanov chooses, so the budgets are set by that diagram.
    key = canonical_closure_key(parse_braid_word(KSTAR_TEXT, 3))
    pd = khovanov.braid_to_pd(scan_word(BraidWord(*key)))
    return pd, khovanov.reduced_khovanov(pd), built


def refused_steps(tmp_path, capsys, pd, built, message):
    """Run KSTAR_TEXT and the --pd-file of ``pd``: both must exit 3 with
    ``message`` before the last step.  Returns the steps each one built."""
    pd_file = tmp_path / "over.pd"
    pd_file.write_text(khovanov.pd_to_text(pd))
    runs = []
    for argv in (["invariants", KSTAR_TEXT, "--strands", "3", "--khovanov"],
                 ["invariants", "--pd-file", str(pd_file), "--khovanov"]):
        built.clear()
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert message in err and "Traceback" not in err
        assert len(built) < len(pd.crossings)
        runs.append(list(built))
    return runs


def test_crossing_budget_exit_3(tmp_path, capsys, monkeypatch):
    pd, expected, built = scanned_steps(monkeypatch)
    peak = max(built)
    # A diagram at the budget proceeds.
    monkeypatch.setattr(khovanov, "MAX_OBJECTS", peak)
    assert khovanov.reduced_khovanov(pd) == expected
    # Over it, both input paths exit 3 before the oversized step is built.
    monkeypatch.setattr(khovanov, "MAX_OBJECTS", peak - 1)
    for steps in refused_steps(tmp_path, capsys, pd, built,
                               f"objects, over the budget of {peak - 1}"):
        assert steps and max(steps) < peak


def test_scan_budget_exit_3(tmp_path, capsys, monkeypatch):
    pd, expected, built = scanned_steps(monkeypatch)
    total = sum(built)
    # A scan that builds exactly the budget proceeds.
    monkeypatch.setattr(khovanov, "MAX_SCAN_OBJECTS", total)
    assert khovanov.reduced_khovanov(pd) == expected
    # One object less, and both input paths exit 3 before the last step is
    # built, though every step is under MAX_OBJECTS.
    monkeypatch.setattr(khovanov, "MAX_SCAN_OBJECTS", total - 1)
    assert max(built) < khovanov.MAX_OBJECTS
    for steps in refused_steps(tmp_path, capsys, pd, built,
                               f"objects over its steps, over the budget of {total - 1}"):
        assert steps and sum(steps) < total


def test_scan_refused_from_its_crossing_count(capsys):
    # A step builds at least two objects, so 30,001 crossings are over
    # MAX_SCAN_OBJECTS; the word is refused before its diagram is built.
    text = " ".join(["1"] * 30_001)
    start = time.process_time()
    code, out, err = run(capsys, ["invariants", text, "--strands", "2", "--khovanov"])
    seconds = time.process_time() - start
    assert (code, out) == (3, "")
    assert "the scan of 30001 crossings needs at least 60002 objects" in err
    assert "Traceback" not in err
    assert seconds < 0.5, seconds


def test_pd_file_scan_refused_before_its_order(tmp_path, capsys, monkeypatch):
    def refuse(pd):
        raise RuntimeError("the crossing count must refuse before the scan order")

    pd = khovanov.braid_to_pd(parse_braid_word(KSTAR_TEXT, 3))
    c = len(pd.crossings)
    pd_file = tmp_path / "over.pd"
    pd_file.write_text(khovanov.pd_to_text(pd))
    monkeypatch.setattr(khovanov, "MAX_SCAN_OBJECTS", 2 * c)
    khovanov.check_crossings(c)
    monkeypatch.setattr(khovanov, "MAX_SCAN_OBJECTS", 2 * c - 1)
    monkeypatch.setattr(khovanov, "_scan_order", refuse)
    with pytest.raises(khovanov.TooManyCrossings):
        khovanov.reduced_khovanov(pd)
    code, out, err = run(capsys, ["invariants", "--pd-file", str(pd_file), "--khovanov"])
    assert (code, out) == (3, "")
    assert f"the scan of {c} crossings needs at least {2 * c} objects" in err
    assert "Traceback" not in err


def closed_to(w, components):
    """w times a shortest permutation braid after which its closure has
    ``components`` components."""
    tails = sorted((permutation_braid_word(q)
                    for q in itertools.permutations(range(w.strands))), key=len)
    return next(v for v in (w.with_letters(w.letters + t) for t in tails)
                if closure_components(v) == components)


@st.composite
def closure_words(draw, components):
    """Words on 2..5 strands of up to 12 random letters, closed to
    ``components`` components by a permutation braid, conjugated, then
    perhaps stabilized."""
    n = draw(st.integers(max(2, components), 5))
    gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
    w = BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=12))))
    w = closed_to(w, components)
    w = conjugate(w, BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=2)))))
    sign = draw(st.sampled_from([0, 1, -1]))
    return stabilize(w, sign) if sign else w


def assert_khovanov_is_the_query_words(w):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["invariants", str(w), "--strands", str(w.strands),
                     "--khovanov", "--json"])
    assert code == 0
    expected = khovanov.reduced_khovanov(khovanov.braid_to_pd(w)).triples()
    assert json.loads(out.getvalue())["khovanov"]["ranks"] == [list(t) for t in expected]


@settings(max_examples=100, deadline=None)
@given(closure_words(components=1))
def test_knot_khovanov_matches_query_word_scan(w):
    # The CLI scans a knot from scan_word of its key word; the table must be
    # the query word's own.
    assert closure_components(w) == 1
    assert_khovanov_is_the_query_words(w)


@settings(max_examples=60, deadline=None)
@given(closure_words(components=2))
@example(parse_braid_word("1 2 2 1 1 2 -2 1 -2 -2 -2", 3))
@example(parse_braid_word("1 2 1 2 -1", 3))
def test_link_khovanov_matches_query_word_scan(w):
    # The CLI scans a link from reduce_handles of the query word, an equal
    # braid, so strand 1's closure arc still carries the marked edge.
    assert closure_components(w) == 2
    assert_khovanov_is_the_query_words(w)


def test_knot_scanned_from_key_word_link_from_its_own(tmp_path, capsys, monkeypatch):
    scanned = []
    to_pd = cli.braid_to_pd
    monkeypatch.setattr(cli, "braid_to_pd", lambda w: scanned.append(w) or to_pd(w))
    knot = parse_braid_word("-1 2 -1 -1 -1 -2 -2 1", 3)
    # A Hopf link beside a circle; cyclic reduction shortens its key word.
    link = parse_braid_word("2 1 1 -2", 3)
    assert closure_components(knot) == 1 and closure_components(link) == 3
    assert canonical_closure_key(link) == (3, (1, 1))
    # A 2-component link whose word reduce_handles shortens: its handle
    # 1 2 -1 becomes -2 1 2, and 1 2 -2 1 2 freely reduces to 1 1 2.
    handled = parse_braid_word("1 2 1 2 -1", 3)
    assert closure_components(handled) == 2
    for cache in ([], ["--cache-dir", str(tmp_path)]):
        for w, expected in ((knot, BraidWord(2, (-1, -1, -1))), (link, link),
                            (handled, BraidWord(3, (1, 1, 2)))):
            scanned.clear()
            code, _, _ = run(capsys, ["invariants", str(w), "--strands", "3",
                                      "--khovanov", *cache])
            assert code == 0 and scanned == [expected]
    # A knot whose 8-letter key word is shortened by handle reduction and
    # braid relations.
    knot = parse_braid_word("-1 2 1 2 -1 2 1 2", 3)
    key_word = BraidWord(*canonical_closure_key(knot))
    assert len(key_word) == 8
    scanned.clear()
    assert run(capsys, ["invariants", str(knot), "--strands", "3", "--khovanov"])[0] == 0
    assert len(scanned) == 1 and len(scanned[0]) < len(key_word)


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
    # 1026 letters on 2 strands: 1025 Seifert loops, one over MAX_LOOPS.
    word = " ".join(["1"] * 1026)
    code, out, err = run(capsys, ["invariants", word, "--strands", "2", "--seifert"])
    assert (code, out) == (3, "")
    assert "needs 1025 rows, over the budget of 1024" in err
    assert run(capsys, ["invariants", word, "--strands", "2", "--homfly"])[0] == 0


def test_seifert_budget_refuses_before_khovanov(capsys, monkeypatch):
    def refuse(pd):
        raise RuntimeError("the Seifert budget must refuse before the Khovanov scan")

    monkeypatch.setattr("knotbound.cli.reduced_khovanov", refuse)
    code, out, err = run(capsys, ["family", "torus2", "--q", "1026", "--emit", "invariants"])
    assert (code, out) == (3, "")
    assert err == ("precondition failed: the Seifert matrix needs 1025 rows, "
                   "over the budget of 1024\n")


# Each pair shares a closure key; the second word is refused uncached.  The
# loop budget's query has 1201 letters on 3 strands, so 1199 rows.
@pytest.mark.parametrize("stored, query, strands", [
    ("1 2 3 -2", "1 3", "4"),
    ("2 1 -2", "1", "3"),
    (" ".join(["1"] * 401 + ["2", "-2"]), " ".join(["1 2 -2"] * 400 + ["1"]), "3"),
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
    # stabilizations, each with one of the flag sets below, asked in a
    # random order through one shared cache and with none.
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    w = random_word(rng, n, 6)
    gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
    words = [w, stabilize(w, 1), stabilize(w, -1)]
    words += [conjugate(v, BraidWord(v.strands, (rng.choice(gens),))) for v in words]
    flags = (["--homfly"], ["--seifert"], ["--homfly", "--seifert"], ["--khovanov"],
             ["--homfly", "--khovanov"], ["--all"])
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


def test_cache_never_lifts_a_term_budget_refusal(tmp_path, capsys):
    # Delta^-1 Delta on 8 strands closes to the 8-component unlink, key
    # (8, ()), as "1 -1" does.  Its own Hecke expansion is over the term
    # budget, so HOMFLYPT is computed from the key word, cached or not.
    delta = permutation_braid_word(_half_twist(8))
    word = " ".join(map(str, [-e for e in reversed(delta)] + list(delta)))
    w = parse_braid_word(word, 8)
    assert canonical_closure_key(w) == (8, ())
    with pytest.raises(TooManyTerms):
        homfly(w)
    argv = ["invariants", word, "--strands", "8", "--homfly"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    cache = ["--cache-dir", str(tmp_path)]
    assert run(capsys, ["invariants", "1 -1", "--strands", "8", "--homfly", *cache])[0] == 0
    assert run(capsys, argv + cache)[:2] == (code, out)


def test_exit_code_follows_the_refusal_class(capsys, monkeypatch):
    # A refusal class unknown to the CLI gets its exit code from its base.
    class NewBudget(PreconditionFailed):
        pass

    class NewInputError(BraidError):
        pass

    for cls, code, prefix in ((NewBudget, 3, "precondition failed"),
                              (NewInputError, 2, "error")):
        def refuse(w, cls=cls):
            raise cls("refused")

        monkeypatch.setattr(cli, "mfw_report", refuse)
        assert run(capsys, ["bounds", "1 1 1", "--strands", "2"]) == (
            code, "", f"{prefix}: refused\n")


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


@pytest.mark.parametrize("extra", [[], ["--homfly"], ["--khovanov"], ["--seifert"], ["--all"],
                                   ["--json"], ["--cache-dir", "CACHE"]], ids=" ".join)
def test_emit_pd_takes_only_a_word_and_strands(monkeypatch, tmp_path, capsys, extra):
    monkeypatch.setenv(ENV_VAR, str(tmp_path))
    extra = [str(tmp_path / "cache") if a == "CACHE" else a for a in extra]
    code, out, err = run(capsys, ["invariants", "1 -2 1 -2", "--strands", "3", "--emit-pd",
                                  *extra])
    if extra:
        assert (code, out) == (2, "")
        assert err == "error: --emit-pd takes only a braid word and --strands\n"
    else:
        assert (code, err) == (0, "")
        assert out == "X 2 3 1 0 +\nX 3 6 7 4 -\nX 4 5 0 1 +\nX 5 7 6 2 -\nM 0\n"
    assert list(tmp_path.iterdir()) == []


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


TREFOIL_HOMFLY = cli._aq_payload(to_aq(homfly(parse_braid_word("1 1 1", 2))))
_TREFOIL_TERMS = TREFOIL_HOMFLY["terms"]


@pytest.mark.parametrize(
    "value",
    [
        {"terms": _TREFOIL_TERMS, "clearing": 0},
        {**TREFOIL_HOMFLY, "text": 5},
        {**TREFOIL_HOMFLY, "poincare": "1"},
        {**TREFOIL_HOMFLY, "terms": _TREFOIL_TERMS[::-1]},
        # Descending as whole triples, but the degree (4, 0) occurs twice.
        {**TREFOIL_HOMFLY, "terms": [[4, 0, 1]] + _TREFOIL_TERMS},
        {**TREFOIL_HOMFLY, "terms": _TREFOIL_TERMS + [[0, 0, 0]]},
        {**TREFOIL_HOMFLY, "clearing": -1},
        {**TREFOIL_HOMFLY, "terms": [[4, 0, "-1"]] + _TREFOIL_TERMS[1:]},
        {**TREFOIL_HOMFLY, "terms": [[4.0, 0, -1]] + _TREFOIL_TERMS[1:]},
    ],
    ids=["no-text", "int-text", "extra-key", "ascending", "repeated-degree",
         "zero-coefficient", "negative-clearing", "string-coefficient", "float-degree"],
)
def test_cache_malformed_homfly_recomputed(tmp_path, capsys, value):
    # A stored HOMFLYPT is printed as it is, so only the exact printed form
    # is served.
    argv = ["invariants", "1 1 1", "--strands", "2", "--homfly", "--json"]
    _, direct, _ = run(capsys, argv)
    path = tmp_path / "invariants.jsonl"
    path.write_text(json.dumps({**TREFOIL_LINE, "homfly": value}, sort_keys=True) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (code, out) == (0, direct)
    assert [str(w.message) for w in caught] == [
        f"skipping corrupt cache fields ['homfly'] of {TREFOIL_KEY}"]
    appended = InvariantRecord.from_json(path.read_text().splitlines()[1])
    assert appended.homfly == json.loads(direct)["homfly"] == TREFOIL_HOMFLY


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


def _caught_messages(capsys, argv) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, argv)
    return code, out, [str(w.message) for w in caught]


def test_cache_file_in_place_of_directory_not_fatal(tmp_path, capsys):
    argv = ["invariants", "1 1 1", "--strands", "2", "--all", "--json"]
    _, direct, _ = run(capsys, argv)
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    code, out, messages = _caught_messages(capsys, argv + ["--cache-dir", str(not_a_dir)])
    assert (code, out) == (0, direct)
    assert [m.split(":")[0] for m in messages] == ["cache write failed, continuing without it"]


def test_cache_file_that_is_a_directory_not_fatal(tmp_path, capsys):
    argv = ["invariants", "1 1 1", "--strands", "2", "--all", "--json"]
    _, direct, _ = run(capsys, argv)
    (tmp_path / "invariants.jsonl").mkdir()
    code, out, messages = _caught_messages(capsys, argv + ["--cache-dir", str(tmp_path)])
    assert (code, out) == (0, direct)
    assert [m.split(":")[0] for m in messages] == [
        "cache read failed, continuing without it",
        "cache write failed, continuing without it",
    ]
    code, out, messages = _caught_messages(
        capsys, ["cache", "list", "--cache-dir", str(tmp_path)])
    assert (code, out) == (0, "0 record(s)\n")
    assert [m.split(":")[0] for m in messages] == ["cache read failed, continuing without it"]


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

    for name in ("homfly", "seifert"):
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


def test_cache_serves_version_4_record_to_stabilization(tmp_path, capsys, monkeypatch):
    argv = ["invariants", "1 -2 1 -2 -3", "--strands", "4", "--homfly", "--seifert",
            "--json"]
    cache_argv = ["--cache-dir", str(tmp_path)]
    _, direct, _ = run(capsys, argv)
    # The figure-eight knot as a version-4 cache stores it: HOMFLYPT as printed.
    line = {"canonical_key": "(3,(-2,1,-2,1))", "components": 1,
            "created": "2026-01-01T00:00:00+00:00", "determinant": 5,
            "homfly": json.loads(direct)["homfly"], "khovanov": None, "signature": 0,
            "strands": 3, "version": 4, "writhe": 0}
    assert set(line["homfly"]) == {"terms", "clearing", "text"}
    path = tmp_path / "invariants.jsonl"
    path.write_text(json.dumps(line, sort_keys=True) + "\n")
    with monkeypatch.context() as patch:
        _refuse_engines(patch)
        assert run(capsys, argv + cache_argv) == (0, direct, "")
    assert path.read_text() == json.dumps(line, sort_keys=True) + "\n"
    # A version-3 record held HOMFLYPT without its text.  It is not corrupt,
    # only old: ignored without a warning, and a current record is appended.
    old = {**line, "homfly": {"terms": line["homfly"]["terms"], "clearing": 0},
           "version": 3}
    path.write_text(json.dumps(old, sort_keys=True) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, argv + cache_argv) == (0, direct, "")
    first, appended = path.read_text().splitlines()
    assert json.loads(first) == old
    appended = InvariantRecord.from_json(appended)
    assert (appended.version, appended.homfly) == (CACHE_VERSION, line["homfly"])


def test_cache_hit_prints_stored_homfly(tmp_path, capsys, monkeypatch):
    # A served HOMFLYPT is printed as the record holds it: nothing rebuilds
    # the polynomial or renders it again.
    queries = [["invariants", "1 -2 1 -2 3", "--strands", "4", "--homfly", *flag]
               for flag in (["--json"], [])]
    direct = [run(capsys, argv) for argv in queries]
    cache_argv = ["--cache-dir", str(tmp_path)]
    assert run(capsys, ["invariants", "1 -2 1 -2", "--strands", "3", "--homfly",
                        *cache_argv])[0] == 0

    def refuse(*args, **kwargs):
        raise RuntimeError("a served HOMFLYPT must be printed as stored")

    monkeypatch.setattr(laurent.AQPolynomial, "render", refuse)
    monkeypatch.setattr(laurent.AQPolynomial, "from_dict", staticmethod(refuse))
    monkeypatch.setattr(cli, "to_aq", refuse)
    monkeypatch.setattr(cli, "homfly", refuse)
    for argv, expected in zip(queries, direct):
        assert expected[0] == 0
        assert run(capsys, argv + cache_argv) == expected


ints = st.integers(-10**6, 10**6)
triples = st.lists(st.lists(ints, min_size=3, max_size=3), max_size=4)
records = st.builds(
    InvariantRecord,
    canonical_key=st.text(max_size=8),
    strands=ints,
    writhe=ints,
    components=ints,
    homfly=st.none() | st.fixed_dictionaries({"terms": triples, "clearing": ints})
    | st.fixed_dictionaries({"terms": triples, "clearing": ints, "text": st.text(max_size=8)}),
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
         "clearing": small}) | st.fixed_dictionaries(
        {"terms": st.lists(st.lists(small, min_size=3, max_size=3), max_size=2),
         "clearing": small, "text": st.sampled_from(["", "a"])}),
    khovanov=st.none() | st.lists(st.lists(small, min_size=3, max_size=3), max_size=2),
    signature=st.none() | small, determinant=st.none() | small,
    created=st.sampled_from(["", "t0", "t1"]),
    version=st.sampled_from([CACHE_VERSION, CACHE_VERSION, None, 2]),
)


def _with_cr(line: bytes, at: int) -> bytes:
    at %= len(line) + 1
    return line[:at] + b"\r" + line[at:]


corrupt_lines = st.sampled_from([
    b"[]", b"null", b"", b"   ", b"\xff\xfe", b"not json",
    json.dumps({"canonical_key": ["k"]}).encode(),
    b"\r", b"\t \x0c", b" \r ", b"[]\r",
]) | key_records.map(lambda r: r.to_json().encode()[:-7]) | key_records.map(
    lambda r: json.dumps({**asdict(r), "strands": None}, sort_keys=True).encode()
) | st.builds(  # a record with a \r in it: two lines to splitlines
    _with_cr, key_records.map(lambda r: r.to_json().encode()), st.integers(0, 400),
) | st.builds(  # a torn record, then a whole one on the same line
    lambda torn, whole: torn.to_json().encode()[:-7] + whole.to_json().encode(),
    key_records, key_records,
) | key_records.map(  # a good record with no _KEY_MARK
    lambda r: json.dumps(asdict(r), sort_keys=True, separators=(",", ":")).encode())
cache_lines = st.lists(key_records.map(lambda r: r.to_json().encode()) | corrupt_lines,
                       max_size=12)


def _oracle_warned_lines(data: bytes, key: str) -> list[int]:
    """The lines a lookup of ``key`` warns about, by the per-line filter: a
    line is decoded if it holds the key's field or no key mark at all."""
    needle = b'"canonical_key": ' + json.dumps(key).encode()
    warned = []
    for lineno, line in enumerate(data.splitlines(), 1):
        if line.strip() and (line.find(needle) >= 0
                             or line.find(b'"canonical_key": "') < 0):
            try:
                InvariantRecord.from_json(line.decode())
            except ValueError:
                warned.append(lineno)
    return warned


# No shrinking: a failing example is a long file, and each shrink step
# rewrites it and looks up every key, so one failure shrank for minutes.
@settings(deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(cache_lines, st.booleans())
def test_cache_load_matches_full_decode(lines, final_newline):
    data = b"\n".join(lines) + (b"\n" if final_newline and lines else b"")
    full = _full_decode(data)
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        (Path(d) / "invariants.jsonl").write_bytes(data)
        assert ResultCache(d).records() == sorted(full.values(),
                                                  key=lambda r: r.canonical_key)
        for key in CACHE_KEYS + ["missing"]:
            expected = _servable(full[key]) if key in full else None
            caught.clear()
            assert ResultCache(d).load(key) == expected, key
            assert _warned_lines(caught) == _oracle_warned_lines(data, key), key


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


def _cpu_seconds(read) -> float:
    start = time.process_time()
    read()
    return time.process_time() - start


@pytest.mark.parametrize("read", ["load", "records"])
def test_cache_read_over_unreadable_lines_is_linear(tmp_path, read):
    # Counting each warned line's number from the start of the file made a
    # lookup quadratic in the file.  Lines end in \n, \r\n and a lone \r.
    count = 20_000
    (tmp_path / "invariants.jsonl").write_bytes(b"".join(
        b"garbage %05d%s" % (i, (b"\n", b"\r\n", b"\r")[i % 3]) for i in range(count)))
    cache = ResultCache(str(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seconds = _cpu_seconds(lambda: cache.load("k") if read == "load" else cache.records())
    assert _warned_lines(caught) == list(range(1, count + 1))
    assert seconds < 2, seconds


def test_cache_list_over_one_key_is_linear(tmp_path):
    rec = InvariantRecord(canonical_key="(3,(1,2))", strands=3, writhe=2, components=1,
                          signature=0)
    (tmp_path / "invariants.jsonl").write_text((rec.to_json() + "\n") * 20_000)
    listed = []
    seconds = _cpu_seconds(lambda: listed.extend(ResultCache(str(tmp_path)).records()))
    assert listed == [rec]
    assert seconds < 2, seconds


def test_cli_prints_cache_warnings_without_source_location(tmp_path):
    (tmp_path / "invariants.jsonl").write_text("garbage\n")
    proc = subprocess.run(
        [sys.executable, "-m", "knotbound.cli", "invariants", "1 1 1", "--strands", "2",
         "--seifert", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(khovanov.__file__).parents[1])},
    )
    assert (proc.returncode, proc.stderr) == (0, "warning: skipping corrupt cache line 1: "
                                                 "Expecting value: line 1 column 1 (char 0)\n")


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
