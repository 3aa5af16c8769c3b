"""Tests of the benchmark itself, on small query lists.

    python3 perfbench/selftest.py

Covers: workload generation is a function of the seed; a corrupted output
or exit code, or a failed paper claim, is counted as failed; calibration
cancels a uniform slowdown; a child's output right after its ready line
reaches the parent; a traced pass prints exactly what an untraced
pass prints and leaves no wrapper behind.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import child  # noqa: E402  (puts the program's src/ on sys.path)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import _bad_inputs, _q, torus2, word_text  # noqa: E402

TMP = os.path.join(os.path.dirname(HERE), ".perfbench_out", "selftest.tmp")


def _small(workload: str) -> list[dict]:
    """A few cheap queries of the workload's kinds, bad inputs included."""
    if workload == "bounds-cold":
        words = [(3, (1, 2, 1, 2, -1, 2)), (2, (1, 1, 1)), (4, (1, 2, 3, 2, 1, 3))]
        queries = [_q(workloads._bounds_verbs(w)[i % 2], w)
                   for i, w in enumerate(words)]
        queries.append(_q(["family", "torus2", "--q", "5", "--emit", "bounds",
                           "--json"], torus2(5)))
        return queries + _bad_inputs()
    if workload == "khovanov-cube":
        w = (3, (1, -2, 1, -2))
        kh = _q(["invariants", word_text(w[1]), "--strands", "3", "--khovanov",
                 "--json"], w)
        emit = _q(["invariants", word_text(w[1]), "--strands", "3", "--emit-pd"], w)
        read = _q(["invariants", "--pd-file", "{pd}", "--khovanov", "--json"], w,
                  pd_from=1)
        return [kh, emit, read] + _bad_inputs()
    if workload == "markov-cached":
        # A base word, a rotation, a conjugate and both stabilizations.
        members = [(3, (1, 2, 2, 1)), (3, (2, 2, 1, 1)), (3, (2, 1, 2, 2, 1, -2)),
                   (4, (1, 2, 2, 1, 3)), (4, (1, 2, 2, 1, -3))]
        return [_q(["invariants", word_text(w[1]), "--strands", str(w[0]),
                    "--homfly", "--seifert", "--json", "--cache-dir", "{cache}"],
                   w, group=0) for w in members]
    raise ValueError(workload)


def _run(workload: str, queries: list[dict], tracer=None) -> list[dict]:
    return child.run_pass(queries, workloads.MEMO_CLEAR[workload], TMP,
                          tracer)["results"]


class GenerationTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(workload, 7),
                             workloads.generate(workload, 7))

    def test_seed_changes_query_workloads(self):
        for workload in workloads.WORKLOADS:
            self.assertNotEqual(workloads.generate(workload, 7),
                                workloads.generate(workload, 8))

    def test_bad_input_share_is_fixed(self):
        for workload in workloads.WORKLOADS:
            for seed in (1, 2):
                kinds = [q["kind"] for q in workloads.generate(workload, seed)]
                self.assertEqual(kinds.count("bad-pd-file"), 2)
                self.assertEqual(sum(k != "good" for k in kinds), 6)

    def test_round_trips_point_at_their_emit_query(self):
        queries = workloads.generate("khovanov-cube", 3)
        for q in queries:
            if "pd_from" in q:
                self.assertIn("--emit-pd", queries[q["pd_from"]]["argv"])
                self.assertEqual(queries[q["pd_from"]]["word"], q["word"])


class OutputGateTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(TMP, ignore_errors=True)

    def _reasons(self, workload, queries, results):
        checker = checks.Checker(workload)
        checker.expected = {}
        return checks.check_pass(checker, queries, results)

    def test_valid_outputs_pass(self):
        for workload in workloads.WORKLOADS:
            queries = _small(workload)
            reasons = self._reasons(workload, queries, _run(workload, queries))
            for q, reason in zip(queries, reasons):
                if q["kind"] == "bad-pd-file":
                    continue  # known defect: escapes as ValueError
                self.assertEqual(reason, "", (workload, q["argv"]))

    def test_corrupted_output_counts_as_failed(self):
        for workload in workloads.WORKLOADS:
            queries = _small(workload)
            results = _run(workload, queries)
            good = [i for i, q in enumerate(queries)
                    if q["kind"] == "good" and "--emit-pd" not in q["argv"]]
            victim = good[-1]
            results[victim]["stdout"] = results[victim]["stdout"].replace(
                "1", "2", 1)
            reasons = self._reasons(workload, queries, results)
            self.assertNotEqual(reasons[victim], "", workload)

    def test_recorded_digest_mismatch_counts_as_failed(self):
        queries = _small("bounds-cold")
        results = _run("bounds-cold", queries)
        checker = checks.Checker("bounds-cold")
        checker.expected = {checks.query_key(queries[0]): checks.digest("other")}
        reasons = checks.check_pass(checker, queries, results)
        self.assertEqual(reasons[0], "stdout differs from the recorded output")

    def test_failed_paper_claim_counts_as_failed(self):
        query = next(q for q in workloads.generate("bounds-cold", 1)
                     if q["argv"][0] == "verify-paper")
        claims = [{"name": f"c{i}", "passed": True, "section": 3, "detail": ""}
                  for i in range(query["claims"])]
        checker = checks.Checker("bounds-cold")
        checker.expected = {}
        for claims_out, verdict in ((claims, ""), (claims[1:], "identity check failed")):
            result = {"exit": 0, "error": None, "stdout": json.dumps(claims_out)}
            self.assertEqual(checks.check_pass(checker, [query], [result]), [verdict])
        claims[2]["passed"] = False
        result = {"exit": 0, "error": None, "stdout": json.dumps(claims)}
        self.assertEqual(checks.check_pass(checker, [query], [result]),
                         ["identity check failed"])

    def test_wrong_exit_code_counts_as_failed(self):
        queries = _small("bounds-cold")
        results = _run("bounds-cold", queries)
        bad = next(i for i, q in enumerate(queries) if q["kind"] == "bad-word")
        results[bad]["exit"] = 0
        self.assertNotEqual(self._reasons("bounds-cold", queries, results)[bad], "")


class CalibrationTest(unittest.TestCase):
    def test_uniform_slowdown_cancels(self):
        results = [{"seconds": 0.01 * (i + 1), "reference": 0.002 + 0.0001 * (i % 3)}
                   for i in range(20)]
        slow = [{"seconds": r["seconds"] * 1.7, "reference": r["reference"] * 1.7}
                for r in results]
        for a, b in zip(run._calibrated(results), run._calibrated(slow)):
            self.assertAlmostEqual(a, b)

    def test_calibrated_time_is_raw_time_at_reference_speed(self):
        results = [{"seconds": 0.05, "reference": run.REFERENCE_S}] * 5
        self.assertEqual(run._calibrated(results), [0.05] * 5)


class SpawnTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(TMP, ignore_errors=True)

    def test_output_right_after_ready_is_kept(self):
        os.makedirs(TMP, exist_ok=True)
        fake = os.path.join(TMP, "fake_child.py")
        with open(fake, "w") as fh:
            fh.write("import sys\nsys.stdout.write('ready\\nreference 0.001\\n')\n")
        saved, run.CHILD = run.CHILD, fake
        try:
            for _ in range(5):
                _, out, _ = run._spawn([], time.perf_counter())
                self.assertEqual(out, "reference 0.001\n")
        finally:
            run.CHILD = saved


class TracingTest(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(TMP, ignore_errors=True)

    def test_traced_outputs_identical_and_patches_restored(self):
        import knotbound.cli  # noqa: F401

        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("knotbound")}
        laurent = sys.modules["knotbound.laurent"]
        mul_before = laurent.LaurentPoly2.__dict__["__mul__"]
        for workload in workloads.WORKLOADS:
            queries = _small(workload)
            plain = _run(workload, queries)
            with tracing.Tracer() as tracer:
                traced = _run(workload, queries, tracer)
            self.assertEqual([r["stdout"] for r in plain],
                             [r["stdout"] for r in traced], workload)
            self.assertEqual([r["exit"] for r in plain],
                             [r["exit"] for r in traced], workload)
            metrics = tracer.metrics(0)
            self.assertEqual(set(metrics), set(tracing.LAYER_METRICS))
            self.assertGreater(metrics["cli.self_s"], 0)
        for name, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(getattr(sys.modules[name], attr), value, (name, attr))
        self.assertIs(laurent.LaurentPoly2.__dict__["__mul__"], mul_before)

    def test_layer_counts(self):
        queries = _small("markov-cached")
        with tracing.Tracer() as tracer:
            _run("markov-cached", queries, tracer)
        m = tracer.metrics(0)
        self.assertEqual(m["cache.hits"] + m["cache.misses"], len(queries))
        self.assertGreater(m["cache.hits"], 0)
        self.assertGreater(m["homfly.nodes"], 0)
        self.assertGreaterEqual(m["homfly.memo_hit_ratio"], 0)
        self.assertLess(m["homfly.memo_hit_ratio"], 1)


if __name__ == "__main__":
    unittest.main()
