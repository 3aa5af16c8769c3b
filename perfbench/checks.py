"""Output gate: decides, after the timed region, which operations failed.

An operation fails if it raised, returned an exit code other than the
documented one, or printed a wrong result.  Results are wrong when they
differ byte for byte from the stdout recorded for the same query when the
benchmark was added (``expected/<workload>.json``, default seed only), or
when they break a cross-engine identity that holds for every seed:

* bounds-cold: the Conway identity det(sV - s^-1 V^T) = P(a=1, z=s-s^-1)
  on ``invariants`` replies, the bound arithmetic on bound reports, and
  every claim of ``verify-paper --section 3`` passed;
* khovanov-cube: graded Euler characteristic = HOMFLYPT at a = q^2, and a
  ``--pd-file`` round trip reproduces the direct answer;
* markov-cached: conjugates, rotations and stabilizations of a base word
  give the base word's invariants.

The identities use the program's own engines against each other (Seifert
against HOMFLYPT, Khovanov against HOMFLYPT) and exact rational arithmetic
written here.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")


def query_key(query: dict) -> str:
    return json.dumps([query["argv"], query.get("word")])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(workload: str) -> dict[str, str]:
    path = os.path.join(EXPECTED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["outputs"]


# --- exact helpers ------------------------------------------------------------


def _det(rows: list[list[Fraction]]) -> Fraction:
    a = [row[:] for row in rows]
    m = len(a)
    det = Fraction(1)
    for k in range(m):
        pivot = next((r for r in range(k, m) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, m):
            f = a[r][k] / a[k][k]
            if f:
                for c in range(k, m):
                    a[r][c] -= f * a[k][c]
    return det


def _poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


class Checker:
    """Per-workload identity checks; engine results are memoised by word."""

    def __init__(self, workload: str):
        self.workload = workload
        self.expected = load_expected(workload)
        self._homfly: dict[tuple, object] = {}

    # Program engines, imported lazily so that generation never needs them.
    def _word(self, word):
        braid = importlib.import_module("knotbound.braid")
        return braid.BraidWord(word[0], tuple(word[1]))

    def _aq(self, word):
        key = (word[0], tuple(word[1]))
        if key not in self._homfly:
            homfly = importlib.import_module("knotbound.homfly")
            laurent = importlib.import_module("knotbound.laurent")
            homfly.clear_cache()
            self._homfly[key] = laurent.to_aq(homfly.homfly(self._word(word)))
            homfly.clear_cache()
        return self._homfly[key]

    # --- identities --------------------------------------------------------

    def conway(self, word, homfly_payload: dict) -> bool:
        seifert = importlib.import_module("knotbound.seifert")
        v = seifert.seifert_matrix(self._word(word)).matrix
        m = len(v)
        for s in (Fraction(2), Fraction(3), Fraction(5, 2)):
            lhs = _det([[s * v[i][j] - v[j][i] / s for j in range(m)]
                        for i in range(m)])
            stored = sum((Fraction(c) * s**eq
                          for _, eq, c in homfly_payload["terms"]), Fraction(0))
            rhs = stored * (s - 1 / s) ** (-homfly_payload["clearing"])
            if lhs != rhs:
                return False
        return True

    def euler(self, word, ranks: list) -> bool:
        aq = self._aq(word)
        lhs: dict[int, int] = {}
        for i, j, r in ranks:
            lhs[i] = lhs.get(i, 0) + (-1) ** j * r
        lhs = {e: c for e, c in lhs.items() if c}
        for _ in range(aq.clearing):
            lhs = _poly_mul(lhs, {1: 1, -1: -1})
        return lhs == aq.q_polynomial_at_a(2).as_dict()

    @staticmethod
    def bound_report(word, report: dict) -> bool:
        n, letters = word
        w_d = sum(1 if e > 0 else -1 for e in letters)
        lo, hi = report["d_minus"], report["d_plus"]
        return (
            report["word"] == workloads.word_text(letters)
            and report["strands"] == n
            and report["w_d"] == w_d
            and report["b_d"] == n
            and w_d - n + 1 <= lo <= hi <= w_d + n - 1
            and report["mfw_bound"] == (hi - lo) // 2 + 1
            and report["mfw_sharp_lower"] == (lo == w_d - n + 1)
            and report["mfw_sharp_upper"] == (hi == w_d + n - 1)
            and report["deficit_upper"] == w_d + n - 1 - hi
            and report["deficit_lower"] == lo - (w_d - n + 1)
        )

    # --- per query ----------------------------------------------------------

    def identity_ok(self, query: dict, result: dict, direct: dict) -> bool:
        """Workload identity for one valid query; ``direct`` maps a word to
        its direct ``--khovanov`` reply (for the PD round trip)."""
        argv, word, out = query["argv"], query.get("word"), result["stdout"]
        if "--emit-pd" in argv:
            return out.startswith("X ") and out.endswith("\n")
        payload = json.loads(out)
        if argv[0] == "verify-paper":
            return (len(payload) == query["claims"]
                    and all(c["passed"] is True for c in payload))
        if self.workload == "bounds-cold":
            if argv[0] == "invariants":
                return (payload["strands"] == word[0]
                        and self.conway(word, payload["homfly"]))
            return self.bound_report(word, payload)
        if self.workload == "khovanov-cube":
            if "--pd-file" in argv:
                twin = direct.get(json.dumps(word))
                if twin is None or twin["khovanov"] != payload["khovanov"]:
                    return False
            return self.euler(word, payload["khovanov"]["ranks"])
        if self.workload == "markov-cached":
            return payload["strands"] == word[0] and payload["word"] == (
                workloads.word_text(word[1]))
        raise ValueError(f"unknown workload {self.workload}")


def _invariant_fields(payload: dict) -> tuple:
    return (json.dumps(payload["homfly"], sort_keys=True), payload["signature"],
            payload["determinant"], payload["components"])


def check_pass(checker: Checker, queries: list[dict], results: list[dict]) -> list[str]:
    """Reason for each failed query of one pass, "" where the query passed."""
    reasons = [""] * len(queries)
    direct: dict[str, dict] = {}
    for q, r in zip(queries, results):
        argv = q["argv"]
        if (q["kind"] == "good" and r["exit"] == 0 and "--khovanov" in argv
                and "--pd-file" not in argv):
            try:
                direct[json.dumps(q["word"])] = json.loads(r["stdout"])
            except ValueError:
                pass  # reported when the query itself is checked
    base_fields: dict[int, tuple] = {}
    for i, (q, r) in enumerate(zip(queries, results)):
        if r["error"] is not None:
            reasons[i] = f"raised {r['error']}"
            continue
        if r["exit"] != q["expect_exit"]:
            reasons[i] = f"exit {r['exit']}, expected {q['expect_exit']}"
            continue
        if q["kind"] != "good":
            continue
        want = checker.expected.get(query_key(q))
        if want is not None and want != digest(r["stdout"]):
            reasons[i] = "stdout differs from the recorded output"
            continue
        try:
            ok = checker.identity_ok(q, r, direct)
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            reasons[i] = f"unreadable output: {exc!r}"
            continue
        if not ok:
            reasons[i] = "identity check failed"
            continue
        if checker.workload == "markov-cached":
            fields = _invariant_fields(json.loads(r["stdout"]))
            group = q["group"]
            if group not in base_fields:
                base_fields[group] = fields
                if not checker.conway(q["word"], json.loads(r["stdout"])["homfly"]):
                    reasons[i] = "identity check failed"
            elif fields != base_fields[group]:
                reasons[i] = "invariants differ across a Markov move"
    return reasons
