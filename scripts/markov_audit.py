"""Fuzz Markov invariance of every invariant the toolkit computes.

Samples random braid words, applies random conjugations and stabilizations,
and confirms the HOMFLYPT polynomial, signature, determinant and reduced
Khovanov homology are unchanged, and so is the result-cache key
``canonical_closure_key``.  A link's reduced Khovanov homology
depends on the marked component, so it is compared as the multiset of
tables over one marked edge per component.  The CLI must also answer
``invariants --homfly --seifert`` and ``invariants --khovanov`` on each word
with the same stdout and exit code through a result cache shared by the
whole run as with no cache, a conjugate that misses a generator included.
Each trial also samples an alternating braid knot and checks, on it and
on a conjugate and a stabilization of it, that its reduced Khovanov table
is thin on the diagonal 2j - i = -signature with total rank |determinant|.
Any counterexample is printed and the script exits nonzero; silence means
the engines agree with the moves.
"""

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from dataclasses import replace

from knotbound.braid import (
    BraidWord,
    canonical_closure_key,
    closure_components,
    conjugate,
    stabilize,
)
from knotbound.cli import main as cli_main
from knotbound.homfly import homfly
from knotbound.khovanov import braid_to_pd, reduced_khovanov
from knotbound.seifert import seifert


def sample_word(rng: random.Random, strands: int, max_len: int) -> BraidWord:
    gens = [g for g in range(1, strands)] + [-g for g in range(1, strands)]
    letters = [rng.choice(gens) for _ in range(rng.randint(1, max_len))]
    present = {abs(e) for e in letters}
    letters += [g for g in range(1, strands) if g not in present]
    rng.shuffle(letters)
    return BraidWord(strands, tuple(letters))


def alternating_knot(rng: random.Random) -> BraidWord:
    """A knot on 2 to 5 strands whose generator i always has the sign
    (-1)^(i+1), each generator at least twice: a reduced alternating diagram."""
    while True:
        n = rng.randint(2, 5)
        gens = [g * (-1) ** (g + 1) for g in range(1, n)]
        letters = gens * 2 + [rng.choice(gens) for _ in range(rng.randint(0, 4))]
        rng.shuffle(letters)
        w = BraidWord(n, tuple(letters))
        if closure_components(w) == 1:
            return w


def khovanov_on_seifert_diagonal(w: BraidWord) -> bool:
    """Whether w's reduced Khovanov table is thin on 2j - i = -sigma with
    total rank |det|, as for every alternating knot."""
    ranks = reduced_khovanov(braid_to_pd(w))
    sigma, det = seifert(w)
    return ({2 * j - i for (i, j), _ in ranks.ranks} == {-sigma}
            and ranks.total_rank() == abs(det))


def invariants(w: BraidWord):
    pd = braid_to_pd(w)
    return (
        homfly(w),
        seifert(w),
        sorted(reduced_khovanov(replace(pd, marked_edge=e)).ranks
               for e in pd.component_edges()),
    )


def cli_answer(w: BraidWord, *flags: str) -> tuple[int, str]:
    """Exit code and stdout of ``invariants`` on w with ``flags``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["invariants", str(w), "--strands", str(w.strands), "--json", *flags])
    return code, out.getvalue()


def cli_matches_scan(w: BraidWord) -> bool:
    """Whether the CLI's Khovanov table of w is that of w's own diagram."""
    ranks = json.loads(cli_answer(w, "--khovanov")[1])["khovanov"]["ranks"]
    return ranks == [list(t) for t in reduced_khovanov(braid_to_pd(w)).triples()]


def cache_keeps_answer(w: BraidWord, cache_dir: str) -> bool:
    """Whether w's HOMFLYPT and Seifert answer, and its Khovanov answer, are
    the same with the cache in ``cache_dir`` as with none."""
    return all(cli_answer(w, *flags, "--cache-dir", cache_dir) == cli_answer(w, *flags)
               for flags in (("--homfly", "--seifert"), ("--khovanov",)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=40)
    parser.add_argument("--max-letters", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    alternating_rng = random.Random(f"alternating:{args.seed}")
    failures = 0
    with tempfile.TemporaryDirectory() as cache_dir:
        for trial in range(args.trials):
            n = rng.choice([2, 3, 4])
            w = sample_word(rng, n, args.max_letters)
            base = invariants(w)
            key = canonical_closure_key(w)
            gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
            moved = conjugate(w, BraidWord(n, (rng.choice(gens),)))
            if {abs(e) for e in moved.letters} >= set(range(1, n)):
                if invariants(moved) != base:
                    failures += 1
                    print(f"conjugation broke invariance: {w.letters} -> {moved.letters}")
            if canonical_closure_key(moved) != key:
                failures += 1
                print(f"conjugation changed the cache key: {w.letters} -> {moved.letters}")
            ws = stabilize(w, rng.choice([1, -1]))
            if invariants(ws) != base:
                failures += 1
                print(f"stabilization broke invariance: {w.letters} -> {ws.letters}")
            if canonical_closure_key(ws) != key:
                failures += 1
                print(f"stabilization changed the cache key: {w.letters} -> {ws.letters}")
            for v in (moved, ws):
                if closure_components(v) == 1 and not cli_matches_scan(v):
                    failures += 1
                    print(f"the CLI's Khovanov table differs from the scan of {v.letters}")
            for v in (w, moved, ws):
                if not cache_keeps_answer(v, cache_dir):
                    failures += 1
                    print(f"the result cache changed the CLI's answer for {v.letters}")
            a = alternating_knot(alternating_rng)
            c = alternating_rng.choice([g for g in range(1, a.strands)]
                                       + [-g for g in range(1, a.strands)])
            sign = alternating_rng.choice([1, -1])
            for v in (a, conjugate(a, BraidWord(a.strands, (c,))), stabilize(a, sign)):
                if not khovanov_on_seifert_diagonal(v):
                    failures += 1
                    print(f"Khovanov table off the Seifert diagonal: {v.strands} strands, "
                          f"{v.letters}")
    print(f"{args.trials} trials, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
