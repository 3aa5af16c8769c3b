"""Time the signature and determinant on the shapes that bound their cost.

Every word below has exactly ``seifert.MAX_LOOPS`` Seifert loops, the most
rows the budget admits, and each is timed through ``seifert.seifert`` (the
loop enumeration and the one elimination of V + V^T), keeping the best CPU
time of ``REPEATS``:

* ``random``: a seeded random word on each of ``RANDOM_STRANDS`` strands,
  every generator present;
* ``staircase``: (1 2 ... n-1)^k on each of ``STAIRCASE_STRANDS`` strands;
* ``alternating``: the same staircase with the sign of every other round
  flipped, on each of ``ALTERNATING_STRANDS`` strands.  Consecutive bands
  of a generator then have opposite signs, so the whole diagonal of the
  form is zero and every pivot is a 2x2 block.

The script prints one line per word and then the slowest.

    python3 scripts/seifert_timing.py --seed 1
"""

import argparse
import random
import time

from knotbound import seifert
from knotbound.braid import BraidWord

RANDOM_STRANDS = (3, 4, 8, 16, 30, 60)
STAIRCASE_STRANDS = (5, 9, 17, 33, 65, 129, 257)
ALTERNATING_STRANDS = (17, 33, 65)
REPEATS = 3


def random_word(rng: random.Random, strands: int, rows: int) -> BraidWord:
    """A word with ``rows`` loops in which every generator occurs."""
    gens = range(1, strands)
    letters = list(gens) + [rng.choice(gens) for _ in range(rows)]
    rng.shuffle(letters)
    return BraidWord(strands, tuple(g if rng.random() < 0.5 else -g for g in letters))


def staircase(strands: int, rows: int, alternating: bool = False) -> BraidWord:
    """(1 2 ... n-1)^k with ``rows`` loops; every other round negated if
    ``alternating``.  ``strands - 1`` must divide ``rows``."""
    rounds = rows // (strands - 1) + 1
    letters = tuple((-g if alternating and r % 2 else g)
                    for r in range(rounds) for g in range(1, strands))
    return BraidWord(strands, letters)


def shapes(seed: int, rows: int) -> list[tuple[str, BraidWord]]:
    rng = random.Random(seed)
    return ([(f"random {n}", random_word(rng, n, rows)) for n in RANDOM_STRANDS]
            + [(f"staircase {n}", staircase(n, rows)) for n in STAIRCASE_STRANDS]
            + [(f"alternating {n}", staircase(n, rows, True))
               for n in ALTERNATING_STRANDS])


def best_time(w: BraidWord) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        seifert.seifert(w)
        best = min(best, time.process_time() - start)
    return best


def report(seed: int, rows: int) -> tuple[str, float]:
    """Time every shape at ``rows`` loops; print and return the slowest."""
    slowest = ("", 0.0)
    for name, w in shapes(seed, rows):
        seconds = best_time(w)
        print(f"{name:16} {len(w.letters):6} letters  {seconds:8.4f} s")
        slowest = max(slowest, (name, seconds), key=lambda s: s[1])
    print(f"slowest at {rows} rows, seed {seed}: {slowest[0]}, {slowest[1]:.4f} s")
    return slowest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    report(args.seed, seifert.MAX_LOOPS)


if __name__ == "__main__":
    main()
