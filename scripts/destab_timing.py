"""Time ``braid.destabilize`` on the Section 3 words and on whole searches.

The Section 3 words are the switched and smoothed four-strand members,
``bm_minus_word`` and ``bm_zero_word``, at (1, 1, 1, 1), (2, 1, 1, 1) and
(1, 2, 1, 2); each destabilizes.  The exhaustive words have every generator
cubed on 3, 4 and 5 strands; none destabilizes, so the whole search runs.
Each line gives a word's candidates, rotations times 2 n! (the count that
``braid.MAX_CONJUGATES`` bounds), the outcome and the best CPU time of
``--repeats`` calls; the last line gives the total over the Section 3 words.

    python3 scripts/destab_timing.py --repeats 5
"""

import argparse
import math
import time

from knotbound import braid
from knotbound.braid import BraidWord, NotDestabilizable

TUPLES = ((1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2))
EXHAUSTIVE_STRANDS = (3, 4, 5)


def words() -> list[tuple[str, BraidWord]]:
    section3 = [(f"{build.__name__}{tup}", build(*tup))
                for tup in TUPLES for build in (braid.bm_minus_word, braid.bm_zero_word)]
    cubed = [(f"cubed {n}", BraidWord(n, tuple(g for g in range(1, n) for _ in range(3))))
             for n in EXHAUSTIVE_STRANDS]
    return section3 + cubed


def candidates(w: BraidWord) -> int:
    return max(1, len(braid.cyclic_reduce(w))) * 2 * math.factorial(w.strands)


def best_time(w: BraidWord, repeats: int) -> tuple[str, float]:
    best = float("inf")
    for _ in range(repeats):
        start = time.process_time()
        try:
            outcome = f"{braid.destabilize(w)[0].strands} strands"
        except NotDestabilizable:
            outcome = "none"
        best = min(best, time.process_time() - start)
    return outcome, best


def report(repeats: int) -> float:
    """Time every word; print one line each and return the Section 3 total
    in seconds."""
    total = 0.0
    for name, w in words():
        outcome, seconds = best_time(w, repeats)
        print(f"{name:28} {candidates(w):6} candidates  {outcome:9} {seconds * 1e3:8.2f} ms")
        if not name.startswith("cubed"):
            total += seconds
    print(f"Section 3 words, best of {repeats}: {total * 1e3:.2f} ms")
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    report(args.repeats)


if __name__ == "__main__":
    main()
