"""Time the Khovanov scan of seeded random knots from two words each.

For every knot, the reduced Khovanov table is computed from the closure
key's word (``key``) and from ``scan_word`` of it (``scan``, the search's
time included), alternately, and each side keeps its best CPU time of
``REPEATS``.  The two tables must be equal.  The script prints the summed
times, their ratio, how many scanned words are shorter, and every knot
whose ``scan`` time is more than ``SLOW`` times its ``key`` time.

    python3 scripts/scan_timing.py --seed 1
"""

import argparse
import random
import sys
import time

from knotbound.braid import (
    BraidWord,
    canonical_closure_key,
    closure_components,
    scan_word,
)
from knotbound.khovanov import braid_to_pd, reduced_khovanov

KNOTS = 120
REPEATS = 3
SLOW = 1.5


def sample_knot(rng: random.Random) -> BraidWord:
    """A knot word on 3 or 4 strands with 8 to 13 letters."""
    strands = rng.choice((3, 4))
    gens = [g for g in range(1, strands)] + [-g for g in range(1, strands)]
    while True:
        w = BraidWord(strands, tuple(rng.choice(gens)
                                     for _ in range(rng.randint(8, 13))))
        if closure_components(w) == 1:
            return w


def timed(fn):
    start = time.process_time()
    value = fn()
    return time.process_time() - start, value


def compare(seed: int, knots: int = KNOTS) -> int:
    """Time ``knots`` seeded knots and print the report; 1 if a table differs."""
    rng = random.Random(seed)
    totals = {"key": 0.0, "scan": 0.0}
    shorter, slow = 0, []
    for _ in range(knots):
        key_word = BraidWord(*canonical_closure_key(sample_knot(rng)))
        runs = {
            "key": lambda: reduced_khovanov(braid_to_pd(key_word)),
            "scan": lambda: (s := scan_word(key_word),
                             reduced_khovanov(braid_to_pd(s))),
        }
        best, tables = {}, {}
        for _ in range(REPEATS):
            for side, run in runs.items():
                seconds, value = timed(run)
                best[side] = min(best.get(side, seconds), seconds)
                tables[side] = value
        scanned, table = tables["scan"]
        if table != tables["key"]:
            print(f"table differs: {key_word.strands} strands, {key_word}",
                  file=sys.stderr)
            return 1
        for side in totals:
            totals[side] += best[side]
        shorter += len(scanned) < len(key_word)
        if best["scan"] > SLOW * best["key"]:
            slow.append((key_word, scanned, best["key"], best["scan"]))

    print(f"{knots} knots, seed {seed}: key {totals['key']:.3f} s, "
          f"scan {totals['scan']:.3f} s, ratio {totals['key'] / totals['scan']:.2f}; "
          f"{shorter} scanned words shorter")
    for key_word, scanned, key_s, scan_s in slow:
        print(f"slower: {key_word.strands} strands, {key_word} ({key_s * 1e6:.0f} µs)"
              f" -> {scanned.strands} strands, {scanned} ({scan_s * 1e6:.0f} µs)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    return compare(ap.parse_args().seed)


if __name__ == "__main__":
    sys.exit(main())
