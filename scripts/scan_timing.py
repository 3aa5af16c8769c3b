"""Time the Khovanov scan of seeded random knots: two words, two starts.

For every knot, the reduced Khovanov table is computed three ways,
alternately, and each keeps its best CPU time of ``REPEATS``:

* ``key``: the closure key's word, from the start the engine chooses;
* ``scan``: ``scan_word`` of the key's word (the search's time included),
  from the start the engine chooses, as the CLI scans a knot;
* ``zero``: the same word from crossing 0, the order the engine's greedy
  rule takes without a choice of start (forced through
  ``khovanov._scan_order``; the search's time included).

The three tables must be equal.  The script prints the summed times, the
ratios key/scan and zero/scan, how many scanned words are shorter, every
knot whose ``scan`` time is more than ``SLOW`` times its ``key`` time, and
every knot whose chosen start is more than ``SLOW`` times slower than
crossing 0; a knot whose slower side takes under ``FLOOR`` seconds is not
listed, since its ratio is mostly timer noise.

    python3 scripts/scan_timing.py --seed 1
"""

import argparse
import random
import sys
import time

from knotbound import khovanov
from knotbound.braid import (
    BraidWord,
    canonical_closure_key,
    closure_components,
    scan_word,
)
from knotbound.khovanov import braid_to_pd, reduced_khovanov

KNOTS = 120
REPEATS = 3
SLOW = 1.2
FLOOR = 1e-3


def sample_knot(rng: random.Random) -> BraidWord:
    """A knot word on 3 to 5 strands with 8 to 13 letters."""
    strands = rng.choice((3, 4, 5))
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


def from_crossing_0(word: BraidWord):
    """The reduced table of ``word``'s closure, scanned from crossing 0."""
    chosen = khovanov._scan_order
    khovanov._scan_order = lambda pd: khovanov._order_from(khovanov._links(pd), 0)[1]
    try:
        return reduced_khovanov(braid_to_pd(word))
    finally:
        khovanov._scan_order = chosen


def compare(seed: int, knots: int = KNOTS) -> int:
    """Time ``knots`` seeded knots and print the report; 1 if a table differs."""
    rng = random.Random(seed)
    totals = {"key": 0.0, "scan": 0.0, "zero": 0.0}
    shorter, slow_word, slow_start = 0, [], []
    for _ in range(knots):
        key_word = BraidWord(*canonical_closure_key(sample_knot(rng)))
        runs = {
            "key": lambda: reduced_khovanov(braid_to_pd(key_word)),
            "scan": lambda: reduced_khovanov(braid_to_pd(scan_word(key_word))),
            "zero": lambda: from_crossing_0(scan_word(key_word)),
        }
        best, tables = {}, {}
        for _ in range(REPEATS):
            for side, run in runs.items():
                seconds, tables[side] = timed(run)
                best[side] = min(best.get(side, seconds), seconds)
        if len(set(tables.values())) > 1:
            print(f"table differs: {key_word.strands} strands, {key_word}",
                  file=sys.stderr)
            return 1
        for side in totals:
            totals[side] += best[side]
        scanned = scan_word(key_word)
        shorter += len(scanned) < len(key_word)
        if best["scan"] > max(SLOW * best["key"], FLOOR):
            slow_word.append((key_word, scanned, best["key"], best["scan"]))
        if best["scan"] > max(SLOW * best["zero"], FLOOR):
            slow_start.append((scanned, best["zero"], best["scan"]))

    print(f"{knots} knots, seed {seed}: key {totals['key']:.3f} s, "
          f"scan {totals['scan']:.3f} s, ratio {totals['key'] / totals['scan']:.2f}; "
          f"{shorter} scanned words shorter")
    print(f"start: from crossing 0 {totals['zero']:.3f} s, chosen {totals['scan']:.3f} s, "
          f"ratio {totals['zero'] / totals['scan']:.2f}")
    for key_word, scanned, key_s, scan_s in slow_word:
        print(f"slower word: {key_word.strands} strands, {key_word} ({key_s * 1e6:.0f} µs)"
              f" -> {scanned.strands} strands, {scanned} ({scan_s * 1e6:.0f} µs)")
    for scanned, zero_s, scan_s in slow_start:
        print(f"slower start: {scanned.strands} strands, {scanned}: from crossing 0"
              f" {zero_s * 1e6:.0f} µs, chosen {scan_s * 1e6:.0f} µs")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    return compare(ap.parse_args().seed)


if __name__ == "__main__":
    sys.exit(main())
