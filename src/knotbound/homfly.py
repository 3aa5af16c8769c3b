"""HOMFLYPT polynomial of a braid closure by a descending-diagram skein tree.

Normalization: a P(K_-) - a^{-1} P(K_+) = z P(K_0) with P(unknot) = 1, so a
positive crossing resolves as P(K_+) = a^2 P(K_-) - a z P(K_0) and a negative
one as P(K_-) = a^{-2} P(K_+) + a^{-1} z P(K_0).  The base case is a
descending closure, worth delta^{c-1} with delta = (a - a^{-1}) z^{-1} on c
components.

The traversal starts at the top of each strand on the left edge, visiting
components in order of their least strand.  The underlying projection does
not change when a crossing is switched, so the first crossing whose first
visit runs under strictly moves rightward along the traversal after each
switch; smoothing deletes a letter.  That lexicographic measure guarantees
termination.

The tree is walked with an explicit stack, so word length is not limited by
the interpreter's recursion depth.  Sub-diagrams that recur are shared
through a memo keyed on the free-reduced letter tuple; the strand count is
fixed within one call, so the key is exact.  The memo lives for one
``homfly`` call: nothing is kept between calls.
"""

from __future__ import annotations

from typing import Optional

from .braid import (
    BraidWord,
    canonical_closure_key,  # noqa: F401  unused here; perfbench/tracing.py patches it
    closure_components,
    free_reduce,
)
from .laurent import LaurentPoly2

__all__ = ["homfly", "clear_cache"]

_A2 = LaurentPoly2.monomial(2, 0)
_NEG_AZ = LaurentPoly2.monomial(1, 1, -1)
_INV_A2 = LaurentPoly2.monomial(-2, 0)
_INV_AZ = LaurentPoly2.monomial(-1, 1)
_DELTA = LaurentPoly2.from_dict({(1, -1): 1, (-1, -1): -1})


def clear_cache() -> None:
    """Do nothing: the skein memo lives inside one ``homfly`` call.

    Kept so that callers which clear the memo between queries, such as the
    benchmark in ``perfbench/``, keep working.
    """


def _first_bad_crossing(w: BraidWord) -> Optional[int]:
    """Index of the first crossing whose first visit runs under, if any.

    Walks the closure from the basepoints (left edge, components ordered by
    least strand row).  At letter +-i the strand entering on row i goes over
    for a positive letter and under for a negative one.
    """
    n, letters = w.strands, w.letters
    visited_rows = [False] * n
    seen = [False] * len(letters)
    for start in range(n):
        if visited_rows[start]:
            continue
        row = start
        while True:
            visited_rows[row] = True
            for pos, e in enumerate(letters):
                i = abs(e)
                if row == i - 1:  # entering on the upper strand
                    if not seen[pos]:
                        seen[pos] = True
                        if e < 0:
                            return pos
                    row = i
                elif row == i:  # entering on the lower strand
                    if not seen[pos]:
                        seen[pos] = True
                        if e > 0:
                            return pos
                    row = i - 1
            if row == start:
                break
    return None


def _delta_power(c: int) -> LaurentPoly2:
    out = LaurentPoly2.one()
    for _ in range(c):
        out = out * _DELTA
    return out


def homfly(w: BraidWord) -> LaurentPoly2:
    """HOMFLYPT polynomial of the closure of w, in (a, z)."""
    root = free_reduce(w)
    memo: dict[tuple[int, ...], LaurentPoly2] = {}
    # A frame (v, None) asks for the value of v.  A frame (v, (e, switched,
    # smoothed)) sits under its two resolutions and combines their values
    # once both are in the memo.  The skein graph is acyclic, so a word is
    # never expanded while an earlier expansion of it is still open.
    stack: list[tuple[BraidWord, Optional[tuple]]] = [(root, None)]
    while stack:
        v, resolved = stack.pop()
        letters = v.letters
        if resolved is not None:
            e, switched, smoothed = resolved
            if e > 0:
                memo[letters] = (_A2 * memo[switched.letters]
                                 + _NEG_AZ * memo[smoothed.letters])
            else:
                memo[letters] = (_INV_A2 * memo[switched.letters]
                                 + _INV_AZ * memo[smoothed.letters])
            continue
        if letters in memo:
            continue
        bad = _first_bad_crossing(v)
        if bad is None:
            memo[letters] = _delta_power(closure_components(v) - 1)
            continue
        e = letters[bad]
        switched = free_reduce(v.with_letters(letters[:bad] + (-e,) + letters[bad + 1:]))
        smoothed = free_reduce(v.with_letters(letters[:bad] + letters[bad + 1:]))
        stack.append((v, (e, switched, smoothed)))
        stack.append((smoothed, None))
        stack.append((switched, None))
    return memo[root.letters]
