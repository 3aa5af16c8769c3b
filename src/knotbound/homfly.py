"""HOMFLYPT polynomial of a braid closure by a Hecke-algebra expansion.

Normalization: a P(K_-) - a^{-1} P(K_+) = z P(K_0) with P(unknot) = 1.  Set
sigma_i = a T_i; then T_i - T_i^{-1} = -z, so T_i^2 = 1 - z T_i, and the
closure is the Ocneanu trace of the word (Jones, "Hecke algebra
representations of braid groups and link polynomials", Ann. of Math. 126,
1987; Morton and Short, J. Algorithms 11, 1990).

The word, without its factor a^{writhe}, is expanded letter by letter in the
basis {T_p : p in S_n}: right-multiplying by one generator touches each
basis term once, so the cost is linear in word length and bounded by n!
terms per letter.  A permutation p is stored as the tuple of strand labels
by position, so T_i swaps positions i-1 and i, and raises the length exactly
when p[i-1] < p[i].

The trace closes one strand at a time: tr_n(x) = delta tr_{n-1}(x) and
tr_n(x T_{n-1}) = a^{-1} tr_{n-1}(x) for x in H_{n-1}, with
delta = (a - a^{-1}) z^{-1}.  Every state lives inside one ``homfly`` call.
"""

from __future__ import annotations

from .braid import (
    BraidError,
    BraidWord,
    canonical_closure_key,  # noqa: F401  unused here; perfbench/tracing.py patches it
    closure_components,  # noqa: F401  unused here; perfbench/tracing.py patches it
    writhe,
)
from .laurent import LaurentPoly2

__all__ = ["homfly", "clear_cache", "TooManyTerms", "MAX_TERMS"]

# Most basis terms the expansion may keep after a letter.  A word on n
# strands keeps at most n! terms, so every word on up to 7 strands fits
# (7! = 5040); one letter at most doubles the terms before the check.
MAX_TERMS = 10_000


class TooManyTerms(BraidError):
    """The Hecke expansion would keep more than ``MAX_TERMS`` basis terms."""

# A basis expansion: permutation (strand labels by position) -> coefficient.
Vector = dict[tuple[int, ...], LaurentPoly2]


def clear_cache() -> None:
    """Do nothing: the Hecke expansion keeps no state between calls.

    Kept so that callers which clear a memo between queries, such as the
    benchmark in ``perfbench/``, keep working.
    """


def _add(vec: Vector, p: tuple[int, ...], c: LaurentPoly2) -> None:
    vec[p] = vec[p] + c if p in vec else c


def _times(vec: Vector, i: int, inverse: bool = False) -> Vector:
    """``vec`` right-multiplied by T_i, or by T_i^{-1} = T_i + z."""
    out: Vector = {}
    for p, c in vec.items():
        _add(out, p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:], c)
        # T_p T_i = T_{p s_i} - z T_p when the length goes down, and
        # T_p T_i^{-1} = T_{p s_i} + z T_p when it goes up.
        if (p[i - 1] < p[i]) == inverse:
            _add(out, p, c.scale(0, 1, 1 if inverse else -1))
    # Cancelled terms would be carried through every later letter.
    out = {p: c for p, c in out.items() if not c.is_zero()}
    if len(out) > MAX_TERMS:
        raise TooManyTerms(
            f"the Hecke expansion needs {len(out)} terms, over the budget of {MAX_TERMS}"
        )
    return out


def homfly(w: BraidWord) -> LaurentPoly2:
    """HOMFLYPT polynomial of the closure of w, in (a, z)."""
    vec: Vector = {tuple(range(w.strands)): LaurentPoly2.one()}
    for e in w.letters:
        vec = _times(vec, abs(e), inverse=e < 0)
    for m in range(w.strands, 1, -1):
        # Close the last strand.  With label m-1 at position j, T_p is
        # T_{p'} T_{m-1} ... T_{j+1}, where p' is p without that label; by
        # cyclicity tr_m(T_p) = a^{-1} tr_{m-1}(T_{p'} T_{m-2} ... T_{j+1}).
        closed: Vector = {}
        for p, c in vec.items():
            j = p.index(m - 1)
            rest = p[:j] + p[j + 1:]
            if j == m - 1:
                part = {rest: c.scale(1, -1) - c.scale(-1, -1)}
            else:
                part = {rest: c.scale(-1, 0)}
                for i in range(m - 2, j, -1):
                    part = _times(part, i)
            for q, cq in part.items():
                _add(closed, q, cq)
        vec = closed
    return vec[(0,)].scale(writhe(w), 0)
