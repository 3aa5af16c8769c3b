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

During the expansion a coefficient is a polynomial in z alone, with
exponents from 0 to the number of letters, so it is packed into one Python
int sum_k c_k 2^{W k} with signed digits c_k and W = letters + 2 (Kronecker
substitution; D. Harvey, J. Symbolic Comput. 44, 2009).  A letter adds at
most two old coefficients into a new one, so it at most doubles the largest
L1 norm: |c_k| <= 2^letters < 2^{W-1}, no digit carries into its
neighbour, and T_i^{+-1} is a tuple swap plus one or two big-integer
additions of +-(c << W).

The trace closes one strand at a time: tr_n(x) = delta tr_{n-1}(x) and
tr_n(x T_{n-1}) = a^{-1} tr_{n-1}(x) for x in H_{n-1}, with
delta = (a - a^{-1}) z^{-1}.  It runs once, on coefficients decoded into
{(e_a, e_z): int} dicts.  It is not packed: it brings in a, negative powers
of z and a factor delta per closed strand, and the only simple digit bound
for that grows by about n(n-1)/2 bits, half a million at 1000 strands.
Every state lives inside one ``homfly`` call.
"""

from __future__ import annotations

from .braid import (
    BraidError,
    BraidWord,
    Perm,
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

# A trace coefficient: (e_a, e_z) -> integer.
Poly = dict[tuple[int, int], int]


def clear_cache() -> None:
    """Do nothing: the Hecke expansion keeps no state between calls.

    Kept so that callers which clear a memo between queries, such as the
    benchmark in ``perfbench/``, keep working.
    """


def _check(terms: int) -> None:
    if terms > MAX_TERMS:
        raise TooManyTerms(
            f"the Hecke expansion needs {terms} terms, over the budget of {MAX_TERMS}"
        )


def _expand(w: BraidWord, width: int) -> dict[Perm, int]:
    """The word without a^{writhe} in the basis T_p, coefficients packed."""
    vec = {tuple(range(w.strands)): 1}
    for e in w.letters:
        i = abs(e)
        out: dict[Perm, int] = {}
        get = out.get
        for p, c in vec.items():
            x, y = p[i - 1], p[i]
            q = p[:i - 1] + (y, x) + p[i + 1:]
            out[q] = get(q, 0) + c
            # T_p T_i = T_{p s_i} - z T_p when the length goes down, and
            # T_p T_i^{-1} = T_{p s_i} + z T_p when it goes up.
            if e < 0:
                if x < y:
                    out[p] = get(p, 0) + (c << width)
            elif x > y:
                out[p] = get(p, 0) - (c << width)
        # Cancelled terms would be carried through every later letter.
        vec = {p: c for p, c in out.items() if c}
        _check(len(vec))
    return vec


def _unpack(c: int, width: int) -> Poly:
    """The packed z-polynomial c, with signed digits of ``width`` bits."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out: Poly = {}
    e = 0
    while c:
        d = c & mask
        # c >> width is floor division, so a negative digit borrows one.
        c >>= width
        if d >= half:
            d -= mask + 1
            c += 1
        if d:
            out[0, e] = d
        e += 1
    return out


def _add(vec: dict[Perm, Poly], p: Perm, c: Poly) -> None:
    """vec[p] += c, never changing c."""
    d = vec.get(p)
    if d is None:
        vec[p] = dict(c)
        return
    for k, v in c.items():
        v += d.get(k, 0)
        if v:
            d[k] = v
        else:
            del d[k]


def _times(vec: dict[Perm, Poly], i: int) -> dict[Perm, Poly]:
    """Trace coefficients ``vec`` right-multiplied by T_i."""
    out: dict[Perm, Poly] = {}
    for p, c in vec.items():
        _add(out, p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:], c)
        if p[i - 1] > p[i]:
            _add(out, p, {(a, z + 1): -v for (a, z), v in c.items()})
    out = {p: c for p, c in out.items() if c}
    _check(len(out))
    return out


def homfly(w: BraidWord) -> LaurentPoly2:
    """HOMFLYPT polynomial of the closure of w, in (a, z)."""
    width = len(w.letters) + 2
    vec = {p: _unpack(c, width) for p, c in _expand(w, width).items()}
    for m in range(w.strands, 1, -1):
        # Close the last strand.  With label m-1 at position j, T_p is
        # T_{p'} T_{m-1} ... T_{j+1}, where p' is p without that label; by
        # cyclicity tr_m(T_p) = a^{-1} tr_{m-1}(T_{p'} T_{m-2} ... T_{j+1}).
        closed: dict[Perm, Poly] = {}
        for p, c in vec.items():
            j = p.index(m - 1)
            rest = p[:j] + p[j + 1:]
            if j == m - 1:
                d = {(a + 1, z - 1): v for (a, z), v in c.items()}
                for (a, z), v in c.items():
                    k = a - 1, z - 1
                    v = d.get(k, 0) - v
                    if v:
                        d[k] = v
                    else:
                        del d[k]
                _add(closed, rest, d)
                continue
            part = {rest: {(a - 1, z): v for (a, z), v in c.items()}}
            for i in range(m - 2, j, -1):
                part = _times(part, i)
            for q, cq in part.items():
                _add(closed, q, cq)
        vec = closed
    wr = writhe(w)
    return LaurentPoly2.from_dict({(a + wr, z): v for (a, z), v in vec[(0,)].items()})
