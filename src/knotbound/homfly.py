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
delta = (a - a^{-1}) z^{-1}.  A trace term is keyed by its permutation and
the number k of delta closings on its way; each of the other n - 1 - k
closings gives a^{-1}.  So every coefficient, in the expansion and in the
trace, is a polynomial in z alone, and only the at most n final ones are
multiplied by a^{k-n+1} (a - a^{-1})^k z^{-k}, by binomials.

Each coefficient is one Python int sum_e c_e 2^{W e} with signed digits
(Kronecker substitution; D. Harvey, J. Symbolic Comput. 44, 2009), so one
step T_p T_i^{+-1} is a tuple swap plus at most one big-integer addition of
+-(c << W).  W = letters + min(letters, n(n-1)/2) + 2 is wide enough.
Follow one path through the products, taking one of the two terms wherever
a step splits.  A letter splits a path at most once and changes the length
l(p) by at most one, so l <= lmax = min(letters, n(n-1)/2) when the trace
starts.  When strand m closes with label m-1 at position j < m-1, the
permutation without that label has length l(p) - (m-1-j), and each of the
m-2-j factors T_i of the closing either adds one to the length, or splits
into T_{p s_i} (one shorter) and -z T_p (as long); so its splits D and the
resulting permutation q satisfy D + l(q) <= l(p) - 1.  A delta closing
takes the largest label off the last position and keeps l.  The trace thus
splits a path at most lmax times, and every digit is a sum of at most
2^(letters + lmax) = 2^(W-2) terms +-1: no digit carries into its
neighbour.  Every state lives inside one ``homfly`` call.
"""

from __future__ import annotations

from .braid import (
    BraidWord,
    Perm,
    PreconditionFailed,
    canonical_closure_key,  # noqa: F401  unused here; perfbench/tracing.py patches it
    closure_components,  # noqa: F401  unused here; perfbench/tracing.py patches it
    writhe,
)
from .laurent import LaurentPoly2, _z_power_in_q

__all__ = [
    "homfly", "packed_width", "clear_cache", "TooManyTerms", "TooWide", "MAX_TERMS",
    "MAX_WIDTH",
]

# Most basis terms the expansion may keep after a letter.  A word on n
# strands keeps at most n! terms, so every word on up to 7 strands fits
# (7! = 5040); one letter at most doubles the terms before the check.
MAX_TERMS = 10_000

# Most bits per packed digit, W above; a coefficient has fewer than W
# digits.  At this bound the longest two-strand word, torus2(1597), takes
# 0.7-0.9 s of CPU on a 2-core x86 VM.  The time grows with the basis
# terms: a positive word of the same width takes 1.8 s on 3 strands.
MAX_WIDTH = 1_600


class TooManyTerms(PreconditionFailed):
    """The Hecke expansion would keep more than ``MAX_TERMS`` basis terms."""


class TooWide(PreconditionFailed):
    """The packed coefficients would need digits of more than ``MAX_WIDTH`` bits."""


def clear_cache() -> None:
    """Do nothing: the Hecke expansion keeps no state between calls.

    Kept so that callers which clear a memo between queries, such as the
    benchmark in ``perfbench/``, keep working.
    """


def _step(vec: dict[Perm, int], e: int, width: int) -> dict[Perm, int]:
    """Packed coefficients ``vec`` right-multiplied by T_i^{+-1}, i = |e|."""
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
    # Cancelled terms would be carried through every later step.
    vec = {p: c for p, c in out.items() if c}
    if len(vec) > MAX_TERMS:
        raise TooManyTerms(
            f"the Hecke expansion needs {len(vec)} terms, over the budget of {MAX_TERMS}"
        )
    return vec


def _unpack(c: int, width: int) -> dict[tuple[int, int], int]:
    """The packed z-polynomial c, with signed digits of ``width`` bits, as
    {(0, e_z): coefficient}."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = {}
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


def packed_width(w: BraidWord) -> int:
    """The digit width W of w's packed coefficients; raises ``TooWide`` over
    ``MAX_WIDTH``.  It reads the word alone, so a caller can check a query
    before it serves a result computed from another word."""
    n, length = w.strands, len(w.letters)
    width = length + min(length, n * (n - 1) // 2) + 2
    if width > MAX_WIDTH:
        raise TooWide(
            f"the Hecke expansion needs digits of {width} bits, over the budget of {MAX_WIDTH}"
        )
    return width


def homfly(w: BraidWord) -> LaurentPoly2:
    """HOMFLYPT polynomial of the closure of w, in (a, z)."""
    n, letters = w.strands, w.letters
    width = packed_width(w)
    vec = {tuple(range(n)): 1}
    for e in letters:
        vec = _step(vec, e, width)
    terms = {(p, 0): c for p, c in vec.items()}
    for m in range(n, 1, -1):
        # Close the last strand.  With label m-1 at position j, T_p is
        # T_{p'} T_{m-1} ... T_{j+1}, where p' is p without that label; by
        # cyclicity tr_m(T_p) = a^{-1} tr_{m-1}(T_{p'} T_{m-2} ... T_{j+1}),
        # or delta tr_{m-1}(T_{p'}) when j = m - 1, which k counts.
        closed: dict[tuple[Perm, int], int] = {}
        for (p, k), c in terms.items():
            j = p.index(m - 1)
            part = {p[:j] + p[j + 1:]: c}
            if j == m - 1:
                k += 1
            for i in range(m - 2, j, -1):
                part = _step(part, i, width)
            for q, cq in part.items():
                closed[q, k] = closed.get((q, k), 0) + cq
        terms = {key: c for key, c in closed.items() if c}
    shift = writhe(w) - (n - 1)
    out: dict[tuple[int, int], int] = {}
    for (_, k), c in terms.items():
        # (a - a^{-1})^k has the binomial coefficients of (q - q^{-1})^k.
        binomials = _z_power_in_q(k)
        for (_, z), v in _unpack(c, width).items():
            for e, b in binomials.items():
                key = shift + k + e, z - k
                out[key] = out.get(key, 0) + b * v
    return LaurentPoly2.from_dict(out)
