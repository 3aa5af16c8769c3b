"""Seifert matrix of a braid closure; signature, determinant, Alexander.

The surface is the one Seifert's algorithm produces on a closed braid: one
disk per strand and one half-twisted band per letter.  A homology basis is
given by the loops running through consecutive bands of the same generator;
with c letters on n strands and a connected surface that is c - n + 1 loops.

Matrix entries follow the disk-and-band geometry:

* a loop through bands of signs e, f links its pushoff -(e + f)/2 times;
* consecutive loops on one generator sharing a band of sign e contribute
  the pair (1, 0) for e = +1 and (0, -1) for e = -1 (first index the earlier
  loop), so the antisymmetrisation is always the intersection number 1;
* loops on adjacent generators interact only when their position spans
  interleave, contributing a single unit entry whose sign depends on the
  interleaving direction.

The coupling conventions are pinned by the Conway identity
det(s V - s^{-1} V^T) = P(a=1, z=s-s^{-1}) against the Hecke expansion,
which holds exactly on every tested word.

The Alexander polynomial of a knot is not read from this matrix: it comes
from the HOMFLYPT polynomial through the same identity, Delta(q^2) =
P(a=1, z=q-q^{-1}).

Signatures are reported with the sign convention that makes the closure of
sigma_1^3 come out at +2: the negative of the raw symmetrised form, with
each zero eigenvalue of a degenerate (link) form counting +1 before the
global negation.  That one-sided convention agrees with the plain sign
count on every nondegenerate form.  Signature and determinant come from
one exact fraction-free (Bareiss) elimination of V + V^T, whose pivots are
leading principal minors (Bareiss, Math. Comp. 22, 1968).
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, BraidError, EngineInconsistency, closure_components
from .homfly import homfly
from .laurent import LaurentPoly1, to_aq

__all__ = [
    "SeifertData",
    "DisconnectedSurface",
    "NotAKnot",
    "TooManyLoops",
    "MAX_LOOPS",
    "check_surface",
    "seifert_matrix",
    "signature",
    "determinant",
    "alexander",
]


class DisconnectedSurface(BraidError):
    """Some generator index never occurs, so the bands miss a disk."""


class NotAKnot(BraidError):
    """Operation defined for one-component closures only."""


# Most basis loops (matrix rows) a Seifert matrix may have.  Signature and
# determinant are cubic in the rows; at this bound one of them takes
# 0.4-0.7 s of CPU on a 2-core x86 VM, matrix included.
MAX_LOOPS = 256


class TooManyLoops(BraidError):
    """The Seifert matrix would have more than ``MAX_LOOPS`` rows."""


@dataclass(frozen=True)
class SeifertData:
    """Seifert matrix in the band-pair loop basis."""

    strands: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)

    def symmetrized(self) -> list[list[int]]:
        m = self.size
        v = self.matrix
        return [[v[i][j] + v[j][i] for j in range(m)] for i in range(m)]


def check_surface(w: BraidWord) -> None:
    """Refuse a word whose surface ``seifert_matrix`` cannot build: raise
    ``DisconnectedSurface`` if a generator is absent and ``TooManyLoops``
    over ``MAX_LOOPS`` rows.  It reads the word alone, so a caller can
    check a query before it serves a result computed from another word."""
    n, letters = w.strands, w.letters
    present = {abs(e) for e in letters}
    missing = [g for g in range(1, n) if g not in present]
    if missing:
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise DisconnectedSurface(
            f"generator(s) {missing[:10]}{more} absent; the Seifert surface is disconnected"
        )
    # Each generator with c bands gives c - 1 loops.
    rows = len(letters) - (n - 1)
    if rows > MAX_LOOPS:
        raise TooManyLoops(
            f"the Seifert matrix needs {rows} rows, over the budget of {MAX_LOOPS}"
        )


def seifert_matrix(w: BraidWord) -> SeifertData:
    """Seifert matrix of the disk-and-band surface of the closure of w."""
    check_surface(w)
    n, letters = w.strands, w.letters
    # Loops: consecutive occurrences of each generator, left to right.
    loops: list[tuple[int, int, int, int, int]] = []  # (gen, p, q, sign_p, sign_q)
    for g in range(1, n):
        positions = [k for k, e in enumerate(letters) if abs(e) == g]
        for p, q in zip(positions, positions[1:]):
            sp = 1 if letters[p] > 0 else -1
            sq = 1 if letters[q] > 0 else -1
            loops.append((g, p, q, sp, sq))

    m = len(loops)
    v = [[0] * m for _ in range(m)]
    for idx, (g, p, q, sp, sq) in enumerate(loops):
        v[idx][idx] = -(sp + sq) // 2
    for i in range(m):
        gi, pi, qi, _, sqi = loops[i]
        for j in range(i + 1, m):
            gj, pj, qj, spj, _ = loops[j]
            if gj == gi:
                if pj == qi:  # consecutive loops sharing the middle band
                    e = sqi
                    v[i][j] = (e + 1) // 2
                    v[j][i] = (e - 1) // 2
            elif abs(gj - gi) == 1:
                lo, hi = (i, j) if gi < gj else (j, i)
                _, p, q, _, _ = loops[lo]
                _, a, b, _, _ = loops[hi]
                if p < a < q < b:
                    v[lo][hi] = -1
                elif a < p < b < q:
                    v[lo][hi] = 1
    return SeifertData(n, tuple(tuple(row) for row in v))


def _eliminate(rows: list[list[int]]) -> tuple[int, int, int, int]:
    """(positive, negative, zero) eigenvalue counts and the determinant of a
    symmetric integer matrix, by one fraction-free Bareiss pass.

    A zero diagonal entry is first swapped with a later nonzero one, or, when
    the remaining diagonal is all zero, a hyperbolic block is absorbed by
    adding a row and its column; both are congruences of determinant +-1 and
    act on the bordered minors as on the matrix, so the pivots stay the
    leading principal minors D_1, D_2, ... .  The eigenvalue sign at a pivot
    is that of D_k / D_{k-1} (Jacobi; Sylvester's law of inertia).  A zero
    row gives a zero eigenvalue and determinant 0, and is skipped.
    """
    a = [list(row) for row in rows]
    m = len(a)
    pos = neg = zero = 0
    prev = 1
    for k in range(m):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, m) if a[r][r] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((c for c in range(k + 1, m) if a[k][c] != 0), None)
                if other is None:
                    zero += 1
                    continue
                for c in range(k, m):
                    a[k][c] += a[other][c]
                for r in range(k, m):
                    a[r][k] += a[r][other]
        pivot, top = a[k][k], a[k][k + 1:]
        if (pivot > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        # Bareiss: the division by the previous pivot is exact.
        for row in a[k + 1:]:
            lead = row[k]
            row[k + 1:] = [(pivot * x - lead * t) // prev for x, t in zip(row[k + 1:], top)]
        prev = pivot
    return pos, neg, zero, 0 if zero else prev


def signature(w: BraidWord) -> int:
    """Signature of the closure, calibrated so sigma_1^3 closes to +2.

    Negative of the raw signature of V + V^T; on degenerate link forms each
    zero eigenvalue counts +1 before the negation, extending the knot
    convention one-sidedly.
    """
    data = seifert_matrix(w)
    pos, neg, zero, _ = _eliminate(data.symmetrized())
    return -((pos - neg) + zero)


def determinant(w: BraidWord) -> int:
    """|det(V + V^T)| of the closure."""
    data = seifert_matrix(w)
    return abs(_eliminate(data.symmetrized())[3])


def alexander(w: BraidWord) -> LaurentPoly1:
    """Symmetrised Alexander polynomial of a knot, Delta(1) = 1.

    From the Conway identity: Delta(q^2) = P(a=1, z=q-q^{-1}), so every
    exponent of the HOMFLYPT polynomial at a = 1 is halved.
    """
    if closure_components(w) != 1:
        raise NotAKnot("Alexander normalisation requires a one-component closure")
    terms = to_aq(homfly(w)).q_polynomial_at_a(0).as_dict()
    if any(e % 2 for e in terms) or sum(terms.values()) != 1:
        raise EngineInconsistency(f"HOMFLYPT at a = 1 is no Alexander polynomial: {terms}")
    return LaurentPoly1.from_dict({e // 2: c for e, c in terms.items()})
