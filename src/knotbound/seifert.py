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
one exact elimination of V + V^T (``seifert``), held as sparse rows: each
loop meets at most its two neighbours on its generator and two loops on
each adjacent one, so pivots taken in minimum-degree order, with 2x2
blocks on a zero diagonal, touch few entries, and the integer arithmetic
divides only where Sylvester's identity makes the division exact
(``_ldl``).  The dense matrix, ``seifert_matrix``, is built from the same
list of entries for the Conway-identity checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .braid import BraidWord, EngineInconsistency, PreconditionFailed, closure_components
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
    "seifert",
    "signature",
    "determinant",
    "alexander",
]


class DisconnectedSurface(PreconditionFailed):
    """Some generator index never occurs, so the bands miss a disk."""


class NotAKnot(PreconditionFailed):
    """Operation defined for one-component closures only."""


# Most basis loops (matrix rows) a Seifert matrix may have, a count read
# from the word alone.  On a 2-core x86 VM, ``seifert`` at this bound takes
# 0.01-0.07 s of CPU on random words and staircases, and 0.19-0.35 s on the
# slowest shapes of scripts/seifert_timing.py, staircases of alternating-
# sign rounds, whose form has a zero diagonal; at 2048 rows those took
# 0.8-2.2 s.  So this is the largest power of two at which every shape
# stays under the 0.41-0.72 s a dense elimination takes at 256 rows.
MAX_LOOPS = 1024


class TooManyLoops(PreconditionFailed):
    """The Seifert matrix would have more than ``MAX_LOOPS`` rows."""


@dataclass(frozen=True)
class SeifertData:
    """Seifert matrix in the band-pair loop basis."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)


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


def _entries(w: BraidWord) -> tuple[int, list[tuple[int, int, int]]]:
    """Row count and nonzero entries ``(i, j, V[i][j])`` of the Seifert matrix
    of the closure of w.

    A loop on generator g runs between consecutive bands p < q of g.
    Beside its diagonal entry it meets the next loop on g, which shares band
    q, and the loops (a, b) on g + 1 that interleave with it: p < a < q < b
    holds only for a the last band of g + 1 inside (p, q), and a < p < b < q
    only for b the first.  So each loop has at most two partners on each
    adjacent generator, and bisection finds them all in O(m log m) for m
    loops.
    """
    check_surface(w)
    n, letters = w.strands, w.letters
    positions = [[] for _ in range(n + 1)]
    for k, e in enumerate(letters):
        positions[abs(e)].append(k)
    # Loop t on generator g spans positions[g][t], positions[g][t + 1].
    first = [0] * (n + 1)
    for g in range(1, n):
        first[g + 1] = first[g] + len(positions[g]) - 1
    entries: list[tuple[int, int, int]] = []
    for g in range(1, n):
        here, above = positions[g], positions[g + 1]
        for t, (p, q) in enumerate(zip(here, here[1:])):
            i = first[g] + t
            sp = 1 if letters[p] > 0 else -1
            sq = 1 if letters[q] > 0 else -1
            if sp == sq:
                entries.append((i, i, -sp))
            if t + 2 < len(here):  # the next loop on g shares band q
                entries.append((i, i + 1, 1) if sq > 0 else (i + 1, i, -1))
            inside = bisect_right(above, p)
            after = bisect_left(above, q)
            if inside < after:
                if after < len(above):  # p < a < q < b
                    entries.append((i, first[g + 1] + after - 1, -1))
                if inside > 0:  # a < p < b < q
                    entries.append((i, first[g + 1] + inside - 1, 1))
    return first[n], entries


def seifert_matrix(w: BraidWord) -> SeifertData:
    """Seifert matrix of the disk-and-band surface of the closure of w."""
    m, entries = _entries(w)
    v = [[0] * m for _ in range(m)]
    for i, j, x in entries:
        v[i][j] = x
    return SeifertData(tuple(tuple(row) for row in v))


def _exact(num: int, den: int) -> int:
    """num / den, which Sylvester's identity makes an integer."""
    q, r = divmod(num, den)
    if r:
        raise EngineInconsistency(f"{num} / {den} leaves a remainder in an exact elimination")
    return q


def _current(entry: tuple[int, int], scale: list[int]) -> int:
    """Entry ``(x, e)`` of ``_ldl`` as a multiple of the latest D, ``scale[-1]``."""
    x, e = entry
    return x if e == len(scale) - 1 else _exact(x * scale[-1], scale[e])


def _ldl(rows: list[dict[int, int]]) -> tuple[int, int, int, int]:
    """(positive, negative, zero) eigenvalue counts and the determinant of
    the symmetric integer matrix whose row i holds the entries ``rows[i]``
    (column -> value), by one exact block LDL^T elimination.

    The pivot is always a row of least degree (off-diagonal nonzeros) in
    what is left, taken from a heap whose stale entries are skipped
    (minimum degree: Markowitz, Management Sci. 3, 1957).  On a nonzero
    diagonal it is a 1x1 pivot.  On a zero diagonal it forms a 2x2 block
    [[0, b], [b, d]] with its neighbour of least degree, as Bunch and
    Kaufman do (Math. Comp. 31, 1977); the block's determinant -b^2 is
    negative, so it holds one eigenvalue of each sign.  A row with nothing
    left is a zero eigenvalue and makes the determinant 0.  Each pivot
    updates only the entries among its neighbours, so what is left stays
    sparse, and the counts are the pivots' signs (Sylvester's law of
    inertia).

    The arithmetic stays in integers, as in Bareiss's fraction-free pass
    (Math. Comp. 22, 1968).  Let D be the determinant of the pivots taken so
    far, 1 before the first; ``scale[e]`` is D after e pivots.  An entry is
    held as (x, e), e the number of pivots taken when it was last updated:
    its value in what is left is x / scale[e].  By Sylvester's determinant
    identity, D times an entry of what is left is a minor of the matrix, an
    integer.  So bringing an entry to the current D and each update divide
    exactly (``_exact`` checks), an entry no pivot touches is never
    rescaled, and the last D is the determinant.
    """
    m = len(rows)
    off = [{j: (x, 0) for j, x in row.items() if x and j != i} for i, row in enumerate(rows)]
    diag = [(row.get(i, 0), 0) for i, row in enumerate(rows)]
    scale = [1]  # D at each epoch
    heap = [(len(row), i) for i, row in enumerate(off)]
    heapify(heap)
    done = [False] * m
    pos = neg = zero = 0
    while heap:
        degree, k = heappop(heap)
        if done[k] or degree != len(off[k]):
            continue
        t, prev = len(scale) - 1, scale[-1]
        p, row = _current(diag[k], scale), off[k]
        if not (p or row):
            done[k] = True
            zero += 1
            continue
        xs = {u: _current(entry, scale) for u, entry in row.items()}
        if p:
            block = (k,)
            if (p > 0) == (prev > 0):
                pos += 1
            else:
                neg += 1
            det = p
            cols = [(u, x, 0) for u, x in xs.items()]
            b, d, num, den = 0, 1, p, prev
        else:
            j = min(row, key=lambda u: (len(off[u]), u))
            block = (k, j)
            b, d = xs[j], _current(diag[j], scale)
            pos += 1
            neg += 1
            det = _exact(-b * b, prev)
            ys = {u: _current(entry, scale) for u, entry in off[j].items()}
            cols = [(u, xs.get(u, 0), ys.get(u, 0))
                    for u in xs.keys() | ys.keys() if u != k and u != j]
            num, den = prev * det, prev * prev
        for u in block:
            done[u] = True
        for u, _, _ in cols:
            for v in block:
                off[u].pop(v, None)
        # Entries are held times D = prev, and next times D' = det.  An entry
        # (u, v) among the pivot's neighbours, coupled to the pivot by x_u and
        # x_v (to a block by (x_u, y_u) and (x_v, y_v)), becomes D' times its
        # Schur complement entry S[u][v] - c_u B^-1 c_v^T:
        #   (p S[u][v] - x_u x_v) / D for a 1x1 pivot p, and
        #   (D D' S[u][v] - (d x_u x_v - b (x_u y_v + y_u x_v))) / D^2 for a
        #   block B = [[0, b], [b, d]], whose inverse is [[-d, b], [b, 0]] / b^2.
        # The first is the second's formula with b = 0, d = 1 and num / den
        # = p / D in place of D D' / D^2.
        for s, (u, x, y) in enumerate(cols):
            old = _current(diag[u], scale)
            diag[u] = (_exact(num * old - (d * x * x - 2 * b * x * y), den), t + 1)
            ru = off[u]
            for v, xv, yv in cols[s + 1:]:
                old, e = ru.get(v, (0, t))
                if e != t:
                    old = _exact(old * prev, scale[e])
                value = _exact(num * old - (d * x * xv - b * (x * yv + y * xv)), den)
                if value:
                    ru[v] = off[v][u] = (value, t + 1)
                elif v in ru:
                    del ru[v], off[v][u]
        scale.append(det)
        for u, _, _ in cols:
            heappush(heap, (len(off[u]), u))
    return pos, neg, zero, 0 if zero else scale[-1]


def seifert(w: BraidWord) -> tuple[int, int]:
    """(signature, determinant) of the closure, from one elimination of
    the symmetrised form V + V^T held as sparse rows.

    The signature is calibrated so sigma_1^3 closes to +2: the negative of
    the raw signature of V + V^T, where on degenerate link forms each zero
    eigenvalue counts +1 before the negation, extending the knot convention
    one-sidedly.  The determinant is |det(V + V^T)|.
    """
    m, entries = _entries(w)
    rows: list[dict[int, int]] = [{} for _ in range(m)]
    for i, j, x in entries:
        rows[i][j] = rows[i].get(j, 0) + x
        rows[j][i] = rows[j].get(i, 0) + x
    pos, neg, zero, det = _ldl(rows)
    return -((pos - neg) + zero), abs(det)


def signature(w: BraidWord) -> int:
    """Signature of the closure; see ``seifert``."""
    return seifert(w)[0]


def determinant(w: BraidWord) -> int:
    """|det(V + V^T)| of the closure; see ``seifert``."""
    return seifert(w)[1]


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
