"""Reduced sl(2) Khovanov homology of a braid closure, over the rationals.

The chain complex is the cube of resolutions of the closure's planar
diagram with the rank-two Frobenius algebra; the reduced theory is the
subcomplex where the circle through a marked edge always carries the
degree -1 generator.  Gradings are normalised so the unknot has rank one
at (0, 0) and the graded Euler characteristic reproduces the HOMFLYPT
specialisation P(q^2, q).

Ranks are computed degree by degree by exact column reduction, the
standard algorithm of persistent homology; entries start at +-1, so the
arithmetic stays integral until a non-unit pivot forces a rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .braid import BraidWord, BraidError
from .laurent import LaurentPoly1

__all__ = [
    "PlanarDiagram",
    "BigradedRanks",
    "braid_to_pd",
    "reduced_khovanov",
    "poincare_polynomial",
    "euler_polynomial",
    "pd_to_text",
    "pd_from_text",
]

@dataclass(frozen=True)
class PlanarDiagram:
    """Planar diagram of an oriented link with one marked edge.

    Each crossing stores its four incident edges counterclockwise starting
    at the incoming under-strand, plus the crossing sign.  Port 0 is
    incoming and port 2 outgoing; port 3 is incoming at a positive crossing
    and port 1 at a negative one.  Every edge at a crossing must come in
    once and go out once.  Edges incident to no crossing (split unknotted
    components) are listed in ``free_edges``.
    """

    crossings: tuple[tuple[tuple[int, int, int, int], int], ...]
    n_edges: int
    marked_edge: int
    free_edges: tuple[int, ...] = ()

    def __post_init__(self):
        counts = [0] * self.n_edges
        incoming = [0] * self.n_edges
        for ports, sign in self.crossings:
            if sign not in (1, -1):
                raise BraidError(f"crossing sign must be +-1, got {sign}")
            for e in ports:
                self._check_edge(e)
                counts[e] += 1
            incoming[ports[0]] += 1
            incoming[ports[3] if sign > 0 else ports[1]] += 1
        for e in self.free_edges:
            self._check_edge(e)
            counts[e] += 2
        bad = [e for e, c in enumerate(counts) if c != 2]
        if bad:
            raise BraidError(f"edges {bad} do not appear exactly twice")
        bad = sorted({e for p, _ in self.crossings for e in p if incoming[e] != 1})
        if bad:
            raise BraidError(f"edges {bad} are not incoming at exactly one port")
        if not (0 <= self.marked_edge < self.n_edges):
            raise BraidError("marked edge out of range")

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.n_edges:
            raise BraidError(f"edge id {e} out of range 0..{self.n_edges - 1}")

    def resolution_pairs(self, crossing_index: int):
        """(zero-resolution pairs, one-resolution pairs) at a crossing.

        The oriented smoothing is the 0-resolution of a positive crossing
        and the 1-resolution of a negative one.
        """
        (a, b, c, d), sign = self.crossings[crossing_index]
        if sign > 0:
            oriented = ((d, c), (a, b))
            capcup = ((d, a), (c, b))
            return oriented, capcup
        oriented = ((a, d), (b, c))
        capcup = ((a, b), (d, c))
        return capcup, oriented

    def signs(self) -> tuple[int, int]:
        """(number of positive crossings, number of negative crossings)."""
        pos = sum(1 for _, s in self.crossings if s > 0)
        return pos, len(self.crossings) - pos


def braid_to_pd(w: BraidWord) -> PlanarDiagram:
    """Planar diagram of the closure; the marked edge is strand 1's closure arc."""
    n = w.strands
    letters = w.letters
    touching: dict[int, list[int]] = {r: [] for r in range(1, n + 1)}
    for pos, e in enumerate(letters):
        i = abs(e)
        touching[i].append(pos)
        touching[i + 1].append(pos)

    next_edge = 0
    free_edges: list[int] = []
    # incoming[r][pos] / outgoing[r][pos]: edge ids on row r at a crossing.
    incoming: dict[int, dict[int, int]] = {}
    outgoing: dict[int, dict[int, int]] = {}
    for r in range(1, n + 1):
        positions = touching[r]
        if not positions:
            free_edges.append(next_edge)
            next_edge += 1
            continue
        closure = next_edge  # arc from the last crossing around to the first
        next_edge += 1
        inc, out = {}, {}
        inc[positions[0]] = closure
        for p, p_next in zip(positions, positions[1:]):
            out[p] = next_edge
            inc[p_next] = next_edge
            next_edge += 1
        out[positions[-1]] = closure
        incoming[r] = inc
        outgoing[r] = out

    crossings = []
    for pos, e in enumerate(letters):
        i = abs(e)
        in_top = incoming[i][pos]
        out_top = outgoing[i][pos]
        in_bot = incoming[i + 1][pos]
        out_bot = outgoing[i + 1][pos]
        if e > 0:
            ports = (in_bot, out_bot, out_top, in_top)
        else:
            ports = (in_top, in_bot, out_bot, out_top)
        crossings.append((ports, 1 if e > 0 else -1))

    # Row 1 is numbered first, so its closure arc or free circle is edge 0.
    return PlanarDiagram(tuple(crossings), next_edge, 0, tuple(free_edges))


@dataclass(frozen=True)
class BigradedRanks:
    """Rank table of a bigraded homology, keyed by (quantum, homological)."""

    ranks: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int], int]) -> "BigradedRanks":
        return BigradedRanks(tuple(sorted((k, r) for k, r in d.items() if r)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.ranks)

    def total_rank(self) -> int:
        return sum(r for _, r in self.ranks)

    def mirror(self) -> "BigradedRanks":
        return BigradedRanks.from_dict(
            {(-i, -j): r for (i, j), r in self.ranks}
        )

    def triples(self) -> list[list[int]]:
        return [[i, j, r] for (i, j), r in self.ranks]


def euler_polynomial(r: BigradedRanks) -> LaurentPoly1:
    """Graded Euler characteristic: sum of (-1)^J q^I rank."""
    d: dict[int, int] = {}
    for (i, j), rank in r.ranks:
        d[i] = d.get(i, 0) + (-1) ** j * rank
    return LaurentPoly1.from_dict(d)


def poincare_polynomial(r: BigradedRanks) -> str:
    """Two-variable (q, t) rendering, t then q ascending."""
    if not r.ranks:
        return "0"
    parts = []
    for (i, j), rank in sorted(r.ranks, key=lambda kv: (kv[0][1], kv[0][0])):
        q_part = "" if i == 0 else ("q" if i == 1 else f"q^{i}")
        t_part = "" if j == 0 else ("t" if j == 1 else f"t^{j}")
        body = q_part + t_part
        coeff = "" if (rank == 1 and body) else str(rank)
        parts.append((coeff + body) or "1")
    return "+".join(parts)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _vertex_circles(pd: PlanarDiagram, vertex: int):
    """Circle decomposition at a cube vertex.

    Returns (edge_to_circle, least_edge, marked_circle_index); circles are
    indexed by the order of their least edge id, and least_edge[ci] is the
    least edge of circle ci.
    """
    uf = _UnionFind(pd.n_edges)
    for k in range(len(pd.crossings)):
        zero_pairs, one_pairs = pd.resolution_pairs(k)
        pairs = one_pairs if (vertex >> k) & 1 else zero_pairs
        for x, y in pairs:
            uf.union(x, y)
    roots: dict[int, int] = {}
    edge_to_circle = [0] * pd.n_edges
    least_edge: list[int] = []
    for e in range(pd.n_edges):
        r = uf.find(e)
        if r not in roots:
            roots[r] = len(roots)
            least_edge.append(e)
        edge_to_circle[e] = roots[r]
    return edge_to_circle, least_edge, edge_to_circle[pd.marked_edge]


def _states(count: int, marked: int):
    """Label masks of a vertex with ``count`` circles, bit set = generator x.

    The marked circle is always x; the free circles run through every subset.
    """
    free = [ci for ci in range(count) if ci != marked]
    for sub in range(1 << len(free)):
        mask = 1 << marked
        for i, ci in enumerate(free):
            if (sub >> i) & 1:
                mask |= 1 << ci
        yield mask


def _quantum(vertex: int, count: int, mask: int, shift: int) -> int:
    """Quantum grading (#ones - #xs) + |vertex| + shift of a state."""
    return count - 2 * bin(mask).count("1") + bin(vertex).count("1") + shift


def _rank_sparse(columns: dict[int, dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given column-wise.

    Column reduction: a copy of each column is cleared against the stored
    pivot column that owns its largest row, until it is zero or owns a new
    largest row and becomes a pivot.  A unit pivot gives an integer factor,
    any other a Fraction; integral Fractions turn back into ints.  The
    input is not modified.
    """
    pivots: dict[int, dict[int, object]] = {}  # largest row -> pivot column
    for column in columns.values():
        col = {r: v for r, v in column.items() if v}
        while col:
            low = max(col)
            pcol = pivots.get(low)
            if pcol is None:
                pivots[low] = col
                break
            v0, val = pcol[low], col[low]
            factor = val * v0 if v0 == 1 or v0 == -1 else Fraction(val, v0)
            for r, pv in pcol.items():
                nv = col.get(r, 0) - factor * pv
                if isinstance(nv, Fraction) and nv.denominator == 1:
                    nv = int(nv)
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return len(pivots)


def reduced_khovanov(pd: PlanarDiagram) -> BigradedRanks:
    """Reduced Khovanov homology ranks of the diagram, over the rationals."""
    nc = len(pd.crossings)
    n_plus, n_minus = pd.signs()
    circles = [_vertex_circles(pd, v) for v in range(1 << nc)]
    # Shifts the quantum grading so the reduced unknot sits at zero.
    shift = n_plus - 2 * n_minus + 1

    # Number the states of each (quantum, homological) block.
    dims: dict[tuple[int, int], int] = {}
    position: dict[tuple[int, int], int] = {}  # (vertex, mask) -> index in block
    for v, (_, least, marked) in enumerate(circles):
        j = bin(v).count("1") - n_minus
        for mask in _states(len(least), marked):
            key = (_quantum(v, len(least), mask, shift), j)
            position[v, mask] = dims.get(key, 0)
            dims[key] = position[v, mask] + 1

    # Assemble the differential blockwise and take ranks.
    blocks: dict[tuple[int, int], dict[int, dict[int, int]]] = {}
    for v, (edge_to_circle, least, marked) in enumerate(circles):
        count = len(least)
        j = bin(v).count("1") - n_minus
        states = [(mask, _quantum(v, count, mask, shift))
                  for mask in _states(count, marked)]
        for k in range(nc):
            if (v >> k) & 1:
                continue
            v2 = v | (1 << k)
            e2c2 = circles[v2][0]
            sign = -1 if bin(v & ((1 << k) - 1)).count("1") % 2 else 1
            ports = pd.crossings[k][0]
            # Two circles merge into one, or one splits into two.
            old = sorted({edge_to_circle[e] for e in ports})
            new = sorted({e2c2[e] for e in ports})
            carry = [e2c2[e] for e in least]
            for mask, I in states:
                rest = 0
                for ci in range(count):
                    if (mask >> ci) & 1 and ci not in old:
                        rest |= 1 << carry[ci]
                if len(old) == 2:
                    xa, xb = (mask >> old[0]) & 1, (mask >> old[1]) & 1
                    if xa and xb:
                        continue  # m(x, x) = 0
                    # m(1, 1) = 1, m(1, x) = m(x, 1) = x
                    images = (rest | (xa | xb) << new[0],)
                elif (mask >> old[0]) & 1:
                    images = (rest | 1 << new[0] | 1 << new[1],)  # x -> x x
                else:
                    images = (rest | 1 << new[0], rest | 1 << new[1])  # 1 -> 1x + x1
                col = blocks.setdefault((I, j), {}).setdefault(position[v, mask], {})
                for mask2 in images:
                    row = position[v2, mask2]
                    col[row] = col.get(row, 0) + sign

    rank_out = {key: _rank_sparse(cols) for key, cols in blocks.items()}

    betti: dict[tuple[int, int], int] = {}
    for (I, j), dim in dims.items():
        b = dim - rank_out.get((I, j), 0) - rank_out.get((I, j - 1), 0)
        if b:
            betti[(I, j)] = b
    return BigradedRanks.from_dict(betti)


# ---------------------------------------------------------------------------
# PD text interchange: one crossing per line "X a b c d +" / "X a b c d -",
# "M e" marks the reduction edge, "U e" records a crossing-free circle.


def pd_to_text(pd: PlanarDiagram) -> str:
    lines = []
    for (a, b, c, d), sign in pd.crossings:
        lines.append(f"X {a} {b} {c} {d} {'+' if sign > 0 else '-'}")
    for e in pd.free_edges:
        lines.append(f"U {e}")
    lines.append(f"M {pd.marked_edge}")
    return "\n".join(lines) + "\n"


def _edge_id(token: str, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise BraidError(f"edge id {token!r} is not an integer in {line!r}") from None


def pd_from_text(text: str) -> PlanarDiagram:
    """Parse ``pd_to_text`` output; malformed input raises ``BraidError``.

    Edge ranges and counts are checked by ``PlanarDiagram``.
    """
    crossings = []
    free_edges = []
    marked: Optional[int] = None
    max_edge = -1
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "X":
            if len(parts) != 6 or parts[5] not in ("+", "-"):
                raise BraidError(f"malformed crossing line {line!r}")
            ports = tuple(_edge_id(p, line) for p in parts[1:5])
            crossings.append((ports, 1 if parts[5] == "+" else -1))
            max_edge = max(max_edge, *ports)
        elif parts[0] in ("U", "M"):
            if len(parts) != 2:
                raise BraidError(f"{parts[0]} line needs exactly one edge id: {line!r}")
            e = _edge_id(parts[1], line)
            if parts[0] == "U":
                free_edges.append(e)
                max_edge = max(max_edge, e)
            else:
                marked = e
        else:
            raise BraidError(f"unrecognised PD line {line!r}")
    if marked is None:
        marked = 0
    return PlanarDiagram(
        tuple(crossings), max_edge + 1, marked, tuple(free_edges)
    )
