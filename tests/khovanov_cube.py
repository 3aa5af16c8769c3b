"""Reduced Khovanov homology from the full cube of resolutions: a test oracle.

This is the engine ``knotbound.khovanov`` used before it scanned crossings
one at a time.  It builds all 2^c vertices of the cube, so keep it to
diagrams of about a dozen crossings.  It shares only ``PlanarDiagram``,
``BigradedRanks`` and the rank routine with the engine it checks.
"""

from knotbound.khovanov import BigradedRanks, PlanarDiagram, _rank_sparse


def resolution_pairs(pd: PlanarDiagram, crossing_index: int):
    """(zero-resolution pairs, one-resolution pairs) at a crossing.

    The oriented smoothing is the 0-resolution of a positive crossing
    and the 1-resolution of a negative one.
    """
    (a, b, c, d), sign = pd.crossings[crossing_index]
    if sign > 0:
        oriented = ((d, c), (a, b))
        capcup = ((d, a), (c, b))
        return oriented, capcup
    oriented = ((a, d), (b, c))
    capcup = ((a, b), (d, c))
    return capcup, oriented


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
        zero_pairs, one_pairs = resolution_pairs(pd, k)
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


def cube_khovanov(pd: PlanarDiagram) -> BigradedRanks:
    """Reduced Khovanov homology ranks of the diagram from its whole cube."""
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
