"""Reduced sl(2) Khovanov homology of a link diagram, over the rationals.

The homology is computed by Bar-Natan's scanning algorithm (D. Bar-Natan,
"Fast Khovanov homology computations", J. Knot Theory Ramifications 16,
2007).  Crossings are added one at a time, in an order chosen by replaying
the scan's boundary sizes from several start crossings, to a complex over
dotted cobordisms with h = t = 0; each closed circle is delooped as it
appears, and every isomorphism is cancelled after each crossing, so the
complex stays near the size of the homology rather than the 2^c vertices
of the cube of resolutions.  Gradings are normalised so the unknot has rank
one at (0, 0) and the graded Euler characteristic reproduces the HOMFLYPT
specialisation P(q^2, q).

The reduced theory cuts the marked edge open into an arc whose dot acts as
zero.  After the last crossing the dotted entries are dropped and the
cancellation, which inverts every nonzero scalar (in Fractions unless it is
+-1), runs once more; no entry is left, so each rank is the number of
objects in its grading.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import product
from math import comb
from typing import Optional

from .braid import BraidWord, BraidError, EngineInconsistency, PreconditionFailed
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
    "TooManyCrossings",
    "check_crossings",
    "MAX_OBJECTS",
    "MAX_SCAN_OBJECTS",
]

# Most objects one scanning step of reduced_khovanov may build: the
# delooped complex right after one crossing is tensored on, before
# cancellation.  On 3-strand braids a step costs about 2 KiB per object,
# entries and caches included, so the budget keeps one near 40 MiB;
# elrifai-k(8), 82 crossings, peaks at 533 objects from its chosen start.
MAX_OBJECTS = 20_000
# Most objects a whole scan may build, summed over its steps; it bounds the
# time, which grows with the crossings even when every step is small.  The
# largest scans measured fit with room: T(6, 7) builds 18,993 objects and
# elrifai-k(8) 17,916.  The 2-strand closure of 182 letters 1 builds 49,778
# in about 2 s; 183 letters are refused.
MAX_SCAN_OBJECTS = 50_000


class TooManyCrossings(PreconditionFailed):
    """A scanning step would build more than ``MAX_OBJECTS`` objects, or
    the scan more than ``MAX_SCAN_OBJECTS`` over its steps."""


def check_crossings(crossings: int) -> None:
    """Refuse a scan of ``crossings`` crossings that ``MAX_SCAN_OBJECTS``
    refuses for sure: raise ``TooManyCrossings`` when 2 * crossings is over
    it.  Each step tensors every object with both resolutions, and the
    complex never cancels to empty, since a link's reduced homology is
    nonzero; so a step builds at least two objects.  It reads the count
    alone, so a caller can refuse a word before building its diagram."""
    if 2 * crossings > MAX_SCAN_OBJECTS:
        raise TooManyCrossings(
            f"the scan of {crossings} crossings needs at least {2 * crossings} "
            f"objects, over the budget of {MAX_SCAN_OBJECTS}"
        )


@dataclass(frozen=True)
class PlanarDiagram:
    """Planar diagram of an oriented link with one marked edge.

    Each crossing stores its four incident edges counterclockwise starting
    at the incoming under-strand, plus the crossing sign.  Port 0 is
    incoming and port 2 outgoing; port 3 is incoming at a positive crossing
    and port 1 at a negative one.  Every edge at a crossing must come in
    once and go out once, and each connected component must be planar.
    Edges incident to no crossing (split unknotted components) are listed in
    ``free_edges``.
    """

    crossings: tuple[tuple[tuple[int, int, int, int], int], ...]
    n_edges: int
    marked_edge: int
    free_edges: tuple[int, ...] = ()

    def __post_init__(self):
        for ports, sign in self.crossings:
            if sign not in (1, -1):
                raise BraidError(f"crossing sign must be +-1, got {sign}")
            for e in ports:
                self._check_edge(e)
        for e in self.free_edges:
            self._check_edge(e)
        # Each edge meets two ports, so this holds before any per-edge list.
        expected = 2 * len(self.crossings) + len(self.free_edges)
        if self.n_edges != expected:
            raise BraidError(
                f"{self.n_edges} edge ids for {len(self.crossings)} crossings and "
                f"{len(self.free_edges)} free circles; expected {expected}"
            )
        counts = [0] * self.n_edges
        incoming = [0] * self.n_edges
        for ports, sign in self.crossings:
            for e in ports:
                counts[e] += 1
            incoming[ports[0]] += 1
            incoming[ports[3] if sign > 0 else ports[1]] += 1
        for e in self.free_edges:
            counts[e] += 2
        bad = [e for e, c in enumerate(counts) if c != 2]
        if bad:
            raise BraidError(f"edges {bad} do not appear exactly twice")
        bad = sorted({e for p, _ in self.crossings for e in p if incoming[e] != 1})
        if bad:
            raise BraidError(f"edges {bad} are not incoming at exactly one port")
        if not (0 <= self.marked_edge < self.n_edges):
            raise BraidError("marked edge out of range")
        genus = self._genus()
        if genus:
            raise BraidError(f"the diagram is not planar: its components lie on "
                             f"surfaces of total genus {genus}")

    def _genus(self) -> int:
        """Total genus of the closed surfaces that the connected components
        of the crossings are drawn on, given the counterclockwise port order.

        A port is numbered 4 * crossing + port.  Each face is traced once, by
        following a port's edge to its far port and turning to the next port
        counterclockwise.  By Euler's formula a component of V crossings, 2V
        edges and F faces has genus (2 - V + 2V - F) / 2, which is never
        negative, so k components are all planar exactly when the sum
        (2k + V - F) / 2 is 0.
        """
        c = len(self.crossings)
        far = [0] * (4 * c)
        first = [-1] * self.n_edges
        parent = list(range(c))
        for d, e in enumerate(e for p, _ in self.crossings for e in p):
            if first[e] < 0:
                first[e] = d
            else:
                far[d], far[first[e]] = first[e], d
                parent[_find(parent, d // 4)] = _find(parent, first[e] // 4)
        components = sum(_find(parent, x) == x for x in range(c))
        faces = 0
        seen = [False] * (4 * c)
        for start in range(4 * c):
            if not seen[start]:
                faces += 1
                d = start
                while not seen[d]:
                    seen[d] = True
                    d = far[d]
                    d += 1 if d % 4 < 3 else -3
        return (2 * components + c - faces) // 2

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.n_edges:
            raise BraidError(f"edge id {e} out of range 0..{self.n_edges - 1}")

    def signs(self) -> tuple[int, int]:
        """(number of positive crossings, number of negative crossings)."""
        pos = sum(1 for _, s in self.crossings if s > 0)
        return pos, len(self.crossings) - pos

    def component_edges(self) -> tuple[int, ...]:
        """The least edge of each link component, in increasing order.

        A strand runs straight through a crossing, from port 0 to port 2
        and between ports 1 and 3.
        """
        parent = list(range(self.n_edges))
        for (a, b, c, d), _ in self.crossings:
            for x, y in ((a, c), (b, d)):
                parent[_find(parent, x)] = _find(parent, y)
        least: dict[int, int] = {}
        for e in range(self.n_edges):
            least.setdefault(_find(parent, e), e)
        return tuple(least.values())


def braid_to_pd(w: BraidWord) -> PlanarDiagram:
    """Planar diagram of the closure; the marked edge is strand 1's closure arc."""
    letters = w.letters
    rows: list[list[int]] = [[] for _ in range(w.strands)]  # crossings on row r + 1
    for pos, e in enumerate(letters):
        rows[abs(e) - 1].append(pos)
        rows[abs(e)].append(pos)
    # ends[pos]: the (incoming, outgoing) edges of its top row, then its bottom.
    ends: list[list] = [[None, None] for _ in letters]
    free_edges: list[int] = []
    first = 0
    for r, positions in enumerate(rows):
        # The row's k-th crossing is entered by edge first + k; the last one
        # leaves by the closure arc, edge first.
        m = len(positions)
        for k, pos in enumerate(positions):
            ends[pos][r - abs(letters[pos]) + 1] = first + k, first + (k + 1) % m
        if not m:
            free_edges.append(first)
        first += m or 1

    crossings = []
    for e, ((in_top, out_top), (in_bot, out_bot)) in zip(letters, ends):
        if e > 0:
            ports = (in_bot, out_bot, out_top, in_top)
        else:
            ports = (in_top, in_bot, out_bot, out_top)
        crossings.append((ports, 1 if e > 0 else -1))

    # Row 1 is numbered first, so its closure arc or free circle is edge 0.
    return PlanarDiagram(tuple(crossings), first, 0, tuple(free_edges))


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


# ---------------------------------------------------------------------------
# The scanning engine.  Points are edge ids, plus one extra point for the
# second end of the marked edge.

# A crossingless matching: sorted pairs (x, y) with x < y.
Matching = tuple[tuple[int, int], ...]
# A morphism between two matchings: mask of dotted curves -> coefficient.
Morphism = dict[int, int]

# Port pairs joined by the 0- and by the 1-resolution of a crossing, for
# either sign: the oriented smoothing is the 0-resolution of a positive
# crossing and the 1-resolution of a negative one.
_RESOLUTIONS = (((0, 1), (2, 3)), ((0, 3), (1, 2)))
# Which disk of a crossing's cobordism lies at each port: the identity on
# each resolution is two strips, and the saddle is one disk.
_STRIPS = ((0, 0, 1, 1), (0, 1, 1, 0))
_SADDLE = (0, 0, 0, 0)


def _find(parent, x):
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _curve_names(m1: Matching, m2: Matching) -> dict[int, int]:
    """Each point of two matchings on one boundary -> the least point of
    its curve in their union."""
    p1: dict[int, int] = {}
    p2: dict[int, int] = {}
    for m, p in ((m1, p1), (m2, p2)):
        for x, y in m:
            p[x], p[y] = y, x
    name: dict[int, int] = {}
    for x in sorted(p1):
        y = x
        while y not in name:
            z = p1[y]
            name[y] = name[z] = x
            y = p2[z]
    return name


def _smooth(arcs, boundary: frozenset) -> tuple[Matching, list[int]]:
    """A union of arcs as a matching on ``boundary`` plus the least point
    of each closed circle."""
    parent: dict[int, int] = {}
    for x, y in arcs:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        parent[_find(parent, x)] = _find(parent, y)
    parts: dict[int, list[int]] = {}
    for x in parent:
        parts.setdefault(_find(parent, x), []).append(x)
    matching, circles = [], []
    for points in parts.values():
        tips = sorted(x for x in points if x in boundary)
        if tips:
            matching.append(tuple(tips))
        else:
            circles.append(min(points))
    return tuple(sorted(matching)), circles


class _Surface:
    """A cobordism glued from disks, to be reduced to the neck-cut basis.

    ``labels`` name the disks.  Each ``(x, y, arcs)`` in ``joins`` glues
    disk x to disk y along ``arcs`` intervals, each of which lowers the
    Euler characteristic by one, or along a whole circle when ``arcs`` is 0.
    ``rims`` maps the bit of each boundary curve of the result to a disk on
    that curve.  ``index`` gives each disk's component, and ``comps`` each
    component's genus and curve bits.
    """

    __slots__ = ("index", "comps")

    def __init__(self, labels, joins, rims: dict[int, int]):
        parent = {x: x for x in labels}
        for x, y, _ in joins:
            parent[_find(parent, x)] = _find(parent, y)
        chi: dict[int, int] = {}
        for x in labels:
            r = _find(parent, x)
            chi[r] = chi.get(r, 0) + 1
        for x, _, arcs in joins:
            chi[_find(parent, x)] -= arcs
        curves = dict.fromkeys(chi, 0)
        for bit, x in rims.items():
            curves[_find(parent, x)] |= bit
        order = {r: i for i, r in enumerate(chi)}
        self.index = {x: order[_find(parent, x)] for x in labels}
        # chi = 2 - 2 genus - (number of boundary curves)
        self.comps = [((2 - c - curves[r].bit_count()) // 2, curves[r])
                      for r, c in chi.items()]

    def evaluate(self, dots: list[int], coeff: int, out: Morphism) -> None:
        """Add ``coeff`` times the surface, with ``dots[i]`` dots on
        component i, to ``out``.

        With h = t = 0 a handle is twice a dot and two dots vanish.  So a
        component whose genus plus dots is 1 dots all its curves, one with
        0 leaves each curve undotted in turn (and is zero if closed), and
        any other is zero.
        """
        terms = {0: coeff}
        for (genus, curves), d in zip(self.comps, dots):
            weight = genus + d
            if weight > 1 or not (weight or curves):
                return
            if weight:
                terms = {m | curves: c * (1 << genus) for m, c in terms.items()}
                continue
            undotted = []
            rest = curves
            while rest:
                low = rest & -rest
                undotted.append(curves ^ low)
                rest ^= low
            terms = {m | u: c for m, c in terms.items() for u in undotted}
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c


def _compose(cache: dict, top: int, delta: Morphism, gamma: Morphism,
             x: Matching, m: Matching, y: Matching) -> Morphism:
    """gamma o delta for delta: x -> m and gamma: m -> y; ``cache`` keeps
    the glued surface of each (x, m, y), and ``top`` is ``_Complex.top``."""
    surface = cache.get((x, m, y))
    if surface is None:
        lower, upper = _curve_names(x, m), _curve_names(m, y)
        s = _Surface(
            set(lower.values()) | {top + n for n in upper.values()},
            [(lower[u], top + upper[u], 1) for u, _ in m],
            {1 << n: lower[p] for p, n in _curve_names(x, y).items()},
        )
        low, high = [0] * len(s.comps), [0] * len(s.comps)
        for n in set(lower.values()):
            low[s.index[n]] |= 1 << n
        for n in set(upper.values()):
            high[s.index[top + n]] |= 1 << n
        surface = cache[x, m, y] = (s, low, high)
    s, low, high = surface
    out: Morphism = {}
    for m1, c1 in delta.items():
        for m2, c2 in gamma.items():
            dots = [(m1 & a).bit_count() + (m2 & b).bit_count() for a, b in zip(low, high)]
            s.evaluate(dots, c1 * c2, out)
    return out


class _Complex:
    """A chain complex over Bar-Natan's dotted cobordisms with h = t = 0.

    An object is a crossingless matching on the boundary points with a
    quantum shift and a homological degree.  A morphism a -> b is a
    ``Morphism``: each curve of a and b together, named by its least point,
    bounds a disk, which is dotted when bit ``1 << name`` is set in the
    mask.  Closed circles are delooped as they appear, and isomorphisms are
    cancelled after each crossing, so the complex stays near the size of
    the homology.
    """

    def __init__(self, top: int):
        self.top = top  # every point is below it; other disk labels start there
        self.boundary: frozenset = frozenset()
        self.objects: dict[int, tuple[Matching, int, int]] = {0: ((), 0, 0)}
        self.out: dict[int, dict[int, Morphism]] = {0: {}}  # id -> {target: morphism}
        self.into: dict[int, set[int]] = {0: set()}  # id -> ids with a morphism into it
        self.built = 0  # objects of every step built so far

    def add_crossing(self, ports: tuple[int, ...]) -> None:
        """Tensor with the crossing's complex [r0 -> r1{1}], then deloop.

        Raises ``TooManyCrossings`` before building a step that would have
        more than ``MAX_OBJECTS`` objects, or take the objects built over
        all steps past ``MAX_SCAN_OBJECTS``.
        """
        internal = {e for e in ports if e in self.boundary or ports.count(e) == 2}
        boundary = (self.boundary | set(ports)) - internal
        arcs = [tuple((ports[p], ports[q]) for p, q in res) for res in _RESOLUTIONS]
        smooth: dict[tuple[Matching, int], tuple[Matching, list[int]]] = {}
        size = 0
        for a, _, _ in self.objects.values():
            for i in (0, 1):
                if (a, i) not in smooth:
                    smooth[a, i] = _smooth(a + arcs[i], boundary)
                size += 1 << len(smooth[a, i][1])
        if size > MAX_OBJECTS:
            raise TooManyCrossings(
                f"a scanning step needs {size} objects, over the budget of {MAX_OBJECTS}"
            )
        self.built += size
        if self.built > MAX_SCAN_OBJECTS:
            raise TooManyCrossings(
                f"the scan needs {self.built} objects over its steps, over the "
                f"budget of {MAX_SCAN_OBJECTS}"
            )
        _Step(self, ports, internal, boundary, smooth).build()

    def cancel(self) -> None:
        """Gaussian elimination of every isomorphism, a nonzero undotted
        scalar c between two objects with the same matching and shift, until
        none is left; c^-1 is an int when c = +-1, else a Fraction."""
        objects, out, into = self.objects, self.out, self.into
        composites: dict = {}
        queue = list(objects)
        while queue:
            o1 = queue.pop()
            if o1 not in objects:
                continue
            m, shift, _ = objects[o1]
            for o2, phi in out[o1].items():
                if objects[o2][:2] == (m, shift) and len(phi) == 1 and 0 in phi:
                    break
            else:
                continue
            # d(x -> y) -= gamma phi^-1 delta, for delta: x -> o2, gamma: o1 -> y.
            scalar = phi[0]
            inverse = scalar if scalar in (1, -1) else 1 / Fraction(scalar)
            targets = [(y, g) for y, g in out[o1].items() if y != o2]
            for x in into[o2]:
                if x == o1:
                    continue
                row, delta = out[x], out[x][o2]
                for y, gamma in targets:
                    f = row.get(y, {})
                    for mask, c in _compose(composites, self.top, delta, gamma,
                                            objects[x][0], m, objects[y][0]).items():
                        f[mask] = f.get(mask, 0) - inverse * c
                    f = {mask: c for mask, c in f.items() if c}
                    if f:
                        row[y] = f
                        into[y].add(x)
                    elif y in row:
                        del row[y]
                        into[y].discard(x)
                queue.append(x)
            for o in (o1, o2):
                for x in into.pop(o):
                    if x in out:
                        del out[x][o]
                for y in out.pop(o):
                    if y in into:
                        into[y].discard(o)
                del objects[o]


class _Step:
    """One crossing tensored onto a complex, with its delooped objects."""

    def __init__(self, cx: _Complex, ports, internal, boundary, smooth):
        self.cx, self.ports, self.internal = cx, ports, internal
        self.boundary, self.smooth = boundary, smooth
        self.surfaces: dict = {}  # (a, b, i, j) -> _surface(a, b, i, j)
        self.objects: dict[int, tuple[Matching, int, int]] = {}
        self.out: dict[int, dict[int, Morphism]] = {}
        self.into: dict[int, set[int]] = {}

    def _surface(self, a: Matching, b: Matching, i: int, j: int):
        """The cobordism (f: a -> b) tensored with the crossing's identity
        on resolution i (i == j) or its saddle (i = 0, j = 1), with a cup on
        each circle below and a cap on each circle above.  Returns the
        surface, the bits of f's curves on each component, and the
        components of the cups and of the caps."""
        if (a, b, i, j) in self.surfaces:
            return self.surfaces[a, b, i, j]
        top, ports = self.cx.top, self.ports
        pieces = _STRIPS[i] if i == j else _SADDLE
        names = _curve_names(a, b)
        a2, cups = self.smooth[a, i]
        b2, caps = self.smooth[b, j]

        def owner(x: int) -> int:
            return names[x] if x in names else top + pieces[ports.index(x)]

        joins = []
        for e in self.internal:
            k = ports.index(e)
            other = names[e] if e in names else top + pieces[ports.index(e, k + 1)]
            joins.append((top + pieces[k], other, 1))
        caps_at = top + 2 + len(cups)
        joins += [(top + 2 + t, owner(x), 0) for t, x in enumerate(cups)]
        joins += [(caps_at + t, owner(x), 0) for t, x in enumerate(caps)]
        s = _Surface(
            set(names.values()) | {top + p for p in pieces}
            | set(range(top + 2, caps_at + len(caps))),
            joins,
            {1 << n: owner(x) for x, n in _curve_names(a2, b2).items()},
        )
        bits = [0] * len(s.comps)
        for n in set(names.values()):
            bits[s.index[n]] |= 1 << n
        surface = self.surfaces[a, b, i, j] = (
            s, bits, [s.index[top + 2 + t] for t in range(len(cups))],
            [s.index[caps_at + t] for t in range(len(caps))])
        return surface

    def build(self) -> None:
        """Replace the complex's objects and morphisms by the step's."""
        cx, objects = self.cx, self.objects
        summands: dict[tuple[int, int], list] = {}  # (old id, i) -> [(id, signs)]
        for o, (a, s, h) in cx.objects.items():
            for i in (0, 1):
                m, circles = self.smooth[a, i]
                # A circle is {+1} (cup in, dotted cap out) plus {-1}
                # (dotted cup in, cap out).
                summands[o, i] = [(len(objects) + n, signs) for n, signs in
                                  enumerate(product((1, -1), repeat=len(circles)))]
                for n, signs in summands[o, i]:
                    objects[n] = (m, s + i + sum(signs), h + i)
        for n in objects:
            self.out[n], self.into[n] = {}, set()
        for o, targets in cx.out.items():
            a = cx.objects[o][0]
            for o2, f in targets.items():
                b = cx.objects[o2][0]
                for i in (0, 1):
                    self._add(summands[o, i], summands[o2, i], self._surface(a, b, i, i), f)
        # d(c x) = dc x + (-1)^h c dx: the saddle term carries the sign.
        for o, (a, _, h) in cx.objects.items():
            self._add(summands[o, 0], summands[o, 1], self._surface(a, a, 0, 1),
                      {0: -1 if h % 2 else 1})
        cx.boundary, cx.objects, cx.out, cx.into = (self.boundary, objects,
                                                    self.out, self.into)

    def _add(self, sources, targets, surface, f: Morphism) -> None:
        s, bits, cups, caps = surface
        for n1, below in sources:
            for n2, above in targets:
                g: Morphism = {}
                for mask, c in f.items():
                    dots = [(mask & b).bit_count() for b in bits]
                    for t, sign in enumerate(below):
                        dots[cups[t]] += sign < 0
                    for t, sign in enumerate(above):
                        dots[caps[t]] += sign > 0
                    s.evaluate(dots, c, g)
                g = {mask: c for mask, c in g.items() if c}
                if g:
                    self.out[n1][n2] = g
                    self.into[n2].add(n1)


def _rank_sparse(columns: dict[int, dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix given column-wise.

    ``reduced_khovanov`` leaves no entry to rank; the cube oracle in
    ``tests/khovanov_cube.py`` ranks with it, and ``perfbench/tracing.py``
    looks it up by name.

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


# Most start crossings _scan_order replays; a longer diagram tries this many,
# evenly spaced from crossing 0.
SCAN_STARTS = 32


def _links(pd: PlanarDiagram) -> list[tuple[int, ...]]:
    """For each crossing, the crossing at the far end of each port's edge;
    -1 on the marked edge, which the scan cuts into two boundary points."""
    at: dict[int, list[int]] = {}
    for k, (ports, _) in enumerate(pd.crossings):
        for e in ports:
            at.setdefault(e, []).append(k)
    # An edge has two ends, so the far one is their sum less the near one.
    return [tuple(-1 if e == pd.marked_edge else sum(at[e]) - k for e in ports)
            for k, (ports, _) in enumerate(pd.crossings)]


def _order_from(links: list[tuple[int, ...]], start: int,
                bound: Optional[int] = None):
    """Replay the greedy scan from crossing ``start`` without building it.

    Next comes the crossing with the most ports on the boundary, the first
    in cyclic order from ``start`` on ties.  As in the scan, the two cut
    ends of the marked edge stay on the boundary and join nothing, so start
    k of a braid closure whose marked edge is strand 1's arc into crossing
    k scans in the braid order of rotation k.  Each crossing's count of
    boundary ports only grows, and one heap holds the key (4 - count) * c +
    cyclic offset each time a crossing's count changes, every crossing at
    count 0 to begin with; the least key whose count is still current is
    next, so a replay costs O(c log c).  Returns ``(cost, order)``, where
    the cost sums Catalan(|boundary| / 2), the number of crossingless
    matchings a step's objects can have, over the steps; or None as soon as
    the cost reaches ``bound``.
    """
    c = len(links)
    count = [0] * c
    done = [False] * c
    heap = list(range(4 * c, 5 * c))  # sorted, so already a heap
    order: list[int] = []
    cost = width = 0
    for _ in range(c):
        while True:
            key = heappop(heap)
            k = (start + key) % c
            # Each (crossing, count) is pushed once, so a current count
            # also means the crossing is not scanned yet.
            if key // c + count[k] == 4:
                break
        done[k] = True
        order.append(k)
        for j in links[k]:
            if j == k:
                continue  # a kink's edge closes at once
            if j < 0:
                width += 1
            elif done[j]:
                width -= 1
            else:
                width += 1
                count[j] += 1
                heappush(heap, (4 - count[j]) * c + (j - start) % c)
        half = width // 2
        cost += comb(2 * half, half) // (half + 1)
        if bound is not None and cost >= bound:
            return None
    return cost, order


def _scan_order(pd: PlanarDiagram) -> list[int]:
    """The crossing order ``reduced_khovanov`` scans: the cheapest
    ``_order_from`` replay over every start, or over ``SCAN_STARTS`` evenly
    spaced starts on a longer diagram, the lowest start on ties."""
    links = _links(pd)
    c = len(pd.crossings)
    starts = (range(c) if c <= SCAN_STARTS
              else (i * c // SCAN_STARTS for i in range(SCAN_STARTS)))
    cost, order = None, []
    for start in starts:
        found = _order_from(links, start, cost)
        if found is not None:
            cost, order = found
    return order


def reduced_khovanov(pd: PlanarDiagram) -> BigradedRanks:
    """Reduced Khovanov homology ranks of the diagram, over the rationals.

    Scans the crossings one at a time in the order ``_scan_order``
    chooses: next the one with the most ports on the current boundary, the
    first in cyclic order from a start crossing on ties, from the start
    whose replay predicts the smallest boundaries.  The marked edge is cut
    into two boundary points that never close up; in the end every object
    is that one arc, where a dot acts as zero.  A marked free circle leaves
    the rest of the diagram's unreduced homology, and each other free
    circle multiplies the result by q + q^-1.

    Raises ``TooManyCrossings`` before a step would build more than
    ``MAX_OBJECTS`` objects, or the scan more than ``MAX_SCAN_OBJECTS``;
    ``check_crossings`` refuses a diagram too large for the latter before
    the scan order is chosen.
    """
    check_crossings(len(pd.crossings))
    marked, cut = pd.marked_edge, pd.n_edges
    ends, seen = [], False
    for ports, _ in pd.crossings:
        row = []
        for e in ports:
            if e == marked:
                e, seen = (cut if seen else e), True
            row.append(e)
        ends.append(tuple(row))
    cx = _Complex(cut + 1)
    for k in _scan_order(pd):
        cx.add_crossing(ends[k])
        cx.cancel()

    # Every object is now the marked arc, on which a dot acts as 0.
    for o, targets in cx.out.items():
        for t in [t for t, f in targets.items() if 0 not in f]:
            del targets[t]
            cx.into[t].discard(o)
    cx.cancel()
    if any(cx.out.values()):
        raise EngineInconsistency("an entry survived the last cancellation")
    n_plus, n_minus = pd.signs()
    betti: dict[tuple[int, int], int] = {}
    for _, s, h in cx.objects.values():
        key = s + n_plus - 2 * n_minus, h - n_minus
        betti[key] = betti.get(key, 0) + 1
    for e in pd.free_edges:
        if e != marked:
            grown: dict[tuple[int, int], int] = {}
            for (I, j), b in betti.items():
                for key in ((I - 1, j), (I + 1, j)):
                    grown[key] = grown.get(key, 0) + b
            betti = grown
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
            elif marked is not None:
                raise BraidError(f"a second M line: {line!r}")
            else:
                marked = e
        else:
            raise BraidError(f"unrecognised PD line {line!r}")
    if marked is None:
        marked = 0
    return PlanarDiagram(
        tuple(crossings), max_edge + 1, marked, tuple(free_edges)
    )
