"""Braid-index bound machinery: MFW reports, thin reconstruction, deficits.

The classical lower bound for the braid index reads off the a-degree span
of the HOMFLYPT polynomial: w_D - b_D + 1 <= d_- <= d_+ <= w_D + b_D - 1
for every closed braid diagram D, giving (d_+ - d_-)/2 + 1 <= b.  The
homological refinement replaces d_+- by the a-grading span delta_+- of
reduced triply-graded link homology; full homology computations are out of
scope here, so delta_+- enter as externally justified inputs and everything
downstream of them (bounds, sharpness flags, destabilization deficits,
interval propagation through skein triples) is exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .braid import BraidError, BraidWord, EngineInconsistency, writhe
from .homfly import homfly
from .laurent import AQPolynomial, a_degree_range

__all__ = [
    "BoundReport",
    "TrigradedDims",
    "QuadrantDatum",
    "InconsistentThinness",
    "EmptyTable",
    "ParityError",
    "InvertedSpan",
    "SpanOffLines",
    "mfw_report",
    "kr_report",
    "thin_reconstruct",
    "delta_range",
    "skein_triangle",
    "destabilization_deficit",
    "grading_convert",
    "bennequin",
    "quadrant_check",
    "slice_bennequin_check",
]


class InconsistentThinness(ValueError):
    """The polynomial cannot be the Euler characteristic of a thin table."""


class EmptyTable(ValueError):
    """Degree queries on an empty dimension table."""


class ParityError(BraidError):
    """Grading conversion requires k - j to be even."""


class InvertedSpan(BraidError):
    """A supplied grading span has delta_plus below delta_minus."""


class SpanOffLines(BraidError):
    """A supplied grading span leaves the diagram lines w - b + 1, w + b - 1."""


@dataclass(frozen=True)
class TrigradedDims:
    """(i, j, k) -> dimension table for triply graded homology."""

    dims: tuple[tuple[tuple[int, int, int], int], ...]

    @staticmethod
    def from_dict(d: dict[tuple[int, int, int], int]) -> "TrigradedDims":
        return TrigradedDims(tuple(sorted((k, v) for k, v in d.items() if v)))

    def as_dict(self) -> dict[tuple[int, int, int], int]:
        return dict(self.dims)

    def total_dim(self) -> int:
        return sum(v for _, v in self.dims)

    def euler_aq(self) -> AQPolynomial:
        """Recover sum of (-1)^{(k-j)/2} a^j q^i dim as an (a, q) polynomial."""
        d: dict[tuple[int, int], int] = {}
        for (i, j, k), dim in self.dims:
            sign = -1 if ((k - j) // 2) % 2 else 1
            key = (j, i)
            d[key] = d.get(key, 0) + sign * dim
        return AQPolynomial.from_dict(d, 0)


@dataclass(frozen=True)
class BoundReport:
    """Bound arithmetic for one closed braid diagram.

    ``mfw_bound`` always refers to the polynomial degrees d_+-; the
    homological fields are populated only when delta_+- were supplied.
    ``deficits`` measures the gap between the diagram lines and the degrees
    actually used (delta_+- when present, d_+- otherwise).
    """

    word: BraidWord
    w_d: int
    b_d: int
    d_minus: int
    d_plus: int
    mfw_bound: int
    mfw_sharp_lower: bool
    mfw_sharp_upper: bool
    delta_minus: Optional[int] = None
    delta_plus: Optional[int] = None
    kr_bound: Optional[int] = None
    kr_sharp_lower: Optional[bool] = None
    kr_sharp_upper: Optional[bool] = None
    deficits: tuple[int, int] = (0, 0)

    def as_dict(self) -> dict:
        d = {"word": str(self.word), "strands": self.word.strands}
        for f in fields(self)[1:-1]:
            d[f.name] = getattr(self, f.name)
        d["deficit_upper"], d["deficit_lower"] = self.deficits
        return d


def mfw_report(w: BraidWord) -> BoundReport:
    """Degrees, braid-index bound and both diagram equalities for w."""
    p = homfly(w)
    d_minus, d_plus = a_degree_range(p)
    w_d = writhe(w)
    b_d = w.strands
    lower_line = w_d - b_d + 1
    upper_line = w_d + b_d - 1
    if not lower_line <= d_minus <= d_plus <= upper_line:
        raise EngineInconsistency(
            f"a-degrees [{d_minus}, {d_plus}] of {w} leave the MFW lines "
            f"[{lower_line}, {upper_line}]"
        )
    return BoundReport(
        word=w,
        w_d=w_d,
        b_d=b_d,
        d_minus=d_minus,
        d_plus=d_plus,
        mfw_bound=(d_plus - d_minus) // 2 + 1,
        mfw_sharp_lower=(lower_line == d_minus),
        mfw_sharp_upper=(upper_line == d_plus),
        deficits=(upper_line - d_plus, d_minus - lower_line),
    )


def kr_report(w: BraidWord, delta_minus: int, delta_plus: int) -> BoundReport:
    """Homological bound report with externally supplied grading span."""
    if (delta_plus - delta_minus) % 2:
        raise ParityError(
            f"delta span {delta_plus} - {delta_minus} must be even"
        )
    if delta_plus < delta_minus:
        raise InvertedSpan("delta_plus must be at least delta_minus")
    lower_line = writhe(w) - w.strands + 1
    upper_line = writhe(w) + w.strands - 1
    if not lower_line <= delta_minus <= delta_plus <= upper_line:
        raise SpanOffLines(
            f"delta span [{delta_minus}, {delta_plus}] leaves the diagram lines "
            f"[{lower_line}, {upper_line}]"
        )
    return replace(
        mfw_report(w),
        delta_minus=delta_minus,
        delta_plus=delta_plus,
        kr_bound=(delta_plus - delta_minus) // 2 + 1,
        kr_sharp_lower=(lower_line == delta_minus),
        kr_sharp_upper=(upper_line == delta_plus),
        deficits=(upper_line - delta_plus, delta_minus - lower_line),
    )


def thin_reconstruct(p: AQPolynomial, sigma: int) -> TrigradedDims:
    """The unique thin table with Euler characteristic p and diagonal sigma.

    Each monomial c a^j q^i contributes |c| at (i, j, sigma - i - j); the
    reconstruction is consistent exactly when (-1)^{(k-j)/2} matches the
    coefficient sign at every term.
    """
    if p.clearing != 0:
        raise InconsistentThinness(
            "thin reconstruction needs a knot polynomial (clearing exponent 0)"
        )
    dims: dict[tuple[int, int, int], int] = {}
    for (j, i), c in p.terms:
        k = sigma - i - j
        if (k - j) % 2:
            raise InconsistentThinness(
                f"odd homological offset at monomial a^{j} q^{i}"
            )
        sign = -1 if ((k - j) // 2) % 2 else 1
        if sign != (1 if c > 0 else -1):
            raise InconsistentThinness(
                f"sign clash at monomial a^{j} q^{i} with sigma={sigma}"
            )
        dims[(i, j, k)] = abs(c)
    return TrigradedDims.from_dict(dims)


def delta_range(t: TrigradedDims) -> tuple[int, int]:
    """Min and max second grading over the populated entries."""
    if not t.dims:
        raise EmptyTable("no populated entries")
    js = [j for (_, j, _), _ in t.dims]
    return min(js), max(js)


def skein_triangle(
    role: str,
    bounds_a: tuple[int, int],
    bounds_b: tuple[int, int],
) -> tuple[int, int]:
    """Propagate grading-span intervals through one skein triple.

    ``role`` names the unknown member; the two known intervals arrive in
    the order (minus, zero) for ``plus``, (plus, zero) for ``minus`` and
    (plus, minus) for ``zero``.
    """
    (a_lo, a_hi), (b_lo, b_hi) = bounds_a, bounds_b
    if role == "plus":
        return min(a_lo + 2, b_lo + 1), max(a_hi + 2, b_hi + 1)
    if role == "minus":
        return min(a_lo - 2, b_lo - 1), max(a_hi - 2, b_hi - 1)
    if role == "zero":
        return min(a_lo - 1, b_lo + 1), max(a_hi - 1, b_hi + 1)
    raise ValueError(f"role must be plus, minus or zero, got {role!r}")


def destabilization_deficit(
    w_d: int, b_d: int, p: int, n: int
) -> tuple[int, int]:
    """Caps forced by p positive and n negative destabilizations.

    Returns (upper_cap, lower_floor): the upper grading bound drops to
    w_d + b_d - 1 - 2p and the lower one rises to w_d - b_d + 1 + 2n; any
    p + n > 0 certifies that the homological bound cannot be sharp.
    """
    if p < 0 or n < 0:
        raise ValueError("destabilization counts must be nonnegative")
    return (w_d + b_d - 1 - 2 * p, w_d - b_d + 1 + 2 * n)


def grading_convert(i: int, j: int, k: int, n: int) -> tuple[int, int]:
    """Collapse (i, j, k) to the sl(n) bigrading (i + n j, (k - j)/2)."""
    if (k - j) % 2:
        raise ParityError(f"k - j = {k - j} must be even")
    return (i + n * j, (k - j) // 2)


def bennequin(w: BraidWord) -> int:
    """Bennequin (self-linking) number: writhe minus strand count."""
    return writhe(w) - w.strands


@dataclass(frozen=True)
class QuadrantDatum:
    """Conjectured apex (b, w) plus observed diagram coordinates."""

    b_k: int
    w_k: int
    observations: tuple[tuple[int, int], ...]


def quadrant_check(q: QuadrantDatum) -> list[bool]:
    """Membership of each observation in the apex quadrant lattice.

    (b, w) belongs iff b = b_k + x + y and w = w_k + x - y for nonnegative
    integers x, y.
    """
    out = []
    for b, w in q.observations:
        db = b - q.b_k
        dw = w - q.w_k
        x2 = db + dw
        y2 = db - dw
        out.append(x2 >= 0 and y2 >= 0 and x2 % 2 == 0 and y2 % 2 == 0)
    return out


def slice_bennequin_check(w: BraidWord, two_g4: int) -> tuple[bool, bool]:
    """Does 2 g_4 >= bennequin + 1 hold, and is it an equality?"""
    line = bennequin(w) + 1
    return (two_g4 >= line, two_g4 == line)
