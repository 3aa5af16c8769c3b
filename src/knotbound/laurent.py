"""Exact sparse Laurent-polynomial arithmetic for skein computations.

Link polynomials are stored in the framing variable ``a`` and the skein
variable ``z``; display and degree bookkeeping substitute ``z = q - q^{-1}``.
Multi-component links acquire negative powers of ``z``, which the (a, q)
form clears by a recorded power of ``z`` so the stored table stays honestly
polynomial (the same convention the cleared displays use).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

__all__ = [
    "LaurentPoly1",
    "LaurentPoly2",
    "AQPolynomial",
    "ZeroPolynomial",
    "to_aq",
    "a_degree_range",
]


class ZeroPolynomial(ValueError):
    """Degree queries on the zero polynomial are undefined."""


def _clean(terms: Mapping) -> dict:
    return {k: int(c) for k, c in terms.items() if c}


@dataclass(frozen=True)
class LaurentPoly1:
    """One-variable integer Laurent polynomial; the variable is contextual."""

    terms: tuple[tuple[int, int], ...]

    @staticmethod
    def from_dict(d: Mapping[int, int]) -> "LaurentPoly1":
        return LaurentPoly1(tuple(sorted(_clean(d).items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __mul__(self, other: "LaurentPoly1") -> "LaurentPoly1":
        d: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly1.from_dict(d)

    def evaluate(self, value: Fraction) -> Fraction:
        return sum((Fraction(c) * value**e for e, c in self.terms), Fraction(0))


def _format_term(c: int, powers: tuple[tuple[str, int], ...], lead: bool) -> str:
    body = "".join(
        "" if e == 0 else (v if e == 1 else f"{v}^{e}") for v, e in powers
    )
    mag = abs(c)
    coeff = "" if (mag == 1 and body) else str(mag)
    text = coeff + body if body or coeff else "1"
    if lead:
        return text if c > 0 else f"-{text}"
    return ("+ " if c > 0 else "- ") + text


@dataclass(frozen=True)
class LaurentPoly2:
    """Integer Laurent polynomial in (a, z); the home of link polynomials."""

    terms: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def from_dict(d: Mapping[tuple[int, int], int]) -> "LaurentPoly2":
        return LaurentPoly2(tuple(sorted(_clean(d).items())))

    @staticmethod
    def one() -> "LaurentPoly2":
        return LaurentPoly2.monomial(0, 0)

    @staticmethod
    def monomial(e_a: int, e_z: int, c: int = 1) -> "LaurentPoly2":
        return LaurentPoly2.from_dict({(e_a, e_z): c})

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        d = self.as_dict()
        for k, c in other.terms:
            d[k] = d.get(k, 0) + c
        return LaurentPoly2.from_dict(d)

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2(tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly2") -> "LaurentPoly2":
        d: dict[tuple[int, int], int] = {}
        for (a1, z1), c1 in self.terms:
            for (a2, z2), c2 in other.terms:
                k = (a1 + a2, z1 + z2)
                d[k] = d.get(k, 0) + c1 * c2
        return LaurentPoly2.from_dict(d)

    def z_span(self) -> tuple[int, int]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree span")
        zs = [z for (_, z), _ in self.terms]
        return min(zs), max(zs)

    def evaluate(self, a: Fraction, z: Fraction) -> Fraction:
        return sum(
            (Fraction(c) * a**ea * z**ez for (ea, ez), c in self.terms),
            Fraction(0),
        )


@dataclass(frozen=True)
class AQPolynomial:
    """An (a, q) polynomial together with the z power cleared from it.

    The represented value is (stored polynomial) * z^{-clearing} with
    z = q - q^{-1}; clearing is 0 exactly for knot polynomials.
    """

    terms: tuple[tuple[tuple[int, int], int], ...]
    clearing: int = 0

    @staticmethod
    def from_dict(d: Mapping[tuple[int, int], int], clearing: int = 0) -> "AQPolynomial":
        return AQPolynomial(tuple(sorted(_clean(d).items())), clearing)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def q_polynomial_at_a(self, e_subst: int) -> LaurentPoly1:
        """Substitute a = q^{e_subst} into the stored polynomial."""
        d: dict[int, int] = {}
        for (ea, eq), c in self.terms:
            e = ea * e_subst + eq
            d[e] = d.get(e, 0) + c
        return LaurentPoly1.from_dict(d)

    def evaluate(self, a: Fraction, q: Fraction) -> Fraction:
        stored = sum(
            (Fraction(c) * a**ea * q**eq for (ea, eq), c in self.terms),
            Fraction(0),
        )
        return stored * (q - 1 / q) ** (-self.clearing)

    def render(self) -> str:
        """Group by a-degree descending, q descending inside each group."""
        if not self.terms:
            return "0"
        by_a: dict[int, list[tuple[int, int]]] = {}
        for (ea, eq), c in self.terms:
            by_a.setdefault(ea, []).append((eq, c))
        parts = []
        for ea in sorted(by_a, reverse=True):
            group = sorted(by_a[ea], reverse=True)
            a_pow = (("a", ea),) if ea else ()
            if len(group) == 1:
                eq, c = group[0]
                parts.append(_format_term(c, a_pow + (("q", eq),), lead=not parts))
                continue
            inner = " ".join(
                _format_term(c, (("q", eq),), lead=(k == 0))
                for k, (eq, c) in enumerate(group)
            )
            a_part = "a" if ea == 1 else f"a^{ea}" if ea else ""
            body = f"{a_part}*({inner})" if a_part else f"({inner})"
            parts.append(body if not parts else f"+ {body}")
        text = " ".join(parts)
        if self.clearing:
            return f"[{text}] * (q - q^-1)^-{self.clearing}"
        return text

    def triples(self) -> list[list[int]]:
        """Machine rendering: sorted [e_a, e_q, coefficient] triples."""
        return [[ea, eq, c] for (ea, eq), c in sorted(self.terms, reverse=True)]


def _z_power_in_q(k: int) -> dict[int, int]:
    """(q - q^{-1})^k expanded into q powers, k >= 0.  The binomials come
    from the exact recurrence C(k, t + 1) = C(k, t) (k - t) / (t + 1)."""
    row, c = {}, 1
    for t in range(k + 1):
        row[k - 2 * t] = -c if t & 1 else c
        c = c * (k - t) // (t + 1)
    return row


def to_aq(p: LaurentPoly2) -> AQPolynomial:
    """Substitute z = q - q^{-1}, clearing negative z powers minimally."""
    if p.is_zero():
        return AQPolynomial((), 0)
    zmin, _ = p.z_span()
    m = max(0, -zmin)
    rows: dict[int, dict[int, int]] = {}  # one expansion per distinct z power
    d: dict[tuple[int, int], int] = {}
    for (ea, ez), c in p.terms:
        k = ez + m
        if k not in rows:
            rows[k] = _z_power_in_q(k)
        for eq, cq in rows[k].items():
            key = (ea, eq)
            d[key] = d.get(key, 0) + c * cq
    return AQPolynomial.from_dict(d, m)


def a_degree_range(p: Union[LaurentPoly2, AQPolynomial]) -> tuple[int, int]:
    """Minimal and maximal a-exponent carrying a nonzero coefficient."""
    if p.is_zero():
        raise ZeroPolynomial("zero polynomial has no a-degree range")
    exps = [k[0] for k, _ in p.terms]
    return min(exps), max(exps)
