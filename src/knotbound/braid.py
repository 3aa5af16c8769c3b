"""Braid words, Garside normal forms, Markov moves and braid families.

A braid on ``n`` strands is a word in the Artin generators, stored as a
sequence of nonzero integers: letter ``+i`` is the generator crossing strands
``i`` and ``i+1`` positively, ``-i`` its inverse.  Everything downstream
(skein trees, Seifert surfaces, resolution cubes) consumes this one
representation.

Braid equality in B_n, which only destabilization needs, is decided through
the left-greedy Garside normal form Delta^d p_1 ... p_k, with each canonical
factor a permutation braid encoded by its permutation in one-line notation.
The result cache keys a closure at the word level, by the least cyclic
rotation of the cyclically reduced word, so it needs no normal form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "BraidWord",
    "GarsideNormalForm",
    "QPFactorization",
    "BraidError",
    "NotDestabilizable",
    "EngineInconsistency",
    "parse_braid_word",
    "free_reduce",
    "cyclic_reduce",
    "writhe",
    "closure_components",
    "closure_permutation",
    "mirror",
    "conjugate",
    "stabilize",
    "garside_normal_form",
    "canonical_closure_key",
    "destabilize",
    "FAMILIES",
    "elrifai_k_word",
    "elrifai_l_word",
    "bm_word",
    "bm_plus_word",
    "bm_minus_word",
    "bm_zero_word",
    "bm_minus_reduced",
    "bm_zero_reduced",
    "torus2_word",
    "resolution_word",
    "permutation_braid_word",
    "expand_qp",
    "g4_from_qp",
    "qp_elrifai_k",
    "qp_elrifai_l",
    "RESOLUTION_LABELS",
]


class BraidError(ValueError):
    """Invalid braid-word input."""


class NotDestabilizable(BraidError):
    """No destabilizable representative found within the search bound."""


class EngineInconsistency(RuntimeError):
    """A computed result broke an identity that every correct result obeys.

    Raised by the result guards of the invariant engines; it signals a bug,
    not bad input, and unlike an ``assert`` it survives ``python -O``.
    """


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n.

    ``letters`` holds nonzero integers e with 1 <= |e| <= strands - 1;
    ``+i`` means sigma_i and ``-i`` means sigma_i^{-1}.
    """

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.strands < 1:
            raise BraidError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for e in self.letters:
            if not isinstance(e, int) or e == 0 or abs(e) > self.strands - 1:
                raise BraidError(
                    f"letter {e!r} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.letters)

    def with_letters(self, letters: Iterable[int]) -> "BraidWord":
        return BraidWord(self.strands, tuple(letters))


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated signed generator indices.

    The empty string parses to the empty word (the strand count alone then
    determines the closure: an unlink).
    """
    if strands < 1:
        raise BraidError(f"strand count must be positive, got {strands}")
    letters = []
    for token in text.split():
        try:
            e = int(token)
        except ValueError:
            raise BraidError(f"non-integer token {token!r}") from None
        letters.append(e)
    return BraidWord(strands, tuple(letters))


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent inverse pairs e, -e until none remain."""
    out: list[int] = []
    for e in w.letters:
        if out and out[-1] == -e:
            out.pop()
        else:
            out.append(e)
    return w.with_letters(out)


def cyclic_reduce(w: BraidWord) -> BraidWord:
    """Free reduction that also cancels across the closure seam."""
    letters = list(free_reduce(w).letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
        red = free_reduce(w.with_letters(letters))
        letters = list(red.letters)
    return w.with_letters(letters)


def writhe(w: BraidWord) -> int:
    """Signed letter count: positive minus negative crossings."""
    return sum(1 if e > 0 else -1 for e in w.letters)


def mirror(w: BraidWord) -> BraidWord:
    """Negate every letter; the closure is the mirror link."""
    return w.with_letters(-e for e in w.letters)


def conjugate(w: BraidWord, c: BraidWord) -> BraidWord:
    """c w c^{-1}, free-reduced."""
    if c.strands != w.strands:
        raise BraidError("conjugator must live on the same strand count")
    inv = tuple(-e for e in reversed(c.letters))
    return free_reduce(w.with_letters(c.letters + w.letters + inv))


def stabilize(w: BraidWord, sign: int = 1) -> BraidWord:
    """Markov stabilization: append sigma_n^{+-1} on n+1 strands."""
    if sign not in (1, -1):
        raise BraidError("stabilization sign must be +1 or -1")
    return BraidWord(w.strands + 1, w.letters + (sign * w.strands,))


# ---------------------------------------------------------------------------
# Permutations (one-line notation, 0-based positions).  perm[i] is the final
# position of the strand starting at position i; products compose left to
# right: (p * q)[i] = q[p[i]], matching concatenation of braid words.

Perm = tuple[int, ...]


def _identity(n: int) -> Perm:
    return tuple(range(n))


def _half_twist(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def _perm_mul(p: Perm, q: Perm) -> Perm:
    return tuple(q[x] for x in p)


def _perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _transposition(n: int, i: int) -> Perm:
    """Permutation of the single generator sigma_i (1-based)."""
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def _starting_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i left-dividing the permutation braid of p."""
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def _finishing_set(p: Perm) -> frozenset[int]:
    """Generators sigma_i right-dividing the permutation braid of p."""
    return _starting_set(_perm_inv(p))


def _tau(p: Perm) -> Perm:
    """Conjugation by the half twist: flip the one-line notation."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def closure_permutation(w: BraidWord) -> Perm:
    p = _identity(w.strands)
    for e in w.letters:
        p = _perm_mul(p, _transposition(w.strands, abs(e)))
    return p


def closure_components(w: BraidWord) -> int:
    """Number of components of the braid closure (cycles of the permutation)."""
    p = closure_permutation(w)
    seen = [False] * w.strands
    count = 0
    for i in range(w.strands):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def permutation_braid_word(p: Perm) -> tuple[int, ...]:
    """A reduced Artin word (1-based letters) for the positive lift of p."""
    word = []
    q = list(p)
    n = len(q)
    done = False
    while not done:
        done = True
        for i in range(n - 1):
            if q[i] > q[i + 1]:
                word.append(i + 1)
                q[i], q[i + 1] = q[i + 1], q[i]
                done = False
                break
    return tuple(word)


@dataclass(frozen=True)
class GarsideNormalForm:
    """Left-greedy normal form Delta^infimum f_1 ... f_k in B_strands.

    Factors are permutation braids stored as permutations; adjacent factors
    are left-weighted, no factor is trivial or the half twist.  Two braid
    words are equal in B_n iff their normal forms compare equal.
    """

    strands: int
    infimum: int
    factors: tuple[Perm, ...]

    def artin_word(self) -> tuple[int, ...]:
        """An Artin word representing the same element."""
        n = self.strands
        delta = permutation_braid_word(_half_twist(n))
        word: list[int] = []
        if self.infimum >= 0:
            word.extend(delta * self.infimum)
        else:
            inv = tuple(-e for e in reversed(delta))
            word.extend(inv * (-self.infimum))
        for f in self.factors:
            word.extend(permutation_braid_word(f))
        return tuple(word)


def _left_weight(factors: list[Perm], n: int) -> None:
    """Slide generators leftward until every adjacent pair is left-weighted."""
    ident = _identity(n)
    changed = True
    while changed:
        changed = False
        for k in range(len(factors) - 1):
            a, b = factors[k], factors[k + 1]
            if b == ident:
                continue
            movable = _starting_set(b) - _finishing_set(a)
            while movable:
                s = min(movable)
                t = _transposition(n, s)
                a = _perm_mul(a, t)
                b = _perm_mul(t, b)
                changed = True
                if b == ident:
                    break
                movable = _starting_set(b) - _finishing_set(a)
            factors[k], factors[k + 1] = a, b


def garside_normal_form(w: BraidWord) -> GarsideNormalForm:
    """Unique left-greedy normal form of the braid element of w."""
    n = w.strands
    ident = _identity(n)
    delta = _half_twist(n)
    factors: list[Perm] = []
    powers: list[int] = []
    for e in w.letters:
        t = _transposition(n, abs(e))
        if e > 0:
            factors.append(t)
            powers.append(0)
        else:
            # sigma_i^{-1} = Delta^{-1} (Delta sigma_i^{-1}); the parenthesised
            # part is the permutation braid of delta * t.
            factors.append(_perm_mul(delta, t))
            powers.append(-1)
    # Push all Delta powers to the front; tau has order two.
    suffix = 0
    for k in range(len(factors) - 1, -1, -1):
        if suffix % 2:
            factors[k] = _tau(factors[k])
        suffix += powers[k]
    infimum = suffix
    _left_weight(factors, n)
    while factors and factors[0] == delta:
        factors.pop(0)
        infimum += 1
    while factors and factors[-1] == ident:
        factors.pop()
    return GarsideNormalForm(n, infimum, tuple(factors))


def canonical_closure_key(w: BraidWord) -> tuple:
    """Word-level cache key for the closure of w.

    The strand count and the least cyclic rotation of the cyclically reduced
    word.  Conjugating w by any word and cyclically reducing gives a rotation
    of ``cyclic_reduce(w)``, so rotations and conjugates share a key, and
    equal keys imply conjugate braids, hence equal closures.  Words equal
    only through braid relations (``1 2 1`` and ``2 1 2``) get distinct keys,
    which costs cache hits, never correctness.
    """
    letters = cyclic_reduce(w).letters
    rotations = (letters[s:] + letters[:s] for s in range(len(letters)))
    return (w.strands, min(rotations, default=()))


# ---------------------------------------------------------------------------
# Markov destabilization


def destabilize(w: BraidWord) -> tuple[BraidWord, int]:
    """Remove one strand by a Markov destabilization.

    Looks for a conjugate of w in which sigma_{n-1}^{+-1} occurs exactly
    once.  Each cyclic rotation of the cyclically reduced word is conjugated
    by the empty word and by every permutation braid of B_n and its inverse;
    both the cyclic reduction of each conjugate and that of its Garside
    normal-form word are examined, in that order.  Returns the
    (n-1)-strand word and the sign of the removed crossing.
    """
    n = w.strands
    if n < 2:
        raise NotDestabilizable("nothing to destabilize on one strand")
    top = n - 1

    conjugators = [BraidWord(n, ())]
    for p in itertools.permutations(range(n)):
        word = permutation_braid_word(p)
        if word:
            conjugators.append(BraidWord(n, word))
            conjugators.append(BraidWord(n, tuple(-e for e in reversed(word))))

    reduced = cyclic_reduce(w).letters
    seen: set[tuple[int, ...]] = set()
    for s in range(max(1, len(reduced))):
        rotated = BraidWord(n, reduced[s:] + reduced[:s])
        for c in conjugators:
            v = conjugate(rotated, c)
            nf_word = BraidWord(n, garside_normal_form(v).artin_word())
            for letters in (cyclic_reduce(v).letters, cyclic_reduce(nf_word).letters):
                if letters in seen:
                    continue
                seen.add(letters)
                hits = [k for k, e in enumerate(letters) if abs(e) == top]
                if len(hits) == 1:
                    k = hits[0]
                    sign = 1 if letters[k] > 0 else -1
                    return BraidWord(n - 1, letters[:k] + letters[k + 1:]), sign
    raise NotDestabilizable(
        f"no representative with a single sigma_{top}^{{+-1}} found"
    )


# ---------------------------------------------------------------------------
# Braid families

RESOLUTION_LABELS = ("+", "-", "0", "0-", "00", "0--", "0-0")

# Skein-resolution diagrams of the closure of (s1 s2 s2 s1)^2 s1 s2^-3,
# indexed by which crossings of the tail were switched/smoothed.
_RESOLUTION_WORDS: dict[str, tuple[int, ...]] = {
    "+": (1, 2, 2, 1, 1, 2, 2, 1, 1, -2, -2, -2),
    "-": (1, 2, 2, 1, 1, 2, 2, 1, -1, -2, -2, -2),
    "0": (1, 2, 2, 1, 1, 2, 2, 1, -2, -2, -2),
    "0-": (1, 2, 2, 1, 1, 2, -2, 1, -2, -2, -2),
    "00": (1, 2, 2, 1, 1, 2, 1, -2, -2, -2),
    "0--": (1, 2, -2, 1, 1, 1, -2, -2, -2),
    "0-0": (1, 2, 1, 1, 1, -2, -2, -2),
}


def _power(gen: int, exponent: int) -> tuple[int, ...]:
    """sigma_gen^exponent as letters; negative exponents expand to inverses."""
    if exponent >= 0:
        return (gen,) * exponent
    return (-gen,) * (-exponent)


def elrifai_k_word(k: int) -> BraidWord:
    """(s1 s2 s2 s1)^{2k} s1 s2^{-2k-1} on three strands."""
    if k < 1:
        raise BraidError("elrifai-k requires k >= 1")
    letters = (1, 2, 2, 1) * (2 * k) + (1,) + _power(2, -(2 * k + 1))
    return BraidWord(3, letters)


def elrifai_l_word(k: int) -> BraidWord:
    """(s1 s2 s2 s1)^{2k+1} s1 s2^{-2k+1} on three strands."""
    if k < 1:
        raise BraidError("elrifai-l requires k >= 1")
    letters = (1, 2, 2, 1) * (2 * k + 1) + (1,) + _power(2, -2 * k + 1)
    return BraidWord(3, letters)


def bm_word(x: int, y: int, z: int, w: int) -> BraidWord:
    """s1^x s2^y s3^{-1} s2^z s1^w s2 s3 s2 s2 s3 on four strands."""
    letters = (
        _power(1, x)
        + _power(2, y)
        + (-3,)
        + _power(2, z)
        + _power(1, w)
        + (2, 3, 2, 2, 3)
    )
    return BraidWord(4, letters)


def torus2_word(q: int) -> BraidWord:
    """s1^q on two strands: the (2, q) torus closure."""
    return BraidWord(2, _power(1, q))


def _bm_triple_base(x: int, y: int, z: int, w: int) -> tuple[int, ...]:
    # Common body of the four-strand skein triple sitting over the BM knot:
    # s2^x s3^y s1 s2 s2^z s1^w s2 s3 s2, with the triple formed at a final
    # s1 crossing (negative / positive / smoothed).
    return (
        _power(2, x) + _power(3, y) + (1, 2) + _power(2, z) + _power(1, w) + (2, 3, 2)
    )


def bm_plus_word(x: int, y: int, z: int, w: int) -> BraidWord:
    """Four-strand diagram of the BM closure with the triple site negative."""
    return BraidWord(4, _bm_triple_base(x, y, z, w) + (-1,))


def bm_minus_word(x: int, y: int, z: int, w: int) -> BraidWord:
    """Triple member with the site switched positive; destabilizes to
    s1^x s2^{y+1} s1^2 s2^{z+1} s1^w s2 on three strands."""
    return BraidWord(4, _bm_triple_base(x, y, z, w) + (1,))


def bm_zero_word(x: int, y: int, z: int, w: int) -> BraidWord:
    """Triple member with the site smoothed; destabilizes to
    s2^y s1^{z+1} s2^{x+1} s1^{w+1} s2 on three strands."""
    return BraidWord(4, _bm_triple_base(x, y, z, w))


def bm_minus_reduced(x: int, y: int, z: int, w: int) -> BraidWord:
    """Stated three-strand destabilization of the switched triple member."""
    return BraidWord(
        3, _power(1, x) + _power(2, y + 1) + (1, 1) + _power(2, z + 1) + _power(1, w) + (2,)
    )


def bm_zero_reduced(x: int, y: int, z: int, w: int) -> BraidWord:
    """Stated three-strand destabilization of the smoothed triple member."""
    return BraidWord(
        3, _power(2, y) + _power(1, z + 1) + _power(2, x + 1) + _power(1, w + 1) + (2,)
    )


def resolution_word(label: str) -> BraidWord:
    if label not in _RESOLUTION_WORDS:
        raise BraidError(
            f"unknown resolution label {label!r}; expected one of {RESOLUTION_LABELS}"
        )
    return BraidWord(3, _RESOLUTION_WORDS[label])


# Family kind -> (word builder, its parameter names, which are also the
# CLI's option names).
FAMILIES: dict[str, tuple[Callable[..., BraidWord], tuple[str, ...]]] = {
    "elrifai-k": (elrifai_k_word, ("k",)),
    "elrifai-l": (elrifai_l_word, ("k",)),
    "bm": (bm_word, ("x", "y", "z", "w")),
    "torus2": (torus2_word, ("q",)),
    "elrifai-res": (resolution_word, ("label",)),
}


# ---------------------------------------------------------------------------
# Quasipositive factorizations


@dataclass(frozen=True)
class QPFactorization:
    """Product of conjugated positive generators (w sigma_j w^{-1}) factors."""

    strands: int
    factors: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        for conj, gen in self.factors:
            if not (1 <= gen <= self.strands - 1):
                raise BraidError(f"generator {gen} out of range")
            for e in conj:
                if e == 0 or abs(e) > self.strands - 1:
                    raise BraidError(f"conjugator letter {e} out of range")


def expand_qp(f: QPFactorization) -> BraidWord:
    """Concatenate the expanded factors and free-reduce."""
    letters: list[int] = []
    for conj, gen in f.factors:
        letters.extend(conj)
        letters.append(gen)
        letters.extend(-e for e in reversed(conj))
    return free_reduce(BraidWord(f.strands, tuple(letters)))


def g4_from_qp(f: QPFactorization) -> int:
    """Twice the slice genus of a quasipositive closure: p - n + 1."""
    return len(f.factors) - f.strands + 1


def qp_elrifai_k(k: int) -> QPFactorization:
    """Quasipositive representative of the k-th Elrifai knot, 6k factors.

    The expansion is literally 2bar (1 2 2 1 2bar)^{2k} 1.
    """
    if k < 1:
        raise BraidError("k >= 1 required")
    factors: list[tuple[tuple[int, ...], int]] = [((-2,), 1), ((2,), 1)]
    for _ in range(2 * k - 1):
        factors.extend([((), 1), ((), 2), ((2,), 1)])
    factors.append(((), 1))
    return QPFactorization(3, tuple(factors))


def qp_elrifai_l(k: int) -> QPFactorization:
    """Quasipositive representative of the k-th companion family, 6k+6 factors.

    The expansion is literally (1 2 2 1 2bar)^{2k-1} (1 2 2 1)^2 1.
    """
    if k < 1:
        raise BraidError("k >= 1 required")
    factors: list[tuple[tuple[int, ...], int]] = []
    for _ in range(2 * k - 1):
        factors.extend([((), 1), ((), 2), ((2,), 1)])
    factors.extend(((), g) for g in (1, 2, 2, 1, 1, 2, 2, 1, 1))
    return QPFactorization(3, tuple(factors))
