"""Braid words, Garside normal forms, Markov moves and braid families.

A braid on ``n`` strands is a word in the Artin generators, stored as a
sequence of nonzero integers: letter ``+i`` is the generator crossing strands
``i`` and ``i+1`` positively, ``-i`` its inverse.  Everything downstream
(the Hecke expansion, Seifert surfaces, planar diagrams) consumes this one
representation.

Braid equality in B_n, which the frozen Markov certificates of the paper's
Section 3 need, is decided through the left-greedy Garside normal form
Delta^d p_1 ... p_k, with each canonical factor a permutation braid encoded
by its permutation in one-line notation.  A normal form times a simple
element takes one pass of pair normalisations (Elrifai and Morton,
"Algorithms for positive braids", Quart. J. Math. Oxford 45, 1994; Epstein
et al., "Word Processing in Groups", 1992, ch. 9), so a word is normalised
letter by letter.  ``destabilize`` is the plain Markov move on a word whose
top generator occurs once; it searches no conjugates.
The result cache keys a closure at the word level, so it needs no normal
form: the cyclically reduced word, destabilized while its top generator
occurs exactly once, then its least cyclic rotation.
The Khovanov scan, whose cost grows with the crossings, takes a shorter word
when one is found: ``reduce_handles`` for the same braid (Dehornoy handle
reduction) and ``scan_word`` for the same closure (a bounded search over
handle reduction, braid relations and the key rule).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "BraidWord",
    "GarsideNormalForm",
    "QPFactorization",
    "BraidError",
    "PreconditionFailed",
    "NotDestabilizable",
    "EngineInconsistency",
    "TooManyStrands",
    "MAX_STRANDS",
    "MAX_FAMILY_LETTERS",
    "FamilyTooLong",
    "parse_braid_word",
    "free_reduce",
    "cyclic_reduce",
    "writhe",
    "closure_components",
    "mirror",
    "conjugate",
    "stabilize",
    "garside_normal_form",
    "canonical_closure_key",
    "reduce_handles",
    "scan_word",
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
    """Invalid input: a malformed braid word or diagram, or an inconsistent
    request.  The CLI exits 2 on it."""


class PreconditionFailed(BraidError):
    """Well-formed input that an engine refuses: over a budget, or outside
    the domain of the invariant asked for.  The CLI exits 3 on it."""


class NotDestabilizable(BraidError):
    """The cyclically reduced word does not hold its top generator
    sigma_{n-1}^{+-1} exactly once."""


# Most strands a parsed braid word may have.  Per-strand work is linear or
# worse in the strand count; every family and claim uses at most 7 strands.
MAX_STRANDS = 1000


class TooManyStrands(PreconditionFailed):
    """The braid word would have more than ``MAX_STRANDS`` strands."""


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
    if strands > MAX_STRANDS:
        raise TooManyStrands(
            f"the braid has {strands} strands, over the budget of {MAX_STRANDS}"
        )
    letters = []
    for token in text.split():
        try:
            e = int(token)
        except ValueError:
            raise BraidError(f"non-integer token {token!r}") from None
        letters.append(e)
    return BraidWord(strands, tuple(letters))


def _free_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for e in letters:
        if out and out[-1] == -e:
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def _cyclic_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    # The inner part of a freely reduced word is freely reduced, so one pass
    # stripping matching ends finishes the job.
    letters = _free_reduce(letters)
    k = 0
    while 2 * k + 2 <= len(letters) and letters[k] == -letters[-1 - k]:
        k += 1
    return letters[k:len(letters) - k]


def free_reduce(w: BraidWord) -> BraidWord:
    """Delete adjacent inverse pairs e, -e until none remain."""
    return w.with_letters(_free_reduce(w.letters))


def cyclic_reduce(w: BraidWord) -> BraidWord:
    """Free reduction that also cancels across the closure seam."""
    return w.with_letters(_cyclic_reduce(w.letters))


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


def _tau(p: Perm) -> Perm:
    """Conjugation by the half twist: flip the one-line notation."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def closure_components(w: BraidWord) -> int:
    """Number of components of the braid closure: the cycles of the
    permutation the word induces, built by one swap per letter."""
    p = list(range(w.strands))
    for e in w.letters:
        i = abs(e)
        p[i - 1], p[i] = p[i], p[i - 1]
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
    i = 0
    while i < len(q) - 1:
        if q[i] > q[i + 1]:
            word.append(i + 1)
            q[i], q[i + 1] = q[i + 1], q[i]
            # q[:i] is still increasing, so the next descent is at i - 1 or
            # later: the same letters as rescanning from 0.
            i = max(i - 1, 0)
        else:
            i += 1
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


def _weigh(a: Perm, b: Perm) -> tuple[Perm, Perm] | None:
    """The left-weighted pair of simple elements with product a b, or None
    if (a, b) is left-weighted already.

    sigma_{i+1} moves from the front of b to the end of a while it starts b
    and does not finish a, that is while b[i] > b[i+1] and
    a^{-1}[i] < a^{-1}[i+1]; a move swaps positions i and i+1 of both.
    """
    a_inv = list(_perm_inv(a))
    b = list(b)
    last = len(b) - 1
    moved = False
    i = 0
    while i < last:
        if b[i] > b[i + 1] and a_inv[i] < a_inv[i + 1]:
            b[i], b[i + 1] = b[i + 1], b[i]
            a_inv[i], a_inv[i + 1] = a_inv[i + 1], a_inv[i]
            moved = True
            # Only the pairs next to i can have become movable.
            i = max(i - 1, 0)
        else:
            i += 1
    return (_perm_inv(a_inv), tuple(b)) if moved else None


def garside_normal_form(w: BraidWord) -> GarsideNormalForm:
    """Unique left-greedy normal form of the braid element of w.

    Starting from the identity, the normal form is right-multiplied by the
    simple element of each letter in turn (Elrifai and Morton, 1994): one
    right-to-left pass of pair normalisations, stopping at the first pair
    already left-weighted, keeps the factors left-weighted.  An inverse
    letter uses x sigma_i^{-1} = Delta^{-1} tau(x) (Delta sigma_i^{-1}): the
    infimum drops by one, every factor is conjugated by the half twist, and
    the simple element Delta sigma_i^{-1} is appended.
    """
    n = w.strands
    identity = _identity(n)
    delta = _half_twist(n)
    infimum = 0
    factors: list[Perm] = []
    for e in w.letters:
        s = _transposition(n, abs(e))
        if e < 0:
            infimum -= 1
            factors = [_tau(f) for f in factors]
            s = _perm_mul(delta, s)
        factors.append(s)
        for k in range(len(factors) - 2, -1, -1):
            pair = _weigh(factors[k], factors[k + 1])
            if pair is None:
                break
            factors[k], factors[k + 1] = pair
        if factors[-1] == identity:
            factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead] == delta:
        lead += 1
    return GarsideNormalForm(n, infimum + lead, tuple(factors[lead:]))


def _least_rotation(letters: tuple[int, ...]) -> int:
    """Start of the lexicographically least cyclic rotation, in O(L).  Every
    start below j but the candidate i is ruled out.  The rotations at i and j
    are compared letter by letter, and a mismatch k letters in rules out the
    k + 1 starts from the larger one's, so i + j grows by k + 1 or more."""
    n, doubled = len(letters), letters + letters
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(i + k, j) + 1
        else:
            j += k + 1
        k = 0
    return i


def _closure_key(n: int, letters: tuple[int, ...]) -> tuple:
    """``canonical_closure_key`` of the word ``letters`` on ``n`` strands."""
    letters = _cyclic_reduce(letters)
    while found := _drop_single_top(n, letters):
        letters = _cyclic_reduce(found[0])
        n -= 1
    s = _least_rotation(letters)
    return (n, letters[s:] + letters[:s])


def canonical_closure_key(w: BraidWord) -> tuple:
    """Word-level cache key for the closure of w, stable under Markov moves.

    The word is cyclically reduced; then, while it has more than one strand
    and sigma_{n-1}^{+-1} occurs in it exactly once, that letter is deleted,
    the strand count drops to n - 1 and the word is cyclically reduced again.
    The key is the final strand count and the least cyclic rotation of the
    final word, found in linear time by a two-index scan.

    Equal keys imply isotopic oriented closures.  Conjugating w by any word
    and cyclically reducing gives a rotation of ``cyclic_reduce(w)``, so
    rotations and conjugates share a key.  A deletion is a Markov
    destabilization: u sigma_{n-1}^{+-1} v on n strands is conjugate to
    v u sigma_{n-1}^{+-1}, the stabilization of v u, whose closure is that of
    v u on n - 1 strands.  The letter counts of a cyclically reduced word are
    the same in every rotation, so the rule commutes with conjugation, and
    the key of a stabilization w sigma_n^{+-1} first deletes the new letter,
    then goes on as the key of w does.  Words equal only through braid
    relations (``1 2 1`` and ``2 1 2``), or destabilizable only after such
    relations, get distinct keys, which costs cache hits, never correctness.
    """
    return _closure_key(w.strands, w.letters)


# ---------------------------------------------------------------------------
# Shorter words for the Khovanov scan, whose cost grows with the crossings

# reduce_handles gives up once its word is longer than HANDLE_GROWTH times
# the freely reduced input, or once it has examined HANDLE_WORK letters per
# input letter.
HANDLE_GROWTH = 2
HANDLE_WORK = 16
# Most candidate words that scan_word normalises by the closure-key rule.
SCAN_CANDIDATES = 20


def _sign(e: int) -> int:
    return 1 if e > 0 else -1


def _reduced_handle(opener: int, interior: list[int]) -> list[int]:
    """A word equal to the handle sigma_i^e u sigma_i^-e, where ``opener``
    is the letter e i and u is a word in sigma_{i+1}, ..., sigma_{n-1}:
    conjugation by sigma_i^e turns each sigma_{i+1}^d of u into
    sigma_{i+1}^-e sigma_i^d sigma_{i+1}^e and commutes with the rest."""
    i, e = abs(opener), _sign(opener)
    out: list[int] = []
    for x in interior:
        for y in ((-e * (i + 1), _sign(x) * i, e * (i + 1))
                  if abs(x) == i + 1 else (x,)):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return out


def reduce_handles(letters: tuple[int, ...]) -> tuple[int, ...]:
    """A word for the same braid, never longer than the free reduction of
    ``letters``, by Dehornoy handle reduction.

    A sigma_i-handle is a subword sigma_i^e u sigma_i^-e in which u has only
    letters sigma_j^{+-1} with j > i (P. Dehornoy, "A fast method for
    comparing braids", Adv. Math. 125, 1997).  The handle whose closing
    letter comes first is reduced each time, so it holds no other handle
    and is permitted.  One scan from the left keeps, before each position,
    the letters that could still open a handle; after a reduction it
    resumes where the handle began.  If the word grows past
    ``HANDLE_GROWTH`` times its start length, or the scan has examined
    ``HANDLE_WORK`` letters per start letter, or the final word is longer,
    the free reduction of ``letters`` is returned.
    """
    start = _free_reduce(letters)
    word = list(start)
    ceiling = HANDLE_GROWTH * len(start)
    budget = HANDLE_WORK * len(start)
    # openers[p]: the possible openers before position p, as a linked list
    # (position, rest) whose generator indices fall from the head outwards.
    openers: list = [None]
    p = 0
    while p < len(word):
        budget -= 1
        if budget < 0 or len(word) > ceiling:
            return start
        e = word[p]
        top = openers[p]
        while top is not None and abs(word[top[0]]) > abs(e):
            top = top[1]
        if top is not None and abs(word[top[0]]) == abs(e):
            s = top[0]
            if word[s] == -e:
                word[s:p + 1] = _reduced_handle(word[s], word[s + 1:p])
                del openers[s + 1:]
                p = s
                continue
            top = top[1]
        openers.append((p, top))
        p += 1
    return tuple(word) if len(word) <= len(start) else start


def _cyclic_handle_reduce(letters: tuple[int, ...]) -> tuple[int, ...]:
    """``reduce_handles`` of one rotation of a cyclically reduced word.

    Let m be the lowest generator present.  Every sigma_j-handle with j > m
    lies between two cyclically consecutive sigma_m^{+-1}, so the rotation
    ends with a sigma_m^e whose successor sigma_m^{+-1} is sigma_m^e too,
    which no handle crosses; if there is none, with the last sigma_m^{+-1},
    which only the sigma_m-handle closing at the first one crosses.
    """
    if not letters:
        return letters
    m = min(abs(e) for e in letters)
    at = [k for k, e in enumerate(letters) if abs(e) == m]
    end = next((k for k, k_next in zip(at, at[1:] + at[:1])
                if letters[k] == letters[k_next]), at[-1])
    return _cyclic_reduce(reduce_handles(letters[end + 1:] + letters[:end + 1]))


def _relation_moves(letters: tuple[int, ...]):
    """The cyclic words one length-3 relation away from ``letters``, in the
    order of the position where the relation applies.

    For |a - b| = 1 the relations are sigma_a sigma_b sigma_a =
    sigma_b sigma_a sigma_b, with its inverse, and
    sigma_a^e sigma_b^f sigma_a^-e = sigma_b^-e sigma_a^f sigma_b^e.
    """
    size = len(letters)
    if size < 3:
        return
    for p in range(size):
        x, y, z = letters[p], letters[(p + 1) % size], letters[(p + 2) % size]
        if abs(abs(x) - abs(y)) != 1:
            continue
        if x == z and _sign(x) == _sign(y):
            new = (y, x, y)
        elif x == -z:
            new = (-_sign(x) * abs(y), _sign(y) * abs(x), _sign(x) * abs(y))
        else:
            continue
        yield new + (letters[p:] + letters[:p])[3:]


def scan_word(key_word: BraidWord) -> BraidWord:
    """The shortest word found for the closure of ``key_word``, as a key word.

    A best-first search over cyclic words with the same closure, from the
    closure key of ``key_word``.  A word's neighbours are its cyclic handle
    reduction and its ``_relation_moves``; each is normalised by the key
    rule, which also destabilizes, and at most ``SCAN_CANDIDATES`` are, so
    the cost is linear in the word length.  A word replaces the best one
    found only if it is shorter, or as long on fewer strands.  Only the
    closure is kept, not which strand closes to which component, so this is
    for knots.
    """
    start = _closure_key(key_word.strands, key_word.letters)
    best, seen = start, {start}
    frontier = [(len(start[1]), start)]
    budget = SCAN_CANDIDATES
    while frontier and budget:
        n, letters = heapq.heappop(frontier)[1]
        neighbours = itertools.chain([_cyclic_handle_reduce(letters)],
                                     _relation_moves(letters))
        for word in itertools.islice(neighbours, budget):
            budget -= 1
            key = _closure_key(n, word)
            if key not in seen:
                seen.add(key)
                heapq.heappush(frontier, (len(key[1]), key))
                if (len(key[1]), key[0]) < (len(best[1]), best[0]):
                    best = key
    return BraidWord(*best)


# ---------------------------------------------------------------------------
# Markov destabilization


def _drop_single_top(n: int, letters: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """``letters`` without its only sigma_{n-1}^{+-1}, and that letter's
    sign; None unless there is exactly one."""
    top = n - 1
    if letters.count(top) + letters.count(-top) != 1:
        return None
    k = letters.index(top if top in letters else -top)
    return letters[:k] + letters[k + 1:], _sign(letters[k])


def destabilize(w: BraidWord) -> tuple[BraidWord, int]:
    """Remove one strand by a Markov destabilization: the (n-1)-strand word
    and the sign of the removed crossing.

    The word is cyclically reduced and its only sigma_{n-1}^{+-1} is
    dropped, the move ``canonical_closure_key`` makes.  A word that does not
    hold exactly one raises ``NotDestabilizable``; no conjugate or braid
    relation is tried.
    """
    found = _drop_single_top(w.strands, _cyclic_reduce(w.letters))
    if not found:
        raise NotDestabilizable("the cyclically reduced word does not hold "
                                "its top generator exactly once")
    return BraidWord(w.strands - 1, found[0]), found[1]


# ---------------------------------------------------------------------------
# Braid families

RESOLUTION_LABELS = ("+", "-", "0", "0-", "00", "0--", "0-0")

# Most letters a family word may have, counted from the parameters before the
# word is built.  At the budget, ``family torus2 --q 1000000`` takes 0.3 s.
MAX_FAMILY_LETTERS = 1_000_000


class FamilyTooLong(PreconditionFailed):
    """The family word would have more than ``MAX_FAMILY_LETTERS`` letters."""


def _admit(letters: int) -> None:
    if letters > MAX_FAMILY_LETTERS:
        raise FamilyTooLong(f"the family word would have {letters} letters, over "
                            f"the budget of {MAX_FAMILY_LETTERS}")


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
    _admit(10 * k + 2)
    letters = (1, 2, 2, 1) * (2 * k) + (1,) + _power(2, -(2 * k + 1))
    return BraidWord(3, letters)


def elrifai_l_word(k: int) -> BraidWord:
    """(s1 s2 s2 s1)^{2k+1} s1 s2^{-2k+1} on three strands."""
    if k < 1:
        raise BraidError("elrifai-l requires k >= 1")
    _admit(10 * k + 4)
    letters = (1, 2, 2, 1) * (2 * k + 1) + (1,) + _power(2, -2 * k + 1)
    return BraidWord(3, letters)


def bm_word(x: int, y: int, z: int, w: int) -> BraidWord:
    """s1^x s2^y s3^{-1} s2^z s1^w s2 s3 s2 s2 s3 on four strands."""
    _admit(abs(x) + abs(y) + abs(z) + abs(w) + 6)
    letters = _power(1, x) + _power(2, y) + (-3,) + _power(2, z) + _power(1, w)
    return BraidWord(4, letters + (2, 3, 2, 2, 3))


def torus2_word(q: int) -> BraidWord:
    """s1^q on two strands: the (2, q) torus closure."""
    _admit(abs(q))
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
