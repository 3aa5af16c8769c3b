import importlib
import operator
import random
import sys
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotbound.braid import (
    BraidWord,
    conjugate,
    elrifai_k_word,
    elrifai_l_word,
    mirror,
    resolution_word,
    stabilize,
    torus2_word,
)
from knotbound.braid import writhe
from knotbound.homfly import TooWide, _unpack, homfly
from knotbound.laurent import LaurentPoly2, a_degree_range, to_aq
from knotbound.verify import (
    HOMFLY_DOUBLE,
    HOMFLY_MAIN,
    HOMFLY_SMOOTHED,
    HOMFLY_SWITCHED,
)
from conftest import scale

A = LaurentPoly2.monomial(1, 0)
A_INV = LaurentPoly2.monomial(-1, 0)
Z = LaurentPoly2.monomial(0, 1)
DELTA = LaurentPoly2.from_dict({(1, -1): 1, (-1, -1): -1})


def skein_triple(w: BraidWord, pos: int):
    e = abs(w.letters[pos])
    head, tail = w.letters[:pos], w.letters[pos + 1:]
    return (
        w.with_letters(head + (e,) + tail),
        w.with_letters(head + (-e,) + tail),
        w.with_letters(head + tail),
    )


def test_unknot_is_one():
    assert homfly(BraidWord(2, (1,))) == LaurentPoly2.one()
    assert homfly(BraidWord(1, ())) == LaurentPoly2.one()


def test_two_component_unlink_is_delta():
    assert homfly(BraidWord(2, ())) == DELTA


def test_trefoil_by_hand_skein_tree():
    # Independent three-line evaluation: switching one trefoil crossing gives
    # the unknot, smoothing gives the positive Hopf link, which resolves to
    # the two-component unlink in one more step.
    a2 = LaurentPoly2.monomial(2, 0)
    az = LaurentPoly2.monomial(1, 1)
    hopf = a2 * DELTA - az * LaurentPoly2.one()
    trefoil_expected = a2 * LaurentPoly2.one() - az * hopf
    assert homfly(BraidWord(2, (1, 1))) == hopf
    assert homfly(BraidWord(2, (1, 1, 1))) == trefoil_expected
    assert to_aq(trefoil_expected).as_dict() == {(4, 0): -1, (2, 2): 1, (2, -2): 1}


def test_main_knot_polynomial():
    assert to_aq(homfly(elrifai_k_word(1))) == HOMFLY_MAIN


def test_resolution_block_polynomials():
    assert to_aq(homfly(resolution_word("-"))) == HOMFLY_SWITCHED
    assert to_aq(homfly(resolution_word("0"))) == HOMFLY_SMOOTHED
    assert to_aq(homfly(resolution_word("0-"))) == HOMFLY_DOUBLE


def test_skein_relation_random_sites():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5])
        gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
        letters = [rng.choice(gens) for _ in range(rng.randint(1, 8))]
        w = BraidWord(n, tuple(letters))
        pos = rng.randrange(len(letters))
        w_plus, w_minus, w_zero = skein_triple(w, pos)
        resid = A * homfly(w_minus) - A_INV * homfly(w_plus) - Z * homfly(w_zero)
        assert resid.is_zero()


def test_markov_invariance():
    rng = random.Random(22)
    for _ in range(15):
        n = rng.choice([2, 3, 4, 5])
        gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
        w = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(1, 8))))
        value = homfly(w)
        assert homfly(conjugate(w, BraidWord(n, (rng.choice(gens),)))) == value
        assert homfly(stabilize(w, 1)) == value
        assert homfly(stabilize(w, -1)) == value


def test_mirror_degree_rule():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.choice([2, 3])
        gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
        w = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(1, 7))))
        lo, hi = a_degree_range(homfly(w))
        assert a_degree_range(homfly(mirror(w))) == (-hi, -lo)


def test_torus_recurrence():
    a2 = LaurentPoly2.monomial(2, 0)
    az = LaurentPoly2.monomial(1, 1)
    for n in range(2, 12):
        assert homfly(torus2_word(n)) == a2 * homfly(torus2_word(n - 2)) - az * homfly(
            torus2_word(n - 1)
        )


def test_long_word_needs_no_recursion_limit(monkeypatch):
    def refuse(limit):
        raise RuntimeError("homfly must not change the interpreter's recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    a2 = LaurentPoly2.monomial(2, 0)
    az = LaurentPoly2.monomial(1, 1)
    assert homfly(torus2_word(301)) == a2 * homfly(torus2_word(299)) - az * homfly(
        torus2_word(300)
    )


@pytest.mark.parametrize("k", range(1, 9))
def test_torus_coincidence(k):
    assert homfly(elrifai_k_word(k)) == homfly(torus2_word(6 * k + 1))
    assert homfly(elrifai_l_word(k)) == homfly(torus2_word(6 * k + 5))
    assert a_degree_range(homfly(elrifai_k_word(k))) == (6 * k, 6 * k + 2)
    assert a_degree_range(homfly(elrifai_l_word(k))) == (6 * k + 4, 6 * k + 6)


def test_clearing_exponent_tracks_components():
    from knotbound.braid import closure_components

    rng = random.Random(24)
    for _ in range(15):
        n = rng.choice([2, 3])
        gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
        w = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 7))))
        aq = to_aq(homfly(w))
        if closure_components(w) == 1:
            assert aq.clearing == 0
        else:
            assert aq.clearing >= 1


# --- the Hecke expansion on LaurentPoly2 coefficients, as an oracle ----------

def _oracle_add(vec, p, c):
    vec[p] = vec[p] + c if p in vec else c


def _oracle_times(vec, i, inverse=False):
    out = {}
    for p, c in vec.items():
        _oracle_add(out, p[:i - 1] + (p[i], p[i - 1]) + p[i + 1:], c)
        if (p[i - 1] < p[i]) == inverse:
            _oracle_add(out, p, scale(c, 0, 1, 1 if inverse else -1))
    return {p: c for p, c in out.items() if not c.is_zero()}


def _homfly_oracle(w):
    """Oracle: the same expansion and trace with every coefficient a
    ``LaurentPoly2``, nothing packed."""
    vec = {tuple(range(w.strands)): LaurentPoly2.one()}
    for e in w.letters:
        vec = _oracle_times(vec, abs(e), inverse=e < 0)
    for m in range(w.strands, 1, -1):
        closed = {}
        for p, c in vec.items():
            j = p.index(m - 1)
            rest = p[:j] + p[j + 1:]
            if j == m - 1:
                part = {rest: scale(c, 1, -1) - scale(c, -1, -1)}
            else:
                part = {rest: scale(c, -1, 0)}
                for i in range(m - 2, j, -1):
                    part = _oracle_times(part, i)
            for q, cq in part.items():
                _oracle_add(closed, q, cq)
        vec = closed
    return scale(vec[(0,)], writhe(w), 0)


@st.composite
def mixed_sign_words(draw):
    """Words on 1-6 strands, up to 16 letters: all positive, all inverse or mixed."""
    n = draw(st.integers(1, 6))
    if n == 1:
        return BraidWord(1, ())
    gen = st.integers(1, n - 1)
    letter = draw(st.sampled_from([gen, gen.map(operator.neg), gen | gen.map(operator.neg)]))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=16))))


def full_twist(n, sign=1):
    """Delta^2 on n strands (sign 1) or its inverse (sign -1)."""
    half = tuple(j for i in range(1, n) for j in range(i, 0, -1))
    return BraidWord(n, tuple(sign * e for e in half * 2))


@settings(max_examples=300, deadline=None)
@given(mixed_sign_words())
@example(BraidWord(4, ()))
@example(BraidWord(1, ()))
@example(BraidWord(5, (-4, -3, -2, -1, -1, -2, -3, -4, -2, -2)))
@example(BraidWord(6, (1, 2, 3, 4, 5) * 3 + (1,)))
# Long trace chains: terms that reach one permutation after different
# numbers of delta closings.
@example(full_twist(5))
@example(full_twist(5, -1))
@example(full_twist(6))
@example(full_twist(6, -1))
@example(BraidWord(6, (5, 4, 3, 2, 1)))
def test_homfly_matches_laurent_oracle(w):
    assert homfly(w) == _homfly_oracle(w)


def test_all_negative_words_match_oracle():
    for w in (BraidWord(2, (-1,) * 9), BraidWord(3, (-1, -2) * 6), mirror(elrifai_k_word(2))):
        assert homfly(w) == _homfly_oracle(w)


def test_long_two_strand_word_matches_oracle():
    # Binomial coefficients of over 200 bits, in digits of 303 bits.
    w = torus2_word(301)
    p = homfly(w)
    assert p == _homfly_oracle(w)
    assert max(abs(c) for _, c in p.terms).bit_length() > 200


def test_one_letter_on_1000_strands():
    # The closure is a 999-component unlink: delta^998.
    w = BraidWord(1000, (1,))
    p = homfly(w)
    assert p == _homfly_oracle(w)
    k = 998
    assert p == LaurentPoly2.from_dict(
        {(k - 2 * t, -k): (-1) ** t * comb(k, t) for t in range(k + 1)}
    )


def test_last_generator_on_1000_strands():
    # sigma_999 closes to a 999-component unlink after one a^-1 closing.
    w = BraidWord(1000, (999,))
    assert homfly(w) == _homfly_oracle(w) == homfly(BraidWord(1000, (1,)))


@pytest.mark.parametrize("width", [2, 3, 8, 64, 303])
def test_unpack_signed_digits_at_the_bound(width):
    top = (1 << (width - 1)) - 1
    for digits in ([top], [-top], [top, -top, 0, top], [-top, 0, -top, top], [0, 0, 1]):
        packed = sum(d << (width * k) for k, d in enumerate(digits))
        assert _unpack(packed, width) == {(0, k): d for k, d in enumerate(digits) if d}
    assert _unpack(0, width) == {}


def test_width_budget_boundary(monkeypatch):
    # The trefoil needs W = 3 + min(3, 1) + 2 = 6 bits per digit.
    trefoil = BraidWord(2, (1, 1, 1))
    module = importlib.import_module("knotbound.homfly")
    monkeypatch.setattr(module, "MAX_WIDTH", 6)
    assert homfly(trefoil) == _homfly_oracle(trefoil)

    def refuse(*args):
        raise AssertionError("the budget must be checked before the expansion")

    monkeypatch.setattr(module, "MAX_WIDTH", 5)
    monkeypatch.setattr(module, "_step", refuse)
    with pytest.raises(TooWide, match="needs digits of 6 bits, over the budget of 5"):
        homfly(trefoil)
