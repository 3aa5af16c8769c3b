import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotbound.braid import (
    BraidError,
    BraidWord,
    FAMILIES,
    NotDestabilizable,
    QPFactorization,
    bm_minus_word,
    bm_word,
    canonical_closure_key,
    closure_components,
    conjugate,
    cyclic_reduce,
    destabilize,
    elrifai_k_word,
    elrifai_l_word,
    expand_qp,
    free_reduce,
    g4_from_qp,
    garside_normal_form,
    mirror,
    parse_braid_word,
    qp_elrifai_k,
    qp_elrifai_l,
    resolution_word,
    stabilize,
    writhe,
)

letters_3 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10)
letters_4 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=9)


def word3(letters):
    return BraidWord(3, tuple(letters))


# --- parsing -----------------------------------------------------------------

def test_parse_basic():
    assert parse_braid_word("1 2 -2", 3).letters == (1, 2, -2)


def test_parse_out_of_range():
    with pytest.raises(BraidError):
        parse_braid_word("3", 3)


def test_parse_empty():
    w = parse_braid_word("", 2)
    assert w.letters == () and w.strands == 2


def test_parse_non_integer():
    with pytest.raises(BraidError):
        parse_braid_word("1 x", 3)


def test_bad_strand_count():
    with pytest.raises(BraidError):
        parse_braid_word("1", 0)


# --- free reduction ----------------------------------------------------------

def test_free_reduce_single_cancellation():
    assert free_reduce(word3([2, -2, 1])).letters == (1,)


def test_free_reduce_resolution_word():
    w = word3([1, 2, 2, 1, 1, 2, -2, 1, -2, -2, -2])
    assert free_reduce(w).letters == (1, 2, 2, 1, 1, 1, -2, -2, -2)


def test_free_reduce_fixed_point():
    assert free_reduce(word3([1, 2])).letters == (1, 2)


@given(letters_3)
def test_free_reduce_idempotent_and_parity(letters):
    w = word3(letters)
    r = free_reduce(w)
    assert free_reduce(r) == r
    assert len(r) <= len(w)
    assert (len(w) - len(r)) % 2 == 0


# --- writhe and components ---------------------------------------------------

def test_writhe_values():
    assert writhe(elrifai_k_word(1)) == 6
    assert writhe(BraidWord(2, ())) == 0
    assert writhe(bm_word(1, 1, 1, 1)) == 8


def test_closure_components():
    assert closure_components(BraidWord(2, ())) == 2
    assert closure_components(BraidWord(2, (1,))) == 1
    assert closure_components(word3([1, 2, 2, 1, 1, 2, 2, 1, -2, -2, -2])) == 2


@given(letters_3, st.integers(0, 9), st.sampled_from([1, -1, 2, -2]))
def test_components_invariant_under_moves(letters, shift, g):
    w = word3(letters)
    c = closure_components(w)
    assert closure_components(free_reduce(w)) == c
    if letters:
        k = shift % len(letters)
        rotated = word3(letters[k:] + letters[:k])
        assert closure_components(rotated) == c
    assert closure_components(conjugate(w, BraidWord(3, (g,)))) == c


# --- Garside normal form -----------------------------------------------------

def test_garside_braid_relation():
    assert garside_normal_form(word3([1, 2, 1])) == garside_normal_form(word3([2, 1, 2]))


def test_garside_distinguishes():
    assert garside_normal_form(word3([1, 2])) != garside_normal_form(word3([2, 1]))


def test_garside_full_twist_central():
    rng = random.Random(0)
    twist = (1, 2, 1, 1, 2, 1)
    for _ in range(15):
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 8)))
        left = garside_normal_form(BraidWord(3, twist + letters))
        right = garside_normal_form(BraidWord(3, letters + twist))
        assert left == right


@settings(max_examples=60, deadline=None)
@given(letters_4, st.integers(0, 8), st.sampled_from([1, 2]), st.booleans())
def test_garside_relation_insertion(letters, pos_seed, i, far):
    pos = pos_seed % (len(letters) + 1)
    if far:
        one = letters[:pos] + [1, 3] + letters[pos:]
        two = letters[:pos] + [3, 1] + letters[pos:]
    else:
        one = letters[:pos] + [i, i + 1, i] + letters[pos:]
        two = letters[:pos] + [i + 1, i, i + 1] + letters[pos:]
    assert garside_normal_form(BraidWord(4, tuple(one))) == garside_normal_form(
        BraidWord(4, tuple(two))
    )


@given(letters_4)
def test_garside_inverse_word(letters):
    inv = tuple(-e for e in reversed(letters))
    nf = garside_normal_form(BraidWord(4, tuple(letters) + inv))
    assert nf == garside_normal_form(BraidWord(4, ()))


@st.composite
def word_conjugator_shift(draw):
    n = draw(st.integers(2, 4))
    gens = st.sampled_from([s * g for g in range(1, n) for s in (1, -1)])
    w = BraidWord(n, tuple(draw(st.lists(gens, max_size=10))))
    c = BraidWord(n, tuple(draw(st.lists(gens, max_size=3))))
    return w, c, draw(st.integers(0, 9))


@given(word_conjugator_shift())
def test_canonical_key_conjugation_invariance(case):
    w, c, shift = case
    key = canonical_closure_key(w)
    k = shift % max(1, len(w))
    assert canonical_closure_key(w.with_letters(w.letters[k:] + w.letters[:k])) == key
    assert canonical_closure_key(conjugate(w, c)) == key


# --- destabilization ---------------------------------------------------------

def test_destabilize_simple():
    w, sign = destabilize(BraidWord(3, (1, 2)))
    assert w.strands == 2 and w.letters == (1,) and sign == 1


def test_destabilize_negative_sign():
    w, sign = destabilize(BraidWord(3, (1, -2)))
    assert w.letters == (1,) and sign == -1


def test_destabilize_not_possible():
    with pytest.raises(NotDestabilizable):
        destabilize(BraidWord(2, (1, 1)))


def test_destabilize_bm_word():
    # requires a conjugation before the top generator occurs exactly once
    from knotbound.homfly import homfly

    w = bm_minus_word(1, 1, 1, 1)
    reduced, sign = destabilize(w)
    assert reduced.strands == 3 and sign == 1
    assert homfly(reduced) == homfly(w)


def test_destabilize_restabilize_roundtrip():
    from knotbound.homfly import homfly
    from knotbound.khovanov import braid_to_pd, reduced_khovanov

    w = BraidWord(3, (1, 2, 1, 1))
    reduced, sign = destabilize(w)
    restacked = stabilize(reduced, sign)
    assert homfly(restacked) == homfly(w)
    assert reduced_khovanov(braid_to_pd(restacked)) == reduced_khovanov(braid_to_pd(w))


# --- families ----------------------------------------------------------------

def family(kind, **params):
    build, names = FAMILIES[kind]
    assert set(params) == set(names)
    return build(*(params[n] for n in names))


def test_family_elrifai_k1():
    assert family("elrifai-k", k=1).letters == (
        1, 2, 2, 1, 1, 2, 2, 1, 1, -2, -2, -2,
    )


def test_family_torus2():
    w = family("torus2", q=3)
    assert w.strands == 2 and w.letters == (1, 1, 1)


def test_family_bm():
    w = family("bm", x=1, y=1, z=1, w=1)
    assert w.strands == 4 and w.letters == (1, 2, -3, 2, 1, 2, 3, 2, 2, 3)


def test_family_shapes():
    for k in (1, 2, 3):
        assert writhe(elrifai_k_word(k)) == 6 * k
        assert elrifai_k_word(k).strands == 3
        assert writhe(elrifai_l_word(k)) == 6 * k + 6
        assert elrifai_l_word(k).strands == 3
    for tup in [(1, 1, 1, 1), (2, 3, 1, 2)]:
        assert writhe(bm_word(*tup)) == sum(tup) + 4


def test_family_validation():
    with pytest.raises(BraidError):
        elrifai_k_word(0)
    with pytest.raises(BraidError):
        resolution_word("0+")


def test_resolution_words_match_family():
    assert resolution_word("+") == elrifai_k_word(1)
    assert len(resolution_word("0-").letters) == 11
    assert resolution_word("0--").letters == (1, 2, -2, 1, 1, 1, -2, -2, -2)


# --- quasipositive factorizations ---------------------------------------------

def test_expand_qp_single_factor():
    f = QPFactorization(3, (((2,), 1),))
    assert expand_qp(f).letters == (2, 1, -2)


def test_expand_qp_empty():
    assert expand_qp(QPFactorization(3, ())).letters == ()


def test_expand_qp_elrifai_matches_quasipositive_diagram():
    # literal expansion: 2bar (1 2 2 1 2bar)^2 1
    assert expand_qp(qp_elrifai_k(1)).letters == (
        -2, 1, 2, 2, 1, -2, 1, 2, 2, 1, -2, 1,
    )
    assert expand_qp(qp_elrifai_l(1)).letters == (
        1, 2, 2, 1, -2, 1, 2, 2, 1, 1, 2, 2, 1, 1,
    )


def test_expand_qp_closure_identification():
    from knotbound.homfly import homfly

    assert homfly(expand_qp(qp_elrifai_k(1))) == homfly(elrifai_k_word(1))
    assert homfly(expand_qp(qp_elrifai_l(1))) == homfly(elrifai_l_word(1))


def test_g4_from_qp():
    assert g4_from_qp(qp_elrifai_k(1)) == 4
    assert g4_from_qp(qp_elrifai_l(1)) == 10
    assert g4_from_qp(QPFactorization(1, ())) == 0


def test_expand_qp_writhe_is_factor_count():
    for f in (qp_elrifai_k(1), qp_elrifai_k(2), qp_elrifai_l(1)):
        assert writhe(expand_qp(f)) == len(f.factors)


def test_qp_validation():
    with pytest.raises(BraidError):
        QPFactorization(3, (((1,), 5),))


# --- misc helpers --------------------------------------------------------------

def test_mirror_and_cyclic_reduce():
    w = word3([1, -2, 1])
    assert mirror(w).letters == (-1, 2, -1)
    assert cyclic_reduce(word3([2, 1, -2])).letters == (1,)


def test_invalid_letter_rejected():
    with pytest.raises(BraidError):
        BraidWord(3, (0,))
    with pytest.raises(BraidError):
        BraidWord(2, (2,))
