import itertools
import operator
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotbound import braid
from knotbound.braid import (
    SCAN_CANDIDATES,
    BraidError,
    BraidWord,
    FAMILIES,
    GarsideNormalForm,
    NotDestabilizable,
    QPFactorization,
    _half_twist,
    _identity,
    _least_rotation,
    _perm_inv,
    _perm_mul,
    _tau,
    _transposition,
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
    permutation_braid_word,
    qp_elrifai_k,
    qp_elrifai_l,
    reduce_handles,
    resolution_word,
    scan_word,
    stabilize,
    torus2_word,
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


def _starting_set(p):
    """Generators sigma_i left-dividing the permutation braid of p."""
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def _finishing_set(p):
    """Generators sigma_i right-dividing the permutation braid of p."""
    return _starting_set(_perm_inv(p))


def _left_weight(factors, n):
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


def _garside_fixpoint(w):
    """Oracle: one factor per letter, every Delta moved to the front by a
    tau-parity pass, then left-weighting sweeps until nothing changes."""
    n = w.strands
    ident = _identity(n)
    delta = _half_twist(n)
    factors = []
    powers = []
    for e in w.letters:
        t = _transposition(n, abs(e))
        if e > 0:
            factors.append(t)
            powers.append(0)
        else:
            factors.append(_perm_mul(delta, t))
            powers.append(-1)
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


@st.composite
def mixed_sign_words(draw):
    """Words on 1-6 strands, up to 30 letters: all positive, all inverse or mixed."""
    n = draw(st.integers(1, 6))
    if n == 1:
        return BraidWord(1, ())
    gen = st.integers(1, n - 1)
    letter = draw(st.sampled_from([gen, gen.map(operator.neg), gen | gen.map(operator.neg)]))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=30))))


@settings(max_examples=300, deadline=None)
@given(mixed_sign_words())
@example(BraidWord(4, ()))
@example(BraidWord(3, (-1, -2, -1, -2, -2, -1)))
@example(BraidWord(5, (-4, -3, -2, -1) * 3))
# -1, then the inverse of the permutation braid 2 1: infimum -2.
@example(BraidWord(3, (-1, -1, -2)))
# A half twist times sigma_1, then the permutation braid 1 3 2: infimum 1,
# with factors after the half twist.
@example(BraidWord(4, (1, 2, 1, 3, 2, 1, 1, 1, 3, 2)))
def test_garside_matches_fixpoint_oracle(w):
    assert garside_normal_form(w) == _garside_fixpoint(w)


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


@given(word_conjugator_shift(), st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_canonical_key_stabilization_invariance(case, sign, sign2):
    w, c, _ = case
    key = canonical_closure_key(w)
    ws = stabilize(w, sign)
    assert canonical_closure_key(ws) == key
    assert canonical_closure_key(stabilize(ws, sign2)) == key
    # A conjugate of the stabilization, by a word that may use the new generator.
    c_up = BraidWord(ws.strands, c.letters + (sign2 * w.strands,))
    assert canonical_closure_key(conjugate(ws, c_up)) == key


@pytest.mark.parametrize("text, strands, key", [
    ("1", 2, (1, ())),
    ("1 2 3 -2", 4, (3, (1,))),
    ("2 1 -2", 3, (3, (1,))),  # a conjugate of 1 on 3 strands, not destabilized
    ("1 2 2", 3, (3, (1, 2, 2))),  # top generator twice
    ("1 1", 3, (3, (1, 1))),  # top generator absent
    ("2 -2 1 2", 3, (1, ())),  # reduction first: 1 2 destabilizes twice
    ("", 3, (3, ())),
])
def test_canonical_key_destabilizes(text, strands, key):
    assert canonical_closure_key(parse_braid_word(text, strands)) == key


def _least_rotation_by_min(letters):
    """Oracle: the least of all cyclic rotations, quadratic in the length."""
    return min((letters[s:] + letters[:s] for s in range(len(letters))), default=())


@settings(max_examples=300)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=16)
       | st.lists(st.sampled_from([1, 2]), max_size=16))
@example([1, 2, 1, 2, 1, 2])
@example([2, 1, 1, 2, 1, 1, 2, 1])
def test_least_rotation_matches_min_oracle(letters):
    letters = tuple(letters)
    s = _least_rotation(letters)
    assert letters[s:] + letters[:s] == _least_rotation_by_min(letters)


@st.composite
def words_on_2_to_5_strands(draw, max_letters=16):
    n = draw(st.integers(2, 5))
    gens = [s * g for g in range(1, n) for s in (1, -1)]
    return BraidWord(n, tuple(draw(st.lists(st.sampled_from(gens), max_size=max_letters))))


@settings(max_examples=200, deadline=None)
@given(words_on_2_to_5_strands())
@example(parse_braid_word("1 2 2 1 1 2 -2 1 -2 -2 -2", 3))
@example(parse_braid_word("-1 2 1 2 -1 2 1 2", 3))
def test_reduce_handles_keeps_the_braid(w):
    reduced = w.with_letters(reduce_handles(w.letters))
    assert garside_normal_form(reduced) == garside_normal_form(w)
    assert len(reduced) <= len(free_reduce(w))


@pytest.mark.parametrize("text, strands, reduced", [
    ("1 2 -1", 3, (-2, 1, 2)),  # one handle, as long as the word
    ("1 -2 2 -1", 3, ()),  # free reduction is handle reduction
    ("-1 2 1 2 -1 2 1 2", 3, (2, 2, 1, 2)),
    ("2 1 1 -2", 3, (2, 1, 1, -2)),  # sigma_1 inside: not a sigma_2-handle
    # Reduced to -2 1 -3 2 3 1 2, which is longer: the input comes back.
    ("1 2 3 2 -1", 4, (1, 2, 3, 2, -1)),
])
def test_reduce_handles_examples(text, strands, reduced):
    assert reduce_handles(parse_braid_word(text, strands).letters) == reduced


def test_reduce_handles_gives_up_past_its_work_budget(monkeypatch):
    monkeypatch.setattr(braid, "HANDLE_WORK", 1)
    # Three letters examined, then the handle sends the scan back.
    assert reduce_handles((1, 2, -1)) == (1, 2, -1)


def test_scan_word_normalises_a_bounded_number_of_words(monkeypatch):
    calls = []
    key = braid._closure_key

    def counting(n, letters):
        calls.append(len(letters))
        return key(n, letters)

    monkeypatch.setattr(braid, "_closure_key", counting)
    rng = random.Random(2000)
    while True:
        long_knot = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(2000)))
        if closure_components(long_knot) == 1:
            break
    for w in (torus2_word(1597), long_knot):
        calls.clear()
        scanned = scan_word(w)
        # The start's key, then at most SCAN_CANDIDATES words, none longer
        # than the start: the search's work is linear in the word length.
        assert len(calls) <= SCAN_CANDIDATES + 1
        assert max(calls) <= len(w)
        assert len(scanned) <= calls[0]
    assert len(scanned) < len(canonical_closure_key(long_knot)[1])


def _permutation_word_by_rescans(p):
    """Oracle: swap the first descent, then rescan from position 0."""
    word = []
    q = list(p)
    done = False
    while not done:
        done = True
        for i in range(len(q) - 1):
            if q[i] > q[i + 1]:
                word.append(i + 1)
                q[i], q[i + 1] = q[i + 1], q[i]
                done = False
                break
    return tuple(word)


def test_permutation_word_matches_rescan_oracle():
    for n in range(1, 7):
        for p in itertools.permutations(range(n)):
            assert permutation_braid_word(p) == _permutation_word_by_rescans(p)


# --- destabilization ---------------------------------------------------------

@st.composite
def destabilization_inputs(draw):
    """Stabilized-then-conjugated words, and unstabilized words, on 2-4 strands."""
    n = draw(st.integers(2, 4))

    def words(m, size):
        gens = [s * g for g in range(1, m) for s in (1, -1)]
        return st.lists(st.sampled_from(gens), max_size=size) if gens else st.just([])

    if draw(st.booleans()):
        return BraidWord(n, tuple(draw(words(n, 10))))
    base = BraidWord(n - 1, tuple(draw(words(n - 1, 8))))
    w = stabilize(base, draw(st.sampled_from([1, -1])))
    return conjugate(w, BraidWord(n, tuple(draw(words(n, 3)))))


@settings(max_examples=200, deadline=None)
@given(destabilization_inputs())
# u sigma_3 v where v u cancels across the seam.
@example(BraidWord(4, (1, 3, 2, -1)))
# Each drop leaves a single top generator for the next.
@example(BraidWord(4, (2, 1, 3)))
def test_key_of_a_single_top_word_is_the_key_of_its_destabilization(w):
    top = w.strands - 1
    assume(sum(abs(e) == top for e in cyclic_reduce(w).letters) == 1)
    assert canonical_closure_key(w) == canonical_closure_key(destabilize(w)[0])


def test_destabilize_simple():
    w, sign = destabilize(BraidWord(3, (1, 2)))
    assert w.strands == 2 and w.letters == (1,) and sign == 1
    assert destabilize(BraidWord(9, (8, 1, 2))) == (BraidWord(8, (1, 2)), 1)


def test_destabilize_negative_sign():
    w, sign = destabilize(BraidWord(3, (1, -2)))
    assert w.letters == (1,) and sign == -1


def test_destabilize_not_possible():
    with pytest.raises(NotDestabilizable):
        destabilize(BraidWord(2, (1, 1)))
    # Destabilizable only after a conjugation, which the move does not try.
    with pytest.raises(NotDestabilizable):
        destabilize(bm_minus_word(1, 1, 1, 1))


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
