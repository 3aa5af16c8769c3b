import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotbound import seifert
from knotbound.braid import (
    BraidWord,
    EngineInconsistency,
    conjugate,
    elrifai_k_word,
    mirror,
    resolution_word,
    stabilize,
)
from knotbound.homfly import homfly
from knotbound.laurent import LaurentPoly2
from knotbound.seifert import (
    DisconnectedSurface,
    NotAKnot,
    MAX_LOOPS,
    TooManyLoops,
    _ldl,
    alexander,
    determinant,
    seifert_matrix,
    signature,
)
from conftest import random_word, reciprocal


def test_trefoil_matrix_from_hand_built_surface():
    # Two disks joined by three positively twisted bands; the two loops
    # through consecutive band pairs give the standard genus-one matrix.
    data = seifert_matrix(BraidWord(2, (1, 1, 1)))
    assert data.matrix == ((-1, 1), (0, -1))
    assert _form(data.matrix) == [[-2, 1], [1, -2]]
    assert determinant(BraidWord(2, (1, 1, 1))) == 3


def test_matrix_sizes():
    assert seifert_matrix(BraidWord(2, (1,))).size == 0
    assert seifert_matrix(elrifai_k_word(1)).size == 10


def test_disconnected_surface_rejected():
    with pytest.raises(DisconnectedSurface):
        seifert_matrix(BraidWord(3, (1, 1)))


def test_signature_table():
    assert signature(resolution_word("-")) == 2
    assert signature(resolution_word("0")) == 1
    assert signature(resolution_word("+")) == 2
    assert signature(resolution_word("0-")) == 1
    assert signature(resolution_word("0--")) == 1
    assert signature(resolution_word("0-0")) == 0


def test_signature_calibration():
    assert signature(BraidWord(2, (1, 1, 1))) == 2


def test_determinant_table():
    assert determinant(resolution_word("0--")) == 12
    assert determinant(resolution_word("0-0")) == 1
    assert determinant(resolution_word("0-")) == 14
    assert determinant(resolution_word("+")) == 7
    assert determinant(resolution_word("-")) == 7
    assert determinant(resolution_word("0")) == 0


def test_determinant_skein_identity():
    assert (
        determinant(resolution_word("0--")) + 2 * determinant(resolution_word("0-0"))
        == determinant(resolution_word("0-"))
        == 14
    )


def test_alexander_trefoil():
    poly = alexander(BraidWord(2, (1, 1, 1)))
    assert poly.as_dict() == {1: 1, 0: -1, -1: 1}


def test_alexander_unknot():
    assert alexander(BraidWord(2, (1,))).as_dict() == {0: 1}


def test_alexander_switched_resolution_determinant():
    poly = alexander(resolution_word("-"))
    assert abs(poly.evaluate(Fraction(-1))) == 7


def test_alexander_rejects_links():
    with pytest.raises(NotAKnot):
        alexander(resolution_word("0"))


def test_alexander_symmetric_and_normalized():
    rng = random.Random(31)
    for _ in range(12):
        w = random_word(rng, rng.choice([2, 3]), 9, connected=True, knot=True)
        poly = alexander(w)
        assert poly == reciprocal(poly)
        assert poly.evaluate(Fraction(1)) == 1


def test_alexander_at_minus_one_is_determinant():
    rng = random.Random(32)
    for _ in range(20):
        w = random_word(rng, rng.choice([2, 3]), 9, connected=True, knot=True)
        assert abs(alexander(w).evaluate(Fraction(-1))) == determinant(w)


def test_invariance_under_markov_moves():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.choice([2, 3])
        w = random_word(rng, n, 8, connected=True)
        sig, det = signature(w), determinant(w)
        g = rng.choice([g for g in range(1, n)] + [-g for g in range(1, n)])
        wc = conjugate(w, BraidWord(n, (g,)))
        if {abs(e) for e in wc.letters} >= set(range(1, n)):
            assert (signature(wc), determinant(wc)) == (sig, det)
        for s in (1, -1):
            ws = stabilize(w, s)
            assert (signature(ws), determinant(ws)) == (sig, det)


def test_mirror_behaviour_on_nondegenerate_forms():
    # Mirror antisymmetry of the signature is asserted only where the
    # symmetrised form is nondegenerate; the degenerate-link convention is
    # one-sided (see the resolution with determinant zero).
    rng = random.Random(34)
    checked = 0
    while checked < 12:
        w = random_word(rng, rng.choice([2, 3]), 8, connected=True)
        if determinant(w) == 0:
            continue
        checked += 1
        assert signature(mirror(w)) == -signature(w)
        assert determinant(mirror(w)) == determinant(w)


def test_signature_invariance_under_free_reduction():
    from knotbound.braid import free_reduce

    w = BraidWord(3, (1, 2, -2, 2, 1, 1, 2))
    assert signature(free_reduce(w)) == signature(w)
    assert determinant(free_reduce(w)) == determinant(w)


@pytest.mark.parametrize("p", [LaurentPoly2.monomial(0, 1), LaurentPoly2.monomial(0, 0, 2)])
def test_alexander_guard_raises_on_non_alexander_homfly(monkeypatch, p):
    # z gives the odd exponents of q - q^-1; 2 gives Delta(1) = 2.
    monkeypatch.setattr(seifert, "homfly", lambda w: p)
    with pytest.raises(EngineInconsistency):
        alexander(BraidWord(2, (1, 1, 1)))


def test_loop_budget_boundary():
    # T(2, q) has q - 1 loops, signature q - 1 and determinant q.
    q = MAX_LOOPS + 1
    assert seifert_matrix(BraidWord(2, (1,) * q)).size == MAX_LOOPS
    assert seifert.seifert(BraidWord(2, (1,) * q)) == (q - 1, q)
    with pytest.raises(TooManyLoops, match=f"needs {q} rows, over the budget of {MAX_LOOPS}"):
        signature(BraidWord(2, (1,) * (q + 1)))


@st.composite
def connected_words(draw, max_len=14):
    """2-4 strand words using every generator, so the Seifert surface is connected."""
    n = draw(st.integers(2, 4))
    gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
    letters = draw(st.lists(st.sampled_from(gens), max_size=max_len - (n - 1)))
    for g in range(1, n):
        sign = draw(st.sampled_from([1, -1]))
        letters.insert(draw(st.integers(0, len(letters))), sign * g)
    return BraidWord(n, tuple(letters))


def _form(v):
    """V + V^T as a list of rows."""
    return [[v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))]


def _det(rows):
    a = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            for c in range(k, len(a)):
                a[r][c] -= f * a[k][c]
    return det


@settings(max_examples=150, deadline=None)
@given(connected_words())
def test_conway_identity_against_homfly(w):
    # det(s V - s^-1 V^T) = P(a=1, z=s-s^-1): Seifert form against the Hecke expansion.
    v = seifert_matrix(w).matrix
    p = homfly(w).as_dict()
    for s in (Fraction(2), Fraction(5, 2)):
        lhs = _det([[s * v[i][j] - v[j][i] / s for j in range(len(v))]
                    for i in range(len(v))])
        z = s - 1 / s
        assert lhs == sum(c * z**ez for (_, ez), c in p.items())


def _inertia_over_q(rows):
    """(positive, negative, zero) counts by congruence diagonalisation over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    m = len(a)
    pos = neg = 0
    for k in range(m):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, m) if a[r][r] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                other = next((c for c in range(k + 1, m) if a[k][c] != 0), None)
                if other is None:
                    continue  # zero row in the remaining block
                for c in range(k, m):
                    a[k][c] += a[other][c]
                for r in range(k, m):
                    a[r][k] += a[r][other]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, m):
            factor = a[r][k] / pivot
            for c in range(k, m):
                a[r][c] -= factor * a[k][c]
        for c in range(k + 1, m):
            a[k][c] = Fraction(0)
    return pos, neg, m - pos - neg


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of size 0-9 with entries in {0, +-1, 2, -3}; the
    diagonal is zero on a drawn set of indices, often all of them."""
    m = draw(st.integers(0, 9))
    zero_diagonal = draw(st.just(set(range(m))) | st.sets(st.integers(0, max(m - 1, 0))))
    entry = st.sampled_from([0, 1, -1, 2, -3])
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            if i != j or i not in zero_diagonal:
                a[i][j] = a[j][i] = draw(entry)
    return a


@st.composite
def sparse_symmetric_matrices(draw):
    """Symmetric matrices of size 10-24 with up to three drawn entries per
    row in {+-1, 2, -3}, built from a drawn seed; the diagonal is zero on
    every row, or on about half of them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m = rng.randint(10, 24)
    some_diagonal = rng.random() < 0.5
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        if some_diagonal and rng.random() < 0.5:
            a[i][i] = rng.choice([1, -1, 2, -2, -3])
        for _ in range(rng.randint(0, 3)):
            j = rng.randrange(m)
            if j != i:
                a[i][j] = a[j][i] = rng.choice([1, -1, 2, -3])
    return a


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices() | sparse_symmetric_matrices())
@example([[0, 1], [1, 0]])
@example([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
@example([[0] * 3] * 3)
@example([[2, 0, 1], [0, 0, 0], [1, 0, -1]])
@example([[0, 1, 2, -1], [1, 0, 1, 1], [2, 1, 0, -3], [-1, 1, -3, 0]])
@example([])
def test_integer_inertia_matches_rational(rows):
    # One exact elimination of the sparse rows gives both the inertia over Q
    # and the determinant.
    pos, neg, zero, det = _ldl([{j: x for j, x in enumerate(row) if x} for row in rows])
    assert (pos, neg, zero) == _inertia_over_q(rows)
    assert det == _det(rows)


def test_inexact_division_raises():
    # Sylvester's identity makes every division of the elimination exact;
    # a remainder is an engine fault, raised as a typed exception.
    with pytest.raises(EngineInconsistency):
        seifert._exact(3, 2)


def staircase(strands, rounds, alternating=False):
    """(1 2 ... n-1)^rounds, every other round negated if ``alternating``."""
    return BraidWord(strands, tuple(-g if alternating and r % 2 else g
                                    for r in range(rounds) for g in range(1, strands)))


@st.composite
def seeded_words(draw):
    """Words on 2-8 strands in which every generator occurs, links
    included, from a drawn seed.  On about half of them a drawn set of
    generators alternates in sign along the word, so those generators'
    loops have a zero diagonal."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(2, 8)
    w = random_word(rng, n, 24, connected=True)
    flipped = {g for g in range(1, n) if rng.random() < 0.5} if rng.random() < 0.5 else set()
    seen = dict.fromkeys(range(1, n), 0)
    letters = []
    for e in w.letters:
        g = abs(e)
        if g in flipped:
            e = g if seen[g] % 2 == 0 else -g
            seen[g] += 1
        letters.append(e)
    return BraidWord(n, tuple(letters))


@settings(max_examples=200, deadline=None)
@given(seeded_words())
@example(staircase(5, 4))
@example(staircase(9, 3))
@example(staircase(5, 5, alternating=True))
@example(staircase(9, 4, alternating=True))
@example(resolution_word("0"))
def test_seifert_matches_dense_oracles(w):
    # The sparse elimination against congruence over Q and the Fraction
    # determinant of the dense form V + V^T.
    form = _form(seifert_matrix(w).matrix)
    pos, neg, zero = _inertia_over_q(form)
    assert seifert.seifert(w) == (-((pos - neg) + zero), abs(_det(form)))


def _pairwise_matrix(w):
    """The Seifert matrix by testing every pair of loops."""
    n, letters = w.strands, w.letters
    loops = []
    for g in range(1, n):
        positions = [k for k, e in enumerate(letters) if abs(e) == g]
        for p, q in zip(positions, positions[1:]):
            loops.append((g, p, q, 1 if letters[p] > 0 else -1, 1 if letters[q] > 0 else -1))
    m = len(loops)
    v = [[0] * m for _ in range(m)]
    for i, (g, p, q, sp, sq) in enumerate(loops):
        v[i][i] = -(sp + sq) // 2
        for j in range(i + 1, m):
            gj, pj, qj = loops[j][:3]
            if gj == g and pj == q:
                v[i][j], v[j][i] = (sq + 1) // 2, (sq - 1) // 2
            elif gj == g + 1:
                if p < pj < q < qj:
                    v[i][j] = -1
                elif pj < p < qj < q:
                    v[i][j] = 1
    return tuple(tuple(row) for row in v)


@settings(max_examples=200, deadline=None)
@given(seeded_words())
@example(staircase(9, 3, alternating=True))
def test_entries_match_pairwise_enumeration(w):
    assert seifert_matrix(w).matrix == _pairwise_matrix(w)
