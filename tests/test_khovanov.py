import copy
import random
from dataclasses import replace
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotbound.braid import (
    BraidWord,
    conjugate,
    elrifai_k_word,
    free_reduce,
    mirror,
    stabilize,
)
from knotbound.khovanov import (
    BigradedRanks,
    _rank_sparse,
    braid_to_pd,
    pd_from_text,
    pd_to_text,
    poincare_polynomial,
    reduced_khovanov,
)
from knotbound.verify import KHOVANOV_MAIN, KHOVANOV_MAIN_POINCARE, euler_matches
from conftest import random_word
from khovanov_cube import cube_khovanov


# --- planar diagrams ----------------------------------------------------------

def test_pd_single_crossing():
    pd = braid_to_pd(BraidWord(2, (1,)))
    assert len(pd.crossings) == 1 and pd.n_edges == 2


def test_pd_main_knot_shape(kstar_word):
    pd = braid_to_pd(kstar_word)
    assert len(pd.crossings) == 12
    assert pd.signs() == (9, 3)


def test_pd_crossingless_unknot():
    pd = braid_to_pd(BraidWord(1, ()))
    assert len(pd.crossings) == 0 and pd.n_edges == 1
    assert pd.free_edges == (0,)


def test_pd_text_round_trip(kstar_word):
    pd = braid_to_pd(kstar_word)
    again = pd_from_text(pd_to_text(pd))
    assert again == pd
    assert reduced_khovanov(again) == reduced_khovanov(pd)


# --- homology -----------------------------------------------------------------

def test_unknot_reduced_homology():
    for w in (BraidWord(1, ()), BraidWord(2, (1,)), BraidWord(2, (-1,))):
        assert reduced_khovanov(braid_to_pd(w)).as_dict() == {(0, 0): 1}


def test_trefoil_reduced_homology():
    # Cross-checked through the independent skein channel: the alternating
    # rank sum must reproduce the polynomial specialisation, and a knot's
    # total rank has alternating sum +-1.
    ranks = reduced_khovanov(braid_to_pd(BraidWord(2, (1, 1, 1))))
    assert ranks.as_dict() == {(2, 0): 1, (6, 2): 1, (8, 3): 1}
    by_j = [0, 0, 0, 0]
    for (_, j), r in ranks.ranks:
        by_j[j] += r
    assert by_j == [1, 0, 1, 1]
    assert euler_matches(BraidWord(2, (1, 1, 1)))


def test_main_knot_reduced_homology(kstar_khovanov):
    assert kstar_khovanov.as_dict() == KHOVANOV_MAIN
    assert len(kstar_khovanov.ranks) == 13
    assert kstar_khovanov.total_rank() == 15


def test_poincare_rendering(kstar_khovanov):
    assert poincare_polynomial(kstar_khovanov) == KHOVANOV_MAIN_POINCARE
    assert poincare_polynomial(BigradedRanks.from_dict({(0, 0): 1})) == "1"
    assert poincare_polynomial(BigradedRanks.from_dict({})) == "0"


def test_euler_characteristic_on_fixed_words():
    for w in (
        BraidWord(1, ()),
        BraidWord(2, ()),
        BraidWord(2, (1, 1, 1)),
        BraidWord(3, (1, 2, 2, 1, 1, -2)),
        BraidWord(3, (1, -2, 1, -2)),
    ):
        assert euler_matches(w)


def test_euler_characteristic_random_words():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.choice([2, 3])
        gens = [g for g in range(1, n)] + [-g for g in range(1, n)]
        w = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 7))))
        assert euler_matches(w)


def test_knot_total_rank_alternating_sum():
    for w in (BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2)), elrifai_k_word(1)):
        ranks = reduced_khovanov(braid_to_pd(w))
        assert abs(sum((-1) ** j * r for (_, j), r in ranks.ranks)) == 1
        assert ranks.total_rank() % 2 == 1


def component_tables(w):
    """Reduced tables over one marked edge per component, as a multiset."""
    pd = braid_to_pd(w)
    return sorted(reduced_khovanov(replace(pd, marked_edge=e)).ranks
                  for e in pd.component_edges())


def test_invariance_under_markov_moves():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.choice([2, 3])
        w = random_word(rng, n, 6)
        tables = component_tables(w)
        g = rng.choice([g for g in range(1, n)] + [-g for g in range(1, n)])
        assert component_tables(conjugate(w, BraidWord(n, (g,)))) == tables
        assert component_tables(stabilize(w, 1)) == tables
        assert component_tables(stabilize(w, -1)) == tables
        assert component_tables(free_reduce(w)) == tables


def test_mirror_reflection():
    rng = random.Random(43)
    for _ in range(8):
        w = random_word(rng, rng.choice([2, 3]), 6)
        ranks = reduced_khovanov(braid_to_pd(w))
        assert reduced_khovanov(braid_to_pd(mirror(w))) == ranks.mirror()


@st.composite
def braid_words(draw, max_strands=4, max_letters=9):
    """Words on 1..max_strands strands: knots, links and split closures.

    Half of them are positive, since those are more often homologically
    thick, where a wrong sign in the differential shows.
    """
    n = draw(st.integers(1, max_strands))
    gens = list(range(1, n))
    if not draw(st.booleans()):
        gens += [-g for g in gens]
    letters = draw(st.lists(st.sampled_from(gens), max_size=max_letters)) if gens else []
    return BraidWord(n, tuple(letters))


@st.composite
def scrambled_diagrams(draw):
    """A closure's diagram with its crossings shuffled and any edge marked."""
    pd = braid_to_pd(draw(braid_words()))
    return replace(pd, crossings=tuple(draw(st.permutations(pd.crossings))),
                   marked_edge=draw(st.integers(0, pd.n_edges - 1)))


# The cube takes about 0.15 s at 9 crossings, so examples are few.  The
# torus knot T(3, 4) is the first knot whose homology is thick.  The other
# two leave an entry 2 and -2 after every +-1 isomorphism is cancelled: the
# first marks a free circle, so its ranks are the unreduced trefoil's,
# whose Z/2 torsion shows there.
@settings(max_examples=50, deadline=None)
@given(scrambled_diagrams())
@example(braid_to_pd(BraidWord(3, (1, 2) * 4)))
@example(braid_to_pd(BraidWord(3, (2, 2, 2))))
@example(braid_to_pd(BraidWord(4, (2, 2, 3, 2))))
def test_scanner_matches_cube_oracle(pd):
    assert reduced_khovanov(pd) == cube_khovanov(pd)


@settings(max_examples=100, deadline=None)
@given(braid_words(max_letters=7), st.data())
def test_markov_invariance_over_components(w, data):
    # A link's reduced table depends on the marked component, so conjugation
    # and stabilization must keep the multiset over all components.
    gens = [g for g in range(1, w.strands)] + [-g for g in range(1, w.strands)]
    tables = component_tables(w)
    if gens:
        by = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=2))
        assert component_tables(conjugate(w, BraidWord(w.strands, tuple(by)))) == tables
    sign = data.draw(st.sampled_from([1, -1]))
    assert component_tables(stabilize(w, sign)) == tables


@settings(max_examples=100, deadline=None)
@given(braid_words())
@example(elrifai_k_word(1))
def test_mirror_duality(w):
    # Mirroring the diagram negates both gradings of the reduced table.
    assert reduced_khovanov(braid_to_pd(mirror(w))) == reduced_khovanov(braid_to_pd(w)).mirror()


def test_split_components_handled():
    # a word missing a generator closes to a split link with a free circle
    w = BraidWord(3, (1, 1))
    ranks = reduced_khovanov(braid_to_pd(w))
    assert ranks.total_rank() > 0
    assert euler_matches(w)


# --- rank engine --------------------------------------------------------------

def _dense_rank(columns):
    """Rank by dense Fraction Gaussian elimination, one matrix row per column."""
    rows = sorted({r for col in columns.values() for r in col})
    m = [[Fraction(col.get(r, 0)) for r in rows] for col in columns.values()]
    rank = 0
    for c in range(len(rows)):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def sparse_matrices(draw):
    """Integer matrices up to about 12x12 with entries in -3..3, column-wise;
    stored zeros and empty columns occur, and some columns repeat an earlier
    one times a scale."""
    cols = draw(st.lists(
        st.dictionaries(st.integers(0, 11), st.integers(-3, 3), max_size=12),
        max_size=12,
    ))
    for i, scale in draw(st.lists(st.tuples(st.integers(0, 11), st.integers(-2, 2)),
                                  max_size=3)):
        if i < len(cols):
            cols.append({r: scale * v for r, v in cols[i].items()})
    return dict(enumerate(cols))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rank_sparse_matches_dense_elimination(columns):
    before = copy.deepcopy(columns)
    assert _rank_sparse(columns) == _dense_rank(columns)
    assert columns == before  # the benchmark tracer reads the columns afterwards
