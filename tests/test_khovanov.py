import random

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
    braid_to_pd,
    pd_from_text,
    pd_to_text,
    poincare_polynomial,
    reduced_khovanov,
)
from knotbound.verify import KHOVANOV_MAIN, KHOVANOV_MAIN_POINCARE, euler_matches
from conftest import random_word


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


def test_invariance_under_markov_moves():
    rng = random.Random(42)
    for _ in range(10):
        n = rng.choice([2, 3])
        w = random_word(rng, n, 6)
        ranks = reduced_khovanov(braid_to_pd(w))
        g = rng.choice([g for g in range(1, n)] + [-g for g in range(1, n)])
        assert reduced_khovanov(braid_to_pd(conjugate(w, BraidWord(n, (g,))))) == ranks
        assert reduced_khovanov(braid_to_pd(stabilize(w, 1))) == ranks
        assert reduced_khovanov(braid_to_pd(stabilize(w, -1))) == ranks
        assert reduced_khovanov(braid_to_pd(free_reduce(w))) == ranks


def test_mirror_reflection():
    rng = random.Random(43)
    for _ in range(8):
        w = random_word(rng, rng.choice([2, 3]), 6)
        ranks = reduced_khovanov(braid_to_pd(w))
        assert reduced_khovanov(braid_to_pd(mirror(w))) == ranks.mirror()


def test_split_components_handled():
    # a word missing a generator closes to a split link with a free circle
    w = BraidWord(3, (1, 1))
    ranks = reduced_khovanov(braid_to_pd(w))
    assert ranks.total_rank() > 0
    assert euler_matches(w)
