import copy
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotbound.braid import (
    BraidWord,
    canonical_closure_key,
    conjugate,
    elrifai_k_word,
    free_reduce,
    mirror,
    parse_braid_word,
    scan_word,
    stabilize,
)
from knotbound.homfly import homfly
from knotbound.laurent import LaurentPoly1
from knotbound import khovanov
from knotbound.khovanov import (
    SCAN_STARTS,
    BigradedRanks,
    _links,
    _order_from,
    _rank_sparse,
    _scan_order,
    braid_to_pd,
    euler_polynomial,
    pd_from_text,
    pd_to_text,
    poincare_polynomial,
    reduced_khovanov,
)
from knotbound.seifert import seifert
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


@st.composite
def alternating_closures(draw):
    """An alternating braid knot or link on 2-5 strands, then perhaps one
    Markov move.

    Generator i always has the sign (-1)^(i+1), so the closure's diagram is
    alternating, and each generator occurs at least twice, so it is reduced
    and, every generator present, connected: a link is non-split.  A
    conjugate or a stabilization is another diagram of the same link.
    """
    n = draw(st.integers(2, 5))
    gens = [g * (-1) ** (g + 1) for g in range(1, n)]
    letters = gens * 2 + draw(st.lists(st.sampled_from(gens), max_size=4))
    w = BraidWord(n, tuple(draw(st.permutations(letters))))
    move = draw(st.sampled_from(["none", "conjugate", "stabilize"]))
    if move == "conjugate":
        c = draw(st.sampled_from(gens + [-g for g in gens]))
        return conjugate(w, BraidWord(n, (c,)))
    if move == "stabilize":
        return stabilize(w, draw(st.sampled_from([1, -1])))
    return w


# Reduced Khovanov homology of a non-split alternating link, whichever
# component carries the marked edge, is thin on the diagonal 2j - i = -sigma
# (E. S. Lee, Adv. Math. 197, 2005), and its total rank is |det|
# (C. Manolescu and P. Ozsvath, 2008): an engine check that ties the
# Khovanov tables to the Seifert form.
@settings(max_examples=150, deadline=None)
@given(alternating_closures())
@example(BraidWord(2, (1, 1)))  # the Hopf link
@example(BraidWord(3, (1, -2) * 3))  # the Borromean rings
def test_alternating_knot_khovanov_is_the_seifert_diagonal(w):
    pd = braid_to_pd(w)
    sigma, det = seifert(w)
    for e in pd.component_edges():
        ranks = reduced_khovanov(replace(pd, marked_edge=e))
        assert {2 * j - i for (i, j), _ in ranks.ranks} == {-sigma}, e
        assert ranks.total_rank() == abs(det), e


# --- the scan's start -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(scrambled_diagrams())
def test_every_start_gives_the_same_table(pd):
    expected = reduced_khovanov(pd)
    for k in range(len(pd.crossings)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(khovanov, "_scan_order",
                       lambda pd, k=k: _order_from(_links(pd), k)[1])
            assert reduced_khovanov(pd) == expected


@settings(max_examples=200, deadline=None)
@given(scrambled_diagrams())
def test_chosen_order_is_the_cheapest_start(pd):
    links, c = _links(pd), len(pd.crossings)
    order = _scan_order(pd)
    assert sorted(order) == list(range(c))
    if not c:
        return
    # The order is the replay from its first crossing, and on a short
    # diagram the cheapest start, the lowest on ties, so it costs no more
    # than crossing 0's.
    costs = [_order_from(links, k)[0] for k in range(c)]
    assert _order_from(links, order[0]) == (costs[order[0]], order)
    assert costs.index(min(costs)) == order[0]
    # A replay stops once its cost reaches the bound.
    for k, cost in enumerate(costs):
        assert _order_from(links, k, cost) is None
        assert _order_from(links, k, cost + 1) == (cost, _order_from(links, k)[1])


@settings(max_examples=100, deadline=None)
@given(scrambled_diagrams())
def test_replay_cost_is_the_scanned_boundaries(pd):
    # The dry run sees the boundaries the scan builds, cut marked edge included.
    sizes = []
    build = khovanov._Step.build

    def recording(step):
        build(step)
        sizes.append(len(step.boundary))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(khovanov._Step, "build", recording)
        reduced_khovanov(pd)
    order = _scan_order(pd)
    cost = _order_from(_links(pd), order[0])[0] if order else 0
    assert cost == sum(comb(b, b // 2) // (b // 2 + 1) for b in sizes)


@pytest.mark.parametrize("q", [1, 2, 3, 7, 12])
def test_torus2_start_k_scans_rotation_k(q):
    # With the marked edge on strand 1's arc into crossing k, which is where
    # braid_to_pd of the rotation puts it, start k scans in braid order.
    pd = braid_to_pd(BraidWord(2, (1,) * q))
    for k, (ports, _) in enumerate(pd.crossings):
        moved = replace(pd, marked_edge=ports[3])
        rotation = list(range(k, q)) + list(range(k))
        assert _order_from(_links(moved), k)[1] == rotation


@settings(max_examples=100, deadline=None)
@given(braid_words(max_letters=12))
@example(BraidWord(3, (1, 2) * 4))
def test_start_k_scans_like_rotation_k(w):
    # Crossing i of the rotation's diagram is crossing i + k of the word's,
    # port for port; with the marked edge on the same arc, the replay from
    # start k is the rotation's replay from start 0, ties included.
    n, pd = len(w), braid_to_pd(w)
    for k in range(n):
        rotated = braid_to_pd(w.with_letters(w.letters[k:] + w.letters[:k]))
        marked = [pd.crossings[(i + k) % n][0][p]
                  for i, (ports, _) in enumerate(rotated.crossings)
                  for p, e in enumerate(ports) if e == rotated.marked_edge]
        moved = replace(pd, marked_edge=marked[0] if marked else pd.marked_edge)
        assert _order_from(_links(moved), k)[1] == [
            (i + k) % n for i in _order_from(_links(rotated), 0)[1]]


def test_long_diagrams_replay_a_capped_number_of_starts(monkeypatch):
    starts = []

    def counting(links, start, bound=None):
        starts.append(start)
        return _order_from(links, start, bound)

    monkeypatch.setattr(khovanov, "_order_from", counting)
    pd = braid_to_pd(BraidWord(2, (1,) * (3 * SCAN_STARTS + 1)))
    assert sorted(_scan_order(pd)) == list(range(3 * SCAN_STARTS + 1))
    assert len(starts) == SCAN_STARTS and starts[0] == 0


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


def tables_over_components(w):
    """Reduced Khovanov tables with one marked edge per component, sorted."""
    pd = braid_to_pd(w)
    return sorted(reduced_khovanov(replace(pd, marked_edge=e)).ranks
                  for e in pd.component_edges())


@settings(max_examples=100, deadline=None)
@given(braid_words(max_letters=12))
@example(parse_braid_word("-1 2 1 2 -1 2 1 2", 3))
@example(parse_braid_word("1 2 2 1 1 2 -2 1 -2 -2 -2", 3))
def test_scan_word_keeps_the_closure(w):
    key_word = BraidWord(*canonical_closure_key(w))
    scanned = scan_word(key_word)
    assert len(scanned) <= len(key_word)
    assert homfly(scanned) == homfly(key_word)
    assert tables_over_components(scanned) == tables_over_components(key_word)


def test_split_components_handled():
    # a word missing a generator closes to a split link with a free circle
    w = BraidWord(3, (1, 1))
    ranks = reduced_khovanov(braid_to_pd(w))
    assert ranks.total_rank() > 0
    assert euler_matches(w)


def test_euler_polynomial_is_exact_at_negative_degrees():
    # (-1) ** -1 is the float -1.0, and -1.0 * (2^60 + 1) rounds to -2^60.
    big = 2 ** 60 + 1
    euler = euler_polynomial(BigradedRanks.from_dict({(0, -1): big, (2, -2): big,
                                                      (4, 3): 1}))
    assert euler == LaurentPoly1.from_dict({0: -big, 2: big, 4: -1})
    assert all(type(c) is int for _, c in euler.terms)


# A 4-strand knot whose scan word composed 903,933 times in queue order.
WIDE_KNOT = BraidWord(4, (1, -2, 3, 1, 1, -2, -2, 3, 3, -1, 2, 2, -3, -3, 1, 2, 3))


@pytest.mark.parametrize("word, bound", [
    (BraidWord(4, (1, 2, 3) * 9), 6_000),
    (scan_word(BraidWord(*canonical_closure_key(WIDE_KNOT))), 100_000),
], ids=["T(4,9)", "wide knot"])
def test_markowitz_order_bounds_the_compositions(monkeypatch, word, bound):
    # Compositions that cancel() makes, a count of its fill-in: in queue
    # order 7,522 on T(4, 9) and 903,933 on the CLI's scan word of
    # WIDE_KNOT; in Markowitz order 4,472 and 10,800.
    calls = []

    def counting(*args):
        calls.append(None)
        return compose(*args)

    compose = khovanov._compose
    monkeypatch.setattr(khovanov, "_compose", counting)
    reduced_khovanov(braid_to_pd(word))
    assert 0 < len(calls) <= bound


def test_a_scan_leaves_no_state_on_the_module():
    # The evaluation tables and memos belong to one scan's objects, so a
    # long-lived process keeps nothing from one query for the next.
    def snapshot():
        # Each name's object, with a copy of what a memo could be kept in.
        found = {}
        for name, value in vars(khovanov).items():
            if isinstance(value, type):
                found[name] = value, dict(vars(value))
            elif isinstance(value, (dict, list, set)) and not name.startswith("__"):
                found[name] = value, copy.copy(value)
            else:
                found[name] = value, None
        return found

    before = snapshot()
    for w in (elrifai_k_word(1), BraidWord(3, (1, -2, 1, -2))):
        reduced_khovanov(braid_to_pd(w))
    after = snapshot()
    assert after.keys() == before.keys()
    for name, (value, contents) in before.items():
        assert after[name][0] is value, name
        assert after[name][1] == contents, name


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
