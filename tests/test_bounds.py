import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotbound.bounds import (
    EmptyTable,
    InconsistentThinness,
    ParityError,
    QuadrantDatum,
    TrigradedDims,
    bennequin,
    delta_range,
    destabilization_deficit,
    grading_convert,
    kr_report,
    mfw_report,
    quadrant_check,
    skein_triangle,
    slice_bennequin_check,
    thin_reconstruct,
)
from knotbound.braid import (
    BraidWord,
    EngineInconsistency,
    elrifai_k_word,
    expand_qp,
    g4_from_qp,
    qp_elrifai_k,
    qp_elrifai_l,
    torus2_word,
)
from knotbound.homfly import homfly
from knotbound.laurent import AQPolynomial, LaurentPoly2, a_degree_range, to_aq
from knotbound.verify import HOMFLY_MAIN, HOMFLY_SWITCHED

interval = st.tuples(st.integers(-10, 10), st.integers(-10, 10)).map(
    lambda t: (min(t), max(t))
)


# --- mfw reports ---------------------------------------------------------------

def test_mfw_report_main_knot():
    r = mfw_report(elrifai_k_word(1))
    assert (r.w_d, r.b_d) == (6, 3)
    assert (r.d_minus, r.d_plus) == (6, 8)
    assert r.mfw_bound == 2
    assert r.mfw_sharp_upper and not r.mfw_sharp_lower
    assert r.deficits == (0, 2)


def test_mfw_report_trefoil():
    r = mfw_report(torus2_word(3))
    assert (r.d_minus, r.d_plus) == (2, 4)
    assert r.mfw_bound == 2 and r.mfw_sharp_lower and r.mfw_sharp_upper


def test_mfw_report_fat_unknot():
    r = mfw_report(BraidWord(2, (1,)))
    assert (r.d_minus, r.d_plus) == (0, 0)
    assert r.mfw_bound == 1
    assert r.mfw_sharp_lower and not r.mfw_sharp_upper
    tight = mfw_report(BraidWord(1, ()))
    assert tight.mfw_sharp_lower and tight.mfw_sharp_upper


def test_mfw_report_guard_raises_on_out_of_range_degrees(monkeypatch):
    import knotbound.bounds as bounds

    monkeypatch.setattr(bounds, "homfly", lambda w: LaurentPoly2.monomial(40, 0))
    with pytest.raises(EngineInconsistency, match="MFW lines"):
        mfw_report(BraidWord(2, (1, 1, 1)))


# --- thin reconstruction --------------------------------------------------------

def test_thin_unknot():
    t = thin_reconstruct(AQPolynomial.from_dict({(0, 0): 1}), 0)
    assert t.as_dict() == {(0, 0, 0): 1}


def test_thin_switched_resolution():
    t = thin_reconstruct(HOMFLY_SWITCHED, 2)
    assert t.total_dim() == 7
    assert delta_range(t) == (2, 6)
    assert all(i + j + k == 2 for (i, j, k), _ in t.dims)
    assert t.euler_aq() == HOMFLY_SWITCHED
    assert delta_range(t) == a_degree_range(HOMFLY_SWITCHED)


def test_thin_main_knot_refuted_by_homology(kstar_khovanov):
    # The stated sign condition happens to be satisfiable for this
    # polynomial, so reconstruction formally succeeds; non-thinness is
    # certified homologically: a thin table would have 7 generators while
    # the reduced homology carries 15.
    t = thin_reconstruct(HOMFLY_MAIN, 2)
    assert t.total_dim() == 7
    assert kstar_khovanov.total_rank() == 15
    assert t.total_dim() != kstar_khovanov.total_rank()


def test_thin_sign_clash_detected():
    with pytest.raises(InconsistentThinness):
        thin_reconstruct(HOMFLY_MAIN, 0)
    with pytest.raises(InconsistentThinness):
        thin_reconstruct(HOMFLY_MAIN, 1)


def test_thin_rejects_link_polynomials():
    from knotbound.braid import resolution_word

    link_poly = to_aq(homfly(resolution_word("0")))
    with pytest.raises(InconsistentThinness):
        thin_reconstruct(link_poly, 1)


def test_thin_round_trip_random():
    import random

    rng = random.Random(51)
    for _ in range(20):
        sigma = 2 * rng.randint(-3, 3)
        dims = {}
        for _ in range(rng.randint(1, 6)):
            i = 2 * rng.randint(-3, 3)
            j = 2 * rng.randint(-3, 3)
            dims[(i, j, sigma - i - j)] = rng.randint(1, 4)
        table = TrigradedDims.from_dict(dims)
        rebuilt = thin_reconstruct(table.euler_aq(), sigma)
        assert rebuilt == table


def test_delta_range_empty():
    with pytest.raises(EmptyTable):
        delta_range(TrigradedDims.from_dict({}))


def test_delta_range_supplied_table():
    table = TrigradedDims.from_dict({(0, 4, 0): 1, (2, 8, -2): 1})
    assert delta_range(table) == (4, 8)


# --- homological bound reports ---------------------------------------------------

def test_kr_report_main_knot():
    r = kr_report(elrifai_k_word(1), 4, 8)
    assert r.kr_bound == 3
    assert r.kr_sharp_lower and r.kr_sharp_upper
    assert r.deficits == (0, 0)


def test_kr_report_unknot():
    r = kr_report(BraidWord(1, ()), 0, 0)
    assert r.kr_bound == 1 and r.kr_sharp_lower and r.kr_sharp_upper


def test_kr_report_parity_rejected():
    with pytest.raises(ParityError):
        kr_report(elrifai_k_word(1), 4, 7)


# --- interval propagation ---------------------------------------------------------

def test_skein_triangle_chains():
    assert skein_triangle("plus", (2, 6), (1, 5)) == (2, 8)
    assert skein_triangle("minus", (4, 8), (3, 7)) == (2, 6)
    assert skein_triangle("zero", (0, 0), (0, 0)) == (-1, 1)


def test_skein_triangle_bad_role():
    with pytest.raises(ValueError):
        skein_triangle("both", (0, 0), (0, 0))


@given(interval, interval, interval, interval,
       st.sampled_from(["plus", "minus", "zero"]))
def test_skein_triangle_monotone(a, b, a2, b2, role):
    wide_a = (min(a[0], a2[0]), max(a[1], a2[1]))
    wide_b = (min(b[0], b2[0]), max(b[1], b2[1]))
    lo, hi = skein_triangle(role, a, b)
    wlo, whi = skein_triangle(role, wide_a, wide_b)
    assert wlo <= lo and whi >= hi


def test_destabilization_deficit_values():
    assert destabilization_deficit(8, 4, 1, 0) == (9, 5)
    assert destabilization_deficit(6, 3, 2, 0)[0] == 4
    w_d, b_d = 7, 3
    assert destabilization_deficit(w_d, b_d, 0, 0) == (w_d + b_d - 1, w_d - b_d + 1)
    with pytest.raises(ValueError):
        destabilization_deficit(8, 4, -1, 0)


# --- grading conversion -------------------------------------------------------------

def test_grading_convert_values():
    assert grading_convert(-4, 4, 4, 2)[0] == 4
    assert grading_convert(0, 0, 0, 5) == (0, 0)
    with pytest.raises(ParityError):
        grading_convert(2, 3, 4, 2)


# --- transversal invariants -----------------------------------------------------------

def test_bennequin_values():
    assert bennequin(elrifai_k_word(1)) == 3
    assert bennequin(expand_qp(qp_elrifai_k(1))) == 3
    assert bennequin(BraidWord(2, (1,))) == -1


def test_quadrant_check_examples():
    datum = QuadrantDatum(3, 6, ((4, 7), (4, 6), (5, 6)))
    assert quadrant_check(datum) == [True, False, True]


@given(st.integers(0, 6), st.integers(0, 6))
def test_quadrant_accepts_entire_orbit(x, y):
    datum = QuadrantDatum(3, 6, ((3 + x + y, 6 + x - y),))
    assert quadrant_check(datum) == [True]


def test_quadrant_rejects_below_apex():
    datum = QuadrantDatum(3, 6, ((2, 6), (3, 7), (3, 5)))
    assert quadrant_check(datum) == [False, False, False]


def test_slice_bennequin_sharpness():
    d_k1 = expand_qp(qp_elrifai_k(1))
    assert slice_bennequin_check(d_k1, g4_from_qp(qp_elrifai_k(1))) == (True, True)
    d_l1 = expand_qp(qp_elrifai_l(1))
    assert slice_bennequin_check(d_l1, g4_from_qp(qp_elrifai_l(1))) == (True, True)
    # beta = -1 on the fat unknot, and 0 >= 0 is an equality
    assert slice_bennequin_check(BraidWord(2, (1,)), 0) == (True, True)
    assert slice_bennequin_check(BraidWord(2, (1,)), 2) == (True, False)


def test_report_serialisation_roundtrip():
    r = kr_report(elrifai_k_word(1), 4, 8)
    d = r.as_dict()
    assert d["kr_bound"] == 3 and d["mfw_bound"] == 2
    assert "w_d" in d and "deficit_upper" in d
