import pytest

import socleq.idealops
from socleq import FP, QQ, Ideal, RingSpec, parse_poly, parse_poly_list
from socleq.errors import InputError
from socleq.idealops import colon, equal_as_s_ideals
from socleq.limits import DEFAULT_LIMITS
from socleq.localring import LocalRing
from socleq.probes import (
    buchsbaum_probe,
    depth_probe,
    estimate_cm_type,
    invariance_probe,
    is_d_sequence,
    is_strong_d_sequence,
    is_weak_sequence,
    lemma_colon_split,
    m_multiples_check,
    powered_colon_split,
    sample_element,
)
from socleq.zoo import build


def make(varnames, defining):
    r = RingSpec(QQ, varnames)
    gens = parse_poly_list(defining, r) if defining else []
    return LocalRing(r, list(gens))


@pytest.fixture
def cp():
    return make(["X", "Y"], "X^2, X*Y")


@pytest.fixture
def cross():
    # two transverse lines: x and y are mutual zero divisors
    return make(["X", "Y"], "X*Y")


@pytest.fixture
def regular2():
    return make(["X", "Y"], "")


@pytest.fixture
def cone():
    return make(["X", "Y", "Z"], "X*Y - Z^2")


def p(local, text):
    return parse_poly(text, local.ring)


# -- sequence conditions -------------------------------------------------------


def test_regular_sequence_is_d_sequence():
    local = make(["X", "Y", "Z"], "")
    got = is_d_sequence(local, [p(local, "X"), p(local, "Y"), p(local, "Z")])
    assert got.holds is True and got.certified
    assert got.method == "s-level"


def test_d_sequence_single_element(cp):
    # 0 : y and 0 : y^2 are both (x)
    got = is_d_sequence(cp, [p(cp, "Y")])
    assert got.holds is True and got.certified


def test_d_sequence_fails_on_transverse_lines(cross):
    # 0 : x = (y) but 0 : xy is everything
    got = is_d_sequence(cross, [p(cross, "X"), p(cross, "Y")])
    assert got.holds is False and got.certified
    assert got.witness == "colon pair (i=1, j=2)"


def test_strong_d_sequence_bounded(cp, cross):
    assert is_strong_d_sequence(cp, [p(cp, "Y")], exp_bound=3).holds is True
    got = is_strong_d_sequence(cross, [p(cross, "X"), p(cross, "Y")], exp_bound=2)
    assert got.holds is False


def test_weak_sequence(cp, cross):
    assert is_weak_sequence(cp, [p(cp, "Y")]).holds is True
    # 0 : x = (y) while 0 : m = (0)
    got = is_weak_sequence(cross, [p(cross, "X")])
    assert got.holds is False and got.certified


def test_weak_sequence_fails_on_flat_plane_with_line():
    # a + (z) : m collapses but 0 : z already contains x, so the system
    # (z, x+y) fails at its first step
    local = make(["X", "Y", "Z"], "X*Y, X*Z")
    got = is_weak_sequence(local, [p(local, "Z"), p(local, "X + Y")])
    assert got.holds is False and got.certified
    assert got.witness == "step i=1"
    # the same elements in the other order pass both steps
    assert is_weak_sequence(local, [p(local, "X + Y"), p(local, "Z")]).holds is True


def test_sequence_entries_must_be_non_units(cp):
    with pytest.raises(InputError):
        is_d_sequence(cp, [p(cp, "1 + X")])


# -- colon splitting laws --------------------------------------------------------


def test_colon_split_verified_instance(cp):
    got = lemma_colon_split(cp, cp.zero_ideal(), p(cp, "Y"), cp.ideal("X"),
                            cp.maximal(), n=2)
    assert got.holds is True
    assert [tag for tag, _, _ in got.details] == ["split", "sharp"]


def test_colon_split_regular_ring_instance(regular2):
    got = lemma_colon_split(regular2, regular2.ideal("X"), p(regular2, "Y"),
                            regular2.zero_ideal(), regular2.maximal(), n=3)
    assert got.holds is True


def test_colon_split_skips_bad_hypotheses(cp):
    # y * (y) is (y^2), not zero, so the kill hypothesis fails
    got = lemma_colon_split(cp, cp.zero_ideal(), p(cp, "Y"), cp.ideal("Y"),
                            cp.maximal(), n=2)
    assert got.holds is None
    assert got.method == "skipped (hypotheses)"
    assert lemma_colon_split(cp, cp.zero_ideal(), p(cp, "Y"), cp.ideal("X"),
                             cp.maximal(), n=1).method == "skipped (hypotheses)"


def test_powered_split_instances(cp, regular2):
    got = powered_colon_split(regular2, [p(regular2, "X"), p(regular2, "Y")], [2, 2])
    assert got.holds is True
    got = powered_colon_split(cp, [p(cp, "Y")], [3])
    assert got.holds is True
    skipped = powered_colon_split(regular2, [p(regular2, "X"), p(regular2, "Y")], [1, 2])
    assert skipped.method == "skipped (hypotheses)"


# -- multiplicity-one detector ----------------------------------------------------


def test_m_multiples_unequal_when_multiplicity_one(cp):
    got = m_multiples_check(cp, cp.ideal("Y^3"))
    assert got.holds is False
    label, holds, _ = got.details[0]
    assert label == "mI in mQ" and holds is False


def test_m_multiples_equal_on_quadric_cone(cone):
    got = m_multiples_check(cone, cone.ideal("X, Y"))
    assert got.holds is True
    assert all(row[1] is True for row in got.details)


# -- sampling probes ---------------------------------------------------------------


def test_sample_element_is_deterministic(cp):
    import random

    a = sample_element(cp, 2, random.Random(5))
    b = sample_element(cp, 2, random.Random(5))
    assert a == b
    assert a.min_plain_degree() >= 2


def test_estimate_cm_type_gorenstein_line():
    local = make(["X"], "")
    got = estimate_cm_type(local, depth_level=2, samples=3, seed=1)
    assert got.estimate == 1
    assert got.values == (1, 1, 1)


def test_estimate_cm_type_cp(cp):
    got = estimate_cm_type(cp, depth_level=2, samples=3, seed=1)
    assert got.estimate == 2
    assert set(got.values) == {2}


def test_buchsbaum_probe_passes_on_cp(cp):
    assert buchsbaum_probe(cp, samples=4, seed=3).holds is True


def test_invariance_probe_values(cp, regular2):
    assert invariance_probe(regular2, samples=3, seed=2).values == (0,)
    got = invariance_probe(cp, samples=3, seed=2)
    assert got.values == (1,)


def test_depth_probe_values(cp, cone):
    assert depth_probe(make(["X", "Y", "Z"], "")) == 3
    assert depth_probe(cone) == 2
    assert depth_probe(make(["X", "Y", "Z"], "X^2*Y, X^2*Z")) == 1
    assert depth_probe(make(["X", "Y", "Z", "W"], "X*Z, X*W, Y*Z, Y*W")) == 1
    assert depth_probe(make(["X", "Y", "Z"], "X^3, X*Y, Y^2 - X*Z")) == 0
    assert depth_probe(cp) == 0


# -- colons of a-containing ideals, and the intersection memo ----------------------


@pytest.fixture
def intersect_calls(monkeypatch):
    calls = []
    real = socleq.idealops.intersect

    def counted(I, J, limits=DEFAULT_LIMITS):
        calls.append((I.gens, J.gens))
        return real(I, J, limits)

    monkeypatch.setattr(socleq.idealops, "intersect", counted)
    return calls


@pytest.mark.parametrize("ident", ["semigroup3", "triple_line"])
def test_colon_of_a_containing_ideal_by_m_ignores_a(ident):
    # the verifiers divide a-containing numerators by M, not by a + M
    local = build(ident, FP(32003)).local
    x0, x1 = local.ring.gens()[:2]
    M = local.maximal()
    for X in (local.full(local.zero_ideal()), local.full(Ideal(local.ring, [x0 ** 2, x1]))):
        assert equal_as_s_ideals(colon(X, local.full(M), local.limits),
                                 colon(X, M, local.limits), local.limits)


def test_powered_split_reuses_intersections(regular2, intersect_calls):
    got = powered_colon_split(regular2, [p(regular2, "X"), p(regular2, "Y")], [2, 2])
    assert (got.holds, got.certified, got.method) == (True, True, "s-level")
    assert got.details == (((2, 2), True, "s-level"),)
    assert len(intersect_calls) <= 10


def test_colon_memo_hit_skips_intersect(cp, intersect_calls):
    I, m = cp.full(cp.ideal("Y^3")), cp.maximal()
    plain = colon(I, m, cp.limits)
    memo = {}
    assert colon(I, m, cp.limits, memo).gens == plain.gens
    before = len(intersect_calls)
    assert colon(I, m, cp.limits, memo).gens == plain.gens
    assert len(intersect_calls) == before
