"""Buchberger engine: reduced bases, normal forms, elimination, budgets."""

import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from socleq import (
    FP,
    QQ,
    Block,
    BudgetExceededError,
    Ideal,
    Limits,
    RingSpec,
    buchberger,
    eliminate,
    normal_form,
    parse_poly,
    parse_poly_list,
)
from socleq import groebner
from socleq.groebner import (
    lead_ideal_dimension,
    min_lead_monomials,
    normal_forms,
    standard_monomials_below,
)
from socleq.oracle import GradedIdeal
from socleq.ring import mono_divides


def ideal(ring, text):
    return Ideal(ring, parse_poly_list(text, ring))


@pytest.fixture
def rxy():
    return RingSpec(QQ, ["X", "Y"])


def test_textbook_lex_basis(rxy):
    # classic example: (XY - 1, Y^2 - 1) under lex X >> Y, which is the
    # block order eliminating X on two variables
    basis = buchberger(parse_poly_list("X*Y - 1, Y^2 - 1", rxy), Block((0,)))
    assert [str(b) for b in sorted(map(str, basis))] == ["X - Y", "Y^2 - 1"]


def test_reduced_basis_unique_under_permutation(rxy):
    gens = parse_poly_list("X^3 - 2*X*Y, X^2*Y - 2*Y^2 + X", rxy)
    b1 = buchberger(list(gens))
    b2 = buchberger(list(reversed(gens)))
    assert b1 == b2
    # scaled generators change nothing either
    b3 = buchberger([g.scale(Fraction(3, 7)) for g in gens])
    assert b1 == b3


def test_byte_identical_across_runs(rxy):
    gens = parse_poly_list("X^2 + Y, X*Y - 1, Y^3 - X", rxy)
    one = repr(buchberger(list(gens)))
    for _ in range(3):
        assert repr(buchberger(list(gens))) == one


def test_membership_and_normal_form(rxy):
    basis = ideal(rxy, "X^2, X*Y").groebner_basis()
    assert not normal_form(parse_poly("X^2*Y^5 + X*Y", rxy), basis)
    assert normal_form(parse_poly("Y^4", rxy), basis)
    assert normal_form(parse_poly("X^2 + Y", rxy), basis) == parse_poly("Y", rxy)
    assert normal_form(rxy.zero(), basis) == rxy.zero()


def _each_normal_form(fs, basis, limits, trunc):
    """normal_form of each f in turn, None where it exceeds the budget."""
    out = []
    for f in fs:
        try:
            out.append(normal_form(f, basis, limits, trunc))
        except BudgetExceededError:
            out.append(None)
    return out


@pytest.mark.parametrize("trunc", [None, 7])
def test_normal_forms_spend_one_budget_per_element(trunc):
    r = RingSpec(FP(32003), ["X", "Y", "Z"])
    gens = parse_poly_list("X^3, X*Y, Y^2 - X*Z, Z^4 + X*Z^2 + Y", r)
    basis = buchberger(list(gens), trunc=trunc)
    fs = parse_poly_list("Z^2, Y^3*Z^3 - X^2, X*Z^3 + Y^3, Y^5 + Z^5, Z^6 + Y*Z", r)
    full = _each_normal_form(fs, basis, Limits(), trunc)
    assert list(normal_forms(fs, basis, Limits(), trunc)) == full
    assert list(normal_forms([], basis)) == []
    # each element gets the whole budget: normal_forms stops exactly where
    # the first single call runs out, and not before
    hit = 0
    for budget in range(6):
        want = _each_normal_form(fs, basis, Limits(step_budget=budget), trunc)
        got = []
        with pytest.raises(BudgetExceededError) if None in want else nullcontext():
            for rem in normal_forms(iter(fs), basis, Limits(step_budget=budget), trunc):
                got.append(rem)
        stop = want.index(None) if None in want else len(want)
        assert got == want[:stop]
        hit += 0 < stop < len(want)
    assert hit  # some budget lets early elements through and stops a later one


def test_unit_ideal(rxy):
    J = ideal(rxy, "X, X + 1")
    assert not normal_form(rxy.one(), J.groebner_basis())
    assert list(map(str, J.groebner_basis())) == ["1"]


def test_zero_ideal(rxy):
    J = Ideal(rxy, [rxy.zero()])
    assert J.is_zero
    assert J.groebner_basis() == ()
    assert normal_form(parse_poly("X", rxy), J.groebner_basis()) == parse_poly("X", rxy)


def test_weighted_homogeneous_basis_stays_homogeneous():
    r = RingSpec(QQ, ["X1", "X2", "X3"], [3, 4, 5])
    gens = parse_poly_list("X1*X3 - X2^2, X1^3 - X2*X3", r)
    for b in buchberger(list(gens)):
        assert b.weighted_degree() is not None


def test_reduced_basis_generates_the_same_ideal():
    # weighted homogeneous generators, so the row-reduction oracle decides
    # membership one weighted degree at a time, independently of the engine
    r = RingSpec(QQ, ["X", "Y", "Z"], [1, 2, 3])
    gens = parse_poly_list("X^3 - Z, X*Z - Y^2, Y^3 - Z^2", r)
    basis = buchberger(list(gens))
    assert set(basis) != set(gens)
    graded = GradedIdeal(r, gens)
    for b in basis:
        assert graded.contains(b)
    for g in gens:
        assert not normal_form(g, basis)


def test_eliminate_by_block_order():
    r = RingSpec(QQ, ["T", "X", "Y"])
    J = ideal(r, "T*X, Y - T*Y")
    # classic elimination check: the T-free part of (TX, (1-T)Y) is (XY)
    E = eliminate(J, ["X", "Y"])
    assert [str(g) for g in E.gens] == ["X*Y"]


def test_eliminate_power_family():
    # (X^l * Y, X^l * Z) eliminated to the {Y, Z} subring is zero for l >= 1
    r = RingSpec(QQ, ["X", "Y", "Z"])
    J = ideal(r, "X^2*Y, X^2*Z")
    E = eliminate(J, ["Y", "Z"])
    assert E.is_zero


def test_step_budget_enforced(rxy):
    # The S-polynomial of these two needs at least one elimination, so a zero
    # budget must trip before the run can finish.
    gens = parse_poly_list("X*Y - 1, Y^2 - 1", rxy)
    with pytest.raises(BudgetExceededError):
        buchberger(list(gens), order=Block((0,)), limits=Limits(step_budget=0))


def test_basis_cache_first_writer_wins(rxy):
    J = ideal(rxy, "X^2, X*Y")
    b1 = J.groebner_basis()
    assert J.groebner_basis() is b1


def test_fp_and_qq_bases_agree_on_integer_input():
    gq = RingSpec(QQ, ["X", "Y", "Z"])
    gp = RingSpec(FP(32003), ["X", "Y", "Z"])
    text = "X*Y - Z^2, X^2*Z - Y^2"
    bq = buchberger(parse_poly_list(text, gq))
    bp = buchberger(parse_poly_list(text, gp))
    assert [str(b) for b in bq] == [str(b) for b in bp]


def test_lead_ideal_dimension():
    r = RingSpec(QQ, ["X", "Y", "Z"])
    J = ideal(r, "X^2*Y, X^2*Z")
    assert lead_ideal_dimension(J.groebner_basis(), r) == 2
    J0 = ideal(r, "X, Y, Z")
    assert lead_ideal_dimension(J0.groebner_basis(), r) == 0
    Ju = ideal(r, "X, X + 1")
    assert lead_ideal_dimension(Ju.groebner_basis(), r) == -1
    hyp = ideal(r, "X*Y - Z^2")
    assert lead_ideal_dimension(hyp.groebner_basis(), r) == 2


def test_standard_monomials(rxy):
    J = ideal(rxy, "X^2, X*Y")
    leads = min_lead_monomials(J.groebner_basis())
    # standard monomials below degree 4: 1, X, Y, Y^2, Y^3
    assert len(standard_monomials_below(leads, rxy, 4)) == 5


def test_truncated_run_recovers_local_behavior():
    # (X + X^2) is locally (X): the truncated basis at any level K sees that
    r = RingSpec(QQ, ["X"])
    g = parse_poly("X + X^2", r)
    for K in (3, 5, 8):
        basis = buchberger([g], trunc=K)
        assert [str(b) for b in basis] == ["X"]


def test_truncated_run_multivariate_cascade():
    # Substituting z = Y - X^2 turns (X*Y - X^3, Y^2) into (X*z, z^2 + X^4)
    # up to the ideal itself, so the local quotient has basis
    # 1, X, X^2, X^3, X^4, z and length 6.  At truncation level 4 the class
    # of X^4 dies and the count is 5; the lead ideal must pick up X^2*Y,
    # which only appears if the pair of X^3 - X*Y against the degree-4
    # monomial X^4 is actually processed.
    r = RingSpec(QQ, ["X", "Y"])
    gens = parse_poly_list("X*Y - X^3, Y^2", r)
    basis = buchberger(list(gens), trunc=4)
    names = [str(b) for b in basis]
    assert "X^2*Y" in names
    leads = min_lead_monomials(basis)
    std = standard_monomials_below(leads, r, 4)
    assert len(std) == 5
    # by level 6 the count stabilises at the true length
    for K in (6, 7):
        bK = buchberger(list(gens), trunc=K)
        stdK = standard_monomials_below(min_lead_monomials(bK), r, K)
        assert len(stdK) == 6


def test_truncated_run_empty_gens_gives_power_ideal():
    r = RingSpec(QQ, ["X", "Y"])
    basis = buchberger([], trunc=2, ring=r)
    assert [str(b) for b in basis] == ["Y^2", "X*Y", "X^2"]


# Exact step counts of three fixed runs, measured with the generator-expression
# monomial kernels that preceded the map kernels (the third with the map
# kernels, before covers were looked up rather than scanned).  A run may spend
# exactly N reduction steps, so budget N succeeds and N - 1 trips; any change
# to the sequence of reductions moves N.  The first is a truncated run with
# covers Z^11, X*Z^10, ...; the second is the elimination behind
# intersect((X^3, XY, Y^2 - XZ, Z^9 + X), (Z)); the third is a truncated run
# in four variables.  All skip pairs by the chain criterion; the last column
# lists the lcm degrees, less K, at which the chain criterion of a truncated
# run skips a pair ("2" stands for any excess >= 2, where covers are scanned).
PINNED_RUNS = [
    (["X", "Y", "Z"], "X^3, X*Y, Y^2 - X*Z, Z^4 + X*Z^2 + Y", {"trunc": 11}, 33,
     ["Y^2 - X*Z", "X*Y", "X^2*Z", "X^3", "Z^4 + X*Z^2 + Y"], {0, 1}),
    (["T", "X", "Y", "Z"], "T*X^3, T*X*Y, T*Y^2 - T*X*Z, T*Z^9 + T*X, Z - T*Z",
     {"order": Block((0,))}, 11,
     ["Y^2*Z - X*Z^2", "X*Y*Z", "X^2*Z", "Z^10 + X*Z", "Y*Z^9", "T*Z - Z",
      "Z^9 + T*X", "T*Y^2 - X*Z"], set()),
    (["W", "X", "Y", "Z"], "W*X - Y^2, X^3 + W*Z, Z^3 - W^2*Y", {"trunc": 5}, 36,
     ["W*X - Y^2", "W^2*Y - Z^3", "X^3 + W*Z", "Z^4", "W*Z^3", "Y^2*Z^2", "W*Y*Z^2",
      "W^2*Z^2", "Y^3*Z", "X*Y^2*Z", "W*Y^2*Z", "W^3*Z", "W*Y^3 - X*Z^3",
      "X^2*Y^2 + W^2*Z", "X*Y*Z^3", "X^2*Z^3", "X^2*Y*Z^2", "Y^5", "X*Y^4", "W^5"],
     {0, 1, 2}),
]


@pytest.mark.parametrize("names, text, kwargs, steps, expected, excesses", PINNED_RUNS,
                         ids=["truncated", "elimination", "truncated-4-vars"])
def test_reduction_sequence_is_pinned_by_its_step_count(monkeypatch, names, text, kwargs,
                                                        steps, expected, excesses):
    gens = parse_poly_list(text, RingSpec(FP(32003), names))
    skips = []
    chain = groebner._Engine.chain_skippable

    def counted(self, i, j, lcm):
        skipped = chain(self, i, j, lcm)
        excess = None if self.trunc is None else min(sum(lcm) - self.trunc, 2)
        skips.append((excess, skipped))
        return skipped

    monkeypatch.setattr(groebner._Engine, "chain_skippable", counted)
    basis = buchberger(list(gens), limits=Limits(step_budget=steps), **kwargs)
    assert [str(b) for b in basis] == expected
    assert any(skipped for _, skipped in skips)
    assert {e for e, skipped in skips if skipped and e is not None and e >= 0} == excesses
    with pytest.raises(BudgetExceededError):
        buchberger(list(gens), limits=Limits(step_budget=steps - 1), **kwargs)


def _chain_by_scan(eng, i, j, lcm, covers=True):
    """The chain criterion by a scan of every basis element (of every
    non-cover element when covers is False)."""
    return any(k != i and k != j and (covers or not elt.cover) and mono_divides(elt.lead, lcm)
               and eng._pair_ok(i, k) and eng._pair_ok(j, k) for k, elt in enumerate(eng.basis))


def test_cover_lookups_answer_as_a_scan_of_every_element(monkeypatch):
    chain = groebner._Engine.chain_skippable
    needed = set()  # lcm excesses over K at which only a cover allows the skip

    def checked(self, i, j, lcm):
        skipped = chain(self, i, j, lcm)
        assert skipped == _chain_by_scan(self, i, j, lcm)
        if skipped and not _chain_by_scan(self, i, j, lcm, covers=False):
            needed.add(min(sum(lcm) - self.trunc, 2))
        return skipped

    monkeypatch.setattr(groebner._Engine, "chain_skippable", checked)
    rng = random.Random(1)
    r = RingSpec(FP(32003), ["W", "X", "Y", "Z"])
    for _ in range(60):
        gens = []
        for _ in range(rng.randint(2, 4)):
            monos = {tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(rng.randint(1, 3))}
            gens.append(r.from_terms({m: r.field.from_int(rng.choice((-2, -1, 1, 2)))
                                      for m in monos if sum(m)}))
        buchberger(gens, trunc=rng.randint(3, 6), ring=r)
    assert needed == {0, 1, 2}


def _standard_monomials_by_filter(leads, ring, k, cap=None):
    """The definition: every monomial of total degree < k in the order of
    monomials_of_plain_degree, kept when no lead divides it."""
    out = []
    for d in range(k):
        for m in ring.monomials_of_plain_degree(d):
            if not any(mono_divides(lead, m) for lead in leads):
                out.append(m)
                if cap is not None and len(out) > cap:
                    raise BudgetExceededError(f"standard monomial count exceeded cap {cap}")
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        return ("raised", str(exc))


def test_standard_monomial_walk_matches_enumerate_and_filter():
    rng = random.Random(5)
    cases = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        ring = RingSpec(QQ, [f"x{i}" for i in range(n)], [rng.randint(1, 4) for _ in range(n)])
        leads = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.05:
            leads.append((0,) * n)  # the unit ideal
        k = rng.randint(0, 9)
        full = _standard_monomials_by_filter(leads, ring, k)
        assert standard_monomials_below(leads, ring, k) == full
        for cap in {0, 3, len(full) - 1, len(full), len(full) + 1}:
            if cap < 0:
                continue
            want = _outcome(_standard_monomials_by_filter, leads, ring, k, cap)
            assert _outcome(standard_monomials_below, leads, ring, k, cap) == want
            cases += isinstance(want, tuple)
    assert cases  # some caps are exceeded
    unit = RingSpec(QQ, ["X", "Y"])
    assert standard_monomials_below([(1, 0), (0, 0)], unit, 5, cap=0) == []
