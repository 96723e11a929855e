"""Named, reproducible experiment suites over the built-in ring collection.

Every experiment is a function (field, seed) -> result dict with a flat list
of JSON-ready instance records.  Each record carries the ring, the ideals
involved, the engine's verdict, and the expectation it was held against, so
a report is auditable without rerunning anything.  All randomness flows
through a seeded Random; draws are field-independent, hence two runs with
the same seed agree instance by instance even across different fields.
"""

from __future__ import annotations

import random
import time

from .errors import InputError
from .field import Field, QQ
from .groebner import Ideal
from .idealops import colon, ideal_power, ideal_product, intersect
from .localring import LocalRing, SocleEqualityReport, check_socle_square
from .probes import (
    buchsbaum_probe,
    estimate_cm_type,
    invariance_probe,
    is_weak_sequence,
    lemma_colon_split,
    m_multiples_check,
    powered_colon_split,
    sample_element,
    sample_sop,
)
from .zoo import build, idents


# ---------------------------------------------------------------------------
# record helpers


def _gens(I: Ideal) -> list:
    return [str(g) for g in I.gens]


def _entry(ident: str, field: Field, auditor=None):
    z = build(ident, field)
    if auditor is not None:
        z.local.auditor = auditor
    return z


def socle_record(local: LocalRing, Q: Ideal, ring_id: str,
                 rep: SocleEqualityReport | None = None) -> dict:
    """JSON record of check_socle_square(local, Q), or of rep if already computed."""
    if rep is None:
        rep = check_socle_square(local, Q)
    return {
        "ring": ring_id,
        "q": _gens(Q),
        "equal": rep.equal,
        "index": rep.socle_dim,
        "len_a_mod_q": rep.len_A_mod_Q,
        "len_a_mod_i": rep.len_A_mod_I,
        "socle_is_unit": rep.socle_is_unit,
        "m_i_eq_m_q": rep.m_I_eq_m_Q,
        "method": rep.method,
        "level": rep.level,
        "witness": str(rep.witness) if rep.witness is not None else None,
    }


def _result(name: str, records: list, passed: bool, notes: list | None = None) -> dict:
    out = {"name": name, "passed": bool(passed), "records": records}
    if notes:
        out["notes"] = notes
    return out


def _expect(record: dict, key: str, want) -> bool:
    record["expected_" + key] = want
    ok = record[key] == want
    record["ok"] = record.get("ok", True) and ok
    return ok


# ---------------------------------------------------------------------------
# the experiments


def almost_dvr_criterion(field: Field, seed: int, auditor=None) -> dict:
    """Principal parameters on the almost-DVR: equality holds exactly
    outside the square of the maximal ideal."""
    z = _entry("almost_dvr", field, auditor)
    loc = z.local
    records = []
    ok = True
    grid = ["Y", "X + Y", "X - Y", "Y^2 - X", "Y^2", "Y^2 + X*Y", "Y^3",
            "Y^3 - X*Y", "Y^4"]
    for qtxt in grid:
        Q = loc.ideal(qtxt)
        rec = socle_record(loc, Q, z.ident)
        deep = loc.check_contained(Q, ideal_power(loc.maximal(), 2)).holds
        rec["q_in_m2"] = deep
        ok &= _expect(rec, "equal", not deep)
        records.append(rec)
    golden = loc.ideal("Y^3")
    I = loc.socle_of(golden)
    same = loc.check_equal(I, loc.ideal("X, Y^2"))
    rec = {"ring": z.ident, "q": ["Y^3"], "socle_gens": _gens(I),
           "socle_matches_x_y2": same.equal}
    ok &= _expect(rec, "socle_matches_x_y2", True)
    records.append(rec)
    return _result("almost_dvr_criterion", records, ok)


def semigroup_golden(field: Field, seed: int, auditor=None) -> dict:
    """The full invariant chain for the weighted curve family, one run per
    multiplicity e in {3, 4, 5}."""
    records = []
    ok = True
    for e in (3, 4, 5):
        z = _entry(f"semigroup{e}", field, auditor)
        loc = z.local
        Q = loc.ideal("X1")
        J = loc.socle_of(Q)
        rec = {"ring": z.ident, "e": e, "q": ["X1"], "socle_gens": _gens(J)}
        rec["dim"] = loc.krull_dim()
        ok &= _expect(rec, "dim", 1)
        rec["multiplicity"] = loc.multiplicity()
        ok &= _expect(rec, "multiplicity", e)
        rec["h0_length"] = loc.h0_length()
        ok &= _expect(rec, "h0_length", 1)
        delta = z.expected["h0_gens"]
        rec["socle_is_x1_x2_delta"] = loc.check_equal(
            J, loc.ideal(f"X1, X2, {delta}")).equal
        ok &= _expect(rec, "socle_is_x1_x2_delta", True)
        rec["index"] = loc.index_of_reducibility(Q)
        ok &= _expect(rec, "index", 2)
        for n in (2, 3):
            rec[f"power{n}_drops_h0"] = loc.check_equal(
                ideal_power(J, n), ideal_power(loc.ideal("X1, X2"), n)).equal
            ok &= _expect(rec, f"power{n}_drops_h0", True)
        rec["x2_pow_e_eq_x1_pow_e1"] = loc.check_contained(
            loc.ideal(f"X2^{e} - X1^{e+1}"), loc.zero_ideal()).holds
        ok &= _expect(rec, "x2_pow_e_eq_x1_pow_e1", True)
        rec["reduction_number"] = loc.reduction_number(J, Q)
        ok &= _expect(rec, "reduction_number", e - 1)
        est = estimate_cm_type(loc, 3, samples=3, seed=seed)
        rec["type_estimate"] = est.estimate
        rec["type_samples"] = list(est.values)
        ok &= _expect(rec, "type_estimate", e)
        records.append(rec)
    return _result("semigroup_golden", records, ok)


def plane_line_truth_table(field: Field, seed: int, auditor=None) -> dict:
    """Plane plus line through one point: the index of reducibility never
    exceeds two, thickening the plane (l >= 2) forces the equality, and the
    l = 1 surface carries an explicit counterexample."""
    records = []
    notes = []
    ok = True
    grid = [(n, a, b) for n in (1, 2)
            for a, b in (("Y", "Z"), ("Z", "Y"), ("Y + Z", "Z"), ("Y", "Y - Z"))]
    for l in (1, 2, 3):
        z = _entry(f"plane_line{l}", field, auditor)
        loc = z.local
        inv = {"ring": z.ident, "l": l, "dim": loc.krull_dim(),
               "multiplicity": loc.multiplicity()}
        ok &= _expect(inv, "dim", 2)
        ok &= _expect(inv, "multiplicity", l)
        records.append(inv)
        instances = [loc.ideal(f"X^{n} + {a}, {b}") for n, a, b in grid]
        instances += [loc.ideal("X^2 + Y^2, Z^2"), loc.ideal("X^2 + Y*Z, Y^2 - Z^2")]
        rng = random.Random(seed + 100 * l)
        instances += [sample_sop(loc, 1, rng, max_draws=60) for _ in range(20)]
        deep_from = len(grid)
        for pos, Q in enumerate(instances):
            rec = socle_record(loc, Q, z.ident)
            rec["index_at_most_two"] = rec["index"] <= 2
            ok &= _expect(rec, "index_at_most_two", True)
            if l >= 2:
                ok &= _expect(rec, "equal", True)
            if deep_from <= pos < deep_from + 2:
                rec["q_in_m2"] = True
                ok &= _expect(rec, "equal", True)
            records.append(rec)
        if l == 1:
            rec = socle_record(loc, loc.ideal("X - Y, Y^2 - Z^2"), z.ident)
            ok &= _expect(rec, "equal", False)
            ok &= _expect(rec, "index", 2)
            records.append(rec)
            notes.append("the l = 1 surface admits parameters with unequal "
                         "socle square; thickened surfaces never do")
    return _result("plane_line_truth_table", records, ok, notes)


def triple_line_truth_table(field: Field, seed: int, auditor=None) -> dict:
    """The multiplicity-three line: principal parameters Z^n + X f + Y g
    classified by whether f is a unit and whether n = 1."""
    z = _entry("triple_line", field, auditor)
    loc = z.local
    records = []
    ok = True
    inv = {"ring": z.ident, "multiplicity": loc.multiplicity(),
           "h0_is_x_squared": loc.check_equal(loc.h0()[0], loc.ideal("X^2")).equal,
           "len_mod_z": loc.require_length(loc.ideal("Z")).value}
    ok &= _expect(inv, "multiplicity", 3)
    ok &= _expect(inv, "h0_is_x_squared", True)
    ok &= _expect(inv, "len_mod_z", 4)
    records.append(inv)
    for ftxt, f_unit in (("1", True), ("X", False), ("0", False)):
        for gtxt in ("0", "Y", "Z"):
            for n in (1, 2, 3):
                Q = loc.ideal(f"Z^{n} + X*({ftxt}) + Y*({gtxt})")
                rec = socle_record(loc, Q, z.ident)
                rec.update({"f": ftxt, "g": gtxt, "n": n, "f_unit": f_unit})
                if f_unit:
                    ok &= _expect(rec, "equal", True)
                    ok &= _expect(rec, "index", 1)
                elif n >= 2:
                    ok &= _expect(rec, "equal", True)
                    ok &= _expect(rec, "index", 3)
                else:
                    ok &= _expect(rec, "equal", False)
                    rec["reduction_number"] = loc.reduction_number(
                        loc.socle_of(Q), Q)
                    ok &= _expect(rec, "reduction_number", 2)
                records.append(rec)
    return _result("triple_line_truth_table", records, ok)


def regular_spot(field: Field, seed: int, auditor=None) -> dict:
    """Regular rings: the equality fails exactly for parameter ideals built
    from a regular system with one entry raised to a power, and the
    degenerate choice Q = m always fails because I = A."""
    records = []
    notes = []
    ok = True
    z = _entry("regular3", field, auditor)
    loc = z.local
    for q in (2, 3):
        Q = loc.ideal(f"X, Y, Z^{q}")
        rec = socle_record(loc, Q, z.ident)
        rec["socle_matches"] = loc.check_equal(
            loc.socle_of(Q), loc.ideal(f"X, Y, Z^{q-1}")).equal
        ok &= _expect(rec, "equal", False)
        ok &= _expect(rec, "index", 1)
        ok &= _expect(rec, "socle_matches", True)
        records.append(rec)
    rec = socle_record(loc, loc.ideal("X, Y, Z"), z.ident)
    ok &= _expect(rec, "equal", False)
    ok &= _expect(rec, "socle_is_unit", True)
    rec["note"] = "I = A"
    records.append(rec)
    notes.append("for Q = m the socle enlargement is the unit ideal")
    rec = socle_record(loc, loc.ideal("X^2, Y^2, Z^2"), z.ident)
    ok &= _expect(rec, "equal", True)
    records.append(rec)
    z2 = _entry("regular2", field, auditor)
    for qtxt, want in (("X, Y^3", False), ("X^2, Y^2", True)):
        rec = socle_record(z2.local, z2.local.ideal(qtxt), z2.ident)
        ok &= _expect(rec, "equal", want)
        records.append(rec)
    z1 = _entry("regular1", field, auditor)
    for t in (2, 3):
        rec = socle_record(z1.local, z1.local.ideal(f"X^{t}"), z1.ident)
        ok &= _expect(rec, "equal", False)
        records.append(rec)
    return _result("regular_spot", records, ok, notes)


def quadric_cone_cm(field: Field, seed: int, auditor=None) -> dict:
    """A non-regular Cohen-Macaulay ring: the equality holds for every
    sampled parameter ideal and the length defect is constantly zero."""
    z = _entry("quadric_cone", field, auditor)
    loc = z.local
    records = []
    ok = True
    rng = random.Random(seed)
    for _ in range(20):
        Q = sample_sop(loc, 1, rng, max_draws=60)
        rec = socle_record(loc, Q, z.ident)
        ok &= _expect(rec, "equal", True)
        records.append(rec)
    inv = invariance_probe(loc, samples=4, seed=seed)
    rec = {"ring": z.ident, "defect_values": list(inv.values)}
    ok &= _expect(rec, "defect_values", [0])
    records.append(rec)
    return _result("quadric_cone_cm", records, ok)


def colon_split_identities(field: Field, seed: int, auditor=None,
                           target: int = 200) -> dict:
    """Mass verification of the colon splitting law: for x W = 0 and
    L : x^2 = L : x, every generated instance satisfies
    (L + (x^n) + W) : M = [(L + W) : M] + [(L + (x^n)) : M]."""
    ring_ids = ("regular2", "almost_dvr", "triple_line", "quadric_cone", "semigroup3")
    entries = [_entry(i, field, auditor) for i in ring_ids]
    rng = random.Random(seed)
    verified = skipped = 0
    violations = []
    attempts = 0
    per_ring = {i: 0 for i in ring_ids}
    while verified < target and attempts < 3 * target:
        z = entries[attempts % len(entries)]
        loc = z.local
        attempts += 1
        x = sample_element(loc, 1 + (attempts % 2), rng)
        W = colon(loc.full(loc.zero_ideal()), Ideal(loc.ring, [x]), loc.limits)
        nl = attempts % 3
        L = loc.ideal([sample_element(loc, 1, rng) for _ in range(nl)]) if nl \
            else loc.zero_ideal()
        v = lemma_colon_split(loc, L, x, W, loc.maximal(), 2 + (attempts % 2))
        if v.method.startswith("skipped"):
            skipped += 1
        elif v.holds:
            verified += 1
            per_ring[z.ident] += 1
        else:
            violations.append({"ring": z.ident, "x": str(x), "l": _gens(L),
                               "w": _gens(W), "witness": v.witness})
    records = [{"verified": verified, "skipped": skipped, "attempts": attempts,
                "per_ring": per_ring, "violations": violations}]
    return _result("colon_split_identities", records,
                   verified >= target and not violations)


def power_colon_split(field: Field, seed: int, auditor=None) -> dict:
    """Mass verification of the powered splitting law for strong filter
    sequences: [(x1^n1, .., xs^ns) + W] : m = W + [(x1^n1, .., xs^ns) : m]
    whenever every exponent is at least two, on 50 verified instances."""
    target = 50
    plan = [("regular2", 1, [(2, 2), (2, 3), (3, 2)]),
            ("quadric_cone", 1, [(2, 2), (3, 3)]),
            ("semigroup3", 1, [(2,), (3,)]),
            ("almost_dvr", 1, [(2,), (3,)]),
            ("triple_line", 1, [(2,), (3,)])]
    rng = random.Random(seed)
    verified = skipped = 0
    violations = []
    attempts = 0
    entries = {i: _entry(i, field, auditor) for i, _, _ in plan}
    while verified < target and attempts < 3 * target:
        ident, depth, exp_menu = plan[attempts % len(plan)]
        attempts += 1
        loc = entries[ident].local
        Q = sample_sop(loc, depth, rng, max_draws=60)
        exps = exp_menu[attempts % len(exp_menu)]
        v = powered_colon_split(loc, list(Q.gens), list(exps))
        if v.method.startswith("skipped"):
            skipped += 1
        elif v.holds:
            verified += 1
        else:
            violations.append({"ring": ident, "q": _gens(Q),
                               "exps": list(exps), "witness": v.witness})
    records = [{"verified": verified, "skipped": skipped, "attempts": attempts,
                "violations": violations}]
    return _result("power_colon_split", records,
                   verified >= target and not violations)


def m_multiples_suite(field: Field, seed: int, auditor=None) -> dict:
    """m I^n = m Q^n for n up to four on every ring of multiplicity above
    one; any failure of m I inside m Q must land on a multiplicity-one ring."""
    records = []
    ok = True
    rng = random.Random(seed)
    for ident in idents():
        z = _entry(ident, field, auditor)
        loc = z.local
        e = z.expected["e"]
        if loc.krull_dim() == 0:
            continue
        for _ in range(2):
            Q = sample_sop(loc, 1, rng, max_draws=60)
            v = m_multiples_check(loc, Q)
            rec = {"ring": ident, "q": _gens(Q), "e": e, "holds": v.holds,
                   "details": [list(row) for row in v.details]}
            if e > 1:
                ok &= _expect(rec, "holds", True)
            records.append(rec)
    return _result("m_multiples_suite", records, ok)


def rednum_bound(field: Field, seed: int, auditor=None) -> dict:
    """Reduction numbers of the socle enlargement against its parameter
    ideal stay below the multiplicity, and the bound is attained."""
    plan = [("semigroup3", "X1", 3), ("semigroup4", "X1", 4),
            ("semigroup5", "X1", 5), ("triple_line", "Z", 3)]
    records = []
    ok = True
    for ident, golden, e in plan:
        z = _entry(ident, field, auditor)
        loc = z.local
        rng = random.Random(seed)
        seen = []
        qs = [loc.ideal(golden)]
        qs += [sample_sop(loc, 1, rng, max_draws=60) for _ in range(3)]
        for Q in qs:
            r = loc.reduction_number(loc.socle_of(Q), Q)
            seen.append(r)
            rec = {"ring": ident, "q": _gens(Q), "reduction_number": r,
                   "bound": e - 1, "within_bound": r <= e - 1}
            ok &= _expect(rec, "within_bound", True)
            records.append(rec)
        rec = {"ring": ident, "max_seen": max(seen), "bound": e - 1}
        ok &= _expect(rec, "max_seen", e - 1)
        records.append(rec)
    return _result("rednum_bound", records, ok)


def deep_parameter_stability(field: Field, seed: int, auditor=None) -> dict:
    """Parameters deep inside m^3 on the two marked curves: the index of
    reducibility is constantly three and the equality always holds."""
    records = []
    ok = True
    for ident in ("semigroup3", "triple_line"):
        z = _entry(ident, field, auditor)
        loc = z.local
        rng = random.Random(seed)
        indices = set()
        for _ in range(20):
            Q = sample_sop(loc, 3, rng, max_draws=60)
            rec = socle_record(loc, Q, ident)
            indices.add(rec["index"])
            ok &= _expect(rec, "equal", True)
            records.append(rec)
        rec = {"ring": ident, "distinct_indices": sorted(indices)}
        ok &= _expect(rec, "distinct_indices", [3])
        records.append(rec)
    return _result("deep_parameter_stability", records, ok)


def powered_sop(field: Field, seed: int, auditor=None) -> dict:
    """Squaring at least one parameter forces the equality on the positive
    multiplicity non-Cohen-Macaulay rings."""
    records = []
    ok = True
    z = _entry("two_planes", field, auditor)
    loc = z.local
    rng = random.Random(seed)
    for _ in range(3):
        Q = sample_sop(loc, 1, rng, max_draws=60)
        for exps in ((2, 1), (1, 2), (2, 2)):
            gens = [g if n == 1 else g * g for g, n in zip(Q.gens, exps)]
            rec = socle_record(loc, loc.ideal(list(gens)), z.ident)
            rec["exps"] = list(exps)
            ok &= _expect(rec, "equal", True)
            records.append(rec)
    z = _entry("semigroup3", field, auditor)
    loc = z.local
    rng = random.Random(seed + 1)
    for _ in range(3):
        Q = sample_sop(loc, 1, rng, max_draws=60)
        for n in (2, 3):
            rec = socle_record(loc, loc.ideal([Q.gens[0] ** n]), z.ident)
            rec["exps"] = [n]
            ok &= _expect(rec, "equal", True)
            records.append(rec)
    return _result("powered_sop", records, ok)


def max_index_socle(field: Field, seed: int, auditor=None) -> dict:
    """When the index of reducibility reaches the stable maximum the
    equality holds, and the socle enlargement always contains both the
    parameters and the finite-length part."""
    records = []
    ok = True
    for ident, depth, top in (("semigroup3", 3, 3), ("two_planes", 1, 4)):
        z = _entry(ident, field, auditor)
        loc = z.local
        W = loc.h0()[0]
        rng = random.Random(seed)
        for _ in range(4):
            Q = sample_sop(loc, depth, rng, max_draws=60)
            if ident == "two_planes":
                # push the parameters inside m^2 by squaring them
                Q = loc.ideal([g * g for g in Q.gens])
            rec = socle_record(loc, Q, ident)
            I = loc.socle_of(Q)
            rec["q_inside_socle"] = loc.check_contained(Q, I).holds
            rec["h0_inside_socle"] = loc.check_contained(W, I).holds
            ok &= _expect(rec, "q_inside_socle", True)
            ok &= _expect(rec, "h0_inside_socle", True)
            if rec["index"] == top:
                ok &= _expect(rec, "equal", True)
            records.append(rec)
    return _result("max_index_socle", records, ok)


def weak_sequence_probe(field: Field, seed: int, auditor=None) -> dict:
    """Sampled weak-sequence scans agree with the ring classification, the
    non-Buchsbaum surface shows an order-dependent failure, and the length
    defect is constant on the Buchsbaum rings."""
    records = []
    ok = True
    for ident in ("almost_dvr", "semigroup3", "triple_line", "two_planes",
                  "plane_embedded_point"):
        z = _entry(ident, field, auditor)
        v = buchsbaum_probe(z.local, samples=5, seed=seed)
        rec = {"ring": ident, "all_weak": v.holds}
        ok &= _expect(rec, "all_weak", True)
        records.append(rec)
    z = _entry("plane_line1", field, auditor)
    loc = z.local
    bad = is_weak_sequence(loc, [loc.ideal("Z").gens[0], loc.ideal("X + Y").gens[0]])
    good = is_weak_sequence(loc, [loc.ideal("X + Y").gens[0], loc.ideal("Z").gens[0]])
    rec = {"ring": z.ident, "order_z_first": bad.holds, "order_z_last": good.holds,
           "witness": bad.witness}
    ok &= _expect(rec, "order_z_first", False)
    ok &= _expect(rec, "order_z_last", True)
    records.append(rec)
    for ident, want in (("regular2", 0), ("quadric_cone", 0), ("almost_dvr", 1),
                        ("semigroup3", 1), ("triple_line", 1), ("two_planes", 1),
                        ("plane_embedded_point", 1)):
        z = _entry(ident, field, auditor)
        inv = invariance_probe(z.local, samples=4, seed=seed)
        rec = {"ring": ident, "defect_values": list(inv.values)}
        ok &= _expect(rec, "defect_values", [want])
        records.append(rec)
    return _result("weak_sequence_probe", records, ok)


def split_intersection(field: Field, seed: int, auditor=None) -> dict:
    """Wherever the equality holds, the first parameter splits off exactly:
    (a1) intersected with I^2 equals a1 I."""
    plan = [("semigroup3", 2, 3), ("triple_line", 2, 2), ("quadric_cone", 1, 2),
            ("two_planes", 1, 2)]
    records = []
    ok = True
    for ident, depth, count in plan:
        z = _entry(ident, field, auditor)
        loc = z.local
        rng = random.Random(seed)
        for _ in range(count):
            Q = sample_sop(loc, depth, rng, max_draws=60)
            rec = socle_record(loc, Q, ident)
            if rec["equal"]:
                I = loc.socle_of(Q)
                a1 = loc.ideal([Q.gens[0]])
                lhs = intersect(loc.full(a1), loc.full(ideal_power(I, 2)), loc.limits)
                rec["first_gen_splits"] = loc.check_equal(
                    lhs, ideal_product(a1, I)).equal
                ok &= _expect(rec, "first_gen_splits", True)
            records.append(rec)
    return _result("split_intersection", records, ok)


EXPERIMENTS = {
    fn.__name__: fn
    for fn in (
        almost_dvr_criterion,
        semigroup_golden,
        plane_line_truth_table,
        triple_line_truth_table,
        regular_spot,
        quadric_cone_cm,
        colon_split_identities,
        power_colon_split,
        m_multiples_suite,
        rednum_bound,
        deep_parameter_stability,
        powered_sop,
        max_index_socle,
        weak_sequence_probe,
        split_intersection,
    )
}


def run_experiment(name: str, field: Field = QQ, seed: int = 0,
                   auditor=None) -> dict:
    """One named experiment, with wall-clock timing attached."""
    fn = EXPERIMENTS.get(name)
    if fn is None:
        raise InputError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}")
    t0 = time.monotonic()
    out = fn(field, seed, auditor=auditor)
    out["elapsed_s"] = round(time.monotonic() - t0, 3)
    return out


def run_all(field: Field = QQ, seed: int = 0, only: str | None = None,
            auditor=None) -> list:
    """Every experiment (or just one), in registry order."""
    names = [only] if only else list(EXPERIMENTS)
    return [run_experiment(n, field, seed, auditor=auditor) for n in names]
