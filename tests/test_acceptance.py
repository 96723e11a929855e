"""Acceptance gate: nine criteria, one test per criterion.

Three full registry runs are shared across the file through session
fixtures: one over F_32003 with the row reduction auditor attached, a
second F_32003 run for bit determinism, and one over Q for cross-field
agreement.  Each criterion re-reads the frozen records itself instead of
trusting the experiment's own pass flag, then prints one line.
"""

import pytest

from socleq.experiments import run_all
from socleq.field import FP, QQ
from socleq.oracle import OracleAuditor
from socleq.probes import depth_probe
from socleq.report import strip_timings, to_json
from socleq.zoo import build

PRIME = 32003


@pytest.fixture(scope="session")
def fp_audited():
    auditor = OracleAuditor(dim_cap=2000)
    return run_all(FP(PRIME), 0, auditor=auditor), auditor


@pytest.fixture(scope="session")
def fp(fp_audited):
    return {r["name"]: r for r in fp_audited[0]}


@pytest.fixture(scope="session")
def fp_again():
    return run_all(FP(PRIME), 0)


@pytest.fixture(scope="session")
def qq():
    return {r["name"]: r for r in run_all(QQ, 0)}


def _finish(n, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {n}: {status} - {label}")
    assert not problems, f"criterion {n}: " + "; ".join(problems)


def _check(problems, cond, msg):
    if not cond:
        problems.append(msg)


def test_criterion_1_weighted_curve_family(fp, qq):
    problems = []
    for out in (fp["semigroup_golden"], qq["semigroup_golden"]):
        recs = {r["e"]: r for r in out["records"]}
        _check(problems, sorted(recs) == [3, 4, 5], "missing a multiplicity")
        for e, r in recs.items():
            _check(problems, r["dim"] == 1, f"e={e}: dim {r['dim']}")
            _check(problems, r["h0_length"] == 1, f"e={e}: h0 length")
            _check(problems, r["socle_is_x1_x2_delta"], f"e={e}: socle generators")
            _check(problems, r["index"] == 2, f"e={e}: index {r['index']}")
            for nn in (2, 3):
                _check(problems, r[f"power{nn}_drops_h0"], f"e={e}: power {nn}")
            _check(problems, r["x2_pow_e_eq_x1_pow_e1"], f"e={e}: monomial relation")
            _check(problems, r["reduction_number"] == e - 1, f"e={e}: reduction")
            _check(problems, r["multiplicity"] == e, f"e={e}: multiplicity")
            _check(problems, r["type_estimate"] == e, f"e={e}: type estimate")
    _check(problems, fp["semigroup_golden"]["elapsed_s"] < 180,
           "slow over the prime field")
    _check(problems, qq["semigroup_golden"]["elapsed_s"] < 600,
           "slow over the rationals")
    _finish(1, "weighted curve family invariants", problems)


def test_criterion_2_principal_parameter_criterion(fp, qq):
    problems = []
    for out in (fp["almost_dvr_criterion"], qq["almost_dvr_criterion"]):
        grid = [r for r in out["records"] if "q_in_m2" in r]
        _check(problems, len(grid) == 9, "grid size")
        for r in grid:
            _check(problems, r["equal"] == (not r["q_in_m2"]),
                   f"{r['q']}: verdict does not match depth")
        golden = [r for r in out["records"] if "socle_matches_x_y2" in r]
        _check(problems, golden and golden[0]["socle_matches_x_y2"],
               "socle of the golden parameter")
        deep = [r for r in grid if r["q_in_m2"]]
        _check(problems, any(r["q"] == ["Y^4"] for r in deep), "degree four case")
        _check(problems, out["elapsed_s"] < 5, "slow")
    _finish(2, "principal parameters on the almost-DVR", problems)


def test_criterion_3_plane_line_family(fp):
    problems = []
    out = fp["plane_line_truth_table"]
    for l in (1, 2, 3):
        ring_id = f"plane_line{l}"
        recs = [r for r in out["records"] if r["ring"] == ring_id]
        inv = [r for r in recs if "dim" in r][0]
        _check(problems, inv["dim"] == 2, f"l={l}: dim")
        _check(problems, inv["multiplicity"] == l, f"l={l}: multiplicity")
        insts = [r for r in recs if "q" in r]
        _check(problems, len(insts) >= 30, f"l={l}: instance count {len(insts)}")
        for r in insts:
            _check(problems, r["index"] <= 2, f"l={l}: index {r['index']} at {r['q']}")
            if l >= 2:
                _check(problems, r["equal"] is True, f"l={l}: {r['q']}")
            if r.get("q_in_m2"):
                _check(problems, r["equal"] is True, f"deep {r['q']}")
        if l == 1:
            cex = [r for r in insts if r["q"] == ["X - Y", "Y^2 - Z^2"]]
            _check(problems, cex and cex[0]["equal"] is False, "counterexample")
            _check(problems, cex and cex[0]["index"] == 2, "counterexample index")
        _check(problems, depth_probe(build(ring_id, FP(PRIME)).local) == 1,
               f"l={l}: depth")
    _check(problems, out["elapsed_s"] < 300, "slow")
    _finish(3, "plane glued to a line, all thickenings", problems)


def test_criterion_4_triple_line_truth_table(fp):
    problems = []
    out = fp["triple_line_truth_table"]
    inv = out["records"][0]
    _check(problems, inv["multiplicity"] == 3, "multiplicity")
    _check(problems, inv["h0_is_x_squared"], "finite length part")
    _check(problems, inv["len_mod_z"] == 4, "length along the line")
    table = [r for r in out["records"] if "f" in r]
    _check(problems, len(table) == 27, "table size")
    for r in table:
        if r["f_unit"]:
            _check(problems, r["equal"] is True and r["index"] == 1,
                   f"unit row {r['q']}")
        elif r["n"] >= 2:
            _check(problems, r["equal"] is True, f"deep row {r['q']}")
        else:
            _check(problems, r["equal"] is False, f"shallow row {r['q']}")
            _check(problems, r["reduction_number"] == 2, f"reduction at {r['q']}")
    _check(problems, out["elapsed_s"] < 120, "slow")
    _finish(4, "multiplicity three line truth table", problems)


def test_criterion_5_regular_and_cone(fp):
    problems = []
    out = fp["regular_spot"]
    by_q = {tuple(r["q"]): r for r in out["records"] if "q" in r}
    for q in (2, 3):
        r = by_q["X", "Y", f"Z^{q}"]
        _check(problems, r["equal"] is False, f"q={q}: verdict")
        _check(problems, r["socle_matches"], f"q={q}: socle shape")
        _check(problems, r["index"] == 1, f"q={q}: index")
    _check(problems, by_q["X", "Y", "Z"]["socle_is_unit"], "maximal ideal case")
    _check(problems, by_q["X^2", "Y^2", "Z^2"]["equal"] is True, "all squares")
    cone = fp["quadric_cone_cm"]
    sampled = [r for r in cone["records"] if "q" in r]
    _check(problems, len(sampled) >= 20, "cone sample count")
    for r in sampled:
        _check(problems, r["equal"] is True, f"cone {r['q']}")
    _check(problems, out["elapsed_s"] + cone["elapsed_s"] < 120, "slow")
    _finish(5, "regular rings and the quadric cone", problems)


def test_criterion_6_identity_verifiers(fp):
    problems = []
    split = fp["colon_split_identities"]["records"][0]
    _check(problems, split["verified"] >= 200,
           f"colon split verified {split['verified']}")
    _check(problems, not split["violations"], "colon split violations")
    power = fp["power_colon_split"]["records"][0]
    _check(problems, power["verified"] >= 50,
           f"powered split verified {power['verified']}")
    _check(problems, not power["violations"], "powered split violations")
    mults = fp["m_multiples_suite"]["records"]
    _check(problems, any(r["e"] > 1 for r in mults), "multiplier coverage")
    for r in mults:
        if r["e"] > 1:
            _check(problems, r["holds"], f"multiplier identity on {r['ring']}")
    bound = fp["rednum_bound"]["records"]
    for r in bound:
        if "within_bound" in r:
            _check(problems, r["within_bound"], f"bound broken at {r['q']}")
        else:
            _check(problems, r["max_seen"] == r["bound"],
                   f"bound not attained on {r['ring']}")
    _finish(6, "splitting laws and reduction bounds at scale", problems)


def test_criterion_7_oracle_agreement(fp_audited):
    problems = []
    _, auditor = fp_audited
    _check(problems, auditor.checked >= 1000,
           f"only {auditor.checked} events audited")
    _check(problems, not auditor.mismatches,
           f"{len(auditor.mismatches)} oracle mismatches")
    _check(problems, auditor.skipped <= 0.05 * (auditor.checked + auditor.skipped),
           f"{auditor.skipped} of {auditor.checked + auditor.skipped} events skipped")
    _finish(7, f"independent row reduction agreement "
               f"({auditor.checked} checked, {auditor.skipped} skipped)", problems)


def test_criterion_8_deep_parameter_index(fp):
    problems = []
    out = fp["deep_parameter_stability"]
    for ring_id in ("semigroup3", "triple_line"):
        recs = [r for r in out["records"] if r["ring"] == ring_id]
        insts = [r for r in recs if "q" in r]
        _check(problems, len(insts) >= 20, f"{ring_id}: sample count")
        for r in insts:
            _check(problems, r["equal"] is True, f"{ring_id}: {r['q']}")
        tail = [r for r in recs if "distinct_indices" in r][0]
        _check(problems, tail["distinct_indices"] == [3],
               f"{ring_id}: indices {tail['distinct_indices']}")
    _finish(8, "constant index three for deep parameters", problems)


def test_criterion_9_determinism_and_field_agreement(fp_audited, fp_again, qq):
    problems = []
    first = strip_timings(fp_audited[0])
    second = strip_timings(fp_again)
    _check(problems, to_json({"experiments": first}) ==
           to_json({"experiments": second}), "same-seed reruns differ")
    rational = strip_timings([qq[name] for name in (r["name"] for r in fp_again)])
    _check(problems, first == rational, "fields disagree")
    _finish(9, "bit determinism and field independence", problems)
