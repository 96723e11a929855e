"""Command line front end.

Commands:
  check i2qi    decide I^2 = QI for I = Q : m on one ring and parameter ideal
  rednum        reduction number of the socle enlargement against Q
  invariants    dimension, multiplicity, H^0, depth probe, type estimate
  zoo           list the built-in rings or print one as a ring file
  repro         run the named experiment suites and report
  verify-split  mass-check the colon splitting law on generated instances

Rings are given as a ring-file path (the file carries its own field) or as
zoo:<ident>, which takes the field from --field.  Exit codes: 0 for a pass,
1 for a failed check, 2 for bad input or an undecided computation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import EngineError, InputError
from .experiments import EXPERIMENTS, run_all, socle_record
from .field import QQ, FP, Field, parse_field
from .limits import DEFAULT_LIMITS
from .localring import LocalRing, check_socle_square
from .probes import depth_probe, estimate_cm_type
from .dsl import parse_ring_file
from .report import build_report, error_report, to_json
from .zoo import build as zoo_build, idents as zoo_idents


def _parser() -> argparse.ArgumentParser:
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default=None,
                       help="coefficient field: qq or fp:<prime> "
                            "(zoo rings and repro only; ring files carry their own)")
    common = argparse.ArgumentParser(add_help=False, parents=[field])
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    common.add_argument("--json", metavar="OUT", default=None,
                        help="also write a JSON record to this path")
    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--trunc-budget", type=int, default=None,
                         help="override the truncation level budget")
    budgets.add_argument("--step-budget", type=int, default=None,
                         help="override the basis-computation step budget")

    p = argparse.ArgumentParser(prog="socleq", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"socleq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", parents=[common, budgets],
                       help="decide an equality on one ring")
    c.add_argument("what", choices=["i2qi"], help="which equality to decide")
    c.add_argument("--ring", required=True, help="ring file path or zoo:<ident>")
    c.add_argument("--q", required=True,
                   help="parameter ideal: comma-separated polynomials, or the "
                        "name of an ideal declared in the ring file")

    r = sub.add_parser("rednum", parents=[common, budgets],
                       help="reduction number of Q : m against Q")
    r.add_argument("--ring", required=True)
    r.add_argument("--q", required=True)
    r.add_argument("--cap", type=int, default=16,
                   help="largest reduction number tried")

    i = sub.add_parser("invariants", parents=[common, budgets],
                       help="basic invariants of one ring")
    i.add_argument("--ring", required=True)

    z = sub.add_parser("zoo", parents=[field], help="built-in rings")
    z.add_argument("action", choices=["list", "build"])
    z.add_argument("ident", nargs="?", default=None)

    e = sub.add_parser("repro", parents=[common],
                       help="run the experiment suites")
    e.add_argument("--only", default=None, choices=sorted(EXPERIMENTS),
                   help="run a single named experiment")

    v = sub.add_parser("verify-split", parents=[common],
                       help="mass-check the colon splitting law")
    v.add_argument("--instances", type=int, default=200,
                   help="verified instances to demand")
    return p


def _limits(args):
    return DEFAULT_LIMITS.with_overrides(step_budget=args.step_budget,
                                         trunc_k_budget=args.trunc_budget)


def _field(args, default: Field = QQ) -> Field:
    return parse_field(args.field) if args.field else default


def _load_local(args):
    """(local ring, display name, named ideals) from --ring."""
    limits = _limits(args)
    if args.ring.startswith("zoo:"):
        ident = args.ring[4:]
        z = zoo_build(ident, _field(args))
        loc = z.local
        if limits != DEFAULT_LIMITS:
            loc = LocalRing(loc.ring, loc.defining.gens, limits)
        return loc, ident, {}
    text = Path(args.ring).read_text()
    rf = parse_ring_file(text)
    return LocalRing(rf.ring, rf.quotient, limits), args.ring, rf.ideals


def _parse_q(loc: LocalRing, named: dict, qtext: str):
    key = qtext.strip()
    if key in named:
        return loc.ideal(list(named[key]))
    return loc.ideal(qtext)


def _write_json(path: str, payload: dict) -> None:
    Path(path).write_text(to_json(payload))


def _write_record(args, loc: LocalRing, name: str, passed: bool, record: dict) -> None:
    """Write a one-experiment, one-record report to --json."""
    result = {"name": name, "passed": passed, "records": [record]}
    _write_json(args.json, build_report(loc.ring.field, args.seed, [result]))


def _cmd_check(args) -> int:
    loc, name, named = _load_local(args)
    Q = _parse_q(loc, named, args.q)
    rep = check_socle_square(loc, Q)
    verdict = "true" if rep.equal else "false"
    note = "  (I = A)" if rep.socle_is_unit else ""
    print(f"I^2 = QI on {name}: {verdict}{note}")
    print(f"  len(A/Q) = {rep.len_A_mod_Q}, len(A/I) = {rep.len_A_mod_I}, "
          f"index = {rep.socle_dim}, method = {rep.method}")
    if rep.witness is not None:
        print(f"  witness outside QI: {rep.witness}")
    if args.json:
        _write_record(args, loc, "check_i2qi", rep.equal,
                      socle_record(loc, Q, name, rep))
    return 0 if rep.equal else 1


def _cmd_rednum(args) -> int:
    loc, name, named = _load_local(args)
    Q = _parse_q(loc, named, args.q)
    I = loc.socle_of(Q)
    r = loc.reduction_number(I, Q, cap=args.cap)
    print(f"reduction number of Q : m against Q on {name}: {r}")
    if args.json:
        _write_record(args, loc, "rednum", True, {
            "ring": name, "q": [str(g) for g in Q.gens],
            "socle_gens": [str(g) for g in I.gens], "reduction_number": r,
        })
    return 0


def _cmd_invariants(args) -> int:
    loc, name, named = _load_local(args)
    dim = loc.krull_dim()
    e = loc.multiplicity()
    W, h0len, _ = loc.h0()
    depth = depth_probe(loc)
    est = estimate_cm_type(loc, 2, samples=3, seed=args.seed) if dim > 0 else None
    print(f"invariants of {name}:")
    print(f"  dim = {dim}")
    print(f"  multiplicity = {e}")
    print(f"  h0 length = {h0len}" + (f", gens = {', '.join(str(g) for g in W.gens)}"
                                      if h0len else ""))
    print(f"  depth probe (lower bound) = {depth}")
    if est is not None:
        print(f"  type estimate = {est.estimate} from samples {list(est.values)}")
    if args.json:
        _write_record(args, loc, "invariants", True, {
            "ring": name, "dim": dim, "multiplicity": e, "h0_length": h0len,
            "h0_gens": [str(g) for g in W.gens] if h0len else [],
            "depth_probe": depth,
            "type_estimate": est.estimate if est else None,
        })
    return 0


def _cmd_zoo(args) -> int:
    if args.action == "list":
        for ident in zoo_idents():
            z = zoo_build(ident, _field(args))
            print(f"{ident:22s} {z.description}")
        return 0
    if not args.ident:
        raise InputError("zoo build needs an ident; see 'socleq zoo list'")
    z = zoo_build(args.ident, _field(args))
    sys.stdout.write(z.to_ring_text())
    return 0


def _cmd_repro(args) -> int:
    field = _field(args, default=FP(32003))
    results = run_all(field, args.seed, only=args.only)
    report = build_report(field, args.seed, results)
    for r in results:
        state = "pass" if r["passed"] else "FAIL"
        print(f"{r['name']:28s} {state}  ({len(r['records'])} records, "
              f"{r['elapsed_s']:.1f}s)")
    print(f"overall: {report['status']}  [field {report['field']}, seed {report['seed']}]")
    if args.json:
        _write_json(args.json, report)
    return 0 if report["passed"] else 1


def _cmd_verify_split(args) -> int:
    import time

    from .experiments import colon_split_identities

    field = _field(args, default=FP(32003))
    t0 = time.monotonic()
    out = colon_split_identities(field, args.seed, target=args.instances)
    out["elapsed_s"] = round(time.monotonic() - t0, 3)
    summary = out["records"][0]
    print(f"colon splitting law: {summary['verified']} verified, "
          f"{summary['skipped']} skipped, {len(summary['violations'])} violations")
    if args.json:
        _write_json(args.json, build_report(field, args.seed, [out]))
    return 0 if out["passed"] else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "rednum": _cmd_rednum,
        "invariants": _cmd_invariants,
        "zoo": _cmd_zoo,
        "repro": _cmd_repro,
        "verify-split": _cmd_verify_split,
    }[args.command]
    try:
        return handler(args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if getattr(args, "json", None):
            _write_json(args.json, error_report(type(exc).__name__, str(exc)))
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
