"""Benchmark of the socleq engine: certified-verdict latency per workload.

One workload run, in its own process:

    python3 perfbench/run.py --workload socle-scan --seed 1 --seconds 28 --trace 0

builds the engine from `src/` of the checkout it runs in, repeats whole
rounds of the workload's queries as long as they fit in `--seconds` of
query time (at least one round), checks every answer, and prints one JSON
object as the last line: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  `--workload all` runs every
workload, one process each.

    python3 perfbench/run.py --steady

runs two sets of RUNS runs per workload (seeds 1..5 and 6..10, one process
per run, one at a time) and reports, per metric and workload, the median,
quartiles and spread of each set and whether the two sets agree within the
bounds in BENCHMARK.json.  It also runs two traced runs with the same seed
and requires their per-layer counts to be identical.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

sys.dont_write_bytecode = True
_clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("socle-scan", "rednum", "colon-laws", "audit")
RUNS = 5  # runs per set in --steady
SETUPS = 5  # least number of timed set-ups per run


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _import_engine():
    """Import socleq from src/ of the working directory, and nowhere else."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import socleq

    if not os.path.abspath(socleq.__file__).startswith(src + os.sep):
        raise ImportError(f"socleq imported from {socleq.__file__}, not from {src}")
    import workloads
    import spans

    return workloads, spans


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    t0 = _clock()
    workloads, spans = _import_engine()
    from socleq.errors import EngineError

    import_s = _clock() - t0
    spec = _spec()
    tracer = spans.Tracer()
    if traced:
        tracer.install()
    build = workloads.WORKLOADS[name]

    setups, walls, latencies, layers = [], [], [], []
    first = None
    # (label, oracle check, answer) of the first round, run after timing; the
    # query itself is not kept, so its LocalRing and caches can be freed
    audits = []
    correct = True
    attempted = failed = oracle_skipped = 0
    # Whole rounds, as many as fit in `seconds` at the mean round time so far
    # (always at least one), so that a run's length does not grow with the
    # length of a round.
    while not walls or sum(walls) + statistics.mean(walls) <= seconds:
        t = _clock()
        rnd = build(seed)
        setups.append(_clock() - t)

        outs = []
        tracer.active = traced
        start = _clock()
        for q in rnd.queries:
            t = _clock()
            try:
                outs.append(q.run())
            except EngineError as exc:
                outs.append(exc)
            latencies.append(_clock() - t)
        walls.append(_clock() - start)
        tracer.active = False
        if traced:
            layers.append(tracer.take())

        attempted += len(rnd.queries)
        for i, (q, out) in enumerate(zip(rnd.queries, outs)):
            if isinstance(out, EngineError):
                failed += 1
                _log(f"FAILED {q.label}: {type(out).__name__}: {out}")
                continue
            problems = q.check(out)
            if first is None and q.audit is not None:
                audits.append((q.label, q.audit, out))
            elif first is not None and out != first[i]:
                problems.append("answer differs from the first round")
            if problems and q.known_fault:
                failed += 1
                _log(f"FAILED (known fault) {q.label}: {'; '.join(problems)}")
            elif problems:
                correct = False
                _log(f"WRONG {q.label}: {'; '.join(problems)}")
        for problem in rnd.check(outs):
            correct = False
            _log(f"WRONG round: {problem}")
        if first is None:
            first = outs
            _log(f"{name}: {len(rnd.queries)} queries per round")
        del rnd, outs  # free this round's rings before the next is built

    # the queries' own peak, read before the oracle checks allocate their matrices
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # a run of few long rounds times its set-up on rounds that are not run
    while len(setups) < SETUPS:
        t = _clock()
        build(seed)
        setups.append(_clock() - t)
    for label, audit, out in audits:
        got = audit(out)
        if got is None:
            oracle_skipped += 1
        elif got:
            correct = False
            _log(f"WRONG {label}: {'; '.join(got)}")
    _log(f"{name}: {len(walls)} rounds, round walls "
         + ", ".join(f"{w:.3f}" for w in walls) + f" s; {oracle_skipped} oracle checks "
         f"over the cap of {workloads.ORACLE_CAP}")
    if traced:
        for later in layers[1:]:
            for key, value in later.items():
                if not key.endswith(".self_s") and value != layers[0][key]:
                    correct = False
                    _log(f"WRONG trace: {key} is {value} in a later round, "
                         f"{layers[0][key]} in the first")
        metrics = {}
        for m in spec["per_layer"]:
            key = m["name"]
            value = (statistics.median(l[key] for l in layers) if key.endswith(".self_s")
                     else layers[0][key])
            metrics[key] = {"value": value, "unit": m["unit"]}
        out_dir = os.path.join(os.getcwd(), ".bench_build")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path)
        _log(f"{name}: traced wall_s {statistics.median(walls):.4f}; spans in {path}")
    else:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# several workloads, each run in its own process


def _child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _show(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:40s} {m['value']:14.4f} {m['unit']}")


def run_all(seed: int, seconds: float, traced: bool) -> dict:
    results = {}
    for name in WORKLOAD_NAMES:
        results[name] = _child(name, seed, seconds, traced)
        _show(name, results[name])
    return results


def _spec() -> dict:
    """BENCHMARK.json: the metrics' names, units and bounds, and run_seconds."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _summary(values) -> tuple:
    """(median, first quartile, third quartile, quartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def steady(names, seconds: float) -> bool:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    ok = True
    for name in names:
        sets = []
        took = []
        for offset in (0, RUNS):
            sets.append([])
            for seed in range(offset + 1, offset + RUNS + 1):
                _log(f"{name} seed {seed}")
                t = _clock()
                sets[-1].append(_child(name, seed, seconds, False))
                took.append(_clock() - t)
        shares = {(r["failed"], r["attempted"]) for s in sets for r in s}
        share_ok = len({Fraction(f, a) for f, a in shares}) == 1
        correct = all(r["correct"] for s in sets for r in s)
        ok &= share_ok and correct
        print(f"{name}: correct={correct} failed/attempted={sorted(shares)} "
              f"same share={share_ok}; one run takes {statistics.mean(took):.1f} s "
              f"on average, {max(took):.1f} s at most")
        for key, bound in bounds.items():
            cols = []
            for i, s in enumerate(sets):
                med, q1, q3, spread = _summary([r["metrics"][key]["value"] for r in s])
                cols.append(f"set{i + 1} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
                            f"spread {spread:6.3f}")
            first, second = (_summary([r["metrics"][key]["value"] for r in s])[0]
                             for s in sets)
            both = _summary([r["metrics"][key]["value"] for s in sets for r in s])
            # The medians must agree in either direction.  The spread is gated
            # over all the runs, as five quartiles are too few to gate; set-up
            # time, well under a second, is judged by its median alone.
            agree = (abs(second - first) <= bound * first
                     and (key == "setup_s" or both[3] <= bound))
            ok &= agree
            print(f"  {key:12s} bound {bound:4.2f} | " + " | ".join(cols)
                  + f" | all {2 * RUNS}: spread {both[3]:6.3f} | "
                  + ("agree" if agree else "DISAGREE"))
        _log(f"{name} traced, seed 1, twice")
        traced = [_child(name, 1, seconds, True) for _ in range(2)]
        exact = [k for k in traced[0]["metrics"] if not k.endswith(".self_s")]
        diff = [k for k in exact
                if traced[0]["metrics"][k]["value"] != traced[1]["metrics"][k]["value"]]
        ok &= not diff and all(r["correct"] for r in traced)
        print(f"  traced counts identical across two seed-1 runs: "
              f"{'yes' if not diff else 'NO: ' + ', '.join(diff)} ({len(exact)} counts)")
    print("steady" if ok else "NOT steady")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true",
                    help="two sets of runs per workload, compared against the bounds")
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.steady:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        return 0 if steady(names, seconds) else 1
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, seconds, bool(args.trace))))
        return 0
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    _show(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
