"""One short traced run of the benchmark, end to end.

The tracer in perfbench/spans.py rebinds engine names (normal_form,
LocalRing.quotient_dim_at, ...) and keys buchberger calls by their
positional arguments, so an engine API change can break it without any
engine test noticing.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_socle_scan_round_counts_engine_calls():
    # run.py imports the engine from src/ of its working directory
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "socle-scan", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["groebner.buchberger.calls"]["value"] > 0
    assert metrics["localring.quotient_dim_at.calls"]["value"] > 0
