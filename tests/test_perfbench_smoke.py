"""The benchmark driver runs short round sets and reports clean results.

The tracer looks up every public function it wraps by name, so renaming or
removing one of them fails here, not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_sweep_small_traced_run():
    summary = _run("sweep-small", trace=1)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert "simulator.sample.calls" in summary["metrics"]
    assert "simulator.QuantumState.per_query" in summary["metrics"]


def test_store_large_d_untraced_run():
    summary = _run("store-large-d", trace=0)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    # one file per tree at (d, N) = (16, 64), (32, 32), (32, 64): d^2 float64
    # parameters per element and the complex128 entries of N - 1 Kraus
    # pairs, plus at most 64 KiB of header each
    raw = sum(8 * d * d * (5 * n - 4) for d, n in ((16, 64), (32, 32), (32, 64)))
    assert summary["metrics"]["tree_file_mb"]["value"] <= (raw + 3 * 64 * 1024) / 1e6
