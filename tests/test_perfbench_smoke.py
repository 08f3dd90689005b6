"""The benchmark driver runs one short traced round set and reports clean results.

The tracer looks up every public function it wraps by name, so renaming or
removing one of them fails here, not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_small_traced_run():
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sweep-small",
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert "simulator.sample.calls" in summary["metrics"]
    assert "simulator.QuantumState.per_query" in summary["metrics"]
