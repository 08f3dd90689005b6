"""The benchmark driver runs short round sets and reports clean results.

The tracer looks up every public function it wraps by name, so renaming or
removing one of them fails here, not only in a benchmark run.  Each run pins
the bytes of the tree files its first round writes at seed 1, so a change
to the file format, or to the Kraus words compile writes, shows here.
"""

import json
import subprocess
import sys
from pathlib import Path

import povmtree
import povmtree.io  # noqa: F401  (Tracer.install looks up each traced layer's module, io too)

ROOT = Path(__file__).resolve().parent.parent


def _run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    result = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    return summary["metrics"]


def test_sweep_small_traced_run():
    metrics = _run("sweep-small", trace=1)
    assert metrics["io.tree_bytes"]["value"] == 2970
    assert metrics["simulator.sample.calls"]["value"] > 0
    assert "simulator.QuantumState.per_query" in metrics


def test_query_wide_traced_run():
    # sampling dominates this workload: the tracer's sample span counts its calls
    metrics = _run("query-wide", trace=1)
    assert metrics["io.tree_bytes"]["value"] == 134934
    assert metrics["simulator.sample.calls"]["value"] > 0


def test_store_large_d_untraced_run():
    # one file per tree at (d, N) = (16, 64), (32, 32), (32, 64)
    metrics = _run("store-large-d", trace=0)
    assert round(metrics["tree_file_mb"]["value"] * 1e6) == 3298232


def test_a_state_built_under_the_tracer_counts_once(monkeypatch):
    # the workloads build their states before the traced rounds, so their runs
    # count no QuantumState: one built under an installed tracer counts once
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        povmtree.QuantumState.maximally_mixed(2)
    finally:
        tracer.uninstall()
    assert tracer.summarize(0, len(tracer.spans))["simulator.QuantumState.calls"] == 1
