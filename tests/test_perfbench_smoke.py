"""The benchmark driver runs short round sets and reports clean results.

The tracer looks up every public function it wraps by name, so renaming or
removing one of them fails here, not only in a benchmark run.  Each run pins
the bytes of the tree files its first round writes at seed 1, so a change
to the file format, or to the Kraus words compile writes, shows here.

A tree file is its header line, its order, seven raw bytes of each of its W
float64 words, then a deflate stream of the words' top bytes.  All but the
stream follow from (d, N) alone, and are pinned exactly.  The stream's bytes
follow the last bits of LAPACK's QR, which differ between BLAS kernels, so
its length is pinned to a range that holds on every kernel tried:
OpenBLAS's SkylakeX, Haswell and Prescott (reported as Katmai) at numpy
2.4.6, whose seed-1 streams are 122 / 3,128 / 89,391, 122 / 3,128 / 89,400
and 122 / 3,128 / 89,372 bytes for the three workloads.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import povmtree
import povmtree.io  # noqa: F401  (Tracer.install looks up each traced layer's module, io too)

from conftest import order_width, stored_words

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


def _fixed_bytes(files):
    """The bytes of tree files at these (d, N), default labels, that no BLAS kernel moves: all but the streams."""
    header = {"format": povmtree.io.TREE_FORMAT}
    return sum(len(json.dumps(dict(header, dimension=d, n_original=n), separators=(",", ":"))) + 1
               + order_width(n) * n + 7 * stored_words(d, n) for d, n in files)


def _check_tree_bytes(total, files, fixed, stream):
    """``total`` bytes of tree files at ``files``: ``fixed`` of them exactly, and a stream length in ``stream``.

    Each range is the streams' lengths on the kernels above, widened by 0.5%
    or 4 bytes, whichever is more, each way.
    """
    assert _fixed_bytes(files) == fixed
    assert stream[0] <= total - fixed <= stream[1], total - fixed


def test_sweep_small_traced_run():
    # one file of N = d outcomes for each d of 2, 3 and 4: 365 words
    metrics = _run("sweep-small", trace=1)
    _check_tree_bytes(metrics["io.tree_bytes"]["value"], [(2, 2), (3, 3), (4, 4)], 2744, (118, 126))
    assert metrics["simulator.sample.calls"]["value"] > 0
    assert "simulator.QuantumState.per_query" in metrics


def test_query_wide_traced_run():
    # sampling dominates this workload: the tracer's sample span counts its calls.
    # One file at (d, N) = (2, 1024): 16,376 words
    metrics = _run("query-wide", trace=1)
    _check_tree_bytes(metrics["io.tree_bytes"]["value"], [(2, 1024)], 116743, (3112, 3144))
    assert metrics["simulator.sample.calls"]["value"] > 0


def test_store_large_d_untraced_run():
    # one file per tree at (d, N) = (16, 64), (32, 32), (32, 64): 454,144 words
    metrics = _run("store-large-d", trace=0)
    total = round(metrics["tree_file_mb"]["value"] * 1e6)
    _check_tree_bytes(total, [(16, 64), (32, 32), (32, 64)], 3179354, (88925, 89847))


def _blas_core():
    """The kernel set a scipy-openblas build of numpy runs, or None where numpy's BLAS does not say."""
    try:
        name = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return None
    name.argtypes, name.restype = [], ctypes.c_char_p
    return name().decode()


def test_tree_byte_pins_hold_on_another_blas_kernel():
    # the three runs above again, in a child whose OpenBLAS runs Prescott's
    # kernels; the variable is set in the child's environment only.  A BLAS
    # that is not a DYNAMIC_ARCH OpenBLAS ignores it: the child then reruns
    # the pins on the kernel in use, and its first line says "core None"
    probe = "import sys, test_perfbench_smoke as t; print('core', t._blas_core(), flush=True); import pytest; "
    tests = [f"tests/test_perfbench_smoke.py::test_{name}" for name in
             ("sweep_small_traced_run", "query_wide_traced_run", "store_large_d_untraced_run")]
    cmd = [sys.executable, "-c", probe + f"sys.exit(pytest.main({['-q', '-p', 'no:cacheprovider', *tests]!r}))"]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "tests"), env.get("PYTHONPATH", "")])
    result = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    core = result.stdout.splitlines()[0]
    print(core)
    if platform.machine() in ("x86_64", "AMD64") and _blas_core() is not None:  # an x86 OpenBLAS that names
        assert core == "core Katmai", core  # its kernels ran Prescott's


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
