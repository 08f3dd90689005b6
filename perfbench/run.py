"""Benchmark of the povmtree pipeline, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads: sweep-small, query-wide, store-large-d (see perfbench/README.md).
The run imports povmtree from ``src/`` beside this directory, makes the
workload's inputs from ``--seed``, and runs a fixed number of rounds of the
workload's fixed work, sized from ``--seconds`` (see ``ROUND_SECONDS``).  The
work, and so every count in the result, depends only on the seed and
``--seconds``, never on how fast the machine is.  Every operation is checked;
a raise or a failed check counts as a failed operation and never stops the
run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` installs span
wrappers on every other round, prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.perfbench_out/``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: numbers stay comparable across machines with different
# core counts, and OpenBLAS does not start a thread pool of its own.  This
# must happen before numpy is imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = {
    "sweep-small": workloads.sweep_small,
    "query-wide": workloads.query_wide,
    "store-large-d": workloads.store_large_d,
}

# Typical wall time of one untraced round, on the machine described in
# README.md.  A run makes round(seconds / ROUND_SECONDS) rounds, at least one
# (a traced run at least two), so that it measures about --seconds there.
# The count is fixed rather than timed, so the operations attempted, and the
# failures among them, are the same in every run of a seed.
ROUND_SECONDS = {"sweep-small": 1.25, "query-wide": 15.0, "store-large-d": 18.0}

# setup_s is the median of this many set-ups: this process's own and the
# rest in fresh interpreters, so the import of povmtree is paid each time.
SETUP_REPEATS = 7

# A tail percentile is reported only with at least this many samples
# beyond it.
TAIL_SAMPLES = 10

# Tree probabilities must agree with the direct and the Neumark oracle.
PROBABILITY_TOLERANCE = 1e-8

# Largest accepted per-leaf deviation of sampled counts, in binomial sigmas.
MAX_SIGMA = 6.0


def import_package():
    """Import povmtree from this checkout's src/, and nowhere else."""
    init = SRC / "povmtree" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no povmtree sources at {init}")
    sys.path.insert(0, str(SRC))
    import povmtree

    for layer in LAYERS:
        importlib.import_module(f"povmtree.{layer}")
    if Path(povmtree.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported povmtree from {povmtree.__file__}, not {init}")
    return povmtree


class VerifyFailed(Exception):
    """verify() reported FAIL for a tree compile_tree returned."""


class Recorder:
    """Latencies, failures and exact counts of one round."""

    def __init__(self):
        self.latency = defaultdict(list)  # kind -> ns of each passing operation
        self.attempted = 0
        self.failed = Counter()  # "kind:ExceptionType" or "kind:check" -> count
        self.messages = {}  # first message seen for each failure key
        self.incorrect = 0  # operations whose result failed a check
        self.counts = Counter()

    def op(self, kind, fn, check=None):
        """Time fn(), check its result and record the outcome.

        Returns (passed, result).  ``check`` returns None for a good result,
        or a short description of what is wrong.
        """
        self.attempted += 1
        try:
            start = time.perf_counter_ns()
            result = fn()
            elapsed = time.perf_counter_ns() - start
            problem = check(result) if check else None
        except Exception as err:  # a failed operation is counted, not fatal
            self._fail(f"{kind}:{type(err).__name__}", str(err))
            return False, None
        if problem:
            self.incorrect += 1
            self._fail(f"{kind}:check", problem)
            return False, None
        self.latency[kind].append(elapsed)
        return True, result

    def _fail(self, key, message):
        self.failed[key] += 1
        self.messages.setdefault(key, message)


def _probabilities(outcomes) -> np.ndarray:
    return np.array([o.probability for o in outcomes])


def build(pt, case, rec: Recorder):
    """Build and verify one case's tree; returns (tree, Neumark oracle or None) or None."""

    def tree_ready():
        povm = pt.povm.validate(case.elements)
        factorization = None
        if case.unitaries is not None:
            kraus = pt.povm.default_kraus(povm)
            factorization = pt.povm.apply_freedom(kraus, case.unitaries)
        tree = pt.tree.compile_tree(povm, factorization=factorization, partition=case.partition)
        report = pt.tree.verify(tree)
        if not report.passed:
            # the package's own audit: a failure, not a wrong result
            bad = [c.path for c in report.nodes if not c.ok]
            bad += [f"leaf:{c.outcome_index}" for c in report.leaves if not c.ok]
            raise VerifyFailed(f"d={case.dim} N={case.n_outcomes} failing {bad}")
        return povm, tree, report

    ok, built = rec.op("tree_ready", tree_ready)
    if not ok:
        return None
    povm, tree, report = built
    rec.counts["tree.internal_nodes"] += len(report.nodes)
    rec.counts["tree.null_corrected_nodes"] += sum(c.uses_null_correction for c in report.nodes)
    oracle = None
    if case.neumark:
        _, oracle = rec.op("neumark", lambda: pt.dilation.full_neumark(povm))
    return tree, oracle


def store(pt, case, tree, rec: Recorder, path: Path):
    """Save and load one tree; returns the tree to query from now on, or None."""
    ok, _ = rec.op("save", lambda: pt.io.save_tree(tree, path))
    if not ok:
        return None
    rec.counts["io.tree_bytes"] += path.stat().st_size

    def same_as_saved(loaded):
        if not pt.tree.verify(loaded).passed:
            return "loaded tree fails verify"
        before = _probabilities(pt.simulator.propagate(tree, case.states[0]))
        after = _probabilities(pt.simulator.propagate(loaded, case.states[0]))
        return None if np.array_equal(before, after) else "loaded tree gives other probabilities"

    ok, loaded = rec.op("load", lambda: pt.io.load_tree(path), same_as_saved)
    if not case.query_loaded:
        return tree
    return loaded if ok else None


def query(pt, target, oracle, state, rec: Recorder) -> None:
    """One propagate call, checked against the direct and Neumark oracles."""

    def agrees(outcomes):
        probs = _probabilities(outcomes)
        direct = pt.simulator.direct_probabilities(target.povm, state)
        if probs.shape != direct.shape:
            return f"{probs.size} tree probabilities for {direct.size} outcomes"
        worst = float(np.max(np.abs(probs - direct)))
        if worst > PROBABILITY_TOLERANCE:
            return f"tree and direct probabilities differ by {worst:.3e}"
        if oracle is not None:
            neumark = oracle.probabilities(state.density)
            worst = float(np.max(np.abs(probs[: neumark.size] - neumark)))
            if worst > PROBABILITY_TOLERANCE:
                return f"tree and Neumark probabilities differ by {worst:.3e}"
        return None

    rec.op("exact_query", lambda: pt.simulator.propagate(target, state), agrees)


# Two-sided tail probability of a MAX_SIGMA deviation of a normal variable.
_TAIL = math.erfc(MAX_SIGMA / math.sqrt(2))


def _implausible(count: int, p: float, shots: int) -> bool:
    """Whether count is beyond MAX_SIGMA for Binomial(shots, p).

    Below 50 expected counts the normal approximation overstates rare
    counts, so the exact Poisson tail is compared at the same level.
    """
    mean = shots * p
    if mean >= 50:
        spread = math.sqrt(mean * (1 - p))
        return abs(count - mean) > MAX_SIGMA * spread if spread else count != round(mean)
    pmf, below = math.exp(-mean), 0.0  # below = P(X < k) as k runs up to count
    for k in range(count):
        below += pmf
        pmf *= mean / (k + 1)
    return below + pmf < _TAIL or 1 - below < _TAIL


def sample(pt, case, target, state, seed: int, rec: Recorder) -> None:
    """One sample() call; its counts must be plausible for the exact probabilities."""

    def sound(report):
        if sum(report.counts) != case.shots:
            return f"{sum(report.counts)} counts for {case.shots} shots"
        # max_sigma_deviation is the package's own normal-approximation figure
        if report.max_sigma_deviation > MAX_SIGMA and any(
            _implausible(c, p, case.shots) for c, p in zip(report.counts, report.expected)
        ):
            return f"counts deviate by {report.max_sigma_deviation:.2f} sigma"
        return None

    ok, _ = rec.op("sample", lambda: pt.simulator.sample(target, state, case.shots, seed), sound)
    if ok:
        rec.counts["simulator.sample.shots"] += case.shots


def _queries_and_samples(pt, ready, rec: Recorder, first_half: bool) -> None:
    """One half of every case's queries (and the samples among them), cases in turn."""
    for q in range(max((len(c.states) for c, _, _ in ready), default=0)):
        for case, target, oracle in ready:
            n = len(case.states)
            if q >= n or (q < (n + 1) // 2) != first_half:
                continue
            query(pt, target, oracle, case.states[q], rec)
            if q in case.sample_at:
                sample(pt, case, target, case.states[q], case.sample_seed + q, rec)


def run_round(pt, cases, rec: Recorder, path: Path) -> None:
    """Trees, half of the queries and samples, file round trips, the other half.

    Queries and samples take the cases in turn and sit on both sides of the
    file round trips, so no timing rests on one short stretch of the run.
    """
    ready = []
    for case in cases:
        built = build(pt, case, rec)
        if built is not None:
            ready.append((case, *built))
    _queries_and_samples(pt, ready, rec, first_half=True)
    stored = []
    for case, tree, oracle in ready:
        target = store(pt, case, tree, rec, path) if case.store else tree
        if target is not None:
            stored.append((case, target, oracle))
    _queries_and_samples(pt, stored, rec, first_half=False)


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
    }


def child_setup(args) -> float:
    """Set-up time of a fresh interpreter making the same inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _median(values):
    return statistics.median(values) if values else None


def _tail(values, q=0.9):
    """The q-quantile, or None unless TAIL_SAMPLES samples lie beyond it."""
    if len(values) * (1 - q) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def end_to_end(setups, walls, recs, peak_rss_mb):
    """The gated end-to-end metrics, and the timings printed beside them.

    Only set-up time is a gated timing.  On a shared two-vCPU host the run
    speed switches between two levels about 1.5x apart that last for
    minutes, so every other timing, wall_s included, spread by more than
    the largest allowed bound over ten runs of unchanged code (README.md).
    """
    latency = defaultdict(list)
    for rec in recs:
        for kind, values in rec.latency.items():
            latency[kind].extend(values)
    attempted = sum(r.attempted for r in recs)
    failed = sum(sum(r.failed.values()) for r in recs)
    shots = sum(r.counts["simulator.sample.shots"] for r in recs)
    sample_ns = sum(latency["sample"])

    def ms(values):
        v = _median(values)
        return None if v is None else v / 1e6

    gated = {
        "setup_s": (_median(setups), "s"),
        "tree_file_mb": (recs[0].counts["io.tree_bytes"] / 1e6, "MB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_rate": (1 - failed / attempted, "ratio"),
    }
    shown = {
        "wall_s": (_median(walls), "s"),
        "tree_ready_p50_ms": (ms(latency["tree_ready"]), "ms"),
        "exact_query_p50_ms": (ms(latency["exact_query"]), "ms"),
        "sample_shots_per_s": (shots * 1e9 / sample_ns if sample_ns else None, "1/s"),
        "save_p50_ms": (ms(latency["save"]), "ms"),
        "load_p50_ms": (ms(latency["load"]), "ms"),
        "error_rate": (failed / attempted, "ratio"),
    }
    for kind in ("tree_ready", "exact_query"):
        tail = _tail(latency[kind])
        shown[f"{kind}_p90_ms"] = (None if tail is None else tail / 1e6, "ms")
    return gated, shown, latency, attempted, failed


def per_layer(tracer, traced, untraced, first: Recorder) -> dict:
    """Per-layer metrics: counts from the first round, times as medians."""
    summaries = [tracer.summarize(a, b) for a, b, _ in traced]
    out = {}
    for key in summaries[0]:
        if key.endswith(".calls"):
            out[key] = (summaries[0][key], "count")
        else:
            out[key] = (statistics.median(s[key] for s in summaries), "ms")
    for key in ("tree.internal_nodes", "tree.null_corrected_nodes", "simulator.sample.shots"):
        out[key] = (first.counts[key], "count")
    out["io.tree_bytes"] = (first.counts["io.tree_bytes"], "bytes")
    queries = summaries[0]["simulator.propagate.calls"]
    states = summaries[0]["simulator.QuantumState.calls"]
    out["simulator.QuantumState.per_query"] = (states / queries if queries else 0.0, "ratio")
    traced_wall = statistics.median(w for _, _, w in traced)
    untraced_wall = statistics.median(untraced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


def _print_table(rows):
    for name, (value, unit) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:36s} {shown:>14s} {unit}")


def run_workload(args) -> int:
    pt = import_package()
    make = WORKLOADS[args.workload]
    first_inputs = make(pt, np.random.default_rng([args.seed, 0]))
    setup = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup]
    if not args.trace:
        setups += [child_setup(args) for _ in range(SETUP_REPEATS - 1)]

    tracer = Tracer() if args.trace else None
    recs, walls, traced = [], [], []
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    rounds = max(2 if tracer else 1, round(args.seconds / ROUND_SECONDS[args.workload]))
    try:
        for r in range(rounds):
            inputs = first_inputs if r == 0 else make(pt, np.random.default_rng([args.seed, r]))
            tracing = tracer is not None and r % 2 == 0
            rec = Recorder()
            if tracing:
                mark = len(tracer.spans)
                tracer.install()
            t0 = time.perf_counter()
            try:
                run_round(pt, inputs, rec, tmp / "tree.json")
            finally:
                wall = time.perf_counter() - t0
                if tracing:
                    tracer.uninstall()
            if tracing:
                traced.append((mark, len(tracer.spans), wall))
            else:
                walls.append(wall)
            recs.append(rec)
            if r == 0:
                # the peak up to the end of round 0, so it does not depend
                # on how many rounds the run makes
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # drop this round's inputs and trees before the next round, so
            # the peak RSS does not depend on when the collector last ran
            inputs = first_inputs = None
            gc.collect()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment()
    e2e, shown, latency, attempted, failed = end_to_end(setups, walls, recs, peak_rss_mb)
    incorrect = sum(r.incorrect for r in recs)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} rounds={len(recs)} (traced {len(traced)})")
    print("env " + json.dumps(env))
    failures = Counter()
    messages = {}
    for rec in recs:
        failures.update(rec.failed)
        for key, message in rec.messages.items():
            messages.setdefault(key, message)
    print(f"first-round counts {json.dumps(dict(sorted(recs[0].counts.items())))} "
          f"failures {json.dumps(dict(sorted(recs[0].failed.items())))}")
    for key, n in sorted(failures.items()):
        print(f"failed {key} x{n}: {messages[key]}")

    if tracer is None:
        print(f"end-to-end ({', '.join(f'{k} n={len(v)}' for k, v in sorted(latency.items()))})")
        _print_table(e2e)
        print("timings, not gated")
        _print_table(shown)
        metrics = e2e
    else:
        metrics = per_layer(tracer, traced, walls, recs[0])
        print("per-layer (tracing overhead = trace.wall_s - trace.untraced_wall_s)")
        _print_table(metrics)
        OUT.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "env": env,
                "traced_rounds": [[a, b, w] for a, b, w in traced], **tracer.dump()}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(dump))
        print(f"spans written to {spans_file.relative_to(ROOT)}")

    correct = incorrect == 0 and all(v is not None for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
