"""qmodes benchmark: run one workload and print its metrics as JSON.

    python3 qbench/run.py --workload algebra --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; qmodes is imported from the
checkout's ``src``.  Ops run in a closed loop from a single client.  Every
pass of the workload's op list runs in a fresh interpreter (``worker.py``),
so peak RSS and qmodes' own caches start cold the same way on every commit.
Passes repeat until ``--seconds`` is used up (at least ``MIN_PASSES``).

Times are reported at reference CPU speed.  The machine is shared, and how
fast its CPU runs our code changes by a third from second to second and
from minute to minute.  So every measured interval is scaled by
``REF_NOMINAL_S / ref``, where ``ref`` is the mean time of a fixed
pure-Python loop run just before and just after it (see ``worker.py``).  An
op's time is then the median over the passes, and set-up the median over
its probes: ``SETUP_PROBES`` extra fresh interpreters plus one per pass.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: per-verb
seconds and failure figures from the untraced passes, layer spans and
counters from the traced ones, and ``trace.overhead_s`` as the difference
of the traced and untraced pass times.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``, with exactly the metrics
and units ``BENCHMARK.json`` declares; the line before it holds the ``env``
block.  See README.md in this directory for every metric.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from ops import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".qbench_out"

MIN_PASSES = 3
# The reference loop's time on a quiet 2.0 GHz Xeon: it turns the scaled
# times back into seconds on that machine.
REF_NOMINAL_S = 0.0085
MIN_TRACED_PASSES = 2
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 150
# One BLAS thread: the benchmark is a single closed-loop client, and the
# figures should not depend on how many cores a shared machine lends it.
BLAS_THREADS = "1"

VERB_METRICS = (
    "verify_algebra_s",
    "qsym_exchange_s",
    "qsym_norm_s",
    "qsym_identity_s",
    "qsym_appendix_s",
    "jackson_moments_s",
    "coherent_check_s",
    "qexp_eval_s",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (a pass crashed or hung, or the
    wrong qmodes was imported)."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def run_worker(*args: str) -> dict:
    """Run worker.py once in a fresh interpreter and return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(
            command,
            env=_worker_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S}s: {args}") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        raise BenchError(f"worker {args} exited {done.returncode}: {' | '.join(tail)}")
    result = json.loads(lines[-1])
    if Path(result["qmodes"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"qmodes was imported from {result['qmodes']}, not from {SRC}")
    return result


def env_block() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except OSError:
        git = []
    # A checkout that is not itself a git work tree has no commit of its own.
    commit = git[1] if len(git) == 2 and Path(git[0]).resolve() == ROOT else ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit or "unknown (not a git checkout)",
    }


def _passes(args, traced: bool) -> tuple[list[dict], list[dict]]:
    """Run passes while time is left; returns (untraced, traced) pass results.

    A new pass starts only if the slowest pass so far still fits in the time
    left, once the minimum pass counts are reached.
    """
    plain: list[dict] = []
    traced_runs: list[dict] = []
    began = time.perf_counter()
    slowest = 0.0
    spans = SPANS_DIR / f"spans-{args.workload}.npz"
    while True:
        enough = len(plain) >= MIN_PASSES and (not traced or len(traced_runs) >= MIN_TRACED_PASSES)
        if enough and time.perf_counter() - began + slowest > args.seconds:
            break
        trace_this = traced and len(traced_runs) < len(plain)
        worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
        if trace_this:
            SPANS_DIR.mkdir(exist_ok=True)
            worker_args += ["--trace-to", str(spans)]
        pass_began = time.perf_counter()
        result = run_worker(*worker_args)
        slowest = max(slowest, time.perf_counter() - pass_began)
        (traced_runs if trace_this else plain).append(result)
        print(
            f"pass {'traced' if trace_this else 'plain'}: wall {result['wall_s']:.3f}s "
            f"rss {result['peak_rss_mb']:.1f}MB setup {result['setup_s']:.3f}s",
            file=sys.stderr,
        )
    return plain, traced_runs


def scaled(seconds: float, ref_s: float) -> float:
    """Seconds at reference CPU speed, from seconds measured next to a
    reference loop that took ``ref_s``."""
    return seconds * REF_NOMINAL_S / ref_s


def op_seconds(passes: list[dict], raw: bool = False) -> list[tuple[str, float]]:
    """(verb metric, median seconds over passes) for each op of the workload,
    at reference CPU speed unless ``raw``."""
    return [
        (
            ops[0]["metric"],
            statistics.median(
                op["seconds"] if raw else scaled(op["seconds"], op["ref_s"]) for op in ops
            ),
        )
        for ops in zip(*(p["ops"] for p in passes))
    ]


def setup_seconds(result: dict) -> float:
    return scaled(result["setup_s"], result["setup_ref_s"])


def worst_dev_log10(passes: list[dict]) -> float:
    """log10 of the largest deviation / --tol over the numeric checks of passed
    certification ops; -300 when every such deviation is exactly zero."""
    worst = max(op["worst_ratio"] or 0.0 for p in passes for op in p["ops"])
    return math.log10(max(worst, 1e-300))


def end_to_end(plain: list[dict], setups: list[float], failed_frac: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(s for _, s in op_seconds(plain)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "passed_op_frac": 1.0 - failed_frac,
    }


def per_layer(plain: list[dict], traced: list[dict], failed_frac: float) -> dict:
    seconds = op_seconds(plain)
    metrics = {
        name: sum((s for verb, s in seconds if verb == name), 0.0) for name in VERB_METRICS
    }
    metrics["failed_op_frac"] = failed_frac
    metrics["worst_dev_log10"] = worst_dev_log10(plain)
    traced_wall = sum(s for _, s in op_seconds(traced))
    metrics["trace.overhead_s"] = traced_wall - sum(s for _, s in seconds)
    metrics["raw_wall_s"] = sum(s for _, s in op_seconds(plain, raw=True))
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(p["layers"][name] for p in traced)
    return metrics


def judgement(passes: list[dict]) -> tuple[int, int, bool]:
    """(ops attempted, ops failed, every failure a documented known defect)."""
    ops = [op for p in passes for op in p["ops"]]
    for reason in sorted({f"{op['argv']}: {op['reason']}" for op in ops if not op["passed"]}):
        print(f"failed op: {reason}", file=sys.stderr)
    failed = sum(not op["passed"] for op in ops)
    return len(ops), failed, all(op["accepted"] for op in ops)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmodes benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmodes" / "cli.py").is_file():
        print(f"qmodes sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        print(json.dumps({"env": env_block()}))
        probes = 0 if args.trace else SETUP_PROBES
        setups = [setup_seconds(run_worker("--setup-only")) for _ in range(probes)]
        plain, traced = _passes(args, traced=bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct = judgement(plain + traced)
    if args.trace:
        values = per_layer(plain, traced, failed / attempted)
    else:
        setups += [setup_seconds(p) for p in plain]
        values = end_to_end(plain, setups, failed / attempted)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    mismatch = values.keys() ^ {m["name"] for m in section}
    if mismatch:
        print(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
