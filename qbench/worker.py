"""One pass of a workload, or one set-up probe, in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``; prints
one JSON object on its last stdout line.  Set-up is timed first, before
anything else is imported, so it sees the same cold interpreter a ``qmodes``
invocation does.

Every timed interval is bracketed by the reference loop (``reference_s``):
set-up has one run before and one after it, and the ops of a pass share one
run between each two consecutive ops.  ``run.py`` scales each time by the
mean of its two neighbouring reference times, which tracks how fast the
shared CPU ran at that moment.

    PYTHONPATH=src python3 qbench/worker.py --workload algebra --seed 1 [--trace-to F.npz]
    PYTHONPATH=src python3 qbench/worker.py --setup-only
"""

import time


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop of about 10 ms."""
    began = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - began


_ref_before = reference_s()
_setup_began = time.perf_counter()
import qmodes.cli  # noqa: E402

qmodes.cli.build_parser()
SETUP_S = time.perf_counter() - _setup_began
SETUP_REF_S = (_ref_before + reference_s()) / 2

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from ops import judge, workload_ops  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_op(op) -> tuple[int | None, str, str | None]:
    """Run one op in-process; returns (exit code, stdout, error if it raised)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qmodes.cli.main(list(op.argv) + ["--format", "json"])
    except Exception as exc:  # an op that raises is a failed op, not a crashed pass
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def run_pass(workload: str, seed: int, tracer=None) -> dict:
    """Run every op of the workload once; time, judge and trace each."""
    results = []
    began = time.perf_counter()
    ref_before = reference_s()
    for index, op in enumerate(workload_ops(workload, seed)):
        if tracer is not None:
            tracer.op_id = index
        op_began = time.perf_counter()
        code, output, error = run_op(op)
        seconds = time.perf_counter() - op_began
        ref_after = reference_s()
        verdict = judge(op, code, output, error)
        results.append(
            {
                "metric": op.metric,
                "argv": " ".join(op.argv),
                "seconds": seconds,
                "ref_s": (ref_before + ref_after) / 2,
                "code": code,
                "passed": verdict.passed,
                "accepted": verdict.accepted,
                "reason": verdict.reason,
                "worst_ratio": verdict.worst_ratio,
            }
        )
        ref_before = ref_after
    return {"wall_s": time.perf_counter() - began, "ops": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-to", default=None, help="trace the pass; write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = {"setup_s": SETUP_S, "setup_ref_s": SETUP_REF_S, "qmodes": qmodes.cli.__file__}
    if not args.setup_only:
        tracer = Tracer() if args.trace_to else None
        if tracer is not None:
            tracer.install()
        try:
            result.update(run_pass(args.workload, args.seed, tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.save(args.trace_to)
    # Linux reports ru_maxrss in KiB.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
