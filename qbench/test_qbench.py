"""Tests of the benchmark itself: op generation, the gate, and the tracer.

    python3 -m pytest qbench -q

Not part of tier-1: the repository's pytest configuration collects only
``tests/``.  The tracer tests run every workload once traced and once
untraced, so they take about a minute.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from qmodes import cli  # noqa: E402
from worker import run_op  # noqa: E402


def _q(op: ops.Op) -> float:
    return float(op.argv[op.argv.index("--q") + 1])


def _bands(op: ops.Op) -> tuple[tuple[float, float], ...]:
    if op.verb == "verify algebra":
        return (ops.ALGEBRA_BAND,)
    if op.verb.startswith("qsym"):
        return (ops.SYMMETRIC_BAND,)
    return {
        "jackson moments": ops.JACKSON_BANDS,
        "coherent check": ops.COHERENT_BANDS,
        "qexp eval": ops.QEXP_BANDS,
    }[op.verb]


def _band_of(op: ops.Op) -> tuple[float, float]:
    inside = [band for band in _bands(op) if band[0] <= _q(op) <= band[1]]
    assert len(inside) == 1, (op.argv, _bands(op))
    return inside[0]


def _without_draws(op: ops.Op) -> tuple[str, ...]:
    drawn = {op.argv.index("--q") + 1}
    if "--seed" in op.argv:
        drawn.add(op.argv.index("--seed") + 1)
    return tuple("*" if i in drawn else arg for i, arg in enumerate(op.argv))


# -- op generation ------------------------------------------------------


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_same_seed_gives_identical_ops(workload):
    assert ops.workload_ops(workload, 7) == ops.workload_ops(workload, 7)


@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_other_seed_draws_other_q_in_the_same_bands(workload):
    first, second = ops.workload_ops(workload, 7), ops.workload_ops(workload, 8)
    assert len(first) == len(second)
    assert [op.verb for op in first] == [op.verb for op in second]
    assert [_q(op) for op in first] != [_q(op) for op in second]
    for a, b in zip(first, second):
        assert _band_of(a) == _band_of(b)
        assert (a.expect_failing, a.known_defect) == (b.expect_failing, b.known_defect)
    assert sorted(map(_without_draws, first)) == sorted(map(_without_draws, second))


def test_known_defects_are_exactly_the_high_q_qexp_ops():
    for seed in range(5):
        analytic = ops.workload_ops("analytic", seed)
        flagged = [op for op in analytic if op.known_defect]
        assert flagged == [op for op in analytic if op.verb == "qexp eval" and _q(op) >= 0.97]
        assert len(flagged) == ops.ANALYTIC_OPS_PER_BAND["qexp eval"]
    for workload in ("algebra", "symmetric"):
        assert not any(op.known_defect for op in ops.workload_ops(workload, 0))


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        ops.workload_ops("nonesuch", 0)


# -- the gate -----------------------------------------------------------


def _run(argv) -> tuple[int, str]:
    code, output, error = run_op(ops.Op(" ".join(argv[:2]), tuple(argv)))
    assert error is None
    return code, output


def test_negative_control_trips_exactly_the_recorded_families():
    argv = ("verify", "algebra", "--q", "0.5", "--modes", "2", "--cutoff", "6", "--inject-corruption")
    code, output = _run(argv)
    failing = {c["name"] for c in json.loads(output)["checks"] if not c["pass"]}
    assert code == 1
    assert failing == ops.NEGATIVE_CONTROL_FAMILIES
    op = ops.Op("verify algebra", argv, expect_failing=ops.NEGATIVE_CONTROL_FAMILIES)
    assert ops.judge(op, code, output).passed
    fewer = ops.Op("verify algebra", argv, expect_failing=ops.NEGATIVE_CONTROL_FAMILIES - {"mode_contraction"})
    assert not ops.judge(fewer, code, output).passed


def test_gate_rules():
    argv = ("qexp", "eval", "--q", "0.5", "--points", "4")
    code, output = _run(argv)
    certification = ops.Op("qexp eval", argv)
    verdict = ops.judge(certification, code, output)
    assert code == 0 and verdict.passed and verdict.accepted
    assert 0.0 <= verdict.worst_ratio < 1.0
    assert not ops.judge(certification, 1, output).accepted  # exit code disagrees
    assert not ops.judge(certification, 2, "").passed
    assert not ops.judge(certification, None, "", "RuntimeError: boom").accepted
    assert not ops.judge(certification, 0, "not json").accepted

    high = ("qexp", "eval", "--q", "0.98", "--points", "50")
    code, output = _run(high)
    assert code == 1
    defect = ops.judge(ops.Op("qexp eval", high, known_defect=True), code, output)
    assert not defect.passed and defect.accepted
    assert not ops.judge(ops.Op("qexp eval", high), code, output).accepted


# -- timing at reference CPU speed ---------------------------------------


def test_op_time_is_scaled_by_its_reference_and_is_the_median_over_passes():
    nominal = run.REF_NOMINAL_S

    def one_pass(seconds, ref_scale):
        return {"ops": [{"metric": "qexp_eval_s", "seconds": seconds, "ref_s": nominal * ref_scale}]}

    # The same op at half, equal and twice the reference speed: once scaled,
    # the slow and fast passes read the same as the nominal one.
    passes = [one_pass(1.0, 1.0), one_pass(2.0, 2.0), one_pass(0.5, 0.5), one_pass(9.0, 1.0)]
    ((metric, seconds),) = run.op_seconds(passes)
    assert metric == "qexp_eval_s" and seconds == pytest.approx(1.0)
    assert run.op_seconds(passes, raw=True)[0][1] == pytest.approx(1.5)
    assert run.setup_seconds({"setup_s": 0.6, "setup_ref_s": 2 * nominal}) == pytest.approx(0.3)


# -- the tracer ---------------------------------------------------------


def _run_workload(workload: str, seed: int) -> list[str]:
    """The JSON report of every op of one pass."""
    return [_run(op.argv)[1] for op in ops.workload_ops(workload, seed)]


def _stripped(reports: list[str]) -> list[str]:
    return [cli.canonical_json(cli.strip_timing(json.loads(r))) for r in reports]


def _bindings() -> dict[tuple[str, str], object]:
    snapshot = {}
    for name in tracing.BINDING_MODULES:
        module = importlib.import_module(name)
        snapshot.update({(name, attr): value for attr, value in vars(module).items()})
    return snapshot


# Public functions that no benchmark verb reaches; every other wrapped
# function must be called on the workload listed for it below.
UNREACHED = {
    "cli.render_text",
    "cli.strip_timing",
    "fock.build_state",
    "fock.coordinate_text",
    "fock.decode_occupation",
    "fock.encode_occupation",
    "fock.scale_op",
    "qcore.q_exp_series",
    "qcore.q_exp_series_tail",
    "qcore.q_multinomial",
    "qsym.bosonic_symmetrize",
}
CLI_COMMON = {
    "cli.main",
    "cli.build_parser",
    "cli.config_from_namespace",
    "cli.assemble_report",
    "cli.canonical_json",
}
EXERCISED_BY = {
    "algebra": CLI_COMMON | {"cli.run_verify_algebra", "fock.*"},
    "symmetric": CLI_COMMON
    | {"cli.run_qsym_exchange", "cli.run_qsym_norm", "cli.run_qsym_identity"}
    | {"cli.run_qsym_appendix", "qsym.*", "qpoly.*", "qcore.q_factorial"},
    "analytic": CLI_COMMON
    | {"cli.run_jackson", "cli.run_coherent", "cli.run_qexp", "qcore.*", "coherent.*"}
    | {"fock.annihilator", "fock.occupation_table"},
}


@pytest.fixture(scope="module")
def traced_runs():
    before = _bindings()
    runs = {}
    for workload in ops.WORKLOADS:
        plain = _run_workload(workload, 3)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _run_workload(workload, 3)
        finally:
            tracer.uninstall()
        runs[workload] = (plain, traced, tracer)
    return before, _bindings(), runs


def test_traced_reports_are_byte_identical(traced_runs):
    _, _, runs = traced_runs
    for workload, (plain, traced, _) in runs.items():
        assert _stripped(plain) == _stripped(traced), workload


def test_every_patched_binding_is_restored(traced_runs):
    before, after, runs = traced_runs
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    patched = set(runs["algebra"][2].patched_bindings)
    for binding in [
        ("qmodes.cli", "jackson_moment"),
        ("qmodes.cli", "q_exp"),
        ("qmodes.cli", "q_exp_via_product"),
        ("qmodes.cli", "q_factorial"),
        ("qmodes.cli", "poly_insertion_sum"),
        ("qmodes.cli", "poly_q_number"),
        ("qmodes.coherent", "jackson_integral"),
        ("qmodes.coherent", "q_exp_reciprocal"),
        ("qmodes.qsym", "q_factorial"),
        ("qmodes", "verify_algebra"),
    ]:
        assert binding in patched


def test_every_wrapped_function_is_called_where_expected(traced_runs):
    _, _, runs = traced_runs
    called = {w: {n for n, c in tracer.function_totals()[1].items() if c} for w, (_, _, tracer) in runs.items()}
    names = set(runs["algebra"][2].names)
    assert UNREACHED <= names
    assert not UNREACHED & set().union(*called.values())
    for name in names - UNREACHED:
        layer = name.split(".")[0]
        homes = [w for w, patterns in EXERCISED_BY.items() if name in patterns or f"{layer}.*" in patterns]
        assert homes, f"{name} has no workload that should exercise it"
        for workload in homes:
            assert name in called[workload], f"{name} was not called on {workload}"


def test_largest_self_time_is_the_layer_the_workload_stresses(traced_runs):
    _, _, runs = traced_runs
    expected = {"algebra": {"fock"}, "symmetric": {"qsym", "qpoly"}, "analytic": {"qcore", "coherent"}}
    for workload, (_, _, tracer) in runs.items():
        self_s = tracer.layer_self_seconds()
        assert max(self_s, key=self_s.get) in expected[workload]
