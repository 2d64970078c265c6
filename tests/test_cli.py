"""Tests for the qmodes command-line harness."""

import dataclasses
import gc
import json
import math
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from qmodes.cli import (
    EQUATION_TAGS,
    SCHEMA_VERSION,
    CheckRecord,
    ConfigError,
    RunConfig,
    assemble_report,
    build_parser,
    canonical_json,
    config_from_namespace,
    main,
    render_text,
    strip_timing,
)
from qmodes import cli, coherent, fock, qcore, qpoly, qsym
from qmodes.qpoly import QPolynomial, insertion_tallies
from qmodes.qsym import _count_vectors
from qmodes.fock import RELATION_FAMILIES
from qmodes.qcore import (
    DeformationParams,
    DomainError,
    QExpValue,
    _factors_for,
    _q_exp_product_tail,
    jackson_moment,
    q_factorial,
)
from qcore_oracle import reference_q_exp, reference_q_exp_product
from qpoly_oracle import reference_insertion_sum
from qsym_oracle import pair_matrix, reference_transposition_deviations

CORRUPTION_SENSITIVE = {
    "annihilator_annihilator_swap",
    "annihilator_creator_swap",
    "ladder_commutator_scale_product",
    "mode_contraction",
    "normal_product_diagonal",
}


def _handler(namespace):
    """The handler ``main`` would dispatch the parsed verb to."""
    return cli._verbs()[namespace.command].handler


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_verify_algebra_all_pass(capsys):
    code, out, _ = run_cli(
        ["verify", "algebra", "--q", "0.5", "--modes", "2", "--cutoff", "5"], capsys
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len([l for l in lines if l.startswith("PASS ")]) == len(RELATION_FAMILIES)
    assert lines[-1] == f"overall PASS ({len(RELATION_FAMILIES)} checks)"


def test_bad_q_is_a_config_error(capsys):
    code, _, err = run_cli(["verify", "algebra", "--q", "1.5"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_unknown_command_exits_2(capsys):
    assert run_cli(["summon"], capsys)[0] == 2
    assert run_cli([], capsys)[0] == 2


def test_version_flag_exits_0(capsys):
    code, out, err = run_cli(["--version"], capsys)
    assert code == 0
    assert "qmodes" in out + err


def test_failing_check_exits_1(capsys):
    code, out, _ = run_cli(
        ["coherent", "check", "--q", "0.5", "--z", "5.0"], capsys
    )
    assert code == 1
    assert "FAIL coherent_domain" in out


def test_zero_points_rejected(capsys):
    code, _, err = run_cli(["qexp", "eval", "--points", "0"], capsys)
    assert code == 2
    assert "points" in err


@pytest.mark.parametrize("tol", ["inf", "1e400", "1e300", "nan", "0"])
def test_a_tolerance_whose_square_is_not_finite_and_positive_is_refused(tol, capsys):
    # an infinite --tol would pass the negative control vacuously and write "tol": Infinity,
    # which strict JSON parsers refuse; coherent check squares --tol, which 1e300 overflows
    for argv in (["verify", "algebra", "--inject-corruption"], ["coherent", "check"]):
        code, out, err = run_cli(argv + ["--tol", tol, "--format", "json"], capsys)
        assert code == 2 and out == "", argv
        assert err.startswith("configuration error: --tol must be positive"), err
    code, out, err = run_cli(["coherent", "check", "--tol", "1e150"], capsys)
    assert code == 0, err


def test_a_tolerance_whose_tail_budget_underflows_is_refused_before_any_work(capsys):
    # tol^2 * 1e-2 is 0 in double precision below tol ~ 1e-161, and at 2.5e-161 it is the
    # smallest subnormal, which the cutoff search's split over the 2 modes rounds to 0
    for tol in ("1e-200", "2.5e-161"):
        code, out, err = run_cli(["coherent", "check", "--tol", tol], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"configuration error: --tol {tol} ") and "underflows to 0" in err
    # 1e-100 leaves a tail budget of 1e-202, which the builds reach; the residuals then miss tol
    code, out, err = run_cli(["coherent", "check", "--tol", "1e-100"], capsys)
    assert code == 1, err
    assert "FAIL coherent_" in out


def test_oversized_jackson_grid_is_refused_with_the_estimate(capsys):
    code, out, err = run_cli(["jackson", "moments", "--q", "0.9999999", "--N", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "configuration error" in err
    assert "grid points" in err and "above the budget" in err


# The estimates put each of these far past the budget.  Only the handler is
# traced: building the argparse parser alone allocates ~95 kB.
OVER_BUDGET = [
    ["qsym", "exchange", "--modes", "6", "--N", "10"],
    ["qsym", "appendix", "--modes", "6", "--N", "100"],
    ["qsym", "identity", "--modes", "2", "--N", "27"],
    ["verify", "algebra", "--modes", "2", "--cutoff", "10000"],
    ["coherent", "check", "--q", "0.5", "--points", "10000000"],
    ["jackson", "moments", "--q", "0.9999999", "--N", "2"],
    ["qexp", "eval", "--q", "0.99", "--points", "100000000"],
    # the moment sweeps: 1e7 records of moments that each fit the budget, and 2e7 moments
    pytest.param(["jackson", "moments", "--q", "0.01", "--N", "10000000"], id="jackson moments sweep"),
    pytest.param(["coherent", "check", "--q", "0.01", "--cutoff", "10000000"], id="coherent check completeness"),
]


@pytest.mark.parametrize("argv", OVER_BUDGET, ids=lambda argv: " ".join(argv[:2]))
def test_over_budget_requests_are_refused_before_allocating(argv, capsys):
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match="needs about .* above the budget"):
            _handler(namespace)(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 100_000
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: ") and "above the budget" in err


@pytest.mark.parametrize("seed", ["0", "3"])
def test_oversized_norm_sweep_is_refused_before_sampling(seed, capsys):
    # words up to 4^14 entries: refused whatever lengths the seed would draw
    argv = ["qsym", "norm", "--q", "0.5", "--modes", "4", "--N", "14", "--seed", seed]
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="needs about .* above the budget"):
            _handler(namespace)(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: qsym norm words up to N=14 over 4 modes needs")


def test_norm_sweep_of_the_symmetric_workload_is_admitted(capsys):
    code, out, err = run_cli(["qsym", "norm", "--q", "0.5", "--modes", "4", "--N", "9"], capsys)
    assert code == 0, err


def test_exchange_sweep_of_four_modes_and_eight_letters_is_admitted(capsys):
    # the exchange law is checked on one n^N vector per size and q, with no dense
    # n^N state per word, so 4^8 words fit the budget
    argv = ["qsym", "exchange", "--q", "0.5", "--modes", "4", "--N", "8"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert out.strip().split("\n")[-1] == "overall PASS (21 checks)"
    # 6^10 words are still refused, on the bytes of the classes, the state and a transposition
    code, _, err = run_cli(["qsym", "exchange", "--modes", "6", "--N", "10"], capsys)
    assert code == 2
    assert float(err.split("needs about ")[1].split(" bytes")[0]) > 2**30


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sweep_estimates_are_the_kernel_estimates_summed_over_the_classes(n, monkeypatch):
    # each verb prices a size from its totals; pricing every class with the kernel's
    # own estimate and summing must give the same bytes and work
    class Priced(Exception):
        pass

    def priced(request, nbytes, work):
        raise Priced(nbytes, work)

    def estimate(verb, N):
        argv = ["qsym", verb, "--q", "0.3", "0.5", "--modes", str(n), "--N", str(N)]
        namespace = build_parser().parse_args(argv)
        with pytest.raises(Priced) as raised:
            _handler(namespace)(config_from_namespace(namespace))
        return raised.value.args

    def cost(kernels, s, rows, classes=1):
        return [qsym._class_cost(kernel, n, s, classes, rows) for kernel in kernels]

    monkeypatch.setattr(cli, "check_budget", priced)
    for N in range(2, 8):
        classes = {s: [qsym._class_size(c) for c in _count_vectors(n, s)] for s in range(N + 1)}
        # each class built once; per q one state vector over all of the size's classes, and
        # at each position the exchange kernel on that vector and the transposition with its
        # square and its product with the vector
        work = 0.0
        for s in range(2, N + 1):
            per_q = qsym._transposition_cost(n, s, s - 1, 2 * (s - 1))[1] + qsym._exchange_cost(n, s, s - 1)[1]
            per_q += qsym._class_cost("symmetrize", n, s, len(classes[s]), sum(classes[s]))[1]
            for rows in classes[s]:
                work += cost(["arrangements"], s, rows)[0][1]
            work += 2 * per_q
        # the records of the size's classes and the state vector, beside one transposition
        # or one exchange kernel call, and the sweep's 3 check records per size and q and
        # its fixed objects
        nbytes = cost(["arrangements"], N, 0, len(classes[N]))[0][0]
        nbytes += qsym._class_cost("symmetrize", n, N, 1, sum(classes[N]))[0]
        nbytes += 320 * 3 * (N - 1) * 2 + 12_288
        nbytes += max(qsym._transposition_cost(n, N, 1, 0)[0], qsym._exchange_cost(n, N, 1)[0])
        # or, while the classes are built, one pass of the kernel beside the classes built
        # so far: at most _BATCH_ROWS rows, or the largest class, and at most every word
        batch_rows = min(max(qsym._BATCH_ROWS, max(classes[N])), n**N)
        batch = cost(["arrangements"], N, batch_rows, len(classes[N]))[0][0]
        nbytes = max(nbytes, batch + 16 * n**N)
        assert estimate("exchange", N) == pytest.approx((nbytes, work), rel=1e-9)

        words = [cost(["arrangements", "symmetrize"], N, rows) for rows in classes[N]]
        nbytes = max(sum(b for b, _ in word) for word in words)
        work = 2 * 25 * max(sum(w for _, w in word) for word in words)
        assert estimate("norm", N) == pytest.approx((nbytes, work), rel=1e-9)

        pairs = [cost(["arrangements", "identity"], s, rows) for s in classes for rows in classes[s]]
        work = sum(w for pair in pairs for _, w in pair)
        # one pass of the kernel, whose classes are tallied and dropped: no more classes
        # than its rows
        nbytes = cost(["arrangements"], N, batch_rows, min(len(classes[N]), batch_rows))[0][0]
        assert estimate("identity", N) == pytest.approx((nbytes, work), rel=1e-9)


def _estimated_bytes(verb, n, N, monkeypatch) -> float:
    """The bytes a qsym sweep is charged, without running it."""
    class Priced(Exception):
        pass

    def priced(request, nbytes, work):
        raise Priced(nbytes)

    namespace = build_parser().parse_args(["qsym", verb, "--modes", str(n), "--N", str(N)])
    with monkeypatch.context() as patched, pytest.raises(Priced) as raised:
        patched.setattr(cli, "check_budget", priced)
        _handler(namespace)(config_from_namespace(namespace))
    return raised.value.args[0]


@pytest.mark.parametrize("n, N", [(40, 2), (20, 3)])
def test_sweeps_charge_the_records_of_many_small_classes(n, N, monkeypatch):
    # over many modes a size has many small classes, and each holds a count tuple of n
    # entries, its record and two views: the exchange sweep keeps them all, the identity
    # sweep one pass of them
    exchange, identity = (_estimated_bytes(verb, n, N, monkeypatch) for verb in ("exchange", "identity"))
    tracemalloc.start()
    try:
        classes = list(qsym.arrangement_classes(n, N))
        _, kept = tracemalloc.get_traced_memory()
        del classes
        tracemalloc.reset_peak()
        for _ in qsym.arrangement_classes(n, N):
            pass
        _, dropped = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= exchange
    assert dropped <= identity


def _classes_built(argv, monkeypatch, capsys) -> tuple[list, int]:
    """The counts of every class a run builds, and the kernel passes that build them."""
    built, passes = [], []

    def counted(n_modes, size):
        for arrangement in build(n_modes, size):
            built.append(arrangement.counts)
            yield arrangement

    def one_pass(classes, rows):
        passes.append(len(classes))
        return build_pass(classes, rows)

    build, build_pass = qsym.arrangement_classes, qsym.arrangement_tables
    monkeypatch.setattr(qsym, "arrangement_classes", counted)
    monkeypatch.setattr(qsym, "arrangement_tables", one_pass)
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    return built, len(passes)


def test_an_exchange_sweep_builds_each_class_once(monkeypatch, capsys):
    argv = ["qsym", "exchange", "--q", "0.3", "0.9", "--modes", "3", "--N", "5"]
    built, passes = _classes_built(argv, monkeypatch, capsys)
    # 6 + 10 + 15 + 21 classes of 2 to 5 letters over 3 modes, for both q values,
    # each size's classes in one pass of the kernel
    assert len(built) == len(set(built)) == 52
    assert passes == 4


def test_an_identity_sweep_builds_each_class_once(monkeypatch, capsys):
    argv = ["qsym", "identity", "--q", "0.5", "--modes", "3", "--N", "5"]
    built, passes = _classes_built(argv, monkeypatch, capsys)
    # 1 + 3 + 6 + 10 + 15 + 21 classes of 0 to 5 letters over 3 modes, one pass per size
    assert len(built) == len(set(built)) == 56
    assert passes == 6


def test_an_identity_sweep_takes_a_thousand_modes(capsys):
    # 1 + 1000 classes of at most one letter; the count vectors are not built by recursion
    code, out, err = run_cli(["qsym", "identity", "--q", "0.5", "--modes", "1000", "--N", "1"], capsys)
    assert code == 0, err
    assert out.strip().split("\n")[-1] == "overall PASS (2 checks)"


def test_an_identity_sweep_forms_one_multinomial_per_multiset_of_counts(monkeypatch, capsys):
    formed = []

    def counted(counts):
        formed.append(tuple(counts))
        return multinomial(counts)

    multinomial = cli.poly_q_multinomial
    monkeypatch.setattr(cli, "poly_q_multinomial", counted)
    code, out, err = run_cli(["qsym", "identity", "--q", "0.5", "--modes", "3", "--N", "5"], capsys)
    assert code == 0, err
    assert out.strip().split("\n")[-1] == "overall PASS (6 checks)"
    # the 56 classes of 0 to 5 letters over 3 modes have 1 + 1 + 2 + 3 + 4 + 5 multisets
    # of counts, the partitions of each total into at most 3 parts
    assert len(formed) == len(set(formed)) == 16


@pytest.mark.parametrize(
    "argv",
    [
        ["qsym", "identity", "--q", "0.5", "--modes", "2", "--N", "18"],
        ["qsym", "exchange", "--q", "0.5", "--modes", "4", "--N", "7"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_qsym_requests_hold_nothing_once_they_return(argv, capsys):
    # no class, state or transposition outlives its request
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, _, err = run_cli(argv, capsys)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert held < 2**20


def test_verify_algebra_requests_hold_nothing_once_they_return(capsys):
    # no occupation table, operator or amplitude grid outlives its request
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for shape in (["--modes", "2", "--cutoff", "1000"], ["--modes", "6", "--cutoff", "7"]):
            code, _, err = run_cli(["verify", "algebra", "--q", "0.5"] + shape, capsys)
            assert code == 0, err
            assert tracemalloc.get_traced_memory()[0] - before < 2**20, shape
    finally:
        tracemalloc.stop()


def test_a_long_moment_sweep_holds_one_bracket_table_once_it_returns(tmp_path, capsys):
    # only the one cached read-only table of brackets per q outlives the request: 2^15
    # floats, 262 kB
    out = ["--out", str(tmp_path / "report.txt")]
    run_cli(["jackson", "moments", "--q", "0.5", "--N", "1"] + out, capsys)  # the parser and lazy imports
    qcore._bracket_values.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, _, err = run_cli(["jackson", "moments", "--q", "0.05", "--N", "20000"] + out, capsys)
        gc.collect()  # also empties the free lists that keep spare tuples and floats
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert held < 0.5e6


@pytest.mark.parametrize(
    "argv",
    [["--modes", "4", "--N", "7"], ["--q", "0.3", "0.6", "--modes", "6", "--N", "5"], [], ["--modes", "3", "--N", "6"]],
)
def test_exchange_sweep_peaks_within_its_estimate(argv, monkeypatch):
    estimates = []

    def recorded(request, nbytes, work):
        estimates.append(nbytes)
        check_budget(request, nbytes, work)

    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", recorded)
    namespace = build_parser().parse_args(["qsym", "exchange"] + argv)
    config = config_from_namespace(namespace)
    tracemalloc.start()
    try:
        _handler(namespace)(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimates[0] / 2 < peak <= estimates[0]


def test_exchange_sweep_keeps_one_transposition_at_a_time():
    # 4^8 words: each transposition's pair takes 16 B per word (an int64 swapped word and
    # a float64 weight), and the sweep used to keep the seven of the top size together
    peak = _handler_peak(["qsym", "exchange", "--q", "0.5", "--modes", "4", "--N", "8"])
    assert peak < 16 * 4**8 * 7


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transposition_records_equal_the_per_class_dense_route(n, capsys):
    argv = ["qsym", "exchange", "--q", "0.05", "0.5", "0.999", "--modes", str(n), "--N", "6"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0, err
    names = {"qsym_transposition_inverse": 0, "qsym_transposition_invariance": 1}
    records = json.loads(out)["checks"]
    checks = [c for c in records if c["name"] in names]
    assert len(checks) == 2 * 3 * 5
    for check in checks:
        q, size = check["params"]["q"], check["params"]["N"]
        deviations = reference_transposition_deviations(size, n, DeformationParams(q))
        assert check["deviation"] == deviations[names[check["name"]]], check
    # the exchange kernel's level-0 residuals are the entries of T|w>_q - |w>_q: each
    # (q, N) reports the same largest one, bit for bit
    deviation = {(c["name"], c["params"]["q"], c["params"]["N"]): c["deviation"] for c in records}
    for name, q, size in list(deviation):
        if name == "qsym_exchange":
            assert deviation[name, q, size] == deviation["qsym_transposition_invariance", q, size], (q, size)


def test_seven_modes_and_long_one_mode_words_are_accepted(capsys):
    # 7^2 entries in seven modes, and one 200-letter word in a single mode
    for modes, word in (("7", "1,2"), ("1", ",".join(["1"] * 200))):
        argv = ["qsym", "norm", "--q", "0.5", "--modes", modes, "--word", word]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert out.startswith("1.0\n")


def test_unwritable_report_path_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    argv = ["qsym", "norm", "--q", "0.5", "--word", "2,1", "--out", str(target)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("configuration error: ")
    assert not target.exists()


def test_large_moments_near_q_one_stay_in_the_float_range(capsys):
    # x^120 overflows on the first grid points while their weight underflows;
    # the moment itself, [120]! ~ 5.8e195 at q = 0.999, is representable
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["jackson", "moments", "--q", "0.999", "--N", "120", "--format", "json"], capsys
        )
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert len(checks) == 121 and all(check["pass"] for check in checks)
    params = DeformationParams(0.999)
    value = jackson_moment(params, 120, rel_tol=1e-14)
    assert 5.8e195 < value < 5.9e195
    assert abs(value / q_factorial(params, 120) - 1.0) < 1e-12


def _per_level_route(params, beta, rel_tol, cap=3000):
    """|M_m / [m]! - 1| level by level, each [m]! from q_factorial, up to the first level
    outside the float range (returned with the error raised there) or ``cap`` levels."""
    deviations = []
    for m in range(cap):
        try:
            deviations.append(abs(jackson_moment(params, m, beta, rel_tol) / q_factorial(params, m) - 1.0))
        except (DomainError, OverflowError) as exc:
            return deviations, exc
    return deviations, None


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99])
def test_moment_sweeps_equal_the_per_level_factorial_route(q, capsys):
    # both sweeps read [m]! as a running product; every deviation must be the per-level
    # route's, bit for bit, up to the float range (q = 0.05 stops at 3000 levels before it)
    params = DeformationParams(q)
    routes = {beta: _per_level_route(params, beta, 1e-15) for beta in (2, 1)}
    for beta, (expected, stop) in routes.items():
        assert list(qcore._moment_deviations(params, len(expected), beta)) == expected
        if stop is not None:
            with pytest.raises(type(stop)) as raised:
                list(qcore._moment_deviations(params, len(expected) + 1, beta))
            assert str(raised.value) == str(stop)
    assert (q == 0.05) == (routes[2][1] is None)
    levels = min(len(expected) for expected, _ in routes.values())
    report = coherent.check_completeness(params, levels + 1)
    assert list(report.deviations) == routes[2][0][:levels]
    assert report.alternate_max_deviation == max(routes[1][0][:levels])

    expected, stop = _per_level_route(params, 2, 1e-12)  # jackson moments at its default --tol
    argv = ["jackson", "moments", "--q", str(q), "--format", "json"]
    out = run_cli(argv + ["--N", str(len(expected) - 1)], capsys)[1]
    checks = sorted(json.loads(out)["checks"], key=lambda check: check["params"]["n"])
    assert [check["deviation"] for check in checks] == expected
    if stop is not None:
        code, out, err = run_cli(argv + ["--N", str(len(expected))], capsys)
        assert (code, out, err) == (2, "", f"configuration error: {stop}\n")


def test_removed_exact_flag_is_rejected(capsys):
    assert run_cli(["qsym", "identity", "--N", "2", "--exact"], capsys)[0] == 2


def test_coherent_verdicts_follow_tol(capsys):
    argv = ["coherent", "check", "--q", "0.5", "--modes", "1", "--points", "1"]
    code, out, _ = run_cli(argv + ["--tol", "1e-20", "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    (completeness,) = [c for c in report["checks"] if c["name"] == "coherent_completeness"]
    assert not completeness["pass"]
    assert completeness["deviation"] > 1e-20


# Every verb at its defaults; the number/ladder commutator, which passes only on its
# rounding allowance at --tol 1e-20; and the eigenvalue checks at a --tol that their
# allowances decide.
RECOMPUTED = [command.split() for command in cli._verbs()] + [
    ["verify", "algebra", "--q", "0.5", "--modes", "2", "--cutoff", "40", "--tol", "1e-20"],
    ["coherent", "check", "--q", "0.5", "0.96", "--modes", "3", "--points", "2", "--tol", "1e-9"],
    ["coherent", "check", "--q", "0.5", "0.96", "--modes", "3", "--points", "2", "--tol", "1e-20"],
]
ALLOWANCES = ("tail_allowance", "rounding_allowance")  # in the order they are added


def test_every_numeric_verdict_can_be_recomputed_from_its_report(capsys):
    for argv in RECOMPUTED:
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code in (0, 1), err
        report = json.loads(out)
        if "--points" in argv:  # 2 q, 2 points, 3 modes
            assert sum(check["name"] == "coherent_eigenvalue" for check in report["checks"]) == 2 * 2 * 3
        for check in [check for check in report["checks"] if check.get("deviation") is not None]:
            params = check["params"]
            assert {key for key in params if key.endswith("_allowance")} <= set(ALLOWANCES), check
            threshold = report["config"]["tol"]
            for key in ALLOWANCES:
                if key in params:
                    assert (0.0 < params[key] < 1e-12) if key == "rounding_allowance" else params[key] >= 0.0
                    threshold += params[key]
            assert check["pass"] == (check["deviation"] < threshold), (argv, check)


@pytest.mark.parametrize("modes", [3, 8])
def test_many_mode_coherent_checks_run_in_bounded_memory(modes, capsys):
    tracemalloc.start()
    try:
        code = main(["coherent", "check", "--q", "0.5", "--modes", str(modes), "--points", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS coherent_eigenvalue") == 2 * modes
    assert peak < 10_000_000


# ---------------------------------------------------------------------------
# documented one-line outputs


def test_norm_of_two_one_word(capsys):
    code, out, _ = run_cli(["qsym", "norm", "--word", "2,1", "--q", "0.5"], capsys)
    assert code == 0
    assert out.split("\n")[0] == "0.25"


def test_norm_of_sorted_word_is_one(capsys):
    code, out, _ = run_cli(["qsym", "norm", "--word", "1,2,3", "--q", "0.7"], capsys)
    assert code == 0
    assert out.split("\n")[0] == "1.0"


def test_qexp_point_evaluation_prints_value(capsys):
    code, out, _ = run_cli(
        ["qexp", "eval", "--q", "0.5", "--x", "0.25"], capsys
    )
    assert code == 0
    assert out.startswith("exp_q(")


def test_qexp_outside_disk_fails_without_deviation(capsys):
    code, out, _ = run_cli(["qexp", "eval", "--q", "0.5", "--x", "2.0"], capsys)
    assert code == 1
    assert "deviation=n/a" in out


def _per_point_series(params, xs):
    return [reference_q_exp(params, x) for x in xs]


def _per_point_product(params, xs):
    values = []
    for x in xs:
        factors = _factors_for(params, x, 1e-15)
        value = reference_q_exp_product(params, x, factors)
        values.append(QExpValue(value, _q_exp_product_tail(params, x, factors) * abs(value), factors))
    return values


@pytest.mark.parametrize("points", ["50", "2000"])
@pytest.mark.parametrize("q", ["0.3", "0.9", "0.98"])
def test_qexp_sweep_reports_equal_the_per_point_route(q, points, monkeypatch, capsys):
    argv = ["qexp", "eval", "--q", q, "--points", points, "--format", "json"]
    code, out, err = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "q_exp_points", _per_point_series)
    monkeypatch.setattr(cli, "q_exp_via_product_points", _per_point_product)
    expected_code, expected, expected_err = run_cli(argv, capsys)
    assert (code, err) == (expected_code, expected_err)
    assert canonical_json(strip_timing(json.loads(out))) == canonical_json(strip_timing(json.loads(expected)))
    # route agreement fails near q = 1, with the same deviations (a known defect)
    assert code == (1 if q == "0.98" else 0)


def test_qexp_sweep_peaks_under_a_megabyte_whatever_its_points(capsys):
    # the kernels take a bounded batch of samples per call and keep a block's terms in numpy
    peaks = []
    for points in ("200", "400"):
        tracemalloc.start()
        try:
            code, _, err = run_cli(["qexp", "eval", "--q", "0.98", "--points", points], capsys)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 1, err
    assert max(peaks) < 2**20
    assert peaks[1] < 1.25 * peaks[0]


def _peak_and_estimate(argv, monkeypatch):
    """The traced peak of the request ``argv`` once parsed, run with the per-q tables cleared,
    and the bytes its handler estimated for it: the handler, then its report as JSON."""
    estimates = []

    def recorded(request, nbytes, work):
        estimates.append(nbytes)
        check_budget(request, nbytes, work)

    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", recorded)
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    qcore._bracket_values.cache_clear()
    qcore._coefficients.cache_clear()
    tracemalloc.start()
    try:
        records, _ = _handler(namespace)(config)
        canonical_json(assemble_report(config, records))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, estimates[0]


# the points near q = 1 take one product block per point, past _PRODUCT_ENTRIES factors each
@pytest.mark.parametrize(
    ("q", "points"),
    [(q, points) for q in ("0.3", "0.9", "0.98", "0.99") for points in ("50", "200", "400")]
    + [(q, points) for q in ("0.998", "0.999") for points in ("1", "7")],
)
def test_qexp_sweep_peaks_within_its_estimate(q, points, monkeypatch):
    peak, estimate = _peak_and_estimate(["qexp", "eval", "--q", q, "--points", points], monkeypatch)
    assert 0.3 * estimate <= peak <= estimate


# 100 points at q = 0.9 and 0.99 hold too (0.82 to 0.96), but take up to 17 s each under tracemalloc
@pytest.mark.parametrize(
    "shape",
    [["--q", q, "--modes", modes, "--points", "2"] for q in ("0.5", "0.9", "0.99") for modes in ("2", "3", "8")]
    + [["--q", "0.5", "--modes", modes, "--points", "100"] for modes in ("2", "3", "8")]
    + [["--q", "0.5", "--z", "0.9,0.4+0.3j"]],
    ids=" ".join,
)
def test_coherent_check_peaks_within_its_estimate(shape, monkeypatch):
    peak, estimate = _peak_and_estimate(["coherent", "check"] + shape, monkeypatch)
    assert 0.3 * estimate <= peak <= estimate


# ---------------------------------------------------------------------------
# qsym appendix: the insertion kernel in passes


def test_appendix_passes_tally_every_vector_once_and_in_order(monkeypatch):
    # 2 vectors of 3 slots a pass: the 21 vectors of total 5 take 11 passes
    monkeypatch.setattr(cli, "_INSERTION_ROWS", 8)
    passes = []

    def recorded(counts):
        table = insertion_tallies(counts)
        passes.append((counts.tolist(), table.tolist()))
        return table

    monkeypatch.setattr(cli, "insertion_tallies", recorded)
    namespace = build_parser().parse_args(["qsym", "appendix", "--modes", "3", "--N", "5"])
    records, _ = _handler(namespace)(config_from_namespace(namespace))
    assert all(record.passed for record in records)
    assert [len(c) for c, _ in passes if sum(c[0]) == 5] == [2] * 10 + [1]
    for total in range(6):
        vectors = [tuple(v) for c, _ in passes for v in c if sum(v) == total]
        rows = [r for c, t in passes if sum(c[0]) == total for r in t]
        assert vectors == list(_count_vectors(3, total))
        for counts, slots in zip(vectors, rows):
            for slot, row in enumerate(slots, start=1):
                assert QPolynomial({2 * k: c for k, c in enumerate(row)}) == reference_insertion_sum(counts, slot)


@pytest.mark.parametrize("row", [0, -1], ids=["first row", "last row"])
def test_appendix_fails_exactly_the_total_whose_tally_is_wrong(row, monkeypatch, capsys):
    # one coefficient of one (vector, slot) row of the second pass of total 4 is off by one;
    # the comparison itself is left alone
    monkeypatch.setattr(cli, "_INSERTION_ROWS", 8)
    kernel = cli.insertion_tallies
    seen = []

    def corrupted(counts):
        table = kernel(counts)
        if counts.sum(axis=1)[0] == 4:
            seen.append(len(counts))
            if len(seen) == 2:
                table[row, row, 1] += 1
        return table

    monkeypatch.setattr(cli, "insertion_tallies", corrupted)
    code, out, _ = run_cli(["qsym", "appendix", "--modes", "3", "--N", "6", "--format", "json"], capsys)
    assert code == 1 and len(seen) == 8
    verdicts = {check["params"]["total"]: check["pass"] for check in json.loads(out)["checks"]}
    assert verdicts == {total: total != 4 for total in range(7)}


@pytest.mark.parametrize("extra", [1, 8], ids=["odd exponent", "past 2N"])
def test_appendix_fails_a_target_with_a_term_no_tally_can_hold(extra, monkeypatch, capsys):
    # the target bracket of total 3, [4], gains a term at q^extra
    bracket = cli.poly_q_number
    monkeypatch.setattr(cli, "poly_q_number", lambda m: bracket(m) + QPolynomial.monomial(extra) if m == 4 else bracket(m))
    code, out, _ = run_cli(["qsym", "appendix", "--modes", "2", "--N", "5", "--format", "json"], capsys)
    assert code == 1
    verdicts = {check["params"]["total"]: check["pass"] for check in json.loads(out)["checks"]}
    assert verdicts == {total: total != 3 for total in range(6)}


def _handler_peak_and_estimate(argv, monkeypatch):
    """The traced peak of the handler alone on ``argv``, from cold target brackets, and the
    bytes it estimated for the request."""
    estimates = []

    def recorded(request, nbytes, work):
        estimates.append(nbytes)
        check_budget(request, nbytes, work)

    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", recorded)
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    qpoly._bracket.cache_clear()
    tracemalloc.start()
    try:
        _handler(namespace)(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, estimates[0]


# (6, 6), (8, 8) and (40, 3) take several passes on their top total; (2, 300) is held by the
# cached target brackets rather than by its one pass
@pytest.mark.parametrize("n, N", [(3, 6), (4, 8), (6, 6), (8, 8), (40, 3), (2, 300)])
def test_appendix_peaks_within_its_estimate(n, N, monkeypatch):
    argv = ["qsym", "appendix", "--modes", str(n), "--N", str(N)]
    peak, estimate = _handler_peak_and_estimate(argv, monkeypatch)
    assert 0.3 * estimate <= peak <= estimate


# ---------------------------------------------------------------------------
# negative control


def test_injected_corruption_trips_exactly_the_sensitive_families(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "algebra",
            "--q",
            "0.5",
            "--modes",
            "2",
            "--cutoff",
            "5",
            "--inject-corruption",
        ],
        capsys,
    )
    assert code == 1
    failed = {
        line.split()[1] for line in out.strip().split("\n") if line.startswith("FAIL ")
    }
    assert failed == CORRUPTION_SENSITIVE


@pytest.mark.parametrize(("modes", "cutoff"), [(2, 6), (3, 8)])
def test_negative_controls_trip_exactly_the_sensitive_families(modes, cutoff, capsys):
    argv = ["verify", "algebra", "--q", "0.5", "--modes", str(modes), "--cutoff", str(cutoff)]
    code, out, _ = run_cli(argv + ["--inject-corruption"], capsys)
    assert code == 1
    failed = {
        line.split()[1] for line in out.strip().split("\n") if line.startswith("FAIL ")
    }
    assert failed == CORRUPTION_SENSITIVE


def _handler_peak(argv) -> int:
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    tracemalloc.start()
    try:
        _handler(namespace)(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(("modes", "cutoff"), [(6, 6), (7, 5)])
def test_negative_control_holds_one_annihilator_more_than_the_honest_run(modes, cutoff, capsys):
    # only the corrupted a_1 is passed in; the honest annihilators are built one at a time
    argv = ["verify", "algebra", "--q", "0.5", "--modes", str(modes), "--cutoff", str(cutoff)]
    honest, corrupted = _handler_peak(argv), _handler_peak(argv + ["--inject-corruption"])
    assert corrupted - honest <= 16 * cutoff**modes
    code, out, _ = run_cli(argv + ["--inject-corruption"], capsys)
    assert code == 1
    failed = {line.split()[1] for line in out.strip().split("\n") if line.startswith("FAIL ")}
    assert failed == CORRUPTION_SENSITIVE


def test_large_occupations_pass_the_number_ladder_commutator(capsys):
    # deviation 1.6e-12 against --tol 1e-12, inside the family's rounding allowance
    argv = ["verify", "algebra", "--q", "0.2", "--modes", "1", "--cutoff", "10000"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "PASS number_ladder_commutator" in out


def test_corruption_needs_two_modes(capsys):
    code, _, err = run_cli(
        ["verify", "algebra", "--modes", "1", "--inject-corruption"], capsys
    )
    assert code == 2
    assert "negative control" in err


# ---------------------------------------------------------------------------
# JSON report shape and determinism


def test_json_report_schema(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        [
            "verify",
            "algebra",
            "--q",
            "0.5",
            "--modes",
            "2",
            "--cutoff",
            "4",
            "--format",
            "json",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    report = json.loads(text)
    assert set(report) == {"schema_version", "tool_version", "config", "checks"}
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["config"]["command"] == "verify algebra"
    for check in report["checks"]:
        assert set(check) >= {"name", "paper_ref", "params", "pass", "millis"}
        assert ("deviation" in check) != ("exact_match" in check)
        assert check["paper_ref"] == EQUATION_TAGS[check["name"]]
    # canonical serialization round-trips byte for byte
    assert canonical_json(report) == text


def test_json_reports_are_deterministic_modulo_timing(capsys):
    argv = [
        "qsym",
        "exchange",
        "--q",
        "0.5",
        "--modes",
        "2",
        "--N",
        "3",
        "--format",
        "json",
    ]
    first = json.loads(run_cli(argv, capsys)[1])
    second = json.loads(run_cli(argv, capsys)[1])
    assert canonical_json(strip_timing(first)) == canonical_json(strip_timing(second))


def test_each_algebra_family_carries_its_own_timing(monkeypatch, capsys):
    # each record's millis is its own family's time, as verify_algebra reports it
    verify = fock.verify_algebra
    seconds = {name: 0.004 * (k + 1) for k, name in enumerate(RELATION_FAMILIES)}
    monkeypatch.setattr(fock, "verify_algebra", lambda *a, **k: dataclasses.replace(verify(*a, **k), seconds=seconds))
    code, out, err = run_cli(["verify", "algebra", "--q", "0.5", "0.9", "--format", "json"], capsys)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert len(checks) == 2 * len(RELATION_FAMILIES)
    for check in checks:
        assert check["millis"] == round(1000 * seconds[check["name"]]), check


def test_stripped_algebra_reports_are_byte_identical(capsys):
    for extra in ([], ["--modes", "3", "--cutoff", "8", "--inject-corruption"]):
        argv = ["verify", "algebra", "--q", "0.3", "0.7", "--format", "json"] + extra
        first, second = (json.loads(run_cli(argv, capsys)[1]) for _ in range(2))
        assert canonical_json(strip_timing(first)) == canonical_json(strip_timing(second))
        assert all(check["millis"] == 0 for check in strip_timing(first)["checks"])


def test_checks_are_sorted_by_name_then_params(capsys):
    _, out, _ = run_cli(
        ["jackson", "moments", "--q", "0.5", "0.3", "--N", "2", "--format", "json"],
        capsys,
    )
    report = json.loads(out)
    keys = [
        (check["name"], json.dumps(check["params"], sort_keys=True))
        for check in report["checks"]
    ]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# text rendering and config plumbing


def test_render_text_formats():
    report = {
        "checks": [
            {
                "name": "alpha",
                "paper_ref": "Eq.1",
                "params": {"q": 0.5},
                "pass": True,
                "deviation": 1e-15,
                "millis": 3,
            },
            {
                "name": "beta",
                "paper_ref": "Eq.25",
                "params": {"N": 4},
                "pass": True,
                "exact_match": True,
                "millis": 0,
            },
        ]
    }
    text = render_text(report)
    assert "PASS alpha [Eq.1] q=0.5 deviation=1.000e-15" in text
    assert "PASS beta [Eq.25] N=4 exact_match=True" in text
    assert text.endswith("overall PASS (2 checks)\n")


def test_config_defaults_per_verb():
    parser = build_parser()
    ns = parser.parse_args(["verify", "algebra"])
    config = config_from_namespace(ns)
    assert config.q_values == (0.3, 0.5, 0.9)
    assert (config.modes, config.cutoff, config.particles) == (2, 6, 4)
    assert config.tol == 1e-12
    assert config.weight_variant == "squared-q"
    assert config.variant.value == "squared_q"
    ns = parser.parse_args(["coherent", "check"])
    config = config_from_namespace(ns)
    assert config.cutoff == 8
    assert config.tol == 1e-9
    assert config.points == 4
    for argv, defaults in VERB_DEFAULTS.items():
        config = config_from_namespace(parser.parse_args(argv.split()))
        assert config.command == argv
        assert (config.q_values, config.output_format, config.output_path) == ((0.3, 0.5, 0.9), "text", None)
        assert {field: getattr(config, field) for field in defaults} == defaults, argv


# The defaults of --tol and of every option each verb reads, by RunConfig field.
VERB_DEFAULTS = {
    "verify algebra": dict(tol=1e-12, modes=2, cutoff=6, inject_corruption=False),
    "coherent check": dict(tol=1e-9, modes=2, cutoff=8, points=4, weight_variant="squared-q", z=None),
    "qexp eval": dict(tol=1e-12, points=50, x=None),
    "jackson moments": dict(tol=1e-10, particles=10),
    "qsym exchange": dict(tol=1e-13, modes=3, particles=4),
    "qsym norm": dict(tol=1e-12, modes=3, particles=5, seed=0, word=None),
    "qsym identity": dict(tol=1e-12, modes=3, particles=6),
    "qsym appendix": dict(tol=1e-12, modes=3, particles=6),
}

# Per verb: a small run, the config keys its report echoes beyond the envelope,
# and one option the verb does not read.
VERB_TABLE = {
    "verify algebra": ("--cutoff 4", {"modes", "cutoff", "inject_corruption"}, "--N 3"),
    "coherent check": ("--modes 1 --points 1", {"modes", "cutoff", "points", "weight_variant", "z"}, "--seed 1"),
    "qexp eval": ("--points 2", {"points", "x"}, "--modes 2"),
    "jackson moments": ("--N 1", {"N"}, "--seed 1"),
    "qsym exchange": ("--modes 2 --N 2", {"modes", "N"}, "--points 3"),
    "qsym norm": ("--modes 2 --N 3", {"modes", "N", "seed", "word"}, "--cutoff 5"),
    "qsym identity": ("--modes 2 --N 3", {"modes", "N"}, "--cutoff 5"),
    "qsym appendix": ("--modes 2 --N 3", {"modes", "N"}, "--x 0.5"),
}
ENVELOPE_KEYS = {"command", "q", "tol", "format", "out"}


def test_each_verb_echoes_and_accepts_only_the_options_it_reads(capsys):
    from qmodes.cli import _verbs

    assert set(VERB_TABLE) == set(_verbs()) == set(VERB_DEFAULTS)
    for command, (options, echoed, unread) in VERB_TABLE.items():
        argv = command.split() + ["--q", "0.5"] + options.split()
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0, (argv, err)
        config = json.loads(out)["config"]
        assert set(config) == ENVELOPE_KEYS | echoed, command
        assert config["q"] == [0.5] and config["tol"] == VERB_DEFAULTS[command]["tol"]
        code, out, err = run_cli(argv + unread.split(), capsys)
        assert code == 2 and out == "", (command, unread)
        assert f"unrecognized arguments: {unread}" in err
        # --help shows the default of every option the verb takes
        code, out, _ = run_cli(command.split() + ["--help"], capsys)
        assert code == 0 and out.count("(default:") == len(ENVELOPE_KEYS) - 1 + len(echoed)


def test_main_keeps_one_parser_and_runs_the_handler_bound_at_each_call(monkeypatch, capsys):
    code, out, _ = run_cli(["jackson", "moments", "--q", "0.5", "--N", "1"], capsys)
    assert code == 0 and out.endswith("overall PASS (2 checks)\n")
    parser = build_parser()
    calls = []

    def patched(config):
        calls.append(config.particles)
        return [], ["patched"]

    monkeypatch.setattr(cli, "run_jackson", patched)
    code, out, _ = run_cli(["jackson", "moments", "--q", "0.5", "--N", "3"], capsys)
    assert code == 0 and calls == [3]
    assert out == "patched\noverall PASS (0 checks)\n"
    assert build_parser() is parser


def test_an_unread_option_is_reported_by_the_verbs_own_parser(capsys):
    code, out, err = run_cli(["qexp", "eval", "--q", "0.5", "--modes", "2"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("usage: qmodes qexp eval")
    assert "unrecognized arguments: --modes 2" in err


@pytest.mark.parametrize("argv", [["coherent", "check", "--z", ""], ["qexp", "eval", "--x", ""]])
def test_an_empty_point_is_a_config_error(argv, capsys):
    code, out, err = run_cli(argv + ["--q", "0.5"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot parse")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["qexp", "eval", "--x", "nan"], "--x value 'nan' is not a number"),
        (["qexp", "eval", "--x", "0.1+nanj"], "--x value '0.1+nanj' is not a number"),
        (["coherent", "check", "--z", "nan"], "--z value 'nan' has an entry that is not a number"),
        (["coherent", "check", "--z", "0.5,nanj"], "--z value '0.5,nanj' has an entry that is not a number"),
    ],
)
def test_a_nan_point_is_a_config_error_naming_the_option(argv, message, capsys):
    code, out, err = run_cli(argv + ["--q", "0.5"], capsys)
    assert code == 2 and out == ""
    assert err == f"configuration error: {message}\n"


def test_nan_points_are_outside_every_disk():
    params = DeformationParams(0.5)
    for x in (math.nan, complex(0.1, math.nan)):
        with pytest.raises(DomainError, match="outside the open convergence disk"):
            qcore.q_exp(params, x)
        with pytest.raises(DomainError, match="outside the open disk"):
            coherent.CoherentSpec((x,), params, 4)
        with pytest.raises(DomainError, match="outside the open disk"):
            coherent.suggest_cutoff(params, (x,))


def test_a_malformed_word_is_a_config_error_naming_the_option(capsys):
    code, out, err = run_cli(["qsym", "norm", "--q", "0.5", "--word", "2,x"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot parse --word value '2,x'")


def test_runconfig_validate_rejects_bad_values():
    base = dict(command="verify algebra")
    for overrides in (
        {"q_values": (0.0,)},
        {"q_values": ()},
        {"modes": 0},
        {"cutoff": 1},
        {"particles": -1},
        {"tol": 0.0},
        {"points": 0},
        {"weight_variant": "cubed-q"},
    ):
        with pytest.raises(ConfigError):
            RunConfig(**base, **overrides).validate()


def test_assemble_report_echoes_config():
    config = RunConfig(command="jackson moments", q_values=(0.5,))
    record = CheckRecord(
        name="jackson_moment", params={"q": 0.5, "n": 0}, passed=True, deviation=0.0
    )
    report = assemble_report(config, [record])
    assert report["config"]["q"] == [0.5]
    assert report["checks"][0]["pass"] is True


def test_every_record_name_has_an_equation_tag(capsys):
    for argv in (
        ["verify", "algebra", "--q", "0.5", "--cutoff", "4"],
        ["qexp", "eval", "--q", "0.5", "--points", "2"],
        ["jackson", "moments", "--q", "0.5", "--N", "1"],
        ["qsym", "exchange", "--q", "0.5", "--modes", "2", "--N", "2"],
        ["qsym", "norm", "--q", "0.5", "--modes", "2", "--N", "3"],
        ["qsym", "identity", "--modes", "2", "--N", "3"],
        ["qsym", "appendix", "--modes", "2", "--N", "3"],
        ["coherent", "check", "--q", "0.5", "--points", "1", "--modes", "1"],
    ):
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0, (argv, err)
        report = json.loads(out)
        assert report["checks"], argv
        for check in report["checks"]:
            assert check["pass"], (argv, check)
            assert check["paper_ref"].startswith("Eq."), check


# ---------------------------------------------------------------------------
# installed entry points


def test_module_invocation():
    result = subprocess.run(
        [sys.executable, "-m", "qmodes", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "qmodes" in result.stdout + result.stderr


# ---------------------------------------------------------------------------
# scipy stays off every verb's path

BENCHMARK_VERBS = [
    ["verify", "algebra", "--q", "0.5", "--modes", "2", "--cutoff", "6"],
    ["verify", "algebra", "--q", "0.5", "--modes", "2", "--cutoff", "6", "--inject-corruption"],
    ["qsym", "exchange", "--q", "0.5", "--modes", "3", "--N", "3"],
    ["qsym", "norm", "--q", "0.5", "--modes", "2", "--N", "3", "--seed", "1"],
    ["qsym", "identity", "--q", "0.5", "--modes", "2", "--N", "3"],
    ["qsym", "appendix", "--q", "0.5", "--modes", "2", "--N", "3"],
    ["jackson", "moments", "--q", "0.5", "--N", "3"],
    ["coherent", "check", "--q", "0.5", "--points", "1", "--modes", "1"],
    ["qexp", "eval", "--q", "0.5", "--points", "4"],
]


def test_no_verb_imports_scipy():
    script = f"""
import contextlib, io, sys
import qmodes.cli
assert "scipy" not in sys.modules, "import qmodes.cli"
for argv in {BENCHMARK_VERBS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qmodes.cli.main(argv + ["--format", "json"])
    assert code == (1 if "--inject-corruption" in argv else 0), argv
    assert "scipy" not in sys.modules, argv
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_inverse_residual_equals_the_scipy_residual():
    import scipy.sparse as sp

    from qmodes.cli import _inverse_residual
    from qmodes.qsym import transposition_op

    def reference(swapped, weights) -> float:
        matrix = pair_matrix(swapped, weights)
        delta = (matrix @ matrix - sp.identity(swapped.size, format="csr")).tocsr()
        return float(np.max(np.abs(delta.data))) if delta.nnz else 0.0

    pairs = [transposition_op(size, n, k, DeformationParams(q))
             for size, n in ((4, 3), (5, 2), (3, 4)) for k in range(1, size) for q in (0.05, 0.3, 0.9)]
    swapped, weights = transposition_op(4, 3, 2, DeformationParams(0.3))
    assert swapped[7] != 7
    off = weights.copy()
    off[7] *= 1 + 1e-9  # one weight off: rows 7 and swapped[7] square to 1 + ~1e-9
    cycle = np.array([1, 2, 0])  # a 3-cycle: no row of the square returns to itself
    bad = [(cycle, np.array([2.0, 0.5, 1.0])), (cycle, np.ones(3)), (swapped, off)]
    for pair in pairs + bad:
        assert _inverse_residual(*pair) == reference(*pair)
    assert [_inverse_residual(*pair) for pair in bad[:2]] == [2.0, 1.0]
    assert 1e-10 < _inverse_residual(swapped, off) < 1e-8
