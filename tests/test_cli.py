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
from qsym_oracle import _count_vectors, pair_matrix, reference_transposition_deviations

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
    ["qsym", "identity", "--modes", "2", "--N", "40"],
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
    # words of up to 16 letters over 4 modes, whose largest class has 16!/(4!)^4 = 6.3e7
    # rows: refused whatever lengths the seed would draw
    argv = ["qsym", "norm", "--q", "0.5", "--modes", "4", "--N", "16", "--seed", seed]
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
    assert err.startswith("configuration error: qsym norm words up to N=16 over 4 modes needs")


def _drawn_words(argv, monkeypatch, capsys) -> tuple[int, str, list]:
    """Exit code, stripped JSON report and the words a norm sweep draws."""
    drawn = []

    def recorded(word, params):
        drawn.append(word)
        return norm(word, params)

    norm = qsym.fundamental_norm
    with monkeypatch.context() as patched:
        patched.setattr(qsym, "fundamental_norm", recorded)
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    report = canonical_json(strip_timing(json.loads(out))) if out else ""
    return code, report, drawn


def test_a_norm_sweep_draws_its_words_from_the_stated_ranges_and_its_seed(monkeypatch, capsys):
    argv = ["qsym", "norm", "--q", "0.5", "--modes", "4", "--N", "9"]
    runs = {seed: _drawn_words(argv + ["--seed", seed], monkeypatch, capsys) for seed in ("0", "1")}
    again = _drawn_words(argv + ["--seed", "0"], monkeypatch, capsys)
    assert again[:2] == runs["0"][:2] and again[2] == runs["0"][2]  # byte-identical report
    for code, _, words in runs.values():
        assert code == 0 and len(words) == 25
        for word in words:
            assert word.n_modes == 4 and 1 <= word.size <= 9 and set(word.letters) <= set(range(1, 5))
    assert runs["0"][2] != runs["1"][2]
    # a negative seed is refused before any word is drawn
    code, report, words = _drawn_words(argv + ["--seed", "-1"], monkeypatch, capsys)
    assert code == 2 and words == [] and report == ""
    code, _, err = run_cli(argv + ["--seed", "-1"], capsys)
    assert code == 2 and "--seed" in err


@pytest.mark.parametrize("seed", range(51))
def test_norm_sweeps_pass_for_every_seed_up_to_fifty(seed, capsys):
    for argv in (["qsym", "norm"], ["qsym", "norm", "--q", "0.5", "--modes", "4", "--N", "9"]):
        code, _, err = run_cli(argv + ["--seed", str(seed)], capsys)
        assert code == 0, (argv, err)


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

    monkeypatch.setattr(cli, "check_budget", priced)
    for N in range(2, 8):
        classes = {s: [qsym._class_size(c) for c in _count_vectors(n, s)] for s in range(N + 1)}
        # each size keyed once by the all-words kernel; per q the class entries and the
        # state vector gathered from them, and at each position the exchange kernel on that
        # vector and the transposition with its square and its product with the vector
        work = 0.0
        for s in range(2, N + 1):
            per_q = qsym._transposition_cost(n, s, s - 1, 2 * (s - 1))[1] + qsym._exchange_cost(n, s, s - 1)[1]
            per_q += qsym._entries_cost(n, s)[1]
            work += qsym._words_cost(n, s)[1] + 2 * per_q
        # the top size's keys, the 3 check records per size and q and one q's power tables,
        # beside the kernel, or the class entries and the state vector, or one transposition
        # or exchange kernel call beside the state vector and the fixed objects
        assert qsym._class_totals(n, N) == pytest.approx((len(classes[N]), sum(classes[N])), rel=1e-12)
        words = n**N
        nbytes = max(
            qsym._words_cost(n, N)[0],
            8 * words + qsym._entries_cost(n, N)[0],
            8 * words + max(qsym._transposition_cost(n, N, 1, 0)[0], qsym._exchange_cost(n, N, 1)[0]) + 12_288,
        )
        nbytes += 8 * words + 320 * 3 * (N - 1) * 2 + 8 * (N * N + N + 4)
        assert estimate("exchange", N) == pytest.approx((nbytes, work), rel=1e-9)

        # each word's norm is taken on its class, over the letters it uses: the costliest
        # class of N letters
        words = [qsym._class_cost([c for c in counts if c]) for counts in _count_vectors(n, N)]
        nbytes = max(b for b, _ in words)
        work = 2 * 25 * max(w for _, w in words)
        assert estimate("norm", N) == pytest.approx((nbytes, work), rel=1e-9)

        # every size keyed and tallied, every class compared, one exact division per
        # multiset of counts (one mode has one multiset)
        work = 0.0
        for s in classes:
            multisets = len({tuple(sorted(counts)) for counts in _count_vectors(n, s)})
            assert qsym._multisets(n, s) == multisets
            work += qsym._words_cost(n, s)[1] + qsym._identity_cost(n, s)
        # the kernel beside the total's table, then a block of count vectors with its sorted
        # copy and stacked target rows, qpoly's cached factorials, and the records
        width, vectors = N * (N - 1) // 2 + 1, min(len(classes[N]), max(1, qsym._COUNT_BLOCK // n))
        nbytes = qsym._words_cost(n, N)[0] + 8 * len(classes[N]) * width + vectors * (24 * n + 17 * width)
        nbytes += 400 * (N + 1) + qpoly._factorial_bytes(N)
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
    # over many modes a size has many small classes: the exchange sweep keeps every word's
    # key and fills a table of class entries; the identity sweep keeps a table of every
    # class's tally
    exchange, identity = (_estimated_bytes(verb, n, N, monkeypatch) for verb in ("exchange", "identity"))
    tracemalloc.start()
    try:
        keys = qsym.word_keys(n, N)
        entries = qsym.class_entries(DeformationParams(0.5), n, N)
        _, kept = tracemalloc.get_traced_memory()
        del keys, entries
        tracemalloc.reset_peak()
        table = qsym.word_tallies(n, N)
        _, tallied = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape[0] == math.comb(N + n - 1, n - 1)
    assert kept <= exchange
    assert tallied <= identity


def _classes_built(argv, monkeypatch, capsys) -> tuple[list, int]:
    """The (size, class rank) of every word a run keys, and the runs of the all-words
    kernel that key them."""
    built, runs = [], []

    def counted(n_modes, size, kept=0):
        runs.append(size)
        width = size * (size - 1) // 2 + 1
        for keys in kernel(n_modes, size, kept):
            built.extend((size, int(rank)) for rank in keys // width)
            yield keys

    kernel = qsym._word_blocks
    monkeypatch.setattr(qsym, "_word_blocks", counted)
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    return built, len(runs)


def test_an_exchange_sweep_builds_each_class_once(monkeypatch, capsys):
    argv = ["qsym", "exchange", "--q", "0.3", "0.9", "--modes", "3", "--N", "5"]
    built, passes = _classes_built(argv, monkeypatch, capsys)
    # the 3^2 + ... + 3^5 words of 6 + 10 + 15 + 21 classes of 2 to 5 letters over 3 modes,
    # keyed once for both q values, in one run of the kernel a size
    assert len(built) == sum(3**size for size in range(2, 6)) and len(set(built)) == 52
    assert passes == 4


def test_an_identity_sweep_builds_each_class_once(monkeypatch, capsys):
    argv = ["qsym", "identity", "--q", "0.5", "--modes", "3", "--N", "5"]
    built, passes = _classes_built(argv, monkeypatch, capsys)
    # the 3^0 + ... + 3^5 words of 1 + 3 + 6 + 10 + 15 + 21 classes of 0 to 5 letters over
    # 3 modes, in one run of the kernel a size
    assert len(built) == sum(3**size for size in range(6)) and len(set(built)) == 56
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


@pytest.mark.parametrize("row", [0, -1], ids=["first class", "last class"])
def test_identity_fails_exactly_the_total_whose_tally_is_wrong(row, monkeypatch, capsys):
    # under a block of 30 words, total 4 comes in three blocks of 27 (one first letter
    # each); in the second, the word of the first or the last class there gets one
    # inversion more; the tally and the comparison are left alone
    monkeypatch.setattr(qsym, "_BLOCK_WORDS", 30)
    kernel = qsym._word_blocks
    seen = []

    def corrupted(n_modes, size, kept=0):
        for keys in kernel(n_modes, size, kept):
            if size == 4:
                seen.append(keys.size)
                if len(seen) == 2:
                    keys[np.argsort(keys // 7, kind="stable")[row]] += 1  # width 7: R < 6 here
            yield keys

    monkeypatch.setattr(qsym, "_word_blocks", corrupted)
    code, out, _ = run_cli(["qsym", "identity", "--modes", "3", "--N", "6", "--format", "json"], capsys)
    assert code == 1 and seen == [27, 27, 27]
    verdicts = {check["params"]["total"]: check["pass"] for check in json.loads(out)["checks"]}
    assert verdicts == {total: total != 4 for total in range(7)}


def _one_word_with_one_inversion_more(monkeypatch, size: int, word: int) -> None:
    """Wraps the all-words kernel so that the word of tensor index ``word`` among those of
    ``size`` letters gets R(u) + 1."""
    kernel = qsym._word_blocks

    def corrupted(n_modes, letters, kept=0):
        start = 0
        for keys in kernel(n_modes, letters, kept):
            if letters == size and start <= word < start + keys.size:
                keys[word - start] += 1
            start += keys.size
            yield keys

    monkeypatch.setattr(qsym, "_word_blocks", corrupted)


def test_one_word_with_one_inversion_more_fails_its_size_in_both_exact_and_exchange_verbs(monkeypatch, capsys):
    # the word 1 1 1 2 has no inversion, and its swap at the last position 1 1 2 1 has one
    _one_word_with_one_inversion_more(monkeypatch, 4, 1)
    code, out, _ = run_cli(["qsym", "identity", "--modes", "3", "--N", "5", "--format", "json"], capsys)
    assert code == 1
    verdicts = {check["params"]["total"]: check["pass"] for check in json.loads(out)["checks"]}
    assert verdicts == {total: total != 4 for total in range(6)}
    code, out, _ = run_cli(["qsym", "exchange", "--modes", "3", "--N", "5", "--format", "json"], capsys)
    assert code == 1
    failed = {(check["name"], check["params"]["N"]) for check in json.loads(out)["checks"] if not check["pass"]}
    assert ("qsym_exchange", 4) in failed and {size for _, size in failed} == {4}


# a coefficient that int64 cannot hold: wrapped, 1 + 2^70 would read as the 1 it should be
@pytest.mark.parametrize("extra", [2**70], ids=["past int64"])
def test_exact_verbs_fail_a_target_coefficient_that_is_no_int64(extra, monkeypatch, capsys):
    # the constant term of the multinomial of (0, 1, 2), and of the bracket [4] of total 3
    multinomial, bracket = cli.poly_q_multinomial, cli.poly_q_number
    bumped = QPolynomial.monomial(0, extra)
    monkeypatch.setattr(cli, "poly_q_multinomial", lambda c: multinomial(c) + bumped if c == (0, 1, 2) else multinomial(c))
    monkeypatch.setattr(cli, "poly_q_number", lambda m: bracket(m) + bumped if m == 4 else bracket(m))
    for verb in ("identity", "appendix"):
        code, out, err = run_cli(["qsym", verb, "--modes", "3", "--N", "5", "--format", "json"], capsys)
        assert code == 1, err
        verdicts = {check["params"]["total"]: check["pass"] for check in json.loads(out)["checks"]}
        assert verdicts == {total: total != 3 for total in range(6)}, verb


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
    # the sweep reads one read-only table of powers of q^2, 2^15 floats (262 kB), and drops
    # it once the request returns: some 30 kB of the interpreter's own stay behind
    out = ["--out", str(tmp_path / "report.txt")]
    run_cli(["jackson", "moments", "--q", "0.5", "--N", "1"] + out, capsys)  # the parser and lazy imports
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, _, err = run_cli(["jackson", "moments", "--q", "0.05", "--N", "20000"] + out, capsys)
        gc.collect()  # also empties the free lists that keep spare tuples and floats
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert held < 0.1e6


@pytest.mark.parametrize(
    "argv",
    [
        ["jackson", "moments", "--q", "0.5", "--N", "50"],
        ["qsym", "identity", "--q", "0.5", "--modes", "1", "--N", "30"],
        ["qsym", "norm", "--q", "0.5"],
        ["verify", "algebra", "--q", "0.5", "--modes", "1", "--cutoff", "300"],
        ["qexp", "eval", "--q", "0.5", "--points", "7"],
        ["qexp", "eval", "--q", "0.5", "0.9999"],  # refused once the tables of q = 0.5 are built
    ],
    ids=" ".join,
)
def test_a_request_leaves_no_table_behind(argv, capsys):
    run_cli(argv, capsys)
    for table in cli._TABLES:
        assert table.cache_info().currsize == 0, table.__name__


def test_every_cache_of_the_layers_is_one_a_request_clears():
    # the per-q power tables live on their DeformationParams; a cache at module or class
    # level outlives its request unless main clears it
    caches = set()
    for module in (qcore, qpoly, fock, coherent, qsym, cli):
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            caches.update(value for value in (obj, *members) if callable(getattr(value, "cache_clear", None)))
    assert cli._TABLES == (qpoly._factorial,)
    assert caches == set(cli._TABLES)


# q at both ends of (0, 1): next to 0, and where the series terms near the disk's edge
# overflow double
@pytest.mark.parametrize("q", ["1e-06", "0.999", "0.9999", "0.99999"])
@pytest.mark.parametrize(
    "verb",
    [["coherent", "check"], ["qexp", "eval"], ["qsym", "norm"], ["qsym", "exchange"], ["qsym", "identity"], ["qsym", "appendix"]],
    ids=" ".join,
)
def test_the_verbs_at_the_ends_of_q_finish_or_refuse_at_once(verb, q, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(verb + ["--q", q, "--format", "json"], capsys)
    seconds = time.perf_counter() - start
    if code == 2:  # refused before any work: a sweep that cannot finish
        assert seconds < 0.1 and err.startswith("configuration error:"), (seconds, err)
    elif code == 1:  # route agreement fails near q = 1, and so may the functional equation
        failed = {check["name"] for check in json.loads(out)["checks"] if not check["pass"]}
        assert failed <= {"qexp_functional_equation", "qexp_route_agreement"}, failed
    else:
        assert code == 0, err


@pytest.mark.parametrize("verb", [command.split() for command in cli._verbs()], ids=" ".join)
def test_a_q_whose_square_underflows_is_refused_naming_it(verb, capsys):
    # below q ~ 1.57e-162, q * q is 0 in double: log(q^2) and 1/q would fail mid-run; a
    # request of several q is refused before its first q runs
    for q_values in (["1e-300"], ["5e-324"], ["0.5", "1e-300"]):
        start = time.perf_counter()
        code, out, err = run_cli(verb + ["--q", *q_values], capsys)
        seconds = time.perf_counter() - start
        assert code == 2 and out == "" and seconds < 0.1, (q_values, code, seconds)
        assert err.startswith("configuration error:") and f"q={q_values[-1]}" in err, err
    # the smallest q tried whose square is positive runs every verb
    for q in ("1.6e-162", "1e-160"):
        code, out, err = run_cli(verb + ["--q", q], capsys)
        assert code == 0, (q, err)


@pytest.mark.parametrize("verb", [command.split() for command in cli._verbs()], ids=" ".join)
def test_a_q_outside_the_unit_interval_is_refused_in_the_params_words(verb, capsys):
    # RunConfig.validate applies DeformationParams' own rule to every q before the first runs
    for q_values in (["1.5"], ["0.5", "0"], ["0.5", "-0.2"], ["0.5", "nan"], ["inf"]):
        code, out, err = run_cli(verb + ["--q", *q_values], capsys)
        assert code == 2 and out == "", (q_values, code)
        assert err == f"configuration error: q must lie strictly inside (0, 1), got {float(q_values[-1])!r}\n"


def test_a_sweep_of_inner_rings_runs_where_the_outer_ones_overflow(capsys):
    # at q = 0.9995 the series terms overflow double from 0.6 of the radius on: three points
    # sample the rings up to 0.45 and run, fifty are refused naming the ring at 0.6
    code, out, err = run_cli(["qexp", "eval", "--q", "0.9995", "--points", "3"], capsys)
    assert code in (0, 1) and err == ""
    code, out, err = run_cli(["qexp", "eval", "--q", "0.9995"], capsys)
    assert code == 2 and out == ""
    radius = DeformationParams(0.9995).radius
    assert err.startswith(f"configuration error: the exp_q series at |x| = {0.6 * radius:.6g} cannot stop at q=0.9995")
    code, out, err = run_cli(["qexp", "eval", "--q", "0.999", "--x", "490"], capsys)
    assert code == 2 and "at |x| = 490 cannot stop at q=0.999:" in err


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


def test_a_word_past_int64_tensor_indices_is_accepted(capsys):
    # 2^64 tensor indices pass int64, but the norm reads only its class's 64 inversion counts
    code, out, err = run_cli(["qsym", "norm", "--q", "0.5", "--word", ",".join(["1"] * 63 + ["2"])], capsys)
    assert code == 0, err
    assert out.startswith("1.0\n")


def test_an_oversized_word_is_refused_before_its_letters_are_counted(capsys):
    # the class guard runs before the law exponent's O(N d) count, and the refusal names the
    # class by its letters, not by its counts; 5000! rows pass the float range, and the
    # refusal states a floor in place of inf
    for word, named in (
        (",".join(map(str, range(1, 5001))), "5000 letters, 5000 of them distinct needs over 1e+300 bytes and over"),
        ("2,2," + ",".join(["1"] * 4500), "4502 letters, 2 of them distinct needs about"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(["qsym", "norm", "--q", "0.5", "--word", word], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert named in err and len(err) < 300, err


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
    assert report.paper_q_max_deviation == max(routes[1][0][:levels])

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


def test_removed_weight_variant_flag_is_rejected(capsys):
    # coherent check always judges the squared-q weight and reports the paper-q one beside it
    assert run_cli(["coherent", "check", "--weight-variant", "paper-q"], capsys)[0] == 2


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


@pytest.mark.parametrize(
    ("kernel", "slowed", "other"),
    [
        ("q_exp_points", "qexp_functional_equation", "qexp_route_agreement"),
        ("q_exp_via_product_points", "qexp_route_agreement", "qexp_functional_equation"),
    ],
)
def test_each_qexp_record_is_timed_by_its_own_route(kernel, slowed, other, monkeypatch, capsys):
    # 200 ms more in one route's kernel, per batch of samples, shows in its record alone
    route = getattr(cli, kernel)

    def delayed(params, xs):
        time.sleep(0.2)
        return route(params, xs)

    monkeypatch.setattr(cli, kernel, delayed)
    code, out, _ = run_cli(["qexp", "eval", "--q", "0.5", "--points", "7", "--format", "json"], capsys)
    millis = {check["name"]: check["millis"] for check in json.loads(out)["checks"]}
    assert code == 0 and millis[slowed] >= 200 > millis[other]


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
    """The traced peak of the request ``argv`` once parsed, whose params build their tables cold,
    and the most bytes its handler estimated for it (for ``verify algebra``, the Fock space
    of any one q): the handler, then its report as JSON."""
    estimates = []

    def recorded(request, nbytes, work):
        estimates.append(nbytes)
        check_budget(request, nbytes, work)

    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", recorded)
    monkeypatch.setattr(fock, "check_budget", recorded)
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    tracemalloc.start()
    try:
        records, _ = _handler(namespace)(config)
        canonical_json(assemble_report(config, records))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, max(estimates)


# near q = 1 a product chunk holds only a few steps of the points still dividing, a lone point
# _PRODUCT_ENTRIES steps
@pytest.mark.parametrize(
    ("q", "points"),
    [(q, points) for q in ("0.3", "0.9", "0.98", "0.99") for points in ("50", "200", "400")]
    + [(q, points) for q in ("0.998", "0.999") for points in ("1", "7")]
    # requests of fewer points than rings are charged at the rings they sample, --x at |x|
    + [("0.5", "1"), ("0.9", "3"), ("0.9995", "3"), ("0.9", "--x 0.3")],
)
def test_qexp_sweep_peaks_within_its_estimate(q, points, monkeypatch):
    sampled = points.split() if points.startswith("--") else ["--points", points]
    peak, estimate = _peak_and_estimate(["qexp", "eval", "--q", q] + sampled, monkeypatch)
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


@pytest.mark.parametrize("extra", [8], ids=["past 2N"])
def test_appendix_fails_a_target_with_a_term_no_tally_can_hold(extra, monkeypatch, capsys):
    # the target bracket of total 3, [4], gains a term at q^extra
    bracket = cli.poly_q_number
    monkeypatch.setattr(cli, "poly_q_number", lambda m: bracket(m) + QPolynomial.monomial(extra) if m == 4 else bracket(m))
    code, out, _ = run_cli(["qsym", "appendix", "--modes", "2", "--N", "5", "--format", "json"], capsys)
    assert code == 1
    verdicts = {check["params"]["total"]: check["pass"] for check in json.loads(out)["checks"]}
    assert verdicts == {total: total != 3 for total in range(6)}


def _handler_peak_and_estimate(argv, monkeypatch):
    """The traced peak of the handler alone on ``argv``, from cold target brackets and
    factorials, and the bytes it estimated for the request."""
    estimates = []

    def recorded(request, nbytes, work):
        estimates.append(nbytes)
        check_budget(request, nbytes, work)

    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", recorded)
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    qpoly._factorial.cache_clear()
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


@pytest.mark.parametrize("q", ["0.5", "0.9", "0.99"])
def test_jackson_moments_peak_within_their_estimate(q, monkeypatch):
    peak, estimate = _peak_and_estimate(["jackson", "moments", "--q", q, "--N", "10"], monkeypatch)
    assert 0.3 * estimate <= peak <= estimate


# each q is sized alone, so a request over several q holds one q's power tables at a time:
# held over every q, these peak at 1.15 to 2.15 times the estimate
@pytest.mark.parametrize(
    "argv",
    [
        ["jackson", "moments", "--q"] + [str(0.999 + 0.00001 * k) for k in range(8)] + ["--N", "0"],
        ["verify", "algebra", "--q"] + [str(0.5 + 0.01 * k) for k in range(8)] + ["--modes", "1", "--cutoff", "100000"],
        ["qexp", "eval", "--q"] + [str(0.9985 + 0.0001 * k) for k in range(4)] + ["--points", "4"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_request_over_several_q_peaks_within_its_estimate(argv, monkeypatch):
    peak, estimate = _peak_and_estimate(argv, monkeypatch)
    assert 0.3 * estimate <= peak <= estimate


# (4, 9) and (2, 20) take several blocks on their top total; (1, 30) is held by the cached
# factorials
@pytest.mark.parametrize("n, N", [(4, 7), (3, 9), (6, 6), (40, 2), (20, 3), (2, 20), (4, 9), (1, 30)])
def test_identity_peaks_within_its_estimate(n, N, monkeypatch):
    argv = ["qsym", "identity", "--modes", str(n), "--N", str(N)]
    peak, estimate = _handler_peak_and_estimate(argv, monkeypatch)
    assert 0.3 * estimate <= peak <= estimate


# the sorted word of the largest class of N letters over n modes, the costliest word a norm
# sweep could draw
@pytest.mark.parametrize("n, N", [(2, 16), (3, 12), (4, 10), (8, 8)])
def test_the_norm_of_a_largest_class_word_peaks_within_the_sweeps_estimate(n, N, monkeypatch):
    class Priced(Exception):
        pass

    def priced(request, nbytes, work):
        raise Priced(nbytes)

    namespace = build_parser().parse_args(["qsym", "norm", "--modes", str(n), "--N", str(N)])
    with monkeypatch.context() as patched:
        patched.setattr(cli, "check_budget", priced)
        with pytest.raises(Priced) as raised:
            _handler(namespace)(config_from_namespace(namespace))
    counts = [N // n + (letter < N % n) for letter in range(n)]
    word = ",".join(str(letter + 1) for letter, c in enumerate(counts) for _ in range(c))
    peak = _handler_peak(["qsym", "norm", "--q", "0.5", "--modes", str(n), "--word", word])
    assert 0.3 * raised.value.args[0] < peak <= raised.value.args[0]


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
    "coherent check": dict(tol=1e-9, modes=2, cutoff=8, points=4, z=None),
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
    "coherent check": ("--modes 1 --points 1", {"modes", "cutoff", "points", "z"}, "--seed 1"),
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
        {"q_values": (1e-300,)},
        {"q_values": ()},
        {"modes": 0},
        {"cutoff": 1},
        {"particles": -1},
        {"tol": 0.0},
        {"points": 0},
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
    # nor numpy.random: its import alone costs ~17 ms and ~6 MB in a fresh process
    script = f"""
import contextlib, io, sys
import qmodes.cli
assert "scipy" not in sys.modules and "numpy.random" not in sys.modules, "import qmodes.cli"
for argv in {BENCHMARK_VERBS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = qmodes.cli.main(argv + ["--format", "json"])
    assert code == (1 if "--inject-corruption" in argv else 0), argv
    assert "scipy" not in sys.modules and "numpy.random" not in sys.modules, argv
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
