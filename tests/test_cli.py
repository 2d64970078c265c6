"""Tests for the qmodes command-line harness."""

import json
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
from qmodes.fock import RELATION_FAMILIES
from qmodes.qcore import DeformationParams, DomainError, jackson_moment, q_factorial

CORRUPTION_SENSITIVE = {
    "annihilator_annihilator_swap",
    "annihilator_creator_swap",
    "ladder_commutator_scale_product",
    "mode_contraction",
    "normal_product_diagonal",
}


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
    ["qsym", "appendix", "--modes", "6", "--N", "40"],
    ["verify", "algebra", "--modes", "2", "--cutoff", "3000"],
    ["coherent", "check", "--q", "0.5", "--modes", "3", "--points", "1"],
    ["jackson", "moments", "--q", "0.9999999", "--N", "2"],
]


@pytest.mark.parametrize("argv", OVER_BUDGET, ids=lambda argv: " ".join(argv[:2]))
def test_over_budget_requests_are_refused_before_allocating(argv, capsys):
    namespace = build_parser().parse_args(argv)
    config = config_from_namespace(namespace)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match="needs about .* above the budget"):
            namespace.handler(config)
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
            namespace.handler(config)
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
    # the exchange law is checked one arrangement class at a time, with no dense
    # n^N state per word, so 4^8 words fit the budget
    argv = ["qsym", "exchange", "--q", "0.5", "--modes", "4", "--N", "8"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert out.strip().split("\n")[-1] == "overall PASS (21 checks)"
    # 6^10 words are still refused, on the bytes of the stored transpositions
    code, _, err = run_cli(["qsym", "exchange", "--modes", "6", "--N", "10"], capsys)
    assert code == 2
    assert float(err.split("needs about ")[1].split(" bytes")[0]) > 2**30


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


@pytest.mark.parametrize("argv", [["coherent", "check", "--z", ""], ["qexp", "eval", "--x", ""]])
def test_an_empty_point_is_a_config_error(argv, capsys):
    code, out, err = run_cli(argv + ["--q", "0.5"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("configuration error: cannot parse")


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


def test_square_minus_identity_equals_the_scipy_residual():
    import scipy.sparse as sp

    from qmodes.cli import _square_minus_identity
    from qmodes.fock import ShiftOperator
    from qmodes.qsym import transposition_op

    def reference(op) -> float:
        matrix = op.tocsr()
        delta = (matrix @ matrix - sp.identity(op.shape[0], format="csr")).tocsr()
        return float(np.max(np.abs(delta.data))) if delta.nnz else 0.0

    for q in (0.3, 0.9):
        op = transposition_op(4, 3, 2, DeformationParams(q))
        assert _square_minus_identity(op) == reference(op)
    cases = [
        ([2.0, 0.5, 3.0], [1, 0, 2], [0, 1, 2, 3]),  # a swap and a diagonal entry
        ([2.0, 3.0], [1, 2], [0, 1, 2, 2]),  # a shift: the square leaves the diagonal
        ([1.0, 1.0], [2, 0], [0, 1, 1, 2]),  # an empty row
    ]
    for data, indices, indptr in cases:
        op = ShiftOperator(np.array(data), np.array(indices), np.array(indptr), (3, 3))
        assert _square_minus_identity(op) == reference(op)
