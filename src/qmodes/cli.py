"""Command-line verification harness.

Every identity the library implements can be driven from here with a fully
explicit configuration (no environment variables), and every run produces
either a human-readable text report or a machine-readable JSON document.
Identical configurations produce byte-identical JSON up to the per-check
``millis`` timing fields.

Verbs::

    qmodes verify algebra     relation families on the truncation interior
    qmodes coherent check     normalization, twisted eigenvalue, completeness
    qmodes qexp eval          functional equation and series/product agreement
    qmodes jackson moments    grid moments against deformed factorials
    qmodes qsym exchange      adjacent-exchange and transposition-operator laws
    qmodes qsym norm          norms of q-symmetrized words (prints the values)
    qmodes qsym identity      exact arrangement-sum == bracket multinomial
    qmodes qsym appendix      exact insertion-sum == bracket of N+1

Every verb takes the envelope options ``--q``, ``--tol``, ``--format`` and
``--out``.  One table (``_verbs``) gives each verb its handler and the
default of ``--tol`` and of every other option that handler reads; argparse
refuses an option the verb does not read, and the report's ``config`` echoes
the envelope plus the verb's own options.

Exit codes: 0 every check passed, 1 at least one check failed, 2 bad
configuration or out-of-bounds request.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__, coherent, fock, qsym
from .qcore import (
    WORK_BUDGET,
    DeformationParams,
    DomainError,
    check_budget,
    disk_samples,
    jackson_moment,
    q_exp,
    q_exp_via_product,
    q_factorial,
    size_estimate,
)
from .qpoly import poly_insertion_sum, poly_q_number

SCHEMA_VERSION = 1
TOOL_VERSION = __version__

# External report consumers map check names back to the source text through
# these tags; they are data, not code references.
EQUATION_TAGS = {
    "creator_creator_swap": "Eq.1",
    "annihilator_annihilator_swap": "Eq.1",
    "annihilator_creator_swap": "Eq.1",
    "mode_contraction": "Eq.1",
    "last_mode_contraction": "Eq.1",
    "number_ladder_commutator": "Eq.1",
    "normal_product_diagonal": "Eq.2",
    "ladder_commutator_scale_product": "Eq.7",
    "qexp_functional_equation": "Eq.12",
    "qexp_route_agreement": "Eq.13",
    "jackson_moment": "Eq.17",
    "coherent_normalization": "Eq.14",
    "coherent_eigenvalue": "Eq.9",
    "coherent_completeness": "Eq.16",
    "coherent_domain": "Eq.10",
    "coherent_build": "Eq.10",
    "qsym_exchange": "Eq.21",
    "qsym_transposition_invariance": "Eq.22",
    "qsym_transposition_inverse": "Eq.23",
    "qsym_norm": "Eq.20",
    "qsym_norm_law": "Eq.20",
    "qsym_identity": "Eq.25",
    "qsym_insertion": "Eq.30",
}


class ConfigError(ValueError):
    """Configuration that fails validation before any check runs."""


@dataclass
class CheckRecord:
    """One executed check: numeric checks carry a deviation, exact ones a flag."""

    name: str
    params: dict
    passed: bool
    deviation: float | None = None
    exact_match: bool | None = None
    millis: int = 0

    def to_json(self) -> dict:
        record = {
            "name": self.name,
            "paper_ref": EQUATION_TAGS[self.name],
            "params": self.params,
            "pass": self.passed,
            "millis": self.millis,
        }
        if self.exact_match is not None:
            record["exact_match"] = self.exact_match
        else:
            record["deviation"] = self.deviation
        return record


@dataclass
class RunConfig:
    """Fully resolved run parameters.

    A verb fills, and its report echoes, only the envelope and the options of
    its row in the verb table; every other field keeps its placeholder here.
    """

    command: str
    q_values: tuple[float, ...] = (0.3, 0.5, 0.9)
    modes: int = 2
    cutoff: int = 6
    particles: int = 4
    tol: float = 1e-12
    weight_variant: str = "squared-q"
    output_format: str = "text"
    output_path: str | None = None
    seed: int = 0
    word: str | None = None
    z: tuple[complex, ...] | None = None
    x: complex | None = None
    points: int = 4
    inject_corruption: bool = False

    def validate(self) -> None:
        for q in self.q_values:
            if not 0.0 < q < 1.0:
                raise ConfigError(f"q must lie strictly between 0 and 1, got {q}")
        if not self.q_values:
            raise ConfigError("at least one q value is required")
        if self.modes < 1:
            raise ConfigError(f"modes must be >= 1, got {self.modes}")
        if self.cutoff < 2:
            raise ConfigError(f"cutoff must be >= 2, got {self.cutoff}")
        if self.particles < 0:
            raise ConfigError(f"N must be >= 0, got {self.particles}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.points < 1:
            raise ConfigError(f"points must be >= 1, got {self.points}")
        if self.weight_variant not in ("paper-q", "squared-q"):
            raise ConfigError(f"unknown weight variant {self.weight_variant!r}")
        if self.inject_corruption and self.modes < 2:
            raise ConfigError("the negative control needs at least 2 modes")

    @property
    def variant(self) -> coherent.WeightVariant:
        return coherent.WeightVariant(self.weight_variant.replace("-", "_"))

    def to_json(self) -> dict:
        echoed = {_OPTIONS[f][0][2:].replace("-", "_"): getattr(self, f) for f in _options(self.command)}
        echoed.update(command=self.command, q=list(self.q_values))
        if echoed.get("z") is not None:
            echoed["z"] = [str(v) for v in self.z]
        if echoed.get("x") is not None:
            echoed["x"] = str(self.x)
        return echoed


def _elapsed_ms(start: float) -> int:
    return max(0, int(round((time.perf_counter() - start) * 1000.0)))


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (records, extra stdout lines).


def run_verify_algebra(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    records = []
    for q in config.q_values:
        params = DeformationParams(q)
        cfg = fock.FockSpaceConfig(config.modes, config.cutoff, params)
        lowers = None
        if config.inject_corruption:
            lowers = [fock.corrupted_annihilator(cfg, 1)]
            lowers += [fock.annihilator(cfg, i) for i in range(2, config.modes + 1)]
        start = time.perf_counter()
        report = fock.verify_algebra(cfg, tol=config.tol, annihilators=lowers)
        millis = _elapsed_ms(start)
        for name in fock.RELATION_FAMILIES:
            deviation = report.deviations[name]
            records.append(
                CheckRecord(
                    name=name,
                    params={"q": q, "modes": config.modes, "cutoff": config.cutoff},
                    passed=deviation < report.threshold(name),
                    deviation=deviation,
                    millis=millis,
                )
            )
    return records, []


def _parse_x(text: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ConfigError(f"cannot parse --x value {text!r}") from None


def run_qexp(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    records = []
    extra = []
    for q in config.q_values:
        params = DeformationParams(q)
        if config.x is not None:
            if abs(config.x) >= params.radius:
                records.append(
                    CheckRecord(
                        name="qexp_route_agreement",
                        params={"q": q, "x": str(config.x), "detail": "outside the convergence disk"},
                        passed=False,
                    )
                )
                continue
            samples = [config.x]
        else:
            samples = disk_samples(params, config.points)
        start = time.perf_counter()
        worst_functional = 0.0
        worst_agreement = 0.0
        for x in samples:
            series = q_exp(params, x).value
            product = q_exp_via_product(params, x).value
            worst_agreement = max(
                worst_agreement, abs(series - product) / max(abs(product), 1e-300)
            )
            lhs = q_exp(params, params.q_sq * x).value
            rhs = (1.0 - (1.0 - params.q_sq) * x) * series
            worst_functional = max(
                worst_functional, abs(lhs - rhs) / max(abs(lhs), 1.0)
            )
            if config.x is not None:
                extra.append(f"exp_q({x}) = {series!r}  (q={q})")
        millis = _elapsed_ms(start)
        point_params = {"q": q, "points": len(samples)}
        if config.x is not None:
            point_params["x"] = str(config.x)
        records.append(
            CheckRecord(
                name="qexp_functional_equation",
                params=dict(point_params),
                passed=worst_functional < config.tol,
                deviation=worst_functional,
                millis=millis,
            )
        )
        records.append(
            CheckRecord(
                name="qexp_route_agreement",
                params=dict(point_params),
                passed=worst_agreement < config.tol,
                deviation=worst_agreement,
                millis=millis,
            )
        )
    return records, extra


def run_jackson(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    records = []
    for q in config.q_values:
        params = DeformationParams(q)
        for n in range(config.particles + 1):
            start = time.perf_counter()
            value = jackson_moment(params, n, rel_tol=min(config.tol * 1e-2, 1e-12))
            target = q_factorial(params, n)
            deviation = abs(value / target - 1.0)
            records.append(
                CheckRecord(
                    name="jackson_moment",
                    params={"q": q, "n": n},
                    passed=deviation < config.tol,
                    deviation=deviation,
                    millis=_elapsed_ms(start),
                )
            )
    return records, []


def _parse_z(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse z list {text!r}: {exc}") from None


def run_coherent(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    # Tail budget: eigenvalue residuals scale like sqrt(tail mass), so the
    # build aims two orders below tol^2 to keep truncation out of the verdict.
    build_tail = min(1e-20, config.tol**2 * 1e-2)
    records = []
    for q in config.q_values:
        params = DeformationParams(q)
        if config.z is not None:
            try:
                cutoff = coherent.suggest_cutoff(params, config.z, build_tail)
            except DomainError as exc:
                records.append(
                    CheckRecord(
                        name="coherent_domain",
                        params={"q": q, "detail": str(exc)},
                        passed=False,
                    )
                )
                continue
            cfg = fock.FockSpaceConfig(len(config.z), cutoff, params)
            specs = [coherent.CoherentSpec(config.z, cfg)]
        else:
            specs = coherent.spec_grid(params, config.modes, config.points, tail_tol=build_tail)
        for point, spec in enumerate(specs):
            start = time.perf_counter()
            try:
                state = coherent.build_coherent(spec, tail_tol=build_tail * 10.0)
            except coherent.InsufficientCutoffError as exc:
                records.append(
                    CheckRecord(
                        name="coherent_build",
                        params={"q": q, "point": point, "detail": str(exc)},
                        passed=False,
                    )
                )
                continue
            norm_sq = float(np.vdot(state.vector, state.vector).real)
            deviation = abs(norm_sq - 1.0)
            records.append(
                CheckRecord(
                    name="coherent_normalization",
                    params={"q": q, "point": point},
                    passed=deviation <= config.tol + state.tail_mass,
                    deviation=deviation,
                    millis=_elapsed_ms(start),
                )
            )
            for mode in range(1, spec.cfg.modes + 1):
                start = time.perf_counter()
                report = coherent.check_eigenvalue(state, mode, tol=config.tol)
                records.append(
                    CheckRecord(
                        name="coherent_eigenvalue",
                        params={"q": q, "point": point, "mode": mode},
                        passed=report.passed,
                        deviation=report.residual,
                        millis=_elapsed_ms(start),
                    )
                )
        start = time.perf_counter()
        comp_cfg = fock.FockSpaceConfig(1, config.cutoff, params)
        comp = coherent.check_completeness(comp_cfg, tol=config.tol, variant=config.variant)
        records.append(
            CheckRecord(
                name="coherent_completeness",
                params={
                    "q": q,
                    "variant": comp.variant.value,
                    "adjudicated": comp.consistent_variant.value,
                    "alternate": comp.alternate_variant.value,
                    "alternate_deviation": comp.alternate_max_deviation,
                    "levels": len(comp.deviations),
                },
                passed=comp.passed,
                deviation=comp.max_deviation,
                millis=_elapsed_ms(start),
            )
        )
    return records, []


def _parse_word(text: str, modes: int) -> qsym.Word:
    try:
        letters = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse --word value {text!r}") from None
    n_modes = max(modes, max(letters, default=1))
    return qsym.Word(letters, n_modes)


def _exchange_work(n: int, size: int) -> float:
    """Predicted steps (~1 ns each) of the exchange and transposition checks at one size."""
    classes = size_estimate(math.lgamma(size + n) - math.lgamma(n) - math.lgamma(size + 1))
    words = size_estimate(size * math.log(n))
    # sum over the classes of rows x inversion levels: every level 0..max occurs, and
    # the mean of sum_k c_k^2 over all words is N(1 - 1/n) + N^2/n
    entries = words * (1 + size * (size - 1) * (n - 1) / (2 * n))
    # per class ~100 us plus ~70 us per letter (one arrangement step, one position's
    # gathers); ~12 ns per table entry and position
    kernel = classes * (100_000 + 70_000 * size) + 12 * (size - 1) * entries
    # per transposition ~300 us + 100 ns per entry to build and square it
    inverse = (size - 1) * (300_000 + 100 * words)
    # per class a sorted-word state (~40 us + 20 ns per entry), then per transposition
    # one product and difference (~30 us + 6 ns per entry)
    invariance = classes * (40_000 + 20 * words + (size - 1) * (30_000 + 6 * words))
    return kernel + inverse + invariance


def _square_minus_identity(op: fock.ShiftOperator) -> float:
    """Largest |entry| of T·T − I for a square weighted shift T, from its CSR arrays.

    Row r of T stores value[r] at column[r], so row r of T·T stores
    value[r]·value[column[r]] at column[column[r]].  An empty row reads the
    sentinel column dim, which stores 0 and points at itself.  Where the square
    lands on the diagonal the entry is that product minus 1; elsewhere the row
    holds the product and the identity's -1 apart.
    """
    dim = op.shape[0]
    column = np.full(dim + 1, dim)
    value = np.zeros(dim + 1, dtype=op.dtype)
    rows = op.rows()
    column[rows], value[rows] = op.indices, op.data
    square = value[:dim] * value[column[:dim]]
    diagonal = column[column[:dim]] == np.arange(dim)
    entries = np.where(diagonal, np.abs(square - 1.0), np.maximum(np.abs(square), 1.0))
    return float(np.max(entries, initial=0.0))


def run_qsym_exchange(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    if config.particles < 2:
        raise ConfigError("exchange checks need N >= 2")
    n, N = config.modes, config.particles
    top = size_estimate(N * math.log(n))
    a, b = divmod(N, n)  # the largest class: b letters a + 1 times, n - b letters a times
    rows = size_estimate(math.lgamma(N + 1) - b * math.lgamma(a + 2) - (n - b) * math.lgamma(a + 1))
    levels = (N * N - b * (a + 1) ** 2 - (n - b) * a * a) // 2 + 1
    # bytes: N-1 stored transpositions (16 per entry), one being squared (80), the
    # arrangement cache (32), and the exchange kernel's table of the largest class
    nbytes = (16 * N + 96) * top + rows * (100 + 16 * levels)
    work = 0.0
    for size in range(N, 1, -1):  # the largest sizes cost most; stop once past the budget
        work += len(config.q_values) * _exchange_work(n, size)
        if work > WORK_BUDGET:
            break
    check_budget(f"qsym exchange up to N={N} over {n} modes", nbytes, work)
    records = []
    for q in config.q_values:
        params = DeformationParams(q)
        for size in range(2, config.particles + 1):
            start = time.perf_counter()
            worst = 0.0
            for counts in _count_vectors(config.modes, size):
                worst = max(worst, float(qsym.exchange_check(counts, params)[1].max()))
            records.append(
                CheckRecord(
                    name="qsym_exchange",
                    params={"q": q, "N": size, "modes": config.modes},
                    passed=worst < config.tol,
                    deviation=worst,
                    millis=_elapsed_ms(start),
                )
            )
            # the inverse check's time includes building the transpositions it shares
            start = time.perf_counter()
            ops = [
                qsym.transposition_op(size, config.modes, k, params)
                for k in range(1, size)
            ]
            inverse = 0.0
            for op in ops:
                inverse = max(inverse, _square_minus_identity(op))
            records.append(
                CheckRecord(
                    name="qsym_transposition_inverse",
                    params={"q": q, "N": size, "modes": config.modes},
                    passed=inverse < config.tol,
                    deviation=inverse,
                    millis=_elapsed_ms(start),
                )
            )
            start = time.perf_counter()
            invariance = 0.0
            for counts in _count_vectors(config.modes, size):
                sorted_word = qsym.Word(
                    tuple(
                        letter
                        for letter, count in enumerate(counts, start=1)
                        for _ in range(count)
                    ),
                    config.modes,
                )
                vector = qsym.q_symmetrize(sorted_word, params)
                for op in ops:
                    residual = op @ vector  # a fresh array: reduced in place, no more allocations
                    residual -= vector
                    invariance = max(invariance, float(np.max(np.abs(residual, out=residual))))
            records.append(
                CheckRecord(
                    name="qsym_transposition_invariance",
                    params={"q": q, "N": size, "modes": config.modes},
                    passed=invariance < config.tol,
                    deviation=invariance,
                    millis=_elapsed_ms(start),
                )
            )
    return records, []


def run_qsym_norm(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    records = []
    extra = []
    if config.word is not None:
        word = _parse_word(config.word, config.modes)
        law_exponent = 2 * qsym.inversion_count(word.letters)
        for q in config.q_values:
            params = DeformationParams(q)
            start = time.perf_counter()
            value = qsym.fundamental_norm(word, params)
            law = params.q**law_exponent
            deviation = abs(value - law)
            extra.append(repr(round(value, 12)))
            records.append(
                CheckRecord(
                    name="qsym_norm",
                    params={"q": q, "word": config.word, "value": round(value, 12)},
                    passed=deviation < config.tol,
                    deviation=deviation,
                    millis=_elapsed_ms(start),
                )
            )
        return records, extra
    n, N = config.modes, config.particles
    samples = 25
    top = size_estimate(N * math.log(n))
    # per sample and q, at most the q_symmetrize estimate of the longest word: 16 B and
    # ~120 ns per entry of n^N, ~200 ns per letter pair; sized before any word is drawn
    work = samples * len(config.q_values) * (120 * top + 200 * N**2)
    check_budget(f"qsym norm words up to N={N} over {n} modes", 16 * top, work)
    rng = np.random.default_rng(config.seed)
    for q in config.q_values:
        params = DeformationParams(q)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(samples):
            size = int(rng.integers(1, config.particles + 1))
            letters = tuple(int(v) for v in rng.integers(1, config.modes + 1, size=size))
            word = qsym.Word(letters, config.modes)
            value = qsym.fundamental_norm(word, params)
            law = params.q ** (2 * qsym.inversion_count(letters))
            worst = max(worst, abs(value - law))
        records.append(
            CheckRecord(
                name="qsym_norm_law",
                params={
                    "q": q,
                    "samples": samples,
                    "N": config.particles,
                    "modes": config.modes,
                    "seed": config.seed,
                },
                passed=worst < config.tol,
                deviation=worst,
                millis=_elapsed_ms(start),
            )
        )
    return records, []


def _count_vectors(slots: int, total: int):
    """All nonnegative integer vectors of the given length with sum total."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _count_vectors(slots - 1, total - head):
            yield (head,) + rest


def run_qsym_identity(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    n, N = config.modes, config.particles
    top = size_estimate(N * math.log(n))
    classes = size_estimate(math.lgamma(N + n + 1) - math.lgamma(N + 1) - math.lgamma(n + 1))
    # 2 n^N + N arrangement rows (~300 ns per row and mode, 64 B/entry with the cache), and
    # per class ~40 us of arrangement set-up plus one integer long division (~60 us + 7 ns * N^4)
    work = 300 * n * (2 * top + N) + classes * (100_000 + 10 * N**4)
    check_budget(f"qsym identity up to N={N} over {n} modes", 64 * top, work)
    records = []
    for total in range(config.particles + 1):
        start = time.perf_counter()
        all_match = True
        cases = 0
        for counts in _count_vectors(config.modes, total):
            arrangement_sum, multinomial = qsym.norm_identity_exact(counts)
            cases += 1
            if arrangement_sum != multinomial:
                all_match = False
        records.append(
            CheckRecord(
                name="qsym_identity",
                params={"total": total, "modes": config.modes, "cases": cases},
                passed=all_match,
                exact_match=all_match,
                millis=_elapsed_ms(start),
            )
        )
    return records, []


def run_qsym_appendix(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    n, N = config.modes, config.particles
    classes = size_estimate(math.lgamma(N + n + 1) - math.lgamma(N + 1) - math.lgamma(n + 1))
    # n insertion sums per count vector of ~6 us + 0.5 us * n + 0.15 us * N, and one target
    # bracket per total (~0.3 us per coefficient); a few n * N-term polynomials
    work = n * classes * (6_000 + 500 * n + 150 * N) + 500 * N**2
    check_budget(f"qsym appendix up to N={N} over {n} modes", 200 * n * N, work)
    records = []
    for total in range(config.particles + 1):
        start = time.perf_counter()
        all_match = True
        cases = 0
        target = poly_q_number(total + 1)
        for counts in _count_vectors(config.modes, total):
            for slot in range(1, config.modes + 1):
                cases += 1
                if poly_insertion_sum(counts, slot) != target:
                    all_match = False
        records.append(
            CheckRecord(
                name="qsym_insertion",
                params={"total": total, "modes": config.modes, "cases": cases},
                passed=all_match,
                exact_match=all_match,
                millis=_elapsed_ms(start),
            )
        )
    return records, []


# ---------------------------------------------------------------------------
# Report assembly and rendering


def _record_sort_key(record: CheckRecord) -> tuple[str, str]:
    return record.name, json.dumps(record.params, sort_keys=True)


def assemble_report(config: RunConfig, records: Sequence[CheckRecord]) -> dict:
    ordered = sorted(records, key=_record_sort_key)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "config": config.to_json(),
        "checks": [record.to_json() for record in ordered],
    }


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def strip_timing(report: dict) -> dict:
    """Copy of a report with every ``millis`` zeroed (for byte comparisons)."""
    stripped = json.loads(json.dumps(report))
    for check in stripped.get("checks", ()):
        check["millis"] = 0
    return stripped


def render_text(report: dict) -> str:
    lines = []
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(check["params"].items()))
        if "exact_match" in check:
            measure = f"exact_match={check['exact_match']}"
        elif check["deviation"] is None:
            measure = "deviation=n/a"
        else:
            measure = f"deviation={check['deviation']:.3e}"
        lines.append(f"{status} {check['name']} [{check['paper_ref']}] {params} {measure}")
    total = len(report["checks"])
    failed = sum(1 for check in report["checks"] if not check["pass"])
    if failed:
        lines.append(f"overall FAIL ({failed} of {total} checks failed)")
    else:
        lines.append(f"overall PASS ({total} checks)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Argument parsing: one table of verbs


class _Verb(NamedTuple):
    handler: Callable[[RunConfig], tuple[list[CheckRecord], list[str]]]
    help: str
    defaults: dict  # RunConfig field -> default: --tol and every option the handler reads


# The envelope every verb takes besides --tol, whose default is the verb's own.
_ENVELOPE = {"q_values": (0.3, 0.5, 0.9), "output_format": "text", "output_path": None}


def _verbs() -> dict[str, _Verb]:
    """The verb table.  It is built on each call, so that every row holds the
    handler the module binds at that moment (the benchmark's tracer wraps them)."""
    return {
        "verify algebra": _Verb(
            run_verify_algebra, "relation families on the interior",
            dict(tol=1e-12, modes=2, cutoff=6, inject_corruption=False),
        ),
        "coherent check": _Verb(
            run_coherent, "normalization, eigenvalue, completeness",
            dict(tol=1e-9, modes=2, cutoff=8, points=4, weight_variant="squared-q", z=None),
        ),
        "qexp eval": _Verb(run_qexp, "dual-route evaluation sweep", dict(tol=1e-12, points=50, x=None)),
        "jackson moments": _Verb(run_jackson, "moments against [n]!", dict(tol=1e-10, particles=10)),
        "qsym exchange": _Verb(
            run_qsym_exchange, "exchange and transposition laws", dict(tol=1e-13, modes=3, particles=4)
        ),
        "qsym norm": _Verb(
            run_qsym_norm, "norms of q-symmetrized words",
            dict(tol=1e-12, modes=3, particles=5, seed=0, word=None),
        ),
        "qsym identity": _Verb(
            run_qsym_identity, "exact arrangement-sum identity", dict(tol=1e-12, modes=3, particles=6)
        ),
        "qsym appendix": _Verb(
            run_qsym_appendix, "exact insertion-sum identity", dict(tol=1e-12, modes=3, particles=6)
        ),
    }


_GROUPS = {
    "verify": "operator-algebra certification",
    "coherent": "coherent-state checks",
    "qexp": "q-exponential checks",
    "jackson": "Jackson-integral checks",
    "qsym": "q-symmetric state checks",
}

# RunConfig field -> (flag, help, argparse keywords).  The flag, less its dashes
# and with '-' read as '_', is the field's key in the report's config.
_OPTIONS = {
    "q_values": ("--q", "deformation parameters in (0,1)", dict(type=float, nargs="+", metavar="Q")),
    "tol": ("--tol", "tolerance for the headline residual", dict(type=float)),
    "output_format": ("--format", "report format", dict(choices=["text", "json"])),
    "output_path": ("--out", "write report to file", dict(metavar="FILE")),
    "modes": ("--modes", "number of modes", dict(type=int)),
    "cutoff": ("--cutoff", "per-mode Fock cutoff", dict(type=int)),
    "particles": ("--N", "particle-number bound", dict(type=int, metavar="N")),
    "points": ("--points", "sample points per q when --z or --x is not given", dict(type=int)),
    "weight_variant": ("--weight-variant", "completeness weight convention to certify",
                       dict(choices=["paper-q", "squared-q"])),
    "seed": ("--seed", "seed for randomized property sweeps", dict(type=int)),
    "word": ("--word", "comma-separated letters, e.g. '2,1'", {}),
    "z": ("--z", "comma-separated mode amplitudes, e.g. '0.5+0.2j,0.3'", {}),
    "x": ("--x", "evaluate at one complex point instead of the sweep", {}),
    "inject_corruption": ("--inject-corruption", "negative control: corrupt one amplitude and expect detection",
                          dict(action="store_true")),
}


def _options(command: str) -> dict:
    """Every option a verb takes, as RunConfig field -> default: the envelope and its row."""
    return {**_ENVELOPE, **_verbs()[command].defaults}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmodes",
        description="verification harness for the deformed multimode oscillator library",
    )
    parser.add_argument("--version", action="version", version=f"qmodes {TOOL_VERSION}")
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for command, row in _verbs().items():
        group, verb = command.split()
        if group not in groups:
            group_parser = top.add_parser(group, help=_GROUPS[group])
            groups[group] = group_parser.add_subparsers(dest="verb", required=True)
        verb_parser = groups[group].add_parser(verb, help=row.help)
        for field, default in _options(command).items():
            flag, help_text, keywords = _OPTIONS[field]
            shown = " ".join(map(str, default)) if isinstance(default, tuple) else "%(default)s"
            verb_parser.add_argument(
                flag, dest=field, default=default, help=f"{help_text} (default: {shown})", **keywords
            )
        verb_parser.set_defaults(handler=row.handler, command=command)
    return parser


def config_from_namespace(ns: argparse.Namespace) -> RunConfig:
    values = {field: getattr(ns, field) for field in _options(ns.command)}
    values["q_values"] = tuple(values["q_values"])
    if values.get("z") is not None:
        values["z"] = _parse_z(values["z"])
    if values.get("x") is not None:
        values["x"] = _parse_x(values["x"])
    return RunConfig(command=ns.command, **values)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = config_from_namespace(namespace)
        config.validate()
        records, extra = namespace.handler(config)
    except (ValueError, OverflowError) as exc:
        # ConfigError, DomainError (budget refusals too), factorials past the float range
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report = assemble_report(config, records)
    if config.output_format == "json":
        rendered = canonical_json(report)
    else:
        rendered = "".join(line + "\n" for line in extra) + render_text(report)
    if config.output_path:
        try:
            with open(config.output_path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print(f"configuration error: cannot write the report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if all(record.passed for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
