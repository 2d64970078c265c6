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
import cmath
import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__, coherent, fock, qcore, qpoly, qsym
from .qcore import (
    WORK_BUDGET,
    DeformationParams,
    DomainError,
    check_budget,
    disk_samples,
    q_exp_points,
    q_exp_via_product_points,
    size_estimate,
)
from .qpoly import insertion_tallies, poly_q_multinomial, poly_q_number

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

    @classmethod
    def measured(cls, name: str, params: dict, deviation: float, tol: float, millis: int, **allowances: float):
        """A numeric check, judged by the one pass rule ``qcore.passes(deviation, tol,
        *allowances)``.  Each allowance is written into (a copy of) ``params`` under its
        keyword, so that a reader can recompute the verdict from the record and the
        report's ``tol``."""
        passed = qcore.passes(deviation, tol, *allowances.values())
        return cls(name, {**params, **allowances}, passed, deviation=deviation, millis=millis)

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
        # coherent check squares tol for its build's tail budget; inf and NaN are refused too
        if not (self.tol > 0.0 and math.isfinite(self.tol * self.tol)):
            raise ConfigError(f"--tol must be positive and its square a finite float, got {self.tol}")
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


def _millis(seconds: float) -> int:
    return max(0, int(round(seconds * 1000.0)))


def _elapsed_ms(start: float) -> int:
    return _millis(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Command implementations.  Each returns (records, extra stdout lines).


def run_verify_algebra(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    records = []
    for q in config.q_values:
        params = DeformationParams(q)
        cfg = fock.FockSpaceConfig(config.modes, config.cutoff, params)
        lowers = None
        if config.inject_corruption:
            # only a_1 is corrupted; verify_algebra lays the honest ones on the grid itself
            lowers = [fock.corrupted_annihilator(cfg, 1)] + [None] * (config.modes - 1)
        report = fock.verify_algebra(cfg, annihilators=lowers)
        point = {"q": q, "modes": config.modes, "cutoff": config.cutoff}
        for name in fock.RELATION_FAMILIES:
            allowance = {"rounding_allowance": report.allowances[name]} if name in report.allowances else {}
            deviation, millis = report.deviations[name], _millis(report.seconds[name])
            records.append(CheckRecord.measured(name, point, deviation, config.tol, millis, **allowance))
    return records, []


# samples per call of the q-exponential kernels: the values they return stay bounded
_QEXP_BATCH = 200


def _parse_x(text: str) -> complex:
    try:
        x = complex(text)
    except ValueError:
        raise ConfigError(f"cannot parse --x value {text!r}") from None
    if cmath.isnan(x):
        raise ConfigError(f"--x value {text!r} is not a number")
    return x


def run_qexp(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    # per q, the kernels on one batch of samples at a time, beside the list of all the
    # samples (40 B each)
    points = 1 if config.x is not None else config.points
    batch = min(points, _QEXP_BATCH)
    nbytes = work = 0.0
    for q in config.q_values:
        batch_bytes, batch_work = qcore._qexp_cost(DeformationParams(q), batch)
        nbytes, work = max(nbytes, batch_bytes + 40 * points), work + batch_work * points / batch
    check_budget(f"qexp eval of {points} points", nbytes, work)
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
        for first in range(0, len(samples), _QEXP_BATCH):
            xs = samples[first : first + _QEXP_BATCH]
            images = [params.q_sq * x for x in xs]
            series = q_exp_points(params, xs + images)
            products = q_exp_via_product_points(params, xs)
            for x, at_x, at_image, product in zip(xs, series, series[len(xs) :], products):
                worst_agreement = max(
                    worst_agreement, abs(at_x.value - product.value) / max(abs(product.value), 1e-300)
                )
                lhs = at_image.value
                rhs = (1.0 - (1.0 - params.q_sq) * x) * at_x.value
                worst_functional = max(
                    worst_functional, abs(lhs - rhs) / max(abs(lhs), 1.0)
                )
                if config.x is not None:
                    extra.append(f"exp_q({x}) = {at_x.value!r}  (q={q})")
        millis = _elapsed_ms(start)
        point_params = {"q": q, "points": len(samples)}
        if config.x is not None:
            point_params["x"] = str(config.x)
        for name, worst in (
            ("qexp_functional_equation", worst_functional), ("qexp_route_agreement", worst_agreement)
        ):
            records.append(CheckRecord.measured(name, point_params, worst, config.tol, millis))
    return records, extra


def run_jackson(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    levels, rel_tol = config.particles + 1, min(config.tol * 1e-2, 1e-12)
    # per q the moment sweep, beside the records of every q, all kept for the report: ~3 kB
    # and ~30 us each for the record, its JSON and its line of the rendered report
    costs = [qcore._moments_cost(DeformationParams(q), levels, 2, rel_tol) for q in config.q_values]
    checks = levels * len(costs)
    request = f"jackson moments up to n={config.particles} ({sum(cost[2] for cost in costs):.3g} grid points)"
    nbytes, work = max(cost[0] for cost in costs) + 3000 * checks, sum(cost[1] for cost in costs) + 30_000 * checks
    check_budget(request, nbytes, work)
    records = []
    for q in config.q_values:
        deviations = qcore._moment_deviations(DeformationParams(q), levels, rel_tol=rel_tol)
        for n in range(levels):
            start = time.perf_counter()
            deviation = next(deviations)
            point = {"q": q, "n": n}
            records.append(CheckRecord.measured("jackson_moment", point, deviation, config.tol, _elapsed_ms(start)))
    return records, []


def _parse_z(text: str) -> tuple[complex, ...]:
    try:
        z = tuple(complex(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse z list {text!r}: {exc}") from None
    if any(cmath.isnan(v) for v in z):
        raise ConfigError(f"--z value {text!r} has an entry that is not a number")
    return z


def run_coherent(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    # Tail budget: eigenvalue residuals scale like sqrt(tail mass), so the
    # build aims two orders below tol^2 to keep truncation out of the verdict.
    build_tail = min(1e-20, config.tol * config.tol * 1e-2)
    modes, points = (config.modes, config.points) if config.z is None else (len(config.z), 1)
    if build_tail / modes == 0.0:  # the cutoff search splits the budget over the modes
        raise ConfigError(
            f"--tol {config.tol:g} is too small: the tail budget tol^2 * 1e-2 per mode underflows "
            "to 0 in double precision, so no cutoff can reach it"
        )
    # Size the whole request before any state is built: per q one --z point at its
    # own cutoff, or --points grid points at most at the cutoff of the grid's largest |z|.
    cutoffs = {}  # q -> the cutoff that bounds its points, or why its --z point is refused
    for q in config.q_values:
        params = DeformationParams(q)
        if config.z is None:
            cutoffs[q] = coherent._grid_cutoff(params, config.modes, config.points, build_tail)
            continue
        try:
            cutoffs[q] = coherent.suggest_cutoff(params, config.z, build_tail)
        except DomainError as exc:
            cutoffs[q] = exc
    nbytes = work = 0.0
    for q, cutoff in cutoffs.items():
        if isinstance(cutoff, int):
            params = DeformationParams(q)
            for cost in (coherent._check_cost(params, modes, cutoff, points),
                         coherent._completeness_cost(params, config.cutoff)):
                nbytes, work = nbytes + cost[0], work + cost[1]
    check_budget(f"coherent check of {points} points over {modes} modes", nbytes, work)
    records = []
    for q in config.q_values:
        params = DeformationParams(q)
        if isinstance(cutoffs[q], DomainError):
            records.append(
                CheckRecord(
                    name="coherent_domain",
                    params={"q": q, "detail": str(cutoffs[q])},
                    passed=False,
                )
            )
            continue
        if config.z is not None:
            specs = [coherent.CoherentSpec(config.z, params, cutoffs[q])]
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
            deviation = abs(state.norm_sq - 1.0)
            records.append(CheckRecord.measured("coherent_normalization", {"q": q, "point": point}, deviation,
                                                config.tol, _elapsed_ms(start), tail_allowance=state.tail_mass))
            for mode in range(1, spec.modes + 1):
                start = time.perf_counter()
                report = coherent.check_eigenvalue(state, mode)
                records.append(CheckRecord.measured(
                    "coherent_eigenvalue", {"q": q, "point": point, "mode": mode}, report.residual, config.tol,
                    _elapsed_ms(start), tail_allowance=report.tail_allowance,
                    rounding_allowance=report.rounding_allowance,
                ))
        start = time.perf_counter()
        comp = coherent.check_completeness(params, config.cutoff, config.variant)
        point = {
            "q": q,
            "variant": comp.variant.value,
            "adjudicated": comp.consistent_variant.value,
            "alternate": comp.alternate_variant.value,
            "alternate_deviation": comp.alternate_max_deviation,
            "levels": len(comp.deviations),
        }
        records.append(CheckRecord.measured("coherent_completeness", point, comp.max_deviation, config.tol,
                                            _elapsed_ms(start)))
    return records, []


def _parse_word(text: str, modes: int) -> qsym.Word:
    try:
        letters = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse --word value {text!r}") from None
    n_modes = max(modes, max(letters, default=1))
    return qsym.Word(letters, n_modes)


def _inverse_residual(swapped: np.ndarray, weights: np.ndarray) -> float:
    """Largest |entry| of T·T − I for the weighted permutation T whose row w holds
    ``weights[w]`` at column ``swapped[w]``.

    Row w of T·T holds weights[w]·weights[swapped[w]] at column swapped[swapped[w]].
    Where that column is w the entry is the product minus 1; elsewhere the row holds the
    product and the identity's -1 apart.
    """
    apart = np.take(swapped, swapped) != np.arange(swapped.size)
    square = np.take(weights, swapped)
    square *= weights
    entries = square - 1.0
    np.abs(entries, out=entries)
    if apart.any():
        entries[apart] = np.maximum(np.abs(square[apart]), 1.0)
    return float(np.max(entries, initial=0.0))


def _sweep_work(sizes: range, work: Callable[[int], float]) -> float:
    """Sum work(size) over sizes, given largest first, stopping once past the work budget."""
    total = 0.0
    for size in sizes:
        total += work(size)
        if total > WORK_BUDGET:
            break
    return total


def run_qsym_exchange(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    if config.particles < 2:
        raise ConfigError("exchange checks need N >= 2")
    n, N = config.modes, config.particles

    # per size, every class built once; then per q one state vector filled from them, and
    # at each position the exchange kernel, the transposition, its square and its product
    # with the vector
    def work(size: int) -> float:
        totals = qsym._class_totals(n, size)
        per_q = qsym._class_cost("symmetrize", n, size, *totals)[1] + qsym._exchange_cost(n, size, size - 1)[1]
        per_q += qsym._transposition_cost(n, size, size - 1, 2 * (size - 1))[1]
        return qsym._class_cost("arrangements", n, size, *totals)[1] + len(config.q_values) * per_q

    # the top size's classes (16 B per word, and their records) and one state vector filled
    # from them, beside one transposition or one exchange kernel call, never both, and
    # beside the sweep's own objects, charged once: ~320 B per check record (~230 B kept,
    # ~290 B on a first call) and ~12 KiB of numpy headers and views; or, while
    # the classes are built, one pass of the arrangement kernel beside those built
    classes, words = qsym._class_totals(n, N)
    nbytes = qsym._class_cost("arrangements", n, N, classes, 0)[0] + qsym._class_cost("symmetrize", n, N, 1, words)[0]
    nbytes += 320 * 3 * (N - 1) * len(config.q_values) + 12_288
    nbytes += max(qsym._transposition_cost(n, N, 1, 0)[0], qsym._exchange_cost(n, N, 1)[0])
    build = qsym._class_cost("arrangements", n, N, classes, qsym._batch_rows(n, N))[0] + 16 * words
    nbytes = max(nbytes, build)
    check_budget(f"qsym exchange up to N={N} over {n} modes", nbytes, _sweep_work(range(N, 1, -1), work))
    records = []
    for size in range(2, N + 1):
        classes = list(qsym.arrangement_classes(n, size))
        for q in config.q_values:
            point = {"q": q, "N": size, "modes": n}
            records += _exchange_records(classes, point, DeformationParams(q), config.tol)
    return records, []


def _exchange_records(classes: list, point: dict, params: DeformationParams, tol: float) -> list:
    """The exchange and transposition records of one size and q.  The classes cover the
    size's words and each is closed under swaps, so one vector of all their sorted-word
    states serves every position: the exchange kernel compares it with its swap, and a
    transposition maps each class's part of it onto itself.  Each position's kernel results
    and transposition are dropped before the next position's are built."""
    size, n = point["N"], point["modes"]
    # the exchange check's time includes filling the state vector; the inverse check's,
    # building the transpositions
    start = time.perf_counter()
    states = np.zeros(n**size)
    for arrangement in classes:
        states[arrangement.index] = qsym._state_entries(arrangement, params)
    worst = allowance = inverse = invariance = inverse_s = invariance_s = 0.0
    exchange_s = time.perf_counter() - start
    for k in range(1, size):
        start = time.perf_counter()
        residuals, rounding = qsym.exchange_check(states, size, n, k, params)[1:]
        worst, allowance = max(worst, float(residuals.max())), max(allowance, rounding)
        del residuals
        checked = time.perf_counter()
        swapped, weights = qsym.transposition_op(size, n, k, params)
        inverse = max(inverse, _inverse_residual(swapped, weights))
        built = time.perf_counter()
        residual = np.take(states, swapped)  # T x - x, reduced in place
        residual *= weights
        residual -= states
        invariance = max(invariance, float(np.max(np.abs(residual, out=residual))))
        del swapped, weights, residual  # before the next position's arrays are built
        exchange_s += checked - start
        inverse_s += built - checked
        invariance_s += time.perf_counter() - built
    return [
        CheckRecord.measured("qsym_exchange", point, worst, tol, _millis(exchange_s), rounding_allowance=allowance),
        CheckRecord.measured("qsym_transposition_inverse", point, inverse, tol, _millis(inverse_s)),
        CheckRecord.measured("qsym_transposition_invariance", point, invariance, tol, _millis(invariance_s)),
    ]


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
            point = {"q": q, "word": config.word, "value": round(value, 12)}
            millis = _elapsed_ms(start)
            records.append(CheckRecord.measured("qsym_norm", point, deviation, config.tol, millis))
        return records, extra
    n, N = config.modes, config.particles
    samples = 25
    # each word is sized before it is drawn, as the costliest it could be: N letters, largest class
    rows = qsym._largest_class(n, N)
    costs = [qsym._class_cost(kernel, n, N, 1, rows) for kernel in ("arrangements", "symmetrize")]
    nbytes, work = sum(b for b, _ in costs), samples * len(config.q_values) * sum(w for _, w in costs)
    check_budget(f"qsym norm words up to N={N} over {n} modes", nbytes, work)
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
        millis = _elapsed_ms(start)
        point = {"q": q, "samples": samples, "N": N, "modes": n, "seed": config.seed}
        records.append(CheckRecord.measured("qsym_norm_law", point, worst, config.tol, millis))
    return records, []


def run_qsym_identity(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    n, N = config.modes, config.particles
    # every class of every total up to N, built and tallied; one pass of the arrangement
    # kernel on N letters (no more classes than rows) sets the bytes
    work = _sweep_work(range(N, -1, -1), lambda t: sum(
        qsym._class_cost(k, n, t, *qsym._class_totals(n, t))[1] for k in ("arrangements", "identity")))
    rows = qsym._batch_rows(n, N)
    nbytes = qsym._class_cost("arrangements", n, N, min(qsym._class_totals(n, N)[0], rows), rows)[0]
    check_budget(f"qsym identity up to N={N} over {n} modes", nbytes, work)
    records = []
    multinomial = functools.cache(poly_q_multinomial)  # called with sorted counts: one per multiset
    for total in range(config.particles + 1):
        start = time.perf_counter()
        all_match = True
        cases = 0
        for arrangement in qsym.arrangement_classes(n, total):
            cases += 1
            if qsym.arrangement_sum(arrangement) != multinomial(tuple(sorted(arrangement.counts))):
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


# (vector, slot) rows of one pass of the insertion kernel: a pass tallies the insertion
# sums of up to this many rows together, or of one vector's slots alone.
_INSERTION_ROWS = 2**10


def _even_coefficients(poly: qpoly.QPolynomial, top: int) -> np.ndarray | None:
    """The coefficients of q^0, q^2, ..., q^(2·top) of ``poly`` as an int64 array, or None
    when it has a term at any other exponent (no insertion tally can then equal it)."""
    coeffs = poly.coeffs
    if any(e % 2 or e > 2 * top for e in coeffs):
        return None
    dense = np.zeros(top + 1, dtype=np.int64)
    for e, c in coeffs.items():
        dense[e // 2] = c
    return dense


def run_qsym_appendix(config: RunConfig) -> tuple[list[CheckRecord], list[str]]:
    n, N = config.modes, config.particles
    classes = size_estimate(math.lgamma(N + n + 1) - math.lgamma(N + 1) - math.lgamma(n + 1))
    vectors = max(1, _INSERTION_ROWS // n)
    # Bytes, fitted on a grid of n = 1 to 1000 and N = 0 to 600: one pass of the kernel on
    # the top total, whose (vector, slot) rows each hold n term bounds and three int64
    # tallies over N + 2 exponents, beside its (n, n) mask; qpoly's cached target brackets;
    # the records.
    rows = n * min(vectors, size_estimate(math.lgamma(N + n) - math.lgamma(N + 1) - math.lgamma(n)))
    nbytes = rows * (16 * (N + 2) + 9 * n + 80) + n * n + qpoly._bracket_bytes(N + 1)
    nbytes += 400 * (N + 1) + 8_192
    # Work, in ns on the same grid (measured at 0.5 to 1.3 times this): every row's N + 2
    # tallies and n terms, ~40 us per pass and ~100 us per total, and per total a target
    # bracket read coefficient by coefficient.
    work = n * classes * (40 + 9 * (N + 2) + 10 * n) + 40_000 * classes / vectors
    work += 100_000 * (N + 1) + 250 * (N + 1) * (N + 2)
    check_budget(f"qsym appendix up to N={N} over {n} modes", nbytes, work)
    records = []
    for total in range(N + 1):
        start = time.perf_counter()
        all_match = True
        cases = 0
        target = _even_coefficients(poly_q_number(total + 1), total)
        for counts in qsym._count_vector_blocks(n, total, vectors):
            cases += counts.size
            if target is None or not (insertion_tallies(counts) == target).all():
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


_PARSER = None  # the one parser, built on the first call of build_parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb.  Building it takes milliseconds, so it is built on the
    first call and returned by every later one.  It binds no handler: ``main`` looks up
    the verb's handler in ``_verbs()`` at dispatch."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _new_parser()
    return _PARSER


def _new_parser() -> argparse.ArgumentParser:
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
        verb_parser.set_defaults(command=command, verb_parser=verb_parser)
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
        # unread options come back to the top parser; the verb's own parser reports them
        namespace, unread = parser.parse_known_args(argv)
        if unread:
            namespace.verb_parser.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = config_from_namespace(namespace)
        config.validate()
        records, extra = _verbs()[config.command].handler(config)
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
