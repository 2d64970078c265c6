"""Coherent states of the deformed multimode oscillator.

For a tuple z = (z_1, ..., z_n) inside the convergence disk the state is

    |z> = c(z) sum_n prod_i z_i^{n_i} / sqrt([n_i]!) |n_1 ... n_n>,
    c(z) = prod_i exp_q(|z_i|^2)^{-1/2},

which is normalized because <z|z> = c^2 prod_i exp_q(|z_i|^2).  Two checked
identities follow.

Twisted eigenvalue: the mode-i annihilator returns the same coefficient
pattern with z_k scaled by q for every k > i.  On normalized states the
relation reads  a_i |z> = z_i rho |z'>  with the exact ratio of the two
normalization constants  rho = prod_{k>i} sqrt(1 - (1-q^2) |z_k|^2);  the
residual of that identity is pure truncation error, so it shrinks
monotonically as the cutoff grows.

Completeness: after the angular integrals are carried out exactly (each
off-diagonal matrix element carries a pure phase that integrates to zero),
the resolution of unity over radial Jackson integration reduces per mode to

    (1 / [m]!) * jackson_integral(x^m / exp_q(q^beta x)) = 1,

where the weight exponent beta is 2 for the ``squared_q`` variant and 1 for
the ``paper_q`` variant; the check adjudicates which variant actually
satisfies the identity (squared_q does).  Both variants go through the one
moment kernel ``qcore.jackson_moment``; the target [m]! comes independently
from ``qcore.q_factorial``.
"""

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .qcore import (
    DeformationParams,
    DomainError,
    _brackets,
    jackson_moment,
    q_exp_reciprocal,
    q_factorial,
    q_number,
)

_MAX_CUTOFF = 5000  # suggest_cutoff gives up below this cutoff

__all__ = [
    "InsufficientCutoffError",
    "WeightVariant",
    "CoherentSpec",
    "CoherentState",
    "mode_coefficients",
    "mode_tail_bound",
    "suggest_cutoff",
    "build_coherent",
    "EigenvalueReport",
    "check_eigenvalue",
    "CompletenessReport",
    "check_completeness",
    "spec_grid",
]


class InsufficientCutoffError(ValueError):
    """The configured cutoff cannot reach the requested truncation tail."""


class WeightVariant(str, enum.Enum):
    """Exponent convention inside the completeness weight denominator."""

    PAPER_Q = "paper_q"
    SQUARED_Q = "squared_q"


@dataclass(frozen=True)
class CoherentSpec:
    """Mode amplitudes z together with the truncation context."""

    z: tuple[complex, ...]
    cfg: fock.FockSpaceConfig

    def __post_init__(self) -> None:
        z = tuple(complex(v) for v in self.z)
        object.__setattr__(self, "z", z)
        if len(z) != self.cfg.modes:
            raise ValueError(
                f"expected {self.cfg.modes} amplitudes, got {len(z)}"
            )
        radius = self.cfg.params.radius
        for v in z:
            if abs(v) ** 2 >= radius:
                raise DomainError(
                    f"|z|^2 = {abs(v)**2:.6g} is outside the open disk of radius {radius:.6g}"
                )

    @property
    def params(self) -> DeformationParams:
        return self.cfg.params

    def shifted(self, i: int) -> "CoherentSpec":
        """Spec with z_k -> q z_k for every mode k > i (the eigenvalue twist)."""
        if not 1 <= i <= self.cfg.modes:
            raise ValueError(f"mode index must lie in 1..{self.cfg.modes}, got {i}")
        q = self.params.q
        twisted = tuple(v if k <= i else q * v for k, v in enumerate(self.z, start=1))
        return CoherentSpec(twisted, self.cfg)


@dataclass(frozen=True)
class CoherentState:
    """Normalized truncated coherent state vector with its error budget."""

    spec: CoherentSpec
    vector: np.ndarray
    norm_constant: float
    tail_mass: float


def mode_coefficients(params: DeformationParams, z: complex, cutoff: int) -> np.ndarray:
    """Single-mode coefficients z^m / sqrt([m]!) for m < cutoff."""
    brackets = _brackets(params, cutoff)
    coeff = np.zeros(cutoff, dtype=np.complex128)
    coeff[0] = 1.0
    for m in range(1, cutoff):
        coeff[m] = coeff[m - 1] * z / math.sqrt(brackets[m])
    return coeff


def mode_tail_bound(params: DeformationParams, z: complex, cutoff: int) -> float:
    """Upper bound on the relative squared-amplitude mass cut off at ``cutoff``.

    The mass terms t_m = |z|^{2m} / [m]! decay geometrically once
    [m + 1] > |z|^2; the bound is the geometric majorant of the dropped
    tail, already divided by the (>= 1) retained partial sum.  Returns inf
    while the majorant does not yet apply.
    """
    brackets = _brackets(params, cutoff + 2)
    x = abs(z) ** 2
    term = 1.0
    partial = 1.0
    for m in range(1, cutoff):
        term *= x / brackets[m]
        partial += term
    first_dropped = term * x / brackets[cutoff]
    ratio = x / brackets[cutoff + 1]
    if ratio >= 1.0:
        return math.inf
    return first_dropped / (1.0 - ratio) / partial


def suggest_cutoff(
    params: DeformationParams,
    z: Sequence[complex],
    tail_tol: float = 1e-10,
) -> int:
    """Smallest cutoff whose total relative tail mass stays below ``tail_tol``."""
    z = tuple(complex(v) for v in z)
    if not z:
        raise ValueError("z must be a nonempty sequence")
    per_mode = tail_tol / len(z)
    worst = 1
    for v in z:
        if abs(v) ** 2 >= params.radius:
            raise DomainError(
                f"|z|^2 = {abs(v)**2:.6g} is outside the open disk of radius {params.radius:.6g}"
            )
        x = abs(v) ** 2
        term = 1.0
        partial = 1.0
        cutoff = None
        for m in range(1, _MAX_CUTOFF):
            term *= x / q_number(params, m)
            partial += term
            ratio = x / q_number(params, m + 1)
            if ratio < 1.0 and (term * ratio / (1.0 - ratio)) / partial <= per_mode:
                cutoff = m + 1
                break
        if cutoff is None:
            raise InsufficientCutoffError(
                f"no cutoff below {_MAX_CUTOFF} reaches tail {tail_tol} for |z|^2={x:.6g}"
            )
        worst = max(worst, cutoff)
    return worst


def build_coherent(spec: CoherentSpec, tail_tol: float = 1e-10) -> CoherentState:
    """Normalized coherent state on the configured truncated space.

    The normalization constant uses the full (untruncated) q-exponential
    through its product form, so the truncated vector's squared norm falls
    short of one by exactly the cut tail mass; ``tail_mass`` is a rigorous
    bound on that shortfall.  A cutoff too small for ``tail_tol`` raises
    InsufficientCutoffError instead of silently returning a bad state.
    """
    params = spec.params
    cutoff = spec.cfg.cutoff
    total_tail = 0.0
    vector = None
    constant = 1.0
    for z in spec.z:
        tail = mode_tail_bound(params, z, cutoff)
        total_tail += tail
        coeff = mode_coefficients(params, z, cutoff)
        vector = coeff if vector is None else np.kron(vector, coeff)
        constant *= q_exp_reciprocal(params, abs(z) ** 2).real
    if not math.isfinite(total_tail) or total_tail > tail_tol:
        raise InsufficientCutoffError(
            f"cutoff {cutoff} reaches tail mass {total_tail:.3g}, above the requested {tail_tol:.3g}"
        )
    constant = math.sqrt(constant)
    return CoherentState(
        spec=spec, vector=constant * vector, norm_constant=constant, tail_mass=total_tail
    )


@dataclass(frozen=True)
class EigenvalueReport:
    """Residual of the twisted eigenvalue relation for one mode."""

    mode: int
    eigenvalue: complex
    norm_ratio: float
    residual: float
    tail_allowance: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol + self.tail_allowance


def check_eigenvalue(
    state: CoherentState, i: int, tol: float = 1e-9
) -> EigenvalueReport:
    """Residual of a_i |z> = z_i * rho * |z'> on the truncated space.

    |z'> is the coherent state of the shifted spec (z_k -> q z_k for k > i)
    and rho = prod_{k>i} sqrt(1 - (1-q^2) |z_k|^2) is the exact ratio of the
    two normalization constants.  The residual is pure truncation error and
    decreases monotonically with growing cutoff.
    """
    spec = state.spec
    params = spec.params
    shifted_spec = spec.shifted(i)
    shifted = build_coherent(shifted_spec, tail_tol=math.inf)
    ratio = 1.0
    for k in range(i + 1, spec.cfg.modes + 1):
        ratio *= math.sqrt(1.0 - (1.0 - params.q_sq) * abs(spec.z[k - 1]) ** 2)
    lower = fock.annihilator(spec.cfg, i)
    residual = float(
        np.linalg.norm(lower @ state.vector - spec.z[i - 1] * ratio * shifted.vector)
    )
    allowance = 10.0 * math.sqrt(state.tail_mass + shifted.tail_mass) + 1e-13
    return EigenvalueReport(
        mode=i,
        eigenvalue=spec.z[i - 1],
        norm_ratio=ratio,
        residual=residual,
        tail_allowance=allowance,
        tol=tol,
    )


@dataclass(frozen=True)
class CompletenessReport:
    """Per-level deviations of the radial resolution-of-unity reduction."""

    variant: WeightVariant
    q: float
    deviations: tuple[float, ...]
    max_deviation: float
    alternate_variant: WeightVariant
    alternate_max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation < self.tol

    @property
    def consistent_variant(self) -> WeightVariant:
        """The weight convention that actually satisfies the identity."""
        if self.max_deviation <= self.alternate_max_deviation:
            return self.variant
        return self.alternate_variant


def check_completeness(
    cfg: fock.FockSpaceConfig,
    tol: float = 1e-10,
    variant: WeightVariant = WeightVariant.SQUARED_Q,
) -> CompletenessReport:
    """Certify the resolution of unity through its per-mode radial reduction.

    Angular integration is exact (off-diagonal elements integrate to zero as
    pure phases), so the whole statement reduces mode by mode to Jackson
    moments of the reciprocal q-exponential: with the ``squared_q`` weight
    each diagonal entry integrates to one; the ``paper_q`` weight misses by
    an order-one factor and is reported for adjudication.  Occupation levels
    up to cutoff - 2 are checked; the reduction is identical across modes,
    so the cost does not depend on the mode count.
    """
    variant = WeightVariant(variant)
    params = cfg.params
    levels = range(max(1, cfg.cutoff - 1))

    def deviations(weight: WeightVariant) -> tuple[float, ...]:
        beta = 2 if weight is WeightVariant.SQUARED_Q else 1
        return tuple(
            abs(jackson_moment(params, m, beta) / q_factorial(params, m) - 1.0)
            for m in levels
        )

    primary = deviations(variant)
    other = (
        WeightVariant.PAPER_Q
        if variant is WeightVariant.SQUARED_Q
        else WeightVariant.SQUARED_Q
    )
    alternate = deviations(other)
    return CompletenessReport(
        variant=variant,
        q=params.q,
        deviations=primary,
        max_deviation=max(primary),
        alternate_variant=other,
        alternate_max_deviation=max(alternate),
        tol=tol,
    )


def spec_grid(
    params: DeformationParams, modes: int, points: int, tail_tol: float = 1e-10
) -> list[CoherentSpec]:
    """Deterministic grid of coherent specs with |z_i|^2 up to 0.8 * radius.

    Magnitudes sweep fractions of the disk radius and phases advance by an
    irrational step per point, so no two specs are related by symmetry.  Each
    spec gets the smallest cutoff that meets ``tail_tol``.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    fractions = (0.2, 0.5, 0.8)
    specs = []
    for p in range(points):
        z = []
        for m in range(modes):
            fraction = fractions[(p + m) % len(fractions)]
            phase = 2.399963229728653 * (p + 1) + 0.7 * m  # golden-angle steps
            z.append(cmath.rect(math.sqrt(fraction * params.radius), phase))
        z = tuple(z)
        cutoff = suggest_cutoff(params, z, tail_tol)
        specs.append(CoherentSpec(z, fock.FockSpaceConfig(modes, cutoff, params)))
    return specs
