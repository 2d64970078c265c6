"""Coherent states of the deformed multimode oscillator.

For a tuple z = (z_1, ..., z_n) inside the convergence disk the state is

    |z> = c(z) sum_n prod_i z_i^{n_i} / sqrt([n_i]!) |n_1 ... n_n>,
    c(z) = prod_i exp_q(|z_i|^2)^{-1/2},

which is normalized because <z|z> = c^2 prod_i exp_q(|z_i|^2).  It is the
Kronecker product v_1 (x) ... (x) v_n of normalized single-mode factors
v_k[m] = exp_q(|z_k|^2)^{-1/2} z_k^m / sqrt([m]!), and it is kept as those
factors: no vector of cutoff^n entries is ever formed.  Two checked
identities follow.

Twisted eigenvalue: the mode-i annihilator acts as a on factor i and as q^N
on every later factor, and returns the same coefficient pattern with z_k
scaled by q for every k > i.  On normalized states the relation reads
a_i |z> = z_i rho |z'>  with the exact ratio of the two normalization
constants  rho = prod_{k>i} sqrt(1 - (1-q^2) |z_k|^2).  Both sides are
Kronecker products, so the residual is bounded factor by factor, and apart
from rounding it is pure truncation error that shrinks monotonically as the
cutoff grows.

Completeness: after the angular integrals are carried out exactly (each
off-diagonal matrix element carries a pure phase that integrates to zero),
the resolution of unity over radial Jackson integration reduces per mode to

    (1 / [m]!) * jackson_integral(x^m / exp_q(q^beta x)) = 1,

where the weight exponent beta is 2 for the ``squared_q`` weight, which the
check judges, and 1 for the ``paper_q`` weight, whose deviation it reports
beside the verdict (it misses by an order-one factor).  Both go through
``qcore._moment_deviations``, which takes each level's moment from the one
moment kernel ``qcore.jackson_moment``; the target [m]! comes independently,
as the running product of the brackets that ``qcore.q_factorial`` forms.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    DeformationParams,
    DomainError,
    _SERIES_ENTRIES,
    _bracket_array,
    _factors_for,
    _moment_deviations,
    _moments_cost,
    _power_table,
    _series_terms,
    q_exp_reciprocal,
)

_MAX_CUTOFF = 5000  # suggest_cutoff refuses a cutoff past this
_UNIT_ROUNDOFF = 2.0**-53
_FRACTIONS = (0.2, 0.5, 0.8)  # |z_i|^2 / radius on the spec_grid points

__all__ = [
    "InsufficientCutoffError",
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


def _disk_amplitudes(params: DeformationParams, z: Sequence[complex]) -> tuple[complex, ...]:
    """``z`` as a nonempty tuple of complex amplitudes, each with |z|^2 < radius."""
    z = tuple(complex(v) for v in z)
    if not z:
        raise ValueError("z must be a nonempty sequence")
    for v in z:
        if not abs(v) ** 2 < params.radius:  # NaN too
            raise DomainError(
                f"|z|^2 = {abs(v)**2:.6g} is outside the open disk of radius {params.radius:.6g}"
            )
    return z


@dataclass(frozen=True)
class CoherentSpec:
    """Mode amplitudes z with the deformation and the per-mode cutoff."""

    z: tuple[complex, ...]
    params: DeformationParams
    cutoff: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _disk_amplitudes(self.params, self.z))
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def modes(self) -> int:
        return len(self.z)

    def shifted(self, i: int) -> "CoherentSpec":
        """Spec with z_k -> q z_k for every mode k > i (the eigenvalue twist)."""
        if not 1 <= i <= self.modes:
            raise ValueError(f"mode index must lie in 1..{self.modes}, got {i}")
        q = self.params.q
        twisted = tuple(v if k <= i else q * v for k, v in enumerate(self.z, start=1))
        return CoherentSpec(twisted, self.params, self.cutoff)


@dataclass(frozen=True)
class _Twist:
    """What the eigenvalue checks of all modes of one state share.

    With v_k the state's factors, v'_k the normalized factor of q z_k and
    r_k = sqrt(1 - (1-q^2) |z_k|^2), the check of mode i compares
    A_k = q^N v_k with B_k = r_k v'_k on every mode k > i.  Entry k - 1 of
    each array describes the modes k..n:

    - ``lhs``: prod_{j>=k} ||A_j||;
    - ``rhs``: prod_{j>=k} ||B_j||;
    - ``telescoped``: sum_{m>=k} prod_{k<=j<m} ||B_j|| ||A_m - B_m|| prod_{j>m} ||A_j||,
      the telescoping bound on ||(x)_{j>=k} A_j - (x)_{j>=k} B_j||.

    Each carries a trailing 1 (or 0) for the empty product (or sum).  Mode 1
    is never twisted, so entry 0 of these arrays and of ``tails`` is unused.
    """

    tails: tuple[float, ...]  # tail bound of each twisted amplitude q z_k
    norms: np.ndarray  # ||v_k||
    lhs: np.ndarray
    rhs: np.ndarray
    telescoped: np.ndarray


@dataclass(frozen=True)
class CoherentState:
    """Normalized truncated coherent state, kept as its per-mode factors.

    ``vector`` is the (modes, cutoff) stack of the normalized single-mode
    factors v_k[m] = exp_q(|z_k|^2)^{-1/2} z_k^m / sqrt([m]!).  The state is
    their Kronecker product, which is never formed.  ``tail_mass`` bounds the
    norm shortfall the truncation causes.
    """

    spec: CoherentSpec
    vector: np.ndarray
    tail_mass: float
    mode_tails: tuple[float, ...]

    @property
    def norm_sq(self) -> float:
        """<z|z> of the truncated state: the product of the factors' squared norms."""
        return math.prod(float(np.vdot(v, v).real) for v in self.vector)

    @functools.cached_property
    def _twist(self) -> _Twist:
        spec = self.spec
        params = spec.params
        powers = _power_table(params, params.q, spec.cutoff)  # the diagonal of q^N on one mode
        modes = spec.modes
        tails = [0.0] * modes
        lhs, rhs, telescoped = np.ones(modes + 1), np.ones(modes + 1), np.zeros(modes + 1)
        for k in range(modes, 1, -1):  # mode 1 is never twisted
            z = params.q * spec.z[k - 1]
            twisted, tails[k - 1] = _normalized_factor(params, z, spec.cutoff), mode_tail_bound(params, z, spec.cutoff)
            ratio = math.sqrt(1.0 - (1.0 - params.q_sq) * abs(spec.z[k - 1]) ** 2)
            a, b = powers * self.vector[k - 1], ratio * twisted
            norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
            lhs[k - 1], rhs[k - 1] = norm_a * lhs[k], norm_b * rhs[k]
            telescoped[k - 1] = np.linalg.norm(a - b) * lhs[k] + norm_b * telescoped[k]
        return _Twist(tuple(tails), np.linalg.norm(self.vector, axis=1), lhs, rhs, telescoped)


def mode_coefficients(params: DeformationParams, z: complex, cutoff: int) -> np.ndarray:
    """Single-mode coefficients z^m / sqrt([m]!) for m < cutoff."""
    brackets = _bracket_array(params, cutoff).tolist()
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
    brackets = _bracket_array(params, cutoff + 2).tolist()
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


def _lowered(params: DeformationParams, v: np.ndarray) -> np.ndarray:
    """a v on one mode: sqrt([m + 1]) v[m + 1] at rung m, and 0 at the top rung."""
    lowered = np.zeros_like(v)
    lowered[:-1] = np.sqrt(_bracket_array(params, v.size, 1)) * v[1:]
    return lowered


def _normalized_factor(params: DeformationParams, z: complex, cutoff: int) -> np.ndarray:
    """exp_q(|z|^2)^{-1/2} z^m / sqrt([m]!) for m < cutoff: one mode's factor of a state."""
    return math.sqrt(q_exp_reciprocal(params, abs(z) ** 2).real) * mode_coefficients(params, z, cutoff)


def suggest_cutoff(
    params: DeformationParams,
    z: Sequence[complex],
    tail_tol: float = 1e-10,
) -> int:
    """Smallest cutoff whose total relative tail mass stays below ``tail_tol``: the largest
    count of exp_q series terms at |z_i|^2 that holds a relative tail of tail_tol / modes."""
    z = _disk_amplitudes(params, z)
    cutoffs = {abs(v) ** 2: _series_terms(params, abs(v) ** 2, tail_tol / len(z), _MAX_CUTOFF + 1) for v in z}
    for x, cutoff in cutoffs.items():
        if cutoff > _MAX_CUTOFF:
            raise InsufficientCutoffError(f"no cutoff below {_MAX_CUTOFF} reaches tail {tail_tol} for |z|^2={x:.6g}")
    return max(cutoffs.values())


def build_coherent(spec: CoherentSpec, tail_tol: float = 1e-10) -> CoherentState:
    """Normalized coherent state on the truncated space, as its per-mode factors.

    The normalization constant uses the full (untruncated) q-exponential
    through its product form, so the truncated state's squared norm falls
    short of one by exactly the cut tail mass; ``tail_mass`` is a rigorous
    bound on that shortfall.  A cutoff too small for ``tail_tol`` raises
    InsufficientCutoffError instead of silently returning a bad state.
    """
    params = spec.params
    cutoff = spec.cutoff
    tails = tuple(mode_tail_bound(params, z, cutoff) for z in spec.z)
    total_tail = sum(tails)
    if not math.isfinite(total_tail) or total_tail > tail_tol:
        raise InsufficientCutoffError(
            f"cutoff {cutoff} reaches tail mass {total_tail:.3g}, above the requested {tail_tol:.3g}"
        )
    factors = np.empty((spec.modes, cutoff), dtype=np.complex128)
    for k, z in enumerate(spec.z):
        factors[k] = _normalized_factor(params, z, cutoff)
    return CoherentState(spec=spec, vector=factors, tail_mass=total_tail, mode_tails=tails)


@dataclass(frozen=True)
class EigenvalueReport:
    """Residual of the twisted eigenvalue relation for one mode, measured and not judged.

    ``residual`` is the telescoping bound of :func:`check_eigenvalue`.  A
    verdict is ``qcore.passes(residual, tol, tail_allowance, rounding_allowance)``.
    """

    mode: int
    residual: float
    tail_allowance: float
    rounding_allowance: float


def check_eigenvalue(state: CoherentState, i: int) -> EigenvalueReport:
    """Residual of a_i |z> = z_i * rho * |z'> on the truncated space, factor by factor.

    |z'> is the coherent state of the shifted spec (z_k -> q z_k for k > i)
    and rho = prod_{k>i} sqrt(1 - (1-q^2) |z_k|^2) is the exact ratio of the
    two normalization constants.  Both sides are Kronecker products: a_i |z>
    of A_k = v_k (k < i), a v_i, q^N v_k (k > i); the other side of
    B_k = v_k (k < i), z_i v_i, r_k v'_k (k > i), with r_k the k-th factor of
    rho.  The residual reported is the telescoping bound

        ||(x) A_k - (x) B_k|| <= sum_k prod_{j<k} ||B_j|| ||A_k - B_k|| prod_{j>k} ||A_j||,

    where the terms k < i vanish.  It costs O(modes * cutoff) per state
    (the parts every mode shares are built once per state) and, apart from
    rounding, is pure truncation error that decreases with growing cutoff.

    The tail allowance is 10 sqrt(tail mass of |z> and of |z'>).  The
    rounding allowance is (cutoff + 4 modes + 4) u (||lhs|| + ||rhs||),
    u = 2^-53: each entry of either side carries a relative rounding error
    of at most (2 modes + 4) u however it is formed (factor by factor here,
    or as a dense Kronecker product), and the norms over a mode's cutoff
    entries, the products over the modes and the sum of the terms add at
    most (cutoff + 2 modes) u relative to the bound.
    """
    spec = state.spec
    params = spec.params
    if not 1 <= i <= spec.modes:
        raise ValueError(f"mode index must lie in 1..{spec.modes}, got {i}")
    twist = state._twist
    v = state.vector[i - 1]
    lowered = _lowered(params, v)
    target = spec.z[i - 1] * v
    before = math.prod(twist.norms[: i - 1])
    norm_target = np.linalg.norm(target)
    residual = before * (
        np.linalg.norm(lowered - target) * twist.lhs[i] + norm_target * twist.telescoped[i]
    )
    sides = before * (np.linalg.norm(lowered) * twist.lhs[i] + norm_target * twist.rhs[i])
    shifted_tail = 0.0
    for k in range(1, spec.modes + 1):
        shifted_tail += state.mode_tails[k - 1] if k <= i else twist.tails[k - 1]
    return EigenvalueReport(
        mode=i,
        residual=float(residual),
        tail_allowance=10.0 * math.sqrt(state.tail_mass + shifted_tail),
        rounding_allowance=(spec.cutoff + 4 * spec.modes + 4) * _UNIT_ROUNDOFF * float(sides),
    )


@dataclass(frozen=True)
class CompletenessReport:
    """Per-level deviations of the radial resolution-of-unity reduction with the
    ``squared_q`` weight, measured and not judged: a verdict is
    ``qcore.passes(max_deviation, tol)``, with no allowance.  ``paper_q_max_deviation``
    is the largest deviation with the ``paper_q`` weight, reported beside it."""

    q: float
    deviations: tuple[float, ...]
    max_deviation: float
    paper_q_max_deviation: float

    @property
    def adjudicated(self) -> str:
        """The weight convention that actually satisfies the identity."""
        return "squared_q" if self.max_deviation <= self.paper_q_max_deviation else "paper_q"


def check_completeness(params: DeformationParams, cutoff: int) -> CompletenessReport:
    """Certify the resolution of unity through its per-mode radial reduction.

    Angular integration is exact (off-diagonal elements integrate to zero as
    pure phases), so the whole statement reduces mode by mode to Jackson
    moments of the reciprocal q-exponential: with the ``squared_q`` weight
    (q^2 x in the denominator) each diagonal entry integrates to one; the
    ``paper_q`` weight (q x) misses by an order-one factor and is reported
    for adjudication.  Occupation levels up to cutoff - 2 are checked; the
    reduction is identical across modes, so neither the check nor its cost
    depends on the mode count.  :func:`_completeness_cost` prices it.
    """
    levels = max(1, cutoff - 1)
    deviations = tuple(_moment_deviations(params, levels, 2))
    return CompletenessReport(
        q=params.q,
        deviations=deviations,
        max_deviation=max(deviations),
        paper_q_max_deviation=max(_moment_deviations(params, levels, 1)),
    )


def _completeness_cost(params: DeformationParams, cutoff: int) -> tuple[float, float]:
    """Peak bytes and steps (~1 ns each) of :func:`check_completeness`: both weights'
    moment sweeps, the squared-q deviations (~48 B each: a float, and its pointer in the
    list and the tuple that collect it) and the ~3 kB of its record."""
    levels = max(1, cutoff - 1)
    costs = [_moments_cost(params, levels, beta, 1e-15) for beta in (2, 1)]
    nbytes = max(cost[0] for cost in costs) + 48 * levels + 3000
    return nbytes, sum(cost[1] for cost in costs)


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
    specs = []
    for p in range(points):
        z = []
        for m in range(modes):
            fraction = _FRACTIONS[(p + m) % len(_FRACTIONS)]
            phase = 2.399963229728653 * (p + 1) + 0.7 * m  # golden-angle steps
            z.append(cmath.rect(math.sqrt(fraction * params.radius), phase))
        z = tuple(z)
        specs.append(CoherentSpec(z, params, suggest_cutoff(params, z, tail_tol)))
    return specs


def _grid_cutoff(params: DeformationParams, modes: int, points: int, tail_tol: float) -> int:
    """A cutoff that no spec of ``spec_grid(params, modes, points, tail_tol)`` exceeds.

    The tail mass grows with |z|, so it is the cutoff of the largest
    fraction the grid reaches, found without building the grid.
    """
    largest = _FRACTIONS[min(points + modes - 2, len(_FRACTIONS) - 1)]
    return suggest_cutoff(params, (math.sqrt(largest * params.radius),), tail_tol / modes)


def _check_cost(params: DeformationParams, modes: int, cutoff: int, points: int) -> tuple[float, float]:
    """Peak bytes and steps (~1 ns each) of checking ``points`` states of ``modes``
    modes, none past ``cutoff``, and of the report of those checks.

    Fitted on a 2-core x86-64 machine.  Per point and mode: ~2 us per cutoff
    entry (the cutoff search, the tail bounds and the coefficients of v_k and
    v'_k).  Per reciprocal q-exponential (one for each v_k and v'_k, and
    mode 1 is never twisted): ~250 ns per product factor, charged at
    |z|^2 = radius, where the most are needed.  A state's factor stacks
    hold ~64 B per mode and cutoff entry.  Each of the modes + 1 checks of
    a point keeps ~3 kB: its share of the spec, its record, the record's
    JSON and its line of the rendered report.  The power tables, grown in steps,
    take 8 B per entry of up to twice the most read of them: q's the cutoff,
    q^2's the factors and the cutoff search's brackets.
    """
    factors = _factors_for(params, params.radius, 1e-15)
    tables = 16 * (max(factors, cutoff) + _SERIES_ENTRIES // 8 + 1 + cutoff)
    nbytes = 64 * modes * cutoff + 3000 * points * (modes + 1) + tables
    return nbytes, points * (2000 * modes * cutoff + 250 * (2 * modes - 1) * factors)
