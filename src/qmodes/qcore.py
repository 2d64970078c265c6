"""Scalar q-analysis backbone.

Everything downstream reduces to the objects defined here: the bracket
``[x] = (q^{2x} - 1) / (q^2 - 1)``, its factorial and multinomial, the
q-exponential ``exp_q(x) = sum_n x^n / [n]!`` in both series and product
form, and the Jackson integral on the geometric grid over
``[0, 1/(1-q^2)]``.  The deformation always enters through ``q^2``: brackets,
grids and product factors all step by ``q^2``, while single powers of ``q``
only ever appear as explicit twist factors in the operator layers.

The series and the product form of the q-exponential are kept as genuinely
independent evaluation routes; agreement between them is one of the checks
the test suite certifies, so neither is ever implemented in terms of the
other.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DomainError",
    "SingularityError",
    "DeformationParams",
    "QExpValue",
    "q_number",
    "q_factorial",
    "q_multinomial",
    "q_exp_series",
    "q_exp_series_tail",
    "q_exp",
    "q_exp_product",
    "q_exp_via_product",
    "q_exp_reciprocal",
    "jackson_integral",
    "jackson_moment",
    "disk_samples",
    "check_budget",
    "size_estimate",
]

_POLE_TOL = 1e-12
_MAX_TERMS = 100_000  # series terms before q_exp gives up

BYTE_BUDGET = 2**30  # predicted peak bytes of one request
WORK_BUDGET = 3e11  # steps of ~1 ns each, as the call sites cost them: ~5 minutes on 2 cores


class DomainError(ValueError):
    """Argument lies outside the domain where an operation is defined."""


class SingularityError(ZeroDivisionError):
    """Evaluation point collides with a pole of the product form."""


@dataclass(frozen=True)
class DeformationParams:
    """Deformation parameter q with its derived constants.

    Requires 0 < q < 1 (strictly).  ``q_sq`` is q*q exactly as computed in
    working precision and ``radius = 1/(1 - q_sq)`` is simultaneously the
    convergence radius of the q-exponential series, the location of its
    first pole, and the upper endpoint of the Jackson grid.
    """

    q: float
    q_sq: float = field(init=False, repr=False, compare=False)
    radius: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.q
        if not isinstance(q, (int, float)) or not math.isfinite(q) or not 0.0 < q < 1.0:
            raise DomainError(f"q must lie strictly inside (0, 1), got {q!r}")
        object.__setattr__(self, "q", float(q))
        object.__setattr__(self, "q_sq", float(q) * float(q))
        object.__setattr__(self, "radius", 1.0 / (1.0 - float(q) * float(q)))


def q_number(params: DeformationParams, x: float) -> float:
    """Bracket of x: (q^{2x} - 1) / (q^2 - 1).

    Defined for any real x; reduces to the geometric sum
    1 + q^2 + ... + q^{2(n-1)} at nonnegative integers and is strictly
    increasing in x with limit ``params.radius``.
    """
    value = (params.q_sq**x - 1.0) / (params.q_sq - 1.0)
    if not math.isfinite(value):
        raise OverflowError(f"bracket of {x!r} is not finite at q={params.q}")
    return value


@functools.lru_cache(maxsize=64)
def _brackets(params: DeformationParams, size: int) -> tuple[float, ...]:
    """[k] for k < size, each by the expression of :func:`q_number` (finite for k >= 0).

    The per-q table the scalar series loops read in place of one call per term.
    """
    q_sq = params.q_sq
    return tuple((q_sq**k - 1.0) / (q_sq - 1.0) for k in range(size))


def _bracket_table(params: DeformationParams, size: int) -> tuple[float, ...]:
    """The cached bracket table of 64 * 2^j entries, the least such that holds ``size``.

    These are the sizes :func:`q_exp` grows its table through, so the loops
    that read it share a few tables per q instead of caching one per call.
    """
    entries = 64
    while entries < size:
        entries *= 2
    return _brackets(params, entries)


def q_factorial(params: DeformationParams, n: int) -> float:
    """Product [1][2]...[n] of brackets, with [0]! = 1."""
    if n < 0 or n != int(n):
        raise DomainError(f"factorial index must be a nonnegative integer, got {n!r}")
    brackets = _bracket_table(params, int(n) + 1)
    value = 1.0
    for k in range(1, int(n) + 1):
        value *= brackets[k]
    if not math.isfinite(value):
        raise OverflowError(f"bracket factorial overflows at n={n}, q={params.q}")
    return value


def q_multinomial(params: DeformationParams, counts: Sequence[int]) -> float:
    """[N]! / ([n_1]! ... [n_k]!) for N = sum of counts."""
    counts = tuple(counts)
    if not counts:
        raise DomainError("counts must be a nonempty sequence")
    if any(c < 0 or c != int(c) for c in counts):
        raise DomainError(f"counts must be nonnegative integers, got {counts!r}")
    total = sum(int(c) for c in counts)
    value = q_factorial(params, total)
    for c in counts:
        value /= q_factorial(params, int(c))
    if not math.isfinite(value):
        raise OverflowError(f"bracket multinomial overflows for counts={counts}")
    return value


def check_budget(request: str, nbytes: float, work: float) -> None:
    """Refuse a request whose predicted peak bytes or work pass the budget."""
    if nbytes > BYTE_BUDGET or work > WORK_BUDGET:
        raise DomainError(
            f"{request} needs about {nbytes:.3g} bytes and {work:.3g} steps of work, "
            f"above the budget of {BYTE_BUDGET:.3g} bytes and {WORK_BUDGET:.3g} steps"
        )


def size_estimate(log_size: float) -> float:
    """exp(log_size), saturating: a size such as n^N far past the budget never overflows."""
    return math.exp(min(log_size, 709.0))


# ---------------------------------------------------------------------------
# q-exponential: series route


@dataclass(frozen=True)
class QExpValue:
    """Value of a q-exponential evaluation together with its error budget.

    ``tail_bound`` is an absolute bound on the dropped remainder, ``terms``
    the number of series terms (or product factors) actually used.
    """

    value: complex
    tail_bound: float
    terms: int


def _check_disk(params: DeformationParams, x: complex) -> complex:
    x = complex(x)
    if abs(x) >= params.radius:
        raise DomainError(
            f"|x| = {abs(x):.6g} is outside the open convergence disk of "
            f"radius {params.radius:.6g} for q={params.q}"
        )
    return x


def q_exp_series(params: DeformationParams, x: complex, terms: int) -> complex:
    """Partial sum of sum_n x^n / [n]! with exactly ``terms`` terms.

    Requires |x| < radius.  Terms are generated by the stable recurrence
    t_{k} = t_{k-1} * x / [k] and summed exactly with fsum.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    x = _check_disk(params, x)
    term = 1.0 + 0.0j
    reals = [1.0]
    imags = [0.0]
    for k in range(1, terms):
        term *= x / q_number(params, k)
        reals.append(term.real)
        imags.append(term.imag)
    return complex(math.fsum(reals), math.fsum(imags))


def q_exp_series_tail(params: DeformationParams, x: complex, terms: int) -> float:
    """Absolute bound on |sum_{k >= terms} x^k / [k]!|.

    Uses the geometric majorant with ratio |x| / [terms + 1]; returns inf
    when that ratio is not yet below one.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    x = _check_disk(params, x)
    t = 1.0
    for k in range(1, terms + 1):
        t *= abs(x) / q_number(params, k)
    ratio = abs(x) / q_number(params, terms + 1)
    if ratio >= 1.0:
        return math.inf
    return t / (1.0 - ratio)


def q_exp(params: DeformationParams, x: complex, rel_tol: float = 1e-15) -> QExpValue:
    """Adaptive series evaluation of exp_q(x) to a requested relative tail.

    The stopping rule compares the rigorous geometric tail bound against the
    running partial sum, so it can only stop late, never early.
    """
    x = _check_disk(params, x)
    magnitude = abs(x)
    term = 1.0 + 0.0j
    t_abs = 1.0
    reals = [1.0]
    imags = [0.0]
    running = 1.0 + 0.0j
    brackets = _brackets(params, 64)
    for k in range(1, _MAX_TERMS):
        if k + 1 == len(brackets):  # grow the table by doubling
            brackets = _brackets(params, 2 * len(brackets))
        bracket = brackets[k]
        term *= x / bracket
        t_abs *= magnitude / bracket
        reals.append(term.real)
        imags.append(term.imag)
        running += term
        ratio = magnitude / brackets[k + 1]
        if ratio < 1.0:
            tail = t_abs * ratio / (1.0 - ratio)
            if tail <= rel_tol * max(abs(running), t_abs):
                value = complex(math.fsum(reals), math.fsum(imags))
                return QExpValue(value, tail, k + 1)
    raise DomainError(
        f"series did not reach rel_tol={rel_tol} within {_MAX_TERMS} terms "
        f"(|x|/radius = {abs(x) / params.radius:.4f})"
    )


# ---------------------------------------------------------------------------
# q-exponential: product route


@functools.lru_cache(maxsize=64)
def _factor_coefficients(params: DeformationParams, size: int) -> tuple[float, ...]:
    """(1 - q^2) q^{2n} for n < size: the coefficient of x in the n-th product factor."""
    q_sq = params.q_sq
    return tuple((1.0 - q_sq) * q_sq**n for n in range(size))


def q_exp_product(params: DeformationParams, x: complex, factors: int) -> complex:
    """Truncated product form prod_{n < factors} 1 / (1 - (1-q^2) q^{2n} x).

    Valid for any complex x away from the poles at x = q^{-2n} * radius;
    hitting a pole within machine tolerance raises SingularityError.
    """
    if factors < 1:
        raise DomainError(f"factors must be >= 1, got {factors}")
    x = complex(x)
    value = 1.0 + 0.0j
    coefficients = _factor_coefficients(params, factors)
    for n in range(factors):
        f = 1.0 - coefficients[n] * x
        if abs(f) <= _POLE_TOL:
            raise SingularityError(
                f"product factor n={n} vanishes at x={x!r} (pole of exp_q)"
            )
        value /= f
    return value


def _q_exp_product_tail(params: DeformationParams, x: complex, factors: int) -> float:
    """Relative bound on the factors dropped after ``factors`` of them."""
    if factors < 1:
        raise DomainError(f"factors must be >= 1, got {factors}")
    head = (1.0 - params.q_sq) * params.q_sq**factors * abs(complex(x))
    if head >= 1.0:
        return math.inf
    budget = params.q_sq**factors * abs(complex(x)) / (1.0 - head)
    return math.expm1(budget)


def _factors_for(params: DeformationParams, x: complex, rel_tol: float) -> int:
    magnitude = abs(complex(x))
    if magnitude == 0.0:
        return 1
    needed = math.ceil(math.log(rel_tol / (4.0 * magnitude)) / math.log(params.q_sq))
    return max(1, needed)


def q_exp_via_product(
    params: DeformationParams, x: complex, rel_tol: float = 1e-15
) -> QExpValue:
    """Adaptive product-form evaluation of exp_q(x)."""
    factors = _factors_for(params, x, rel_tol)
    value = q_exp_product(params, x, factors)
    tail = _q_exp_product_tail(params, x, factors) * abs(value)
    return QExpValue(value, tail, factors)


def q_exp_reciprocal(
    params: DeformationParams, x: complex, rel_tol: float = 1e-15
) -> complex:
    """1 / exp_q(x) as the entire product prod_n (1 - (1-q^2) q^{2n} x).

    This is the numerically safe way to divide by the q-exponential: the
    product has zeros exactly where exp_q has poles and never requires the
    series.  Defined for all complex x.
    """
    x = complex(x)
    value = 1.0 + 0.0j
    factors = _factors_for(params, x, rel_tol)
    coefficients = _factor_coefficients(params, factors)
    for n in range(factors):
        value *= 1.0 - coefficients[n] * x
    if x == complex(x.real, 0.0):
        return complex(value.real, 0.0)
    return value


# ---------------------------------------------------------------------------
# Jackson integration on the geometric grid


def jackson_integral(
    params: DeformationParams,
    f: Callable[[np.ndarray], np.ndarray | float],
    upper: float,
    terms: int,
) -> float:
    """Jackson integral of f over [0, upper] on the base-q^2 grid.

    upper * (1 - q^2) * sum_{k < terms} q^{2k} f(upper * q^{2k}).  ``f`` is
    called once, on the array of grid points; a scalar result is broadcast.
    The upper endpoint must equal ``params.radius``: that is the only interval
    the downstream identities use, and the contract keeps it explicit.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if not math.isclose(upper, params.radius, rel_tol=1e-12):
        raise DomainError(
            f"upper must equal the convergence radius {params.radius!r}, got {upper!r}"
        )
    steps = params.q_sq ** np.arange(terms)
    values = np.broadcast_to(np.asarray(f(upper * steps), dtype=float), steps.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand returned a non-finite value on the grid")
    return upper * (1.0 - params.q_sq) * math.fsum(steps * values)


def jackson_moment(
    params: DeformationParams,
    n: int,
    beta: float = 2,
    rel_tol: float = 1e-15,
) -> float:
    """Jackson integral of x^n / exp_q(q^beta x) over [0, radius].

    On the grid x_k = radius * q^{2k} the weight has the closed form
    1 / exp_q(q^beta x_k) = prod_{j >= k} (1 - q^{2j+beta}), so every weight
    is one suffix product of a single factor array.  The K grid points and
    the J factors past the grid are fixed up front by rigorous bounds, each
    held to rel_tol / 2:

    - grid: the points k >= K sum to at most
      radius^n q^{2K(n+1)} / (1 - q^{2(n+1)}), measured against the lower
      bound radius^n q^{2k'(n+1)} / 2 of the point k' from which every weight
      is >= 1/2 (by prod (1 - a_j) >= 1 - sum a_j);
    - product: the factors j >= K + J change each weight by a relative
      q^{2J+beta} / (1 - q^2) at most.

    ``beta`` must be positive: 2 is the ``squared_q`` weight, 1 the
    ``paper_q`` one.  A request past the budget raises DomainError, with the
    estimate, before anything is allocated.
    """
    if n < 0 or n != int(n):
        raise DomainError(f"moment order must be a nonnegative integer, got {n!r}")
    if not beta > 0.0:
        raise DomainError(f"weight shift beta must be positive, got {beta!r}")
    q_sq, log_q_sq = params.q_sq, math.log(params.q_sq)
    shift = beta * math.log(params.q)
    half_from = max(0, math.ceil((math.log((1.0 - q_sq) / 2.0) - shift) / log_q_sq))
    level = (n + 1) * log_q_sq
    grid = half_from + max(1, math.ceil(math.log(rel_tol * -math.expm1(level) / 4.0) / level))
    extra = max(0, math.ceil((math.log(rel_tol * (1.0 - q_sq) / 2.0) - shift) / log_q_sq))
    # two float arrays over all factors and four over the grid; fsum takes ~1.5 us per point
    request = f"moment {n} at q={params.q} ({grid} grid points, {extra} more product factors)"
    check_budget(request, 16 * (grid + extra) + 32 * grid, 1500 * grid + 20 * extra)
    # powers of q_sq itself, so the weights sit on the same grid as the steps
    factors = 1.0 - q_sq ** np.arange(grid + extra) * params.q**beta
    weights = np.cumprod(factors[::-1])[::-1][:grid]
    # Near q = 1 at large n, x^n overflows on the first grid points while
    # their weight underflows.  (x / radius)^n <= 1 cannot overflow, and a
    # weight that underflows belongs to a term below 1e-308; radius^n comes
    # back in logs, at a relative cost of about |log moment| ulp.
    radius = params.radius
    scaled = jackson_integral(params, lambda x: (x / radius) ** n * weights, radius, grid)
    try:
        return math.exp(math.log(scaled) + n * math.log(radius))
    except (ValueError, OverflowError):
        raise DomainError(
            f"moment {n} at q={params.q} lies outside the float range"
        ) from None


# ---------------------------------------------------------------------------
# Deterministic sample points for disk-wide sweeps


def disk_samples(params: DeformationParams, points: int) -> list[complex]:
    """Deterministic complex sample points inside the convergence disk.

    Magnitudes cycle through six fractions of the radius.  The inner rings
    (|x| <= 0.45 * radius) take golden-angle phases covering the full
    circle; the outer rings keep phases within +-pi/4 of the positive real
    axis, because toward the far side of the disk the alternating series
    for exp_q cancels catastrophically and no summation order can beat the
    double-precision condition-number floor there.

    The restriction does not make every point safe near q = 1.  On the inner
    rings at phases near pi the series alternates too, and its condition
    number sum |t_k| / |exp_q(x)| over a 200-point sweep grows from about
    1.3e4 at q = 0.95 to 5.9e6 at 0.97, 1.3e10 at 0.98 and 1.2e20 at 0.99.
    So the series route is good to ~1e-13 relative accuracy up to about
    q = 0.95 only; at q = 0.97 it is off by ~1e-10 and at q = 0.99 by more
    than 1e2, which ``qexp eval`` reports as failed route agreement.  The
    points are kept as they are, so that the defect shows.
    """
    if points < 1:
        raise DomainError(f"points must be >= 1, got {points}")
    fractions = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
    outer_phases = (0.0, math.pi / 4.0, -math.pi / 4.0)
    golden = 2.399963229728653
    samples: list[complex] = []
    for k in range(points):
        fraction = fractions[k % len(fractions)]
        magnitude = fraction * params.radius
        if fraction <= 0.45:
            phase = (golden * (k + 1)) % (2.0 * math.pi)
        else:
            phase = outer_phases[(k // len(fractions)) % len(outer_phases)]
        samples.append(complex(magnitude * math.cos(phase), magnitude * math.sin(phase)))
    return samples
