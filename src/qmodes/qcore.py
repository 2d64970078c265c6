"""Scalar q-analysis backbone.

Everything downstream reduces to the objects defined here: the bracket
``[x] = (q^{2x} - 1) / (q^2 - 1)``, its factorial, the
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
import operator
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
    "q_exp_series",
    "q_exp",
    "q_exp_points",
    "q_exp_product",
    "q_exp_via_product_points",
    "q_exp_reciprocal",
    "jackson_integral",
    "jackson_moment",
    "disk_samples",
    "passes",
    "check_budget",
    "size_estimate",
]

_POLE_TOL = 1e-12
_MAX_TERMS = 100_000  # series terms before q_exp gives up
_SERIES_ENTRIES = 3072  # point-terms per pass of the series kernel: fewer cost set-up, more cost memory
_GATHER = 8  # stopped points whose series terms are copied out together
_PRODUCT_ENTRIES = 4096  # product factors a block forms at once
_RINGS = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)  # the fractions of the radius disk_samples cycles through

BYTE_BUDGET = 2**30  # predicted peak bytes of one request
WORK_BUDGET = 3e11  # steps of ~1 ns each, as the call sites cost them: ~5 minutes on 2 cores


class DomainError(ValueError):
    """Argument lies outside the domain where an operation is defined."""


class SingularityError(ZeroDivisionError):
    """Evaluation point collides with a pole of the product form."""


@dataclass(frozen=True)
class DeformationParams:
    """Deformation parameter q with its derived constants.

    Requires 0 < q < 1 (strictly), with q*q > 0 in double.  ``q_sq`` is q*q
    exactly as computed in working precision and ``radius = 1/(1 - q_sq)`` is
    simultaneously the convergence radius of the q-exponential series, the
    location of its first pole, and the upper endpoint of the Jackson grid.
    ``_powers`` holds the power tables of :func:`_power_table`.
    """

    q: float
    q_sq: float = field(init=False, repr=False, compare=False)
    radius: float = field(init=False, repr=False, compare=False)
    _powers: dict[float, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.q
        if not isinstance(q, (int, float)) or not math.isfinite(q) or not 0.0 < q < 1.0:
            raise DomainError(f"q must lie strictly inside (0, 1), got {q!r}")
        if float(q) * float(q) == 0.0:  # below about 1.57e-162; q^-1 or log(q^2) fail next
            raise DomainError(f"q^2 underflows to 0 in double precision, got q={q!r}")
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


def _power_table(params: DeformationParams, base: float, size: int) -> np.ndarray:
    """base ** k for k < ``size``: a read-only view of the one table of Python float powers
    per base (q or q^2) that every per-q table reads, held on ``params``, so it lives as long
    as they do.  A first build holds ``size`` entries; a table too short grows to ``size`` or
    twice its length, whichever is more, so a table grown in steps holds under twice the most
    asked of it."""
    table = params._powers.get(base)
    if table is None or table.size < size:
        held = 0 if table is None else table.size
        entries = max(size, 2 * held)
        grown = np.fromiter(map(base.__pow__, range(held, entries)), float, entries - held)
        table = np.concatenate((table, grown)) if held else grown
        table.flags.writeable = False
        params._powers[base] = table
    return table[:size]


def _bracket_array(params: DeformationParams, size: int, first: int = 0) -> np.ndarray:
    """[k] for first <= k < ``size``, from the power table of q^2: a fresh array, bit for
    bit :func:`q_number`.  Scalar loops read its ``.tolist()``."""
    brackets = _power_table(params, params.q_sq, size)[first:] - 1.0
    brackets /= params.q_sq - 1.0
    return brackets


def _factorial_array(params: DeformationParams, size: int) -> np.ndarray:
    """[k]! for k < ``size``, the running product of :func:`_bracket_array` in order (inf
    past the float range): bit for bit the loop of that product."""
    factorials = _bracket_array(params, size)
    factorials[:1] = 1.0
    with np.errstate(over="ignore"):
        return np.multiply.accumulate(factorials, out=factorials)


def _finite_factorial(params: DeformationParams, n: int, value: float) -> float:
    """``value``, taken as [n]!, or OverflowError where it is not finite."""
    if not math.isfinite(value):
        raise OverflowError(f"bracket factorial overflows at n={n}, q={params.q}")
    return value


def q_factorial(params: DeformationParams, n: int) -> float:
    """Product [1][2]...[n] of brackets, with [0]! = 1."""
    if n < 0 or n != int(n):
        raise DomainError(f"factorial index must be a nonnegative integer, got {n!r}")
    return _finite_factorial(params, n, float(_factorial_array(params, int(n) + 1)[-1]))


def passes(deviation: float, tol: float, *allowances: float) -> bool:
    """The one pass rule of every numeric check: ``deviation`` below ``tol`` plus each
    allowance, added left to right.  A NaN deviation fails.

    The checks measure and report their deviations and allowances; only this judges them.
    """
    threshold = tol
    for allowance in allowances:
        threshold += allowance
    return bool(deviation < threshold)


def check_budget(request: str, nbytes: float, work: float, *fields) -> None:
    """Refuse a request whose predicted peak bytes or work pass the budget.

    Given ``fields``, ``request`` is a ``str.format`` template that is filled
    only on refusal, so an admitted call formats no text.
    """
    if nbytes > BYTE_BUDGET or work > WORK_BUDGET:
        if fields:
            request = request.format(*fields)
        # an estimate from a saturated size_estimate may be inf: past 1e300 it gives a floor
        nbytes = f"about {nbytes:.3g}" if nbytes < 1e300 else "over 1e+300"
        work = f"{work:.3g}" if work < 1e300 else "over 1e+300"
        raise DomainError(
            f"{request} needs {nbytes} bytes and {work} steps of work, "
            f"above the budget of {BYTE_BUDGET:.3g} bytes and {WORK_BUDGET:.3g} steps"
        )


def size_estimate(log_size: float) -> float:
    """exp(log_size), saturating: a size such as n^N far past the budget never overflows."""
    return math.exp(min(log_size, 709.0))


# ---------------------------------------------------------------------------
# q-exponential: series route


@dataclass(frozen=True, slots=True)
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
    if not abs(x) < params.radius:  # NaN too
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


def q_exp(params: DeformationParams, x: complex, rel_tol: float = 1e-15) -> QExpValue:
    """Adaptive series evaluation of exp_q(x) to a requested relative tail.

    The one-point call of :func:`q_exp_points`.  The stopping rule compares
    the rigorous geometric tail bound against the running partial sum, so it
    can only stop late, never early.
    """
    return q_exp_points(params, [x], rel_tol)[0]


def q_exp_points(
    params: DeformationParams, xs: Sequence[complex], rel_tol: float = 1e-15
) -> list[QExpValue]:
    """exp_q at every point of ``xs`` by the series, in their order.

    Term k is t_k = t_{k-1} * x / [k], summed exactly with fsum.  After term
    k the sum stops once the ratio r = |x| / [k+1] is below one and the tail
    bound |t_k| r / (1 - r) is at most rel_tol * max(|partial sum|, |t_k|).

    All the points are stepped side by side, each step one float operation across the points
    still summing, in the order CPython's complex arithmetic takes: so every value, tail and
    term count equals the one-point loop bit for bit.  The call keeps 16 B per term of each
    point still summing.  Every point must lie in the open disk |x| < radius (DomainError
    otherwise, for the first such point), and stop within ``_MAX_TERMS`` terms (DomainError).
    A point still summing whose partial sum overflows double can never stop: the call raises
    DomainError at the end of the first pass that meets one, naming the first such point.
    """
    xs = [_check_disk(params, x) for x in xs]
    return _series_block(params, xs, rel_tol) if xs else []


def _series_block(params: DeformationParams, xs: list[complex], rel_tol: float) -> list[QExpValue]:
    """The series of :func:`q_exp_points`: passes of ``_SERIES_ENTRIES`` // (points still
    summing) steps, at most the budget's square root, so a lone point steps at most that far
    past its stop.  The points that stop in a pass have their terms copied out of every pass's
    chunk, ``_GATHER`` at a time, and summed with fsum; then each chunk drops them."""
    numerators = np.array([[x.real + x.imag * 0.0 for x in xs], [x.imag - x.real * 0.0 for x in xs]])
    magnitude, live = np.array([abs(v) for v in xs]), np.arange(len(xs))  # the points still summing
    running, t_abs = np.array([[1.0] * len(xs), [0.0] * len(xs)]), np.ones(len(xs))
    history = [running[None].copy()]  # per pass, (term, component, point) of the points still summing
    values: list[QExpValue] = [None] * len(xs)  # type: ignore[list-item]
    k0, longest = 1, math.isqrt(_SERIES_ENTRIES)
    while k0 < _MAX_TERMS:
        steps = min(max(1, _SERIES_ENTRIES // live.size), longest, _MAX_TERMS - k0)
        terms, running, t_abs, hit, rows, tails = _series_pass(
            params, k0, steps, numerators, magnitude, history[-1][-1], running, t_abs, rel_tol
        )
        overflowed = np.flatnonzero(~(hit | np.isfinite(running).all(axis=0)))
        if overflowed.size:  # a point still summing whose terms turn NaN would never stop
            x = xs[live[overflowed[0]]]
            raise DomainError(
                f"the series terms at x = {x} overflow double before they can stop "
                f"(|x|/radius = {abs(x) / params.radius:.4f}, q={params.q})"
            )
        history.append(terms[1:])
        k0 += steps
        columns = np.flatnonzero(hit)
        for first in range(0, columns.size, _GATHER):
            group, filled = columns[first : first + _GATHER], 0
            found = np.empty((k0, 2, group.size))
            for chunk in history:
                chunk.take(group, axis=2, out=found[filled : filled + len(chunk)])
                filled += len(chunk)
            for g, column in enumerate(group.tolist()):
                k = rows[first + g]
                re, im = (math.fsum(memoryview(found[: k + 1, c, g])) for c in (0, 1))
                values[live[column]] = QExpValue(complex(re, im), tails[first + g], k + 1)
        if columns.size == live.size:
            return values
        if columns.size:
            kept = np.flatnonzero(~hit)
            for i in range(len(history)):  # each old chunk is freed before the next is copied
                history[i] = history[i].take(kept, axis=2)
            live, magnitude, numerators = live[kept], magnitude[kept], numerators[:, kept]
            running, t_abs = running[:, kept], t_abs[kept]
    raise DomainError(
        f"series did not reach rel_tol={rel_tol} within {_MAX_TERMS} terms "
        f"(|x|/radius = {magnitude.min() / params.radius:.4f})"
    )


def _series_pass(params, k0, steps, numerators, magnitude, term, running, t_abs, rel_tol):
    """Terms k0 .. k0 + steps - 1 of the points still summing, from term k0 - 1, its partial sum
    and modulus: the terms (row 0 is ``term``), new sums and moduli, which points stop, and at
    which term with what tail bound.  A function of its own, so its arrays go before the gather.

    CPython divides x by the float [k] as the complex (x.re + x.im*0, x.im - x.re*0) / [k]
    and multiplies t by w as (t.re*w.re - t.im*w.im, t.re*w.im + t.im*w.re).  Row c of
    the weights of step k holds the factors of t.re and t.im in component c of that
    product, so one multiply and one add of the two columns take the step for all points.
    """
    brackets = _bracket_array(params, k0 + steps + 1, k0)[:, None]
    with np.errstate(all="ignore"):  # rows past a point's stop may overflow; they are never read
        weights = np.empty((steps, 2, 2, magnitude.size))
        np.divide(numerators[0], brackets[:-1], out=weights[:, 0, 0])
        np.divide(numerators[1], brackets[:-1], out=weights[:, 1, 0])
        np.negative(weights[:, 1, 0], out=weights[:, 0, 1])
        weights[:, 1, 1] = weights[:, 0, 0]
        terms, products = np.empty((steps + 1, 2, magnitude.size)), np.empty((2, 2, magnitude.size))
        terms[0] = term
        left, right = products[:, 0], products[:, 1]
        for j in range(steps):
            np.multiply(weights[j], terms[j], products)
            np.add(left, right, terms[j + 1])
        del weights  # so that the pass peaks at the stopping test's arrays alone
        running = np.concatenate((running[None], terms[1:]))
        np.add.accumulate(running, axis=0, out=running)
        bound, running = np.hypot(running[1:, 0], running[1:, 1]), running[-1].copy()
        t = np.concatenate((t_abs[None], magnitude / brackets[:-1]))
        np.multiply.accumulate(t, axis=0, out=t)
        np.maximum(bound, t[1:], out=bound)
        bound *= rel_tol
        ratio = magnitude / brackets[1:]
        tail = t[1:] * ratio
        tail /= 1.0 - ratio
        stop = tail <= bound
        stop &= ratio < 1.0
    hit = stop.any(axis=0)
    columns = np.flatnonzero(hit)
    rows = stop[:, columns].argmax(axis=0)
    return terms, running, t[-1].copy(), hit, (k0 + rows).tolist(), tail[rows, columns].tolist()


# ---------------------------------------------------------------------------
# q-exponential: product route


def _factor_coefficients(params: DeformationParams, size: int) -> np.ndarray:
    """(1 - q^2) q^{2n}, the coefficient of x in the n-th product factor, for n < ``size``:
    a fresh array derived from the power table of q^2."""
    return (1.0 - params.q_sq) * _power_table(params, params.q_sq, size)


def q_exp_product(params: DeformationParams, x: complex, factors: int) -> complex:
    """Truncated product form prod_{n < factors} 1 / (1 - (1-q^2) q^{2n} x).

    Valid for any complex x away from the poles at x = q^{-2n} * radius;
    hitting a pole within machine tolerance raises SingularityError.  The
    one-point call of the product kernel behind :func:`q_exp_via_product_points`.
    """
    return _product_points(params, [complex(x)], [factors])[0]


def _product_points(
    params: DeformationParams, xs: list[complex], counts: list[int]
) -> list[complex]:
    """prod_{n < counts[i]} 1 / (1 - (1-q^2) q^{2n} x_i) for every point, in their order.

    CPython multiplies the float coefficient c by x as the complex (c, 0), so a
    factor is (1 - (c x.re - 0 x.im), 0 - (c x.im + 0 x.re)).  The factors are
    formed as float arrays for a block of points, sorted by count, of at most
    ``_PRODUCT_ENTRIES`` factors; each point's are then divided out in turn by
    CPython's own complex division.  So every value equals the one-point loop
    bit for bit, and a pole raises SingularityError at the same first factor,
    for the first such point.
    """
    if any(count < 1 for count in counts):
        raise DomainError(f"factors must be >= 1, got {min(counts)}")
    order = sorted(range(len(xs)), key=counts.__getitem__)
    values: list[complex] = [0j] * len(xs)
    poles = []
    first = 0
    while first < len(order):
        last = first + 1
        while last < len(order) and (last + 1 - first) * counts[order[last]] <= _PRODUCT_ENTRIES:
            last += 1
        block, first = order[first:last], last
        size = counts[block[-1]]
        coefficients = _factor_coefficients(params, size)
        x = np.array([xs[i] for i in block], dtype=complex)[:, None]
        factors, scaled = np.empty((len(block), size), dtype=complex), np.empty((len(block), size))
        np.multiply(coefficients, x.real, out=scaled)
        scaled -= 0.0 * x.imag
        np.subtract(1.0, scaled, out=factors.real)
        np.multiply(coefficients, x.imag, out=scaled)
        scaled += 0.0 * x.real
        np.subtract(0.0, scaled, out=factors.imag)
        vanishing = np.hypot(factors.real, factors.imag, out=scaled) <= _POLE_TOL
        near_pole = bool(vanishing.any())
        for row, i in enumerate(block):
            count = counts[i]
            if near_pole and vanishing[row, :count].any():
                poles.append((i, int(vanishing[row, :count].argmax())))
            else:
                row_factors = factors[row, :count].tolist()
                values[i] = functools.reduce(operator.truediv, row_factors, 1.0 + 0.0j)
    if poles:
        i, n = min(poles)
        raise SingularityError(f"product factor n={n} vanishes at x={xs[i]!r} (pole of exp_q)")
    return values


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


def q_exp_via_product_points(
    params: DeformationParams, xs: Sequence[complex], rel_tol: float = 1e-15
) -> list[QExpValue]:
    """exp_q at every point of ``xs`` by the product form, in their order.

    Each point takes the factors that hold its relative tail below rel_tol, and
    its tail bound is that relative bound times |value|.
    """
    xs = [complex(x) for x in xs]
    counts = [_factors_for(params, x, rel_tol) for x in xs]
    values = _product_points(params, xs, counts)
    return [
        QExpValue(value, _q_exp_product_tail(params, x, count) * abs(value), count)
        for x, count, value in zip(xs, counts, values)
    ]


def _series_terms(params: DeformationParams, magnitude: float, rel_tol: float = 1e-15, limit: int = _MAX_TERMS) -> int:
    """Terms :func:`q_exp_points` takes at the positive real point ``magnitude``, or ``limit``
    where it would not stop before (also once its partial sums overflow double): the one
    count of exp_q series terms, which prices ``qexp eval`` and the cutoffs of ``coherent``.

    There every term is positive, so the partial sums are the running sums of
    |t_k|, and the stopping rule is read off a few hundred terms at a time.
    """
    t_abs = running = 1.0
    for k0 in range(1, limit, _SERIES_ENTRIES // 8):
        steps = min(_SERIES_ENTRIES // 8, limit - k0)
        brackets = _bracket_array(params, k0 + steps + 1, k0)
        with np.errstate(all="ignore"):  # where it would not stop, the terms may overflow
            t = np.multiply.accumulate(np.concatenate(([t_abs], magnitude / brackets[:-1])))[1:]
            sums = np.add.accumulate(np.concatenate(([running], t)))[1:]
            ratio = magnitude / brackets[1:]
            stop = (ratio < 1.0) & (t * ratio / (1.0 - ratio) <= rel_tol * np.maximum(sums, t))
        if sums[-1] == math.inf:  # no term after a stop can overflow, so it never stopped
            return limit
        if stop.any():
            return k0 + int(stop.argmax()) + 1
        t_abs, running = t[-1], sums[-1]
    return limit


def _qexp_cost(params: DeformationParams, points: int, x: complex | None = None) -> tuple[float, float]:
    """Peak bytes and steps (~1 ns each) of evaluating exp_q at ``points`` disk samples, or at
    ``x``, by both routes: :func:`q_exp_points` at each and at its q^2 image, and the product
    route at each.  A sampled modulus at which the series cannot stop is refused (DomainError).

    Only the sampled moduli count: the first min(points, 6) rings, or |x|.  The series
    keeps 16 B per term of each point still summing.  A sample and its image are charged
    at the positive real point of the sample's ring; off the axis a few points take up to
    ~1.8 times as many terms, so the largest terms x points still live is charged 1.5
    times.  A pass takes ~64 B per entry it holds (at most ``_SERIES_ENTRIES``), a gather
    32 B per term of up to ``_GATHER`` points at twice the outer ring's terms, a count of
    terms ~64 B per term of its chunk.  The product is charged at the outer ring: ~25 B
    per factor of a block and 40 B per factor of one point as Python complex numbers,
    each twice, since a block's arrays and its last point's factors are still bound while
    the next block forms its own.  The power table of q^2, grown in steps, takes 8 B per
    entry of up to twice the most a pass or block reads (2 terms and a count's chunk, or
    the factors), the values ~600 B per point, the rest 8 KiB.  Fitted on a 2-core x86-64
    machine: ~200 ns per series term, ~100 ns per product factor, ~20 us per point, ~0.5 ms
    per call.
    """
    if x is None:
        moduli = [fraction * params.radius for fraction in _RINGS[:points]]
    else:  # outside the disk, --x is a failed check and sums nothing
        moduli = [abs(x)] if abs(x) < params.radius else []
    rings = [_series_terms(params, modulus) for modulus in moduli]
    for modulus, count in zip(moduli, rings):
        if count == _MAX_TERMS:
            raise DomainError(
                f"the exp_q series at |x| = {modulus:.6g} cannot stop at q={params.q}: "
                f"its terms overflow double, or it needs {_MAX_TERMS} terms or more"
            )
    terms, factors = max(rings, default=0), _factors_for(params, max(moduli, default=0.0), 1e-15)
    lives = [k * (len(rings) - j) for j, k in enumerate(sorted(rings))]
    history = 48 * -(-points // len(_RINGS)) * max(lives, default=0)
    live = 2 * points
    entries = live * min(max(1, _SERIES_ENTRIES // live), math.isqrt(_SERIES_ENTRIES))
    series = history + 64 * entries + 64 * terms * min(_GATHER, live)
    block = max(factors, min(points * factors, _PRODUCT_ENTRIES))
    product = 2 * (25 * block + 40 * factors)
    table = 16 * max(2 * terms + _SERIES_ENTRIES // 8, factors)
    work = points * (400 * terms + 100 * factors + 20_000) + 500_000
    return max(series, product, 64 * (_SERIES_ENTRIES // 8)) + table + 600 * points + 8192, work


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
    for coefficient in _factor_coefficients(params, factors).tolist():
        value *= 1.0 - coefficient * x
    if x == complex(x.real, 0.0):
        return complex(value.real, 0.0)
    return value


# ---------------------------------------------------------------------------
# Jackson integration on the geometric grid


def jackson_integral(params: DeformationParams, f: Callable[[np.ndarray], np.ndarray | float], terms: int) -> float:
    """Jackson integral of f over [0, radius] on the base-q^2 grid.

    radius * (1 - q^2) * sum_{k < terms} q^{2k} f(radius * q^{2k}).  ``f`` is
    called once, on the array of grid points; a scalar result is broadcast.
    """
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    upper, steps = params.radius, _power_table(params, params.q_sq, terms)
    values = np.broadcast_to(np.asarray(f(upper * steps), dtype=float), steps.shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand returned a non-finite value on the grid")
    return upper * (1.0 - params.q_sq) * math.fsum(steps * values)


def _moment_grid(params: DeformationParams, n: int, beta: float, rel_tol: float) -> tuple[int, int, int]:
    """(H, K, J) of moment n: the first grid point from which every weight is >= 1/2,
    the grid points and the product factors past the grid, as :func:`jackson_moment`
    bounds them."""
    if not beta > 0.0:
        raise DomainError(f"weight shift beta must be positive, got {beta!r}")
    q_sq, log_q_sq = params.q_sq, math.log(params.q_sq)
    shift = beta * math.log(params.q)
    half_from = max(0, math.ceil((math.log((1.0 - q_sq) / 2.0) - shift) / log_q_sq))
    level = (n + 1) * log_q_sq
    grid = half_from + max(1, math.ceil(math.log(rel_tol * -math.expm1(level) / 4.0) / level))
    extra = max(0, math.ceil((math.log(rel_tol * (1.0 - q_sq) / 2.0) - shift) / log_q_sq))
    return half_from, grid, extra


def _moment_cost(grid: float, extra: float, table: float) -> tuple[float, float]:
    # two float arrays over all factors and four over the grid, beside the held power table
    # of q^2 that the factors read (8 B for each of its ``table`` entries); fsum takes ~1.5 us
    # per point
    return 16 * (grid + extra) + 32 * grid + 8 * table, 1500 * grid + 20 * extra


def _moments_cost(params: DeformationParams, levels: int, beta: float, rel_tol: float) -> tuple[float, float, float]:
    """Peak bytes, steps (~1 ns each) and grid points of :func:`_moment_deviations` over
    ``levels`` >= 1 levels, in closed form.

    Moment n takes K_n = H + max(1, ceil(a_n / (n + 1))) grid points, where
    a_n = log(rel_tol (1 - q^{2(n+1)}) / 4) / log q^2 > 0 falls as n grows.  So
    K_n <= H + 1 + (K_0 - H) / (n + 1), and the grid points of all levels sum to at
    most levels (H + 1) + (K_0 - H)(1 + ln levels).  Moment 0 has the largest grid,
    and so the peak bytes.  Besides its grid and factors, each level costs ~50 us of
    calls (45 to 48 us measured where the grids are a few points, on a 2-core x86-64
    machine).  The sweep reads [m]! from a list of Python floats, ~40 B per level with the
    array it is built from.  The power table of q^2, 8 B per entry, is first built for the
    levels' brackets; moment 0's grid and factors, where more, grow it to those or to twice
    the levels.  The sweep's fixed objects take 8 KiB: its generator, each moment's small
    arrays and floats, and what a first call allocates (up to 6.4 kB above the rest, measured).
    """
    half_from, grid, extra = _moment_grid(params, 0, beta, rel_tol)
    points = levels * (half_from + 1) + (grid - half_from) * (1.0 + math.log(levels))
    work = _moment_cost(points, levels * extra, 0)[1] + 50_000 * levels
    table = max(grid + extra, 2 * levels) if grid + extra > levels else levels
    return _moment_cost(grid, extra, table)[0] + 40 * levels + 8192, work, points


def _moment_deviations(params: DeformationParams, levels: int, beta: float = 2, rel_tol: float = 1e-15):
    """|jackson_moment(params, m, beta, rel_tol) / [m]! - 1| for m < ``levels``, in order.

    [m]! is read from :func:`_factorial_array`, the product :func:`q_factorial` takes, so
    every deviation is the same bit for bit.  Each level's moment is taken before its
    factorial, and the first that is not finite raises q_factorial's OverflowError.
    """
    for m, factorial in enumerate(_factorial_array(params, levels).tolist()):
        moment = jackson_moment(params, m, beta, rel_tol)
        yield abs(moment / _finite_factorial(params, m, factorial) - 1.0)


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
    _, grid, extra = _moment_grid(params, n, beta, rel_tol)
    request = f"moment {n} at q={params.q} ({grid} grid points, {extra} more product factors)"
    check_budget(request, *_moment_cost(grid, extra, grid + extra))
    # powers of q_sq itself, so the weights sit on the same grid as the steps
    factors = _power_table(params, params.q_sq, grid + extra) * params.q**beta
    np.subtract(1.0, factors, out=factors)
    weights = np.cumprod(factors[::-1])[::-1][:grid]
    # Near q = 1 at large n, x^n overflows on the first grid points while
    # their weight underflows.  (x / radius)^n <= 1 cannot overflow, and a
    # weight that underflows belongs to a term below 1e-308; radius^n comes
    # back in logs, at a relative cost of about |log moment| ulp.
    radius = params.radius
    scaled = jackson_integral(params, lambda x: (x / radius) ** n * weights, terms=grid)
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

    The ring sets how many series terms a point needs, near q = 1 from a few dozen
    at 0.15 * radius to several hundred at 0.9 * radius, so :func:`_qexp_cost`
    charges the series of a sweep ring by ring.
    """
    if points < 1:
        raise DomainError(f"points must be >= 1, got {points}")
    outer_phases = (0.0, math.pi / 4.0, -math.pi / 4.0)
    golden = 2.399963229728653
    samples: list[complex] = []
    for k in range(points):
        fraction = _RINGS[k % len(_RINGS)]
        magnitude = fraction * params.radius
        if fraction <= 0.45:
            phase = (golden * (k + 1)) % (2.0 * math.pi)
        else:
            phase = outer_phases[(k // len(_RINGS)) % len(outer_phases)]
        samples.append(complex(magnitude * math.cos(phase), magnitude * math.sin(phase)))
    return samples
