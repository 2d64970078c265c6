"""Tests for the scalar q-analysis layer.

Numeric values are checked against exact rational oracles built with
Fraction arithmetic on the same rounded constants the library uses, so the
comparisons isolate floating-point evaluation error from modeling error.
"""

import gc
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodes.qcore import (
    DeformationParams,
    DomainError,
    QExpValue,
    SingularityError,
    _bracket_array,
    _factors_for,
    _MAX_TERMS,
    _SERIES_ENTRIES,
    _factor_coefficients,
    _factorial_array,
    _power_table,
    _moment_deviations,
    _moments_cost,
    _q_exp_product_tail,
    _series_terms,
    check_budget,
    disk_samples,
    jackson_integral,
    jackson_moment,
    passes,
    q_exp,
    q_exp_points,
    q_exp_product,
    q_exp_reciprocal,
    q_exp_series,
    q_exp_via_product_points,
    q_factorial,
    q_number,
)

from qcore_oracle import reference_q_exp, reference_q_exp_product, reference_q_exp_reciprocal

Q_GRID = (0.3, 0.5, 0.9)


def bracket_oracle(q_sq: Fraction, x: int) -> Fraction:
    """Exact bracket of an integer: (q^{2x} - 1) / (q^2 - 1)."""
    return (q_sq**x - 1) / (q_sq - 1)


def factorial_oracle(q_sq: Fraction, n: int) -> Fraction:
    value = Fraction(1)
    for k in range(1, n + 1):
        value *= bracket_oracle(q_sq, k)
    return value


# ---------------------------------------------------------------------------
# brackets, factorials, multinomials


def test_deformation_params_domain():
    for bad in (0.0, 1.0, -0.2, 1.5, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            DeformationParams(bad)
    for tiny in (1e-300, 5e-324):  # q * q is 0 in double
        with pytest.raises(DomainError, match=f"q={tiny!r}"):
            DeformationParams(tiny)
    assert DeformationParams(1.6e-162).q_sq > 0.0
    params = DeformationParams(0.5)
    assert params.q_sq == 0.25
    assert params.radius == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_bracket_frozen_values():
    params = DeformationParams(0.5)
    assert q_number(params, 3) == pytest.approx(21.0 / 16.0, rel=1e-15)
    assert q_factorial(params, 3) == pytest.approx(105.0 / 64.0, rel=1e-15)
    assert q_number(params, 0) == 0.0
    assert q_number(params, 1) == 1.0


@pytest.mark.parametrize("q", Q_GRID)
def test_bracket_matches_exact_oracle(q):
    params = DeformationParams(q)
    q_sq = Fraction(params.q_sq)
    for x in range(0, 40):
        assert q_number(params, x) == pytest.approx(
            float(bracket_oracle(q_sq, x)), rel=1e-13
        )


@pytest.mark.parametrize("q", Q_GRID)
def test_factorial_and_multinomial_match_oracle(q):
    params = DeformationParams(q)
    q_sq = Fraction(params.q_sq)
    for n in range(0, 12):
        assert q_factorial(params, n) == pytest.approx(
            float(factorial_oracle(q_sq, n)), rel=1e-12
        )
    oracle = factorial_oracle(q_sq, 6) / (
        factorial_oracle(q_sq, 3) * factorial_oracle(q_sq, 1) * factorial_oracle(q_sq, 2)
    )
    multinomial = q_factorial(params, 6) / (q_factorial(params, 3) * q_factorial(params, 1) * q_factorial(params, 2))
    assert multinomial == pytest.approx(float(oracle), rel=1e-12)


def test_bracket_limit_is_radius():
    params = DeformationParams(0.5)
    assert q_number(params, 400) == pytest.approx(params.radius, rel=1e-15)


def test_factorial_domain_errors():
    params = DeformationParams(0.5)
    with pytest.raises(DomainError):
        q_factorial(params, -1)


@given(
    q=st.floats(min_value=0.05, max_value=0.95),
    x=st.floats(min_value=-20.0, max_value=20.0),
)
@settings(max_examples=60, deadline=None)
def test_bracket_recurrence_property(q, x):
    # [x + 1] = 1 + q^2 [x] for arbitrary real x
    params = DeformationParams(q)
    lhs = q_number(params, x + 1.0)
    rhs = 1.0 + params.q_sq * q_number(params, x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# q-exponential: series route, product route, and their agreement


def test_q_exp_requires_open_disk():
    params = DeformationParams(0.5)
    with pytest.raises(DomainError):
        q_exp(params, params.radius)
    with pytest.raises(DomainError):
        q_exp_series(params, params.radius * 1.01, terms=10)


def test_q_exp_matches_manual_partial_sum():
    params = DeformationParams(0.5)
    x = 0.6
    result = q_exp(params, x, rel_tol=1e-15)
    manual = q_exp_series(params, x, terms=200)
    assert result.value == pytest.approx(manual, rel=1e-15)
    # frozen from an exact-rational evaluation of both routes (200 terms)
    assert result.value.real == pytest.approx(2.12785265395115, rel=1e-13)


def test_q_exp_tail_bound_is_honest():
    params = DeformationParams(0.9)
    for x in (0.2, 1.5, -1.0, 2.0 + 1.0j):
        coarse = q_exp(params, x, rel_tol=1e-6)
        fine = q_exp(params, x, rel_tol=1e-15)
        assert abs(coarse.value - fine.value) <= coarse.tail_bound * (1.0 + 1e-9) + 1e-15


def _floats(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.999, 0.99999])
def test_the_per_q_tables_are_python_s_float_expressions_bit_for_bit(q):
    # the one power table, built at once on fresh params or grown in steps, and the tables
    # derived from it, against Python's own float expressions up to 2^16 entries
    params, size = DeformationParams(q), 2**16
    for base in (params.q, params.q_sq):
        expected = [base**k for k in range(size)]
        assert _power_table(DeformationParams(q), base, size).tobytes() == _floats(expected)
        for grown in (1, 3, 100, 5000, size):
            table = _power_table(params, base, grown)
            assert table.tobytes() == _floats(expected[:grown]) and not table.flags.writeable
    brackets = [q_number(params, k) for k in range(size)]
    assert _bracket_array(params, size).tobytes() == _floats(brackets)
    assert _bracket_array(params, size, 1000).tobytes() == _floats(brackets[1000:])
    products = [1.0]
    for bracket in brackets[1:]:
        products.append(products[-1] * bracket)
    assert _factorial_array(params, size).tobytes() == _floats(products)
    finite = [math.isfinite(value) for value in products]
    top = finite.index(False) if False in finite else size  # the first [n]! past the float range
    for n in sorted({*range(min(top, 300)), *(2**j for j in range(16) if 2**j < top), top - 1}):
        assert q_factorial(params, n) == products[n]
    if top < size:
        with pytest.raises(OverflowError):
            q_factorial(params, top)
    q_sq = params.q_sq
    assert _factor_coefficients(params, size).tobytes() == _floats([(1 - q_sq) * q_sq**n for n in range(size)])


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9, 0.97, 0.99])
def test_tabled_series_and_products_equal_the_per_term_loops(q):
    params = DeformationParams(q)
    table = _bracket_array(params, 300)
    assert len(table) >= 300 and not _power_table(params, params.q_sq, 300).flags.writeable
    assert all(value == q_number(params, k) for k, value in enumerate(table.tolist()))
    for x in disk_samples(params, 36) + [0.0, 0.5 * params.radius, -0.9 * params.radius]:
        assert q_exp(params, x) == reference_q_exp(params, x)
        assert q_exp(params, x, rel_tol=1e-9) == reference_q_exp(params, x, rel_tol=1e-9)
        factors = _factors_for(params, x, 1e-15)
        assert q_exp_product(params, x, factors) == reference_q_exp_product(params, x, factors)
        assert q_exp_reciprocal(params, 3 * x) == reference_q_exp_reciprocal(params, 3 * x)


def test_product_pole_raises():
    params = DeformationParams(0.5)
    with pytest.raises(SingularityError):
        q_exp_product(params, params.radius, factors=5)


def _bits(value: QExpValue) -> tuple:
    """Every bit of a q-exponential value, signed zeros included."""
    return value.value.real.hex(), value.value.imag.hex(), value.tail_bound.hex(), value.terms


def _reference_via_product(params: DeformationParams, x: complex) -> QExpValue:
    factors = _factors_for(params, x, 1e-15)
    value = reference_q_exp_product(params, x, factors)
    return QExpValue(value, _q_exp_product_tail(params, x, factors) * abs(value), factors)


@pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.88, 0.93, 0.97, 0.98, 0.995])
def test_point_kernels_equal_the_per_point_loops_bit_for_bit(q):
    params = DeformationParams(q)
    samples = disk_samples(params, 200)
    xs = samples + [params.q_sq * x for x in samples]
    assert [_bits(v) for v in q_exp_points(params, xs)] == [_bits(reference_q_exp(params, x)) for x in xs]
    products = q_exp_via_product_points(params, samples)
    assert [_bits(v) for v in products] == [_bits(_reference_via_product(params, x)) for x in samples]


@pytest.mark.parametrize("q", [0.3, 0.9, 0.98])
def test_point_kernels_take_points_in_any_order(q):
    params = DeformationParams(q)
    radius = params.radius
    special = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), -0.5 * radius, -0.89 * radius]
    special += [0.3j * radius, -0.7j * radius, complex(-0.0, 0.6 * radius), 0.2 * radius]
    xs = disk_samples(params, 40) + special
    xs += xs[::3]  # duplicates
    random.Random(q).shuffle(xs)
    assert [_bits(v) for v in q_exp_points(params, xs)] == [_bits(reference_q_exp(params, x)) for x in xs]
    products = q_exp_via_product_points(params, xs)
    assert [_bits(v) for v in products] == [_bits(_reference_via_product(params, x)) for x in xs]
    for x in special:  # one-point lists, and the one-point calls
        assert _bits(q_exp_points(params, [x])[0]) == _bits(q_exp(params, x)) == _bits(reference_q_exp(params, x))
        expected = _bits(_reference_via_product(params, x))
        assert _bits(q_exp_via_product_points(params, [x])[0]) == expected
    assert q_exp_points(params, []) == q_exp_via_product_points(params, []) == []


def test_point_kernels_raise_the_errors_of_the_per_point_loops():
    params = DeformationParams(0.5)
    radius = params.radius
    # the first point outside the disk, in the order given
    with pytest.raises(DomainError) as expected:
        reference_q_exp(params, -2.0 * radius)
    with pytest.raises(DomainError, match=re.escape(str(expected.value))):
        q_exp_points(params, [0.3 * radius, -2.0 * radius, radius])
    # radius / q^{2n} is the pole of factor n; the first point on a pole, in the order given
    first = radius / params.q_sq
    message = f"product factor n=1 vanishes at x={complex(first)!r} (pole of exp_q)"
    with pytest.raises(SingularityError, match=re.escape(message)):
        q_exp_via_product_points(params, [0.1, first, radius])
    with pytest.raises(SingularityError, match=re.escape(message)):
        q_exp_via_product_points(params, [first])
    with pytest.raises(SingularityError, match="product factor n=0 vanishes"):
        q_exp_product(params, radius, factors=5)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.98, 0.99])
def test_series_kernel_edges_equal_the_per_point_loop_bit_for_bit(q):
    params = DeformationParams(q)
    radius = params.radius
    # one call whose points stop more than ten times apart
    mixed = [0.9 * radius, 0.0, -0.15 * radius, complex(0.0, 0.9 * radius), 0.15j * radius, 0.0]
    expected = [_bits(reference_q_exp(params, x)) for x in mixed]
    assert [_bits(v) for v in q_exp_points(params, mixed)] == expected
    counts = sorted(bits[3] for bits in expected)
    assert counts[-1] > 10 * counts[0]
    # calls around the entries budget of a pass: a lone point takes the longest passes, and
    # from half the budget on every pass takes one step, past the budget too
    xs = disk_samples(params, _SERIES_ENTRIES + 1)
    expected = [_bits(reference_q_exp(params, x)) for x in xs]
    for size in (1, 2, _SERIES_ENTRIES - 1, _SERIES_ENTRIES, _SERIES_ENTRIES + 1):
        assert [_bits(v) for v in q_exp_points(params, xs[:size])] == expected[:size], size


def test_series_kernel_refusals_name_their_point():
    params = DeformationParams(0.5)
    radius = params.radius
    # the first point outside the disk, in the order given, not the farthest
    with pytest.raises(DomainError, match=re.escape(f"|x| = {1.5 * radius:.6g} is outside")):
        q_exp_points(params, [0.1 * radius, 1.5 * radius, 3.0 * radius, radius])
    # near q = 1 the terms at 0.9 * radius overflow double within the second pass, long
    # before _MAX_TERMS of them: the call refuses at the end of that pass, naming the first
    # point in the order given whose partial sum is not finite
    params = DeformationParams(0.99999)
    radius = params.radius
    message = (
        f"the series terms at x = {complex(0.95 * radius)} overflow double before they can stop "
        "(|x|/radius = 0.9500, q=0.99999)"
    )
    with pytest.raises(DomainError, match=re.escape(message)):
        q_exp_points(params, [0.95 * radius, 0.9 * radius])


@pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("levels", [1, 10, 64])
def test_moment_sweep_peaks_within_its_estimate(q, levels):
    params = DeformationParams(q)
    estimate = _moments_cost(params, levels, 2, 1e-15)[0]
    tracemalloc.start()
    try:
        for _ in _moment_deviations(params, levels):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= estimate


def test_the_moments_power_tables_go_with_their_params():
    # each q near 0.999 builds some 42_000 powers of q^2 (340 kB) on its params: 20 of them
    # leave nothing behind once their params go
    jackson_moment(DeformationParams(0.5), 0)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(20):
            jackson_moment(DeformationParams(0.999 + 1e-5 * k), 0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.1e6


# near q = 1 the series' partial sums overflow double from this fraction of the radius on
OVERFLOW_FROM = {0.999: 0.95, 0.9995: 0.6, 0.9999: 0.15}


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.98, 0.995, 0.999, 0.9995, 0.9999])
def test_series_term_estimate_is_the_count_on_the_positive_axis(q):
    params = DeformationParams(q)
    for fraction in (0.0, 0.1, 0.15, 0.5, 0.6, 0.9, 0.95, 0.99):
        x = fraction * params.radius
        if fraction < OVERFLOW_FROM.get(q, math.inf):
            assert _series_terms(params, x) == q_exp(params, x).terms == reference_q_exp(params, x).terms
        else:  # counted as a series that never stops, and refused by the kernel
            assert _series_terms(params, x) == _MAX_TERMS
            with pytest.raises(DomainError, match="overflow double before they can stop"):
                q_exp(params, x)


def test_reciprocal_vanishes_at_first_pole():
    params = DeformationParams(0.5)
    assert abs(q_exp_reciprocal(params, params.radius)) < 1e-14


def test_reciprocal_times_series_is_one():
    for q in Q_GRID:
        params = DeformationParams(q)
        for x in (0.3 * params.radius, -0.4 * params.radius, 0.2j * params.radius):
            series = q_exp(params, x, rel_tol=1e-15).value
            recip = q_exp_reciprocal(params, x, rel_tol=1e-16)
            assert series * recip == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_dual_route_agreement_on_sweep(q):
    params = DeformationParams(q)
    for x in disk_samples(params, 50):
        series = q_exp(params, x).value
        product = q_exp_via_product_points(params, [x])[0].value
        assert abs(series - product) / abs(product) < 1e-12


@pytest.mark.parametrize("q", Q_GRID)
def test_functional_equation_on_sweep(q):
    # exp_q(q^2 x) = [1 - (1 - q^2) x] exp_q(x)
    params = DeformationParams(q)
    for x in disk_samples(params, 50):
        lhs = q_exp(params, params.q_sq * x).value
        rhs = (1.0 - (1.0 - params.q_sq) * x) * q_exp(params, x).value
        assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-12


@given(
    q=st.floats(min_value=0.1, max_value=0.9),
    fraction=st.floats(min_value=-0.5, max_value=0.5),
)
@settings(max_examples=40, deadline=None)
def test_functional_equation_property(q, fraction):
    params = DeformationParams(q)
    x = fraction * params.radius
    lhs = q_exp(params, params.q_sq * x).value
    rhs = (1.0 - (1.0 - params.q_sq) * x) * q_exp(params, x).value
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-12


def test_disk_samples_layout():
    params = DeformationParams(0.9)
    samples = disk_samples(params, 60)
    assert len(samples) == 60
    assert all(abs(x) < params.radius for x in samples)
    # outer rings stay within pi/4 of the positive real axis
    for x in samples:
        if abs(x) > 0.5 * params.radius:
            assert abs(math.atan2(x.imag, x.real)) <= math.pi / 4 + 1e-12
    with pytest.raises(DomainError):
        disk_samples(params, 0)


# ---------------------------------------------------------------------------
# Jackson integration


def test_jackson_integral_contract():
    params = DeformationParams(0.5)
    with pytest.raises(DomainError):
        jackson_integral(params, lambda x: x, terms=0)
    with pytest.raises(ValueError):
        jackson_integral(params, lambda x: float("nan"), terms=4)


def test_jackson_integral_of_power_closed_form():
    # integral of x^n over the grid is radius^{n+1} (1-q^2) / (1 - q^{2(n+1)})
    # = radius^{n+1} / [n+1]
    for q in Q_GRID:
        params = DeformationParams(q)
        for n in range(0, 6):
            value = jackson_integral(params, lambda x: x**n, terms=2000)
            closed = params.radius ** (n + 1) / q_number(params, n + 1)
            assert value == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("q", Q_GRID)
def test_jackson_moments_reproduce_factorials(q):
    params = DeformationParams(q)
    for n in range(0, 11):
        value = jackson_moment(params, n, rel_tol=1e-13)
        assert value == pytest.approx(q_factorial(params, n), rel=1e-12)


def test_jackson_moment_domain():
    params = DeformationParams(0.5)
    with pytest.raises(DomainError):
        jackson_moment(params, -1)
    for beta in (0, -1):
        with pytest.raises(DomainError):
            jackson_moment(params, 2, beta=beta)
    # [200]! at q = 0.999 exceeds the largest double
    with pytest.raises(DomainError, match="float range"):
        jackson_moment(DeformationParams(0.999), 200)


def test_jackson_moment_refuses_oversized_grid_before_allocating():
    params = DeformationParams(0.9999999)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match="grid points.*above the budget"):
            jackson_moment(params, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 100_000


# ---------------------------------------------------------------------------
# high-precision oracle: mpmath at 40 digits on the library's own q and q^2

ORACLE_Q = (0.3, 0.5, 0.9, 0.99)


@pytest.mark.parametrize("q", ORACLE_Q)
def test_reciprocal_matches_mpmath_pochhammer(q):
    params = DeformationParams(q)
    with mp.workdps(40):
        q_sq = mp.mpf(params.q_sq)
        for fraction in (-1.0, 0.25, 0.9):
            x = fraction * params.radius
            oracle = mp.qp((1 - q_sq) * mp.mpf(x), q_sq)
            value = q_exp_reciprocal(params, x)
            assert value.imag == 0.0
            assert abs(value.real / oracle - 1) < 1e-13


@pytest.mark.parametrize("q", Q_GRID)
def test_series_matches_mpmath_pochhammer_across_the_disk(q):
    params = DeformationParams(q)
    with mp.workdps(40):
        q_sq = mp.mpf(params.q_sq)
        for x in disk_samples(params, 50):
            oracle = 1 / mp.qp((1 - q_sq) * mp.mpc(x), q_sq)
            value = q_exp(params, x).value
            assert abs(value - oracle) / abs(oracle) < 1e-13, x


@pytest.mark.parametrize("q", ORACLE_Q)
def test_jackson_moments_match_mpmath_grid_sum(q):
    params = DeformationParams(q)
    with mp.workdps(40):
        q_sq = mp.mpf(params.q_sq)
        radius = 1 / (1 - q_sq)
        # q^{2 size} / (1 - q^2) < 1e-40: every dropped grid term and product
        # factor is below the working precision
        size = math.ceil(math.log(1e-40 * (1.0 - params.q_sq)) / math.log(params.q_sq))
        steps = [q_sq**k for k in range(2 * size)]
        for beta in (1, 2):
            shift = mp.mpf(params.q) ** beta
            weights = [mp.mpf(1)] * (2 * size + 1)
            for j in range(2 * size - 1, -1, -1):
                weights[j] = weights[j + 1] * (1 - steps[j] * shift)
            assert abs(weights[0] / mp.qp(shift, q_sq) - 1) < mp.mpf(10) ** -35
            for n in range(7):
                oracle = (1 - q_sq) * radius ** (n + 1) * mp.fsum(
                    steps[k] ** (n + 1) * weights[k] for k in range(size)
                )
                value = jackson_moment(params, n, beta=beta)
                assert abs(value / oracle - 1) < 1e-13, (beta, n)


def test_a_budget_request_is_formatted_only_on_refusal():
    class Unformattable:
        def __format__(self, spec):
            raise AssertionError("an admitted request formatted its text")

    check_budget("the class {}", 1.0, 1.0, Unformattable())
    with pytest.raises(DomainError, match=r"^the class \(1, 2\) needs about 2.15e\+09 bytes"):
        check_budget("the class {}", 2.0**31, 1.0, (1, 2))
    with pytest.raises(DomainError, match=r"^a {literal} request needs about"):
        check_budget("a {literal} request", 1.0, 1e12)  # no fields: the text as given


def test_a_check_passes_strictly_below_tol_plus_its_allowances_added_left_to_right():
    u = 2.0**-53
    assert passes(0.5, 1.0) is True and passes(1.0, 1.0) is False
    assert passes(1.5, 1.0, 1.0) and not passes(2.0, 1.0, 0.5, 0.5)
    # (1 + u) + u rounds to 1, while u + u + 1 does not: the order is the arguments'
    assert not passes(1.0, 1.0, u, u) and passes(1.0, u, u, 1.0)
    assert not passes(math.nan, 1.0) and not passes(math.inf, 1.0, math.inf)
