"""Tests for exact polynomial arithmetic in q.

The Gaussian-coefficient constructions are cross-checked against an
independent Pascal-recurrence oracle, so the multinomial never validates
itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodes.qcore import DeformationParams, q_factorial
from qmodes.qpoly import (
    QPolynomial,
    insertion_tallies,
    poly_insertion_sum,
    poly_q_factorial,
    poly_q_multinomial,
    poly_q_number,
)
from qmodes.qsym import norm_identity_exact

from qpoly_oracle import reference_divmod, reference_insertion_sum
from qsym_oracle import _count_vectors

# polynomials in q^2 with int coefficients, of any leading coefficient
polynomials = st.dictionaries(
    keys=st.integers(min_value=0, max_value=4).map(lambda k: 2 * k),
    values=st.integers(min_value=-6, max_value=6),
    max_size=5,
).map(QPolynomial)


def gaussian_binomial_oracle(n: int, k: int) -> QPolynomial:
    """Pascal-recurrence construction of the Gaussian binomial in q^2.

    C(n, k) = C(n-1, k-1) + q^{2k} C(n-1, k), C(n, 0) = C(n, n) = 1 —
    no division involved, so it is an independent route to the same object
    as [n]! / ([k]! [n-k]!).
    """
    if k < 0 or k > n:
        return QPolynomial.zero()
    row = [QPolynomial.one()]
    for m in range(1, n + 1):
        new_row = [QPolynomial.one()]
        for j in range(1, m):
            new_row.append(row[j - 1] + QPolynomial.monomial(2 * j) * row[j])
        new_row.append(QPolynomial.one())
        row = new_row
    return row[k]


# ---------------------------------------------------------------------------
# construction and canonical form


def test_canonicalization_drops_zero_coefficients():
    poly = QPolynomial({0: 1, 2: 0, 4: 0})
    assert poly.coeffs == {0: 1}
    assert poly.degree == 0
    assert QPolynomial.zero().degree == -1
    assert QPolynomial({6: 2}).coefficient(6) == 2
    assert QPolynomial({6: 2}).coefficient(5) == 0
    assert QPolynomial({6: 2}).coefficient(8) == 0


def test_a_polynomial_is_one_tuple_of_ints_in_powers_of_q_squared():
    # entry k is the coefficient of q^2k, with no trailing zero
    assert QPolynomial.__slots__ == ("_dense",)
    assert QPolynomial({4: 2, 0: 1, 8: 0})._dense == (1, 0, 2)
    assert QPolynomial.zero()._dense == ()
    assert (QPolynomial({2: 1}) - QPolynomial({2: 1}))._dense == ()
    assert poly_q_multinomial((2, 1))._dense == (1, 1, 1)


@pytest.mark.parametrize(
    "coeffs",
    [{1: 1}, {0: 1, 3: 2}, {0: Fraction(1, 2)}, {2: Fraction(4, 2)}, {0: 1.0}, {2: np.int64(1)}, {2.0: 1}],
    ids=["q", "q^3", "half", "integral Fraction", "float", "numpy int", "float exponent"],
)
def test_odd_exponents_and_non_int_coefficients_are_refused(coeffs):
    with pytest.raises(ValueError):
        QPolynomial(coeffs)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QPolynomial({-1: 1})
    with pytest.raises(ValueError):
        QPolynomial({-2: 1})


def test_equality_and_hash():
    a = QPolynomial({0: 1, 2: 3})
    b = QPolynomial({2: 3, 0: 1, 4: 0})
    assert a == b
    assert hash(a) == hash(b)
    assert a == QPolynomial({0: 1}) + QPolynomial({2: 3})
    assert QPolynomial({0: 5}) == 5
    assert QPolynomial.zero() == 0


# ---------------------------------------------------------------------------
# ring laws


@given(a=polynomials, b=polynomials)
@settings(max_examples=80, deadline=None)
def test_addition_commutes_and_multiplication_commutes(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(a=polynomials, b=polynomials, c=polynomials)
@settings(max_examples=60, deadline=None)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=polynomials)
@settings(max_examples=40, deadline=None)
def test_neutral_elements_and_negation(a):
    assert a + QPolynomial.zero() == a
    assert a * QPolynomial.one() == a
    assert a + (-a) == QPolynomial.zero()
    assert a - a == QPolynomial.zero()


@given(a=polynomials, b=polynomials, unit=st.sampled_from((1, -1)))
@settings(max_examples=60, deadline=None)
def test_divmod_reconstructs(a, b, unit):
    # a divisor whose leading coefficient is a unit leaves every quotient coefficient an int
    with pytest.raises(ZeroDivisionError):
        a.divmod(QPolynomial.zero())
    divisor = b + QPolynomial.monomial(b.degree + 2 if b else 0, unit)
    quotient, remainder = a.divmod(divisor)
    assert quotient * divisor + remainder == a
    assert remainder.is_zero() or remainder.degree < divisor.degree


@given(a=polynomials, b=polynomials)
@settings(max_examples=200, deadline=None)
def test_divmod_equals_the_rescanning_reference(a, b):
    # any leading coefficient: where the reference's quotient is integral, divmod gives its
    # quotient and remainder in ints; where it is not, divmod refuses
    if b.is_zero():
        return
    quotient, remainder = reference_divmod(a, b)
    if any(c.denominator != 1 for c in quotient.values()):
        with pytest.raises(ValueError, match="not an integer"):
            a.divmod(b)
        return
    assert all(c.denominator == 1 for c in remainder.values())
    mine = a.divmod(b)
    assert mine == tuple(QPolynomial({e: int(c) for e, c in part.items()}) for part in (quotient, remainder))
    assert all(type(c) is int for part in mine for c in part.coeffs.values())


def test_divide_exact_raises_on_remainder():
    numerator = QPolynomial({0: 1, 4: 1})  # 1 + q^4 = (1 + q^2)(q^2 - 1) + 2
    denominator = QPolynomial({0: 1, 2: 1})  # 1 + q^2
    with pytest.raises(ValueError, match="not divisible"):
        numerator.divide_exact(denominator)


def test_power():
    base = QPolynomial({0: 1, 2: 1})
    assert base**0 == QPolynomial.one()
    assert base**2 == QPolynomial({0: 1, 2: 2, 4: 1})
    with pytest.raises(ValueError):
        base**-1


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_exact_fraction():
    poly = QPolynomial({0: 1, 2: 2, 4: 1})
    value = poly.evaluate(Fraction(1, 2))
    assert value == Fraction(1) + 2 * Fraction(1, 4) + Fraction(1, 16)
    assert isinstance(value, Fraction)


def test_evaluate_float_matches_numeric_multinomial():
    params = DeformationParams(0.5)
    poly = poly_q_multinomial((2, 2))
    assert poly.evaluate(0.5) == pytest.approx(q_factorial(params, 4) / q_factorial(params, 2) ** 2, rel=1e-13)


@given(a=polynomials, q=st.fractions(min_value=0, max_value=1, max_denominator=7))
@settings(max_examples=50, deadline=None)
def test_evaluate_matches_direct_sum(a, q):
    direct = sum((c * q**e for e, c in a.coeffs.items()), Fraction(0))
    assert a.evaluate(q) == direct


# ---------------------------------------------------------------------------
# canonical text form


def test_render_frozen_examples():
    assert QPolynomial.zero().render() == "0"
    assert QPolynomial.one().render() == "1"
    assert QPolynomial({0: 1, 2: 2, 4: 1}).render() == "1 + 2*q^2 + q^4"
    assert QPolynomial({2: 1}).render() == "q^2"
    assert QPolynomial({4: -1, 0: 1}).render() == "1 - q^4"
    assert QPolynomial({2: -3, 6: 1}).render() == "-3*q^2 + q^6"
    assert QPolynomial({0: -1}).render() == "-1"


# ---------------------------------------------------------------------------
# deformed combinatorial objects


def test_poly_q_number_values():
    assert poly_q_number(0) == QPolynomial.zero()
    assert poly_q_number(1) == QPolynomial.one()
    assert poly_q_number(3) == QPolynomial({0: 1, 2: 1, 4: 1})
    with pytest.raises(ValueError):
        poly_q_number(-1)


def test_poly_q_factorial_degree():
    # deg [n]! = 2 * (0 + 1 + ... + (n-1)) = n (n - 1)
    for n in range(0, 7):
        assert poly_q_factorial(n).degree == max(n * (n - 1), 0)


def test_running_factorials_equal_the_product_of_brackets():
    # [n]! is [n-1]! [n] through the cache, in any order of calls, cold or warm
    from qmodes import qpoly

    expected = [QPolynomial.one()]
    for k in range(1, 41):
        expected.append(expected[-1] * poly_q_number(k))
    qpoly._factorial.cache_clear()
    assert [poly_q_factorial(n) for n in (40, 3, 0, 17)] == [expected[n] for n in (40, 3, 0, 17)]
    assert [poly_q_factorial(n) for n in range(41)] == expected


def test_a_cold_factorial_far_past_the_recursion_limit_stays_within_it(monkeypatch):
    # a cold [3000]! with each bracket [k] replaced by the constant k is 3000!, built as the
    # running product through chains of at most 100 calls, where one chain of 3000 calls
    # would pass the interpreter's recursion limit (a true cold [350]! takes minutes: its
    # products cost ~25 ns N^4)
    import sys

    from qmodes import qpoly

    assert sys.getrecursionlimit() < 3000
    monkeypatch.setattr(qpoly, "_bracket", lambda k: QPolynomial({0: k}))
    qpoly._factorial.cache_clear()
    try:
        assert poly_q_factorial(3000) == QPolynomial({0: math.factorial(3000)})
        assert poly_q_factorial(2990) == QPolynomial({0: math.factorial(2990)})  # from the cache
    finally:
        qpoly._factorial.cache_clear()  # drop the constant factorials


@pytest.mark.parametrize("n", range(0, 9))
def test_binomials_match_pascal_oracle(n):
    for k in range(0, n + 1):
        assert poly_q_multinomial((k, n - k)) == gaussian_binomial_oracle(n, k)


def test_multinomial_factors_into_binomials():
    a, b, c = 2, 3, 1
    chained = poly_q_multinomial((a, b + c)) * poly_q_multinomial((b, c))
    assert poly_q_multinomial((a, b, c)) == chained


def test_multinomial_frozen_value():
    assert poly_q_multinomial((2, 2)) == QPolynomial({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})


def test_multinomial_input_checks():
    with pytest.raises(ValueError):
        poly_q_multinomial(())
    with pytest.raises(ValueError):
        poly_q_multinomial((1, -2))


# ---------------------------------------------------------------------------
# insertion sum


def test_insertion_sum_equals_next_bracket():
    for counts in ((0,), (2,), (1, 1), (2, 0, 3), (1, 2, 3, 2)):
        total = sum(counts)
        for slot in range(1, len(counts) + 1):
            assert poly_insertion_sum(counts, slot) == poly_q_number(total + 1)


def test_insertion_sum_slot_bounds():
    with pytest.raises(ValueError):
        poly_insertion_sum((1, 2), 0)
    with pytest.raises(ValueError):
        poly_insertion_sum((1, 2), 3)
    with pytest.raises(ValueError):
        poly_insertion_sum((), 1)
    with pytest.raises(ValueError):
        poly_insertion_sum((-1,), 1)


@given(counts=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_insertion_sum_matches_term_by_term_oracle(counts):
    for slot in range(1, len(counts) + 1):
        assert poly_insertion_sum(counts, slot) == reference_insertion_sum(counts, slot)


def test_insertion_tallies_equal_the_term_by_term_oracle_row_for_row():
    # every count vector and slot with n <= 6 and N <= 8; row [v, i] holds the
    # coefficients of q^0, q^2, ..., q^2N, so the oracle must have no other term
    for n in range(1, 7):
        for N in range(9):
            vectors = list(_count_vectors(n, N))
            table = insertion_tallies(np.array(vectors))
            assert table.shape == (len(vectors), n, N + 1) and table.dtype == np.int64
            for counts, rows in zip(vectors, table.tolist()):
                for slot, row in enumerate(rows, start=1):
                    assert QPolynomial({2 * k: c for k, c in enumerate(row)}) == reference_insertion_sum(counts, slot)


def test_insertion_tallies_refuse_what_is_not_one_total():
    for counts in ([[1, 2], [2, 2]], [[1, -1]], [1, 2], np.zeros((0, 2), dtype=int), np.zeros((2, 0), dtype=int)):
        with pytest.raises(ValueError):
            insertion_tallies(np.array(counts))


# ---------------------------------------------------------------------------
# coefficient types


def _coefficient_types(poly: QPolynomial) -> set[type]:
    return {type(c) for c in poly.coeffs.values()}


def test_integer_constructions_have_int_coefficients():
    shapes = ((0,), (3,), (2, 2), (1, 0, 2), (3, 2, 1), (2, 2, 2, 1))
    polys = [poly_q_number(n) for n in range(1, 10)]
    polys += [poly_q_factorial(n) for n in range(0, 10)]
    polys += [poly_q_multinomial(counts) for counts in shapes]
    for counts in shapes:
        polys += [poly_insertion_sum(counts, slot) for slot in range(1, len(counts) + 1)]
        polys += list(norm_identity_exact(counts))
    for poly in polys:
        assert not poly.is_zero()
        assert _coefficient_types(poly) == {int}
    assert type(QPolynomial({0: 1}).coefficient(7)) is int


def test_non_monic_division_refuses_a_fractional_quotient():
    divisor = QPolynomial({0: 2, 2: 3})  # 2 + 3q^2
    with pytest.raises(ValueError, match="1/3 that is not an integer"):
        QPolynomial({0: 1, 2: 1, 6: 1}).divmod(divisor)  # 1 + q^2 + q^6
    # its leading coefficient divides every step of (2 + 3q^2)(1 - q^2)
    quotient, remainder = QPolynomial({0: 2, 2: 1, 4: -3}).divmod(divisor)
    assert quotient == QPolynomial({0: 1, 2: -1}) and remainder.is_zero()
