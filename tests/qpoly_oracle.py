"""Reference insertion sum and long division, kept for the tests.

``qmodes.qpoly.insertion_tallies`` tallies every shifted bracket's unit
coefficients, for many count vectors and slots at once, in one int64 table.
The routine here is the plain route it replaced: one polynomial per term,
q-shifted by multiplying with a monomial, and summed with polynomial
addition.  ``QPolynomial.divmod`` walks the
remainder's dense coefficients down once in integer arithmetic; the reference
division rescans the remainder for its top term at every step, in plain
``Fraction`` arithmetic.  The tests compare each pair for equality.
"""

from fractions import Fraction
from typing import Sequence

from qmodes.qpoly import QPolynomial, poly_q_number


def reference_insertion_sum(counts: Sequence[int], slot: int) -> QPolynomial:
    """sum_{j<i} q^{2 P_j} [n_j] + q^{2 P_i} [n_i + 1] + sum_{j>i} q^{2 (P_j + 1)} [n_j].

    P_j = n_1 + ... + n_{j-1} is the prefix before letter j and i the slot.
    """
    total = QPolynomial.zero()
    prefix = 0
    for j, c in enumerate(counts, start=1):
        if j < slot:
            term = QPolynomial.monomial(2 * prefix) * poly_q_number(c)
        elif j == slot:
            term = QPolynomial.monomial(2 * prefix) * poly_q_number(c + 1)
        else:
            term = QPolynomial.monomial(2 * (prefix + 1)) * poly_q_number(c)
        total = total + term
        prefix += c
    return total


def reference_divmod(dividend: QPolynomial, divisor: QPolynomial) -> tuple[dict, dict]:
    """Long division that looks up the remainder's top term afresh at every step.

    Returns the quotient and remainder as maps exponent -> ``Fraction``, since a
    quotient over a non-monic divisor may have coefficients that are not integers.
    """
    remainder = {e: Fraction(c) for e, c in dividend.coeffs.items()}
    quotient = {}
    lead = Fraction(divisor.coefficient(divisor.degree))
    while remainder and max(remainder) >= divisor.degree:
        top = max(remainder)
        factor = remainder[top] / lead
        shift = top - divisor.degree
        quotient[shift] = factor
        for e, c in divisor.coeffs.items():
            remainder[e + shift] = remainder.get(e + shift, Fraction(0)) - factor * c
        remainder = {e: c for e, c in remainder.items() if c}
    return quotient, remainder
