"""Reference insertion sum built term by term, kept for the tests.

``qmodes.qpoly.poly_insertion_sum`` tallies every shifted bracket's unit
coefficients into one list of ints.  The routine here is the plain route it
replaced: one polynomial per term, q-shifted by multiplying with a monomial,
and summed with polynomial addition.  The tests compare the two for
equality.
"""

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
