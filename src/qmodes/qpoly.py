"""Exact polynomials in q^2 over integer coefficients.

The deformed identities that hold for every q in (0, 1) are really
polynomial identities in q^2, so this module keeps a second, float-free route
next to the numeric one in :mod:`qmodes.qcore`.  A polynomial is stored
densely: one tuple of Python ``int`` (arbitrary precision, so nothing
overflows) whose entry k is the coefficient of q^{2k}.  Equality of two
constructions is decided exactly.  Division is integer long division, so a
failed divisibility claim surfaces as an error instead of a rounded answer.

The insertion sums are tallied for many count vectors at once in an int64
numpy table (:func:`insertion_tallies`).  That is exact, since each of the n
bracket terms of a sum adds at most 1 to any coefficient, so no entry
exceeds n.
"""

import functools
from itertools import zip_longest
from numbers import Real
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "QPolynomial",
    "poly_q_number",
    "poly_q_factorial",
    "poly_q_multinomial",
    "poly_insertion_sum",
    "insertion_tallies",
]


class QPolynomial:
    """Polynomial in q^2 with Python-int coefficients.

    ``_dense[k]`` is the coefficient of q^{2k}, and the tuple ends in a nonzero
    entry (the zero polynomial is the empty tuple).  The public surface speaks
    in powers of q: ``coeffs`` maps 2k to the coefficient and ``degree`` is the
    largest such exponent.  Instances are treated as immutable; all arithmetic
    returns new objects.
    """

    __slots__ = ("_dense",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        dense: list[int] = []
        for exponent, coefficient in (coeffs or {}).items():
            if not isinstance(exponent, int) or exponent < 0 or exponent % 2:
                raise ValueError(f"exponents must be nonnegative even integers, got {exponent!r}")
            if not isinstance(coefficient, int):
                raise ValueError(f"coefficients must be ints, got {coefficient!r}")
            dense.extend([0] * (exponent // 2 + 1 - len(dense)))
            dense[exponent // 2] = int(coefficient)
        self._dense = _stripped(dense)

    @classmethod
    def _from_dense(cls, dense: Sequence[int]) -> "QPolynomial":
        """Wrap the ints of q^0, q^2, ... (trailing zeros are dropped)."""
        poly = object.__new__(cls)
        poly._dense = _stripped(dense)
        return poly

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "QPolynomial":
        return cls({exponent: coefficient})

    # -- inspection ---------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        return {2 * k: c for k, c in enumerate(self._dense) if c}

    @property
    def degree(self) -> int:
        """Largest exponent of q with nonzero coefficient; -1 for the zero polynomial."""
        return 2 * len(self._dense) - 2 if self._dense else -1

    def coefficient(self, exponent: int) -> int:
        half, odd = divmod(exponent, 2)
        return self._dense[half] if not odd and 0 <= half < len(self._dense) else 0

    def is_zero(self) -> bool:
        return not self._dense

    def __bool__(self) -> bool:
        return bool(self._dense)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self._dense == other._dense
        if isinstance(other, int):
            return self._dense == ((other,) if other else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._dense)

    def __repr__(self) -> str:
        return f"QPolynomial({self.render()!r})"

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return QPolynomial._from_dense([a + b for a, b in zip_longest(self._dense, other._dense, fillvalue=0)])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return QPolynomial._from_dense([a - b for a, b in zip_longest(self._dense, other._dense, fillvalue=0)])

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._from_dense([-c for c in self._dense])

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            return QPolynomial._from_dense([c * other for c in self._dense])
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if not self._dense or not other._dense:
            return QPolynomial()
        product = [0] * (len(self._dense) + len(other._dense) - 1)
        for i, a in enumerate(self._dense):
            if a:
                for j, b in enumerate(other._dense, start=i):
                    product[j] += a * b
        return QPolynomial._from_dense(product)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = QPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Integer long division: returns (quotient, remainder), or raises ValueError where
        a quotient coefficient is not an integer (never for a monic divisor)."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        divisor, lead = other._dense, other._dense[-1]
        span = len(divisor) - 1
        remainder = list(self._dense)
        quotient = [0] * max(0, len(remainder) - span)
        # each step cancels the top term and changes only terms below it
        for shift in range(len(quotient) - 1, -1, -1):
            top = remainder[shift + span]
            if not top:
                continue
            factor, rest = divmod(top, lead)
            if rest:
                raise ValueError(
                    f"{self.render()!r} / {other.render()!r} has a quotient coefficient "
                    f"{top}/{lead} that is not an integer"
                )
            quotient[shift] = factor
            for k, c in enumerate(divisor, start=shift):
                remainder[k] -= factor * c
        return QPolynomial._from_dense(quotient), QPolynomial._from_dense(remainder[:span])

    def divide_exact(self, other: "QPolynomial") -> "QPolynomial":
        """Exact division; raises ValueError when ``other`` does not divide self."""
        quotient, remainder = self.divmod(other)
        if not remainder.is_zero():
            raise ValueError(
                f"{self.render()!r} is not divisible by {other.render()!r} "
                f"(remainder {remainder.render()!r})"
            )
        return quotient

    # -- evaluation ---------------------------------------------------

    def evaluate(self, q: Real) -> Real:
        """Evaluate at q by Horner's rule in q^2.

        An exact rational argument stays exact all the way through; a float
        argument produces an ordinary float.
        """
        y = q * q
        value = q * 0  # zero of the right type
        for c in reversed(self._dense):
            value = value * y + c
        return float(value) if isinstance(q, (int, float)) else value

    # -- canonical text form -------------------------------------------

    def render(self) -> str:
        """Canonical text rendering, e.g. ``1 + 2*q^2 + q^4``.

        Terms appear in ascending exponent order; unit coefficients are
        omitted in front of powers of q; the zero polynomial renders as "0".
        """
        pieces: list[str] = []
        for half, coefficient in enumerate(self._dense):
            if not coefficient:
                continue
            magnitude = abs(coefficient)
            if half == 0:
                body = str(magnitude)
            else:
                body = f"q^{2 * half}" if magnitude == 1 else f"{magnitude}*q^{2 * half}"
            if not pieces:
                pieces.append(body if coefficient > 0 else f"-{body}")
            else:
                pieces.append(f"{'-' if coefficient < 0 else '+'} {body}")
        return " ".join(pieces) or "0"


def _stripped(dense: Sequence[int]) -> tuple[int, ...]:
    """``dense`` as a tuple without its trailing zeros."""
    top = len(dense)
    while top and not dense[top - 1]:
        top -= 1
    return tuple(dense[:top])


# ---------------------------------------------------------------------------
# Exact counterparts of the scalar q-objects


def poly_q_number(n: int) -> QPolynomial:
    """Bracket of a nonnegative integer as the polynomial 1 + q^2 + ... + q^{2(n-1)}."""
    if n < 0 or n != int(n):
        raise ValueError(f"bracket index must be a nonnegative integer, got {n!r}")
    return _bracket(int(n))


def poly_q_factorial(n: int) -> QPolynomial:
    """Product [1][2]...[n] as an exact polynomial."""
    if n < 0 or n != int(n):
        raise ValueError(f"factorial index must be a nonnegative integer, got {n!r}")
    return _factorial(int(n))


def _bracket(n: int) -> QPolynomial:
    return QPolynomial._from_dense((1,) * n)


# Factorials are rebuilt for every multinomial; QPolynomial is immutable, so one shared
# instance per index serves all.
@functools.lru_cache(maxsize=128)
def _factorial(n: int) -> QPolynomial:
    """[n]! as the running product [n-1]! [n], [n-1]! from the cache when the indices rise
    one at a time.  A cold call first fills [n-100]! (and so on down), so no chain of calls
    runs more than 100 deep."""
    if n == 0:
        return QPolynomial.one()
    if n > 100:
        _factorial(n - 100)
    return _factorial(n - 1) * _bracket(n)


def _factorial_bytes(top: int) -> int:
    """Bytes of the cached factorials [0]! to [top]! and a division: ~(120 + k) B a
    coefficient of [k]!.  A tuple slot and its int, which grows with k, take 45, 63 and 92 B
    at k = 30, 60 and 100 (the peak of an identity sweep over one mode to N = 30, 60 and 100
    is 0.38 to 0.42 of this)."""
    kept = range(max(0, top + 1 - _factorial.cache_parameters()["maxsize"]), top + 1)
    return sum((120 + k) * (k * (k - 1) // 2 + 1) for k in kept)


def poly_q_multinomial(counts: Sequence[int]) -> QPolynomial:
    """[N]! / prod [n_k]! via exact long division.

    The divisibility is a theorem; the exactness assertion inside
    :meth:`QPolynomial.divide_exact` turns it into a runtime check.
    """
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise ValueError("counts must be a nonempty sequence")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts!r}")
    numerator = poly_q_factorial(sum(counts))
    denominator = QPolynomial.one()
    for c in counts:
        denominator = denominator * poly_q_factorial(c)
    return numerator.divide_exact(denominator)


def poly_insertion_sum(counts: Sequence[int], slot: int) -> QPolynomial:
    """Prefix-weighted bracket sum for inserting one extra particle.

    For occupancies (n_1, ..., n_m) and a slot i, this is

        sum_{j<i} q^{2(n_1+...+n_{j-1})} [n_j]
        + q^{2(n_1+...+n_{i-1})} [n_i + 1]
        + sum_{j>i} q^{2(n_1+...+n_{j-1}+1)} [n_j]

    which telescopes to the single bracket [N + 1], N = sum n_k.  Callers
    compare against ``poly_q_number(N + 1)`` to certify the identity.  This is
    the one-vector call of :func:`insertion_tallies`, wrapped once.
    """
    counts = tuple(int(c) for c in counts)
    if not counts:
        raise ValueError("counts must be a nonempty sequence")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts!r}")
    if not 1 <= slot <= len(counts):
        raise ValueError(f"slot must be in 1..{len(counts)}, got {slot}")
    return QPolynomial._from_dense(insertion_tallies(np.array([counts]))[0, slot - 1].tolist())


def insertion_tallies(counts: np.ndarray) -> np.ndarray:
    """The insertion sums of many count vectors of one total N, at every slot.

    ``counts`` is a (V, n) array of nonnegative ints whose rows all sum to N.
    Entry [v, i, k] of the returned (V, n, N + 1) int64 table is the
    coefficient of q^{2k} in ``poly_insertion_sum(counts[v], i + 1)``.

    Each bracket term q^{2 lowest} [size] adds 1 at the half-exponents lowest
    up to lowest + size - 1: a +1 at lowest and a -1 at lowest + size, summed
    along the exponents.  lowest is the prefix count before the letter, plus 1
    past the slot; size is the letter's count, plus 1 at the slot.  Every step
    is whole-array, with no loop over vectors, slots or letters.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or 0 in counts.shape:
        raise ValueError(f"counts must be a nonempty (V, n) array, got shape {counts.shape}")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    totals = counts.sum(axis=1)
    if (totals != totals[0]).any():
        raise ValueError("every count vector must have the same total")
    vectors, n = counts.shape
    width = int(totals[0]) + 2  # half-exponents 0..N, and N + 1 where the top terms end
    prefix = np.cumsum(counts, axis=1) - counts
    letter = np.arange(n)
    lowest = prefix[:, None, :] + (letter > letter[:, None])  # [vector, slot, letter]
    lowest += np.arange(0, vectors * n * width, width).reshape(vectors, n, 1)  # each row's own bins
    steps = np.bincount(lowest.ravel(), minlength=vectors * n * width)
    lowest += counts[:, None, :]  # now each term's stop
    lowest[:, letter, letter] += 1
    steps -= np.bincount(lowest.ravel(), minlength=vectors * n * width)
    return np.cumsum(steps.reshape(vectors, n, width), axis=2)[:, :, :-1]
