"""Exact polynomials in q over integer coefficients.

The deformed identities that hold for every q in (0, 1) are really
polynomial identities in q, so this module keeps a second, float-free route
next to the numeric one in :mod:`qmodes.qcore`.  Coefficients are Python
``int`` (arbitrary precision, so nothing overflows); a coefficient that is
not integral is kept as a :class:`fractions.Fraction`, and one that is
integral never is.  Exponents are plain powers of q (the identities
themselves live in q^2, i.e. only even exponents occur, but the
representation does not enforce that), and equality of two constructions is
decided exactly.  Division is long division with an exactness assertion, so
a failed divisibility claim surfaces as an error instead of a rounded
answer.

The insertion sums are the one exception to Python ints: their coefficients
are tallied for many count vectors at once in an int64 numpy table
(:func:`insertion_tallies`).  That is exact, since each of the n bracket
terms of a sum adds at most 1 to any coefficient, so no entry exceeds n.
"""

import functools
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "QPolynomial",
    "poly_q_number",
    "poly_q_factorial",
    "poly_q_multinomial",
    "poly_insertion_sum",
    "insertion_tallies",
]

Rational = Union[int, Fraction]


def _normalise(value) -> Rational:
    """The one coefficient normaliser: an integral value becomes an ``int``.

    An ``int`` passes through; any other number (``Fraction``, numpy
    integer, float) is converted to a ``Fraction`` exactly, and one whose
    denominator is 1 is returned as its numerator.
    """
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _exact_quotient(numerator: Rational, denominator: Rational) -> Rational:
    """numerator / denominator without rounding: an ``int`` when it divides."""
    if type(numerator) is int and type(denominator) is int:
        quotient, rest = divmod(numerator, denominator)
        if not rest:
            return quotient
    return _normalise(Fraction(numerator) / denominator)


def _reduced(coeffs: dict[int, Rational]) -> dict[int, Rational]:
    """Drop zeros and normalise ring-arithmetic results (a sum of Fractions may be integral)."""
    return {e: _normalise(c) for e, c in coeffs.items() if c}


class QPolynomial:
    """Polynomial in q with exact coefficients, kept in canonical form.

    Canonical means: no explicitly stored zero coefficients, all exponents
    nonnegative integers, every coefficient an ``int`` unless it is not
    integral (then a ``Fraction``).  Instances are treated as immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        clean: dict[int, Rational] = {}
        for exponent, coefficient in (coeffs or {}).items():
            if exponent < 0 or exponent != int(exponent):
                raise ValueError(f"exponents must be nonnegative integers, got {exponent!r}")
            value = _normalise(coefficient)
            if value != 0:
                clean[int(exponent)] = value
        self._coeffs = clean

    @classmethod
    def _canonical(cls, coeffs: dict[int, Rational]) -> "QPolynomial":
        """Wrap a dict that is already canonical (normalised values, no zeros)."""
        poly = object.__new__(cls)
        poly._coeffs = coeffs
        return poly

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: Rational = 1) -> "QPolynomial":
        return cls({exponent: coefficient})

    # -- inspection ---------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Rational]:
        return dict(self._coeffs)

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def coefficient(self, exponent: int) -> Rational:
        return self._coeffs.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial({0: other})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items())))

    def __repr__(self) -> str:
        return f"QPolynomial({self.render()!r})"

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        merged = dict(self._coeffs)
        for exponent, coefficient in other._coeffs.items():
            merged[exponent] = merged.get(exponent, 0) + coefficient
        return QPolynomial._canonical(_reduced(merged))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        merged = dict(self._coeffs)
        for exponent, coefficient in other._coeffs.items():
            merged[exponent] = merged.get(exponent, 0) - coefficient
        return QPolynomial._canonical(_reduced(merged))

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._canonical({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: "QPolynomial | Rational") -> "QPolynomial":
        if isinstance(other, (int, Fraction)):
            return QPolynomial({e: c * other for e, c in self._coeffs.items()})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        product: dict[int, Rational] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exponent = e1 + e2
                product[exponent] = product.get(exponent, 0) + c1 * c2
        return QPolynomial._canonical(_reduced(product))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = QPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Long division: returns (quotient, remainder) with exact coefficients."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        remainder = dict(self._coeffs)
        quotient: dict[int, Rational] = {}
        d_deg = other.degree
        d_lead = other._coeffs[d_deg]
        # each step cancels the top term and changes only exponents below it, so one
        # walk down from the top meets every quotient term, in the order a rescan would
        for r_deg in range(max(remainder, default=-1), d_deg - 1, -1):
            if r_deg not in remainder:
                continue
            # an int whenever d_lead divides it, as it always does for a monic divisor
            factor = _exact_quotient(remainder[r_deg], d_lead)
            shift = r_deg - d_deg
            quotient[shift] = factor  # nonzero, and each shift comes up once
            for e, c in other._coeffs.items():
                target = e + shift
                updated = remainder.get(target, 0) - factor * c
                if not updated:
                    remainder.pop(target, None)
                else:
                    remainder[target] = _normalise(updated)
        return QPolynomial._canonical(quotient), QPolynomial._canonical(remainder)

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

    def evaluate(self, q: Union[float, Fraction]) -> Union[float, Fraction]:
        """Evaluate at q by Horner's rule grouped in powers of q^2.

        A Fraction argument stays exact all the way through; a float argument
        produces an ordinary float.
        """
        even: dict[int, Rational] = {}
        odd: dict[int, Rational] = {}
        for e, c in self._coeffs.items():
            if e % 2 == 0:
                even[e // 2] = c
            else:
                odd[(e - 1) // 2] = c
        y = q * q

        def horner(table: dict[int, Rational]):
            if not table:
                return q * 0  # zero of the right type
            acc = table[max(table)] * 1
            for k in range(max(table) - 1, -1, -1):
                acc = acc * y + table.get(k, 0)
            return acc

        result = horner(even) + q * horner(odd)
        if isinstance(q, Fraction):
            return Fraction(result)
        return float(result)

    # -- canonical text form -------------------------------------------

    def render(self) -> str:
        """Canonical text rendering, e.g. ``1 + 2*q^2 + q^4``.

        Terms appear in ascending exponent order; unit coefficients are
        omitted in front of powers of q; the zero polynomial renders as "0".
        """
        if not self._coeffs:
            return "0"
        pieces: list[str] = []
        for exponent in sorted(self._coeffs):
            coefficient = self._coeffs[exponent]
            sign = "-" if coefficient < 0 else "+"
            magnitude = -coefficient if coefficient < 0 else coefficient
            if exponent == 0:
                body = str(magnitude)
            else:
                power = "q" if exponent == 1 else f"q^{exponent}"
                body = power if magnitude == 1 else f"{magnitude}*{power}"
            if not pieces:
                pieces.append(body if sign == "+" else f"-{body}")
            else:
                pieces.append(f"{sign} {body}")
        return " ".join(pieces)


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
    return QPolynomial({2 * k: 1 for k in range(n)})


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
    coefficient of [k]!, whose ints grow with k (the peak measured at top = 30, 60 and 100
    is 0.73 to 0.76 of this)."""
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
    tally = insertion_tallies(np.array([counts]))[0, slot - 1].tolist()
    return QPolynomial._canonical({2 * k: c for k, c in enumerate(tally) if c})


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
