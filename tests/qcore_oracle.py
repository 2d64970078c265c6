"""Reference scalar series and product loops, kept for the tests.

``qmodes.qcore`` and ``qmodes.coherent`` read their brackets [k] and their
product-factor coefficients (1 - q^2) q^{2k} from per-q tables.  The loops
here are the plain routes they replaced: one ``q_number`` call, or one
power, per term.  The arithmetic is the same, so the tests require equal
results, bit for bit.
"""

import math

import numpy as np

from qmodes.qcore import DeformationParams, QExpValue, _check_disk, _factors_for, q_number


def reference_q_exp(params: DeformationParams, x: complex, rel_tol: float = 1e-15, max_terms: int = 100_000) -> QExpValue:
    x = _check_disk(params, x)
    term = 1.0 + 0.0j
    t_abs = 1.0
    reals = [1.0]
    imags = [0.0]
    running = 1.0 + 0.0j
    for k in range(1, max_terms):
        bracket = q_number(params, k)
        term *= x / bracket
        t_abs *= abs(x) / bracket
        reals.append(term.real)
        imags.append(term.imag)
        running += term
        ratio = abs(x) / q_number(params, k + 1)
        if ratio < 1.0:
            tail = t_abs * ratio / (1.0 - ratio)
            if tail <= rel_tol * max(abs(running), t_abs):
                return QExpValue(complex(math.fsum(reals), math.fsum(imags)), tail, k + 1)
    raise ValueError("series did not converge")


def _factor(params: DeformationParams, n: int, x: complex) -> complex:
    return 1.0 - (1.0 - params.q_sq) * params.q_sq**n * x


def reference_q_exp_product(params: DeformationParams, x: complex, factors: int) -> complex:
    x = complex(x)
    value = 1.0 + 0.0j
    for n in range(factors):
        value /= _factor(params, n, x)
    return value


def reference_q_exp_reciprocal(params: DeformationParams, x: complex, rel_tol: float = 1e-15) -> complex:
    x = complex(x)
    value = 1.0 + 0.0j
    for n in range(_factors_for(params, x, rel_tol)):
        value *= _factor(params, n, x)
    if x == complex(x.real, 0.0):
        return complex(value.real, 0.0)
    return value


def reference_mode_coefficients(params: DeformationParams, z: complex, cutoff: int) -> np.ndarray:
    coeff = np.zeros(cutoff, dtype=np.complex128)
    coeff[0] = 1.0
    for m in range(1, cutoff):
        coeff[m] = coeff[m - 1] * z / math.sqrt(q_number(params, m))
    return coeff


def reference_mode_tail_bound(params: DeformationParams, z: complex, cutoff: int) -> float:
    x = abs(z) ** 2
    term = 1.0
    partial = 1.0
    for m in range(1, cutoff):
        term *= x / q_number(params, m)
        partial += term
    first_dropped = term * x / q_number(params, cutoff)
    ratio = x / q_number(params, cutoff + 1)
    if ratio >= 1.0:
        return math.inf
    return first_dropped / (1.0 - ratio) / partial


def reference_q_factorial(params: DeformationParams, n: int) -> float:
    value = 1.0
    for k in range(1, n + 1):
        value *= q_number(params, k)
    return value


def reference_suggest_cutoff(params: DeformationParams, z, tail_tol: float, max_cutoff: int = 5000) -> int:
    per_mode = tail_tol / len(z)
    worst = 1
    for v in z:
        x = abs(v) ** 2
        term = 1.0
        partial = 1.0
        for m in range(1, max_cutoff):
            term *= x / q_number(params, m)
            partial += term
            ratio = x / q_number(params, m + 1)
            if ratio < 1.0 and (term * ratio / (1.0 - ratio)) / partial <= per_mode:
                worst = max(worst, m + 1)
                break
        else:
            raise ValueError("no cutoff below the cap")
    return worst
