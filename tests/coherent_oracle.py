"""The dense coherent-state route, kept for the tests.

``qmodes.coherent`` keeps a state as its per-mode factors and bounds the
eigenvalue residual factor by factor.  The route here is the one it
replaced: the cutoff^n state as one ``np.kron`` vector, the shifted state
rebuilt for each mode, and ``fock.annihilator`` applied to the vector.  It
builds cutoff^n entries, so the tests keep it to small spaces.
"""

import math

import numpy as np

from qmodes import fock
from qmodes.coherent import CoherentSpec, mode_coefficients, mode_tail_bound
from qmodes.qcore import q_exp_reciprocal


def dense_state(spec: CoherentSpec) -> tuple[np.ndarray, float]:
    """The normalized truncated state as one vector, with its tail mass."""
    params = spec.params
    vector = None
    constant = 1.0
    tail = 0.0
    for z in spec.z:
        tail += mode_tail_bound(params, z, spec.cutoff)
        coeff = mode_coefficients(params, z, spec.cutoff)
        vector = coeff if vector is None else np.kron(vector, coeff)
        constant *= q_exp_reciprocal(params, abs(z) ** 2).real
    return math.sqrt(constant) * vector, tail


def dense_eigenvalue(spec: CoherentSpec, i: int, tol: float = 1e-9) -> tuple[float, bool]:
    """Residual ||a_i |z> - z_i rho |z'>|| on the dense vectors, and its verdict
    under the dense route's rule: at most tol + 10 sqrt(both tails) + 1e-13."""
    params = spec.params
    state, tail = dense_state(spec)
    shifted, shifted_tail = dense_state(spec.shifted(i))
    ratio = 1.0
    for k in range(i + 1, spec.modes + 1):
        ratio *= math.sqrt(1.0 - (1.0 - params.q_sq) * abs(spec.z[k - 1]) ** 2)
    lower = fock.annihilator(fock.FockSpaceConfig(spec.modes, spec.cutoff, params), i).tocsr()
    residual = float(np.linalg.norm(lower @ state - spec.z[i - 1] * ratio * shifted))
    return residual, residual <= tol + 10.0 * math.sqrt(tail + shifted_tail) + 1e-13


def telescoping_bound(lhs: list[np.ndarray], rhs: list[np.ndarray]) -> float:
    """sum_k prod_{j<k} ||rhs_j|| ||lhs_k - rhs_k|| prod_{j>k} ||lhs_j||, term by term.

    It bounds ||lhs_1 (x) ... (x) lhs_n - rhs_1 (x) ... (x) rhs_n||.
    """
    total = 0.0
    for k in range(len(lhs)):
        term = float(np.linalg.norm(lhs[k] - rhs[k]))
        for j in range(k):
            term *= float(np.linalg.norm(rhs[j]))
        for j in range(k + 1, len(lhs)):
            term *= float(np.linalg.norm(lhs[j]))
        total += term
    return total
