"""Deformed multimode oscillator algebra with verification-grade checks.

The package implements, on truncated Fock spaces, the n-mode oscillator
algebra whose ladder operators pick up a factor of q whenever they pass a
higher mode, together with the special functions the algebra drags along
(q-exponential, Jackson integrals), its coherent states, and the
q-symmetrized multiparticle states.  Every identity the library relies on
is checked numerically — and exactly, as polynomial identities in q, where
the statement is polynomial.

Layers, bottom to top:

- :mod:`qmodes.qcore`  — scalar q-analysis (brackets, q-exponential, Jackson)
- :mod:`qmodes.qpoly`  — exact polynomials in q^2 with integer coefficients
- :mod:`qmodes.fock`   — weighted-shift ladder operators and relation certification
- :mod:`qmodes.coherent` — coherent states, eigenvalue and completeness checks
- :mod:`qmodes.qsym`   — q-symmetrized tensor words and exchange laws
- :mod:`qmodes.cli`    — the ``qmodes`` command-line verification harness
"""

__version__ = "0.1.0"

from .coherent import (
    CoherentSpec,
    CoherentState,
    build_coherent,
    check_completeness,
    check_eigenvalue,
    suggest_cutoff,
)
from .fock import (
    FockSpaceConfig,
    RELATION_FAMILIES,
    annihilator,
    creator,
    number_op,
    scale_op,
    verify_algebra,
)
from .qcore import (
    DeformationParams,
    DomainError,
    SingularityError,
    jackson_integral,
    jackson_moment,
    q_exp,
    q_exp_reciprocal,
    q_factorial,
    q_number,
)
from .qpoly import (
    QPolynomial,
    poly_insertion_sum,
    poly_q_factorial,
    poly_q_multinomial,
    poly_q_number,
)
from .qsym import (
    Word,
    arrangements,
    exchange_check,
    fundamental_norm,
    inversion_count,
    norm_identity_exact,
    q_symmetrize,
    transposition_op,
)

__all__ = [
    "__version__",
    "DeformationParams",
    "DomainError",
    "SingularityError",
    "q_number",
    "q_factorial",
    "q_exp",
    "q_exp_reciprocal",
    "jackson_integral",
    "jackson_moment",
    "QPolynomial",
    "poly_q_number",
    "poly_q_factorial",
    "poly_q_multinomial",
    "poly_insertion_sum",
    "FockSpaceConfig",
    "RELATION_FAMILIES",
    "annihilator",
    "creator",
    "number_op",
    "scale_op",
    "verify_algebra",
    "CoherentSpec",
    "CoherentState",
    "build_coherent",
    "suggest_cutoff",
    "check_eigenvalue",
    "check_completeness",
    "Word",
    "arrangements",
    "inversion_count",
    "q_symmetrize",
    "fundamental_norm",
    "exchange_check",
    "transposition_op",
    "norm_identity_exact",
]
