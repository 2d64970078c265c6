"""Reference relation verifier built from sparse matrix products, kept for the tests.

``qmodes.fock.verify_algebra`` reads each operator's one shift diagonal onto
the (cutoff,) * modes grid of occupations and forms every residual as a
product of slices of that grid.
The routine here is the plain route it replaced: each relation is assembled
from scipy CSR products and sums over the whole space, and the interior
block is sliced out afterwards.  The tests compare the kernel against it,
deviation by deviation, for exact equality.

The reference builders below assemble each operator the plain scipy way,
from coordinate lists with a per-state Python float power, followed by
``eliminate_zeros``; the tests require ``op.tocsr()`` of the library's
weighted shifts to equal them entry for entry.
"""

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from qmodes.fock import (
    RELATION_FAMILIES,
    FockSpaceConfig,
    RelationReport,
    annihilator,
    creator,
    interior_indices,
    number_op,
    occupation_table,
)
from qmodes.qcore import passes, q_number


def _brackets(cfg: FockSpaceConfig, occupations: np.ndarray) -> np.ndarray:
    """[m] at each occupation m, from one ``q_number`` call per rung: the Python-float
    expression of the library's bracket table, formed here without reading that table."""
    rungs = np.array([q_number(cfg.params, m) for m in range(cfg.cutoff)])
    return rungs[occupations]


def _float_powers(base: float, exponents: np.ndarray) -> np.ndarray:
    """base ** s for each state's exponent s, one Python float power per state."""
    return np.array([base**s for s in exponents.tolist()], dtype=np.float64)


def reference_operator(cfg: FockSpaceConfig, kind: str, i: int) -> sp.csr_matrix:
    """a_i, a_i^dag, N_i or Q_i (``kind`` names the library builder) as a scipy CSR matrix."""
    params, occ, dim = cfg.params, occupation_table(cfg), cfg.dimension
    stride = cfg.cutoff ** (cfg.modes - i)
    if kind in ("number_op", "scale_op"):
        occupation = occ[:, i - 1].astype(np.float64)
        diagonal = occupation if kind == "number_op" else _float_powers(params.q_sq, occupation)
        return sp.diags(diagonal, format="csr", shape=(dim, dim))
    if kind == "annihilator":
        source = np.nonzero(occ[:, i - 1] > 0)[0]
        rung, target = occ[source, i - 1], source - stride
    else:
        source = np.nonzero(occ[:, i - 1] < cfg.cutoff - 1)[0]
        rung, target = occ[source, i - 1] + 1, source + stride
    amplitude = _float_powers(params.q, occ[source, i:].sum(axis=1)) * np.sqrt(_brackets(cfg, rung))
    matrix = sp.csr_matrix((amplitude, (target, source)), shape=(dim, dim))
    matrix.eliminate_zeros()
    return matrix


def _interior_max(matrix: sp.spmatrix, interior: np.ndarray) -> float:
    block = sp.csr_matrix(matrix)[interior][:, interior]
    if block.nnz == 0:
        return 0.0
    return float(np.max(np.abs(block.data)))


def reference_verify_algebra(
    cfg: FockSpaceConfig,
    annihilators: Sequence[sp.spmatrix] | None = None,
    creators: Sequence[sp.spmatrix] | None = None,
) -> RelationReport:
    """The eight relation families from CSR products, sliced to the interior."""
    if cfg.cutoff < 3:
        raise ValueError("verify_algebra needs cutoff >= 3 for a nonempty interior margin of 2")
    params = cfg.params
    q, q_sq = params.q, params.q_sq
    n = cfg.modes
    lower = list(annihilators) if annihilators is not None else [annihilator(cfg, i) for i in range(1, n + 1)]
    raise_ = list(creators) if creators is not None else [creator(cfg, i) for i in range(1, n + 1)]
    if len(lower) != n or len(raise_) != n:
        raise ValueError("operator overrides must supply exactly one matrix per mode")
    lower, raise_ = [m.tocsr() for m in lower], [m.tocsr() for m in raise_]
    numbers = [number_op(cfg, i).tocsr() for i in range(1, n + 1)]
    identity = sp.identity(cfg.dimension, dtype=np.complex128, format="csr")
    occ = occupation_table(cfg)
    interior = interior_indices(cfg)

    def dev(matrix: sp.spmatrix) -> float:
        return _interior_max(matrix, interior)

    worst: dict[str, float] = {name: 0.0 for name in RELATION_FAMILIES}

    for a in range(n):
        for b in range(a + 1, n):
            worst["creator_creator_swap"] = max(
                worst["creator_creator_swap"],
                dev(raise_[a] @ raise_[b] - q * raise_[b] @ raise_[a]),
            )
            worst["annihilator_annihilator_swap"] = max(
                worst["annihilator_annihilator_swap"],
                dev(lower[a] @ lower[b] - (1.0 / q) * lower[b] @ lower[a]),
            )

    for a in range(n):
        for b in range(n):
            if a != b:
                worst["annihilator_creator_swap"] = max(
                    worst["annihilator_creator_swap"],
                    dev(lower[a] @ raise_[b] - q * raise_[b] @ lower[a]),
                )

    for a in range(n - 1):
        rhs = identity + q_sq * (raise_[a] @ lower[a])
        for k in range(a + 1, n):
            rhs = rhs + (q_sq - 1.0) * (raise_[k] @ lower[k])
        worst["mode_contraction"] = max(
            worst["mode_contraction"], dev(lower[a] @ raise_[a] - rhs)
        )

    worst["last_mode_contraction"] = dev(
        lower[n - 1] @ raise_[n - 1] - identity - q_sq * (raise_[n - 1] @ lower[n - 1])
    )

    for a in range(n):
        for b in range(n):
            delta = 1.0 if a == b else 0.0
            worst["number_ladder_commutator"] = max(
                worst["number_ladder_commutator"],
                dev(numbers[a] @ lower[b] - lower[b] @ numbers[a] + delta * lower[b]),
                dev(numbers[a] @ raise_[b] - raise_[b] @ numbers[a] - delta * raise_[b]),
            )

    for a in range(n):
        suffix_after = occ[:, a + 1 :].sum(axis=1).astype(np.float64)
        diagonal = _float_powers(q_sq, suffix_after) * _brackets(cfg, occ[:, a])
        target = sp.diags(diagonal.astype(np.complex128), format="csr")
        worst["normal_product_diagonal"] = max(
            worst["normal_product_diagonal"], dev(raise_[a] @ lower[a] - target)
        )

    for a in range(n):
        suffix_from = occ[:, a:].sum(axis=1).astype(np.float64)
        scale_product = sp.diags(_float_powers(q_sq, suffix_from).astype(np.complex128), format="csr")
        worst["ladder_commutator_scale_product"] = max(
            worst["ladder_commutator_scale_product"],
            dev(lower[a] @ raise_[a] - raise_[a] @ lower[a] - scale_product),
        )

    return RelationReport(
        modes=n,
        cutoff=cfg.cutoff,
        q=q,
        deviations=worst,
        interior_size=int(interior.size),
    )


def failing_families(report: RelationReport, tol: float) -> list[str]:
    """The families of ``report`` that fail at ``tol`` under the one pass rule, each
    judged with its rounding allowance (0 where the report states none)."""
    allowances = report.allowances
    return sorted(name for name, d in report.deviations.items() if not passes(d, tol, allowances.get(name, 0.0)))
