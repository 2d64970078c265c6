"""Truncated multimode Fock space and its sparse operator representation.

Basis states are occupation tuples (n_1, ..., n_modes) with every entry
below ``cutoff``, flattened through mixed-radix positional encoding with
mode 1 as the most significant digit.  The deformed ladder operators act as

    a_i     |n>  =  q^{sum_{k>i} n_k} sqrt([n_i])     |..., n_i - 1, ...>
    a_i^dag |n>  =  q^{sum_{k>i} n_k} sqrt([n_i + 1]) |..., n_i + 1, ...>

with the bracket [m] = (q^{2m} - 1)/(q^2 - 1); the number operator N_i and
the scale operator Q_i = q^{2 N_i} are diagonal.  Creation out of the top
rung n_i = cutoff - 1 truncates to zero, which is why every algebraic check
restricts itself to the interior of the truncation (all occupations at most
cutoff - 2, applied to rows and columns alike): there the quadratic
relations are exact, so the verifier can demand agreement at full floating
precision instead of hiding truncation artifacts behind a loose tolerance.

Operators are scipy CSR matrices; a plain text coordinate-list export is
provided for cross-tool diffing.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .qcore import DeformationParams, check_budget, q_number, size_estimate

__all__ = [
    "FockSpaceConfig",
    "RelationReport",
    "occupation_table",
    "encode_occupation",
    "decode_occupation",
    "annihilator",
    "creator",
    "corrupted_annihilator",
    "number_op",
    "scale_op",
    "build_state",
    "interior_indices",
    "verify_algebra",
    "RELATION_FAMILIES",
    "coordinate_text",
]

RELATION_FAMILIES = (
    "creator_creator_swap",
    "annihilator_annihilator_swap",
    "annihilator_creator_swap",
    "mode_contraction",
    "last_mode_contraction",
    "number_ladder_commutator",
    "normal_product_diagonal",
    "ladder_commutator_scale_product",
)


@dataclass(frozen=True)
class FockSpaceConfig:
    """Truncation context: number of modes, per-mode cutoff, deformation."""

    modes: int
    cutoff: int
    params: DeformationParams

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        # verify_algebra, the heaviest user: its operator lists take ~80 B per state and mode,
        # products and slices ~300 B per state; work is ~1 us per state and pair of modes
        dim = size_estimate(self.modes * math.log(self.cutoff))
        nbytes, work = (300 + 80 * self.modes) * dim, 1000 * self.modes**2 * dim
        check_budget(f"the {self.cutoff}^{self.modes} Fock space", nbytes, work)

    @property
    def dimension(self) -> int:
        return self.cutoff**self.modes


@lru_cache(maxsize=128)
def _occupation_table(modes: int, cutoff: int) -> np.ndarray:
    dim = cutoff**modes
    index = np.arange(dim)
    table = np.empty((dim, modes), dtype=np.int64)
    for k in range(modes):
        table[:, k] = (index // cutoff ** (modes - 1 - k)) % cutoff
    table.setflags(write=False)
    return table


def occupation_table(cfg: FockSpaceConfig) -> np.ndarray:
    """All occupation tuples as a read-only (dimension, modes) array."""
    return _occupation_table(cfg.modes, cfg.cutoff)


def encode_occupation(cfg: FockSpaceConfig, occupation: Sequence[int]) -> int:
    """Mixed-radix flat index of an occupation tuple (mode 1 most significant)."""
    occupation = tuple(int(n) for n in occupation)
    if len(occupation) != cfg.modes:
        raise ValueError(f"expected {cfg.modes} occupation entries, got {len(occupation)}")
    if any(not 0 <= n < cfg.cutoff for n in occupation):
        raise ValueError(f"occupations must lie in 0..{cfg.cutoff - 1}, got {occupation}")
    index = 0
    for n in occupation:
        index = index * cfg.cutoff + n
    return index


def decode_occupation(cfg: FockSpaceConfig, index: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_occupation`."""
    if not 0 <= index < cfg.dimension:
        raise ValueError(f"index must lie in 0..{cfg.dimension - 1}, got {index}")
    digits = []
    for k in range(cfg.modes):
        digits.append(index // cfg.cutoff ** (cfg.modes - 1 - k) % cfg.cutoff)
    return tuple(int(d) for d in digits)


def _bracket_array(params: DeformationParams, n: np.ndarray) -> np.ndarray:
    return (params.q_sq ** n.astype(np.float64) - 1.0) / (params.q_sq - 1.0)


def _check_mode(cfg: FockSpaceConfig, i: int) -> int:
    if not 1 <= i <= cfg.modes:
        raise ValueError(f"mode index must lie in 1..{cfg.modes}, got {i}")
    return i


def annihilator(cfg: FockSpaceConfig, i: int) -> sp.csr_matrix:
    """Sparse matrix of a_i (1-based mode index)."""
    i = _check_mode(cfg, i)
    occ = occupation_table(cfg)
    stride = cfg.cutoff ** (cfg.modes - i)
    source = np.nonzero(occ[:, i - 1] > 0)[0]
    suffix = occ[source, i:].sum(axis=1)
    amplitude = cfg.params.q**suffix * np.sqrt(_bracket_array(cfg.params, occ[source, i - 1]))
    matrix = sp.csr_matrix(
        (amplitude.astype(np.complex128), (source - stride, source)),
        shape=(cfg.dimension, cfg.dimension),
    )
    matrix.eliminate_zeros()
    return matrix


def creator(cfg: FockSpaceConfig, i: int) -> sp.csr_matrix:
    """Sparse matrix of a_i^dag, built independently of :func:`annihilator`.

    The top rung n_i = cutoff - 1 is annihilated by truncation.  Adjointness
    to :func:`annihilator` is a checked property, not a construction.
    """
    i = _check_mode(cfg, i)
    occ = occupation_table(cfg)
    stride = cfg.cutoff ** (cfg.modes - i)
    source = np.nonzero(occ[:, i - 1] < cfg.cutoff - 1)[0]
    suffix = occ[source, i:].sum(axis=1)
    amplitude = cfg.params.q**suffix * np.sqrt(
        _bracket_array(cfg.params, occ[source, i - 1] + 1)
    )
    matrix = sp.csr_matrix(
        (amplitude.astype(np.complex128), (source + stride, source)),
        shape=(cfg.dimension, cfg.dimension),
    )
    matrix.eliminate_zeros()
    return matrix


def number_op(cfg: FockSpaceConfig, i: int) -> sp.csr_matrix:
    """Diagonal number operator N_i."""
    i = _check_mode(cfg, i)
    occ = occupation_table(cfg)
    return sp.diags(
        occ[:, i - 1].astype(np.complex128), format="csr", shape=(cfg.dimension, cfg.dimension)
    )


def scale_op(cfg: FockSpaceConfig, i: int) -> sp.csr_matrix:
    """Diagonal scale operator Q_i = q^{2 N_i}."""
    i = _check_mode(cfg, i)
    occ = occupation_table(cfg)
    diagonal = cfg.params.q_sq ** occ[:, i - 1].astype(np.float64)
    return sp.diags(diagonal.astype(np.complex128), format="csr", shape=(cfg.dimension, cfg.dimension))


def build_state(cfg: FockSpaceConfig, occupation: Sequence[int]) -> np.ndarray:
    """State built by creation from the ground state.

    Applies (a_modes^dag)^{n_modes} ... (a_1^dag)^{n_1} to the vacuum and
    divides by sqrt(prod [n_i]!).  Filling modes in ascending order keeps
    every twist factor at q^0, so the result is the corresponding canonical
    basis vector with amplitude 1 (up to floating-point roundoff).
    """
    occupation = tuple(int(n) for n in occupation)
    encode_occupation(cfg, occupation)  # bounds check
    vector = np.zeros(cfg.dimension, dtype=np.complex128)
    vector[0] = 1.0
    normalization = 1.0
    for i in range(1, cfg.modes + 1):
        raise_op = creator(cfg, i)
        for step in range(occupation[i - 1]):
            vector = raise_op @ vector
            normalization *= q_number(cfg.params, step + 1)
    return vector / np.sqrt(normalization)


def interior_indices(cfg: FockSpaceConfig, margin: int = 2) -> np.ndarray:
    """Indices of states with every occupation at most cutoff - margin."""
    occ = occupation_table(cfg)
    return np.nonzero((occ <= cfg.cutoff - margin).all(axis=1))[0]


@dataclass(frozen=True)
class RelationReport:
    """Max absolute deviations of the defining relations on the interior."""

    modes: int
    cutoff: int
    q: float
    tol: float
    deviations: Mapping[str, float]
    interior_size: int

    @property
    def passed(self) -> bool:
        return all(d < self.tol for d in self.deviations.values())

    def failing(self) -> list[str]:
        return sorted(name for name, d in self.deviations.items() if d >= self.tol)


def _interior_max(matrix: sp.spmatrix, interior: np.ndarray) -> float:
    block = sp.csr_matrix(matrix)[interior][:, interior]
    if block.nnz == 0:
        return 0.0
    return float(np.max(np.abs(block.data)))


def verify_algebra(
    cfg: FockSpaceConfig,
    tol: float = 1e-12,
    annihilators: Sequence[sp.spmatrix] | None = None,
    creators: Sequence[sp.spmatrix] | None = None,
) -> RelationReport:
    """Certify the eight defining relation families on the truncation interior.

    Both rows and columns are restricted to states with all occupations at
    most cutoff - 2; there every quadratic product is representable exactly,
    so deviations measure nothing but arithmetic error.  Operator lists may
    be injected (e.g. deliberately corrupted copies) for negative controls;
    by default they are built from the configuration.
    """
    if cfg.cutoff < 3:
        raise ValueError("verify_algebra needs cutoff >= 3 for a nonempty interior margin of 2")
    params = cfg.params
    q, q_sq = params.q, params.q_sq
    n = cfg.modes
    lower = list(annihilators) if annihilators is not None else [annihilator(cfg, i) for i in range(1, n + 1)]
    raise_ = list(creators) if creators is not None else [creator(cfg, i) for i in range(1, n + 1)]
    if len(lower) != n or len(raise_) != n:
        raise ValueError("operator overrides must supply exactly one matrix per mode")
    numbers = [number_op(cfg, i) for i in range(1, n + 1)]
    identity = sp.identity(cfg.dimension, dtype=np.complex128, format="csr")
    occ = occupation_table(cfg)
    interior = interior_indices(cfg, margin=2)

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
        diagonal = q_sq**suffix_after * _bracket_array(params, occ[:, a])
        target = sp.diags(diagonal.astype(np.complex128), format="csr")
        worst["normal_product_diagonal"] = max(
            worst["normal_product_diagonal"], dev(raise_[a] @ lower[a] - target)
        )

    for a in range(n):
        suffix_from = occ[:, a:].sum(axis=1).astype(np.float64)
        scale_product = sp.diags((q_sq**suffix_from).astype(np.complex128), format="csr")
        worst["ladder_commutator_scale_product"] = max(
            worst["ladder_commutator_scale_product"],
            dev(lower[a] @ raise_[a] - raise_[a] @ lower[a] - scale_product),
        )

    return RelationReport(
        modes=n,
        cutoff=cfg.cutoff,
        q=q,
        tol=tol,
        deviations=worst,
        interior_size=int(interior.size),
    )


def coordinate_text(operator: sp.spmatrix | np.ndarray) -> str:
    """Coordinate-list text form: one ``row col re im`` line per entry.

    Matrices list their nonzero entries sorted by (row, col); vectors are
    treated as single-column matrices.  Values are printed with 17
    significant digits, enough to round-trip IEEE doubles.
    """
    if isinstance(operator, np.ndarray):
        if operator.ndim != 1:
            raise ValueError("only 1-d arrays are exported as column vectors")
        rows = np.nonzero(operator)[0]
        entries = [(int(r), 0, complex(operator[r])) for r in rows]
    else:
        coo = sp.coo_matrix(operator)
        entries = sorted(
            (int(r), int(c), complex(v)) for r, c, v in zip(coo.row, coo.col, coo.data)
        )
    lines = [f"{r} {c} {v.real:.17g} {v.imag:.17g}" for r, c, v in entries]
    return "\n".join(lines) + ("\n" if lines else "")


def corrupted_annihilator(
    cfg: FockSpaceConfig, i: int, relative_error: float = 1e-6
) -> sp.csr_matrix:
    """Copy of ``annihilator(cfg, i)`` with one interior amplitude rescaled.

    Negative-control input for :func:`verify_algebra`: the first stored
    amplitude whose row and column both lie in the margin-2 interior is
    multiplied by ``1 + relative_error``.  Feeding the result in place of
    the honest operator must trip exactly the relation families that
    constrain amplitude magnitudes, while the families whose cancellation
    is positional (creator ordering, last-mode contraction, number-operator
    commutators) stay clean — a check that the certification actually
    resolves individual matrix elements.
    """
    matrix = annihilator(cfg, i).tocoo()
    interior = frozenset(interior_indices(cfg, margin=2).tolist())
    for k in range(matrix.nnz):
        if int(matrix.row[k]) in interior and int(matrix.col[k]) in interior:
            matrix.data[k] *= 1.0 + relative_error
            return matrix.tocsr()
    raise ValueError("no interior amplitude available to corrupt; increase the cutoff")
