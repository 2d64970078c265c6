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

Operators are real ``float64`` weighted shifts (:class:`ShiftOperator`): a_i,
a_i^dag and N_i send a basis state to at most one basis state, along one
diagonal of the matrix, so each is stored as a CSR triple with at most one
entry per row and per column, and applied to a vector by one gather-multiply.
Sparse algebra on them (products, slicing, transposes) goes through
``op.tocsr()``, which imports scipy only when called; nothing on the path of
a ``qmodes`` verb does.  A plain text coordinate-list export is provided for
cross-tool diffing.  ``verify_algebra`` reads every operator it is given
through its one shift diagonal and refuses an operator that stores a nonzero
anywhere else, then forms each relation residual from gathered amplitudes on
the interior, without any matrix product.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .qcore import DeformationParams, check_budget, q_number, size_estimate

__all__ = [
    "ShiftOperator",
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


class ShiftOperator:
    """A weighted shift: a sparse matrix with at most one entry per row and per column.

    ``data``, ``indices`` and ``indptr`` are its CSR triple, with the meaning
    they have on a scipy ``csr_matrix``: row r stores ``data[k]`` at column
    ``indices[k]`` for k in ``indptr[r]:indptr[r + 1]``.  ``op @ vector`` is
    one gather-multiply; ``tocsr()`` hands the triple to scipy for sparse
    algebra, importing it only then.
    """

    def __init__(self, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        rows, columns = (int(n) for n in shape)
        per_row = np.diff(indptr)
        if (
            indptr.shape != (rows + 1,)
            or indices.shape != data.shape
            or indptr[0] != 0
            or indptr[-1] != data.size
            or np.any((per_row < 0) | (per_row > 1))
            or np.any((indices < 0) | (indices >= columns))
            or np.any(np.bincount(indices, minlength=columns) > 1)
        ):
            raise ValueError("a ShiftOperator stores at most one entry per row and per column")
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (rows, columns)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def rows(self) -> np.ndarray:
        """The row of each stored entry, in storage order."""
        return np.flatnonzero(np.diff(self.indptr))

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        if not isinstance(vector, np.ndarray):
            return NotImplemented  # products of operators go through tocsr()
        if vector.shape != (self.shape[1],):
            raise ValueError(f"cannot apply a {self.shape} operator to shape {vector.shape}")
        # one gathered copy, multiplied in place (each fresh large array costs page faults)
        product = np.take(vector, self.indices).astype(np.result_type(self.data, vector), copy=False)
        np.multiply(product, self.data, out=product)
        # scipy's matvec sums each row from zero, so a product of -0.0 reads +0.0 there
        product += 0.0
        if product.size == self.shape[0]:  # every row stores its one entry
            return product
        out = np.zeros(self.shape[0], dtype=product.dtype)
        out[self.rows()] = product
        return out

    def tocsr(self):
        """The same matrix as a scipy ``csr_matrix``, on copies of the arrays."""
        import scipy.sparse as sp  # sparse algebra is for tests and oracles, not the verbs

        triple = (self.data.copy(), self.indices.copy(), self.indptr.copy())
        return sp.csr_matrix(triple, shape=self.shape)


def _shift_operator(
    dim: int, rows: np.ndarray, columns: np.ndarray, amplitude: np.ndarray
) -> ShiftOperator:
    """The square weighted shift storing ``amplitude[k]`` at (rows[k], columns[k]).

    ``rows`` ascend, and the builders pass no row and no column twice, so the
    CSR triple is assembled as it stands, with no sort and without the
    constructor's checks, which cost about as much as a build.  Zero
    amplitudes (underflow) are dropped first, as scipy's ``eliminate_zeros``
    drops them.  Indices are int32 whenever they fit, as in scipy.
    """
    stored = amplitude != 0
    if not stored.all():
        rows, columns, amplitude = rows[stored], columns[stored], amplitude[stored]
    index_type = np.int32 if dim < 2**31 else np.int64
    indptr = np.zeros(dim + 1, dtype=index_type)
    indptr[rows + 1] = 1
    np.cumsum(indptr, out=indptr)
    op = ShiftOperator.__new__(ShiftOperator)
    op.data, op.indices, op.indptr = amplitude, columns.astype(index_type), indptr
    op.shape = (dim, dim)
    return op


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
        # verify_algebra, the heaviest user: operators, amplitude arrays and build temporaries
        # take ~60 B per state and mode plus ~200 B per state; work is ~2 us + 0.5 us per mode
        # per state (fitted when the builds raised q per state; with one power per rung
        # they take about half that, so the work estimate errs high)
        dim = size_estimate(self.modes * math.log(self.cutoff))
        nbytes, work = (200 + 60 * self.modes) * dim, (2000 + 500 * self.modes) * dim
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


def _rung_powers(base: float, count: int) -> np.ndarray:
    """base**s for s = 0..count-1: one float power per rung, gathered by exponent.

    numpy's power of each entry equals the power it takes per state, so a
    gather from this table is bit-identical to raising base for every state.
    """
    return base ** np.arange(count, dtype=np.float64)


def _root_brackets(cfg: FockSpaceConfig) -> np.ndarray:
    """sqrt([m]) for every occupation m < cutoff, gathered by occupation."""
    return np.sqrt(_bracket_array(cfg.params, np.arange(cfg.cutoff)))


def _check_mode(cfg: FockSpaceConfig, i: int) -> int:
    if not 1 <= i <= cfg.modes:
        raise ValueError(f"mode index must lie in 1..{cfg.modes}, got {i}")
    return i


def annihilator(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Weighted shift a_i (1-based mode index)."""
    i = _check_mode(cfg, i)
    occ = occupation_table(cfg)
    stride = cfg.cutoff ** (cfg.modes - i)
    source = np.nonzero(occ[:, i - 1] > 0)[0]
    suffix = occ[source, i:].sum(axis=1)
    twist = _rung_powers(cfg.params.q, (cfg.modes - i) * (cfg.cutoff - 1) + 1)
    amplitude = twist[suffix] * _root_brackets(cfg)[occ[source, i - 1]]
    return _shift_operator(cfg.dimension, source - stride, source, amplitude)


def creator(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Weighted shift a_i^dag, built independently of :func:`annihilator`.

    The top rung n_i = cutoff - 1 is annihilated by truncation.  Adjointness
    to :func:`annihilator` is a checked property, not a construction.
    """
    i = _check_mode(cfg, i)
    occ = occupation_table(cfg)
    stride = cfg.cutoff ** (cfg.modes - i)
    source = np.nonzero(occ[:, i - 1] < cfg.cutoff - 1)[0]
    suffix = occ[source, i:].sum(axis=1)
    twist = _rung_powers(cfg.params.q, (cfg.modes - i) * (cfg.cutoff - 1) + 1)
    amplitude = twist[suffix] * _root_brackets(cfg)[occ[source, i - 1] + 1]
    return _shift_operator(cfg.dimension, source + stride, source, amplitude)


def number_op(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Diagonal number operator N_i."""
    i = _check_mode(cfg, i)
    diagonal = np.arange(cfg.dimension)
    occupation = occupation_table(cfg)[:, i - 1].astype(np.float64)
    return _shift_operator(cfg.dimension, diagonal, diagonal, occupation)


def scale_op(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Diagonal scale operator Q_i = q^{2 N_i}."""
    i = _check_mode(cfg, i)
    diagonal = np.arange(cfg.dimension)
    scale = _rung_powers(cfg.params.q_sq, cfg.cutoff)[occupation_table(cfg)[:, i - 1]]
    return _shift_operator(cfg.dimension, diagonal, diagonal, scale)


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


def interior_indices(cfg: FockSpaceConfig) -> np.ndarray:
    """Indices of states with every occupation at most cutoff - 2 (a margin of 2)."""
    occ = occupation_table(cfg)
    return np.nonzero((occ <= cfg.cutoff - 2).all(axis=1))[0]


@dataclass(frozen=True)
class RelationReport:
    """Max absolute deviations of the defining relations on the interior.

    A family passes when its deviation is below ``threshold(name)``: the
    configured ``tol`` plus the family's rounding allowance, if it has one.
    """

    modes: int
    cutoff: int
    q: float
    tol: float
    deviations: Mapping[str, float]
    interior_size: int
    allowances: Mapping[str, float] = field(default_factory=dict)

    def threshold(self, name: str) -> float:
        return self.tol + self.allowances.get(name, 0.0)

    @property
    def passed(self) -> bool:
        return not self.failing()

    def failing(self) -> list[str]:
        return sorted(
            name for name, d in self.deviations.items() if not d < self.threshold(name)
        )


def _shift_amplitudes(cfg: FockSpaceConfig, matrix, i: int, step: int) -> np.ndarray:
    """Amplitude at each column of an operator that moves mode i by ``step`` quanta.

    The operator must map basis state c to c + step * stride_i, and only where
    that occupation exists: a_i for step -1, a_i^dag for +1, N_i for 0.  Any
    stored nonzero off that pattern raises ``ValueError``, so no entry goes
    unread; columns without an entry read 0.  A :class:`ShiftOperator` is read
    as it stands, any other sparse matrix through its own ``tocsr()``.
    """
    occ = occupation_table(cfg)[:, i - 1]
    if isinstance(matrix, ShiftOperator):
        row = matrix.rows()
    else:
        matrix = matrix.tocsr()
        matrix.sum_duplicates()
        row = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    col, values = matrix.indices, matrix.data
    stored = values != 0
    if not stored.all():
        row, col, values = row[stored], col[stored], values[stored]
    # np.take and np.put move data through int32 indices about twice as fast as fancy indexing
    landing = np.take(occ, col) + step
    if (
        matrix.shape != (cfg.dimension, cfg.dimension)
        or np.any(row != col + step * cfg.cutoff ** (cfg.modes - i))
        or np.any((landing < 0) | (landing >= cfg.cutoff))
        or np.any(np.imag(values))
    ):
        raise ValueError(f"operator for mode {i} stores entries off its real shift by {step:+d}")
    amplitude = np.zeros(cfg.dimension)
    np.put(amplitude, col, np.real(values))
    return amplitude


def verify_algebra(
    cfg: FockSpaceConfig,
    tol: float = 1e-12,
    annihilators: Sequence[ShiftOperator] | None = None,
    creators: Sequence[ShiftOperator] | None = None,
) -> RelationReport:
    """Certify the eight defining relation families on the truncation interior.

    Both rows and columns are restricted to states with all occupations at
    most cutoff - 2; there every quadratic product is representable exactly,
    so deviations measure nothing but arithmetic error.  Operator lists may
    be injected (e.g. deliberately corrupted copies, or scipy sparse
    matrices) for negative controls; by default they are built from the
    configuration.

    Every operator is a weighted shift, so each relation maps an interior
    column c to one row c + shift: its residual is a product of amplitudes
    gathered at c and at the intermediate state, kept where the row lies in
    the interior.  Each expression keeps the association of the matrix
    products it stands for, so the deviations equal theirs bit for bit.
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
    # amplitudes of a_i, a_i^dag and N_i at each column
    L = [_shift_amplitudes(cfg, m, i, -1) for i, m in enumerate(lower, start=1)]
    R = [_shift_amplitudes(cfg, m, i, +1) for i, m in enumerate(raise_, start=1)]
    D = [_shift_amplitudes(cfg, number_op(cfg, i), i, 0) for i in range(1, n + 1)]
    stride = [cfg.cutoff ** (n - 1 - a) for a in range(n)]
    occ = occupation_table(cfg)
    interior = interior_indices(cfg)
    inner = occ[interior]
    # the row of a_a (a_a^dag) applied to an interior column is interior iff this holds
    lowerable = [inner[:, a] >= 1 for a in range(n)]
    raisable = [inner[:, a] <= cfg.cutoff - 3 for a in range(n)]

    # a_a a_a^dag and a_a^dag a_a on every interior column; the latter is absent where n_a = 0
    lower_raise = [L[a][interior + stride[a]] * R[a][interior] for a in range(n)]
    raise_lower = []
    for a in range(n):
        product = np.zeros(interior.size)
        j = interior[lowerable[a]]
        product[lowerable[a]] = R[a][j - stride[a]] * L[a][j]
        raise_lower.append(product)

    # each residual is reduced as soon as it is formed; np.max, unlike Python's max,
    # carries a NaN through to the family's deviation, so the family fails
    peaks: dict[str, list[float]] = {name: [0.0] for name in RELATION_FAMILIES}

    def record(name: str, residual: np.ndarray) -> None:
        peaks[name].append(np.max(np.abs(residual), initial=0.0))

    for a in range(n):
        for b in range(a + 1, n):
            j = interior[raisable[a] & raisable[b]]
            record(
                "creator_creator_swap",
                R[a][j + stride[b]] * R[b][j] - q * R[b][j + stride[a]] * R[a][j],
            )
            j = interior[lowerable[a] & lowerable[b]]
            record(
                "annihilator_annihilator_swap",
                L[a][j - stride[b]] * L[b][j] - (1.0 / q) * L[b][j - stride[a]] * L[a][j],
            )

    for a in range(n):
        for b in range(n):
            if a != b:
                j = interior[lowerable[a] & raisable[b]]
                record(
                    "annihilator_creator_swap",
                    L[a][j + stride[b]] * R[b][j] - q * R[b][j - stride[a]] * L[a][j],
                )

    for a in range(n - 1):
        rhs = 1.0 + q_sq * raise_lower[a]
        for k in range(a + 1, n):
            rhs = rhs + (q_sq - 1.0) * raise_lower[k]
        record("mode_contraction", lower_raise[a] - rhs)

    record("last_mode_contraction", lower_raise[n - 1] - 1.0 - q_sq * raise_lower[n - 1])

    peak_ladder = 0.0  # A in the allowance below: the largest amplitude gathered here
    for b in range(n):
        j_lower, j_raise = interior[lowerable[b]], interior[raisable[b]]
        lower, raised = L[b][j_lower], R[b][j_raise]
        peak_ladder = max(
            peak_ladder,
            float(np.max(np.abs(lower), initial=0.0)),
            float(np.max(np.abs(raised), initial=0.0)),
        )
        for a in range(n):
            delta = 1.0 if a == b else 0.0
            record(
                "number_ladder_commutator",
                D[a][j_lower - stride[b]] * lower - lower * D[a][j_lower] + delta * lower,
            )
            record(
                "number_ladder_commutator",
                D[a][j_raise + stride[b]] * raised - raised * D[a][j_raise] - delta * raised,
            )

    # the targets on the interior, from one power per rung: suffix[:, a] sums the
    # occupations of modes a and above, and it is 0 past the last mode
    suffix = np.zeros((interior.size, n + 1), dtype=np.int64)
    suffix[:, :n] = np.cumsum(inner[:, ::-1], axis=1)[:, ::-1]
    scale = _rung_powers(q_sq, n * (cfg.cutoff - 2) + 1)
    brackets = _bracket_array(params, np.arange(cfg.cutoff))
    for a in range(n):
        target = scale[suffix[:, a + 1]] * brackets[inner[:, a]]
        record("normal_product_diagonal", raise_lower[a] - target)

    for a in range(n):
        record("ladder_commutator_scale_product", lower_raise[a] - raise_lower[a] - scale[suffix[:, a]])

    deviations = {name: float(np.max(values)) for name, values in peaks.items()}
    # Unlike the other families, the commutator's terms grow with the occupation: each
    # product N a is at most n_max * A, n_max = cutoff - 2 the largest interior
    # occupation and A the largest ladder amplitude gathered.  Its two products round by
    # at most u * n_max * A each (u = 2^-53), their difference, about one amplitude, by
    # about u * A, and the last sum by less; 4 u n_max A bounds all of it.  A
    # non-finite A gets no allowance: its residual is not finite and fails anyway.
    allowance = 4.0 * 2.0**-53 * (cfg.cutoff - 2) * peak_ladder
    return RelationReport(
        modes=n,
        cutoff=cfg.cutoff,
        q=q,
        tol=tol,
        deviations=deviations,
        interior_size=int(interior.size),
        allowances={"number_ladder_commutator": allowance if math.isfinite(allowance) else 0.0},
    )


def coordinate_text(operator: ShiftOperator | np.ndarray) -> str:
    """Coordinate-list text form: one ``row col re im`` line per entry.

    Matrices list their stored entries sorted by (row, col); vectors are
    treated as single-column matrices and list their nonzero entries.  A
    matrix other than a :class:`ShiftOperator` is read through its own
    ``tocoo()``.  Values are printed with 17 significant digits, enough to
    round-trip IEEE doubles.
    """
    if isinstance(operator, np.ndarray):
        if operator.ndim != 1:
            raise ValueError("only 1-d arrays are exported as column vectors")
        rows = np.nonzero(operator)[0]
        entries = [(int(r), 0, complex(operator[r])) for r in rows]
    else:
        if isinstance(operator, ShiftOperator):
            rows, cols, values = operator.rows(), operator.indices, operator.data
        else:
            coo = operator.tocoo()
            rows, cols, values = coo.row, coo.col, coo.data
        entries = sorted(
            (int(r), int(c), complex(v)) for r, c, v in zip(rows, cols, values)
        )
    lines = [f"{r} {c} {v.real:.17g} {v.imag:.17g}" for r, c, v in entries]
    return "\n".join(lines) + ("\n" if lines else "")


def corrupted_annihilator(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Copy of ``annihilator(cfg, i)`` with one interior amplitude rescaled.

    Negative-control input for :func:`verify_algebra`: the first stored
    amplitude whose row and column both lie in the margin-2 interior is
    multiplied by ``1 + 1e-6``.  Feeding the result in place of
    the honest operator must trip exactly the relation families that
    constrain amplitude magnitudes, while the families whose cancellation
    is positional (creator ordering, last-mode contraction, number-operator
    commutators) stay clean — a check that the certification actually
    resolves individual matrix elements.
    """
    matrix = annihilator(cfg, i)
    inside = np.zeros(cfg.dimension, dtype=bool)
    inside[interior_indices(cfg)] = True
    candidates = np.flatnonzero(inside[matrix.rows()] & inside[matrix.indices])
    if candidates.size == 0:
        raise ValueError("no interior amplitude available to corrupt; increase the cutoff")
    matrix.data[candidates[0]] *= 1.0 + 1e-6
    return matrix
