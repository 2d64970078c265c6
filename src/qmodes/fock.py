"""Truncated multimode Fock space and its sparse operator representation.

Basis states are occupation tuples (n_1, ..., n_modes) with every entry
below ``cutoff``, flattened through mixed-radix positional encoding with
mode 1 as the most significant digit.  The deformed ladder operators act as

    a_i     |n>  =  q^{sum_{k>i} n_k} sqrt([n_i])     |..., n_i - 1, ...>
    a_i^dag |n>  =  q^{sum_{k>i} n_k} sqrt([n_i + 1]) |..., n_i + 1, ...>

with the bracket [m] = (q^{2m} - 1)/(q^2 - 1); it and the powers of q come
from the one power table ``qcore`` keeps per base.  The number operator N_i
and the scale operator Q_i = q^{2 N_i} are diagonal.  Creation out of the top
rung n_i = cutoff - 1 truncates to zero, which is why every algebraic check
restricts itself to the interior of the truncation (all occupations at most
cutoff - 2, applied to rows and columns alike): there the quadratic
relations are exact, so the verifier can demand agreement at full floating
precision instead of hiding truncation artifacts behind a loose tolerance.

Operators are real ``float64`` weighted shifts (:class:`ShiftOperator`): a_i,
a_i^dag and N_i send a basis state to at most one basis state, along one
diagonal of the matrix, so each is stored as a CSR triple with at most one
entry per row and per column.  Sparse algebra on them (products with vectors
or matrices, slicing, transposes) goes through ``op.tocsr()``, which imports
scipy only when called; nothing on the path of a ``qmodes`` verb does.

``verify_algebra`` works on the (cutoff,) * modes grid of occupations: each
operator's amplitude at each column.  By default it takes them from one
kernel per operator (``_annihilator_grid``, ``_creator_grid``, and
``_number_grid``, a broadcast view), which write straight onto the grid; the
builders :func:`annihilator`, :func:`creator` and :func:`number_op` pack those
same grids into their CSR triples bit for bit, so the default route
certifies the operators they return without building or reading a triple.
An operator passed as an override is read back from its CSR triple through
its one shift diagonal, and refused if it stores a nonzero anywhere else.
Each relation residual is then formed from slices of the grids, with no
matrix product and no index array.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .qcore import DeformationParams, _bracket_array, _power_table, check_budget, size_estimate

__all__ = [
    "ShiftOperator",
    "FockSpaceConfig",
    "RelationReport",
    "occupation_table",
    "encode_occupation",
    "annihilator",
    "creator",
    "corrupted_annihilator",
    "number_op",
    "scale_op",
    "interior_indices",
    "verify_algebra",
    "RELATION_FAMILIES",
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
    ``indices[k]`` for k in ``indptr[r]:indptr[r + 1]``.  ``tocsr()`` hands
    the triple to scipy for sparse algebra, importing it only then.
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
    def nnz(self) -> int:
        return int(self.data.size)

    def rows(self) -> np.ndarray:
        """The row of each stored entry, in storage order."""
        return np.flatnonzero(np.diff(self.indptr))

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
    drops them.  Indices are int32, as scipy's are whenever they fit: the guard of
    ``FockSpaceConfig`` admits no space near 2^31 states.
    """
    stored = amplitude != 0
    if not stored.all():
        rows, columns, amplitude = rows[stored], columns[stored], amplitude[stored]
    indptr = np.zeros(dim + 1, dtype=np.int32)
    indptr[rows + 1] = 1
    np.cumsum(indptr, out=indptr)
    op = ShiftOperator.__new__(ShiftOperator)
    op.data, op.indices, op.indptr = amplitude, columns.astype(np.int32), indptr
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
        # verify_algebra, the heaviest user, peaks at its 2 modes amplitude grids (16 B per
        # state and mode) and ~40 B per state more, under 32 KiB plus 64 + 20 modes B per
        # state.  It runs in ~0.1 to 0.7 us per state, under 0.6 + 0.04 modes us, after
        # ~0.1 ms of numpy calls per ordered pair of modes (both fitted on modes 1 to 13 at
        # up to 4e6 states, the bytes with the negative control too).  The power tables of q
        # and q^2 it builds on ``params`` for the twists, brackets and scales hold under
        # 2 modes cutoff entries of 8 B each, at ~100 ns an entry
        n, dim = self.modes, size_estimate(self.modes * math.log(self.cutoff))
        nbytes = 2**15 + (64 + 20 * n) * dim + 32 * n * self.cutoff
        work = 2e6 + 1e5 * n * n + (600 + 40 * n) * dim + 400 * n * self.cutoff
        check_budget(f"the {self.cutoff}^{self.modes} Fock space", nbytes, work)

    @property
    def dimension(self) -> int:
        return self.cutoff**self.modes


def occupation_table(cfg: FockSpaceConfig) -> np.ndarray:
    """All occupation tuples as a read-only (dimension, modes) array."""
    index = np.arange(cfg.dimension)
    table = np.empty((cfg.dimension, cfg.modes), dtype=np.int64)
    for k in range(cfg.modes):
        table[:, k] = (index // cfg.cutoff ** (cfg.modes - 1 - k)) % cfg.cutoff
    table.setflags(write=False)
    return table


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


def _root_brackets(cfg: FockSpaceConfig) -> np.ndarray:
    """sqrt([m]) for every occupation m < cutoff, from qcore's brackets."""
    return np.sqrt(_bracket_array(cfg.params, cfg.cutoff))


def _ladder_grid(cfg: FockSpaceConfig, i: int, rungs: slice, root_brackets: np.ndarray) -> np.ndarray:
    """q^{sum_{k>i} n_k} times ``root_brackets`` (one per source rung of mode i) at each column
    on the (cutoff,) * modes grid, and 0 on the rung the ladder leaves: one block, broadcast
    over the modes before i into a zeroed (c^(i-1), c, c^(modes-i)) grid."""
    c = cfg.cutoff
    suffix = np.zeros(1, dtype=np.intp)  # occupations summed over the modes after i
    for _ in range(cfg.modes - i):
        suffix = np.add.outer(np.arange(c), suffix).ravel()
    twist = _power_table(cfg.params, cfg.params.q, (cfg.modes - i) * (c - 1) + 1)
    grid = np.zeros((c ** (i - 1), c, suffix.size))
    grid[:, rungs] = twist[suffix] * root_brackets[:, None]
    return grid.reshape((c,) * cfg.modes)


def _check_mode(cfg: FockSpaceConfig, i: int) -> int:
    if not 1 <= i <= cfg.modes:
        raise ValueError(f"mode index must lie in 1..{cfg.modes}, got {i}")
    return i


def _annihilator_grid(cfg: FockSpaceConfig, i: int) -> np.ndarray:
    """Amplitude of a_i at each column on the (cutoff,) * modes grid: q^{sum_{k>i} n_k} sqrt([n_i])."""
    rungs = slice(1, cfg.cutoff)  # the n_i that a_i lowers
    return _ladder_grid(cfg, _check_mode(cfg, i), rungs, _root_brackets(cfg)[rungs])


def _creator_grid(cfg: FockSpaceConfig, i: int) -> np.ndarray:
    """Amplitude of a_i^dag at each column: q^{sum_{k>i} n_k} sqrt([n_i + 1]), 0 on the top rung.

    Built from its own rungs and brackets, not from :func:`_annihilator_grid`."""
    rungs = slice(0, cfg.cutoff - 1)  # the n_i that a_i^dag raises
    return _ladder_grid(cfg, _check_mode(cfg, i), rungs, _root_brackets(cfg)[1:])  # sqrt([n_i + 1])


def _number_grid(cfg: FockSpaceConfig, i: int) -> np.ndarray:
    """Eigenvalue n_i of N_i at each column: a read-only broadcast view, no copy."""
    axis = np.arange(cfg.cutoff, dtype=np.float64).reshape((-1,) + (1,) * (cfg.modes - _check_mode(cfg, i)))
    return np.broadcast_to(axis, (cfg.cutoff,) * cfg.modes)


def _pack(cfg: FockSpaceConfig, grid: np.ndarray, i: int, step: int) -> ShiftOperator:
    """The weighted shift that moves mode i by ``step`` quanta (column c to row
    c + step * stride_i) with the amplitudes of ``grid`` on the rungs it moves from."""
    stride = cfg.cutoff ** (cfg.modes - i)
    rungs = slice(max(0, -step), cfg.cutoff - max(0, step))
    source = np.arange(cfg.dimension).reshape(-1, cfg.cutoff, stride)[:, rungs].ravel()
    amplitude = grid.reshape(-1, cfg.cutoff, stride)[:, rungs].ravel()
    return _shift_operator(cfg.dimension, source + step * stride, source, amplitude)


def annihilator(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Weighted shift a_i (1-based mode index)."""
    return _pack(cfg, _annihilator_grid(cfg, i), i, -1)


def creator(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Weighted shift a_i^dag, built independently of :func:`annihilator`.

    The top rung n_i = cutoff - 1 is annihilated by truncation.  Adjointness
    to :func:`annihilator` is a checked property, not a construction.
    """
    return _pack(cfg, _creator_grid(cfg, i), i, +1)


def number_op(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Diagonal number operator N_i."""
    return _pack(cfg, _number_grid(cfg, i), i, 0)


def scale_op(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Diagonal scale operator Q_i = q^{2 N_i}."""
    i = _check_mode(cfg, i)
    diagonal = np.arange(cfg.dimension)
    scale = _power_table(cfg.params, cfg.params.q_sq, cfg.cutoff).repeat(cfg.cutoff ** (cfg.modes - i))
    return _shift_operator(cfg.dimension, diagonal, diagonal, np.tile(scale, cfg.cutoff ** (i - 1)))


def interior_indices(cfg: FockSpaceConfig) -> np.ndarray:
    """Indices of states with every occupation at most cutoff - 2 (a margin of 2)."""
    occ = occupation_table(cfg)
    return np.nonzero((occ <= cfg.cutoff - 2).all(axis=1))[0]


@dataclass(frozen=True)
class RelationReport:
    """Max absolute deviations of the defining relations on the interior, measured and
    not judged: a family's verdict is ``qcore.passes(deviation, tol)``, given its entry
    of ``allowances`` too if it has one.  ``seconds`` holds each family's time spent
    forming and reducing its residuals; laying out the grids and the products a a^dag
    and a^dag a they share is in none.
    """

    modes: int
    cutoff: int
    q: float
    deviations: Mapping[str, float]
    interior_size: int
    allowances: Mapping[str, float] = field(default_factory=dict)
    seconds: Mapping[str, float] = field(default_factory=dict)


def _shift_amplitudes(cfg: FockSpaceConfig, matrix, i: int, step: int) -> np.ndarray:
    """Amplitude at each column of an operator that moves mode i by ``step`` quanta.

    The operator must map basis state c to c + step * stride_i, and only where
    that occupation exists: a_i for step -1, a_i^dag for +1, N_i for 0.  Any
    stored nonzero off that pattern raises ``ValueError``, so no entry goes
    unread; columns without an entry read 0.  A :class:`ShiftOperator` is read
    as it stands, any other sparse matrix through its own ``tocsr()``.  The
    amplitudes are returned on the (cutoff,) * modes grid of the columns.
    """
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
    refusal = ValueError(f"operator for mode {i} stores entries off its real shift by {step:+d}")
    if (
        matrix.shape != (cfg.dimension, cfg.dimension)
        or np.any(row != col + step * cfg.cutoff ** (cfg.modes - i))
        or np.any(np.imag(values))
    ):
        raise refusal
    amplitude = np.zeros((cfg.cutoff,) * cfg.modes)
    # np.put moves data through int32 indices about twice as fast as fancy indexing
    np.put(amplitude, col, np.real(values))
    # a column on the rung that the step leaves (n_i = 0 down, cutoff - 1 up) lands nowhere
    if step and np.any(amplitude[(slice(None),) * (i - 1) + (0 if step < 0 else -1,)]):
        raise refusal
    return amplitude


def verify_algebra(
    cfg: FockSpaceConfig,
    annihilators: Sequence[ShiftOperator | None] | None = None,
    creators: Sequence[ShiftOperator | None] | None = None,
) -> RelationReport:
    """Certify the eight defining relation families on the truncation interior.

    Both rows and columns are restricted to states with all occupations at
    most cutoff - 2; there every quadratic product is representable exactly,
    so deviations measure nothing but arithmetic error.  Operator lists may
    be injected (e.g. deliberately corrupted copies, or scipy sparse
    matrices) for negative controls; by default, and for every entry that is
    None, the amplitudes come from the grid kernels, which the builders pack.

    Every operator is a weighted shift, taken as amplitudes on the (cutoff,) * modes
    grid of its columns.  The interior is the box 0..cutoff-2 on every axis and
    j + stride_b is one step along axis b, so each residual is a product of
    slices: a box, narrowed where a ladder must keep the row inside, and the
    same box moved along an axis.  Each keeps the association of the matrix
    products it stands for, so the deviations equal theirs bit for bit.

    ``number_ladder_commutator`` forms only the 2n products N_b a_b and N_b a_b^dag
    of the 2n^2 with N_a and a ladder of mode b.  N_a is constant along axis b != a,
    so N_a a_b - a_b N_a reads n_a x - x n_a at each amplitude x of a_b: exactly 0
    (IEEE products commute) while n_a x is finite.  A NaN or infinite x makes the
    a = b product of the same ladder NaN too, since it subtracts x times two
    occupations that are not both 0.  So the a != b products change no deviation,
    except that where n_a x overflows (x past about 1.8e308 / n_max, finite) they
    would read NaN; such an amplitude fails the families that square it all the same.
    """
    if cfg.cutoff < 3:
        raise ValueError("verify_algebra needs cutoff >= 3 for a nonempty interior margin of 2")
    q, q_sq = cfg.params.q, cfg.params.q_sq
    n, c = cfg.modes, cfg.cutoff
    if any(given is not None and len(given) != n for given in (annihilators, creators)):
        raise ValueError("operator overrides must supply exactly one matrix per mode")

    def read(given, grid, step: int) -> list[np.ndarray]:
        # an operator that is not given is laid on the grid by its kernel, with no CSR triple;
        # a given one is read back from its triple, and refused if it strays off its shift
        ops = [None] * n if given is None else given
        return [
            grid(cfg, i) if ops[i - 1] is None else _shift_amplitudes(cfg, ops[i - 1], i, step)
            for i in range(1, n + 1)
        ]

    # amplitudes of a_i, a_i^dag and N_i at each column, on the occupation grid
    L, R = read(annihilators, _annihilator_grid, -1), read(creators, _creator_grid, +1)
    D = [_number_grid(cfg, i) for i in range(1, n + 1)]

    # the interior columns that a_k (a_k^dag) maps to interior rows, n_k >= 1 (n_k <= c - 3),
    # for every k in low (high); and a box moved by step along axis b, the states j + step stride_b
    def box(low: tuple[int, ...] = (), high: tuple[int, ...] = ()) -> tuple[slice, ...]:
        return tuple(slice(int(k in low), c - 1 - int(k in high)) for k in range(n))

    def moved(region: tuple[slice, ...], b: int, step: int) -> tuple[slice, ...]:
        return region[:b] + (slice(region[b].start + step, region[b].stop + step),) + region[b + 1 :]

    # each residual is a fresh array, reduced in place as soon as it is formed; np.max,
    # unlike Python's max, carries a NaN through to the family's deviation, so it fails
    peaks: dict[str, list[float]] = {name: [0.0] for name in RELATION_FAMILIES}
    seconds = dict.fromkeys(RELATION_FAMILIES, 0.0)

    def record(name: str, residual: np.ndarray) -> None:
        peaks[name].append(np.max(np.abs(residual, out=residual), initial=0.0))

    @contextmanager
    def timed(name: str):
        start = time.perf_counter()
        yield
        seconds[name] += time.perf_counter() - start

    with timed("creator_creator_swap"):
        for a in range(n):
            for b in range(a + 1, n):
                j = box(high=(a, b))
                record(
                    "creator_creator_swap",
                    R[a][moved(j, b, +1)] * R[b][j] - q * R[b][moved(j, a, +1)] * R[a][j],
                )

    with timed("annihilator_annihilator_swap"):
        for a in range(n):
            for b in range(a + 1, n):
                j = box(low=(a, b))
                record(
                    "annihilator_annihilator_swap",
                    L[a][moved(j, b, -1)] * L[b][j] - (1.0 / q) * L[b][moved(j, a, -1)] * L[a][j],
                )

    with timed("annihilator_creator_swap"):
        for a in range(n):
            for b in range(n):
                if a != b:
                    j = box(low=(a,), high=(b,))
                    record(
                        "annihilator_creator_swap",
                        L[a][moved(j, b, +1)] * R[b][j] - q * R[b][moved(j, a, -1)] * L[a][j],
                    )

    peak_ladder = 0.0  # A in the allowance below: the largest amplitude read here
    with timed("number_ladder_commutator"):
        # only the products N_b a_b (a = b) are formed: see the docstring
        for b in range(n):
            for grid, j, step, sign in ((L[b], box(low=(b,)), -1, np.add), (R[b], box(high=(b,)), +1, np.subtract)):
                ladder = grid[j]
                peak_ladder = max(peak_ladder, float(np.max(np.abs(ladder), initial=0.0)))
                # N_b[j + step stride_b] a_b - a_b N_b[j] -+ a_b
                residual = D[b][moved(j, b, step)] * ladder - ladder * D[b][j]
                record("number_ladder_commutator", sign(residual, ladder, out=residual))

    # a_a a_a^dag and a_a^dag a_a on every interior column; the latter is absent where n_a = 0.
    # The families left read only these, so each mode's grids are dropped once they are formed
    lower_raise, raise_lower = [], []
    for a in range(n):
        lower_raise.append(L[a][moved(box(), a, +1)] * R[a][box()])
        product = np.zeros((c - 1,) * n)
        j = box(low=(a,))
        product[j] = R[a][moved(j, a, -1)] * L[a][j]
        raise_lower.append(product)
        L[a] = R[a] = None

    with timed("mode_contraction"):
        for a in range(n - 1):
            rhs = 1.0 + q_sq * raise_lower[a]
            for k in range(a + 1, n):
                rhs += (q_sq - 1.0) * raise_lower[k]
            record("mode_contraction", np.subtract(lower_raise[a], rhs, out=rhs))
            del rhs

    with timed("last_mode_contraction"):
        record("last_mode_contraction", lower_raise[n - 1] - 1.0 - q_sq * raise_lower[n - 1])

    # the targets from one power per rung: ``after`` sums the occupations of the modes
    # past a on the trailing axes, so it broadcasts against the interior from axis a + 1
    scale = _power_table(cfg.params, q_sq, n * (c - 2) + 1)
    rung = np.arange(c - 1)
    with timed("normal_product_diagonal"):
        brackets = _bracket_array(cfg.params, c)
        after = np.zeros((), dtype=np.intp)
        for a in reversed(range(n)):
            target = scale[after] * brackets[rung].reshape((-1,) + (1,) * after.ndim)
            record("normal_product_diagonal", raise_lower[a] - target)
            after = np.add.outer(rung, after)
        del target

    with timed("ladder_commutator_scale_product"):
        after = np.zeros((), dtype=np.intp)
        for a in reversed(range(n)):
            after = np.add.outer(rung, after)
            # no later family reads lower_raise[a], so the residual overwrites it
            residual = np.subtract(lower_raise[a], raise_lower[a], out=lower_raise[a])
            record("ladder_commutator_scale_product", np.subtract(residual, scale[after], out=residual))

    deviations = {name: float(np.max(values)) for name, values in peaks.items()}
    # Unlike the other families, the commutator's terms grow with the occupation: each
    # product N a is at most n_max * A, n_max = cutoff - 2 the largest interior
    # occupation and A the largest ladder amplitude read.  Its two products round by
    # at most u * n_max * A each (u = 2^-53), their difference, about one amplitude, by
    # about u * A, and the last sum by less; 4 u n_max A bounds all of it.  A
    # non-finite A gets no allowance: its residual is not finite and fails anyway.
    allowance = 4.0 * 2.0**-53 * (c - 2) * peak_ladder
    return RelationReport(
        modes=n,
        cutoff=c,
        q=q,
        deviations=deviations,
        interior_size=(c - 1) ** n,
        allowances={"number_ladder_commutator": allowance if math.isfinite(allowance) else 0.0},
        seconds=seconds,
    )


def corrupted_annihilator(cfg: FockSpaceConfig, i: int) -> ShiftOperator:
    """Copy of ``annihilator(cfg, i)`` with one interior amplitude rescaled.

    Negative-control input for :func:`verify_algebra`: the first stored
    amplitude whose row and column both lie in the margin-2 interior is
    multiplied by ``1 + 1e-6``: entry 0, a_i's amplitude 1 from e_i to the
    vacuum, wherever the interior holds e_i (cutoff >= 3).  Feeding the result
    in place of the honest operator must trip exactly the relation families that
    constrain amplitude magnitudes, while the families whose cancellation
    is positional (creator ordering, last-mode contraction, number-operator
    commutators) stay clean — a check that the certification actually
    resolves individual matrix elements.
    """
    if cfg.cutoff < 3:
        raise ValueError("no interior amplitude available to corrupt; increase the cutoff")
    matrix = annihilator(cfg, i)
    matrix.data[0] *= 1.0 + 1e-6
    return matrix
