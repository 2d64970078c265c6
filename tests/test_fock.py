"""Tests for the truncated Fock representation and relation certification."""

import gc
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodes import fock, qcore
from qmodes.fock import (
    RELATION_FAMILIES,
    FockSpaceConfig,
    RelationReport,
    ShiftOperator,
    annihilator,
    corrupted_annihilator,
    creator,
    encode_occupation,
    interior_indices,
    number_op,
    occupation_table,
    scale_op,
    verify_algebra,
)
from qmodes.qcore import DeformationParams, DomainError, passes, q_number

from fock_oracle import failing_families, reference_operator, reference_verify_algebra


def cfg_for(q: float = 0.5, modes: int = 2, cutoff: int = 4) -> FockSpaceConfig:
    return FockSpaceConfig(modes, cutoff, DeformationParams(q))


# ---------------------------------------------------------------------------
# configuration and indexing


def test_config_guards():
    params = DeformationParams(0.5)
    with pytest.raises(ValueError):
        FockSpaceConfig(0, 4, params)
    with pytest.raises(ValueError):
        FockSpaceConfig(2, 0, params)
    with pytest.raises(DomainError, match="budget"):
        FockSpaceConfig(9, 10, params)  # 10^9 states, far over the byte budget
    assert cfg_for(modes=3, cutoff=4).dimension == 64


def test_encode_decode_round_trip_everywhere():
    cfg = cfg_for(modes=3, cutoff=3)
    table = occupation_table(cfg)
    assert table.shape == (27, 3)
    for index in range(cfg.dimension):
        assert encode_occupation(cfg, table[index]) == index


def test_mode_one_is_most_significant():
    cfg = cfg_for(modes=2, cutoff=4)
    assert encode_occupation(cfg, (1, 0)) == 4
    assert encode_occupation(cfg, (0, 1)) == 1


def test_encode_bounds():
    cfg = cfg_for()
    with pytest.raises(ValueError):
        encode_occupation(cfg, (0,))
    with pytest.raises(ValueError):
        encode_occupation(cfg, (0, 4))


def test_occupation_table_is_read_only():
    table = occupation_table(cfg_for())
    with pytest.raises(ValueError):
        table[0, 0] = 7


@given(
    modes=st.integers(min_value=1, max_value=3),
    cutoff=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_encode_decode_property(modes, cutoff, data):
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(0.5))
    occupation = tuple(
        data.draw(st.integers(min_value=0, max_value=cutoff - 1)) for _ in range(modes)
    )
    assert tuple(occupation_table(cfg)[encode_occupation(cfg, occupation)]) == occupation


# ---------------------------------------------------------------------------
# ladder operator actions on basis states


def test_creator_amplitude_with_twist():
    # raising mode 1 out of |0,1> passes one quantum in mode 2: factor q
    cfg = cfg_for(q=0.5, modes=2, cutoff=4)
    raise_1 = creator(cfg, 1).tocsr()
    source = encode_occupation(cfg, (0, 1))
    target = encode_occupation(cfg, (1, 1))
    column = raise_1[:, source].toarray().ravel()
    assert column[target] == pytest.approx(0.5, rel=1e-15)
    assert np.count_nonzero(column) == 1


def test_annihilator_amplitudes():
    cfg = cfg_for(q=0.5, modes=2, cutoff=4)
    lower_1 = annihilator(cfg, 1).tocsr()
    lower_2 = annihilator(cfg, 2).tocsr()
    # a_2 |1,1> = sqrt([1]) |1,0> with empty suffix: amplitude exactly 1
    src = encode_occupation(cfg, (1, 1))
    assert lower_2[encode_occupation(cfg, (1, 0)), src] == pytest.approx(1.0)
    # a_1 |1,1> = q sqrt([1]) |0,1>
    assert lower_1[encode_occupation(cfg, (0, 1)), src] == pytest.approx(0.5)
    # a_1 |2,0> = sqrt([2]) |1,0>
    src = encode_occupation(cfg, (2, 0))
    params = cfg.params
    assert lower_1[encode_occupation(cfg, (1, 0)), src] == pytest.approx(
        math.sqrt(q_number(params, 2))
    )


def test_vacuum_is_annihilated():
    cfg = cfg_for(modes=3, cutoff=3)
    vacuum = np.zeros(cfg.dimension)
    vacuum[0] = 1.0
    for i in (1, 2, 3):
        assert np.linalg.norm(annihilator(cfg, i).tocsr() @ vacuum) == 0.0


def test_top_rung_truncates_to_zero():
    cfg = cfg_for(modes=1, cutoff=4)
    top = encode_occupation(cfg, (3,))
    assert creator(cfg, 1).tocsr()[:, top].nnz == 0


def test_creator_is_adjoint_of_annihilator():
    cfg = cfg_for(q=0.9, modes=2, cutoff=5)
    for i in (1, 2):
        delta = (annihilator(cfg, i).tocsr().conj().T - creator(cfg, i).tocsr()).tocsr()
        assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0


def test_the_ladder_grids_read_qcore_s_bracket_table(monkeypatch):
    # scale qcore's brackets by (1 + 2^-30) from [2] on: every amplitude that reads [k], k >= 2,
    # moves by its square root, and no other does, so fock forms no bracket of its own.  The
    # name fock reads them by is qcore's routine itself, which derives them from its power table.
    assert fock._bracket_array is qcore._bracket_array
    cfg = cfg_for(q=0.5, modes=2, cutoff=6)
    kernels = {fock._annihilator_grid: 0, fock._creator_grid: 1}  # [n_i + shift] at each column
    honest = {(kernel, i): kernel(cfg, i) for kernel in kernels for i in (1, 2)}
    brackets = qcore._bracket_array

    def scaled(params, size, first=0):
        values = brackets(params, size, first)
        values[max(0, 2 - first) :] *= 1.0 + 2.0**-30
        return values

    monkeypatch.setattr(fock, "_bracket_array", scaled)
    for (kernel, i), grid in honest.items():
        moved = kernel(cfg, i)
        rung = occupation_table(cfg)[:, i - 1].reshape(grid.shape) + kernels[kernel]
        ratio = np.divide(moved, grid, out=np.ones_like(grid), where=grid != 0)
        assert np.all(ratio[rung < 2] == 1.0)
        assert np.all(np.abs(ratio[(rung >= 2) & (grid != 0)] - math.sqrt(1.0 + 2.0**-30)) < 1e-15)


def test_mode_index_bounds():
    cfg = cfg_for()
    for op in (annihilator, creator, number_op, scale_op):
        with pytest.raises(ValueError):
            op(cfg, 0)
        with pytest.raises(ValueError):
            op(cfg, 3)


def test_diagonal_operators():
    cfg = cfg_for(q=0.5, modes=2, cutoff=3)
    occ = occupation_table(cfg)
    n_2 = number_op(cfg, 2).tocsr().diagonal().real
    np.testing.assert_allclose(n_2, occ[:, 1])
    q_1 = scale_op(cfg, 1).tocsr().diagonal().real
    np.testing.assert_allclose(q_1, 0.25 ** occ[:, 0])


# ---------------------------------------------------------------------------
# relation certification


def test_interior_indices_margin():
    cfg = cfg_for(modes=2, cutoff=4)
    interior = interior_indices(cfg)
    occ = occupation_table(cfg)
    assert len(interior) == 9  # occupations 0..2 in each of two modes
    assert (occ[interior] <= 2).all()


@pytest.mark.parametrize("modes", [1, 2, 3])
@pytest.mark.parametrize("q", [0.3, 0.9])
def test_verify_algebra_passes_on_honest_operators(modes, q):
    cfg = FockSpaceConfig(modes, 4, DeformationParams(q))
    report = verify_algebra(cfg)
    assert failing_families(report, 1e-12) == []
    assert set(report.deviations) == set(RELATION_FAMILIES)
    assert report.interior_size == 3**modes
    assert max(report.deviations.values()) < 1e-13


def test_only_the_number_ladder_commutator_gets_a_rounding_allowance():
    params = DeformationParams(0.2)
    cfg = FockSpaceConfig(1, 10000, params)
    report = verify_algebra(cfg)
    n_max = cfg.cutoff - 2
    # the largest gathered amplitude is sqrt([n_max]), from a at n_max and a^dag at n_max - 1
    allowance = 4 * 2.0**-53 * n_max * math.sqrt(q_number(params, n_max))
    assert report.allowances == {"number_ladder_commutator": pytest.approx(allowance)}
    # honest operators: the deviation does not pass --tol alone, but passes with the allowance
    deviation = report.deviations["number_ladder_commutator"]
    assert 1e-12 < deviation < allowance
    assert not passes(deviation, 1e-12) and passes(deviation, 1e-12, report.allowances["number_ladder_commutator"])
    assert failing_families(report, 1e-12) == []


def test_verify_algebra_needs_margin():
    with pytest.raises(ValueError):
        verify_algebra(cfg_for(cutoff=2))


def test_verify_algebra_rejects_wrong_override_count():
    cfg = cfg_for(modes=2)
    with pytest.raises(ValueError):
        verify_algebra(cfg, annihilators=[annihilator(cfg, 1)])


def test_corruption_is_detected_by_exactly_the_amplitude_sensitive_families():
    cfg = cfg_for(q=0.5, modes=2, cutoff=5)
    lowers = [corrupted_annihilator(cfg, 1), annihilator(cfg, 2)]
    report = verify_algebra(cfg, annihilators=lowers)
    assert failing_families(report, 1e-12) == [
        "annihilator_annihilator_swap",
        "annihilator_creator_swap",
        "ladder_commutator_scale_product",
        "mode_contraction",
        "normal_product_diagonal",
    ]
    # the structural families never feel a magnitude-only corruption
    for name in (
        "creator_creator_swap",
        "last_mode_contraction",
        "number_ladder_commutator",
    ):
        assert report.deviations[name] < 1e-13


def test_corrupted_annihilator_differs_in_one_entry():
    cfg = cfg_for(modes=2, cutoff=5)
    delta = (corrupted_annihilator(cfg, 1).tocsr() - annihilator(cfg, 1).tocsr()).tocsr()
    delta.eliminate_zeros()
    assert delta.nnz == 1


def test_corruption_needs_interior_support():
    cfg = cfg_for(modes=1, cutoff=2)
    with pytest.raises(ValueError):
        corrupted_annihilator(cfg, 1)


def test_the_corrupted_entry_is_the_first_with_row_and_column_in_the_interior():
    # the interior search by occupation table, against the entry the corruption scales
    for q in (0.05, 0.5, 0.95):
        for modes in range(1, 6):
            for cutoff in range(3, 9):
                cfg = cfg_for(q=q, modes=modes, cutoff=cutoff)
                inside = np.zeros(cfg.dimension, dtype=bool)
                inside[interior_indices(cfg)] = True
                for i in range(1, modes + 1):
                    honest = annihilator(cfg, i)
                    first = np.flatnonzero(inside[honest.rows()] & inside[honest.indices])[0]
                    expected = honest.data.copy()
                    expected[first] *= 1.0 + 1e-6
                    corrupted = corrupted_annihilator(cfg, i)
                    assert corrupted.data.tobytes() == expected.tobytes(), (q, modes, cutoff, i)
                    assert np.array_equal(corrupted.indices, honest.indices)
                    assert np.array_equal(corrupted.indptr, honest.indptr)


def _oracle_cases():
    rng = random.Random(20260)
    cases = [
        (modes, cutoff, round(rng.uniform(0.05, 0.98), 6))
        for modes in (1, 2, 3, 4)
        for cutoff in range(3, 9)
    ]
    # past 4 modes the interior box narrows and moves along more axes than any pair
    cases += [
        (modes, cutoff, round(rng.uniform(0.05, 0.98), 6))
        for modes, top in ((5, 5), (6, 4), (7, 3))
        for cutoff in range(3, top + 1)
    ]
    return cases


@pytest.mark.parametrize("modes,cutoff,q", _oracle_cases())
def test_kernel_deviations_equal_the_sparse_product_reference(modes, cutoff, q):
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
    assert verify_algebra(cfg).deviations == reference_verify_algebra(cfg).deviations
    lowers = [corrupted_annihilator(cfg, 1)] + [annihilator(cfg, i) for i in range(2, modes + 1)]
    report = verify_algebra(cfg, annihilators=lowers)
    reference = reference_verify_algebra(cfg, annihilators=lowers)
    assert report.deviations == reference.deviations
    assert failing_families(report, 1e-12) == failing_families(reference, 1e-12)


# the families whose deviation is not finite once one interior amplitude of an annihilator
# is not: those that read the annihilators, and last_mode_contraction when it is a_2's
_ANNIHILATOR_FAMILIES = [
    "annihilator_annihilator_swap",
    "annihilator_creator_swap",
    "ladder_commutator_scale_product",
    "mode_contraction",
    "normal_product_diagonal",
    "number_ladder_commutator",
]
_NON_FINITE_FAMILIES = {1: _ANNIHILATOR_FAMILIES, 2: sorted(_ANNIHILATOR_FAMILIES + ["last_mode_contraction"])}


def test_a_nan_amplitude_fails_the_families_it_reaches():
    cfg = cfg_for(q=0.5, modes=2, cutoff=5)
    for mode in (1, 2):
        for value in (np.nan, np.inf):
            lowers = [annihilator(cfg, 1), annihilator(cfg, 2)]
            # a_1 from (1, 0) to (0, 0), or a_2 from (0, 1) to (0, 0): inside the interior
            lowers[mode - 1].data[0] = value
            with np.errstate(invalid="ignore"):  # 0 * inf, inf - inf
                report = verify_algebra(cfg, annihilators=lowers)
            poisoned_families = sorted(name for name, d in report.deviations.items() if not math.isfinite(d))
            assert poisoned_families == _NON_FINITE_FAMILIES[mode], (mode, value)
            assert failing_families(report, 1e-12) == poisoned_families, (mode, value)


def test_an_override_with_an_entry_off_its_shift_diagonal_is_refused():
    cfg = cfg_for(q=0.5, modes=2, cutoff=4)
    stray = annihilator(cfg, 1).tocsr().tolil()
    stray[0, 1] = 0.25  # a mode-2 lowering entry inside the mode-1 annihilator
    with pytest.raises(ValueError, match="off its real shift"):
        verify_algebra(cfg, annihilators=[stray.tocsr(), annihilator(cfg, 2)])
    wrapped = creator(cfg, 2).tocsr().tolil()
    wrapped[4, 3] = 0.25  # on the diagonal of a_2^dag, but (0, 3) has no rung above it
    with pytest.raises(ValueError, match="off its real shift"):
        verify_algebra(cfg, creators=[creator(cfg, 1), wrapped.tocsr()])
    complex_lower = annihilator(cfg, 2).tocsr().astype(np.complex128)
    complex_lower.data[0] += 1e-3j
    with pytest.raises(ValueError, match="off its real shift"):
        verify_algebra(cfg, annihilators=[annihilator(cfg, 1), complex_lower])
    # a middle mode: these rows obey row == col + step * stride_2, so only the landing check
    # can catch them
    cfg = cfg_for(q=0.5, modes=3, cutoff=4)
    stride = cfg.cutoff ** (cfg.modes - 2)  # stride_2
    lowers = [annihilator(cfg, i).tocsr() for i in (1, 2, 3)]
    col = encode_occupation(cfg, (1, 0, 2))  # n_2 = 0: a_2 has no rung below it
    lowers[1] = lowers[1].tolil()
    lowers[1][col - stride, col] = 0.25  # lands on (0, 3, 2)
    with pytest.raises(ValueError, match="off its real shift"):
        verify_algebra(cfg, annihilators=[m.tocsr() for m in lowers])
    raises = [creator(cfg, i).tocsr() for i in (1, 2, 3)]
    col = encode_occupation(cfg, (1, 3, 2))  # n_2 = cutoff - 1: a_2^dag has no rung above it
    raises[1] = raises[1].tolil()
    raises[1][col + stride, col] = 0.25  # lands on (2, 0, 2)
    with pytest.raises(ValueError, match="off its real shift"):
        verify_algebra(cfg, creators=[m.tocsr() for m in raises])


def test_operators_are_real_float64():
    cfg = cfg_for(q=0.7, modes=3, cutoff=4)
    for build in (annihilator, creator, number_op, scale_op):
        for i in (1, 2, 3):
            assert build(cfg, i).data.dtype == np.float64
    assert corrupted_annihilator(cfg, 1).data.dtype == np.float64


# ---------------------------------------------------------------------------
# the weighted-shift operator type

BUILDERS = {
    "annihilator": annihilator,
    "creator": creator,
    "number_op": number_op,
    "scale_op": scale_op,
}


def _same_csr(matrix, reference) -> None:
    assert matrix.shape == reference.shape and matrix.nnz == reference.nnz
    np.testing.assert_array_equal(matrix.indptr, reference.indptr)
    np.testing.assert_array_equal(matrix.indices, reference.indices)
    assert matrix.data.tobytes() == reference.data.tobytes()


@pytest.mark.parametrize(
    "modes,cutoff,q",
    [(1, 3, 0.5), (2, 6, 0.9), (3, 5, 0.3), (4, 4, 0.7), (2, 300, 0.05), (1, 800, 0.2)]
    + [(5, 3, 0.6), (5, 4, 0.35), (5, 5, 0.8), (6, 3, 0.45), (6, 4, 0.9), (7, 3, 0.25)],
)
def test_tocsr_equals_the_scipy_built_reference_entry_for_entry(modes, cutoff, q):
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
    for kind, build in BUILDERS.items():
        for i in range(1, modes + 1):
            op = build(cfg, i)
            assert isinstance(op, ShiftOperator) and op.data.dtype == np.float64
            matrix, reference = op.tocsr(), reference_operator(cfg, kind, i)
            _same_csr(matrix, reference)
            assert (op.nnz, op.data.nbytes) == (reference.nnz, reference.data.nbytes)
            assert op.indices.nbytes + op.indptr.nbytes == reference.indices.nbytes + reference.indptr.nbytes


def test_amplitudes_that_underflow_are_dropped_as_eliminate_zeros_drops_them():
    cfg = FockSpaceConfig(2, 300, DeformationParams(0.05))  # 0.05^299 underflows
    lower = annihilator(cfg, 1)
    assert lower.nnz < 299 * 300
    assert np.all(lower.data != 0)
    scale = scale_op(cfg, 2)  # 0.0025^m underflows past m ~ 120
    assert scale.nnz < cfg.dimension and np.all(scale.data != 0)
    _same_csr(scale.tocsr(), reference_operator(cfg, "scale_op", 2))


def test_a_shift_operator_stores_at_most_one_entry_per_row_and_column():
    indptr = np.array([0, 1, 2, 2])
    ShiftOperator(np.ones(2), np.array([1, 2]), indptr, (3, 3))
    with pytest.raises(ValueError, match="one entry"):
        ShiftOperator(np.ones(2), np.array([1, 1]), indptr, (3, 3))  # column 1 twice
    with pytest.raises(ValueError, match="one entry"):
        ShiftOperator(np.ones(2), np.array([0, 1]), np.array([0, 2, 2, 2]), (3, 3))  # row 0 twice
    with pytest.raises(ValueError, match="one entry"):
        ShiftOperator(np.ones(2), np.array([1, 3]), indptr, (3, 3))  # column out of range


@pytest.mark.parametrize(
    "modes,cutoff",
    [(2, 120), (3, 30), (4, 16), (4, 20), (5, 9), (6, 6), (6, 7), (2, 1000), (8, 5), (1, 131073)],
)
def test_verify_algebra_peaks_within_the_config_estimate(modes, cutoff, monkeypatch):
    # FockSpaceConfig admits or refuses a request on the bytes it hands check_budget.  The
    # power tables are built cold: at one mode and a cutoff just past 64 * 2^j the table of
    # q^2 holds nearly 2 entries per state
    estimates = []
    monkeypatch.setattr(fock, "check_budget", lambda request, nbytes, work: estimates.append(nbytes))
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(0.5))
    tracemalloc.start()
    try:
        verify_algebra(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.3 * estimates[0] <= peak <= estimates[0]


def test_verify_algebra_s_power_tables_go_with_its_params():
    # the 100_000 powers of q^2 (800 kB) it builds are held on its params, and go with them
    verify_algebra(FockSpaceConfig(1, 10, DeformationParams(0.5)))  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verify_algebra(FockSpaceConfig(1, 100_000, DeformationParams(0.5)))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.1e6


def test_kernel_deviations_equal_the_reference_where_powers_underflow():
    for modes, cutoff, q in ((2, 200, 0.2), (1, 2000, 0.05)):
        cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
        assert verify_algebra(cfg).deviations == reference_verify_algebra(cfg).deviations


# modes 1 to 8 at small cutoffs, and one large cutoff, where q = 0.05 underflows the
# products of two amplitudes (and, at cutoff 300, the amplitudes themselves)
_ROUTE_SHAPES = [(1, 5), (2, 6), (3, 5), (4, 4), (5, 4), (6, 3), (7, 3), (8, 3), (2, 120)]


def _bits(report) -> tuple[dict, dict]:
    return (
        {name: float(d).hex() for name, d in report.deviations.items()},
        {name: float(a).hex() for name, a in report.allowances.items()},
    )


@pytest.mark.parametrize("q", [0.05, 0.5, 0.999])
@pytest.mark.parametrize("modes,cutoff", _ROUTE_SHAPES)
def test_the_default_route_equals_the_override_route(modes, cutoff, q):
    # by default verify_algebra lays each operator on the grid by its kernel; an override is
    # read back from its CSR triple, so the packed operators must give the same report
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
    lowers = [annihilator(cfg, i) for i in range(1, modes + 1)]
    raises = [creator(cfg, i) for i in range(1, modes + 1)]
    default = _bits(verify_algebra(cfg))
    assert _bits(verify_algebra(cfg, annihilators=lowers, creators=raises)) == default
    csr = [op.tocsr() for op in lowers], [op.tocsr() for op in raises]
    assert _bits(verify_algebra(cfg, annihilators=csr[0], creators=csr[1])) == default


@pytest.mark.parametrize("q", [0.05, 0.5, 0.999])
@pytest.mark.parametrize("modes,cutoff", _ROUTE_SHAPES + [(2, 300)])
def test_each_grid_kernel_is_the_amplitude_grid_of_its_packed_operator(modes, cutoff, q):
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
    kernels = (
        (fock._annihilator_grid, annihilator, -1),
        (fock._creator_grid, creator, +1),
        (fock._number_grid, number_op, 0),
    )
    for grid, build, step in kernels:
        for i in range(1, modes + 1):
            assert np.array_equal(grid(cfg, i), fock._shift_amplitudes(cfg, build(cfg, i), i, step))


def test_the_number_grid_is_a_view_with_no_copy():
    grid = fock._number_grid(cfg_for(modes=3, cutoff=40), 2)
    assert grid.shape == (40, 40, 40) and not grid.flags.writeable
    assert grid.base is not None and grid.base.size == 40


def test_each_family_reports_the_time_it_took():
    report = verify_algebra(cfg_for(modes=3, cutoff=8))
    assert list(report.seconds) == list(RELATION_FAMILIES)
    assert all(s >= 0.0 for s in report.seconds.values())
    assert RelationReport(1, 3, 0.5, {}, 4).seconds == {}  # the field may be left out
