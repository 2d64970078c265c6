"""Tests for the truncated Fock representation and relation certification."""

import math
import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qmodes.fock import (
    RELATION_FAMILIES,
    FockSpaceConfig,
    ShiftOperator,
    annihilator,
    build_state,
    coordinate_text,
    corrupted_annihilator,
    creator,
    decode_occupation,
    encode_occupation,
    interior_indices,
    number_op,
    occupation_table,
    scale_op,
    verify_algebra,
)
from qmodes.qcore import DeformationParams, DomainError, q_number

from fock_oracle import reference_operator, reference_verify_algebra


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
    for index in range(cfg.dimension):
        occupation = decode_occupation(cfg, index)
        assert encode_occupation(cfg, occupation) == index
    table = occupation_table(cfg)
    assert table.shape == (27, 3)
    np.testing.assert_array_equal(table[5], decode_occupation(cfg, 5))


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
    with pytest.raises(ValueError):
        decode_occupation(cfg, cfg.dimension)


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
    assert decode_occupation(cfg, encode_occupation(cfg, occupation)) == occupation


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
        assert np.linalg.norm(annihilator(cfg, i) @ vacuum) == 0.0


def test_top_rung_truncates_to_zero():
    cfg = cfg_for(modes=1, cutoff=4)
    top = encode_occupation(cfg, (3,))
    assert creator(cfg, 1).tocsr()[:, top].nnz == 0


def test_creator_is_adjoint_of_annihilator():
    cfg = cfg_for(q=0.9, modes=2, cutoff=5)
    for i in (1, 2):
        delta = (annihilator(cfg, i).tocsr().conj().T - creator(cfg, i).tocsr()).tocsr()
        assert delta.nnz == 0 or np.max(np.abs(delta.data)) == 0.0


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


def test_build_state_reproduces_basis_vectors():
    cfg = cfg_for(q=0.5, modes=2, cutoff=4)
    for occupation in ((0, 0), (2, 1), (3, 3), (0, 2)):
        vector = build_state(cfg, occupation)
        expected = np.zeros(cfg.dimension)
        expected[encode_occupation(cfg, occupation)] = 1.0
        np.testing.assert_allclose(vector, expected, atol=1e-12)


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
    report = verify_algebra(cfg, tol=1e-12)
    assert report.passed
    assert report.failing() == []
    assert set(report.deviations) == set(RELATION_FAMILIES)
    assert report.interior_size == 3**modes
    assert max(report.deviations.values()) < 1e-13


def test_only_the_number_ladder_commutator_gets_a_rounding_allowance():
    params = DeformationParams(0.2)
    cfg = FockSpaceConfig(1, 10000, params)
    report = verify_algebra(cfg, tol=1e-12)
    n_max = cfg.cutoff - 2
    # the largest gathered amplitude is sqrt([n_max]), from a at n_max and a^dag at n_max - 1
    allowance = 4 * 2.0**-53 * n_max * math.sqrt(q_number(params, n_max))
    assert report.threshold("number_ladder_commutator") == pytest.approx(1e-12 + allowance)
    for name in RELATION_FAMILIES:
        if name != "number_ladder_commutator":
            assert report.threshold(name) == 1e-12
    # honest operators: the deviation passes --tol alone, but not the stated allowance
    assert 1e-12 < report.deviations["number_ladder_commutator"] < allowance
    assert report.passed and report.failing() == []


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
    report = verify_algebra(cfg, tol=1e-12, annihilators=lowers)
    assert not report.passed
    assert report.failing() == [
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


def _oracle_cases():
    rng = random.Random(20260)
    return [
        (modes, cutoff, round(rng.uniform(0.05, 0.98), 6))
        for modes in (1, 2, 3, 4)
        for cutoff in range(3, 9)
    ]


@pytest.mark.parametrize("modes,cutoff,q", _oracle_cases())
def test_kernel_deviations_equal_the_sparse_product_reference(modes, cutoff, q):
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
    assert verify_algebra(cfg).deviations == reference_verify_algebra(cfg).deviations
    lowers = [corrupted_annihilator(cfg, 1)] + [annihilator(cfg, i) for i in range(2, modes + 1)]
    report = verify_algebra(cfg, annihilators=lowers)
    reference = reference_verify_algebra(cfg, annihilators=lowers)
    assert report.deviations == reference.deviations
    assert report.failing() == reference.failing()


def test_a_nan_amplitude_fails_the_families_it_reaches():
    cfg = cfg_for(q=0.5, modes=2, cutoff=5)
    poisoned = annihilator(cfg, 1)
    poisoned.data[0] = np.nan  # a_1 from (1, 0) to (0, 0), inside the interior
    report = verify_algebra(cfg, annihilators=[poisoned, annihilator(cfg, 2)])
    assert not report.passed
    poisoned_families = sorted(name for name, d in report.deviations.items() if math.isnan(d))
    assert "normal_product_diagonal" in poisoned_families
    assert report.failing() == poisoned_families


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


def test_operators_are_real_float64():
    cfg = cfg_for(q=0.7, modes=3, cutoff=4)
    for build in (annihilator, creator, number_op, scale_op):
        for i in (1, 2, 3):
            assert build(cfg, i).dtype == np.float64
    assert corrupted_annihilator(cfg, 1).dtype == np.float64


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
    "modes,cutoff,q", [(1, 3, 0.5), (2, 6, 0.9), (3, 5, 0.3), (4, 4, 0.7), (2, 300, 0.05), (1, 800, 0.2)]
)
def test_tocsr_equals_the_scipy_built_reference_entry_for_entry(modes, cutoff, q):
    cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
    for kind, build in BUILDERS.items():
        for i in range(1, modes + 1):
            op = build(cfg, i)
            assert isinstance(op, ShiftOperator) and op.dtype == np.float64
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


def _vectors(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    real = rng.standard_normal(dim)
    real[::7] = -5e-324  # the least subnormal: products below 1 in size round to -0.0
    real[1::7] = -0.0
    return [real, real + 1j * rng.standard_normal(dim), -real - 1j * real]


def test_applying_an_operator_equals_the_scipy_product_bit_for_bit():
    rng = np.random.default_rng(8)
    for modes, cutoff, q in ((2, 6, 0.9), (3, 5, 0.3), (2, 300, 0.05)):
        cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
        for build in BUILDERS.values():
            for i in range(1, modes + 1):
                op = build(cfg, i)
                matrix = op.tocsr()
                for vector in _vectors(cfg.dimension, rng):
                    product = op @ vector
                    assert product.dtype == (matrix @ vector).dtype
                    assert product.tobytes() == (matrix @ vector).tobytes()


def test_a_shift_operator_stores_at_most_one_entry_per_row_and_column():
    indptr = np.array([0, 1, 2, 2])
    ShiftOperator(np.ones(2), np.array([1, 2]), indptr, (3, 3))
    with pytest.raises(ValueError, match="one entry"):
        ShiftOperator(np.ones(2), np.array([1, 1]), indptr, (3, 3))  # column 1 twice
    with pytest.raises(ValueError, match="one entry"):
        ShiftOperator(np.ones(2), np.array([0, 1]), np.array([0, 2, 2, 2]), (3, 3))  # row 0 twice
    with pytest.raises(ValueError, match="one entry"):
        ShiftOperator(np.ones(2), np.array([1, 3]), indptr, (3, 3))  # column out of range
    op = annihilator(cfg_for(modes=1, cutoff=3), 1)
    with pytest.raises(TypeError):
        op @ op  # operator products go through tocsr()
    with pytest.raises(ValueError, match="cannot apply"):
        op @ np.ones(4)


def test_kernel_deviations_equal_the_reference_where_powers_underflow():
    for modes, cutoff, q in ((2, 200, 0.2), (1, 2000, 0.05)):
        cfg = FockSpaceConfig(modes, cutoff, DeformationParams(q))
        assert verify_algebra(cfg).deviations == reference_verify_algebra(cfg).deviations


# ---------------------------------------------------------------------------
# text export


def test_coordinate_text_matrix_form():
    cfg = cfg_for(modes=1, cutoff=3)
    text = coordinate_text(annihilator(cfg, 1))
    lines = text.strip().split("\n")
    assert lines[0].split() == ["0", "1", "1", "0"]
    rows_cols = [tuple(map(int, line.split()[:2])) for line in lines]
    assert rows_cols == sorted(rows_cols)


def test_coordinate_text_vector_form():
    vector = np.array([0.0, 0.5, 0.0])
    text = coordinate_text(vector)
    assert text == "1 0 0.5 0\n"
    with pytest.raises(ValueError):
        coordinate_text(np.zeros((2, 2)))


def test_coordinate_text_round_trips_doubles():
    cfg = cfg_for(q=0.9, modes=2, cutoff=3)
    matrix = annihilator(cfg, 1).tocsr().tocoo()
    text = coordinate_text(matrix)
    parsed = {}
    for line in text.strip().split("\n"):
        r, c, re_part, im_part = line.split()
        parsed[(int(r), int(c))] = complex(float(re_part), float(im_part))
    for r, c, v in zip(matrix.row, matrix.col, matrix.data):
        assert parsed[(int(r), int(c))] == v
