"""Tests for tensor words, q-symmetrization, and the exchange relations."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qmodes.cli import _count_vectors
from qmodes.qcore import DeformationParams, DomainError, q_factorial
from qmodes.qpoly import QPolynomial
from qmodes.qsym import (
    Word,
    _arrangements,
    bosonic_symmetrize,
    exchange_check,
    fundamental_norm,
    inversion_count,
    norm_identity_exact,
    q_symmetrize,
    sign_compare,
    transposition_op,
)
from qsym_oracle import (
    multiset_arrangements,
    reference_exchange_check,
    reference_transposition,
    reference_q_symmetrize,
    reference_tally,
    tensor_index,
)

Q_GRID = (0.3, 0.5, 0.9)


def words_up_to(n_modes: int, max_size: int):
    for size in range(1, max_size + 1):
        stack = [()]
        for _ in range(size):
            stack = [w + (l,) for w in stack for l in range(1, n_modes + 1)]
        for letters in stack:
            yield Word(letters, n_modes)


# ---------------------------------------------------------------------------
# words and combinatorics


def test_word_parsing_and_counts():
    word = Word.from_string("1,2,2,3")
    assert word.letters == (1, 2, 2, 3)
    assert word.n_modes == 3
    assert word.size == 4
    assert word.counts == (1, 2, 1)
    wide = Word.from_string("1,2", n_modes=5)
    assert wide.counts == (1, 1, 0, 0, 0)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((), 2)
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((1, 3), 2)
    with pytest.raises(ValueError):
        Word.from_string("1,two")


def test_swap_adjacent():
    word = Word((1, 2, 3), 3)
    assert word.swap_adjacent(1).letters == (2, 1, 3)
    assert word.swap_adjacent(2).letters == (1, 3, 2)
    with pytest.raises(ValueError):
        word.swap_adjacent(0)
    with pytest.raises(ValueError):
        word.swap_adjacent(3)


def test_inversion_count_values():
    assert inversion_count((1, 2, 3)) == 0
    assert inversion_count((3, 2, 1)) == 3
    assert inversion_count((2, 1, 2)) == 1
    assert inversion_count((2,)) == 0


@given(
    letters=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=7),
    k=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=80, deadline=None)
def test_adjacent_swap_changes_inversions_by_comparator(letters, k):
    k = k % (len(letters) - 1)
    swapped = list(letters)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    delta = inversion_count(swapped) - inversion_count(letters)
    assert delta == -sign_compare(letters[k], letters[k + 1])


def test_multiset_arrangements_are_lex_sorted_and_distinct():
    arrangements = list(multiset_arrangements((1, 2)))
    assert arrangements == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert list(multiset_arrangements((0, 0))) == []
    big = list(multiset_arrangements((2, 1, 1)))
    assert len(big) == math.factorial(4) // 2
    assert len(set(big)) == len(big)
    assert big == sorted(big)


def test_tensor_index_is_big_endian():
    assert tensor_index((1, 1), 3) == 0
    assert tensor_index((1, 2), 3) == 1
    assert tensor_index((2, 1), 3) == 3
    assert tensor_index((3, 3), 3) == 8
    with pytest.raises(ValueError):
        tensor_index((0, 1), 3)


# ---------------------------------------------------------------------------
# the arrangement kernel against the recursive reference enumeration

KERNEL_SHAPES = ((1,), (2,), (1, 1), (0, 3), (2, 0, 1), (0, 0, 2, 1), (1, 2, 0, 2), (1,) * 6)


@pytest.mark.parametrize("counts", KERNEL_SHAPES)
def test_kernel_rows_match_the_reference_enumeration(counts):
    index, inversions = _arrangements(counts)
    reference = list(multiset_arrangements(counts))
    assert index.tolist() == [tensor_index(u, len(counts)) for u in reference]
    assert inversions.tolist() == [inversion_count(u) for u in reference]


def test_kernel_gives_the_empty_arrangement_for_the_zero_shape():
    index, inversions = _arrangements((0, 0, 0))
    assert index.tolist() == [0]
    assert inversions.tolist() == [0]


def test_kernel_takes_multiplicities_past_the_int8_range():
    # one mode keeps every tensor index at 0, however long the word
    index, inversions = _arrangements((200,))
    assert index.tolist() == [0]
    assert inversions.tolist() == [0]
    assert q_symmetrize(Word((1,) * 200, 1), DeformationParams(0.9)).tolist() == [1.0]


def test_q_symmetrize_equals_the_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    for trial in range(240):
        n_modes = int(rng.integers(1, 5))
        size = int(rng.integers(1, 7))
        letters = tuple(int(v) for v in rng.integers(1, n_modes + 1, size=size))
        word = Word(letters, n_modes)
        params = DeformationParams(float(rng.uniform(0.05, 0.999)))
        assert np.array_equal(
            q_symmetrize(word, params), reference_q_symmetrize(word, params)
        ), (letters, n_modes, params.q)


@pytest.mark.parametrize("counts", KERNEL_SHAPES + ((0, 0), (3, 1, 2), (2, 2, 2)))
def test_norm_identity_tally_matches_the_reference(counts):
    arrangement_sum, _ = norm_identity_exact(counts)
    expected = {2 * inversions: n for inversions, n in reference_tally(counts).items()}
    assert arrangement_sum == QPolynomial(expected)


def test_cached_kernel_arrays_are_read_only():
    index, inversions = _arrangements((2, 1, 1))
    assert _arrangements((2, 1, 1))[0] is index
    for array in (index, inversions):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_kernel_memory_follows_the_class_not_the_tensor_space():
    # (3, 2, 2, 2) has 9! / (3! 2! 2! 2!) = 7560 rows out of 4^9 = 262144
    # words.  The last extension step holds about nine int64 arrays of one
    # entry per row (the row and letter of each extension, old and new tensor
    # indices and inversions, and their temporaries) plus a few rows of int8
    # letter counts: some 70 bytes a row, 0.5 MB.  A table over the whole
    # tensor space would need 2.1 MB for its int64 index alone.
    counts, rows = (3, 2, 2, 2), 7560
    tracemalloc.start()
    try:
        index, _ = _arrangements.__wrapped__(counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.size == rows
    assert peak < 100 * rows < 8 * 4**9


def test_kernel_holds_counts_past_the_narrowest_type():
    # int8 holds -128 but not 128: the count type must hold N itself
    for size in (127, 128, 200):
        index, inversions = _arrangements((size,))
        assert index.tolist() == [0] and inversions.tolist() == [0]


# ---------------------------------------------------------------------------
# q-symmetrized states


def test_two_letter_expansion_explicit():
    params = DeformationParams(0.5)
    vector = q_symmetrize(Word((1, 2), 2), params)
    scale = 1.0 / math.sqrt(1.25)  # sqrt([1]![1]!/[2]!) at q = 1/2
    expected = np.zeros(4)
    expected[tensor_index((1, 2), 2)] = scale
    expected[tensor_index((2, 1), 2)] = 0.5 * scale
    np.testing.assert_allclose(vector, expected, rtol=1e-15)


def test_descending_word_is_q_times_ascending():
    params = DeformationParams(0.5)
    ascending = q_symmetrize(Word((1, 2), 2), params)
    descending = q_symmetrize(Word((2, 1), 2), params)
    np.testing.assert_allclose(descending, 0.5 * ascending, rtol=1e-15)
    assert fundamental_norm(Word((2, 1), 2), params) == pytest.approx(0.25, rel=1e-13)


def test_sorted_words_have_unit_norm():
    for q in Q_GRID:
        params = DeformationParams(q)
        for letters in ((1,), (1, 1, 2), (1, 2, 3), (2, 2, 3, 3)):
            word = Word(letters, max(letters))
            assert fundamental_norm(word, params) == pytest.approx(1.0, rel=1e-12)


def test_norm_follows_inversion_law():
    for q in Q_GRID:
        params = DeformationParams(q)
        for word in words_up_to(3, 4):
            expected = q ** (2 * inversion_count(word.letters))
            assert fundamental_norm(word, params) == pytest.approx(expected, rel=1e-12)


def test_size_bounds_are_enforced():
    params = DeformationParams(0.5)
    # 2^30 and 10^9 entries: refused by prediction, before any vector exists
    with pytest.raises(DomainError, match="budget"):
        q_symmetrize(Word((1,) * 30, 2), params)
    with pytest.raises(DomainError, match="budget"):
        q_symmetrize(Word((1,), 10**9), params)
    with pytest.raises(DomainError, match="budget"):
        bosonic_symmetrize(Word((1,) * 30, 2))


# ---------------------------------------------------------------------------
# exchange relation and deformed transpositions


def word_row(word: Word) -> int:
    """Row of a word in the exchange kernel's results for its class."""
    index = _arrangements(word.counts)[0]
    return int(np.searchsorted(index, tensor_index(word.letters, word.n_modes)))


def test_exchange_relation_everywhere():
    for q in Q_GRID:
        params = DeformationParams(q)
        for size in range(1, 5):
            for counts in _count_vectors(3, size):
                _, residuals = exchange_check(counts, params)
                assert residuals.shape == (len(_arrangements(counts)[0]), size - 1)
                assert np.all(residuals < 1e-13), (counts, q, residuals.max())


def test_exchange_factor_orientation():
    params = DeformationParams(0.5)
    # ascending pair: swapping costs q^{-1}; descending: q^{+1}
    factors, _ = exchange_check((1, 1), params)  # rows (1, 2) and (2, 1)
    assert factors[word_row(Word((1, 2), 2)), 0] == pytest.approx(2.0)
    assert factors[word_row(Word((2, 1), 2)), 0] == pytest.approx(0.5)
    factors, residuals = exchange_check((0, 2), params)  # the one row (2, 2)
    assert factors[0, 0] == 1.0
    assert residuals[0, 0] == 0.0


def seeded_shapes(number: int, seed: int) -> list[tuple[int, ...]]:
    """Letter counts of random classes over 2 to 4 modes with N from 2 to 6."""
    rng = np.random.default_rng(seed)
    shapes = []
    for _ in range(number):
        n_modes, size = int(rng.integers(2, 5)), int(rng.integers(2, 7))
        shapes.append(tuple(int(c) for c in rng.multinomial(size, [1 / n_modes] * n_modes)))
    return shapes


# the empty class, fixed edge shapes, then seeded ones
EXCHANGE_SHAPES = [(0, 0), (3,), (1, 1), (0, 3), (2, 0, 1), (1, 2, 0, 2), (2, 2, 2), (1, 1, 1, 1)]
EXCHANGE_SHAPES += seeded_shapes(12, 2024)


@pytest.mark.parametrize("counts", EXCHANGE_SHAPES, ids=str)
def test_exchange_kernel_equals_the_per_word_reference(counts):
    n_modes = len(counts)
    for q in Q_GRID:
        params = DeformationParams(q)
        factors, residuals = exchange_check(counts, params)
        words = list(multiset_arrangements(counts)) if sum(counts) else []
        assert residuals.shape == (max(len(words), 1), max(sum(counts) - 1, 0))
        for row, letters in enumerate(words):
            for k in range(1, len(letters)):
                report = reference_exchange_check(Word(letters, n_modes), k, params)
                assert factors[row, k - 1] == report.factor, (letters, k, q)
                assert residuals[row, k - 1] == report.residual, (letters, k, q)
                if letters[k - 1] == letters[k]:
                    assert residuals[row, k - 1] == 0.0


def test_exchange_kernel_rejects_bad_classes():
    params = DeformationParams(0.5)
    with pytest.raises(ValueError):
        exchange_check((2, -1), params)
    # 1560 words, but 3^40 > 2^63 tensor indices: refused, not wrapped
    with pytest.raises(ValueError, match="int64"):
        exchange_check((38, 1, 1), params)
    _, residuals = exchange_check((61, 2), params)  # 2^63 indices still fit
    assert residuals.shape == (1953, 62)


def test_transposition_is_involution():
    for q in Q_GRID:
        params = DeformationParams(q)
        op = transposition_op(3, 3, 2, params).tocsr()
        square = (op @ op - sp.identity(27, format="csr")).tocsr()
        assert np.max(np.abs(square.data)) < 1e-15 if square.nnz else True


def test_transposition_tocsr_equals_the_scipy_built_reference():
    rng = np.random.default_rng(5)
    for size, n_modes in ((2, 3), (3, 3), (5, 2), (4, 4)):
        for k in range(1, size):
            for q in Q_GRID:
                params = DeformationParams(q)
                op = transposition_op(size, n_modes, k, params)
                matrix, reference = op.tocsr(), reference_transposition(size, n_modes, k, params)
                assert matrix.nnz == reference.nnz == n_modes**size
                np.testing.assert_array_equal(matrix.indptr, reference.indptr)
                np.testing.assert_array_equal(matrix.indices, reference.indices)
                assert matrix.data.tobytes() == reference.data.tobytes()
                vector = rng.standard_normal(n_modes**size)
                assert (op @ vector).tobytes() == (reference @ vector).tobytes()


def test_symmetrized_states_are_transposition_fixed_points():
    for q in Q_GRID:
        params = DeformationParams(q)
        for word in words_up_to(3, 4):
            vector = q_symmetrize(word, params)
            for k in range(1, word.size):
                op = transposition_op(word.size, word.n_modes, k, params)
                assert np.max(np.abs(op @ vector - vector)) < 1e-13


def test_transposition_bounds():
    params = DeformationParams(0.5)
    with pytest.raises(ValueError):
        transposition_op(0, 2, 1, params)
    with pytest.raises(ValueError):
        transposition_op(3, 2, 3, params)
    with pytest.raises(DomainError, match="budget"):
        transposition_op(30, 2, 1, params)


@given(
    letters=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6),
    k=st.integers(min_value=0, max_value=4),
    q=st.sampled_from(Q_GRID),
)
@settings(max_examples=60, deadline=None)
def test_exchange_property(letters, k, q):
    word = Word(tuple(letters), 4)
    position = 1 + k % (word.size - 1)
    _, residuals = exchange_check(word.counts, DeformationParams(q))
    assert residuals[word_row(word), position - 1] < 1e-12


# ---------------------------------------------------------------------------
# exact norm identity and the classical limit


def test_norm_identity_exact_agreement():
    for counts in ((1,), (1, 1), (2, 1), (2, 2), (3, 1, 2), (1, 1, 1, 1)):
        arrangement_sum, multinomial = norm_identity_exact(counts)
        assert arrangement_sum == multinomial


def test_norm_identity_exact_value():
    arrangement_sum, _ = norm_identity_exact((1, 1))
    assert arrangement_sum.evaluate(Fraction(1, 2)) == Fraction(5, 4)  # [2] at q=1/2


def test_norm_identity_exact_bounds():
    with pytest.raises(ValueError):
        norm_identity_exact(())
    with pytest.raises(ValueError):
        norm_identity_exact((-1, 2))
    with pytest.raises(DomainError, match="budget"):
        norm_identity_exact((15, 15))
    with pytest.raises(DomainError, match="budget"):
        norm_identity_exact((1,) * 12)


def test_bosonic_symmetrize_is_uniform_unit_vector():
    vector = bosonic_symmetrize(Word((1, 2, 2), 2))
    support = vector[vector != 0]
    assert len(support) == 3
    np.testing.assert_allclose(support, support[0])
    assert np.linalg.norm(vector) == pytest.approx(1.0)


def test_weak_deformation_approaches_bosonic_states():
    params = DeformationParams(0.999)
    for letters in ((2, 1), (1, 3, 2), (2, 2, 1, 3), (3, 1, 2, 1)):
        word = Word(letters, 3)
        deformed = q_symmetrize(word, params)
        deformed = deformed / np.linalg.norm(deformed)
        overlap = float(deformed @ bosonic_symmetrize(word))
        assert overlap > 0.99
        # the gap closes linearly in 1 - q^2
        assert 1.0 - overlap < 50.0 * (1.0 - params.q_sq)


def test_fundamental_norm_matches_exact_ratio():
    # norm^2 = q^{2R} holds because the arrangement sum cancels the
    # multinomial prefactor; spot-check that cancellation numerically
    params = DeformationParams(0.7)
    word = Word((3, 1, 2, 2), 3)
    prefactor = 1.0
    for c in word.counts:
        prefactor *= q_factorial(params, c)
    prefactor /= q_factorial(params, word.size)
    arrangement_sum, _ = norm_identity_exact(word.counts)
    total = prefactor * float(arrangement_sum.evaluate(params.q))
    assert total == pytest.approx(1.0, rel=1e-12)
    assert fundamental_norm(word, params) == pytest.approx(
        params.q ** (2 * inversion_count(word.letters)), rel=1e-12
    )
