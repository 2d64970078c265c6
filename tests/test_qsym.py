"""Tests for tensor words, q-symmetrization, and the exchange relations."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qmodes.qcore import DeformationParams, DomainError, q_factorial
from qmodes import qsym
from qmodes.qpoly import QPolynomial
from qmodes.qsym import (
    ArrangementClass,
    Word,
    _class_cost,
    _class_size,
    _batch_rows,
    _class_totals,
    _count_vectors,
    _largest_class,
    arrangement_classes,
    arrangements,
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
    pair_matrix,
    reference_exchange_check,
    reference_exchange_table,
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


def test_word_size_and_counts():
    word = Word((1, 2, 2, 3), 3)
    assert word.letters == (1, 2, 2, 3)
    assert word.n_modes == 3
    assert word.size == 4
    assert word.counts == (1, 2, 1)
    wide = Word((1, 2), 5)
    assert wide.counts == (1, 1, 0, 0, 0)


def test_word_validation():
    with pytest.raises(ValueError):
        Word((), 2)
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((1, 3), 2)


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
    words = list(multiset_arrangements((1, 2)))
    assert words == [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert list(multiset_arrangements((0, 0))) == []
    big = list(multiset_arrangements((2, 1, 1)))
    assert len(big) == math.factorial(4) // 2
    assert len(set(big)) == len(big)
    assert big == sorted(big)


def test_count_vectors_are_every_vector_of_the_total_in_lex_order(monkeypatch):
    for block in (1, 7, 2**12):
        monkeypatch.setattr(qsym, "_COUNT_BLOCK", block)  # the tuples come out of blocks of this many entries
        for slots in range(1, 5):
            for total in range(6):
                expected = [c for c in itertools.product(range(total + 1), repeat=slots) if sum(c) == total]
                assert list(_count_vectors(slots, total)) == expected, (slots, total, block)
    monkeypatch.undo()
    # no recursion per mode: a thousand modes are as easy as three
    vectors = list(_count_vectors(1000, 1))
    assert len(vectors) == 1000
    assert vectors[0] == (0,) * 999 + (1,) and vectors[-1] == (1,) + (0,) * 999


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
    arrangement = arrangements(counts)
    index, inversions = arrangement.index, arrangement.inversions
    assert arrangement.counts == counts
    reference = list(multiset_arrangements(counts))
    assert index.tolist() == [tensor_index(u, len(counts)) for u in reference]
    assert inversions.tolist() == [inversion_count(u) for u in reference]


def test_kernel_gives_the_empty_arrangement_for_the_zero_shape():
    arrangement = arrangements((0, 0, 0))
    assert arrangement.index.tolist() == [0]
    assert arrangement.inversions.tolist() == [0]


def test_kernel_takes_multiplicities_past_the_int8_range():
    # one mode keeps every tensor index at 0, however long the word
    arrangement = arrangements((200,))
    assert arrangement.index.tolist() == [0]
    assert arrangement.inversions.tolist() == [0]
    assert q_symmetrize(Word((1,) * 200, 1), DeformationParams(0.9)).tolist() == [1.0]


# ---------------------------------------------------------------------------
# the batched pass: every class of a size, several classes per pass


def test_batched_classes_equal_the_one_class_kernel_and_the_reference():
    for n_modes in range(1, 7):
        for size in range(9):
            built = list(arrangement_classes(n_modes, size))
            assert [arrangement.counts for arrangement in built] == list(_count_vectors(n_modes, size))
            for arrangement in built:
                alone = arrangements(arrangement.counts)
                for rows, expected in ((arrangement.index, alone.index), (arrangement.inversions, alone.inversions)):
                    assert rows.dtype == expected.dtype == np.int64
                    assert np.array_equal(rows, expected)
                if n_modes**size > 4**8:  # the recursive reference takes ~5 us a word
                    continue
                reference = list(multiset_arrangements(arrangement.counts)) or [()]
                assert arrangement.index.tolist() == [tensor_index(u, n_modes) for u in reference]
                assert arrangement.inversions.tolist() == [inversion_count(u) for u in reference]


def _passes(monkeypatch) -> list:
    """Records (classes, rows) of every pass of the kernel."""
    passes = []

    def recorded(classes, rows):
        passes.append((len(classes), rows))
        return build(classes, rows)

    build = qsym.arrangement_tables
    monkeypatch.setattr(qsym, "arrangement_tables", recorded)
    return passes


@pytest.mark.parametrize("cap", [1, 7, 50, 400])
def test_a_small_row_cap_splits_a_size_into_passes_with_the_same_rows(cap, monkeypatch):
    shapes = [(3, 5), (4, 6), (2, 9)]
    expected = {shape: list(arrangement_classes(*shape)) for shape in shapes}
    passes = _passes(monkeypatch)
    monkeypatch.setattr(qsym, "_BATCH_ROWS", cap)
    for shape in shapes:
        built = list(arrangement_classes(*shape))
        assert [a.counts for a in built] == [a.counts for a in expected[shape]]
        for arrangement, alone in zip(built, expected[shape]):
            assert np.array_equal(arrangement.index, alone.index)
            assert np.array_equal(arrangement.inversions, alone.inversions)
    # every pass holds at most the cap, or one larger class alone
    assert all(rows <= cap or classes == 1 for classes, rows in passes)
    assert len(passes) > len(shapes)  # the sizes were split
    assert any(classes > 1 for classes, _ in passes) == (cap > 1)


def test_a_class_past_the_row_cap_is_built_alone(monkeypatch):
    passes = _passes(monkeypatch)
    monkeypatch.setattr(qsym, "_BATCH_ROWS", 10)
    built = {a.counts: a for a in arrangement_classes(3, 4)}
    assert (1, 1, 2) in built and built[(1, 1, 2)].index.size == 12
    # 1 + 4, 6 + 4 and 1 + 4 rows, then each 12-row class alone
    assert passes[:4] == [(2, 5), (2, 10), (2, 5), (1, 12)]


def test_batched_passes_keep_the_zero_shape_and_the_int64_refusal():
    (empty,) = arrangement_classes(3, 0)
    assert empty.counts == (0, 0, 0)
    assert empty.index.tolist() == [0] and empty.inversions.tolist() == [0]
    assert [a.index.tolist() for a in arrangement_classes(1, 200)] == [[0]]
    with pytest.raises(ValueError, match="int64"):
        next(arrangement_classes(3, 40))
    with pytest.raises(ValueError, match="int64"):
        next(arrangement_classes(2, 64))
    assert next(arrangement_classes(2, 63)).index.tolist() == [2**63 - 1]  # the word 2...2 still fits


def test_a_size_built_class_by_class_peaks_within_one_pass():
    # the sweeps charge one pass of at most _BATCH_ROWS rows for the 4^9 words of nine
    # letters over four modes, whose largest class has 22680 rows, and the records of
    # its 220 classes
    tracemalloc.start()
    try:
        classes = rows = 0
        for arrangement in arrangement_classes(4, 9):
            classes, rows = classes + 1, rows + arrangement.index.size
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (classes, rows) == (220, 4**9)
    assert peak < _class_cost("arrangements", 4, 9, 220, _batch_rows(4, 9))[0] == 100 * 2**15 + 632 * 220


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
        index = arrangements(counts).index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.size == rows
    assert peak < _class_cost("arrangements", 4, 9, 1, rows)[0] == 100 * rows + 632 < 8 * 4**9


def test_kernel_holds_counts_past_the_narrowest_type():
    # int8 holds -128 but not 128: the count type must hold N itself
    for size in (127, 128, 200):
        arrangement = arrangements((size,))
        assert arrangement.index.tolist() == [0] and arrangement.inversions.tolist() == [0]


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


def size_states(classes: list[ArrangementClass], params: DeformationParams) -> np.ndarray:
    """The sorted-word states of the given classes of one size in one vector, as the sweep
    fills it with every class of the size; the other words are 0."""
    counts = classes[0].counts
    states = np.zeros(len(counts) ** sum(counts))
    for arrangement in classes:
        states[arrangement.index] = qsym._state_entries(arrangement, params)
    return states


def exchange_rows(states: np.ndarray, classes: list[ArrangementClass], params: DeformationParams):
    """The exchange kernel at every position of one size's vector, read at the rows of each
    class: per class ``(factors, residuals)``, row r and column k - 1 for its r-th word at
    position k; and the largest allowance.  One kernel call per position."""
    counts = classes[0].counts
    n_modes, size = len(counts), sum(counts)
    rows = [tuple(np.empty((c.index.size, max(size - 1, 0))) for _ in range(2)) for c in classes]
    allowance = 0.0
    for k in range(1, size):
        factors, residuals, position_allowance = exchange_check(states, size, n_modes, k, params)
        allowance = max(allowance, position_allowance)
        for arrangement, (class_factors, class_residuals) in zip(classes, rows):
            class_factors[:, k - 1], class_residuals[:, k - 1] = factors[arrangement.index], residuals[arrangement.index]
        del factors, residuals  # before the next position's are formed
    return rows, allowance


def class_exchange(arrangement: ArrangementClass, params: DeformationParams):
    """``exchange_rows`` on a vector that holds one class: ``(factors, residuals, allowance)``."""
    ((factors, residuals),), allowance = exchange_rows(size_states([arrangement], params), [arrangement], params)
    return factors, residuals, allowance


def test_exchange_relation_everywhere():
    for q in Q_GRID:
        params = DeformationParams(q)
        for size in range(2, 5):
            states = size_states(list(arrangement_classes(3, size)), params)
            for k in range(1, size):
                factors, residuals, _ = exchange_check(states, size, 3, k, params)
                assert factors.shape == residuals.shape == (3**size,)
                assert np.all(residuals < 1e-13), (size, k, q, residuals.max())


def test_exchange_factor_orientation():
    params = DeformationParams(0.5)
    # ascending pair: swapping costs q^{-1}; descending: q^{+1}
    factors, _, _ = exchange_check(size_states([arrangements((1, 1))], params), 2, 2, 1, params)
    assert factors[tensor_index((1, 2), 2)] == pytest.approx(2.0)
    assert factors[tensor_index((2, 1), 2)] == pytest.approx(0.5)
    factors, residuals, allowance = class_exchange(arrangements((0, 2)), params)  # the one row (2, 2)
    assert factors[0, 0] == 1.0
    assert residuals[0, 0] == 0.0
    assert allowance == 4 * 2**-53 * 2  # 4u (|x| + |f x|), where x = f x = 1


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
    # the kernel's residual is the dense residual at the class's sorted arrangement, and
    # no entry of the dense residual passes it by more than the allowance
    n_modes = len(counts)
    for q in Q_GRID:
        params = DeformationParams(q)
        factors, residuals, allowance = class_exchange(arrangements(counts), params)
        words = list(multiset_arrangements(counts)) if sum(counts) else []
        assert residuals.shape == (max(len(words), 1), max(sum(counts) - 1, 0))
        for row, letters in enumerate(words):
            for k in range(1, len(letters)):
                report = reference_exchange_check(Word(letters, n_modes), k, params)
                assert factors[row, k - 1] == report.factor, (letters, k, q)
                assert residuals[row, k - 1] == report.sorted_residual, (letters, k, q)
                assert report.residual <= residuals[row, k - 1] + allowance, (letters, k, q)
                if letters[k - 1] == letters[k]:
                    assert residuals[row, k - 1] == 0.0


def _assert_rows_within_the_table(factors, residuals, arrangement: ArrangementClass, params: DeformationParams):
    """The table holds every row at every inversion level: level 0 is the kernel's residual,
    and every other level passes it by no more than the class's allowance, which the table
    route forms on its own.  Returns that allowance."""
    table_factors, table_residuals, allowance = reference_exchange_table(arrangement, params)
    assert np.array_equal(factors, table_factors)
    assert np.all(table_residuals >= residuals), (arrangement.counts, params.q)
    assert np.all(table_residuals <= residuals + allowance), (arrangement.counts, params.q)
    return allowance


def _assert_sizes_within_the_table(shapes, params: DeformationParams) -> None:
    # one set of kernel calls per size, on the vector of all its classes, read class by
    # class; the kernel's allowance, the size's largest, covers each class's
    for n_modes, size in shapes:
        classes = list(arrangement_classes(n_modes, size))
        rows, allowance = exchange_rows(size_states(classes, params), classes, params)
        for arrangement, (factors, residuals) in zip(classes, rows):
            assert _assert_rows_within_the_table(factors, residuals, arrangement, params) <= allowance


def test_exchange_kernel_stays_within_the_table_kernel_on_every_small_class():
    # every class of up to four modes and seven letters
    for q in (0.05, 0.5, 0.999):
        _assert_sizes_within_the_table([(n, N) for n in range(1, 5) for N in range(8)], DeformationParams(q))


def test_exchange_kernel_stays_within_the_table_kernel_on_every_class_of_six_modes_and_eight_letters():
    # every class of up to six modes and eight letters, at the q where the table's levels
    # are closest to level 0; the table takes about 4 s on the four largest sizes
    _assert_sizes_within_the_table([(n, N) for n in range(1, 7) for N in range(9)], DeformationParams(0.999))


@pytest.mark.parametrize("counts, q", [((10, 10), 0.999), ((3, 3, 3, 3), 0.05), ((5, 5, 4), 0.999)], ids=str)
def test_exchange_kernel_stays_within_the_table_kernel_on_large_classes(counts, q):
    # the table kernel takes seconds on each, so one q per class, and never 0.5: q = 1/2
    # scales every entry by a power of two, so the table then equals its level-0 column.
    # On a vector that holds the one class (4^12 words for (3, 3, 3, 3)), the kernel's
    # allowance is the class's
    arrangement, params = arrangements(counts), DeformationParams(q)
    factors, residuals, allowance = class_exchange(arrangement, params)
    assert _assert_rows_within_the_table(factors, residuals, arrangement, params) == allowance


@pytest.mark.parametrize("counts, row", [((2, 1, 2), 7), ((1, 1, 1, 1), 10), ((0, 3, 1), 2)], ids=str)
def test_exchange_kernel_flags_a_row_with_a_wrong_inversion_count(counts, row):
    # negative control: one row's inversion count raised by 1 scales its entry by q.  Each
    # position that swaps that word onto a word with other letters breaks the law on both
    # rows by (1 - q) of their entries (the two entries can be equal, so the bound holds only
    # within the allowance); every other row holds the law within the allowance
    arrangement = arrangements(counts)
    inversions = arrangement.inversions.copy()
    inversions[row] += 1
    corrupted = ArrangementClass(counts, arrangement.index, inversions)
    words = list(multiset_arrangements(counts))
    for q in Q_GRID:
        params = DeformationParams(q)
        entries = qsym._state_entries(corrupted, params)
        _, residuals, allowance = class_exchange(corrupted, params)
        broken = np.zeros_like(residuals, dtype=bool)
        letters = words[row]
        for k in range(1, len(letters)):
            if letters[k - 1] != letters[k]:
                partner = words.index(Word(letters, len(counts)).swap_adjacent(k).letters)
                bound = (1 - q) * min(entries[row], entries[partner]) - allowance
                assert residuals[row, k - 1] >= bound and residuals[partner, k - 1] >= bound, (k, q)
                broken[row, k - 1] = broken[partner, k - 1] = True
        assert broken.any()
        assert np.all(residuals[~broken] <= allowance), q


def test_exchange_kernel_rejects_bad_classes():
    with pytest.raises(ValueError):
        arrangements((2, -1))
    # 1560 words, but 3^40 > 2^63 tensor indices: refused, not wrapped
    with pytest.raises(ValueError, match="int64"):
        arrangements((38, 1, 1))


def test_exchange_kernel_rejects_bad_positions_and_vectors():
    params = DeformationParams(0.5)
    states = size_states(list(arrangement_classes(2, 3)), params)
    for k in (0, 3):
        with pytest.raises(ValueError, match="positions"):
            exchange_check(states, 3, 2, k, params)
    with pytest.raises(ValueError):  # the 2^3 words of one size, not 3^2
        exchange_check(states, 2, 3, 1, params)


@pytest.mark.parametrize("counts", [(3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 1), (1,) * 7, (4, 4, 4), (2, 2, 2, 2, 1)])
def test_exchange_kernel_peaks_within_its_estimate(counts):
    # on a vector that holds the class, beside that vector: the image of the swapped words,
    # the residuals and the factors, as the exchange sweep charges one call
    n_modes, size = len(counts), sum(counts)
    params = DeformationParams(0.5)
    states = size_states([arrangements(counts)], params)
    estimate = qsym._exchange_cost(n_modes, size, 1)[0]
    for k in (1, size // 2, size - 1):
        tracemalloc.start()
        try:
            exchange_check(states, size, n_modes, k, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert estimate / 2 < peak <= estimate, k


def test_transposition_is_involution():
    for q in Q_GRID:
        params = DeformationParams(q)
        op = pair_matrix(*transposition_op(3, 3, 2, params))
        square = (op @ op - sp.identity(27, format="csr")).tocsr()
        assert np.max(np.abs(square.data)) < 1e-15 if square.nnz else True


def test_transposition_pair_equals_the_scipy_built_reference():
    # row w of the reference stores its one weight at column indices[w]
    for size, n_modes in ((2, 3), (3, 3), (5, 2), (4, 4)):
        for k in range(1, size):
            for q in Q_GRID:
                params = DeformationParams(q)
                swapped, weights = transposition_op(size, n_modes, k, params)
                reference = reference_transposition(size, n_modes, k, params)
                assert reference.nnz == swapped.size == weights.size == n_modes**size
                np.testing.assert_array_equal(reference.indptr, np.arange(n_modes**size + 1))
                np.testing.assert_array_equal(swapped, reference.indices)
                assert weights.tobytes() == reference.data.tobytes()
                np.testing.assert_array_equal(swapped[swapped], np.arange(n_modes**size))


def test_symmetrized_states_are_transposition_fixed_points():
    for q in Q_GRID:
        params = DeformationParams(q)
        for word in words_up_to(3, 4):
            vector = q_symmetrize(word, params)
            for k in range(1, word.size):
                swapped, weights = transposition_op(word.size, word.n_modes, k, params)
                assert np.max(np.abs(weights * vector[swapped] - vector)) < 1e-13


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
    arrangement = arrangements(word.counts)
    _, residuals, _ = class_exchange(arrangement, DeformationParams(q))
    row = int(np.searchsorted(arrangement.index, tensor_index(word.letters, word.n_modes)))
    assert residuals[row, position - 1] < 1e-12


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


def test_norm_identity_exact_is_sized_by_its_class():
    # 992 rows, although the 3^32 tensor space of the words is far past the budget
    arrangement_sum, multinomial = norm_identity_exact((30, 1, 1))
    assert arrangement_sum == multinomial
    # 4032 rows, but 3^64 > 2^63 tensor indices: refused, not tallied over wrapped ones
    with pytest.raises(ValueError, match="int64"):
        norm_identity_exact((62, 1, 1))


def test_class_totals_equal_the_enumeration():
    for n_modes in range(1, 7):
        for size in range(9):
            classes = rows = 0
            for arrangement in arrangement_classes(n_modes, size):
                classes += 1
                rows += arrangement.index.size
                assert _class_size(arrangement.counts) == pytest.approx(arrangement.index.size, rel=1e-12)
            assert _class_totals(n_modes, size) == pytest.approx((classes, rows), rel=1e-12)
            largest = max(_class_size(counts) for counts in _count_vectors(n_modes, size))
            assert _largest_class(n_modes, size) == pytest.approx(largest, rel=1e-12)


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
