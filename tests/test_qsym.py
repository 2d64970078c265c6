"""Tests for tensor words, q-symmetrization, and the exchange relations."""

import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qmodes.fock import FockSpaceConfig
from qmodes.qcore import DeformationParams, DomainError, q_factorial
from qmodes import qsym
from qmodes.qpoly import QPolynomial
from qmodes.qsym import (
    Word,
    _class_cost,
    _class_size,
    _class_totals,
    _largest_class,
    arrangements,
    class_entries,
    exchange_check,
    fundamental_norm,
    inversion_count,
    norm_identity_exact,
    q_symmetrize,
    sign_compare,
    transposition_op,
    word_keys,
    word_tallies,
)
from qsym_oracle import (
    _count_vectors,
    class_index,
    multiset_arrangements,
    pair_matrix,
    reference_exchange_check,
    reference_exchange_table,
    reference_transposition,
    reference_q_symmetrize,
    reference_tally,
    symmetric_state,
    tensor_index,
)

Q_GRID = (0.3, 0.5, 0.9)


def one_class(counts: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """A class as the tests pass it around: its letter counts and the one-class kernel's
    inversion count of each of its rows."""
    return counts, arrangements(counts)


def size_classes(n_modes: int, size: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Every class of ``size`` letters over ``n_modes`` modes, in lex order of the counts."""
    return [one_class(counts) for counts in _count_vectors(n_modes, size)]


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
    rng = random.Random(5)
    for _ in range(300):  # the pairs, counted one by one
        letters = [rng.randint(1, rng.randint(1, 9)) for _ in range(rng.randint(0, 30))]
        pairs = sum(a > b for i, a in enumerate(letters) for b in letters[i + 1 :])
        assert inversion_count(letters) == pairs, letters


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

KERNEL_SHAPES = ((1,), (2,), (1, 1), (0, 3), (2, 0, 1), (0, 0, 2, 1), (1, 2, 0, 2), (1,) * 6, (0, 2, 0, 0, 1, 0))


@pytest.mark.parametrize("counts", KERNEL_SHAPES)
def test_kernel_rows_match_the_reference_enumeration(counts):
    # one row per arrangement, in lex (tensor) order
    inversions = arrangements(counts)
    assert inversions.dtype == np.int64
    assert inversions.tolist() == [inversion_count(u) for u in multiset_arrangements(counts)]


def test_kernel_gives_the_empty_arrangement_for_the_zero_shape():
    assert arrangements((0, 0, 0)).tolist() == [0]


def test_kernel_takes_multiplicities_past_the_int8_range():
    # one mode has one word, of no inversions, however long it is
    assert arrangements((200,)).tolist() == [0]
    assert q_symmetrize(Word((1,) * 200, 1), DeformationParams(0.9)).tolist() == [1.0]
    assert word_keys(1, 300).tolist() == [0]  # past the uint8 letters, as one suffix


# ---------------------------------------------------------------------------
# the all-words kernel: every word of a size, a block of words at a time


def word_classes(n_modes: int, size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The all-words kernel's words of one size grouped by class, in lex order of the
    counts: per class its tensor indices (ascending) and their inversion counts."""
    ranks, inversions = np.divmod(word_keys(n_modes, size), size * (size - 1) // 2 + 1)
    order = np.argsort(ranks, kind="stable")  # each class's words in tensor order
    bounds = np.cumsum(np.bincount(ranks))[:-1]
    return [(index, inversions[index]) for index in np.split(order, bounds)]


def test_batched_classes_equal_the_one_class_kernel_and_the_reference():
    # the words of each class, read from the all-words kernel's keys, in tensor order, have
    # the inversion counts of the one-class kernel's rows, and are the words the oracle
    # reads from the digits of the tensor indices, and those of the recursive reference
    for n_modes in range(1, 7):
        for size in range(9):
            built = word_classes(n_modes, size)
            vectors = list(_count_vectors(n_modes, size))
            assert len(built) == len(vectors)
            for counts, (index, inversions) in zip(vectors, built):
                assert np.array_equal(inversions, arrangements(counts))
                assert np.array_equal(index, class_index(counts))
                if n_modes**size > 4**8:  # the recursive reference takes ~5 us a word
                    continue
                reference = list(multiset_arrangements(counts)) or [()]
                assert index.tolist() == [tensor_index(u, n_modes) for u in reference]
                assert inversions.tolist() == [inversion_count(u) for u in reference]


def _blocks(monkeypatch) -> list:
    """Records the words of every block of the all-words kernel."""
    blocks = []

    def recorded(n_modes, size, kept=0):
        for keys in kernel(n_modes, size, kept):
            blocks.append(keys.size)
            yield keys

    kernel = qsym._word_blocks
    monkeypatch.setattr(qsym, "_word_blocks", recorded)
    return blocks


@pytest.mark.parametrize("cap", [1, 7, 50, 400])
def test_a_small_row_cap_splits_a_size_into_passes_with_the_same_rows(cap, monkeypatch):
    # a block constant of ``cap`` words splits each size into blocks whose keys, joined,
    # are those of one block a size
    shapes = [(3, 5), (4, 6), (2, 9)]
    expected = {shape: word_keys(*shape) for shape in shapes}
    blocks = _blocks(monkeypatch)
    monkeypatch.setattr(qsym, "_BLOCK_WORDS", cap)
    split = 0
    for n_modes, size in shapes:
        blocks.clear()
        assert np.array_equal(word_keys(n_modes, size), expected[n_modes, size])
        # every block holds at most the cap, or the n words of one letter alone
        assert all(words <= max(cap, n_modes) for words in blocks) and sum(blocks) == n_modes**size
        split += len(blocks)
    assert split > len(shapes)  # the sizes were split


def test_a_class_past_the_block_is_tallied_across_blocks(monkeypatch):
    blocks = _blocks(monkeypatch)
    monkeypatch.setattr(qsym, "_BLOCK_WORDS", 10)
    table = word_tallies(3, 4)
    # the 81 words in blocks of 9, the last letter's three suffixes times three prefixes
    assert blocks == [9] * 9
    counts = table[list(_count_vectors(3, 4)).index((1, 1, 2))]  # 12 words, spread over the blocks
    assert counts.sum() == 12 and np.array_equal(counts, np.bincount(arrangements((1, 1, 2)), minlength=7))


def test_batched_passes_keep_the_zero_shape_and_the_int64_refusal():
    assert word_keys(3, 0).tolist() == [0]  # the empty word, of the one class (0, 0, 0)
    assert word_tallies(3, 0).tolist() == [[1]]
    assert word_keys(1, 200).tolist() == [0] and word_tallies(1, 200)[0, 0] == 1
    with pytest.raises(ValueError, match="int64"):
        word_keys(3, 40)
    with pytest.raises(ValueError, match="int64"):
        word_tallies(2, 64)
    with pytest.raises(DomainError, match="budget"):  # 2^63 words fit int64, not the budget
        word_tallies(2, 63)


def test_the_kernel_consumers_are_refused_on_the_bytes_they_keep():
    # the kernel itself fits at both shapes (~2.4 and ~1.5 MB); the 2^28 keys (2 GiB) and
    # the 1.8 GB table of C(702, 3) classes by 4 inversion counts do not
    for n_modes, size in [(2, 28), (700, 3)]:
        assert qsym._words_cost(n_modes, size)[0] < 2**22
    with pytest.raises(DomainError, match="budget"):
        word_keys(2, 28)
    with pytest.raises(DomainError, match="budget"):
        word_tallies(700, 3)


@pytest.mark.parametrize("cap", [None, 5], ids=["one pass a size", "five rows a pass"])
def test_each_tally_row_is_the_bincount_of_its_class(cap, monkeypatch):
    # with the block constant at 5 words (400 past 4^8 words, where blocks of n words
    # would take minutes), the blocks split the classes of every size they split
    kernel, ranks = qsym._word_blocks, []

    def recorded(n_modes, size, kept=0):
        for keys in kernel(n_modes, size, kept):
            ranks.append(np.unique(keys // (size * (size - 1) // 2 + 1)))
            yield keys

    monkeypatch.setattr(qsym, "_word_blocks", recorded)
    for n_modes in range(1, 7):
        for size in range(9):
            if cap:
                monkeypatch.setattr(qsym, "_BLOCK_WORDS", cap if n_modes**size <= 4**8 else 400)
            ranks.clear()
            width = size * (size - 1) // 2 + 1
            table = word_tallies(n_modes, size)
            vectors = list(_count_vectors(n_modes, size))
            assert table.dtype == np.int64 and table.shape == (len(vectors), width)
            for counts, row in zip(vectors, table):
                assert np.array_equal(row, np.bincount(arrangements(counts), minlength=width))
            if cap and n_modes**size > max(cap, n_modes):  # some class has words in two blocks
                spread = np.concatenate(ranks)
                assert len(ranks) > 1 and spread.size > np.unique(spread).size


def test_a_size_built_class_by_class_peaks_within_one_pass():
    # the 4^9 words of nine letters over four modes, keyed a block at a time: the kernel
    # peaks within its estimate, far below the 8 B a word their keys would take together
    tracemalloc.start()
    try:
        words = 0
        for keys in qsym._word_blocks(4, 9):
            words += keys.size
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert words == 4**9
    estimate = qsym._words_cost(4, 9)[0]
    assert 0.3 * estimate <= peak <= estimate < 8 * 4**9


@pytest.mark.parametrize("n_modes, size", [(1, 30), (2, 12), (2, 20), (3, 6), (3, 13), (4, 9), (6, 8), (20, 3), (40, 2), (300, 2)])
def test_the_all_words_kernel_peaks_within_its_estimate(n_modes, size):
    tracemalloc.start()
    try:
        for _ in qsym._word_blocks(n_modes, size):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.3 * qsym._words_cost(n_modes, size)[0] <= peak <= qsym._words_cost(n_modes, size)[0]


def test_the_class_ranks_are_the_lex_order_of_the_counts():
    for n_modes in range(1, 6):
        for size in range(7):
            ranks = word_keys(n_modes, size) // (size * (size - 1) // 2 + 1)
            vectors = list(_count_vectors(n_modes, size))
            for word, rank in zip(itertools.product(range(1, n_modes + 1), repeat=size), ranks):
                assert vectors[rank] == tuple(word.count(letter) for letter in range(1, n_modes + 1))


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.999])
def test_the_exchange_state_vector_equals_the_per_class_scatter(q):
    # the class entries gathered at the keys are, bit for bit, each class's entries from
    # _state_table scattered through the reference's tensor indices
    params = DeformationParams(q)
    for n_modes, size in [(1, 5), (2, 9), (3, 6), (4, 5), (6, 4)]:
        gathered = np.take(class_entries(params, n_modes, size), word_keys(n_modes, size))
        assert gathered.tobytes() == size_states(size_classes(n_modes, size), params).tobytes()


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
    # words.  The last extension step holds a few int64 arrays of one entry
    # per row (each extension and its prefix, old and new inversions and
    # their temporaries) plus a few rows of int8 letter counts, and the
    # result keeps 8 bytes a row.  A table over the whole tensor space would
    # need 2.1 MB for an int64 index alone.
    counts, rows = (3, 2, 2, 2), 7560
    tracemalloc.start()
    try:
        inversions = arrangements(counts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inversions.size == rows and inversions.nbytes == 8 * rows
    nbytes = _class_cost(counts)[0]
    assert peak < nbytes < 8 * 4**9
    assert nbytes == pytest.approx(100 * rows + 632, rel=1e-12)  # the rows from the lgamma estimate


@pytest.mark.parametrize("counts", [(1,) * 8 + (0,) * 200, (1,) * 9 + (0,) * 41], ids=["8 of 208", "9 of 50"])
def test_letters_of_count_zero_cost_the_kernel_nothing(counts):
    # the kernel steps over the used letters alone: a count per mode for every prefix would
    # take 456 B a row over 208 modes and 140 B over 50, against the 100 B charged
    tracemalloc.start()
    try:
        rows = arrangements(counts).size
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == math.factorial(sum(counts))
    assert peak < _class_cost(counts)[0]


def _reference_extensions(counts) -> int:
    # the distinct prefixes of 1 to N - 1 letters: one per sub-multiset's arrangement
    return sum(
        math.factorial(sum(part)) // math.prod(map(math.factorial, part))
        for part in itertools.product(*(range(c + 1) for c in counts))
        if 0 < sum(part) < sum(counts)
    )


def test_the_prefix_extensions_are_counted_exactly():
    for n_modes in range(1, 5):
        for size in range(9):
            for counts in _count_vectors(n_modes, size):
                nonzero = tuple(sorted(c for c in counts if c))
                assert qsym._prefix_extensions(nonzero) == _reference_extensions(counts), counts
    assert qsym._prefix_extensions((2, 300)) == _reference_extensions((300, 2))


def test_a_long_class_over_few_letters_is_priced_by_its_prefix_extensions():
    # every step extends each live prefix, and a long word over few letters keeps nearly as
    # many live prefixes as rows at each step: (300, 2) extends 4.6e6 prefixes for its 45451
    # rows, (6000, 1) 1.8e7 for its 6001.  The estimate charges them all, and bounds the time
    for counts in ((300, 2), (6000, 1)):
        extensions = _reference_extensions(counts)
        assert extensions > 100 * _class_size(counts)
        _, work = _class_cost(counts)
        assert work > (20 + 8 * len(counts)) * extensions
        start = time.perf_counter()
        arrangements(counts)
        assert (time.perf_counter() - start) * 1e9 < work, counts
    # C(4502, 2) = 1e7 rows within the byte budget, but ~1.5e10 prefix extensions: refused
    # before the first step
    start = time.perf_counter()
    with pytest.raises(DomainError, match="4502 letters, 2 of them distinct needs about"):
        fundamental_norm(Word((2, 2) + (1,) * 4500, 2), DeformationParams(0.5))
    assert time.perf_counter() - start < 0.5


def test_kernel_holds_counts_past_the_narrowest_type():
    # int8 holds -128 but not 128: the count type must hold N itself
    for size in (127, 128, 200):
        assert arrangements((size,)).tolist() == [0]


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


@pytest.mark.parametrize("n_modes, size", [(4, 8), (6, 6), (2, 16)])
def test_the_dense_states_peak_within_the_all_words_guard(n_modes, size):
    # the guard the dense state passes is the all-words kernel's, with its n^N vector as the
    # bytes kept beside it; the word is one of the class of most rows, whose arrangements the
    # oracle's symmetric state holds
    letters = tuple(l for l, c in enumerate(_largest_class(n_modes, size), start=1) for _ in range(c))
    word, params = Word(letters[::-1], n_modes), DeformationParams(0.5)
    estimate = qsym._words_cost(n_modes, size)[0] + 8 * n_modes**size
    q_symmetrize(word, params)  # the power tables, which params keeps, are built once
    tracemalloc.start()
    try:
        vector = q_symmetrize(word, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(np.flatnonzero(vector), np.flatnonzero(symmetric_state(word)))
    assert peak <= estimate, (peak, estimate)


# ---------------------------------------------------------------------------
# exchange relation and deformed transpositions


def size_states(classes: list, params: DeformationParams) -> np.ndarray:
    """The sorted-word states of the given classes of one size in one vector, as the sweep
    fills it with every class of the size: each row's entry from its inversion count, at the
    reference's tensor index of the row; the other words are 0."""
    counts = classes[0][0]
    states = np.zeros(len(counts) ** sum(counts))
    for counts, inversions in classes:
        states[class_index(counts)] = qsym._state_table(params, counts)[inversions]
    return states


def exchange_rows(states: np.ndarray, classes: list, params: DeformationParams):
    """The exchange kernel at every position of one size's vector, read at the reference's
    tensor indices of each class: per class ``(factors, residuals)``, row r and column k - 1
    for its r-th word at position k; and the largest allowance.  One kernel call per
    position."""
    counts = classes[0][0]
    n_modes, size = len(counts), sum(counts)
    indices = [class_index(counts) for counts, _ in classes]
    rows = [tuple(np.empty((index.size, max(size - 1, 0))) for _ in range(2)) for index in indices]
    allowance = 0.0
    for k in range(1, size):
        factors, residuals, position_allowance = exchange_check(states, size, n_modes, k, params)
        allowance = max(allowance, position_allowance)
        for index, (class_factors, class_residuals) in zip(indices, rows):
            class_factors[:, k - 1], class_residuals[:, k - 1] = factors[index], residuals[index]
        del factors, residuals  # before the next position's are formed
    return rows, allowance


def class_exchange(counts: tuple[int, ...], inversions: np.ndarray, params: DeformationParams):
    """``exchange_rows`` on a vector that holds one class: ``(factors, residuals, allowance)``."""
    classes = [(counts, inversions)]
    ((factors, residuals),), allowance = exchange_rows(size_states(classes, params), classes, params)
    return factors, residuals, allowance


def test_exchange_relation_everywhere():
    for q in Q_GRID:
        params = DeformationParams(q)
        for size in range(2, 5):
            states = size_states(list(size_classes(3, size)), params)
            for k in range(1, size):
                factors, residuals, _ = exchange_check(states, size, 3, k, params)
                assert factors.shape == residuals.shape == (3**size,)
                assert np.all(residuals < 1e-13), (size, k, q, residuals.max())


def test_exchange_factor_orientation():
    params = DeformationParams(0.5)
    # ascending pair: swapping costs q^{-1}; descending: q^{+1}
    factors, _, _ = exchange_check(size_states([one_class((1, 1))], params), 2, 2, 1, params)
    assert factors[tensor_index((1, 2), 2)] == pytest.approx(2.0)
    assert factors[tensor_index((2, 1), 2)] == pytest.approx(0.5)
    factors, residuals, allowance = class_exchange(*one_class((0, 2)), params)  # the one row (2, 2)
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
        factors, residuals, allowance = class_exchange(*one_class(counts), params)
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


def _assert_rows_within_the_table(factors, residuals, counts, inversions, params: DeformationParams):
    """The table holds every row at every inversion level: level 0 is the kernel's residual,
    and every other level passes it by no more than the class's allowance, which the table
    route forms on its own.  Returns that allowance."""
    table_factors, table_residuals, allowance = reference_exchange_table(counts, inversions, params)
    assert np.array_equal(factors, table_factors)
    assert np.all(table_residuals >= residuals), (counts, params.q)
    assert np.all(table_residuals <= residuals + allowance), (counts, params.q)
    return allowance


def _assert_sizes_within_the_table(shapes, params: DeformationParams) -> None:
    # one set of kernel calls per size, on the vector of all its classes, read class by
    # class; the kernel's allowance, the size's largest, covers each class's
    for n_modes, size in shapes:
        classes = list(size_classes(n_modes, size))
        rows, allowance = exchange_rows(size_states(classes, params), classes, params)
        for (counts, inversions), (factors, residuals) in zip(classes, rows):
            assert _assert_rows_within_the_table(factors, residuals, counts, inversions, params) <= allowance


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
    inversions, params = arrangements(counts), DeformationParams(q)
    factors, residuals, allowance = class_exchange(counts, inversions, params)
    assert _assert_rows_within_the_table(factors, residuals, counts, inversions, params) == allowance


@pytest.mark.parametrize("counts, row", [((2, 1, 2), 7), ((1, 1, 1, 1), 10), ((0, 3, 1), 2)], ids=str)
def test_exchange_kernel_flags_a_row_with_a_wrong_inversion_count(counts, row):
    # negative control: one row's inversion count raised by 1 scales its entry by q.  Each
    # position that swaps that word onto a word with other letters breaks the law on both
    # rows by (1 - q) of their entries (the two entries can be equal, so the bound holds only
    # within the allowance); every other row holds the law within the allowance
    inversions = arrangements(counts)
    inversions[row] += 1
    words = list(multiset_arrangements(counts))
    for q in Q_GRID:
        params = DeformationParams(q)
        entries = qsym._state_table(params, counts)[inversions]
        _, residuals, allowance = class_exchange(counts, inversions, params)
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
    # 1560 words whose tensor indices pass int64 (3^40 > 2^63): the kernel forms none
    tally = np.bincount(arrangements((38, 1, 1)))
    assert {k: int(n) for k, n in enumerate(tally) if n} == reference_tally((38, 1, 1))


def test_exchange_kernel_rejects_bad_positions_and_vectors():
    params = DeformationParams(0.5)
    states = size_states(list(size_classes(2, 3)), params)
    for k in (0, 3):
        with pytest.raises(ValueError, match="positions"):
            exchange_check(states, 3, 2, k, params)
    with pytest.raises(ValueError):  # the 2^3 words of one size, not 3^2
        exchange_check(states, 2, 3, 1, params)


@pytest.mark.parametrize(
    "counts", [(3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 1), (1,) * 7, (4, 4, 4), (2, 2, 2, 2, 1), (1, 1) + (0,) * 198]
)
def test_exchange_kernel_peaks_within_its_estimate(counts):
    # on a vector that holds the class, beside that vector: the image of the swapped words,
    # the residuals and the factors, as the exchange sweep charges one call
    n_modes, size = len(counts), sum(counts)
    params = DeformationParams(0.5)
    states = size_states([one_class(counts)], params)
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


def test_transposition_indices_are_int32_below_two_to_the_thirty_one_words():
    # the guards refuse 2^31 words or states before anything is allocated, so int32 holds
    # every index the transposition and the Fock operators form
    params = DeformationParams(0.5)
    for refused in (lambda: transposition_op(31, 2, 1, params), lambda: FockSpaceConfig(31, 2, params)):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="budget"):
                refused()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e5, peak
    swapped, weights = transposition_op(5, 3, 2, params)
    assert swapped.dtype == np.int32 and weights.dtype == np.float64


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
    _, residuals, _ = class_exchange(*one_class(word.counts), DeformationParams(q))
    row = int(np.searchsorted(class_index(word.counts), tensor_index(word.letters, word.n_modes)))
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
    with pytest.raises(DomainError, match="budget"):  # one row, but a cold [300]! takes minutes
        norm_identity_exact((300,))


def test_norm_identity_exact_is_sized_by_its_class():
    # 992 rows, although the 3^32 tensor space of the words is far past the budget
    arrangement_sum, multinomial = norm_identity_exact((30, 1, 1))
    assert arrangement_sum == multinomial
    # 4032 rows, tallied without their 3^64 > 2^63 tensor indices
    arrangement_sum, multinomial = norm_identity_exact((62, 1, 1))
    assert arrangement_sum == multinomial


def test_class_totals_equal_the_enumeration():
    for n_modes in range(1, 7):
        for size in range(9):
            classes = rows = 0
            for counts, inversions in size_classes(n_modes, size):
                classes += 1
                rows += inversions.size
                assert _class_size(counts) == pytest.approx(inversions.size, rel=1e-12)
            assert _class_totals(n_modes, size) == pytest.approx((classes, rows), rel=1e-12)
            largest = max(_class_size(counts) for counts in _count_vectors(n_modes, size))
            assert _class_size(_largest_class(n_modes, size)) == pytest.approx(largest, rel=1e-12)


def test_weak_deformation_approaches_bosonic_states():
    params = DeformationParams(0.999)
    for letters in ((2, 1), (1, 3, 2), (2, 2, 1, 3), (3, 1, 2, 1)):
        word = Word(letters, 3)
        deformed = q_symmetrize(word, params)
        deformed = deformed / np.linalg.norm(deformed)
        overlap = float(deformed @ symmetric_state(word))
        assert overlap > 0.99
        # the gap closes linearly in 1 - q^2
        assert 1.0 - overlap < 50.0 * (1.0 - params.q_sq)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.999])
def test_the_norm_is_taken_on_the_class_entries_of_q_symmetrize(q):
    # the class of the letters a word uses gives q_symmetrize's nonzero entries, in tensor
    # order, bit for bit, and fundamental_norm is their squared norm
    rng = random.Random(11)
    params = DeformationParams(q)
    for _ in range(150):
        n_modes = rng.randint(1, 6)
        letters = tuple(rng.randint(1, n_modes) for _ in range(rng.randint(1, 8)))
        counts = [letters.count(l) for l in sorted(set(letters))]
        entries = qsym._state_table(params, counts, inversion_count(letters))[arrangements(counts)]
        vector = q_symmetrize(Word(letters, n_modes), params)
        assert entries.tobytes() == vector[np.flatnonzero(vector)].tobytes(), (letters, n_modes)
        assert fundamental_norm(Word(letters, n_modes), params) == float(entries @ entries)


def test_the_norm_of_a_word_over_many_modes_is_sized_by_its_class():
    # the (10^9)^2 tensor space is far past the budget, but the class has two rows
    tracemalloc.start()
    try:
        value = fundamental_norm(Word((2, 1), 10**9), DeformationParams(0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(0.25, rel=4 * 2**-53)
    assert peak < 100_000


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
