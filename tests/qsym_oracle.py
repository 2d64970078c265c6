"""Reference enumeration of multiset arrangements and exchange checks, kept for the tests.

``qmodes.qsym`` builds every arrangement class with one vectorised kernel,
and checks the exchange law for a whole class at once.  The routines here
are the plain routes they replaced: one word at a time, with O(N^2)
inversions per word, and two dense n^N states per (word, position).  The
tests compare the kernels against them on small shapes.
``class_index`` gives a class's tensor indices from the digits of the
tensor indices themselves, so no kernel under test supplies them.
``symmetric_state`` is the undeformed symmetric state, the q -> 1 limit of
every q-symmetrized state of a class, built at ``class_index`` alone.
``reference_exchange_table`` is the class kernel that the level-0 check in
``qsym.exchange_check`` replaced: it forms every state of a class at every
inversion level, and finds each swapped word in the class by its index.  ``reference_transposition`` assembles the deformed
transposition the plain scipy way, from a coordinate list, and
``reference_transposition_deviations`` checks the transposition laws one class
at a time on dense states.  ``pair_matrix`` turns the library's
``(swapped, weights)`` pair into a scipy matrix.
"""

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from qmodes import qsym
from qmodes.qcore import DeformationParams, q_factorial
from qmodes.qsym import (
    Word,
    _count_vector_blocks,
    _state_table,
    inversion_count,
    q_symmetrize,
    sign_compare,
)


def _count_vectors(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    """The vectors of ``qsym._count_vector_blocks``, one tuple at a time."""
    for block in _count_vector_blocks(slots, total, max(1, qsym._COUNT_BLOCK // slots)):
        yield from map(tuple, block.tolist())


def multiset_arrangements(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct arrangements of the multiset with the given letter counts.

    Yields words (tuples of 1-based letters) in lexicographic order; for a
    multiset with multiplicities n_k the number of results is the plain
    multinomial N! / prod n_k!, not N! -- repeated letters are never
    enumerated twice.
    """
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts!r}")
    total = sum(counts)
    if total == 0:
        return
    prefix: list[int] = []

    def emit() -> Iterator[tuple[int, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1] > 0:
                counts[letter - 1] -= 1
                prefix.append(letter)
                yield from emit()
                prefix.pop()
                counts[letter - 1] += 1

    yield from emit()


def tensor_index(letters: Sequence[int], n_modes: int) -> int:
    """Flat index of a tensor basis word (position 1 most significant)."""
    index = 0
    for letter in letters:
        if not 1 <= letter <= n_modes:
            raise ValueError(f"letter {letter} outside 1..{n_modes}")
        index = index * n_modes + (letter - 1)
    return index


@functools.lru_cache(maxsize=64)
def _words_by_counts(n_modes: int, size: int) -> dict[tuple[int, ...], np.ndarray]:
    """The words of ``size`` letters over n modes grouped by their letter counts: the tensor
    indices of each group, ascending, from the base-n digits of 0 to n^N - 1.  Cached, as
    ``class_index`` reads the same halves for every class of a size."""
    index = np.arange(n_modes**size)
    counts, rest = np.zeros((index.size, n_modes), dtype=np.int64), index
    for _ in range(size):
        rest, digit = np.divmod(rest, n_modes)
        counts[index, digit] += 1
    groups, inverse = np.unique(counts, axis=0, return_inverse=True)
    order = np.argsort(inverse.ravel(), kind="stable")
    split = np.split(order, np.cumsum(np.bincount(inverse.ravel()))[:-1])
    return {tuple(group.tolist()): words for group, words in zip(groups, split)}


def class_index(counts: Sequence[int]) -> np.ndarray:
    """The tensor indices of the arrangements of ``counts``, ascending; the empty class's one
    word has index 0.  Each arrangement is a word of the first half of the letters, from
    ``_words_by_counts``, followed by one of the rest whose counts make up ``counts``, so the
    digits of n^(N/2) words, not of n^N, are read."""
    n_modes, size = len(counts), sum(counts)
    tail = size // 2
    tails = _words_by_counts(n_modes, tail)
    parts = [
        (head[:, np.newaxis] * n_modes**tail + tails[rest]).ravel()
        for head_counts, head in _words_by_counts(n_modes, size - tail).items()
        if (rest := tuple(c - h for c, h in zip(counts, head_counts))) in tails
    ]
    return np.sort(np.concatenate(parts))


def symmetric_state(word: Word) -> np.ndarray:
    """The ordinary symmetric state of a word: the unit vector uniform over the arrangements
    of its letters, and 0 elsewhere."""
    index = class_index(word.counts)
    vector = np.zeros(word.n_modes**word.size, dtype=np.float64)
    vector[index] = 1.0 / math.sqrt(index.size)
    return vector


def reference_q_symmetrize(word: Word, params: DeformationParams) -> np.ndarray:
    """q-symmetrized state summed word by word over the recursive enumeration."""
    q = params.q
    prefactor = 1.0
    for c in word.counts:
        prefactor *= q_factorial(params, c)
    prefactor = math.sqrt(prefactor / q_factorial(params, word.size))
    base = q ** inversion_count(word.letters) * prefactor
    vector = np.zeros(word.n_modes**word.size, dtype=np.float64)
    for arrangement in multiset_arrangements(word.counts):
        vector[tensor_index(arrangement, word.n_modes)] = (
            base * q ** inversion_count(arrangement)
        )
    return vector


def reference_tally(counts: Sequence[int]) -> dict[int, int]:
    """Number of arrangements per inversion count; the empty word counts once."""
    tally: dict[int, int] = {}
    for arrangement in multiset_arrangements(counts):
        inversions = inversion_count(arrangement)
        tally[inversions] = tally.get(inversions, 0) + 1
    return tally or {0: 1}


@dataclass(frozen=True)
class ExchangeReport:
    """Residual of the adjacent-exchange relation at one position."""

    word: tuple[int, ...]
    position: int
    factor: float
    residual: float
    sorted_residual: float  # the entry at the class's sorted arrangement
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def reference_exchange_check(
    word: Word, k: int, params: DeformationParams, tol: float = 1e-13
) -> ExchangeReport:
    """Verify |w>_q = q^{eps(w_k, w_{k+1})} |swap_k(w)>_q at position k on dense states."""
    swapped = word.swap_adjacent(k)
    epsilon = sign_compare(word.letters[k - 1], word.letters[k])
    factor = params.q**epsilon
    difference = np.abs(q_symmetrize(word, params) - factor * q_symmetrize(swapped, params))
    sorted_word = tuple(sorted(word.letters))
    return ExchangeReport(
        word=word.letters,
        position=k,
        factor=factor,
        residual=float(np.max(difference)),
        sorted_residual=float(difference[tensor_index(sorted_word, word.n_modes)]),
        tol=tol,
    )


def reference_exchange_table(
    counts: tuple[int, ...], inversions: np.ndarray, params: DeformationParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Check |w>_q = q^{eps(w_k, w_{k+1})} |swap_k(w)>_q on every word of one class, at
    every inversion level, given the inversion count of each row of the class.

    Row r of both arrays is row r of the class (its r-th word in lex order, at
    ``class_index``) and column k - 1 is position k.
    Returns ``(factors, residuals, allowance)``: the factor q^{eps}, the largest
    absolute entry of |w>_q - q^{eps} |swap_k(w)>_q, and the class's rounding
    allowance 4u max(|x_r| + |fl(f x_s)|) at level 0, u = 2^-53, formed here
    from the table's level-0 column.

    Every state of the class is supported on the class, where the state of
    word w at arrangement u is (q^{R(w)} prefactor) q^{R(u)}.  So the table
    of those products over the inversion levels R(u) that occur holds every
    entry of every state of the class, computed with exactly the arithmetic
    of ``q_symmetrize``, and the residual is a row difference of the table.
    """
    index, n_modes, size = class_index(counts), len(counts), sum(counts)
    levels = np.flatnonzero(np.bincount(inversions))
    powers = np.array([params.q**k for k in range(size * (size - 1) // 2 + 1)])
    table = _state_table(params, counts)[inversions][:, np.newaxis] * powers[levels]
    comparator = np.array(
        [[params.q ** sign_compare(a, b) for b in range(n_modes)] for a in range(n_modes)]
    )
    factors = np.empty((index.size, max(size - 1, 0)))
    residuals = np.empty_like(factors)
    image = np.empty_like(table)  # one gather buffer, reused at every position
    scale = 0.0  # the largest |x_r| + |fl(f x_s)|: level 0 is the sorted arrangement's, q^0 = 1
    for k in range(1, size):
        stride_right = n_modes ** (size - k - 1)  # position k+1
        stride_left = stride_right * n_modes  # position k
        left = index // stride_left % n_modes
        right = index // stride_right % n_modes
        swapped = index + (left - right) * (stride_right - stride_left)
        factors[:, k - 1] = comparator[left, right]
        np.take(table, np.searchsorted(index, swapped), axis=0, out=image, mode="clip")
        image *= factors[:, k - 1, np.newaxis]
        scale = max(scale, float((table[:, 0] + image[:, 0]).max()))
        np.subtract(table, image, out=image)
        residuals[:, k - 1] = np.abs(image, out=image).max(axis=1)
    return factors, residuals, 4 * 2**-53 * scale


def reference_transposition(
    size: int, n_modes: int, k: int, params: DeformationParams
) -> sp.csr_matrix:
    """The transposition of positions k, k+1 as a scipy CSR matrix, column by column."""
    dim = n_modes**size
    index = np.arange(dim)
    stride_right = n_modes ** (size - k - 1)
    stride_left = stride_right * n_modes
    left = index // stride_left % n_modes
    right = index // stride_right % n_modes
    target = index + (left - right) * stride_right + (right - left) * stride_left
    weight = np.array([params.q ** -sign_compare(a, b) for a, b in zip(left.tolist(), right.tolist())])
    matrix = sp.csr_matrix((weight, (target, index)), shape=(dim, dim))
    matrix.eliminate_zeros()
    return matrix


def pair_matrix(swapped: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """The scipy CSR matrix of a weighted permutation: row w holds weights[w] at column swapped[w]."""
    dim = swapped.size
    return sp.csr_matrix((weights, swapped, np.arange(dim + 1)), shape=(dim, dim))


def reference_transposition_deviations(size: int, n_modes: int, params: DeformationParams) -> tuple[float, float]:
    """Largest |entry| of T·T − I and of T|w>_q − |w>_q over the transpositions T of one size.

    Each T is ``reference_transposition``'s scipy matrix, and scipy forms both
    products.  The second runs over the sorted word w of every class, each on
    its own dense n^N state, times each full-space transposition.
    """
    ops = [reference_transposition(size, n_modes, k, params) for k in range(1, size)]
    identity = sp.identity(n_modes**size, format="csr")
    inverse = max(float(abs(op @ op - identity).max()) for op in ops)
    invariance = 0.0
    for counts in _count_vectors(n_modes, size):
        letters = tuple(k for k, c in enumerate(counts, start=1) for _ in range(c))
        vector = q_symmetrize(Word(letters, n_modes), params)
        for op in ops:
            invariance = max(invariance, float(np.max(np.abs(op @ vector - vector))))
    return inverse, invariance
