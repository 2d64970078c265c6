"""q-symmetrized multiparticle states on tensor products of mode labels.

A word (i_1, ..., i_N) with letters in 1..n labels a basis vector of the
N-fold tensor space of mode labels.  Its q-symmetrization is

    |w>_q = q^{R(w)} sqrt(prod_k [n_k]! / [N]!) sum_u q^{R(u)} |u>

where u runs over the distinct arrangements of the multiset of letters,
R counts inversions, and n_k is the multiplicity of letter k.  Two facts
certified by the test suite follow: the squared norm is exactly q^{2 R(w)}
(so sorted words are normalized), and adjacent transposition obeys
|w>_q = q^{eps(w_k, w_{k+1})} |swap_k(w)>_q with eps the three-valued
comparator (+1 when the left letter is larger, -1 when smaller, 0 on
ties).

The deformed transposition operator P acts on tensor basis words by
swapping positions k, k+1 with weight q^{-eps}; it is an involution and
leaves every q-symmetrized state fixed, which is the operator form of the
exchange relation (at q -> 1 it degenerates to the plain bosonic swap
invariance).
"""

import collections
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .qcore import DeformationParams, check_budget, q_factorial, size_estimate

__all__ = [
    "Word",
    "ArrangementClass",
    "arrangements",
    "arrangement_classes",
    "arrangement_tables",
    "arrangement_sum",
    "inversion_count",
    "sign_compare",
    "q_symmetrize",
    "bosonic_symmetrize",
    "fundamental_norm",
    "exchange_check",
    "transposition_op",
    "norm_identity_exact",
]


@dataclass(frozen=True)
class Word:
    """A tensor word: letters i_1..i_N, each in 1..n_modes."""

    letters: tuple[int, ...]
    n_modes: int

    def __post_init__(self) -> None:
        letters = tuple(int(l) for l in self.letters)
        object.__setattr__(self, "letters", letters)
        if not letters:
            raise ValueError("a word needs at least one letter")
        if self.n_modes < 1:
            raise ValueError(f"n_modes must be >= 1, got {self.n_modes}")
        if any(not 1 <= l <= self.n_modes for l in letters):
            raise ValueError(
                f"letters must lie in 1..{self.n_modes}, got {letters!r}"
            )

    @property
    def size(self) -> int:
        return len(self.letters)

    @property
    def counts(self) -> tuple[int, ...]:
        """Multiplicity of each letter 1..n_modes."""
        table = [0] * self.n_modes
        for letter in self.letters:
            table[letter - 1] += 1
        return tuple(table)

    def swap_adjacent(self, k: int) -> "Word":
        """Word with positions k, k+1 (1-based) exchanged."""
        if not 1 <= k < self.size:
            raise ValueError(f"positions must satisfy 1 <= k < {self.size}, got {k}")
        letters = list(self.letters)
        letters[k - 1], letters[k] = letters[k], letters[k - 1]
        return Word(tuple(letters), self.n_modes)


def inversion_count(letters: Sequence[int]) -> int:
    """Number of pairs a < b with letters[a] > letters[b]."""
    count = 0
    for a in range(len(letters)):
        for b in range(a + 1, len(letters)):
            if letters[a] > letters[b]:
                count += 1
    return count


def sign_compare(i: int, j: int) -> int:
    """Three-valued comparator: +1 if i > j, -1 if i < j, 0 on ties."""
    if i > j:
        return 1
    if i < j:
        return -1
    return 0


@dataclass(frozen=True)
class ArrangementClass:
    """Row r: tensor index and inversion count of the r-th arrangement of ``counts`` (lex order)."""

    counts: tuple[int, ...]
    index: np.ndarray
    inversions: np.ndarray


# Rows of one pass of the arrangement kernel: a pass builds classes up to this many rows
# together, or one larger class alone.
_BATCH_ROWS = 2**15
# Entries of the count vectors enumerated together, when they are handed out one at a time.
_COUNT_BLOCK = 2**12


def _count_vector_blocks(slots: int, total: int, size: int) -> Iterator[np.ndarray]:
    """All nonnegative integer vectors of the given length with sum total, in lex order, as
    (k, slots) int64 arrays of at most ``size`` rows each: the gaps between nondecreasing
    cut points of 0..total, taken in lex order of the cuts."""
    cuts = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(total + 1), slots - 1))
    remaining = math.comb(total + slots - 1, slots - 1)
    while remaining:
        rows = min(size, remaining)
        remaining -= rows
        bounds = np.empty((rows, slots + 1), dtype=np.int64)
        bounds[:, 0], bounds[:, -1] = 0, total
        bounds[:, 1:-1] = np.fromiter(cuts, dtype=np.int64, count=rows * (slots - 1)).reshape(rows, slots - 1)
        yield bounds[:, 1:] - bounds[:, :-1]


def _count_vectors(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    """The vectors of :func:`_count_vector_blocks`, one tuple at a time."""
    for block in _count_vector_blocks(slots, total, max(1, _COUNT_BLOCK // slots)):
        yield from map(tuple, block.tolist())


def _rows(counts: Sequence[int]) -> int:
    """The exact number of arrangements of ``counts``, the multinomial N! / prod c!."""
    rows, placed = 1, 0
    for c in counts:
        placed += c
        rows *= math.comb(placed, c)
    return rows


def arrangements(counts: Sequence[int]) -> ArrangementClass:
    """Tensor index and inversion count of every arrangement of a multiset.

    ``counts[l]`` is the multiplicity of letter l + 1, and there is one slot
    per mode, so the words live in the len(counts)^N tensor space.  This is
    the one-class call of the kernel behind :func:`arrangement_classes`.
    The all-zero shape has one row, the empty arrangement.
    """
    counts = tuple(int(c) for c in counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts!r}")
    return ArrangementClass(counts, *arrangement_tables([counts], _rows(counts)))


def arrangement_classes(n_modes: int, size: int) -> Iterator[ArrangementClass]:
    """Every arrangement class of ``size`` letters over ``n_modes`` modes, one per count
    vector, in lex order of the counts.

    The classes are built together in one pass of the kernel, up to ``_BATCH_ROWS`` rows
    at a time (a larger class alone), and handed out one at a time, so a caller that drops
    each class holds no more than one pass.  A class's arrays are views of its pass's.
    """
    batch, rows, total = [], [], 0
    for counts in _count_vectors(n_modes, size):
        class_rows = _rows(counts)
        if batch and total + class_rows > _BATCH_ROWS:
            yield from _split(batch, rows, total)
            batch, rows, total = [], [], 0
        batch.append(counts)
        rows.append(class_rows)
        total += class_rows
    yield from _split(batch, rows, total)


def _split(classes: list[tuple[int, ...]], rows: list[int], total: int) -> Iterator[ArrangementClass]:
    """The classes of one pass, one at a time, as views of the pass's arrays."""
    index, inversions = arrangement_tables(classes, total)
    start = 0
    for counts, stop in zip(classes, itertools.accumulate(rows)):
        yield ArrangementClass(counts, index[start:stop], inversions[start:stop])
        start = stop


def arrangement_tables(classes: list[tuple[int, ...]], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor index and inversion count of every arrangement of the count vectors
    ``classes``, all of one size over the same modes and ``rows`` rows in all, class after
    class, in one prefix-extension pass.

    Every prefix is extended by one position at a time: appending letter l adds the
    number of letters still to place that are smaller than l, since each of them will
    follow it.  Each prefix emits its extensions in letter order, in the order of the
    prefixes, so each class's rows come out together and in ascending tensor index.  The
    work and memory are O(rows), never O(n^N).  A word's last letter is forced and adds
    no inversion.

    This is the kernel behind :func:`arrangements` and :func:`arrangement_classes`.  It is
    public so that the benchmark's tracer, which wraps public functions only, times it as
    qsym work even when it runs inside the generator a verb consumes.
    """
    n_modes, size = len(classes[0]), sum(classes[0])
    if size * math.log2(max(n_modes, 1)) > 63:
        raise ValueError(f"the words of the class {classes[0]} have tensor indices past int64")
    if len(classes) == 1:
        check_budget("arrangements of the class {}",
                     *_class_cost("arrangements", n_modes, size, 1, rows), classes[0])
    else:
        check_budget("arrangements of the {} classes from {} to {}",
                     *_class_cost("arrangements", n_modes, size, len(classes), rows),
                     len(classes), classes[0], classes[-1])
    # the narrowest signed type that holds every count up to N (it holds -N - 1)
    left = np.array(classes, dtype=np.min_scalar_type(-size - 1))  # letters still to place
    index = np.zeros(len(classes), dtype=np.int64)
    inversions = np.zeros(len(classes), dtype=np.int64)
    # each temporary is dropped once spent: the last step peaks at 50 to 70 B per row
    for _ in range(size - 1):
        smaller = np.zeros_like(left)  # letters still to place below each letter
        for letter in range(1, n_modes):
            np.add(smaller[:, letter - 1], left[:, letter - 1], out=smaller[:, letter])
        extension = np.flatnonzero(left > 0)  # row-major: each prefix in letter order
        parents = extension // n_modes
        inversions = np.take(inversions, parents)
        inversions += np.take(smaller, extension)
        del smaller
        letters = np.subtract(extension, parents * n_modes, out=extension)
        index = np.take(index, parents)
        index *= n_modes
        index += letters
        left = np.take(left, parents, axis=0)
        del parents
        spent = np.arange(0, letters.size * n_modes, n_modes)  # each new prefix's row of left
        spent += letters
        left.ravel()[spent] -= 1
    if size:
        last = np.flatnonzero(left > 0)  # the one letter left to each prefix
        last -= np.arange(0, index.size * n_modes, n_modes)
        index *= n_modes
        index += last
    return index, inversions


def _class_size(counts) -> float:
    """Rows of the class of ``counts`` (zeros may be left out)."""
    size, log_rows = 0, 0.0
    for c in counts:  # one pass: every kernel guard calls this
        if c < 0:
            raise ValueError(f"counts must be nonnegative, got {tuple(counts)!r}")
        size, log_rows = size + c, log_rows - math.lgamma(c + 1)
    return size_estimate(math.lgamma(size + 1) + log_rows)


def _largest_class(n_modes: int, size: int) -> float:
    a, b = divmod(size, n_modes)  # the most balanced class: b letters a + 1 times, the rest a
    return _class_size([a + 1] * b + [a] * (n_modes - b if a else 0))


def _batch_rows(n_modes: int, size: int) -> float:
    """Most rows that one pass of the arrangement kernel builds on N letters: up to
    ``_BATCH_ROWS``, or the largest class alone, and never more than the n^N words."""
    words = size_estimate(size * math.log(n_modes))
    return min(max(_BATCH_ROWS, _largest_class(n_modes, size)), words)


def _class_totals(n_modes: int, size: int) -> tuple[float, float]:
    """Classes and rows over all classes of N letters: C(N + n - 1, n - 1) and n^N."""
    classes = size_estimate(math.lgamma(size + n_modes) - math.lgamma(n_modes) - math.lgamma(size + 1))
    return classes, size_estimate(size * math.log(n_modes))


def _class_cost(kernel: str, n_modes: int, size: int, classes: float, rows: float):
    """Peak bytes of one call and steps (~1 ns each) of ``classes`` calls of a class kernel
    on N letters, over ``rows`` rows in all.

    Fitted on cold calls on a 2-core x86-64 machine, and linear in calls and rows, so on
    the totals of ``_class_totals`` it equals the sum over the classes (but for the one
    vector "symmetrize" fills).  Each kernel prices only what it adds to a built class.
    "arrangements" builds ``classes`` classes in one pass (the bytes are those of the pass):
    ~100 B per row (50 to 70 B measured, 16 B kept) and ~(8n + 600) B per class for its
    count tuple, record and two views (8n + 370 to 8n + 730 measured, kept with the class).
    Its work terms, ~25 us per letter per class and ~350 ns per row, were fitted on one pass
    per class and now only err high: a pass takes ~15 us per letter and ~60 ns per row.
    "symmetrize" fills an n^N vector (8 B, ~1.5 ns per entry): ~40 us per class, ~15 ns and
    24 B per row, and ~20 N^2 B for its q^k over the N(N-1)/2 + 1 inversion counts (Python
    floats while ``_powers`` builds them).  "identity" is one exact division, ~70 us +
    22 ns * N^4.
    """
    if kernel == "arrangements":
        return 100 * rows + (8 * n_modes + 600) * classes, 25_000 * classes * size + 350 * rows
    if kernel == "symmetrize":
        dim = size_estimate(size * math.log(n_modes))
        return 8 * dim + 24 * rows + 20 * size * size, 1.5 * dim + 40_000 * classes + 15 * rows
    return 0, classes * (70_000 + 22 * size**4)  # "identity"


def _transposition_cost(n_modes: int, size: int, ops: float, products: float) -> tuple[float, float]:
    # ops built and kept (~50 us + 60 ns per word; 16 B per word each, and ~2 KiB + 20 B per
    # word more while one is built or multiplied: 16 to 17 B measured), then products with
    # a state or with itself (~15 us + 35 ns per word: the exchange sweep forms one of each
    # per transposition; cold calls on a 2-core x86-64 machine take 14 to 27 ns per word
    # for the square and 7 to 14 ns for the product with the state, so the charge errs high)
    dim = size_estimate(size * math.log(n_modes))
    return 2048 + (16 * ops + 20) * dim, ops * (50_000 + 60 * dim) + products * (15_000 + 35 * dim)


def _exchange_cost(n_modes: int, size: int, positions: float) -> tuple[float, float]:
    # the peak of one call beside the state vector (~4 KiB + 28 B per word; 16 to 25 B
    # measured, 16 B kept), then ``positions`` calls (~40 us + 15 ns per word each)
    dim = size_estimate(size * math.log(n_modes))
    return 4096 + 28 * dim, positions * (40_000 + 15 * dim)


def _prefactor(params: DeformationParams, counts: tuple[int, ...]) -> float:
    """sqrt(prod [n_k]! / [N]!), which depends only on q and the letter counts."""
    prefactor = 1.0
    for c in counts:
        prefactor *= q_factorial(params, c)
    return math.sqrt(prefactor / q_factorial(params, sum(counts)))


def _powers(q: float, size: int) -> np.ndarray:
    """q**k for k = 0..size(size-1)/2, every inversion count a word of that size can have.

    One Python pow per entry: numpy's float power can differ from it in the
    last bit, and the states must equal the reference sum exactly.
    """
    return np.array([q**k for k in range(size * (size - 1) // 2 + 1)])


def q_symmetrize(word: Word, params: DeformationParams) -> np.ndarray:
    """q-symmetrized state of a word as a dense vector of dimension n^N.

    The sum runs over the distinct arrangements of the letter multiset;
    each arrangement u carries the weight q^{R(word)} q^{R(u)} and the whole
    sum is scaled by sqrt(prod [n_k]! / [N]!).
    """
    rows = _class_size(collections.Counter(word.letters).values())  # word.counts has n_modes
    check_budget("q_symmetrize on the {}^{} tensor space",
                 *_class_cost("symmetrize", word.n_modes, word.size, 1, rows), word.n_modes, word.size)
    arrangement = arrangements(word.counts)
    vector = np.zeros(word.n_modes**word.size, dtype=np.float64)
    vector[arrangement.index] = _state_entries(arrangement, params, inversion_count(word.letters))
    return vector


def _state_entries(arrangement: ArrangementClass, params: DeformationParams, word_inversions: int = 0):
    """The entries of |w>_q on the rows of its class, for a word w of that class with
    R(w) = ``word_inversions`` (the sorted word by default): (q^{R(w)} prefactor) q^{R(u)}."""
    powers = _powers(params.q, sum(arrangement.counts))
    base = powers[word_inversions] * _prefactor(params, arrangement.counts)
    return (base * powers)[arrangement.inversions]


def bosonic_symmetrize(word: Word) -> np.ndarray:
    """Undeformed symmetric state: uniform over distinct arrangements, normalized."""
    rows = _class_size(collections.Counter(word.letters).values())
    check_budget("bosonic_symmetrize on the {}^{} tensor space",
                 *_class_cost("symmetrize", word.n_modes, word.size, 1, rows), word.n_modes, word.size)
    vector = np.zeros(word.n_modes**word.size, dtype=np.float64)
    vector[arrangements(word.counts).index] = 1.0
    vector /= np.linalg.norm(vector)
    return vector


def fundamental_norm(word: Word, params: DeformationParams) -> float:
    """Squared norm of the q-symmetrized state; equals q^{2 R(word)}."""
    vector = q_symmetrize(word, params)
    return float(vector @ vector)


def exchange_check(
    states: np.ndarray, size: int, n_modes: int, k: int, params: DeformationParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Check |w>_q = q^{eps(w_k, w_{k+1})} |swap_k(w)>_q at position k on every word of one size.

    ``states`` holds, at each word's tensor index, the entry there of its
    class's sorted-word state: x_w = (prefactor) q^{R(w)}.  The classes of a
    size cover its n^N words and each is closed under swaps, so one vector
    holds them all.  Returns ``(factors, residuals, allowance)``, indexed by word:
    the factor f = q^{eps}, the residual r0 = |x_w - fl(f x_s)|, where s is
    w with positions k, k+1 swapped, and the position's rounding allowance.

    The state of word w at arrangement u is x_w q^{R(u)}.  So the law at
    level 0 compares x_w with f x_s, and every other entry of the two states
    is that pair times q^L <= 1: with a = x_w, F = fl(f x_s) and p = fl(q^L),
    the computed entries fl(a p) and fl(f fl(x_s p)) differ by p (|a - f x_s|
    + u|a| + (2u + u^2)|f x_s|) <= r0 + u|a| + (3u + O(u^2))|F| at most,
    u = 2^-53 (each subtraction is exact, by Sterbenz, while the law holds
    within a factor 2).  The allowance is 4 u max(|x_w| + |F|): 3 u for the
    other levels, and one u for the second-order terms and for forming the
    allowance and r0 + allowance in floating point.  Equal adjacent letters
    swap a word onto itself with factor 1: the residual is then 0.

    Viewed as an (n^{k-1}, n, n, n^{N-k-1}) array, the words' letters at
    positions k and k+1 are axes 1 and 2, so the swapped words are the same
    array with those axes exchanged: no word index is formed.  The kernel
    holds about 16 B per word beside ``states``, which the caller has
    already allocated and priced.
    """
    if not 1 <= k < size:
        raise ValueError(f"positions must satisfy 1 <= k < {size}, got {k}")
    shape = (n_modes ** (k - 1), n_modes, n_modes, n_modes ** (size - k - 1))
    words = states.reshape(shape)  # refuses a vector that does not hold the n^N words
    comparator = [[params.q ** sign_compare(a, b) for b in range(n_modes)] for a in range(n_modes)]
    factors = np.broadcast_to(np.array(comparator)[:, :, np.newaxis], shape)
    image = words.swapaxes(1, 2) * factors  # f x_s at each word w
    residuals = np.subtract(words, image)
    np.abs(residuals, out=residuals)
    image += words  # neither is negative
    allowance = 4 * 2**-53 * float(image.max(initial=0.0))
    image[...] = factors  # the image is spent: its buffer returns the factors
    return image.ravel(), residuals.ravel(), allowance


def transposition_op(
    size: int, n_modes: int, k: int, params: DeformationParams
) -> tuple[np.ndarray, np.ndarray]:
    """Deformed transposition of tensor positions k, k+1 (1-based), as a weighted permutation.

    Acts on each basis word by swapping the letters at positions k and k+1
    with weight q^{-eps(letter_k, letter_{k+1})}.  The operator is its own
    inverse, and every q-symmetrized state is an eigenvector with
    eigenvalue 1.  Each row holds one entry, so it comes back as the pair
    ``(swapped, weights)``: row w holds ``weights[w]`` at column
    ``swapped[w]``, and T x is ``weights * x[swapped]``.  The swapped words
    come from index arithmetic on the letters; ``exchange_check`` swaps two
    axes instead, an independent route to the same words.
    """
    if size < 1 or n_modes < 1:
        raise ValueError("size and n_modes must be >= 1")
    if not 1 <= k < size:
        raise ValueError(f"positions must satisfy 1 <= k < {size}, got {k}")
    check_budget("transposition_op on the {}^{} tensor space",
                 *_transposition_cost(n_modes, size, 1, 0), n_modes, size)
    swapped = np.arange(n_modes**size)  # each word's index, until it is moved below
    stride_right = n_modes ** (size - k - 1)  # position k+1
    stride_left = stride_right * n_modes  # position k
    step = swapped // stride_left % n_modes
    step -= swapped // stride_right % n_modes  # left - right: letter k less letter k+1
    # index + (left - right) * stride_right + (right - left) * stride_left
    swapped -= step * (stride_left - stride_right)
    # row w holds the weight of the word it comes from, swapped(w), whose
    # eps is -eps(w): q^{-eps} there is q^{eps(w)}, one numpy power per value
    weights = params.q ** np.array([-1.0, 0.0, 1.0])
    np.sign(step, out=step)
    step += 1
    return swapped, weights[step]


def arrangement_sum(arrangement: ArrangementClass):
    """The exact arrangement sum sum_u q^{2 R(u)} over the rows of a class, tallied by
    inversion count.  Import is deferred so the tensor layer stays float-only unless the
    exact route is requested."""
    from .qpoly import QPolynomial

    tally = np.bincount(arrangement.inversions)
    return QPolynomial({2 * inversions: int(number) for inversions, number in enumerate(tally) if number})


def norm_identity_exact(counts: Sequence[int]):
    """Exact arrangement sum sum_u q^{2 R(u)} and the bracket multinomial.

    Returns the pair (arrangement_sum, multinomial) as exact polynomials;
    their equality is the closed form for the norms of q-symmetrized
    states.
    """
    from .qpoly import poly_q_multinomial

    counts = tuple(int(c) for c in counts)
    if not counts:
        raise ValueError("counts must be a nonempty sequence")
    check_budget("norm_identity_exact on the class {}",
                 *_class_cost("identity", len(counts), sum(counts), 1, _class_size(counts)), counts)
    return arrangement_sum(arrangements(counts)), poly_q_multinomial(counts)
