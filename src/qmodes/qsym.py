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

from .qcore import WORK_BUDGET, DeformationParams, check_budget, size_estimate
from .qcore import _factorial_array, _finite_factorial, _power_table

__all__ = [
    "Word",
    "arrangements",
    "word_keys",
    "word_tallies",
    "class_entries",
    "inversion_count",
    "sign_compare",
    "q_symmetrize",
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
    """Number of pairs a < b with letters[a] > letters[b]: each letter closes one with every
    earlier letter above it, read from the tally of the distinct letters so far (O(N d))."""
    earlier, count = collections.Counter(), 0
    for letter in letters:
        count += sum(number for other, number in earlier.items() if other > letter)
        earlier[letter] += 1
    return count


def sign_compare(i: int, j: int) -> int:
    """Three-valued comparator: +1 if i > j, -1 if i < j, 0 on ties."""
    if i > j:
        return 1
    if i < j:
        return -1
    return 0


# Entries of the count vectors enumerated together in one block of ``_count_vector_blocks``.
_COUNT_BLOCK = 2**12
# Words of one block of the all-words kernel: a size's words are keyed this many at a time at
# most (n at a time past this many modes).
_BLOCK_WORDS = 2**15


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


def arrangements(counts: Sequence[int]) -> np.ndarray:
    """The inversion count of every arrangement of a multiset, in ascending tensor order, as
    one int64 array from one prefix-extension pass.

    ``counts[l]`` is the multiplicity of letter l + 1.  The all-zero shape has one row, the
    empty arrangement.

    Every prefix is extended by one position at a time: appending letter l adds the
    number of letters still to place that are smaller than l, since each of them will
    follow it.  Each prefix emits its extensions in letter order, in the order of the
    prefixes, so the rows come out in ascending tensor order.  The work and memory are
    O(rows), never O(n^N).  A word's last letter is forced and adds no inversion, so N - 1
    steps place the rest.  Only the letters the class uses are stepped over: a letter of
    count zero adds neither an extension nor an inversion.
    """
    counts = tuple(int(c) for c in counts)
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts!r}")
    size = sum(counts)
    check_budget("arrangements of the class of {} letters, {} of them distinct",
                 *_class_cost(counts), size, sum(c > 0 for c in counts))
    # the letters still to place of each prefix, over the letters the class uses, in the
    # narrowest signed type that holds every count up to N (it holds -N - 1)
    left = np.array([[c for c in counts if c]], dtype=np.min_scalar_type(-size - 1))
    width = left.shape[1]
    inversions = np.zeros(1, dtype=np.int64)
    # each temporary is dropped once spent: the last step peaks at 40 to 48 B per row
    for _ in range(size - 1):
        smaller = np.zeros_like(left)  # letters still to place below each used letter
        for j in range(1, width):
            np.add(smaller[:, j - 1], left[:, j - 1], out=smaller[:, j])
        extension = np.flatnonzero(left > 0)  # row-major: each prefix in letter order
        parents = extension // width
        inversions = np.take(inversions, parents)
        inversions += np.take(smaller, extension)
        del smaller
        left = np.take(left, parents, axis=0)
        # each new prefix spends one copy of its letter, in its own row of left
        spent = np.subtract(extension, parents * width, out=extension)
        del parents
        spent += np.arange(0, spent.size * width, width)
        left.ravel()[spent] -= 1
    return inversions


def _words_of(n_modes: int, letters: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted letters (0 to n - 1, a (count, letters) view) and the inversion counts of
    the ``count`` words of ``letters`` letters over n modes from tensor index ``first`` on,
    built position by position."""
    table = np.empty((letters, count), dtype=np.min_scalar_type(n_modes))  # row t: each word's letter t
    index = np.arange(first, first + count)
    for position in range(letters - 1, -1, -1):  # the last letter is the lowest digit
        index, table[position] = np.divmod(index, n_modes)
    inversions = np.zeros(count, dtype=np.int64)
    for position in range(letters - 1):
        inversions += (table[position + 1 :] < table[position]).sum(axis=0)
    table.sort(axis=0)
    return table.T, inversions


def _rank_terms(n_modes: int, size: int) -> np.ndarray:
    """Entry t * n + l: what letter l + 1 at place t (from 0) of a sorted word of N letters
    adds to the rank of its count vector among those of N letters in lex order.

    The vectors below c in lex order first differ from it at some letter j, with a smaller
    count there.  Those with the y-th copy of letter j as the first difference, y < c_j,
    are the vectors of the r letters after that copy over the n - j letters past j, where
    r = N - t counts the places from the copy's place t on: C(r + n - j - 1, n - j - 1),
    and 0 for the last letter, whose count the others fix.  Row r of the table below holds
    C(r + k, k) for k = 0 to n - 2, the running sums of row r - 1.
    """
    table = np.ones((size + 1, n_modes), dtype=np.int64)
    for r in range(1, size + 1):
        np.cumsum(table[r - 1], out=table[r])
    terms = np.zeros((size, n_modes), dtype=np.int64)
    terms[:, :-1] = table[size:0:-1, n_modes - 2 :: -1]  # t = 0 reads row N; l = 0 reads k = n - 2
    return terms.ravel()


def _word_blocks(n_modes: int, size: int, kept: float = 0) -> Iterator[np.ndarray]:
    """The all-words kernel: the n^N words of N letters over n modes in tensor (lex) order,
    a block of consecutive words at a time, each word u as its key rank * width + R(u).
    The rank is that of u's count vector among those of N letters in lex order (the order of
    ``_count_vector_blocks``) and width = N(N - 1)/2 + 1 holds every inversion count.  The
    one budget check prices the kernel and the ``kept`` bytes its consumer holds beside it.

    A word is a prefix of N - s letters and a suffix of the last s, with s from
    ``_blocks``.  The suffixes' sorted letters, inversion counts and class ranks are built
    once; each block is the next prefixes times every suffix.  R(u) = R(prefix) + R(suffix)
    + the pairs of a prefix letter above a suffix letter: each word's own inversions, from
    its own letters.  That cross count and the rank depend on the prefix and on the suffix's
    class alone, so they are formed once for each prefix of the block and suffix class, by
    merging the two sorted letter rows, and gathered onto the suffixes.  The prefixes of a
    block hold at most a block of words and a block of (prefix, suffix class) letters.
    """
    if size * math.log2(max(n_modes, 1)) > 63:
        raise ValueError(f"the words of {size} letters over {n_modes} modes have tensor indices past int64")
    suffix, classes, step, nbytes, work = _blocks(n_modes, size)
    check_budget("the {}^{} words of the all-words kernel", nbytes + kept, work, n_modes, size)
    if not size:
        return iter([np.zeros(1, dtype=np.int64)])  # the one word of no letters
    return _keyed_blocks(n_modes, size, suffix, classes, step)


def _keyed_blocks(n_modes: int, size: int, suffix: int, classes: int, step: int) -> Iterator[np.ndarray]:
    """The blocks of ``_word_blocks``, once it has admitted the request."""
    width = size * (size - 1) // 2 + 1
    prefix, suffixes = size - suffix, n_modes**suffix
    letters, suffix_inversions = _words_of(n_modes, suffix, 0, suffixes)
    terms = _rank_terms(n_modes, suffix)
    suffix_ranks = np.zeros(suffixes, dtype=np.int64)  # each suffix's class among those of s letters
    for place in range(suffix):
        suffix_ranks += terms[place * n_modes :][letters[:, place]]  # no sum in the letters' narrow type
    ends = np.empty((classes, suffix), dtype=letters.dtype)  # each class's sorted letters
    ends[suffix_ranks] = letters  # the suffixes of a class share them
    del letters
    terms = _rank_terms(n_modes, size)
    for first in range(0, n_modes**prefix, step):
        heads, head_inversions = _words_of(n_modes, prefix, first, min(step, n_modes**prefix - first))
        rows = len(heads)
        # the head letters up to each letter, cumulated over the rows before too
        offsets = np.arange(rows) * n_modes
        at_most = np.bincount((heads + offsets[:, None]).ravel(), minlength=rows * n_modes).cumsum()
        # each suffix letter's place in the merged sorted word: the head letters not above
        # it (equal ones go first), then its own place in the suffix
        places = at_most[ends + offsets[:, None, None]]
        places -= (np.arange(rows) * prefix)[:, None, None]
        cross = prefix * suffix - places.sum(axis=2)
        places += np.arange(suffix)
        del at_most
        free = np.ones((rows, classes, size), dtype=bool)  # the head letters take the places left
        free.ravel()[places + (np.arange(rows * classes) * size).reshape(rows, classes, 1)] = False
        head_places = np.flatnonzero(free).reshape(rows, classes, prefix)
        head_places %= size
        del free
        ranks = terms[head_places * n_modes + heads[:, None, :]].sum(axis=2)
        ranks += terms[places * n_modes + ends].sum(axis=2)
        del head_places, places
        ranks *= width
        ranks += cross
        ranks += head_inversions[:, None]
        keys = np.take(ranks, suffix_ranks, axis=1)
        keys += suffix_inversions
        yield keys.ravel()


def word_keys(n_modes: int, size: int) -> np.ndarray:
    """The key rank * width + R(u) of every word u of N letters over n modes, in tensor
    order, from the all-words kernel (see ``_word_blocks``): word u's count vector has rank
    key // width among those of N letters in lex order, and u has key % width inversions."""
    blocks = _word_blocks(n_modes, size, 8 * _class_totals(n_modes, size)[1])
    keys = np.empty(n_modes**size, dtype=np.int64)
    start = 0
    for block in blocks:
        keys[start : start + block.size] = block
        start += block.size
    return keys


def word_tallies(n_modes: int, size: int) -> np.ndarray:
    """The (classes, N(N-1)/2 + 1) int64 table of the words of N letters over n modes whose
    row c holds at column k how many words of the c-th count vector (lex order) have k
    inversions: each block of the all-words kernel's keys added in one ``np.add.at``, whose
    work is the block's, where a ``np.bincount`` would also sweep every class's row."""
    width = size * (size - 1) // 2 + 1
    blocks = _word_blocks(n_modes, size, 8 * width * _class_totals(n_modes, size)[0])
    bins = math.comb(size + n_modes - 1, n_modes - 1) * width
    tally = np.zeros(bins, dtype=np.int64)
    for keys in blocks:
        np.add.at(tally, keys, 1)
    return tally.reshape(-1, width)


def class_entries(params: DeformationParams, n_modes: int, size: int) -> np.ndarray:
    """The (classes, N(N-1)/2 + 1) table whose row c holds at column k the entry of the
    sorted-word state of the c-th count vector of N letters (lex order) at an arrangement
    with k inversions: prefactor_c q^k, from :func:`_prefactors` as ``_state_table`` forms it.
    Gathered at the keys of ``word_keys`` it is every class's state in one n^N vector."""
    blocks = _count_vector_blocks(n_modes, size, max(1, _COUNT_BLOCK // n_modes))
    prefactors = np.concatenate([_prefactors(params, size, counts) for counts in blocks])
    return prefactors[:, None] * _power_table(params, params.q, size * (size - 1) // 2 + 1)


def _class_size(counts) -> float:
    """Rows of the class of ``counts`` (zeros may be left out)."""
    size, log_rows = 0, 0.0
    for c in counts:  # one pass: every kernel guard calls this
        if c < 0:
            raise ValueError(f"counts must be nonnegative, got {tuple(counts)!r}")
        size, log_rows = size + c, log_rows - math.lgamma(c + 1)
    return size_estimate(math.lgamma(size + 1) + log_rows)


def _largest_class(n_modes: int, size: int) -> tuple[int, ...]:
    """The counts of the most balanced class, the one of most rows: b letters a + 1 times and
    the rest a times, for N = a n + b, with no zero counts."""
    a, b = divmod(size, n_modes)
    return (a + 1,) * b + (a,) * (n_modes - b if a else 0)


def _prefix_extensions(counts: tuple[int, ...]) -> int:
    """Prefixes the arrangement kernel's steps extend on the class of ``counts`` (nonzero, in
    increasing order): sum multinomial(b) over the sub-multisets b with 0 < |b| < N.  Its terms
    with |b| = k over the letters before the most common one, P_k, grow a letter at a time
    (j copies among k letters: C(k + j, j) ways), and c copies of the most common letter add
    C(c + k + 1, k + 1)."""
    if not counts:
        return 0
    *rest, top = counts
    prefixes = [1]
    for c in rest:
        grown = [0] * (len(prefixes) + c)
        for k, number in enumerate(prefixes):
            for j in range(c + 1):
                grown[k + j] += number * math.comb(k + j, j)
        prefixes = grown
    total = sum(number * math.comb(top + k + 1, k + 1) for k, number in enumerate(prefixes))
    return total - 1 - prefixes[-1] * math.comb(sum(counts), top)  # no empty or whole word


def _class_totals(n_modes: int, size: int) -> tuple[float, float]:
    """Classes and words of N letters over n modes: C(N + n - 1, n - 1) and n^N."""
    classes = size_estimate(math.lgamma(size + n_modes) - math.lgamma(n_modes) - math.lgamma(size + 1))
    return classes, size_estimate(size * math.log(n_modes))


def _blocks(n_modes: int, size: int) -> tuple[int, int, int, float, float]:
    """The all-words kernel's layout on N letters and blocks of ``_BLOCK_WORDS`` words: its
    suffix letters s, of those whose n^s words fit a block (at least one; all of them over
    one mode) the one of least estimated work, since a longer suffix costs more to build
    once and a shorter one more (prefix, suffix class) pairs; then, from ``_layout``, its
    suffix classes, prefixes a block, peak bytes and steps."""
    suffix = min(size, 1) if n_modes > 1 else size
    while suffix < size and n_modes ** (suffix + 1) <= _BLOCK_WORDS:
        suffix += 1
    suffix = min(range(min(suffix, 1), suffix + 1), key=lambda s: _layout(n_modes, size, s)[3])
    return (suffix,) + _layout(n_modes, size, suffix)


def _layout(n_modes: int, size: int, suffix: int) -> tuple[int, int, float, float]:
    """Suffix classes, prefixes a block (at most a block of words and a block of (prefix,
    suffix class) letters), peak bytes and steps of the all-words kernel on N letters with a
    suffix of s letters, beside what its consumer keeps.  Bytes: the suffix table, ~(40 + s)
    B a suffix while it is built (16 B kept); two blocks' keys, 8 B a word each (the
    consumer holds one block while the next is formed); and a block's (prefix, suffix class)
    letters, ~40 B each.  Steps: ~150 us + 30 us per letter, ~(3 s^2 + 20 s)
    ns a suffix, ~5 ns a word, and a block ~60 us + 5 us per prefix letter and ~40 ns per
    (prefix, suffix class) letter.  Fitted on cold runs on a 2-core x86-64 machine."""
    classes, suffixes = math.comb(suffix + n_modes - 1, n_modes - 1), n_modes**suffix
    step = max(1, min(_BLOCK_WORDS // suffixes, _BLOCK_WORDS // (classes * size or 1)))
    words = _class_totals(n_modes, size)[1]
    heads = min(step, words / suffixes)  # prefixes a block
    blocks = math.ceil(words / suffixes / step)
    letters = heads * classes * size  # (prefix, suffix class) letters a block
    nbytes = 12_288 + (40 + suffix) * suffixes + 16 * heads * suffixes + 40 * letters
    work = 150_000 + 30_000 * size + (3 * suffix**2 + 20 * suffix) * suffixes + 5 * words
    return classes, step, nbytes, work + blocks * (60_000 + 5_000 * (size - suffix) + 40 * letters)


def _multisets(n_modes: int, size: int) -> int:
    """Multisets of N letters over n modes: the partitions of N into at most n parts."""
    table = [1] + [0] * size
    for part in range(1, min(n_modes, size) + 1):
        for total in range(part, size + 1):
            table[total] += table[total - part]
    return table[size]


def _class_cost(counts: Sequence[int]) -> tuple[float, float]:
    """Peak bytes and steps (~1 ns each) of the arrangement kernel on the class of ``counts``,
    N letters over n = len(counts) modes of which m are used, fitted on cold calls on a
    2-core x86-64 machine: ~100 B per row (40 to 48 B measured, 8 B kept) and ~(8n + 600) B
    for its count tuple and arrays; ~23 us + 0.3 us per mode, ~40 us + 2 us per
    used letter a letter, 60 ns a row and ~(20 + 8m) ns a prefix extension (3 to 22 ns
    measured at m = 2 to 10; in all 0.36 to 0.85 of the steps): the 5e5 rows of (1000, 2)
    take 1.7e8 extensions, 2.5 to 4.8 s."""
    n_modes, size, rows = len(counts), sum(counts), _class_size(counts)
    used = tuple(sorted(filter(None, counts)))
    # past 2^24 rows, whose bytes pass the budget, a length has at most one prefix per row
    extensions = size * rows if rows > 2**24 else _prefix_extensions(used)
    steps = size * (40_000 + 2_000 * len(used)) + (20 + 8 * len(used)) * extensions
    return 100 * rows + 8 * n_modes + 600, 23_000 + 300 * n_modes + steps + 60 * rows


def _words_cost(n_modes: int, size: int) -> tuple[float, float]:
    """Peak bytes and steps of the all-words kernel on the n^N words of N letters (see
    ``_layout``): at n = 1 to 200000 and N = 1 to 22 its traced peak was 0.37 to 0.9 of
    the bytes, and its time 0.1 to 0.7 of the steps."""
    return _blocks(n_modes, size)[3:]


def _entries_cost(n_modes: int, size: int) -> tuple[float, float]:
    """Peak bytes and steps of ``class_entries`` on N letters and of gathering the n^N state
    vector from it: the table and the prefactors, 8 B a class and column, a block of count
    vectors, ~48 B a count (29 to 52 B measured), and ~4 KiB + 150 (N + 1)^2 B more (the
    q-factorials and powers: 13 to 70 kB measured at N = 14 to 30); ~50 ns a class and mode,
    ~3 ns a class and inversion count and ~3 ns a word."""
    classes, words = _class_totals(n_modes, size)
    width = size * (size - 1) // 2 + 1
    counts = n_modes * min(classes, max(1, _COUNT_BLOCK // n_modes))
    return 8 * classes * (width + 1) + 48 * counts + 4096 + 150 * (size + 1) ** 2, classes * (50 * n_modes + 3 * width) + 3 * words


def _identity_cost(n_modes: int, size: int) -> float:
    """Steps of the identity check on N letters over n modes beside the all-words kernel:
    its tally, ~8 ns a word (3 to 7 ns measured); ~60 ns a class and mode to enumerate, sort
    and compare the classes; [N]! as [N-1]! [N], ~250 ns N^3 (150 to 190 ns N^3 measured at
    N = 20 to 80); and an exact division per multiset of counts, ~70 us + 30 ns N^4 (17 to
    27 ns N^4 measured at n = 2 to 10, N = 10 to 40; ~10 ns N^3 for the one-part multiset,
    whose quotient is 1).  The multisets are counted only when one division fits the work
    budget; past it one is enough to refuse."""
    classes, words = _class_totals(n_modes, size)
    work = 8 * words + 60 * n_modes * classes
    division = 70_000 + 30 * size**4
    multisets = _multisets(n_modes, size) if division <= WORK_BUDGET else 2
    return work + 70_000 + 260 * size**3 + (multisets - 1) * division


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
    # measured, 16 B kept, and ~16 B per pair of letters for its table of q^eps and the
    # comparisons it is gathered at), then ``positions`` calls (~40 us + 15 ns per word each)
    dim = size_estimate(size * math.log(n_modes))
    return 4096 + 28 * dim + 16 * n_modes**2, positions * (40_000 + 15 * dim)


def _prefactors(params: DeformationParams, size: int, counts) -> np.ndarray:
    """sqrt(prod [n_k]! / [N]!), which depends only on q and the letter counts, for each row
    (n_1, ..., n_n) of ``counts``, every row of N = ``size`` letters: the product is taken
    over the counts in letter order."""
    factorials = _factorial_array(params, size + 1)
    prefactors = np.multiply.reduce(factorials[np.asarray(counts, dtype=np.intp)], axis=1, initial=1.0)
    prefactors /= _finite_factorial(params, size, factorials[size])
    return np.sqrt(prefactors, out=prefactors)


def _state_table(params: DeformationParams, counts: Sequence[int], word_inversions: int = 0) -> np.ndarray:
    """(q^{R(w)} prefactor) q^k for k = 0 to the most inversions of the class of ``counts``,
    sum_{i<j} c_i c_j, a table no longer than the class: the entry of |w>_q at each arrangement
    of k inversions, for a word w of that class with R(w) = ``word_inversions`` (the sorted
    word by default)."""
    size = sum(counts)
    powers = _power_table(params, params.q, (size**2 - sum(c * c for c in counts)) // 2 + 1)
    return powers[word_inversions] * _prefactors(params, size, [counts])[0] * powers


def q_symmetrize(word: Word, params: DeformationParams) -> np.ndarray:
    """q-symmetrized state of a word as a dense vector of dimension n^N.

    The sum runs over the distinct arrangements of the letter multiset;
    each arrangement u carries the weight q^{R(word)} q^{R(u)} and the whole
    sum is scaled by sqrt(prod [n_k]! / [N]!): ``_state_table``'s entry at R(u).
    The arrangements are the all-words kernel's words whose keys lie in the row of the
    class's rank, which ``_rank_terms`` gives over the word's sorted letters.  The kernel's
    guard, with the vector as the bytes kept beside it, is the one guard of the state, and
    runs before the table is formed; the table has one entry per inversion count of the
    class (one for a class of one letter), so it is never longer than the class.
    """
    n_modes, size = word.n_modes, word.size
    blocks = _word_blocks(n_modes, size, 8 * _class_totals(n_modes, size)[1])
    vector = np.zeros(n_modes**size, dtype=np.float64)
    # letter l + 1 at place t of the sorted word reads entry t n + l; no array outlives the rank
    rank = int(_rank_terms(n_modes, size)[np.sort(word.letters) - 1 + np.arange(size) * n_modes].sum())
    # the counts of the letters the word uses, in letter order ([0]! = 1 drops out)
    used = collections.Counter(word.letters)
    table = _state_table(params, [used[l] for l in sorted(used)], inversion_count(word.letters))
    width, start = size * (size - 1) // 2 + 1, 0
    first = rank * width  # the class's keys are first + R(u)
    for keys in blocks:
        hit = np.flatnonzero((keys >= first) & (keys < first + width))
        vector[start + hit] = table[keys[hit] - first]
        start += keys.size
    return vector


def fundamental_norm(word: Word, params: DeformationParams) -> float:
    """Squared norm of the q-symmetrized state; equals q^{2 R(word)}.  It is taken over the
    entries of the word's class alone, with the counts of the letters it uses in letter order:
    dropping unused letters keeps each row's inversions and the prefactor, and no n^N vector
    is formed."""
    used = collections.Counter(word.letters)
    counts = [used[l] for l in sorted(used)]
    inversions = arrangements(counts)  # the class guard, before the table is formed
    entries = _state_table(params, counts, inversion_count(word.letters))[inversions]
    return float(entries @ entries)


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
    letters = np.arange(n_modes)
    comparator = _exchange_factors(params)[np.sign(np.subtract.outer(letters, letters)) + 1]
    factors = np.broadcast_to(comparator[:, :, np.newaxis], shape)
    image = words.swapaxes(1, 2) * factors  # f x_s at each word w
    residuals = np.subtract(words, image)
    np.abs(residuals, out=residuals)
    image += words  # neither is negative
    allowance = 4 * 2**-53 * float(image.max(initial=0.0))
    image[...] = factors  # the image is spent: its buffer returns the factors
    return image.ravel(), residuals.ravel(), allowance


def _exchange_factors(params: DeformationParams) -> np.ndarray:
    """q^eps for eps = -1, 0, 1, each a Python float power."""
    return np.array([params.q**-1, 1.0, params.q])


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
    come from index arithmetic on the letters, in int32: the guard admits
    no space near 2^31 words.  ``exchange_check`` swaps two axes instead,
    an independent route to the same words.
    """
    if size < 1 or n_modes < 1:
        raise ValueError("size and n_modes must be >= 1")
    if not 1 <= k < size:
        raise ValueError(f"positions must satisfy 1 <= k < {size}, got {k}")
    check_budget("transposition_op on the {}^{} tensor space",
                 *_transposition_cost(n_modes, size, 1, 0), n_modes, size)
    # each word's index, until it is moved below
    swapped = np.arange(n_modes**size, dtype=np.int32)
    stride_right = n_modes ** (size - k - 1)  # position k+1
    stride_left = stride_right * n_modes  # position k
    step = swapped // stride_left % n_modes
    step -= swapped // stride_right % n_modes  # left - right: letter k less letter k+1
    # index + (left - right) * stride_right + (right - left) * stride_left
    swapped -= step * (stride_left - stride_right)
    # row w holds the weight of the word it comes from, swapped(w), whose
    # eps is -eps(w): q^{-eps} there is q^{eps(w)}
    np.sign(step, out=step)
    step += 1
    return swapped, _exchange_factors(params)[step]


def norm_identity_exact(counts: Sequence[int]):
    """Exact arrangement sum sum_u q^{2 R(u)} and the bracket multinomial.

    Returns the pair (arrangement sum, multinomial) as exact polynomials, the sum tallied
    by inversion count; their equality is the closed form for the norms of q-symmetrized
    states.  Import is deferred so the tensor layer stays float-only unless it is requested.
    """
    from .qpoly import QPolynomial, _factorial_bytes, poly_q_multinomial

    counts = tuple(int(c) for c in counts)
    if not counts:
        raise ValueError("counts must be a nonempty sequence")
    # one class and one division (of cost ~N^3 for one part), with [0]! to [N]! built in
    # turn as in an identity sweep (the cache may hold none of them) and kept in qpoly
    size = sum(counts)
    work = sum(_identity_cost(1, t) for t in range(size + 1))
    work += 70_000 + 30 * size**4 if sum(c > 0 for c in counts) > 1 else 0
    check_budget("norm_identity_exact on the class {}", _factorial_bytes(size), work, counts)
    arrangement_sum = QPolynomial._from_dense(np.bincount(arrangements(counts)).tolist())
    return arrangement_sum, poly_q_multinomial(counts)
