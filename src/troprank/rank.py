"""Tropical rank: largest k with a tropically nonsingular k x k submatrix.

The level search runs k = 1, 2, ... and stops at the first level with no
nonsingular submatrix, which is then exhaustively refuted.  Stopping there is
sound: a nonsingular (k+1)x(k+1) matrix always contains a nonsingular k x k
submatrix (normalize the unique optimal permutation onto the diagonal; every
nontrivial cycle then carries strictly positive weight, and that survives
deleting any diagonal vertex), so the nonsingular levels form a prefix.

Witness order: rows ranked by decreasing finite-entry count (ties by index),
row sets the k-combinations of that ranking, each sorted; columns likewise;
every column set within a row set.  A level's witness is its first
nonsingular pair in this order, whichever scan finds it.

Tropical scaling (subtract each row's finite minimum, then each column's)
adds the same amount to every permutation sum of a submatrix, so it changes
no nonsingularity; the scaled matrix's finite entries are >= 0, and every row
and column with one holds a 0.  Levels k <= 5 of more than _GENERIC_CUTOFF
(1,000) pairs are classified by the zero pattern of each scaled submatrix
alone, treating every nonzero entry (inf too) as an unknown positive weight:

  SINGULAR     singular for every positive weighting;
  NONSINGULAR  exactly one all-zero permutation, so nonsingular for every
               positive weighting (all other sums are positive);
  WEIGHTED     the rest: the weighted assignment problem decides.

The support of a permutation is the set of nonzero cells it uses.  A block
is SINGULAR iff every inclusion-minimal support is the support of at least
two permutations (two or more all-zero permutations is the case of the empty
support).  If so, a finite minimizer's support is minimal, since a proper
subset would cost less, and a second permutation with that support costs the
same; an infinite minimum is singular anyway.  Conversely, weight 1 on a
minimal support used by one permutation and k + 1 on every other nonzero
cell makes that permutation the unique minimum.  No inf case is needed.

A k x k zero block is held as k column codes (bit i of a column's code set
when its row i is zero).  Permuting a block's columns permutes its
permutations, so its all-zero permutation count and its class depend only on
the multiset of its codes.  For k <= 4 a multiset is keyed by its code
histogram, one nibble per code: sum_t 1 << 4*code_t, a uint64 at k = 4.  One
table per k, built on first use, holds the keys of all C(2**k + k - 1, k)
multisets (3,876 at k = 4) in ascending order with their counts and classes.
Ascending key order is the colexicographic order of the sorted codes, so the
table is generated in that order, each multiset as its key and its block's
k row masks, and a block's row is the rank of its codes sorted, a_0 <= ...
<= a_(k-1): sum_t C(a_t + t, t + 1).  The counts come from a (k, 2**k)
table of the permutations, one bit each, whose row-i column lies in each
mask: a block's all-zero permutations are the AND of its k lookups, and the
support rule is one more such AND per permutation.  For k = 5 and 6 the
count is expanded along the last column into (k-1)-counts, and the class is
read from the count (0 is WEIGHTED).  For k <= 4 a row set is skipped
outright when no non-SINGULAR multiset of k codes fits in the codes of its
columns.  That verdict depends only on the row set's code histogram capped
at k, itself a multiset key, against which every non-SINGULAR key is tested
by one guarded subtraction.  The histogram is counted without codes: each
zero row is packed into 64-column words once per call, F(S), the number of
columns zero in every row of a subset S, is the popcount of the AND of S's
words, and Moebius inversion over the subsets of the row set turns F into
the histogram.  A row set's filter cost thus grows with the column count
only in words of 64, and column codes are built only for the row sets the
filter keeps.  A block of row sets gets one verdict per distinct capped
histogram, mapped back.

The classification streams row sets in witness order, resolving their
WEIGHTED pairs with the weights in batches, and stops at the first row set
holding a nonsingular pair of either class; its first such pair is the
witness.  Only WEIGHTED pairs need arithmetic.  The first batch closes at
one row set's pairs and each later one may hold twice as many, up to
_RESOLVE_CHUNK, so a witness in an early row set costs little.  Row sets
are filtered a block at a time and only those kept are classified.  Blocks
are addressed by rank in witness order, so a walk resumes where the
classified prefix ends without producing the row sets before it, and a
level's column sets are built only when a kept row set first reads them.
For the PG(2,q) incidence matrices, q <= 13 (Fano included), every level-4
pair is SINGULAR, and their refutation holds for every positive weighting of
the pattern (``RankResult.weight_free``).  For q <= 9 every level-4 row set
is skipped (no level-4 column set is built), and their level-4 row sets have
only 5 or 6 distinct capped histograms, so the filter's cost is the
histograms themselves.

Levels of at most _GENERIC_CUTOFF pairs go pair by pair through the exact
assignment check: there a witness among the first pairs is cheaper than
setting up a classification (a few tenths of a millisecond per level).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Optional

import numpy as np

from .assignment import min_permutation
from .tropical import TropicalMatrix

# Levels of at most this many (row-set, col-set) pairs are tested pair by pair.
_GENERIC_CUTOFF = 1_000
# Largest level the zero-pattern classification handles.
_CLASSIFY_MAX_K = 5
# inf in the int64 cost view; _CLASSIFY_MAX_K of these sum below 2**63.
_DENSE_INF = 2**60

# Permutations of the classified levels: they build the _Multisets tables
# (k <= 4) and _PERM_CELLS, which sums the weighted pairs' costs.
_PERMS = {k: tuple(itertools.permutations(range(k))) for k in range(1, _CLASSIFY_MAX_K + 1)}
# (k!, k) flat cells i * k + perm[i] of each permutation in a k x k block.
_PERM_CELLS = {k: np.array([[i * k + c for i, c in enumerate(p)] for p in perms]) for k, perms in _PERMS.items()}
# Largest block _zero_perm_counts handles; the sampler filters its draws up to it.
_COUNT_MAX_K = 6
# Block classes, ordered so that min(all-zero permutation count, 2) is the
# class of every block but the WEIGHTED-by-count ones the rule makes SINGULAR.
_WEIGHTED, _NONSINGULAR, _SINGULAR = 0, 1, 2
# Bit 3 of every nibble: the guard bits of _may_hold_open's fit test.
_GUARDS = np.uint64(0x8888888888888888)


@dataclass(frozen=True)
class RankResult:
    """Outcome of the level search.

    ``certified`` is True when no budget stopped the search.  Then either
    the next level was exhaustively refuted (``refuted_level = rank + 1``)
    and the rank is exact, or a witness reached the search cap
    (``refuted_level = None``), which certifies rank >= the cap: exact only
    when the cap is min(rows, cols).  A budget stop leaves the best witness
    found with ``certified = False``.  ``weight_free`` is True when the
    refuted level was classified without weights (every pair SINGULAR), so
    the refutation holds for every positive weighting of the scaled matrix's
    zero pattern; False says only that this was not shown (a level small
    enough for the pair-by-pair scan is never classified).
    """

    rank: int
    row_witness: Optional[tuple]
    col_witness: Optional[tuple]
    certified: bool
    refuted_level: Optional[int]
    budget_exhausted: bool
    pairs_examined: int
    weight_free: bool


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount) -> bool:
        """Charge `amount`; False when the budget is already gone."""
        if self.limit is not None and self.used + amount > self.limit:
            return False
        self.used += amount
        return True


@dataclass(frozen=True)
class _Views:
    """The arrays a classified level reads, of the scaled matrix, derived
    once per call; the row-set filter's packed zero_words only when it first
    runs."""

    zero: np.ndarray              # True where the scaled entry is exactly 0
    finite: np.ndarray            # True where the entry is finite
    dense: Optional[np.ndarray]   # int64 scaled cost, inf as _DENSE_INF; None on overflow

    @functools.cached_property
    def zero_words(self) -> np.ndarray:
        """(words, rows) uint64: bit t of word w of row i set when column
        64*w + t is zero there, the last word padded with clear bits.  Packed
        when the row-set filter first runs, so a call answered from the
        classification cache does not pay for it."""
        rows, cols = self.zero.shape
        padded = np.zeros((rows, -(-cols // 64) * 64), dtype=bool)
        padded[:, :cols] = self.zero
        return np.ascontiguousarray(np.packbits(padded, axis=1).view(np.uint64).T)


def _level_views(cost):
    """_Views of a matrix's integer cost, tropically scaled: each row's
    finite minimum subtracted, then each column's.  One int64 array, inf as
    _DENSE_INF, gives all three views when every finite entry lies within
    +-_DENSE_INF // _CLASSIFY_MAX_K before and after scaling: counting the
    cells within that bound against the non-None ones also catches a finite
    entry equal to _DENSE_INF.  Otherwise dense is None, and the masks come
    from the exact ints, scaled the same way.  A pass whose minima are all 0
    or inf subtracts nothing and is skipped, and so is the second count when
    neither pass subtracts."""
    bound = _DENSE_INF // _CLASSIFY_MAX_K
    try:
        dense = np.array([_DENSE_INF if c is None else c for row in cost for c in row], dtype=np.int64)
    except OverflowError:  # an entry outside int64
        dense = None
    if dense is not None:
        dense = dense.reshape(len(cost), -1)
        finite_count = dense.size - sum(row.count(None) for row in cost)
        if dense.min() >= -bound and np.count_nonzero(dense <= bound) == finite_count:
            finite = dense != _DENSE_INF
            subtracted = False
            for axis in (1, 0):  # inf, the largest entry, is the minimum of all-inf lines only
                lows = dense.min(axis, keepdims=True)
                if np.count_nonzero(lows) and (lows % _DENSE_INF).any():  # a minimum not 0 or inf
                    np.subtract(dense, lows, out=dense, where=finite)
                    subtracted = True
            if not subtracted or np.count_nonzero(dense <= bound) == finite_count:
                return _Views(dense == 0, finite, dense)
    scaled = zip(*_minus_row_minima(list(zip(*_minus_row_minima(cost)))))  # columns, then back
    zero = np.array([[c == 0 for c in row] for row in scaled], dtype=bool)
    return _Views(zero, np.array([[c is not None for c in row] for row in cost], dtype=bool), None)


def _minus_row_minima(rows):
    """Each row of exact ints (None for inf) less its finite minimum."""
    lows = [min((c for c in row if c is not None), default=0) for row in rows]
    return [[None if c is None else c - low for c in row] for row, low in zip(rows, lows)]


def _is_nonsingular_cost(cost, rows, cols) -> bool:
    return min_permutation([[cost[i][j] for j in cols] for i in rows])[2]


def _witness_order(inf_per_axis):
    """Indices by increasing inf count, that is by decreasing finite-entry
    count, ties by index (the sort is stable)."""
    return sorted(range(len(inf_per_axis)), key=inf_per_axis.__getitem__)


def _witness_orders(cost):
    """(rows, columns) of a matrix's integer cost, each in witness order.
    Without an inf in any row, no column holds one either."""
    rows = [row.count(None) for row in cost]
    cols = [col.count(None) for col in zip(*cost)] if any(rows) else [0] * len(cost[0])
    return _witness_order(rows), _witness_order(cols)


def _ordered_combos(order, k):
    """k-combinations of an axis in witness order, each sorted."""
    for combo in itertools.combinations(order, k):
        yield tuple(sorted(combo))


def _generic_level_scan(cost, orders, k, budget):
    """('witness', (R, C)) | ('exhausted', None) | ('budget', None)."""
    row_order, col_order = orders
    for rc in _ordered_combos(row_order, k):
        for cc in _ordered_combos(col_order, k):
            if not budget.spend(1):
                return "budget", None
            if _is_nonsingular_cost(cost, rc, cc):
                return "witness", (rc, cc)
    return "exhausted", None


def _column_codes(zero: np.ndarray) -> np.ndarray:
    """uint8 column codes of a (..., k, cols) bool stack, k <= 8: bit i of
    codes[..., t] is set when row i, column t is zero."""
    codes = zero[..., 0, :].astype(np.uint8)
    for i in range(1, zero.shape[-2]):
        codes |= zero[..., i, :].view(np.uint8) << i
    return codes


class _Multisets(NamedTuple):
    """Every multiset of k <= 4 column codes, C(2**k + k - 1, k) of them, in
    ascending key order, with the all-zero permutation count and the class of
    the blocks whose columns have those codes."""

    keys: np.ndarray      # uint64, strictly ascending
    counts: np.ndarray    # uint8, at most 4! = 24
    classes: np.ndarray   # uint8
    terms: np.ndarray     # (k, 2**k) intp: terms[t, a] = C(a + t, t + 1)


@functools.cache
def _multisets(k: int) -> _Multisets:
    """The _Multisets table of k <= 4, built on first use.

    Rows come in colexicographic order of their sorted codes (the largest
    code compared first), which is ascending key order: the multisets whose
    largest code is c follow those below c, and are the first C(c + k - 1,
    k - 1) multisets of k - 1 codes, in that order, each extended by c.
    Each multiset is built as its key and its block's k row masks, bit t of
    mask i set when row i, column t is zero.

    inside[i, mask] has bit p set when permutation p's row-i column lies in
    mask, so the AND of a block's k lookups holds its all-zero permutations.
    Only blocks with none need the support rule: p's support is minimal and
    used once iff p is the only permutation inside the zero cells and p's
    own cells, where inside[i, mask | 1 << c] is inside[i, mask] |
    inside[i, 1 << c]."""
    n = 1 << k
    codes = np.arange(n, dtype=np.uint8)
    nibbles = np.left_shift(np.uint64(1), 4 * codes.astype(np.uint64))  # the key of each code alone
    code_bits = (codes >> np.arange(k, dtype=np.uint8)[:, None]) & 1  # (k, codes): bit i of each code
    keys, rows = nibbles, code_bits  # (multisets), (k, multisets), for one code
    for t in range(1, k):
        heads = np.array([comb(c + t, t) for c in range(n)])  # multisets of t codes at most c
        at = np.arange(heads.sum()) - np.repeat(np.cumsum(heads) - heads, heads)
        last = np.repeat(codes, heads)
        keys = keys[at] + nibbles[last]
        rows = rows[:, at] | code_bits[:, last] << t
    perms = np.array(_PERMS[k], dtype=np.uint8).T  # (k, k!): row i's column in each permutation
    bits = np.left_shift(np.uint64(1), np.arange(perms.shape[1], dtype=np.uint64))  # bit p: permutation p
    inside = (((codes >> perms[:, :, None]) & 1) * bits[:, None]).sum(axis=1)  # (k, masks)
    held = np.take_along_axis(inside, rows.astype(np.intp), axis=1)  # (k, multisets)
    counts = _popcount(np.bitwise_and.reduce(held, axis=0)).astype(np.uint8, copy=False)
    todo = np.nonzero(counts == 0)[0]
    held = held[:, todo]
    own = np.take_along_axis(inside, np.left_shift(1, perms.astype(np.intp)), axis=1)  # (k, k!): p's cells
    separating = np.zeros(len(todo), dtype=bool)
    for p, bit in enumerate(bits):
        separating |= functools.reduce(np.bitwise_and, (held[i] | own[i, p] for i in range(k))) == bit
    classes = np.minimum(counts, _SINGULAR)
    classes[todo[~separating]] = _SINGULAR
    terms = np.array([[comb(a + t, t + 1) for a in range(n)] for t in range(k)], dtype=np.intp)
    table = _Multisets(keys, counts, classes, terms)
    for array in table:
        array.flags.writeable = False  # shared by every caller
    return table


def _multiset_rows(codes: np.ndarray) -> np.ndarray:
    """Each pair's row in _multisets(k) of a (pairs, k) uint8 array of column
    codes, k <= 4: the colexicographic rank sum_t C(a_t + t, t + 1) of its
    codes sorted, a_0 <= ... <= a_(k-1), by a network of compare-exchanges."""
    k = codes.shape[1]
    cols = [codes[:, t] for t in range(k)]
    for top in range(1, k):
        for t in range(top, 0, -1):
            cols[t - 1], cols[t] = np.minimum(cols[t - 1], cols[t]), np.maximum(cols[t - 1], cols[t])
    terms = _multisets(k).terms
    return sum(terms[t].take(a) for t, a in enumerate(cols))


def _swar_popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64, as uint8 like np.bitwise_count: bit pairs,
    then nibbles, then bytes summed."""
    words = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    words = (words & np.uint64(0x3333333333333333)) + ((words >> np.uint64(2)) & np.uint64(0x3333333333333333))
    words = (words + (words >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((words * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.uint8)


# numpy >= 2.0 counts bits natively; the numpy 1.24 floor has no bitwise_count.
_popcount = getattr(np, "bitwise_count", _swar_popcount)


def _code_histograms(views: _Views, rows: np.ndarray) -> np.ndarray:
    """(2**k, row sets) histograms of the column codes of a (row sets, k)
    array of row sets: entry c counts the columns whose code is c.

    F(S), the number of columns zero in every row of S, is the popcount of
    the AND of S's zero words.  The subsets holding row i as their highest
    extend those below 2**i by one AND, so k ANDs build all 2**k.  F(S) sums
    the histogram over the codes holding S, so Moebius inversion, one pass
    of subtractions per row, gives the histogram.  Every partial sum counts
    columns, so int16 holds it below 2**15 columns."""
    k, cols = rows.shape[1], views.zero.shape[1]
    gathered = views.zero_words.take(rows.T, axis=1)  # (words, k, row sets)
    ands = np.empty((1 << k, len(gathered), len(rows)), dtype=np.uint64)
    ands[0] = ~np.uint64(0)
    for i in range(k):
        np.bitwise_and(ands[:1 << i], gathered[:, i], out=ands[1 << i:2 << i])
    hist = _popcount(ands).sum(axis=1, dtype=np.int16 if cols < 1 << 15 else np.int64)
    hist[0] = cols
    for i in range(k):
        pairs = hist.reshape(1 << (k - 1 - i), 2, 1 << i, len(rows))
        pairs[:, 0] -= pairs[:, 1]
    return hist


def _may_hold_open(views: _Views, rows: np.ndarray, k: int) -> np.ndarray:
    """Per row set of a (row sets, k) array: False when every k columns form
    a SINGULAR block with it, which for k <= 4 is when no non-SINGULAR
    multiset fits in its column codes.  True for k = 5.

    That depends only on the row set's code histogram capped at k, so each
    row set gets one key, the capped histogram as a multiset key, and only
    the distinct keys are tested, _FILTER_CHUNK at a time."""
    if k > 4:
        return np.ones(len(rows), dtype=bool)
    # Pass i joins neighbouring nibble groups of 4 * 2**i bits, so code c's
    # count lands in nibble c; groups of 32 bits no longer fit int16.
    keys = np.minimum(_code_histograms(views, rows), k)
    for i in range(k):
        if i == 2:
            keys = keys.astype(np.uint64)
        keys = keys[0::2] | keys[1::2] << (4 << i)
    keys = keys[0].astype(np.uint64, copy=False)
    # np.unique hashes on numpy >= 2.3, several times slower here than a sort.
    ordered = np.sort(keys)
    first = np.ones(len(ordered), dtype=bool)  # first of a run of equal keys
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    table = _multisets(k)
    open_keys = table.keys[table.classes != _SINGULAR]
    # Counts of at most k <= 4 stay below each nibble's guard bit 3, so
    # (held | guards) - multiset borrows across no nibble, and nibble c keeps
    # its guard bit iff code c is held at least as often as the multiset
    # needs it: the multiset fits iff every guard bit survives.
    verdicts = np.empty(len(distinct), dtype=bool)
    for at in range(0, len(distinct), _FILTER_CHUNK):
        slack = (distinct[at:at + _FILTER_CHUNK, None] | _GUARDS) - open_keys  # (keys, open multisets)
        verdicts[at:at + _FILTER_CHUNK] = (np.bitwise_and(slack, _GUARDS, out=slack) == _GUARDS).any(axis=1)
    return verdicts[np.searchsorted(distinct, keys)]


def _zero_perm_counts(codes: np.ndarray) -> np.ndarray:
    """All-zero permutations per pair of a (pairs, k) uint8 array of column
    codes, k <= _COUNT_MAX_K.  The counts do not wrap (6! = 720)."""
    k = codes.shape[1]
    if k <= 4:
        return _multisets(k).counts.take(_multiset_rows(codes))
    # Expand along the last column: row i's zero there times the count of
    # the other columns with row i removed.
    rest = codes[:, :-1]
    counts = np.zeros(len(codes), dtype=np.intp)
    for i in range(k):
        minor = ((rest >> (i + 1)) << i) | (rest & ((1 << i) - 1))
        counts += ((codes[:, -1] >> i) & 1) * _zero_perm_counts(minor)
    return counts


def _block_classes(codes: np.ndarray) -> np.ndarray:
    """Class per pair of a (pairs, k) uint8 array of column codes, k <= _COUNT_MAX_K."""
    if codes.shape[1] <= 4:
        return _multisets(codes.shape[1]).classes.take(_multiset_rows(codes))
    return np.minimum(_zero_perm_counts(codes), _SINGULAR)


# Per-pattern classification cache: repeated weightings of one zero pattern
# (the 20-seed reproduction runs) reuse the combinatorial scan, which makes a
# PG(2,4) call about 1 ms instead of about 45 ms.  At most
# _CLASSIFY_CACHE_SIZE levels are kept; the oldest is dropped first.
_CLASSIFY_CACHE: dict = {}
_CLASSIFY_CACHE_SIZE = 8
# Most WEIGHTED pairs gathered before they are resolved with weights.
_RESOLVE_CHUNK = 1 << 14
# Most distinct row-set keys _may_hold_open tests at once.  At k = 4 that
# is a (32, 2,116) uint64 temporary; at 64 keys (1.1 MB) the test took about
# 2.5 times as long per key.
_FILTER_CHUNK = 32
# Most k-subsets in one _combination_blocks block: the row sets filtered at
# once by the classified walk and the sampler's proof pass.
_BLOCK_SIZE = 4096


class _Mark(NamedTuple):
    """A classified row set holding a non-SINGULAR pair."""

    index: int                # position in witness order
    rows: tuple
    weighted: np.ndarray      # WEIGHTED column-set indices before `one`
    one: Optional[int]        # the first NONSINGULAR column-set index


class _LevelEntry:
    """One level of one zero pattern: the number of row sets classified (a
    prefix in witness order), the _Marks among them, and its column sets in
    witness order, built when first read.  A walk over the classified prefix
    visits only the marks.  Each axis's witness order is an intp array, or
    None when it is the identity, as it is for a matrix with no inf."""

    def __init__(self, views: _Views, orders, k: int):
        self.shape = views.zero.shape
        self.row_order, self.col_order = (
            None if order == list(range(len(order))) else np.array(order, dtype=np.intp) for order in orders
        )
        self.k = k
        self.classified = 0
        self.marked = []

    @functools.cached_property
    def col_combos(self) -> np.ndarray:
        blocks = _combination_blocks(self.shape[1], self.k)
        if self.col_order is not None:
            blocks = (np.sort(self.col_order[block], axis=1) for block in blocks)
        # Column-major, so each row set's (NC, k) code gather is read column by column.
        return np.asfortranarray(np.concatenate(list(blocks)))


def _level_entry(views: _Views, orders, k: int) -> _LevelEntry:
    # The witness orders follow from views.finite, so the key holds them.
    key = (views.zero.shape, views.zero.tobytes(), views.finite.tobytes(), k)
    entry = _CLASSIFY_CACHE.get(key)
    if entry is None:
        if len(_CLASSIFY_CACHE) >= _CLASSIFY_CACHE_SIZE:
            del _CLASSIFY_CACHE[next(iter(_CLASSIFY_CACHE))]
        entry = _CLASSIFY_CACHE[key] = _LevelEntry(views, orders, k)
    return entry


def _classify_row_set(code: np.ndarray, col_combos):
    """(WEIGHTED column-set indices before the first NONSINGULAR one; that
    one or None) of a row set with these column codes.  The rest are SINGULAR."""
    classes = _block_classes(code[col_combos])  # gather (NC, k)
    open_ = np.nonzero(classes != _SINGULAR)[0]
    one = open_[classes[open_] == _NONSINGULAR]
    if one.size:
        return open_[open_ < one[0]], int(one[0])
    return open_, None


def _marked_row_sets(views: _Views, k, entry: _LevelEntry, room):
    """The entry's marked row sets with index below `room`, in order,
    classifying row sets past its prefix as the walk reaches them.  The walk
    filters a block of row sets at once and classifies only those the filter
    keeps; it resumes a partly classified entry at its prefix's end."""
    yield from itertools.takewhile(lambda mark: mark.index < room, entry.marked)
    if entry.classified >= room:
        return
    order = entry.row_order
    for block in _combination_blocks(entry.shape[0], k, entry.classified, room):
        first = entry.classified
        rows = block if order is None else order[block]
        # A row set's verdict and its blocks' classes do not depend on the
        # order of its rows, so only the row sets kept are sorted.
        kept = np.nonzero(_may_hold_open(views, rows, k))[0]
        rows = rows[kept]
        if order is not None:
            rows.sort(axis=1)
        codes = _column_codes(views.zero[rows])  # (kept, cols)
        for at, row_set, code in zip(kept.tolist(), rows.tolist(), codes):
            weighted, one_col = _classify_row_set(code, entry.col_combos)
            entry.classified = first + at + 1
            if weighted.size or one_col is not None:
                mark = _Mark(first + at, tuple(row_set), weighted, one_col)
                entry.marked.append(mark)
                yield mark
        entry.classified = first + len(block)


def _first_weighted_nonsingular(cost, views: _Views, entry: _LevelEntry, batch):
    """(row-set index, (rows, cols)) of the first nonsingular WEIGHTED pair
    of a batch of the entry's _Marks, or None."""
    at = np.repeat(np.arange(len(batch)), [len(mark.weighted) for mark in batch])
    if not at.size:
        return None
    zeros_r = np.array([mark.rows for mark in batch])[at]
    zeros_c = entry.col_combos[np.concatenate([mark.weighted for mark in batch])]
    if views.dense is None:
        candidates = range(len(zeros_r))  # every pair, checked exactly
    else:
        k = zeros_r.shape[1]
        sub = views.dense[zeros_r[:, :, None], zeros_c[:, None, :]].reshape(-1, k * k)
        cells = _PERM_CELLS[k]
        # Column by column, so no temporary outgrows sums: a (P, 120, 5)
        # gather would be 78 MB at k = 5 and P = _RESOLVE_CHUNK.
        sums = sub[:, cells[:, 0]]  # (P, k!)
        for i in range(1, k):
            sums += sub[:, cells[:, i]]
        best = sums.min(axis=1)
        ties = (sums == best[:, None]).sum(axis=1)
        candidates = np.nonzero((best < _DENSE_INF) & (ties == 1))[0][:1]
    for t in candidates:
        found = (batch[at[t]].rows, tuple(zeros_c[t].tolist()))
        if _is_nonsingular_cost(cost, *found):
            return batch[at[t]].index, found
        if views.dense is not None:  # exact confirmation failed
            raise RuntimeError("vectorized and exact assignment verdicts disagree")
    return None


def _structured_level_scan(cost, views: _Views, orders, k, budget):
    """_generic_level_scan's result via zero-pattern classification, with
    'weight-free' for an exhausted level none of whose pairs is WEIGHTED.

    Row sets are charged whole: a witness in the r-th row set (0-based) costs
    r + 1 of them, a refuted level all.  Nothing past the remaining budget is
    classified and a level that does not fit is not charged, so the result
    does not depend on what the cache holds.
    """
    pairs = comb(views.zero.shape[1], k)  # per row set
    total = room = comb(views.zero.shape[0], k)
    if budget.limit is not None:
        room = min(total, (budget.limit - budget.used) // pairs)
    if not room:  # not one row set fits: stop before adding a cache entry
        return "budget", None
    entry = _level_entry(views, orders, k)
    batch, held = [], 0  # marks awaiting resolution, their WEIGHTED pairs
    # The first batch closes at one row set's pairs, so an early witness
    # costs little; each later one may hold twice as many, up to _RESOLVE_CHUNK.
    limit = min(pairs, _RESOLVE_CHUNK)
    # A final None resolves what is left of the batch.
    for mark in itertools.chain(_marked_row_sets(views, k, entry, room), [None]):
        if mark is not None:
            batch.append(mark)
            held += len(mark.weighted)
            if mark.one is None and held < limit:
                continue
        hit = _first_weighted_nonsingular(cost, views, entry, batch)
        if hit is None and mark is not None and mark.one is not None:
            hit = mark.index, (mark.rows, tuple(entry.col_combos[mark.one].tolist()))
            # One all-zero permutation and positive weights: nonsingular.
            if not _is_nonsingular_cost(cost, *hit[1]):
                raise RuntimeError("zero-permutation classification disagrees with exact check")
        if hit is not None:
            budget.spend((hit[0] + 1) * pairs)
            return "witness", hit[1]
        batch, held, limit = [], 0, min(2 * limit, _RESOLVE_CHUNK)
    if room < total:
        return "budget", None
    budget.spend(total * pairs)
    # Every marked row set of an exhausted level holds WEIGHTED pairs only.
    return ("exhausted" if entry.marked else "weight-free"), None


def tropical_rank(m: TropicalMatrix, limit: Optional[int] = None, budget: Optional[int] = None) -> RankResult:
    """Largest k <= limit with a nonsingular k x k submatrix, with witness.

    The refutation at level rank+1 is exhaustive whenever the budget allows.
    It counts submatrix pairs tested, or classified in whole row sets; a
    budget stop is reported distinctly via ``certified = False``.  A negative
    limit or budget raises ValueError.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"negative level limit {limit}")
    if budget is not None and budget < 0:
        raise ValueError(f"negative pair budget {budget}")
    cap = min(m.rows, m.cols)
    if limit is not None:
        cap = min(cap, limit)
    tracker = _Budget(budget)
    cost = m.cost
    orders = _witness_orders(cost)
    views = None  # derived at the first classified level

    rank = 0
    witness = (None, None)
    for k in range(1, cap + 1):
        if k <= _CLASSIFY_MAX_K and comb(m.rows, k) * comb(m.cols, k) > _GENERIC_CUTOFF:
            views = views or _level_views(cost)
            status, found = _structured_level_scan(cost, views, orders, k, tracker)
        else:
            status, found = _generic_level_scan(cost, orders, k, tracker)
        if status == "witness":
            rank, witness = k, found
            continue
        if status == "budget":
            return RankResult(rank, *witness, False, None, True, tracker.used, False)
        return RankResult(rank, *witness, True, k, False, tracker.used, status == "weight-free")
    return RankResult(rank, *witness, True, None, False, tracker.used, False)


def sample_level_singular(m: TropicalMatrix, k: int, samples: int, seed: int):
    """Smoke check: draw `samples` random k x k submatrices, return
    (all_singular, counterexample or None).

    Draws come in chunks of 200,000 sorted row and column subsets, and are
    a function of (seed, shape, k, samples) alone.  A chunk's blocks are
    classified by the zero pattern of the scaled matrix through one (chunk,
    k, k) gather; those that are not SINGULAR are checked exactly, and every
    draw is when k > _COUNT_MAX_K.

    When k <= 4 and C(rows, k) <= samples, every k-row set first goes
    through the row-set filter.  If none can hold a non-SINGULAR block,
    every draw would be skipped, so (True, None) is returned without
    drawing, and it is then a certificate: every k x k submatrix is singular
    for every positive weighting of the scaled matrix's zero pattern.
    Otherwise the answer comes from sampling only and is not a certificate.
    """
    if not 1 <= k <= min(m.rows, m.cols):
        raise ValueError(f"level {k} outside 1..{min(m.rows, m.cols)}")
    if samples < 0:
        raise ValueError(f"negative sample count {samples}")
    cost = m.cost
    views = _level_views(cost) if k <= _COUNT_MAX_K else None
    # Every draw skipped as SINGULAR is one the proof pass rules out, so the
    # pass gives the sampler's answer; it runs when it visits no more row
    # sets than there are draws.
    if views is not None and k <= 4 and comb(m.rows, k) <= samples and not any(
        _may_hold_open(views, rows, k).any() for rows in _combination_blocks(m.rows, k)
    ):
        return True, None
    rng = np.random.default_rng(seed)
    remaining = samples
    chunk = 200_000
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        rc = _sample_subsets(rng, batch, m.rows, k)
        cc = _sample_subsets(rng, batch, m.cols, k)
        if views is None:
            suspicious = range(batch)
        else:
            codes = _column_codes(views.zero[rc[:, :, None], cc[:, None, :]])  # (batch, k)
            suspicious = np.nonzero(_block_classes(codes) != _SINGULAR)[0]
        for b in suspicious:
            rows, cols = tuple(rc[b].tolist()), tuple(cc[b].tolist())
            if _is_nonsingular_cost(cost, rows, cols):
                return False, (rows, cols)
    return True, None


def _combination_blocks(n, k, start=0, stop=None):
    """The k-combinations of range(n) with lexicographic rank in [start,
    stop) (stop None: to the end), in order: (rows, k) intp arrays of
    _BLOCK_SIZE rows, the last one of at most that many.

    Each block is unranked directly by the combinatorial number system: the
    combination a of rank r has b_i = n-1-a_(k+1-i) at colexicographic rank
    C(n,k)-1-r = sum_i C(b_i, i), so b_k down to b_1 are each the last b with
    C(b, i) no more than what is left.  What is left falls with the rank, so
    b_k is one searchsorted; b_1 is what is left.  Before an inner position
    i what is left is below C(n-1, i), and a table of the answer for each
    value replaces the search over those unordered values once the ranks
    unranked reach its C(n-1, i) entries: a walk that stops early, or a
    short range, searches, and a table never outgrows the ranks it serves.
    Ranks are int64: C(n, k) of 2**63 or more raises OverflowError."""
    total = comb(n, k)
    last = np.int64(total - 1)
    stop = total if stop is None else stop
    binom = np.array([[comb(b, i) for b in range(n)] for i in range(k + 1)], dtype=np.int64)
    inverse = {}
    for low in range(start, stop, _BLOCK_SIZE):
        high = min(low + _BLOCK_SIZE, stop)
        for i in range(2, k):
            if i not in inverse and comb(n - 1, i) <= high - start:
                # The last b with C(b, i) <= v: b for each v from C(b, i) up to C(b + 1, i).
                inverse[i] = np.repeat(np.arange(n - 1), np.diff(binom[i]))
        left = last - np.arange(low, high, dtype=np.int64)
        combos = np.empty((len(left), k), dtype=np.intp)
        for i in range(k, 0, -1):
            if i == 1:
                b = left  # C(b, 1) = b
            elif i in inverse:
                b = inverse[i].take(left)
            else:
                b = np.searchsorted(binom[i], left, side="right") - 1
            combos[:, k - i] = n - 1 - b
            left -= binom[i].take(b)
        yield combos


def _sample_subsets(rng, batch, n, k):
    """(batch, k) uniform k-subsets of range(n), each sorted.  Draws with a
    repeat are redrawn, and only the redrawn rows are tested again; above
    n/2 the complement is drawn instead, so that stays cheap for every k <= n."""
    if 2 * k > n:
        keep = np.ones((batch, n), dtype=bool)
        keep[np.arange(batch)[:, None], _sample_subsets(rng, batch, n, n - k)] = False
        return np.nonzero(keep)[1].reshape(batch, k).astype(np.int32)
    out = np.sort(rng.integers(0, n, size=(batch, k), dtype=np.int32), axis=1)
    idx = np.nonzero((out[:, 1:] == out[:, :-1]).any(axis=1))[0]
    while idx.size:
        redrawn = np.sort(rng.integers(0, n, size=(idx.size, k), dtype=np.int32), axis=1)
        out[idx] = redrawn
        idx = idx[(redrawn[:, 1:] == redrawn[:, :-1]).any(axis=1)]
    return out
