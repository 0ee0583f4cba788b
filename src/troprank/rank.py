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

For matrices whose finite entries are all >= 0 with a zero/positive split
(weighted incidence matrices), large levels are classified by counting
zero-entry permutations per submatrix:

  >= 2 all-zero permutations  -> singular for every positive weighting;
  exactly 1                   -> nonsingular (all other sums are positive);
  0                           -> the weighted assignment problem decides.

A k x k zero block is held as k column codes (bit i of a column's code set
when its row i is zero).  For k <= 4 the codes pack into one k*k-bit key and
the count is read from a table of all 2**(k*k) blocks; for k = 5 and 6 it is
expanded along the last column into (k-1)-counts.

The classification streams row sets in witness order, resolving their 0-class
pairs with the weights in batches, and stops at the first row set holding a
nonsingular pair of either class; its first such pair is the witness.  Only
the 0 class needs arithmetic, which keeps certified refutation at level 4
feasible for matrices with a few hundred rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .assignment import min_permutation
from .tropical import TropicalMatrix

# Generic per-pair testing is used below this many (row-set, col-set) pairs.
_GENERIC_CUTOFF = 60_000
# Largest level the zero-permutation classification handles.
_CLASSIFY_MAX_K = 5
# inf in the int64 cost view; _CLASSIFY_MAX_K of these sum below 2**63.
_DENSE_INF = 2**60
_UNSET = object()  # tropical_rank's views before the first classified level

# Permutations of the classified levels: they build the count tables (k <= 4)
# and sum the weighted pairs' permutation costs (k <= _CLASSIFY_MAX_K).
_PERMS = {k: tuple(itertools.permutations(range(k))) for k in range(1, _CLASSIFY_MAX_K + 1)}
# Largest block _zero_perm_counts handles; the sampler filters its draws up to it.
_COUNT_MAX_K = 6


@dataclass(frozen=True)
class RankResult:
    """Outcome of the level search.

    ``certified`` is True when the reported rank is exact: either the next
    level was exhaustively refuted (``refuted_level = rank + 1``) or the
    search cap was reached by a witness.  A budget stop leaves the best
    witness found with ``certified = False``.
    """

    rank: int
    row_witness: Optional[tuple]
    col_witness: Optional[tuple]
    certified: bool
    refuted_level: Optional[int]
    budget_exhausted: bool
    pairs_examined: int


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
    """The arrays a classified level reads, derived once per call."""

    zero: np.ndarray              # True where the entry is exactly 0
    finite: np.ndarray            # True where the entry is finite
    dense: Optional[np.ndarray]   # int64 cost, inf as _DENSE_INF; None on overflow


def _level_views(cost):
    """_Views of the integer-scaled cost, or None when an entry is negative."""
    finite = [c for row in cost for c in row if c is not None]
    if finite and min(finite) < 0:
        return None
    fits = max(finite, default=0) * _CLASSIFY_MAX_K < _DENSE_INF
    return _Views(
        np.array([[c == 0 for c in row] for row in cost], dtype=bool),
        np.array([[c is not None for c in row] for row in cost], dtype=bool),
        np.array([[_DENSE_INF if c is None else c for c in row] for row in cost], dtype=np.int64)
        if fits else None,
    )


def _is_nonsingular_cost(cost, rows, cols) -> bool:
    return min_permutation([[cost[i][j] for j in cols] for i in rows])[2]


def _ordered_combos(finite_per_axis, n, k):
    """Index combinations in witness order, preferring indices with many finite entries."""
    order = sorted(range(n), key=lambda i: (-finite_per_axis[i], i))
    for combo in itertools.combinations(order, k):
        yield tuple(sorted(combo))


def _generic_level_scan(m, cost, k, budget):
    """('witness', (R, C)) | ('exhausted', None) | ('budget', None)."""
    finite_rows = [sum(1 for j in range(m.cols) if cost[i][j] is not None) for i in range(m.rows)]
    finite_cols = [sum(1 for i in range(m.rows) if cost[i][j] is not None) for j in range(m.cols)]
    for rc in _ordered_combos(finite_rows, m.rows, k):
        for cc in _ordered_combos(finite_cols, m.cols, k):
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


def _count_table(k: int) -> np.ndarray:
    """All-zero permutations of every k x k block, indexed by its key
    sum_t codes[t] << (k*t), whose bit k*t + i is row i, column t."""
    keys = np.arange(1 << (k * k))
    counts = np.zeros(keys.size, dtype=np.uint8)  # at most 4! = 24
    for perm in _PERMS[k]:
        mask = sum(1 << (k * perm[i] + i) for i in range(k))
        counts += (keys & mask) == mask
    return counts


_COUNT_TABLES = {k: _count_table(k) for k in range(1, 5)}


def _zero_perm_counts(codes: np.ndarray) -> np.ndarray:
    """All-zero permutations per pair of a (pairs, k) uint8 array of column
    codes, k <= _COUNT_MAX_K.  The counts do not wrap (6! = 720)."""
    k = codes.shape[1]
    if k <= 4:
        key = codes[:, 0].astype(np.uint16)  # k*k <= 16 bits
        for t in range(1, k):
            key |= codes[:, t].astype(np.uint16) << (k * t)
        return _COUNT_TABLES[k].take(key)
    # Expand along the last column: row i's zero there times the count of
    # the other columns with row i removed.
    rest = codes[:, :-1]
    counts = np.zeros(len(codes), dtype=np.intp)
    for i in range(k):
        minor = ((rest >> (i + 1)) << i) | (rest & ((1 << i) - 1))
        counts += ((codes[:, -1] >> i) & 1) * _zero_perm_counts(minor)
    return counts


# Per-pattern classification cache: repeated weightings of one zero pattern
# (the 20-seed reproduction runs) reuse the combinatorial scan.  An entry is
# the classification of a prefix of one level's row sets, in witness order;
# the weighted stop is decided per call.  At most _CLASSIFY_CACHE_SIZE
# entries are kept; the oldest is dropped first.
_CLASSIFY_CACHE: dict = {}
_CLASSIFY_CACHE_SIZE = 8
# No-zero-permutation pairs gathered before they are resolved with weights.
_RESOLVE_CHUNK = 1 << 14


def _classify_row_set(views: _Views, rc, col_combos):
    """(column-set indices with no all-zero permutation, before the first with
    exactly one; that one or None).  The rest have >= 2 and are singular."""
    code = _column_codes(views.zero[list(rc)])
    counts = _zero_perm_counts(code[col_combos])  # gather (NC, k)
    zi = np.nonzero(counts == 0)[0]
    oi = np.nonzero(counts == 1)[0]
    return (zi[zi < oi[0]], int(oi[0])) if oi.size else (zi, None)


def _first_weighted_nonsingular(cost, views: _Views, zeros_r, zeros_c) -> Optional[int]:
    """Index of the first nonsingular pair among the (P, k) row and column
    sets listed, all with no all-zero permutation, or None."""
    if views.dense is None:
        candidates = range(len(zeros_r))  # every pair, checked exactly
    else:
        sub = views.dense[zeros_r[:, :, None], zeros_c[:, None, :]]  # (P, k, k)
        perms = _PERMS[sub.shape[1]]
        sums = np.empty((len(sub), len(perms)), dtype=np.int64)
        for j, perm in enumerate(perms):
            sums[:, j] = sum(sub[:, i, c] for i, c in enumerate(perm))
        best = sums.min(axis=1)
        ties = (sums == best[:, None]).sum(axis=1)
        candidates = np.nonzero((best < _DENSE_INF) & (ties == 1))[0][:1]
    for t in candidates:
        if _is_nonsingular_cost(cost, zeros_r[t].tolist(), zeros_c[t].tolist()):
            return int(t)
        if views.dense is not None:  # exact confirmation failed
            raise RuntimeError("vectorized and exact assignment verdicts disagree")
    return None


def _structured_level_scan(cost, views: _Views, k, budget):
    """_generic_level_scan's result via zero-permutation classification.

    Row sets are charged whole: a witness in the r-th row set (0-based) costs
    r + 1 of them, a refuted level all.  Nothing past the remaining budget is
    classified and a level that does not fit is not charged, so the result
    does not depend on what the cache holds.
    """
    nr, nc = views.zero.shape
    # Column-major, so each row set's (NC, k) code gather is read column by column.
    col_combos = np.array(list(_ordered_combos(views.finite.sum(axis=0).tolist(), nc, k)), order="F")
    total = room = comb(nr, k)
    if budget.limit is not None:
        room = min(total, (budget.limit - budget.used) // len(col_combos))
    key = (views.zero.shape, views.zero.tobytes(), views.finite.tobytes(), k)
    if key not in _CLASSIFY_CACHE and len(_CLASSIFY_CACHE) >= _CLASSIFY_CACHE_SIZE:
        del _CLASSIFY_CACHE[next(iter(_CLASSIFY_CACHE))]
    classified = _CLASSIFY_CACHE.setdefault(key, [])  # (row set, *_classify_row_set)
    unseen = None  # row sets past the cached prefix, made on first use
    batch_r, batch_c = [], []  # row sets awaiting resolution, their weighted column sets
    held = 0
    for r in range(room):
        if r == len(classified):
            if unseen is None:
                unseen = itertools.islice(_ordered_combos(views.finite.sum(axis=1).tolist(), nr, k), r, None)
            rc = next(unseen)
            classified.append((rc, *_classify_row_set(views, rc, col_combos)))
        rc, zero_cols, one_col = classified[r]
        batch_r.append(rc)
        batch_c.append(zero_cols)
        held += len(zero_cols)
        if one_col is None and held < _RESOLVE_CHUNK and r + 1 < room:
            continue
        at = np.repeat(np.arange(len(batch_r)), [len(c) for c in batch_c])
        cols = np.concatenate(batch_c)
        t = _first_weighted_nonsingular(cost, views, np.array(batch_r)[at], col_combos[cols])
        if t is not None:
            r += int(at[t]) + 1 - len(batch_r)
            found = (batch_r[at[t]], tuple(col_combos[cols[t]].tolist()))
        elif one_col is not None:
            found = (rc, tuple(col_combos[one_col].tolist()))
            # One all-zero permutation and positive weights: nonsingular.
            if not _is_nonsingular_cost(cost, *found):
                raise RuntimeError("zero-permutation classification disagrees with exact check")
        else:
            batch_r, batch_c, held = [], [], 0
            continue
        budget.spend((r + 1) * len(col_combos))
        return "witness", found
    if room < total:
        return "budget", None
    budget.spend(total * len(col_combos))
    return "exhausted", None


def tropical_rank(m: TropicalMatrix, limit: Optional[int] = None, budget: Optional[int] = None) -> RankResult:
    """Largest k <= limit with a nonsingular k x k submatrix, with witness.

    The refutation at level rank+1 is exhaustive whenever the budget allows.
    It counts submatrix pairs tested, or classified in whole row sets; a
    budget stop is reported distinctly via ``certified = False``.
    """
    cap = min(m.rows, m.cols)
    if limit is not None:
        cap = min(cap, limit)
    tracker = _Budget(budget)
    cost = m.scaled[0]
    views = _UNSET  # derived at the first classified level

    rank = 0
    witness = (None, None)
    for k in range(1, cap + 1):
        space = comb(m.rows, k) * comb(m.cols, k)
        structured = k <= _CLASSIFY_MAX_K and space > _GENERIC_CUTOFF
        if structured and views is _UNSET:
            views = _level_views(cost)
        if structured and views is not None:
            status, found = _structured_level_scan(cost, views, k, tracker)
        else:
            status, found = _generic_level_scan(m, cost, k, tracker)
        if status == "witness":
            rank, witness = k, found
            continue
        if status == "exhausted":
            return RankResult(rank, witness[0], witness[1], True, k, False, tracker.used)
        return RankResult(rank, witness[0], witness[1], False, None, True, tracker.used)
    return RankResult(rank, witness[0], witness[1], True, None, False, tracker.used)


def sample_level_singular(m: TropicalMatrix, k: int, samples: int, seed: int):
    """Smoke check: draw `samples` random k x k submatrices, return
    (all_singular, counterexample or None).  Sampling only; not a certificate.

    Draws with < 2 all-zero permutations are checked exactly; every draw is
    when an entry is negative or k > _COUNT_MAX_K.
    """
    if not 1 <= k <= min(m.rows, m.cols):
        raise ValueError(f"level {k} outside 1..{min(m.rows, m.cols)}")
    cost = m.scaled[0]
    views = _level_views(cost) if k <= _COUNT_MAX_K else None
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
            codes = _column_codes(views.zero[rc[:, :, None], cc[:, None, :]])  # (B, k)
            suspicious = np.nonzero(_zero_perm_counts(codes) <= 1)[0]
        for b in suspicious:
            rows, cols = tuple(rc[b].tolist()), tuple(cc[b].tolist())
            if _is_nonsingular_cost(cost, rows, cols):
                return False, (rows, cols)
    return True, None


def _sample_subsets(rng, batch, n, k):
    """(batch, k) uniform k-subsets of range(n), each sorted.  Draws with a
    repeat are redrawn; above n/2 the complement is drawn instead, so that
    stays cheap for every k <= n."""
    if 2 * k > n:
        keep = np.ones((batch, n), dtype=bool)
        keep[np.arange(batch)[:, None], _sample_subsets(rng, batch, n, n - k)] = False
        return np.nonzero(keep)[1].reshape(batch, k).astype(np.int32)
    out = np.sort(rng.integers(0, n, size=(batch, k), dtype=np.int32), axis=1)
    while True:
        idx = np.nonzero((out[:, 1:] == out[:, :-1]).any(axis=1))[0]
        if idx.size == 0:
            return out
        out[idx] = np.sort(rng.integers(0, n, size=(idx.size, k), dtype=np.int32), axis=1)
