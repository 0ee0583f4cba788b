"""Tropical rank: largest k with a tropically nonsingular k x k submatrix.

The level search runs k = 1, 2, ... and stops at the first level with no
nonsingular submatrix, which is then exhaustively refuted.  Stopping there is
sound: a nonsingular (k+1)x(k+1) matrix always contains a nonsingular k x k
submatrix (normalize the unique optimal permutation onto the diagonal; every
nontrivial cycle then carries strictly positive weight, and that survives
deleting any diagonal vertex), so the nonsingular levels form a prefix.

For matrices whose finite entries are all >= 0 with a zero/positive split
(weighted incidence matrices), level refutation is accelerated by counting
zero-entry permutations per submatrix:

  >= 2 all-zero permutations  -> singular for every positive weighting;
  exactly 1                   -> nonsingular (all other sums are positive);
  0                           -> the weighted assignment problem decides.

Only the third class needs arithmetic, which keeps certified refutation at
level 4 feasible for matrices with a few hundred rows.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Optional

import numpy as np

from .assignment import min_permutation
from .tropical import TropicalMatrix

# Generic per-pair testing is used below this many (row-set, col-set) pairs.
_GENERIC_CUTOFF = 60_000
# Plain witness probe size before falling into a full level scan.
_PROBE_CAP = 4_000

_PERMS = {k: tuple(itertools.permutations(range(k))) for k in range(1, 7)}


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


def _zero_mask(cost):
    """Bool array, True where the integer-scaled entry is exactly 0, when all
    finite entries are 0 or positive; None otherwise."""
    if any(c is not None and c < 0 for row in cost for c in row):
        return None
    return np.array([[c == 0 for c in row] for row in cost], dtype=bool)


def _is_nonsingular_cost(cost, rows, cols) -> bool:
    sub = [[cost[i][j] for j in cols] for i in rows]
    # All-inf row or column blocks every permutation.
    for r in sub:
        if all(c is None for c in r):
            return False
    for j in range(len(cols)):
        if all(sub[i][j] is None for i in range(len(rows))):
            return False
    return min_permutation(sub)[2]


def _ordered_combos(finite_per_axis, n, k):
    """Index combinations, preferring indices with many finite entries."""
    order = sorted(range(n), key=lambda i: (-finite_per_axis[i], i))
    for combo in itertools.combinations(order, k):
        yield tuple(sorted(combo))


def _generic_level_scan(m, cost, k, budget, probe_only=False):
    """('witness', (R, C)) | ('exhausted', None) | ('budget', None)."""
    finite_rows = [sum(1 for j in range(m.cols) if cost[i][j] is not None) for i in range(m.rows)]
    finite_cols = [sum(1 for i in range(m.rows) if cost[i][j] is not None) for j in range(m.cols)]
    row_combos = _ordered_combos(finite_rows, m.rows, k)
    examined = 0
    for rc in row_combos:
        for cc in _ordered_combos(finite_cols, m.cols, k):
            if not budget.spend(1):
                return "budget", None
            examined += 1
            if probe_only and examined > _PROBE_CAP:
                return "probe-exhausted", None
            if _is_nonsingular_cost(cost, rc, cc):
                return "witness", (rc, cc)
    return "exhausted", None


def _zero_perm_counts(blocks: np.ndarray) -> np.ndarray:
    """All-zero permutations per pair of a (k, pairs, k) bool stack.

    blocks[i, p, j] is True where row i, column j of pair p is zero.  The
    classifier's gather yields this layout; (pairs, k, k) callers pass a
    transposed view.
    """
    k = blocks.shape[0]
    counts = np.zeros(blocks.shape[1], dtype=np.uint8)
    for perm in _PERMS[k]:
        term = blocks[0, :, perm[0]]
        for i in range(1, k):
            term = term & blocks[i, :, perm[i]]
        counts += term
    return counts


# Per-pattern classification cache: repeated weightings of one zero pattern
# (the 20-seed reproduction runs) reuse the combinatorial scan.  At most
# _CLASSIFY_CACHE_SIZE patterns are kept; the oldest is dropped first.
_CLASSIFY_CACHE: dict = {}
_CLASSIFY_CACHE_SIZE = 8


def _classify_level(zero_mask: np.ndarray, k: int):
    """Split all (row-set, col-set) pairs at level k by zero-permutation count.

    Returns (ones_pairs, zeros_r, zeros_c): pairs with exactly one all-zero
    permutation, and index arrays (P, k) for pairs with none.  Every pair not
    listed has >= 2 all-zero permutations and is singular under any positive
    weighting of the nonzero entries.
    """
    key = (zero_mask.tobytes(), zero_mask.shape, k)
    if key in _CLASSIFY_CACHE:
        return _CLASSIFY_CACHE[key]
    nr, nc = zero_mask.shape
    col_combos = np.array(list(itertools.combinations(range(nc), k)), dtype=np.int32)
    ones_pairs = []
    zr_chunks = []
    zc_chunks = []
    for rc in itertools.combinations(range(nr), k):
        zr = zero_mask[np.array(rc)]          # (k, nc)
        gathered = zr[:, col_combos]          # (k, NC, k)
        counts = _zero_perm_counts(gathered)
        for ci in np.nonzero(counts == 1)[0]:
            ones_pairs.append((rc, tuple(int(x) for x in col_combos[ci])))
        zi = np.nonzero(counts == 0)[0]
        if zi.size:
            zr_chunks.append(np.broadcast_to(np.array(rc, dtype=np.int32), (zi.size, k)).copy())
            zc_chunks.append(col_combos[zi])
    zeros_r = np.concatenate(zr_chunks) if zr_chunks else np.empty((0, k), dtype=np.int32)
    zeros_c = np.concatenate(zc_chunks) if zc_chunks else np.empty((0, k), dtype=np.int32)
    result = (tuple(ones_pairs), zeros_r, zeros_c)
    if len(_CLASSIFY_CACHE) >= _CLASSIFY_CACHE_SIZE:
        del _CLASSIFY_CACHE[next(iter(_CLASSIFY_CACHE))]
    _CLASSIFY_CACHE[key] = result
    return result


def _resolve_weighted_pairs(cost, zeros_r, zeros_c, k):
    """First nonsingular pair among the no-zero-permutation class, or None."""
    if len(zeros_r) == 0:
        return None
    # Vectorize with a safe integer sentinel when the scaled values allow it.
    max_abs = 0
    for row in cost:
        for c in row:
            if c is not None:
                max_abs = max(max_abs, abs(c))
    big = (max_abs + 1) * (k + 1)
    if big * (k + 1) < 2**60:
        dense = np.array(
            [[big if c is None else c for c in row] for row in cost], dtype=np.int64
        )
        sub = dense[zeros_r[:, :, None], zeros_c[:, None, :]]  # (P, k, k)
        perms = _PERMS[k]
        sums = np.empty((len(zeros_r), len(perms)), dtype=np.int64)
        for t, perm in enumerate(perms):
            acc = sub[:, 0, perm[0]].copy()
            for i in range(1, k):
                acc += sub[:, i, perm[i]]
            sums[:, t] = acc
        mins = sums.min(axis=1)
        counts = (sums == mins[:, None]).sum(axis=1)
        candidate = np.nonzero((mins < big) & (counts == 1))[0]
        for p in candidate:
            rc = tuple(int(x) for x in zeros_r[int(p)])
            cc = tuple(int(x) for x in zeros_c[int(p)])
            if not _is_nonsingular_cost(cost, rc, cc):  # exact confirmation
                raise RuntimeError("vectorized and exact assignment verdicts disagree")
            return rc, cc
        return None
    for t in range(len(zeros_r)):
        rc = tuple(int(x) for x in zeros_r[t])
        cc = tuple(int(x) for x in zeros_c[t])
        if _is_nonsingular_cost(cost, rc, cc):
            return rc, cc
    return None


def _structured_level_scan(m, cost, zero_mask, k, budget):
    """Exhaustive level-k scan via zero-permutation classification."""
    space = comb(m.rows, k) * comb(m.cols, k)
    if not budget.spend(space):
        return "budget", None
    ones_pairs, zeros_r, zeros_c = _classify_level(zero_mask, k)
    for rc, cc in ones_pairs:
        # One all-zero permutation and positive weights: nonsingular.
        if not _is_nonsingular_cost(cost, rc, cc):
            raise RuntimeError("zero-permutation classification disagrees with exact check")
        return "witness", (rc, cc)
    hit = _resolve_weighted_pairs(cost, zeros_r, zeros_c, k)
    if hit is not None:
        return "witness", hit
    return "exhausted", None


def tropical_rank(m: TropicalMatrix, limit: Optional[int] = None, budget: Optional[int] = None) -> RankResult:
    """Largest k <= limit with a nonsingular k x k submatrix, with witness.

    The refutation at level rank+1 is exhaustive whenever the budget (counted
    in submatrix pairs) allows; a budget stop is reported distinctly via
    ``certified = False``.
    """
    cap = min(m.rows, m.cols)
    if limit is not None:
        cap = min(cap, limit)
    tracker = _Budget(budget)
    cost = m.scaled[0]
    zero_mask = _zero_mask(cost)

    rank = 0
    witness = (None, None)
    for k in range(1, cap + 1):
        space = comb(m.rows, k) * comb(m.cols, k)
        use_structured = zero_mask is not None and k <= 5 and space > _GENERIC_CUTOFF
        if use_structured:
            status, found = _generic_level_scan(m, cost, k, tracker, probe_only=True)
            if status == "probe-exhausted":
                status, found = _structured_level_scan(m, cost, zero_mask, k, tracker)
        else:
            status, found = _generic_level_scan(m, cost, k, tracker)
        if status == "witness":
            rank = k
            witness = found
            continue
        if status == "exhausted":
            return RankResult(rank, witness[0], witness[1], True, k, False, tracker.used)
        return RankResult(rank, witness[0], witness[1], False, None, True, tracker.used)
    return RankResult(rank, witness[0], witness[1], True, None, False, tracker.used)


def sample_level_singular(m: TropicalMatrix, k: int, samples: int, seed: int):
    """Smoke check: draw `samples` random k x k submatrices, return
    (all_singular, counterexample or None).  Sampling only; not a certificate.
    """
    cost = m.scaled[0]
    zero_mask = _zero_mask(cost)
    rng = np.random.default_rng(seed)
    if zero_mask is None:
        py_rng = random.Random(seed)
        for _ in range(samples):
            rc = tuple(sorted(py_rng.sample(range(m.rows), k)))
            cc = tuple(sorted(py_rng.sample(range(m.cols), k)))
            if _is_nonsingular_cost(cost, rc, cc):
                return False, (rc, cc)
        return True, None

    remaining = samples
    chunk = 200_000
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        rc = np.sort(_sample_distinct(rng, batch, m.rows, k), axis=1)
        cc = np.sort(_sample_distinct(rng, batch, m.cols, k), axis=1)
        sub = zero_mask[rc[:, :, None], cc[:, None, :]]  # (B, k, k)
        counts = _zero_perm_counts(sub.transpose(1, 0, 2))
        suspicious = np.nonzero(counts <= 1)[0]
        for b in suspicious:
            rows = tuple(int(x) for x in rc[b])
            cols = tuple(int(x) for x in cc[b])
            if _is_nonsingular_cost(cost, rows, cols):
                return False, (rows, cols)
    return True, None


def _sample_distinct(rng, batch, n, k):
    """(batch, k) index draws without replacement per row."""
    out = rng.integers(0, n, size=(batch, k), dtype=np.int32)
    while True:
        bad = np.zeros(batch, dtype=bool)
        s = np.sort(out, axis=1)
        bad |= (s[:, 1:] == s[:, :-1]).any(axis=1)
        idx = np.nonzero(bad)[0]
        if idx.size == 0:
            return out
        out[idx] = rng.integers(0, n, size=(idx.size, k), dtype=np.int32)
