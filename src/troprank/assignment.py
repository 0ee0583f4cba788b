"""Tropical determinant: exact minimum permutation sum with a uniqueness certificate.

Every solver reads the matrix's stored form, integer costs ``m.cost`` over one
denominator ``m.scale`` (None for inf is a forbidden edge), and the method
depends on the size n:

- n <= 6: one subset DP over the sets of used columns gives the least
  cost of the remaining rows and how many assignments attain it, so
  uniqueness is an exact count.
- n >= 7: a Hungarian solve, whose optimal dual potentials certify
  uniqueness: the optimal permutations are exactly the perfect matchings of
  the tight subgraph (edges of reduced cost 0), so the optimum is unique iff
  that subgraph has no cycle alternating with the optimal matching
  (Butkovič, *Max-linear Systems*, 2010).

The subset DP returns the lexicographically first optimum as witness.  The
oracle ``brute_force_determinant`` enumerates the n! permutations, so the
tests compare each solver with a different algorithm at every size.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .tropical import INF, TropicalMatrix

_UNREACHED = float("inf")  # sentinel only; never mixed into exact arithmetic
_SUBSET_DP_MAX = 6  # largest size solved by the subset DP


@dataclass(frozen=True)
class AssignmentCertificate:
    """Optimal permutation value, one witness, and a uniqueness verdict.

    ``witness[i]`` is the column assigned to row i; it is None exactly when
    value is inf.  ``unique`` is True only for a finite value attained by a
    single permutation.
    """

    value: object
    witness: Optional[tuple]
    unique: bool


def solve_min_assignment(cost):
    """Minimum-cost perfect matching on a square cost matrix.

    cost[i][j] is an int or None (forbidden edge).  Returns
    (total, perm, row_pot, col_pot), or None when no perfect matching of
    allowed edges exists.  The potentials are optimal duals:
    cost[i][j] - row_pot[i] - col_pot[j] is >= 0 on every allowed edge and 0
    on the matched edges (i, perm[i]).
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row matched to column j (1-indexed), 0 free
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_UNREACHED] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = _UNREACHED
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                c = row[j - 1]
                if c is not None:
                    cur = c - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            if j1 < 0 or delta == _UNREACHED:
                return None  # no augmenting path through allowed edges
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] != _UNREACHED:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    total = sum(cost[i][perm[i]] for i in range(n))
    return total, tuple(perm), u[1:], v[1:]


def _has_alternating_cycle(cost, perm, row_pot, col_pot) -> bool:
    """True when the tight subgraph holds a second perfect matching.

    Row i points to row owner[j] for each tight edge (i, j) off the matching;
    a directed cycle swaps columns along it at no cost, and any second
    optimal matching differs from perm by such cycles.
    """
    n = len(cost)
    owner = [0] * n
    for i, j in enumerate(perm):
        owner[j] = i
    succ = [
        [
            owner[j]
            for j, c in enumerate(row)
            if c is not None and j != perm[i] and c - row_pot[i] - col_pot[j] == 0
        ]
        for i, row in enumerate(cost)
    ]
    # Peel rows with no remaining predecessor; a cycle is what cannot be peeled.
    indegree = [0] * n
    for targets in succ:
        for t in targets:
            indegree[t] += 1
    ready = [i for i in range(n) if indegree[i] == 0]
    peeled = 0
    while ready:
        peeled += 1
        for t in succ[ready.pop()]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return peeled < n


@functools.lru_cache(maxsize=_SUBSET_DP_MAX + 1)  # every size 0.._SUBSET_DP_MAX stays cached
def _subset_dp_plan(n):
    """The subset DP's steps for size n: (mask, row, moves) for every proper
    column mask in decreasing order, so each mask follows all its supersets.
    row is the mask's size, the row assigned next; moves lists (j, mask | 1 << j)
    for each free column j, ascending."""
    return tuple(
        (mask, bin(mask).count("1"), tuple((j, mask | 1 << j) for j in range(n) if not mask >> j & 1))
        for mask in range((1 << n) - 2, -1, -1)
    )


def _subset_dp_min_permutation(cost):
    """min_permutation by a DP over column masks, rows assigned in order.

    best[mask] is the least cost of the rows not yet assigned over the columns
    not in mask (None when none is finite), count[mask] how many assignments
    attain it, and first[mask] the least column that does; following first
    from the empty mask reads off the lexicographically first optimum.
    """
    n = len(cost)
    full = (1 << n) - 1
    best = [None] * (full + 1)
    count = [0] * (full + 1)
    first = [0] * full
    best[full] = 0
    count[full] = 1
    for mask, row, moves in _subset_dp_plan(n):
        costs = cost[row]
        low = None
        ways = 0
        for j, rest in moves:
            c = costs[j]
            if c is None:
                continue
            tail = best[rest]
            if tail is None:
                continue
            total = c + tail
            if low is None or total < low:
                low = total
                ways = count[rest]
                first[mask] = j
            elif total == low:
                ways += count[rest]
        best[mask] = low
        count[mask] = ways
    if best[0] is None:
        return None, None, False
    perm = []
    mask = 0
    for _ in range(n):
        j = first[mask]
        perm.append(j)
        mask |= 1 << j
    return best[0], tuple(perm), count[0] == 1


def min_permutation(cost):
    """(total, perm, unique) for a square int/None cost matrix.

    ``unique`` is True when exactly one permutation attains the minimum;
    (None, None, False) when every permutation meets a None.  Sizes up to 6
    count the optima with a subset DP and return the first optimum in
    lexicographic order as the witness; larger sizes make one Hungarian
    solve and test its tight subgraph for an alternating cycle.
    """
    if len(cost) <= _SUBSET_DP_MAX:
        return _subset_dp_min_permutation(cost)
    solved = solve_min_assignment(cost)
    if solved is None:
        return None, None, False
    total, perm, row_pot, col_pot = solved
    return total, perm, not _has_alternating_cycle(cost, perm, row_pot, col_pot)


def tropical_determinant(m: TropicalMatrix) -> AssignmentCertificate:
    """Exact min over permutations of sum m[i][perm(i)], with witness and uniqueness."""
    if not m.is_square:
        raise ValueError("tropical determinant requires a square matrix")
    total, perm, unique = min_permutation(m.cost)
    if total is None:
        return AssignmentCertificate(INF, None, False)
    return AssignmentCertificate(Fraction(total, m.scale), perm, unique)


def is_nonsingular(m: TropicalMatrix) -> bool:
    """True iff the minimum permutation sum is finite and attained uniquely."""
    if not m.is_square:
        raise ValueError("nonsingularity is defined for square matrices only")
    return min_permutation(m.cost)[2]


def brute_force_determinant(m: TropicalMatrix):
    """Oracle: enumerate all n! permutations.  Returns (value, best perms list)."""
    if not m.is_square:
        raise ValueError("square matrices only")
    cost = m.cost
    best = None
    winners = []
    for perm in itertools.permutations(range(m.rows)):
        total = 0
        for i, j in enumerate(perm):
            c = cost[i][j]
            if c is None:
                break
            total += c
        else:
            if best is None or total < best:
                best = total
                winners = [perm]
            elif total == best:
                winners.append(perm)
    return (INF if best is None else Fraction(best, m.scale)), winners
