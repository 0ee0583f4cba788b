"""Tropical determinant: exact minimum permutation sum with a uniqueness certificate.

The minimum is computed by a Hungarian solver over the matrix's stored form,
integer costs ``m.cost`` over one denominator ``m.scale`` (None for inf is a
forbidden edge).  Uniqueness comes from the optimal dual potentials of that
same solve: the optimal permutations are exactly the perfect matchings of the
tight subgraph (edges of reduced cost 0), so the optimum is unique iff that
subgraph has no cycle alternating with the optimal matching (Butkovič,
*Max-linear Systems*, 2010).  Below size 5 the n!
permutation sums are enumerated instead, which is faster at those sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .tropical import INF, TropicalMatrix

_UNREACHED = float("inf")  # sentinel only; never mixed into exact arithmetic


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


def min_permutation(cost):
    """(total, perm, unique) for a square int/None cost matrix.

    ``unique`` is True when exactly one permutation attains the minimum;
    (None, None, False) when every permutation meets a None.  Sizes up to 4
    enumerate all permutations, the first optimum in lexicographic order
    being the witness; larger sizes make one Hungarian solve.
    """
    n = len(cost)
    if n <= 4:
        best = None
        witness = None
        count = 0
        for perm in itertools.permutations(range(n)):
            total = 0
            dead = False
            for i in range(n):
                c = cost[i][perm[i]]
                if c is None:
                    dead = True
                    break
                total += c
            if dead:
                continue
            if best is None or total < best:
                best, witness, count = total, perm, 1
            elif total == best:
                count += 1
        return best, witness, count == 1
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
    n = m.rows
    best = INF
    winners = []
    for perm in itertools.permutations(range(n)):
        total = Fraction(0)
        dead = False
        for i, j in enumerate(perm):
            v = m.entry(i, j)
            if v is INF:
                dead = True
                break
            total += v
        if dead:
            continue
        if best is INF or total < best:
            best = total
            winners = [perm]
        elif total == best:
            winners.append(perm)
    return best, winners
