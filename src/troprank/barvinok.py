"""Barvinok rank: least k with an exact min-plus factorization n x k times k x m.

Feasibility at a given k is decided by enumerating covering assignments (which
inner index attains the min at each finite entry, labels canonicalized by
first occurrence to kill the k! relabeling symmetry) and testing each label
group of a covering: a_i + b_j = m_ij on its assigned cells, a_i + b_j >= m_ij
on the rest of its row x column rectangle.

The test propagates the equalities.  They fix every potential up to one shift
per connected component of the group's row-column graph, and a cycle whose
propagated values disagree makes the group infeasible.  Rectangle cells inside
one component are then checked directly; cells between two components bound
the difference of their shifts, and those component-level difference
constraints are feasible iff they hold no negative cycle.  Only the covering
that passes is solved by Bellman-Ford, whose shortest-path potentials give the
canonical factorization; it is verified entrywise before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .tropical import INF, TropicalMatrix, min_plus_multiply


@dataclass(frozen=True)
class BarvinokFactorization:
    k: int
    left: TropicalMatrix
    right: TropicalMatrix


@dataclass(frozen=True)
class BarvinokResult:
    """rank is None when the search ended without an answer (see flags)."""

    rank: Optional[int]
    factorization: Optional[BarvinokFactorization]
    exceeded_kmax: bool
    budget_exhausted: bool
    coverings_tested: int


def _coverings(finite_cells, finite_set, k):
    """Yield canonical label assignments for the finite cells.

    Labels appear in first-occurrence order; a partial assignment is pruned
    as soon as some label's row x column rectangle would cover an inf entry.
    """
    t = len(finite_cells)
    labels = [0] * t
    rows_used = [set() for _ in range(k)]
    cols_used = [set() for _ in range(k)]

    def attempt(pos, s):
        i, j = finite_cells[pos]
        for jj in cols_used[s]:
            if (i, jj) not in finite_set:
                return False
        for ii in rows_used[s]:
            if (ii, j) not in finite_set:
                return False
        return True

    def rec(pos, used):
        if pos == t:
            yield tuple(labels)
            return
        i, j = finite_cells[pos]
        top = min(used + 1, k)
        for s in range(top):
            if not attempt(pos, s):
                continue
            new_row = i not in rows_used[s]
            new_col = j not in cols_used[s]
            if new_row:
                rows_used[s].add(i)
            if new_col:
                cols_used[s].add(j)
            labels[pos] = s
            yield from rec(pos + 1, max(used, s + 1))
            if new_row:
                rows_used[s].discard(i)
            if new_col:
                cols_used[s].discard(j)

    yield from rec(0, 0)


def _group_feasible(cost, cells):
    """Whether one label group admits potentials: a_i + b_j = m_ij on `cells`,
    a_i + b_j >= m_ij on every other cell of their row x column rectangle.

    Propagating the equalities from one row per component of the row-column
    graph fixes the potentials up to a shift t_C per component C (rows get
    +t_C, columns -t_C); a disagreeing cycle is infeasible.  A rectangle cell
    (i, j) with slack s = a_i + b_j - m_ij then needs s >= 0 inside one
    component and t_D - t_C <= s between row component C and column
    component D.  Those shift constraints are feasible iff the complete
    component graph has no negative cycle (Floyd-Warshall).
    """
    row_adj = {}
    col_adj = {}
    for i, j in cells:
        row_adj.setdefault(i, []).append(j)
        col_adj.setdefault(j, []).append(i)
    a = {}
    b = {}
    row_comp = {}
    col_comp = {}
    ncomp = 0
    for root in row_adj:
        if root in a:
            continue
        a[root] = 0
        row_comp[root] = ncomp
        stack = [root]
        while stack:
            i = stack.pop()
            row = cost[i]
            ai = a[i]
            for j in row_adj[i]:
                if j in b:
                    continue
                bj = b[j] = row[j] - ai
                col_comp[j] = ncomp
                for ii in col_adj[j]:
                    aii = cost[ii][j] - bj
                    if ii not in a:
                        a[ii] = aii
                        row_comp[ii] = ncomp
                        stack.append(ii)
                    elif a[ii] != aii:
                        return False
        ncomp += 1
    # bound[C][D]: least slack of a cell with row in C, column in D.  Every
    # component has a row and a column, so every pair C != D gets a bound.
    bound = [[0 if c == d else None for d in range(ncomp)] for c in range(ncomp)]
    for i, ai in a.items():
        row = cost[i]
        c = row_comp[i]
        out = bound[c]
        for j, bj in b.items():
            slack = ai + bj - row[j]
            d = col_comp[j]
            if c == d:
                if slack < 0:
                    return False
            elif out[d] is None or slack < out[d]:
                out[d] = slack
    for via in range(ncomp):
        through = bound[via]
        for c in range(ncomp):
            to_via = bound[c][via]
            out = bound[c]
            for d in range(ncomp):
                cand = to_via + through[d]
                if cand < out[d]:
                    out[d] = cand
    return all(bound[c][c] >= 0 for c in range(ncomp))


def _group_solve(cost, rows_s, cols_s, eq_cells):
    """Canonical potentials of one feasible label group; None when infeasible.

    Variables a_i (i in rows_s) and y_j = -b_j (j in cols_s); constraints
    y_j - a_i <= -m_ij for every rectangle cell, plus a_i - y_j <= m_ij on
    assigned cells.  Bellman-Ford from a virtual source (all distances 0).
    The search decides feasibility with `_group_feasible` and calls this only
    on the groups of the covering it accepts, for their potentials.
    """
    nodes = [("a", i) for i in rows_s] + [("y", j) for j in cols_s]
    index = {v: t for t, v in enumerate(nodes)}
    edges = []
    for i in rows_s:
        for j in cols_s:
            m = cost[i][j]
            edges.append((index[("a", i)], index[("y", j)], -m))
    for (i, j) in eq_cells:
        edges.append((index[("y", j)], index[("a", i)], cost[i][j]))
    dist = [0] * len(nodes)
    for it in range(len(nodes) + 1):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand < dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
    else:
        return None  # still relaxing after |V|+1 passes: negative cycle
    a = {i: dist[index[("a", i)]] for i in rows_s}
    b = {j: -dist[index[("y", j)]] for j in cols_s}
    return a, b


def barvinok_rank(m: TropicalMatrix, kmax: Optional[int] = None, budget: Optional[int] = None) -> BarvinokResult:
    """Least k <= kmax admitting a factorization; verified before returning.

    The rank never exceeds min(rows, cols): the min-plus identity gives a
    trivial factorization there, which short-circuits the covering search.
    """
    hard_cap = min(m.rows, m.cols)
    cap = hard_cap if kmax is None else min(kmax, hard_cap)
    exceeded = kmax is not None and kmax < hard_cap
    cost, scale = m.scaled
    finite_cells = [
        (i, j)
        for i in range(m.rows)
        for j in range(m.cols)
        if cost[i][j] is not None
    ]
    finite_set = set(finite_cells)
    tested = 0

    if not finite_cells:
        # All-inf matrix: the empty product at k = 1 works.
        left = TropicalMatrix.constant(m.rows, 1, INF)
        right = TropicalMatrix.constant(1, m.cols, INF)
        fact = BarvinokFactorization(1, left, right)
        assert min_plus_multiply(left, right) == m
        return BarvinokResult(1, fact, False, False, 0)

    for k in range(1, cap + 1):
        if k == m.rows:
            fact = BarvinokFactorization(k, TropicalMatrix.identity(k), m)
            return BarvinokResult(k, fact, False, False, tested)
        if k == m.cols:
            fact = BarvinokFactorization(k, m, TropicalMatrix.identity(k))
            return BarvinokResult(k, fact, False, False, tested)
        for labels in _coverings(finite_cells, finite_set, k):
            if budget is not None and tested >= budget:
                return BarvinokResult(None, None, False, True, tested)
            tested += 1
            groups = [[] for _ in range(k)]
            for cell, s in zip(finite_cells, labels):
                groups[s].append(cell)
            if not all(_group_feasible(cost, cells) for cells in groups if cells):
                continue
            sols = {}
            for s, cells in enumerate(groups):
                if not cells:
                    continue
                rows_s = sorted({i for i, _ in cells})
                cols_s = sorted({j for _, j in cells})
                sol = _group_solve(cost, rows_s, cols_s, cells)
                if sol is None:
                    raise RuntimeError("Bellman-Ford rejected a group the propagation test accepted")
                sols[s] = (rows_s, cols_s, sol)
            left_rows = [[INF] * k for _ in range(m.rows)]
            right_rows = [[INF] * m.cols for _ in range(k)]
            for s, (rows_s, cols_s, (a, b)) in sols.items():
                for i in rows_s:
                    left_rows[i][s] = Fraction(a[i], scale)
                for j in cols_s:
                    right_rows[s][j] = Fraction(b[j], scale)
            left = TropicalMatrix.from_rows(left_rows)
            right = TropicalMatrix.from_rows(right_rows)
            if min_plus_multiply(left, right) != m:
                raise RuntimeError("feasible covering produced a bad factorization")
            return BarvinokResult(k, BarvinokFactorization(k, left, right), False, False, tested)

    return BarvinokResult(None, None, exceeded, False, tested)
