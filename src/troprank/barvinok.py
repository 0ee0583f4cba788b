"""Barvinok rank: least k with an exact min-plus factorization n x k times k x m.

Feasibility at a given k is decided by a depth-first search over covering
assignments: which inner index attains the min at each finite entry, labels
canonicalized by first occurrence to kill the k! relabeling symmetry.  A label
group is feasible when a_i + b_j = m_ij on its assigned cells and
a_i + b_j >= m_ij on the rest of its row x column rectangle admit potentials,
and a covering works when all its groups are.  A cell never joins a group
whose rectangle would then cover an inf entry.

The search places cells in row-major order, tests only the group that just
gained a cell, and cuts the branch as soon as that group is infeasible.
Feasibility is monotone: another cell adds one equality and can only enlarge
the rectangle, so a group that is infeasible at a node stays infeasible in
every covering below it.  The first covering in depth-first order whose groups
all pass is therefore the one a covering-by-covering scan accepts, and it gets
the same potentials.  `coverings_tested` counts the coverings decided, either
at a leaf or by a pruned ancestor: a cut branch adds the number of coverings
below it.  Once no remaining cell can share a label with an inf entry in its
rectangle (from the start, for an all-finite matrix), r cells left and u labels
in use give N(r, u) = u N(r-1, u) + [u < k] N(r-1, u+1) coverings, with
N(0, u) = 1; before that point the branch is walked with the rectangle check
and no group tests.  A budget stops the search where the scan stops, at its
(budget+1)-th covering.

Two kinds of level are settled without the walk.  Tropical rank is at most
Barvinok rank (Develin-Santos-Sturmfels, *On the rank of a tropical matrix*),
so a tropically nonsingular n x n matrix, certified by one assignment solve,
has Barvinok rank n and every level below n is infeasible.  At k = 1 with no
clash the level has exactly one covering, all finite cells in one group, and
by monotonicity one group test on all of them decides it.  A settled level is
charged what the walk would charge, so `coverings_tested` keeps its meaning:
every covering of an infeasible level (the closed form N(t, 0) when no cell
clashes), one at k = 1, and at the budget it stops where the scan stops.

The group test propagates the equalities.  They fix every potential up to one
shift per connected component of the group's row-column graph, and a cycle
whose propagated values disagree makes the group infeasible.  Rectangle cells
inside one component are then checked directly; cells between two components
bound the difference of their shifts, and those component-level difference
constraints are feasible iff they hold no negative cycle.  The covering that
passes gets canonical potentials, each component's greatest shift keeping every
a_i <= 0 and b_j >= 0, and its factorization is verified entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .assignment import min_permutation
from .tropical import INF, TropicalMatrix, min_plus_multiply


# The covering budget kapranov_bounds and `troprank rank --kind barvinok` use
# when none is given.
DEFAULT_COVERING_BUDGET = 200_000


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


def _group_feasible(cost, cells):
    """The propagated state of one label group that admits potentials
    (a_i + b_j = m_ij on `cells`, a_i + b_j >= m_ij on every other cell of
    their row x column rectangle), or None when it admits none.

    Propagating the equalities from one row per component of the row-column
    graph fixes the potentials up to a shift t_C per component C (rows get
    +t_C, columns -t_C); a disagreeing cycle is infeasible.  A rectangle cell
    (i, j) with slack s = a_i + b_j - m_ij then needs s >= 0 inside one
    component and t_D - t_C <= s between row component C and column
    component D.  Those shift constraints are feasible iff the complete
    component graph has no negative cycle (Floyd-Warshall).  The state is
    (a, b, row_comp, col_comp, bound): the propagated potentials, each row's
    and column's component, and the shortest path bound[C][D] from C to D.
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
                        return None
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
                    return None
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
    return (a, b, row_comp, col_comp, bound) if all(bound[c][c] >= 0 for c in range(ncomp)) else None


def _potentials(state):
    """The greatest potentials (a, b) with every a_i <= 0 and b_j >= 0 of a
    group, from its _group_feasible state.  Shift t_C may rise to top_C, the
    least -a_i and b_j over C, and t_D <= t_C + bound[C][D], so t_D is the
    least top_C + bound[C][D] (bound[D][D] = 0): Bellman-Ford's shortest
    paths from a virtual source on the same constraints."""
    a, b, row_comp, col_comp, bound = state
    top = [0] * len(bound)  # each component's root row has a = 0
    for i, ai in a.items():
        if -ai < top[row_comp[i]]:
            top[row_comp[i]] = -ai
    for j, bj in b.items():
        if bj < top[col_comp[j]]:
            top[col_comp[j]] = bj
    shift = [min([t + out[d] for t, out in zip(top, bound)]) for d in range(len(bound))]
    return (
        {i: ai + shift[row_comp[i]] for i, ai in a.items()},
        {j: bj - shift[col_comp[j]] for j, bj in b.items()},
    )


class _CoveringSearch:
    """The canonical coverings of `cells` (finite, row-major) with at most k labels.

    groups[s] holds the cells labelled s in placement order and masks[s] their
    positions as a bitmask.  clash[p] is the bitmask of the cells that may not
    share a label with cell p, because their joint rectangle holds an inf entry;
    free[p] says that no cell from p on clashes with any cell.  Coverings of a
    free suffix are counted in closed form.  `budget` caps the coverings that
    `first` may decide (None: no cap); counts past it need not be exact.
    """

    def __init__(self, cost, cells, k, budget=None):
        self.cost = cost
        self.cells = cells
        self.k = k
        self.budget = budget
        in_row = {}
        in_col = {}
        for p, (i, j) in enumerate(cells):
            in_row[i] = in_row.get(i, 0) | 1 << p
            in_col[j] = in_col.get(j, 0) | 1 << p
        row_clash = dict.fromkeys(in_row, 0)
        col_clash = dict.fromkeys(in_col, 0)
        for i, in_i in in_row.items():
            for j, in_j in in_col.items():
                if cost[i][j] is None:
                    row_clash[i] |= in_j
                    col_clash[j] |= in_i
        self.clash = [row_clash[i] | col_clash[j] for i, j in cells]
        self.free = [True] * (len(cells) + 1)
        for p in range(len(cells) - 1, -1, -1):
            self.free[p] = self.free[p + 1] and not self.clash[p]
        self.groups = [[] for _ in range(k)]
        self.masks = [0] * k
        self.tested = 0
        self.exhausted = False
        self._leaf_table = None

    def _leaves(self, r, u):
        """N(r, u): coverings of r further cells, none clashing, u labels in use."""
        if self._leaf_table is None:
            k, cap = self.k, None if self.budget is None else self.budget + 1
            row = [1] * (k + 1)
            table = [row]
            for _ in self.cells:
                row = [u * row[u] + (row[u + 1] if u < k else 0) for u in range(k + 1)]
                if cap is not None:
                    row = [min(n, cap) for n in row]
                table.append(row)
            self._leaf_table = table
        return self._leaf_table[r][u]

    def place(self, pos, s):
        self.groups[s].append(self.cells[pos])
        self.masks[s] |= 1 << pos

    def unplace(self, pos, s):
        self.groups[s].pop()
        self.masks[s] ^= 1 << pos

    def count(self, start, used, limit=None):
        """Coverings below the node whose next cell is `start`, with labels
        0..used-1 in use and the cells before `start` placed.  Exact when below
        `limit` (None: always), at least `limit` otherwise.  Leaves the
        placement as it found it."""
        t, k = len(self.cells), self.k
        if self.free[start]:
            return self._leaves(t - start, used)
        clash, masks, free = self.clash, self.masks, self.free
        labels = [-1] * t
        use = [0] * t
        use[start] = used
        pos = start
        total = 0
        while pos >= start:
            s = labels[pos]
            if s >= 0:
                masks[s] ^= 1 << pos
            s += 1
            top = min(use[pos] + 1, k)
            while s < top and clash[pos] & masks[s]:
                s += 1
            if s == top:
                labels[pos] = -1
                pos -= 1
                continue
            labels[pos] = s
            masks[s] |= 1 << pos
            u = max(use[pos], s + 1)
            if not free[pos + 1]:
                use[pos + 1] = u
                pos += 1
                continue
            total += self._leaves(t - pos - 1, u)
            if limit is not None and total >= limit:
                for p in range(start, pos + 1):
                    masks[labels[p]] ^= 1 << p
                break
        return total

    def settle(self, infeasible):
        """What `first` returns, with `tested` and `exhausted` set as it sets
        them, without the walk when the level is settled by a certificate:
        `infeasible` (the level lies below a certified lower bound) charges
        every covering, and a level of one covering (k = 1, no clash) takes
        one group test on all the cells, which decides it by monotonicity.
        Either stops at the budget where the walk stops."""
        if infeasible:
            n = self.count(0, 0, None if self.budget is None else self.budget + 1)
        elif self.k == 1 and self.free[0]:
            n = 1
        else:
            return self.first()
        if self.budget is not None and n > self.budget:
            self.tested, self.exhausted = self.budget, True
            return None
        self.tested = n
        if infeasible or _group_feasible(self.cost, self.cells) is None:
            return None
        self.groups[0].extend(self.cells)
        return self.groups

    def first(self):
        """The groups of the first covering in depth-first order whose groups
        are all feasible, or None.  Sets `tested` to the coverings decided and
        `exhausted` when deciding one more would pass the budget."""
        cost, cells, clash, groups, masks = self.cost, self.cells, self.clash, self.groups, self.masks
        left = self.budget
        t, k = len(cells), self.k
        labels = [-1] * t
        use = [0] * t
        pos = 0
        tested = 0
        while pos >= 0:
            s = labels[pos]
            if s >= 0:
                self.unplace(pos, s)
            s += 1
            top = min(use[pos] + 1, k)
            while s < top:
                if not clash[pos] & masks[s]:
                    self.place(pos, s)
                    u = max(use[pos], s + 1)
                    if _group_feasible(cost, groups[s]) is not None:
                        break
                    below = self.count(pos + 1, u, None if left is None else left - tested + 1)
                    if left is not None and tested + below > left:
                        self.tested, self.exhausted = left, True
                        return None
                    tested += below
                    self.unplace(pos, s)
                s += 1
            if s == top:
                labels[pos] = -1
                pos -= 1
                continue
            labels[pos] = s
            if pos + 1 < t:
                use[pos + 1] = u
                pos += 1
                continue
            if left is not None and tested >= left:
                self.tested, self.exhausted = left, True
                return None
            self.tested = tested + 1
            return groups
        self.tested = tested
        return None


def _factorization(m, groups) -> BarvinokFactorization:
    """The canonical factorization of an accepted covering, verified entrywise."""
    k = len(groups)
    left = [[None] * k for _ in range(m.rows)]
    right = [[None] * m.cols for _ in range(k)]
    for s, cells in enumerate(groups):
        if not cells:
            continue
        state = _group_feasible(m.cost, cells)
        if state is None:
            raise RuntimeError("an accepted covering holds an infeasible group")
        a, b = _potentials(state)
        for i, ai in a.items():
            left[i][s] = ai
        for j, bj in b.items():
            right[s][j] = bj
    fact = BarvinokFactorization(k, TropicalMatrix(left, m.scale), TropicalMatrix(right, m.scale))
    if min_plus_multiply(fact.left, fact.right) != m:
        raise RuntimeError("feasible covering produced a bad factorization")
    return fact


def barvinok_rank(m: TropicalMatrix, kmax: Optional[int] = None, budget: Optional[int] = None) -> BarvinokResult:
    """Least k <= kmax admitting a factorization; verified before returning.

    The rank never exceeds min(rows, cols): the min-plus identity gives a
    trivial factorization there, which short-circuits the covering search.
    It is at least the tropical rank (DSS), so a tropically nonsingular
    square matrix skips the search below n; each level skipped that way is
    charged its full covering count, as the search would charge it, and a
    budget stop lands on the same covering.  A negative kmax or budget
    raises ValueError.
    """
    if kmax is not None and kmax < 0:
        raise ValueError(f"negative kmax {kmax}")
    if budget is not None and budget < 0:
        raise ValueError(f"negative covering budget {budget}")
    hard_cap = min(m.rows, m.cols)
    cap = hard_cap if kmax is None else min(kmax, hard_cap)
    exceeded = kmax is not None and kmax < hard_cap
    cost = m.cost
    finite_cells = [
        (i, j)
        for i in range(m.rows)
        for j in range(m.cols)
        if cost[i][j] is not None
    ]
    tested = 0

    if not finite_cells:
        # All-inf matrix: the empty product at k = 1 works, unless kmax is 0.
        if kmax == 0:
            return BarvinokResult(None, None, True, False, 0)
        left = TropicalMatrix.constant(m.rows, 1, INF)
        right = TropicalMatrix.constant(1, m.cols, INF)
        fact = BarvinokFactorization(1, left, right)
        assert min_plus_multiply(left, right) == m
        return BarvinokResult(1, fact, False, False, 0)

    # Certified lower bound: a tropically nonsingular square has tropical rank n.
    lower = m.rows if m.rows == m.cols > 1 and min_permutation(cost)[2] else 1
    for k in range(1, cap + 1):
        if k == m.rows:
            fact = BarvinokFactorization(k, TropicalMatrix.identity(k), m)
            return BarvinokResult(k, fact, False, False, tested)
        if k == m.cols:
            fact = BarvinokFactorization(k, m, TropicalMatrix.identity(k))
            return BarvinokResult(k, fact, False, False, tested)
        search = _CoveringSearch(cost, finite_cells, k, None if budget is None else budget - tested)
        groups = search.settle(k < lower)
        tested += search.tested
        if search.exhausted:
            return BarvinokResult(None, None, False, True, tested)
        if groups is not None:
            return BarvinokResult(k, _factorization(m, groups), False, False, tested)

    return BarvinokResult(None, None, exceeded, False, tested)
