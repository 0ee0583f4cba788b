import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from troprank import (
    INF,
    BarvinokFactorization,
    BarvinokResult,
    TropicalMatrix,
    barvinok_rank,
    format_matrix,
    incidence_matrix,
    min_plus_multiply,
    projective_plane,
    tropical_rank,
)
from troprank.assignment import min_permutation
from troprank.barvinok import _CoveringSearch, _factorization, _group_feasible, _potentials


def _coverings(cells, k):
    """Reference enumeration: every canonical label assignment of `cells` in
    depth-first order, labels in first-occurrence order, no label's row x
    column rectangle covering an inf entry."""
    finite = set(cells)
    labels = [0] * len(cells)
    rows_used = [set() for _ in range(k)]
    cols_used = [set() for _ in range(k)]

    def rec(pos, used):
        if pos == len(cells):
            yield tuple(labels)
            return
        i, j = cells[pos]
        for s in range(min(used + 1, k)):
            if any((i, jj) not in finite for jj in cols_used[s]):
                continue
            if any((ii, j) not in finite for ii in rows_used[s]):
                continue
            new_row = i not in rows_used[s]
            new_col = j not in cols_used[s]
            rows_used[s].add(i)
            cols_used[s].add(j)
            labels[pos] = s
            yield from rec(pos + 1, max(used, s + 1))
            if new_row:
                rows_used[s].discard(i)
            if new_col:
                cols_used[s].discard(j)

    yield from rec(0, 0)


def _scan_rank(m, kmax=None, budget=None):
    """Reference search: test every group of every covering in turn, counting
    each covering as it is tested."""
    hard_cap = min(m.rows, m.cols)
    cap = hard_cap if kmax is None else min(kmax, hard_cap)
    cost = m.cost
    cells = [(i, j) for i in range(m.rows) for j in range(m.cols) if cost[i][j] is not None]
    if not cells:
        if kmax == 0:
            return BarvinokResult(None, None, True, False, 0)
        fact = BarvinokFactorization(1, TropicalMatrix.constant(m.rows, 1, INF), TropicalMatrix.constant(1, m.cols, INF))
        return BarvinokResult(1, fact, False, False, 0)
    tested = 0
    for k in range(1, cap + 1):
        if k == m.rows:
            return BarvinokResult(k, BarvinokFactorization(k, TropicalMatrix.identity(k), m), False, False, tested)
        if k == m.cols:
            return BarvinokResult(k, BarvinokFactorization(k, m, TropicalMatrix.identity(k)), False, False, tested)
        for labels in _coverings(cells, k):
            if budget is not None and tested >= budget:
                return BarvinokResult(None, None, False, True, tested)
            tested += 1
            groups = [[cell for cell, t in zip(cells, labels) if t == s] for s in range(k)]
            if all(_group_feasible(cost, g) for g in groups if g):
                return BarvinokResult(k, _factorization(m, groups), False, False, tested)
    return BarvinokResult(None, None, kmax is not None and kmax < hard_cap, False, tested)


def _random_matrix(rng, r, c, inf_rate):
    return TropicalMatrix.from_rows(
        [
            [
                INF if rng.random() < inf_rate else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(c)
            ]
            for _ in range(r)
        ]
    )


def test_rank_one_feasible():
    m = TropicalMatrix.from_rows([[0, 1], [1, 2]])
    res = barvinok_rank(m)
    assert res.rank == 1
    f = res.factorization
    assert f.left.cols == 1 and f.right.rows == 1
    assert min_plus_multiply(f.left, f.right) == m


def test_rank_two_forced():
    # rank 1 needs a1+b1=0, a1+b2=1, a2+b1=1, hence a2+b2=2 != 0
    m = TropicalMatrix.from_rows([[0, 1], [1, 0]])
    res = barvinok_rank(m)
    assert res.rank == 2
    assert min_plus_multiply(res.factorization.left, res.factorization.right) == m


def test_identity_family():
    for n in (2, 3, 4):
        m = TropicalMatrix.identity(n)
        res = barvinok_rank(m)
        assert res.rank == n
        assert min_plus_multiply(res.factorization.left, res.factorization.right) == m


def test_kmax_exceeded():
    m = TropicalMatrix.identity(3)
    res = barvinok_rank(m, kmax=2)
    assert res.rank is None
    assert res.exceeded_kmax
    assert not res.budget_exhausted


def test_budget_exhaustion():
    m = TropicalMatrix.from_rows(
        [[Fraction(i * j + i + 2 * j) for j in range(5)] for i in range(5)]
    )
    # k = 1 has a single covering, which fails; budget 1 stops at k = 2's first.
    for budget in (0, 1):
        res = barvinok_rank(m, budget=budget)
        assert (res.rank, res.budget_exhausted, res.coverings_tested) == (None, True, budget)
        assert res.factorization is None and not res.exceeded_kmax


def test_all_inf_matrix():
    m = TropicalMatrix.constant(2, 3, INF)
    res = barvinok_rank(m)
    assert res.rank == 1
    assert min_plus_multiply(res.factorization.left, res.factorization.right) == m


def test_all_inf_matrix_honours_kmax():
    # kmax 0 leaves no room for the k = 1 empty product
    m = TropicalMatrix.constant(2, 3, INF)
    assert barvinok_rank(m, kmax=0) == _scan_rank(m, kmax=0) == BarvinokResult(None, None, True, False, 0)
    for kmax in (1, 2, None):
        res = barvinok_rank(m, kmax=kmax)
        assert res == _scan_rank(m, kmax=kmax)
        assert (res.rank, res.exceeded_kmax) == (1, False)


def test_transpose_invariance():
    rng = random.Random(5)
    for _ in range(12):
        rows = [
            [
                INF if rng.random() < 0.25 else Fraction(rng.randint(0, 3))
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        m = TropicalMatrix.from_rows(rows)
        a = barvinok_rank(m)
        b = barvinok_rank(m.transpose())
        assert a.rank == b.rank


def test_factorization_always_exact():
    rng = random.Random(11)
    for _ in range(25):
        r = rng.randint(1, 3)
        c = rng.randint(1, 3)
        rows = [
            [
                INF if rng.random() < 0.2 else Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for _ in range(c)
            ]
            for _ in range(r)
        ]
        m = TropicalMatrix.from_rows(rows)
        res = barvinok_rank(m)
        assert res.rank is not None
        f = res.factorization
        assert min_plus_multiply(f.left, f.right) == m


def test_rank_chain_on_01_sample():
    rng = random.Random(77)
    for _ in range(40):
        m = TropicalMatrix.from_rows(
            [[Fraction(rng.randint(0, 1)) for _ in range(3)] for _ in range(3)]
        )
        assert tropical_rank(m).rank <= barvinok_rank(m).rank


def test_deterministic_factorization():
    m = TropicalMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    a = barvinok_rank(m)
    b = barvinok_rank(m)
    assert a.factorization == b.factorization


def _solve_group(cost, cells):
    """Oracle: canonical potentials (a, b) of one label group, or None when it
    is infeasible.  Variables a_i and y_j = -b_j over the group's rows and
    columns; constraints y_j - a_i <= -m_ij on every rectangle cell, plus
    a_i - y_j <= m_ij on the group's cells.  Bellman-Ford from a virtual
    source (all distances 0)."""
    rows_s = sorted({i for i, _ in cells})
    cols_s = sorted({j for _, j in cells})
    nodes = [("a", i) for i in rows_s] + [("y", j) for j in cols_s]
    index = {v: t for t, v in enumerate(nodes)}
    edges = [(index[("a", i)], index[("y", j)], -cost[i][j]) for i in rows_s for j in cols_s]
    edges += [(index[("y", j)], index[("a", i)], cost[i][j]) for i, j in cells]
    dist = [0] * len(nodes)
    for _ in range(len(nodes) + 1):
        changed = False
        for u, v, w in edges:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    else:
        return None  # still relaxing after |V|+1 passes: negative cycle
    return {i: dist[index[("a", i)]] for i in rows_s}, {j: -dist[index[("y", j)]] for j in cols_s}


def test_group_feasible_matches_bellman_ford():
    # Every distinct group of the canonical coverings at k = 1..3; a 4 x 4
    # matrix with many finite cells is cut at its first 3,000 coverings per k.
    rng = random.Random(2024)
    checked = infeasible = 0
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = TropicalMatrix.from_rows(
            [
                [
                    INF if rng.random() < 0.25 else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(c)
                ]
                for _ in range(r)
            ]
        )
        cost = m.cost
        cells = [(i, j) for i in range(r) for j in range(c) if cost[i][j] is not None]
        seen = set()
        for k in (1, 2, 3):
            for labels in itertools.islice(_coverings(cells, k), 3000):
                for s in range(k):
                    group = tuple(cell for cell, t in zip(cells, labels) if t == s)
                    if not group or group in seen:
                        continue
                    seen.add(group)
                    state = _group_feasible(cost, group)
                    feasible = state is not None
                    solved = _solve_group(cost, group)
                    assert feasible == (solved is not None), (m, group)
                    # The potentials too, exactly.
                    assert not feasible or _potentials(state) == solved, (m, group)
                    checked += 1
                    infeasible += not feasible
    assert checked > 2000 and 0 < infeasible < checked


def test_group_feasible_two_components():
    # Equalities on (0,0), (1,0) and on (2,1), (2,2): two components, each
    # consistent, with no unassigned cell inside either.  The rectangle cells
    # between them bound the shift difference both ways: the least slack
    # from rows {0,1} to columns {1,2} plus the slack of (2,0) must be >= 0.
    cells = ((0, 0), (1, 0), (2, 1), (2, 2))
    for m20, feasible in ((3, False), (-5, True)):
        m = TropicalMatrix.from_rows([[0, 2, 2], [1, 3, 5], [m20, 0, 0]])
        cost = m.cost
        # slacks: -4 one way; m00 - m20 = -3 or 5 the other
        assert (_group_feasible(cost, cells) is not None) is feasible
        assert (_solve_group(cost, cells) is not None) is feasible
        # Each component alone is feasible: only the shift cycle can fail.
        assert _group_feasible(cost, cells[:2]) and _group_feasible(cost, cells[2:])


def test_enumeration_and_certificates_pinned():
    # Counts and certificates of the covering search, pinned so a change to
    # the feasibility test cannot move a verdict, a counter or a factorization.
    tested = 0
    digest = hashlib.sha256()
    for bits in itertools.product((0, 1), repeat=9):
        m = TropicalMatrix.from_rows([bits[0:3], bits[3:6], bits[6:9]])
        res = barvinok_rank(m)
        tested += res.coverings_tested
        f = res.factorization
        digest.update((str(res.rank) + format_matrix(f.left) + format_matrix(f.right)).encode())
    assert tested == 64337
    assert digest.hexdigest()[:16] == "4745ba1a5c60aa95"
    fano = incidence_matrix(projective_plane(2), "unit")
    res = barvinok_rank(fano, budget=5000)
    assert (res.rank, res.budget_exhausted, res.coverings_tested) == (None, True, 5000)


def test_pruned_search_matches_scan():
    # The pruned search decides the same coverings as the scan, in the same
    # order, so every field of the result agrees, budget stops included.
    rng = random.Random(4242)
    finished = stopped = 0
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 0.25)
        for budget in (None, 0, 1, 7, 50, 300):
            res = barvinok_rank(m, budget=budget)
            assert res == _scan_rank(m, budget=budget), (m, budget)
            finished += res.rank is not None
            stopped += res.budget_exhausted
        assert barvinok_rank(m, kmax=2) == _scan_rank(m, kmax=2), m
    assert finished and stopped
    for q in (2, 3):
        m = incidence_matrix(projective_plane(q), "unit")
        assert barvinok_rank(m, budget=5000) == _scan_rank(m, budget=5000)


def _check_subtree_counts(m, k):
    # The count below every node of the tree equals the number of reference
    # coverings that extend the node's labels; a capped count agrees up to
    # its cap and leaves the placement as it found it.
    cost = m.cost
    cells = [(i, j) for i in range(m.rows) for j in range(m.cols) if cost[i][j] is not None]
    below = Counter()
    for labels in _coverings(cells, k):
        for pos in range(len(labels) + 1):
            below[labels[:pos]] += 1
    search = _CoveringSearch(cost, cells, k)
    nodes = [()]
    while nodes:
        prefix = nodes.pop()
        pos, used = len(prefix), max(prefix, default=-1) + 1
        for p, s in enumerate(prefix):
            search.place(p, s)
        masks = list(search.masks)
        assert search.count(pos, used) == below[prefix], (m, k, prefix)
        assert min(search.count(pos, used, limit=3), 3) == min(below[prefix], 3)
        assert search.masks == masks
        if pos < len(cells):
            nodes.extend(
                prefix + (s,)
                for s in range(min(used + 1, k))
                if not search.clash[pos] & search.masks[s]
            )
        for p, s in reversed(list(enumerate(prefix))):
            search.unplace(p, s)
    return search


def test_subtree_counts_all_finite():
    # Every shape up to 3 x 3 without inf entries: the closed form throughout.
    for r, c, k in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3)):
        m = TropicalMatrix.constant(r, c, 0)
        assert _check_subtree_counts(m, k).free[0]


def test_subtree_counts_with_inf_entries():
    # With inf entries the count walks the branch, then switches to the
    # closed form once the remaining cells clash with none.
    rng = random.Random(31)
    walked = switched = 0
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(2, 3), rng.randint(2, 4), 0.3)
        for k in (1, 2, 3):
            search = _check_subtree_counts(m, k)
            walked += not search.free[0]
            switched += not search.free[0] and any(search.free[:-1])
    assert walked and switched


def test_default_budget_stops_on_planes():
    for q in (2, 3):
        res = barvinok_rank(incidence_matrix(projective_plane(q), "unit"), budget=200_000)
        assert (res.rank, res.budget_exhausted, res.coverings_tested) == (None, True, 200_000)


def _nonsingular_square(rng, n, inf_rate):
    while True:
        m = _random_matrix(rng, n, n, inf_rate)
        if min_permutation(m.cost)[2]:
            return m


def test_settled_levels_match_scan():
    # Tropically nonsingular squares skip every level below n; each skipped
    # level is charged its covering count and a budget stop lands where the
    # scan's does.  A 4 x 4 without a kmax of 1 is run at finite budgets only:
    # the scan would walk millions of coverings at level 3.
    rng = random.Random(1717)
    stopped = finished = with_inf = 0
    for n in (2, 3, 4):
        for inf_rate in (0.0, 0.25):
            for _ in range(8):
                m = _nonsingular_square(rng, n, inf_rate)
                with_inf += any(c is None for row in m.cost for c in row)
                for budget in (None, 0, 1, 7, 50, 300):
                    for kmax in (None, 1, n - 1):
                        if budget is None and n == 4 and kmax != 1:
                            continue
                        res = barvinok_rank(m, kmax=kmax, budget=budget)
                        assert res == _scan_rank(m, kmax=kmax, budget=budget), (m, kmax, budget)
                        stopped += res.budget_exhausted
                        finished += res.rank == n
    assert stopped and finished and with_inf


def test_level_one_settled_matches_scan():
    # All-finite matrices, rank one among them: level 1 is one covering,
    # decided by one group test, and budget 0 stops before it either way.
    rng = random.Random(606)
    ranked_one = 0
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.5:
            a = [rng.randint(-3, 3) for _ in range(r)]
            b = [rng.randint(-3, 3) for _ in range(c)]
            m = TropicalMatrix.from_rows([[ai + bj for bj in b] for ai in a])
        else:
            m = _random_matrix(rng, r, c, 0.0)
        for budget in (0, 1):
            res = barvinok_rank(m, budget=budget)
            assert res == _scan_rank(m, budget=budget), (m, budget)
            ranked_one += res.rank == 1 and min(r, c) > 1
    assert ranked_one


def test_settled_levels_skip_the_walk(monkeypatch):
    def walk(self):
        raise AssertionError("covering walk called")

    monkeypatch.setattr(_CoveringSearch, "first", walk)
    m = TropicalMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert min_permutation(m.cost)[2]
    res = barvinok_rank(m)
    # One covering at k = 1; S(9, 1) + S(9, 2) = 256 at k = 2.
    assert (res.rank, res.coverings_tested) == (3, 1 + 256)
    rank_one = TropicalMatrix.from_rows([[0, 1, 3, 2], [2, 3, 5, 4], [-1, 0, 2, 1]])
    assert barvinok_rank(rank_one).rank == 1
    with pytest.raises(AssertionError, match="covering walk"):
        # Singular (two equal rows), so level 2 is walked.
        barvinok_rank(TropicalMatrix.from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]]))


def test_negative_budget_raises():
    with pytest.raises(ValueError):
        barvinok_rank(TropicalMatrix.identity(3), budget=-1)


def test_negative_kmax_raises():
    # Not "exceeds kmax -1": no factorization has a negative inner dimension to miss.
    with pytest.raises(ValueError, match="negative kmax -1"):
        barvinok_rank(TropicalMatrix.identity(3), kmax=-1)
    assert barvinok_rank(TropicalMatrix.identity(3), kmax=0).exceeded_kmax
