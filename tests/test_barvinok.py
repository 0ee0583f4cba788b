import hashlib
import itertools
import random
from fractions import Fraction

from troprank import (
    INF,
    TropicalMatrix,
    barvinok_rank,
    format_matrix,
    incidence_matrix,
    min_plus_multiply,
    projective_plane,
    tropical_rank,
)
from troprank.barvinok import _coverings, _group_feasible, _group_solve


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
    rows_s = sorted({i for i, _ in cells})
    cols_s = sorted({j for _, j in cells})
    return _group_solve(cost, rows_s, cols_s, cells)


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
        cost, _ = m.scaled
        cells = [(i, j) for i in range(r) for j in range(c) if cost[i][j] is not None]
        seen = set()
        for k in (1, 2, 3):
            for labels in itertools.islice(_coverings(cells, set(cells), k), 3000):
                for s in range(k):
                    group = tuple(cell for cell, t in zip(cells, labels) if t == s)
                    if not group or group in seen:
                        continue
                    seen.add(group)
                    feasible = _group_feasible(cost, group)
                    assert feasible == (_solve_group(cost, group) is not None), (m, group)
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
        cost, _ = m.scaled
        # slacks: -4 one way; m00 - m20 = -3 or 5 the other
        assert _group_feasible(cost, cells) is feasible
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
