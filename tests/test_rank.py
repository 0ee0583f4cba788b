import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from troprank import (
    INF,
    TropicalMatrix,
    brute_force_determinant,
    incidence_matrix,
    is_nonsingular,
    projective_plane,
    sample_level_singular,
    tropical_rank,
    tropical_scale,
)
from troprank import rank as rank_mod
from troprank.assignment import min_permutation


def test_all_zero_rank_one():
    for n in (1, 2, 4):
        res = tropical_rank(TropicalMatrix.constant(n, n, 0))
        assert res.rank == 1
        assert res.certified
        if n > 1:
            assert res.refuted_level == 2


def test_diagonal_full_rank():
    for n in (1, 3, 5):
        res = tropical_rank(TropicalMatrix.identity(n))
        assert res.rank == n
        assert res.certified
        assert res.refuted_level is None


def test_all_inf_rank_zero():
    res = tropical_rank(TropicalMatrix.constant(3, 3, INF))
    assert res.rank == 0
    assert res.certified


def test_fano_rank_three_with_oracle():
    """Exhaustive brute force over every 3x3 and 4x4 submatrix as the oracle."""
    fano = incidence_matrix(projective_plane(2), "unit")
    res = tropical_rank(fano)
    assert res.rank == 3
    assert res.certified and res.refuted_level == 4
    # oracle: some 3x3 nonsingular, no 4x4 nonsingular
    found3 = False
    for rows in itertools.combinations(range(7), 3):
        for cols in itertools.combinations(range(7), 3):
            value, winners = brute_force_determinant(fano.submatrix(rows, cols))
            if value is not INF and len(winners) == 1:
                found3 = True
                break
        if found3:
            break
    assert found3
    for rows in itertools.combinations(range(7), 4):
        for cols in itertools.combinations(range(7), 4):
            value, winners = brute_force_determinant(fano.submatrix(rows, cols))
            assert value is INF or len(winners) > 1
    # the witness reported really is nonsingular
    value, winners = brute_force_determinant(
        fano.submatrix(res.row_witness, res.col_witness)
    )
    assert value is not INF and len(winners) == 1


def test_witness_always_verifies():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [
            [
                INF if rng.random() < 0.2 else Fraction(rng.randint(-9, 9))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = TropicalMatrix.from_rows(rows)
        res = tropical_rank(m)
        assert res.certified
        if res.rank > 0:
            value, winners = brute_force_determinant(
                m.submatrix(res.row_witness, res.col_witness)
            )
            assert value is not INF and len(winners) == 1


def test_monotonicity_of_submatrices():
    rng = random.Random(13)
    for _ in range(20):
        m = TropicalMatrix.from_rows(
            [[Fraction(rng.randint(0, 4)) for _ in range(4)] for _ in range(4)]
        )
        full = tropical_rank(m).rank
        rows = sorted(rng.sample(range(4), 3))
        cols = sorted(rng.sample(range(4), 3))
        assert tropical_rank(m.submatrix(rows, cols)).rank <= full


def test_transpose_invariance():
    rng = random.Random(17)
    for _ in range(15):
        m = TropicalMatrix.from_rows(
            [
                [INF if rng.random() < 0.2 else Fraction(rng.randint(0, 5)) for _ in range(4)]
                for _ in range(3)
            ]
        )
        assert tropical_rank(m).rank == tropical_rank(m.transpose()).rank


def test_scaling_invariance_of_rank():
    rng = random.Random(23)
    for _ in range(10):
        m = TropicalMatrix.from_rows(
            [[Fraction(rng.randint(0, 3)) for _ in range(4)] for _ in range(4)]
        )
        r = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        assert tropical_rank(tropical_scale(m, r, c)).rank == tropical_rank(m).rank


def test_budget_exhaustion_reported_distinctly():
    fano = incidence_matrix(projective_plane(2), "unit")
    res = tropical_rank(fano, budget=10)
    assert res.budget_exhausted
    assert not res.certified


def test_limit_caps_search():
    m = TropicalMatrix.identity(5)
    res = tropical_rank(m, limit=2)
    assert res.rank == 2
    assert res.certified


def test_sampled_smoke_is_sampling_only():
    m = incidence_matrix(projective_plane(3), "unit")
    ok, counterexample = sample_level_singular(m, 4, 5000, seed=3)
    assert ok and counterexample is None
    # at level 3 a nonsingular submatrix exists and sampling finds it
    ok3, ce = sample_level_singular(m, 3, 5000, seed=3)
    assert not ok3 and ce is not None


def _random_nonneg(rng, rows, cols, inf_share=0.15, top=3):
    """Entries 0 (half), inf (inf_share) or a weight in 1..top: ties and
    blocked permutations in every size."""
    def entry():
        u = rng.random()
        return Fraction(0) if u < 0.5 else INF if u < 0.5 + inf_share else Fraction(rng.randint(1, top))
    return TropicalMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


def _reweighted(rng, m):
    """The same zeros and infs with fresh weights in 1..9."""
    return TropicalMatrix.from_rows(
        [[x if x == 0 or x is INF else Fraction(rng.randint(1, 9)) for x in row] for row in m.to_rows()]
    )


def test_classified_scan_returns_generic_witness(monkeypatch):
    """Oracle: per level, the zero-pattern scan reports exactly what the
    plain pair-by-pair scan reports, witness included.  The second pass has
    no inf and weights 1-2 only, so weighted ties are common.  A level the
    scan calls weight-free stays refuted under another weighting."""
    rng = random.Random(29)
    levels = {"witness": 0, "exhausted": 0, "weight-free": 0}
    for inf_share, top, count in ((0.15, 3, 300), (0.0, 2, 100)):
        for _ in range(count):
            m = _random_nonneg(rng, rng.randint(6, 9), rng.randint(6, 9), inf_share, top)
            cost = m.cost
            views = rank_mod._level_views(cost)
            # dense=None takes the exact fallback used when int64 would overflow.
            python_views = dataclasses.replace(views, dense=None)
            finite_rows = [sum(x is not INF for x in row) for row in m.to_rows()]
            for k in range(1, 6):
                expected = rank_mod._generic_level_scan(m, cost, k, rank_mod._Budget(None))
                # A witness in the r-th row set is charged r + 1 whole row sets.
                row_sets = list(rank_mod._ordered_combos(finite_rows, m.rows, k))
                covered = len(row_sets) if expected[0] == "exhausted" else row_sets.index(expected[1][0]) + 1
                # Batches of 5 pairs resolve each level in many steps, and
                # blocks of 5 row sets walk it in many blocks.
                statuses = set()
                for v, chunk, block in (
                    (views, 1 << 14, rank_mod._BLOCK_SIZE),
                    (python_views, 1 << 14, rank_mod._BLOCK_SIZE),
                    (views, 5, rank_mod._BLOCK_SIZE),
                    (views, 1 << 14, 5),
                ):
                    monkeypatch.setattr(rank_mod, "_RESOLVE_CHUNK", chunk)
                    monkeypatch.setattr(rank_mod, "_BLOCK_SIZE", block)
                    rank_mod._CLASSIFY_CACHE.clear()
                    budget = rank_mod._Budget(None)
                    status, found = rank_mod._structured_level_scan(cost, v, k, budget)
                    monkeypatch.undo()
                    statuses.add(status)
                    assert ("exhausted" if status == "weight-free" else status, found) == expected, (
                        m.rows, m.cols, k, chunk)
                    assert budget.used == covered * comb(m.cols, k)
                assert len(statuses) == 1
                levels[status] += 1
                if status == "weight-free":
                    other = _reweighted(rng, m)
                    assert rank_mod._generic_level_scan(
                        other, other.cost, k, rank_mod._Budget(None)
                    ) == ("exhausted", None)
                if expected[0] == "exhausted":
                    break
    assert min(levels.values()) > 0, levels
    # Whole searches agree too, with every level classified.  Each matrix is
    # followed by one with the same zeros but inf and weights swapped, whose
    # scan order differs: its classification must not come from the cache.
    for _ in range(15):
        m = _random_nonneg(rng, rng.randint(6, 9), rng.randint(6, 9))
        swapped = TropicalMatrix.from_rows(
            [
                [x if x == 0 else Fraction(2) if x is INF else INF for x in row]
                for row in m.to_rows()
            ]
        )
        for a in (m, swapped):
            plain = tropical_rank(a)
            monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", 0)
            classified = tropical_rank(a)
            monkeypatch.undo()
            assert (classified.rank, classified.row_witness, classified.col_witness) == (
                plain.rank, plain.row_witness, plain.col_witness
            )
            assert classified.refuted_level == plain.refuted_level


def _deep_witness_matrix(rng, n):
    """Two all-zero rows rank first in witness order, and every submatrix
    holding both is singular, so witnesses lie past the first row sets."""
    def entry():
        u = rng.random()
        return Fraction(0) if u < 0.2 else INF if u < 0.36 else Fraction(rng.randint(1, 3))
    rows = [[Fraction(0)] * n, [Fraction(0)] * n]
    rows += [[entry() for _ in range(n)] for _ in range(n - 2)]
    return TropicalMatrix.from_rows(rows)


@pytest.mark.parametrize("chunk", [1 << 14, 40, 3])
def test_rank_result_same_cold_and_warm(monkeypatch, chunk):
    """A budgeted call gives the same RankResult whatever the classification
    cache holds, and never charges past its budget.  Budgets fall on and just
    short of row-set boundaries; with small batches they cut a level between
    resolutions, and a cache filled under a larger budget reaches past them."""
    monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", 0)
    monkeypatch.setattr(rank_mod, "_RESOLVE_CHUNK", chunk)
    rng = random.Random(41)
    matrices = [incidence_matrix(projective_plane(2), "random", seed=5)]
    matrices += [_deep_witness_matrix(rng, 8) for _ in range(2)]
    assert tropical_rank(matrices[0], limit=5).refuted_level == 4
    for m in matrices:
        rank_mod._CLASSIFY_CACHE.clear()
        full = tropical_rank(m, limit=5)
        level_start = [tropical_rank(m, limit=k).pairs_examined for k in range(5)]
        boundaries = [
            level_start[k - 1] + j * comb(m.cols, k) - d
            for k in range(1, 6)
            for j in range(1, comb(m.rows, k) + 1)
            for d in (0, 1)
        ]
        picked = rng.sample(boundaries, 12)
        budgets = sorted({50, 500, 5000, *(b for b in picked if b <= full.pairs_examined + 1)})
        cold = {None: full}
        for budget in budgets:
            rank_mod._CLASSIFY_CACHE.clear()
            cold[budget] = tropical_rank(m, limit=5, budget=budget)
            assert tropical_rank(m, limit=5, budget=budget) == cold[budget]
            assert cold[budget].pairs_examined <= budget
            if budget >= full.pairs_examined:
                assert cold[budget] == full
            else:
                assert cold[budget].budget_exhausted and not cold[budget].certified
        # Warm from the prefix a smaller budget classified.
        rank_mod._CLASSIFY_CACHE.clear()
        for budget in budgets:
            assert tropical_rank(m, limit=5, budget=budget) == cold[budget]
        # Warm after a full classification of every level.
        rank_mod._CLASSIFY_CACHE.clear()
        tropical_rank(m, limit=5)
        for budget, expected in cold.items():
            assert tropical_rank(m, limit=5, budget=budget) == expected


@pytest.mark.parametrize("block", [5, 7])
def test_partly_classified_entry_resumes_mid_block(monkeypatch, block):
    """With blocks of a few row sets, budgets cut levels inside a block.
    Rising budgets on one cache then resume each partly classified entry by
    position, and every result equals the cold one with default blocks.
    No entry classifies a row set past its call's budget or marks one twice."""
    monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", 0)
    default = rank_mod._BLOCK_SIZE
    rng = random.Random(43)
    for m in (incidence_matrix(projective_plane(2), "random", seed=6), _deep_witness_matrix(rng, 8)):
        rank_mod._CLASSIFY_CACHE.clear()
        full = tropical_rank(m, limit=5)
        level_start = [tropical_rank(m, limit=k).pairs_examined for k in range(5)]
        budgets = sorted(rng.sample(range(full.pairs_examined + 2), 30))
        cold = {}
        for budget in budgets:
            rank_mod._CLASSIFY_CACHE.clear()
            cold[budget] = tropical_rank(m, limit=5, budget=budget)
        monkeypatch.setattr(rank_mod, "_BLOCK_SIZE", block)
        rank_mod._CLASSIFY_CACHE.clear()
        for budget in budgets:
            assert tropical_rank(m, limit=5, budget=budget) == cold[budget], budget
            for (_, _, _, k), entry in rank_mod._CLASSIFY_CACHE.items():
                room = (budget - level_start[k - 1]) // comb(m.cols, k)
                assert entry.classified <= min(room, comb(m.rows, k))
                # Each classified row set is marked at most once, in order.
                indices = [mark.index for mark in entry.marked]
                assert indices == sorted(set(indices)) and all(i < entry.classified for i in indices)
        assert tropical_rank(m, limit=5) == full
        monkeypatch.setattr(rank_mod, "_BLOCK_SIZE", default)


def test_budget_stop_before_building_a_level(monkeypatch):
    """A budget that affords not one row set of the next level stops before
    the level's cache entry is made: weighted PG(2,8) at the level-3 cost
    plus 10 pairs never makes a level-4 entry."""
    m = incidence_matrix(projective_plane(8), "random", seed=1)
    three = tropical_rank(m, limit=3).pairs_examined
    rank_mod._CLASSIFY_CACHE.clear()
    expected = tropical_rank(m, budget=three + 10)
    assert (expected.rank, expected.certified, expected.budget_exhausted) == (3, False, True)
    assert expected.pairs_examined == three
    level_entry = rank_mod._level_entry

    def no_level_four(views, k):
        if k == 4:
            raise AssertionError("level 4 column sets built")
        return level_entry(views, k)

    monkeypatch.setattr(rank_mod, "_level_entry", no_level_four)
    rank_mod._CLASSIFY_CACHE.clear()
    assert tropical_rank(m, budget=three + 10) == expected


def test_all_positive_matrix_stops_at_first_witness_row_set():
    """No zero entries: every pair needs the weighted check.  Each classified
    level (2-5 on 16x16) must stop at the row set holding its witness rather
    than classify the whole level (C(16, 5)^2 = 19.1M pairs at k = 5)."""
    rng = random.Random(31)
    m = TropicalMatrix.from_rows(
        [[Fraction(rng.randint(1, 9)) for _ in range(16)] for _ in range(16)]
    )
    rank_mod._CLASSIFY_CACHE.clear()
    res = tropical_rank(m, limit=5)
    assert res.rank == 5 and res.certified
    # Level 1 (256 pairs) goes pair by pair and its first pair is a witness;
    # every classified level finds its witness in its first row set.
    assert res.pairs_examined == 1 + sum(comb(16, k) for k in range(2, 6))
    # The first weighted batch closes at one row set's pairs, so exactly
    # that row set is classified.
    assert sorted(k for (_, _, _, k) in rank_mod._CLASSIFY_CACHE) == [2, 3, 4, 5]
    for entry in rank_mod._CLASSIFY_CACHE.values():
        assert entry.classified == 1
    cost = m.cost
    views = rank_mod._level_views(cost)
    for k in (3, 4, 5):
        expected = rank_mod._generic_level_scan(m, cost, k, rank_mod._Budget(None))
        got = rank_mod._structured_level_scan(cost, views, k, rank_mod._Budget(None))
        assert got == expected


def test_negative_budget_raises():
    # A negative budget is an error, not a budget stop at rank 0.
    with pytest.raises(ValueError, match="negative"):
        tropical_rank(TropicalMatrix.identity(3), budget=-1)


def test_negative_limit_raises():
    # A negative limit is an error, not a certified rank 0.
    with pytest.raises(ValueError, match="negative level limit -1"):
        tropical_rank(TropicalMatrix.identity(3), limit=-1)
    res = tropical_rank(TropicalMatrix.identity(3), limit=0)
    assert (res.rank, res.refuted_level) == (0, None)


def test_sample_level_range():
    fano = incidence_matrix(projective_plane(2), "random", seed=3)
    for k in (0, 8, -1):
        with pytest.raises(ValueError):
            sample_level_singular(fano, k, 10, seed=1)
    # A negative count is an error, not an "all singular" claim from no draws.
    with pytest.raises(ValueError):
        sample_level_singular(fano, 4, -1, seed=1)
    for k in range(1, 8):
        ok, ce = sample_level_singular(fano, k, 300, seed=k)
        assert ok == (k > 3), k
        if ce is not None:
            value, winners = brute_force_determinant(fano.submatrix(*ce))
            assert value is not INF and len(winners) == 1
    # A negative entry: every draw is checked exactly, at every k.
    m = TropicalMatrix.from_rows(
        [[Fraction(-1) if i == j else Fraction(i + j) for j in range(7)] for i in range(7)]
    )
    for k in range(1, 8):
        ok, ce = sample_level_singular(m, k, 50, seed=k)
        assert not ok and len(ce[0]) == k


def _and_over_permutations(blocks):
    """Reference count: all-zero permutations per block of a (P, k, k) bool
    stack (True where row i, column j is zero), one AND chain per permutation."""
    k = blocks.shape[1]
    counts = np.zeros(len(blocks), dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        term = blocks[:, 0, perm[0]]
        for i in range(1, k):
            term = term & blocks[:, i, perm[i]]
        counts += term
    return counts


def _pack_columns(blocks):
    """Column codes of a (P, k, k) bool stack: bit i of codes[p, t] is row i, column t."""
    k = blocks.shape[1]
    return (blocks.astype(np.int64) << np.arange(k)[:, None]).sum(axis=1).astype(np.uint8)


def test_zero_perm_counts_match_and_over_permutations():
    """Every block for k <= 4, and random blocks for k = 1..6 at zero
    densities 0.3, 0.6 and 0.9, against the AND-over-permutations count."""
    for k in range(1, 5):
        keys = np.arange(1 << (k * k))
        blocks = ((keys[:, None, None] >> (k * np.arange(k) + np.arange(k)[:, None])) & 1).astype(bool)
        assert ((_pack_columns(blocks).astype(np.int64) << k * np.arange(k)).sum(axis=1) == keys).all()  # every block once
        assert (rank_mod._zero_perm_counts(_pack_columns(blocks)) == _and_over_permutations(blocks)).all()
    rng = np.random.default_rng(43)
    for k in range(1, 7):
        for density in (0.3, 0.6, 0.9):
            blocks = rng.random((3000, k, k)) < density
            codes = rank_mod._column_codes(blocks)
            assert (codes == _pack_columns(blocks)).all()
            expected = _and_over_permutations(blocks)
            assert (rank_mod._zero_perm_counts(codes) == expected).all(), (k, density)
    # Dense 6x6 blocks exceed 255 all-zero permutations; the count must not wrap.
    assert expected.max() > 255


def test_sample_level_finds_nonsingular_at_k5_k6():
    """The block on rows and columns 1..6 is zero on its diagonal only, so
    its equal-index submatrices have exactly one all-zero permutation and
    are nonsingular: the zero filter must keep such draws.  Row 0 and
    column 0 are all zero, which gives some draws two or more (filtered
    out).  The all-positive matrix has none, so every draw is checked."""
    rng = random.Random(47)
    rows = [[Fraction(0)] * 7]
    rows += [[Fraction(0)] + [Fraction(0) if i == j else Fraction(rng.randint(1, 3)) for j in range(1, 7)]
             for i in range(1, 7)]
    m = TropicalMatrix.from_rows(rows)
    positive = TropicalMatrix.from_rows([[Fraction(rng.randint(1, 9)) for _ in range(8)] for _ in range(8)])
    for matrix in (m, positive):
        for k in (5, 6):
            ok, ce = sample_level_singular(matrix, k, 2000, seed=k)
            assert not ok and len(ce[0]) == len(ce[1]) == k
            assert is_nonsingular(matrix.submatrix(*ce))


def _supports(block):
    """{permutation: frozenset of the nonzero cells it uses} of a (k, k) bool
    zero pattern."""
    k = len(block)
    return {
        perm: frozenset((i, perm[i]) for i in range(k) if not block[i][perm[i]])
        for perm in itertools.permutations(range(k))
    }


def _minimal_support_class(block):
    """Class of a zero pattern by definition: one all-zero permutation is
    NONSINGULAR; SINGULAR when every inclusion-minimal support is used by two
    or more permutations; WEIGHTED otherwise."""
    supports = list(_supports(block).values())
    if supports.count(frozenset()) == 1:
        return rank_mod._NONSINGULAR
    minimal = [s for s in supports if not any(t < s for t in supports)]
    return rank_mod._SINGULAR if all(supports.count(s) >= 2 for s in minimal) else rank_mod._WEIGHTED


def _separating_weighting(block):
    """Costs making one permutation the unique minimum: 1 on a support that
    holds no other permutation's support, k + 1 on the other nonzero cells.
    None when every support holds another."""
    k = len(block)
    supports = _supports(block)
    for perm, s in supports.items():
        if not any(t <= s for other, t in supports.items() if other != perm):
            return [[0 if block[i][j] else 1 if (i, j) in s else k + 1 for j in range(k)] for i in range(k)]
    return None


def _all_blocks(k):
    keys = np.arange(1 << (k * k))
    return ((keys[:, None, None] >> (k * np.arange(k) + np.arange(k)[:, None])) & 1).astype(bool)


def test_class_table_matches_minimal_support_rule():
    """Every block for k <= 3 and 5,000 random ones at k = 4 against the
    definition; at k = 5, where classes come from counts, SINGULAR and
    NONSINGULAR must still agree with it."""
    rng = np.random.default_rng(53)
    samples = [_all_blocks(k) for k in range(1, 4)]
    samples.append(rng.random((5000, 4, 4)) < rng.uniform(0.1, 0.9, (5000, 1, 1)))
    for blocks in samples:
        got = rank_mod._block_classes(rank_mod._column_codes(blocks))
        assert got.tolist() == [_minimal_support_class(b.tolist()) for b in blocks]
    # The 65,536 zero patterns of k = 4 split like this.
    classes = rank_mod._block_classes(rank_mod._column_codes(_all_blocks(4)))
    assert np.bincount(classes).tolist() == [24701, 13032, 27803]
    blocks = rng.random((150, 5, 5)) < rng.uniform(0.3, 0.9, (150, 1, 1))
    for block, got in zip(blocks, rank_mod._block_classes(rank_mod._column_codes(blocks))):
        if got != rank_mod._WEIGHTED:
            assert got == _minimal_support_class(block.tolist())


def test_multiset_tables():
    """One row per multiset of k column codes, keys strictly ascending, and
    each row's count and class those of the block whose columns have the
    multiset's codes: the AND-over-permutations count and the class by
    definition."""
    for k, size, not_singular in ((1, 2, 2), (2, 10, 9), (3, 120, 90), (4, 3876, 2116)):
        table = rank_mod._multisets(k)
        assert len(table.keys) == len(table.counts) == len(table.classes) == size
        assert table.keys.dtype == np.uint64 and (table.keys[1:] > table.keys[:-1]).all()
        assert np.count_nonzero(table.classes != rank_mod._SINGULAR) == not_singular
        # Nibble c of a key counts code c.
        shifts = 4 * np.arange(1 << k, dtype=np.uint64)
        nibbles = ((table.keys[:, None] >> shifts) & np.uint64(15)).astype(np.intp)
        codes = np.array([np.repeat(np.arange(1 << k), n) for n in nibbles], dtype=np.uint8)
        blocks = ((codes[:, None, :] >> np.arange(k)[:, None]) & 1).astype(bool)  # row i, column t
        assert (rank_mod._column_codes(blocks) == codes).all()
        assert (table.counts == _and_over_permutations(blocks)).all()
        assert table.classes.tolist() == [_minimal_support_class(b) for b in blocks.tolist()]


def _may_hold_open_reference(codes, k):
    """The row-set filter by definition, for a (row sets, cols) array of
    column codes: a row set is kept when some multiset of k codes that
    _block_classes does not call SINGULAR needs no code more often than the
    row set's columns hold it."""
    multisets = np.array(list(itertools.combinations_with_replacement(range(1 << k), k)), dtype=np.uint8)
    needed = np.array([np.bincount(m, minlength=1 << k) for m in multisets])
    needed = needed[rank_mod._block_classes(multisets) != rank_mod._SINGULAR]
    return np.array([(needed <= np.bincount(c, minlength=1 << k)).all(axis=1).any() for c in codes], dtype=bool)


def _zero_views(zero):
    """_Views of a bool zero pattern, every entry finite."""
    return rank_mod._Views(zero, np.ones_like(zero), None)


def _disjoint_row_sets(blocks):
    """A (B, k, cols) stack of zero blocks as one pattern's _Views and its B
    row sets, row set b being rows b*k .. b*k + k - 1."""
    count, k, cols = blocks.shape
    return _zero_views(blocks.reshape(count * k, cols)), np.arange(count * k).reshape(count, k)


def test_may_hold_open_matches_per_row_set_reference():
    """One verdict per distinct capped code histogram gives each row set the
    per-row-set verdict, also when a call holds more distinct keys than one
    batch and repeats keys among row sets of both verdicts.  Column counts
    fall on and next to word boundaries, and blocks hold no row set, one,
    one batch of keys, one more, and several batches."""
    rng = np.random.default_rng(79)
    for k in range(1, 5):
        for cols, density in ((k, 0.5), (9, 0.3), (12, 0.7), (20, 0.9), (1, 0.8), (63, 0.9), (64, 0.95),
                              (65, 0.9), (128, 0.95), (129, 0.97), (200, 0.97)):
            blocks = rng.random((300, k, cols)) < density
            views, rows = _disjoint_row_sets(blocks)
            expected = _may_hold_open_reference(rank_mod._column_codes(blocks), k).tolist()
            for size in (0, 1, rank_mod._FILTER_CHUNK, rank_mod._FILTER_CHUNK + 1, 300):
                assert rank_mod._may_hold_open(views, rows[:size], k).tolist() == expected[:size], (k, cols, size)
    # PG(2,3)'s level-4 row sets (all closed, few distinct keys) interleaved
    # with random 13-column row sets (mostly open, many distinct keys).
    zero = np.array([[c == 0 for c in row] for row in incidence_matrix(projective_plane(3), "unit").cost])
    noise = rng.random((400, 4, 13)) < rng.uniform(0.5, 0.95, (400, 1, 1))
    views = _zero_views(np.concatenate([zero, noise.reshape(-1, 13)]))
    plane = np.array(list(itertools.combinations(range(13), 4)))
    rows = np.concatenate([plane, 13 + np.arange(1600).reshape(400, 4), plane[::-1]])
    rows = rows[rng.permutation(len(rows))]
    codes = rank_mod._column_codes(views.zero[rows])
    expected = _may_hold_open_reference(codes, 4)
    got = rank_mod._may_hold_open(views, rows, 4)
    assert got.tolist() == expected.tolist()
    assert expected.any() and not expected.all()
    capped = np.minimum(np.stack([(codes == c).sum(axis=1) for c in range(16)], axis=1), 4)
    keys, counts = np.unique(capped, axis=0, return_counts=True)
    assert len(keys) > rank_mod._FILTER_CHUNK and counts.max() > 1


def test_swar_popcount_matches_bit_count():
    """The popcount used where numpy has no bitwise_count counts the set bits
    of every uint64, 0 and 2**64 - 1 among them."""
    rng = np.random.default_rng(83)
    words = rng.integers(0, 1 << 64, size=2000, dtype=np.uint64)
    words[:4] = [0, (1 << 64) - 1, 1 << 63, 1]
    words[4:100] &= rng.integers(0, 1 << 64, size=96, dtype=np.uint64)  # sparser words
    got = rank_mod._swar_popcount(words.reshape(40, 50))
    assert got.shape == (40, 50) and got.dtype == np.uint8
    assert got.ravel().tolist() == [int(w).bit_count() for w in words.tolist()]


def test_row_set_filter_on_swar_popcount(monkeypatch):
    """The row-set filter gives the reference verdicts with the popcount the
    numpy 1.24 floor uses, whichever numpy runs the tests."""
    monkeypatch.setattr(rank_mod, "_popcount", rank_mod._swar_popcount)
    rng = np.random.default_rng(89)
    for k in range(1, 5):
        for cols in (1, 13, 64, 129, 200):
            blocks = rng.random((200, k, cols)) < rng.uniform(0.6, 0.99, (200, 1, 1))
            views, rows = _disjoint_row_sets(blocks)
            codes = rank_mod._column_codes(blocks)
            hist = np.stack([(codes == c).sum(axis=1) for c in range(1 << k)])
            assert (rank_mod._code_histograms(views, rows) == hist).all(), (k, cols)
            expected = _may_hold_open_reference(codes, k).tolist()
            assert rank_mod._may_hold_open(views, rows, k).tolist() == expected, (k, cols)
    m = incidence_matrix(projective_plane(4), "random", seed=2)
    rank_mod._CLASSIFY_CACHE.clear()
    res = tropical_rank(m)
    assert (res.rank, res.refuted_level, res.weight_free) == (3, 4, True)


def test_warm_call_packs_no_zero_words(monkeypatch):
    """A call answered from the classification cache runs no row-set filter,
    so it never packs the zero pattern into words."""
    m = incidence_matrix(projective_plane(5), "random", seed=4)
    rank_mod._CLASSIFY_CACHE.clear()
    cold = tropical_rank(m)

    def no_packing(self):
        raise AssertionError("zero words packed")

    monkeypatch.setattr(rank_mod._Views, "zero_words", property(no_packing))
    assert tropical_rank(m) == cold
    rank_mod._CLASSIFY_CACHE.clear()
    with pytest.raises(AssertionError, match="zero words packed"):
        tropical_rank(m)


def test_row_set_filter_is_exact():
    """For k <= 4 a row set is skipped exactly when every column set makes a
    SINGULAR block with it (every level-4 row set of PG(2,3) is); k = 5
    skips none."""
    rng = np.random.default_rng(67)
    plane = incidence_matrix(projective_plane(3), "unit").cost
    patterns = [rng.random((11, 12)) < density for density in (0.2, 0.5, 0.8, 0.95)]
    patterns.append(np.array([[c == 0 for c in row] for row in plane]))
    skipped = {}
    for p, zero in enumerate(patterns):
        for k in range(1, 6):
            rows = np.array(list(itertools.combinations(range(zero.shape[0]), k)))
            col_combos = np.array(list(itertools.combinations(range(zero.shape[1]), k)))
            codes = rank_mod._column_codes(zero[rows])
            got = rank_mod._may_hold_open(_zero_views(zero), rows, k)
            skipped[p, k] = int((~got).sum())
            if k < 5:
                assert got.tolist() == [
                    bool((rank_mod._block_classes(code[col_combos]) != rank_mod._SINGULAR).any()) for code in codes
                ], (p, k)
    assert skipped[len(patterns) - 1, 4] == comb(13, 4)
    assert sum(skipped[p, k] for p in range(4) for k in range(1, 5)) > 0
    assert not any(skipped[p, 5] for p in range(len(patterns)))


def test_zero_pattern_classes_hold_for_every_weighting():
    """SINGULAR blocks with 0, positive and inf entries have no unique
    minimum under 20 random weightings; NONSINGULAR ones always do."""
    rng = np.random.default_rng(59)
    weights = random.Random(59)
    seen = set()
    for k in range(2, 6):
        zero = rng.random((300, k, k)) < 0.5
        inf = ~zero & (rng.random((300, k, k)) < 0.3)
        codes = rank_mod._column_codes(zero)
        classes = rank_mod._block_classes(codes)
        counts = rank_mod._zero_perm_counts(codes)
        for z, f, cls, count in zip(zero.tolist(), inf.tolist(), classes, counts):
            if cls == rank_mod._WEIGHTED:
                continue
            seen.add((int(cls), count == 0))
            for _ in range(20):
                cost = [
                    [0 if z[i][j] else None if f[i][j] else weights.randint(1, 5) for j in range(k)]
                    for i in range(k)
                ]
                assert min_permutation(cost)[2] == (cls == rank_mod._NONSINGULAR), (z, f, cost)
    # Some blocks are SINGULAR by the support rule alone, with no all-zero permutation.
    assert seen == {(rank_mod._SINGULAR, True), (rank_mod._SINGULAR, False), (rank_mod._NONSINGULAR, False)}


def test_weighted_blocks_have_a_separating_weighting():
    """Each WEIGHTED block (all of them for k <= 3, a sample at k = 4) is
    nonsingular under its constructed weighting; SINGULAR blocks have none."""
    rng = np.random.default_rng(61)
    samples = [_all_blocks(k) for k in range(1, 4)]
    samples.append(rng.random((3000, 4, 4)) < rng.uniform(0.1, 0.7, (3000, 1, 1)))
    weighted = 0
    for blocks in samples:
        for block, cls in zip(blocks.tolist(), rank_mod._block_classes(rank_mod._column_codes(blocks))):
            cost = _separating_weighting(block)
            if cls == rank_mod._SINGULAR:
                assert cost is None
            elif cls == rank_mod._WEIGHTED:
                weighted += 1
                assert min_permutation(cost)[2], block
    assert weighted > 1000


def test_weight_free_refutation(monkeypatch):
    """weight_free marks a classified refutation with no WEIGHTED pair and
    nothing else: not a budget stop, a capped search, a pair-by-pair level,
    or a level refuted by its weights."""
    m = incidence_matrix(projective_plane(3), "random", seed=7)
    res = tropical_rank(m)
    assert res.refuted_level == 4 and res.weight_free
    assert not tropical_rank(m, budget=res.pairs_examined - 1).weight_free
    assert not tropical_rank(m, limit=3).weight_free
    fano = incidence_matrix(projective_plane(2), "random", seed=3)
    assert tropical_rank(fano).refuted_level == 4 and tropical_rank(fano).weight_free
    # Above 1,225 the cutoff sends Fano's level 4 through the pair-by-pair scan.
    monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", 60_000)
    assert tropical_rank(fano).refuted_level == 4 and not tropical_rank(fano).weight_free
    monkeypatch.undo()
    # Tropical rank one: every 2 x 2 minor ties, and no entry is zero.
    a, b = (1, 4, 2, 7, 3, 5), (2, 1, 6, 3, 8, 4)
    rank_one = TropicalMatrix.from_rows([[Fraction(x + y) for y in b] for x in a])
    monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", 0)
    assert tropical_rank(fano).weight_free
    res = tropical_rank(rank_one)
    assert (res.rank, res.refuted_level, res.weight_free) == (1, 2, False)


@pytest.mark.parametrize(
    "q, pairs", [(7, 156_032_931_013), (8, 1_184_679_929_797), (9, 7_143_165_054_571)], ids=["7", "8", "9"]
)
def test_weighted_pg27_certified(q, pairs):
    """Weighted PG(2,7), PG(2,8) and PG(2,9): rank 3, and level 4 (156 G,
    1.18 T and 7.14 T pairs) refuted for every positive weighting of the
    pattern, since the row-set filter skips every level-4 row set."""
    m = incidence_matrix(projective_plane(q), "random", seed=7)
    rank_mod._CLASSIFY_CACHE.clear()
    res = tropical_rank(m)
    rank_mod._CLASSIFY_CACHE.clear()
    assert (res.rank, res.certified, res.refuted_level, res.weight_free) == (3, True, 4, True)
    assert res.pairs_examined == pairs > comb(q * q + q + 1, 4) ** 2
    assert is_nonsingular(m.submatrix(res.row_witness, res.col_witness))


@pytest.mark.parametrize("block", [None, 5])
def test_combination_blocks_match_combinations_by_rank(monkeypatch, block):
    """Any rank range [start, stop) of _combination_blocks is that slice of
    itertools.combinations, in blocks of exactly _BLOCK_SIZE rows but the last."""
    if block is not None:
        monkeypatch.setattr(rank_mod, "_BLOCK_SIZE", block)
    size = rank_mod._BLOCK_SIZE
    pairs = [(n, k) for k in range(1, 7) for n in (k - 1, k, k + 1, 9, 13)]
    pairs += [(31, 4), (57, 3), (21, 4)]
    for n, k in pairs:
        combos = list(itertools.combinations(range(n), k))
        total = len(combos)
        ranges = {(0, None), (0, total), (total // 3, 2 * total // 3), (1, total - 1), (total // 2, total // 2),
                  (total, total), (total - 1, None), (size + 1, 3 * size - 1)}
        for start, stop in ranges:
            if not 0 <= start <= (total if stop is None else stop) <= total:
                continue
            blocks = list(rank_mod._combination_blocks(n, k, start, stop))
            got = [tuple(row) for b in blocks for row in b.tolist()]
            assert got == combos[start:stop], (n, k, start, stop)
            assert all(b.dtype == np.intp and b.shape[1] == k for b in blocks)
            assert all(len(b) == size for b in blocks[:-1]) and all(len(b) for b in blocks), (n, k, start, stop)


@pytest.mark.parametrize("q", [8, 9])
def test_weighted_pg28_pg29_certified_in_little_memory(q):
    """Weighted PG(2,8) and PG(2,9): rank 3, refuted at 4 for every positive
    weighting.  No level-4 row set is classified, so level 4 builds none of
    its column sets, which would take 35 MB (PG(2,8)) and 86 MB (PG(2,9))."""
    m = incidence_matrix(projective_plane(q), "random", seed=1)
    rank_mod._CLASSIFY_CACHE.clear()
    tracemalloc.start()
    try:
        res = tropical_rank(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rank_mod._CLASSIFY_CACHE.clear()
    assert (res.rank, res.certified, res.refuted_level, res.weight_free) == (3, True, 4, True)
    assert is_nonsingular(m.submatrix(res.row_witness, res.col_witness))
    assert peak < 16_000_000, peak


def _sample_subsets_retest_all(rng, batch, n, k):
    """The sampler's earlier loop, which re-tested every row on each pass."""
    if 2 * k > n:
        keep = np.ones((batch, n), dtype=bool)
        keep[np.arange(batch)[:, None], _sample_subsets_retest_all(rng, batch, n, n - k)] = False
        return np.nonzero(keep)[1].reshape(batch, k).astype(np.int32)
    out = np.sort(rng.integers(0, n, size=(batch, k), dtype=np.int32), axis=1)
    while True:
        idx = np.nonzero((out[:, 1:] == out[:, :-1]).any(axis=1))[0]
        if idx.size == 0:
            return out
        out[idx] = np.sort(rng.integers(0, n, size=(idx.size, k), dtype=np.int32), axis=1)


def test_sample_subsets_match_retest_all_loop():
    """Re-testing only the redrawn rows makes the same draws and leaves the
    generator in the same state."""
    for n, k, seed in ((31, 4, 1), (21, 4, 2), (7, 3, 3), (7, 5, 4), (12, 6, 5), (9, 9, 6), (5, 1, 7)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = rank_mod._sample_subsets(rng, 4000, n, k)
        assert got.dtype == np.int32 and got.shape == (4000, k)
        assert np.array_equal(got, _sample_subsets_retest_all(ref, 4000, n, k)), (n, k)
        assert (got[:, 1:] > got[:, :-1]).all()
        assert rng.integers(1 << 30) == ref.integers(1 << 30)


def _sample_level_singular_reference(m, k, samples, seed):
    """The sampler before its draws were sorted by a compare-exchange network
    and its codes gathered cell by cell: np.sort draws (through the loop
    above) and one broadcast (B, k, k) gather of the zero pattern."""
    if not 1 <= k <= min(m.rows, m.cols):
        raise ValueError(f"level {k} outside 1..{min(m.rows, m.cols)}")
    cost = m.cost
    views = rank_mod._level_views(cost) if k <= rank_mod._COUNT_MAX_K else None
    rng = np.random.default_rng(seed)
    remaining = samples
    chunk = 200_000
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        rc = _sample_subsets_retest_all(rng, batch, m.rows, k)
        cc = _sample_subsets_retest_all(rng, batch, m.cols, k)
        if views is None:
            suspicious = range(batch)
        else:
            codes = rank_mod._column_codes(views.zero[rc[:, :, None], cc[:, None, :]])  # (B, k)
            suspicious = np.nonzero(rank_mod._block_classes(codes) != rank_mod._SINGULAR)[0]
        for b in suspicious:
            rows, cols = tuple(rc[b].tolist()), tuple(cc[b].tolist())
            if rank_mod._is_nonsingular_cost(cost, rows, cols):
                return False, (rows, cols)
    return True, None


def test_sample_level_singular_matches_reference():
    """Same verdict and counterexample as the reference sampler on seeded
    matrices at k = 1..6: square and non-square shapes, the complement path
    (2k > n, and k = n), a negative entry (every draw checked exactly) and
    mostly singular patterns, whose counterexamples lie deep in a batch."""
    rng = random.Random(71)
    matrices = [_random_nonneg(rng, r, c) for r, c in ((6, 6), (5, 9), (9, 5), (7, 12), (12, 7), (4, 4))]
    matrices.append(TropicalMatrix.from_rows(
        [[Fraction(-1) if i == j else Fraction(i * j % 5) for j in range(8)] for i in range(6)]
    ))
    matrices += [incidence_matrix(projective_plane(q), "random", seed=q) for q in (2, 3)]
    # One nonzero cell in an all-zero pattern: few draws avoid being SINGULAR.
    matrices.append(TropicalMatrix.from_rows(
        [[Fraction(3) if (i, j) == (2, 5) else Fraction(0) for j in range(9)] for i in range(8)]
    ))
    outcomes = set()
    for index, m in enumerate(matrices):
        for k in range(1, min(m.rows, m.cols, 6) + 1):
            for seed in (index, 100 + k):
                got = sample_level_singular(m, k, 3000, seed=seed)
                assert got == _sample_level_singular_reference(m, k, 3000, seed=seed), (index, k, seed)
                outcomes.add(got[0])
    assert outcomes == {True, False}
    # Three 200,000-draw chunks, all SINGULAR by their zero pattern.  PG(2,3)
    # is answered by the proof pass (C(13, 4) <= 450,000); PG(2,8) is drawn
    # (C(73, 4) > 450,000).
    for q in (3, 8):
        plane = incidence_matrix(projective_plane(q), "random", seed=9)
        assert sample_level_singular(plane, 4, 450_000, seed=5) == _sample_level_singular_reference(
            plane, 4, 450_000, seed=5) == (True, None)


def _with_entry(m, i, j, value):
    """m with its integer cost at (i, j) replaced."""
    cost = [list(row) for row in m.cost]
    cost[i][j] = value
    return TropicalMatrix(tuple(map(tuple, cost)), m.scale)


def test_sample_level_singular_proof_pass(monkeypatch):
    """With k <= 4, no negative entry and at least C(rows, k) samples, every
    row set goes through the row-set filter first.  When none may hold a
    non-SINGULAR block the sampler answers without drawing; otherwise it
    draws as before.  Either way the answer is the reference sampler's."""
    planes = [incidence_matrix(projective_plane(q), "random", seed=q) for q in (4, 5)]
    expected = [_sample_level_singular_reference(m, 4, comb(m.rows, 4), seed=1) for m in planes]

    def no_draws(*args):
        raise AssertionError("the sampler drew")

    monkeypatch.setattr(rank_mod, "_sample_subsets", no_draws)
    for m, want in zip(planes, expected):
        assert sample_level_singular(m, 4, comb(m.rows, 4), seed=1) == want == (True, None)
        with pytest.raises(AssertionError, match="the sampler drew"):  # one sample short of the pass
            sample_level_singular(m, 4, comb(m.rows, 4) - 1, seed=1)
    # A zero of weighted PG(2,3) made positive.  Restricted to four rows
    # there is exactly one row set, and it holds NONSINGULAR blocks; on the
    # whole plane 104 of the 715 row sets may hold a non-SINGULAR block, and
    # the pass walks the row sets in blocks of 5.
    pg3 = incidence_matrix(projective_plane(3), "random", seed=3)
    assert pg3.cost[0][0] == 0
    opened = _with_entry(pg3, 0, 0, 500)
    one_open = opened.submatrix((0, 1, 2, 4), range(13))
    views = rank_mod._level_views(one_open.cost)
    assert rank_mod._may_hold_open(views, np.array([[0, 1, 2, 3]]), 4).tolist() == [True]
    monkeypatch.setattr(rank_mod, "_BLOCK_SIZE", 5)
    for m in (one_open, opened):
        with pytest.raises(AssertionError, match="the sampler drew"):
            sample_level_singular(m, 4, 2000, seed=2)
    monkeypatch.undo()
    monkeypatch.setattr(rank_mod, "_BLOCK_SIZE", 5)
    for m in (one_open, opened):
        got = sample_level_singular(m, 4, 2000, seed=2)
        assert got == _sample_level_singular_reference(m, 4, 2000, seed=2)
        assert not got[0]


def test_sample_level_proof_pass_memory():
    """The proof pass holds one block of row sets at a time: PG(2,5) at
    500,000 samples peaks well below the 12.8 MB its draws needed."""
    m = incidence_matrix(projective_plane(5), "random", seed=5)
    sample_level_singular(m, 4, 500_000, seed=5)  # tables built on first use
    tracemalloc.start()
    try:
        assert sample_level_singular(m, 4, 500_000, seed=5) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_classified_levels_keep_the_pair_by_pair_result(monkeypatch):
    """Fano under 20 weightings, full and budgeted: the same RankResult with
    the 1,225-pair levels 3 and 4 pair by pair (cutoff 60,000) or classified
    (cutoff 1,000), but for weight_free and pairs_examined.  A classified
    level is charged in whole row sets, so it costs at least as much as the
    pair-by-pair scan of it; the budgets avoid the windows where only the
    pair-by-pair scan affords the level-3 witness or the level-4 refutation."""
    def without_counts(res):
        return dataclasses.replace(res, pairs_examined=0, weight_free=False)

    weight_free = 0
    for seed in range(20):
        fano = incidence_matrix(projective_plane(2), "random", seed=seed)
        rank_mod._CLASSIFY_CACHE.clear()
        pairs = {}
        for cutoff in (60_000, 1_000):
            monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", cutoff)
            pairs[cutoff] = [tropical_rank(fano, limit=k).pairs_examined for k in (2, 3, 4)]
            monkeypatch.undo()
        (two, plain_three, plain_four), (_, three, four) = pairs[60_000], pairs[1_000]
        assert two < plain_three <= three < plain_four <= four
        budgets = (None, two - 1, two, plain_three - 1, three, three + 600, plain_four - 1, four)
        results = {}
        for cutoff in (60_000, 1_000):
            monkeypatch.setattr(rank_mod, "_GENERIC_CUTOFF", cutoff)
            results[cutoff] = [tropical_rank(fano, budget=b) for b in budgets]
            monkeypatch.undo()
        assert [without_counts(r) for r in results[60_000]] == [without_counts(r) for r in results[1_000]], seed
        assert results[1_000][0].refuted_level == 4 and results[1_000][-2].budget_exhausted
        assert results[1_000][-1] == results[1_000][0]
        assert not any(r.weight_free for r in results[60_000])
        weight_free += results[1_000][0].weight_free
    assert weight_free == 20
