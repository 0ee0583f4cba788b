import itertools
import random
from fractions import Fraction

import pytest

from troprank import (
    INF,
    TropicalMatrix,
    brute_force_determinant,
    is_nonsingular,
    tropical_determinant,
    tropical_scale,
)
from troprank.assignment import (
    _has_alternating_cycle,
    _subset_dp_min_permutation,
    min_permutation,
    solve_min_assignment,
)


def test_det_identity_pattern():
    m = TropicalMatrix.from_rows([[0, "inf"], ["inf", 0]])
    cert = tropical_determinant(m)
    assert cert.value == 0
    assert cert.witness == (0, 1)
    assert cert.unique


def test_det_all_zero_tie():
    m = TropicalMatrix.from_rows([[0, 0], [0, 0]])
    cert = tropical_determinant(m)
    assert cert.value == 0
    assert not cert.unique


def test_det_circulant_unique():
    # brute force: transpositions give 2, 3-cycles give 3, identity gives 0
    m = TropicalMatrix.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    value, winners = brute_force_determinant(m)
    assert value == 0 and winners == [(0, 1, 2)]
    cert = tropical_determinant(m)
    assert cert.value == 0 and cert.witness == (0, 1, 2) and cert.unique


def test_det_all_inf():
    m = TropicalMatrix.constant(2, 2, INF)
    cert = tropical_determinant(m)
    assert cert.value is INF
    assert cert.witness is None
    assert not cert.unique


def test_det_requires_square():
    with pytest.raises(ValueError):
        tropical_determinant(TropicalMatrix.from_rows([[0, 1]]))
    with pytest.raises(ValueError):
        is_nonsingular(TropicalMatrix.from_rows([[0, 1]]))


def test_nonsingular_small():
    assert is_nonsingular(TropicalMatrix.from_rows([[0]]))
    assert not is_nonsingular(TropicalMatrix.from_rows([[0, 0], [0, 0]]))
    assert not is_nonsingular(TropicalMatrix.from_rows([["inf"]]))


def test_fano_incidence_matrix_is_singular():
    from troprank import incidence_matrix, projective_plane

    fano = incidence_matrix(projective_plane(2), "unit")
    assert not is_nonsingular(fano)


def _random_matrix(rng, n, inf_rate=0.2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < inf_rate:
                row.append(INF)
            else:
                row.append(Fraction(rng.randint(-20, 20), rng.randint(1, 10)))
        rows.append(row)
    return TropicalMatrix.from_rows(rows)


def test_oracle_equivalence_random():
    """Solver matches full permutation enumeration in value and uniqueness."""
    rng = random.Random(1729)
    for trial in range(300):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, inf_rate=0.25)
        value, winners = brute_force_determinant(m)
        cert = tropical_determinant(m)
        assert cert.value == value, (trial, m)
        assert cert.unique == (len(winners) == 1), (trial, m)
        if value is INF:
            assert cert.witness is None
        else:
            total = sum(m.entry(i, cert.witness[i]) for i in range(n))
            assert total == value


def _tie_heavy_matrix(rng, n, inf_rate=0.2):
    """Entries in {0, 1, 2}: tied optima are common, so uniqueness is often false."""
    return TropicalMatrix.from_rows(
        [[INF if rng.random() < inf_rate else rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    )


def test_oracle_equivalence_larger_sizes():
    rng = random.Random(31)
    for trial in range(20):
        n = rng.randint(6, 8)
        m = _random_matrix(rng, n, inf_rate=0.15)
        value, winners = brute_force_determinant(m)
        cert = tropical_determinant(m)
        assert cert.value == value
        assert cert.unique == (len(winners) == 1)
    ties = random.Random(59)
    for trial in range(40):
        m = _tie_heavy_matrix(ties, ties.randint(5, 8))
        value, winners = brute_force_determinant(m)
        cert = tropical_determinant(m)
        assert cert.value == value, (trial, m)
        assert cert.unique == (len(winners) == 1), (trial, m)


def test_scaling_invariance_100_random():
    """Row/column offsets shift every permutation sum equally."""
    rng = random.Random(4242)
    for _ in range(100):
        m = _random_matrix(rng, 4, inf_rate=0.2)
        r = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        c = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        scaled = tropical_scale(m, r, c)
        assert is_nonsingular(scaled) == is_nonsingular(m)


def _oracle_corpus(seed, sizes, per_kind):
    """(kind, matrix) pairs of random, tie-heavy ({0, 1, 2}) and inf-heavy
    matrices for each size."""
    rng = random.Random(seed)
    for n in sizes:
        count = per_kind(n)
        for _ in range(count):
            yield "random", _random_matrix(rng, n, inf_rate=0.15)
        for _ in range(count):
            yield "ties", _tie_heavy_matrix(rng, n, inf_rate=0.15)
        for _ in range(count):
            yield "inf", _tie_heavy_matrix(rng, n, inf_rate=0.55)


def _per_kind(n):
    return 12 if n == 7 else 60


def test_subset_dp_matches_brute_force():
    """Value, uniqueness and witness == the lexicographically first optimum
    (brute force lists its winners in lexicographic order), n = 1..7."""
    for kind, m in _oracle_corpus(2027, range(1, 8), _per_kind):
        value, winners = brute_force_determinant(m)
        total, perm, unique = _subset_dp_min_permutation(m.cost)
        if value is INF:
            assert (total, perm, unique) == (None, None, False), (kind, m)
        else:
            assert Fraction(total, m.scale) == value, (kind, m)
            assert unique == (len(winners) == 1), (kind, m)
            assert perm == winners[0], (kind, m)


def _every_small_matrix():
    """("every", matrix) for each matrix of size n <= 3 over {inf, 0, 1}."""
    for n in (1, 2, 3):
        for cells in itertools.product((INF, 0, 1), repeat=n * n):
            yield "every", TropicalMatrix.from_rows([cells[i : i + n] for i in range(0, n * n, n)])


def test_min_permutation_witness_is_first_optimum_up_to_six():
    """The subset DP (n <= 6) returns the first optimum in lexicographic
    order, also on every n <= 3 matrix over {inf, 0, 1}; the Hungarian path
    (n = 7) returns some optimum."""
    for kind, m in itertools.chain(_oracle_corpus(2029, range(1, 8), _per_kind), _every_small_matrix()):
        value, winners = brute_force_determinant(m)
        total, perm, unique = min_permutation(m.cost)
        if value is INF:
            assert (total, perm, unique) == (None, None, False), (kind, m)
            continue
        assert Fraction(total, m.scale) == value and unique == (len(winners) == 1), (kind, m)
        assert perm == winners[0] if m.rows <= 6 else perm in winners, (kind, m)


def test_hungarian_and_cycle_check_match_subset_dp():
    """The Hungarian path, called directly at sizes it no longer serves by
    default, agrees with the subset DP on value and uniqueness."""
    for kind, m in _oracle_corpus(2031, (5, 6), lambda n: 100):
        total, _, unique = _subset_dp_min_permutation(m.cost)
        solved = solve_min_assignment(m.cost)
        if solved is None:
            assert total is None, (kind, m)
            continue
        value, perm, row_pot, col_pot = solved
        assert value == total, (kind, m)
        assert (not _has_alternating_cycle(m.cost, perm, row_pot, col_pot)) == unique, (kind, m)
