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
