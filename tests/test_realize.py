import random

import pytest

from troprank import (
    IncidencePattern,
    ProvedInfeasible,
    Realized,
    RealizeBudget,
    TropicalMatrix,
    Unknown,
    check_realization_exact,
    check_realization_float,
    format_configuration,
    incidence_matrix,
    kapranov_bounds,
    parse_configuration,
    projective_plane,
    realize_rank3,
)


def fano_pattern():
    return IncidencePattern.from_matrix(incidence_matrix(projective_plane(2), "unit"))


def test_identity_pattern_over_q():
    p = IncidencePattern.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    v = realize_rank3(p, field=None, seed=1)
    assert isinstance(v, Realized)
    assert check_realization_exact(p, v.configuration.points, v.configuration.lines) is None


def test_all_ones_pattern_repeats_allowed():
    p = IncidencePattern.from_rows([[1] * 4] * 4)
    v = realize_rank3(p, field=None, seed=1)
    assert isinstance(v, Realized)


def test_fano_over_gf2():
    p = fano_pattern()
    v = realize_rank3(p, field=2, seed=1)
    assert isinstance(v, Realized)
    cfg = v.configuration
    assert cfg.field == 2
    # direct verification of all 21 vanishing and 28 nonvanishing products
    zero_count = 0
    for i in range(7):
        for j in range(7):
            d = sum(a * b for a, b in zip(cfg.points[i], cfg.lines[j])) % 2
            if p.bits[i][j]:
                assert d == 0
                zero_count += 1
            else:
                assert d != 0
    assert zero_count == 21


def test_fano_over_q_infeasible():
    v = realize_rank3(fano_pattern(), field=None, seed=1)
    assert isinstance(v, ProvedInfeasible)
    assert len(v.trace) > 0
    assert any("contradiction" in line or "fail" in line or "roots" in line
               or "avoid" in line or "vanishes" in line for line in v.trace)


def test_fano_minus_point_realizable_over_q():
    p = fano_pattern()
    sub = IncidencePattern.from_rows(p.bits[:6])
    v = realize_rank3(sub, field=None, seed=1)
    assert isinstance(v, Realized)


def test_unknown_on_tiny_budget():
    v = realize_rank3(fano_pattern(), field=None, seed=1, budget=RealizeBudget(nodes=3))
    assert isinstance(v, Unknown)


def test_float_engine_identity():
    p = IncidencePattern.from_rows([[1, 0], [0, 1]])
    v = realize_rank3(p, field="float", seed=4, budget=RealizeBudget(restarts=20))
    assert isinstance(v, Realized)
    assert check_realization_float(p, v.configuration.points, v.configuration.lines) is None


def test_float_engine_never_proves_infeasible():
    v = realize_rank3(fano_pattern(), field="float", seed=4, budget=RealizeBudget(restarts=3))
    assert isinstance(v, Unknown)


def test_exact_verdicts_reverify_on_random_patterns():
    rng = random.Random(100)
    for trial in range(60):
        r, c = rng.randint(2, 4), rng.randint(2, 4)
        p = IncidencePattern.from_rows(
            [[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)]
        )
        v = realize_rank3(p, field=None, seed=trial)
        assert not isinstance(v, Unknown)
        if isinstance(v, Realized):
            cfg = v.configuration
            assert check_realization_exact(p, cfg.points, cfg.lines) is None


def test_non_prime_field_rejected():

    p = IncidencePattern.from_rows([[1]])
    with pytest.raises(ValueError):
        realize_rank3(p, field=4)


def test_gf3_realization():
    p = IncidencePattern.from_rows([[1, 0], [0, 1], [1, 1]])
    v = realize_rank3(p, field=3, seed=2)
    assert isinstance(v, Realized)
    assert v.configuration.field == 3
    assert check_realization_exact(
        p, v.configuration.points, v.configuration.lines, field=3
    ) is None


def test_configuration_certificate_round_trip():
    p = IncidencePattern.from_rows([[1, 0], [0, 1]])
    v = realize_rank3(p, field=None, seed=9)
    text = format_configuration(v.configuration)
    back = parse_configuration(text)
    assert back == v.configuration
    vf = realize_rank3(p, field="float", seed=9, budget=RealizeBudget(restarts=10))
    textf = format_configuration(vf.configuration)
    backf = parse_configuration(textf)
    assert backf.points == vf.configuration.points  # 17 digits round-trip floats


def test_parse_configuration_rejects_composite_field():
    with pytest.raises(ValueError, match="not prime"):
        parse_configuration("field gf4\nP 0 1 0 0\nL 0 0 1 0\n")


@pytest.mark.parametrize(
    "rows",
    [
        ["P 0 1 0 0", "P 0 0 1 0", "L 0 0 0 1"],  # repeated point index
        ["P 0 1 0 0", "L 0 0 0 1", "L 0 0 1 0"],  # repeated line index
        ["P 0 1 0 0", "P 7 0 1 0", "L 0 0 0 1"],  # point indices skip 1..6
        ["P 0 1 0 0", "L 1 0 0 1"],               # line indices start at 1
        ["P -1 1 0 0", "L 0 0 0 1"],
    ],
)
def test_parse_configuration_rejects_bad_indices(rows):
    with pytest.raises(ValueError, match="index|indices"):
        parse_configuration("field q\n" + "\n".join(rows) + "\n")


def _gf_realizable_brute(pattern, p):
    """Oracle: enumerate all assignments of projective representatives."""
    import itertools

    from troprank import make_field

    f = make_field(p)
    reps = []
    for v in itertools.product(range(p), repeat=3):
        if all(x == 0 for x in v):
            continue
        for x in v:
            if x != 0:
                first = x
                break
        inv = f.inv(first)
        norm = tuple(f.mul(inv, x) for x in v)
        if norm not in reps:
            reps.append(norm)
    for pts in itertools.product(reps, repeat=pattern.rows):
        for lns in itertools.product(reps, repeat=pattern.cols):
            ok = True
            for i in range(pattern.rows):
                for j in range(pattern.cols):
                    z = f.dot(pts[i], lns[j]) == 0
                    if z != bool(pattern.bits[i][j]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def test_exact_engine_matches_enumeration_oracle_gf2():
    """The engine's GF(2) verdicts agree with exhaustive enumeration."""
    rng = random.Random(321)
    for trial in range(40):
        r, c = rng.randint(2, 3), rng.randint(2, 3)
        p = IncidencePattern.from_rows(
            [[int(rng.random() < 0.5) for _ in range(c)] for _ in range(r)]
        )
        verdict = realize_rank3(p, field=2, seed=trial)
        assert not isinstance(verdict, Unknown)
        expected = _gf_realizable_brute(p, 2)
        assert isinstance(verdict, Realized) == expected, p


def test_exact_engine_matches_enumeration_oracle_gf3():
    rng = random.Random(654)
    for trial in range(8):
        r, c = 2, rng.randint(2, 3)
        p = IncidencePattern.from_rows(
            [[int(rng.random() < 0.5) for _ in range(c)] for _ in range(r)]
        )
        verdict = realize_rank3(p, field=3, seed=trial)
        assert not isinstance(verdict, Unknown)
        expected = _gf_realizable_brute(p, 3)
        assert isinstance(verdict, Realized) == expected, p


def test_bounds_all_zeros():
    res = kapranov_bounds(TropicalMatrix.constant(4, 4, 0))
    assert (res.lower, res.upper, res.tight) == (1, 1, True)


def test_bounds_diagonal():
    res = kapranov_bounds(TropicalMatrix.identity(3))
    assert (res.lower, res.upper, res.tight) == (3, 3, True)


def test_bounds_fano_never_claims_three():
    m = incidence_matrix(projective_plane(2), "unit")
    res = kapranov_bounds(m, barvinok_budget=2000)
    assert res.lower == 3
    assert res.upper >= 4  # the rational infeasibility forbids upper bound 3
    assert not res.tight
    assert any("no rational rank-3 realization" in n for n in res.notes)


def test_bounds_pg23_default_budget():
    # The default 200,000-covering factorization search runs out on unit
    # PG(2,3), so the upper bound stays the trivial 13.
    res = kapranov_bounds(incidence_matrix(projective_plane(3), "unit"))
    assert (res.lower, res.upper, res.tight) == (3, 13, False)
    assert any("factorization search inconclusive" in n for n in res.notes)


def test_bounds_realizable_01_matrix_improves_to_three():
    # 4x4 pattern realizable over Q but with Barvinok rank 4:
    # rows/cols of a quadrilateral with its diagonals' pattern
    p = IncidencePattern.from_rows(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    )
    m = p.to_tropical()
    res = kapranov_bounds(m, barvinok_budget=200_000)
    assert res.lower <= 3
    if res.upper == 3:
        assert any("improved" in n for n in res.notes)
    assert res.lower <= res.upper
