import random
from fractions import Fraction

import pytest

from troprank import (
    INF,
    IncidencePattern,
    LiftMatrix,
    TropicalMatrix,
    lift_from_configuration,
    parse_lift,
    realize_rank3,
    series,
    series_rank,
    verify_lift,
    zero_series,
)
from troprank.multipoly import Poly, as_coeff
from troprank.patterns import Configuration
from troprank.series import IndeterminateAtTruncation, SeriesRankResult, format_lift


def S(terms, **kw):
    return series(terms, **kw)


def test_valuations():
    assert S({Fraction(1, 2): 3, 1: 1}).valuation() == Fraction(1, 2)
    assert S({0: 2, 1: 5}).valuation() == 0
    assert zero_series().valuation() is INF
    assert zero_series(trunc=3).valuation() is None


def test_exact_cancellation():
    a = S({0: 1, 1: 1})
    b = S({0: 1, 1: -1})
    prod = a * b
    assert prod == S({0: 1, 2: -1})
    assert prod.valuation() == 0


def test_truncation_tightening():
    a = S({0: 1}, trunc=3)
    b = S({1: 1}, trunc=3)
    # min(3 + 1, 3 + 0) = 3
    assert (a * b).trunc == Fraction(3)
    c = S({2: 1}, trunc=3)
    assert (c * c).trunc == Fraction(5)


def test_field_mismatch():
    with pytest.raises(ValueError):
        S({0: 1}) + S({0: 1}, field=2)


def test_gf_coefficients():
    a = S({0: 1, 1: 1}, field=2)
    assert (a + a).truncated_zero is False and (a + a).provably_zero
    assert (a * a) == S({0: 1, 2: 1}, field=2)  # char 2 kills the cross term


def test_series_rank_examples():
    L = LiftMatrix.from_rows([[S({0: 1}), S({1: 1})], [S({1: 1}), S({0: 1})]])
    assert series_rank(L).rank == 2
    L1 = LiftMatrix.from_rows([[S({0: 1}), S({0: 1})], [S({0: 1}), S({0: 1})]])
    assert series_rank(L1).rank == 1
    L2 = LiftMatrix.from_rows([[S({1: 1}), S({2: 1})], [S({2: 1}), S({3: 1})]])
    assert series_rank(L2).rank == 1


def test_series_rank_indeterminate():
    t = Fraction(3)
    L = LiftMatrix.from_rows(
        [[zero_series(trunc=t), zero_series(trunc=t)],
         [zero_series(trunc=t), zero_series(trunc=t)]]
    )
    with pytest.raises(IndeterminateAtTruncation):
        series_rank(L)


def test_verify_lift_examples():
    m = TropicalMatrix.from_rows([[0, 1], [1, 0]])
    L = LiftMatrix.from_rows([[S({0: 1}), S({1: 1})], [S({1: 1}), S({0: 1})]])
    assert verify_lift(m, L, 2).accepted
    bad = verify_lift(m, L, 1)
    assert not bad.accepted and "rank" in bad.reason
    mm = TropicalMatrix.from_rows([[0, 0], [0, 0]])
    LL = LiftMatrix.from_rows([[S({0: 1})] * 2] * 2)
    assert verify_lift(mm, LL, 1).accepted


def test_verify_lift_valuation_mismatch():
    m = TropicalMatrix.from_rows([[0, 2], [1, 0]])
    L = LiftMatrix.from_rows([[S({0: 1}), S({1: 1})], [S({1: 1}), S({0: 1})]])
    v = verify_lift(m, L, 2)
    assert not v.accepted and "(0,1)" in v.reason


def test_verify_lift_inf_requires_zero_entry():
    m = TropicalMatrix.from_rows([[0, "inf"], [1, 0]])
    exact = LiftMatrix.from_rows(
        [[S({0: 1}), zero_series()], [S({1: 1}), S({0: 1})]]
    )
    v = verify_lift(m, exact, 2)
    assert v.accepted and not v.truncation_limited
    truncated = LiftMatrix.from_rows(
        [[S({0: 1}, trunc=3), zero_series(trunc=3)],
         [S({1: 1}, trunc=3), S({0: 1}, trunc=3)]]
    )
    v2 = verify_lift(m, truncated, 2)
    assert v2.accepted and v2.truncation_limited


def test_verify_lift_dimension_mismatch():
    m = TropicalMatrix.from_rows([[0, 1]])
    L = LiftMatrix.from_rows([[S({0: 1})]])
    assert not verify_lift(m, L, 1).accepted


def test_lift_format_round_trip():
    L = LiftMatrix.from_rows(
        [
            [S({0: Fraction(1, 2), Fraction(3, 2): -2}), zero_series()],
            [S({1: 3}), S({0: 1, 2: -1})],
        ]
    )
    assert parse_lift(format_lift(L)) == L
    Lt = LiftMatrix.from_rows([[S({0: 1}, trunc=3)]])
    assert parse_lift(format_lift(Lt)) == Lt


def test_parse_lift_rejects_float_field():
    with pytest.raises(ValueError):
        parse_lift("troplift 1 1 float 3\n0 0 : 1*t^0\n")


@pytest.mark.parametrize("tag", ["gf4", "gf6", "gf1", "gf0"])
def test_parse_lift_rejects_composite_field(tag):
    with pytest.raises(ValueError, match="not prime"):
        parse_lift(f"troplift 1 1 {tag} inf\n0 0 : 1*t^0\n")


def test_parse_lift_rejects_out_of_range_entry():
    with pytest.raises(ValueError, match="outside"):
        parse_lift("troplift 1 1 q inf\n0 0 : 1*t^0\n5 7 : 3*t^1\n")
    with pytest.raises(ValueError, match="outside"):
        parse_lift("troplift 1 1 q inf\n0 0 : 1*t^0\n-1 0 : 3*t^1\n")


def test_parse_lift_rejects_repeated_entry():
    with pytest.raises(ValueError, match="repeated"):
        parse_lift("troplift 1 1 q inf\n0 0 : 1*t^0\n0 0 : 3*t^1\n")


def test_lift_from_configuration_identity():
    pattern = IncidencePattern.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cfg = Configuration(
        None,
        ((Fraction(1), Fraction(0), Fraction(0)),
         (Fraction(0), Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(0), Fraction(1))),
        ((Fraction(0), Fraction(1), Fraction(1)),
         (Fraction(1), Fraction(0), Fraction(1)),
         (Fraction(1), Fraction(1), Fraction(0))),
    )
    lift = lift_from_configuration(pattern, cfg, seed=5)
    verdict = verify_lift(pattern.to_tropical(), lift, 3)
    assert verdict.accepted


def test_lift_from_configuration_rejects_bad_config():
    pattern = IncidencePattern.from_rows([[1]])
    cfg = Configuration(
        None,
        ((Fraction(1), Fraction(0), Fraction(0)),),
        ((Fraction(1), Fraction(0), Fraction(0)),),  # product 1, not 0
    )
    with pytest.raises(ValueError):
        lift_from_configuration(pattern, cfg)


def test_all_zero_pattern_constant_lift():
    pattern = IncidencePattern.from_rows([[0, 0], [0, 0]])
    verdict = realize_rank3(pattern, field=None, seed=2)
    lift = lift_from_configuration(pattern, verdict.configuration, seed=2)
    for i in range(2):
        for j in range(2):
            assert lift.entry(i, j).valuation() == 0


def test_minor_rank_agreement_on_monomial_lifts():
    """Elimination rank equals the largest size of a nonvanishing minor."""
    rng = random.Random(6)
    for _ in range(20):
        entries = [
            [S({rng.randint(0, 2): Fraction(rng.randint(1, 5))}) for _ in range(3)]
            for _ in range(3)
        ]
        L = LiftMatrix.from_rows(entries)
        got = series_rank(L).rank
        # oracle: expand all square minors symbolically
        import itertools

        def det(rows, cols):
            total = zero_series()
            for perm in itertools.permutations(range(len(cols))):
                sign = 1
                seen = list(perm)
                for i in range(len(seen)):
                    for j in range(i + 1, len(seen)):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = S({0: sign})
                for i, p in enumerate(perm):
                    term = term * entries[rows[i]][cols[p]]
                total = total + term
            return total

        best = 0
        for k in (1, 2, 3):
            hit = False
            for rows in itertools.combinations(range(3), k):
                for cols in itertools.combinations(range(3), k):
                    if det(rows, cols).terms:
                        hit = True
            if hit:
                best = k
        assert got == best


def test_fraction_coefficient_over_gf_p_is_num_times_inverse_den():
    assert as_coeff(7, Fraction(1, 3)) == 5          # 3 * 5 = 15 = 1 mod 7
    assert as_coeff(7, Fraction(-2, 5)) == (-2 * 3) % 7
    assert as_coeff(7, 9) == 2
    assert as_coeff(None, 3) == Fraction(3)
    assert Poly.const(Fraction(1, 3), 7).constant_value() == 5
    assert Poly.var(0, 7).evaluate({0: Fraction(1, 3)}) == 5
    assert S({0: Fraction(1, 3)}, field=7).terms == ((0, 5),)


def _reference_series_rank(lift: LiftMatrix) -> SeriesRankResult:
    """Elimination on TruncatedSeries objects, the oracle for series_rank."""
    rows = [lift.row(i) for i in range(lift.rows)]
    active = list(range(lift.rows))
    loss = False
    rank = 0
    for j in range(lift.cols):
        pivots = []
        unknown = False
        for r in active:
            e = rows[r][j]
            if e.terms:
                pivots.append((e.terms[0][0], r))
            elif e.truncated_zero:
                unknown = True
        if not pivots:
            if unknown:
                raise IndeterminateAtTruncation(
                    f"column {j}: all remaining entries vanish up to truncation"
                )
            continue
        if unknown:
            loss = True
        _, prow = min(pivots)
        pe = rows[prow][j]
        for r in active:
            if r == prow:
                continue
            re = rows[r][j]
            if re.provably_zero:
                continue
            rows[r] = [pe * rows[r][c] - re * rows[prow][c] for c in range(lift.cols)]
            # The eliminated position is exactly zero by construction.
            rows[r][j] = zero_series(field=lift.field, trunc=INF)
        active.remove(prow)
        rank += 1
        if not active:
            break
    return SeriesRankResult(rank, loss)


def _random_lift(rng):
    """A small lift over Q or GF(2/3/7), often of low rank by construction."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    field = rng.choice([None, 2, 3, 7])
    den = rng.choice([1, 2])
    trunc = rng.choice([INF, Fraction(2), Fraction(5, 2), Fraction(3)])

    def poly():
        if rng.random() < 0.25:
            return {}
        out = {}
        for _ in range(rng.randint(1, 3)):
            e = Fraction(rng.randint(0, 3 * den), den)
            if field is None:
                k = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            else:
                k = rng.randint(1, field - 1)
            out[e] = out.get(e, 0) + k
        return out

    if rng.random() < 0.5:
        cells = [poly() for _ in range(rows * cols)]
    else:
        k = rng.randint(0, min(rows, cols))
        u = [[poly() for _ in range(k)] for _ in range(rows)]
        v = [[poly() for _ in range(cols)] for _ in range(k)]
        cells = []
        for i in range(rows):
            for j in range(cols):
                acc = {}
                for m in range(k):
                    for e1, k1 in u[i][m].items():
                        for e2, k2 in v[m][j].items():
                            acc[e1 + e2] = acc.get(e1 + e2, 0) + k1 * k2
                cells.append(acc)
    return LiftMatrix(rows, cols, tuple(series(c, field=field, trunc=trunc) for c in cells))


def _rank_or_message(fn, lift):
    try:
        return fn(lift)
    except IndeterminateAtTruncation as exc:
        return str(exc)


def test_series_rank_matches_series_elimination():
    rng = random.Random(20260)
    seen = set()
    for _ in range(2000):
        lift = _random_lift(rng)
        want = _rank_or_message(_reference_series_rank, lift)
        assert _rank_or_message(series_rank, lift) == want, format_lift(lift)
        seen.add(want if isinstance(want, str) else (want.rank < min(lift.rows, lift.cols), want.valuation_loss))
    # Deficient rank (exact lifts only: a truncated lift never proves a zero),
    # full rank with and without valuation loss, and indeterminate columns.
    assert {(True, False), (False, False), (False, True)} <= seen
    assert any(isinstance(x, str) for x in seen)


def test_series_rank_of_empty_lift():
    assert series_rank(LiftMatrix(0, 3, ())) == SeriesRankResult(0, False)
    assert series_rank(LiftMatrix(3, 0, ())) == SeriesRankResult(0, False)
