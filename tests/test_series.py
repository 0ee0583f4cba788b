import itertools
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
    series_rank,
    verify_lift,
)
from troprank.multipoly import Poly, as_coeff
from troprank.patterns import Configuration, check_realization_exact
from troprank.series import IndeterminateAtTruncation, SeriesRankResult, format_lift


def L(rows, field=None, trunc=INF):
    return LiftMatrix.from_rows(rows, field=field, trunc=trunc)


# -- oracle: truncated series as {Fraction exponent: coefficient} maps ---------
#
# A series is (field, terms, trunc): terms maps each exponent below trunc to a
# nonzero coefficient (a Fraction over Q, a residue over GF(p)); trunc is a
# Fraction, or INF for an exact polynomial.  Shares no code with series.py.


def ser(terms, field=None, trunc=INF):
    acc = {}
    for e, c in terms.items():
        e = Fraction(e)
        if trunc is INF or e < trunc:
            acc[e] = acc.get(e, 0) + Fraction(c)
    if field is not None:
        acc = {e: c.numerator * pow(c.denominator, -1, field) % field for e, c in acc.items()}
    return field, {e: c for e, c in acc.items() if c}, trunc


def _bound(s):
    """A lower bound for the valuation: the least exponent, else trunc."""
    return min(s[1]) if s[1] else s[2]


def _add_inf(a, b):
    return INF if a is INF or b is INF else a + b


def sub(a, b):
    if a[0] != b[0]:
        raise ValueError("base-field mismatch between series")
    acc = dict(a[1])
    for e, c in b[1].items():
        acc[e] = acc.get(e, 0) - c
    return ser(acc, a[0], min(a[2], b[2]))


def mul(a, b):
    """Known below min(ta + vb, tb + va), v the valuation bounds."""
    if a[0] != b[0]:
        raise ValueError("base-field mismatch between series")
    acc = {}
    for e1, c1 in a[1].items():
        for e2, c2 in b[1].items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return ser(acc, a[0], min(_add_inf(a[2], _bound(b)), _add_inf(b[2], _bound(a))))


def test_valuations():
    lift = L([[{Fraction(1, 2): 3, 1: 1}, {0: 2, 1: 5}, {}]])
    assert [lift.valuation(0, j) for j in range(3)] == [Fraction(1, 2), 0, INF]
    assert L([[{}, {1: 1}]], trunc=3).valuation(0, 0) is None


def test_exact_cancellation():
    a = ser({0: 1, 1: 1})
    b = ser({0: 1, 1: -1})
    prod = mul(a, b)
    assert prod == ser({0: 1, 2: -1})
    assert min(prod[1]) == 0


def test_truncation_tightening():
    a = ser({0: 1}, trunc=Fraction(3))
    b = ser({1: 1}, trunc=Fraction(3))
    # min(3 + 1, 3 + 0) = 3
    assert mul(a, b)[2] == Fraction(3)
    c = ser({2: 1}, trunc=Fraction(3))
    assert mul(c, c)[2] == Fraction(5)


def test_field_mismatch():
    with pytest.raises(ValueError):
        sub(ser({0: 1}), ser({0: 1}, field=2))


def test_gf_coefficients():
    a = ser({0: 1, 1: 1}, field=2)
    assert sub(a, a) == (2, {}, INF)  # provably zero
    assert mul(a, a) == ser({0: 1, 2: 1}, field=2)  # char 2 kills the cross term


def test_series_rank_examples():
    assert series_rank(L([[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]])).rank == 2
    assert series_rank(L([[{0: 1}, {0: 1}], [{0: 1}, {0: 1}]])).rank == 1
    assert series_rank(L([[{1: 1}, {2: 1}], [{2: 1}, {3: 1}]])).rank == 1


def test_series_rank_indeterminate():
    with pytest.raises(IndeterminateAtTruncation):
        series_rank(L([[{}, {}], [{}, {}]], trunc=Fraction(3)))


def test_verify_lift_examples():
    m = TropicalMatrix.from_rows([[0, 1], [1, 0]])
    lift = L([[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]])
    assert verify_lift(m, lift, 2).accepted
    bad = verify_lift(m, lift, 1)
    assert not bad.accepted and "rank" in bad.reason
    mm = TropicalMatrix.from_rows([[0, 0], [0, 0]])
    assert verify_lift(mm, L([[{0: 1}] * 2] * 2), 1).accepted


def test_verify_lift_rejects_negative_rank():
    m = TropicalMatrix.from_rows([[0]])
    lift = L([[{0: 1}]])
    assert not verify_lift(m, lift, 0).accepted
    with pytest.raises(ValueError, match="negative rank"):
        verify_lift(m, lift, -1)


def test_verify_lift_valuation_mismatch():
    m = TropicalMatrix.from_rows([[0, 2], [1, 0]])
    v = verify_lift(m, L([[{0: 1}, {1: 1}], [{1: 1}, {0: 1}]]), 2)
    assert not v.accepted and "(0,1)" in v.reason


def test_verify_lift_inf_requires_zero_entry():
    m = TropicalMatrix.from_rows([[0, "inf"], [1, 0]])
    v = verify_lift(m, L([[{0: 1}, {}], [{1: 1}, {0: 1}]]), 2)
    assert v.accepted and not v.truncation_limited
    v2 = verify_lift(m, L([[{0: 1}, {}], [{1: 1}, {0: 1}]], trunc=3), 2)
    assert v2.accepted and v2.truncation_limited


def test_verify_lift_compares_values_over_other_denominators():
    lift = L([[{1: 1}, {0: 1, Fraction(1, 2): 1}]])
    m = TropicalMatrix.from_rows([[1, 0]])
    assert (lift.scale, m.scale) == (2, 1)
    assert verify_lift(m, lift, 1).accepted
    v = verify_lift(TropicalMatrix.from_rows([[Fraction(1, 2), 0]]), lift, 1)
    assert v.reason == "entry (0,0): valuation 1, required 1/2"
    truncated = L([[{}, {0: 1}]], trunc=Fraction(5, 2))
    v2 = verify_lift(TropicalMatrix.from_rows([[2, 0]]), truncated, 1)
    assert v2.reason == "entry (0,0): valuation >= 5/2, required 2"
    v3 = verify_lift(TropicalMatrix.from_rows([[3, 0]]), truncated, 1)
    assert v3.reason == "entry (0,0): valuation indeterminate at truncation 5/2"


def test_verify_lift_dimension_mismatch():
    m = TropicalMatrix.from_rows([[0, 1]])
    assert not verify_lift(m, L([[{0: 1}]]), 1).accepted


def test_lift_format_round_trip():
    lift = L([[{0: Fraction(1, 2), Fraction(3, 2): -2}, {}], [{1: 3}, {0: 1, 2: -1}]])
    text = format_lift(lift)
    assert text == (
        "troplift 2 2 q inf\n0 0 : 1/2*t^0 - 2*t^3/2\n0 1 : 0\n1 0 : 3*t^1\n1 1 : 1*t^0 - 1*t^2\n"
    )
    assert parse_lift(text) == lift
    lt = L([[{0: 1}]], trunc=3)
    assert parse_lift(format_lift(lt)) == lt
    mixed = L([[{0: Fraction(1, 2), Fraction(1, 3): Fraction(-2, 3)}, {Fraction(5, 6): 4}]], trunc=Fraction(7, 4))
    assert format_lift(mixed) == "troplift 1 2 q 7/4\n0 0 : 1/2*t^0 - 2/3*t^1/3\n0 1 : 4*t^5/6\n"
    assert parse_lift(format_lift(mixed)) == mixed


def test_same_lift_over_other_denominators_is_equal():
    # 1/3 * t^(1/2), truncated at 3/2: exponents over 2 and over 4,
    # coefficients over 3 and over 6.
    a = L([[{Fraction(1, 2): Fraction(1, 3)}]], trunc=Fraction(3, 2))
    b = LiftMatrix(1, 1, None, (((2, 2),),), 6, 4, 6)
    assert (a.cells, a.trunc, a.scale, a.den) == ((((1, 1),),), 3, 2, 3)
    assert a == b and hash(a) == hash(b)
    assert a.valuation(0, 0) == b.valuation(0, 0) == Fraction(1, 2)
    assert format_lift(a) == format_lift(b)
    assert a != L([[{Fraction(1, 2): Fraction(2, 3)}]], trunc=Fraction(3, 2))
    assert a != L([[{Fraction(1, 4): Fraction(1, 3)}]], trunc=Fraction(3, 2))


def test_from_rows_drops_truncated_and_cancelled_terms():
    lift = L([[{0: 1, 2: 5, Fraction(5, 2): 1, 3: 7}, {1: Fraction(0), 0: 3}]], trunc=2)
    assert lift.cells == (((0, 1),), ((0, 3),)) and lift.trunc == 2 and lift.scale == 1
    gf = L([[{0: 1, 1: 2}, {1: 7}]], field=7)  # 7 = 0 mod 7
    assert gf.cells == (((0, 1), (1, 2)), ())
    assert gf.valuation(0, 1) is INF
    parsed = parse_lift("troplift 1 1 gf3 inf\n0 0 : 1*t^1 + 2*t^1 + 1/2*t^0 - 1/2*t^2 + 1/2*t^2\n")
    assert parsed.cells == (((0, 2),),)  # 1/2 = 2 mod 3
    with pytest.raises(ValueError, match="negative"):
        L([[{Fraction(-1, 2): 1}]])


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


def test_parse_lift_rejects_negative_exponent():
    with pytest.raises(ValueError, match="negative"):
        parse_lift("troplift 1 1 q inf\n0 0 : 1*t^-1/2\n")


@pytest.mark.parametrize(
    "text",
    [
        "troplift 1 1 q 1/0\n0 0 : 1*t^0\n",
        "troplift 1 1 q inf\n0 0 : 1/0*t^0\n",
        "troplift 1 1 q inf\n0 0 : 1*t^1/0\n",
        "troplift 1 1 q inf\n0 0 : 3/0\n",
    ],
)
def test_parse_lift_zero_denominator_is_a_parse_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_lift(text)


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


def _fraction_lift(pattern, config, seed):
    """The Fraction construction lift_from_configuration replaced: the same
    draws, every entry a Fraction polynomial, then LiftMatrix.from_rows."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    rng = random.Random(seed)
    v, w = config.points, config.lines
    while True:
        g = [tuple(Fraction(rng.randint(1, 99)) for _ in range(3)) for _ in v]
        h = [tuple(Fraction(rng.randint(1, 99)) for _ in range(3)) for _ in w]
        if all(dot(v[i], h[j]) + dot(g[i], w[j]) != 0 for i, j in pattern.ones()):
            return LiftMatrix.from_rows(
                [{0: dot(v[i], w[j]), 1: dot(v[i], h[j]) + dot(g[i], w[j]), 2: dot(g[i], h[j])} for j in range(len(w))]
                for i in range(len(v))
            )


def _rational_configuration(rng):
    """Random rational points and lines, each line through two of the points
    or free, with coordinates of mixed denominators; and their pattern."""
    def q():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6, 9]))

    def vector():
        while True:
            t = tuple(q() for _ in range(3))
            if any(t):
                return t

    points = [vector() for _ in range(rng.randint(2, 6))]
    lines = []
    for _ in range(rng.randint(2, 6)):
        a, b = rng.sample(points, 2)
        cross = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        if rng.random() < 0.7 and any(cross):
            k = q() or Fraction(1, 7)
            lines.append(tuple(k * x for x in cross))
        else:
            lines.append(vector())
    bits = [[int(sum(x * y for x, y in zip(p, l)) == 0) for l in lines] for p in points]
    return IncidencePattern.from_rows(bits), Configuration(None, tuple(points), tuple(lines))


def test_integer_lift_matches_fraction_construction():
    """On rational configurations with non-integral coordinates, the lift
    built on scaled integer vectors equals the Fraction construction's, and
    so formats to the same bytes."""
    rng = random.Random(4242)
    incidences = fractional = 0
    for trial in range(150):
        pattern, config = _rational_configuration(rng)
        incidences += int(pattern.bits.sum())
        lift = lift_from_configuration(pattern, config, seed=trial)
        want = _fraction_lift(pattern, config, trial)
        assert lift == want, trial
        assert format_lift(lift) == format_lift(want)
        assert (lift.scale, lift.den) == (want.scale, want.den)
        fractional += want.den > 1
    assert incidences > 150 and fractional > 50
    # realized configurations, as the exact engine hands them over
    for trial, p in enumerate(_random_patterns(random.Random(9), 60)):
        v = realize_rank3(p, field=None, seed=trial)
        if hasattr(v, "configuration"):
            lift = lift_from_configuration(p, v.configuration, seed=trial)
            assert format_lift(lift) == format_lift(_fraction_lift(p, v.configuration, trial))


def _fraction_check(pattern, points, lines):
    """check_realization_exact over Q in Fraction arithmetic, as it was."""
    for kind, vectors in (("point", points), ("line", lines)):
        for i, v in enumerate(vectors):
            if all(c == 0 for c in v):
                return f"{kind} {i} is the zero vector"
    for i, row in enumerate(pattern.bits.tolist()):
        for j, incident in enumerate(row):
            z = sum(Fraction(a) * Fraction(b) for a, b in zip(points[i], lines[j])) == 0
            if incident and not z:
                return f"required incidence ({i},{j}) fails"
            if not incident and z:
                return f"required non-incidence ({i},{j}) vanishes"
    return None


def test_exact_check_on_integral_vectors_matches_fraction_check():
    rng = random.Random(4343)
    verdicts = set()
    for _ in range(300):
        pattern, config = _rational_configuration(rng)
        points, lines = list(config.points), list(config.lines)
        if rng.random() < 0.5:  # flip one entry, or zero one vector
            i, j = rng.randrange(len(points)), rng.randrange(len(lines))
            if rng.random() < 0.8:
                bits = pattern.bits.copy()
                bits[i, j] = not bits[i, j]
                pattern = IncidencePattern(bits)
            else:
                points[i] = (Fraction(0),) * 3
        got = check_realization_exact(pattern, points, lines)
        assert got == _fraction_check(pattern, points, lines)
        verdicts.add(got is None)
    assert verdicts == {True, False}


def _random_patterns(rng, count):
    for _ in range(count):
        r, c = rng.randint(2, 5), rng.randint(2, 5)
        yield IncidencePattern.from_rows([[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)])


def test_all_zero_pattern_constant_lift():
    pattern = IncidencePattern.from_rows([[0, 0], [0, 0]])
    verdict = realize_rank3(pattern, field=None, seed=2)
    lift = lift_from_configuration(pattern, verdict.configuration, seed=2)
    for i in range(2):
        for j in range(2):
            assert lift.valuation(i, j) == 0


def _det(entries, rows, cols):
    """The minor on rows x cols of a matrix of oracle series, by permutations."""
    total = ser({})
    for perm in itertools.permutations(range(len(cols))):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        term = ser({0: -sign})
        for i, p in enumerate(perm):
            term = mul(term, entries[rows[i]][cols[p]])
        total = sub(total, term)
    return total


def test_minor_rank_agreement_on_monomial_lifts():
    """Elimination rank equals the largest size of a nonvanishing minor."""
    rng = random.Random(6)
    for _ in range(20):
        maps = [[{rng.randint(0, 2): Fraction(rng.randint(1, 5))} for _ in range(3)] for _ in range(3)]
        got = series_rank(L(maps)).rank
        entries = [[ser(x) for x in row] for row in maps]
        best = 0
        for k in (1, 2, 3):
            if any(
                _det(entries, rows, cols)[1]
                for rows in itertools.combinations(range(3), k)
                for cols in itertools.combinations(range(3), k)
            ):
                best = k
        assert got == best


def test_fraction_coefficient_over_gf_p_is_num_times_inverse_den():
    assert as_coeff(7, Fraction(1, 3)) == 5          # 3 * 5 = 15 = 1 mod 7
    assert as_coeff(7, Fraction(-2, 5)) == (-2 * 3) % 7
    assert as_coeff(7, 9) == 2
    assert as_coeff(None, 3) == Fraction(3)
    assert Poly.const(Fraction(1, 3), 7).constant_value() == 5
    assert Poly.var(0, 7).evaluate({0: Fraction(1, 3)}) == 5
    gf7 = L([[{0: Fraction(1, 3)}]], field=7)
    assert (gf7.cells, gf7.den) == ((((0, 5),),), 1)
    assert format_lift(gf7) == "troplift 1 1 gf7 inf\n0 0 : 5*t^0\n"


def _reference_series_rank(maps, field, trunc) -> SeriesRankResult:
    """Elimination on oracle series built from the input maps, the oracle for
    series_rank on LiftMatrix.from_rows(maps, field, trunc)."""
    rows = [[ser(x, field, trunc) for x in row] for row in maps]
    cols = len(rows[0]) if rows else 0
    active = list(range(len(rows)))
    loss = False
    rank = 0
    for j in range(cols):
        pivots = []
        unknown = False
        for r in active:
            e = rows[r][j]
            if e[1]:
                pivots.append((min(e[1]), r))
            elif e[2] is not INF:
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
            if not re[1] and re[2] is INF:
                continue  # provably zero
            rows[r] = [sub(mul(pe, rows[r][c]), mul(re, rows[prow][c])) for c in range(cols)]
            # The eliminated position is exactly zero by construction.
            rows[r][j] = ser({}, field)
        active.remove(prow)
        rank += 1
        if not active:
            break
    return SeriesRankResult(rank, loss)


def _random_lift(rng):
    """A small lift over Q or GF(2/3/7), often of low rank by construction, as
    (rows of {exponent: coefficient} maps, field, trunc)."""
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
    return [cells[i * cols : (i + 1) * cols] for i in range(rows)], field, trunc


def _rank_or_message(fn, *args):
    try:
        return fn(*args)
    except IndeterminateAtTruncation as exc:
        return str(exc)


def test_series_rank_matches_series_elimination():
    rng = random.Random(20260)
    seen = set()
    for _ in range(2000):
        maps, field, trunc = _random_lift(rng)
        lift = L(maps, field=field, trunc=trunc)
        want = _rank_or_message(_reference_series_rank, maps, field, trunc)
        assert _rank_or_message(series_rank, lift) == want, format_lift(lift)
        seen.add(want if isinstance(want, str) else (want.rank < min(lift.rows, lift.cols), want.valuation_loss))
    # Deficient rank (exact lifts only: a truncated lift never proves a zero),
    # full rank with and without valuation loss, and indeterminate columns.
    assert {(True, False), (False, False), (False, True)} <= seen
    assert any(isinstance(x, str) for x in seen)


def test_series_rank_of_empty_lift():
    assert series_rank(LiftMatrix(0, 3, None, (), None, 1, 1)) == SeriesRankResult(0, False)
    assert series_rank(L([[], [], []])) == SeriesRankResult(0, False)
