import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from troprank import (
    INF,
    IncidencePattern,
    TropicalMatrix,
    format_matrix,
    min_plus_multiply,
    parse_matrix,
    tropical_scale,
)
from troprank.tropical import as_value, format_value


def test_infinity_ordering_and_absorption():
    assert INF + Fraction(3) is INF
    assert Fraction(3) + INF is INF
    assert INF + INF is INF
    assert Fraction(5) < INF
    assert not (INF < Fraction(5))
    assert INF == INF
    assert INF > Fraction(10**9)


def test_as_value_parsing():
    assert as_value("3/4") == Fraction(3, 4)
    assert as_value("0.25") == Fraction(1, 4)
    assert as_value("-7") == Fraction(-7)
    assert as_value("inf") is INF
    with pytest.raises(TypeError):
        as_value(0.5)


def test_identity_multiplication():
    m = TropicalMatrix.from_rows([[1, 2], [3, 4]])
    e = TropicalMatrix.identity(2)
    assert min_plus_multiply(e, m) == m
    assert min_plus_multiply(m, e) == m


def test_rank_one_product():
    col = TropicalMatrix.from_rows([[0], [1]])
    row = TropicalMatrix.from_rows([[0, 1]])
    prod = min_plus_multiply(col, row)
    assert prod == TropicalMatrix.from_rows([[0, 1], [1, 2]])


def test_multiply_dimension_mismatch():
    a = TropicalMatrix.from_rows([[0, 1]])
    with pytest.raises(ValueError):
        min_plus_multiply(a, a)


def test_scale_examples():
    m = TropicalMatrix.from_rows([[0, 1], [1, 0]])
    assert tropical_scale(m, [0, 0], [0, 0]) == m
    out = tropical_scale(m, [1, 0], [0, 0])
    assert out == TropicalMatrix.from_rows([[1, 2], [1, 0]])


def test_scale_preserves_inf():
    m = TropicalMatrix.from_rows([[0, "inf"], ["inf", 0]])
    out = tropical_scale(m, [5, 5], [7, 7])
    assert out.entry(0, 1) is INF
    assert out.entry(0, 0) == Fraction(12)


def test_scale_rejects_inf_offsets():
    m = TropicalMatrix.from_rows([[0]])
    with pytest.raises(ValueError):
        tropical_scale(m, [INF], [0])


def test_format_round_trip():
    m = TropicalMatrix.from_rows([[Fraction(1, 3), "inf"], [2, Fraction(-7, 2)]])
    text = format_matrix(m)
    assert parse_matrix(text) == m
    assert "1/3" in text and "inf" in text


def test_parse_rejects_bad_shapes():
    with pytest.raises(ValueError):
        parse_matrix("tropmat 2 3\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_matrix("tropmat 1 2\n0 1 2\n")
    with pytest.raises(ValueError):
        parse_matrix("nope 1 1\n0\n")


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_matrix("tropmat 1 2\n0 1/0\n")
    with pytest.raises(ValueError, match="zero denominator"):
        as_value("-3/0")


def test_format_value():
    assert format_value(INF) == "inf"
    assert format_value(Fraction(-3, 4)) == "-3/4"
    assert format_value(Fraction(8, 2)) == "4"


def test_submatrix_and_transpose():
    m = TropicalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m.transpose().entry(2, 1) == Fraction(6)
    sub = m.submatrix([1], [0, 2])
    assert sub.to_rows() == [[Fraction(4), Fraction(6)]]


# ---- stored form: canonical integer costs over one denominator ---------------
#
# The oracles below are the Fraction-per-entry implementations the matrix type
# had before it stored integer costs; they work on (rows, cols, entries).


def _ref_transpose(rows, cols, entries):
    ent = tuple(entries[i * cols + j] for j in range(cols) for i in range(rows))
    return cols, rows, ent


def _ref_submatrix(rows, cols, entries, row_idx, col_idx):
    ent = tuple(entries[i * cols + j] for i in row_idx for j in col_idx)
    return len(row_idx), len(col_idx), ent


def _ref_multiply(a, b):
    (ar, ac, ae), (br, bc, be) = a, b
    out = []
    for i in range(ar):
        arow = ae[i * ac : (i + 1) * ac]
        for j in range(bc):
            best = INF
            for s in range(ac):
                x = arow[s]
                y = be[s * bc + j]
                if x is INF or y is INF:
                    continue
                v = x + y
                if best is INF or v < best:
                    best = v
            out.append(best)
    return ar, bc, tuple(out)


def _ref_format(rows, cols, entries):
    lines = [f"tropmat {rows} {cols}"]
    for i in range(rows):
        lines.append(" ".join(format_value(v) for v in entries[i * cols : (i + 1) * cols]))
    return "\n".join(lines) + "\n"


def _flat(m):
    return m.rows, m.cols, m.entries


def _random_matrix(rng, r, c):
    return TropicalMatrix.from_rows(
        [
            [INF if rng.random() < 0.2 else Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(c)]
            for _ in range(r)
        ]
    )


def _random_matrices():
    rng = random.Random(41)
    out = [TropicalMatrix.constant(3, 4, INF)]
    for _ in range(300):
        out.append(_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
    return rng, out


def test_stored_form_is_canonical():
    _, matrices = _random_matrices()
    for m in matrices:
        finite = [v for v in m.entries if v is not INF]
        assert m.scale == lcm(*(v.denominator for v in finite))
        assert gcd(m.scale, *(c for row in m.cost for c in row if c is not None)) == 1
        back = TropicalMatrix.from_rows(m.to_rows())
        assert back == m and hash(back) == hash(m)
        # Any common factor of cost and scale is divided out on construction.
        doubled = TropicalMatrix(
            tuple(tuple(None if c is None else 6 * c for c in row) for row in m.cost), 6 * m.scale
        )
        assert doubled == m and hash(doubled) == hash(m) and doubled.scale == m.scale
    assert TropicalMatrix(((None, None),), 8) == TropicalMatrix.constant(1, 2, INF)
    assert TropicalMatrix.constant(1, 2, INF).scale == 1


def test_stored_form_matches_fraction_oracles():
    rng, matrices = _random_matrices()
    for m in matrices:
        text = format_matrix(m)
        assert text == _ref_format(*_flat(m))
        assert parse_matrix(text) == m
        assert _flat(m.transpose()) == _ref_transpose(*_flat(m))
        row_idx = sorted(rng.sample(range(m.rows), rng.randint(1, m.rows)))
        col_idx = sorted(rng.sample(range(m.cols), rng.randint(1, m.cols)))
        sub = m.submatrix(row_idx, col_idx)
        assert _flat(sub) == _ref_submatrix(*_flat(m), row_idx, col_idx)
        assert sub == TropicalMatrix.from_rows(sub.to_rows())  # canonical scale
        other = _random_matrix(rng, m.cols, rng.randint(1, 6))
        prod = min_plus_multiply(m, other)
        assert _flat(prod) == _ref_multiply(_flat(m), _flat(other))
        assert prod == TropicalMatrix.from_rows(prod.to_rows())


def test_format_of_large_01_pattern_matches_oracle():
    rng = np.random.default_rng(755)
    pattern = IncidencePattern(rng.random((755, 550)) < 0.3)
    m = pattern.to_tropical()
    text = format_matrix(m)
    assert text == _ref_format(*_flat(m))
    back = parse_matrix(text)
    assert back == m and IncidencePattern.from_matrix(back) == pattern


# ---- the (0,1) text hand-off ------------------------------------------------------


def _zero_one_matrices():
    rng = random.Random(1)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (7, 5), (20, 19), (57, 43)]
    out = [TropicalMatrix.constant(3, 4, 0), TropicalMatrix.constant(4, 3, 1)]
    for r, c in shapes:
        out.append(TropicalMatrix.from_rows([[int(rng.random() < 0.3) for _ in range(c)] for _ in range(r)]))
    return out


def _general_matrices():
    return [
        TropicalMatrix.from_rows([[0, 1, "inf"]]),
        TropicalMatrix.from_rows([[0], [1], [2]]),
        TropicalMatrix.from_rows([[0, 10], [1, 0]]),
        TropicalMatrix.from_rows([[0, -1], [1, 0]]),
        TropicalMatrix.from_rows([["1/2", 0], [1, 0]]),
        TropicalMatrix.from_rows([[1, 1], [1, 1]]).transpose(),
        TropicalMatrix.from_rows([[256, 0]]),
        TropicalMatrix.constant(2, 3, INF),
    ]


def test_format_is_byte_identical_on_01_and_general_matrices():
    for m in _zero_one_matrices() + _general_matrices():
        text = format_matrix(m)
        assert text == _ref_format(*_flat(m))
        assert parse_matrix(text) == m


def _spellings(m):
    """The (0,1) matrix m as text in layouts the byte path does not take."""
    rows = [[str(v) for v in row] for row in m.cost]
    head = f"tropmat {m.rows} {m.cols}"
    body = ["\t".join(r) for r in rows]
    yield head + "\n" + "\n".join(body) + "\n"
    yield head + "\n" + "\n".join("  ".join(r) for r in rows)
    yield head + "\r\n" + "\r\n".join(" ".join(r) for r in rows) + "\r\n"
    yield "# comment\n\n" + head + "\n\n" + "\n# between\n".join(" ".join(r) for r in rows) + "\n\n"
    yield "  " + head + "  \n" + "\n".join("   " + " ".join(r) + " " for r in rows)
    for zero, one in (("0", "01"), ("0.0", "1.0"), ("-0", "+1"), ("0/3", "2/2")):
        yield head + "\n" + "\n".join(" ".join(one if v == "1" else zero for v in r) for r in rows)


def test_parse_reads_the_same_01_matrix_in_every_spelling():
    for m in _zero_one_matrices():
        assert parse_matrix(format_matrix(m)) == m
        for text in _spellings(m):
            assert parse_matrix(text) == m, text


@pytest.mark.parametrize(
    "text, message",
    [
        ("tropmat 2 3\n0 1 0\n", "expected 2 data rows, found 1"),
        ("tropmat 1 2\n0 1 0\n", "expected 2 entries per row, found 3"),
        ("tropmat 2 2\n0 1\n1\n", "expected 2 entries per row, found 1"),
        ("tropmat 2 2\n0 1\n1 0 1\n", "expected 2 entries per row, found 3"),
        ("tropmat 2 2\n0 1 1\n0\n", "expected 2 entries per row, found 3"),
        ("nope 1 1\n0\n", "bad tropmat header"),
        ("tropmat 2\n0 1\n", "bad tropmat header"),
        ("tropmat 0 2\n", "bad tropmat dimensions"),
        ("# only a comment\n\n", "empty tropmat input"),
        ("tropmat 1 2\n0 1/0\n", "zero denominator in '1/0'"),
        ("tropmat 1 2\n0 x\n", "Invalid literal for Fraction: 'x'"),
    ],
)
def test_parse_errors_are_unchanged(text, message):
    with pytest.raises(ValueError) as err:
        parse_matrix(text)
    assert str(err.value) == message
