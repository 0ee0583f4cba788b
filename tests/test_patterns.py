import random

import pytest

from troprank import IncidencePattern, TropicalMatrix, format_matrix, parse_matrix
from troprank.realize import _element_order
from troprank.reduction import compile_system, parse_poly_system


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IncidencePattern.from_rows([[1, 0], [1]])


@pytest.mark.parametrize("entry", [2, -1, 0.5, "1", None])
def test_from_rows_rejects_entries_other_than_0_1(entry):
    with pytest.raises(ValueError):
        IncidencePattern.from_rows([[1, 0], [0, entry]])


@pytest.mark.parametrize("entry", ["inf", 2, "1/2", -1])
def test_from_matrix_rejects_non_01_entries(entry):
    m = TropicalMatrix.from_rows([[0, 1], [1, entry]])
    with pytest.raises(ValueError):
        IncidencePattern.from_matrix(m)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 2], [2, 0]],                # {0, 2}
        [[0, "inf"], ["inf", 0]],
        [["inf", "inf"]],
        [[0, "1/2"]],                    # scale 2
        [["1/2", "1/2"], ["1/2", 0]],    # scale 2, residues 0/1 over it
        [[0, 1], [1, 256]],
        [[0, 10**30]],
    ],
)
def test_from_matrix_rejects_every_matrix_that_is_not_01(rows):
    with pytest.raises(ValueError, match=r"^matrix is not \(0,1\)-valued$"):
        IncidencePattern.from_matrix(TropicalMatrix.from_rows(rows))


def test_to_tropical_and_from_matrix_agree_with_entrywise_reading():
    rng = random.Random(5)
    for r, c in ((1, 1), (1, 8), (8, 1), (6, 9), (31, 17)):
        rows = [[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)]
        p = IncidencePattern.from_rows(rows)
        for q, q_rows in ((p, rows), (p.transpose(), [list(col) for col in zip(*rows)])):
            m = q.to_tropical()
            assert m == TropicalMatrix.from_rows(q_rows) and m.scale == 1
            assert m.cost == tuple(map(tuple, q_rows))
            back = IncidencePattern.from_matrix(m)
            assert back == q and not back.bits.flags.writeable


def test_text_round_trip_gives_equal_pattern_and_hash():
    rng = random.Random(3)
    p = IncidencePattern.from_rows([[int(rng.random() < 0.4) for _ in range(9)] for _ in range(7)])
    back = IncidencePattern.from_matrix(parse_matrix(format_matrix(p.to_tropical())))
    assert back == p
    assert hash(back) == hash(p)
    assert back != p.transpose()
    assert back != IncidencePattern.from_rows([[0] * 9] * 7)


def test_ones_are_row_major_python_ints():
    p = IncidencePattern.from_rows([[0, 1, 1], [1, 0, 0], [0, 0, 1]])
    ones = p.ones()
    assert ones == [(0, 1), (0, 2), (1, 0), (2, 2)]
    assert all(type(i) is int and type(j) is int for i, j in ones)


def test_transpose():
    p = IncidencePattern.from_rows([[1, 0, 0], [1, 1, 0]])
    t = p.transpose()
    assert (t.rows, t.cols) == (3, 2)
    assert t == IncidencePattern.from_rows([[1, 1], [0, 1], [0, 0]])
    assert t.transpose() == p


def test_bits_are_read_only():
    p = IncidencePattern.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        p.bits[0, 0] = False


def _reference_gauge(bits, rows, cols):
    """The original frame-quadruple choice, checked cell by cell."""
    deg = {i: sum(bits[i]) for i in range(rows)}
    by_degree = sorted(range(rows), key=lambda i: (-deg[i], i))
    chosen = []
    for i in by_degree:
        if len(chosen) == 4:
            break
        if all(sum(bits[p][j] for p in chosen + [i]) < 3 for j in range(cols)):
            chosen.append(i)
    for i in by_degree:
        if len(chosen) == 4:
            break
        if i not in chosen:
            chosen.append(i)
    return chosen


def _reference_element_order(pattern):
    """The original O(E^3) greedy: recount placed incidences at every step."""
    bits = pattern.bits.tolist()
    elems = [("P", i) for i in range(pattern.rows)] + [("L", j) for j in range(pattern.cols)]
    deg = {}
    for kind, idx in elems:
        if kind == "P":
            deg[(kind, idx)] = sum(bits[idx])
        else:
            deg[(kind, idx)] = sum(bits[i][idx] for i in range(pattern.rows))
    gauge = [("P", i) for i in _reference_gauge(bits, pattern.rows, pattern.cols)]
    placed = list(gauge)
    remaining = set(elems) - set(placed)
    while remaining:
        def placed_incidence(e):
            kind, idx = e
            count = 0
            for other in placed:
                if other[0] == kind:
                    continue
                i, j = (idx, other[1]) if kind == "P" else (other[1], idx)
                count += bits[i][j]
            return count

        best = max(
            remaining,
            key=lambda e: (placed_incidence(e), deg[e], e[0] == "P", -e[1]),
        )
        placed.append(best)
        remaining.remove(best)
    return placed, len(gauge)


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_element_order_matches_reference_greedy(density):
    rng = random.Random(int(density * 10))
    for _ in range(40):
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        p = IncidencePattern.from_rows([[int(rng.random() < density) for _ in range(c)] for _ in range(r)])
        assert _element_order(p) == _reference_element_order(p)


def test_element_order_matches_reference_on_compiled_pattern():
    p = compile_system(parse_poly_system("x1*x2 - 3\nx1 + x2 - 4"), seed=3).pattern
    assert _element_order(p) == _reference_element_order(p)
    assert _element_order(p.transpose()) == _reference_element_order(p.transpose())

