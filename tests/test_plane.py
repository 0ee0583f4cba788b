import pytest

from troprank import (
    format_plane_sidecar,
    incidence_matrix,
    projective_plane,
)
from troprank.galois import SUPPORTED_ORDERS, UnsupportedOrder


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_counts_and_axioms(q):
    # construction verifies the axioms internally; re-check the counts here
    plane = projective_plane(q)
    n = q * q + q + 1
    assert plane.size == n
    assert len(plane.lines) == n
    assert plane.incidence_count() == n * (q + 1)
    assert all(len(pts) == q + 1 for pts in plane.line_points)
    assert all(len(lns) == q + 1 for lns in plane.point_lines)


def test_fano_shape():
    plane = projective_plane(2)
    assert plane.size == 7
    assert plane.incidence_count() == 21


def test_order_three_line_size():
    plane = projective_plane(3)
    assert plane.size == 13
    assert all(len(pts) == 4 for pts in plane.line_points)
    m = incidence_matrix(plane, "unit")
    assert sum(1 for v in m.entries if v == 1) == 52


def test_order_four_incidences():
    assert projective_plane(4).incidence_count() == (16 + 4 + 1) * 5


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        projective_plane(6)


def test_planes_built_once_per_order():
    # A plane is built, and its axioms verified, once per order; an
    # unsupported order raises on every call and is not kept.
    assert projective_plane(4) is projective_plane(4)
    kept = projective_plane.cache_info().currsize
    for _ in range(2):
        with pytest.raises(UnsupportedOrder):
            projective_plane(6)
    assert projective_plane.cache_info().currsize == kept <= len(SUPPORTED_ORDERS)


def test_determinism():
    a = projective_plane(3)
    b = projective_plane(3)
    assert a.points == b.points and a.line_points == b.line_points
    assert format_plane_sidecar(a) == format_plane_sidecar(b)
    ma = incidence_matrix(a, "unit")
    mb = incidence_matrix(b, "unit")
    assert ma == mb


def test_unit_matrix_fano():
    m = incidence_matrix(projective_plane(2), "unit")
    ones = [v for v in m.entries if v == 1]
    assert len(ones) == 21
    for i in range(7):
        assert sum(1 for v in m.row(i) if v == 1) == 3
    for j in range(7):
        assert sum(1 for i in range(7) if m.entry(i, j) == 1) == 3


def test_random_weights_same_zero_pattern():
    plane = projective_plane(2)
    unit = incidence_matrix(plane, "unit")
    rand = incidence_matrix(plane, "random", seed=1)
    for a, b in zip(unit.entries, rand.entries):
        assert (a == 0) == (b == 0)
        if b != 0:
            assert 0 < b <= 1
            assert b.denominator <= 1000


def test_random_weights_deterministic():
    plane = projective_plane(3)
    a = incidence_matrix(plane, "random", seed=7)
    b = incidence_matrix(plane, "random", seed=7)
    assert a == b
    c = incidence_matrix(plane, "random", seed=8)
    assert a != c


def test_bad_weight_scheme():
    plane = projective_plane(2)
    with pytest.raises(ValueError):
        incidence_matrix(plane, "gaussian")


def test_sidecar_format():
    text = format_plane_sidecar(projective_plane(2))
    lines = text.strip().splitlines()
    assert lines[0] == "plane 2"
    assert sum(1 for ln in lines if ln.startswith("P ")) == 7
    assert sum(1 for ln in lines if ln.startswith("L ")) == 7
