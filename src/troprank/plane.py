"""The projective plane PG(2, q) and its weighted tropical incidence matrices.

Points and lines are the normalized homogeneous triples over GF(q) (first
nonzero coordinate 1), sorted lexicographically; a point lies on a line when
their dot product vanishes.  All four plane axioms are verified exhaustively
at construction, which happens once per order (planes are immutable).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .galois import GaloisField, make_field
from .tropical import TropicalMatrix


class PlaneAxiomError(RuntimeError):
    """Internal defect: a constructed plane violated an incidence axiom."""


@dataclass(frozen=True)
class ProjectivePlane:
    q: int
    points: tuple          # normalized triples, lexicographically sorted
    lines: tuple           # same list by duality
    line_points: tuple     # per line: sorted tuple of incident point indices
    point_lines: tuple     # per point: sorted tuple of incident line indices

    @property
    def size(self) -> int:
        return len(self.points)

    def incidence_count(self) -> int:
        return sum(len(pts) for pts in self.line_points)


def _normalized_triples(f: GaloisField):
    """All projective triples with first nonzero coordinate 1, sorted."""
    q = f.q
    triples = [(0, 0, 1)]
    for c in range(q):
        triples.append((0, 1, c))
    for b in range(q):
        for c in range(q):
            triples.append((1, b, c))
    return tuple(sorted(triples))


@lru_cache(maxsize=None)
def projective_plane(q: int) -> ProjectivePlane:
    f = make_field(q)
    triples = _normalized_triples(f)
    n = len(triples)
    expected = q * q + q + 1
    if n != expected:
        raise PlaneAxiomError(f"{n} points generated, expected {expected}")

    line_points = []
    for line in triples:
        incident = tuple(
            i for i, pt in enumerate(triples) if f.dot(pt, line) == 0
        )
        line_points.append(incident)
    point_lines = [[] for _ in range(n)]
    for j, pts in enumerate(line_points):
        for i in pts:
            point_lines[i].append(j)
    point_lines = tuple(tuple(v) for v in point_lines)
    plane = ProjectivePlane(q, triples, triples, tuple(line_points), point_lines)
    _verify_axioms(plane)
    return plane


def _verify_axioms(plane: ProjectivePlane):
    q = plane.q
    n = plane.size
    for j, pts in enumerate(plane.line_points):
        if len(pts) != q + 1:
            raise PlaneAxiomError(f"line {j} has {len(pts)} points, expected {q + 1}")
    for i, lns in enumerate(plane.point_lines):
        if len(lns) != q + 1:
            raise PlaneAxiomError(f"point {i} lies on {len(lns)} lines, expected {q + 1}")
    point_sets = [frozenset(lns) for lns in plane.point_lines]
    for i in range(n):
        for j in range(i + 1, n):
            if len(point_sets[i] & point_sets[j]) != 1:
                raise PlaneAxiomError(f"points {i},{j} do not span a unique line")
    line_sets = [frozenset(pts) for pts in plane.line_points]
    for i in range(n):
        for j in range(i + 1, n):
            if len(line_sets[i] & line_sets[j]) != 1:
                raise PlaneAxiomError(f"lines {i},{j} do not meet in a unique point")


_WEIGHT_DENOMINATOR = 1000  # random weights are k/1000 with 1 <= k <= 1000


def incidence_matrix(plane: ProjectivePlane, scheme: str = "unit", seed: int = 0) -> TropicalMatrix:
    """Tropical matrix: 0 where point i is off line j, a positive weight on it.

    scheme "unit" puts 1 at every incidence; "random" draws weights k/1000
    (1 <= k <= 1000) row-major from the seed, so the zero pattern is
    identical across schemes.
    """
    if scheme not in ("unit", "random"):
        raise ValueError(f"unknown weight scheme {scheme!r}")
    unit = scheme == "unit"
    rng = random.Random(seed)
    cost = []
    for on in plane.point_lines:
        row = [0] * plane.size
        for j in on:
            row[j] = 1 if unit else rng.randint(1, _WEIGHT_DENOMINATOR)
        cost.append(tuple(row))
    return TropicalMatrix(tuple(cost), 1 if unit else _WEIGHT_DENOMINATOR)


def format_plane_sidecar(plane: ProjectivePlane) -> str:
    """Point and line coordinates, one element per line: `P i a b c` / `L j a b c`."""
    out = [f"plane {plane.q}"]
    for i, pt in enumerate(plane.points):
        out.append(f"P {i} {pt[0]} {pt[1]} {pt[2]}")
    for j, ln in enumerate(plane.lines):
        out.append(f"L {j} {ln[0]} {ln[1]} {ln[2]}")
    return "\n".join(out) + "\n"
