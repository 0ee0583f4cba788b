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

import numpy as np

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

    # Every point-line dot product at once: (n, n, 3) coordinate products
    # through the field's multiplication table, summed through its addition
    # table.  The lines are the points' own triples and the dot product is
    # symmetric, so row i lists both point i's lines and line i's points.
    add = np.array([[f.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[f.mul(a, b) for b in range(q)] for a in range(q)])
    coords = np.array(triples)
    prods = mul[coords[:, None, :], coords[None, :, :]]
    dots = add[add[prods[..., 0], prods[..., 1]], prods[..., 2]]
    incident = tuple(tuple(np.flatnonzero(row).tolist()) for row in dots == 0)
    plane = ProjectivePlane(q, triples, triples, incident, incident)
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

    scheme "unit" puts 1 at every incidence; "random" puts k/1000 there,
    where the ks are the draws of ``random.Random(seed).randint(1, 1000)``
    taken row-major, so the zero pattern is identical across schemes.
    """
    if scheme not in ("unit", "random"):
        raise ValueError(f"unknown weight scheme {scheme!r}")
    unit = scheme == "unit"
    # randint(1, 1000)'s own draw, inlined: 10 random bits, redrawn while
    # they are 1000 or more, plus 1.  A unit weight is a draw of 0, plus 1.
    bits, width = random.Random(seed).getrandbits, _WEIGHT_DENOMINATOR.bit_length()
    cost = []
    for on in plane.point_lines:
        row = [0] * plane.size
        for j in on:
            k = 0 if unit else bits(width)
            while k >= _WEIGHT_DENOMINATOR:
                k = bits(width)
            row[j] = k + 1
        cost.append(row)
    return TropicalMatrix(cost, 1 if unit else _WEIGHT_DENOMINATOR)


def format_plane_sidecar(plane: ProjectivePlane) -> str:
    """Point and line coordinates, one element per line: `P i a b c` / `L j a b c`."""
    out = [f"plane {plane.q}"]
    for i, pt in enumerate(plane.points):
        out.append(f"P {i} {pt[0]} {pt[1]} {pt[2]}")
    for j, ln in enumerate(plane.lines):
        out.append(f"L {j} {ln[0]} {ln[1]} {ln[2]}")
    return "\n".join(out) + "\n"
