"""(0,1) incidence patterns and realizing point/line configurations.

Convention throughout the package: a 1 entry demands a vanishing inner
product (incidence), a 0 entry demands a nonvanishing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .galois import is_prime
from .tropical import (
    TropicalMatrix,
    format_value,
    parse_fraction,
    zero_one_bytes,
    zero_one_matrix,
)

INCIDENCE_TOL = 1e-9      # float incidence: |v.w| <= tol * |v||w|
NONINCIDENCE_MARGIN = 1e-4  # float non-incidence: |v.w| >= margin * |v||w|


@dataclass(frozen=True, eq=False)
class IncidencePattern:
    """A (0,1) pattern stored as one read-only bool array (True = incidence)."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits)
        if bits.dtype != np.bool_ or bits.ndim != 2:
            raise ValueError("pattern bits must be a two-dimensional bool array")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    def __eq__(self, other):
        if not isinstance(other, IncidencePattern):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash((self.bits.shape, self.bits.tobytes()))

    @staticmethod
    def from_rows(rows) -> "IncidencePattern":
        values = np.array([list(r) for r in rows], dtype=object)  # ragged rows stay lists
        bits = values == 1
        if not (bits | (values == 0)).all():
            raise ValueError("pattern rows must be equal-length rows of 0/1 entries")
        return IncidencePattern(bits)

    @staticmethod
    def from_matrix(m: TropicalMatrix) -> "IncidencePattern":
        """Read a (0,1)-valued tropical matrix as a pattern (1 = incidence)."""
        flat = zero_one_bytes(m)
        if flat is None:
            raise ValueError("matrix is not (0,1)-valued")
        return IncidencePattern(np.frombuffer(flat, dtype=bool).reshape(m.rows, m.cols))

    def to_tropical(self) -> TropicalMatrix:
        return zero_one_matrix(self.bits.tobytes(), self.rows, self.cols)

    def ones(self) -> list:
        """Incidences (i, j) as Python ints, in row-major order."""
        rows, cols = np.nonzero(self.bits)
        return list(zip(rows.tolist(), cols.tolist()))

    def transpose(self) -> "IncidencePattern":
        return IncidencePattern(self.bits.T)


@dataclass(frozen=True)
class Configuration:
    """Realizing family: nonzero point vectors and line covectors in 3-space.

    field is None for exact rationals, an int p for GF(p), or "float".
    """

    field: object
    points: tuple
    lines: tuple


def integral_vector(v):
    """(v times d, d) for d the lcm of the denominators of v's Fraction
    entries: the same projective point, with ints where v held ints or
    Fractions, so that dots and zero tests run on ints."""
    d = math.lcm(*(x.denominator for x in v if type(x) is Fraction))
    return tuple(x.numerator * (d // x.denominator) if type(x) is Fraction else x * d for x in v), d


def check_realization_exact(pattern: IncidencePattern, points, lines, field=None) -> Optional[str]:
    """None when the configuration realizes the pattern; else the first problem.

    Over Q each vector is checked as its integral_vector, which has the same
    incidences and zero tests."""
    if len(points) != pattern.rows or len(lines) != pattern.cols:
        return "configuration size does not match pattern"
    if field is None:
        points = [integral_vector(v)[0] for v in points]
        lines = [integral_vector(v)[0] for v in lines]
    else:
        for kind, vectors in (("point", points), ("line", lines)):
            for i, vec in enumerate(vectors):
                if not all(isinstance(c, int) and 0 <= c < field for c in vec):
                    return f"{kind} {i} has a coordinate outside GF({field}) residues 0..{field - 1}"

    def dot(u, v):
        d = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
        return d if field is None else d % field

    for i, pt in enumerate(points):
        if all(c == 0 for c in pt):
            return f"point {i} is the zero vector"
    for j, ln in enumerate(lines):
        if all(c == 0 for c in ln):
            return f"line {j} is the zero vector"
    for i, row in enumerate(pattern.bits.tolist()):
        for j, incident in enumerate(row):
            z = dot(points[i], lines[j]) == 0
            if incident and not z:
                return f"required incidence ({i},{j}) fails"
            if not incident and z:
                return f"required non-incidence ({i},{j}) vanishes"
    return None


def check_realization_float(pattern: IncidencePattern, points, lines) -> Optional[str]:
    """Scale-invariant float verification with a deliberate accept/reject gap."""
    if len(points) != pattern.rows or len(lines) != pattern.cols:
        return "configuration size does not match pattern"
    pn = [math.sqrt(sum(c * c for c in pt)) for pt in points]
    ln = [math.sqrt(sum(c * c for c in lv)) for lv in lines]
    # A nan or inf coordinate, or one too large to square, makes the norm
    # nan or inf, and no bound can then be checked (nan compares False).
    for kind, norms in (("point", pn), ("line", ln)):
        for i, x in enumerate(norms):
            if not math.isfinite(x):
                return f"{kind} {i} has non-finite norm {x}"
    if any(x == 0.0 for x in pn) or any(x == 0.0 for x in ln):
        return "zero vector in configuration"
    for i, row in enumerate(pattern.bits.tolist()):
        for j, incident in enumerate(row):
            d = abs(sum(a * b for a, b in zip(points[i], lines[j])))
            bound = pn[i] * ln[j]
            if incident:
                if d > INCIDENCE_TOL * bound:
                    return f"incidence ({i},{j}) residual {d / bound:.3e}"
            else:
                if d < NONINCIDENCE_MARGIN * bound:
                    return f"non-incidence ({i},{j}) margin {d / bound:.3e}"
    return None


def _format_coord(c, field):
    if field == "float":
        return f"{float(c):.17g}"
    return format_value(c)


def format_configuration(cfg: Configuration) -> str:
    out = [f"field {field_tag(cfg.field)}"]
    for i, pt in enumerate(cfg.points):
        out.append("P " + str(i) + " " + " ".join(_format_coord(c, cfg.field) for c in pt))
    for j, ln in enumerate(cfg.lines):
        out.append("L " + str(j) + " " + " ".join(_format_coord(c, cfg.field) for c in ln))
    return "\n".join(out) + "\n"


def field_tag(field) -> str:
    """Text tag of a base field (None, "float" or a prime p); parse_field_tag inverts it."""
    if field is None:
        return "q"
    if field == "float":
        return "float"
    return f"gf{field}"


def parse_field_tag(tag: str):
    tag = tag.strip().lower()
    if tag in ("q", "rational", "rationals"):
        return None
    if tag == "float":
        return "float"
    if tag.startswith("gf"):
        p = int(tag[2:])
        if not is_prime(p):
            raise ValueError(f"field tag {tag!r} names GF({p}), but {p} is not prime")
        return p
    raise ValueError(f"unknown field tag {tag!r}")


def parse_configuration(text: str) -> Configuration:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("field"):
        raise ValueError("configuration certificate must start with a field line")
    field = parse_field_tag(lines[0].split()[1])
    pts = {}
    lns = {}
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 5 or toks[0] not in ("P", "L"):
            raise ValueError(f"bad configuration row: {ln!r}")
        idx = int(toks[1])
        if field == "float":
            coords = tuple(float(t) for t in toks[2:])
            if not all(math.isfinite(c) for c in coords):
                raise ValueError(f"non-finite coordinate in {toks[0]} {idx}: {ln!r}")
        elif field is None:
            coords = tuple(parse_fraction(t) for t in toks[2:])
        else:
            coords = tuple(int(t) for t in toks[2:])
        found = pts if toks[0] == "P" else lns
        if idx in found:
            raise ValueError(f"repeated {toks[0]} index {idx}")
        found[idx] = coords
    for kind, found in (("P", pts), ("L", lns)):
        if sorted(found) != list(range(len(found))):
            raise ValueError(f"{kind} indices must be exactly 0..{len(found) - 1}")
    points = tuple(pts[i] for i in sorted(pts))
    lines_v = tuple(lns[j] for j in sorted(lns))
    return Configuration(field, points, lines_v)
