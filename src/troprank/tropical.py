"""Exact min-plus (tropical) values and matrices.

The semiring is (Q ∪ {inf}, min, +): "addition" is minimum, "multiplication"
is ordinary addition, and ``inf`` is the additive identity.  All finite
entries are exact rationals; nothing in this module touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union


class TropicalInfinity:
    """Singleton tropical infinity: absorbs under + and exceeds every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __add__(self, other):
        if isinstance(other, (TropicalInfinity, Fraction, int)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("tropical infinity has no negative")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        if isinstance(other, (Fraction, int)):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("tropical-infinity")

    def __reduce__(self):
        return (TropicalInfinity, ())


INF = TropicalInfinity()

Value = Union[Fraction, TropicalInfinity]


def as_value(x) -> Value:
    """Coerce ints, strings ("3", "3/4", "0.25", "inf") and Fractions to a Value."""
    if x is INF or isinstance(x, TropicalInfinity):
        return INF
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        tok = x.strip().lower()
        if tok in ("inf", "infinity", "oo"):
            return INF
        return Fraction(tok)
    if isinstance(x, float):
        raise TypeError("floating-point entries are not allowed; use Fraction or str")
    raise TypeError(f"cannot interpret {x!r} as a tropical value")


def format_value(v: Value) -> str:
    if v is INF:
        return "inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class TropicalMatrix:
    """Immutable rectangular matrix over Q ∪ {inf}, row-major storage."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "TropicalMatrix":
        data = [[as_value(x) for x in row] for row in rows]
        if not data:
            raise ValueError("empty matrix")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        return TropicalMatrix(len(data), width, tuple(v for r in data for v in r))

    @staticmethod
    def constant(rows: int, cols: int, value=0) -> "TropicalMatrix":
        v = as_value(value)
        return TropicalMatrix(rows, cols, (v,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "TropicalMatrix":
        """Min-plus identity: 0 on the diagonal, inf elsewhere."""
        ent = [INF] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(0)
        return TropicalMatrix(n, n, tuple(ent))

    def entry(self, i: int, j: int) -> Value:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "TropicalMatrix":
        ent = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return TropicalMatrix(self.cols, self.rows, ent)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "TropicalMatrix":
        ent = tuple(
            self.entries[i * self.cols + j] for i in row_idx for j in col_idx
        )
        return TropicalMatrix(len(row_idx), len(col_idx), ent)

    def finite_count(self) -> int:
        return sum(1 for v in self.entries if v is not INF)

    @property
    def scaled(self):
        """(cost rows, scale): finite entries times the lcm of their
        denominators as ints, None for inf."""
        denoms = [v.denominator for v in self.entries if v is not INF]
        scale = lcm(*denoms) if denoms else 1
        flat = [None if v is INF else v.numerator * (scale // v.denominator) for v in self.entries]
        cost = tuple(tuple(flat[i : i + self.cols]) for i in range(0, len(flat), self.cols))
        return cost, scale


def min_plus_multiply(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """C[i][j] = min over s of (A[i][s] + B[s][j]), with inf absorbing."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            best = INF
            for s in range(a.cols):
                x = arow[s]
                y = b.entries[s * b.cols + j]
                if x is INF or y is INF:
                    continue
                v = x + y
                if best is INF or v < best:
                    best = v
            out.append(best)
    return TropicalMatrix(a.rows, b.cols, tuple(out))


def tropical_scale(m: TropicalMatrix, row_offsets: Sequence, col_offsets: Sequence) -> TropicalMatrix:
    """Add r[i] + c[j] to every finite entry; inf entries stay inf."""
    r = [as_value(x) for x in row_offsets]
    c = [as_value(x) for x in col_offsets]
    if len(r) != m.rows or len(c) != m.cols:
        raise ValueError("offset lengths must match matrix dimensions")
    if any(v is INF for v in r) or any(v is INF for v in c):
        raise ValueError("offsets must be finite")
    ent = []
    for i in range(m.rows):
        for j in range(m.cols):
            v = m.entries[i * m.cols + j]
            ent.append(INF if v is INF else v + r[i] + c[j])
    return TropicalMatrix(m.rows, m.cols, tuple(ent))


def format_matrix(m: TropicalMatrix) -> str:
    """Render in the `tropmat` text format (exactly reparseable)."""
    lines = [f"tropmat {m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(format_value(v) for v in m.row(i)))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> TropicalMatrix:
    """Parse the `tropmat` format; decimals with fractional parts read exactly."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty tropmat input")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "tropmat":
        raise ValueError("bad tropmat header")
    rows, cols = int(head[1]), int(head[2])
    if rows < 1 or cols < 1:
        raise ValueError("bad tropmat dimensions")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    entries = []
    values = {}  # token -> value: a (0,1) pattern has two distinct tokens
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != cols:
            raise ValueError(f"expected {cols} entries per row, found {len(toks)}")
        for t in toks:
            v = values.get(t)
            if v is None:
                v = values[t] = as_value(t)
            entries.append(v)
    return TropicalMatrix(rows, cols, tuple(entries))
