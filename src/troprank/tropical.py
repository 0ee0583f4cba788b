"""Exact min-plus (tropical) values and matrices.

The semiring is (Q ∪ {inf}, min, +): "addition" is minimum, "multiplication"
is ordinary addition, and ``inf`` is the additive identity.  All finite
entries are exact rationals; nothing in this module touches floating point.

A ``TropicalMatrix`` is stored once, as canonical integer costs over one
denominator; the engines read those, and ``Fraction`` values appear only at the
API edge (``entry``, ``row``, ``to_rows``, ``entries`` and the text format).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

import numpy as np


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
        return parse_fraction(tok)
    if isinstance(x, float):
        raise TypeError("floating-point entries are not allowed; use Fraction or str")
    raise TypeError(f"cannot interpret {x!r} as a tropical value")


def parse_fraction(tok: str) -> Fraction:
    """Fraction(tok), with a zero denominator reported as a ValueError."""
    try:
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {tok!r}") from None


def format_value(v: Value) -> str:
    if v is INF:
        return "inf"
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _scaled(values) -> tuple:
    """(ints, scale): each finite value times the lcm of the finite values'
    denominators, None for inf.  Values are Fractions, ints or INF."""
    values = list(values)
    scale = lcm(*{v.denominator for v in values if v is not INF})
    return [None if v is INF else v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class TropicalMatrix:
    """Immutable matrix over Q ∪ {inf}: ``cost`` holds row tuples of each finite
    entry times ``scale`` as an int (None for inf), and ``scale`` is the lcm of
    the finite entries' denominators.  The constructor divides both by their
    gcd, so ``==`` and ``hash`` compare values."""

    cost: tuple
    scale: int

    def __post_init__(self):
        cost = tuple(map(tuple, self.cost))
        if not cost or not cost[0]:
            raise ValueError("matrix must have at least one row and one column")
        if len(set(map(len, cost))) != 1:
            raise ValueError("ragged rows")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        g = self.scale
        for row in cost:
            if g == 1:
                break
            g = gcd(g, *[c for c in row if c is not None])
        if g > 1:
            cost = tuple(tuple(None if c is None else c // g for c in row) for row in cost)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "scale", self.scale // g)

    @property
    def rows(self) -> int:
        return len(self.cost)

    @property
    def cols(self) -> int:
        return len(self.cost[0])

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "TropicalMatrix":
        data = [[x if type(x) in (int, Fraction) else as_value(x) for x in row] for row in rows]
        if not data:
            raise ValueError("empty matrix")
        if len(set(map(len, data))) != 1:
            raise ValueError("ragged rows")
        flat, scale = _scaled(chain.from_iterable(data))
        return TropicalMatrix(tuple(zip(*[iter(flat)] * len(data[0]))), scale)

    @staticmethod
    def constant(rows: int, cols: int, value=0) -> "TropicalMatrix":
        (c,), scale = _scaled([as_value(value)])
        return TropicalMatrix(((c,) * cols,) * rows, scale)

    @staticmethod
    def identity(n: int) -> "TropicalMatrix":
        """Min-plus identity: 0 on the diagonal, inf elsewhere."""
        return TropicalMatrix(
            tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n)), 1
        )

    def entry(self, i: int, j: int) -> Value:
        c = self.cost[i][j]
        return INF if c is None else Fraction(c, self.scale)

    def row(self, i: int) -> tuple:
        return tuple(INF if c is None else Fraction(c, self.scale) for c in self.cost[i])

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def entries(self) -> tuple:
        """All entries as Fraction/INF, row-major."""
        return tuple(v for i in range(self.rows) for v in self.row(i))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "TropicalMatrix":
        return TropicalMatrix(tuple(zip(*self.cost)), self.scale)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "TropicalMatrix":
        return TropicalMatrix(
            tuple(tuple(self.cost[i][j] for j in col_idx) for i in row_idx), self.scale
        )


def min_plus_multiply(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """C[i][j] = min over s of (A[i][s] + B[s][j]), with inf absorbing."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    scale = lcm(a.scale, b.scale)
    fa, fb = scale // a.scale, scale // b.scale
    left = [[None if x is None else x * fa for x in row] for row in a.cost]
    right_cols = list(zip(*([None if y is None else y * fb for y in row] for row in b.cost)))
    out = []
    for arow in left:
        orow = []
        for bcol in right_cols:
            sums = [x + y for x, y in zip(arow, bcol) if x is not None and y is not None]
            orow.append(min(sums) if sums else None)
        out.append(tuple(orow))
    return TropicalMatrix(tuple(out), scale)


def tropical_scale(m: TropicalMatrix, row_offsets: Sequence, col_offsets: Sequence) -> TropicalMatrix:
    """Add r[i] + c[j] to every finite entry; inf entries stay inf."""
    r = [as_value(x) for x in row_offsets]
    c = [as_value(x) for x in col_offsets]
    if len(r) != m.rows or len(c) != m.cols:
        raise ValueError("offset lengths must match matrix dimensions")
    if any(v is INF for v in r) or any(v is INF for v in c):
        raise ValueError("offsets must be finite")
    return TropicalMatrix.from_rows(
        [[v if v is INF else v + r[i] + c[j] for j, v in enumerate(m.row(i))] for i in range(m.rows)]
    )


_DIGIT_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def zero_one_bytes(m: TropicalMatrix) -> Optional[bytes]:
    """The entries of a (0,1)-valued matrix as row-major bytes 0/1, else None.

    The check and the conversion are one C-level pass: ``bytes`` rejects inf
    (None) and every cost outside 0..255, and deleting the bytes 0 and 1
    leaves nothing exactly when the rest are 0 or 1."""
    if m.scale != 1:
        return None
    try:
        flat = b"".join(map(bytes, m.cost))
    except (TypeError, ValueError):
        return None
    return None if flat.translate(None, b"\x00\x01") else flat


def zero_one_matrix(flat: bytes, rows: int, cols: int) -> TropicalMatrix:
    """The rows x cols matrix whose row-major entries are the bytes 0/1 of flat."""
    return TropicalMatrix(tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows)), 1)


def format_matrix(m: TropicalMatrix) -> str:
    """Render in the `tropmat` text format (exactly reparseable).

    A (0,1)-valued matrix is written from its bytes in a few array passes;
    every other matrix converts each distinct cost once."""
    head = f"tropmat {m.rows} {m.cols}\n"
    flat = zero_one_bytes(m)
    if flat is not None:
        text = np.full((m.rows, 2 * m.cols), ord(" "), dtype=np.uint8)
        digits = np.frombuffer(flat.translate(_DIGIT_TEXT), dtype=np.uint8)
        text[:, 0::2] = digits.reshape(m.rows, m.cols)
        text[:, -1] = ord("\n")
        return head + text.tobytes().decode("ascii")
    text = {
        c: "inf" if c is None else format_value(Fraction(c, m.scale))
        for c in set().union(*m.cost)
    }
    return head + "\n".join(" ".join(map(text.__getitem__, row)) for row in m.cost) + "\n"


def parse_matrix(text: str) -> TropicalMatrix:
    """Parse the `tropmat` format; decimals with fractional parts read exactly.

    Data rows of single 0/1 characters separated by single spaces (what
    format_matrix writes for a (0,1) matrix) are read as bytes in a few
    C-level passes; any other text takes the token-by-token path, which
    reads the same matrix and raises every error."""
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
    data = "\n".join(lines[1:]) + "\n"
    if len(data) == 2 * rows * cols and data.isascii():
        raw = data.encode("ascii")
        digits = raw[0::2]
        if raw[1::2] == (b" " * (cols - 1) + b"\n") * rows and not digits.translate(None, b"01"):
            return zero_one_matrix(digits.translate(_DIGIT_VALUES), rows, cols)
    tokens = [ln.split() for ln in lines[1:]]
    for toks in tokens:
        if len(toks) != cols:
            raise ValueError(f"expected {cols} entries per row, found {len(toks)}")
    # One conversion per distinct token: a (0,1) pattern has two.
    distinct = sorted(set().union(*tokens))
    ints, scale = _scaled(as_value(t) for t in distinct)
    cost_of = dict(zip(distinct, ints))
    return TropicalMatrix(tuple(tuple(map(cost_of.__getitem__, toks)) for toks in tokens), scale)
