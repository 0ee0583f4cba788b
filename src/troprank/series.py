"""Truncated power series in t with rational exponents, and lift certificates.

A series is known exactly below its truncation order; order INF means the
series is an exact polynomial.  The valuation (degree map) of an entry is the
least exponent carrying a nonzero coefficient; tropicalization applies it
entrywise, which is what verify_lift checks against a tropical matrix.

`TruncatedSeries` is the public value type, with `+`, `-` and `*`.  The rank
of a lift (`series_rank`) is not computed on those objects: the lift is
converted once into integer-exponent, integer-coefficient polynomials and the
elimination runs on those.  Multiplying every exponent and truncation by one
common denominator D preserves their order and commutes with the sums and
minima the elimination takes of them.  Multiplying a row by a nonzero
rational preserves every coefficient's vanishing, so it changes no rank, no
valuation and no truncation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .multipoly import as_coeff
from .patterns import (
    Configuration,
    IncidencePattern,
    check_realization_exact,
    field_tag,
    parse_field_tag,
)
from .tropical import INF, TropicalMatrix, format_value

_LIFT_RETRIES = 64  # perturbation draws before lift_from_configuration gives up


class IndeterminateAtTruncation(Exception):
    """A verdict would depend on coefficients beyond the truncation order."""


@dataclass(frozen=True)
class TruncatedSeries:
    """terms: sorted ((exponent, coefficient), ...) with 0 <= exponent < trunc."""

    field: object          # None for Q, int p for GF(p)
    terms: tuple
    trunc: object          # Fraction, or INF for an exact polynomial

    @property
    def is_exact(self) -> bool:
        return self.trunc is INF

    @property
    def provably_zero(self) -> bool:
        return not self.terms and self.is_exact

    @property
    def truncated_zero(self) -> bool:
        """No visible terms but possibly nonzero beyond the truncation."""
        return not self.terms and not self.is_exact

    def valuation(self):
        """Least exponent with nonzero coefficient.

        Returns a Fraction, INF for a provably zero series, or None when the
        series is truncated-zero (valuation only known to be >= trunc).
        """
        if self.terms:
            return self.terms[0][0]
        return INF if self.is_exact else None

    def lower_bound(self):
        """A sound lower bound for the valuation (trunc when no terms show)."""
        return self.terms[0][0] if self.terms else self.trunc

    def __add__(self, other):
        _check_fields(self, other)
        trunc = _trunc_min(self.trunc, other.trunc)
        acc = {}
        for e, c in self.terms:
            acc[e] = acc.get(e, 0) + c
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return series(acc, field=self.field, trunc=trunc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        _check_fields(self, other)
        trunc = _trunc_min(
            _trunc_add(self.trunc, other.lower_bound()),
            _trunc_add(other.trunc, self.lower_bound()),
        )
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return series(acc, field=self.field, trunc=trunc)

    def scale(self, c):
        c = _coeff(self.field, c)
        return series({e: c * k for e, k in self.terms}, field=self.field, trunc=self.trunc)

    def render(self) -> str:
        if not self.terms:
            return "0"
        body = " + ".join(f"{format_value(c)}*t^{format_value(e)}" for e, c in self.terms)
        return body.replace("+ -", "- ")

    def __repr__(self):
        t = "inf" if self.is_exact else str(self.trunc)
        return f"TruncatedSeries({self.render()}; O={t})"


def _coeff(field, c):
    """A series coefficient: a Fraction over Q, an int mod p over GF(p)."""
    return Fraction(c) if field is None else as_coeff(field, c)


def _check_fields(a, b):
    if a.field != b.field:
        raise ValueError("base-field mismatch between series")


def _trunc_min(a, b):
    if a is INF:
        return b
    if b is INF:
        return a
    return min(a, b)


def _trunc_add(a, b):
    if a is INF or b is INF:
        return INF
    return a + b


def series(terms, field=None, trunc=INF) -> TruncatedSeries:
    """Normalize a {exponent: coefficient} map into a TruncatedSeries."""
    if not (trunc is INF or isinstance(trunc, (Fraction, int))):
        raise ValueError("truncation must be a rational or INF")
    if trunc is not INF:
        trunc = Fraction(trunc)
    norm = {}
    for e, c in terms.items():
        e = Fraction(e)
        if e < 0:
            raise ValueError("negative exponents are not allowed")
        c = _coeff(field, c)
        if c == 0:
            continue
        if trunc is not INF and e >= trunc:
            continue
        norm[e] = norm.get(e, 0) + c
    cleaned = tuple(sorted((e, c) for e, c in norm.items() if c != 0))
    return TruncatedSeries(field, cleaned, trunc)


def zero_series(field=None, trunc=INF) -> TruncatedSeries:
    return series({}, field=field, trunc=trunc)


@dataclass(frozen=True)
class LiftMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major TruncatedSeries with one field and truncation

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        fields = {s.field for s in self.entries}
        truncs = {s.trunc for s in self.entries}
        if len(fields) > 1 or len(truncs) > 1:
            raise ValueError("lift entries must share base field and truncation")

    @staticmethod
    def from_rows(rows) -> "LiftMatrix":
        data = [list(r) for r in rows]
        return LiftMatrix(len(data), len(data[0]), tuple(s for r in data for s in r))

    def entry(self, i, j) -> TruncatedSeries:
        return self.entries[i * self.cols + j]

    def row(self, i):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    @property
    def field(self):
        return self.entries[0].field

    @property
    def trunc(self):
        return self.entries[0].trunc


@dataclass(frozen=True)
class SeriesRankResult:
    rank: int
    valuation_loss: bool


def series_rank(lift: LiftMatrix) -> SeriesRankResult:
    """Rank over the series field by valuated elimination.

    Pivot: minimum valuation in the working column, then lowest row index.
    Rows are combined division-free (pivot*row - entry*pivot_row), so exact
    polynomial inputs stay exact; a product is known below
    min(trunc_a + val_b, trunc_b + val_a), and terms at or above a truncation
    are dropped.  A column whose active entries are all truncated-zero without
    being provably zero raises IndeterminateAtTruncation; valuation_loss
    reports that some truncated-zero entry was carried through a pivot step
    (the rank itself is still exact).

    The elimination runs on `_integer_rows(lift)`: exponents and truncations
    scaled by the lcm of their denominators, and over Q each row scaled by the
    lcm of its coefficient denominators.  Both scales keep the order of
    exponents and the vanishing of every coefficient, so the pivots, the
    truncations, the rank and the errors are those of the same elimination
    run on the series themselves.
    """
    p = lift.field if lift.entries else None
    rows = _integer_rows(lift)
    active = list(range(lift.rows))
    loss = False
    rank = 0
    for j in range(lift.cols):
        pivots = []
        unknown = False
        for r in active:
            terms, trunc = rows[r][j]
            if terms:
                pivots.append((min(terms), r))
            elif trunc is not None:
                unknown = True
        if not pivots:
            if unknown:
                raise IndeterminateAtTruncation(
                    f"column {j}: all remaining entries vanish up to truncation"
                )
            continue
        if unknown:
            loss = True
        pval, prow = min(pivots)
        pivot_row = rows[prow]
        pterms, ptrunc = pivot_row[j]
        for r in active:
            if r == prow:
                continue
            row = rows[r]
            rterms, rtrunc = row[j]
            if not rterms and rtrunc is None:
                continue  # provably zero
            rval = min(rterms) if rterms else rtrunc
            # Columns up to j are exactly zero in every active row from here
            # on and are never read again, so only columns after j are updated.
            for c in range(j + 1, lift.cols):
                row[c] = _combine(pterms, ptrunc, pval, row[c], rterms, rtrunc, rval, pivot_row[c], p)
        active.remove(prow)
        rank += 1
        if not active:
            break
    return SeriesRankResult(rank, loss)


def _integer_rows(lift: LiftMatrix):
    """The lift as rows of (terms {int exponent: int coefficient}, trunc) pairs.

    trunc is an int, or None for an exact entry.  Exponents and truncations
    are multiplied by the lcm of their denominators, and each row by the lcm
    of its coefficient denominators (1 over GF(p), whose coefficients already
    are ints mod p).
    """
    entries = lift.entries
    d = math.lcm(
        *(e.denominator for s in entries for e, _ in s.terms),
        *(s.trunc.denominator for s in entries if s.trunc is not INF),
    )
    rows = []
    for i in range(lift.rows):
        row = entries[i * lift.cols : (i + 1) * lift.cols]
        m = math.lcm(*(k.denominator for s in row for _, k in s.terms))
        rows.append([
            (
                {e.numerator * (d // e.denominator): k.numerator * (m // k.denominator) for e, k in s.terms},
                None if s.trunc is INF else s.trunc.numerator * (d // s.trunc.denominator),
            )
            for s in row
        ])
    return rows


def _combine(pterms, ptrunc, pval, a, rterms, rtrunc, rval, b, p):
    """pivot*a - entry*b on integer polynomials, truncated as series_rank says.

    pval and rval are the valuation bounds of the pivot and the entry; None
    stands for an INF truncation or bound.
    """
    aterms, atrunc = a
    bterms, btrunc = b
    aval = min(aterms) if aterms else atrunc
    bval = min(bterms) if bterms else btrunc
    trunc = None
    for x, y in ((ptrunc, aval), (atrunc, pval), (rtrunc, bval), (btrunc, rval)):
        if x is not None and y is not None and (trunc is None or x + y < trunc):
            trunc = x + y
    acc = {}
    for e1, k1 in pterms.items():
        for e2, k2 in aterms.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + k1 * k2
    for e1, k1 in rterms.items():
        for e2, k2 in bterms.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) - k1 * k2
    if p is not None:
        acc = {e: k % p for e, k in acc.items()}
    return {e: k for e, k in acc.items() if k and (trunc is None or e < trunc)}, trunc


@dataclass(frozen=True)
class LiftVerdict:
    accepted: bool
    reason: Optional[str]
    truncation_limited: bool


def verify_lift(m: TropicalMatrix, lift: LiftMatrix, r: int) -> LiftVerdict:
    """Accept iff rank(lift) <= r and the entrywise valuations equal m.

    An inf entry of m needs a truncated-zero lift entry; if the lift cannot
    prove exact vanishing the acceptance is flagged truncation-limited.
    """
    if (m.rows, m.cols) != (lift.rows, lift.cols):
        return LiftVerdict(False, "dimension mismatch", False)
    limited = False
    for i in range(m.rows):
        for j in range(m.cols):
            want = m.entry(i, j)
            s = lift.entry(i, j)
            val = s.valuation()
            if want is INF:
                if val is INF:
                    continue
                if val is None:
                    limited = True
                    continue
                return LiftVerdict(
                    False, f"entry ({i},{j}): valuation {val}, required inf", False
                )
            if want < 0:
                return LiftVerdict(False, f"entry ({i},{j}): negative target", False)
            if val is None:
                if s.trunc is not INF and s.trunc > want:
                    return LiftVerdict(
                        False,
                        f"entry ({i},{j}): valuation >= {s.trunc}, required {want}",
                        False,
                    )
                return LiftVerdict(
                    False,
                    f"entry ({i},{j}): valuation indeterminate at truncation {s.trunc}",
                    False,
                )
            if val is INF or val != want:
                return LiftVerdict(
                    False, f"entry ({i},{j}): valuation {val}, required {want}", False
                )
    try:
        rk = series_rank(lift)
    except IndeterminateAtTruncation as exc:
        return LiftVerdict(False, f"rank indeterminate: {exc}", False)
    if rk.rank > r:
        return LiftVerdict(False, f"rank {rk.rank} exceeds {r}", False)
    return LiftVerdict(True, None, limited)


def lift_from_configuration(
    pattern: IncidencePattern,
    config: Configuration,
    seed: int = 0,
) -> LiftMatrix:
    """Exact lift from a rational rank-3 realization of the pattern.

    Row vectors v_i + t*g_i and column vectors w_j + t*h_j with generic
    integer g, h redrawn until every incidence entry has valuation exactly 1;
    the result is accepted by verify_lift at rank 3 by construction.
    """
    if config.field is not None:
        raise ValueError("lift construction needs an exact rational configuration")
    problem = check_realization_exact(pattern, config.points, config.lines)
    if problem is not None:
        raise ValueError(f"configuration does not realize the pattern: {problem}")
    rng = random.Random(seed)
    for _ in range(_LIFT_RETRIES):
        g = [tuple(Fraction(rng.randint(1, 99)) for _ in range(3)) for _ in config.points]
        h = [tuple(Fraction(rng.randint(1, 99)) for _ in range(3)) for _ in config.lines]
        if any(
            _dot(config.points[i], h[j]) + _dot(g[i], config.lines[j]) == 0
            for i, j in pattern.ones()
        ):
            continue  # some incidence entry would lose its valuation-1 term
        entries = []
        for i in range(pattern.rows):
            for j in range(pattern.cols):
                c0 = _dot(config.points[i], config.lines[j])
                c1 = _dot(config.points[i], h[j]) + _dot(g[i], config.lines[j])
                c2 = _dot(g[i], h[j])
                entries.append(series({0: c0, 1: c1, 2: c2}, field=None, trunc=INF))
        lift = LiftMatrix(pattern.rows, pattern.cols, tuple(entries))
        verdict = verify_lift(pattern.to_tropical(), lift, 3)
        if not verdict.accepted:
            raise RuntimeError(f"constructed lift failed verification: {verdict.reason}")
        return lift
    raise RuntimeError(f"no generic perturbation found in {_LIFT_RETRIES} draws")


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def format_lift(lift: LiftMatrix) -> str:
    """`troplift` text format: header then one `i j : terms` line per entry."""
    trunc = "inf" if lift.trunc is INF else str(lift.trunc)
    out = [f"troplift {lift.rows} {lift.cols} {field_tag(lift.field)} {trunc}"]
    for i in range(lift.rows):
        for j in range(lift.cols):
            out.append(f"{i} {j} : {lift.entry(i, j).render()}")
    return "\n".join(out) + "\n"


def parse_lift(text: str) -> LiftMatrix:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty troplift input")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "troplift":
        raise ValueError("bad troplift header")
    rows, cols = int(head[1]), int(head[2])
    field = parse_field_tag(head[3])
    if field == "float":
        raise ValueError("lift certificates need an exact field, not float")
    trunc = INF if head[4].lower() == "inf" else Fraction(head[4])
    cells = {}
    for ln in lines[1:]:
        left, _, body = ln.partition(":")
        toks = left.split()
        if len(toks) != 2:
            raise ValueError(f"bad troplift entry line: {ln!r}")
        i, j = int(toks[0]), int(toks[1])
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry ({i},{j}) outside a {rows}x{cols} lift")
        if (i, j) in cells:
            raise ValueError(f"repeated entry ({i},{j})")
        cells[(i, j)] = _parse_series_body(body.strip(), field, trunc)
    entries = []
    for i in range(rows):
        for j in range(cols):
            if (i, j) not in cells:
                raise ValueError(f"missing entry ({i},{j})")
            entries.append(cells[(i, j)])
    return LiftMatrix(rows, cols, tuple(entries))


def _parse_series_body(body: str, field, trunc) -> TruncatedSeries:
    if body in ("0", ""):
        return zero_series(field=field, trunc=trunc)
    terms = {}
    for chunk in body.replace("- ", "+ -").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "t" in chunk:
            coeff_s, _, exp_s = chunk.partition("*t^")
            if not exp_s:
                # bare "t" or "c*t"
                coeff_s = chunk.replace("*t", "").replace("t", "") or "1"
                exp_s = "1"
            coeff = Fraction(coeff_s.strip() or "1")
            exp = Fraction(exp_s.strip())
        else:
            coeff = Fraction(chunk)
            exp = Fraction(0)
        terms[exp] = terms.get(exp, Fraction(0)) + coeff
    return series(terms, field=field, trunc=trunc)
