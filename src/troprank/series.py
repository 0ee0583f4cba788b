"""Lift certificates: matrices of power series in t with rational exponents.

Each entry of a lift is known exactly below the lift's truncation order; a
lift without one (INF) holds exact polynomials.  The valuation (degree map) of
an entry is its least exponent with a nonzero coefficient; tropicalization
applies it entrywise, which is what verify_lift checks against a tropical
matrix.

A ``LiftMatrix`` is stored once, as ``TropicalMatrix`` is: every exponent and
the truncation are ints over one denominator ``scale``, and every coefficient
is an int over one denominator ``den`` (over GF(p) a residue, with ``den``
1).  ``Fraction``s appear only at the API edge (``from_rows``, ``valuation``
and the text format).  ``series_rank`` eliminates on the stored ints: scaling
every exponent and truncation by one positive number keeps their order and
commutes with the sums and minima the elimination takes of them, and scaling
every coefficient by one nonzero number keeps each one's vanishing, so
neither changes a rank, a valuation or a truncation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Optional

from .multipoly import as_coeff
from .patterns import (
    Configuration,
    IncidencePattern,
    check_realization_exact,
    field_tag,
    integral_vector,
    parse_field_tag,
)
from .tropical import INF, TropicalMatrix, format_value, parse_fraction

_LIFT_RETRIES = 64  # perturbation draws before lift_from_configuration gives up


class IndeterminateAtTruncation(Exception):
    """A verdict would depend on coefficients beyond the truncation order."""


@dataclass(frozen=True)
class LiftMatrix:
    """Immutable lift over Q (``field`` None) or GF(p) (``field`` p).

    ``cells`` holds, row-major, one tuple of (exponent, coefficient) int pairs
    per entry: exponents ascend and lie below ``trunc``, coefficients are
    nonzero.  An exponent or ``trunc`` means itself over ``scale``, a
    coefficient itself over ``den``; ``trunc`` is None for an exact lift.  The
    constructor divides ``scale`` and ``den`` by their gcd with what they
    divide, so ``==`` and ``hash`` compare values."""

    rows: int
    cols: int
    field: object
    cells: tuple
    trunc: Optional[int]
    scale: int
    den: int

    def __post_init__(self):
        cells = tuple(map(tuple, self.cells))
        if len(cells) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if self.scale < 1 or self.den < 1 or (self.field is not None and self.den != 1):
            raise ValueError("bad lift denominators")
        g, d = gcd(self.scale, self.trunc or 0), self.den
        for cell in cells:
            if g == 1 and d == 1:
                break
            g, d = gcd(g, *[e for e, _ in cell]), gcd(d, *[k for _, k in cell])
        if g > 1 or d > 1:
            cells = tuple(tuple((e // g, k // d) for e, k in cell) for cell in cells)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "trunc", None if self.trunc is None else self.trunc // g)
        object.__setattr__(self, "scale", self.scale // g)
        object.__setattr__(self, "den", self.den // d)

    @staticmethod
    def from_rows(rows, field=None, trunc=INF) -> "LiftMatrix":
        """A lift from rows of {exponent: coefficient} maps (ints or Fractions).

        Zero coefficients and terms at or above ``trunc`` are dropped; a
        negative exponent raises ValueError."""
        data = [list(r) for r in rows]
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("ragged rows")
        trunc = trunc if trunc is INF else Fraction(trunc)
        entries = []
        for cell in chain.from_iterable(data):
            acc = {}
            for e, c in cell.items():
                e = e if type(e) is Fraction else Fraction(e)
                if e < 0:
                    raise ValueError("negative exponents are not allowed")
                if trunc is INF or e < trunc:
                    acc[e] = acc.get(e, 0) + c
            if field is not None:
                acc = {e: as_coeff(field, c) for e, c in acc.items()}
            entries.append(sorted((e, c) for e, c in acc.items() if c))
        scale = lcm(*(e.denominator for cell in entries for e, _ in cell), 1 if trunc is INF else trunc.denominator)
        den = lcm(*(c.denominator for cell in entries for _, c in cell))
        cells = tuple(
            tuple((e.numerator * (scale // e.denominator), c.numerator * (den // c.denominator)) for e, c in cell)
            for cell in entries
        )
        top = None if trunc is INF else trunc.numerator * (scale // trunc.denominator)
        return LiftMatrix(len(data), cols, field, cells, top, scale, den)

    def valuation(self, i: int, j: int):
        """Least exponent of entry (i, j) with a nonzero coefficient: a
        Fraction, INF for an exactly zero entry, or None for a truncated zero
        (whose valuation is only known to be at least the truncation)."""
        cell = self.cells[i * self.cols + j]
        if cell:
            return Fraction(cell[0][0], self.scale)
        return INF if self.trunc is None else None


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
    (the rank itself is still exact).  It runs on the stored ints, which give
    the same pivots, truncations, rank and errors (see the module docstring).
    """
    p, n = lift.field, lift.cols
    rows = [[(dict(cell), lift.trunc) for cell in lift.cells[i * n : (i + 1) * n]] for i in range(lift.rows)]
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
    prove exact vanishing the acceptance is flagged truncation-limited.  A
    negative r raises ValueError.
    """
    if r < 0:
        raise ValueError(f"negative rank {r}")
    if (m.rows, m.cols) != (lift.rows, lift.cols):
        return LiftVerdict(False, "dimension mismatch", False)
    limited = False
    top = lift.trunc
    for i, row in enumerate(m.cost):
        for j, w in enumerate(row):
            cell = lift.cells[i * lift.cols + j]
            if w is None:
                if cell:
                    val = lift.valuation(i, j)
                    return LiftVerdict(False, f"entry ({i},{j}): valuation {val}, required inf", False)
                limited = limited or top is not None
                continue
            if w < 0:
                return LiftVerdict(False, f"entry ({i},{j}): negative target", False)
            # Compare w / m.scale with the valuation over lift.scale as ints.
            if cell and cell[0][0] * m.scale == w * lift.scale:
                continue
            want = m.entry(i, j)
            if cell or top is None:
                reason = f"valuation {lift.valuation(i, j)}, required {want}"
            elif top * m.scale > w * lift.scale:
                reason = f"valuation >= {Fraction(top, lift.scale)}, required {want}"
            else:
                reason = f"valuation indeterminate at truncation {Fraction(top, lift.scale)}"
            return LiftVerdict(False, f"entry ({i},{j}): {reason}", False)
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

    Each vector is scaled by the lcm of its coordinates' denominators, so
    every entry is computed on ints: entry (i, j) is (V_i.W_j + t*(e_j V_i.h_j
    + d_i g_i.W_j) + t^2 d_i e_j g_i.h_j) / (d_i e_j) for V_i = d_i v_i and
    W_j = e_j w_j, stored over the one denominator lcm(d) * lcm(e).
    """
    if config.field is not None:
        raise ValueError("lift construction needs an exact rational configuration")
    points = [integral_vector(v) for v in config.points]  # (V_i, d_i)
    lines = [integral_vector(w) for w in config.lines]  # (W_j, e_j)
    problem = check_realization_exact(pattern, [v for v, _ in points], [w for w, _ in lines])
    if problem is not None:
        raise ValueError(f"configuration does not realize the pattern: {problem}")
    den_p, den_l = lcm(*(d for _, d in points)), lcm(*(e for _, e in lines))
    rng = random.Random(seed)
    for _ in range(_LIFT_RETRIES):
        g = [tuple(rng.randint(1, 99) for _ in range(3)) for _ in points]
        h = [tuple(rng.randint(1, 99) for _ in range(3)) for _ in lines]
        # the t^1 numerator of entry (i, j), over d_i e_j
        first = [
            [e * _dot(v, hj) + d * _dot(gi, w) for (w, e), hj in zip(lines, h)]
            for (v, d), gi in zip(points, g)
        ]
        if any(first[i][j] == 0 for i, j in pattern.ones()):
            continue  # some incidence entry would lose its valuation-1 term
        cells = []
        for (v, d), gi, row in zip(points, g, first):
            for (w, e), hj, c1 in zip(lines, h, row):
                k = (den_p // d) * (den_l // e)
                cell = ((0, k * _dot(v, w)), (1, k * c1), (2, k * d * e * _dot(gi, hj)))
                cells.append(tuple(term for term in cell if term[1]))
        lift = LiftMatrix(len(points), len(lines), None, cells, None, 1, den_p * den_l)
        verdict = verify_lift(pattern.to_tropical(), lift, 3)
        if not verdict.accepted:
            raise RuntimeError(f"constructed lift failed verification: {verdict.reason}")
        return lift
    raise RuntimeError(f"no generic perturbation found in {_LIFT_RETRIES} draws")


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def format_lift(lift: LiftMatrix) -> str:
    """`troplift` text format: header then one `i j : terms` line per entry."""
    trunc = "inf" if lift.trunc is None else _ratio(lift.trunc, lift.scale)
    out = [f"troplift {lift.rows} {lift.cols} {field_tag(lift.field)} {trunc}"]
    for k, cell in enumerate(lift.cells):
        body = " + ".join(f"{_ratio(c, lift.den)}*t^{_ratio(e, lift.scale)}" for e, c in cell)
        out.append(f"{k // lift.cols} {k % lift.cols} : {body.replace('+ -', '- ') or '0'}")
    return "\n".join(out) + "\n"


def _ratio(n: int, d: int) -> str:
    """format_value(Fraction(n, d)), building no Fraction when d is 1."""
    return str(n) if d == 1 else format_value(Fraction(n, d))


def parse_lift(text: str) -> LiftMatrix:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty troplift input")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "troplift":
        raise ValueError("bad troplift header")
    rows, cols = int(head[1]), int(head[2])
    if rows < 0 or cols < 0:
        raise ValueError("bad troplift dimensions")
    field = parse_field_tag(head[3])
    if field == "float":
        raise ValueError("lift certificates need an exact field, not float")
    trunc = INF if head[4].lower() == "inf" else parse_fraction(head[4])
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
        cells[(i, j)] = _parse_terms(body.strip())
    for i in range(rows):
        for j in range(cols):
            if (i, j) not in cells:
                raise ValueError(f"missing entry ({i},{j})")
    lift = LiftMatrix.from_rows(
        [[cells[(i, j)] for j in range(cols)] for i in range(rows)], field=field, trunc=trunc
    )
    return lift if rows else replace(lift, cols=cols)  # no row to count columns by


def _parse_terms(body: str) -> dict:
    """An entry's `c*t^e + ...` text as an {exponent: coefficient} map."""
    terms = {}
    if body in ("0", ""):
        return terms
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
            coeff = parse_fraction(coeff_s.strip() or "1")
            exp = parse_fraction(exp_s.strip())
        else:
            coeff = parse_fraction(chunk)
            exp = Fraction(0)
        terms[exp] = terms.get(exp, 0) + coeff
    return terms
