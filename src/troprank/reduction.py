"""Compile polynomial systems into point/line incidence patterns.

The construction coordinatizes the affine plane with a four-element frame
(origin O, unit point I, the two axis directions X and Y) plus the slope-one
direction at infinity, and encodes arithmetic with the classical incidence
gadgets: addition walks a slope-one line, multiplication walks a line through
the origin.  Each equation is split into two nonnegative sides, both sides are
evaluated to diagonal points on the line x = y, and equality of the sides is
asserted as two incidences (the left point on the vertical and horizontal
lines through the right point; for a zero side those are the axes).

Element coordinates are polynomials in the system variables.  Incidences that
hold identically are discovered by evaluating all coordinates at two
independent random witnesses and keeping the products that vanish at both
(Schwartz-Zippel style identity testing, run modulo a 31-bit prime for speed);
a disagreement between the witnesses triggers a redraw and, on the third
failure, an abort.  The asserted equation incidences are overlaid on top:
they are exactly the entries a realization can only satisfy by solving the
system.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .multipoly import Poly, as_coeff, primitive_triple
from .patterns import IncidencePattern

WITNESS_PRIME = 2_147_483_647  # 2^31 - 1
_MIX_TERMS = 4  # hardening: monomials per mixing definition, besides a constant
_MIX_BOUND = 9  # hardening: equations get multiples 1.._MIX_BOUND of each definition
DEFAULT_STAND_IN_BITS = 16  # hardening: bit size of the generic stand-in constants


class CompileError(RuntimeError):
    pass


@dataclass(frozen=True)
class PolySystem:
    """Integer-coefficient polynomial equations (== 0), degree <= 2 once flat."""

    variables: tuple
    equations: tuple

    def __post_init__(self):
        for eq in self.equations:
            if any(type(c) is not int for c in eq.terms.values()):
                raise ValueError("system coefficients must be integers")

    def max_degree(self) -> int:
        return max((eq.total_degree() for eq in self.equations), default=0)


def poly_from_terms(terms: dict) -> Poly:
    """{monomial: int} -> Poly over Q with integer coefficients."""
    return Poly(None, {m: as_coeff(None, c) for m, c in terms.items() if c != 0})


# ---- CNF front end ----------------------------------------------------------


def parse_dimacs(text: str):
    """DIMACS CNF -> (clauses, nvars); clauses are tuples of signed literals."""
    nvars = None
    clauses = []
    current = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            toks = line.split()
            if len(toks) != 4 or toks[1] != "cnf":
                raise ValueError(f"bad DIMACS problem line: {line!r}")
            nvars = int(toks[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if nvars is None:
        nvars = max((abs(l) for cl in clauses for l in cl), default=0)
    return clauses, nvars


def cnf_to_polys(clauses, nvars: int) -> PolySystem:
    """Boolean clauses as polynomial equations.

    Every variable x gets x^2 - x = 0; every clause contributes the product of
    (1 - literal) = 0, with negated literals encoded as (1 - x) and longer
    products flattened to degree <= 2 through auxiliary variables.
    """
    names = [f"x{i}" for i in range(1, nvars + 1)]
    equations = []
    for i in range(nvars):
        equations.append(poly_from_terms({((i, 2),): 1, ((i, 1),): -1}))
    aux = 0
    aux_defs = []
    clause_eqs = []
    for clause in clauses:
        if len(clause) == 0:
            clause_eqs.append(poly_from_terms({(): 1}))  # 1 = 0: unsatisfiable
            continue
        factors = []
        for lit in clause:
            v = abs(lit) - 1
            if lit > 0:
                factors.append(poly_from_terms({(): 1, ((v, 1),): -1}))  # 1 - x
            else:
                factors.append(poly_from_terms({((v, 1),): 1}))  # 1 - (1 - x)
        while len(factors) > 2:
            aux += 1
            names.append(f"u{aux}")
            u = len(names) - 1
            prod = factors[0] * factors[1]
            aux_defs.append(Poly.var(u) - prod)
            factors = [Poly.var(u)] + factors[2:]
        prod = factors[0] if len(factors) == 1 else factors[0] * factors[1]
        clause_eqs.append(prod)
    return PolySystem(tuple(names), tuple(equations + aux_defs + clause_eqs))


# ---- text format ------------------------------------------------------------


def format_poly(eq: Poly, names) -> str:
    if eq.is_zero():
        return "0"
    parts = []
    for mono in sorted(eq.terms, key=lambda m: (sum(e for _, e in m), m)):
        c = eq.terms[mono]
        body = "*".join(
            names[v] if e == 1 else f"{names[v]}^{e}" for v, e in mono
        )
        mag = abs(c)
        coeff = "" if (mag == 1 and body) else str(int(mag)) + ("*" if body else "")
        term = coeff + body
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def format_poly_system(sys: PolySystem) -> str:
    head = "vars " + " ".join(sys.variables)
    return "\n".join([head] + [format_poly(eq, sys.variables) for eq in sys.equations]) + "\n"


def parse_poly_system(text: str) -> PolySystem:
    """One equation per line: +/- separated integer monomials, implicit = 0."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    names = None
    if lines and lines[0].startswith("vars "):
        names = lines[0].split()[1:]
        lines = lines[1:]
    seen = list(names) if names else []
    index = {n: i for i, n in enumerate(seen)}

    def var_id(tok):
        if tok not in index:
            if names is not None:
                raise ValueError(f"unknown variable {tok!r}")
            index[tok] = len(seen)
            seen.append(tok)
        return index[tok]

    equations = []
    for ln in lines:
        toks = ln.replace("-", " - ").replace("+", " + ").split()
        terms = {}
        sign = 1
        pending = []
        for tok in toks + ["+"]:
            if tok in ("+", "-"):
                if pending:
                    mono, coeff = _parse_monomial(pending, var_id)
                    key = mono
                    terms[key] = terms.get(key, 0) + sign * coeff
                    pending = []
                sign = 1 if tok == "+" else -1
            else:
                pending.append(tok)
        equations.append(poly_from_terms(terms))
    return PolySystem(tuple(seen), tuple(equations))


def _parse_monomial(toks, var_id):
    text = "".join(toks)
    coeff = 1
    counts = {}
    for piece in text.split("*"):
        piece = piece.strip()
        if not piece:
            continue
        if piece[0].isdigit():
            coeff *= int(piece)
            continue
        if "^" in piece:
            name, _, e = piece.partition("^")
            counts[var_id(name)] = counts.get(var_id(name), 0) + int(e)
        else:
            counts[var_id(piece)] = counts.get(var_id(piece), 0) + 1
    mono = tuple(sorted(counts.items()))
    return mono, coeff


# ---- hardening --------------------------------------------------------------


@dataclass(frozen=True)
class HardenInfo:
    offsets: tuple          # per original variable, the added constant 2^n + 1
    extra_variables: tuple  # the two fresh mixing variables
    mix_polys: tuple        # Q1, Q2 over the hardened variable indices

    def lift_assignment(self, sys_before: PolySystem, assignment: dict) -> dict:
        """Map a solution of the pre-hardening system to the hardened one."""
        out = {}
        for name, off in zip(sys_before.variables, self.offsets):
            out[name] = Fraction(assignment[name]) + off
        vals = {i: out[n] for i, n in enumerate(sys_before.variables)}
        for name, q in zip(self.extra_variables, self.mix_polys):
            out[name] = Fraction(q.evaluate(vals))
        return out


def harden(sys: PolySystem, seed: int, stand_in_bits: int = DEFAULT_STAND_IN_BITS) -> tuple:
    """Offset the variables, append two generic mixing equations, mix them in.

    Variable n (1-based) is shifted by 2^n + 1, so a 0/1 variable lands on the
    pair {2^n + 1, 2^n + 2}.  Two fresh variables are defined by seeded random
    quadratic combinations of the others (coefficients up to 2^stand_in_bits
    play the role of generic constants), and every original equation receives
    random small multiples of those definitions.  The transformation is
    invertible, so solutions correspond one to one.  A negative
    stand_in_bits raises ValueError.
    """
    if stand_in_bits < 0:
        raise ValueError(f"negative stand-in bit size {stand_in_bits}")
    rng = random.Random(f"harden:{seed}")
    nv = len(sys.variables)
    offsets = tuple(2 ** (i + 1) + 1 for i in range(nv))
    shifted = []
    for eq in sys.equations:
        cur = eq
        for v in range(nv):
            cur = cur.subs_clear(v, Poly.var(v) - Poly.const(offsets[v]), Poly.const(1))
        shifted.append(cur)

    names = tuple(sys.variables) + (f"x{nv + 1}", f"x{nv + 2}")
    e_vars = (nv, nv + 1)
    monomial_pool = [((v, 1),) for v in range(nv)]
    monomial_pool += [
        tuple(sorted(((a, 1), (b, 1)))) if a != b else ((a, 2),)
        for a in range(nv)
        for b in range(a, nv)
    ]
    mix_polys = []
    e_eqs = []
    for t in range(2):
        picks = rng.sample(monomial_pool, min(_MIX_TERMS, len(monomial_pool)))
        terms = {(): rng.randint(1, 2**stand_in_bits)}
        for mono in sorted(picks):
            terms[mono] = rng.randint(1, 2**stand_in_bits)
        q = poly_from_terms(terms)
        mix_polys.append(q)
        e_eqs.append(q - Poly.var(e_vars[t]))
    mixed = []
    for eq in shifted:
        c1 = rng.randint(1, _MIX_BOUND)
        c2 = rng.randint(1, _MIX_BOUND)
        mixed.append(eq + e_eqs[0] * c1 + e_eqs[1] * c2)
    hardened = PolySystem(names, tuple(mixed) + tuple(e_eqs))
    info = HardenInfo(offsets, (names[nv], names[nv + 1]), tuple(mix_polys))
    return hardened, info


# ---- gadget program ---------------------------------------------------------


@dataclass(frozen=True)
class Element:
    kind: str      # "point" | "line"
    name: str
    coords: tuple  # three integer-coefficient Polys
    provenance: str


def _poly_key(p: Poly):
    return tuple(sorted(p.terms.items()))


class GadgetProgram:
    """Ordered construction of points and lines with cached, deduplicated steps."""

    def __init__(self, variables):
        self.variables = tuple(variables)
        self.elements = []
        self._index = {}
        self.values = {}          # diagonal point index -> value Poly
        self.asserted = []        # (point index, line index, note)
        self.required_nonincidence = []
        self._const_cache = {}
        self._pow2_cache = {}
        self._var_cache = {}
        self._inf1 = None
        self._neg1 = None
        self._frame()

    def label(self, i: int) -> str:
        """Element i as the provenance sidecar and verify_reduction name it."""
        return f"{self.elements[i].name}#{i}"

    # -- construction primitives

    def _add_element(self, kind, coords, name, prov) -> int:
        if all(p.is_zero() for p in coords):
            raise CompileError("zero coordinate triple")
        coords = primitive_triple(coords)
        key = (kind, tuple(_poly_key(p) for p in coords))
        hit = self._index.get(key)
        if hit is not None:
            return hit
        idx = len(self.elements)
        self.elements.append(Element(kind, name, coords, prov))
        self._index[key] = idx
        return idx

    def _c(self, x) -> Poly:
        return Poly.const(x)

    def _point(self, x_val, y_val, name, prov) -> int:
        return self._add_element("point", (x_val, y_val, self._c(1)), name, prov)

    def _diag(self, value, name, prov) -> int:
        idx = self._point(value, value, name, prov)
        self.values.setdefault(idx, value)
        return idx

    def _vline(self, c_val, prov) -> int:
        return self._add_element("line", (self._c(1), self._c(0), -c_val), "x=...", prov)

    def _hline(self, c_val, prov) -> int:
        return self._add_element("line", (self._c(0), self._c(1), -c_val), "y=...", prov)

    def _slope1(self, c_val, prov) -> int:
        return self._add_element("line", (self._c(1), self._c(-1), -c_val), "x=y+...", prov)

    def _slope_line(self, a_val, prov) -> int:
        return self._add_element("line", (a_val, self._c(-1), self._c(0)), "y=a*x", prov)

    def _frame(self):
        self.X = self._add_element("point", (self._c(1), self._c(0), self._c(0)), "X", "frame")
        self.Y = self._add_element("point", (self._c(0), self._c(1), self._c(0)), "Y", "frame")
        self.O = self._diag(self._c(0), "O", "frame")
        self.I = self._diag(self._c(1), "I", "frame")
        self.OX = self._add_element("line", (self._c(0), self._c(1), self._c(0)), "OX", "frame")
        self.OY = self._add_element("line", (self._c(1), self._c(0), self._c(0)), "OY", "frame")
        self.OI = self._add_element("line", (self._c(1), self._c(-1), self._c(0)), "OI", "frame")
        self.XY = self._add_element("line", (self._c(0), self._c(0), self._c(1)), "XY", "frame")
        # The frame is a quadrilateral: no three of X, Y, O, I collinear.
        self.required_nonincidence = [
            (self.O, self.XY),
            (self.I, self.XY),
            (self.I, self.OX),
            (self.I, self.OY),
        ]

    def inf1(self) -> int:
        """The slope-one direction at infinity (anchors all addition lines)."""
        if self._inf1 is None:
            self._inf1 = self._add_element(
                "point", (self._c(1), self._c(1), self._c(0)), "(1)", "slope-1 direction"
            )
        return self._inf1

    def neg_one(self) -> int:
        """The fixed -1 point, pinned by an addition gadget summing to zero."""
        if self._neg1 is None:
            self._neg1 = self._diag(self._c(-1), "-1", "negative unit")
            back = self.add(self._neg1, self.I, "check: (-1) + 1")
            if back != self.O:
                raise CompileError("the -1 verification gadget missed the origin")
        return self._neg1

    def value(self, idx: int) -> Poly:
        if idx not in self.values:
            raise CompileError(f"element {idx} is not a diagonal point")
        return self.values[idx]

    def variable(self, v: int) -> int:
        if v not in self._var_cache:
            self._var_cache[v] = self._diag(
                Poly.var(v), self.variables[v], f"variable {self.variables[v]}"
            )
        return self._var_cache[v]

    def _pow2(self, k: int) -> int:
        if k == 0:
            return self.constant(1)
        if k not in self._pow2_cache:
            half = self._pow2(k - 1)
            self._pow2_cache[k] = self.add(half, half, f"2^{k}")
        return self._pow2_cache[k]

    def constant(self, n: int) -> int:
        """Integer point on the diagonal, by binary expansion, lowest bits first."""
        n = int(n)
        if n in self._const_cache:
            return self._const_cache[n]
        if n == 0:
            idx = self.O
        elif n == 1:
            idx = self.I
        elif n < 0:
            idx = self.mul(self.constant(-n), self.neg_one(), f"negate {-n}")
        else:
            acc = None
            k = 0
            m = n
            while m:
                if m & 1:
                    term = self._pow2(k)
                    acc = term if acc is None else self.add(acc, term, f"const {n}")
                m >>= 1
                k += 1
            idx = acc
        self._const_cache[n] = idx
        return idx

    def add(self, a: int, b: int, prov: str = "") -> int:
        """Sum gadget: from (a,a), (b,b) build (a,0), (a+b,b) and (a+b,a+b)."""
        va, vb = self.value(a), self.value(b)
        self.inf1()
        tag = prov or "add"
        self._vline(va, tag)                       # x = a (through (a,a) and Y)
        self._point(va, self._c(0), "(a,0)", tag)  # meets the x-axis
        self._slope1(va, tag)                      # x = y + a (through (1))
        self._hline(vb, tag)                       # y = b (through (b,b) and X)
        vs = va + vb
        self._point(vs, vb, "(a+b,b)", tag)
        self._vline(vs, tag)                       # x = a + b
        return self._diag(vs, "(a+b,a+b)", tag)

    def mul(self, a: int, b: int, prov: str = "") -> int:
        """Product gadget: lines x=1, y=a, y=ax, x=b, y=ab down to (ab,ab)."""
        va, vb = self.value(a), self.value(b)
        tag = prov or "mul"
        self._vline(self._c(1), tag)               # x = 1 (through I and Y)
        self._hline(va, tag)                       # y = a
        self._point(self._c(1), va, "(1,a)", tag)
        self._slope_line(va, tag)                  # y = a x (through O)
        self._vline(vb, tag)                       # x = b
        vp = va * vb
        self._point(vb, vp, "(b,ab)", tag)
        self._hline(vp, tag)                       # y = ab
        return self._diag(vp, "(ab,ab)", tag)

    def assert_coincides(self, lhs: int, rhs: int, note: str):
        """Record that point lhs must equal the diagonal point rhs.

        Encoded as two incidences: lhs on the vertical and on the horizontal
        line through rhs (for rhs = O these are the coordinate axes).
        """
        rv = self.value(rhs)
        vert = self._vline(rv, f"assert {note}")
        horiz = self._hline(rv, f"assert {note}")
        self.asserted.append((lhs, vert, note))
        self.asserted.append((lhs, horiz, note))

    # -- identity-testing pattern

    def point_indices(self):
        return [i for i, e in enumerate(self.elements) if e.kind == "point"]

    def line_indices(self):
        return [i for i, e in enumerate(self.elements) if e.kind == "line"]

    def two_witness_pattern(self, seed: int):
        """Incidence pattern from two independent witnesses plus assertions."""
        points = self.point_indices()
        lines = self.line_indices()
        nv = len(self.variables)
        last_disagreement = None
        for attempt in range(3):
            masks = []
            for w in range(2):
                rng = random.Random(f"witness:{seed}:{attempt}:{w}")
                assignment = {v: rng.randrange(1, WITNESS_PRIME) for v in range(nv)}
                pts = np.array(
                    [_eval_triple_mod(self.elements[i].coords, assignment) for i in points],
                    dtype=np.int64,
                )
                lns = np.array(
                    [_eval_triple_mod(self.elements[j].coords, assignment) for j in lines],
                    dtype=np.int64,
                )
                mask = np.zeros((len(points), len(lines)), dtype=bool)
                step = max(1, 8_000_000 // max(1, len(lines)))
                for lo in range(0, len(points), step):
                    hi = min(lo + step, len(points))
                    dots = np.zeros((hi - lo, len(lines)), dtype=np.int64)
                    for c in range(3):
                        dots = (
                            dots
                            + (pts[lo:hi, c][:, None] * lns[:, c][None, :]) % WITNESS_PRIME
                        ) % WITNESS_PRIME
                    mask[lo:hi] = dots == 0
                masks.append(mask)
            if (masks[0] ^ masks[1]).any():
                last_disagreement = int((masks[0] ^ masks[1]).sum())
                continue
            bits = masks[0]
            point_row = {idx: r for r, idx in enumerate(points)}
            line_col = {idx: c for c, idx in enumerate(lines)}
            for p_idx, l_idx in self.required_nonincidence:
                if bits[point_row[p_idx], line_col[l_idx]]:
                    raise CompileError("frame non-collinearity violated at the witnesses")
            for p_idx, l_idx, _ in self.asserted:
                bits[point_row[p_idx], line_col[l_idx]] = True
            pattern = IncidencePattern(bits)
            return pattern, points, lines, attempt
        raise CompileError(
            f"witness evaluations disagreed on {last_disagreement} incidences three times"
        )


def _eval_triple_mod(coords, assignment):
    return tuple(_eval_mod(p, assignment) for p in coords)


def _eval_mod(p: Poly, assignment) -> int:
    acc = 0
    for mono, c in p.terms.items():
        term = c % WITNESS_PRIME
        for v, e in mono:
            term = (term * pow(assignment[v], e, WITNESS_PRIME)) % WITNESS_PRIME
        acc = (acc + term) % WITNESS_PRIME
    return acc


# ---- system compilation -----------------------------------------------------


@dataclass(frozen=True)
class CompiledPattern:
    pattern: IncidencePattern
    row_elements: tuple      # element indices for rows
    col_elements: tuple
    asserted: tuple          # (row, col, note) in pattern coordinates
    program: GadgetProgram
    witness_attempts: int


def compile_system(sys: PolySystem, seed: int = 0) -> CompiledPattern:
    """Frame, variables, cached constants, per-equation gadgets, then the
    two-witness incidence pattern with the equation assertions overlaid."""
    if sys.max_degree() > 2:
        raise CompileError("system must be flattened to degree <= 2 first")
    prog = GadgetProgram(sys.variables)
    for v in range(len(sys.variables)):
        prog.variable(v)
    needed = sorted(
        {
            abs(int(c))
            for eq in sys.equations
            for c in eq.terms.values()
        }
    )
    for n in needed:
        prog.constant(n)
    if sys.equations:
        prog.neg_one()
    for k, eq in enumerate(sys.equations):
        lhs = [(m, int(c)) for m, c in eq.terms.items() if c > 0]
        rhs = [(m, -int(c)) for m, c in eq.terms.items() if c < 0]
        lhs_elem = _build_side(prog, lhs, f"eq{k + 1}.lhs")
        rhs_elem = _build_side(prog, rhs, f"eq{k + 1}.rhs")
        prog.assert_coincides(lhs_elem, rhs_elem, f"eq{k + 1}")
    pattern, points, lines, attempts = prog.two_witness_pattern(seed)
    point_row = {idx: r for r, idx in enumerate(points)}
    line_col = {idx: c for c, idx in enumerate(lines)}
    asserted = tuple(
        (point_row[p], line_col[l], note) for p, l, note in prog.asserted
    )
    return CompiledPattern(pattern, tuple(points), tuple(lines), asserted, prog, attempts)


def _build_side(prog: GadgetProgram, terms, tag: str) -> int:
    """Evaluate a sum of positive-coefficient monomials to a diagonal point.

    Terms run in graded lexicographic order; each term multiplies its
    coefficient by its variables one at a time, and terms fold into the
    partial sum as they complete.
    """
    if not terms:
        return prog.O
    acc = None
    for mono, c in sorted(terms, key=lambda t: (sum(e for _, e in t[0]), t[0])):
        elem = prog.constant(c)
        for v, e in mono:
            for _ in range(e):
                elem = prog.mul(elem, prog.variable(v), f"{tag} term")
        acc = elem if acc is None else prog.add(acc, elem, f"{tag} sum")
    return acc


def format_provenance(compiled: CompiledPattern) -> str:
    prog = compiled.program
    out = [f"pattern {compiled.pattern.rows} {compiled.pattern.cols}"]
    out.extend(f"R {r} {prog.label(i)}" for r, i in enumerate(compiled.row_elements))
    out.extend(f"C {c} {prog.label(j)}" for c, j in enumerate(compiled.col_elements))
    out.extend(f"A {r} {c} {note}" for r, c, note in compiled.asserted)
    out.extend(f"# {i} {e.kind} {e.name} <- {e.provenance}" for i, e in enumerate(prog.elements))
    return "\n".join(out) + "\n"


# ---- verification -----------------------------------------------------------


@dataclass(frozen=True)
class ReductionVerdict:
    accepted: bool
    reason: Optional[str]


def verify_reduction(sys: PolySystem, assignment: dict, compiled: CompiledPattern) -> ReductionVerdict:
    """Accept iff the assignment solves the system and the evaluated
    configuration satisfies every recorded incidence of the compiled pattern.

    Non-incidences (pattern zeros) are generic statements witnessed at
    compile time; a specific solution may collapse some of them (a variable
    value meeting a constructed constant), so they are not re-checked here.
    """
    try:
        vals = {
            i: Fraction(assignment[name]) for i, name in enumerate(sys.variables)
        }
    except KeyError as missing:
        return ReductionVerdict(False, f"assignment missing variable {missing}")
    for k, eq in enumerate(sys.equations):
        got = eq.evaluate(vals)
        if got != 0:
            return ReductionVerdict(False, f"equation {k + 1} evaluates to {got}")
    prog = compiled.program
    concrete = []
    for i, e in enumerate(prog.elements):
        vec = tuple(p.evaluate(vals) for p in e.coords)
        if all(c == 0 for c in vec):
            return ReductionVerdict(False, f"element {prog.label(i)} degenerates to zero")
        concrete.append(vec)
    for r, c in compiled.pattern.ones():
        i, j = compiled.row_elements[r], compiled.col_elements[c]
        prow, lcol = concrete[i], concrete[j]
        d = prow[0] * lcol[0] + prow[1] * lcol[1] + prow[2] * lcol[2]
        if d != 0:
            return ReductionVerdict(
                False, f"incidence ({prog.label(i)}, {prog.label(j)}) fails at the assignment"
            )
    return ReductionVerdict(True, None)
