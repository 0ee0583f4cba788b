"""Rank-3 realizability of (0,1) patterns as point/line configurations.

Exact engine: elements are placed greedily (most incidences to already-placed
elements first); coordinates live in a polynomial ring over the field, every
incidence onto placed elements becomes a polynomial constraint, and branching
covers all cases (coordinate charts, vanishing/nonvanishing of pivot
coefficients, complete root sets).  ProvedInfeasible is reported only when
every branch closed with a contradiction; any stuck or budget-cut branch
degrades the verdict to Unknown, never to a false negative.

A node holds each value as an int when it is constant (over GF(p) a residue)
and as a Poly only when it involves a parameter.  A placed element keeps its
raw triple, which a leaf evaluates, and its primitive form, which later
placements read, computed once per placement or substitution; an element
with constant coordinates is an int triple, and dots, crosses, complement
charts and gauge rungs of int triples compute on ints.  A non-incidence
group that holds a nonzero constant can never vanish, so it is not stored:
if a substitution multiplies that constant by a power of a pivot, the
pivot's own "nonzero" group vanishes exactly when the product does.

Every polynomial a node holds (queued equations, non-incidence groups,
placed coordinates) is kept reduced: a substitution is applied to all of
them once, when it is made, so none mentions an eliminated parameter.  A
leaf evaluates its placed coordinates directly at values of the parameters
left free: over GF(p) all of them (so both positive and negative leaf
verdicts are exact), over Q seeded generic draws (finitely many bad
hypersurfaces).  Every produced configuration is re-verified against the
pattern.

A note on finite fields: a Realized verdict over GF(p) certifies
configuration realizability of the pattern over that field; unlike the
rational case it is not packaged here as a statement about lift ranks.

Float engine: random-restart least squares on the incidence residuals with a
hinge pushing non-incidence products above a margin, minimised by a
Levenberg-Marquardt loop on the normal equations (assembled from each
residual's few nonzero partials, never from a dense Jacobian); answers are
only ever Realized (re-verified against the float tolerances) or Unknown.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .barvinok import DEFAULT_COVERING_BUDGET, barvinok_rank
from .galois import is_prime
from .multipoly import Poly, primitive_triple, univariate_roots
from .patterns import (
    Configuration,
    IncidencePattern,
    check_realization_exact,
    check_realization_float,
)
from .rank import tropical_rank
from .tropical import TropicalMatrix


@dataclass(frozen=True)
class Realized:
    configuration: Configuration
    detail: str = ""


@dataclass(frozen=True)
class ProvedInfeasible:
    trace: tuple  # one line per closed branch


@dataclass(frozen=True)
class Unknown:
    report: str


_GF_POINTS = 65_536     # max parameter assignments enumerated per GF(p) leaf
_VALUE_ATTEMPTS = 64    # generic value draws per rational leaf


@dataclass(frozen=True)
class RealizeBudget:
    nodes: int = 200_000
    restarts: int = 100         # float engine restarts

    def __post_init__(self):
        if min(self.nodes, self.restarts) < 0:
            raise ValueError(f"negative budget in {self}")


def _gauge_quadruple(pattern: IncidencePattern):
    """Up to four points, preferring high degree and no three on a pattern line.

    These are pinned to a projective frame first (with degeneracy branches),
    which keeps later coordinates small.
    """
    bits = pattern.bits
    by_degree = np.argsort(-bits.sum(axis=1), kind="stable").tolist()
    chosen = []
    for i in by_degree:
        if len(chosen) == 4:
            break
        if not (bits[chosen + [i]].sum(axis=0) >= 3).any():
            chosen.append(i)
    return chosen + [i for i in by_degree if i not in chosen][: 4 - len(chosen)]


def _element_order(pattern: IncidencePattern):
    """Frame quadruple first, then greedy most-incidences-to-placed.

    Returns (order, n_gauge): the first n_gauge entries are the points the
    engine may pin with the projective gauge.  Each step places the largest
    key (incidences to placed elements, degree, is a point, -index), packed
    into one integer per element and updated as elements are placed.
    """
    bits = pattern.bits.astype(np.int64)
    rows, cols = bits.shape
    n = max(rows, cols)
    unit = 2 * n                 # one unit of degree
    step = (n + 1) * unit        # one incidence to a placed element
    placed_key = -(2**62)        # stays below every live key under all updates
    key = np.concatenate([
        bits.sum(axis=1) * unit + n + (n - 1 - np.arange(rows)),
        bits.sum(axis=0) * unit + (n - 1 - np.arange(cols)),
    ])
    order = []

    def place(e):
        key[e] = placed_key
        if e < rows:
            order.append(("P", e))
            key[rows:] += step * bits[e]
        else:
            order.append(("L", e - rows))
            key[:rows] += step * bits[:, e - rows]

    gauge = _gauge_quadruple(pattern)
    for i in gauge:
        place(i)
    for _ in range(rows + cols - len(gauge)):
        place(int(key.argmax()))
    return order, len(gauge)


@dataclass(slots=True)
class _Node:
    next_elem: int
    coords: list      # per placed position: (raw triple, primitive triple or None)
    live: list        # positions whose raw triple holds a Poly
    queue: list
    diseqs: list      # groups "not all zero", none holding a nonzero constant
    solved: set       # eliminated parameters; no held polynomial mentions one
    nparams: int
    gauge: object     # 0..4 rungs of the frame ladder, or None once stopped
    path: tuple


# The frame ladder: per rung, the vectors a frame point may be pinned to, in
# branch order, each with the rung its branch leaves to (None stops the ladder).
_GAUGE_LADDER = (
    (((1, 0, 0), 1),),
    (((1, 0, 0), 1), ((0, 1, 0), 2)),
    (((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 0), None), ((0, 0, 1), 3)),
    (
        ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3),
        ((1, 1, 0), None), ((1, 0, 1), None), ((0, 1, 1), None), ((1, 1, 1), 4),
    ),
)


def _held(x, field):
    """x (an int or a Poly) as a node holds it: a constant as an int (over
    GF(p) a residue), anything else as its Poly."""
    if type(x) is int:
        return x if field is None else x % field
    return x.constant_value() if x.is_constant() else x


def _constant_triple(triple):
    return type(triple[0]) is type(triple[1]) is type(triple[2]) is int


def _is_zero(x):
    return type(x) is int and not x


def _is_nonzero_constant(x):
    return type(x) is int and x != 0


class _ExactEngine:
    def __init__(self, pattern, field, seed, budget: RealizeBudget):
        self.pattern = pattern
        self.field = field  # None for Q, int p for GF(p)
        self.seed = seed
        self.budget = budget
        self.order, self.n_gauge = _element_order(pattern)
        self.position = {elem: k for k, elem in enumerate(self.order)}
        self.neighbours = {}  # position -> (partner positions, avoided positions)
        self.dead = []
        self.dead_count = 0
        self.unknowns = []
        self.nodes = 0
        self.leaves = 0

    # ---- arithmetic on held values ------------------------------------------

    def _substitute(self, node, var, num, den):
        """Eliminate var := num / den (ints or Polys) from every polynomial the
        node holds.

        Polynomials read together clear the denominator with one common
        power of den: each queued equation on its own, each non-incidence
        group and each placed raw triple (a projective point).  Constants
        are untouched unless read together with a polynomial in var.  A group
        that comes to hold a nonzero constant can no longer vanish and is
        dropped; a triple that changes forgets its primitive form.
        """
        field = self.field

        def clear(vals):
            d = max(0 if type(x) is int else x.degree_in(var) for x in vals)
            if not d:
                return vals
            power = den**d
            return tuple(
                _held(x * power if type(x) is int else x.subs_clear(var, num, den, d), field) for x in vals
            )

        node.queue = [clear((eq,))[0] for eq in node.queue]
        groups = []
        for group in node.diseqs:
            cleared = clear(group)
            if cleared is group or not any(map(_is_nonzero_constant, cleared)):
                groups.append(cleared)
        node.diseqs = groups
        live = []
        for k in node.live:
            raw = node.coords[k][0]
            cleared = clear(raw)
            if cleared is not raw:
                node.coords[k] = (cleared, None)
            if not _constant_triple(cleared):
                live.append(k)
        node.live = live
        node.solved.add(var)

    def _dot(self, u, x):
        return _held(u[0] * x[0] + u[1] * x[1] + u[2] * x[2], self.field)

    def _cross(self, u, v):
        return (
            _held(u[1] * v[2] - u[2] * v[1], self.field),
            _held(u[2] * v[0] - u[0] * v[2], self.field),
            _held(u[0] * v[1] - u[1] * v[0], self.field),
        )

    def _primitive(self, node, k):
        """The primitive form of placed position k's triple, computed once per
        placement or substitution."""
        raw, prim = node.coords[k]
        if prim is None:
            prim = primitive_triple(raw, self.field)
            node.coords[k] = (raw, prim)
        return prim

    def _neighbours(self, k):
        """Positions before k of the other kind: (incident ones, the rest)."""
        got = self.neighbours.get(k)
        if got is None:
            kind, idx = self.order[k]
            bits = self.pattern.bits
            incident = (bits[idx] if kind == "P" else bits[:, idx]).tolist()
            partners, avoids = [], []
            for j, (other, oidx) in enumerate(self.order[:k]):
                if other != kind:
                    (partners if incident[oidx] else avoids).append(j)
            got = self.neighbours[k] = (partners, avoids)
        return got

    # ---- search -------------------------------------------------------------

    def run(self):
        root = _Node(0, [], [], [], [], set(), 0, 0, ())
        stack = [root]
        while stack:
            node = stack.pop()
            self.nodes += 1
            if self.nodes > self.budget.nodes:
                self.unknowns.append("node budget exhausted")
                break
            outcome = self._process(node)
            if isinstance(outcome, Realized):
                return outcome
            if outcome is not None:
                # children pushed in reverse so the listed order is DFS order
                for child in reversed(outcome):
                    stack.append(child)
        if self.unknowns:
            return Unknown(
                "exact engine inconclusive: "
                + "; ".join(sorted(set(self.unknowns)))
                + f" ({self.nodes} nodes, {self.dead_count} closed branches)"
            )
        return ProvedInfeasible(tuple(self.dead))

    def _close(self, node, reason):
        self.dead_count += 1
        if len(self.dead) < 5000:
            self.dead.append(" > ".join(node.path + (reason,)))
        return None

    def _process(self, node):
        """Returns Realized, None (branch closed/unknown), or a child list."""
        while node.queue:
            eq = node.queue.pop(0)
            if type(eq) is not int:
                eq = eq.primitive()
                if eq.is_constant():
                    eq = eq.constant_value()
            if type(eq) is int:
                if not eq:
                    continue
                # a nonzero constant's primitive form is 1
                return self._close(node, "contradiction: 1 = 0")
            step = self._solve_equation(node, eq)
            if step == "dead-no-roots":
                return self._close(node, f"no roots in the field: {eq.render()} = 0")
            if step == "stuck":
                self.unknowns.append(f"unsolvable constraint degree: {eq.render()}")
                return None
            if isinstance(step, list):
                return step
            # step was a direct substitution; keep draining the queue
        # eager prune on recorded non-incidences: a group holds no nonzero
        # constant, so one of ints only is all zero
        if any(all(type(x) is int for x in group) for group in node.diseqs):
            return self._close(node, "required non-incidence vanishes identically")
        if node.next_elem < len(self.order):
            return self._place(node)
        return self._leaf(node)

    def _solve_equation(self, node, eq):
        """Apply a substitution in place, return child specs, or classify."""
        field = self.field
        variables = sorted(eq.variables())
        # 1) linear with a constant coefficient: substitute, no branching
        for v in variables:
            buckets = eq.coeffs_in(v)
            if max(buckets) == 1 and buckets[1].is_constant():
                b = buckets.get(0)
                num = 0 if b is None else _held(-b, field)
                self._substitute(node, v, num, buckets[1].constant_value())
                return "sub"
        # 2) linear with a polynomial coefficient: two branches
        for v in variables:
            buckets = eq.coeffs_in(v)
            if max(buckets) == 1:
                a = buckets[1]
                b = buckets.get(0)
                b = 0 if b is None else _held(b, field)
                child1 = self._clone(node, f"coeff[{a.render()}]!=0")
                child1.diseqs.append((a,))
                self._substitute(child1, v, _held(-b, field), a)
                child2 = self._clone(node, f"coeff[{a.render()}]=0")
                child2.queue = [a, b] + child2.queue
                return [child1, child2]
        # 3) univariate: complete root enumeration
        if len(variables) == 1:
            v = variables[0]
            roots = univariate_roots(eq, v)
            if roots is None:
                return "stuck"
            if not roots:
                return "dead-no-roots"
            children = []
            for r in roots:
                child = self._clone(node, f"p{v}={r}")
                self._substitute(child, v, r.numerator, r.denominator)
                children.append(child)
            return children
        # 4) common monomial factor: var = 0 or cofactor = 0
        common = None
        for v in variables:
            if all(any(var == v for var, _ in mono) for mono in eq.terms):
                common = v
                break
        if common is not None:
            child1 = self._clone(node, f"p{common}=0")
            self._substitute(child1, common, 0, 1)
            cofactor = Poly(
                eq.field,
                {
                    tuple((var, e) if var != common else (var, e - 1) for var, e in mono if var != common or e > 1):
                    c
                    for mono, c in eq.terms.items()
                },
            )
            child2 = self._clone(node, f"cofactor[{common}]")
            child2.queue = [cofactor] + child2.queue
            return [child1, child2]
        return "stuck"

    def _clone(self, node, label):
        return _Node(
            node.next_elem,
            list(node.coords),
            list(node.live),
            list(node.queue),
            list(node.diseqs),
            set(node.solved),
            node.nparams,
            node.gauge,
            node.path + (label,),
        )

    def _fresh(self, node):
        v = node.nparams
        node.nparams += 1
        return v

    def _place(self, node):
        k = node.next_elem
        kind, idx = self.order[k]
        partner_at, avoid_at = self._neighbours(k)
        coords = node.coords
        partners = [coords[j][1] or self._primitive(node, j) for j in partner_at]
        avoids = [(coords[j][1] or self._primitive(node, j), j) for j in avoid_at]
        children = []
        name = f"{kind}{idx}"

        def finish(child, coords, extra_eqs, prim=None):
            child.next_elem = k + 1
            child.coords.append((coords, prim))
            if not _constant_triple(coords):
                child.live.append(k)
            child.queue.extend(extra_eqs)
            for u, j in avoids:
                dot = self._dot(u, coords)
                if type(dot) is not int:
                    child.diseqs.append((dot,))
                elif not dot:
                    other = self.order[j]
                    self._close(child, f"{name} cannot avoid {other[0]}{other[1]}")
                    return
                # a nonzero constant dot is a non-incidence for good
            children.append(child)

        if k < self.n_gauge and node.gauge is not None and node.gauge < 4:
            for child, vector in self._gauge_rungs(node, name):
                finish(child, vector, [], vector)
            return children if children else None

        if len(partners) == 0:
            # Projective charts covering every nonzero coordinate vector:
            # coordinate i is the first nonzero one, scaled to 1.
            for i, chart in enumerate("xyz"):
                child = self._clone(node, f"{name}:{chart}")
                coords = tuple(
                    int(t == i) if t <= i else Poly.var(self._fresh(child), self.field) for t in range(3)
                )
                finish(child, coords, [], coords)
        elif len(partners) == 1:
            for child, coords in self._complement_charts(node, name, partners[0]):
                finish(child, coords, [])
        else:
            u1, u2 = partners[0], partners[1]
            extras = partners[2:]
            cross = primitive_triple(self._cross(u1, u2), self.field)
            if not all(map(_is_zero, cross)):
                child = self._clone(node, f"{name}:meet")
                if not any(map(_is_nonzero_constant, cross)):
                    child.diseqs.append(cross)
                finish(child, cross, [self._dot(u, cross) for u in extras], cross)
            childb = self._clone(node, f"{name}:parallel")
            childb.queue = [p for p in cross if not _is_zero(p)] + childb.queue
            for cb, coords in self._complement_charts(childb, name, u1):
                finish(cb, coords, [self._dot(u, coords) for u in [u2] + extras])
        return children if children else None

    def _gauge_rungs(self, node, name):
        """Pin a frame point using the projective group, exhaustively by case.

        Rung 0 sends the point to e1; rung 1 to e1 (coincidence) or e2; rung 2
        to e1/e2, the pinned span point (1,1,0), or e3; rung 3 to one of the
        seven coordinate-support representatives.  Branches that consume the
        remaining torus stop the ladder (gauge None); coincidence branches
        keep the rung.  Every projective point falls in exactly one case, so
        the cover is exhaustive and infeasibility verdicts remain complete.
        """
        out = []
        for vector, leaves_to in _GAUGE_LADDER[node.gauge]:
            label = f"e{vector.index(1) + 1}" if sum(vector) == 1 else str(vector).replace(" ", "")
            child = self._clone(node, f"{name}:g={label}")
            child.gauge = leaves_to
            out.append((child, vector))
        return out

    def _complement_charts(self, node, name, u):
        """Children placing a vector orthogonal to u (nonzero in each branch).

        Chart k assumes u[k] is the first nonzero coordinate of u; within a
        chart the orthogonal plane is spanned by v1, v2 and the new element is
        v1 + t*v2 or v2 (two cases, covering the projective line).
        """
        field = self.field
        out = []
        for k in range(3):
            if _is_zero(u[k]):
                continue
            if any(map(_is_nonzero_constant, u[:k])):
                continue  # an earlier coordinate is a nonzero constant
            prefix_eqs = [u[m] for m in range(k) if not _is_zero(u[m])]
            j1, j2 = [m for m in range(3) if m != k]
            v1 = [0, 0, 0]
            v1[j1] = u[k]
            v1[k] = _held(-u[j1], field)
            v2 = [0, 0, 0]
            v2[j2] = u[k]
            v2[k] = _held(-u[j2], field)
            for tag in ("span", "edge"):
                child = self._clone(node, f"{name}:perp{k}:{tag}")
                child.queue = prefix_eqs + child.queue
                if not _is_nonzero_constant(u[k]):
                    child.diseqs.append((u[k],))
                if tag == "span":
                    tv = Poly.var(self._fresh(child), field)
                    coords = tuple(v1[m] if _is_zero(v2[m]) else v1[m] + tv * v2[m] for m in range(3))
                else:
                    coords = tuple(v2)
                out.append((child, coords))
        return out

    # ---- leaves -------------------------------------------------------------

    def _leaf(self, node):
        """Try parameter values at a consistent leaf: seeded generic draws over
        Q, every assignment over GF(p).  An assignment that zeroes a
        non-incidence group is skipped; otherwise the placed coordinates are
        evaluated and the configuration checked against the pattern."""
        self.leaves += 1
        p = self.field
        free = sorted(set(range(node.nparams)) - node.solved)
        if p is None:
            def draws():
                for attempt in range(_VALUE_ATTEMPTS):
                    rng = random.Random(f"{self.seed}:{self.leaves}:{attempt}:leaf")
                    span = 4 + 8 * (attempt + 1)
                    yield {v: rng.randint(1, span) for v in free}

            assignments = draws()
        elif p ** len(free) > _GF_POINTS:
            self.unknowns.append(f"parameter space GF({p})^{len(free)} exceeds enumeration budget")
            return None
        else:
            assignments = (dict(zip(free, values)) for values in itertools.product(range(p), repeat=len(free)))
        position = self.position
        for assignment in assignments:
            if any(all(type(q) is int or q.evaluate(assignment) == 0 for q in g) for g in node.diseqs):
                continue
            vectors = [tuple(x if type(x) is int else x.evaluate(assignment) for x in raw) for raw, _ in node.coords]
            points = tuple(vectors[position["P", i]] for i in range(self.pattern.rows))
            lines = tuple(vectors[position["L", j]] for j in range(self.pattern.cols))
            if check_realization_exact(self.pattern, points, lines, field=p) is None:
                if p is None:
                    points, lines = (tuple(tuple(map(Fraction, v)) for v in vs) for vs in (points, lines))
                return Realized(Configuration(p, points, lines), detail=f"exact engine, {self.nodes} nodes")
        if p is None:
            self.unknowns.append("no generic parameter values found at a consistent leaf")
            return None
        return self._close(node, f"all GF({p}) parameter assignments fail")


# ---- float engine -----------------------------------------------------------


_HINGE_MARGIN = 3e-4   # optimize above the acceptance margin for hysteresis
_MAX_NFEV = 120        # residual evaluations per restart
_LM_TOL = 1e-8         # relative cost decrease / step size that ends a restart
# Damping range.  Rotations leave every residual unchanged, so J^T J is
# singular along them and the step there is rounding noise / lam: the floor
# bounds it.
_LM_LAMBDA = (1e-12, 1e12)


class _IncidenceLeastSquares:
    """The float engine's least-squares model of an incidence pattern.

    x stacks the n points, then the m lines, three coordinates each.  The
    residuals are the scaled dots p.l / (|p||l|) of the incidences, a hinge
    max(0, margin - |scaled dot|) on the non-incidences, and the norm
    residuals (|p|^2 - 1) / 4 and (|l|^2 - 1) / 4.  Every pair residual
    depends on six coordinates and every norm residual on three, so the
    normal equations are assembled from those partials without forming J.
    """

    def __init__(self, pattern: IncidencePattern):
        self.n, self.m = pattern.rows, pattern.cols
        oi, oj = np.nonzero(pattern.bits)
        zi, zj = np.nonzero(~pattern.bits)
        self.ii = np.concatenate([oi, zi])
        self.jj = np.concatenate([oj, zj])
        self.incident = len(oi)
        self.size = 3 * (self.n + self.m)
        # columns of the six partials of each pair residual, and the three of
        # each norm residual
        offsets = np.arange(3)
        self.pair_cols = np.hstack([
            3 * self.ii[:, None] + offsets,
            3 * (self.n + self.jj)[:, None] + offsets,
        ])
        self.norm_cols = 3 * np.arange(self.n + self.m)[:, None] + offsets

    def _scaled_dots(self, x):
        elems = x.reshape(-1, 3)
        norms = np.linalg.norm(elems, axis=1) + 1e-12
        p, l = self.ii, self.n + self.jj
        s = np.einsum("ik,ik->i", elems[p], elems[l]) / (norms[p] * norms[l])
        return elems, norms, s

    def _pair_residuals(self, s):
        """Pair residuals and d(residual)/d(scaled dot): 1 on incidences,
        -sign(s) on active hinges, 0 on inactive ones."""
        k = self.incident
        active = np.abs(s[k:]) < _HINGE_MARGIN
        res = np.concatenate([s[:k], np.where(active, _HINGE_MARGIN - np.abs(s[k:]), 0.0)])
        coef = np.concatenate([np.ones(k), np.where(active, -np.sign(s[k:]), 0.0)])
        return res, coef

    def residuals(self, x):
        _, norms, s = self._scaled_dots(x)
        res, _ = self._pair_residuals(s)
        return np.concatenate([res, 0.25 * (norms * norms - 1.0)])

    def normal_equations(self, x):
        """(J^T J, J^T f) at x."""
        elems, norms, s = self._scaled_dots(x)
        res, coef = self._pair_residuals(s)
        live = coef != 0.0
        p, l = self.ii[live], self.n + self.jj[live]
        u, v, nu, nv, s = elems[p], elems[l], norms[p, None], norms[l, None], s[live, None]
        # d(scaled dot)/d point and /d line
        grads = coef[live, None] * np.hstack([v / (nu * nv) - s * u / nu**2, u / (nu * nv) - s * v / nv**2])
        cols = [self.pair_cols[live], self.norm_cols]
        partials = [grads, 0.5 * elems]
        values = [res[live], 0.25 * (norms * norms - 1.0)]
        N = self.size
        gram = np.bincount(
            np.concatenate([(c[:, :, None] * N + c[:, None, :]).ravel() for c in cols]),
            np.concatenate([(g[:, :, None] * g[:, None, :]).ravel() for g in partials]),
            minlength=N * N,
        )
        grad = np.bincount(
            np.concatenate([c.ravel() for c in cols]),
            np.concatenate([(g * f[:, None]).ravel() for g, f in zip(partials, values)]),
            minlength=N,
        )
        return gram.reshape(N, N), grad


def _levenberg_marquardt(model: _IncidenceLeastSquares, x):
    """Minimise |f(x)|^2 / 2 from x by Levenberg-Marquardt steps
    (J^T J + lam I) step = -J^T f, with lam updated by Nielsen's rule.
    Returns (x, residual evaluations).

    At most _MAX_NFEV - 1 trial points follow the start.  A trial with a
    non-finite step, or a cost that is not lower (NaN included), is rejected.
    The restart ends early when a step's relative size, or an accepted step's
    relative cost decrease on a step the model predicted well, drops below
    _LM_TOL.
    """
    f = model.residuals(x)
    nfev = 1
    cost = 0.5 * float(f @ f)
    A, g = model.normal_equations(x)
    lam, growth = max(1e-3 * float(np.diag(A).max()), _LM_LAMBDA[0]), 2.0
    diagonal = np.diag_indices_from(A)
    for _ in range(_MAX_NFEV - 1):
        damped = A.copy()
        damped[diagonal] += lam
        step = np.linalg.solve(damped, -g)
        new_cost = np.inf
        if np.isfinite(step).all():
            f = model.residuals(x + step)
            nfev += 1
            new_cost = 0.5 * float(f @ f)
        small_step = np.linalg.norm(step) < _LM_TOL * (_LM_TOL + np.linalg.norm(x))
        if new_cost < cost:
            actual = cost - new_cost
            predicted = 0.5 * float(step @ (lam * step - g))
            ratio = actual / max(predicted, actual)  # in (0, 1]
            converged = small_step or (actual < _LM_TOL * cost and ratio > 0.25)
            x, cost = x + step, new_cost
            lam = max(lam * max(1 / 3, 1 - (2 * ratio - 1) ** 3), _LM_LAMBDA[0])
            growth = 2.0
            if converged:
                break
            A, g = model.normal_equations(x)
        elif small_step:
            break
        else:
            lam, growth = min(lam * growth, _LM_LAMBDA[1]), 2 * growth
    return x, nfev


def _float_realize(pattern, seed, restarts):
    model = _IncidenceLeastSquares(pattern)
    n = pattern.rows
    evaluations = 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r, 77])
        x, nfev = _levenberg_marquardt(model, rng.normal(size=model.size))
        evaluations += nfev
        pts = x[: 3 * n].reshape(n, 3)
        lns = x[3 * n :].reshape(-1, 3)
        if check_realization_float(pattern, pts.tolist(), lns.tolist()) is None:
            cfg = Configuration(
                "float",
                tuple(tuple(float(c) for c in row) for row in pts),
                tuple(tuple(float(c) for c in row) for row in lns),
            )
            return Realized(cfg, detail=f"float engine, restart {r}, {evaluations} evaluations")
    return Unknown(
        f"float engine: no realization in {restarts} restarts ({evaluations} residual evaluations)"
    )


def realize_rank3(
    pattern: IncidencePattern,
    field=None,
    seed: int = 0,
    budget: Optional[RealizeBudget] = None,
):
    """Decide whether the pattern is realizable by 3-vectors over the field.

    field None = Q (exact), int p = GF(p) (exact, exhaustive over leftover
    parameters), "float" = numeric search (never proves infeasibility).
    """
    budget = budget or RealizeBudget()
    if field == "float":
        return _float_realize(pattern, seed, budget.restarts)
    if field is not None and not (isinstance(field, int) and is_prime(field)):
        raise ValueError(f"exact realizability needs Q (None) or a prime field, got {field!r}")
    engine = _ExactEngine(pattern, field, seed, budget)
    verdict = engine.run()
    if isinstance(verdict, Realized):
        problem = check_realization_exact(
            pattern,
            verdict.configuration.points,
            verdict.configuration.lines,
            field=field,
        )
        if problem is not None:
            raise RuntimeError(f"engine produced an invalid realization: {problem}")
    return verdict


# ---- rank bounds ------------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    lower: int
    upper: int
    tight: bool
    lower_certified: bool
    notes: tuple


def kapranov_bounds(
    m: TropicalMatrix,
    kmax: Optional[int] = None,
    rank_budget: Optional[int] = None,
    barvinok_budget: Optional[int] = None,
    seed: int = 0,
) -> BoundsReport:
    """Sandwich the lift rank: tropical rank below, factorization rank above.

    For a (0,1) matrix a rational rank-3 realization improves the upper
    bound to 3 (the realization lifts).  A proof that none exists raises the
    lower bound to 4 when every row and every column holds a 0 entry (the
    residue-field argument: the t^0 coefficients of a rank-3 lift would form
    such a realization).  Realizations over finite fields are not used.

    The factorization search (`barvinok_rank`) is capped at barvinok_budget
    coverings, 200,000 by default; when it runs out, the trivial
    min(rows, cols) upper bound stands in.  It runs out on unit Fano and unit
    PG(2,3), which end at [4, 7] and [4, 13].  Only the lower bound can be
    uncertified: a tropical-rank budget stop leaves a best-found value.
    """
    notes = []
    rk = tropical_rank(m, budget=rank_budget)
    lower = rk.rank
    lower_cert = rk.certified
    if not rk.certified:
        notes.append("tropical rank budget exhausted; lower bound is best-found")
    if barvinok_budget is None:
        barvinok_budget = DEFAULT_COVERING_BUDGET
    bar = barvinok_rank(m, kmax=kmax, budget=barvinok_budget)
    if bar.rank is not None:
        upper = bar.rank
    else:
        upper = min(m.rows, m.cols)
        notes.append(
            "factorization search inconclusive; trivial upper bound min(rows, cols)"
        )
    if upper > 3 and m.scale == 1 and set().union(*m.cost) <= {0, 1}:  # (0,1)-valued
        pattern = IncidencePattern.from_matrix(m)
        verdict = realize_rank3(pattern, seed=seed)
        if isinstance(verdict, Realized):
            upper = 3 if lower <= 3 else upper
            notes.append("rational rank-3 realization found; upper bound improved to 3")
        elif isinstance(verdict, ProvedInfeasible):
            notes.append("no rational rank-3 realization exists")
            zeros = ~pattern.bits
            if zeros.any(axis=0).all() and zeros.any(axis=1).all():
                # Residue field: the t^0 coefficients of a rank-3 lift would be
                # nonzero 3-vectors (each row and column has a 0 entry, whose
                # coefficient is nonzero) with P_i . L_j = 0 exactly at the
                # 1-entries, a rational rank-3 realization.
                lower = max(lower, 4)
                notes.append("residue-field argument: a rank-3 lift would give a rational "
                             "rank-3 realization, so the lower bound is 4")
                if upper < lower:  # Barvinok rank >= Kapranov rank
                    raise RuntimeError(f"factorization rank {upper} below the Kapranov lower bound {lower}")
        else:
            notes.append("rank-3 realization search inconclusive")
    tight = lower_cert and lower == upper
    return BoundsReport(lower, upper, tight, lower_cert, tuple(notes))
