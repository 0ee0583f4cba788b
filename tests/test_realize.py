import hashlib
import itertools
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from troprank import (
    INF,
    IncidencePattern,
    ProvedInfeasible,
    Realized,
    RealizeBudget,
    TropicalMatrix,
    Unknown,
    check_realization_exact,
    check_realization_float,
    format_configuration,
    incidence_matrix,
    kapranov_bounds,
    min_plus_multiply,
    parse_configuration,
    projective_plane,
    realize_rank3,
    tropical_rank,
)
from troprank import realize as realize_mod
from troprank.multipoly import Poly, primitive_triple
from troprank.realize import _ExactEngine, _IncidenceLeastSquares, _Node
from troprank.reduction import compile_system, harden, parse_poly_system


def fano_pattern():
    return IncidencePattern.from_matrix(incidence_matrix(projective_plane(2), "unit"))


def test_identity_pattern_over_q():
    p = IncidencePattern.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    v = realize_rank3(p, field=None, seed=1)
    assert isinstance(v, Realized)
    assert check_realization_exact(p, v.configuration.points, v.configuration.lines) is None


def test_all_ones_pattern_repeats_allowed():
    p = IncidencePattern.from_rows([[1] * 4] * 4)
    v = realize_rank3(p, field=None, seed=1)
    assert isinstance(v, Realized)


def test_fano_over_gf2():
    p = fano_pattern()
    v = realize_rank3(p, field=2, seed=1)
    assert isinstance(v, Realized)
    cfg = v.configuration
    assert cfg.field == 2
    # direct verification of all 21 vanishing and 28 nonvanishing products
    zero_count = 0
    for i in range(7):
        for j in range(7):
            d = sum(a * b for a, b in zip(cfg.points[i], cfg.lines[j])) % 2
            if p.bits[i][j]:
                assert d == 0
                zero_count += 1
            else:
                assert d != 0
    assert zero_count == 21


def test_fano_over_q_infeasible():
    v = realize_rank3(fano_pattern(), field=None, seed=1)
    assert isinstance(v, ProvedInfeasible)
    assert len(v.trace) > 0
    assert any("contradiction" in line or "fail" in line or "roots" in line
               or "avoid" in line or "vanishes" in line for line in v.trace)


def test_placed_vectors_reduce_as_projective_points():
    """P2 = L1 meet L2 = P0 lies on L0, so no field realizes this pattern.

    The engine only closes every branch when each placed vector is reduced
    with one common power of the substitution denominator; reducing its
    coordinates one at a time left a consistent-looking leaf and Unknown.
    """
    p = IncidencePattern.from_rows(
        [[1, 1, 1], [1, 0, 0], [0, 1, 1], [0, 0, 1], [1, 1, 1], [1, 1, 1], [0, 0, 0]]
    )
    for seed in (0, 1, 2, 3, 266):
        assert isinstance(realize_rank3(p, field=None, seed=seed), ProvedInfeasible), seed
    for field in (2, 3, 5):
        assert isinstance(realize_rank3(p, field=field, seed=0), ProvedInfeasible), field


def _random_patterns(rng, count, lo, hi):
    for _ in range(count):
        r, c = rng.randint(lo, hi), rng.randint(lo, hi)
        yield IncidencePattern.from_rows([[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)])


def _verdict_text(v):
    if isinstance(v, Realized):
        return format_configuration(v.configuration)
    if isinstance(v, Unknown):
        return v.report
    return "\n".join(v.trace)


def test_exact_verdicts_pinned_on_random_corpus():
    """Configurations, closed-branch traces and reports of 400 exact calls
    (200 random 3-7 x 3-7 patterns over Q and GF(3)) are pinned byte for
    byte: a change to the engine that moves any of them has to say so."""
    texts = []
    for trial, p in enumerate(_random_patterns(random.Random(77), 200, 3, 7)):
        for field in (None, 3):
            v = realize_rank3(p, field=field, seed=trial, budget=RealizeBudget(nodes=20_000))
            texts.append(_verdict_text(v))
    digest = hashlib.sha256("\n--\n".join(texts).encode()).hexdigest()
    assert digest == "e9017da720c5f835f3696c7445e703803041e56a7454fe8f27dba5f41ce7e189"


# Compiled systems (unhardened, and hardened at 8 bits) at two node budgets,
# then unit Fano and PG(2,3) over Q, GF(2) and GF(3).
_GADGET_SYSTEMS = (
    ("x1^2 - 4", (None, 8), (50, 2000)),
    ("x1^2 - x1", (None,), (50, 2000)),
    ("x1\nx1 - 1\nx1^2 - x1", (None, 8), (50, 2000)),
    ("vars x1 x2\nx1*x2 - 2*x1 + 1", (None, 8), (50, 300)),
)


def test_exact_verdicts_pinned_on_gadget_patterns():
    """Verdict texts on compiled gadget patterns and unit planes are pinned
    byte for byte, like the random corpus: these hold far more placed
    elements, substitutions and non-incidence groups per node."""
    texts = []
    for text, bit_sizes, budgets in _GADGET_SYSTEMS:
        system = parse_poly_system(text)
        for bits in bit_sizes:
            target = system if bits is None else harden(system, seed=1, stand_in_bits=bits)[0]
            pattern = compile_system(target, seed=1).pattern
            for nodes in budgets:
                v = realize_rank3(pattern, field=None, seed=1, budget=RealizeBudget(nodes=nodes))
                texts.append(_verdict_text(v))
    for q in (2, 3):
        pattern = IncidencePattern.from_matrix(incidence_matrix(projective_plane(q), "unit"))
        for field in (None, 2, 3):
            texts.append(_verdict_text(realize_rank3(pattern, field=field, seed=1)))
    digest = hashlib.sha256("\n--\n".join(texts).encode()).hexdigest()
    assert digest == "ae35ea97d593ac51d30eb6a57992a8e0afa1a0fcebe2a557615d79dd90a9d84d"


@pytest.mark.parametrize("field", [None, 2, 3, 7])
def test_constant_triples_stay_ints(field, monkeypatch):
    """Dots, crosses and primitive forms of constant triples are the ints the
    Poly path gives, and build no Poly."""
    engine = _ExactEngine(IncidencePattern.from_rows([[1]]), field, 1, RealizeBudget())
    rng = random.Random(5150 + (field or 0))

    def draw():
        if field is not None:
            return tuple(rng.randrange(field) for _ in range(3))
        return tuple(rng.choice([0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-10**9, 10**9)]) for _ in range(3))

    def as_polys(t):
        return tuple(Poly.const(x, field) for x in t)

    def constant(p):
        assert p.is_constant()
        return p.constant_value()

    cases = [(draw(), draw()) for _ in range(500)]
    want = []
    for u, x in cases:
        pu, px = as_polys(u), as_polys(x)
        dot = pu[0] * px[0] + pu[1] * px[1] + pu[2] * px[2]
        cross = (pu[1] * px[2] - pu[2] * px[1], pu[2] * px[0] - pu[0] * px[2], pu[0] * px[1] - pu[1] * px[0])
        want.append((constant(dot), tuple(map(constant, cross)), tuple(map(constant, primitive_triple(pu, field)))))
    built = []
    real_init = Poly.__init__

    def counting_init(self, *args):
        built.append(1)
        real_init(self, *args)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    got = [(engine._dot(u, x), engine._cross(u, x), primitive_triple(u, field)) for u, x in cases]
    assert not built
    assert got == want
    assert all(type(c) is int for dot, cross, prim in got for c in (dot,) + cross + prim)


@pytest.mark.parametrize("field", [None, 2, 3, 7])
def test_mixed_triples_match_the_poly_path(field):
    """Dots and crosses of triples mixing ints and Polys equal the all-Poly
    results, with every constant result an int and every other one a Poly."""
    engine = _ExactEngine(IncidencePattern.from_rows([[1]]), field, 1, RealizeBudget())
    rng = random.Random(6160 + (field or 0))
    params = [Poly.var(v, field) for v in range(3)]

    def entry():
        c = rng.choice([0, 1, -1, 2, rng.randint(-50, 50)])
        c = c if field is None else c % field
        if rng.random() < 0.5:
            return c
        x = rng.choice(params) * rng.choice([1, -1, 3]) + c
        if rng.random() < 0.3:
            x = x * rng.choice(params)
        return x.constant_value() if x.is_constant() else x

    def as_poly(x):
        return x if isinstance(x, Poly) else Poly.const(x, field)

    def held(p):
        return p.constant_value() if p.is_constant() else p

    for _ in range(600):
        u, x = tuple(entry() for _ in range(3)), tuple(entry() for _ in range(3))
        pu, px = tuple(map(as_poly, u)), tuple(map(as_poly, x))
        dot = held(pu[0] * px[0] + pu[1] * px[1] + pu[2] * px[2])
        cross = tuple(
            held(a) for a in (pu[1] * px[2] - pu[2] * px[1], pu[2] * px[0] - pu[0] * px[2], pu[0] * px[1] - pu[1] * px[0])
        )
        got_dot, got_cross = engine._dot(u, x), engine._cross(u, x)
        assert got_dot == dot and type(got_dot) is type(dot), (u, x)
        assert got_cross == cross and tuple(map(type, got_cross)) == tuple(map(type, cross)), (u, x)


def test_nodes_hold_only_reduced_polynomials(monkeypatch):
    """No polynomial a node holds mentions an eliminated parameter: not when
    the node is processed, not after its own substitutions, not in a child.

    Held values are ints or Polys.  Every Poly is checked; placed triples
    and non-incidence groups hold no constant Poly, no group holds a nonzero
    constant, a triple's primitive form is primitive_triple of its raw form,
    and the live positions are exactly the triples holding a Poly."""
    checked = []

    def assert_reduced(node):
        held = [q for q in node.queue if isinstance(q, Poly)]
        for group in node.diseqs:
            assert not any(type(q) is int and q != 0 for q in group), (node.path, group)
            held += group
        for k, (raw, prim) in enumerate(node.coords):
            assert (k in node.live) == any(isinstance(q, Poly) for q in raw), (node.path, k)
            if prim is not None:
                assert prim == primitive_triple(raw), (node.path, k)
                held += prim
            held += raw
        for q in held:
            if type(q) is int:
                continue
            assert not q.is_constant(), (node.path, q.render())
            assert not (q.variables() & node.solved), (node.path, q.render(), node.solved)
        checked.append(bool(node.solved))

    process = _ExactEngine._process

    def checked_process(self, node):
        assert_reduced(node)
        outcome = process(self, node)
        assert_reduced(node)
        if isinstance(outcome, list):
            for child in outcome:
                assert_reduced(child)
        return outcome

    monkeypatch.setattr(_ExactEngine, "_process", checked_process)
    # criterion 5's patterns, then larger ones: only these substitute into a
    # non-incidence group
    for trial, p in enumerate(_random_patterns(random.Random(20240505), 200, 2, 5)):
        realize_rank3(p, field=None, seed=trial)
    for trial, p in enumerate(_random_patterns(random.Random(77), 50, 3, 7)):
        realize_rank3(p, field=None, seed=trial, budget=RealizeBudget(nodes=20_000))
    # a compiled pattern, where substitutions turn groups into nonzero constants
    hard, _ = harden(parse_poly_system("x1^2 - 4"), seed=1, stand_in_bits=8)
    realize_rank3(compile_system(hard, seed=1).pattern, field=None, seed=1, budget=RealizeBudget(nodes=300))
    assert sum(checked) > 300  # nodes with eliminated parameters


def _engine_step(eq, nparams=2):
    """_ExactEngine._process on a fresh node whose queue holds only eq over Q,
    with parameters 0..nparams-1 free: (engine, outcome)."""
    engine = _ExactEngine(IncidencePattern.from_rows([[1]]), None, 1, RealizeBudget())
    node = _Node(0, [], [], [eq], [], set(), nparams, 0, ("root",))
    return engine, engine._process(node)


def test_exact_engine_enumerates_univariate_roots():
    p0 = Poly.var(0)
    engine, children = _engine_step(2 * p0 * p0 - 3 * p0 - 2)  # roots -1/2 and 2
    assert [child.path for child in children] == [("root", "p0=-1/2"), ("root", "p0=2")]
    assert all(child.solved == {0} and not child.queue for child in children)
    assert not engine.dead and not engine.unknowns


def test_exact_engine_closes_without_rational_roots():
    p0 = Poly.var(0)
    engine, outcome = _engine_step(p0 * p0 - 2)
    assert outcome is None and not engine.unknowns
    assert engine.dead == ["root > no roots in the field: p0^2 - 2 = 0"]


def test_exact_engine_stuck_on_unfactorable_constant():
    # The constant is past the rational root search's 10**12 factoring limit.
    p0 = Poly.var(0)
    engine, outcome = _engine_step(p0**3 - Poly.const(10**12 + 39))
    assert outcome is None and not engine.dead
    assert engine.unknowns == ["unsolvable constraint degree: p0^3 - 1000000000039"]


def test_exact_engine_splits_on_a_common_monomial_factor():
    p0, p1 = Poly.var(0), Poly.var(1)
    engine, children = _engine_step(p0**3 + p0 * p1 * p1 - 2 * p0)
    assert [child.path for child in children] == [("root", "p0=0"), ("root", "cofactor[0]")]
    zero, cofactor = children
    assert zero.solved == {0} and not zero.queue
    assert not cofactor.solved and cofactor.queue == [p0 * p0 + p1 * p1 - 2]
    assert not engine.dead and not engine.unknowns


def test_hardened_square_root_proved_infeasible_over_q():
    """x1^2 = 4 hardened at 8 bits: the compiled pattern is infeasible over Q,
    although x1 = +-2 solves the system.  The compiler decides each pattern
    zero at witness points that lie off the solution set, so incidences that
    hold only at a solution are compiled as non-incidences (see ROADMAP item
    5).  The proof both enumerates rational roots and closes a branch whose
    quadratic has none."""
    hard, _ = harden(parse_poly_system("x1^2 - 4"), seed=1, stand_in_bits=8)
    verdict = realize_rank3(compile_system(hard, seed=1).pattern, field=None, seed=1)
    assert isinstance(verdict, ProvedInfeasible)
    assert any(re.search(r" > p\d+=-?\d", line) for line in verdict.trace)
    assert any("no roots in the field" in line for line in verdict.trace)


def test_fano_minus_point_realizable_over_q():
    p = fano_pattern()
    sub = IncidencePattern.from_rows(p.bits[:6])
    v = realize_rank3(sub, field=None, seed=1)
    assert isinstance(v, Realized)


def test_unknown_on_tiny_budget():
    v = realize_rank3(fano_pattern(), field=None, seed=1, budget=RealizeBudget(nodes=3))
    assert isinstance(v, Unknown)


def test_float_engine_identity():
    p = IncidencePattern.from_rows([[1, 0], [0, 1]])
    v = realize_rank3(p, field="float", seed=4, budget=RealizeBudget(restarts=20))
    assert isinstance(v, Realized)
    assert check_realization_float(p, v.configuration.points, v.configuration.lines) is None


def test_float_engine_never_proves_infeasible():
    v = realize_rank3(fano_pattern(), field="float", seed=4, budget=RealizeBudget(restarts=3))
    assert isinstance(v, Unknown)


def test_exact_verdicts_reverify_on_random_patterns():
    rng = random.Random(100)
    for trial in range(60):
        r, c = rng.randint(2, 4), rng.randint(2, 4)
        p = IncidencePattern.from_rows(
            [[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)]
        )
        v = realize_rank3(p, field=None, seed=trial)
        assert not isinstance(v, Unknown)
        if isinstance(v, Realized):
            cfg = v.configuration
            assert check_realization_exact(p, cfg.points, cfg.lines) is None


def test_float_engine_raises_no_numeric_warnings():
    contradictory = compile_system(parse_poly_system("x1\nx1 - 1\nx1^2 - x1"), seed=8).pattern
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pattern, seed, restarts in ((fano_pattern(), 4, 3), (contradictory, 8, 2)):
            v = realize_rank3(pattern, field="float", seed=seed, budget=RealizeBudget(restarts=restarts))
            assert isinstance(v, Unknown)
            assert re.fullmatch(
                rf"float engine: no realization in {restarts} restarts \(\d+ residual evaluations\)", v.report
            )


def _reference_residuals_and_jacobian(pattern, x, margin=3e-4):
    """The float engine's residuals and dense Jacobian, row by row: incidence
    dots, hinges, point norms, line norms."""
    n, m = pattern.rows, pattern.cols
    oi, oj = np.nonzero(pattern.bits)
    zi, zj = np.nonzero(~pattern.bits)
    k1, k2 = len(oi), len(zi)
    pts = x[: 3 * n].reshape(n, 3)
    lns = x[3 * n :].reshape(m, 3)
    pn = np.linalg.norm(pts, axis=1) + 1e-12
    ln = np.linalg.norm(lns, axis=1) + 1e-12
    s = np.einsum("ik,ik->i", pts[oi], lns[oj]) / (pn[oi] * ln[oj]) if k1 else np.zeros(0)
    sz = np.einsum("ik,ik->i", pts[zi], lns[zj]) / (pn[zi] * ln[zj]) if k2 else np.zeros(0)
    hinge = np.maximum(0.0, margin - np.abs(sz))
    f = np.concatenate([s, hinge, 0.25 * (pn * pn - 1.0), 0.25 * (ln * ln - 1.0)])

    def scaled_grads(ii, jj):
        u, v = pts[ii], lns[jj]
        nu, nv = pn[ii][:, None], ln[jj][:, None]
        d = np.einsum("ik,ik->i", u, v)[:, None]
        return d, v / (nu * nv) - d * u / (nu**3 * nv), u / (nu * nv) - d * v / (nu * nv**3)

    J = np.zeros((k1 + k2 + n + m, 3 * (n + m)))
    if k1:
        _, gu, gv = scaled_grads(oi, oj)
        rows = np.arange(k1)
        for c in range(3):
            J[rows, 3 * oi + c] += gu[:, c]
            J[rows, 3 * (n + oj) + c] += gv[:, c]
    if k2:
        d, gu, gv = scaled_grads(zi, zj)
        sd = d[:, 0] / (pn[zi] * ln[zj])
        coef = np.where(np.abs(sd) < margin, -np.sign(sd), 0.0)
        rows = k1 + np.arange(k2)
        for c in range(3):
            J[rows, 3 * zi + c] += coef * gu[:, c]
            J[rows, 3 * (n + zj) + c] += coef * gv[:, c]
    for c in range(3):
        J[k1 + k2 + np.arange(n), 3 * np.arange(n) + c] = 0.5 * pts[:, c]
        J[k1 + k2 + n + np.arange(m), 3 * (n + np.arange(m)) + c] = 0.5 * lns[:, c]
    return f, J


def test_float_normal_equations_match_dense_jacobian():
    rng = np.random.default_rng(2024)
    patterns = [
        IncidencePattern.from_rows(rng.random((r, c)) < 0.4)
        for r, c in rng.integers(2, 9, size=(18, 2))
    ]
    patterns += [IncidencePattern.from_rows([[1] * 4] * 3), IncidencePattern.from_rows([[0] * 3] * 5)]
    hinges = {"active": 0, "inactive": 0}
    for p in patterns:
        n = p.rows
        x = rng.normal(size=3 * (n + p.cols))
        # bring one non-incident pair per line close to orthogonal, so that
        # its hinge is active
        for j in range(p.cols):
            zeros = np.flatnonzero(~p.bits[:, j])
            if len(zeros) and rng.random() < 0.7:
                i = rng.choice(zeros)
                u, v = x[3 * i : 3 * i + 3], x[3 * (n + j) : 3 * (n + j) + 3]
                v -= (u @ v) / (u @ u) * u - 1e-5 * np.linalg.norm(v) * u / np.linalg.norm(u)
        f, J = _reference_residuals_and_jacobian(p, x)
        hinge_rows = J[int(p.bits.sum()) : p.rows * p.cols]
        active = np.abs(hinge_rows).sum(axis=1) > 0
        hinges["active"] += int(active.sum())
        hinges["inactive"] += int((~active).sum())
        model = _IncidenceLeastSquares(p)
        A, b = model.normal_equations(x)
        assert np.allclose(model.residuals(x), f, rtol=1e-12, atol=1e-15)
        assert np.allclose(A, J.T @ J, rtol=1e-10, atol=1e-12)
        assert np.allclose(b, J.T @ f, rtol=1e-10, atol=1e-12)
    assert hinges["active"] > 0 and hinges["inactive"] > 0


def _configuration_pattern(rng, npoints):
    """The incidences of npoints random, pairwise non-proportional integer
    points with up to eight of the lines they span (every line through three
    or more of them first)."""
    points = []
    while len(points) < npoints:
        v = np.array([rng.randint(-2, 2) for _ in range(3)])
        if v.any() and not any(not np.cross(v, w).any() for w in points):
            points.append(v)
    lines = []
    for a, b in itertools.combinations(points, 2):
        w = np.cross(a, b)
        if not any(not np.cross(w, l).any() for l in lines):
            lines.append(w)
    rng.shuffle(lines)
    lines.sort(key=lambda w: -min(sum(int(p @ w == 0) for p in points), 3))
    lines = lines[:8]
    return IncidencePattern.from_rows([[int(p @ w == 0) for w in lines] for p in points])


def _float_power_corpus():
    rng = random.Random(1212)
    corpus = []
    for _ in range(120):
        r, c = rng.randint(2, 5), rng.randint(2, 5)
        corpus.append(IncidencePattern.from_rows([[int(rng.random() < 0.4) for _ in range(c)] for _ in range(r)]))
    for _ in range(40):
        corpus.append(_configuration_pattern(rng, rng.randint(5, 9)))
    return corpus


def test_float_engine_power_against_exact_engine():
    realizable = realized = 0
    for trial, p in enumerate(_float_power_corpus()):
        exact = realize_rank3(p, field=None, seed=trial)
        v = realize_rank3(p, field="float", seed=trial, budget=RealizeBudget(restarts=3))
        if isinstance(v, Realized):
            assert check_realization_float(p, v.configuration.points, v.configuration.lines) is None
            assert re.fullmatch(r"float engine, restart [0-2], \d+ evaluations", v.detail)
        if isinstance(exact, ProvedInfeasible):
            assert isinstance(v, Unknown), p
        elif isinstance(exact, Realized):
            realizable += 1
            realized += isinstance(v, Realized)
    # 137 of 137 when written; scipy's trust-region solver realized 113
    assert realizable == 137
    assert realized >= 135


def test_non_prime_field_rejected():

    p = IncidencePattern.from_rows([[1]])
    with pytest.raises(ValueError):
        realize_rank3(p, field=4)


def test_gf3_realization():
    p = IncidencePattern.from_rows([[1, 0], [0, 1], [1, 1]])
    v = realize_rank3(p, field=3, seed=2)
    assert isinstance(v, Realized)
    assert v.configuration.field == 3
    assert check_realization_exact(
        p, v.configuration.points, v.configuration.lines, field=3
    ) is None


@pytest.mark.parametrize("p", [17, 19])
def test_realizations_over_primes_outside_field_tables(p):
    pattern = IncidencePattern.from_rows([[1, 0], [0, 1]])
    v = realize_rank3(pattern, field=p, seed=0)
    assert isinstance(v, Realized)
    cfg = v.configuration
    assert cfg.field == p
    assert check_realization_exact(pattern, cfg.points, cfg.lines, field=p) is None
    assert parse_configuration(format_configuration(cfg)) == cfg


@pytest.mark.parametrize("bad", [4, -1])
def test_gf_check_rejects_coordinates_outside_the_residues(bad):
    pattern = IncidencePattern.from_rows([[1, 0], [0, 1]])
    lines = ((0, 1, 0), (1, 0, 0))
    assert check_realization_exact(pattern, ((1, 0, 0), (0, 1, 0)), lines, field=3) is None
    problem = check_realization_exact(pattern, ((1, 0, bad), (0, 1, 0)), lines, field=3)
    assert problem == "point 0 has a coordinate outside GF(3) residues 0..2"
    cfg = parse_configuration(f"field gf3\nP 0 1 0 {bad}\nP 1 0 1 0\nL 0 0 1 0\nL 1 1 0 0\n")
    assert check_realization_exact(pattern, cfg.points, cfg.lines, field=3) == problem


def test_configuration_certificate_round_trip():
    p = IncidencePattern.from_rows([[1, 0], [0, 1]])
    v = realize_rank3(p, field=None, seed=9)
    text = format_configuration(v.configuration)
    back = parse_configuration(text)
    assert back == v.configuration
    vf = realize_rank3(p, field="float", seed=9, budget=RealizeBudget(restarts=10))
    textf = format_configuration(vf.configuration)
    backf = parse_configuration(textf)
    assert backf.points == vf.configuration.points  # 17 digits round-trip floats


@pytest.mark.parametrize(
    "bad, norm", [(float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "inf"), (1e200, "inf")]
)
def test_float_check_rejects_non_finite_coordinates(bad, norm):
    # NaN compares False with every bound, so without the check an all-NaN
    # configuration "realized" unit Fano.  A coordinate too large to square
    # leaves no finite norm to scale the bounds by.
    pattern = IncidencePattern.from_rows([[1, 0], [0, 1]])
    points, lines = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))
    assert check_realization_float(pattern, points, lines) is None
    problem = check_realization_float(pattern, points, (lines[0], (1.0, bad, 0.0)))
    assert problem == f"line 1 has non-finite norm {norm}"
    fano = fano_pattern()
    problem = check_realization_float(fano, [(bad,) * 3] * 7, [(bad,) * 3] * 7)
    assert problem == f"point 0 has non-finite norm {norm}"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_parse_configuration_rejects_non_finite_floats(token):
    with pytest.raises(ValueError, match="non-finite coordinate in L 1"):
        parse_configuration(f"field float\nP 0 1 0 0\nL 0 0 1 0\nL 1 0 {token} 1\n")


def test_parse_configuration_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_configuration("field q\nP 0 1/0 0 1\n")


def test_parse_configuration_rejects_composite_field():
    with pytest.raises(ValueError, match="not prime"):
        parse_configuration("field gf4\nP 0 1 0 0\nL 0 0 1 0\n")


@pytest.mark.parametrize(
    "rows",
    [
        ["P 0 1 0 0", "P 0 0 1 0", "L 0 0 0 1"],  # repeated point index
        ["P 0 1 0 0", "L 0 0 0 1", "L 0 0 1 0"],  # repeated line index
        ["P 0 1 0 0", "P 7 0 1 0", "L 0 0 0 1"],  # point indices skip 1..6
        ["P 0 1 0 0", "L 1 0 0 1"],               # line indices start at 1
        ["P -1 1 0 0", "L 0 0 0 1"],
    ],
)
def test_parse_configuration_rejects_bad_indices(rows):
    with pytest.raises(ValueError, match="index|indices"):
        parse_configuration("field q\n" + "\n".join(rows) + "\n")


def _gf_realizable_brute(pattern, p):
    """Oracle: enumerate all assignments of projective representatives."""
    import itertools

    from troprank import make_field

    f = make_field(p)
    reps = []
    for v in itertools.product(range(p), repeat=3):
        if all(x == 0 for x in v):
            continue
        for x in v:
            if x != 0:
                first = x
                break
        inv = f.inv(first)
        norm = tuple(f.mul(inv, x) for x in v)
        if norm not in reps:
            reps.append(norm)
    for pts in itertools.product(reps, repeat=pattern.rows):
        for lns in itertools.product(reps, repeat=pattern.cols):
            ok = True
            for i in range(pattern.rows):
                for j in range(pattern.cols):
                    z = f.dot(pts[i], lns[j]) == 0
                    if z != bool(pattern.bits[i][j]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def test_exact_engine_matches_enumeration_oracle_gf2():
    """The engine's GF(2) verdicts agree with exhaustive enumeration."""
    rng = random.Random(321)
    for trial in range(40):
        r, c = rng.randint(2, 3), rng.randint(2, 3)
        p = IncidencePattern.from_rows(
            [[int(rng.random() < 0.5) for _ in range(c)] for _ in range(r)]
        )
        verdict = realize_rank3(p, field=2, seed=trial)
        assert not isinstance(verdict, Unknown)
        expected = _gf_realizable_brute(p, 2)
        assert isinstance(verdict, Realized) == expected, p


def test_exact_engine_matches_enumeration_oracle_gf3():
    rng = random.Random(654)
    for trial in range(8):
        r, c = 2, rng.randint(2, 3)
        p = IncidencePattern.from_rows(
            [[int(rng.random() < 0.5) for _ in range(c)] for _ in range(r)]
        )
        verdict = realize_rank3(p, field=3, seed=trial)
        assert not isinstance(verdict, Unknown)
        expected = _gf_realizable_brute(p, 3)
        assert isinstance(verdict, Realized) == expected, p


def test_bounds_all_zeros():
    res = kapranov_bounds(TropicalMatrix.constant(4, 4, 0))
    assert (res.lower, res.upper, res.tight) == (1, 1, True)


def test_bounds_diagonal():
    res = kapranov_bounds(TropicalMatrix.identity(3))
    assert (res.lower, res.upper, res.tight) == (3, 3, True)


def test_bounds_negative_budget_raises():
    m = TropicalMatrix.identity(3)
    for budgets in ({"rank_budget": -1}, {"barvinok_budget": -1}, {"kmax": -1}):
        with pytest.raises(ValueError, match="negative"):
            kapranov_bounds(m, **budgets)


def test_negative_realize_budget_raises():
    for budget in ({"nodes": -1}, {"restarts": -1}):
        with pytest.raises(ValueError, match="negative budget in RealizeBudget"):
            RealizeBudget(**budget)
    assert RealizeBudget(nodes=0, restarts=0) == RealizeBudget(0, 0)


def test_bounds_fano_never_claims_three():
    m = incidence_matrix(projective_plane(2), "unit")
    res = kapranov_bounds(m, barvinok_budget=2000)
    assert res.lower == 4  # the residue-field argument
    assert res.upper >= 4  # the rational infeasibility forbids upper bound 3
    assert not res.tight
    assert any("no rational rank-3 realization" in n for n in res.notes)
    assert any("residue-field argument" in n for n in res.notes)
    # A row of 1s scales to a row of 0s: in the residue pattern, a point on
    # no line, beside the Fano plane, which is still infeasible over Q.
    with_full_row = TropicalMatrix(m.cost + ((1,) * 7,), 1)
    assert tropical_rank(with_full_row).rank == 3
    res = kapranov_bounds(with_full_row, barvinok_budget=2000)
    assert res.lower == 4
    assert any("residue-field argument" in n for n in res.notes)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_bounds_weighted_plane_lower_four(q):
    """A positively weighted PG(2,q) has tropical rank 3, and it scales to
    itself with the unit plane as residue pattern, infeasible over Q: the
    lower bound is 4, the paper's separation.  The unit plane keeps its
    bounds."""
    for scheme, seed in (("random", 1), ("unit", 0)):
        m = incidence_matrix(projective_plane(q), scheme, seed=seed)
        res = kapranov_bounds(m)
        assert tropical_rank(m).rank == 3
        assert (res.lower, res.upper, res.tight, res.lower_certified) == (4, m.rows, False, True)
        assert any("residue-field argument" in n for n in res.notes)


def _residue_pattern_oracle(m):
    """The residue pattern by Fraction arithmetic on each entry: incidence
    where the entry less its row's finite minimum, less its column's minimum
    of those, is positive or inf; rows and columns all inf dropped."""
    rows = m.to_rows()
    lows = [min((x for x in row if x is not INF), default=None) for row in rows]
    shifted = [[x if x is INF else x - low for x in row] for row, low in zip(rows, lows)]
    col_lows = [min((x for x in col if x is not INF), default=None) for col in zip(*shifted)]
    keep_cols = [j for j, low in enumerate(col_lows) if low is not None]
    return IncidencePattern(np.array(
        [[row[j] is INF or row[j] - col_lows[j] > 0 for j in keep_cols] for row, low in zip(shifted, lows)
         if low is not None],
        dtype=bool,
    ).reshape(-1, len(keep_cols)))


def test_bounds_residue_pattern_matches_scaling_oracle(monkeypatch):
    """On seeded small signed matrices with inf entries (some with an all-inf
    row or column), random or one entry off a rank-3 min-plus product, the
    pattern kapranov_bounds tests is the scaling oracle's, and the
    residue-field lower bound appears iff realize_rank3 proves that exact
    pattern infeasible over Q."""
    tested = []

    def recording(pattern, **kwargs):
        tested.append((pattern, realize_rank3(pattern, **kwargs)))
        return tested[-1][1]

    monkeypatch.setattr(realize_mod, "realize_rank3", recording)
    rng = random.Random(47)
    outcomes = set()
    for _ in range(40):
        rows, cols = rng.randint(4, 6), rng.randint(4, 6)
        entries = [[INF if rng.random() < 0.1 else Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                   for _ in range(rows)]
        if rng.random() < 0.5:
            right = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(3)]
            entries = min_plus_multiply(
                TropicalMatrix.from_rows([row[:3] for row in entries]), TropicalMatrix.from_rows(right)
            ).to_rows()
            entries[rng.randrange(rows)][rng.randrange(cols)] = Fraction(rng.randint(-3, 3))
        if rng.random() < 0.3:  # an all-inf row or column, which the pattern drops
            if rng.random() < 0.5:
                entries[rng.randrange(rows)] = [INF] * cols
            else:
                column = rng.randrange(cols)
                for row in entries:
                    row[column] = INF
        m = TropicalMatrix.from_rows(entries)
        tested.clear()
        res = kapranov_bounds(m, barvinok_budget=2000)
        if res.upper <= 3:
            assert not tested
            continue
        (pattern, verdict), = tested
        assert pattern == _residue_pattern_oracle(m)
        infeasible = isinstance(verdict, ProvedInfeasible)
        assert any("residue-field argument" in n for n in res.notes) == infeasible
        assert res.lower == (max(tropical_rank(m).rank, 4) if infeasible else tropical_rank(m).rank)
        assert res.upper > 3  # a realization lifts only for a (0,1) matrix
        outcomes.add(infeasible)
    assert outcomes == {True, False}


def test_bounds_pg23_default_budget():
    # The default 200,000-covering factorization search runs out on unit
    # PG(2,3), so the upper bound stays the trivial 13.
    res = kapranov_bounds(incidence_matrix(projective_plane(3), "unit"))
    assert (res.lower, res.upper, res.tight) == (4, 13, False)
    assert any("factorization search inconclusive" in n for n in res.notes)


def test_bounds_realizable_01_matrix_improves_to_three():
    # 4x4 pattern realizable over Q but with Barvinok rank 4:
    # rows/cols of a quadrilateral with its diagonals' pattern
    p = IncidencePattern.from_rows(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    )
    m = p.to_tropical()
    res = kapranov_bounds(m, barvinok_budget=200_000)
    assert res.lower <= 3
    if res.upper == 3:
        assert any("improved" in n for n in res.notes)
    assert res.lower <= res.upper
