import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from troprank import (
    GadgetProgram,
    IncidencePattern,
    PolySystem,
    ReductionVerdict,
    cnf_to_polys,
    compile_system,
    format_matrix,
    format_poly_system,
    format_provenance,
    harden,
    parse_dimacs,
    parse_poly_system,
    verify_reduction,
)
from troprank import reduction
from troprank.multipoly import Poly
from troprank.reduction import (
    WITNESS_PRIME,
    _incidence_mask,
    _ResidueEvaluator,
    poly_from_terms,
)


def brute_solutions(sys, cube=(0, 1)):
    nv = len(sys.variables)
    out = []
    for values in itertools.product(cube, repeat=nv):
        vals = {i: Fraction(v) for i, v in enumerate(values)}
        if all(eq.evaluate(vals) == 0 for eq in sys.equations):
            out.append(dict(zip(sys.variables, values)))
    return out


# ---- CNF encoding -----------------------------------------------------------


def test_unit_clause():
    sys = cnf_to_polys([(1,)], 1)
    text = format_poly_system(sys)
    assert text == "vars x1\n-x1 + x1^2\n1 - x1\n"
    # {x^2 - x = 0, 1 - x = 0}
    assert len(sys.equations) == 2
    assert brute_solutions(sys) == [{"x1": 1}]


def test_binary_clause():
    sys = cnf_to_polys([(1, 2)], 2)
    # (1-x)(1-y) = 0 plus two Boolean equations
    assert len(sys.equations) == 3
    sols = brute_solutions(sys)
    assert {tuple(sorted(s.items())) for s in sols} == {
        (("x1", 0), ("x2", 1)),
        (("x1", 1), ("x2", 0)),
        (("x1", 1), ("x2", 1)),
    }


def test_contradictory_clauses():
    sys = cnf_to_polys([(1,), (-1,)], 1)
    assert brute_solutions(sys) == []
    rendered = format_poly_system(sys)
    assert "1 - x1" in rendered or "- x1 + 1" in rendered
    assert any(eq.terms == {((0, 1),): Fraction(1)} for eq in sys.equations)


def test_empty_clause_marker():
    sys = cnf_to_polys([()], 1)
    assert any(eq.is_constant() and not eq.is_zero() for eq in sys.equations)


def test_long_clause_flattens():
    sys = cnf_to_polys([(1, 2, 3, 4)], 4)
    assert sys.max_degree() <= 2
    assert any(n.startswith("u") for n in sys.variables)
    # satisfiable exactly when not all four are false
    sols = brute_solutions(sys)
    xs = {tuple(s[f"x{i}"] for i in range(1, 5)) for s in sols}
    assert (0, 0, 0, 0) not in xs
    assert len(xs) == 15


def test_dimacs_parse():
    clauses, nvars = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert nvars == 3
    assert clauses == [(1, -2), (2, 3)]


# ---- hardening ----------------------------------------------------------------


def test_harden_offsets_and_targets():
    sys = parse_poly_system("x1^2 - x1")
    hard, info = harden(sys, seed=1)
    assert info.offsets == (3,)  # 2^1 + 1; Boolean values land on {3, 4}
    lifted0 = info.lift_assignment(sys, {"x1": 0})
    lifted1 = info.lift_assignment(sys, {"x1": 1})
    assert lifted0["x1"] == 3 and lifted1["x1"] == 4


def test_harden_determinism():
    sys = parse_poly_system("x1 + x2 - 1\nx1^2 - x1\nx2^2 - x2")
    a, _ = harden(sys, seed=42)
    b, _ = harden(sys, seed=42)
    assert format_poly_system(a) == format_poly_system(b)
    c, _ = harden(sys, seed=43)
    assert format_poly_system(a) != format_poly_system(c)


def test_harden_negative_bits_raises():
    sys = parse_poly_system("x1^2 - x1")
    with pytest.raises(ValueError, match="negative stand-in bit size -2"):
        harden(sys, seed=1, stand_in_bits=-2)
    harden(sys, seed=1, stand_in_bits=0)  # constants of 1 still harden


def test_harden_solution_round_trip():
    rng = random.Random(55)
    for _ in range(10):
        terms = {}
        for mono in (((0, 1),), ((1, 1),), ()):
            terms[mono] = rng.randint(-2, 2)
        base = PolySystem(
            ("x1", "x2"),
            (
                poly_from_terms(terms),
                poly_from_terms({((0, 2),): 1, ((0, 1),): -1}),
                poly_from_terms({((1, 2),): 1, ((1, 1),): -1}),
            ),
        )
        sols = brute_solutions(base)
        hard, info = harden(base, seed=9, stand_in_bits=12)
        for sol in sols:
            lifted = info.lift_assignment(base, sol)
            vals = {i: Fraction(lifted[n]) for i, n in enumerate(hard.variables)}
            assert all(eq.evaluate(vals) == 0 for eq in hard.equations)


def test_harden_keeps_integer_coefficients():
    sys = parse_poly_system("x1^2 - x1")
    hard, _ = harden(sys, seed=3)
    for eq in hard.equations:
        for c in eq.terms.values():
            assert c.denominator == 1


# ---- gadget program -----------------------------------------------------------


def test_addition_gadget_witness():
    prog = GadgetProgram(())
    r = prog.add(prog.constant(3), prog.constant(5), "w")
    assert prog.value(r) == Poly.const(8)
    rendered = {(e.kind, tuple(p.render() for p in e.coords)) for e in prog.elements}
    assert ("point", ("3", "3", "1")) in rendered
    assert ("point", ("5", "5", "1")) in rendered
    assert ("point", ("3", "0", "1")) in rendered
    assert ("point", ("8", "5", "1")) in rendered
    assert ("line", ("1", "0", "-3")) in rendered   # x = 3
    assert ("line", ("1", "-1", "-3")) in rendered  # x = y + 3
    assert ("line", ("0", "1", "-5")) in rendered   # y = 5
    assert ("line", ("1", "0", "-8")) in rendered   # x = 8


def test_addition_gadget_degenerate_cases():
    prog = GadgetProgram(())
    assert prog.add(prog.O, prog.O, "") == prog.O
    assert prog.add(prog.I, prog.O, "") == prog.I


def test_multiplication_gadget_witness():
    prog = GadgetProgram(())
    r = prog.mul(prog.constant(3), prog.constant(5), "w")
    assert prog.value(r) == Poly.const(15)
    rendered = {(e.kind, tuple(p.render() for p in e.coords)) for e in prog.elements}
    assert ("point", ("1", "3", "1")) in rendered
    assert ("point", ("5", "15", "1")) in rendered
    assert ("point", ("15", "15", "1")) in rendered
    assert ("line", ("1", "0", "-1")) in rendered  # x = 1
    assert ("line", ("0", "1", "-3")) in rendered  # y = 3
    assert ("line", ("3", "-1", "0")) in rendered  # y = 3x
    assert ("line", ("1", "0", "-5")) in rendered  # x = 5
    assert ("line", ("0", "1", "-15")) in rendered  # y = 15


def test_multiplication_identity_and_zero():
    prog = GadgetProgram(())
    five = prog.constant(5)
    assert prog.mul(prog.I, five, "") == five
    assert prog.mul(prog.O, five, "") == prog.O  # y = 0x is the x-axis, result O


def test_neg_one_verified_by_addition_to_zero():
    prog = GadgetProgram(())
    n1 = prog.neg_one()
    assert prog.value(n1) == Poly.const(-1)
    assert prog.constant(-6) is not None
    assert prog.value(prog.constant(-6)) == Poly.const(-6)


# ---- compilation ---------------------------------------------------------------


def test_empty_system_frame_only():
    comp = compile_system(PolySystem((), ()), seed=1)
    assert comp.pattern.rows == 4 and comp.pattern.cols == 4
    assert sum(1 for _ in comp.pattern.ones()) == 8
    # the recorded frame non-collinearities hold (zeros in the pattern)
    prog = comp.program
    point_row = {idx: r for r, idx in enumerate(comp.row_elements)}
    line_col = {idx: c for c, idx in enumerate(comp.col_elements)}
    for p_idx, l_idx in prog.required_nonincidence:
        assert comp.pattern.bits[point_row[p_idx]][line_col[l_idx]] == 0


def test_boolean_square_system():
    sys = parse_poly_system("x1^2 - x1")
    comp = compile_system(sys, seed=1)
    assert len(comp.asserted) == 2  # one equality-to-element assertion
    ok1 = verify_reduction(sys, {"x1": 1}, comp)
    ok0 = verify_reduction(sys, {"x1": 0}, comp)
    bad = verify_reduction(sys, {"x1": 5}, comp)
    assert ok1.accepted and ok0.accepted
    assert not bad.accepted and "equation" in bad.reason


def test_addition_system():
    sys = parse_poly_system("x1 + x2 - x3")
    comp = compile_system(sys, seed=2)
    assert verify_reduction(sys, {"x1": 2, "x2": 3, "x3": 5}, comp).accepted
    assert not verify_reduction(sys, {"x1": 2, "x2": 3, "x3": 6}, comp).accepted


def test_compile_determinism():
    sys = parse_poly_system("x1^2 - x1\nx1 + x2 - 1")
    a = compile_system(sys, seed=5)
    b = compile_system(sys, seed=5)
    assert a.pattern == b.pattern
    assert format_provenance(a) == format_provenance(b)


def _compiled_at_seed_1(text, bits):
    """text compiled with seed 1, hardened with seed 1 at `bits` unless None."""
    sys = parse_poly_system(text)
    if bits is not None:
        sys, _ = harden(sys, seed=1, stand_in_bits=bits)
    return compile_system(sys, seed=1)


@pytest.mark.parametrize(
    "text, bits, digest",
    [
        ("x1^2 - x1", 10, "1612f6e77e0a"),
        ("vars x1 x2\nx1*x2 - 2*x1 + 1\nx1^2 - x1", 16, "6b96fbe2e56b"),
        ("x1\nx1 - 1\nx1^2 - x1", None, "d8c928b4af59"),
    ],
)
def test_provenance_digests_pinned(text, bits, digest):
    """The provenance sidecar's sha256[:12]: element names, assertions and
    construction provenance, all read from the gadget program."""
    text = format_provenance(_compiled_at_seed_1(text, bits))
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == digest


def test_verify_reduction_incidence_failure_text():
    """A pattern zero turned into an incidence fails at both solutions, named
    by element name and index as the provenance sidecar names them."""
    base = parse_poly_system("x1^2 - x1")
    hard, info = harden(base, seed=1, stand_in_bits=10)
    compiled = compile_system(hard, seed=1)
    bits = compiled.pattern.bits.copy()
    r, c = np.argwhere(~bits)[0]
    bits[r, c] = True
    broken = dataclasses.replace(compiled, pattern=IncidencePattern(bits))
    for x in (0, 1):
        got = verify_reduction(hard, info.lift_assignment(base, {"x1": x}), broken)
        assert got == ReductionVerdict(False, "incidence (X#0, OY#5) fails at the assignment")
    assert "R 0 X#0\n" in format_provenance(compiled)
    assert f"C {c} OY#5\n" in format_provenance(compiled)


def test_readme_library_example_accepts_both_solutions():
    """README's library example, at harden's default stand-in size (16 bits,
    as the CLI's --bits): the genuine solutions x1 = 0 and 1 are accepted."""
    sys_ = parse_poly_system("x1^2 - x1")
    hard, info = harden(sys_, seed=1)
    compiled = compile_system(hard, seed=1)
    assert (compiled.pattern.rows, compiled.pattern.cols) == (280, 215)
    for x in (0, 1):
        assert verify_reduction(hard, info.lift_assignment(sys_, {"x1": x}), compiled).accepted


def test_compile_rejects_high_degree():
    sys = PolySystem(("x1",), (poly_from_terms({((0, 3),): 1}),))
    with pytest.raises(Exception):
        compile_system(sys, seed=1)


def test_verify_reduction_missing_variable():
    sys = parse_poly_system("x1 - 1")
    comp = compile_system(sys, seed=1)
    v = verify_reduction(sys, {}, comp)
    assert not v.accepted and "missing" in v.reason


def test_verify_reduction_empty_system():
    empty = PolySystem((), ())
    comp = compile_system(empty, seed=1)
    assert verify_reduction(empty, {}, comp).accepted


def test_hardened_compile_and_verify():
    base = parse_poly_system("x1 + x2 - 1\nx1^2 - x1\nx2^2 - x2")
    hard, info = harden(base, seed=11, stand_in_bits=10)
    comp = compile_system(hard, seed=11)
    for sol in brute_solutions(base):
        lifted = info.lift_assignment(base, sol)
        assert verify_reduction(hard, lifted, comp).accepted
    bad = info.lift_assignment(base, {"x1": 1, "x2": 1})
    assert not verify_reduction(hard, bad, comp).accepted


def test_size_bound_scales_with_bits():
    base = parse_poly_system("x1 + x2 - 1")
    small, _ = harden(base, seed=1, stand_in_bits=6)
    big, _ = harden(base, seed=1, stand_in_bits=12)
    cs = compile_system(small, seed=1)
    cb = compile_system(big, seed=1)
    # element count grows roughly linearly in the coefficient bit-length
    ratio = (cb.pattern.rows + cb.pattern.cols) / (cs.pattern.rows + cs.pattern.cols)
    assert 1.0 < ratio < 4.0


def test_poly_system_text_round_trip():
    sys = parse_poly_system("2*x1*x2 - 3*x3 + 7\nx1^2 - x1")
    text = format_poly_system(sys)
    again = parse_poly_system(text)
    assert again.variables == sys.variables
    assert all(a.terms == b.terms for a, b in zip(again.equations, sys.equations))


# ---- pencil-keyed witness incidences --------------------------------------------
#
# The oracle is the dense sweep the pencil test replaced: every point/line dot
# product mod p in int64, one coordinate at a time, over the whole matrix.


def _dense_mask(points, lines, p=WITNESS_PRIME):
    pts = np.array(points, dtype=np.int64).reshape(-1, 3)
    lns = np.array(lines, dtype=np.int64).reshape(-1, 3)
    dots = np.zeros((len(pts), len(lns)), dtype=np.int64)
    for c in range(3):
        dots = (dots + (pts[:, c][:, None] * lns[:, c][None, :]) % p) % p
    return dots == 0


def _oracle_residue(poly, assignment):
    """One coordinate mod WITNESS_PRIME, term by term with pow per occurrence."""
    acc = 0
    for mono, c in poly.terms.items():
        term = c % WITNESS_PRIME
        for v, e in mono:
            term = term * pow(assignment[v], e, WITNESS_PRIME) % WITNESS_PRIME
        acc = (acc + term) % WITNESS_PRIME
    return acc


def _dense_two_witness_pattern(prog, seed):
    """two_witness_pattern as the dense sweep decides it: (bits, attempts)."""
    points, lines = prog.point_indices(), prog.line_indices()
    for attempt in range(3):
        masks = []
        for w in range(2):
            rng = random.Random(f"witness:{seed}:{attempt}:{w}")
            assignment = {v: rng.randrange(1, WITNESS_PRIME) for v in range(len(prog.variables))}
            triples = [
                [tuple(_oracle_residue(q, assignment) for q in prog.elements[i].coords) for i in idx]
                for idx in (points, lines)
            ]
            masks.append(_dense_mask(*triples))
        if not (masks[0] ^ masks[1]).any():
            bits = masks[0]
            row = {idx: r for r, idx in enumerate(points)}
            col = {idx: c for c, idx in enumerate(lines)}
            for p_idx, l_idx, _ in prog.asserted:
                bits[row[p_idx], col[l_idx]] = True
            return bits, attempt
    return None, None


_TWO_VARIABLES = "vars x1 x2\nx1*x2 - 2*x1 + 1\nx1^2 - x1"


@pytest.mark.parametrize(
    "text, bits",
    [
        ("x1^2 - x1", None),
        (_TWO_VARIABLES, None),
        ("x1 + x2 - 1\nx1^2 - x1\nx2^2 - x2", 10),
        ("x1^2 - x1", 16),
        ("x1^2 - x1", 32),
        (_TWO_VARIABLES, 64),  # 2267 x 1600
    ],
)
def test_pencil_masks_match_dense_sweep_on_compiled_programs(text, bits):
    compiled = _compiled_at_seed_1(text, bits)
    prog = compiled.program
    points, lines = prog.point_indices(), prog.line_indices()
    evaluate = _ResidueEvaluator([prog.elements[i].coords for i in points + lines])
    rng = random.Random(f"pencil-oracle:{text}:{bits}")
    for _ in range(2):
        values = [rng.randrange(1, WITNESS_PRIME) for _ in prog.variables]
        residues = evaluate(values)
        assert residues == [
            tuple(_oracle_residue(q, dict(enumerate(values))) for q in prog.elements[i].coords)
            for i in points + lines
        ]
        pts, lns = residues[: len(points)], residues[len(points) :]
        assert np.array_equal(_incidence_mask(pts, lns), _dense_mask(pts, lns))
    bits_, attempts = _dense_two_witness_pattern(prog, 1)
    assert np.array_equal(compiled.pattern.bits, bits_)
    assert compiled.witness_attempts == attempts


def _all_triples(p):
    return list(itertools.product(range(p), repeat=3))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pencil_mask_matches_dense_sweep_on_every_triple_mod_small_primes(p):
    """Every residue triple as a point and as a line: the zero vector, the
    line at infinity, points at infinity and every pencil with all of its
    lines and its own point at infinity."""
    triples = _all_triples(p)
    assert np.array_equal(_incidence_mask(triples, triples, p), _dense_mask(triples, triples, p))


def _degenerate_triples(rng, p=WITNESS_PRIME):
    """Lines in a few shared pencils at random scales, each pencil's own
    point at infinity, points on those lines, and every degenerate class."""

    def unit():
        return rng.randrange(1, p)

    betas = [0, 1, p - 1, unit(), unit()]
    lines = [(0, 0, 0), (0, 0, unit()), (0, 0, 1), (0, unit(), unit()), (0, 1, 0), (p - 1, p - 1, p - 1)]
    for beta in betas:
        for _ in range(4):
            s, gamma = unit(), rng.randrange(p)
            lines.append((s, s * beta % p, s * gamma % p))
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (p - 1, p - 1, p - 1), (0, unit(), 0)]
    for beta in betas:  # the pencil's point at infinity, (-beta, 1, 0) up to scale
        s = unit()
        points.append(((p - beta) * s % p, s, 0))
    for a, b, c in lines:  # a finite point of each line, at a random scale
        x, y, z, s = rng.randrange(p), rng.randrange(p), unit(), unit()
        if a:
            x = -(b * y + c * z) * pow(a, -1, p) % p
        elif b:
            y = -c * z * pow(b, -1, p) % p
        else:
            continue
        points.append((s * x % p, s * y % p, s * z % p))
    points += [(rng.randrange(p), rng.randrange(p), rng.choice((0, unit()))) for _ in range(20)]
    rng.shuffle(points)
    rng.shuffle(lines)
    return points, lines


def test_pencil_mask_matches_dense_sweep_on_degenerate_triples():
    rng = random.Random(2024)
    for _ in range(20):
        points, lines = _degenerate_triples(rng)
        got = _incidence_mask(points, lines)
        assert np.array_equal(got, _dense_mask(points, lines))
        assert got.any() and not got.all()
    assert _incidence_mask([], [(1, 0, 0)]).shape == (0, 1)
    assert _incidence_mask([(1, 0, 0)], []).shape == (1, 0)
    only_special = [(0, 0, 0), (0, 0, 5)]
    points = [(1, 2, 0), (1, 2, 3), (0, 0, 0)]
    assert np.array_equal(_incidence_mask(points, only_special), _dense_mask(points, only_special))


def test_bits_32_pattern_and_witness_attempts_pinned():
    """At 32 stand-in bits the witness prime meets the stand-in constants
    (the known bits-32 defect of verify_reduction); this is the pattern the
    dense mod-p sweep gave there, byte for byte."""
    compiled = _compiled_at_seed_1("x1^2 - x1", 32)
    text = format_matrix(compiled.pattern.to_tropical())
    assert (compiled.pattern.rows, compiled.pattern.cols) == (538, 404)
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == "a404ddbe62fb"
    assert compiled.witness_attempts == 0


def test_pencil_mask_in_small_chunks(monkeypatch):
    """The key-table gather runs in row chunks of at most _MASK_CHUNK_CELLS
    cells; chunks of one and a few rows give the same mask."""
    rng = random.Random(7)
    points, lines = _degenerate_triples(rng)
    want = _dense_mask(points, lines)
    for cells in (1, len(lines), 3 * len(lines) + 1):
        monkeypatch.setattr(reduction, "_MASK_CHUNK_CELLS", cells)
        assert np.array_equal(_incidence_mask(points, lines), want)
