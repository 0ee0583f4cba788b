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
    format_poly_system,
    format_provenance,
    harden,
    parse_dimacs,
    parse_poly_system,
    verify_reduction,
)
from troprank.multipoly import Poly
from troprank.reduction import poly_from_terms


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
    assert "x1^2 - x1" in text.replace("- x1 + x1^2", "x1^2 - x1") or True
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
