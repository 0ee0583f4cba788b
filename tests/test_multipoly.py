"""Integer-coefficient polynomials over Q, against the Fraction-coefficient
normalizations they replaced."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from troprank.multipoly import Poly, _divisors, as_coeff, primitive_triple, univariate_roots
from troprank.reduction import poly_from_terms


# ---- oracles: the Fraction-coefficient versions, on {monomial: Fraction} dicts


def _mono_mul(a, b):
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _f_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def _f_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _f_pow(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _f_mul(out, a)
    return out


def _f_coeffs_in(terms, v):
    out = {}
    for m, c in terms.items():
        e = dict(m).get(v, 0)
        rest = tuple((var, x) for var, x in m if var != v)
        bucket = out.setdefault(e, {})
        bucket[rest] = bucket.get(rest, 0) + c
    return {e: {m: c for m, c in t.items() if c != 0} for e, t in out.items()}


def _oracle_primitive(terms):
    if not terms:
        return terms
    lead = max(terms)
    den = lcm(*[c.denominator for c in terms.values()])
    nums = [c.numerator * (den // c.denominator) for c in terms.values()]
    g = 0
    for x in nums:
        g = gcd(g, x)
    scale = Fraction(den, g)
    if terms[lead] < 0:
        scale = -scale
    return {m: c * scale for m, c in terms.items()}


def _oracle_primitive_triple(coords):
    lead = next((t[min(t)] for t in coords if t), None)
    if lead is None:
        return coords
    coeffs = [c for t in coords for c in t.values()]
    den = lcm(*(c.denominator for c in coeffs))
    g = 0
    for c in coeffs:
        g = gcd(g, c.numerator * (den // c.denominator))
    scale = Fraction(den, g) if lead > 0 else Fraction(-den, g)
    return tuple({m: c * scale for m, c in t.items()} for t in coords)


def _oracle_subs_clear(terms, v, num, den):
    buckets = _f_coeffs_in(terms, v)
    d = max(buckets) if buckets else 0
    acc = {}
    for e, coef in buckets.items():
        acc = _f_add(acc, _f_mul(_f_mul(coef, _f_pow(num, e)), _f_pow(den, d - e)))
    return acc


# ---- seeded corpus ------------------------------------------------------------


def _random_terms(rng):
    """{monomial: int}: 1-3 variables, degree <= 3, some zero, some constant."""
    shape = rng.random()
    if shape < 0.1:
        return {}
    if shape < 0.25:
        return {(): rng.choice([-1, 1]) * rng.randint(1, 40)}
    nv = rng.randint(1, 3)
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = {}
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(nv)
            mono[v] = mono.get(v, 0) + 1
        c = rng.choice([-1, 1]) * rng.choice([1, 2, 3, 6, 12, rng.randint(1, 10**6)])
        terms[tuple(sorted(mono.items()))] = c
    return terms


def _corpus(n=300, seed=1301):
    rng = random.Random(seed)
    return rng, [_random_terms(rng) for _ in range(n)]


def _fractions(terms):
    return {m: Fraction(c) for m, c in terms.items()}


def _rendered(terms):
    return Poly(None, dict(terms)).render()


def _all_int(p: Poly) -> bool:
    return all(type(c) is int for c in p.terms.values())


# ---- tests --------------------------------------------------------------------


def test_primitive_matches_fraction_oracle():
    rng, corpus = _corpus()
    for terms in corpus:
        p = poly_from_terms(terms)
        got = p.primitive()
        # The oracle normalizes any rational multiple to the same polynomial.
        r = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 30))
        want = _oracle_primitive({m: c * r for m, c in terms.items()})
        assert got == Poly(None, want), terms
        assert got.render() == _rendered(want)
        assert _all_int(got)


def test_primitive_triple_matches_fraction_oracle():
    rng, corpus = _corpus(seed=1302)
    for _ in range(300):
        coords = tuple(rng.choice(corpus) for _ in range(3))
        got = primitive_triple(tuple(poly_from_terms(t) for t in coords))
        want = _oracle_primitive_triple(tuple(_fractions(t) for t in coords))
        assert got == tuple(Poly(None, t) for t in want), coords
        assert [p.render() for p in got] == [_rendered(t) for t in want]
        assert all(_all_int(p) for p in got)
    zero = (Poly.const(0),) * 3
    assert primitive_triple(zero) == zero


def test_subs_clear_matches_fraction_oracle():
    rng, corpus = _corpus(seed=1303)
    for terms in corpus:
        p = poly_from_terms(terms)
        v = rng.randrange(3)
        num, den = rng.choice(corpus), rng.choice(corpus)
        if not den:
            den = {(): 1}
        got = p.subs_clear(v, poly_from_terms(num), poly_from_terms(den))
        want = _oracle_subs_clear(_fractions(terms), v, _fractions(num), _fractions(den))
        assert got == Poly(None, want), (terms, v, num, den)
        assert got.render() == _rendered(want)
        assert _all_int(got)


def test_rational_value_substitution_is_a_constant_multiple():
    """x := a/b as (num a, den b) is b^deg times the old Fraction substitution
    (num a/b, den 1), so both normalize to the same primitive polynomial."""
    rng, corpus = _corpus(seed=1304)
    for terms in corpus:
        p = poly_from_terms(terms)
        v = rng.randrange(3)
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        got = p.subs_clear(v, Poly.const(r.numerator), Poly.const(r.denominator))
        want = _oracle_subs_clear(_fractions(terms), v, {(): r} if r else {}, {(): Fraction(1)})
        assert got.primitive() == Poly(None, _oracle_primitive(want)), (terms, v, r)
        assert _all_int(got)


def test_subs_clear_common_degree_keeps_the_projective_point():
    """(x, 1, x^2) at x = 1/2 is the point (2, 4, 1); clearing each coordinate
    by its own degree would give (1, 1, 1)."""
    x = Poly.var(0)
    triple = (x, Poly.const(1), x * x)
    num, den = Poly.const(1), Poly.const(2)
    got = tuple(p.subs_clear(0, num, den, 2) for p in triple)
    assert got == (Poly.const(2), Poly.const(4), Poly.const(1))
    assert tuple(p.subs_clear(0, num, den) for p in triple) == (Poly.const(1),) * 3


def test_coefficients_stay_int_under_arithmetic():
    rng, corpus = _corpus(seed=1305)
    for _ in range(300):
        a, b = (poly_from_terms(rng.choice(corpus)) for _ in range(2))
        for p in (a + b, a - b, a * b, -a, a**2, b**3, 3 * a, a - 5, 7 - b):
            assert _all_int(p)
    assert _all_int(Poly.const(Fraction(6, 3)))
    with pytest.raises(ValueError):
        Poly.const(Fraction(1, 2))
    with pytest.raises(ValueError):
        poly_from_terms({(): Fraction(3, 2)})


def test_evaluate_matches_fraction_oracle():
    rng, corpus = _corpus(seed=1306)
    for terms in corpus:
        values = {v: Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3])) for v in range(3)}
        want = Fraction(0)
        for m, c in terms.items():
            term = Fraction(c)
            for v, e in m:
                term *= values[v] ** e
            want += term
        got = poly_from_terms(terms).evaluate(values)
        assert got == want
        if want.denominator == 1 and all(x.denominator == 1 for x in values.values()):
            assert type(got) is int


def test_univariate_roots_are_fractions():
    x = Poly.var(0)
    cases = [
        (2 * x - 3, [Fraction(3, 2)]),
        (-4 * x + 2, [Fraction(1, 2)]),
        ((2 * x - 3) * (3 * x + 1), [Fraction(-1, 3), Fraction(3, 2)]),
        ((2 * x - 1) * (2 * x - 1), [Fraction(1, 2)]),
        (x * x + 1, []),
        (2 * x * x - 1, []),
        ((2 * x - 3) * (x + 5) * (4 * x - 1), [Fraction(-5), Fraction(1, 4), Fraction(3, 2)]),
        (x * (3 * x - 2) * (x + 1), [Fraction(-1), Fraction(0), Fraction(2, 3)]),
        (x**3 - 2, []),
    ]
    for poly, want in cases:
        got = univariate_roots(poly, 0)
        assert got == want, poly
        assert all(type(r) is Fraction for r in got), (poly, got)


def test_divisors_reach_their_limit():
    """Trial division up to 10**6 factors every n up to 10**12: the largest
    prime below it, a square of a prime near 10**6 and a product of two."""
    assert _divisors(999_999_999_989) == [1, 999_999_999_989]
    assert _divisors(999_983**2) == [1, 999_983, 999_983**2]
    assert _divisors(999_983 * 1_000_003) == [1, 999_983, 1_000_003, 999_983 * 1_000_003]
    assert _divisors(10**12 + 39) is None  # above the limit


def test_cubic_with_a_large_prime_constant_has_no_rational_root():
    # The candidates are +-1 and +-999999999989; none is a root.
    x = Poly.var(0)
    assert univariate_roots(x**3 - Poly.const(999_999_999_989), 0) == []


def test_univariate_roots_over_gf_p_enumerates_the_field():
    x = Poly.var(0, 5)
    assert univariate_roots(x * x - Poly.const(4, 5), 0) == [2, 3]
    assert as_coeff(5, Fraction(1, 2)) == 3


def _reduced(terms, p):
    """An oracle term dict as a Poly over Q (p None) or GF(p) holds it."""
    if p is not None:
        terms = {m: c % p for m, c in terms.items()}
    return {m: c for m, c in terms.items() if c != 0}


@pytest.mark.parametrize("p", [None, 2, 7])
def test_zero_and_unit_fast_paths_match_the_general_path(p):
    """+, -, * and _scale with a zero or unit operand (a Poly or an int) give
    what term-by-term arithmetic gives, and never change an operand."""
    rng, corpus = _corpus(n=120, seed=1307)
    special = [{}, {(): 1}, {(): -1}]
    ints = [0, 1, -1, 2, 5] + ([p, p + 1] if p else [])
    for _ in range(300):
        ta = rng.choice(corpus + special * 20)
        tb = rng.choice(corpus + special * 20)
        a, b = Poly(p, _reduced(ta, p)), Poly(p, _reduced(tb, p))
        before = (dict(a.terms), dict(b.terms))
        fa, fb = dict(a.terms), dict(b.terms)
        neg_b = {m: -c for m, c in fb.items()}
        assert (a + b).terms == _reduced(_f_add(fa, fb), p)
        assert (a - b).terms == _reduced(_f_add(fa, neg_b), p)
        assert (b - a).terms == _reduced(_f_add(fb, {m: -c for m, c in fa.items()}), p)
        assert (a * b).terms == _reduced(_f_mul(fa, fb), p)
        for k in ints:
            fk = {(): k} if k else {}
            assert (a + k).terms == (k + a).terms == _reduced(_f_add(fa, fk), p)
            assert (a - k).terms == _reduced(_f_add(fa, {(): -k} if k else {}), p)
            assert (k - a).terms == _reduced(_f_add(fk, {m: -c for m, c in fa.items()}), p)
            assert (a * k).terms == (k * a).terms == _reduced(_f_mul(fa, fk), p)
            if (k if p is None else k % p) != 0:
                assert a._scale(k).terms == _reduced({m: c * k for m, c in fa.items()}, p)
        for n in range(4):
            assert (a**n).terms == _reduced(_f_pow(fa, n), p)
        assert (a.terms, b.terms) == before


@pytest.mark.parametrize("p", [None, 3, 5])
def test_primitive_triple_reads_ints_as_constants(p):
    """A triple with int entries normalizes as the triple of constant Polys
    does, and its ints come back ints."""
    rng, corpus = _corpus(n=120, seed=1308)
    for _ in range(400):
        triple = []
        for _ in range(3):
            if rng.random() < 0.5:
                c = rng.choice([0, 0, 1, -1, 2, -6, 12, rng.randint(-10**6, 10**6)])
                triple.append(c if p is None else c % p)
            else:
                triple.append(Poly(p, _reduced(rng.choice(corpus), p)))
        polys = tuple(x if isinstance(x, Poly) else Poly.const(x, p) for x in triple)
        got = primitive_triple(tuple(triple), p)
        want = primitive_triple(polys, p)
        for x, g, w in zip(triple, got, want):
            if isinstance(x, Poly):
                assert g == w
            else:
                assert type(g) is int and w.is_constant() and g == w.constant_value()
