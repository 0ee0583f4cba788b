"""Sparse multivariate polynomials over Q or GF(p) for small constraint systems.

Monomials are sorted tuples of (variable, exponent) pairs; coefficients are
Fractions over Q (field None) or canonical ints mod p.  The only nonstandard
operation is the denominator-clearing substitution used by the realization
engine: substituting x = num/den into P multiplies through by den^deg_x(P),
which preserves vanishing as long as den is nonzero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def as_coeff(field, c):
    """c as a Fraction over Q (field None), or as an int mod p (num * den^-1 for a Fraction)."""
    if field is None:
        return c if isinstance(c, Fraction) else Fraction(c)
    if isinstance(c, Fraction):
        return (c.numerator * pow(c.denominator, -1, field)) % field
    return int(c) % field


def _mono_mul(a, b):
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


class Poly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = terms  # dict monomial -> nonzero coeff

    @staticmethod
    def const(c, field=None) -> "Poly":
        c = as_coeff(field, c)
        return Poly(field, {(): c} if c != 0 else {})

    @staticmethod
    def var(v: int, field=None) -> "Poly":
        return Poly(field, {((v, 1),): as_coeff(field, 1)})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self):
        return self.terms.get((), as_coeff(self.field, 0))

    def variables(self):
        seen = set()
        for m in self.terms:
            for v, _ in m:
                seen.add(v)
        return seen

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def _make(self, terms):
        if self.field is not None:
            terms = {m: c % self.field for m, c in terms.items()}
        return Poly(self.field, {m: c for m, c in terms.items() if c != 0})

    def __add__(self, other):
        other = self._lift(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._make(out)

    def __sub__(self, other):
        other = self._lift(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return self._make(out)

    def __neg__(self):
        return self._make({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = self._lift(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return self._make(out)

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        return Poly.const(other, self.field)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._lift(other) - self

    def __pow__(self, n: int):
        out = Poly.const(1, self.field)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def coeffs_in(self, v: int) -> dict:
        """Exponent of v -> Poly coefficient in the remaining variables."""
        out = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for var, exp in m:
                if var == v:
                    e = exp
                else:
                    rest.append((var, exp))
            key = tuple(rest)
            bucket = out.setdefault(e, {})
            bucket[key] = bucket.get(key, 0) + c
        return {e: Poly(self.field, {m: c for m, c in t.items() if c != 0}) for e, t in out.items()}

    def subs_poly(self, v: int, replacement: "Poly") -> "Poly":
        """Substitute a polynomial for variable v."""
        buckets = self.coeffs_in(v)
        acc = Poly.const(0, self.field)
        for e, coef in buckets.items():
            acc = acc + coef * (replacement**e)
        return acc

    def subs_clear(self, v: int, num: "Poly", den: "Poly") -> "Poly":
        """den^deg * P with x := num/den: vanishing-equivalent when den != 0."""
        buckets = self.coeffs_in(v)
        d = max(buckets) if buckets else 0
        acc = Poly.const(0, self.field)
        for e, coef in buckets.items():
            acc = acc + coef * (num**e) * (den ** (d - e))
        return acc

    def evaluate(self, assignment: dict):
        """Full evaluation; assignment must cover every variable present."""
        acc = as_coeff(self.field, 0)
        for m, c in self.terms.items():
            term = c
            for var, e in m:
                x = as_coeff(self.field, assignment[var])
                for _ in range(e):
                    term = term * x
            acc = acc + term
        return acc if self.field is None else acc % self.field

    def primitive(self) -> "Poly":
        """Canonical scalar multiple: content 1 and positive leading sign over
        Q; leading coefficient 1 over GF(p).  Leading = lexicographically
        greatest monomial."""
        if not self.terms:
            return self
        lead = max(self.terms)
        if self.field is None:
            den = lcm(*[c.denominator for c in self.terms.values()])
            nums = [c.numerator * (den // c.denominator) for c in self.terms.values()]
            g = 0
            for x in nums:
                g = gcd(g, x)
            scale = Fraction(den, g)
            if self.terms[lead] < 0:
                scale = -scale
            return Poly(None, {m: c * scale for m, c in self.terms.items()})
        inv = pow(self.terms[lead], -1, self.field)
        return Poly(self.field, {m: (c * inv) % self.field for m, c in self.terms.items()})

    def render(self, names=None) -> str:
        if not self.terms:
            return "0"
        def var_name(v):
            return names[v] if names else f"p{v}"
        parts = []
        for m in sorted(self.terms, reverse=True):
            c = self.terms[m]
            factors = [
                var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in m
            ]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.render()})"


def primitive_triple(coords, field=None):
    """Scale a triple of Polys by one nonzero constant to a canonical form.

    The lead coefficient is that of the first sorted monomial of the first
    nonzero entry.  Over Q the result has integer coefficients with content 1
    and a positive lead; over GF(p) the lead is 1.  An all-zero triple comes
    back unchanged.
    """
    lead = next((p.terms[min(p.terms)] for p in coords if p.terms), None)
    if lead is None:
        return coords
    if field is not None:
        inv = pow(lead, -1, field)
        return tuple(
            Poly(field, {m: (c * inv) % field for m, c in p.terms.items()}) for p in coords
        )
    coeffs = [c for p in coords for c in p.terms.values()]
    den = lcm(*(c.denominator for c in coeffs))
    g = 0
    for c in coeffs:
        g = gcd(g, c.numerator * (den // c.denominator))
    scale = Fraction(den, g) if lead > 0 else Fraction(-den, g)
    return tuple(Poly(None, {m: c * scale for m, c in p.terms.items()}) for p in coords)


def univariate_roots(poly: Poly, v: int):
    """All roots of a univariate polynomial in v over its field.

    Returns a complete list, or None when completeness cannot be certified
    (large-coefficient rational root search).  GF(p) enumerates the field.
    """
    buckets = poly.coeffs_in(v)
    if any(not c.is_constant() for c in buckets.values()):
        raise ValueError("polynomial is not univariate in the given variable")
    deg = max(buckets)
    coeffs = [buckets.get(e, Poly.const(0, poly.field)).constant_value() for e in range(deg + 1)]
    if poly.field is not None:
        p = poly.field
        return [x for x in range(p) if _eval_univ(coeffs, x, p) == 0]
    if deg == 1:
        return [-coeffs[0] / coeffs[1]]
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        root = _fraction_sqrt(disc)
        if root is None:
            return []
        out = [(-b + root) / (2 * a), (-b - root) / (2 * a)]
        return sorted(set(out))
    # Rational root theorem; complete when both ends factor quickly.
    lead = coeffs[-1]
    const = coeffs[0]
    if const == 0:
        shifted = {e - 1: c for e, c in enumerate(coeffs) if e > 0}
        rest = [shifted.get(e, Fraction(0)) for e in range(deg)]
        sub = univariate_roots(_poly_from_univ(rest, v), v)
        if sub is None:
            return None
        return sorted(set([Fraction(0)] + sub))
    # Clear all denominators first: any rational root p/q of the integer
    # polynomial satisfies p | A_0 and q | A_n.
    scale = lcm(*[c.denominator for c in coeffs])
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    num_divs = _divisors(abs(ints[0]))
    den_divs = _divisors(abs(ints[-1]))
    if num_divs is None or den_divs is None:
        return None
    roots = set()
    for a in num_divs:
        for b in den_divs:
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if _eval_univ(coeffs, cand, None) == 0:
                    roots.add(cand)
    return sorted(roots)


def _poly_from_univ(coeffs, v):
    terms = {}
    for e, c in enumerate(coeffs):
        if c != 0:
            terms[((v, e),) if e else ()] = Fraction(c)
    return Poly(None, terms)


def _eval_univ(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if p is not None:
            acc %= p
    return acc


def _fraction_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _divisors(n: int, limit: int = 10**12):
    """All positive divisors, or None when n is too hard to factor quickly."""
    if n == 0:
        return None
    if n > limit:
        return None
    divs = [1]
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            powers = []
            while m % f == 0:
                m //= f
                powers.append(f)
            acc = 1
            block = []
            for _ in powers:
                acc *= f
                block.append(acc)
            divs = [d * b for d in divs for b in [1] + block]
        f += 1 if f == 2 else 2
        if f > 10**6:
            return None
    if m > 1:
        divs = [d * b for d in divs for b in (1, m)]
    return sorted(set(divs))
