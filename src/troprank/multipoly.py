"""Sparse multivariate polynomials over Q or GF(p) for small constraint systems.

Monomials are sorted tuples of (variable, exponent) pairs; coefficients are
Python ints: integers over Q (field None), canonical residues mod p over
GF(p).  The engines only ever need a polynomial over Q up to a nonzero
constant factor, so a rational never enters one: a rational value x = num/den
is substituted with the denominator-clearing substitution, which multiplies
through by den^deg_x(P) and preserves vanishing as long as den is nonzero.
Rationals appear only as values: the roots univariate_roots returns and the
results of evaluate at rational points.

A Poly is never changed after it is built, so an operation may return an
operand: adding or subtracting zero, and multiplying or scaling by one,
return it unchanged, and an int operand is read as a constant without
building a Fraction.  primitive_triple also takes int entries, as constants:
the exact realize engine keeps every constant coordinate as a plain int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt


def as_coeff(field, c):
    """c (an int or a Fraction) as a coefficient: an int over Q (field None),
    where c must be integral, or the int num * den^-1 mod p over GF(p)."""
    num, den = int(c.numerator), int(c.denominator)
    if den == 1:
        return num if field is None else num % field
    if field is None:
        raise ValueError(f"polynomials over Q take integer coefficients, got {c}")
    return num * pow(den, -1, field) % field


def _value(field, x):
    """An assigned value in the form evaluate computes with: an int when it is
    integral (over GF(p), always), else the Fraction itself."""
    if field is not None:
        return as_coeff(field, x)
    return x.numerator if x.denominator == 1 else x


def _mono_mul(a, b):
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _content(coeffs, lead):
    """The integer content of nonzero coefficients, signed like lead."""
    g = gcd(*coeffs)
    return -g if lead < 0 else g


class Poly:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = terms  # dict monomial -> nonzero int coeff

    @staticmethod
    def const(c, field=None) -> "Poly":
        c = as_coeff(field, c)
        return Poly(field, {(): c} if c != 0 else {})

    @staticmethod
    def var(v: int, field=None) -> "Poly":
        return Poly(field, {((v, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and () in terms)

    def constant_value(self):
        return self.terms.get((), 0)

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

    def _scale(self, k):
        """k * self for a nonzero int k (a unit mod p over GF(p))."""
        if k == 1:
            return self
        if self.field is None:
            return Poly(None, {m: c * k for m, c in self.terms.items()})
        return Poly(self.field, {m: c * k % self.field for m, c in self.terms.items()})

    def __add__(self, other):
        other = self._lift(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._make(out)

    def __sub__(self, other):
        other = self._lift(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return self._make(out)

    def __neg__(self):
        return self._scale(-1)

    def __mul__(self, other):
        if type(other) is int:
            if self.field is not None:
                other %= self.field
            return self._scale(other) if other and self.terms else Poly(self.field, {})
        other = self._lift(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly(self.field, {})
        if len(b) == 1 and () in b:
            return self._scale(b[()])
        if len(a) == 1 and () in a:
            return other._scale(a[()])
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return self._make(out)

    def _lift(self, other) -> "Poly":
        if type(other) is Poly:
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        if type(other) is int:
            if self.field is not None:
                other %= self.field
            return Poly(self.field, {(): other} if other else {})
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

    def degree_in(self, v: int) -> int:
        return max((e for m in self.terms for var, e in m if var == v), default=0)

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

    def subs_clear(self, v: int, num: "Poly", den: "Poly", degree=None) -> "Poly":
        """den^d * P with x := num/den: vanishing-equivalent when den != 0.

        d is deg_v(P) unless degree (at least that) is given; callers that
        substitute into the coordinates of one projective point pass the
        largest degree among them, so every coordinate gets the same factor.
        """
        buckets = self.coeffs_in(v)
        d = max(buckets, default=0) if degree is None else degree
        acc = Poly.const(0, self.field)
        for e, coef in buckets.items():
            acc = acc + coef * (num**e) * (den ** (d - e))
        return acc

    def evaluate(self, assignment: dict):
        """Full evaluation; assignment must cover every variable present.

        Over Q the values may be ints or Fractions; the result is an int when
        every value read is integral, else a Fraction."""
        field = self.field
        vals = {}
        acc = 0
        for m, c in self.terms.items():
            for var, e in m:
                x = vals.get(var)
                if x is None:
                    x = vals[var] = _value(field, assignment[var])
                c = c * x**e
            acc = acc + c
        return acc if field is None else acc % field

    def primitive(self) -> "Poly":
        """Canonical scalar multiple: content 1 and positive leading sign over
        Q; leading coefficient 1 over GF(p).  Leading = lexicographically
        greatest monomial."""
        if not self.terms:
            return self
        lead = self.terms[max(self.terms)]
        if self.field is None:
            g = _content(self.terms.values(), lead)
            return self if g == 1 else Poly(None, {m: c // g for m, c in self.terms.items()})
        return self._scale(pow(lead, -1, self.field))

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
    """Scale a triple by one nonzero constant to a canonical form.

    Each entry is a Poly or an int; an int stands for the constant Poly of
    that value (over GF(p) it must be a residue 0..p-1) and comes back an int.
    The lead coefficient is that of the first sorted monomial of the first
    nonzero entry.  Over Q the result has content 1 and a positive lead; over
    GF(p) the lead is 1.  An all-zero triple comes back unchanged.
    """
    lead = None
    for x in coords:
        if type(x) is int:
            if x:
                lead = x
                break
        elif x.terms:
            lead = x.terms[min(x.terms)]
            break
    if lead is None:
        return coords
    if field is not None:
        inv = pow(lead, -1, field)
        if inv == 1:
            return tuple(coords)
        return tuple(x * inv % field if type(x) is int else x._scale(inv) for x in coords)
    g = _content([c for x in coords for c in ((x,) if type(x) is int else x.terms.values())], lead)
    if g == 1:
        return tuple(coords)
    return tuple(x // g if type(x) is int else Poly(None, {m: c // g for m, c in x.terms.items()}) for x in coords)


def univariate_roots(poly: Poly, v: int):
    """All roots of a univariate polynomial in v over its field.

    Returns a complete list (Fractions over Q, ints over GF(p)), or None when
    completeness cannot be certified (large-coefficient rational root
    search).  GF(p) enumerates the field.
    """
    buckets = poly.coeffs_in(v)
    if any(not c.is_constant() for c in buckets.values()):
        raise ValueError("polynomial is not univariate in the given variable")
    deg = max(buckets)
    coeffs = [buckets[e].constant_value() if e in buckets else 0 for e in range(deg + 1)]
    if poly.field is not None:
        p = poly.field
        return [x for x in range(p) if _eval_univ(coeffs, x, p) == 0]
    return _rational_roots(coeffs)


def _rational_roots(coeffs):
    """Rational roots of sum coeffs[e] x^e (ints, nonzero lead), or None."""
    deg = len(coeffs) - 1
    if deg == 1:
        return [Fraction(-coeffs[0], coeffs[1])]
    if deg == 2:
        a, b, c = coeffs[2], coeffs[1], coeffs[0]
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        root = isqrt(disc)
        if root * root != disc:
            return []
        return sorted({Fraction(-b + root, 2 * a), Fraction(-b - root, 2 * a)})
    if coeffs[0] == 0:
        sub = _rational_roots(coeffs[1:])
        if sub is None:
            return None
        return sorted(set([Fraction(0)] + sub))
    # Rational root theorem: any root p/q satisfies p | A_0 and q | A_n.
    num_divs = _divisors(abs(coeffs[0]))
    den_divs = _divisors(abs(coeffs[-1]))
    if num_divs is None or den_divs is None:
        return None
    roots = set()
    for a in num_divs:
        for b in den_divs:
            for cand in (Fraction(a, b), Fraction(-a, b)):
                if _eval_univ(coeffs, cand, None) == 0:
                    roots.add(cand)
    return sorted(roots)


def _eval_univ(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if p is not None:
            acc %= p
    return acc


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
    if m > 1:
        divs = [d * b for d in divs for b in (1, m)]
    return sorted(set(divs))
