"""Table-driven arithmetic for small Galois fields GF(q), q = p^d.

Elements are integers 0..q-1 encoding little-endian base-p coefficient
vectors; extension fields reduce modulo the lexicographically smallest monic
irreducible of degree d (leading coefficient first in the comparison, i.e.
ascending integer encoding of the low coefficients).
"""

from __future__ import annotations

from functools import lru_cache


SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)


class UnsupportedOrder(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_power(q: int):
    """(p, d) with q = p^d, or None."""
    for p in range(2, q + 1):
        if not is_prime(p):
            continue
        d = 0
        m = q
        while m % p == 0:
            m //= p
            d += 1
        if m == 1 and d >= 1:
            return p, d
    return None


def _digits(n: int, p: int, width: int):
    out = []
    for _ in range(width):
        out.append(n % p)
        n //= p
    return out


def _poly_eval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


class GaloisField:
    """GF(p^d) with full add/mul/inv tables (q <= 13 keeps them tiny)."""

    def __init__(self, q: int):
        if q not in SUPPORTED_ORDERS:
            raise UnsupportedOrder(f"order {q} is not a supported prime power")
        p, d = _prime_power(q)
        self.q = q
        self.p = p
        self.d = d
        self.modulus = self._pick_modulus()
        self._add = [[0] * q for _ in range(q)]
        self._mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                self._add[a][b] = self._poly_add(a, b)
                self._mul[a][b] = self._poly_mul(a, b)
        self._neg = [next(b for b in range(q) if self._add[a][b] == 0) for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)

    def _pick_modulus(self):
        """Monic irreducible of degree d, smallest by coefficient sequence.

        Degree <= 3 over a prime field: irreducibility == having no root.
        """
        if self.d == 1:
            return (0, 1)  # linear placeholder; arithmetic is plain mod p
        assert self.d <= 3
        for enc in range(self.p**self.d):
            coeffs = _digits(enc, self.p, self.d) + [1]
            if all(_poly_eval(coeffs, x, self.p) != 0 for x in range(self.p)):
                return tuple(coeffs)
        raise RuntimeError("no irreducible modulus found")

    def _poly_add(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a + b) % self.p
        da = _digits(a, self.p, self.d)
        db = _digits(b, self.p, self.d)
        out = 0
        for t in range(self.d - 1, -1, -1):
            out = out * self.p + (da[t] + db[t]) % self.p
        return out

    def _poly_mul(self, a: int, b: int) -> int:
        if self.d == 1:
            return (a * b) % self.p
        da = _digits(a, self.p, self.d)
        db = _digits(b, self.p, self.d)
        prod = [0] * (2 * self.d - 1)
        for s in range(self.d):
            for t in range(self.d):
                prod[s + t] = (prod[s + t] + da[s] * db[t]) % self.p
        # Reduce modulo the monic modulus.
        for top in range(len(prod) - 1, self.d - 1, -1):
            c = prod[top]
            if c == 0:
                continue
            prod[top] = 0
            for t in range(self.d):
                prod[top - self.d + t] = (prod[top - self.d + t] - c * self.modulus[t]) % self.p
        out = 0
        for t in range(self.d - 1, -1, -1):
            out = out * self.p + prod[t]
        return out

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a Galois field")
        return self._inv[a]

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self._add[acc][self._mul[a][b]]
        return acc

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(q: int) -> GaloisField:
    return GaloisField(q)
