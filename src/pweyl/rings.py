"""Exact coefficient rings: Z/m (m a prime or prime square), GF(p^k), and Q.

A ring object is a stateless, hashable description of the arithmetic; the
element payloads are plain Python values (int for Z/m, tuple of int for
GF(p^k), fractions.Fraction for Q).  Containers (polynomials, operators)
carry the ring and refuse to mix payloads from different rings.

Canonical representatives: Z/m values always live in [0, m); rationals are
Fraction instances, hence always in lowest terms with positive denominator;
GF(p^k) values are coefficient tuples of length k with entries in [0, p).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import DivisionByZero, NotUnit


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Zmod:
    """The ring Z/m with values stored as integers in [0, m)."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")

    @property
    def is_field(self):
        return is_prime(self.modulus)

    @property
    def characteristic(self):
        return self.modulus

    @property
    def size(self):
        return self.modulus

    def zero(self):
        return 0

    def one(self):
        return 1 % self.modulus

    def from_int(self, k):
        return k % self.modulus

    def from_fraction(self, q):
        q = Fraction(q)
        den = q.denominator % self.modulus
        return self.mul(q.numerator % self.modulus, self.inv(den))

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return (a + b) % self.modulus

    def sub(self, a, b):
        return (a - b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def inv(self, a):
        a %= self.modulus
        if a == 0:
            raise DivisionByZero(f"cannot invert 0 in Z/{self.modulus}")
        if gcd(a, self.modulus) != 1:
            raise NotUnit(f"{a} is not a unit in Z/{self.modulus}")
        return pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def element_from_index(self, i):
        return i % self.modulus

    def from_base(self, a):
        """Identity embedding; the prime field is its own degree-1 extension."""
        return a % self.modulus

    def format_value(self, a, symmetric=False):
        a %= self.modulus
        if symmetric and a > self.modulus // 2:
            return str(a - self.modulus)
        return str(a)


@dataclass(frozen=True)
class GaloisField:
    """GF(p^k) as F_p[t]/(modulus); elements are coefficient tuples of length k."""

    p: int
    k: int
    modulus: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")

    @property
    def is_field(self):
        return True

    @property
    def characteristic(self):
        return self.p

    @property
    def size(self):
        return self.p**self.k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def from_int(self, c):
        return (c % self.p,) + (0,) * (self.k - 1)

    def from_fraction(self, q):
        q = Fraction(q)
        den = q.denominator % self.p
        if den == 0:
            raise NotUnit(f"denominator {q.denominator} vanishes in GF({self.p}^{self.k})")
        num = (q.numerator * pow(den, -1, self.p)) % self.p
        return self.from_int(num)

    def from_base(self, a):
        return self.from_int(a)

    def is_zero(self, a):
        return all(c == 0 for c in a)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic modulus
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(self.k):
                    prod[d - self.k + j] = (prod[d - self.k + j] - c * self.modulus[j]) % self.p
        return tuple(prod[: self.k])

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero(f"cannot invert 0 in GF({self.p}^{self.k})")
        # extended Euclid in F_p[t] on (modulus, a)
        p = self.p

        def poly_trim(v):
            while v and v[-1] == 0:
                v.pop()
            return v

        def poly_divmod(u, v):
            u = u[:]
            q = [0] * max(1, len(u) - len(v) + 1)
            inv_lead = pow(v[-1], -1, p)
            while len(u) >= len(v) and poly_trim(u):
                d = len(u) - len(v)
                c = (u[-1] * inv_lead) % p
                q[d] = c
                for j in range(len(v)):
                    u[d + j] = (u[d + j] - c * v[j]) % p
                poly_trim(u)
            return q, u

        r0, r1 = list(self.modulus), poly_trim(list(a))
        s0, s1 = [0], [1]
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, poly_trim(r)
            # s0 - q*s1
            ns = s0[:]
            ns += [0] * (len(q) + len(s1) - 1 - len(ns))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        ns[i + j] = (ns[i + j] - qc * sc) % p
            s0, s1 = s1, poly_trim(ns)
        if len(r0) != 1:
            raise NotUnit("element shares a factor with the modulus")
        c = pow(r0[0], -1, p)
        out = [(x * c) % p for x in s0]
        out += [0] * (self.k - len(out))
        return tuple(out[: self.k])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def element_from_index(self, i):
        i %= self.size
        digits = []
        for _ in range(self.k):
            digits.append(i % self.p)
            i //= self.p
        return tuple(digits)

    def format_value(self, a, symmetric=False):
        if all(c == 0 for c in a[1:]):
            return str(a[0])
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "(" + " + ".join(parts) + ")"


@dataclass(frozen=True)
class Rationals:
    """The rational numbers, with fractions.Fraction payloads."""

    @property
    def is_field(self):
        return True

    @property
    def characteristic(self):
        return 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, q):
        return Fraction(q)

    def is_zero(self, a):
        return a == 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("cannot invert 0 in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a * self.inv(b)

    def format_value(self, a, symmetric=False):
        return str(a)


QQ = Rationals()


def _prime_factors(m):
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


def _is_primitive(K):
    """Whether t generates the multiplicative group of K = F_p[t]/(modulus).

    An element of order p^k - 1 exists only when the quotient is a field, so
    this also certifies that the modulus is irreducible."""

    def power(a, e):
        acc = K.one()
        while e:
            if e & 1:
                acc = K.mul(acc, a)
            a = K.mul(a, a)
            e >>= 1
        return acc

    order = K.size - 1
    t = (0, 1) + (0,) * (K.k - 2)
    return power(t, order) == K.one() and all(
        power(t, order // q) != K.one() for q in _prime_factors(order)
    )


@lru_cache(maxsize=None)
def _conway_polynomial(p, k):
    """The Conway polynomial of GF(p^k) for k in {2, 3}, ascending coefficients.

    Its constant term is (-1)^k * g, g the least primitive root mod p (the
    only compatibility condition, as F_p is the only proper subfield); among
    the primitive monic polynomials with that constant term it is the least
    under the key ((-1)^i * a_(k-i) mod p, i = 1..k).
    """
    factors = _prime_factors(p - 1)
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    for key in product(range(p), repeat=k - 1):
        high = [(-1) ** i * c % p for i, c in enumerate(key, start=1)]
        modulus = ((-1) ** k * g % p,) + tuple(reversed(high)) + (1,)
        if _is_primitive(GaloisField(p, k, modulus)):
            return modulus
    raise AssertionError(f"no primitive polynomial of degree {k} over F_{p}")


def extension_field(p, k):
    """GF(p^k) for k in 1..3, modulo the Conway polynomial; the degree-1
    extension is Z/p itself."""
    if k == 1:
        return Zmod(p)
    if k not in (2, 3):
        raise ValueError(f"extension degree {k} outside 1..3")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return GaloisField(p, k, _conway_polynomial(p, k))
