"""Exact coefficient rings: Z/m (m a prime or prime square), GF(p^k), and Q.

A ring object is an immutable, hashable description of the arithmetic; the
element payloads are plain Python values (int for Z/m, tuple of int for
GF(p^k), fractions.Fraction for Q).  Containers (polynomials, operators)
carry the ring and refuse to mix payloads from different rings.

GF(p^k) is F_p[t]/(modulus) with a primitive modulus (a Conway polynomial
from ``extension_field``): every nonzero element is a power of t, so one
cached table of those powers and their logarithms gives products, inverses
and the primitivity test (Zech logarithms).

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
        if gcd(q.denominator, self.modulus) != 1:
            raise NotUnit(f"denominator {q.denominator} is not a unit in Z/{self.modulus}")
        return self.mul(q.numerator, pow(q.denominator, -1, self.modulus))

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
    """GF(p^k) as F_p[t]/(modulus); elements are coefficient tuples of length k.

    The modulus must be primitive: t must generate the multiplicative group.
    Products and inverses then read one table of the powers 1, t, ..., t^(q-2)
    (q = p^k) and its inverse, the logarithm of each nonzero element; the
    table is built once per modulus and shared by every instance.
    """

    p: int
    k: int
    modulus: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        exp, log = _power_table(self.p, self.modulus)
        if len(exp) != self.size - 1:
            raise ValueError(f"t is not primitive modulo {self.modulus} over F_{self.p}")
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)

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
        if not (any(a) and any(b)):
            return self.zero()
        return self._exp[(self._log[a] + self._log[b]) % len(self._exp)]

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero(f"cannot invert 0 in GF({self.p}^{self.k})")
        return self._exp[-self._log[a]]

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

    def format_value(self, a, symmetric=False):
        return str(a)


QQ = Rationals()


@lru_cache(maxsize=None)
def _power_table(p, modulus):
    """The powers 1, t, t^2, ... of t in F_p[t]/(modulus), in order up to the
    first zero or repeat, and their logarithms {t^i: i}.

    There are p^k - 1 powers exactly when t generates the multiplicative
    group; since such an element exists only in a field, that also certifies
    that the modulus is irreducible.
    """
    log = {}
    a = (1,) + (0,) * (len(modulus) - 2)
    while any(a) and a not in log:
        log[a] = len(log)
        # a*t: shift up one degree, then reduce t^k by the monic modulus
        a = tuple((low - a[-1] * m) % p for low, m in zip((0,) + a[:-1], modulus))
    return tuple(log), log


def _t_is_primitive(p, modulus):
    return len(_power_table(p, modulus)[0]) == p ** (len(modulus) - 1) - 1


@lru_cache(maxsize=None)
def _conway_polynomial(p, k):
    """The Conway polynomial of GF(p^k) for k in {2, 3}, ascending coefficients.

    Its constant term is (-1)^k * g, g the least primitive root mod p (the
    only compatibility condition, as F_p is the only proper subfield); among
    the primitive monic polynomials with that constant term it is the least
    under the key ((-1)^i * a_(k-i) mod p, i = 1..k).
    """
    # g is primitive iff t generates F_p[t]/(t - g)
    g = next(g for g in range(1, p) if _t_is_primitive(p, (-g % p, 1)))
    for key in product(range(p), repeat=k - 1):
        high = [(-1) ** i * c % p for i, c in enumerate(key, start=1)]
        modulus = ((-1) ** k * g % p,) + tuple(reversed(high)) + (1,)
        if _t_is_primitive(p, modulus):
            return modulus
    raise AssertionError(f"no primitive polynomial of degree {k} over F_{p}")


def extension_field(p, k):
    """GF(p^k) for k in 1..3, modulo the Conway polynomial; the degree-1
    extension is Z/p itself."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k == 1:
        return Zmod(p)
    if k not in (2, 3):
        raise ValueError(f"extension degree {k} outside 1..3")
    return GaloisField(p, k, _conway_polynomial(p, k))
