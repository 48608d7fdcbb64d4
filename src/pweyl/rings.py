"""Exact coefficient rings: Z/m (m a prime or prime square), GF(p^k), and Q.

A ring object is an immutable, hashable description of the arithmetic; the
element payloads are plain Python values (int for Z/m and for GF(p^k),
fractions.Fraction for Q).  Containers (polynomials, operators) carry the
ring and refuse to mix payloads from different rings.

GF(p^k) is F_p[t]/(modulus) with a primitive modulus (a Conway polynomial
from ``extension_field``): every nonzero element is a power of t, and is
stored by its logarithm, so products and inverses are int arithmetic and a
sum is one lookup in the Zech table of 1 + t^d (Zech logarithms).

Canonical representatives: Z/m values always live in [0, m); rationals are
Fraction instances, hence always in lowest terms with positive denominator;
GF(p^k) values are ints in [0, p^k), 0 for zero and 1 + i for t^i.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .errors import DivisionByZero, NotUnit

# the first 13 primes: a composite below _MILLER_RABIN_BOUND is a strong
# pseudoprime to at most some of them (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n):
    """Whether the int n is prime, exactly: deterministic Miller-Rabin with
    the first 13 primes as witnesses.  An n with a factor among them is
    answered by that factor; any other n at or above ``_MILLER_RABIN_BOUND``
    (about 3.3e24), where the witnesses no longer decide, raises ValueError."""
    if n < 2:
        return False
    for w in _WITNESSES:
        if n % w == 0:
            return n == w
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"cannot decide whether {n} is prime: at or above {_MILLER_RABIN_BOUND}")
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for w in _WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Zmod:
    """The ring Z/m with values stored as integers in [0, m)."""

    modulus: int
    is_field: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "is_field", is_prime(self.modulus))

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

    def pow(self, a, k):
        return pow(a, k, self.modulus)

    def inv(self, a):
        a %= self.modulus
        if a == 0:
            raise DivisionByZero(f"cannot invert 0 in Z/{self.modulus}")
        if gcd(a, self.modulus) != 1:
            raise NotUnit(f"{a} is not a unit in Z/{self.modulus}")
        return pow(a, -1, self.modulus)

    def elements(self):
        """Every element, in ``element_from_index`` order."""
        return range(self.modulus)

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
    """GF(p^k) as F_p[t]/(modulus); each element is one int in [0, q), q = p^k:
    0 for zero and 1 + i for t^i, 0 <= i < q - 1.

    The modulus must be primitive: t must generate the multiplicative group.
    A product then adds logarithms mod q - 1 and an inverse negates one;
    -1 is t^((q - 1) / 2), so a negation shifts by that (at p = 2 it is the
    identity); and t^i + t^j = t^i * (1 + t^(j - i)) is one lookup in the
    Zech table of 1 + t^d.  Only ``element_from_index`` and
    ``format_value`` convert to and from coefficient tuples.  The tables
    are built once per modulus and shared by every instance
    (``_zech_tables``).
    """

    p: int
    k: int
    modulus: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _t_is_primitive(self.p, self.modulus):
            raise ValueError(f"t is not primitive modulo {self.modulus} over F_{self.p}")
        coeffs, elements, zech = _zech_tables(self.p, self.modulus)
        order = len(zech)
        object.__setattr__(self, "_coeffs", coeffs)
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_zech", zech)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_half", order // 2 if self.p > 2 else 0)

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
        return 0

    def one(self):
        return 1

    def from_int(self, c):
        return self._elements[c % self.p]

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
        return not a

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        # a list of q - 1 entries reads b - a in (1 - q, q - 1) mod q - 1
        z = self._zech[b - a]
        return (a + z - 2) % self._order + 1 if z else 0

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return (a + self._half - 1) % self._order + 1 if a else 0

    def mul(self, a, b):
        return (a + b - 2) % self._order + 1 if a and b else 0

    def pow(self, a, k):
        """a^k, k >= 0, by one product on the logarithm; 0^0 is 1."""
        return (a - 1) * k % self._order + 1 if a or not k else 0

    def inv(self, a):
        if not a:
            raise DivisionByZero(f"cannot invert 0 in GF({self.p}^{self.k})")
        return (1 - a) % self._order + 1

    def elements(self):
        """Every element, in ``element_from_index`` order."""
        return self._elements

    def element_from_index(self, i):
        """The element whose coefficients are the base-p digits of i mod q,
        the lowest digit the constant one."""
        return self._elements[i % self.size]

    def format_value(self, a, symmetric=False):
        a = self._coeffs[a]
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


@lru_cache(maxsize=None)
def _zech_tables(p, modulus):
    """The int form of GF(p^k) = F_p[t]/(modulus), for a primitive modulus:
    the coefficient tuple of each int (``_power_table`` with zero in front),
    the int of each index (its base-p digits, lowest first, as the
    coefficients), and the Zech table, the int of 1 + t^d for each
    0 <= d < p^k - 1."""
    powers, log = _power_table(p, modulus)
    k = len(modulus) - 1
    coeffs = ((0,) * k,) + powers
    # product() runs the last digit fastest, so each digits tuple is reversed
    elements = tuple(
        1 + log[digits[::-1]] if any(digits) else 0 for digits in product(range(p), repeat=k)
    )
    zech = []
    for a in powers:
        a = ((a[0] + 1) % p,) + a[1:]
        zech.append(1 + log[a] if any(a) else 0)
    return coeffs, elements, tuple(zech)


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
