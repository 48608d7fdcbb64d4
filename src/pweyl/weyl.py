"""Normal-ordered arithmetic in the Weyl algebra A_n(R).

An operator is a sparse map from joint exponent tuples (a_1..a_n, b_1..b_n)
to nonzero coefficients, representing sum c * x^a * d^b with every x factor
to the left of every d factor.  That normal form is the unique PBW
representative, so dict equality is operator equality.

Multiplication reorders d^m x^k through the closed form

    d^m x^k = sum_j j! * C(m, j) * C(k, j) * x^(k-j) d^(m-j)

applied independently per variable; the integer weights are computed exactly
and only then reduced into the coefficient ring, which keeps the formula
correct over Z/p^2 where factorials are not invertible.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial

from .errors import DimensionMismatch, RingMismatch
from .orders import GrevLex

_GREVLEX = GrevLex()


@lru_cache(maxsize=None)
def _reorder_weights(b, c):
    """Integer expansion of d^b x^c: tuple of (j, weight) with j <= min(b, c)."""
    acc = [((), 1)]
    for bi, ci in zip(b, c):
        var = [(j, factorial(j) * comb(bi, j) * comb(ci, j)) for j in range(min(bi, ci) + 1)]
        acc = [(js + (j,), w * wj) for js, w in acc for j, wj in var]
    return tuple(acc)


CentralityResult = namedtuple("CentralityResult", "is_central generator witness")


class WeylOp:
    """An element of A_n(R) in normal order."""

    __slots__ = ("ring", "n", "terms")

    def __init__(self, ring, n, terms):
        self.ring = ring
        self.n = n
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, n):
        return cls(ring, n, {})

    @classmethod
    def one(cls, ring, n):
        return cls.constant(ring, n, ring.one())

    @classmethod
    def constant(cls, ring, n, c):
        if ring.is_zero(c):
            return cls(ring, n, {})
        return cls(ring, n, {(0,) * (2 * n): c})

    @classmethod
    def x(cls, ring, n, i):
        return cls._gen(ring, n, i)

    @classmethod
    def d(cls, ring, n, i):
        return cls._gen(ring, n, n + i)

    @classmethod
    def _gen(cls, ring, n, slot):
        if not 0 <= slot < 2 * n:
            raise IndexError(f"variable index outside 0..{n - 1}")
        e = [0] * (2 * n)
        e[slot] = 1
        return cls(ring, n, {tuple(e): ring.one()})

    @classmethod
    def from_terms(cls, ring, n, items):
        terms = {}
        for key, c in items:
            if len(key) != 2 * n:
                raise ValueError(f"exponent key {key} has wrong length")
            acc = terms.get(key)
            c = ring.add(acc, c) if acc is not None else c
            if ring.is_zero(c):
                terms.pop(key, None)
            else:
                terms[key] = c
        return cls(ring, n, terms)

    @classmethod
    def monomial(cls, ring, n, key, c=None):
        c = ring.one() if c is None else c
        if ring.is_zero(c):
            return cls(ring, n, {})
        return cls(ring, n, {tuple(key): c})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        return max((sum(k) for k in self.terms), default=-1)

    def leading(self, order=_GREVLEX):
        if not self.terms:
            raise ValueError("zero operator has no leading term")
        key = max(self.terms, key=order.key)
        return key, self.terms[key]

    def sorted_terms(self, order=_GREVLEX, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=reverse)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"coefficient rings differ: {self.ring} vs {other.ring}")
        if self.n != other.n:
            raise DimensionMismatch(f"variable counts differ: {self.n} vs {other.n}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        R = self.ring
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            c = R.add(acc, c) if acc is not None else c
            if R.is_zero(c):
                out.pop(key, None)
            else:
                out[key] = c
        return WeylOp(self.ring, self.n, out)

    def __neg__(self):
        R = self.ring
        return WeylOp(self.ring, self.n, {k: R.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        R = self.ring
        if R.is_zero(c):
            return WeylOp(self.ring, self.n, {})
        return WeylOp(self.ring, self.n, {k: R.mul(c, v) for k, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        R = self.ring
        n = self.n
        out = {}
        for k1, c1 in self.terms.items():
            a, b = k1[:n], k1[n:]
            for k2, c2 in other.terms.items():
                c, d = k2[:n], k2[n:]
                c12 = R.mul(c1, c2)
                if R.is_zero(c12):
                    continue
                for j, w in _reorder_weights(b, c):
                    coeff = R.mul(c12, R.from_int(w))
                    if R.is_zero(coeff):
                        continue
                    key = tuple(ai + ci - ji for ai, ci, ji in zip(a, c, j)) + tuple(
                        bi + di - ji for bi, di, ji in zip(b, d, j)
                    )
                    acc = out.get(key)
                    coeff = R.add(acc, coeff) if acc is not None else coeff
                    if R.is_zero(coeff):
                        out.pop(key, None)
                    else:
                        out[key] = coeff
        return WeylOp(self.ring, self.n, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of an operator")
        # powers of a single element commute with themselves, so binary
        # powering is sound in the noncommutative algebra too
        result = WeylOp.one(self.ring, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        return (
            isinstance(other, WeylOp)
            and self.ring == other.ring
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.n, frozenset(self.terms.items())))

    # -- display -----------------------------------------------------------

    def format(self, symmetric=True):
        from .mpoly import format_terms

        names = tuple(f"x{i + 1}" for i in range(self.n)) + tuple(
            f"d{i + 1}" for i in range(self.n)
        )
        return format_terms(self.ring, names, self.sorted_terms(), symmetric)

    def __str__(self):
        return self.format(symmetric=True)

    def __repr__(self):
        return f"WeylOp({self})"


def is_central(f):
    """Check [f, x_i] = [f, d_i] = 0 for all i; first nonzero commutator witnesses."""
    for i in range(f.n):
        for label, gen in (
            (f"x{i + 1}", WeylOp.x(f.ring, f.n, i)),
            (f"d{i + 1}", WeylOp.d(f.ring, f.n, i)),
        ):
            w = f.commutator(gen)
            if not w.is_zero():
                return CentralityResult(False, label, w)
    return CentralityResult(True, None, None)
