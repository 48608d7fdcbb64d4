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

The product is written once, as ``_weyl_submul``, in the ``submul`` form of
the Groebner engine (``cgb``), and ``WeylOp`` names it as its ``_submul``:
``WeylOp.__mul__``, which is ``mpoly.TermArithmetic.__mul__``, sums its left
factor's terms through it, and the engine reads it off the operators it
reduces.  The rest of the arithmetic (sums, scaling, powers, leading terms)
is ``mpoly.TermArithmetic`` too, shared with polynomials.
"""

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial
from operator import add, sub

from .errors import DimensionMismatch, RingMismatch
from .mpoly import TermArithmetic, format_terms


def _reorder_weights(b, c):
    """Integer expansion of d^b x^c: tuple of (j, weight) with j <= min(b, c)."""
    acc = [((), 1)]
    for bi, ci in zip(b, c):
        var = [(j, factorial(j) * comb(bi, j) * comb(ci, j)) for j in range(min(bi, ci) + 1)]
        acc = [(js + (j,), w * wj) for js, w in acc for j, wj in var]
    return tuple(acc)


@lru_cache(maxsize=None)
def _weyl_submul(R):
    """The Weyl product over R, in the ``submul`` form of the Groebner engine
    (see ``cgb._reduce``).

    It subtracts factor * x^a d^b * g, where x^a d^b shifts lead(g) onto lt:
    d^b x^gx = sum_j w_j x^(gx-j) d^(b-j), so each term x^gx d^gd of g gives
    x^(a+gx-j) d^(b+gd-j) with weight w_j.  The integer weights of
    ``_reorder_weights`` are mapped into R once per (b, gx), and only the
    nonzero ones are kept.  Over a ring with zero divisors, a product of
    nonzero coefficients can vanish: the zero it leaves in ``work`` is the
    caller's to drop.
    """
    mul, rsub, neg = R.mul, R.sub, R.neg
    is_zero, from_int = R.is_zero, R.from_int
    # (b, gx) -> the nonzero weights in R, each with its offset (j, j); the
    # few distinct expansions are shared
    weights, distinct = {}, {}

    def submul(work, lt, lead, factor, g):
        u = tuple(map(sub, lt[1], lead[1]))
        n = len(u) // 2
        b = u[n:]
        new = []
        for (_, ge), gc in g.items():
            gx = ge[:n]
            wts = weights.get((b, gx))
            if wts is None:
                wts = tuple(
                    (j + j, w)
                    for j, w in ((j, from_int(w)) for j, w in _reorder_weights(b, gx))
                    if not is_zero(w)
                )
                wts = weights[b, gx] = distinct.setdefault(wts, wts)
            cg = mul(factor, gc)
            s = tuple(map(add, u, ge))
            for jj, w in wts:
                t = (0, tuple(map(sub, s, jj)))
                delta = mul(cg, w)
                acc = work.get(t)
                if acc is None:
                    work[t] = neg(delta)
                    new.append(t)
                else:
                    acc = rsub(acc, delta)
                    if is_zero(acc):
                        del work[t]
                    else:
                        work[t] = acc
        return new

    return submul


CentralityResult = namedtuple("CentralityResult", "is_central generator witness")


class WeylOp(TermArithmetic):
    """An element of A_n(R) in normal order."""

    __slots__ = ("ring", "n", "terms")
    _noun = "operator"
    _submul = staticmethod(_weyl_submul)
    _product_criterion = False

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
    def monomial(cls, ring, n, key, c=None):
        c = ring.one() if c is None else c
        if ring.is_zero(c):
            return cls(ring, n, {})
        return cls(ring, n, {tuple(key): c})

    # -- the hooks of TermArithmetic ---------------------------------------

    @property
    def _coeffs(self):
        return self.ring

    def _new(self, terms):
        return WeylOp(self.ring, self.n, terms)

    def _one(self):
        return WeylOp.one(self.ring, self.n)

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"coefficient rings differ: {self.ring} vs {other.ring}")
        if self.n != other.n:
            raise DimensionMismatch(f"variable counts differ: {self.n} vs {other.n}")

    # -- arithmetic --------------------------------------------------------

    # the product is TermArithmetic's; it is bound here too because the
    # benchmark's tracer (bench/tracer.py) wraps WeylOp.__dict__["__mul__"]
    __mul__ = TermArithmetic.__mul__

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
