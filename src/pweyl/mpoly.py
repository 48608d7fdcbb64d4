"""Sparse multivariate polynomials over an exact coefficient ring.

Terms are stored as a dict mapping exponent tuples to nonzero coefficient
payloads.  Instances are immutable by convention: no method mutates ``terms``
after construction, so values are safe to share and to use as dict keys.

``TermArithmetic`` holds the arithmetic of such a term dict (sums,
negation, scaling, products, powers, leading terms, degrees) once, for
polynomials and for the Weyl operators of ``weyl``.  Each element type
names its algebra's product once, as ``_submul`` in the form of the
Groebner engine (``cgb._reduce``), and ``TermArithmetic.__mul__`` and the
engine both read it there: ``_shift_submul`` here for polynomials,
``weyl._weyl_submul`` for operators.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .errors import RingMismatch
from .orders import GrevLex

_GREVLEX = GrevLex()


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring description: coefficient ring plus ordered variable names."""

    coeffs: object
    names: tuple

    @property
    def nvars(self):
        return len(self.names)

    def zero(self):
        return MPoly(self, {})

    def one(self):
        return self.constant(self.coeffs.one())

    def constant(self, c):
        if self.coeffs.is_zero(c):
            return MPoly(self, {})
        return MPoly(self, {(0,) * self.nvars: c})

    def gen(self, i):
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} outside 0..{self.nvars - 1}")
        e = [0] * self.nvars
        e[i] = 1
        return MPoly(self, {tuple(e): self.coeffs.one()})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]


@lru_cache(maxsize=None)
def _shift_submul(R):
    """The commutative product over R, in the ``submul`` form of the Groebner
    engine (see ``cgb._reduce``): x^shift times g is a shift of its
    exponents."""
    mul, rsub, neg, is_zero = R.mul, R.sub, R.neg, R.is_zero

    def submul(work, lt, lead, factor, g):
        shift = tuple(map(sub, lt[1], lead[1]))
        new = []
        for (pos, e), c in g.items():
            t = (pos, tuple(map(add, e, shift)))
            delta = mul(factor, c)
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


class TermArithmetic:
    """The arithmetic of a sparse term dict, shared by ``MPoly`` and
    ``weyl.WeylOp``: sums, negation, scaling, products, powers, leading
    terms and degrees.

    A subclass supplies ``terms``, the coefficient ring as ``_coeffs``, the
    constructor ``_new(terms)`` of a value like itself, its ``_one()``,
    ``_check(other)`` and the ``_noun`` its errors name, plus its equality
    and hash.  It names its algebra for ``__mul__`` and the Groebner engine:
    ``_submul``, the product in the engine's ``submul`` form, and
    ``_product_criterion``, whether Buchberger's product criterion holds.
    Operands that are not term arithmetic give ``NotImplemented``.
    """

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        """Maximum term degree; -1 for zero."""
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self, order=_GREVLEX):
        """(exponent, coefficient) of the largest term; ValueError on zero."""
        if not self.terms:
            raise ValueError(f"zero {self._noun} has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def sorted_terms(self, order=_GREVLEX, reverse=True):
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=reverse)

    def __add__(self, other):
        if not isinstance(other, TermArithmetic):
            return NotImplemented
        self._check(other)
        R = self._coeffs
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e)
            c = R.add(acc, c) if acc is not None else c
            if R.is_zero(c):
                out.pop(e, None)
            else:
                out[e] = c
        return self._new(out)

    def __neg__(self):
        R = self._coeffs
        return self._new({e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TermArithmetic):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Sum over the terms c*m of self of c * m * other, by ``_submul``
        against the lead 1.  Over a ring with zero divisors a product of
        nonzero coefficients can vanish; such zeros are dropped."""
        if not isinstance(other, TermArithmetic):
            return NotImplemented
        self._check(other)
        R = self._coeffs
        submul, neg, is_zero = self._submul(R), R.neg, R.is_zero
        g = {(0, e): c for e, c in other.terms.items()}
        work = {}
        for e, c in self.terms.items():
            submul(work, (0, e), (0, (0,) * len(e)), neg(c), g)
        return self._new({e: c for (_, e), c in work.items() if not is_zero(c)})

    def scale(self, c):
        R = self._coeffs
        if R.is_zero(c):
            return self._new({})
        return self._new({e: R.mul(c, v) for e, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError(f"{self._noun} raised to a negative power")
        # powers of a single element commute with themselves, so binary
        # powering is sound in the noncommutative Weyl algebra too
        result = self._one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


class MPoly(TermArithmetic):
    """A sparse polynomial; ``terms`` maps exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "terms")
    _noun = "polynomial"
    _submul = staticmethod(_shift_submul)
    _product_criterion = True

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @property
    def _coeffs(self):
        return self.ring.coeffs

    def _new(self, terms):
        return MPoly(self.ring, terms)

    def _one(self):
        return self.ring.one()

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"polynomial rings differ: {self.ring} vs {other.ring}")

    def partial(self, i):
        """Formal partial derivative in variable i (exponent times coefficient)."""
        if not 0 <= i < self.ring.nvars:
            raise IndexError(f"variable index {i} outside 0..{self.ring.nvars - 1}")
        R = self.ring.coeffs
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            nc = R.mul(c, R.from_int(e[i]))
            if R.is_zero(nc):
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = nc
        return MPoly(self.ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def format(self, symmetric=True):
        return format_terms(
            self.ring.coeffs, self.ring.names, self.sorted_terms(), symmetric
        )

    def __str__(self):
        return self.format(symmetric=True)

    def __repr__(self):
        return f"MPoly({self})"


def evaluator(point, target):
    """The evaluation at ``point``, whose coordinates lie in the ring ``target``.

    Returns a function from a polynomial's terms (exponent -> coefficient)
    to its value.  Coefficients are embedded through target.from_base, so
    an F_p polynomial can be evaluated at a point over GF(p^k).  Each
    distinct monomial is evaluated once per point: its value is cached by
    exponent tuple, for every polynomial the function is applied to.
    """
    monomials = {}
    zero, one = target.zero(), target.one()
    add, mul, embed = target.add, target.mul, target.from_base

    def value(terms):
        acc = zero
        for e, c in terms.items():
            m = monomials.get(e)
            if m is None:
                m = one
                for x, k in zip(point, e):
                    for _ in range(k):
                        m = mul(m, x)
                monomials[e] = m
            acc = add(acc, mul(embed(c), m))
        return acc

    return value


def format_terms(coeff_ring, names, sorted_items, symmetric=True):
    """Render sorted (exponent, coeff) pairs in the surface syntax.

    Coefficients print through the ring; with symmetric=True, Z/m residues
    above m/2 print as negative integers, which reads naturally and reparses
    to the same element.
    """
    if not sorted_items:
        return "0"
    pieces = []
    for e, c in sorted_items:
        cs = coeff_ring.format_value(c, symmetric=symmetric)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        vars_part = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k
        )
        if not vars_part:
            body = mag
        elif mag == "1":
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        pieces.append((negative, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out
