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

``CompiledRows`` evaluates sparse rows of polynomials at many points, the
work that does not depend on the point done once.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .errors import RingMismatch
from .orders import GREVLEX


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

    def leading(self):
        """(exponent, coefficient) of the largest grevlex term; ValueError on zero."""
        if not self.terms:
            raise ValueError(f"zero {self._noun} has no leading term")
        e = max(self.terms, key=GREVLEX.key)
        return e, self.terms[e]

    def sorted_terms(self):
        """The (exponent, coefficient) pairs, largest under grevlex first."""
        return sorted(self.terms.items(), key=lambda t: GREVLEX.key(t[0]), reverse=True)

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


class CompiledRows:
    """Sparse rows of polynomials, compiled once for evaluation at many points.

    ``rows`` is a list of rows, each a list of (column, terms) pairs, terms a
    polynomial's exponent -> coefficient dict over the field ``ring``; the
    points lie in extensions of it.  The compiled form lists the distinct
    monomials once, each by its (coordinate, exponent) factors, and holds
    the entries as (row, column, terms), the terms as (monomial index,
    coefficient) pairs.  ``at`` evaluates them all at one point.
    """

    def __init__(self, rows, ring):
        index = {}
        self.entries = []
        for i, row in enumerate(rows):
            for col, terms in row:
                if terms:
                    terms = [(index.setdefault(e, len(index)), c) for e, c in terms.items()]
                    self.entries.append((i, col, terms))
        self.nrows, self.ring = len(rows), ring
        # each monomial as (j, k, rest): its first factor x_j^k and the
        # others, the constant as x_0^0
        self.monomials = []
        for e in index:
            factors = [(j, k) for j, k in enumerate(e) if k] or [(0, 0)]
            self.monomials.append(factors[0] + (factors[1:],))
        # the highest exponent of each coordinate, for its table of powers
        self.tops = tuple(map(max, zip(*index)))
        # field -> its entries, with embedded coefficients, and arithmetic
        self._fields = {}

    def at(self, point, K):
        """The rows at ``point``, whose coordinates lie in the field K, as
        dicts {column: nonzero value}.

        The coefficients are embedded by ``K.from_base`` once per field
        other than ``ring``.  Per point, each coordinate's powers are tabled
        up to its top exponent, each distinct monomial is one product of
        those, and each entry is summed in one loop over its terms; an entry
        that sums to zero is dropped.
        """
        state = self._fields.get(K)
        if state is None:
            entries = self.entries
            if K != self.ring:
                embed = K.from_base
                entries = [(i, col, [(m, embed(c)) for m, c in terms]) for i, col, terms in entries]
            state = self._fields[K] = (entries, K.one(), K.add, K.mul, K.is_zero)
        entries, one, add, mul, is_zero = state
        powers = []
        for x, top in zip(point, self.tops):
            row = [one, x]
            for _ in range(top - 1):
                row.append(mul(row[-1], x))
            powers.append(row)
        values = []
        for j, k, rest in self.monomials:
            v = powers[j][k]
            for j, k in rest:
                v = mul(v, powers[j][k])
            values.append(v)
        rows = [{} for _ in range(self.nrows)]
        for i, col, terms in entries:
            acc = None
            for m, c in terms:
                v = mul(c, values[m])
                acc = v if acc is None else add(acc, v)
            if not is_zero(acc):
                rows[i][col] = acc
        return rows


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
