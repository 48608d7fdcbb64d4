"""Left Groebner bases for left ideals of the Weyl algebra over a field.

The Weyl algebra is solvable-type: for a global order on the joint
(x, d)-exponents, leading exponents multiply additively, because every
reordering correction strictly lowers both sides of the exponent pair.
Buchberger's algorithm therefore terminates verbatim, with S-pairs and
reductions built from left multiplication only.  The product criterion is
not valid here (the pair {d, x} with coprime leads reduces to 1), so no
pair is ever skipped.
"""

import bisect
import heapq
from dataclasses import dataclass, field
from operator import add, sub

from .errors import DimensionMismatch, NonGlobalOrder, NotAField, ZeroInput
from .mpoly import MPoly, PolyRing
from .orders import GrevLex, monomial_divides, monomial_lcm, monomial_sub
from .weyl import WeylOp, _reorder_weights

_GREVLEX = GrevLex()


class _Prepared(list):
    """Basis triples (lead, 1/lc, split terms) sorted by lead, ready for left_nf.

    The split terms are (x exponents, d exponents, coefficient) of each
    basis operator, the form in which a reduction step multiplies it.
    """


def _triple(g, order):
    lead, lc = g.leading(order)
    n = g.n
    split = tuple((k[:n], k[n:], c) for k, c in g.terms.items())
    return (lead, g.ring.inv(lc), split)


def _prepare(basis, order):
    return _Prepared(sorted((_triple(g, order) for g in basis), key=lambda t: order.key(t[0])))


def left_nf(f, ideal_or_basis, order=None):
    """Left normal form: no remaining term is divisible by a basis lead.

    Terms are reduced from the top down.  The leading term comes off a heap
    of descending order keys, each computed once when its term appears; a
    reduction only brings in smaller terms, so an entry whose monomial has
    left the work dict since it was pushed is stale and skipped.
    """
    if isinstance(ideal_or_basis, LeftIdeal):
        if order is None or order == ideal_or_basis.order:
            prepared = ideal_or_basis._prepared_basis()
            order = ideal_or_basis.order
        else:
            prepared = _prepare(ideal_or_basis.groebner_basis(), order)
    elif isinstance(ideal_or_basis, _Prepared):
        prepared = ideal_or_basis
        order = order or _GREVLEX
    else:
        order = order or _GREVLEX
        prepared = _prepare(ideal_or_basis, order)

    # the remainder grows and the work shrinks in place, on a private copy
    R, n = f.ring, f.n
    desc_key = order.desc_key
    work = dict(f.terms)
    heap = [(desc_key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        c = work.get(lt)
        if c is None:
            continue
        for lead, lc_inv, split in prepared:
            if monomial_divides(lead, lt):
                # work -= (c/lc(g)) * x^a d^b * g, where x^a d^b shifts lead(g)
                # onto lt; d^b x^gx = sum_j w_j x^(gx-j) d^(b-j), so each term
                # of g gives x^(a+gx-j) d^(b+gd-j) with weight w_j
                u = monomial_sub(lt, lead)
                a, b = u[:n], u[n:]
                factor = R.mul(c, lc_inv)
                for gx, gd, gc in split:
                    cg = R.mul(factor, gc)
                    ax = tuple(map(add, a, gx))
                    bd = tuple(map(add, b, gd))
                    for j, w in _reorder_weights(b, gx):
                        delta = R.mul(cg, R.from_int(w))
                        if R.is_zero(delta):
                            continue
                        key = tuple(map(sub, ax, j)) + tuple(map(sub, bd, j))
                        acc = work.get(key)
                        if acc is None:
                            work[key] = R.neg(delta)
                            heapq.heappush(heap, (desc_key(key), key))
                        else:
                            acc = R.sub(acc, delta)
                            if R.is_zero(acc):
                                del work[key]
                            else:
                                work[key] = acc
                break
        else:
            rem[lt] = work.pop(lt)
    return WeylOp(R, n, rem)


def left_groebner(gens, order=_GREVLEX):
    """Reduced left Groebner basis of the left ideal generated by ``gens``."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring, n = gens[0].ring, gens[0].n
    for g in gens:
        g._check(gens[0])
    if not ring.is_field:
        raise NotAField(f"left Groebner bases need field coefficients, got {ring}")
    if not order.is_global:
        raise NonGlobalOrder("left Groebner bases need a global order")

    G = []
    leads = []
    triples = []
    # the same triples, kept sorted by lead for every reduction
    prep = _Prepared()

    def admit(op):
        g = op.scale(ring.inv(op.leading(order)[1]))
        triple = _triple(g, order)
        G.append(g)
        leads.append(triple[0])
        triples.append(triple)
        bisect.insort(prep, triple, key=lambda t: order.key(t[0]))

    for g in gens:
        admit(g)

    heap = []
    pending = set()

    def push_pairs(j):
        for i in range(j):
            lcm = monomial_lcm(leads[i], leads[j])
            heapq.heappush(heap, (sum(lcm), order.key(lcm), i, j))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    one = ring.one()
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        lcm = monomial_lcm(leads[i], leads[j])
        mi = WeylOp.monomial(ring, n, monomial_sub(lcm, leads[i]), one)
        mj = WeylOp.monomial(ring, n, monomial_sub(lcm, leads[j]), one)
        s = mi * G[i] - mj * G[j]
        h = left_nf(s, prep, order)
        if not h.is_zero():
            admit(h)
            push_pairs(len(G) - 1)

    # minimalize, then tail-reduce; reduced left bases are unique, and the
    # leads are untouched, so the result stays sorted by lead like ``keep``
    order_idx = sorted(range(len(G)), key=lambda i: order.key(leads[i]))
    keep = []
    for i in order_idx:
        if any(monomial_divides(leads[k], leads[i]) for k in keep):
            continue
        keep.append(i)
    if len(keep) == 1:
        return [G[keep[0]]]  # nothing to tail-reduce against
    minimal = [triples[i] for i in keep]
    return [
        left_nf(G[i], _Prepared(minimal[:k] + minimal[k + 1 :]), order)
        for k, i in enumerate(keep)
    ]


@dataclass(frozen=True)
class LeftIdeal:
    """A left ideal of A_n over a field, with a cached reduced left basis."""

    ring: object
    n: int
    gens: tuple
    order: object = field(default_factory=GrevLex)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, gens, order=_GREVLEX, ring=None, n=None):
        gens = tuple(g for g in gens if not g.is_zero())
        if gens:
            ring = gens[0].ring
            n = gens[0].n
        elif ring is None or n is None:
            raise ValueError("empty generator list needs explicit ring and n")
        return cls(ring, n, gens, order)

    def groebner_basis(self):
        if "basis" not in self._cache:
            self._cache["basis"] = tuple(left_groebner(list(self.gens), self.order))
        return self._cache["basis"]

    def _prepared_basis(self):
        if "prep" not in self._cache:
            self._cache["prep"] = _prepare(self.groebner_basis(), self.order)
        return self._cache["prep"]

    def normal_form(self, f):
        if f.ring != self.ring or f.n != self.n:
            raise DimensionMismatch("operator from a different algebra")
        return left_nf(f, self)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].total_degree() == 0

    def __str__(self):
        inner = ", ".join(str(g) for g in self.groebner_basis())
        return f"<{inner}>" if inner else "<0>"


def initial_weighted(f, ring=None):
    """Top part of f for the weights (0 on x, 1 on d), as a commutative
    polynomial in (x_1..x_n, xi_1..xi_n); the d's become the symbols xi."""
    if f.is_zero():
        raise ZeroInput("zero operator has no initial form")
    n = f.n
    if ring is None:
        names = tuple(f"x{i + 1}" for i in range(n)) + tuple(
            f"xi{i + 1}" for i in range(n)
        )
        ring = PolyRing(f.ring, names)
    top = max(sum(k[n:]) for k in f.terms)
    terms = {k: c for k, c in f.terms.items() if sum(k[n:]) == top}
    return MPoly(ring, terms)
