"""Left Groebner bases for left ideals of the Weyl algebra over a field.

The Weyl algebra is solvable-type: for a global order on the joint
(x, d)-exponents, leading exponents multiply additively, because every
reordering correction strictly lowers both sides of the exponent pair.
Buchberger's algorithm therefore terminates verbatim, with S-pairs and
reductions built from left multiplication only.  The product criterion is
not valid here (the pair {d, x} with coprime leads reduces to 1), so no
pair is ever skipped.
"""

import heapq
from dataclasses import dataclass, field

from .errors import DimensionMismatch, NonGlobalOrder, NotAField, ZeroInput
from .mpoly import MPoly, PolyRing
from .orders import GrevLex, monomial_divides, monomial_lcm, monomial_sub
from .weyl import WeylOp

_GREVLEX = GrevLex()


def left_nf(f, ideal_or_basis, order=None):
    """Left normal form: no remaining term is divisible by a basis lead."""
    if isinstance(ideal_or_basis, LeftIdeal):
        basis = ideal_or_basis.groebner_basis()
        order = order or ideal_or_basis.order
    else:
        basis = list(ideal_or_basis)
        order = order or _GREVLEX
    prepared = []
    for g in basis:
        lead, lc = g.leading(order)
        prepared.append((lead, f.ring.inv(lc), g))
    prepared.sort(key=lambda t: order.key(t[0]))

    # the remainder grows and the work shrinks in place, on a private copy
    R = f.ring
    work = dict(f.terms)
    rem = {}
    while work:
        lt = max(work, key=order.key)
        for lead, lc_inv, g in prepared:
            if monomial_divides(lead, lt):
                # work -= (c/lc(g)) * x^u d^v * g, where x^u d^v shifts lead(g) onto lt
                factor = R.mul(work[lt], lc_inv)
                mono = WeylOp.monomial(R, f.n, monomial_sub(lt, lead), factor)
                for key, c in (mono * g).terms.items():
                    acc = work.get(key)
                    c = R.sub(acc, c) if acc is not None else R.neg(c)
                    if R.is_zero(c):
                        work.pop(key, None)
                    else:
                        work[key] = c
                break
        else:
            rem[lt] = work.pop(lt)
    return WeylOp(R, f.n, rem)


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

    def admit(op):
        lead, lc = op.leading(order)
        G.append(op.scale(ring.inv(lc)))
        leads.append(lead)

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
        h = left_nf(s, G, order)
        if not h.is_zero():
            admit(h)
            push_pairs(len(G) - 1)

    # minimalize, then tail-reduce; reduced left bases are unique
    order_idx = sorted(range(len(G)), key=lambda i: order.key(leads[i]))
    keep = []
    for i in order_idx:
        if any(monomial_divides(leads[k], leads[i]) for k in keep):
            continue
        keep.append(i)
    minimal = [G[i] for i in keep]
    reduced = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        reduced.append(left_nf(g, others, order) if others else g)
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]))
    return reduced


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
