"""Left Groebner bases and left normal forms for left ideals of the Weyl
algebra over a field; weighted initial forms.

The Weyl algebra is of solvable type: for a global order on the joint
(x, d)-exponents, leading exponents multiply additively, because every
reordering correction strictly lowers both sides of the exponent pair.
Buchberger's algorithm therefore runs verbatim, with S-pairs and reductions
built from left multiplication only, and the one engine of ``cgb`` runs it:
operators enter it as term dicts at position 0, and the one Weyl product,
``weyl._weyl_submul``, is the engine's ``submul``.  The engine's chain
criterion holds in algebras of solvable type; the product criterion does not
(the pair {d, x} with coprime leads reduces to 1), so it is off here.
"""

from dataclasses import dataclass, field

from .cgb import _groebner, _prepared, _reduce, _to_vec
from .errors import DimensionMismatch, NonGlobalOrder, NotAField, ZeroInput
from .mpoly import MPoly, PolyRing
from .orders import GrevLex
from .weyl import WeylOp, _weyl_form, _weyl_submul

_GREVLEX = GrevLex()


def left_nf(f, ideal):
    """Left normal form of f modulo the LeftIdeal ``ideal``, against its
    reduced left basis under its order: no remaining term is divisible by a
    basis lead.  Terms are reduced from the top down (``cgb._reduce``)."""
    R, order = f.ring, ideal.order
    rem = _reduce(
        _to_vec(f), ideal._prepared_basis(), R, lambda t: order.desc_key(t[1]), _weyl_submul(R)
    )
    return WeylOp(R, f.n, {e: c for (_, e), c in rem.items()})


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
    basis = _groebner(
        [_to_vec(g) for g in gens],
        ring,
        lambda t: order.key(t[1]),
        lambda t: order.desc_key(t[1]),
        _weyl_submul(ring),
        _weyl_form,
        False,
    )
    return [WeylOp(ring, n, {e: c for (_, e), c in g.items()}) for g in basis]


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
            self._cache["prep"] = _prepared(
                [_to_vec(g) for g in self.groebner_basis()],
                self.ring,
                lambda t: self.order.key(t[1]),
                _weyl_form,
            )
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
