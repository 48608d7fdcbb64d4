"""Left Groebner bases and left normal forms for left ideals of the Weyl
algebra over a field; weighted initial forms.

The Weyl algebra is of solvable type: for a global order on the joint
(x, d)-exponents, leading exponents multiply additively, because every
reordering correction strictly lowers both sides of the exponent pair.
Buchberger's algorithm therefore runs verbatim, with S-pairs and reductions
built from left multiplication only, and the one engine of ``cgb`` runs it:
operators enter it as term dicts at position 0, and the engine reads the
one Weyl product, ``weyl._weyl_submul``, off them as ``WeylOp._submul``.
The engine's chain criterion holds in algebras of solvable type; the product
criterion does not (the pair {d, x} with coprime leads reduces to 1), so
``WeylOp._product_criterion`` is off.  ``LeftIdeal`` inherits the ideal
layer (cached basis, normal forms, membership) from ``cgb``.
"""

from dataclasses import dataclass, field

from .cgb import _checked_basis, _Ideal
from .errors import ZeroInput
from .mpoly import MPoly, PolyRing
from .orders import GrevLex
from .weyl import WeylOp

_GREVLEX = GrevLex()


def left_nf(f, ideal):
    """Left normal form of f modulo the LeftIdeal ``ideal``, against its
    reduced left basis under its order: no remaining term is divisible by a
    basis lead.  Terms are reduced from the top down (``cgb._reduce``)."""
    return ideal._nf(f)


def left_groebner(gens, order=_GREVLEX):
    """Reduced left Groebner basis of the left ideal generated by ``gens``."""
    return _checked_basis(gens, order)


@dataclass(frozen=True)
class LeftIdeal(_Ideal):
    """A left ideal of A_n over a field, with a cached reduced left basis."""

    ring: object
    n: int
    gens: tuple
    order: object = field(default_factory=GrevLex)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    _brackets = "<>"

    @classmethod
    def of(cls, gens, order=_GREVLEX, ring=None, n=None):
        gens = tuple(g for g in gens if not g.is_zero())
        if (ring is None or n is None) and not gens:
            raise ValueError("empty generator list needs explicit ring and n")
        ring = gens[0].ring if ring is None else ring
        n = gens[0].n if n is None else n
        return cls(ring, n, gens, order)

    def _zero(self):
        return WeylOp.zero(self.ring, self.n)

    def _basis(self):
        return left_groebner(list(self.gens), self.order)

    def normal_form(self, f):
        self._zero()._check(f)
        return left_nf(f, self)


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
