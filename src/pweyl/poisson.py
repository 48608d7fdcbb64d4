"""Brackets on the twisted cotangent ring and coisotropy of ideals.

Two brackets are implemented on F_p[X_1..X_n, Xi_1..Xi_n]:

* the canonical symplectic bracket with {Xi_i, X_j} = delta_ij;
* the deformation bracket: lift both arguments to central operators of the
  Weyl algebra over Z/p^2 (``FrobeniusTwist.embed``, with coefficients read
  as their representatives in [0, p)), take the commutator, divide by p,
  and read off the coordinate of the residue monomial 1
  (``center._split_residues`` over every exponent slot).

The deformation bracket is minus the canonical one; the property suite
checks that sign.
"""

from collections import namedtuple

from .cgb import radical_member
from .errors import NotDeformationDivisible, RingMismatch
from .center import _split_residues, _twist_of
from .mpoly import MPoly
from .rings import Zmod
from .weyl import WeylOp


def canonical_bracket(f, g):
    """{f, g} = sum_i (df/dXi_i dg/dX_i - df/dX_i dg/dXi_i) on the twisted ring."""
    if f.ring != g.ring:
        raise RingMismatch("bracket arguments live in different rings")
    if f.ring.nvars % 2 != 0:
        raise ValueError("twisted ring must have an even number of variables")
    n = f.ring.nvars // 2
    out = f.ring.zero()
    for i in range(n):
        out = out + f.partial(n + i) * g.partial(i) - f.partial(i) * g.partial(n + i)
    return out


def deformation_bracket(f, g):
    """Bracket induced by the Z/p^2 lift: commutator of lifts, divided by p."""
    if f.ring != g.ring:
        raise RingMismatch("bracket arguments live in different rings")
    twist = _twist_of(f.ring.coeffs, f.ring.nvars // 2)
    if f.ring != twist.twisted_ring:
        raise RingMismatch("arguments are not in the twisted ring")
    p = twist.p
    ring2 = Zmod(p * p)
    lift_f, lift_g = (WeylOp(ring2, twist.n, twist.embed(h).terms) for h in (f, g))
    comm = lift_f.commutator(lift_g)
    terms = {}
    for key, c in comm.terms.items():
        if c % p != 0:
            raise NotDeformationDivisible(
                f"commutator coefficient {c} at {key} is not divisible by {p}"
            )
        c = (c // p) % p
        if c:
            terms[key] = c
    parts = _split_residues(terms, p, range(2 * twist.n))
    if any(any(r) for r in parts):
        raise NotDeformationDivisible("commutator of central lifts is not central mod p")
    return MPoly(f.ring, parts.get((0,) * (2 * twist.n), {}))


CoisotropyVerdict = namedtuple("CoisotropyVerdict", "ok pair bracket_value")


def coisotropy_check(ideal):
    """Whether the canonical bracket {g_i, g_j} lies in rad(ideal) for all
    generator pairs.

    By the Leibniz rule this certifies {J, J} inside rad(J) for the ideal J
    generated by the supplied generators.  On failure the offending pair and
    bracket value are returned.
    """
    gens = list(ideal.gens)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            val = canonical_bracket(gens[i], gens[j])
            if val.is_zero():
                continue
            if not radical_member(val, ideal):
                return CoisotropyVerdict(False, (gens[i], gens[j]), val)
    return CoisotropyVerdict(True, None, None)
