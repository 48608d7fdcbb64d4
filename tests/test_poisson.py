"""Brackets on the twisted ring and coisotropy checks."""

import random

import pytest

from pweyl import (
    CIdeal,
    FrobeniusTwist,
    canonical_bracket,
    coisotropy_check,
    deformation_bracket,
)
from pweyl.errors import RingMismatch
from pweyl.mpoly import PolyRing
from pweyl.rings import QQ, Zmod

from helpers import random_mpoly


def twist_ring(p, n=1):
    tw = FrobeniusTwist(p, n)
    return tw, tw.twisted_ring


def test_canonical_convention():
    _, R = twist_ring(5)
    X, Xi = R.gens()
    assert canonical_bracket(Xi, X) == R.one()
    assert canonical_bracket(X, X).is_zero()
    assert canonical_bracket(Xi**2, X) == Xi.scale(2)


def test_deformation_pinned_values():
    _, R2 = twist_ring(2)
    X2, Xi2 = R2.gens()
    # [d^2, x^2] = 2 in Z/4, divided by 2 gives 1 = -1 in F_2
    assert deformation_bracket(Xi2, X2) == R2.one()

    _, R3 = twist_ring(3)
    X3, Xi3 = R3.gens()
    # [d^3, x^3] = 6 in Z/9, divided by 3 gives 2 = -1 in F_3
    assert deformation_bracket(Xi3, X3) == R3.constant(2)
    assert deformation_bracket(X3, X3 * Xi3) == X3


def test_bracket_of_anything_with_itself_vanishes():
    _, R = twist_ring(3)
    rng = random.Random(7)
    for _ in range(20):
        f = random_mpoly(R, rng, max_degree=4)
        assert deformation_bracket(f, f).is_zero()
        assert canonical_bracket(f, f).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_deformation_is_minus_canonical(p, n):
    tw = FrobeniusTwist(p, n)
    R = tw.twisted_ring
    rng = random.Random(1000 * p + n)
    for _ in range(25):
        f = random_mpoly(R, rng, max_degree=4)
        g = random_mpoly(R, rng, max_degree=4)
        assert deformation_bracket(f, g) == -canonical_bracket(f, g)


def test_lift_choice_cancels_in_commutator():
    # two lifts differ by p * (central term); the commutator can't see it
    from pweyl.weyl import WeylOp

    tw, R = twist_ring(3)
    X, Xi = R.gens()
    ring2 = Zmod(9)
    f, g = X * Xi, X + Xi
    # the lifts deformation_bracket takes: the embedding's [0, p) residues
    lf = WeylOp(ring2, 1, tw.embed(f).terms)
    lg = WeylOp(ring2, 1, tw.embed(g).terms)
    # perturb the lift of f by 3 * (x^3 d^3), still a lift of f
    perturbed = lf + WeylOp.monomial(ring2, 1, (3, 3), 3)
    assert lf.commutator(lg) == perturbed.commutator(lg)


def test_antisymmetry_and_leibniz():
    _, R = twist_ring(5)
    rng = random.Random(11)
    for bracket in (canonical_bracket, deformation_bracket):
        for _ in range(15):
            f = random_mpoly(R, rng, max_degree=3)
            g = random_mpoly(R, rng, max_degree=3)
            h = random_mpoly(R, rng, max_degree=3)
            assert bracket(f, g) == -bracket(g, f)
            assert bracket(f, g * h) == bracket(f, g) * h + g * bracket(f, h)


def test_jacobi_identity_canonical():
    _, R = twist_ring(7, 2)
    rng = random.Random(13)
    for _ in range(15):
        f = random_mpoly(R, rng, max_degree=3)
        g = random_mpoly(R, rng, max_degree=3)
        h = random_mpoly(R, rng, max_degree=3)
        total = (
            canonical_bracket(f, canonical_bracket(g, h))
            + canonical_bracket(g, canonical_bracket(h, f))
            + canonical_bracket(h, canonical_bracket(f, g))
        )
        assert total.is_zero()


def test_ring_mismatch_between_twists():
    _, R3 = twist_ring(3)
    _, R5 = twist_ring(5)
    with pytest.raises(RingMismatch):
        canonical_bracket(R3.one(), R5.one())


def test_deformation_bracket_rejects_rational_coefficients():
    R = PolyRing(QQ, ("X1", "Xi1"))
    X, Xi = R.gens()
    with pytest.raises(RingMismatch):
        deformation_bracket(Xi, X)


def test_coisotropy_examples():
    _, R = twist_ring(5)
    X, Xi = R.gens()
    assert coisotropy_check(CIdeal.of([Xi - R.one()])).ok
    verdict = coisotropy_check(CIdeal.of([X, Xi]))
    assert not verdict.ok
    assert str(verdict.bracket_value) in ("-1", "1")
    _, R2 = twist_ring(5, 2)
    X1, X2, Xi1, Xi2 = R2.gens()
    assert coisotropy_check(CIdeal.of([X1, Xi2])).ok


def test_coisotropy_invariant_under_generator_presentation():
    _, R = twist_ring(5)
    X, Xi = R.gens()
    gens = [X * Xi, Xi**2]
    base = coisotropy_check(CIdeal.of(gens)).ok
    assert coisotropy_check(CIdeal.of(list(reversed(gens)))).ok == base
    scaled = [g.scale(3) for g in gens]
    assert coisotropy_check(CIdeal.of(scaled)).ok == base
