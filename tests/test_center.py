"""Center bookkeeping: decomposition over the center, central annihilators."""

import random

import pytest

from pweyl import (
    CIdeal,
    FrobeniusTwist,
    LeftIdeal,
    WeylOp,
    central_annihilator,
    central_annihilator_exact,
    central_annihilator_truncated,
)
from pweyl.center import truncated_kernel
from pweyl.errors import ExactGuardExceeded
from pweyl.rings import Zmod

from helpers import ideal_equal, random_weylop


def gens_1var(ring):
    return WeylOp.x(ring, 1, 0), WeylOp.d(ring, 1, 0), WeylOp.one(ring, 1)


def test_decompose_p2_examples():
    tw = FrobeniusTwist(2, 1)
    F = tw.weyl_ring
    x, d, one = gens_1var(F)
    R = tw.twisted_ring
    X, Xi = R.gens()

    dec = tw.decompose(x**2)
    assert dec.support() == [(0, 0)]
    assert dec.coordinate((0, 0)) == X

    dec = tw.decompose(x**3 * d)
    assert dec.support() == [(1, 1)]
    assert dec.coordinate((1, 1)) == X

    dec = tw.decompose(d**2 * x**2)  # = x^2 d^2 mod 2
    assert dec.coordinate((0, 0)) == X * Xi
    assert dec.support() == [(0, 0)]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])
def test_decompose_round_trip(p, n):
    tw = FrobeniusTwist(p, n)
    rng = random.Random(101)
    for _ in range(40):
        f = random_weylop(tw.weyl_ring, n, rng, max_exp=3 * p)
        assert tw.recombine(tw.decompose(f)) == f


def test_recombine_then_decompose_round_trip():
    from pweyl.center import CentralDecomposition

    from helpers import random_mpoly

    tw = FrobeniusTwist(3, 1)
    R = tw.twisted_ring
    rng = random.Random(103)
    residues = tw.basis()
    for _ in range(40):
        coords = {}
        for _ in range(rng.randrange(1, 4)):
            r = residues[rng.randrange(len(residues))]
            poly = random_mpoly(R, rng, max_degree=2)
            if not poly.is_zero():
                coords[r] = poly
        dec = CentralDecomposition(tw, coords)
        back = tw.decompose(tw.recombine(dec))
        assert back.coords == coords


def test_embedded_polynomials_are_central():
    from pweyl.weyl import is_central

    tw = FrobeniusTwist(3, 1)
    R = tw.twisted_ring
    X, Xi = R.gens()
    for poly in (X, Xi, X * Xi - R.one(), X**2 + Xi):
        assert is_central(tw.embed(poly)).is_central


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_annihilator_examples(p):
    F = Zmod(p)
    tw = FrobeniusTwist(p, 1)
    R = tw.twisted_ring
    X, Xi = R.gens()
    x, d, one = gens_1var(F)

    res = central_annihilator_exact(LeftIdeal.of([d]), tw)
    assert res.status == "exact"
    assert ideal_equal(res.ideal, CIdeal.of([Xi]))

    res = central_annihilator_exact(LeftIdeal.of([d - one]), tw)
    assert ideal_equal(res.ideal, CIdeal.of([Xi - R.one()]))

    res = central_annihilator_exact(LeftIdeal.of([x * d]), tw)
    assert ideal_equal(res.ideal, CIdeal.of([X * Xi]))

    res = central_annihilator_exact(LeftIdeal.of([one]), tw)
    assert res.ideal.is_unit_ideal()


def test_exact_annihilator_elements_lie_in_ideal():
    # Ann_Z = I cap Z: every output generator must be in the left ideal
    for p in (2, 3, 5):
        tw = FrobeniusTwist(p, 1)
        F = tw.weyl_ring
        x, d, one = gens_1var(F)
        for gens in ([d], [d - one], [x * d], [d - x]):
            I = LeftIdeal.of(gens)
            res = central_annihilator_exact(I, tw)
            for g in res.ideal.gens:
                assert I.contains(tw.embed(g))


def test_truncated_examples():
    tw = FrobeniusTwist(3, 1)
    F = tw.weyl_ring
    x, d, one = gens_1var(F)
    R = tw.twisted_ring
    X, Xi = R.gens()

    res = central_annihilator_truncated(LeftIdeal.of([d]), tw)
    assert res.status == "stabilized(1)"
    assert ideal_equal(res.ideal, CIdeal.of([Xi]))

    tw2 = FrobeniusTwist(2, 1)
    x2, d2, one2 = gens_1var(tw2.weyl_ring)
    R2 = tw2.twisted_ring
    X2, Xi2 = R2.gens()
    res = central_annihilator_truncated(LeftIdeal.of([d2 - one2]), tw2)
    assert res.status.startswith("stabilized")
    assert ideal_equal(res.ideal, CIdeal.of([Xi2 - R2.one()]))

    res = central_annihilator_truncated(LeftIdeal.of([one2]), tw2)
    assert res.ideal.is_unit_ideal()


def test_truncated_kernels_monotone():
    tw = FrobeniusTwist(3, 1)
    F = tw.weyl_ring
    x, d, one = gens_1var(F)
    I = LeftIdeal.of([x * d - one])
    previous = None
    for deg in range(1, 5):
        K = CIdeal.of(truncated_kernel(I, tw, deg), ring=tw.twisted_ring)
        if previous is not None:
            assert all(K.contains(g) for g in previous.gens)
        previous = K


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_and_truncated_agree(p):
    F = Zmod(p)
    tw = FrobeniusTwist(p, 1)
    x, d, one = gens_1var(F)
    for gens in ([d], [d - one], [d - x], [x * d]):
        I = LeftIdeal.of(gens)
        exact = central_annihilator_exact(I, tw)
        trunc = central_annihilator_truncated(I, tw)
        assert trunc.status.startswith("stabilized")
        assert ideal_equal(exact.ideal, trunc.ideal)


def test_exact_and_truncated_agree_on_random_operators():
    rng = random.Random(0)
    for _ in range(10):
        tw = FrobeniusTwist(rng.choice((3, 5)), 1)
        L = random_weylop(tw.weyl_ring, 1, rng, max_exp=2, max_terms=3, nonzero=True)
        I = LeftIdeal.of([L])
        exact = central_annihilator_exact(I, tw)
        trunc = central_annihilator_truncated(I, tw)
        assert exact.ideal.groebner_basis() == trunc.ideal.groebner_basis(), (str(L), tw.p)


def test_truncated_route_passes_a_zero_plateau():
    # the kernels at degrees 1 and 3 are both zero; the annihilator has degree 4
    tw = FrobeniusTwist(3, 1)
    x, d, one = gens_1var(tw.weyl_ring)
    res = central_annihilator_truncated(LeftIdeal.of([x**2 * d**2 + d]), tw)
    assert [str(g) for g in res.ideal.groebner_basis()] == ["X1^2*Xi1^2 + Xi1"]
    assert res.status == "stabilized(4)"


def test_guard_routes_to_truncated():
    # p = 3, n = 2 gives module rank 81 > 64
    tw = FrobeniusTwist(3, 2)
    F = tw.weyl_ring
    d1 = WeylOp.d(F, 2, 0)
    d2 = WeylOp.d(F, 2, 1)
    I = LeftIdeal.of([d1, d2])
    with pytest.raises(ExactGuardExceeded):
        central_annihilator_exact(I, tw)
    res = central_annihilator(I, tw)
    assert res.status.startswith("stabilized")
    R = tw.twisted_ring
    Xi1, Xi2 = R.gen(2), R.gen(3)
    assert ideal_equal(res.ideal, CIdeal.of([Xi1, Xi2]))


def test_route_selection():
    tw = FrobeniusTwist(3, 2)
    F = tw.weyl_ring
    I = LeftIdeal.of([WeylOp.d(F, 2, 0), WeylOp.d(F, 2, 1)])
    assert central_annihilator(I, tw, method="exact").status == "exact"
    assert central_annihilator(I, tw, guard=81).status == "exact"
    assert central_annihilator(I, tw, guard=81, method="truncated").status.startswith(
        "stabilized"
    )
    with pytest.raises(ValueError):
        central_annihilator(I, tw, method="fast")


def test_zero_ideal_annihilates_nothing():
    tw = FrobeniusTwist(2, 1)
    I = LeftIdeal.of([], ring=tw.weyl_ring, n=1)
    res = central_annihilator_exact(I, tw)
    assert res.ideal.is_zero_ideal()
