"""Left Groebner bases in the Weyl algebra."""

import itertools
import random

import pytest

from pweyl import LeftIdeal, WeylOp, buchberger, initial_weighted, left_groebner, left_nf
from pweyl.errors import DimensionMismatch, NonGlobalOrder, NotAField, RingMismatch, ZeroInput
from pweyl.mpoly import MPoly, PolyRing
from pweyl.orders import GREVLEX, GrevLex, Weighted, monomial_divides, monomial_lcm
from pweyl.rings import QQ, Zmod

from helpers import assert_engine_pairs, engine_nf, random_coeff, random_weylop

F5 = Zmod(5)


def leading(f, order):
    """(exponent, coefficient) of the largest term of f under ``order``."""
    e = max(f.terms, key=order.key)
    return e, f.terms[e]


def gens_1var(ring):
    return WeylOp.x(ring, 1, 0), WeylOp.d(ring, 1, 0), WeylOp.one(ring, 1)


def test_principal_generators_stay():
    x, d, one = gens_1var(F5)
    assert left_groebner([d]) == [d]
    assert left_groebner([x]) == [x]


def test_d_and_x_generate_everything():
    x, d, one = gens_1var(F5)
    assert left_groebner([d, x]) == [one]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_nf_of_dp_modulo_d_minus_one(p):
    x, d, one = gens_1var(Zmod(p))
    I = LeftIdeal.of([d - one])
    assert left_nf(d**p, I) == one
    assert left_nf(d**p, LeftIdeal.of([d])).is_zero()
    assert left_nf(x**p, LeftIdeal.of([d])) == x**p


def test_left_ideal_membership_property():
    rng = random.Random(77)
    x, d, one = gens_1var(F5)
    for _ in range(20):
        gens = [random_weylop(F5, 1, rng, max_exp=2, nonzero=True) for _ in range(2)]
        I = LeftIdeal.of(gens)
        f = random_weylop(F5, 1, rng, max_exp=2)
        h = random_weylop(F5, 1, rng, max_exp=2)
        g = gens[0]
        # adding a left multiple of an ideal element never changes the NF
        assert left_nf(f * g + h, I) == left_nf(h, I)
        # and the operator being reduced is left as it was
        before = dict(h.terms)
        left_nf(h, I)
        assert h.terms == before


def test_basis_independent_of_permutation():
    rng = random.Random(79)
    for _ in range(15):
        gens = [random_weylop(F5, 1, rng, max_exp=2, nonzero=True) for _ in range(3)]
        base = left_groebner(gens)
        for perm in itertools.permutations(gens):
            assert left_groebner(list(perm)) == base


def test_commutative_inputs_agree_with_cgb():
    # operators in x alone form a polynomial subring
    rng = random.Random(83)
    R = PolyRing(F5, ("x1", "x2"))
    for _ in range(10):
        polys = []
        ops = []
        for _ in range(2):
            items = []
            for _ in range(3):
                e = (rng.randrange(3), rng.randrange(3))
                c = rng.randrange(1, 5)
                items.append((e, c))
            polys.append(sum((MPoly(R, {e: c}) for e, c in items), R.zero()))
            ops.append(
                sum((WeylOp(F5, 2, {e + (0, 0): c}) for e, c in items), WeylOp.zero(F5, 2))
            )
        gb_poly = buchberger([f for f in polys if not f.is_zero()])
        gb_weyl = left_groebner([f for f in ops if not f.is_zero()])
        as_polys = [MPoly(R, {k[:2]: c for k, c in g.terms.items()}) for g in gb_weyl]
        assert as_polys == gb_poly


def test_leading_exponent_multiplicative():
    # the solvable-type axiom behind termination
    rng = random.Random(89)
    for _ in range(40):
        f = random_weylop(F5, 1, rng, max_exp=3, nonzero=True)
        g = random_weylop(F5, 1, rng, max_exp=3, nonzero=True)
        lf, _ = f.leading()
        lg, _ = g.leading()
        lfg, _ = (f * g).leading()
        assert lfg == tuple(a + b for a, b in zip(lf, lg))


def test_field_and_order_preconditions():
    x, d, one = gens_1var(Zmod(4))
    with pytest.raises(NotAField):
        left_groebner([d])
    with pytest.raises(NotAField):
        LeftIdeal.of([d]).normal_form(x * d)
    x5, d5, one5 = gens_1var(F5)
    with pytest.raises(NonGlobalOrder):
        left_groebner([d5], Weighted((-1, 0)))


def test_an_operator_of_another_algebra_is_rejected():
    _, d, one = gens_1var(F5)
    I = LeftIdeal.of([d - one])
    with pytest.raises(RingMismatch):
        I.normal_form(WeylOp.d(Zmod(7), 1, 0))
    with pytest.raises(DimensionMismatch):
        I.normal_form(WeylOp.d(F5, 2, 0))
    with pytest.raises(RingMismatch):
        LeftIdeal.of([d], ring=Zmod(7), n=2)
    with pytest.raises(DimensionMismatch):
        LeftIdeal.of([d], ring=F5, n=2)


def test_left_ideal_of_takes_ring_and_n_by_keyword():
    # an order where the ring was fails at the call, not inside the engine
    _, d, _ = gens_1var(F5)
    with pytest.raises(TypeError):
        LeftIdeal.of([d], Weighted((0, 1)))
    with pytest.raises(TypeError):
        LeftIdeal.of([d], F5, 1)


def test_initial_weighted_examples():
    x, d, one = gens_1var(QQ)
    assert str(initial_weighted(d - one)) == "xi1"
    lam = WeylOp.constant(QQ, 1, QQ.from_int(4))
    assert str(initial_weighted(x * d - lam)) == "x1*xi1"
    assert str(initial_weighted(d**2 + x**3)) == "xi1^2"
    with pytest.raises(ZeroInput):
        initial_weighted(WeylOp.zero(QQ, 1))


def test_unit_ideal_detection():
    x, d, one = gens_1var(F5)
    assert LeftIdeal.of([d, x]).is_unit_ideal()
    assert not LeftIdeal.of([d]).is_unit_ideal()


def reference_left_nf(f, basis, order):
    """Left normal form by the textbook loop: the leading term by ``max``,
    the basis element with the smallest dividing lead, the full product."""
    R, n = f.ring, f.n
    prepared = sorted(((leading(g, order), g) for g in basis), key=lambda t: order.key(t[0][0]))
    rem = {}
    while not f.is_zero():
        lt = max(f.terms, key=order.key)
        c = f.terms[lt]
        for (lead, lc), g in prepared:
            if monomial_divides(lead, lt):
                u = tuple(a - b for a, b in zip(lt, lead))
                f = f - WeylOp.monomial(R, n, u, R.mul(c, R.inv(lc))) * g
                break
        else:
            rem[lt] = c
            f = f - WeylOp.monomial(R, n, lt, c)
    return WeylOp(R, n, rem)


@pytest.mark.parametrize(
    "order2, order1",
    [
        (Weighted((4, 3, 2, 1)), Weighted((1, 0))),
        (Weighted((0, 0, 1, 1)), Weighted((0, 1))),
        (Weighted((0, 0, 1, 2)), Weighted((0, 1))),
        (GrevLex(), GrevLex()),
    ],
    ids=repr,
)
def test_left_nf_matches_max_reference(order2, order1):
    # against the basis of a principal ideal of A_2 and of a two-generator
    # ideal of A_1 under the same kind of order; a LeftIdeal's own normal
    # form under grevlex
    def check(gens, f, order):
        basis = left_groebner(gens, order)
        want = reference_left_nf(f, basis, order)
        assert engine_nf(f, basis, order) == want
        if order == GREVLEX:
            I = LeftIdeal.of(gens)
            assert_engine_pairs(I)
            assert left_nf(f, I) == want

    rng = random.Random(97)
    for _ in range(15):
        g = random_weylop(F5, 2, rng, max_exp=2, max_terms=3, nonzero=True)
        f = random_weylop(F5, 2, rng, max_exp=3, max_terms=6)
        check([g], f, order2)
        gens = [random_weylop(F5, 1, rng, max_exp=2, max_terms=3, nonzero=True) for _ in range(2)]
        f = random_weylop(F5, 1, rng, max_exp=4, max_terms=6)
        check(gens, f, order1)


def weyl_s_polynomial(f, g, order):
    """m_f * f - m_g * g with monic multipliers that lift both leads to their lcm."""
    (lf, cf), (lg, cg) = leading(f, order), leading(g, order)
    lcm = monomial_lcm(lf, lg)
    R, n = f.ring, f.n
    mf = WeylOp.monomial(R, n, tuple(a - b for a, b in zip(lcm, lf)), R.inv(cf))
    mg = WeylOp.monomial(R, n, tuple(a - b for a, b in zip(lcm, lg)), R.inv(cg))
    return mf * f - mg * g


def assert_reduced_left_basis(basis, order):
    """Monic, no term divisible by another element's lead, and every
    S-polynomial reduces to zero by the textbook reference."""
    leads = [leading(g, order) for g in basis]
    for i, g in enumerate(basis):
        assert leads[i][1] == g.ring.one()
        for k, (lead, _) in enumerate(leads):
            if k != i:
                assert not any(monomial_divides(lead, t) for t in g.terms), (basis, k, i)
    for f, g in itertools.combinations(basis, 2):
        assert reference_left_nf(weyl_s_polynomial(f, g, order), basis, order).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_left_basis_certificate(p, n):
    # the chain criterion skips S-pairs on the Weyl side; a pair it needed
    # would leave an S-polynomial that does not reduce to zero.  Two central
    # generators (in the x_i^p, d_i^p) next to a random one keep most of
    # these ideals proper, with bases of up to 14 elements.
    rng = random.Random(100 * p + n)
    F = Zmod(p)

    def central():
        z = random_weylop(F, n, rng, max_exp=1, max_terms=2, nonzero=True)
        return WeylOp(F, n, {tuple(p * e for e in k): c for k, c in z.terms.items()})

    for _ in range(10):
        L = random_weylop(F, n, rng, max_exp=3 - n, max_terms=3, nonzero=True)
        assert_reduced_left_basis(left_groebner([L, central(), central()]), GrevLex())


def test_left_basis_certificate_over_q_weighted():
    # annihilators of x^a, moved by x -> x + c and by an exponential twist
    # d -> d - c1 - c2*x, with two-element bases
    rng = random.Random(107)
    order = Weighted((1, 2))
    x, d, one = gens_1var(QQ)
    c = lambda: one.scale(random_coeff(QQ, rng))
    for _ in range(10):
        a = rng.randrange(3)
        X = x + c()
        D = d - c() - c() * x
        gens = [X * D - one.scale(a), D ** (a + 1)]
        assert_reduced_left_basis(left_groebner(gens, order), order)
