"""Weyl algebra arithmetic: normal ordering, commutators, centrality."""

import random
from itertools import product
from math import comb, factorial

import pytest

from pweyl import WeylOp, is_central
from pweyl.errors import DimensionMismatch, RingMismatch
from pweyl.rings import QQ, Zmod

from helpers import naive_d_pow_x_pow, random_weylop


def gens_1var(ring):
    return WeylOp.x(ring, 1, 0), WeylOp.d(ring, 1, 0), WeylOp.one(ring, 1)


def test_defining_relation():
    x, d, one = gens_1var(QQ)
    assert d * x == x * d + one
    assert x * d == x * d  # already normal ordered
    assert d.commutator(x) == one
    assert x.commutator(x).is_zero()


def test_d2_x2_over_z4():
    x, d, one = gens_1var(Zmod(4))
    # full integer form x^2 d^2 + 4 x d + 2 collapses to x^2 d^2 + 2 mod 4
    assert d**2 * x**2 == x**2 * d**2 + one.scale(2)
    assert (d**2).commutator(x**2) == one.scale(2)


def test_d3_x3_over_z9():
    x, d, one = gens_1var(Zmod(9))
    assert (d**3).commutator(x**3) == one.scale(6)
    # the expansion 9 x^2 d^2 + 18 x d + 6 mod 9
    assert d**3 * x**3 == x**3 * d**3 + one.scale(6)


def test_pow_basics():
    x, d, one = gens_1var(QQ)
    f = x * d - one
    assert f**1 == f
    assert f**0 == one
    assert (x * d) ** 2 == x**2 * d**2 + x * d


def test_frobenius_in_commutative_subalgebra():
    x, d, one = gens_1var(Zmod(3))
    assert (d - one) ** 3 == d**3 - one


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_jacobson_identity(p):
    x, d, one = gens_1var(Zmod(p))
    assert (x * d) ** p == x**p * d**p + x * d


def test_closed_form_against_single_swaps():
    x, d, one = gens_1var(QQ)
    for m in range(7):
        for k in range(7):
            got = d**m * x**k
            want = {
                (a, b): QQ.from_int(c) for (a, b), c in naive_d_pow_x_pow(m, k).items()
            }
            assert got.terms == want, (m, k)


def test_closed_form_combinatorial_statement():
    x, d, one = gens_1var(QQ)
    rng = random.Random(2)
    for _ in range(30):
        m, k = rng.randrange(7), rng.randrange(7)
        expected = WeylOp(
            QQ,
            1,
            {
                (k - j, m - j): QQ.from_int(factorial(j) * comb(m, j) * comb(k, j))
                for j in range(min(m, k) + 1)
            },
        )
        assert d**m * x**k == expected


@pytest.mark.parametrize("ring", [Zmod(5), Zmod(4), QQ])
def test_associativity_random(ring):
    rng = random.Random(11)
    for _ in range(30):
        f = random_weylop(ring, 1, rng)
        g = random_weylop(ring, 1, rng)
        h = random_weylop(ring, 1, rng)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_non_domain_product_drops_vanishing_coefficients():
    # over Z/9, 3 * 3 = 0: the product must store no zero coefficient
    Z9 = Zmod(9)
    x, d, one = gens_1var(Z9)
    product = x.scale(3) * d.scale(3)
    assert product.is_zero() and product.terms == {}
    product = (x.scale(3) + one) * d.scale(3)
    assert product == d.scale(3)
    assert product.terms == {(0, 1): 3}


def _reference_product(f, g):
    """f * g term by term: x^a d^b x^c d^e = x^a (prod_i d_i^b_i x_i^c_i) d^e,
    each factor expanded by ``naive_d_pow_x_pow`` and the variables combined
    as independent commuting blocks."""
    R, n = f.ring, f.n
    items = []
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            a, b, c, e = k1[:n], k1[n:], k2[:n], k2[n:]
            blocks = [list(naive_d_pow_x_pow(b[i], c[i]).items()) for i in range(n)]
            for choice in product(*blocks):
                w = 1
                for _, wi in choice:
                    w *= wi
                key = tuple(a[i] + choice[i][0][0] for i in range(n)) + tuple(
                    choice[i][0][1] + e[i] for i in range(n)
                )
                items.append((key, R.mul(R.mul(c1, c2), R.from_int(w))))
    return sum((WeylOp(R, n, {key: c}) for key, c in items), WeylOp.zero(R, n))


@pytest.mark.parametrize("ring", [Zmod(5), Zmod(9), QQ])
def test_two_var_product_against_single_swaps(ring):
    rng = random.Random(41)
    for _ in range(40):
        f = random_weylop(ring, 2, rng)
        g = random_weylop(ring, 2, rng)
        got = f * g
        assert got == _reference_product(f, g)
        assert not any(ring.is_zero(c) for c in got.terms.values())


def test_associativity_two_vars():
    rng = random.Random(13)
    ring = Zmod(3)
    for _ in range(20):
        f = random_weylop(ring, 2, rng, max_exp=2)
        g = random_weylop(ring, 2, rng, max_exp=2)
        h = random_weylop(ring, 2, rng, max_exp=2)
        assert (f * g) * h == f * (g * h)


def test_pbw_round_trip():
    rng = random.Random(23)
    for ring in (Zmod(5), QQ):
        for _ in range(50):
            f = random_weylop(ring, 2, rng)
            monomials = (WeylOp.monomial(ring, 2, key, c) for key, c in f.terms.items())
            assert sum(monomials, WeylOp.zero(ring, 2)) == f


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_pth_powers_central(p, n):
    F = Zmod(p)
    for i in range(n):
        assert is_central(WeylOp.x(F, n, i) ** p).is_central
        assert is_central(WeylOp.d(F, n, i) ** p).is_central


def test_central_witnesses():
    F = Zmod(5)
    x, d, one = gens_1var(F)
    res = is_central(x)
    assert not res.is_central
    assert res.witness is not None and not res.witness.is_zero()
    res = is_central(x * d)
    assert not res.is_central
    # [x d, x] = x
    assert res.generator == "x1"
    assert res.witness == x


def test_central_over_f2():
    F = Zmod(2)
    x, d, one = gens_1var(F)
    res = is_central(x * d)
    assert not res.is_central and res.witness == x


def test_mismatch_errors():
    f = WeylOp.d(Zmod(3), 1, 0)
    with pytest.raises(RingMismatch):
        f * WeylOp.d(Zmod(5), 1, 0)
    with pytest.raises(DimensionMismatch):
        f * WeylOp.d(Zmod(3), 2, 0)


def test_diff_order_additive_over_domain():
    def order(op):
        """Maximum total degree in the d variables."""
        return max(sum(k[op.n :]) for k in op.terms)

    rng = random.Random(31)
    for _ in range(30):
        f = random_weylop(QQ, 1, rng, nonzero=True)
        g = random_weylop(QQ, 1, rng, nonzero=True)
        assert order(f * g) == order(f) + order(g)
