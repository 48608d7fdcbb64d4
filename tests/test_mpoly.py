"""Sparse polynomials and monomial orders."""

import random

import pytest

from pweyl import PolyRing
from pweyl.errors import RingMismatch
from pweyl.orders import GrevLex, Weighted
from pweyl.mpoly import CompiledRows, MPoly
from pweyl.rings import QQ, Zmod, extension_field

from helpers import evaluate, random_coeff, random_monomial, random_mpoly, reference_product


def twisted(p, n=1):
    names = tuple(f"X{i+1}" for i in range(n)) + tuple(f"Xi{i+1}" for i in range(n))
    return PolyRing(Zmod(p), names)


def test_one_times_f_is_f():
    R = twisted(5)
    rng = random.Random(1)
    f = random_mpoly(R, rng)
    assert R.one() * f == f


def test_difference_of_squares_f3():
    R = twisted(3)
    X, _ = R.gens()
    f = (X + R.one()) * (X - R.one())
    assert f == MPoly(R, {(2, 0): 1, (0, 0): 2})


def test_non_domain_product_drops_vanishing_coefficients():
    # over Z/4, 2 * 2 = 0: the product must store no zero coefficient
    R = PolyRing(Zmod(4), ("x", "y"))
    x, y = R.gens()
    product = x.scale(2) * y.scale(2)
    assert product.is_zero() and product.terms == {}


def test_char_two_square_kills_cross_term():
    R = twisted(2)
    X, Xi = R.gens()
    f = (X + Xi) ** 2
    assert f == X**2 + Xi**2


def test_partial_kills_pth_powers():
    R = twisted(3)
    X, _ = R.gens()
    assert (X**3).partial(0).is_zero()


def test_partial_of_product():
    R = twisted(5)
    X, Xi = R.gens()
    assert (X * Xi).partial(0) == Xi
    assert (X**2 + X).partial(0) == X.scale(2) + R.one()


def test_partial_index_checked():
    R = twisted(5)
    with pytest.raises(IndexError):
        R.one().partial(2)


def test_ring_mismatch_rejected():
    f = twisted(3).one()
    g = twisted(5).one()
    with pytest.raises(RingMismatch):
        f + g
    with pytest.raises(RingMismatch):
        f * g


def test_foreign_operands_raise_type_error():
    a = twisted(3).gen(0)
    for op in (lambda: a + 3, lambda: a - 1, lambda: a * 2, lambda: 2 * a):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize(
    "coeffs",
    [Zmod(7), Zmod(4), Zmod(9), extension_field(3, 2), QQ],
    ids=["F7", "Z4", "Z9", "GF9", "QQ"],
)
def test_product_matches_the_schoolbook_reference(coeffs):
    R = PolyRing(coeffs, ("a", "b", "c"))
    rng = random.Random(17)
    samples = [R.zero(), R.one(), R.constant(random_coeff(coeffs, rng, nonzero=True))]
    samples += [random_mpoly(R, rng, max_terms=5) for _ in range(25)]
    for f in samples:
        for g in samples[:3] + [random_mpoly(R, rng, max_terms=5) for _ in range(3)]:
            # dict equality: the reference stores no zero, so a zero stored
            # by the product fails
            assert (f * g).terms == reference_product(f, g).terms


def test_no_zero_terms_stored():
    R = twisted(3)
    X, _ = R.gens()
    f = X + X + X  # 3X = 0 in F_3
    assert f.terms == {}


@pytest.mark.parametrize("coeffs", [Zmod(5), QQ])
def test_mul_commutative_associative(coeffs):
    R = PolyRing(coeffs, ("a", "b", "c"))
    rng = random.Random(99)
    for _ in range(40):
        f = random_mpoly(R, rng)
        g = random_mpoly(R, rng)
        h = random_mpoly(R, rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_degree_additive_over_field():
    R = PolyRing(QQ, ("a", "b"))
    rng = random.Random(5)
    for _ in range(40):
        f = random_mpoly(R, rng, nonzero=True)
        g = random_mpoly(R, rng, nonzero=True)
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_leibniz_rule_random():
    R = twisted(7, 2)
    rng = random.Random(17)
    for _ in range(40):
        f = random_mpoly(R, rng)
        g = random_mpoly(R, rng)
        for i in range(R.nvars):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


# grevlex, and weight orders with and without zero weights: (0, 0, 1, 1)
# and (0, 0, 1, 2) eliminate the tail block, and ties are broken by grevlex
ORDERS = [
    Weighted((4, 3, 2, 1)),
    GrevLex(),
    Weighted((0, 0, 1, 1)),
    Weighted((0, 0, 1, 2)),
    Weighted((2, 0, 1, 3)),
]


@pytest.mark.parametrize("order", ORDERS)
def test_order_total_and_multiplicative(order):
    rng = random.Random(123)
    for _ in range(300):
        u = random_monomial(4, rng, 5)
        v = random_monomial(4, rng, 5)
        w = random_monomial(4, rng, 5)
        ku, kv = order.key(u), order.key(v)
        assert (ku < kv) + (ku == kv) + (ku > kv) == 1
        assert (ku == kv) == (u == v) or u != v  # keys injective on distinct monomials
        if ku < kv:
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert order.key(uw) < order.key(vw)
        one = (0, 0, 0, 0)
        assert order.key(one) <= ku
        assert order.is_global


def test_order_keys_injective():
    rng = random.Random(321)
    for order in ORDERS:
        seen = {}
        for _ in range(200):
            u = random_monomial(4, rng, 4)
            k = order.key(u)
            if k in seen:
                assert seen[k] == u
            seen[k] = u


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_desc_key_sorts_in_reverse(order):
    rng = random.Random(327)
    monos = list({random_monomial(4, rng, 6) for _ in range(300)})
    rng.shuffle(monos)
    assert sorted(monos, key=order.desc_key) == sorted(monos, key=order.key, reverse=True)


def test_grevlex_known_comparisons():
    o = GrevLex()
    # x > y in two variables at equal degree
    assert o.key((1, 0)) > o.key((0, 1))
    assert o.key((0, 2)) > o.key((1, 0))
    assert o.key((1, 1)) > o.key((0, 2))


def test_block_elimination_tail_dominates():
    o = Weighted((0, 0, 1, 1))
    # zero weights on the head block: any tail-block monomial beats any
    # head-block monomial
    assert o.key((0, 0, 1, 0)) > o.key((5, 5, 0, 0))


def test_format_round_numbers():
    R = twisted(7)
    X, Xi = R.gens()
    f = X * Xi - R.one()
    assert str(f) == "X1*Xi1 - 1"
    assert f.format(symmetric=False) == "X1*Xi1 + 6"
    assert str(R.zero()) == "0"


def values_at(polys, point, K):
    """The value of each polynomial at ``point`` over K, by one
    ``CompiledRows`` with a one-entry row per polynomial; a row that drops
    its entry reads zero."""
    ring = polys[0].ring.coeffs
    rows = CompiledRows([[(0, f.terms)] for f in polys], ring).at(point, K)
    return [row.get(0, K.zero()) for row in rows]


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 2), (2, 3)])
def test_evaluator_is_a_ring_homomorphism(p, k):
    # evaluation at a point respects sums and products; one compilation
    # serves every polynomial at its point, sharing monomial values
    R = twisted(p, 2)
    K = extension_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(20):
        f, g = random_mpoly(R, rng), random_mpoly(R, rng)
        point = tuple(random_coeff(K, rng) for _ in range(4))
        total, vf, vg, prod, one, zero = values_at(
            [f + g, f, g, f * g, R.one(), R.zero()], point, K
        )
        assert total == K.add(vf, vg)
        assert prod == K.mul(vf, vg)
        assert one == K.one()
        assert zero == K.zero()


def test_evaluator_at_a_point():
    R = twisted(5)
    X, Xi = R.gens()
    f = X**2 * Xi + R.constant(3) * Xi**3 - R.one()
    # 4 * 2 + 3 * 8 - 1 = 31 = 1 mod 5
    assert values_at([f], (2, 2), Zmod(5)) == [1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_compiled_rows_match_term_by_term_evaluation(p):
    # random sparse rows of polynomials over F_p in four variables, at
    # random points of GF(p^k), k = 1..3, one compilation serving all three
    # fields; an entry f * (X_j^q - X_j), q = p^k, vanishes at every point
    # of GF(q) and must be dropped, as must every entry that sums to zero
    R = twisted(p, 2)
    rng = random.Random(p)
    fields = [extension_field(p, k) for k in (1, 2, 3)]
    dropped = 0
    for _ in range(10):
        rows = []
        for _ in range(rng.randrange(1, 5)):
            cols = rng.sample(range(6), rng.randrange(6))
            row = []
            for col in cols:
                f = random_mpoly(R, rng)
                if rng.random() < 0.3:
                    j, q = rng.randrange(4), p ** rng.randrange(1, 4)
                    Xj = R.gen(j)
                    f = f * (Xj**q - Xj)
                row.append((col, f))
            rows.append(row)
        compiled = CompiledRows([[(col, f.terms) for col, f in row] for row in rows], R.coeffs)
        for K in fields:
            for _ in range(4):
                point = tuple(random_coeff(K, rng) for _ in range(4))
                want = []
                for row in rows:
                    values = {col: evaluate(f.terms, point, K) for col, f in row}
                    want.append({col: v for col, v in values.items() if not K.is_zero(v)})
                    dropped += len(values) - len(want[-1])
                assert compiled.at(point, K) == want
    assert dropped  # some entries did sum to zero
