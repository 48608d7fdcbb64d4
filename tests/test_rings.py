"""Coefficient rings: canonical representatives, axioms, inverses."""

import random
from fractions import Fraction

import pytest

from pweyl.errors import DivisionByZero, NotUnit
from pweyl.rings import QQ, GaloisField, Zmod, extension_field, is_prime

from helpers import coefficients, fermat_inv, random_coeff, schoolbook_mul

ALL_RINGS = [Zmod(5), Zmod(9), Zmod(49), extension_field(3, 2), extension_field(2, 3), QQ]


def test_inverse_of_one_is_one():
    for ring in ALL_RINGS:
        assert ring.inv(ring.one()) == ring.one()


def test_inverse_in_z9():
    Z9 = Zmod(9)
    assert Z9.inv(2) == 5
    assert Z9.mul(2, 5) == 1


def test_non_unit_in_z9():
    with pytest.raises(NotUnit):
        Zmod(9).inv(3)


def test_a_fraction_needs_a_unit_denominator():
    # Z/3 raised DivisionByZero here, unlike Z/9 and GF(3^2)
    for ring in (Zmod(3), Zmod(9), extension_field(3, 2)):
        with pytest.raises(NotUnit):
            ring.from_fraction(Fraction(1, 3))
        with pytest.raises(NotUnit):
            ring.from_fraction(Fraction(5, 6))
    assert Zmod(9).from_fraction(Fraction(5, 2)) == 7


def test_zero_inverse_rejected():
    for ring in ALL_RINGS:
        with pytest.raises(DivisionByZero):
            ring.inv(ring.zero())


def test_zmod_values_reduced():
    Z7 = Zmod(7)
    assert Z7.from_int(-1) == 6
    assert Z7.add(5, 5) == 3
    assert Z7.from_fraction(Fraction(1, 2)) == 4


def test_rational_canonical():
    v = QQ.from_fraction(Fraction(4, -6))
    assert v.numerator == -2 and v.denominator == 3


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_ring_axioms_random(ring):
    rng = random.Random(20240801)
    for _ in range(200):
        a = random_coeff(ring, rng)
        b = random_coeff(ring, rng)
        c = random_coeff(ring, rng)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero()
        assert ring.mul(a, ring.one()) == a


@pytest.mark.parametrize("ring", [Zmod(5), Zmod(7), extension_field(3, 2), extension_field(5, 3), QQ])
def test_unit_times_inverse(ring):
    rng = random.Random(7)
    for _ in range(50):
        a = random_coeff(ring, rng, nonzero=True)
        assert ring.mul(a, ring.inv(a)) == ring.one()


def test_zmod_prime_square_inverses():
    Z25 = Zmod(25)
    for a in range(1, 25):
        if a % 5 == 0:
            with pytest.raises(NotUnit):
                Z25.inv(a)
        else:
            assert Z25.mul(a, Z25.inv(a)) == 1


@pytest.mark.parametrize(
    "p,k", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 3)]
)
def test_extension_moduli_irreducible(p, k):
    # degree <= 3, so irreducible iff root-free over F_p
    K = extension_field(p, k)
    assert isinstance(K, GaloisField)
    for c in range(p):
        val = sum(coef * c**i for i, coef in enumerate(K.modulus)) % p
        assert val != 0


def test_extension_moduli_are_conway_polynomials():
    # ascending coefficients; the eight p <= 7 entries are the moduli the
    # rank samples of the corpus goldens were drawn in
    expected = {
        (2, 2): (1, 1, 1),
        (2, 3): (1, 1, 0, 1),
        (3, 2): (2, 2, 1),
        (3, 3): (1, 2, 0, 1),
        (5, 2): (2, 4, 1),
        (5, 3): (3, 3, 0, 1),
        (7, 2): (3, 6, 1),
        (7, 3): (4, 0, 6, 1),
        (11, 2): (2, 7, 1),
        (13, 3): (11, 2, 0, 1),
    }
    for (p, k), modulus in expected.items():
        assert extension_field(p, k).modulus == modulus, (p, k)
    with pytest.raises(ValueError):
        extension_field(3, 4)


def test_extension_field_of_a_composite_is_rejected():
    # Z/4 is no field, whatever the degree asked for
    for k in (1, 2, 3):
        with pytest.raises(ValueError):
            extension_field(4, k)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (3, 3), (5, 2), (11, 2)])
def test_extension_field_enumeration(p, k):
    K = extension_field(p, k)
    elements = {K.element_from_index(i) for i in range(K.size)}
    assert len(elements) == p**k
    # multiplicative group: every nonzero element has an inverse
    for e in elements:
        if not K.is_zero(e):
            assert K.mul(e, K.inv(e)) == K.one()


ORACLE_FIELDS = [(2, 2), (3, 2), (2, 3), (5, 2), (13, 3)]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_extension_field_matches_schoolbook_oracle(p, k):
    K = extension_field(p, k)
    elements = [K.element_from_index(i) for i in range(K.size)]
    if K.size <= 25:
        pairs = [(a, b) for a in elements for b in elements]
    else:
        rng = random.Random(1303)
        pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(2000)]
    for a, b in pairs:
        assert K.mul(a, b) == schoolbook_mul(K, a, b), (a, b)
    for a in elements[1:]:
        assert K.inv(a) == fermat_inv(K, a), a
        assert K.mul(a, K.inv(a)) == K.one(), a


@pytest.mark.parametrize(
    "p,k,modulus",
    [(3, 2, (1, 0, 1)), (2, 2, (0, 0, 1)), (2, 2, (0, 1, 1))],
    ids=["t2+1-over-F3", "t2-over-F2", "t2+t-over-F2"],
)
def test_non_primitive_modulus_rejected(p, k, modulus):
    # t^2 + 1 is irreducible over F_3 but t has order 4, not 8; the other
    # two are reducible and t is a zero divisor
    with pytest.raises(ValueError, match="not primitive"):
        GaloisField(p, k, modulus)


def test_power_table_shared_by_every_instance():
    K, L = extension_field(3, 2), extension_field(3, 2)
    assert K == L and K is not L
    assert K._coeffs is L._coeffs and K._elements is L._elements and K._zech is L._zech


def test_extension_field_embeds_prime_field():
    K = extension_field(3, 2)
    assert coefficients(K, K.from_base(2)) == (2, 0)
    assert K.add(K.from_base(2), K.from_base(2)) == K.from_base(1)


def tuple_mul(K, a, b):
    """The product of two coefficient tuples modulo the modulus of K, by
    reducing the schoolbook product from the top degree down."""
    prod = [0] * (2 * K.k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % K.p
    for d in range(len(prod) - 1, K.k - 1, -1):
        c, prod[d] = prod[d], 0
        for j in range(K.k):
            prod[d - K.k + j] = (prod[d - K.k + j] - c * K.modulus[j]) % K.p
    return tuple(prod[: K.k])


def printed(c):
    """A coefficient tuple, lowest degree first, as reports print it."""
    if not any(c[1:]):
        return str(c[0])
    terms = [str(c[0])] if c[0] else []
    for j, x in enumerate(c[1:], start=1):
        power = "t" if j == 1 else f"t^{j}"
        if x:
            terms.append(power if x == 1 else f"{x}*{power}")
    return "(" + " + ".join(terms) + ")"


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_every_operation_matches_coefficient_tuples(p, k):
    # every pair of GF(p^k) against coefficient-tuple arithmetic modulo the
    # Conway polynomial; the element with coefficient tuple c is the one at
    # the index whose base-p digits, lowest first, are c
    K = extension_field(p, k)
    tuples = [tuple(i // p**j % p for j in range(k)) for i in range(K.size)]
    elements = [K.element_from_index(i) for i in range(K.size)]
    assert len(set(elements)) == K.size
    assert list(K.elements()) == elements
    of = dict(zip(tuples, elements))
    # the order is pinned to the printed coefficients, and the payload of
    # t^j, j < k, is 1 + j, t^j being the index p^j
    for c, a in of.items():
        assert K.format_value(a) == printed(c), c
    assert [K.element_from_index(p**j) for j in range(k)] == list(range(1, k + 1))
    assert K.element_from_index(0) == K.zero() == 0
    for c, a in of.items():
        assert K.neg(a) == of[tuple(-x % p for x in c)], c
        if any(c):
            assert of[tuple_mul(K, c, tuples[elements.index(K.inv(a))])] == K.one(), c
        else:
            with pytest.raises(DivisionByZero):
                K.inv(a)
        for d, b in of.items():
            assert K.add(a, b) == of[tuple((x + y) % p for x, y in zip(c, d))], (c, d)
            assert K.sub(a, b) == of[tuple((x - y) % p for x, y in zip(c, d))], (c, d)
            assert K.mul(a, b) == of[tuple_mul(K, c, d)], (c, d)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 3), (3, 2), (5, 2)])
def test_pow_is_repeated_multiplication(p, k):
    # every element of F_7, GF(2^3), GF(3^2) and GF(5^2) to the powers 0, 1,
    # 2, p, q - 1 and q, against a product of that many factors; and
    # beta = Xi^(q / p) is the p-th root that the fibres read, beta^p = Xi
    K = extension_field(p, k)
    q = K.size
    for a in K.elements():
        power = K.one()
        for e in range(q + 1):
            if e in (0, 1, 2, p, q - 1, q):
                assert K.pow(a, e) == power, (a, e)
            power = K.mul(power, a)
        beta, root = K.pow(a, q // p), K.one()
        for _ in range(p):
            root = K.mul(root, beta)
        assert root == a, a


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_agrees_with_trial_division_below_1e5():
    sieve = [False, False] + [True] * (10**5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d :: d] = [False] * len(range(d * d, 10**5, d))
    assert [is_prime(n) for n in range(10**5)] == sieve


def test_is_prime_is_exact_on_large_numbers():
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert 151 * 751 * 28351 == 3215031751
    # the least strong pseudoprime to the first 12 primes, caught by 41
    assert not is_prime(318665857834031151167461)
    assert not is_prime((10**18 + 3) * (10**6 + 3))
    # past the bound below which the 13 witnesses decide, no verdict is guessed
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="at or above"):
        is_prime(2**89 - 1)
    # a small factor still decides exactly, whatever the size
    assert not is_prime(2 * (2**89 - 1))


def test_zmod_knows_whether_it_is_a_field():
    assert Zmod(7).is_field and not Zmod(9).is_field and Zmod(10**18 + 3).is_field
    assert Zmod(9) == Zmod(9) and hash(Zmod(9)) == hash(Zmod(9))
    assert repr(Zmod(9)) == "Zmod(modulus=9)"


def test_symmetric_formatting():
    Z7 = Zmod(7)
    assert Z7.format_value(6, symmetric=True) == "-1"
    assert Z7.format_value(3, symmetric=True) == "3"
    assert Z7.format_value(6) == "6"
