"""Commutative Groebner engine: bases, normal forms, radical, dimension, and
elimination onto one coordinate of a free module (with the colon it gives)."""

import itertools
import random

import pytest

from pweyl import CIdeal, buchberger, frobenius_root, krull_dim, radical_member
from pweyl.cgb import (
    _checked_basis,
    _eliminate_onto,
    _groebner,
    _prepared,
    _reduce,
)
from pweyl.errors import NonGlobalOrder, NotAField, RingMismatch
from pweyl.mpoly import MPoly, PolyRing, _shift_submul
from pweyl.orders import BlockElimination, GrevLex, Lex, Weighted
from pweyl.rings import QQ, Zmod, extension_field

from helpers import (
    assert_reduced_module_basis,
    colon_by_tag,
    column_vec,
    ideal_equal,
    radical_member_bruteforce,
    random_monomial,
    random_mpoly,
    reference_nf,
    submodule_basis,
    submodule_member,
)

F5 = Zmod(5)
GREVLEX = GrevLex()

# position over term: lower positions dominate, ties by grevlex
POT_KEY = lambda t: (-t[0], GREVLEX.key(t[1]))
POT_DESC = lambda t: (t[0], GREVLEX.desc_key(t[1]))


def ring2(coeffs=F5):
    return PolyRing(coeffs, ("x", "xi"))


def test_single_monomial_is_its_own_basis():
    R = ring2()
    x, xi = R.gens()
    assert buchberger([x]) == [x]


def test_unit_combination_collapses():
    R = ring2()
    x, _ = R.gens()
    assert buchberger([x - R.one(), x]) == [R.one()]


def test_lex_example_by_hand():
    # generators x*xi - 1 and xi^2 - x under lex with xi > x reduce to
    # {xi - x^2, x^3 - 1}: one S-polynomial then back-substitution
    R = PolyRing(QQ, ("xi", "x"))
    xi, x = R.gens()
    basis = buchberger([xi * x - R.one(), xi**2 - x], Lex())
    assert basis == [x**3 - R.one(), xi - x**2]


def test_normal_form_examples():
    R = ring2()
    x, xi = R.gens()
    empty = CIdeal.of([], ring=R)
    f = x * xi + x
    assert empty.normal_form(f) == f
    assert CIdeal.of([xi]).normal_form(x * xi).is_zero()
    R2 = PolyRing(QQ, ("xi", "x"))
    xi2, x2 = R2.gens()
    I = CIdeal.of([xi2 * x2 - R2.one(), xi2**2 - x2], Lex())
    assert I.normal_form(x2**3) == R2.one()


def test_normal_form_linear():
    R = ring2()
    rng = random.Random(3)
    for _ in range(20):
        I = CIdeal.of([random_mpoly(R, rng, nonzero=True) for _ in range(2)])
        f = random_mpoly(R, rng)
        g = random_mpoly(R, rng)
        assert I.normal_form(f + g) == I.normal_form(f) + I.normal_form(g)
        assert I.contains(f - I.normal_form(f))


def test_explicit_combinations_reduce_to_zero():
    # NF(f) = 0 for f built from known cofactors
    R = ring2()
    rng = random.Random(73)
    for _ in range(20):
        gens = [random_mpoly(R, rng, nonzero=True) for _ in range(2)]
        I = CIdeal.of(gens)
        f = R.zero()
        for g in gens:
            f = f + random_mpoly(R, rng) * g
        assert I.normal_form(f).is_zero()


def test_radical_membership_examples():
    R = ring2()
    x, xi = R.gens()
    assert radical_member(x, CIdeal.of([x**2], ring=R))
    assert not radical_member(R.one(), CIdeal.of([xi - R.one()]))
    assert radical_member(x + xi, CIdeal.of([x**2, xi**2]))


def test_radical_vs_bruteforce_random():
    R = ring2()
    rng = random.Random(41)
    for _ in range(40):
        gens = [random_mpoly(R, rng, max_degree=2, nonzero=True) for _ in range(rng.randrange(1, 3))]
        I = CIdeal.of(gens)
        f = random_mpoly(R, rng, max_degree=2)
        bound = 2 * len(gens) * max(2, max(g.total_degree() for g in gens))
        assert radical_member(f, I) == radical_member_bruteforce(f, I, bound)


def test_krull_dim_examples():
    R = ring2()
    x, xi = R.gens()
    assert krull_dim(CIdeal.of([xi])) == 1
    assert krull_dim(CIdeal.of([], ring=R)) == 2
    assert krull_dim(CIdeal.of([R.one()])) == -1
    assert krull_dim(CIdeal.of([x * xi - R.one()])) == 1
    assert krull_dim(CIdeal.of([x, xi])) == 0


def test_krull_dim_random_hypersurface():
    rng = random.Random(5)
    for nvars in (2, 4):
        names = tuple(f"v{i}" for i in range(nvars))
        R = PolyRing(F5, names)
        for _ in range(10):
            f = random_mpoly(R, rng, max_degree=3, nonzero=True)
            if f.total_degree() == 0:
                continue
            assert krull_dim(CIdeal.of([f])) == nvars - 1


def test_reduced_basis_unique_under_permutation():
    R = PolyRing(F5, ("a", "b", "c"))
    rng = random.Random(71)
    for _ in range(25):
        gens = [random_mpoly(R, rng, max_degree=3, nonzero=True) for _ in range(3)]
        base = buchberger(gens)
        for perm in itertools.permutations(gens):
            assert buchberger(list(perm)) == base


def test_basis_generates_same_ideal():
    R = ring2()
    rng = random.Random(43)
    for _ in range(15):
        gens = [random_mpoly(R, rng, max_degree=2, nonzero=True) for _ in range(2)]
        I = CIdeal.of(gens)
        J = CIdeal.of(list(I.groebner_basis()), ring=R)
        assert ideal_equal(I, J)


def test_not_a_field_rejected():
    R = PolyRing(Zmod(4), ("x", "xi"))
    x, xi = R.gens()
    with pytest.raises(NotAField):
        buchberger([x + xi])


def test_a_non_global_order_is_rejected():
    # x - 1 has lead 1 under these weights, so a reducer would never stop
    R = ring2()
    x, _ = R.gens()
    order = Weighted((-1, 0))
    with pytest.raises(NonGlobalOrder):
        buchberger([x - R.one()], order)
    with pytest.raises(NonGlobalOrder):
        CIdeal.of([x - R.one()], order).groebner_basis()


def test_generators_of_another_ring_are_rejected():
    x, _ = ring2().gens()
    R7 = ring2(Zmod(7))
    with pytest.raises(RingMismatch):
        CIdeal.of([x - ring2().one()], ring=R7)
    with pytest.raises(RingMismatch):
        CIdeal.of([x]).normal_form(R7.gen(0))


def test_module_colon_examples():
    R = ring2()
    x, xi = R.gens()
    one, zero = R.one(), R.zero()
    assert ideal_equal(CIdeal.of(colon_by_tag([(x,)], (one,), R), ring=R), CIdeal.of([x]))
    assert colon_by_tag([(x,)], (x,), R) == [one]
    colon = colon_by_tag([(x, zero), (zero, xi)], (one, one), R)
    assert ideal_equal(CIdeal.of(colon, ring=R), CIdeal.of([x * xi]))


def test_module_colon_vs_exhaustive_search():
    R = ring2()
    rng = random.Random(57)
    monos = []
    for e1 in range(5):
        for e2 in range(5):
            if e1 + e2 <= 4:
                monos.append(MPoly(R, {(e1, e2): 1}))
    for _ in range(10):
        rank = rng.randrange(1, 3)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=2) for _ in range(rank))
            for _ in range(rng.randrange(1, 3))
        ]
        cols = [c for c in cols if any(not p.is_zero() for p in c)]
        if not cols:
            continue
        in_module = submodule_member(cols, F5, POT_KEY, POT_DESC)
        v = tuple(random_mpoly(R, rng, max_degree=1) for _ in range(rank))
        colon = colon_by_tag(cols, v, R)
        # the elimination returns the colon's reduced basis
        assert colon == buchberger(colon)
        # soundness: every generator of the colon multiplies v into N
        for g in colon:
            assert in_module(tuple(g * vi for vi in v))
        # pointwise agreement with brute force on monomials of degree <= 4
        ideal = CIdeal.of(colon, ring=R)
        for z in monos:
            in_colon = ideal.contains(z)
            assert in_colon == in_module(tuple(z * vi for vi in v)), (str(z), [str(c) for c in v])


def test_module_colon_into_first_coordinate():
    # the pipeline's own case (N : e0) at the ranks of small presentations
    R = ring2()
    rng = random.Random(71)
    monos = [
        MPoly(R, {(e1, e2): 1}) for e1 in range(5) for e2 in range(5) if e1 + e2 <= 4
    ]
    for _ in range(6):
        rank = rng.randrange(3, 5)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=1, max_terms=3) for _ in range(rank))
            for _ in range(rng.randrange(rank, rank + 3))
        ]
        in_module = submodule_member(cols, F5, POT_KEY, POT_DESC)
        tail = (R.zero(),) * (rank - 1)
        colon = colon_by_tag(cols, (R.one(),) + tail, R)
        assert colon == buchberger(colon)
        for g in colon:
            assert in_module((g,) + tail)
        ideal = CIdeal.of(colon, ring=R)
        for z in monos:
            assert ideal.contains(z) == in_module((z,) + tail), str(z)


def test_eliminate_onto_the_first_coordinate_vs_exhaustive_search():
    # the exact route's own call: span cap A*e_0 with no tag coordinate, as
    # the reduced grevlex basis of {z : z*e_0 in span}
    R = ring2()
    rng = random.Random(79)
    monos = [
        MPoly(R, {(e1, e2): 1}) for e1 in range(5) for e2 in range(5) if e1 + e2 <= 4
    ]
    for _ in range(10):
        rank = rng.randrange(2, 5)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=2, max_terms=3) for _ in range(rank))
            for _ in range(rng.randrange(rank - 1, rank + 3))
        ]
        in_module = submodule_member(cols, F5, POT_KEY, POT_DESC)
        tail = (R.zero(),) * (rank - 1)
        onto = [MPoly(R, g) for g in _eliminate_onto([column_vec(c) for c in cols], 0, F5)]
        assert onto == buchberger(onto)
        for g in onto:
            assert in_module((g,) + tail)
        ideal = CIdeal.of(onto, ring=R)
        for z in monos:
            assert ideal.contains(z) == in_module((z,) + tail), str(z)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_finishing_selects_from_the_reduced_basis(p):
    # a finish predicate returns exactly the elements of the full reduced
    # basis whose lead passes it, in the same order: for elimination onto
    # each position of random submodules, and for block eliminations of
    # random ideals
    grevlex = GrevLex()
    R = PolyRing(Zmod(p), ("x", "xi"))
    F = R.coeffs
    rng = random.Random(300 + p)
    for _ in range(8):
        rank = rng.randrange(1, 4)
        vecs = []
        for _ in range(rng.randrange(1, 4)):
            col = [random_mpoly(R, rng, max_degree=2) for _ in range(rank)]
            vec = {(pos, e): c for pos, f in enumerate(col) for e, c in f.terms.items()}
            if vec:
                vecs.append(vec)
        for k in range(rank):
            termkey = lambda t: (t[0] != k, grevlex.key(t[1]), -t[0])
            args = (
                vecs,
                F,
                termkey,
                lambda t: (t[0] == k, grevlex.desc_key(t[1]), t[0]),
                _shift_submul(F),
                False,
            )
            on_k = lambda lead: lead[0] == k
            full = _groebner(*args)
            finished = _groebner(*args, on_k)
            assert finished == [g for g in full if on_k(max(g, key=termkey))]
            assert all(pos == k for g in finished for pos, _ in g)
            assert _eliminate_onto(vecs, k, F) == [
                {e: c for (_, e), c in g.items()} for g in finished
            ]
    S = PolyRing(Zmod(p), ("a", "b", "c", "t"))
    for _ in range(8):
        gens = [random_mpoly(S, rng, max_degree=2, nonzero=True) for _ in range(3)]
        for split in (1, 2, 3):
            order = BlockElimination(split)
            full = buchberger(gens, order)
            for finish in (lambda e: not any(e[split:]), lambda e: not any(e)):
                want = [g for g in full if finish(g.leading(order)[0])]
                assert _checked_basis(gens, order, finish) == want


@pytest.mark.parametrize(
    "order", [Lex(), GrevLex(), BlockElimination(1), Weighted((1, 2))], ids=repr
)
def test_ideal_normal_form_matches_max_reference(order):
    R = ring2()
    rng = random.Random(101)
    termkey = lambda t: order.key(t[1])
    for _ in range(15):
        I = CIdeal.of([random_mpoly(R, rng, nonzero=True) for _ in range(2)], order)
        f = random_mpoly(R, rng, max_degree=5, max_terms=6)
        basis = [{(0, e): c for e, c in g.terms.items()} for g in I.groebner_basis()]
        expected = reference_nf({(0, e): c for e, c in f.terms.items()}, basis, termkey, F5)
        assert I.normal_form(f) == MPoly(R, {e: c for (_, e), c in expected.items()})


@pytest.mark.parametrize("base", [GrevLex(), Lex()], ids=repr)
def test_module_normal_form_matches_max_reference(base):
    R = ring2()
    rng = random.Random(103)
    # position over term: lower positions dominate, ties by the base order
    termkey = lambda t: (-t[0], base.key(t[1]))
    desckey = lambda t: (t[0], base.desc_key(t[1]))
    for _ in range(10):
        rank = rng.randrange(2, 4)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=2, max_terms=2) for _ in range(rank))
            for _ in range(rank)
        ]
        basis = submodule_basis(cols, F5, termkey, desckey)
        v = column_vec([random_mpoly(R, rng, max_degree=4, max_terms=4) for _ in range(rank)])
        expected = reference_nf(v, basis, termkey, F5)
        prepared = _prepared(basis, F5, termkey)
        assert _reduce(dict(v), prepared, F5, desckey, _shift_submul(F5)) == expected


def test_frobenius_root():
    R = PolyRing(Zmod(2), ("X1", "X2", "Xi1", "Xi2"))
    X1, X2, Xi1, Xi2 = R.gens()
    # X1^4 = (X1^2)^2 is rooted twice; X2^2 + Xi1^2 + 1 = (X2 + Xi1 + 1)^2
    J = frobenius_root(CIdeal.of([X1**4, X2**2 + Xi1**2 + R.one(), Xi2**3]))
    assert set(J.groebner_basis()) == {X1, X2 + Xi1 + R.one(), Xi2**3}
    # no p-th power in the reduced basis: the same ideal, generators and all
    K = CIdeal.of([Xi2 * X1, X1**2 * X2 + Xi1])
    assert frobenius_root(K) is K
    # over F_3 only exponents divisible by 3 are rooted
    S = PolyRing(Zmod(3), ("X", "Y"))
    X, Y = S.gens()
    J = frobenius_root(CIdeal.of([X**6 - Y**3, Y**4]))
    assert set(J.groebner_basis()) == {X**2 - Y, Y**4}


def test_frobenius_root_rejects_coefficients_other_than_f_p():
    # over Q there is no Frobenius; over GF(4), t^2 = t + 1, so the root
    # X + t of X^2 + t would square to X^2 + t + 1 and change the radical
    R = PolyRing(QQ, ("X",))
    (X,) = R.gens()
    with pytest.raises(RingMismatch):
        frobenius_root(CIdeal.of([X**2]))
    K = extension_field(2, 2)
    S = PolyRing(K, ("X",))
    f = MPoly(S, {(2,): K.one(), (0,): (0, 1)})
    with pytest.raises(RingMismatch):
        frobenius_root(CIdeal.of([f]))


@pytest.mark.parametrize("order", [GrevLex(), Lex()], ids=repr)
def test_ideal_basis_certificate(order):
    # the product and chain criteria skip S-pairs; a pair they needed would
    # leave an S-polynomial that does not reduce to zero.  Binomial ideals
    # have larger bases than random dense ones.
    R = PolyRing(F5, ("a", "b", "c"))
    rng = random.Random(109)
    termkey = lambda t: order.key(t[1])
    for _ in range(15):
        gens = [
            MPoly(R, {random_monomial(3, rng, 4): 1})
            + MPoly(R, {random_monomial(3, rng, 4): rng.randrange(1, 5)})
            for _ in range(3)
        ]
        basis = [{(0, e): c for e, c in g.terms.items()} for g in buchberger(gens, order)]
        assert_reduced_module_basis(basis, termkey, F5)


@pytest.mark.parametrize("base", [GrevLex(), Lex()], ids=repr)
def test_submodule_basis_certificate(base):
    R = ring2()
    rng = random.Random(113)
    termkey = lambda t: (-t[0], base.key(t[1]))
    desckey = lambda t: (t[0], base.desc_key(t[1]))
    for _ in range(15):
        rank = rng.randrange(2, 4)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=2, max_terms=3) for _ in range(rank))
            for _ in range(rng.randrange(2, 5))
        ]
        basis = submodule_basis(cols, F5, termkey, desckey)
        assert_reduced_module_basis(basis, termkey, F5)
