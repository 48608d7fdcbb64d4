"""Commutative Groebner engine: bases, normal forms, radical, dimension, and
elimination onto one coordinate of a free module (with the colon it gives)."""

import itertools
import random

import pytest

from pweyl import (
    CIdeal,
    FrobeniusTwist,
    WeylOp,
    buchberger,
    frobenius_root,
    krull_dim,
    parse_weyl,
    radical_member,
)
from pweyl import cgb
from pweyl.cgb import _checked_basis, _eliminate_onto, _groebner, _reduce, _to_vec
from pweyl.errors import NonGlobalOrder, NotAField, RingMismatch
from pweyl.mpoly import MPoly, PolyRing, _shift_submul
from pweyl.orders import GREVLEX, GrevLex, Weighted
from pweyl.rings import QQ, Zmod, extension_field

from helpers import (
    assert_engine_pairs,
    assert_reduced_module_basis,
    colon_by_tag,
    column_vec,
    engine_nf,
    ideal_equal,
    position_lists,
    radical_member_bruteforce,
    radical_member_rabinowitsch,
    random_monomial,
    random_mpoly,
    random_weylop,
    reference_groebner,
    reference_nf,
    submodule_basis,
    submodule_member,
)

F5 = Zmod(5)

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
    # generators x*xi - 1 and xi^2 - x under lex with xi > x, which the
    # weights (1, 0) give in two variables, reduce to {xi - x^2, x^3 - 1}:
    # one S-polynomial then back-substitution
    R = PolyRing(QQ, ("xi", "x"))
    xi, x = R.gens()
    basis = _checked_basis([xi * x - R.one(), xi**2 - x], Weighted((1, 0)))
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
    order = Weighted((1, 0))
    basis = _checked_basis([xi2 * x2 - R2.one(), xi2**2 - x2], order)
    assert engine_nf(x2**3, basis, order) == R2.one()


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
    # the extra slot for t is no variable of the ring, whatever its names
    for names in [("x", "xi"), ("t", "tt")]:
        R = PolyRing(F5, names)
        rng = random.Random(41)
        for _ in range(40):
            k = rng.randrange(1, 3)
            gens = [random_mpoly(R, rng, max_degree=2, nonzero=True) for _ in range(k)]
            I = CIdeal.of(gens)
            f = random_mpoly(R, rng, max_degree=2)
            bound = 2 * len(gens) * max(2, max(g.total_degree() for g in gens))
            assert radical_member(f, I) == radical_member_bruteforce(f, I, bound)


@pytest.mark.parametrize("n, p", list(itertools.product((1, 2), (2, 3, 5))))
def test_lead_certificate_matches_the_rabinowitsch_reference(monkeypatch, n, p):
    # on the twisted rings, over ideals with h^k among their generators:
    # members h * q and random draws, decided as the reference decides them;
    # a False with no engine run is the certificate's, and the members whose
    # normal form is not 0 go to the engine, as no certificate refutes them
    calls = []
    groebner = cgb._groebner

    def counted(*args):
        calls.append(args)
        return groebner(*args)

    monkeypatch.setattr(cgb, "_groebner", counted)
    R = FrobeniusTwist(p, n).twisted_ring
    rng = random.Random(10 * n + p)
    branches = {"certificate": 0, "engine": 0}
    for _ in range(30):
        h = random_mpoly(R, rng, max_degree=2, max_terms=3, nonzero=True)
        gens = [h ** rng.randrange(2, 4)]
        gens += [random_mpoly(R, rng, max_degree=2, nonzero=True) for _ in range(rng.randrange(2))]
        I = CIdeal.of(gens)
        I.groebner_basis()
        member = rng.random() < 0.5
        if member:
            f = h * random_mpoly(R, rng, max_degree=1, max_terms=3, nonzero=True)
        else:
            f = random_mpoly(R, rng, max_degree=2)
        before = len(calls)
        got = radical_member(f, I)
        engine = len(calls) > before
        assert got == radical_member_rabinowitsch(f, I), (str(f), [str(g) for g in gens])
        assert got or not member
        if engine:
            branches["engine"] += 1
        elif not got:
            branches["certificate"] += 1
    assert all(branches.values()), branches


def test_krull_dim_examples():
    R = ring2()
    x, xi = R.gens()
    assert krull_dim(CIdeal.of([xi])) == 1
    assert krull_dim(CIdeal.of([], ring=R)) == 2
    assert krull_dim(CIdeal.of([R.one()])) == -1
    assert krull_dim(CIdeal.of([x * xi - R.one()])) == 1
    assert krull_dim(CIdeal.of([x, xi])) == 0
    assert krull_dim(CIdeal.of([x**2 * xi - xi**3 + x])) == 1


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
    # the zero ideal has an empty basis, so the engine sees the ring only here
    with pytest.raises(NotAField):
        radical_member(x, CIdeal.of([], ring=R))


def test_a_non_global_order_is_rejected():
    # x - 1 has lead 1 under these weights, so a reducer would never stop
    R = ring2()
    x, _ = R.gens()
    with pytest.raises(NonGlobalOrder):
        _checked_basis([x - R.one()], Weighted((-1, 0)))


def test_ideal_of_takes_its_ring_by_keyword():
    # an order where the ring was fails at the call, not inside the engine
    R = ring2()
    x, _ = R.gens()
    with pytest.raises(TypeError):
        CIdeal.of([x], Weighted((1, 0)))


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


def engine_inputs(mode, rng):
    """Random inputs of the engine in one of its three modes, as
    (vectors, R, termkey, desckey, submul, product_criterion): commutative
    ideals, Weyl left ideals, and eliminations of submodules of a free
    module onto one position, as ``_eliminate_onto`` orders them."""
    grevlex = (lambda t: GREVLEX.key(t[1]), lambda t: GREVLEX.desc_key(t[1]))
    F = Zmod(rng.choice((2, 3, 5, 7)))
    if mode == "ideal":
        R = PolyRing(F, ("a", "b", "c"))
        # homogeneous generators, which rarely give the unit ideal
        gens = []
        for _ in range(rng.randrange(2, 4)):
            degree = rng.randrange(2, 5)
            monos = [sorted(rng.choices(range(3), k=degree)) for _ in range(3)]
            terms = {tuple(map(m.count, range(3))): rng.randrange(1, F.modulus) for m in monos}
            gens.append(MPoly(R, terms))
        return [_to_vec(g) for g in gens], F, *grevlex, _shift_submul(F), True
    if mode == "left":
        n = rng.choice((1, 2))
        gens = [
            random_weylop(F, n, rng, max_exp=2, max_terms=3, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        # random generators mostly give the unit ideal; a common right
        # factor keeps the ideal inside a proper one
        if rng.random() < 0.5:
            g = random_weylop(F, n, rng, max_exp=1, max_terms=2, nonzero=True)
            gens = [f * g for f in gens]
        return [_to_vec(g) for g in gens], F, *grevlex, WeylOp.zero(F, n)._submul(F), False
    R = PolyRing(F, ("x", "xi"))
    rank, k = rng.randrange(2, 6), rng.randrange(2)
    vecs = []
    for _ in range(rng.randrange(2, 6)):
        col = [random_mpoly(R, rng, max_degree=2, max_terms=3) for _ in range(rank)]
        vecs.append(column_vec(col))
    termkey = lambda t: (t[0] != k, GREVLEX.key(t[1]), -t[0])
    desckey = lambda t: (t[0] == k, GREVLEX.desc_key(t[1]), t[0])
    return vecs, F, termkey, desckey, _shift_submul(F), False


@pytest.mark.parametrize("mode", ["ideal", "left", "module"])
def test_engine_matches_the_criterion_free_reference(mode):
    # the pair criteria, applied as each element is admitted, drop only
    # pairs that the reduced basis does not need: it equals the one that
    # reduces every pair, with the product criterion on for ideals only
    rng = random.Random({"ideal": 41, "left": 43, "module": 47}[mode])
    for _ in range(25):
        vecs, F, termkey, desckey, submul, product = engine_inputs(mode, rng)
        want = reference_groebner(vecs, F, termkey, submul)
        assert _groebner(vecs, F, termkey, desckey, submul, product) == want, vecs


@pytest.mark.parametrize("mode", ["ideal", "left", "module"])
def test_reduce_remainders_run_from_their_lead_down(mode):
    # _reduce pops terms in descending order, so a remainder's first key is
    # its lead: the engine reads the lead of a reduced S-polynomial there.
    # Random vectors over the terms of the inputs, shifted, are reduced
    # against the per-position lists of the reduced basis.
    rng = random.Random({"ideal": 61, "left": 67, "module": 71}[mode])
    remainders = 0
    for _ in range(20):
        vecs, F, termkey, desckey, submul, product = engine_inputs(mode, rng)
        basis = position_lists(_groebner(vecs, F, termkey, desckey, submul, product), termkey)
        pool = sorted({t for v in vecs for t in v})
        for _ in range(5):
            shift = tuple(rng.randrange(3) for _ in pool[0][1])
            work = {
                (pos, tuple(map(sum, zip(e, shift)))): rng.randrange(1, F.modulus)
                for pos, e in rng.sample(pool, min(len(pool), 4))
            }
            rem = _reduce(work, basis, desckey, submul)
            assert list(rem) == sorted(rem, key=termkey, reverse=True)
            remainders += bool(rem)
    assert remainders >= 20


def test_engine_closes_the_unit_left_ideal_like_the_reference():
    # d1^3 - x2 and d2^2 - x1 generate A_2 at p = 5
    F = Zmod(5)
    gens = [parse_weyl(text, 2, F) for text in ("d1^3 - x2", "d2^2 - x1")]
    vecs, submul = [_to_vec(g) for g in gens], gens[0]._submul(F)
    termkey = lambda t: GREVLEX.key(t[1])
    want = reference_groebner(vecs, F, termkey, submul)
    assert want == [{(0, (0, 0, 0, 0)): 1}]
    assert _groebner(vecs, F, termkey, lambda t: GREVLEX.desc_key(t[1]), submul, False) == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_finishing_selects_from_the_reduced_basis(p):
    # a finish predicate returns exactly the elements of the full reduced
    # basis whose lead passes it, in the same order: for elimination onto
    # each position of random submodules, and for random ideals under
    # weights 0 on a head block and 1 on the tail, which eliminate the tail
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
            termkey = lambda t: (t[0] != k, GREVLEX.key(t[1]), -t[0])
            args = (
                vecs,
                F,
                termkey,
                lambda t: (t[0] == k, GREVLEX.desc_key(t[1]), t[0]),
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
        vecs = [{(0, e): c for e, c in g.terms.items()} for g in gens]
        for split in (1, 2, 3):
            order = Weighted((0,) * split + (1,) * (4 - split))
            keys = (lambda t: order.key(t[1]), lambda t: order.desc_key(t[1]))
            args = (vecs, F, *keys, _shift_submul(F), True)
            full = _checked_basis(gens, order)
            for finish in (lambda e: not any(e[split:]), lambda e: not any(e)):
                want = [
                    {(0, e): c for e, c in g.terms.items()}
                    for g in full
                    if finish(max(g.terms, key=order.key))
                ]
                assert _groebner(*args, lambda lead: finish(lead[1])) == want


@pytest.mark.parametrize(
    "order", [Weighted((1, 0)), GrevLex(), Weighted((0, 1)), Weighted((1, 2))], ids=repr
)
def test_ideal_normal_form_matches_max_reference(order):
    R = ring2()
    rng = random.Random(101)
    termkey = lambda t: order.key(t[1])
    for _ in range(15):
        gens = [random_mpoly(R, rng, nonzero=True) for _ in range(2)]
        f = random_mpoly(R, rng, max_degree=5, max_terms=6)
        basis = _checked_basis(gens, order)
        vecs = [{(0, e): c for e, c in g.terms.items()} for g in basis]
        expected = reference_nf({(0, e): c for e, c in f.terms.items()}, vecs, termkey, F5)
        want = MPoly(R, {e: c for (_, e), c in expected.items()})
        assert engine_nf(f, basis, order) == want
        if order == GREVLEX:
            I = CIdeal.of(gens)
            assert_engine_pairs(I)
            assert I.normal_form(f) == want


@pytest.mark.parametrize("base", [GrevLex(), Weighted((1, 0))], ids=repr)
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
        pairs = position_lists(basis, termkey)
        assert _reduce(dict(v), pairs, desckey, _shift_submul(F5)) == expected


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
    t = K.element_from_index(2)  # the index with base-2 digits (0, 1)
    f = MPoly(S, {(2,): K.one(), (0,): t})
    with pytest.raises(RingMismatch):
        frobenius_root(CIdeal.of([f]))


@pytest.mark.parametrize("order", [GrevLex(), Weighted((3, 2, 1))], ids=repr)
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
        basis = [{(0, e): c for e, c in g.terms.items()} for g in _checked_basis(gens, order)]
        assert_reduced_module_basis(basis, termkey, F5)


@pytest.mark.parametrize("base", [GrevLex(), Weighted((1, 0))], ids=repr)
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
