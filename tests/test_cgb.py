"""Commutative Groebner engine: bases, normal forms, radical, dimension, colon."""

import itertools
import random

import pytest

from pweyl import (
    CIdeal,
    FreeSubmodule,
    buchberger,
    frobenius_root,
    krull_dim,
    module_colon,
    radical_member,
)
from pweyl.cgb import _buchberger, _eliminate_onto, _groebner, _shift_form, _shift_submul
from pweyl.errors import NotAField
from pweyl.mpoly import MPoly, PolyRing
from pweyl.orders import (
    BlockElimination,
    GrevLex,
    Lex,
    PositionOverTerm,
    Weighted,
    monomial_divides,
)
from pweyl.rings import QQ, Zmod

from helpers import ideal_equal, radical_member_bruteforce, random_monomial, random_mpoly

F5 = Zmod(5)


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
            if f.is_constant():
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


def test_module_colon_examples():
    R = ring2()
    x, xi = R.gens()
    one, zero = R.one(), R.zero()
    N = FreeSubmodule.of([(x,)])
    assert ideal_equal(module_colon(N, (one,)), CIdeal.of([x]))
    assert module_colon(N, (x,)).is_unit_ideal()
    N2 = FreeSubmodule.of([(x, zero), (zero, xi)])
    assert ideal_equal(module_colon(N2, (one, one)), CIdeal.of([x * xi]))


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
        N = FreeSubmodule.of(cols, rank=rank, ring=R)
        v = tuple(random_mpoly(R, rng, max_degree=1) for _ in range(rank))
        colon = module_colon(N, v)
        # the colon's generators are its reduced basis, cached as they are
        assert list(colon.groebner_basis()) == buchberger(list(colon.gens))
        # soundness: every generator of the colon multiplies v into N
        for g in colon.gens:
            assert N.contains(tuple(g * vi for vi in v))
        # pointwise agreement with brute force on monomials of degree <= 4
        for z in monos:
            in_colon = colon.contains(z)
            in_module = N.contains(tuple(z * vi for vi in v))
            assert in_colon == in_module, (str(z), [str(c) for c in v])


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
        N = FreeSubmodule.of(cols, rank=rank, ring=R)
        tail = (R.zero(),) * (rank - 1)
        colon = module_colon(N, (R.one(),) + tail)
        assert list(colon.groebner_basis()) == buchberger(list(colon.gens))
        for g in colon.gens:
            assert N.contains((g,) + tail)
        for z in monos:
            assert colon.contains(z) == N.contains((z,) + tail), str(z)


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
                _shift_form,
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
                assert _buchberger(gens, order, finish) == want


def test_module_membership_via_normal_form():
    R = ring2()
    x, xi = R.gens()
    zero = R.zero()
    N = FreeSubmodule.of([(x, zero), (zero, xi)])
    assert N.contains((x * xi, x * xi))
    assert not N.contains((R.one(), zero))


def reference_nf(vec, basis, termkey, R):
    """Normal form of a {(position, exponents): coeff} dict by the textbook
    loop: the leading term by ``max``, the smallest dividing basis lead."""
    leads = sorted(((max(g, key=termkey), g) for g in basis), key=lambda t: termkey(t[0]))
    work, rem = dict(vec), {}
    while work:
        lt = max(work, key=termkey)
        c = work[lt]
        for lead, g in leads:
            if lead[0] == lt[0] and monomial_divides(lead[1], lt[1]):
                factor = R.mul(c, R.inv(g[lead]))
                shift = tuple(a - b for a, b in zip(lt[1], lead[1]))
                for (pos, e), gc in g.items():
                    key = (pos, tuple(a + b for a, b in zip(e, shift)))
                    v = R.sub(work.get(key, R.zero()), R.mul(factor, gc))
                    if R.is_zero(v):
                        work.pop(key, None)
                    else:
                        work[key] = v
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


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
    order = PositionOverTerm(base)
    termkey = lambda t: order.key(t[0], t[1])
    for _ in range(10):
        rank = rng.randrange(2, 4)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=2, max_terms=2) for _ in range(rank))
            for _ in range(rank)
        ]
        N = FreeSubmodule.of(cols, rank=rank, ring=R, order=order)
        v = tuple(random_mpoly(R, rng, max_degree=4, max_terms=4) for _ in range(rank))
        basis = [N._vec(g) for g in N.groebner_basis()]
        expected = reference_nf(N._vec(v), basis, termkey, F5)
        assert N.normal_form(v) == N._unvec(expected)


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


def assert_reduced_module_basis(vecs, termkey, R):
    """Term dicts {(position, exponents): coeff}: monic, no term divisible by
    another element's lead, and every S-vector of two elements whose leads
    share a position reduces to zero by the textbook reference."""
    leads = [max(g, key=termkey) for g in vecs]
    for i, g in enumerate(vecs):
        assert g[leads[i]] == R.one()
        for k, (pos, lead) in enumerate(leads):
            if k != i:
                assert not any(p == pos and monomial_divides(lead, e) for p, e in g), (k, i)
    for i, k in itertools.combinations(range(len(vecs)), 2):
        (pi, li), (pk, lk) = leads[i], leads[k]
        if pi != pk:
            continue
        lcm = tuple(map(max, li, lk))
        s = {}
        for g, lead, sign in ((vecs[i], li, R.one()), (vecs[k], lk, R.neg(R.one()))):
            shift = tuple(a - b for a, b in zip(lcm, lead))
            for (pos, e), c in g.items():
                t = (pos, tuple(a + b for a, b in zip(e, shift)))
                v = R.add(s.get(t, R.zero()), R.mul(sign, c))
                if R.is_zero(v):
                    s.pop(t, None)
                else:
                    s[t] = v
        assert not reference_nf(s, vecs, termkey, R)


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
    order = PositionOverTerm(base)
    termkey = lambda t: order.key(t[0], t[1])
    for _ in range(15):
        rank = rng.randrange(2, 4)
        cols = [
            tuple(random_mpoly(R, rng, max_degree=2, max_terms=3) for _ in range(rank))
            for _ in range(rng.randrange(2, 5))
        ]
        N = FreeSubmodule.of(cols, rank=rank, ring=R, order=order)
        assert_reduced_module_basis([N._vec(g) for g in N.groebner_basis()], termkey, F5)
