"""Center bookkeeping: the residue split over the center, central annihilators."""

import random
from itertools import permutations, product

import pytest

from pweyl import (
    CIdeal,
    FrobeniusTwist,
    LeftIdeal,
    WeylOp,
    buchberger,
    central_annihilator,
    central_annihilator_exact,
    central_annihilator_truncated,
    parse_weyl,
)
from pweyl import cgb
from pweyl.center import (
    _central_normal_forms,
    _KernelEchelon,
    _monomials_up_to,
    _split_residues,
    _support_dimension,
    truncated_kernel,
)
from pweyl.corpus import load_corpus
from pweyl.errors import BadPrime, RingMismatch
from pweyl.mpoly import MPoly, PolyRing
from pweyl.orders import GrevLex, Weighted, monomial_divides
from pweyl.poisson import coisotropy_check
from pweyl.psupport import specialize_mod_p
from pweyl.rings import QQ, Zmod

from helpers import (
    berkowitz_det,
    dense_kernel,
    ideal_equal,
    minimal_leads,
    random_mpoly,
    random_weylop,
    rank_p2n_colon,
    recombine_residues,
    reduced_norms,
    reference_ladder,
    symbol_dimension,
)


def gens_1var(ring):
    return WeylOp.x(ring, 1, 0), WeylOp.d(ring, 1, 0), WeylOp.one(ring, 1)


def test_decompose_p2_examples():
    # x^a d^b split by the residues of all its exponents: the coordinate of
    # the residue monomial x^r d^s over the centre, with q in place of p*q + r
    tw = FrobeniusTwist(2, 1)
    F = tw.weyl_ring
    x, d, one = gens_1var(F)
    every = range(2)

    assert _split_residues((x**2).terms, 2, every) == {(0, 0): {(1, 0): 1}}
    assert _split_residues((x**3 * d).terms, 2, every) == {(1, 1): {(1, 0): 1}}
    # d^2 x^2 = x^2 d^2 mod 2
    assert _split_residues((d**2 * x**2).terms, 2, every) == {(0, 0): {(1, 1): 1}}
    # the d slot alone: x^3 d^3 is x^3 Xi at d^1; the x slot alone: X x d^3
    assert _split_residues((x**3 * d**3).terms, 2, range(1, 2)) == {(1,): {(3, 1): 1}}
    assert _split_residues((x**3 * d**3).terms, 2, range(1)) == {(1,): {(1, 3): 1}}


SLOT_SETS = {"x": lambda n: range(n), "d": lambda n: range(n, 2 * n), "all": lambda n: range(2 * n)}


@pytest.mark.parametrize("p,n", list(product((2, 3, 5), (1, 2))))
def test_decompose_round_trip(p, n):
    # splitting by residues at the x slots, the d slots or all slots, then
    # recombining each exponent as p*q + r, gives back the operator; every
    # part is keyed by its residue, with quotients in place at the slots
    tw = FrobeniusTwist(p, n)
    rng = random.Random(101 * p + n)
    for _ in range(40):
        f = random_weylop(tw.weyl_ring, n, rng, max_exp=3 * p)
        for label, slots_of in SLOT_SETS.items():
            slots = slots_of(n)
            parts = _split_residues(f.terms, p, slots)
            assert recombine_residues(parts, p, slots) == f.terms, (label, str(f))
            assert all(0 <= ri < p for r in parts for ri in r)
            assert sum(len(t) for t in parts.values()) == len(f.terms)


def test_recombine_then_decompose_round_trip():
    # parts over the residues of all slots, each a twisted polynomial,
    # recombined into an operator split back into the same parts
    tw = FrobeniusTwist(3, 1)
    R = tw.twisted_ring
    rng = random.Random(103)
    residues = list(product(range(3), repeat=2))
    for _ in range(40):
        parts = {}
        for _ in range(rng.randrange(1, 4)):
            r = residues[rng.randrange(len(residues))]
            poly = random_mpoly(R, rng, max_degree=2)
            if not poly.is_zero():
                parts[r] = poly.terms
        op = WeylOp(tw.weyl_ring, 1, recombine_residues(parts, 3, range(2)))
        assert _split_residues(op.terms, 3, range(2)) == parts


def test_embedded_polynomials_are_central():
    from pweyl.weyl import is_central

    tw = FrobeniusTwist(3, 1)
    R = tw.twisted_ring
    X, Xi = R.gens()
    for poly in (X, Xi, X * Xi - R.one(), X**2 + Xi):
        assert is_central(tw.embed(poly)).is_central


def test_twist_centrality_is_checked_once_per_prime_and_arity(monkeypatch):
    import pweyl.center as center
    from pweyl.weyl import CentralityResult

    calls = []
    real = center.is_central

    def counting(op):
        calls.append(op)
        return real(op)

    monkeypatch.setattr(center, "is_central", counting)
    center._check_centrality.cache_clear()
    FrobeniusTwist(5, 2)
    assert len(calls) == 4  # x1^5, d1^5, x2^5 and d2^5
    FrobeniusTwist(5, 2)
    assert len(calls) == 4
    # a failed check is not cached: it raises on every construction
    monkeypatch.setattr(center, "is_central", lambda op: CentralityResult(False, None, None))
    for _ in range(2):
        with pytest.raises(AssertionError):
            FrobeniusTwist(7, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_annihilator_examples(p):
    F = Zmod(p)
    tw = FrobeniusTwist(p, 1)
    R = tw.twisted_ring
    X, Xi = R.gens()
    x, d, one = gens_1var(F)

    res = central_annihilator_exact(LeftIdeal.of([d]))
    assert res.status == "exact"
    assert ideal_equal(res.ideal, CIdeal.of([Xi]))

    res = central_annihilator_exact(LeftIdeal.of([d - one]))
    assert ideal_equal(res.ideal, CIdeal.of([Xi - R.one()]))

    res = central_annihilator_exact(LeftIdeal.of([x * d]))
    assert ideal_equal(res.ideal, CIdeal.of([X * Xi]))

    res = central_annihilator_exact(LeftIdeal.of([one]))
    assert res.ideal.is_unit_ideal()


def test_exact_annihilator_elements_lie_in_ideal():
    # Ann_Z = I cap Z: every output generator must be in the left ideal
    for p in (2, 3, 5):
        tw = FrobeniusTwist(p, 1)
        F = tw.weyl_ring
        x, d, one = gens_1var(F)
        for gens in ([d], [d - one], [x * d], [d - x]):
            I = LeftIdeal.of(gens)
            res = central_annihilator_exact(I)
            for g in res.ideal.gens:
                assert I.contains(tw.embed(g))


LEGENDRE_EXP = ("x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4", "d2 - 1")

# n = 2 inputs with their exact annihilators; without the support-dimension
# gate, the truncated route stopped on a plateau of dimension 3 that missed
# the second generator
EXACT_N2_PINS = [
    (LEGENDRE_EXP, 3, ("Xi2 - 1", "X1^2*Xi1^2 - X1*Xi1^2")),
    (LEGENDRE_EXP, 5, ("Xi2 - 1", "X1^2*Xi1^2 - X1*Xi1^2")),
    (LEGENDRE_EXP, 7, ("Xi2 - 1", "X1^2*Xi1^2 - X1*Xi1^2")),
    (("3*x1*d1 - 2*d1 - 1", "2*x2^2*d2^2 - 2*d2"), 3, ("Xi1 - 1", "X2^2*Xi2^2 - Xi2")),
    (("x1 - d1^2 - 2*x1^2*d1^2", "d2"), 3, ("Xi2", "X1^2*Xi1^2 - Xi1^2 + X1 + 1")),
]


@pytest.mark.parametrize("texts, p, basis", EXACT_N2_PINS)
def test_exact_annihilator_n2_pins(texts, p, basis):
    tw = FrobeniusTwist(p, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])
    res = central_annihilator(I, method="exact")
    assert res.status == "exact"
    assert tuple(str(g) for g in res.ideal.gens) == basis
    for g in res.ideal.gens:
        assert I.contains(tw.embed(g))


@pytest.mark.parametrize("texts, p, basis", EXACT_N2_PINS)
def test_truncated_route_gives_the_exact_n2_pins(texts, p, basis):
    # the plateau (Xi2 - 1) at degree 1 has dimension 3, above the support
    # dimension 2 read off the left basis, so the ladder climbs on; a left
    # ideal under a weight order has its grevlex leads computed for the gate
    tw = FrobeniusTwist(p, 2)
    gens = [parse_weyl(text, 2, tw.weyl_ring) for text in texts]
    for I in (LeftIdeal.of(gens), LeftIdeal.of(gens, Weighted((0, 0, 1, 1)))):
        res = central_annihilator(I, method="truncated")
        assert res.status == "stabilized(4)"
        assert tuple(str(g) for g in res.ideal.groebner_basis()) == basis


@pytest.mark.parametrize(
    "texts, n, p, calls",
    [
        (("d1 - x1",), 1, 11, 12),
        (("x1*d1^2 + d1 - x1",), 1, 7, 12),
        (LEGENDRE_EXP, 2, 5, 62),
    ],
)
def test_exact_route_finishes_only_the_elements_it_reads(monkeypatch, texts, n, p, calls):
    # each residue elimination, onto d^0 and then onto x_i^0 for each i,
    # tail-reduces only the basis elements on residue 0; tail-reducing every
    # element of every basis took 32, 30 and 110 reductions
    tw = FrobeniusTwist(p, n)
    I = LeftIdeal.of([parse_weyl(text, n, tw.weyl_ring) for text in texts])
    I.groebner_basis()
    count = []
    reduce = cgb._reduce

    def counted(*args):
        count.append(args)
        return reduce(*args)

    monkeypatch.setattr(cgb, "_reduce", counted)
    central_annihilator_exact(I)
    assert len(count) == calls


@pytest.mark.parametrize(
    "route", [central_annihilator, central_annihilator_exact, central_annihilator_truncated]
)
def test_the_routes_reject_coefficients_other_than_f_p(route):
    # the twist comes from the ideal's ring, and only A_n(F_p) has one
    I = LeftIdeal.of([WeylOp.d(QQ, 1, 0) - WeylOp.one(QQ, 1)])
    with pytest.raises(RingMismatch, match="F_p"):
        route(I)


def test_the_truncated_route_takes_only_the_ideals_own_twist():
    I = LeftIdeal.of([WeylOp.d(Zmod(5), 1, 0)])
    want = central_annihilator_truncated(I)
    assert central_annihilator_truncated(I, FrobeniusTwist(5, 1)) == want
    for other in (FrobeniusTwist(7, 1), FrobeniusTwist(5, 2)):
        with pytest.raises(RingMismatch):
            central_annihilator_truncated(I, other)


def test_berkowitz_matches_the_permutation_expansion():
    R = PolyRing(Zmod(7), ("a", "b"))
    rng = random.Random(41)
    for m in range(5):
        for _ in range(4):
            M = [[random_mpoly(R, rng, max_degree=2) for _ in range(m)] for _ in range(m)]
            want = R.zero()
            for perm in permutations(range(m)):
                inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
                term = R.one()
                for i, j in enumerate(perm):
                    term = term * M[i][j]
                want = want - term if inversions % 2 else want + term
            assert berkowitz_det(M, R) == want


def reduced_norm_cases():
    cases = []
    for entry in load_corpus():
        for p in entry.primes if entry.n == 1 else ():
            try:
                cases.append((FrobeniusTwist(p, 1), specialize_mod_p(entry.spec(), p)))
            except BadPrime:
                pass
    # the inputs of the exact-ladder benchmark
    ladder = {
        "d1 - x1": (5, 7, 11),
        "d1^2 - x1": (5,),
        "d1^3 - x1": (5, 7),
        "d1^2 - 1": (5, 7, 13),
        "x1*d1 - 1/3": (5, 7, 11),
        "x1^2*d1 - 1": (5,),
        "x1*d1^2 + d1 - x1": (5, 7),
    }
    for text, primes in ladder.items():
        for p in primes:
            tw = FrobeniusTwist(p, 1)
            cases.append((tw, LeftIdeal.of([parse_weyl(text, 1, tw.weyl_ring)])))
    tw = FrobeniusTwist(3, 2)
    for texts, p, _ in EXACT_N2_PINS:
        if p == 3:
            cases.append((tw, LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])))
    return cases


def test_support_dimension_is_the_dimension_of_the_exact_annihilator():
    # the ladder's gate reads dim Z/(I cap Z) off the grevlex leads of the
    # left basis (the GK dimension of D/I); the symbol ideal of the order
    # filtration gives it the Rees way; both equal the dimension of every
    # exact annihilator: the reduced-norm cases, the n = 2 corpus rows, and
    # random single operators and pairs at n = 2, p = 3
    cases = reduced_norm_cases()
    for entry in load_corpus():
        for p in entry.primes if entry.n == 2 else ():
            cases.append((FrobeniusTwist(p, 2), specialize_mod_p(entry.spec(), p)))
    rng = random.Random(43)
    tw = FrobeniusTwist(3, 2)
    for ngens in (1, 1, 2) * 6:
        gens = [
            random_weylop(tw.weyl_ring, 2, rng, max_exp=1, max_terms=3, nonzero=True)
            for _ in range(ngens)
        ]
        cases.append((tw, LeftIdeal.of(gens)))
    dims = []
    for tw, I in cases:
        dim = cgb.krull_dim(central_annihilator_exact(I).ideal)
        assert _support_dimension(I) == symbol_dimension(I) == dim, (I.gens, tw.p)
        dims.append(dim)
    assert len(cases) == 63
    assert set(dims) == {-1, 1, 2, 3}


def test_reduced_norms_lie_in_the_exact_annihilator():
    # Nrd(g), the determinant of g on the simple module, is a nonzero
    # polynomial in X and beta^p, and lies in D*g, so in I cap Z: an oracle
    # for the exact route that shares no code with the Groebner engine
    cases = reduced_norm_cases()
    assert len(cases) == 41
    for tw, I in cases:
        p, n = tw.p, tw.n
        J = central_annihilator_exact(I).ideal
        for g, norm in zip(I.groebner_basis(), reduced_norms(I, tw)):
            label = (str(g), p)
            assert not norm.is_zero(), label
            assert all(b % p == 0 for e in norm.terms for b in e[n:]), label
            terms = {e[:n] + tuple(b // p for b in e[n:]): c for e, c in norm.terms.items()}
            assert J.contains(MPoly(tw.twisted_ring, terms)), label


def test_reduced_norms_refute_the_ungated_plateau():
    # Legendre times e^(x2) at p = 3: the reduced norms of the left basis lie
    # in the ladder's annihilator, but not all in (Xi2 - 1), the plateau of
    # dimension 3 that the ladder stopped on before its support-dimension gate
    tw = FrobeniusTwist(3, 2)
    R = tw.twisted_ring
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in LEGENDRE_EXP])
    J = central_annihilator_truncated(I).ideal
    plateau = CIdeal.of([R.gen(3) - R.one()])
    norms = [
        MPoly(R, {e[:2] + tuple(b // 3 for b in e[2:]): c for e, c in norm.terms.items()})
        for norm in reduced_norms(I, tw)
    ]
    assert all(J.contains(norm) for norm in norms)
    assert not all(plateau.contains(norm) for norm in norms)


def test_truncated_examples():
    tw = FrobeniusTwist(3, 1)
    F = tw.weyl_ring
    x, d, one = gens_1var(F)
    R = tw.twisted_ring
    X, Xi = R.gens()

    res = central_annihilator_truncated(LeftIdeal.of([d]))
    assert res.status == "stabilized(1)"
    assert ideal_equal(res.ideal, CIdeal.of([Xi]))

    tw2 = FrobeniusTwist(2, 1)
    x2, d2, one2 = gens_1var(tw2.weyl_ring)
    R2 = tw2.twisted_ring
    X2, Xi2 = R2.gens()
    res = central_annihilator_truncated(LeftIdeal.of([d2 - one2]))
    assert res.status.startswith("stabilized")
    assert ideal_equal(res.ideal, CIdeal.of([Xi2 - R2.one()]))

    res = central_annihilator_truncated(LeftIdeal.of([one2]))
    assert res.ideal.is_unit_ideal()


def test_truncated_kernels_monotone():
    tw = FrobeniusTwist(3, 1)
    F = tw.weyl_ring
    x, d, one = gens_1var(F)
    I = LeftIdeal.of([x * d - one])
    previous = None
    for deg in range(1, 5):
        K = CIdeal.of(truncated_kernel(I, deg), ring=tw.twisted_ring)
        if previous is not None:
            assert all(K.contains(g) for g in previous.gens)
        previous = K


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_and_truncated_agree(p):
    F = Zmod(p)
    x, d, one = gens_1var(F)
    for gens in ([d], [d - one], [d - x], [x * d]):
        I = LeftIdeal.of(gens)
        exact = central_annihilator_exact(I)
        trunc = central_annihilator_truncated(I)
        assert trunc.status.startswith("stabilized")
        assert ideal_equal(exact.ideal, trunc.ideal)


def test_exact_and_truncated_agree_on_random_operators():
    # (n, primes, operators, max exponent per slot): operators of order <= 2,
    # on the default max_degree, whose reduced-norm floor m * p^(n-1) covers
    # the degree-7 annihilator of one n = 2 draw that 2p misses.  The n = 2,
    # p = 3 draws include x1*x2*d2 - x1*d1*d2 - x2, beyond the default guard.
    # Then external products and pairs of one operator per variable at
    # p = 3, where the ungated ladder stopped on a plateau of dimension 3,
    # for example (X2 - Xi2) for x1^2*d1^2 - x1, d2 - x2.
    cases = ((1, (3, 5), 10, 2), (1, (7,), 6, 2), (2, (2,), 10, 1), (2, (3,), 10, 1))
    rng = random.Random(0)
    inputs = []
    for n, primes, count, max_exp in cases:
        for _ in range(count):
            tw = FrobeniusTwist(rng.choice(primes), n)
            L = random_weylop(tw.weyl_ring, n, rng, max_exp=max_exp, max_terms=3, nonzero=True)
            inputs.append([L])
    F = Zmod(3)
    inputs += [[external_product(F, rng)] for _ in range(30)]
    inputs += [list(one_variable_operators(F, rng)) for _ in range(30)]
    for gens in inputs:
        exact = central_annihilator_exact(LeftIdeal.of(gens))
        trunc = central_annihilator_truncated(LeftIdeal.of(gens))
        label = ([str(g) for g in gens], gens[0].ring)
        assert exact.ideal.groebner_basis() == trunc.ideal.groebner_basis(), label


def test_exact_annihilator_matches_the_rank_p2n_colon():
    rng = random.Random(23)
    # the contraction to the centre takes one variable at a time, so n = 2
    # and n = 3 run it in two and three steps; at n = 3, exponents up to 1,
    # as exponents up to 3 - n would draw constants only
    for n, p in [(1, 2), (1, 3), (1, 5), (1, 7), (1, 11), (2, 2), (2, 3), (3, 2)]:
        tw = FrobeniusTwist(p, n)
        for ngens in (1, 2):
            for _ in range(5):
                gens = [
                    random_weylop(
                        tw.weyl_ring, n, rng, max_exp=max(1, 3 - n), max_terms=3, nonzero=True
                    )
                    for _ in range(ngens)
                ]
                want = rank_p2n_colon(LeftIdeal.of(gens), tw)
                got = central_annihilator_exact(LeftIdeal.of(gens)).ideal
                assert got.gens == want, ([str(g) for g in gens], p)
                assert got.groebner_basis() == want
                assert list(want) == buchberger(list(want))


def test_ladder_normal_forms_by_frobenius_shift():
    # the cached normal forms of the embedded monomials, reached by Frobenius
    # shifts of their predecessors, equal the direct normal forms, and the
    # kernels equal the minimal leads of a per-degree reference built from
    # the direct ones; besides random inputs, two fixed ones at p = 7: basis
    # leads that cover every slot, and one lead that leaves three slots free
    rng = random.Random(5)
    cases = []
    for n, p in product((1, 2), (2, 3, 5)):
        tw = FrobeniusTwist(p, n)
        for _ in range(3):
            gens = [
                random_weylop(tw.weyl_ring, n, rng, max_exp=2, max_terms=3, nonzero=True)
                for _ in range(rng.randrange(1, n + 1))
            ]
            cases.append((tw, gens))
    tw = FrobeniusTwist(7, 2)
    for texts in (("d1*d2 - 1", "x1*d1 - x2*d2"), ("d1^2 + d2^2 - x1",)):
        cases.append((tw, [parse_weyl(text, 2, tw.weyl_ring) for text in texts]))
    for tw, gens in cases:
        n, p, R = tw.n, tw.p, tw.twisted_ring
        I = LeftIdeal.of(gens)
        kernels = [truncated_kernel(I, d) for d in range(4)]
        monos = _monomials_up_to(2 * n, 3)
        direct = [I.normal_form(tw.embed(MPoly(R, {e: 1}))) for e in monos]
        assert _central_normal_forms(I, monos) == direct, (gens, p)
        for d in range(4):
            size = len(_monomials_up_to(2 * n, d))
            reference = dense_kernel(monos[:size], direct[:size], R)
            assert kernels[d] == minimal_leads(reference), (gens, p, d)
            # the minimal leads generate the same ideal as the whole kernel
            # and give the same coisotropy verdict and witness
            whole = CIdeal.of(reference, ring=R)
            minimal = CIdeal.of(kernels[d], ring=R)
            assert minimal.groebner_basis() == whole.groebner_basis()
            assert coisotropy_check(minimal) == coisotropy_check(whole)


@pytest.mark.parametrize(
    "texts, status, basis, bound",
    [
        (("d1^2 + d2^2 - x1",), "stabilized(2)", ["Xi1^2 + Xi2^2 - X1"], 4),
        (("d1^2 - x1", "d2 - x2"), "stabilized(2)", ["X2 - Xi2", "Xi1^2 - X1"], 5),
    ],
)
def test_ladder_reduces_only_shifts_that_land_on_a_lead(monkeypatch, texts, status, basis, bound):
    # a predecessor whose shifted normal form has no term on a basis lead
    # needs no reduction: at p = 5 these inputs normalise 3 and 4 operators,
    # where always stepping from the last nonzero slot normalised 56 and 27
    calls = []
    normal_form = LeftIdeal.normal_form

    def counted(self, f):
        calls.append(f)
        return normal_form(self, f)

    monkeypatch.setattr(LeftIdeal, "normal_form", counted)
    tw = FrobeniusTwist(5, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])
    res = central_annihilator_truncated(I)
    assert res.status == status
    assert [str(g) for g in res.ideal.groebner_basis()] == basis
    assert len(calls) <= bound


@pytest.mark.parametrize(
    "text, p, basis",
    [
        ("x2*d1*d2 + d1 - 3", 7, ("X2^7*Xi1^7*Xi2^7 + 3*Xi1^6 - 3",)),
        (
            "x1*x2*d2 - x1*d1*d2 - x2",
            3,
            ("X1^3*X2^3*Xi2^3 - X1^3*Xi1^3*Xi2^3 - X2^3 + X1^2*Xi1 + X1*X2*Xi2 + X2*Xi2^2",),
        ),
    ],
)
def test_exact_and_truncated_agree_at_the_frontier(text, p, basis):
    # n = 2 inputs where the ladder climbs to its reduced-norm ceiling
    tw = FrobeniusTwist(p, 2)
    L = parse_weyl(text, 2, tw.weyl_ring)
    exact = central_annihilator_exact(LeftIdeal.of([L]))
    trunc = central_annihilator_truncated(LeftIdeal.of([L]))
    assert tuple(str(g) for g in exact.ideal.groebner_basis()) == basis
    assert trunc.status == f"truncated({3 * p})"
    assert trunc.ideal.groebner_basis() == exact.ideal.groebner_basis()


def test_kernel_echelon_answers_degrees_in_any_order():
    # one ideal asked for degrees 3, 1, 4, 2 gives, at each degree, the
    # minimal leads of the dense reference computed from scratch on a fresh
    # ideal
    rng = random.Random(11)
    for n, p in product((1, 2), (2, 3, 5)):
        tw = FrobeniusTwist(p, n)
        R = tw.twisted_ring
        for _ in range(3):
            gens = [
                random_weylop(tw.weyl_ring, n, rng, max_exp=2, max_terms=3, nonzero=True)
                for _ in range(rng.randrange(1, n + 1))
            ]
            I = LeftIdeal.of(gens)
            for d in (3, 1, 4, 2):
                fresh = LeftIdeal.of(gens)
                monos = _monomials_up_to(2 * n, d)
                direct = [fresh.normal_form(tw.embed(MPoly(R, {e: 1}))) for e in monos]
                want = minimal_leads(dense_kernel(monos, direct, R))
                assert truncated_kernel(I, d) == want, (gens, p, d)


def test_kernel_echelon_matches_dense_nullspace():
    # denser columns than ladder normal forms usually give, many of them
    # combinations of earlier ones, fed to the echelon in uneven batches
    rng = random.Random(13)
    for p in (2, 3, 5):
        R = FrobeniusTwist(p, 1).twisted_ring
        monos = _monomials_up_to(2, 5)
        keys = [(i, j) for i in range(3) for j in range(3)]
        for _ in range(10):
            cols = []
            for _ in monos:
                if cols and rng.random() < 0.5:
                    col = R.zero()
                    for c in rng.sample(cols, min(3, len(cols))):
                        col = col + c.scale(rng.randrange(p))
                else:
                    col = MPoly(R, {k: rng.randrange(1, p) for k in rng.sample(keys, rng.randrange(6))})
                cols.append(col)
            echelon = _KernelEchelon(R)
            start = 0
            while start < len(monos):
                stop = min(len(monos), start + rng.randrange(1, 8))
                echelon.extend(monos, cols[start:stop])
                start = stop
            assert [z for _, z in echelon.kernel] == dense_kernel(monos, cols, R), p


def one_variable_operators(F, rng):
    """L1(x1, d1) and L2(x2, d2) in A_2 for random L1 of order <= 2 and L2 of
    order <= 1."""
    L1 = random_weylop(F, 1, rng, max_exp=2, max_terms=3, nonzero=True)
    L2 = random_weylop(F, 1, rng, max_exp=1, max_terms=3, nonzero=True)
    first = WeylOp(F, 2, {(a, 0, b, 0): c for (a, b), c in L1.terms.items()})
    second = WeylOp(F, 2, {(0, a, 0, b): c for (a, b), c in L2.terms.items()})
    return first, second


def external_product(F, rng):
    """L1(x1, d1) * L2(x2, d2), the operators of ``one_variable_operators``."""
    first, second = one_variable_operators(F, rng)
    return first * second


def test_pruned_ladder_matches_the_reference_ladder():
    # the ladder that never normalises a multiple of a kernel lead picks the
    # status and generators of a ladder that eliminates the whole dense
    # kernel at every degree, on random inputs and on external products
    rng = random.Random(31)
    cases = []
    for _ in range(12):
        tw = FrobeniusTwist(rng.choice((2, 3, 5, 7)), 1)
        L = random_weylop(tw.weyl_ring, 1, rng, max_exp=2, max_terms=3, nonzero=True)
        cases.append((tw, [L]))
    for _ in range(8):
        tw = FrobeniusTwist(rng.choice((2, 3)), 2)
        gens = [
            random_weylop(tw.weyl_ring, 2, rng, max_exp=1, max_terms=3, nonzero=True)
            for _ in range(rng.randrange(1, 3))
        ]
        cases.append((tw, gens))
    for _ in range(8):
        tw = FrobeniusTwist(rng.choice((3, 5)), 2)
        cases.append((tw, [external_product(tw.weyl_ring, rng)]))
    # Legendre times e^(x2), where the ladder stops on a plateau
    tw = FrobeniusTwist(5, 2)
    legendre = ("x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4", "d2 - 1")
    cases.append((tw, [parse_weyl(text, 2, tw.weyl_ring) for text in legendre]))
    for tw, gens in cases:
        res = central_annihilator_truncated(LeftIdeal.of(gens))
        status, want = reference_ladder(LeftIdeal.of(gens), tw)
        label = ([str(g) for g in gens], tw.p)
        assert (res.status, res.ideal.gens) == (status, want), label
        assert res.ideal.groebner_basis() == CIdeal.of(want, ring=tw.twisted_ring).groebner_basis()


@pytest.mark.parametrize(
    "texts, status, columns, groebner_calls",
    [
        (("d1^2 - x1", "d2 - x2"), "stabilized(2)", 35, 2),
        (("d1^3 - x1", "d2 - x2"), "stabilized(3)", 70, 2),
        (LEGENDRE_EXP, "stabilized(4)", 126, 2),
    ],
)
def test_ladder_stops_one_rung_past_its_plateau(
    monkeypatch, texts, status, columns, groebner_calls
):
    # at p = 5 the ladder reaches degree d + 1 for stabilized(d), where a
    # window of two rungs reached d + 2 (70 and 126 columns for the first
    # two), and runs Buchberger once per distinct kernel ideal: a rung that
    # adds nothing, as (X2 - Xi2) and (Xi2 - 1) stay from degree 1 to 2 and
    # to 3, reuses the basis before it
    calls = []
    buchberger = cgb.buchberger

    def counted(gens, order):
        calls.append(gens)
        return buchberger(gens, order)

    monkeypatch.setattr(cgb, "buchberger", counted)
    tw = FrobeniusTwist(5, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])
    res = central_annihilator_truncated(I)
    assert res.status == status
    assert I._cache["kernel_echelon"].ncols == columns
    assert len(calls) == groebner_calls


def test_ladder_never_normalises_a_multiple_of_a_kernel_lead():
    # Xi1^2 - X1 and Xi2 - X2 are found at degrees 2 and 1; no monomial that
    # a lead divides properly reaches left_nf, and some are skipped
    tw = FrobeniusTwist(5, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in ("d1^2 - x1", "d2 - x2")])
    res = central_annihilator_truncated(I)
    assert res.status == "stabilized(2)"
    top = 3  # the ladder climbs one rung past the plateau's degree
    leads = [z.leading(GrevLex())[0] for z in truncated_kernel(I, top)]
    assert len(leads) == 2
    normalised = I._cache["central_nf"]
    assert not [
        e for e in normalised for m in leads if m != e and monomial_divides(m, e)
    ]
    assert len(normalised) < len(_monomials_up_to(4, top))


def test_truncated_route_passes_a_zero_plateau():
    # the kernels at degrees 1 and 3 are both zero; the annihilator has degree 4
    tw = FrobeniusTwist(3, 1)
    x, d, one = gens_1var(tw.weyl_ring)
    res = central_annihilator_truncated(LeftIdeal.of([x**2 * d**2 + d]))
    assert [str(g) for g in res.ideal.groebner_basis()] == ["X1^2*Xi1^2 + Xi1"]
    assert res.status == "stabilized(4)"


def test_guard_routes_to_truncated():
    # p = 3, n = 2 gives module rank 81 > 64
    tw = FrobeniusTwist(3, 2)
    F = tw.weyl_ring
    d1 = WeylOp.d(F, 2, 0)
    d2 = WeylOp.d(F, 2, 1)
    I = LeftIdeal.of([d1, d2])
    R = tw.twisted_ring
    Xi1, Xi2 = R.gen(2), R.gen(3)
    # the worker takes no guard: called directly, it certifies at any rank
    exact = central_annihilator_exact(I)
    assert exact.status == "exact"
    assert ideal_equal(exact.ideal, CIdeal.of([Xi1, Xi2]))
    res = central_annihilator(I)
    assert res.status.startswith("stabilized")
    assert ideal_equal(res.ideal, CIdeal.of([Xi1, Xi2]))


def test_route_selection():
    tw = FrobeniusTwist(3, 2)
    F = tw.weyl_ring
    I = LeftIdeal.of([WeylOp.d(F, 2, 0), WeylOp.d(F, 2, 1)])
    assert central_annihilator(I, method="exact").status == "exact"
    assert central_annihilator(I, guard=81).status == "exact"
    assert central_annihilator(I, guard=81, method="truncated").status.startswith(
        "stabilized"
    )
    with pytest.raises(ValueError):
        central_annihilator(I, method="fast")


def test_zero_ideal_annihilates_nothing():
    tw = FrobeniusTwist(2, 1)
    I = LeftIdeal.of([], ring=tw.weyl_ring, n=1)
    res = central_annihilator_exact(I)
    assert res.ideal.groebner_basis() == ()
