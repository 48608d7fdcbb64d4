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
    _blocks,
    _monomials_up_to,
    _simple_module_rows,
    _split_residues,
    _support_dimension,
    truncated_kernel,
)
from pweyl.corpus import load_corpus
from pweyl.errors import BadPrime, NoPointsFound, RingMismatch
from pweyl.mpoly import CompiledRows, MPoly, PolyRing
from pweyl.orders import monomial_divides
from pweyl.poisson import coisotropy_check
from pweyl.psupport import generic_rank, is_conical, specialize_mod_p
from pweyl.rings import QQ, Zmod, extension_field

from helpers import (
    berkowitz_det,
    center_image,
    dense_kernel,
    elementary_images,
    gens_1var,
    ideal_equal,
    inverse_images,
    minimal_leads,
    random_mpoly,
    random_weylop,
    rank_p2n_colon,
    recombine_residues,
    reduced_norms,
    reference_ladder,
    symbol_dimension,
    symplectic_images,
    weyl_image,
)


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
    # dimension 2 read off the left basis, so the ladder climbs on
    tw = FrobeniusTwist(p, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])
    res = central_annihilator(I, method="truncated")
    assert res.status == "stabilized(4)"
    assert tuple(str(g) for g in res.ideal.groebner_basis()) == basis


@pytest.mark.parametrize(
    "texts, n, p, calls",
    [
        (("d1 - x1",), 1, 11, 12),
        (("x1*d1^2 + d1 - x1",), 1, 7, 10),
        (LEGENDRE_EXP, 2, 5, 13),
    ],
)
def test_exact_route_finishes_only_the_elements_it_reads(monkeypatch, texts, n, p, calls):
    # each residue elimination, onto d^0 and then onto x_i^0 for each i,
    # tail-reduces only the basis elements on residue 0; tail-reducing every
    # element of every basis takes 144, 115 and 80 reductions.  Legendre ⊠
    # e^(x2) is eliminated one factor at a time, at n = 1; the whole ideal,
    # eliminated at n = 2, takes 59
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


class _Captured(Exception):
    pass


@pytest.mark.parametrize("n, p", [(1, 3), (1, 7), (2, 3), (2, 5)])
def test_exact_route_eliminates_the_products_d_r_times_g(monkeypatch, n, p):
    # the first residue elimination gets d^r * g for each g of the reduced
    # left basis and each residue r, in that order; the route builds them
    # with the Weyl product directly, and they equal the operator products.
    # An operator that touches one variable pair only is eliminated as its
    # first block, at n = 1
    import pweyl.center as center

    F, rng = Zmod(p), random.Random(10 * p + n)
    seen = []

    def capture(elements, *args):
        seen.append(elements)
        raise _Captured

    monkeypatch.setattr(center, "_eliminate_residues", capture)
    ideals = [LeftIdeal.of([], ring=F, n=n)]
    for _ in range(10):
        ideals.append(LeftIdeal.of([random_weylop(F, n, rng, max_exp=3, nonzero=True)]))
    for I in ideals:
        seen.clear()
        with pytest.raises(_Captured):
            central_annihilator_exact(I)
        J = _blocks(I)[0][1]
        d_powers = [WeylOp.monomial(F, J.n, (0,) * J.n + r) for r in product(range(p), repeat=J.n)]
        assert seen == [[(dr * g).terms for g in J.groebner_basis() for dr in d_powers]]


def shifted_copies(basis, i, shifts):
    """The x_i^s * f for f in ``basis`` and s in ``shifts``, as term dicts."""
    return [
        {e[:i] + (e[i] + s,) + e[i + 1 :]: c for e, c in f.items()} for f in basis for s in shifts
    ]


def split_at(elements, p, i):
    """The elements split by their residues at slot i, as the vectors of
    ``center._eliminate_residues``: residue r at position r."""
    return [
        {(r, e): c for (r,), part in _split_residues(f, p, (i,)).items() for e, c in part.items()}
        for f in elements
    ]


@pytest.mark.parametrize(
    "texts, n, p, central",
    [
        (("d1 - x1",), 1, 5, [True]),
        (("d1^3 - x1",), 1, 7, [True]),
        (("x1*d1 - 1/3",), 1, 5, [False]),
        (("x1^2*d1 - 1",), 1, 5, [True]),
        (("x1*d1^2 + d1 - x1",), 1, 7, [True]),
        (("d1*d2 - 1", "x1*d1 - x2*d2"), 2, 3, [True, True]),
        (("x2*d1*d2 + d1 - 3",), 2, 3, [True, False]),
        (("x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"), 3, 2, [True, True, True]),
    ],
)
def test_central_contraction_steps_eliminate_the_basis_alone(monkeypatch, texts, n, p, central):
    # the contraction step at slot i gets the basis f of the step before
    # alone when every slot-i exponent of it is divisible by p (a central
    # step), and its p copies x_i^s * f otherwise; either way it returns the
    # elimination of the p copies
    import pweyl.center as center

    tw = FrobeniusTwist(p, n)
    I = LeftIdeal.of([parse_weyl(text, n, tw.weyl_ring) for text in texts])
    eliminate, seen = center._eliminate_onto, []

    def capture(vecs, k, R):
        out = eliminate(vecs, k, R)
        seen.append((vecs, out))
        return out

    monkeypatch.setattr(center, "_eliminate_onto", capture)
    central_annihilator_exact(I)
    assert len(seen) == n + 1
    for i in range(n):
        basis, (vecs, out) = seen[i][1], seen[i + 1]
        assert central[i] == (not any(e[i] % p for f in basis for e in f))
        assert vecs == split_at(shifted_copies(basis, i, (0,) if central[i] else range(p)), p, i)
        assert out == eliminate(split_at(shifted_copies(basis, i, range(p)), p, i), 0, tw.weyl_ring)


def in_pair(L, n, i):
    """The operator L of A_1 as an operator of A_n in the variable pair i."""
    terms = {}
    for (a, b), c in L.terms.items():
        e = [0] * (2 * n)
        e[i], e[n + i] = a, b
        terms[tuple(e)] = c
    return WeylOp(L.ring, n, terms)


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (2, 5), (3, 2)])
def test_external_products_split_into_their_factors(n, p):
    # I = I_1 + .. + I_k, each I_k generated in one variable pair (n_k = 1),
    # some pairs untouched, with the one-variable draw sizes of
    # test_principal_ladder_stops_at_the_exact_generator.  The exact route,
    # block by block, gives the elimination of the whole ideal at n, and the
    # fibre, the product of the blocks' fibres times p^2 for each untouched
    # pair, the whole ideal's fibre: at every sample of generic_rank and at
    # random points over GF(p) and GF(p^2)
    import pweyl.center as center

    rng = random.Random(100 * n + p)
    tw = FrobeniusTwist(p, n)
    F = tw.weyl_ring
    ideals = [LeftIdeal.of([parse_weyl("d1 - x1", n, F)])]
    for _ in range(8):
        pairs = rng.sample(range(n), rng.randrange(1, n + 1))
        ideals.append(
            LeftIdeal.of(
                [
                    in_pair(random_weylop(F, 1, rng, max_exp=3, max_terms=4, nonzero=True), n, i)
                    for i in pairs
                    for _ in range(rng.randrange(1, 3))
                ]
            )
        )
    for I in ideals:
        label = str(I)
        assert (_blocks(I)[0][1] is I) == I.is_unit_ideal(), label
        ann = central_annihilator_exact(I).ideal
        whole = [MPoly(tw.twisted_ring, f) for f in center._exact_basis(I)]
        assert [g.terms for g in ann.groebner_basis()] == [g.terms for g in whole], label
        rows = CompiledRows(_simple_module_rows(I), F)
        fiber = center._fiber_reader(I)
        points = []
        if not ann.is_unit_ideal():
            try:
                samples = generic_rank(I, ann).samples
            except NoPointsFound:
                samples = ()
            points += [(s.field, s.point, s.fiber_dim) for s in samples]
        for k in (1, 2):
            K = extension_field(p, k)
            points += [
                (K, tuple(rng.choice(K.elements()) for _ in range(2 * n)), None) for _ in range(4)
            ]
        for K, pt, sampled in points:
            want = center._fiber_dim(rows, tw, K, pt)
            assert fiber(K, pt) == want, (label, pt)
            assert sampled in (None, want), (label, pt)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_ideal_is_a_product_of_blocks(n):
    # _blocks always gives a non-empty tuple of blocks on disjoint, ascending
    # slots, x slots then their d slots; an ideal that does not split (one
    # block on all n pairs, the zero ideal, the unit ideal) is its own one
    # block, with no sub-ideal built
    p = 3
    F, rng = Zmod(p), random.Random(40 + n)
    ideals = [LeftIdeal.of([], ring=F, n=n), LeftIdeal.of([WeylOp.one(F, n)])]
    for _ in range(6):
        gens = [
            random_weylop(F, n, rng, max_exp=2, max_terms=3, nonzero=True)
            for _ in range(rng.randrange(1, 3))
        ]
        ideals.append(LeftIdeal.of(gens))
    for _ in range(6):
        pairs = rng.sample(range(n), rng.randrange(1, n + 1))
        gens = [
            in_pair(random_weylop(F, 1, rng, max_exp=2, max_terms=3, nonzero=True), n, i)
            for i in pairs
        ]
        ideals.append(LeftIdeal.of(gens))
    splits = 0
    for I in ideals:
        label, basis, blocks = str(I), I.groebner_basis(), _blocks(I)
        assert isinstance(blocks, tuple) and blocks, label
        slots = [j for at, _ in blocks for j in at]
        assert len(set(slots)) == len(slots), label
        for at, sub in blocks:
            k = len(at) // 2
            assert list(at) == sorted(at) and at[k:] == tuple(n + i for i in at[:k]), label
            assert sub.n == k, label
        # the pairs each basis element touches, joined where they meet
        groups = []
        for g in basis:
            touched = {i for e in g.terms for i in range(n) if e[i] or e[n + i]}
            for grp in [grp for grp in groups if grp & touched]:
                groups.remove(grp)
                touched |= grp
            groups.append(touched)
        pairs = set().union(*groups)
        if I.is_unit_ideal() or not basis or (len(groups) == 1 and len(pairs) == n):
            assert blocks == ((tuple(range(2 * n)), I),), label
            assert blocks[0][1] is I, label
        else:
            splits += 1
            assert [set(at[: len(at) // 2]) for at, _ in blocks] == sorted(groups, key=min)
            assert sum(len(sub.groebner_basis()) for _, sub in blocks) == len(basis), label
    assert splits >= (0 if n == 1 else 3)


def reference_module_rows(ideal):
    """``center._simple_module_rows`` by the general product: column s of a
    basis element g is g * x^s, split by the residues of its x-exponents
    into its rows, the columns ascending in each."""
    p, n, F = ideal.ring.characteristic, ideal.n, ideal.ring
    residues = list(product(range(p), repeat=n))
    rows = []
    for g in ideal.groebner_basis():
        cells = {r: [] for r in residues}
        for col, s in enumerate(residues):
            g_xs = g * WeylOp.monomial(F, n, s + (0,) * n)
            for r, terms in _split_residues(g_xs.terms, p, range(n)).items():
                cells[r].append((col, terms))
        rows.extend(cells[r] for r in residues)
    return rows


@pytest.mark.parametrize("n, p", [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (3, 2)])
def test_simple_module_rows_are_the_products_g_times_x_s(n, p):
    # the rows build g * x^s from g * x^(s - e_i) by one right
    # multiplication by x_i; they equal the general products, split, on six
    # ideals of one to three generators that are not the unit ideal (whose
    # one row is the identity)
    F, rng = Zmod(p), random.Random(100 * p + n)
    tested = 0
    while tested < 6:
        gens = [
            random_weylop(F, n, rng, max_exp=4 - n, max_terms=3, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        I = LeftIdeal.of(gens)
        if I.is_unit_ideal():
            continue
        assert _simple_module_rows(I) == reference_module_rows(I), [str(g) for g in gens]
        tested += 1


def test_twisted_ring_is_built_once_per_twist():
    tw = FrobeniusTwist(5, 2)
    assert tw.twisted_ring is tw.twisted_ring
    assert tw.twisted_ring == PolyRing(Zmod(5), ("X1", "X2", "Xi1", "Xi2"))
    assert tw == FrobeniusTwist(5, 2) and hash(tw) == hash(FrobeniusTwist(5, 2))


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


def test_ladder_normal_forms_by_frobenius_shift(monkeypatch):
    # the cached normal forms of the embedded monomials, reached by Frobenius
    # shifts of their predecessors, equal the direct normal forms, and the
    # kernels equal the minimal leads of a per-degree reference built from
    # the direct ones, less those a lead of J_(d-1) decides
    # (``kept_by_the_ladder``); besides random inputs, two fixed ones at
    # p = 7: basis leads that cover every slot, and one lead that leaves
    # three slots free
    reduced = []
    normal_form = LeftIdeal.normal_form

    def recorded(self, f):
        reduced.append(f)
        return normal_form(self, f)

    monkeypatch.setattr(LeftIdeal, "normal_form", recorded)
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
        reduced.clear()
        kernels = [truncated_kernel(I, d) for d in range(4)]
        ladder_reduced = list(reduced)
        monos = _monomials_up_to(2 * n, 3)
        direct = [I.normal_form(tw.embed(MPoly(R, {e: 1}))) for e in monos]
        # every column is kept, in order, with its normal form unless a
        # kernel lead or a lead of J_(d-1) divides it, up to the last one
        # for a principal ladder that holds one generator per block
        nfs, columns, blocks = I._cache["ladder"][0], monos, _blocks(I)
        principal = all(len(sub.groebner_basis()) == 1 for _, sub in blocks)
        if principal and len(kernels[3]) == len(blocks):
            columns = monos[: monos.index(kernels[3][-1].leading()[0]) + 1]
        assert list(nfs) == list(columns), (gens, p)
        assert all(nf is None or nf == want for nf, want in zip(nfs.values(), direct)), (gens, p)
        for d in range(4):
            size = len(_monomials_up_to(2 * n, d))
            reference = dense_kernel(monos[:size], direct[:size], R)
            kept = kept_by_the_ladder(I, minimal_leads(reference), R)
            assert tuple(kernels[d]) == kept, (gens, p, d)
            # the minimal leads generate the same ideal as the whole kernel
            # and give the same coisotropy verdict and witness
            whole = CIdeal.of(reference, ring=R)
            minimal = CIdeal.of(kernels[d], ring=R)
            assert minimal.groebner_basis() == whole.groebner_basis()
            assert coisotropy_check(minimal) == coisotropy_check(whole)
    # the last input: the shift of nf(Xi1) at slot d1 lands on the lead d1^2,
    # and nf(Xi1) is not d1^7, so the column Xi1^2 reduces
    # nf(Xi1) * nf(Xi1), and its shift is never built
    xi1 = tw.embed(MPoly(R, {(0, 0, 1, 0): 1}))
    lift = nfs[(0, 0, 1, 0)]
    shifted = {(a, b, c + tw.p, d): v for (a, b, c, d), v in lift.terms.items()}
    assert lift != xi1
    assert lift * lift in ladder_reduced
    assert WeylOp(tw.weyl_ring, 2, shifted) not in ladder_reduced


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
    # n = 2 inputs where the ladder climbs to its reduced-norm ceiling; each
    # is one operator, so the generator of I cap Z, of degree 3p, ends the
    # ladder there and is certified
    tw = FrobeniusTwist(p, 2)
    L = parse_weyl(text, 2, tw.weyl_ring)
    exact = central_annihilator_exact(LeftIdeal.of([L]))
    trunc = central_annihilator_truncated(LeftIdeal.of([L]))
    assert tuple(str(g) for g in exact.ideal.groebner_basis()) == basis
    assert trunc.status == f"stabilized({3 * p})"
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


def on_pair(L, i):
    """The operator L of A_1 in the variable pair (x_i, d_i) of A_2."""
    if i == 0:
        return WeylOp(L.ring, 2, {(a, 0, b, 0): c for (a, b), c in L.terms.items()})
    return WeylOp(L.ring, 2, {(0, a, 0, b): c for (a, b), c in L.terms.items()})


def one_variable_operators(F, rng):
    """L1(x1, d1) and L2(x2, d2) in A_2 for random L1 of order <= 2 and L2 of
    order <= 1."""
    L1 = random_weylop(F, 1, rng, max_exp=2, max_terms=3, nonzero=True)
    L2 = random_weylop(F, 1, rng, max_exp=1, max_terms=3, nonzero=True)
    return on_pair(L1, 0), on_pair(L2, 1)


def external_product(F, rng):
    """L1(x1, d1) * L2(x2, d2), the operators of ``one_variable_operators``."""
    first, second = one_variable_operators(F, rng)
    return first * second


def kept_by_the_ladder(ideal, want, R):
    """The reference ladder's generators ``want`` less those the ladder
    skips as decided by J_(d-1): a generator of degree d whose lead a lead
    of the reduced basis of the ideal of the generators of lower degree
    divides.  The ladder keeps all of them when every block of ``_blocks``
    has a one-element reduced basis."""
    if all(len(sub.groebner_basis()) == 1 for _, sub in _blocks(ideal)):
        return tuple(want)
    kept = []
    for z in want:
        lower = CIdeal.of([w for w in want if w.total_degree() < z.total_degree()], ring=R)
        leads = [g.leading()[0] for g in lower.groebner_basis()]
        if not any(monomial_divides(m, z.leading()[0]) for m in leads):
            kept.append(z)
    return tuple(kept)


# n = 2 inputs with a two-element or longer reduced left basis, where a lead
# of J_(d-1)'s reduced basis that is no kernel lead skips a column at a rung
# d at or below the one the ladder stops at, so that the ladder returns
# fewer generators than the reference; the first three report a coisotropy
# witness
DECIDED_BY_THE_KERNEL_IDEAL = [
    (3, ("x1*x2^2*d1 + x2*d1*d2", "x1^2*x2*d2^2 + x2^2*d1")),
    (2, ("x2^2*d1*d2^2 + x1*d1^2*d2^2", "x1*x2*d2 + x2*d1")),
    (2, ("x1^2*x2*d1^2 + x1*x2^2*d1^2 + x1*x2^2*d2^2", "x2*d2^2 + d1*d2")),
    (3, ("-x1^2*x2^2*d2 + d1", "x1*x2*d1*d2")),
    (2, ("x2^2*d1^2*d2", "x1^2*d1^2 + x2*d2")),
]


def pruned_ladder_cases():
    """(twist, generators) pairs: random inputs at n = 1 and 2, external
    products, and last the inputs of ``DECIDED_BY_THE_KERNEL_IDEAL``."""
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
    # external products at n = 2 of one operator per variable pair, one
    # block each, where the ladder stops at the rung whose kernel is the
    # blocks' generators; then two operators on the first pair, drawn until
    # their basis has more than one element, where that stop must not fire
    wide = 0
    for p, per_pair, order in [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 2), (3, 2, 2)]:
        tw = FrobeniusTwist(p, 2)
        draw = lambda: random_weylop(tw.weyl_ring, 1, rng, max_exp=order, max_terms=3, nonzero=True)
        for _ in range(6):
            first = [draw() for _ in range(per_pair)]
            while len(LeftIdeal.of(first).groebner_basis()) < per_pair:
                first = [draw() for _ in range(per_pair)]
            gens = [on_pair(L, 0) for L in first] + [on_pair(draw(), 1)]
            blocks = _blocks(LeftIdeal.of(gens))
            wide += any(len(sub.groebner_basis()) > 1 for _, sub in blocks)
            cases.append((tw, gens))
    assert wide >= 6
    # Legendre times e^(x2), two one-element blocks
    tw = FrobeniusTwist(5, 2)
    legendre = ("x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4", "d2 - 1")
    cases.append((tw, [parse_weyl(text, 2, tw.weyl_ring) for text in legendre]))
    # two one-element blocks whose generators the kernel holds first at the
    # top degree 6, where the ladder ends with truncated(6)
    tw = FrobeniusTwist(3, 2)
    top = ("d2", "x1^3*d1^3 - x1*d1^3 - d1^2 - x1")
    cases.append((tw, [parse_weyl(text, 2, tw.weyl_ring) for text in top]))
    for p, texts in DECIDED_BY_THE_KERNEL_IDEAL:
        tw = FrobeniusTwist(p, 2)
        cases.append((tw, [parse_weyl(text, 2, tw.weyl_ring) for text in texts]))
    return cases


def test_pruned_ladder_matches_the_reference_ladder():
    # the ladder that never normalises a multiple of a kernel lead or of a
    # lead of J_(d-1)'s reduced basis, and stops an external product at its
    # blocks' generators, picks the status of a ladder that eliminates the
    # whole dense kernel at every degree and stops on a plateau, and its
    # generators less those J_(d-1) decides, with the same reduced basis and
    # the same coisotropy witness, on random inputs and external products
    cases = pruned_ladder_cases()
    decided = range(len(cases) - len(DECIDED_BY_THE_KERNEL_IDEAL), len(cases))
    witnesses = 0
    for index, (tw, gens) in enumerate(cases):
        R = tw.twisted_ring
        res = central_annihilator_truncated(LeftIdeal.of(gens))
        status, want = reference_ladder(LeftIdeal.of(gens), tw)
        label = ([str(g) for g in gens], tw.p)
        kept = kept_by_the_ladder(LeftIdeal.of(gens), want, R)
        assert (res.status, res.ideal.gens) == (status, kept), label
        assert (index in decided) == (len(kept) < len(want)), label
        assert res.ideal.groebner_basis() == CIdeal.of(want, ring=R).groebner_basis()
        verdict = coisotropy_check(cgb.frobenius_root(res.ideal))
        assert verdict == coisotropy_check(cgb.frobenius_root(CIdeal.of(want, ring=R))), label
        witnesses += index in decided and not verdict.ok
    assert witnesses == 3


def test_every_kept_kernel_ideal_is_reduced():
    # after the annihilator runs, each kernel ideal J_d on the ladder's state
    # has the reduced basis Buchberger gives its generators, whether the
    # ladder cached its kernel vectors as that basis (a principal ladder,
    # and the zero ideal) or ran Buchberger on them
    for tw, gens in pruned_ladder_cases():
        I = LeftIdeal.of(gens)
        central_annihilator_truncated(I)
        for d, J in enumerate(I._cache["ladder"][4]):
            label = ([str(g) for g in gens], tw.p, d)
            assert list(J.groebner_basis()) == buchberger(list(J.gens)), label


def test_plateau_is_a_rung_with_no_new_kernel_vector(monkeypatch):
    # the ladder tells a plateau by counting its kernel, with no membership
    # test, and keeps the status, the reduced basis and the coisotropy
    # witness of a ladder that eliminates the whole dense kernel
    cases = DECIDED_BY_THE_KERNEL_IDEAL + [(5, ("d1*d2 - 1", "x1*d1 - x2*d2"))]
    statuses = [
        "stabilized(4)",
        "stabilized(5)",
        "truncated(6)",
        "stabilized(4)",
        "stabilized(4)",
        "stabilized(2)",
    ]

    def no_membership(self, f):
        raise AssertionError("the ladder tested ideal membership")

    results = []
    with monkeypatch.context() as patch:
        patch.setattr(CIdeal, "contains", no_membership)
        for p, texts in cases:
            tw = FrobeniusTwist(p, 2)
            I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])
            results.append(central_annihilator_truncated(I))
    assert [res.status for res in results] == statuses
    for (p, texts), res in zip(cases, results):
        tw = FrobeniusTwist(p, 2)
        R = tw.twisted_ring
        status, want = reference_ladder(
            LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts]), tw
        )
        assert res.status == status, texts
        assert res.ideal.groebner_basis() == CIdeal.of(want, ring=R).groebner_basis(), texts
        verdict = coisotropy_check(cgb.frobenius_root(res.ideal))
        assert verdict == coisotropy_check(cgb.frobenius_root(CIdeal.of(want, ring=R))), texts
    torus = results[-1].ideal.groebner_basis()
    assert [str(g) for g in torus] == ["Xi1*Xi2 - 1", "X1*Xi1 - X2*Xi2", "X2*Xi2^2 - X1"]


@pytest.mark.parametrize(
    "n, texts, status, sizes",
    [
        (2, ("d1*d2 - 1", "x1*d1 - x2*d2"), "stabilized(2)", [0, 0, 2, 2, 2]),
        (
            3,
            ("x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"),
            "stabilized(3)",
            [0, 0, 2, 3, 3],
        ),
        (2, ("d1^2 - x1", "d2 - x2"), "stabilized(2)", [0, 1, 2, 2, 2]),
        (2, LEGENDRE_EXP, "stabilized(4)", [0, 1, 1, 1, 2]),
        (2, ("d1*d2 - x1",), "stabilized(2)", [0, 0, 1, 1, 1]),
        (1, ("x1*d1^2 + d1 - x1",), "stabilized(3)", [0, 0, 0, 1, 1]),
        (2, ("d1^3 - x2", "d2^2 - x1"), "stabilized(1)", [1, 1, 1, 1, 1]),
    ],
    ids=["torus-n2", "torus-n3", "airy-pair", "legendre-exp", "one-generator", "n1", "unit"],
)
def test_ladder_answers_do_not_depend_on_call_order(n, texts, status, sizes):
    # at p = 5 the annihilator's status and reduced basis, and the ladder's
    # kernel at every degree up to 4, are the same on a fresh ideal, after
    # the ladder was taken to degree 6, and after the annihilator ran: the
    # ladder alone decides which columns J_(d-1) skips, and a principal
    # ladder, finished at the column of its last generator (in rung 0 for
    # the unit ideal), keeps its kernel and J_d at every later degree
    tw = FrobeniusTwist(5, n)

    def answers(before):
        def ideal():
            I = LeftIdeal.of([parse_weyl(text, n, tw.weyl_ring) for text in texts])
            before(I)
            return I

        res = central_annihilator_truncated(ideal())
        kernels = [truncated_kernel(ideal(), d) for d in range(5)]
        return res.status, res.ideal.groebner_basis(), kernels

    fresh = answers(lambda I: None)
    assert fresh[0] == status
    assert [len(kernel) for kernel in fresh[2]] == sizes
    assert answers(lambda I: truncated_kernel(I, 6)) == fresh
    assert answers(central_annihilator_truncated) == fresh


@pytest.mark.parametrize(
    "n, p, max_exp, max_terms",
    # sizes bounded so that every draw runs both routes in well under a
    # second: at n = 2 and p = 5, operators of degree 3 or 4 with three terms
    # take the ladder to degree 15-20 and seconds each, and some of degree 5
    # take the exact route minutes
    [(1, 3, 3, 4), (1, 5, 3, 4), (2, 3, 2, 3), (2, 5, 1, 2)],
)
def test_principal_ladder_stops_at_the_exact_generator(n, p, max_exp, max_terms):
    # for one generator, I cap Z = (h), and the ladder returns it at the
    # first rung with a nonzero kernel, deg h (rung 1 for the unit ideal)
    rng = random.Random(100 * n + p)
    tw = FrobeniusTwist(p, n)
    for _ in range(15):
        L = random_weylop(tw.weyl_ring, n, rng, max_exp=max_exp, max_terms=max_terms, nonzero=True)
        exact = central_annihilator_exact(LeftIdeal.of([L])).ideal.groebner_basis()
        res = central_annihilator_truncated(LeftIdeal.of([L]))
        assert len(exact) == 1, str(L)
        assert res.status == f"stabilized({max(1, exact[0].total_degree())})", str(L)
        assert res.ideal.groebner_basis() == exact, str(L)


def support_verdicts(J, n):
    """The report's dimension, coisotropy and Lagrangian verdicts for the
    annihilator J (``psupport.p_support``)."""
    if J.is_unit_ideal():
        return -1, True, False
    dim, ok = cgb.krull_dim(J), coisotropy_check(cgb.frobenius_root(J)).ok
    return dim, ok, dim == n and ok


@pytest.mark.parametrize(
    "n, p, max_exp, max_terms",
    # the draw sizes of test_principal_ladder_stops_at_the_exact_generator,
    # and at p = 2 those of p = 3
    [(1, 2, 3, 4), (1, 3, 3, 4), (1, 5, 3, 4), (2, 2, 2, 3), (2, 3, 2, 3), (2, 5, 1, 2)],
)
def test_routes_commute_with_symplectic_automorphisms(n, p, max_exp, max_terms):
    # phi, permutations of the variables and Fourier swaps x_i -> d_i,
    # d_i -> -x_i, maps I cap Z to phi_Z(I cap Z): the exact route on phi(I),
    # mapped back by phi_Z^-1, is the exact route on I, with the same
    # verdicts; the truncated route on phi(I) finds the same dimension, and
    # for a one-element reduced left basis the same ideal
    rng = random.Random(1000 * n + p)
    tw = FrobeniusTwist(p, n)
    R = tw.twisted_ring
    for _ in range(12):
        gens = [
            random_weylop(tw.weyl_ring, n, rng, max_exp=max_exp, max_terms=max_terms, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        images = symplectic_images(n, rng)
        back = inverse_images(images)
        moved = LeftIdeal.of([weyl_image(images, g) for g in gens])
        label = ([str(g) for g in gens], images)
        want = central_annihilator_exact(LeftIdeal.of(gens)).ideal
        got = central_annihilator_exact(moved).ideal
        got = CIdeal.of([center_image(back, g) for g in got.gens], ring=R)
        assert got.groebner_basis() == want.groebner_basis(), label
        assert support_verdicts(got, n) == support_verdicts(want, n), label
        trunc = central_annihilator_truncated(moved).ideal
        assert support_verdicts(trunc, n)[0] == support_verdicts(want, n)[0], label
        if len(moved.groebner_basis()) == 1:
            trunc = CIdeal.of([center_image(back, g) for g in trunc.gens], ring=R)
            assert trunc.groebner_basis() == want.groebner_basis(), label


@pytest.mark.parametrize(
    "p, max_exp, max_terms",
    # bounded so that every draw and its image run the exact route in well
    # under a second: at p = 3, the image of a draw of degree 6 kept the
    # exact route busy past 75 s
    [(2, 2, 3), (3, 1, 3), (5, 1, 2)],
)
def test_exact_route_commutes_with_elementary_linear_maps(p, max_exp, max_terms):
    # phi: x -> A x, d -> A^(-T) d for the elementary matrices A = 1 + c*E_ij
    # of GL_2(Z), c = +-1, maps I cap Z to phi_Z(I cap Z), phi_Z: X -> A X,
    # Xi -> A^(-T) Xi: the exact route on phi(I), mapped back by phi_Z^-1,
    # is the exact route on I, with the same dimension, coisotropy,
    # Lagrangian and conical verdicts
    n = 2
    rng = random.Random(2000 + p)
    tw = FrobeniusTwist(p, n)
    R = tw.twisted_ring
    maps = [(i, j, c) for i, j in ((0, 1), (1, 0)) for c in (1, -1)]
    for i, j, c in maps:
        # phi(z)^p read on the centre: phi_Z is the same table
        images = elementary_images(n, i, j, c)
        for v in R.gens():
            assert weyl_image(images, tw.embed(v)) == tw.embed(center_image(images, v))
    for _ in range(12):
        gens = [
            random_weylop(tw.weyl_ring, n, rng, max_exp=max_exp, max_terms=max_terms, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        i, j, c = rng.choice(maps)
        images, back = elementary_images(n, i, j, c), elementary_images(n, i, j, -c)
        moved = LeftIdeal.of([weyl_image(images, g) for g in gens])
        label = ([str(g) for g in gens], (i, j, c))
        want = central_annihilator_exact(LeftIdeal.of(gens)).ideal
        got = central_annihilator_exact(moved).ideal
        got = CIdeal.of([center_image(back, g) for g in got.gens], ring=R)
        assert got.groebner_basis() == want.groebner_basis(), label
        verdicts = [
            support_verdicts(J, n) + (J.is_unit_ideal() or is_conical(J),) for J in (got, want)
        ]
        assert verdicts[0] == verdicts[1], label


@pytest.mark.parametrize(
    "texts, status, columns, groebner_calls",
    [
        (("d1^2 - x1", "d2 - x2"), "stabilized(2)", 10, 0),
        (("d1^3 - x1", "d2 - x2"), "stabilized(3)", 26, 0),
        (LEGENDRE_EXP, "stabilized(4)", 61, 0),
        (("d1*d2 - 1", "x1*d1 - x2*d2"), "stabilized(2)", 35, 1),
    ],
    ids=["airy-pair", "cubic-pair", "legendre-exp", "torus"],
)
def test_ladder_stops_where_its_answer_is_certified(
    monkeypatch, texts, status, columns, groebner_calls
):
    # at p = 5 an external product of one-element blocks stops at the
    # column of its last generator, in rung d for stabilized(d), where
    # finishing rung d takes 15, 35 and 70 columns and seeing a plateau at
    # d + 1 takes 35, 70 and 126; the torus pair is no product and still
    # reaches d + 1.  A product's kernel vectors are the reduced basis of
    # each J_d, and J_0 and J_1 of the torus pair are zero, so Buchberger
    # runs once, on the torus pair's J_2
    calls = []
    buchberger = cgb.buchberger

    def counted(gens):
        calls.append(gens)
        return buchberger(gens)

    monkeypatch.setattr(cgb, "buchberger", counted)
    tw = FrobeniusTwist(5, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in texts])
    res = central_annihilator_truncated(I)
    assert res.status == status
    assert len(I._cache["ladder"][0]) == columns
    assert len(calls) == groebner_calls


def test_ladder_never_normalises_a_multiple_of_a_kernel_lead():
    # Xi1^2 - X1 and Xi2 - X2 are found at degrees 2 and 1; no monomial that
    # a lead divides properly reaches left_nf, and some are skipped
    tw = FrobeniusTwist(5, 2)
    I = LeftIdeal.of([parse_weyl(text, 2, tw.weyl_ring) for text in ("d1^2 - x1", "d2 - x2")])
    res = central_annihilator_truncated(I)
    assert res.status == "stabilized(2)"
    top = 3  # one rung past the degree the ladder stops at
    leads = [z.leading()[0] for z in truncated_kernel(I, top)]
    assert len(leads) == 2
    normalised = [e for e, nf in I._cache["ladder"][0].items() if nf is not None]
    assert not [
        e for e in normalised for m in leads if m != e and monomial_divides(m, e)
    ]
    assert len(normalised) < len(_monomials_up_to(4, top))


@pytest.mark.parametrize(
    "n, p, texts, status, columns, calls",
    [
        # J_2 has the basis Xi1*Xi2 - 1, X1*Xi1 - X2*Xi2, X2*Xi2^2 - X1, and
        # its last lead is no kernel lead
        (2, 11, ("d1*d2 - 1", "x1*d1 - x2*d2"), "stabilized(2)", [(0, 1, 0, 2)], 4),
        # J_3, the annihilator of golden_report_truncated_torus_n3_p5.json,
        # has the leads X3*Xi2*Xi3^2 and X3*Xi1*Xi3^2, no kernel leads
        (
            3,
            5,
            ("x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"),
            "stabilized(3)",
            [(0, 0, 1, 0, 1, 2), (0, 0, 1, 1, 0, 2)],
            9,
        ),
    ],
    ids=["torus-n2-p11", "torus-n3-p5"],
)
def test_ladder_skips_the_columns_the_last_kernel_ideal_decides(
    monkeypatch, n, p, texts, status, columns, calls
):
    # the rung past the plateau never normalises a column that a lead of
    # J_(d-1)'s reduced basis divides: its stored normal form is None though
    # no kernel lead divides it, and its embedded monomial, the one-term
    # shift that a ladder without this skip reduces (with 5 and 11 normal
    # forms in all), never reaches left_nf
    reduced = []
    normal_form = LeftIdeal.normal_form

    def recorded(self, f):
        reduced.append(f)
        return normal_form(self, f)

    monkeypatch.setattr(LeftIdeal, "normal_form", recorded)
    tw = FrobeniusTwist(p, n)
    I = LeftIdeal.of([parse_weyl(text, n, tw.weyl_ring) for text in texts])
    assert central_annihilator_truncated(I).status == status
    nfs, _, kernel, _, ideals, _ = I._cache["ladder"]
    for column in columns:
        # J_(d-1) for the column's rung d, as the ladder keeps it
        decided = ideals[sum(column) - 1]._leads()
        assert nfs[column] is None
        assert not any(monomial_divides(lead, column) for lead, _ in kernel)
        assert any(monomial_divides(lead, column) for lead in decided)
        assert tw.embed(MPoly(tw.twisted_ring, {column: 1})) not in reduced
    assert len(reduced) == calls


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
