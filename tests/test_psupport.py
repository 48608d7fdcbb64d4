"""Pipeline tests: specialization, reports, conicality, rank, char variety."""

from fractions import Fraction
from itertools import islice, product
import random

import pytest

from pweyl import (
    CIdeal,
    DModuleSpec,
    FrobeniusTwist,
    LeftIdeal,
    WeylOp,
    central_annihilator,
    characteristic_variety,
    generic_rank,
    is_conical,
    p_support,
    parse_twisted,
    parse_weyl,
    radical_member,
    specialize_mod_p,
)
from pweyl.errors import BadPrime, EmptySupport, NoPointsFound, RingMismatch
from pweyl.linalg import rank as matrix_rank
from pweyl.mpoly import CompiledRows, PolyRing
from pweyl.center import AnnihilatorResult, _fiber_dim, _simple_module_rows, _support_dimension
from pweyl.psupport import _choose_samples, _points_on_variety
from pweyl.rings import QQ, Zmod, extension_field

from helpers import (
    brute_force_points,
    evaluate,
    random_mpoly,
    random_weylop,
    reference_samples,
    z_module_presentation,
)



def qq_gens(n=1):
    xs = [WeylOp.x(QQ, n, i) for i in range(n)]
    ds = [WeylOp.d(QQ, n, i) for i in range(n)]
    return xs, ds, WeylOp.one(QQ, n)


def const(q, n=1):
    return WeylOp.constant(QQ, n, Fraction(q))


def test_specialize_inverts_denominators():
    (x,), (d,), one = qq_gens()
    spec = DModuleSpec(1, (d - const(Fraction(1, 2)),))
    I = specialize_mod_p(spec, 3)
    F3 = Zmod(3)
    assert I.gens[0] == WeylOp.d(F3, 1, 0) - WeylOp.constant(F3, 1, 2)


def test_specialize_bad_prime():
    (x,), (d,), one = qq_gens()
    spec = DModuleSpec(1, (d - const(Fraction(1, 2)),))
    with pytest.raises(BadPrime) as exc:
        specialize_mod_p(spec, 2)
    assert exc.value.prime == 2 and exc.value.denominator == 2


def test_specialize_integer_coefficients_termwise():
    (x,), (d,), one = qq_gens()
    spec = DModuleSpec(1, (d + const(7) * x,))
    I = specialize_mod_p(spec, 7)
    F7 = Zmod(7)
    assert I.gens[0] == WeylOp.d(F7, 1, 0)  # the 7x term vanishes


def test_specialization_context():
    (x,), (d,), one = qq_gens()
    spec = DModuleSpec(1, (d - const(Fraction(1, 6)),))
    for p in (2, 3):
        with pytest.raises(BadPrime) as exc:
            specialize_mod_p(spec, p)
        assert exc.value.prime == p and exc.value.denominator == 6
    F5 = Zmod(5)
    assert specialize_mod_p(spec, 5).gens == (
        WeylOp.d(F5, 1, 0) - WeylOp.constant(F5, 1, F5.from_fraction(Fraction(1, 6))),
    )


def test_spec_validation():
    (x,), (d,), one = qq_gens()
    with pytest.raises(ValueError):
        DModuleSpec(1, (WeylOp.zero(QQ, 1),))
    with pytest.raises(ValueError):
        DModuleSpec(2, (d,))
    with pytest.raises(RingMismatch):
        DModuleSpec(1, (d, WeylOp.d(Zmod(3), 1, 0)))


def report_for(gens, p, n=1, **kw):
    return p_support(DModuleSpec(n, tuple(gens)), p, **kw)


def test_report_polynomial_module_p3():
    (x,), (d,), one = qq_gens()
    r = report_for([d], 3)
    assert list(r.annihilator) == ["Xi1"]
    assert r.dimension == 1 and r.coisotropic and r.lagrangian and r.conical
    assert r.generic_rank == 3


def test_report_exponential_p3():
    (x,), (d,), one = qq_gens()
    r = report_for([d - one], 3)
    assert list(r.annihilator) == ["Xi1 - 1"]
    assert r.lagrangian and not r.conical
    assert r.generic_rank == 3


def test_report_gaussian_p2():
    (x,), (d,), one = qq_gens()
    r = report_for([d - x], 2)
    assert list(r.annihilator) == ["X1 + Xi1 + 1"]
    assert r.lagrangian and not r.conical


def test_report_euler_p5():
    (x,), (d,), one = qq_gens()
    r = report_for([x * d], 5)
    assert list(r.annihilator) == ["X1*Xi1"]
    assert r.dimension == 1 and r.lagrangian and r.conical


def test_report_unit_ideal():
    r = report_for([WeylOp.one(QQ, 1)], 3)
    assert r.dimension == -1
    assert not r.lagrangian
    assert r.generic_rank is None
    assert any("empty support" in note for note in r.notes)


@pytest.mark.parametrize(
    "n, p, kw, status, rank",
    [
        (1, 3, {}, "exact", 9),
        (2, 3, {"method": "exact"}, "exact", 81),
        (2, 2, {}, "exact", 16),
        (2, 3, {"method": "truncated", "compute_rank": False}, "stabilized(1)", None),
    ],
)
def test_generators_that_vanish_mod_p_give_the_zero_ideal(n, p, kw, status, rank):
    # p*d1 + p*x1 reduces to the zero ideal, its own one block: no central
    # element kills D, the support is the whole centre, and every fibre is D
    # over its point, of rank p^(2n)
    (x, *_), (d, *_), one = qq_gens(n)
    r = report_for([const(p, n) * d + const(p, n) * x], p, n=n, **kw)
    assert list(r.annihilator) == []
    assert (r.annihilator_status, r.dimension, r.generic_rank) == (status, 2 * n, rank)


def test_report_deterministic():
    (x,), (d,), one = qq_gens()
    a = report_for([d - x], 5, seed=0)
    b = report_for([d - x], 5, seed=0)
    assert a == b
    assert a.to_dict() == b.to_dict()


def test_lagrangian_requires_middle_dimension():
    # <x, d^3> is proper (the quotient has basis 1, d, d^2 at p = 3) but its
    # annihilator contains both X1 and Xi1, cutting the support to the origin
    (x,), (d,), one = qq_gens()
    r = report_for([x, d**3], 3)
    assert r.dimension == 0
    assert not r.lagrangian
    # the origin is not coisotropic: {Xi1, X1} = 1 misses the radical
    assert not r.coisotropic
    assert r.coisotropy_witness == {"pair": ["Xi1", "X1"], "bracket": "1"}


def twisted_ring(p, n=1):
    return FrobeniusTwist(p, n).twisted_ring


def test_is_conical_examples():
    R = twisted_ring(5)
    X, Xi = R.gens()
    assert is_conical(CIdeal.of([Xi]))
    assert not is_conical(CIdeal.of([Xi - R.one()]))
    assert is_conical(CIdeal.of([X * Xi]))


def test_dilation_witness_for_nonconical_support():
    # substituting Xi -> 2*Xi moves the ideal (Xi - 1): concrete witness
    R = twisted_ring(5)
    X, Xi = R.gens()
    J = CIdeal.of([Xi - R.one()])
    assert not radical_member(Xi.scale(2) - R.one(), J)
    # while the conical ideal (X*Xi) is carried into itself
    J2 = CIdeal.of([X * Xi])
    assert radical_member((X * Xi).scale(2), J2)


def test_generic_rank_values():
    F3 = Zmod(3)
    tw3 = FrobeniusTwist(3, 1)
    d3 = WeylOp.d(F3, 1, 0)
    I = LeftIdeal.of([d3])
    R = tw3.twisted_ring
    X, Xi = R.gens()
    ann = CIdeal.of([Xi])
    rr = generic_rank(I, ann, attempts=5, seed=0)
    assert rr.value == 3
    assert len(rr.samples) >= 3
    assert all(s.fiber_dim == 3 for s in rr.samples)

    F2 = Zmod(2)
    tw2 = FrobeniusTwist(2, 1)
    x2, d2 = WeylOp.x(F2, 1, 0), WeylOp.d(F2, 1, 0)
    I2 = LeftIdeal.of([d2 - x2])
    R2 = tw2.twisted_ring
    X2, Xi2 = R2.gens()
    ann2 = CIdeal.of([Xi2 + X2 + R2.one()])
    rr2 = generic_rank(I2, ann2, attempts=5, seed=0)
    assert rr2.value == 2


def test_generic_rank_takes_an_annihilator_of_the_ideals_twisted_ring():
    # an F_7 annihilator of an F_5 ideal gave rank 0 from F_7 points, and one
    # in four variables a bare ValueError from the point search
    I = LeftIdeal.of([parse_weyl("d1 - x1", 1, Zmod(5))])
    for n, p in [(1, 7), (2, 5)]:
        ann = CIdeal.of([parse_twisted("X1 - Xi1", n, Zmod(p))])
        with pytest.raises(RingMismatch):
            generic_rank(I, ann)
    ann = CIdeal.of([parse_twisted("X1 - Xi1", 1, Zmod(5))])
    assert generic_rank(I, ann).value == 5


def test_generic_rank_empty_support():
    F3 = Zmod(3)
    tw = FrobeniusTwist(3, 1)
    I = LeftIdeal.of([WeylOp.one(F3, 1)])
    ann = CIdeal.of([tw.twisted_ring.one()])
    with pytest.raises(EmptySupport):
        generic_rank(I, ann)


def test_airy_type_operator_p3():
    # in D/(d^2 - x): d^3 = d x = x d + 1, so d^6 = (x d + 1)^2 which
    # normal-orders to x^3 + 3 x d + 1 = x^3 + 1 mod 3
    (x,), (d,), one = qq_gens()
    r = report_for([d**2 - x], 3)
    assert list(r.annihilator) == ["Xi1^2 - X1 - 1"]
    assert r.dimension == 1 and r.lagrangian and not r.conical
    assert r.generic_rank == 3
    cv = characteristic_variety(DModuleSpec(1, (d**2 - x,)))
    assert [str(g) for g in cv.ideal.groebner_basis()] == ["xi1^2"]
    assert is_conical(cv.ideal)


def test_rank_with_multiplicity_two():
    # D/(x d^2) carries two copies of p at generic points: rank b*p with b = 2
    (x,), (d,), one = qq_gens()
    for p in (3, 5):
        r = report_for([x * d**2], p)
        assert r.generic_rank == 2 * p
        assert r.generic_rank % p == 0 and (r.generic_rank // p) % p != 0


def test_nonproduct_connection_in_two_variables():
    # d1 - x2 and d2 - x1 commute with each other's potential terms, so the
    # p-th powers obey the freshman's dream: Xi1 - X2 and Xi2 - X1 span the
    # annihilator, the Lagrangian graph of the differential of X1*X2
    xs, ds, one = qq_gens(2)
    spec = DModuleSpec(2, (ds[0] - xs[1], ds[1] - xs[0]))
    r = p_support(spec, 2, seed=0)
    assert sorted(r.annihilator) == ["X1 + Xi2", "X2 + Xi1"]
    assert r.dimension == 2 and r.lagrangian and not r.conical
    assert r.generic_rank == 4

    r3 = p_support(spec, 3, seed=0)
    assert sorted(r3.annihilator) == ["X1 - Xi2", "X2 - Xi1"]
    assert r3.annihilator_status == "stabilized(1)"
    assert r3.lagrangian


def test_three_variable_tensor_at_guard_boundary():
    # p = 2, n = 3 sits exactly at the rank-64 guard; still the exact route
    xs, ds, one = qq_gens(3)
    spec = DModuleSpec(3, (ds[0] - one, ds[1], ds[2] - xs[2]))
    r = p_support(spec, 2, seed=0)
    assert r.annihilator_status == "exact"
    assert sorted(r.annihilator) == ["X3 + Xi3 + 1", "Xi1 + 1", "Xi2"]
    assert r.dimension == 3 and r.lagrangian
    assert r.generic_rank == 8


def test_three_variable_system_is_lagrangian_on_both_routes():
    # a system that is no external product: at p = 3 the exact route, which
    # contracts one variable at a time, and the truncated ladder give the
    # same six-element basis, of dimension 3, coisotropic and Lagrangian;
    # the ladder's gate reads the same dimension off the left basis
    xs, ds, one = qq_gens(3)
    x1d1, x2d2, x3d3 = (x * d for x, d in zip(xs, ds))
    spec = DModuleSpec(3, (x1d1 - x2d2, x2d2 - x3d3, ds[0] * ds[1] * ds[2] - one))
    basis = (
        "X2*Xi2 - X3*Xi3",
        "X1*Xi1 - X3*Xi3",
        "Xi1*Xi2*Xi3 - 1",
        "X3*Xi2*Xi3^2 - X1",
        "X3*Xi1*Xi3^2 - X2",
        "X3^2*Xi3^3 - X1*X2",
    )
    exact = p_support(spec, 3, method="exact")
    truncated = p_support(spec, 3, method="truncated")
    assert exact.annihilator_status == "exact"
    assert truncated.annihilator_status == "stabilized(3)"
    for r in (exact, truncated):
        assert r.annihilator == basis
        assert r.dimension == 3 and r.coisotropic and r.lagrangian and not r.conical
    assert exact.generic_rank == 27
    assert _support_dimension(specialize_mod_p(spec, 3)) == 3


def test_raised_guard_reaches_generic_rank():
    (x,), (d,), one = qq_gens()
    r = p_support(DModuleSpec(1, (d - x,)), 11, guard=200)
    assert r.annihilator == ("X1 - Xi1",)
    assert r.generic_rank == 11


def test_rank_samples_over_gf_p2_for_p_above_7():
    # Xi^2 + 1 has no F_11 points, so the rank is sampled over GF(11^2)
    (x,), (d,), one = qq_gens()
    r = p_support(DModuleSpec(1, (d**2 + one,)), 11, guard=200)
    assert r.annihilator == ("Xi1^2 + 1",)
    assert r.generic_rank == 11
    assert {s["field"] for s in r.to_dict()["rank_samples"]} == {"GF(11^2)"}


def test_rank_search_builds_no_field_above_the_point_limit(monkeypatch):
    # at p = 101, F_101^2 is past the exhaustive limit: Xi1 is drawn and X1
    # solved for, so the line X1 = Xi1 gives a point per draw.  GF(101^2)
    # and GF(101^3) exceed the limit: only F_101 is searched, and a support
    # without F_p points names that degree in its note
    import pweyl.psupport as psupport

    built = []

    def recording(p, k):
        built.append(p**k)
        return extension_field(p, k)

    monkeypatch.setattr(psupport, "extension_field", recording)
    (x,), (d,), one = qq_gens()
    r = p_support(DModuleSpec(1, (d - x,)), 101, guard=10**9)
    assert r.generic_rank == 101 and len(r.rank_samples) == 5
    assert {s["field"] for s in r.to_dict()["rank_samples"]} == {"GF(101)"}
    r = p_support(DModuleSpec(1, (d**2 + one,)), 103, guard=10**9)
    assert r.annihilator == ("Xi1^2 + 1",) and r.generic_rank is None
    assert "generic rank unavailable: no points found over F_(p^k), k <= 1" in r.notes
    assert built and max(built) <= psupport.EXHAUSTIVE_POINT_LIMIT


def test_rank_past_the_point_limit_finds_points_at_every_seed():
    # F_11^4 is past the exhaustive limit; whole random points hit the plane
    # X1 = Xi1, Xi2 = 1 about once in 121 tries and left seeds 1, 2, 3, 6,
    # 10 and 18 without a sample, while each draw of X2, Xi1, Xi2 with
    # Xi2 = 1 now solves for X1
    xs, ds, one = qq_gens(2)
    spec = DModuleSpec(2, (ds[0] - xs[0], ds[1] - one))
    r = p_support(spec, 11, guard=10**9)
    assert r.annihilator == ("Xi2 - 1", "X1 - Xi1") and r.generic_rank == 121
    assert len(r.rank_samples) == 5
    I = specialize_mod_p(spec, 11)
    ann = central_annihilator(I, 10**9).ideal
    for seed in range(20):
        rr = generic_rank(I, ann, seed=seed)
        assert len(rr.samples) == 5 and rr.value == 121, seed


# rank_samples as (point, field, Jacobian rank, fiber dimension), pinned from
# the dense evaluate-and-rref implementation that the sparse one replaced
RANK_SAMPLE_GOLDENS = [
    # every point over GF(5) (exhaustive search)
    ("d1 - x1", 1, 5, {}, [
        (("0", "0"), "GF(5)", 1, 5),
        (("1", "1"), "GF(5)", 1, 5),
        (("2", "2"), "GF(5)", 1, 5),
        (("3", "3"), "GF(5)", 1, 5),
        (("4", "4"), "GF(5)", 1, 5),
    ]),
    # over GF(11^2), Xi1 drawn and X1 solved for: the seeded draw is pinned too
    ("d1^2 + 1", 1, 11, {"guard": 200}, [
        (("0", "(3 + 4*t)"), "GF(11^2)", 1, 11),
        (("1", "(3 + 4*t)"), "GF(11^2)", 1, 11),
        (("2", "(3 + 4*t)"), "GF(11^2)", 1, 11),
        (("3", "(3 + 4*t)"), "GF(11^2)", 1, 11),
        (("4", "(3 + 4*t)"), "GF(11^2)", 1, 11),
    ]),
    # too few points over GF(2) and GF(2^2): the search reaches GF(2^3)
    ("x1^2*d1 + x1", 1, 2, {}, [
        (("1", "0"), "GF(2)", 1, 2),
        (("1", "0"), "GF(2^2)", 1, 2),
        (("(t)", "0"), "GF(2^2)", 1, 2),
        (("(1 + t)", "0"), "GF(2^2)", 1, 2),
        (("1", "0"), "GF(2^3)", 1, 2),
    ]),
    # n = 2: Jacobian rank 2, fibers of dimension p^n
    ("d1 - x1; d2 - 1", 2, 2, {}, [
        (("1", "0", "0", "1"), "GF(2)", 2, 4),
        (("1", "1", "0", "1"), "GF(2)", 2, 4),
        (("0", "0", "1", "1"), "GF(2)", 2, 4),
        (("0", "1", "1", "1"), "GF(2)", 2, 4),
        (("1", "0", "0", "1"), "GF(2^2)", 2, 4),
    ]),
]


@pytest.mark.parametrize("text, n, p, kw, expected", RANK_SAMPLE_GOLDENS)
def test_rank_samples_golden(text, n, p, kw, expected):
    gens = tuple(parse_weyl(g, n, QQ) for g in text.split("; "))
    r = p_support(DModuleSpec(n, gens), p, **kw).to_dict()
    got = [
        (tuple(s["point"]), s["field"], s["jacobian_rank"], s["fiber_dim"])
        for s in r["rank_samples"]
    ]
    assert got == expected
    assert r["generic_rank"] == expected[0][3]


@pytest.mark.parametrize(
    "text, n, p, ranks",
    [
        # the search stops at the fifth point of Jacobian rank 1 or 2; a
        # full search of each field reached ranks 7, 22 and 20 points
        ("d1 - x1", 1, 7, range(6)),
        ("x1*d1", 1, 3, range(8)),
        ("d1 - x1; d2 - 1", 2, 2, range(6)),
        # three basis elements on a surface: no point reaches rank 3, so
        # every point of each field reached is ranked
        ("d1*d2 - 1; x1*d1 - x2*d2", 2, 2, [14]),
    ],
)
def test_rank_search_stops_at_the_jacobian_ceiling(monkeypatch, text, n, p, ranks):
    # fibres are ranked through center, so psupport's binding of the rank
    # sees only the Jacobian ranks
    import pweyl.psupport as psupport

    calls = []

    def counting(rows, K, ncols):
        calls.append(ncols)
        return matrix_rank(rows, K, ncols)

    monkeypatch.setattr(psupport, "matrix_rank", counting)
    gens = tuple(parse_weyl(g, n, QQ) for g in text.split("; "))
    r = p_support(DModuleSpec(n, gens), p)
    assert r.generic_rank is not None and len(r.rank_samples) == 5
    assert len(calls) in ranks


def _samples_or_none(choose, basis, nvars, p, attempts, seed):
    try:
        return choose(basis, nvars, p, attempts, random.Random(seed))
    except NoPointsFound:
        return None


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_choose_samples_matches_the_full_search(p, n):
    # stopping at the Jacobian-rank ceiling chooses what ranking every point
    # of each field reached chooses, with the same draws up to the stop
    rng = random.Random(100 * p + n)
    R = FrobeniusTwist(p, n).twisted_ring
    for _ in range(4):
        basis = [
            random_mpoly(R, rng, max_degree=3, max_terms=3, nonzero=True)
            for _ in range(rng.randrange(1, 4))
        ]
        for attempts in (1, 3, 5):
            seed = rng.randrange(2**32)
            ours = _samples_or_none(_choose_samples, basis, 2 * n, p, attempts, seed)
            expected = _samples_or_none(reference_samples, basis, 2 * n, p, attempts, seed)
            assert ours == expected, ([str(g) for g in basis], p, attempts)


@pytest.mark.parametrize(
    "texts, n, p, top",
    [
        # the Jacobian vanishes on the support: rank 0 < 1 everywhere
        (["Xi1^2"], 1, 3, 0),
        # Legendre: rank 0 on the line Xi1 = 0, which the search meets
        # first, and rank 1 = the ceiling elsewhere
        (["X1^2*Xi1^2 - X1*Xi1^2"], 1, 3, 1),
        # three elements on a surface in 4 variables: rank 2 < 3
        (["Xi1*Xi2 + 1", "X1*Xi1 + X2*Xi2", "X2*Xi2^2 + X1"], 2, 2, 2),
        # no point over F_5; GF(25)^4 is past the exhaustive limit, so the
        # stop comes among the random draws
        (["Xi1^2 - 2"], 2, 5, 1),
    ],
)
def test_choose_samples_hand_cases(texts, n, p, top):
    basis = [parse_twisted(t, n, Zmod(p)) for t in texts]
    for attempts in (1, 3, 5):
        chosen = _choose_samples(basis, 2 * n, p, attempts, random.Random(0))
        assert chosen == reference_samples(basis, 2 * n, p, attempts, random.Random(0))
        assert len(chosen) == attempts and {s[0] for s in chosen} == {top}


def test_rank_on_exact_route_builds_no_presentation_over_the_centre(monkeypatch):
    import pweyl.center as center

    calls = []
    split = center._split_residues

    def counting(terms, p, slots):
        calls.append(len(slots))
        return split(terms, p, slots)

    monkeypatch.setattr(center, "_split_residues", counting)
    xs, ds, one = qq_gens(2)
    # the exact annihilator splits by the n d-exponents, then by one
    # x-exponent per contraction step, and the rank, which reads the fibres
    # on the simple module of rank p^n, by the n x-exponents; nothing splits
    # by all 2n exponents over the centre.  An external product is read one
    # factor at a time, each at n = 1, so nothing splits by two slots
    for gens, rank, slots in [
        ((ds[0] * ds[1] - one, xs[0] * ds[0] - xs[1] * ds[1]), 4, {1, 2}),
        ((ds[0] - xs[0], ds[1] - one), 4, {1}),
    ]:
        spec = DModuleSpec(2, gens)
        calls.clear()
        r = p_support(spec, 2, compute_rank=False)
        assert r.annihilator_status == "exact" and r.generic_rank is None
        r = p_support(spec, 2)
        assert r.annihilator_status == "exact" and r.generic_rank == rank
        assert set(calls) == slots


def test_fiber_dim_matches_the_rank_p2n_presentation():
    # the fibre of D/I read on the rank-p^n simple module is the corank of
    # the evaluated rank-p^(2n) presentation over the centre: at random
    # points of GF(p^k)^(2n), mostly off the support, at points of the
    # support over each GF(p^k), and at the points generic_rank samples
    rng = random.Random(11)
    fibre_is_nonzero = set()
    for n, p in [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3)]:
        tw = FrobeniusTwist(p, n)
        for ngens in (1, 2, 2):
            gens = [
                random_weylop(tw.weyl_ring, n, rng, max_exp=3 - n, max_terms=3, nonzero=True)
                for _ in range(ngens)
            ]
            I = LeftIdeal.of(gens)
            B, columns = z_module_presentation(I, tw)
            rows = CompiledRows(_simple_module_rows(I), tw.weyl_ring)

            def reference(K, pt):
                evaluated = []
                for col in columns:
                    vals = {i: evaluate(f.terms, pt, K) for i, f in enumerate(col)}
                    evaluated.append({i: v for i, v in vals.items() if not K.is_zero(v)})
                return len(B) - matrix_rank(evaluated, K, len(B))

            ann = central_annihilator(I, method="exact").ideal
            support = ann.groebner_basis()
            for k in (1, 2, 3):
                K = extension_field(p, k)
                points = [
                    tuple(K.element_from_index(rng.randrange(K.size)) for _ in range(2 * n))
                    for _ in range(3)
                ]
                if not ann.is_unit_ideal():
                    points += islice(_points_on_variety(support, 2 * n, p, k, rng)[1], 3)
                for pt in points:
                    fibre = _fiber_dim(rows, tw, K, pt)
                    assert fibre == reference(K, pt), ([str(g) for g in gens], p, pt)
                    fibre_is_nonzero.add(fibre > 0)
            if not ann.is_unit_ideal():
                for s in generic_rank(I, ann).samples:
                    K = extension_field(p, s.degree)
                    assert s.fiber_dim == reference(K, s.point)
    assert fibre_is_nonzero == {False, True}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("nvars", [2, 4, 6])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_points_on_variety_matches_brute_force(p, nvars, k):
    # the same points in the same order, and the same draws from rng, as
    # evaluating every element at every point (or at every completion of a draw)
    rng = random.Random(1000 * p + 10 * nvars + k)
    R = PolyRing(Zmod(p), tuple(f"v{i}" for i in range(nvars)))
    for size in (0, 1, 2, 3):
        basis = [
            random_mpoly(R, rng, max_degree=rng.choice([2, 4]), nonzero=True)
            for _ in range(size)
        ]
        seed = rng.randrange(2**32)
        ours, theirs = random.Random(seed), random.Random(seed)
        _, points = _points_on_variety(basis, nvars, p, k, ours)
        _, expected = brute_force_points(basis, nvars, p, k, theirs)
        # the stream is lazy: rng is drawn from only once it is read out
        assert list(points) == expected, ([str(g) for g in basis], p, k)
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize(
    "texts, n, p, k, count",
    [
        ([], 1, 3, 1, 9),
        ([], 2, 2, 2, 256),
        (["2"], 1, 3, 2, 0),
        (["Xi2 + 1", "X1 + Xi1 + 1"], 2, 2, 2, 16),
        (["X1*Xi1"], 1, 3, 2, 17),
    ],
)
def test_points_on_variety_hand_cases(texts, n, p, k, count):
    basis = [parse_twisted(t, n, Zmod(p)) for t in texts]
    K, points = _points_on_variety(basis, 2 * n, p, k, random.Random(0))
    points = list(points)
    assert len(points) == count
    assert points == brute_force_points(basis, 2 * n, p, k, random.Random(0))[1]
    if not texts:
        elements = [K.element_from_index(i) for i in range(K.size)]
        assert points == [pt[::-1] for pt in product(elements, repeat=2 * n)]


@pytest.mark.parametrize("text, count", [("X1^2 - 3", 0), ("X1^2 - 2", 400)])
def test_draws_that_leave_the_same_system_share_one_search(monkeypatch, text, count):
    # GF(7^3)^2 is past the point limit, so Xi1 is drawn, and it occurs in
    # no basis element: every draw leaves X1^2 - c, solved once.  That takes
    # 3 * 343 multiplications (the powers x, x^2 and one product per field
    # element), where a search per draw took 69286
    import pweyl.psupport as psupport

    class Counting:
        def __init__(self, K):
            self.K, self.muls = K, 0

        def __getattr__(self, name):
            return getattr(self.K, name)

        def mul(self, a, b):
            self.muls += 1
            return self.K.mul(a, b)

    monkeypatch.setattr(psupport, "extension_field", lambda p, k: Counting(extension_field(p, k)))
    basis = [parse_twisted(text, 1, Zmod(7))]
    ours, theirs = random.Random(0), random.Random(0)
    K, points = _points_on_variety(basis, 2, 7, 3, ours)
    points = list(points)
    assert len(points) == count
    assert points == brute_force_points(basis, 2, 7, 3, theirs)[1]
    assert ours.getstate() == theirs.getstate()
    assert K.muls == 3 * 343


def test_uncertified_truncated_annihilator_is_noted(monkeypatch):
    # a ladder that reaches its top degree above the support dimension says
    # so; one that stops on a plateau keeps its notes
    import pweyl.psupport as psupport

    xs, ds, one = qq_gens(2)
    spec = DModuleSpec(2, (ds[0] - one, ds[1]))
    plain = p_support(spec, 3, compute_rank=False)
    assert plain.annihilator_status == "stabilized(1)" and plain.dimension == 2
    assert not any("not certified" in note for note in plain.notes)
    R = FrobeniusTwist(3, 2).twisted_ring
    top = AnnihilatorResult(CIdeal.of([R.gen(3)], ring=R), "truncated(6)")
    monkeypatch.setattr(psupport, "central_annihilator", lambda ideal, guard, method: top)
    r = p_support(spec, 3, compute_rank=False)
    assert r.annihilator == ("Xi2",) and r.dimension == 3
    assert r.notes == plain.notes[:2] + (
        "annihilator dimension 3 exceeds the support dimension 2: not certified",
        "generic rank not requested",
    )


def test_non_reduced_annihilator_is_not_lagrangian():
    # (x1^4, d1^4) at p = 2 has annihilator (X1^2, Xi1^2): its zero set is
    # the (X2, Xi2)-plane, which is symplectic, not Lagrangian
    xs, ds, one = qq_gens(2)
    r = p_support(DModuleSpec(2, (xs[0] ** 4, ds[0] ** 4)), 2, compute_rank=False)
    assert r.annihilator == ("Xi1^2", "X1^2")
    assert r.dimension == 2
    assert not r.coisotropic and not r.lagrangian
    assert r.coisotropy_witness == {"pair": ["Xi1", "X1"], "bracket": "1"}

    # adding d2 cuts the support to a line, which is not coisotropic in 4-space
    r = p_support(DModuleSpec(2, (xs[0] ** 4, ds[0] ** 4, ds[1])), 2, compute_rank=False)
    assert r.dimension == 1
    assert not r.coisotropic and not r.lagrangian


def test_exact_method_with_raised_guard():
    # gaussian-exponential at p = 3: module rank 81, within the raised guard
    xs, ds, one = qq_gens(2)
    spec = DModuleSpec(2, (ds[0] - xs[0], ds[1] - one))
    r = p_support(spec, 3, method="exact", guard=100)
    assert r.annihilator_status == "exact"
    assert sorted(r.annihilator) == ["X1 - Xi1", "Xi2 - 1"]
    assert r.generic_rank == 9


def test_characteristic_variety_examples():
    (x,), (d,), one = qq_gens()
    cv = characteristic_variety(DModuleSpec(1, (d - one,)))
    assert [str(g) for g in cv.ideal.groebner_basis()] == ["xi1"]
    assert cv.dimension == 1 and cv.holonomic

    lam = const(Fraction(1, 2))
    cv = characteristic_variety(DModuleSpec(1, (x * d - lam,)))
    assert [str(g) for g in cv.ideal.groebner_basis()] == ["x1*xi1"]
    assert cv.dimension == 1

    cv = characteristic_variety(DModuleSpec(1, (x,)))
    assert [str(g) for g in cv.ideal.groebner_basis()] == ["x1"]
    assert cv.dimension == 1


def test_characteristic_variety_requires_rationals():
    d = WeylOp.d(Zmod(3), 1, 0)
    with pytest.raises(RingMismatch):
        characteristic_variety(DModuleSpec(1, (d,)))


def test_truncated_route_beyond_guard():
    xs, ds, one = qq_gens(2)
    spec = DModuleSpec(2, (ds[0] - one, ds[1]))
    r = p_support(spec, 3)
    assert r.annihilator_status.startswith("stabilized")
    assert r.dimension == 2 and r.lagrangian
    assert r.generic_rank is None
    assert "generic rank not computed on the degree-truncated route" in r.notes
    # the exact route beyond the guard (module rank 121): the annihilator is
    # certified, and the rank is computed on the simple module of rank p
    (x,), (d,), _ = qq_gens()
    r = p_support(DModuleSpec(1, (d - x,)), 11, method="exact")
    assert r.annihilator_status == "exact"
    assert r.annihilator == ("X1 - Xi1",)
    assert r.generic_rank == 11
    assert not any("generic rank" in note for note in r.notes)


@pytest.mark.parametrize("method", ["auto", "exact"])
def test_guard_must_be_an_int(method):
    # the route reader rejects it before the guard is compared; True is an
    # int to isinstance, but no size
    (x,), (d,), _ = qq_gens()
    for guard in (None, 64.0, "64", True, False):
        with pytest.raises(ValueError, match="guard must be an int"):
            p_support(DModuleSpec(1, (d - x,)), 3, method=method, guard=guard)


# True is an int to isinstance, but no count
BAD_ATTEMPTS = (0, -1, 2.0, 2.5, "5", None, True, False)


@pytest.mark.parametrize("compute_rank", [True, False])
def test_attempts_must_be_a_positive_int(compute_rank):
    (x,), (d,), _ = qq_gens()
    for attempts in BAD_ATTEMPTS:
        with pytest.raises(ValueError, match="attempts must be a positive int"):
            p_support(DModuleSpec(1, (d - x,)), 3, attempts=attempts, compute_rank=compute_rank)
    assert p_support(DModuleSpec(1, (d - x,)), 3, attempts=1).generic_rank == 3


def test_generic_rank_attempts_must_be_a_positive_int():
    F3 = Zmod(3)
    tw = FrobeniusTwist(3, 1)
    I = LeftIdeal.of([WeylOp.d(F3, 1, 0)])
    ann = CIdeal.of([tw.twisted_ring.gens()[1]])
    for attempts in BAD_ATTEMPTS:
        with pytest.raises(ValueError, match="attempts must be a positive int"):
            generic_rank(I, ann, attempts=attempts)
    assert len(generic_rank(I, ann, attempts=2).samples) == 2


def test_no_rank_option():
    (x,), (d,), one = qq_gens()
    r = report_for([d], 3, compute_rank=False)
    assert r.generic_rank is None
    assert any("not requested" in note for note in r.notes)


# the annihilator of x1*x2*d2 - x1*d1*d2 - x2 at p = 3, by both routes
CUBIC_N2_ANNIHILATOR = (
    "X1^3*X2^3*Xi2^3 - X1^3*Xi1^3*Xi2^3 - X2^3 + X1^2*Xi1 + X1*X2*Xi2 + X2*Xi2^2",
)


@pytest.mark.parametrize(
    "text, annihilator",
    [
        ("d1^2*d2 - x1", ("Xi1^6*Xi2^3 - X1^3 - Xi2",)),
        ("x1*x2*d2 - x1*d1*d2 - x2", CUBIC_N2_ANNIHILATOR),
    ],
)
def test_truncated_ladder_reaches_the_reduced_norm_degree(text, annihilator):
    # both operators have total degree 3, so the reduced norm has twisted
    # degree <= 3 * p^(n-1) = 9 at p = 3: the default ladder runs to 9, past
    # the 2p = 6 where it used to stop on the zero annihilator (dimension 4);
    # for one operator the generator of I cap Z, here of degree 9, ends the
    # ladder and is certified
    spec = DModuleSpec(2, (parse_weyl(text, 2, QQ),), text)
    r = p_support(spec, 3, compute_rank=False)
    assert r.annihilator == annihilator
    assert r.annihilator_status == "stabilized(9)"
    assert r.dimension == 3
    # the support dimension of one operator is 3, so the dimension is certified
    assert not any("not certified" in note for note in r.notes)


@pytest.mark.parametrize(
    "text, n, p, annihilator",
    [
        ("x1*x2*d2 - x1*d1*d2 - x2", 2, 3, CUBIC_N2_ANNIHILATOR),
        # the truncated route finds this generator only at its top degree, 21
        ("x2*d1*d2 + d1 - 3", 2, 7, ("X2^7*Xi1^7*Xi2^7 + 3*Xi1^6 - 3",)),
        ("x1^2*d1 - 1", 1, 11, ("X1^2*Xi1 - 1",)),
        ("x1*d1^2 + d1 - x1", 1, 11, ("X1*Xi1^2 - X1",)),
        ("d1^3 - x1", 1, 13, ("Xi1^3 - X1",)),
    ],
)
def test_exact_route_certifies_inputs_beyond_the_guard(text, n, p, annihilator):
    # module ranks 81, 2401, 121, 121 and 169 over the centre, all above
    # EXACT_GUARD
    spec = DModuleSpec(n, (parse_weyl(text, n, QQ),), text)
    r = p_support(spec, p, compute_rank=False, method="exact")
    assert r.annihilator == annihilator
    assert r.annihilator_status == "exact"
