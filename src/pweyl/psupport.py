"""From a cyclic D-module presentation to its support report mod p.

The pipeline reduces rational generators mod p, computes a left Groebner
basis, intersects the ideal with the center (exact route within the size
guard, degree-truncated route beyond), and then interrogates the resulting
ideal in the twisted cotangent ring: dimension, coisotropy under the
canonical bracket, the middle-dimension verdict, conicality for the fiber
dilation, and, on the exact route, the generic fiber rank from sampled
points of the variety, where D/I is read on the simple module of rank p^n
over each point (``center._simple_module_rows``), an external product one
factor at a time (``center._fiber_reader``).  The module rows and the
Jacobian of the annihilator's basis are compiled once per rank
(``mpoly.CompiledRows``), so a point costs only the work that depends on it:
one evaluation of each, and their ranks.  The points are searched
field by field, coordinate by coordinate (past ``EXHAUSTIVE_POINT_LIMIT``
points all but the first coordinate are drawn, and the first is solved for),
and ranked by the Jacobian of the annihilator's basis as they are found; the
search stops once ``attempts`` of them reach the Jacobian's rank ceiling
min(len(basis), 2n), since no later point can displace them from the samples
a full search would keep, and it never enters an extension field with more
than ``EXHAUSTIVE_POINT_LIMIT`` elements.  For comparison the
characteristic-zero symbol ideal of the same presentation is available too.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
import random

from .cgb import CIdeal, frobenius_root, krull_dim, radical_member
from .center import (
    EXACT_GUARD,
    _fiber_reader,
    _support_dimension,
    _twist_of,
    central_annihilator,
)
from .errors import BadPrime, EmptySupport, NoPointsFound, RingMismatch, ZeroInput
from .linalg import rank as matrix_rank
from .mpoly import CompiledRows, MPoly
from .orders import Weighted
from .poisson import coisotropy_check
from .rings import QQ, Zmod, extension_field, is_prime
from .weyl import WeylOp
from .wgb import LeftIdeal, initial_weighted, left_groebner

EXHAUSTIVE_POINT_LIMIT = 10_000
RANDOM_POINT_BUDGET = 200


@dataclass(frozen=True)
class DModuleSpec:
    """A cyclic module D/I given by left ideal generators over Q or F_p."""

    n: int
    generators: tuple
    name: str = None

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        ring = self.generators[0].ring
        for g in self.generators:
            if g.is_zero():
                raise ZeroInput("zero generator in module presentation")
            if g.n != self.n:
                raise ValueError("generator arity differs from n")
            if g.ring != ring:
                raise RingMismatch("generators over mixed coefficient rings")

    @property
    def ring(self):
        return self.generators[0].ring


def specialize_mod_p(spec, p):
    """Coefficientwise reduction of the presentation into A_n(F_p).

    A prime that divides a denominator of a rational coefficient does not
    survive the reduction: BadPrime names it and the denominator.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    F = Zmod(p)
    if spec.ring == F:
        gens = spec.generators
    elif spec.ring == QQ:
        gens = []
        for g in spec.generators:
            terms = {}
            for key, c in g.terms.items():
                c = Fraction(c)
                if c.denominator % p == 0:
                    raise BadPrime(p, c.denominator)
                v = F.from_fraction(c)
                if v:
                    terms[key] = v
            gens.append(WeylOp(F, spec.n, terms))
    else:
        raise RingMismatch(f"cannot specialize coefficients in {spec.ring} to F_{p}")
    return LeftIdeal.of(gens, ring=F, n=spec.n)


# ---------------------------------------------------------------------------
# conicality
# ---------------------------------------------------------------------------


def fiber_weight_parts(poly):
    """Split into homogeneous parts for the weight (0 on X, 1 on Xi)."""
    n = poly.ring.nvars // 2
    buckets = {}
    for e, c in poly.terms.items():
        buckets.setdefault(sum(e[n:]), {})[e] = c
    return [MPoly(poly.ring, t) for _, t in sorted(buckets.items())]


def is_conical(ideal):
    """Whether rad(J) is stable under scaling the fiber variables.

    Each reduced-basis element is split into fiber-weight homogeneous parts;
    the radical is dilation-stable iff every part lies back in rad(J).
    """
    basis = ideal.groebner_basis()
    for g in basis:
        parts = fiber_weight_parts(g)
        if len(parts) == 1:
            continue
        for part in parts:
            if not radical_member(part, ideal):
                return False
    return True


# ---------------------------------------------------------------------------
# generic rank via point sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankSample:
    point: tuple
    degree: int  # extension degree k of the residue field F_(p^k)
    jacobian_rank: int
    fiber_dim: int

    def to_dict(self, field, formatted):
        """The report entry: ``field`` is the label of the sample's field and
        ``formatted`` maps each coordinate to its string."""
        return {
            "point": [formatted[c] for c in self.point],
            "field": field,
            "jacobian_rank": self.jacobian_rank,
            "fiber_dim": self.fiber_dim,
        }


@dataclass(frozen=True)
class RankResult:
    value: int
    samples: tuple
    sample_dicts: tuple
    agreement: bool


def _points_on_variety(basis, nvars, p, k, rng):
    """F_(p^k) and an iterator over its rational points where every basis
    element vanishes.

    A depth-first search fixes one coordinate at a time, the last one
    outermost and the first innermost, each running over the field in
    ``element_from_index`` order, so the points come out in the order of
    enumerating all of F_(p^k)^nvars with the first coordinate varying
    fastest; the elements come as the one sequence the field keeps
    (``K.elements()``).  Fixing a coordinate substitutes its value into every
    remaining element (coefficients embedded once by ``from_base``, powers
    cached per field element): an element that vanishes identically is
    dropped, a branch ends at the first element that becomes a nonzero
    constant, and once no element is left every completion of the branch
    is a point.  Beyond ``EXHAUSTIVE_POINT_LIMIT`` points, the outer
    coordinates, all but the first, are drawn: ``rng.sample`` takes
    ``RANDOM_POINT_BUDGET`` distinct indices below q^(nvars - 1), q = p^k
    (all, if no more), read in base q with the lowest digit last; the same
    substitutions fix them and the same search solves for the first.  Draws
    that leave the same system, as when the drawn coordinates occur in no
    basis element, share one search: at most ``RANDOM_POINT_BUDGET`` *
    nvars substitutions, plus q per distinct system.  The points come out
    one draw at a time; ``rng`` is read once, when the iterator is first
    read.
    """
    K = extension_field(p, k)
    elements = K.elements()
    one, add, mul, embed, is_zero = K.one(), K.add, K.mul, K.from_base, K.is_zero
    powers = {}

    def fix(polys, x):
        """The elements with x put for their last variable, the zero ones
        dropped; None when one of them becomes a nonzero constant."""
        row = powers.setdefault(x, [one])
        fixed = []
        for f in polys:
            g = {}
            for e, c in f.items():
                d = e[-1]
                while len(row) <= d:
                    row.append(mul(row[-1], x))
                if d:
                    c = mul(c, row[d])
                head = e[:-1]
                g[head] = add(g[head], c) if head in g else c
            g = {e: c for e, c in g.items() if not is_zero(c)}
            if g:
                if not any(map(any, g)):
                    return None
                fixed.append(g)
        return fixed

    def search(polys, suffix):
        if not polys:
            for rest in product(elements, repeat=nvars - len(suffix)):
                yield rest[::-1] + suffix
            return
        for x in elements:
            fixed = fix(polys, x)
            if fixed is not None:
                yield from search(fixed, (x,) + suffix)

    def points():
        drawn = nvars - 1 if K.size**nvars > EXHAUSTIVE_POINT_LIMIT else 0
        if not drawn:
            yield from search(start, ())
            return
        outer = range(K.size**drawn)
        solved = {}  # substituted system -> its solutions in the first coordinate
        for i in rng.sample(outer, min(RANDOM_POINT_BUDGET, len(outer))):
            polys, suffix = start, ()
            for _ in range(drawn):
                i, j = divmod(i, K.size)
                polys = fix(polys, elements[j])
                if polys is None:
                    break
                suffix = (elements[j],) + suffix
            else:
                key = tuple(frozenset(f.items()) for f in polys)
                if key not in solved:
                    solved[key] = [pt[0] for pt in search(polys, suffix)]
                for x in solved[key]:
                    yield (x,) + suffix

    start = [{e: embed(c) for e, c in g.terms.items()} for g in basis]
    return K, points()


def _check_attempts(attempts):
    """Reject a rank-sample cap that is not a positive int (bools too)."""
    if isinstance(attempts, bool) or not isinstance(attempts, int) or attempts < 1:
        raise ValueError(f"attempts must be a positive int, got {attempts!r}")


def _choose_samples(basis, nvars, p, attempts, rng):
    """The points to read fibres at, as (Jacobian rank, k, F_(p^k), point).

    Points come over F_(p^k), k = 1..3, field by field in the order of
    ``_points_on_variety``, and each is ranked by the Jacobian of ``basis``
    as it arrives.  No extension with more than ``EXHAUSTIVE_POINT_LIMIT``
    elements is searched, since each builds a table of all its powers; the
    message of ``NoPointsFound`` names the largest k searched.  The chosen
    ones are the first ``attempts`` points of the top Jacobian rank seen
    (the smooth locus of the top-dimensional components); a further field
    is searched only while fewer than ``attempts`` points have that rank.

    The Jacobian is a len(basis) x nvars matrix, so no point ranks above
    ``min(len(basis), nvars)``.  Once ``attempts`` points reach that
    ceiling, the top rank is known and so are the first ``attempts`` points
    that have it: the search stops there, and the choice is the one a full
    search of every field it reaches (with the same draws) would make.  Where
    fewer points reach the ceiling (a basis longer than the codimension, or a
    support singular everywhere), every point of each field reached is ranked.
    """
    jac = CompiledRows([[(v, g.partial(v).terms) for v in range(nvars)] for g in basis], Zmod(p))
    ceiling = min(len(basis), nvars)
    by_rank = {}  # Jacobian rank -> its points, in search order
    degrees = [k for k in (1, 2, 3) if k == 1 or p**k <= EXHAUSTIVE_POINT_LIMIT]
    for k in degrees:
        K, points = _points_on_variety(basis, nvars, p, k, rng)
        for pt in points:
            jr = matrix_rank(jac.at(pt, K), K, nvars)
            same = by_rank.setdefault(jr, [])
            same.append((jr, k, K, pt))
            if jr == ceiling and len(same) == attempts:
                return same
        if by_rank and len(by_rank[max(by_rank)]) >= attempts:
            break
    if not by_rank:
        raise NoPointsFound(f"no points found over F_(p^k), k <= {degrees[-1]}")
    return by_rank[max(by_rank)][:attempts]


def generic_rank(ideal, annihilator, attempts=5, seed=0):
    """Modal fiber dimension of D/I over sampled points of the support.

    The twist is the ideal's own, and ``annihilator`` must lie in its
    twisted ring (else ``RingMismatch``).  Points come over F_(p^k),
    k = 1..3, from ``_points_on_variety`` through ``_choose_samples``, which
    bounds the extensions, stops early, and prefers the points where the
    Jacobian of the annihilator's basis reaches its top observed rank (the
    smooth locus of the top-dimensional components); ``attempts``, a
    positive int, caps the samples, and ``seed`` seeds the outer coordinates
    drawn in fields past ``EXHAUSTIVE_POINT_LIMIT`` points.

    D is Azumaya over its centre Z = F_p[X, Xi] (Bezrukavnikov-Mirkovic-
    Rumynin): at a point (X, Xi) over K, D tensor K is End(V) for the
    simple module V = D / D(x^p - X, d - beta) of dimension p^n, where
    beta^p = Xi, that is beta = Xi^(|K| / p), as Frobenius is bijective on
    K.  The image of I is the left ideal of the endomorphisms that kill the
    common kernel W of the reduced left basis on V, so the fiber of D/I has
    dimension p^n * dim W = p^n * (p^n - rank), the rank of the basis's
    matrices on V with their rows stacked.  The samples are chosen on the
    whole annihilator, and each fibre is read one block of the ideal at a
    time (``center._fiber_reader``): the product of the blocks' fibres, each
    on its own simple module at its own coordinates, times p^2 for each
    variable pair that no block touches.  The rows are built once
    per call, from the products g * x^s, each one right multiplication by an
    x_i of an earlier one, and compiled once (``mpoly.CompiledRows``), as
    are the Jacobian entries.  At each point beta is one ``K.pow`` per
    coordinate, every distinct monomial is one product of per-coordinate
    powers, the entries are summed in one loop, and the nonzero ones, as
    sparse rows, go to the incremental ``linalg.rank``.  Each field's label
    is built once, and each distinct coordinate is formatted once per field,
    for the report's sample dicts.
    """
    _check_attempts(attempts)
    twist = _twist_of(ideal.ring, ideal.n)
    if annihilator.ring != twist.twisted_ring:
        raise RingMismatch(f"annihilator over {annihilator.ring}, not {twist.twisted_ring}")
    if annihilator.is_unit_ideal():
        raise EmptySupport("unit annihilator: the support is empty")
    basis = annihilator.groebner_basis()
    fiber = _fiber_reader(ideal)
    chosen = _choose_samples(basis, 2 * twist.n, twist.p, attempts, random.Random(seed))

    samples = []
    dicts = []
    fields = {}  # k -> the label of F_(p^k) and {coordinate: its string}
    for jr, k, K, pt in chosen:
        s = RankSample(pt, k, jr, fiber(K, pt))
        if k not in fields:
            fields[k] = (f"GF({twist.p}^{k})" if k > 1 else f"GF({twist.p})", {})
        label, formatted = fields[k]
        for c in pt:
            if c not in formatted:
                formatted[c] = K.format_value(c)
        samples.append(s)
        dicts.append(s.to_dict(label, formatted))
    counts = Counter(s.fiber_dim for s in samples)
    best = max(counts.values())
    modal = min(v for v, c in counts.items() if c == best)
    return RankResult(modal, tuple(samples), tuple(dicts), len(counts) == 1)


# ---------------------------------------------------------------------------
# characteristic-zero comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharVariety:
    ideal: CIdeal
    dimension: int
    holonomic: bool


def characteristic_variety(spec):
    """Symbol ideal of the order filtration over Q, with its dimension.

    The left basis is computed under a (0 on x, 1 on d)-weight-refined
    order, making the initial forms of the basis generate the symbol ideal.
    """
    if spec.ring != QQ:
        raise RingMismatch("characteristic variety expects rational coefficients")
    n = spec.n
    basis = left_groebner(list(spec.generators), Weighted((0,) * n + (1,) * n))
    C = CIdeal.of([initial_weighted(g) for g in basis])
    dim = krull_dim(C)
    return CharVariety(C, dim, dim == n)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

REPORT_SCHEMA = "pweyl-report-v1"


@dataclass(frozen=True)
class SupportReport:
    name: str
    prime: int
    n: int
    annihilator: tuple
    annihilator_status: str
    dimension: int
    coisotropic: bool
    coisotropy_witness: dict
    lagrangian: bool
    conical: bool
    generic_rank: int
    rank_samples: tuple
    notes: tuple

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "prime": self.prime,
            "n": self.n,
            "annihilator": list(self.annihilator),
            "annihilator_status": self.annihilator_status,
            "dimension": self.dimension,
            "coisotropic": self.coisotropic,
            "coisotropy_witness": self.coisotropy_witness,
            "lagrangian": self.lagrangian,
            "conical": self.conical,
            "generic_rank": self.generic_rank,
            "rank_samples": [dict(s) for s in self.rank_samples],
            "notes": list(self.notes),
        }


def p_support(
    spec,
    p,
    attempts=5,
    seed=0,
    compute_rank=True,
    method="auto",
    guard=EXACT_GUARD,
):
    """Full support verdict for one presentation at one prime.

    ``guard``, an int, bounds p^(2n) for the route that
    ``central_annihilator`` takes under ``method="auto"``.  The generic rank
    is computed whenever the exact route ran and ``compute_rank`` asks; it
    works on the simple module of rank p^n.  ``attempts`` caps the rank
    samples; it must be a positive int, even when no rank is computed.  A
    truncated annihilator whose dimension exceeds the support dimension
    (``center._support_dimension``), which only a ladder that reached its
    top degree can return, is noted as not certified.
    """
    _check_attempts(attempts)
    ideal = specialize_mod_p(spec, p)
    notes = ["dimension is the top dimension only; equidimensionality not checked"]

    result = central_annihilator(ideal, guard, method)
    exact_route = result.status == "exact"
    if not exact_route:
        notes.append("central annihilator from the degree-truncated method")
    ann = result.ideal

    # the verdicts of an empty support, and no rank
    dim, coisotropic, witness, lagr, conical = -1, True, None, False, True
    rank_value, rank_samples = None, ()
    if ann.is_unit_ideal():
        notes.append("unit annihilator: empty support")
    else:
        dim = krull_dim(ann)
        # the exact route's annihilator is I cap Z itself, certified
        support = dim if exact_route else _support_dimension(ideal)
        if dim > support:
            notes.append(
                f"annihilator dimension {dim} exceeds the support dimension {support}: "
                "not certified"
            )
        # brackets see the reduced structure only after p-th powers are rooted
        verdict = coisotropy_check(frobenius_root(ann))
        coisotropic = verdict.ok
        if not verdict.ok:
            witness = {
                "pair": [str(verdict.pair[0]), str(verdict.pair[1])],
                "bracket": str(verdict.bracket_value),
            }
        conical = is_conical(ann)
        lagr = (dim == spec.n) and verdict.ok

        if not compute_rank:
            notes.append("generic rank not requested")
        elif not exact_route:
            notes.append("generic rank not computed on the degree-truncated route")
        else:
            try:
                rr = generic_rank(ideal, ann, attempts=attempts, seed=seed)
                rank_value = rr.value
                rank_samples = rr.sample_dicts
                if not rr.agreement:
                    notes.append("sampled fiber dimensions disagree; modal value reported")
            except NoPointsFound as exc:
                notes.append(f"generic rank unavailable: {exc}")

    return SupportReport(
        name=spec.name,
        prime=p,
        n=spec.n,
        annihilator=tuple(str(g) for g in ann.groebner_basis()),
        annihilator_status=result.status,
        dimension=dim,
        coisotropic=coisotropic,
        coisotropy_witness=witness,
        lagrangian=lagr,
        conical=conical,
        generic_rank=rank_value,
        rank_samples=rank_samples,
        notes=tuple(notes),
    )
