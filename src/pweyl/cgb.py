"""The Groebner engine: one Buchberger loop and one reducer over field
coefficients, for commutative ideals, the elimination of a submodule of a
free module onto one coordinate (``_eliminate_onto``, every intersection of
the exact route: I cap A and each step of its contraction to the centre)
and, through ``wgb``, left ideals of the Weyl algebra.

The engine works on term dicts keyed by (position, exponent tuple): ideals
and Weyl operators use position 0 everywhere.  The algebras differ only in
the product of a monomial with a basis element, ``submul``, and in whether
the product criterion applies: it holds for ideals of the polynomial ring
only.  Each element type names both (``mpoly.MPoly`` and ``weyl.WeylOp``
carry ``_submul`` and ``_product_criterion``), and the checked entry and
normal forms read them off the elements they are given.  Buchberger's chain
criterion holds in every algebra of solvable type (Kandri-Rody and
Weispfenning, J. Symb. Comp. 1990), so it is applied to all of them.  Buchberger runs with the normal
selection strategy (smallest lcm degree first).  Output bases are reduced
(monic, mutually tail-reduced, sorted by lead), hence unique for a given
ideal and order.  A private caller that reads only some of the basis, say
the elements of an elimination basis whose lead lies in the eliminated
part, passes a predicate on leads, and only the elements it selects are
tail-reduced and returned (``_groebner``, ``_eliminate_onto``).

``_Ideal`` is the one ideal layer of ``CIdeal`` and ``wgb.LeftIdeal``, and
``_checked_basis`` the one checked entry behind ``buchberger`` and
``wgb.left_groebner`` (a field, a global order).
"""

import heapq
import itertools
from dataclasses import dataclass, field
from operator import le

from .errors import NonGlobalOrder, NotAField, RingMismatch
from .mpoly import MPoly, PolyRing, _shift_submul
from .orders import GrevLex, monomial_lcm
from .rings import Zmod

_GREVLEX = GrevLex()


# ---------------------------------------------------------------------------
# engine over term dicts keyed by (position, exponents)
# ---------------------------------------------------------------------------


def _reduce(work, basis, R, desckey, submul):
    """Fully reduce the term dict ``work`` against ``basis`` and return the
    remainder, in which no term is divisible by a basis lead; ``work`` is
    emptied on the way.

    ``basis`` holds (lead, 1/lc, g) triples, g a term dict; the first lead in
    basis order that divides the leading term reduces it, by
    ``submul(work, lt, lead, factor, g)``, which subtracts factor * m * g
    from ``work`` for the monomial m with m * lead = lt and returns the terms
    it created.  The leading term comes off a heap of ``desckey`` values
    (ascending desc keys run from the biggest term down), each computed once
    when its term appears; an entry whose term has left ``work`` since it was
    pushed is stale, because a reduction only brings in smaller terms.
    """
    heap = [(desckey(t), t) for t in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        c = work.get(lt)
        if c is None:
            continue
        pos, e = lt
        for lead, lc_inv, g in basis:
            if lead[0] == pos and all(map(le, lead[1], e)):
                for t in submul(work, lt, lead, R.mul(c, lc_inv), g):
                    heapq.heappush(heap, (desckey(t), t))
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def _prepared(vecs, R, termkey):
    """The (lead, 1/lc, g) triples of the term dicts g of ``vecs``, sorted by
    lead: the basis format of ``_reduce``."""
    out = []
    for g in vecs:
        lead = max(g, key=termkey)
        out.append((lead, R.inv(g[lead]), g))
    out.sort(key=lambda t: termkey(t[0]))
    return out


def _groebner(vectors, R, termkey, desckey, submul, product_criterion, finish=None):
    """Reduced Groebner basis of the span of ``vectors`` (term dicts), as term
    dicts sorted by lead.

    ``termkey`` realises the term order and ``desckey`` its reverse (see
    ``orders``), both on (position, exponents) terms; ``submul`` is the
    algebra's product (see ``_reduce``).  Pairs whose leads are coprime are
    skipped only under ``product_criterion``.

    ``finish``, a predicate on leads, limits the output to the elements of
    the reduced basis whose lead passes it, in the same order; only those are
    tail-reduced.  Every element passes by default.
    """
    one = R.one()
    G, leads, basis = [], [], []
    heap = []

    def admit(vec):
        lead = max(vec, key=termkey)
        lc_inv = R.inv(vec[lead])
        g = {t: R.mul(lc_inv, c) for t, c in vec.items()}
        j = len(G)
        G.append(g)
        leads.append(lead)
        basis.append((lead, one, g))
        pos, lj = lead
        for i in range(j):
            if leads[i][0] == pos:
                lcm = monomial_lcm(leads[i][1], lj)
                heapq.heappush(heap, (sum(lcm), termkey((pos, lcm)), i, j))

    for v in vectors:
        if v:
            admit(v)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        (pos, li), lj = leads[i], leads[j][1]
        lcm = monomial_lcm(li, lj)
        if product_criterion and not any(map(min, li, lj)):
            continue
        # chain criterion (Gebauer and Moeller's B_k): the pair is redundant
        # if a third lead divides its lcm and the lcms of that lead with i
        # and with j are proper divisors of it.  The S-polynomial is then a
        # combination of the S-polynomials of those two pairs, which have a
        # smaller degree, so the normal strategy has treated them already.
        # k = i or j gives the lcm itself.
        if any(
            leads[k][0] == pos
            and all(map(le, leads[k][1], lcm))
            and monomial_lcm(li, leads[k][1]) != lcm
            and monomial_lcm(lj, leads[k][1]) != lcm
            for k in range(len(G))
        ):
            continue
        lt = (pos, lcm)
        s = {}
        submul(s, lt, leads[j], one, basis[j][2])
        submul(s, lt, leads[i], R.neg(one), basis[i][2])
        h = _reduce(s, basis, R, desckey, submul)
        if h:
            admit(h)

    # minimalize: drop elements whose lead is divisible by another lead
    keep = []
    for i in sorted(range(len(G)), key=lambda i: termkey(leads[i])):
        pos, li = leads[i]
        if not any(leads[k][0] == pos and all(map(le, leads[k][1], li)) for k in keep):
            keep.append(i)

    # tail-reduce each finished element against the others: the remainder is
    # the reduced basis element with its lead, which the reduction leaves
    # untouched, so the result stays sorted by lead like ``keep``
    minimal = [basis[i] for i in keep]
    return [
        _reduce(dict(G[i]), minimal[:k] + minimal[k + 1 :], R, desckey, submul)
        for k, i in enumerate(keep)
        if finish is None or finish(leads[i])
    ]


# ---------------------------------------------------------------------------
# the ideal layer: commutative ideals here, Weyl left ideals in ``wgb``
# ---------------------------------------------------------------------------


def _to_vec(f):
    return {(0, e): c for e, c in f.terms.items()}


def _checked_basis(gens, order, finish=None):
    """The reduced basis of the ideal generated by ``gens`` (the left ideal,
    for Weyl operators) in their algebra, as elements like them; zeros are
    dropped, the rest must share one ring over a field, ``order`` must be
    global, and ``finish`` acts on lead exponents as in ``_groebner``."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    first = gens[0]
    for g in gens:
        g._check(first)
    R = first._coeffs
    if not R.is_field:
        raise NotAField(f"Groebner bases need field coefficients, got {R}")
    if not order.is_global:
        raise NonGlobalOrder(f"Groebner bases need a global order, got {order}")
    basis = _groebner(
        [_to_vec(g) for g in gens],
        R,
        lambda t: order.key(t[1]),
        lambda t: order.desc_key(t[1]),
        first._submul(R),
        first._product_criterion,
        None if finish is None else lambda lead: finish(lead[1]),
    )
    return [first._new({e: c for (_, e), c in g.items()}) for g in basis]


def buchberger(gens, order=_GREVLEX):
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    return _checked_basis(gens, order)


class _Ideal:
    """The code ``CIdeal`` and ``wgb.LeftIdeal`` share.

    A subclass is a frozen dataclass with fields ``ring``, ``gens``,
    ``order`` and ``_cache``.  It names the ``_brackets`` of its printed
    basis, and defines ``_zero()``, whose ``_check`` admits the elements of
    its ring; ``_basis()``, which calls the module function for its bases,
    looked up at call time; and ``normal_form``.  The engine reads the
    algebra's product off the elements (``mpoly.TermArithmetic``).
    """

    def __post_init__(self):
        zero = self._zero()
        for g in self.gens:
            zero._check(g)

    def groebner_basis(self):
        if "basis" not in self._cache:
            self._cache["basis"] = tuple(self._basis())
        return self._cache["basis"]

    def _prepared_basis(self):
        if "prep" not in self._cache:
            self._cache["prep"] = _prepared(
                [_to_vec(g) for g in self.groebner_basis()],
                self._zero()._coeffs,
                lambda t: self.order.key(t[1]),
            )
        return self._cache["prep"]

    def _nf(self, f):
        """The normal form of f, an element of the ideal's ring, against the
        reduced basis: no remaining term is divisible by a basis lead."""
        R, order = f._coeffs, self.order
        rem = _reduce(
            _to_vec(f), self._prepared_basis(), R, lambda t: order.desc_key(t[1]), f._submul(R)
        )
        return f._new({e: c for (_, e), c in rem.items()})

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].total_degree() == 0

    def __str__(self):
        inner = ", ".join(str(g) for g in self.groebner_basis()) or "0"
        return f"{self._brackets[0]}{inner}{self._brackets[1]}"


@dataclass(frozen=True)
class CIdeal(_Ideal):
    """A commutative ideal with a lazily computed reduced Groebner basis."""

    ring: PolyRing
    gens: tuple
    order: object = field(default_factory=GrevLex)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    _brackets = "()"

    @classmethod
    def of(cls, gens, order=_GREVLEX, ring=None):
        gens = tuple(gens)
        if ring is None and not gens:
            raise ValueError("empty generator list needs an explicit ring")
        ring = gens[0].ring if ring is None else ring
        return cls(ring, tuple(g for g in gens if not g.is_zero()), order)

    def _zero(self):
        return self.ring.zero()

    def _basis(self):
        return buchberger(list(self.gens), self.order)

    def normal_form(self, f):
        self._zero()._check(f)
        return self._nf(f)


def _reduced_ideal(basis, ring):
    """The grevlex ideal generated by ``basis``, which must already be its
    reduced grevlex basis sorted by lead; that basis is cached as it is."""
    ideal = CIdeal.of(basis, ring=ring)
    ideal._cache["basis"] = ideal.gens
    return ideal


def _fresh_name(names):
    t = "t"
    while t in names:
        t += "t"
    return t


def radical_member(f, ideal):
    """Membership in the radical via the extra-variable trick:
    f lies in rad(I) iff 1 lies in I + (1 - t*f)."""
    if f.is_zero():
        return True
    if ideal.contains(f):
        return True
    ring = ideal.ring
    big = PolyRing(ring.coeffs, ring.names + (_fresh_name(ring.names),))

    def extend(g):
        return MPoly(big, {e + (0,): c for e, c in g.terms.items()})

    one = big.one()
    tf = MPoly(big, {e + (1,): c for e, c in f.terms.items()})
    gens = [extend(g) for g in ideal.gens] + [one - tf]
    # the reduced basis is (1) exactly when it has a constant element
    return bool(_checked_basis(gens, _GREVLEX, lambda e: not any(e)))


def _pth_root(f, p):
    """h with h^p = f when every exponent of f is divisible by p, else None.

    Over F_p, c^p = c, so sum c_e X^(p e) = (sum c_e X^e)^p.  Constants are
    p-th powers of themselves and give None.
    """
    if not any(any(e) for e in f.terms) or any(x % p for e in f.terms for x in e):
        return None
    return MPoly(f.ring, {tuple(x // p for x in e): c for e, c in f.terms.items()})


def frobenius_root(ideal):
    """The ideal with each p-th power of its reduced basis replaced by its
    root, repeated until the reduced basis has no p-th power (coefficients
    in F_p).

    h^p and h have the same zeros, so the radical is unchanged; but all
    derivatives of h^p vanish in characteristic p, so brackets of the
    generators of a non-reduced ideal miss the geometry.  Each step adds a
    root h outside the ideal (else a basis lead would divide lead(h), a
    proper divisor of lead(h^p)), so the ideals rise and the loop ends.  An
    ideal without p-th powers in its reduced basis is returned as it is,
    generators and all.  Coefficients other than F_p raise RingMismatch: over
    a larger field c^p = c fails, and the root would change the radical.
    """
    coeffs = ideal.ring.coeffs
    if not (isinstance(coeffs, Zmod) and coeffs.is_field):
        raise RingMismatch(f"frobenius_root expects coefficients in F_p, got {coeffs}")
    p = coeffs.characteristic
    while True:
        basis = ideal.groebner_basis()
        roots = [_pth_root(g, p) for g in basis]
        if all(h is None for h in roots):
            return ideal
        gens = [g if h is None else h for g, h in zip(basis, roots)]
        ideal = CIdeal.of(gens, ring=ideal.ring)


def krull_dim(ideal):
    """Krull dimension of ring/ideal by ``_lead_dim``; -1 for the unit ideal."""
    basis = ideal.groebner_basis() if ideal.order == _GREVLEX else buchberger(ideal.gens)
    return _lead_dim([g.leading()[0] for g in basis], ideal.ring.nvars)


def _lead_dim(leads, nvars):
    """The largest size of a set S of the ``nvars`` variables with no exponent
    of ``leads`` supported inside S, -1 if one is 0: the Krull dimension,
    over the leads of a degree-compatible basis."""
    supports = [{i for i, e in enumerate(lead) if e} for lead in leads]
    if set() in supports:
        return -1
    for size in range(nvars, -1, -1):
        for S in itertools.combinations(range(nvars), size):
            if not any(sup.issubset(S) for sup in supports):
                return size


# ---------------------------------------------------------------------------
# elimination onto one coordinate of a free module
# ---------------------------------------------------------------------------


def _eliminate_onto(vecs, k, R):
    """The reduced grevlex basis of span(vecs) cap A*e_k, as exponent term
    dicts sorted by lead; ``vecs`` are term dicts keyed (position, exponents)
    over the polynomial ring A with coefficients R, a field.

    One Groebner basis under the order (pos != k, grevlex, -pos): any term
    off position k beats any term on it, and other ties go to grevlex before
    the position, which keeps the intermediate elements of low degree.  An
    element whose lead lies on k is then supported on k alone, and only those
    elements are finished.
    """
    basis = _groebner(
        vecs,
        R,
        lambda t: (t[0] != k, _GREVLEX.key(t[1]), -t[0]),
        lambda t: (t[0] == k, _GREVLEX.desc_key(t[1]), t[0]),
        _shift_submul(R),
        False,
        lambda lead: lead[0] == k,
    )
    return [{e: c for (_, e), c in g.items()} for g in basis]
