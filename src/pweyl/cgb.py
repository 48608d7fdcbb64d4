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
Weispfenning, J. Symb. Comp. 1990), so it is applied to all of them, once,
when an element is admitted (Gebauer and Moeller's update): the new lead
drops the pending pairs it makes redundant, pairs only with the elements at
its position that still form pairs, keeps one new pair for each lcm that no
other new pair's lcm properly divides (none with coprime leads, under the
product criterion), and retires from pair-forming the elements whose lead it
divides.  Pending pairs and pair-forming elements are kept per position, so
an admission scans its own position only.  Buchberger runs with the normal
selection strategy (smallest lcm degree first).  The reducer pops terms from
the top down, so a remainder's first key is its lead, and an admitted
S-polynomial's lead is read there.  Output bases are reduced (monic,
mutually tail-reduced, sorted by lead), hence unique for a given ideal and
order.  A private caller that reads only some of the basis passes a
predicate on leads, and only the elements it selects are tail-reduced and
returned (``_groebner``): ``_eliminate_onto`` keeps the elements whose lead
lies on the eliminated coordinate, and ``radical_member`` a constant lead.

A basis has one form below the public API: a dict from each position to its
monic (lead, g) pairs, g a term dict, so a reduction reads only the leads at
its term's position.  ``_reduce`` reads it, ``_groebner`` grows its basis in
it (admission order within a position) and reduces the tails of the finished
elements against it (lead order), and ``_Ideal._pairs`` reads an ideal's
cached reduced basis in it, at position 0, as it is.  ``_Ideal`` is the one
ideal layer of ``CIdeal`` and ``wgb.LeftIdeal``, both grevlex, and
``_checked_basis`` the one checked entry behind ``buchberger`` (grevlex) and
``wgb.left_groebner`` (a field, a global order).

Radical membership reads the leads first.  f lies in rad(I) iff its normal
form r does, and r^k in I gives lead(r)^k in LT(I), as grevlex is
multiplicative and the polynomial ring a domain, so some lead of the
reduced basis divides lead(r)^k and has its support inside that of lead(r)
(LT(rad I) lies in rad(LT I); Cox, Little and O'Shea, Ideals, Varieties,
and Algorithms).  When no lead does, r is no member, and no engine runs;
only the other cases run the extra-variable trick, on r.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from operator import le

from .errors import NonGlobalOrder, NotAField, RingMismatch
from .mpoly import MPoly, PolyRing, _shift_submul
from .orders import GREVLEX, monomial_lcm
from .rings import Zmod


# ---------------------------------------------------------------------------
# engine over term dicts keyed by (position, exponents)
# ---------------------------------------------------------------------------


def _reduce(work, basis, desckey, submul):
    """Fully reduce the term dict ``work`` against ``basis`` and return the
    remainder, in which no term is divisible by a basis lead; ``work`` is
    emptied on the way.

    ``basis`` maps each position to its (lead, g) pairs, g a monic term dict
    (g[lead] is one), so no coefficient is inverted here; only the list at
    the leading term's position is read, and its first lead that divides
    the leading term c * lt reduces it, by
    ``submul(work, lt, lead, c, g)``, which subtracts c * m * g from
    ``work`` for the monomial m with m * lead = lt and returns the terms it
    created.  The leading term comes off a heap of
    ``desckey`` values (ascending desc keys run from the biggest term down),
    each computed once when its term appears; an entry whose term has left
    ``work`` since it was pushed is stale, because a reduction only brings in
    smaller terms.  Terms leave in descending order, so the remainder's
    first key is its lead.
    """
    heap = [(desckey(t), t) for t in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        c = work.get(lt)
        if c is None:
            continue
        e = lt[1]
        for lead, g in basis.get(lt[0], ()):
            if all(map(le, lead[1], e)):
                for t in submul(work, lt, lead, c, g):
                    heapq.heappush(heap, (desckey(t), t))
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def _groebner(vectors, R, termkey, desckey, submul, product_criterion, finish=None):
    """Reduced Groebner basis of the span of ``vectors`` (term dicts), as
    monic term dicts sorted by lead.

    ``termkey`` realises the term order and ``desckey`` its reverse (see
    ``orders``), both on (position, exponents) terms; ``submul`` is the
    algebra's product (see ``_reduce``).  The basis grows as the ``_reduce``
    pairs of its monic elements, listed per position in admission order,
    and the pair criteria are applied once, as each element is admitted
    (``admit``); pairs whose leads are coprime are dropped only under
    ``product_criterion``.  The lead of an input vector is its largest term,
    and that of a reduced S-polynomial its remainder's first key.

    The finished basis is minimalized per position, and each element's tail
    is reduced against the minimal lists of every position: a lead divides
    no term below it, so an element's own lead stays in its list.
    ``finish``, a predicate on leads, limits the output to the elements of
    the reduced basis whose lead passes it, in the same order; only those are
    tail-reduced.  Every element passes by default.
    """
    one = R.one()
    basis, leads, heap = [], [], []  # leads[i] is the exponent of basis[i]'s lead
    reducers = {}  # position -> the (lead, g) pairs there, in admission order
    active = {}  # position -> indices of the elements that still form pairs
    live = {}  # position -> {(i, j): lcm} of the pairs not yet discarded

    def admit(lead, vec):
        # Gebauer and Moeller's update (J. Symb. Comp. 6, 1988).  A pair is
        # redundant when a third lead divides its lcm and the lcms of that
        # lead with each of the pair's are proper divisors of it: its
        # S-polynomial is then a combination of theirs (the chain criterion).
        # First B_k: the new lead k drops the live pairs at its position
        # that it is such a third lead for.  Then the new pairs (i, k): one
        # is dropped when the lcm of another divides its own, properly (M)
        # or equally (F).  Taken by degree, coprime ones first, each is
        # tested against the lcms kept so far; coprime ones are dropped after
        # M and F, under the product criterion only.  An element whose lead
        # k divides forms no more pairs, though it still reduces.
        lc = vec[lead]
        if lc != one:
            lc_inv = R.inv(lc)
            vec = {t: R.mul(lc_inv, c) for t, c in vec.items()}
        k = len(basis)
        basis.append((lead, vec))
        pos, lk = lead
        leads.append(lk)
        olds = active.get(pos)
        if olds is None:
            reducers[pos], active[pos], live[pos] = [(lead, vec)], [k], {}
            return
        reducers[pos].append((lead, vec))
        pairs = live[pos]
        for ij in [
            (i, j)
            for (i, j), lcm in pairs.items()
            if all(map(le, lk, lcm))
            and monomial_lcm(leads[i], lk) != lcm
            and monomial_lcm(leads[j], lk) != lcm
        ]:
            del pairs[ij]
        new = []
        for i in olds:
            lcm = monomial_lcm(leads[i], lk)
            coprime = product_criterion and not any(map(min, leads[i], lk))
            new.append((sum(lcm), not coprime, lcm, i))
        kept = []
        for degree, not_coprime, lcm, i in sorted(new):
            if not any(all(map(le, other, lcm)) for other in kept):
                kept.append(lcm)
                if not_coprime:
                    pairs[i, k] = lcm
                    heapq.heappush(heap, (degree, termkey((pos, lcm)), i, k))
        active[pos] = [i for i in olds if not all(map(le, lk, leads[i]))] + [k]

    for v in vectors:
        if v:
            admit(max(v, key=termkey), v)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        (lead_i, g_i), (lead_j, g_j) = basis[i], basis[j]
        lcm = live[lead_i[0]].pop((i, j), None)
        if lcm is None:  # dropped by B_k after it was queued
            continue
        lt = (lead_i[0], lcm)
        s = {}
        submul(s, lt, lead_j, one, g_j)
        submul(s, lt, lead_i, R.neg(one), g_i)
        h = _reduce(s, reducers, desckey, submul)
        if h:
            admit(next(iter(h)), h)

    # minimalize per position: drop elements whose lead is divisible by
    # another lead there; ``minimal`` keeps the survivors sorted by lead
    minimal, reducers = [], {}
    for lead, g in sorted(basis, key=lambda pair: termkey(pair[0])):
        same = reducers.setdefault(lead[0], [])
        if not any(all(map(le, lk, lead[1])) for (_, lk), _ in same):
            same.append((lead, g))
            minimal.append((lead, g))

    # tail-reduce each finished element: the lead, then the remainder of its
    # tail, is the reduced basis element, so the result stays sorted by lead
    out = []
    for lead, g in minimal:
        if finish is None or finish(lead):
            tail = dict(g)
            h = {lead: tail.pop(lead)}
            h.update(_reduce(tail, reducers, desckey, submul))
            out.append(h)
    return out


# ---------------------------------------------------------------------------
# the ideal layer: commutative ideals here, Weyl left ideals in ``wgb``
# ---------------------------------------------------------------------------


def _to_vec(f):
    return {(0, e): c for e, c in f.terms.items()}


def _checked_basis(gens, order):
    """The reduced basis of the ideal generated by ``gens`` (the left ideal,
    for Weyl operators) in their algebra, as elements like them, monic and
    sorted by lead; zeros are dropped, the rest must share one ring over a
    field, and ``order`` must be global."""
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
    )
    return [first._new({e: c for (_, e), c in g.items()}) for g in basis]


def buchberger(gens):
    """Reduced grevlex Groebner basis of the ideal generated by ``gens``."""
    return _checked_basis(gens, GREVLEX)


class _Ideal:
    """The code ``CIdeal`` and ``wgb.LeftIdeal`` share.

    A subclass is a frozen dataclass with fields ``ring``, ``gens`` and
    ``_cache``, and its order is grevlex.  It names the ``_brackets`` of its
    printed basis, and defines ``_zero()``, whose ``_check`` admits the
    elements of its ring; ``_basis()``, which calls the module function for
    its bases, looked up at call time; and ``normal_form``.  The engine
    reads the algebra's product off the elements (``mpoly.TermArithmetic``),
    and reads the cached basis in its own per-position form (``_pairs``).
    """

    def __post_init__(self):
        zero = self._zero()
        for g in self.gens:
            zero._check(g)

    def groebner_basis(self):
        if "basis" not in self._cache:
            self._cache["basis"] = tuple(self._basis())
        return self._cache["basis"]

    def _pairs(self):
        """The cached reduced basis in the form of ``_reduce``: its (lead, g)
        pairs at position 0, and no position for the zero ideal.  The basis
        is monic and sorted by lead already, so each element is read as it
        is."""
        if "pairs" not in self._cache:
            pairs = [((0, g.leading()[0]), _to_vec(g)) for g in self.groebner_basis()]
            self._cache["pairs"] = {0: pairs} if pairs else {}
        return self._cache["pairs"]

    def _leads(self):
        """The exponents of the reduced basis's leads, in lead order."""
        return [lead for (_, lead), _ in self._pairs().get(0, ())]

    def _nf(self, f):
        """The normal form of f, an element of the ideal's ring, against the
        reduced basis: no remaining term is divisible by a basis lead."""
        desckey = lambda t: GREVLEX.desc_key(t[1])
        rem = _reduce(_to_vec(f), self._pairs(), desckey, f._submul(f._coeffs))
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
    """A commutative ideal with a lazily computed reduced grevlex basis."""

    ring: PolyRing
    gens: tuple
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    _brackets = "()"

    @classmethod
    def of(cls, gens, *, ring=None):
        gens = tuple(gens)
        if ring is None and not gens:
            raise ValueError("empty generator list needs an explicit ring")
        ring = gens[0].ring if ring is None else ring
        return cls(ring, tuple(g for g in gens if not g.is_zero()))

    def _zero(self):
        return self.ring.zero()

    def _basis(self):
        return buchberger(list(self.gens))

    def normal_form(self, f):
        self._zero()._check(f)
        return self._nf(f)


def _reduced_ideal(basis, ring):
    """The ideal generated by ``basis``, which must already be its
    reduced grevlex basis sorted by lead; that basis is cached as it is."""
    ideal = CIdeal.of(basis, ring=ring)
    ideal._cache["basis"] = ideal.gens
    return ideal


def radical_member(f, ideal):
    """Membership in the radical, decided on r = nf(f), which lies in rad(I)
    iff f does: True when r = 0, and False, with no engine run, when no lead
    of the ideal's cached reduced basis has its support inside that of
    lead(r) (the lead certificate).  That is exact: grevlex is
    multiplicative and the polynomial ring a domain, so r^k in I gives
    lead(r)^k in LT(I), and some basis lead divides lead(r)^k, whose support
    is that of lead(r).  Any other r goes to the extra-variable trick:
    r lies in rad(I) iff 1 lies in I + (1 - t*r), decided by the engine under
    grevlex with t in one extra exponent slot (no ring is built), fed the
    ideal's cached basis and 1 - t*r, and finishing only a constant lead."""
    r = ideal.normal_form(f)
    if r.is_zero():
        return True
    R = r._coeffs
    if not R.is_field:
        raise NotAField(f"Groebner bases need field coefficients, got {R}")
    # the slots outside the support of lead(r): a lead positive at one of
    # them has its support outside that of lead(r)
    outside = [i for i, x in enumerate(r.leading()[0]) if not x]
    if all(any(m[i] for i in outside) for m in ideal._leads()):
        return False
    one_tf = {(0, e + (1,)): R.neg(c) for e, c in r.terms.items()}
    one_tf[(0, (0,) * (ideal.ring.nvars + 1))] = R.one()
    vecs = [{(0, e + (0,)): c for e, c in g.terms.items()} for g in ideal.groebner_basis()]
    # the reduced basis is (1) exactly when it has a constant element
    constants = _groebner(
        vecs + [one_tf],
        R,
        lambda t: GREVLEX.key(t[1]),
        lambda t: GREVLEX.desc_key(t[1]),
        r._submul(R),
        r._product_criterion,
        lambda lead: not any(lead[1]),
    )
    return bool(constants)


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
    """Krull dimension of ring/ideal by ``_lead_dim`` on the ideal's grevlex
    leads (``_Ideal._leads``); -1 for the unit ideal."""
    return _lead_dim(ideal._leads(), ideal.ring.nvars)


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
        lambda t: (t[0] != k, GREVLEX.key(t[1]), -t[0]),
        lambda t: (t[0] == k, GREVLEX.desc_key(t[1]), t[0]),
        _shift_submul(R),
        False,
        lambda lead: lead[0] == k,
    )
    return [{e: c for (_, e), c in g.items()} for g in basis]
