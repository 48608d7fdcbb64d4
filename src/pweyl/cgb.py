"""Commutative Groebner machinery over field coefficients.

One engine serves both plain ideals and submodules of a free module: terms
are keyed by (position, exponent tuple), ideals use position 0 everywhere.
Buchberger runs with the normal selection strategy (smallest lcm degree
first); the product and chain criteria are applied in the ideal case, where
they are valid.  Output bases are reduced (monic, mutually tail-reduced,
sorted), hence unique for a given ideal and order.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from operator import add

from .errors import DimensionMismatch, NotAField, RingMismatch
from .mpoly import MPoly, PolyRing
from .orders import (
    BlockElimination,
    GrevLex,
    PositionOverTerm,
    monomial_divides,
    monomial_lcm,
    monomial_sub,
)

_GREVLEX = GrevLex()
_POSITION_OVER_TERM = PositionOverTerm()


# ---------------------------------------------------------------------------
# engine over term dicts keyed by (position, exponents)
# ---------------------------------------------------------------------------


def _vec_sub_scaled(out, vec, factor, shift, R):
    """out -= factor * x^shift * vec, in place."""
    for (pos, e), c in vec.items():
        key = (pos, tuple(a + b for a, b in zip(e, shift)))
        delta = R.mul(factor, c)
        acc = out.get(key)
        val = R.sub(acc, delta) if acc is not None else R.neg(delta)
        if R.is_zero(val):
            out.pop(key, None)
        else:
            out[key] = val


def _normal_form(vec, basis, R, desckey):
    """Fully reduce vec against basis; no remainder term is divisible by a lead.

    The leading term comes off a heap of ``desckey`` values (ascending desc
    keys run from the biggest term down), each computed once when its term
    appears; an entry whose term has left ``work`` since it was pushed is
    stale, because a reduction only brings in smaller terms.
    """
    work = dict(vec)
    heap = [(desckey(t), t) for t in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        lt = heapq.heappop(heap)[1]
        c = work.get(lt)
        if c is None:
            continue
        for lead, lc_inv, g in basis:
            if lead[0] == lt[0] and monomial_divides(lead[1], lt[1]):
                # work -= (c/lc(g)) * x^shift * g
                factor = R.mul(c, lc_inv)
                shift = monomial_sub(lt[1], lead[1])
                for (pos, e), gc in g.items():
                    key = (pos, tuple(map(add, e, shift)))
                    delta = R.mul(factor, gc)
                    acc = work.get(key)
                    if acc is None:
                        work[key] = R.neg(delta)
                        heapq.heappush(heap, (desckey(key), key))
                    else:
                        acc = R.sub(acc, delta)
                        if R.is_zero(acc):
                            del work[key]
                        else:
                            work[key] = acc
                break
        else:
            rem[lt] = work.pop(lt)
    return rem


def _prepared(basis_vecs, termkey, R):
    """Precompute (lead, 1/lc, vec) triples, sorted by lead for determinism."""
    out = []
    for g in basis_vecs:
        lead = max(g, key=termkey)
        out.append((lead, R.inv(g[lead]), g))
    out.sort(key=lambda t: termkey(t[0]))
    return out


def _buchberger_core(vectors, R, termkey, desckey, ring_case):
    """Reduced Groebner basis of the span of ``vectors`` (term dicts).

    ``termkey`` realises the term order, ``desckey`` its reverse (see
    ``orders``); both take a (position, exponents) term.
    """
    G = []
    leads = []
    prep = []

    def admit(vec):
        lead = max(vec, key=termkey)
        lc_inv = R.inv(vec[lead])
        monic = {k: R.mul(lc_inv, c) for k, c in vec.items()}
        G.append(monic)
        leads.append(lead)
        prep.append((lead, R.one(), monic))

    for v in vectors:
        if v:
            admit(dict(v))

    pending = set()
    heap = []

    def push_pairs(j):
        for i in range(j):
            if leads[i][0] != leads[j][0]:
                continue
            lcm = monomial_lcm(leads[i][1], leads[j][1])
            heapq.heappush(heap, (sum(lcm), termkey((leads[i][0], lcm)), i, j))
            pending.add((i, j))

    for j in range(len(G)):
        push_pairs(j)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = monomial_lcm(li[1], lj[1])
        if ring_case:
            # product criterion: coprime leads give a reducible S-pair
            if all(a + b == m for a, b, m in zip(li[1], lj[1], lcm)):
                continue
            # chain criterion
            skip = False
            for k in range(len(G)):
                if k in (i, j) or leads[k][0] != li[0]:
                    continue
                if monomial_divides(leads[k][1], lcm):
                    pik = (min(i, k), max(i, k))
                    pjk = (min(j, k), max(j, k))
                    if pik not in pending and pjk not in pending:
                        skip = True
                        break
            if skip:
                continue
        s = {}
        _vec_sub_scaled(s, G[j], R.neg(R.one()), monomial_sub(lcm, lj[1]), R)
        _vec_sub_scaled(s, G[i], R.one(), monomial_sub(lcm, li[1]), R)
        h = _normal_form(s, prep, R, desckey)
        if h:
            admit(h)
            push_pairs(len(G) - 1)

    # minimalize: drop elements whose lead is divisible by another lead
    order_idx = sorted(range(len(G)), key=lambda i: termkey(leads[i]))
    keep = []
    for i in order_idx:
        li = leads[i]
        if any(
            leads[k][0] == li[0] and monomial_divides(leads[k][1], li[1])
            for k in keep
        ):
            continue
        keep.append(i)

    # tail-reduce each against the others; leads are untouched by construction,
    # so the result stays sorted by lead like ``keep``
    minimal = [prep[i] for i in keep]
    return [
        _normal_form(g, minimal[:k] + minimal[k + 1 :], R, desckey)
        for k, (_, _, g) in enumerate(minimal)
    ]


# ---------------------------------------------------------------------------
# polynomial-level API
# ---------------------------------------------------------------------------


def _require_field(ring):
    if not ring.coeffs.is_field:
        raise NotAField(f"Groebner bases need field coefficients, got {ring.coeffs}")


def _to_vec(f):
    return {(0, e): c for e, c in f.terms.items()}


def _from_vec(ring, vec):
    return MPoly(ring, {e: c for (_, e), c in vec.items()})


def buchberger(gens, order=_GREVLEX):
    """Reduced Groebner basis of the ideal generated by ``gens``."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        g._check(gens[0])
    _require_field(ring)
    termkey = lambda t: order.key(t[1])
    desckey = lambda t: order.desc_key(t[1])
    basis = _buchberger_core(
        [_to_vec(g) for g in gens], ring.coeffs, termkey, desckey, True
    )
    return [_from_vec(ring, g) for g in basis]


@dataclass(frozen=True)
class CIdeal:
    """A commutative ideal with a lazily computed reduced Groebner basis."""

    ring: PolyRing
    gens: tuple
    order: object = field(default_factory=GrevLex)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, gens, order=_GREVLEX, ring=None):
        gens = tuple(gens)
        if ring is None:
            if not gens:
                raise ValueError("empty generator list needs an explicit ring")
            ring = gens[0].ring
        return cls(ring, tuple(g for g in gens if not g.is_zero()), order)

    def groebner_basis(self):
        if "basis" not in self._cache:
            self._cache["basis"] = tuple(buchberger(list(self.gens), self.order))
        return self._cache["basis"]

    def _prepared_basis(self):
        if "prep" not in self._cache:
            self._cache["prep"] = _prepared(
                [_to_vec(g) for g in self.groebner_basis()],
                lambda t: self.order.key(t[1]),
                self.ring.coeffs,
            )
        return self._cache["prep"]

    def normal_form(self, f):
        if f.ring != self.ring:
            raise RingMismatch("polynomial from a different ring")
        vec = _normal_form(
            _to_vec(f),
            self._prepared_basis(),
            self.ring.coeffs,
            lambda t: self.order.desc_key(t[1]),
        )
        return _from_vec(self.ring, vec)

    def contains(self, f):
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self):
        basis = self.groebner_basis()
        return len(basis) == 1 and basis[0].is_constant() and not basis[0].is_zero()

    def is_zero_ideal(self):
        return not self.groebner_basis()

    def radical_contains(self, f):
        return radical_member(f, self)

    def dim(self):
        return krull_dim(self)

    def __str__(self):
        inner = ", ".join(str(g) for g in self.groebner_basis())
        return f"({inner})" if inner else "(0)"


def normal_form(f, ideal):
    return ideal.normal_form(f)


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
    nv = ring.nvars
    big = PolyRing(ring.coeffs, ring.names + (_fresh_name(ring.names),))

    def extend(g):
        return MPoly(big, {e + (0,): c for e, c in g.terms.items()})

    one = big.one()
    tf = MPoly(big, {e + (1,): c for e, c in f.terms.items()})
    gens = [extend(g) for g in ideal.gens] + [one - tf]
    basis = buchberger(gens, BlockElimination(nv))
    return len(basis) == 1 and basis[0].is_constant()


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
    generators and all.
    """
    p = ideal.ring.coeffs.characteristic
    while True:
        basis = ideal.groebner_basis()
        roots = [_pth_root(g, p) for g in basis]
        if all(h is None for h in roots):
            return ideal
        gens = [g if h is None else h for g, h in zip(basis, roots)]
        ideal = CIdeal.of(gens, ring=ideal.ring)


def krull_dim(ideal):
    """Krull dimension of ring/ideal: the largest variable subset S such that
    no leading monomial of a grevlex basis is supported inside S.  Returns -1
    for the unit ideal."""
    if ideal.order == _GREVLEX:
        basis = ideal.groebner_basis()
    else:
        basis = buchberger(list(ideal.gens), _GREVLEX)
    if any(g.is_constant() and not g.is_zero() for g in basis):
        return -1
    nv = ideal.ring.nvars
    supports = [frozenset(i for i, e in enumerate(g.leading()[0]) if e) for g in basis]
    for size in range(nv, -1, -1):
        for S in itertools.combinations(range(nv), size):
            sset = set(S)
            if not any(sup <= sset for sup in supports):
                return size
    return 0


# ---------------------------------------------------------------------------
# free modules and the colon
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FreeSubmodule:
    """A submodule of ring^rank given by column generators, with a module GB cache."""

    ring: PolyRing
    rank: int
    columns: tuple
    order: object = field(default_factory=PositionOverTerm)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, columns, rank=None, ring=None, order=None):
        columns = tuple(tuple(col) for col in columns)
        if rank is None:
            if not columns:
                raise ValueError("empty column list needs an explicit rank")
            rank = len(columns[0])
        for col in columns:
            if len(col) != rank:
                raise DimensionMismatch("column length differs from module rank")
        if ring is None:
            ring = columns[0][0].ring
        return cls(ring, rank, columns, order or PositionOverTerm())

    def _vec(self, col):
        out = {}
        for pos, poly in enumerate(col):
            for e, c in poly.terms.items():
                out[(pos, e)] = c
        return out

    def _unvec(self, vec):
        cols = [{} for _ in range(self.rank)]
        for (pos, e), c in vec.items():
            cols[pos][e] = c
        return tuple(MPoly(self.ring, t) for t in cols)

    def groebner_basis(self):
        if "basis" not in self._cache:
            _require_field(self.ring)
            termkey = lambda t: self.order.key(t[0], t[1])
            desckey = lambda t: self.order.desc_key(t[0], t[1])
            vecs = [self._vec(col) for col in self.columns]
            basis = _buchberger_core(vecs, self.ring.coeffs, termkey, desckey, False)
            self._cache["basis"] = tuple(self._unvec(v) for v in basis)
            self._cache["vecs"] = tuple(basis)
        return self._cache["basis"]

    def normal_form(self, col):
        if len(col) != self.rank:
            raise DimensionMismatch("vector length differs from module rank")
        self.groebner_basis()
        termkey = lambda t: self.order.key(t[0], t[1])
        desckey = lambda t: self.order.desc_key(t[0], t[1])
        prep = _prepared(list(self._cache["vecs"]), termkey, self.ring.coeffs)
        vec = _normal_form(self._vec(tuple(col)), prep, self.ring.coeffs, desckey)
        return self._unvec(vec)

    def contains(self, col):
        return all(p.is_zero() for p in self.normal_form(col))


def module_colon(submodule, v):
    """The ideal (N : v) = {z : z*v in N}, by elimination of one tagged coordinate.

    One module Groebner basis of the columns (col_j, 0) and of (v, 1) in
    R^(rank+1), under a position-over-term order where the tag coordinate
    comes last: the basis elements supported on the tag alone are (0, z) with
    z*v in N, and their z form the reduced grevlex basis of the colon.
    """
    v = tuple(v)
    rank = submodule.rank
    if len(v) != rank:
        raise DimensionMismatch("vector length differs from module rank")
    ring = submodule.ring
    _require_field(ring)
    tag = submodule._vec(v)
    tag[(rank, (0,) * ring.nvars)] = ring.coeffs.one()
    vecs = [submodule._vec(col) for col in submodule.columns] + [tag]
    termkey = lambda t: _POSITION_OVER_TERM.key(t[0], t[1])
    desckey = lambda t: _POSITION_OVER_TERM.desc_key(t[0], t[1])
    basis = _buchberger_core(vecs, ring.coeffs, termkey, desckey, False)
    gens = [
        MPoly(ring, {e: c for (_, e), c in g.items()})
        for g in basis
        if all(pos == rank for pos, _ in g)
    ]
    ideal = CIdeal.of(gens, ring=ring)
    ideal.groebner_basis()
    return ideal
