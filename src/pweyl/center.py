"""The center of A_n(F_p) and central annihilators of cyclic modules.

Over F_p the elements x_i^p and d_i^p are central and generate a polynomial
ring; we bookkeep it with fresh variable names X_i <-> x_i^p and Xi_i <->
d_i^p.  D is Azumaya over this center (Bezrukavnikov-Mirkovic-Rumynin), and
the pipeline reads it through two modules of rank p^n: D is free over
A = F_p[x, Xi] on the d^r (the exact route below), and its fibre over each
point of the center acts on the simple module with basis the x^s
(``_simple_module_rows``, read by ``psupport.generic_rank``).  Both come
from one split of an operator's exponents by residues mod p,
``_split_residues``, at the d slots for the first and at the x slots for
the second; the exact route splits again at one x slot at a time to reach
the center, and ``poisson.deformation_bracket`` splits at all 2n slots to
read the coordinate of 1 over the center.  An exponent p*q + r at a split
slot leaves r in the residue monomial and q in the coordinate.

The central annihilator of D/I is I itself, intersected with the center.
Each route reads its twist off the ideal's own algebra A_n(F_p)
(``_twist_of``).  Two routes are provided:

* exact: the x_i and d_i^p commute, so D is a free module of rank p^n over
  the polynomial ring A = F_p[x, Xi] on the d^r, 0 <= r_i < p.  Present I
  as the submodule of A^(p^n) spanned by d^r * (basis generator), split by
  the d-exponents alone, and eliminate onto the coordinate of d^0, which
  gives I cap A.  A is free of rank p on the x_1^s over the ring with x_1
  replaced by X_1, and so on, so the same split and elimination, at one x
  slot at a time, contract I cap A to the center.  Each elimination
  finishes only the basis elements it keeps.  Certified;
  ``central_annihilator`` routes inputs with p^(2n) above a size guard away
  from it.
* truncated: for rising degree d, the ideal J_d of the central
  polynomials of degree <= d that the ideal's normal form kills, by linear
  algebra, up to a plateau certified in dimension.

J_d lies in I cap Z, so krull_dim(J_d) >= s, the dimension of V(I cap Z).
D/I has GK dimension d(gr_B(D/I)) for the Bernstein filtration (McConnell-
Robson 8.6), the dimension of the grevlex leads of its reduced left basis,
and that is s as D is module-finite over Z (Krause-Lenagan 5.5).  The first
plateau J_d = J_(d-1) with krull_dim(J_d) <= s stops the ladder; a zero
plateau counts only for I = 0.  That certifies the dimension, not the ideal,
except for a principal I = Dg, told by a one-element reduced left basis.
Then D/I is the cokernel of right multiplication by g, an injective Z-linear
map G of D, free of rank p^(2n) over the UFD Z.  A central z kills it iff
z * adj(G) / det(G) is integral, so I cap Z = (h) is principal, and every
element of it of degree <= deg h is a scalar multiple of h.  The first rung
with a nonzero kernel has exactly h, and the ladder stops there with
J_d = I cap Z: at rung 1 for the unit ideal, and by the top degree always,
since the reduced norm of g lies in I cap Z.
The plateau test reduces only the kernel vectors new at rung d modulo
J_(d-1), which lies in J_d; only a rung that grows the ideal runs Buchberger.

The truncated ladder does each reduction once, and keeps one state on the
ideal for every later degree: the normal form of each column's monomial,
one ``linalg.Echelon`` (the sparse elimination behind ``linalg.rank`` too)
and the kernel found so far (``truncated_kernel``).  It normalises a
central monomial X^e at most once, and adds each normal form once, as a
column carrying the combination {X^e: 1}, so that a vanishing column's
combination is its kernel vector.  The monomials of degree <= d come first
in (degree, grevlex) order, so the kernel at degree d + 1 extends the one
at d and no degree is eliminated from scratch.  The normal form of X^e
comes from that of a predecessor X^(e - u_k), for any slot k with e_k > 0,
by a Frobenius shift (``_central_normal_form``):

    nf(X^e) = nf(shift_k(nf(X^(e - u_k)))),

where shift_k adds p to Weyl exponent slot k.  This is exact because
z = x_k^p or d_k^p is central, so left multiplication by z only shifts the
exponents of a normal-ordered operator, and z * (m - nf(m)) lies in the
left ideal with m - nf(m).  The normal form against the reduced left basis
is unique, so every predecessor gives the same nf(X^e); the ladder takes
the one whose shift leaves the fewest terms on a basis lead, the last slot
on a tie.  No basis lead divides a term of nf(X^(e - u_k)), so after the
shift only a lead positive at slot k can divide one, and a shift with no
term on a lead is a normal form already: it is kept without a reduction.
Only nf(1) is normalised directly.

The ladder never normalises a monomial X^e that the lead X^m of an earlier
kernel vector u divides.  X^(e - m) * u lies in I cap Z with lead X^e and
every other term on an earlier column, so X^e is a free column, never a
pivot, and skipping it changes no later column's reduction.  Its kernel
vector is not kept either: it is a monomial multiple of u modulo smaller
leads, so the ideal and its reduced basis are unchanged, and by the same
expansion and the Leibniz rule so is the coisotropy witness, the first
generator pair whose bracket leaves the radical.  The predecessor of a
kept monomial divides it, so it is kept too and its normal form is
cached.  The kernel vectors the ladder returns are thus exactly those
whose lead no earlier kernel vector's lead divides.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product

from .cgb import CIdeal, _eliminate_onto, _lead_dim, _reduced_ideal, krull_dim
from .errors import RingMismatch
from .linalg import Echelon, rank as matrix_rank
from .mpoly import MPoly, PolyRing
from .orders import GREVLEX, monomial_divides
from .rings import Zmod, is_prime
from .weyl import WeylOp, _weyl_submul, is_central

EXACT_GUARD = 64


def twisted_names(n):
    return tuple(f"X{i + 1}" for i in range(n)) + tuple(f"Xi{i + 1}" for i in range(n))


def _split_residues(terms, p, slots):
    """The term dict ``terms`` split by the residues mod p of its exponents
    at ``slots``: each residue tuple r maps to the terms whose exponents
    there are p * q + r, keyed with q in their place and every other
    exponent kept.  The one place that splits exponents by residue."""
    out = {}
    for key, c in terms.items():
        e, r = list(key), []
        for i in slots:
            e[i], ri = divmod(key[i], p)
            r.append(ri)
        out.setdefault(tuple(r), {})[tuple(e)] = c
    return out


@lru_cache(maxsize=None)
def _check_centrality(p, n):
    """Raise AssertionError unless every x_i^p and d_i^p of A_n(F_p) is
    central.  A raising call caches nothing, so a failure repeats."""
    F = Zmod(p)
    for i in range(n):
        for gen in (WeylOp.x(F, n, i), WeylOp.d(F, n, i)):
            if not is_central(gen**p).is_central:
                raise AssertionError(f"p-th power {gen}^{p} is not central; broken arithmetic")


@dataclass(frozen=True)
class FrobeniusTwist:
    """Bookkeeping for the center of A_n(F_p) in twisted coordinates.

    Centrality of the p-th powers is verified on the first construction for
    each (p, n); the twisted polynomial ring carries names X1..Xn, Xi1..Xin
    over F_p.
    """

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        _check_centrality(self.p, self.n)

    @property
    def weyl_ring(self):
        return Zmod(self.p)

    @cached_property
    def twisted_ring(self):
        return PolyRing(Zmod(self.p), twisted_names(self.n))

    def embed(self, poly):
        """A twisted polynomial as the corresponding central operator, with
        X_i -> x_i^p and Xi_i -> d_i^p; ``poisson.deformation_bracket``
        lifts it to Z/p^2 by its coefficients' representatives in [0, p)."""
        if poly.ring != self.twisted_ring:
            raise RingMismatch("polynomial is not in the twisted ring")
        terms = {
            tuple(self.p * e for e in key): c for key, c in poly.terms.items()
        }
        return WeylOp(self.weyl_ring, self.n, terms)


@dataclass(frozen=True)
class AnnihilatorResult:
    ideal: CIdeal
    status: str


@lru_cache(maxsize=None)
def _twist_of(coeffs, n):
    """The twist of A_n(coeffs), whose construction checks centrality before
    any product; coefficients other than F_p raise RingMismatch."""
    if not (isinstance(coeffs, Zmod) and coeffs.is_field):
        raise RingMismatch(f"the centre needs coefficients in F_p, got {coeffs}")
    return FrobeniusTwist(coeffs.modulus, n)


def _eliminate_residues(elements, p, slots, F):
    """The reduced grevlex basis of span(elements) cap B, for term dicts
    ``elements`` over a ring free over B on the monomials with exponents
    below p at ``slots``: each element split by its residues there
    (``_split_residues``), eliminated onto residue 0 (``cgb._eliminate_onto``).
    """
    residues = list(product(range(p), repeat=len(slots)))
    index = {r: i for i, r in enumerate(residues)}
    vecs = []
    for terms in elements:
        parts = _split_residues(terms, p, slots)
        vecs.append({(index[r], e): c for r, part in parts.items() for e, c in part.items()})
    return _eliminate_onto(vecs, 0, F)


def central_annihilator_exact(ideal):
    """I intersect Z by elimination over A = F_p[x, Xi]; certified generators.

    The x_i and Xi_i = d_i^p commute, and D is the free A-module on the
    d^r, 0 <= r_i < p; x^a d^b is x^a Xi^(b // p) at position b mod p.  The
    left ideal I is the A-submodule spanned by d^r * g over the residues r
    and the reduced left basis g, so I cap A is its intersection with the
    coordinate of d^0: one residue elimination (``_eliminate_residues``) at
    the d slots.  Each d^r * g is built as a term dict by the Weyl product
    in the engine's form (``weyl._weyl_submul``) from g's engine pairs
    (``_Ideal._pairs``), with no operator built.  A is in turn free of rank
    p over F_p[X_1, x_2, .., x_n, Xi] on the x_1^s, 0 <= s < p, and so on,
    so the contraction to
    Z = F_p[X, Xi] is one residue elimination per variable, at slot i, of
    the x_i^s * f over the basis f of the step before.  Each elimination
    finishes only the elements on residue 0, and the last one gives the
    reduced grevlex basis of I cap Z, which is also ``gens``.
    """
    twist = _twist_of(ideal.ring, ideal.n)
    p, n, F = twist.p, twist.n, twist.weyl_ring
    # submul subtracts factor * d^r * g; from an empty dict with factor -1
    # it leaves d^r * g, as in TermArithmetic.__mul__
    submul, minus_one, lead_one = _weyl_submul(F), F.neg(F.one()), (0, (0,) * (2 * n))
    products = []
    for _, g in ideal._pairs().get(0, ()):
        for r in product(range(p), repeat=n):
            work = {}
            submul(work, (0, (0,) * n + r), lead_one, minus_one, g)
            products.append({e: c for (_, e), c in work.items()})
    basis = _eliminate_residues(products, p, range(n, 2 * n), F)
    for i in range(n):
        products = [
            {e[:i] + (e[i] + s,) + e[i + 1 :]: c for e, c in f.items()}
            for f in basis
            for s in range(p)
        ]
        basis = _eliminate_residues(products, p, (i,), F)
    ring = twist.twisted_ring
    return AnnihilatorResult(_reduced_ideal([MPoly(ring, f) for f in basis], ring), "exact")


def _times_x(terms, i, n, F):
    """The operator with the term dict ``terms`` times x_i on the right, by
    (x^a d^b) * x_i = x^(a + e_i) d^b + b_i * x^a d^(b - e_i)."""
    out = {}
    for key, c in terms.items():
        up = key[:i] + (key[i] + 1,) + key[i + 1 :]
        out[up] = F.add(out[up], c) if up in out else c
        b = F.from_int(key[n + i])
        if not F.is_zero(b):
            down = key[: n + i] + (key[n + i] - 1,) + key[n + i + 1 :]
            v = F.mul(c, b)
            out[down] = F.add(out[down], v) if down in out else v
    return {e: c for e, c in out.items() if not F.is_zero(c)}


def _simple_module_rows(ideal):
    """The reduced left basis acting on V = D / D(x^p - X, d - beta), its
    matrices stacked by rows, as sparse entry lists (column, terms) in
    (X, beta), the columns ascending.

    V has the basis x^s, 0 <= s_i < p, and x^a d^b sends 1 to
    beta^b * X^(a // p) * x^(a mod p); column s of g is g * x^s applied to 1.
    The residues s come with the last slot fastest, so g * x^(s - e_i), i
    the last nonzero slot of s, comes before g * x^s, which is one right
    multiplication by x_i of it (``_times_x``).
    """
    twist = _twist_of(ideal.ring, ideal.n)
    p, n, F = twist.p, twist.n, twist.weyl_ring
    residues = list(product(range(p), repeat=n))
    index = {r: i for i, r in enumerate(residues)}
    rows = []
    for g in ideal.groebner_basis():
        cells = [{} for _ in residues]  # row -> column -> terms
        products = []  # g * x^s, by column
        for col, s in enumerate(residues):
            if any(s):
                i = max(j for j in range(n) if s[j])
                # s - e_i is p^(n - 1 - i) columns back
                products.append(_times_x(products[col - p ** (n - 1 - i)], i, n, F))
            else:
                products.append(g.terms)
            for r, terms in _split_residues(products[col], p, range(n)).items():
                cells[index[r]][col] = terms
        rows.extend(list(row.items()) for row in cells)
    return rows


def _pth_root(K, a):
    """The p-th root of a in the finite field K, a^(|K| / p), Frobenius
    being bijective on K; by square-and-multiply."""
    e, out = K.size // K.characteristic, None
    while True:
        if e & 1:
            out = a if out is None else K.mul(out, a)
        e >>= 1
        if not e:
            return out
        a = K.mul(a, a)


def _fiber_dim(module_rows, twist, K, pt):
    """p^n * (p^n - rank) of the module rows, compiled as
    ``mpoly.CompiledRows``, at the point pt over K, with beta the p-th root
    of Xi (``_pth_root``; see ``psupport.generic_rank``)."""
    n, dim_v = twist.n, twist.p**twist.n
    beta = tuple(_pth_root(K, xi) for xi in pt[n:])
    rows = module_rows.at(pt[:n] + beta, K)
    return dim_v * (dim_v - matrix_rank(rows, K, dim_v))


@lru_cache(maxsize=None)
def _monomials_up_to(nvars, degree):
    """Exponent tuples of total degree <= degree, in (degree, grevlex) order:
    one per size-``degree`` multiset of the nvars slots and a slack slot."""
    multisets = combinations_with_replacement(range(nvars + 1), degree)
    monos = (tuple(map(m.count, range(nvars))) for m in multisets)
    return tuple(sorted(monos, key=GREVLEX.key))


def _central_normal_form(ideal, e):
    """nf(embed(X^e)) for the ideal, a left ideal of A_n(F_p), by the
    Frobenius shift of a predecessor X^(e - u_k) (module docstring) whose
    normal form the ladder holds already.

    Each candidate slot k with e_k > 0 is shifted once, and the shift whose
    terms a basis lead divides least often is kept: the slots are scanned
    from the last down, the scan stops at the first shift with none, and a
    tie keeps the later slot.  No lead divides a term before the shift, so
    only the leads positive at slot k can divide one after it, and a shift
    with none is already the normal form; any other is reduced.
    """
    if not any(e):
        return ideal.normal_form(WeylOp.one(ideal.ring, ideal.n))
    nfs, p, best = ideal._cache["ladder"][0], ideal.ring.characteristic, None
    leads = ideal._leads()
    for k in reversed(range(len(e))):
        if not e[k]:
            continue
        at_k = [lead for lead in leads if lead[k]]
        prev = nfs[e[:k] + (e[k] - 1,) + e[k + 1 :]].terms
        shifted = {key[:k] + (key[k] + p,) + key[k + 1 :]: c for key, c in prev.items()}
        hits = sum(any(monomial_divides(lead, key) for lead in at_k) for key in shifted)
        if best is None or hits < best[0]:
            best = (hits, shifted)
        if not hits:
            break
    hits, shifted = best
    nf = WeylOp(ideal.ring, ideal.n, shifted)
    return ideal.normal_form(nf) if hits else nf


def truncated_kernel(ideal, degree):
    """The kernel vectors with minimal leads of {z central, deg <= degree :
    z acts as 0 on D/I}; they generate the ideal the whole kernel generates.

    left_nf is linear over F_p, so the kernel is the space of relations
    among the normal forms of the embedded monomials.  The columns are the
    monomials in (degree, grevlex) order, and the ones of degree <= d are a
    prefix of the ones of degree <= d + 1.  The ladder's one state, cached
    on the ideal, is (nfs, echelon, kernel): the normal form of each column
    so far by its monomial, None for a skipped one; the ``linalg.Echelon``
    of the normal forms, each added once with the combination {X^e: 1}; and
    the (lead, vector) pairs of the kernel, in column order.  A column left
    nonzero is a pivot, and a vanishing one's combination is the terms of
    its kernel vector, with lead X^e and every other term on an earlier
    column: the canonical nullspace vector of that free column.  Any
    sequence of degrees asked for reduces each column once.  A monomial
    that an earlier kernel lead divides is a column never normalised, with
    no vector kept (module docstring), so no returned lead divides a later
    one.
    """
    ring = _twist_of(ideal.ring, ideal.n).twisted_ring
    nfs, echelon, kernel = ideal._cache.setdefault("ladder", ({}, Echelon(ring.coeffs), []))
    one = ring.coeffs.one()
    for e in _monomials_up_to(2 * ideal.n, degree)[len(nfs) :]:
        if any(monomial_divides(lead, e) for lead, _ in kernel):
            nfs[e] = None
            continue
        nf = nfs[e] = _central_normal_form(ideal, e)
        comb = echelon.add(nf.terms, {e: one})
        if comb is not None:
            kernel.append((e, MPoly(ring, comb)))
    return [z for lead, z in kernel if sum(lead) <= degree]


def _support_dimension(ideal):
    """s, the dimension of the p-support of D/I (module docstring), read by
    ``cgb._lead_dim`` off the grevlex leads of the reduced left basis
    (``_Ideal._leads``); -1 if I = D."""
    return _lead_dim(ideal._leads(), 2 * ideal.n)


def central_annihilator_truncated(ideal, twist=None):
    """Degree-truncated central annihilator, certified in dimension.

    The kernel ideal J_d of ``truncated_kernel(ideal, d)`` at the first
    plateau J_(d+1) = J_d of dimension at most s (``_support_dimension``),
    status "stabilized(d)", else at the top degree D, status "truncated(D)"
    (module docstring).  For a one-element reduced left basis, J_d at the
    first nonzero kernel is I cap Z itself, status "stabilized(d)".
    D = max(2p, m * p^(n-1)), m the least total degree of the reduced left
    basis, bounds the twisted degree of the reduced norm of a basis element
    of degree m, a nonzero central element of I.

    The route reads the twist off the ideal; ``twist``, kept for callers
    that still pass it, must be that twist or None.
    """
    twist, given = _twist_of(ideal.ring, ideal.n), twist
    if given not in (None, twist):
        raise RingMismatch(f"{given} is not the twist of {ideal}")
    norm_degree = min((g.total_degree() for g in ideal.groebner_basis()), default=0)
    top = max(2 * twist.p, norm_degree * twist.p ** (twist.n - 1))
    principal = len(ideal.groebner_basis()) == 1
    support, prev = _support_dimension(ideal), None
    for d in range(1, top + 1):
        kernel = truncated_kernel(ideal, d)
        J = CIdeal.of(kernel, ring=twist.twisted_ring)
        if principal and kernel:  # J = I cap Z (module docstring)
            return AnnihilatorResult(J, f"stabilized({d})")
        # the kernel at d - 1 is a prefix of the kernel at d
        if prev is not None and all(prev.contains(z) for z in kernel[len(prev.gens) :]):
            if krull_dim(prev) <= support:
                return AnnihilatorResult(prev, f"stabilized({d - 1})")
            J._cache.update(prev._cache)  # the same ideal: its basis carries over
        prev = J
    return AnnihilatorResult(prev, f"truncated({top})")


def central_annihilator(ideal, guard=EXACT_GUARD, method="auto"):
    """The central annihilator by the route ``method`` names.

    This is the one place that chooses the route, and the only reader of
    ``guard`` for it; the two routes take no guard.  "exact" takes the exact
    route whatever p^(2n), "truncated" the degree-truncated kernel, and
    "auto" the exact route while p^(2n) is within ``guard``, else the
    truncated one.  ``guard`` must be an int, not a bool, whatever the
    method.
    """
    if method not in ("auto", "exact", "truncated"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(guard, bool) or not isinstance(guard, int):
        raise ValueError(f"guard must be an int, got {guard!r}")
    twist = _twist_of(ideal.ring, ideal.n)
    if method == "exact" or (method == "auto" and twist.p ** (2 * twist.n) <= guard):
        return central_annihilator_exact(ideal)
    return central_annihilator_truncated(ideal)
