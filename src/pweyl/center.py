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

External products.  Each element of the reduced left basis touches the
variable pairs (x_i, d_i) at which one of its exponents is nonzero, and
elements that touch a common pair join one block (``_blocks``).  Leads of
other blocks divide no term of a block, so a block's elements are the
reduced basis of I_k, the left ideal that they generate in A_(n_k)(F_p) on
the n_k pairs that they touch.  D/I is the external product of the D_k/I_k
times D_free on the pairs no block touches.  Then
I cap Z = sum_k (I_k cap Z_k) * Z, and the fibre dimensions multiply: over
a field, Z_1/Ann(M_1) tensor Z_2/Ann(M_2) embeds in End(M_1) tensor
End(M_2), which embeds in End(M_1 tensor M_2), and the fibre of
M_1 tensor M_2 at (P_1, P_2) is the tensor product of the fibres, each free
pair giving D_1 over its centre, of rank p^2.  So each block is eliminated
at its own n_k, over sum_k p^(n_k) positions rather than p^n, and its fibre
read on its own simple module of rank p^(n_k) (``_fiber_reader``).  No
block gives 1, as the unit ideal does not split and I_k lies in I, so the
union of the blocks' reduced bases, in disjoint variables, sorted by lead,
is the reduced basis of I cap Z.  An ideal that does not split, one block
on all n pairs, the zero ideal or the unit ideal, is its own one block,
for which all of this holds as it stands.

Central contraction steps.  When every slot-i exponent of the basis f of
the step before is divisible by p, each f lies in the ring B with x_i
replaced by X_i; as A = sum_s x_i^s * B is direct, the span of the
x_i^s * f is the direct sum of the x_i^s * (f), whose part on residue 0 is
(f).  So that step eliminates the basis alone, not its p copies.

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
J_d = I cap Z: at rung 1 for the unit ideal, and by the top degree
D = max(2p, m * p^(n-1)) always, m the least total degree of the reduced
left basis.  D bounds the twisted degree of the reduced norm of a basis
element of degree m, a nonzero central element of I.

The same stop holds block by block.  When every block of an external
product has a one-element basis, each I_k cap Z_k = (h_k), so
I cap Z = sum_k (h_k) * Z.  The h_k lie in disjoint variables, so they are
the reduced basis of I cap Z, and every element of I cap Z has a lead that
some lead(h_k) of no greater degree divides.  The kernel vectors kept at
rung d are thus the h_k of degree <= d: the kept vector v at lead(h_k) has
every other term on a pivot column, which no kernel lead divides, and
h_k's other terms are not divisible by any lead(h_j), so v - h_k, an
element of I cap Z, would have a lead that no lead(h_j) divides.  The first
rung whose kernel has one vector per block, d = max deg h_k, has
J_d = I cap Z, and the ladder stops there, the h_k in column order its
reduced basis.  No rung before it can stop on a plateau: an ideal missing
some h_k has dimension above s.  At the top degree D with more than one
block the stop gives way, and the ladder ends as it always has, with
J_D = I cap Z reported "truncated(D)".

The truncated ladder climbs one rung, one degree, at a time, does each
reduction once, and keeps one state on the ideal for every later degree:
the normal form of each column's monomial, one ``linalg.Echelon`` (the
sparse elimination behind ``linalg.rank`` too), the kernel found so far and
the kernel ideal J_d of each finished rung (``truncated_kernel``).  Only
the ladder writes that state, so what it returns at a degree depends on
the ideal and the degree alone.  It normalises a central monomial X^e at
most once, and adds each normal form once, as a column carrying the
combination {X^e: 1}, so that a vanishing column's combination is its
kernel vector.  The monomials of degree <= d come first in
(degree, grevlex) order, so the kernel at degree d + 1 extends the one at
d and no degree is eliminated from scratch.  The normal form of X^e
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
A shift that lands on a lead is not built when nf(X_k), the normal form
of column u_k, is not z_k = embed(X_k) itself; the ladder reduces

    nf(X^e) = nf(nf(X^(e - u_k)) * nf(X_k))

instead.  z_k is central and I is a left ideal, so X^e = z_k * X^(e - u_k)
is congruent to z_k * nf(X^(e - u_k)) = nf(X^(e - u_k)) * z_k, and that to
the product, as their difference nf(X^(e - u_k)) * (z_k - nf(X_k)) lies in
I.  (The other order is congruent too: I * q lies in I when q = c - a for
a central c and a in I, as b * q = c * b - b * a for b in I.)  Only nf(1)
is normalised directly.

The ladder never normalises a monomial X^e that the lead X^m of an element
u of an ideal generated by earlier kernel vectors divides: the lead of an
earlier kernel vector, and, at rung d >= 2 of an ideal that the principal
stop does not end, a lead of the reduced basis of J_(d-1), which the ladder
kept when it finished rung d - 1 (FGLM's rule: a monomial of the leading
ideal is never a new independent column; Faugere, Gianni, Lazard and Mora,
J. Symb. Comp. 16, 1993).  X^(e - m) * u lies in I cap Z with lead X^e
and every other term on an earlier column (grevlex refines degree), so X^e
is a free column, never a pivot, and skipping it changes no later column's
reduction.  Its kernel vector is not kept either: it is X^(e - m) * u
plus kernel vectors with smaller leads, all in the ideal of the kernel
vectors kept before it, so the ideal and its reduced basis are unchanged.  By the Leibniz rule so is the coisotropy
witness, the first generator pair whose bracket leaves the radical: when
v = sum a_i * g_i over earlier generators,
{v, w} = sum a_i * {g_i, w} + sum g_i * {a_i, w}, so a pair with v fails
only if a pair with some g_i fails, and that pair comes first.  The
predecessor of a kept monomial divides it, so it is kept too and its
normal form is cached.  The kernel vectors the ladder returns are thus
those whose lead neither an earlier kernel vector's lead nor, past rung 1,
a lead of J_(d-1) for their rung d divides.

The plateau rule.  A new kernel vector at rung d >= 2 of an ideal that the
principal stop does not end has a lead that no lead of J_(d-1) divides, so
it is no element of J_(d-1): J_d = J_(d-1) exactly when rung d keeps no new
vector.  The ladder then keeps J_(d-1) itself as J_d, and the annihilator
counts its kernel instead of reducing it.  The principal stop reads no
J_(d-1), and there a count may pass a plateau, but no plateau before that
stop has dimension s.  Only a rung that grows the ideal makes a new J_d, so
Buchberger runs once per distinct kernel ideal read.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement, product
from operator import itemgetter, le

from .cgb import CIdeal, _eliminate_onto, _lead_dim, _reduced_ideal, krull_dim
from .errors import RingMismatch
from .linalg import Echelon, rank as matrix_rank
from .mpoly import CompiledRows, MPoly, PolyRing
from .orders import GREVLEX, monomial_divides
from .rings import Zmod, is_prime
from .weyl import WeylOp, _weyl_submul, is_central
from .wgb import LeftIdeal

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


def _blocks(ideal):
    """The reduced left basis split into the blocks of an external product
    (module docstring), as a non-empty tuple of (at, sub-ideal) pairs, in
    the order of their smallest variable pair.

    A block's n_k pairs are those its elements touch, ascending, and ``at``
    lists their exponent slots in the whole ideal, the x slots then the d
    slots, which are also their coordinates in the twisted ring; its
    sub-ideal is I_k, with the block's elements as its cached reduced basis.
    A pair that no element touches is in no block.  An ideal that does not
    split is its own one block, ((0, .., 2n - 1), ideal).  Computed once
    per ideal, and cached on it.
    """
    cache = ideal._cache
    if "blocks" not in cache:
        n, basis = ideal.n, ideal.groebner_basis()
        groups = []  # (slots touched, basis indices), on disjoint slots
        for index, g in enumerate(basis if n > 1 else ()):  # one pair is one block
            touched = {i for e in g.terms for i in range(n) if e[i] or e[n + i]}
            joined = [grp for grp in groups if grp[0] & touched]
            for grp in joined:
                groups.remove(grp)
                touched |= grp[0]
            groups.append((touched, sorted(sum((grp[1] for grp in joined), [index]))))
        # the unit ideal's one element touches no pair
        if len(groups) > 1 or 0 < sum(len(grp[0]) for grp in groups) < n:
            cache["blocks"] = tuple(
                _block(ideal, tuple(sorted(touched)), [basis[j] for j in members])
                for touched, members in sorted(groups, key=lambda grp: min(grp[0]))
            )
        else:
            cache["blocks"] = ((tuple(range(2 * n)), ideal),)
    return cache["blocks"]


def _block(ideal, slots, members):
    """The (at, sub-ideal) pair of ``_blocks`` for the basis elements
    ``members``, in basis order, each read at the variable pairs ``slots``."""
    at, F = slots + tuple(ideal.n + v for v in slots), ideal.ring
    gens = tuple(
        WeylOp(F, len(slots), {tuple(e[j] for j in at): c for e, c in g.terms.items()})
        for g in members
    )
    sub = LeftIdeal(F, len(slots), gens)
    sub._cache["basis"] = gens
    return at, sub


def _exact_basis(ideal):
    """The reduced grevlex basis of I cap Z for the left ideal I, as term
    dicts in the twisted coordinates, lead first, by the elimination of the
    exact route (module docstring) on the ideal as a whole.

    Each d^r * g, for the residues r and the reduced left basis g, is built
    as a term dict by the Weyl product in the engine's form
    (``weyl._weyl_submul``) from g's engine pairs (``_Ideal._pairs``), with
    no operator built, and eliminated onto d^0 (``_eliminate_residues``);
    then each slot i in turn, on the x_i^s * f over the basis f of the step
    before, or on the basis alone at a central step.
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
        if any(e[i] % p for f in basis for e in f):
            products = [
                {e[:i] + (e[i] + s,) + e[i + 1 :]: c for e, c in f.items()}
                for f in basis
                for s in range(p)
            ]
        else:  # a central step: the x_i^s * f span the sum of the x_i^s * (f)
            products = basis
        basis = _eliminate_residues(products, p, (i,), F)
    return basis


def central_annihilator_exact(ideal):
    """I cap Z, status "exact": each block of ``_blocks`` eliminated at its
    own n_k (``_exact_basis``), and the blocks' bases, mapped into the
    twisted ring and sorted by lead, as its reduced basis (module
    docstring)."""
    twist = _twist_of(ideal.ring, ideal.n)
    basis = []
    for at, sub in _blocks(ideal):
        for f in _exact_basis(sub):
            g = {}
            for e, c in f.items():
                full = [0] * (2 * twist.n)
                for j, v in zip(at, e):
                    full[j] = v
                g[tuple(full)] = c
            basis.append(g)
    basis.sort(key=lambda f: GREVLEX.key(next(iter(f))))
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


def _fiber_dim(module_rows, twist, K, pt):
    """p^n * (p^n - rank) of the module rows, compiled as
    ``mpoly.CompiledRows``, at the point pt over K, with beta = Xi^(|K| / p)
    the p-th root of Xi (``K.pow``; see ``psupport.generic_rank``)."""
    n, dim_v = twist.n, twist.p**twist.n
    beta = tuple(K.pow(xi, K.size // K.characteristic) for xi in pt[n:])
    rows = module_rows.at(pt[:n] + beta, K)
    return dim_v * (dim_v - matrix_rank(rows, K, dim_v))


def _fiber_reader(ideal):
    """The fibre dimension of D/I as a function of (K, pt), pt a point of
    the centre over the finite field K, for ``psupport.generic_rank``: the
    product of the fibres of the blocks of ``_blocks``, each read at its own
    coordinates by ``_fiber_dim`` from its module rows
    (``_simple_module_rows``), compiled once as ``mpoly.CompiledRows``,
    times p^2 for each variable pair that no block touches (module
    docstring).
    """
    twist = _twist_of(ideal.ring, ideal.n)
    blocks = _blocks(ideal)
    free = twist.p ** (2 * twist.n - sum(len(at) for at, _ in blocks))
    # at has 2 * n_k >= 2 slots, so itemgetter(*at) returns a tuple
    factors = [
        (
            itemgetter(*at),
            _twist_of(sub.ring, sub.n),
            CompiledRows(_simple_module_rows(sub), sub.ring),
        )
        for at, sub in blocks
    ]

    def fiber(K, pt):
        dim = free
        for coordinates, tw, rows in factors:
            dim *= _fiber_dim(rows, tw, K, coordinates(pt))
        return dim

    return fiber


@lru_cache(maxsize=None)
def _monomials_up_to(nvars, degree):
    """Exponent tuples of total degree <= degree, in (degree, grevlex) order:
    one per size-``degree`` multiset of the nvars slots and a slack slot."""
    multisets = combinations_with_replacement(range(nvars + 1), degree)
    monos = (tuple(map(m.count, range(nvars))) for m in multisets)
    return tuple(sorted(monos, key=GREVLEX.key))


def _ladder(ideal):
    """The ladder's one state on the ideal, made on first use:
    (nfs, echelon, kernel, lowered, ideals, principal).  nfs holds the
    normal form of each column so far by its monomial, None for a skipped
    one; echelon the ``linalg.Echelon`` of those normal forms; kernel the
    (lead, vector) pairs of the kernel, in column order; lowered[k] each
    basis lead positive at slot k with p taken off there, at least 0;
    ideals[d] the kernel ideal J_d of each finished rung d, the one of rung
    d - 1 itself when rung d keeps no new vector; and principal whether
    every block of ``_blocks`` has a one-element reduced basis, so that the
    principal stop can end the ladder.  Only ``truncated_kernel`` writes
    it."""
    cache = ideal._cache
    if "ladder" not in cache:
        p, leads = ideal.ring.characteristic, ideal._leads()
        lowered = [
            [lead[:k] + (max(lead[k] - p, 0),) + lead[k + 1 :] for lead in leads if lead[k]]
            for k in range(2 * ideal.n)
        ]
        ring = _twist_of(ideal.ring, ideal.n).twisted_ring
        principal = all(len(sub.groebner_basis()) == 1 for _, sub in _blocks(ideal))
        cache["ladder"] = ({}, Echelon(ring.coeffs), [], lowered, [], principal)
    return cache["ladder"]


def _central_normal_form(ideal, e):
    """nf(embed(X^e)) for the ideal, from the normal form of a predecessor
    X^(e - u_k) that the ladder holds, by a Frobenius shift or a product
    with nf(X_k) (module docstring).

    The slots k with e_k > 0 are scanned from the last down, and the first
    whose shift leaves no term on a basis lead is kept, else the one that
    leaves the fewest, the later slot on a tie.  A lead divides
    key + p * u_k iff its lowered form (``_ladder``) divides key, so the
    terms are counted without building a shift, and only the kept one is
    built.
    """
    if not any(e):
        return ideal.normal_form(WeylOp.one(ideal.ring, ideal.n))
    nfs, _, _, lowered, _, _ = _ladder(ideal)
    best = None  # (hits, slot, predecessor's normal form)
    for k in reversed(range(len(e))):
        if not e[k]:
            continue
        prev = nfs[e[:k] + (e[k] - 1,) + e[k + 1 :]]
        hits = sum(any(all(map(le, low, key)) for low in lowered[k]) for key in prev.terms)
        if best is None or hits < best[0]:
            best = (hits, k, prev)
        if not hits:
            break
    hits, k, prev = best
    p = ideal.ring.characteristic
    if hits:
        unit = tuple(int(i == k) for i in range(len(e)))
        lift = nfs.get(unit)  # nf(X_k), not yet there for e = u_k
        if lift is not None and lift.terms.keys() != {tuple(p * u for u in unit)}:
            return ideal.normal_form(prev * lift)
    shifted = {key[:k] + (key[k] + p,) + key[k + 1 :]: c for key, c in prev.terms.items()}
    nf = WeylOp(ideal.ring, ideal.n, shifted)
    return ideal.normal_form(nf) if hits else nf


def truncated_kernel(ideal, degree):
    """The ladder's kernel at ``degree``: the vectors of degree <= degree
    that it keeps, in column order, whose leads are minimal, and which
    generate J_degree, the ideal of {z central, deg <= degree : z acts as 0
    on D/I} (module docstring).  It depends on the ideal and the degree
    alone, whatever was asked before.

    The ladder climbs one rung at a time.  The columns are the monomials
    X^e in (degree, grevlex) order.  Each column's normal form
    (``_central_normal_form``) goes into the ladder's state (``_ladder``)
    once, with the combination {X^e: 1}, so any sequence of degrees asked
    for reduces each column once; a vanishing column's combination is its
    kernel vector, with lead X^e and every other term on an earlier column.
    A column that an earlier kernel lead divides, or, at rung d >= 2 of an
    ideal that the principal stop cannot end, a lead of J_(d-1)'s reduced
    basis, is never normalised and keeps no vector, so no returned lead
    divides a later one.  Each finished rung leaves its kernel ideal J_d on
    the state.
    """
    ring = _twist_of(ideal.ring, ideal.n).twisted_ring
    nfs, echelon, kernel, _, ideals, principal = _ladder(ideal)
    one = ring.coeffs.one()
    for d in range(len(ideals), degree + 1):
        decided = ideals[d - 1]._leads() if d >= 2 and not principal else ()
        for e in _monomials_up_to(2 * ideal.n, d)[len(nfs) :]:
            if any(monomial_divides(m, e) for m in decided) or any(
                monomial_divides(lead, e) for lead, _ in kernel
            ):
                nfs[e] = None
                continue
            nf = nfs[e] = _central_normal_form(ideal, e)
            comb = echelon.add(nf.terms, {e: one})
            if comb is not None:
                kernel.append((e, MPoly(ring, comb)))
        if ideals and len(kernel) == len(ideals[-1].gens):
            ideals.append(ideals[-1])
        else:
            ideals.append(CIdeal.of([z for _, z in kernel], ring=ring))
    return [z for lead, z in kernel if sum(lead) <= degree]


def _support_dimension(ideal):
    """s, the dimension of the p-support of D/I (module docstring), read by
    ``cgb._lead_dim`` off the grevlex leads of the reduced left basis
    (``_Ideal._leads``); -1 if I = D."""
    return _lead_dim(ideal._leads(), 2 * ideal.n)


def central_annihilator_truncated(ideal, twist=None):
    """The degree-truncated central annihilator, certified in dimension:
    the kernel ideals J_d that ``truncated_kernel(ideal, d)`` leaves on the
    ladder's state, for d rising to the top degree D (module docstring).

    When every block of ``_blocks`` has a one-element reduced basis, the
    result is I cap Z at the first rung d whose kernel has one vector per
    block, status "stabilized(d)", save at d = D with more than one block.
    Otherwise it is J_(d-1), status "stabilized(d - 1)", at the first rung
    d >= 2 that keeps no new kernel vector while J_(d-1) has dimension at
    most s (``_support_dimension``).  Else it is J_D, status
    "truncated(D)".

    The route reads the twist off the ideal; ``twist``, kept for callers
    that still pass it, must be that twist or None.
    """
    twist, given = _twist_of(ideal.ring, ideal.n), twist
    if given not in (None, twist):
        raise RingMismatch(f"{given} is not the twist of {ideal}")
    norm_degree = min((g.total_degree() for g in ideal.groebner_basis()), default=0)
    top = max(2 * twist.p, norm_degree * twist.p ** (twist.n - 1))
    blocks, support = _blocks(ideal), _support_dimension(ideal)
    _, _, _, _, ideals, principal = _ladder(ideal)
    for d in range(1, top + 1):
        kernel = truncated_kernel(ideal, d)
        # the kernel is the blocks' generators: J = I cap Z (module docstring)
        if principal and len(kernel) == len(blocks) and (d < top or len(blocks) == 1):
            return AnnihilatorResult(_reduced_ideal(kernel, twist.twisted_ring), f"stabilized({d})")
        # a plateau is a rung with no new kernel vector (module docstring)
        if d >= 2 and ideals[d] is ideals[d - 1] and krull_dim(ideals[d]) <= support:
            return AnnihilatorResult(ideals[d], f"stabilized({d - 1})")
    return AnnihilatorResult(ideals[top], f"truncated({top})")


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
