"""Seeded random generators and brute-force oracles shared by the tests."""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, product

from pweyl import CIdeal, MPoly, PolyRing, WeylOp
from pweyl.center import _monomials_up_to, _simple_module_rows, _split_residues
from pweyl.cgb import _eliminate_onto, _groebner, _reduce, krull_dim
from pweyl.errors import NoPointsFound, NotAField
from pweyl.linalg import rank as matrix_rank
from pweyl.mpoly import _shift_submul
from pweyl.orders import GREVLEX, Weighted, monomial_divides
from pweyl.psupport import EXHAUSTIVE_POINT_LIMIT, RANDOM_POINT_BUDGET
from pweyl.rings import GaloisField, Rationals, Zmod, extension_field
from pweyl.wgb import initial_weighted, left_groebner


def random_coeff(ring, rng, nonzero=False):
    if isinstance(ring, Zmod):
        lo = 1 if nonzero else 0
        return rng.randrange(lo, ring.modulus)
    if isinstance(ring, GaloisField):
        while True:
            v = from_coefficients(ring, [rng.randrange(ring.p) for _ in range(ring.k)])
            if not (nonzero and ring.is_zero(v)):
                return v
    if isinstance(ring, Rationals):
        while True:
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if not (nonzero and v == 0):
                return v
    raise TypeError(f"no generator for {ring}")


@lru_cache(maxsize=None)
def _indices(K):
    return {K.element_from_index(i): i for i in range(K.size)}


def coefficients(K, a):
    """The coefficients of a in GF(p^k) = F_p[t]/(modulus), lowest degree
    first: the base-p digits, lowest first, of its index under
    ``element_from_index``."""
    i = _indices(K)[a]
    return tuple(i // K.p**j % K.p for j in range(K.k))


def from_coefficients(K, coeffs):
    """The element of GF(p^k) with the given coefficients, lowest degree
    first, by ``element_from_index`` at the index with those base-p digits."""
    return K.element_from_index(sum(c * K.p**j for j, c in enumerate(coeffs)))


def tuple_mul(K, a, b):
    """The product of two coefficient tuples modulo the modulus of K, by
    reducing the schoolbook product from the top degree down."""
    prod = [0] * (2 * K.k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % K.p
    for d in range(len(prod) - 1, K.k - 1, -1):
        c, prod[d] = prod[d], 0
        for j in range(K.k):
            prod[d - K.k + j] = (prod[d - K.k + j] - c * K.modulus[j]) % K.p
    return tuple(prod[: K.k])


def schoolbook_mul(K, a, b):
    """The product in GF(p^k) = F_p[t]/(modulus) of a and b, by
    ``tuple_mul`` on their coefficients."""
    return from_coefficients(K, tuple_mul(K, coefficients(K, a), coefficients(K, b)))


def gens_1var(ring):
    """x, d and 1 of A_1 over ``ring``."""
    return WeylOp.x(ring, 1, 0), WeylOp.d(ring, 1, 0), WeylOp.one(ring, 1)


def fermat_inv(K, a):
    """a^(q-2) in GF(q) by binary powering with ``schoolbook_mul``."""
    acc, e = K.one(), K.size - 2
    while e:
        if e & 1:
            acc = schoolbook_mul(K, acc, a)
        a = schoolbook_mul(K, a, a)
        e >>= 1
    return acc


def random_monomial(nvars, rng, max_degree):
    e = [0] * nvars
    for _ in range(rng.randrange(max_degree + 1)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def random_mpoly(ring, rng, max_degree=3, max_terms=4, nonzero=False):
    while True:
        items = [
            (random_monomial(ring.nvars, rng, max_degree), random_coeff(ring.coeffs, rng))
            for _ in range(rng.randrange(1, max_terms + 1))
        ]
        # TermArithmetic.__add__ merges repeated exponents and drops zeros
        f = sum((MPoly(ring, {e: c}) for e, c in items), ring.zero())
        if not (nonzero and f.is_zero()):
            return f


def reference_product(f, g):
    """f * g by the schoolbook double loop over the terms of both factors,
    storing no zero coefficient: an oracle for ``MPoly.__mul__``."""
    R = f.ring.coeffs
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = R.mul(c1, c2)
            acc = out.get(e)
            c = R.add(acc, c) if acc is not None else c
            if R.is_zero(c):
                out.pop(e, None)
            else:
                out[e] = c
    return MPoly(f.ring, out)


def random_weylop(ring, n, rng, max_exp=3, max_terms=4, nonzero=False):
    while True:
        items = []
        for _ in range(rng.randrange(1, max_terms + 1)):
            key = tuple(rng.randrange(max_exp + 1) for _ in range(2 * n))
            items.append((key, random_coeff(ring, rng)))
        f = sum((WeylOp(ring, n, {e: c}) for e, c in items), WeylOp.zero(ring, n))
        if not (nonzero and f.is_zero()):
            return f


def evaluate(terms, point, K):
    """The value at ``point`` over the field K of the polynomial with the term
    dict ``terms`` over F_p, term by term: each coefficient embedded by
    ``K.from_int`` and multiplied by every coordinate as often as its
    exponent says.  The oracle for ``mpoly.CompiledRows``."""
    acc = K.zero()
    for e, c in terms.items():
        term = K.from_int(c)
        for x, k in zip(point, e):
            for _ in range(k):
                term = K.mul(term, x)
        acc = K.add(acc, term)
    return acc


def recombine_residues(parts, p, slots):
    """The inverse of ``center._split_residues``: the term dict with the
    exponent p * q + r at each slot, from residue r -> terms keyed by q."""
    terms = {}
    for r, part in parts.items():
        for key, c in part.items():
            e = list(key)
            for i, ri in zip(slots, r):
                e[i] = p * e[i] + ri
            terms[tuple(e)] = c
    return terms


def z_module_presentation(ideal, twist):
    """Columns over the centre presenting the left ideal inside Z^(p^(2n)).

    The left ideal, as a module over the centre, is spanned by
    (residue monomial) * g over the residue monomials x^a d^b,
    0 <= a_i, b_i < p, and the reduced left basis g; each product is split
    over that free basis by the residues of all its exponents.  Returns
    (residue list, columns), each column a tuple of twisted polynomials
    indexed like the residue list.  The reference for the rank-p^n colon and
    for the fibres of D/I.
    """
    p, n, R = twist.p, twist.n, twist.twisted_ring
    B = list(product(range(p), repeat=2 * n))
    columns = []
    for g in ideal.groebner_basis():
        for beta in B:
            product_terms = (WeylOp.monomial(twist.weyl_ring, n, beta) * g).terms
            parts = _split_residues(product_terms, p, range(2 * n))
            columns.append(tuple(MPoly(R, parts.get(r, {})) for r in B))
    return B, columns


def column_vec(col):
    """A column of polynomials as the engine's term dict, keyed (position,
    exponents)."""
    return {(pos, e): c for pos, f in enumerate(col) for e, c in f.terms.items()}


def colon_by_tag(columns, v, ring):
    """The reduced grevlex basis of (N : v) = {z : z*v in N}, N spanned by
    ``columns``: the columns (col, 0) and the tag generator (v, 1) eliminated
    onto the tag coordinate, whose elements are (0, z) for z*v in N."""
    rank = len(v)
    tag = column_vec(v)
    tag[(rank, (0,) * ring.nvars)] = ring.coeffs.one()
    vecs = [column_vec(col) for col in columns] + [tag]
    return [MPoly(ring, g) for g in _eliminate_onto(vecs, rank, ring.coeffs)]


def rank_p2n_colon(ideal, twist):
    """I cap Z as a reduced grevlex basis, by the colon of the rank-p^(2n)
    presentation over Z (``z_module_presentation``) into the coordinate of
    1: the reference for the exact route, which eliminates in rank p^n."""
    R = twist.twisted_ring
    B, columns = z_module_presentation(ideal, twist)
    e0 = [R.zero()] * len(B)
    e0[B.index((0,) * (2 * twist.n))] = R.one()
    return tuple(colon_by_tag(columns, e0, R))


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
    for i, k in combinations(range(len(vecs)), 2):
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


def reference_groebner(vectors, R, termkey, submul):
    """The reduced Groebner basis of the span of ``vectors`` by Buchberger's
    algorithm with no criterion: every pair of elements whose leads share a
    position, the new ones included, is reduced by the textbook loop (the
    leading term by ``max``, the first dividing lead).  ``submul`` is the
    algebra's product in the engine's form.  Returns monic term dicts sorted
    by lead, the form of ``cgb._groebner``'s output."""

    def nf(vec, basis):
        work, rem = dict(vec), {}
        while work:
            lt = max(work, key=termkey)
            for lead, g in basis:
                if lead[0] == lt[0] and monomial_divides(lead[1], lt[1]):
                    submul(work, lt, lead, work[lt], g)
                    break
            else:
                rem[lt] = work.pop(lt)
        return rem

    def monic(vec):
        lead = max(vec, key=termkey)
        inv = R.inv(vec[lead])
        return lead, {t: R.mul(inv, c) for t, c in vec.items()}

    def lcm(i, j):
        (pos, li), (pj, lj) = basis[i][0], basis[j][0]
        return (pos, tuple(map(max, li, lj))) if pos == pj else None

    basis = [monic(v) for v in vectors if v]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j) if lcm(i, j)]
    while pairs:
        # the smallest lcm first, by degree: taking the newest pair instead
        # ran for minutes on some small inputs
        i, j = min(pairs, key=lambda ij: (sum(lcm(*ij)[1]), termkey(lcm(*ij))))
        pairs.remove((i, j))
        lt = lcm(i, j)
        s = {}
        submul(s, lt, basis[i][0], R.one(), basis[i][1])
        submul(s, lt, basis[j][0], R.neg(R.one()), basis[j][1])
        h = nf(s, basis)
        if h:
            basis.append(monic(h))
            k = len(basis) - 1
            pairs += [(i, k) for i in range(k) if lcm(i, k)]
    minimal = []
    for lead, g in sorted(basis, key=lambda pair: termkey(pair[0])):
        if not any(m[0] == lead[0] and monomial_divides(m[1], lead[1]) for m, _ in minimal):
            minimal.append((lead, g))
    return [nf(g, minimal[:k] + minimal[k + 1 :]) for k, (_, g) in enumerate(minimal)]


def submodule_basis(columns, F, termkey, desckey):
    """The engine's reduced basis of the span of ``columns`` (tuples of
    polynomials over the field F) under the module order given by
    ``termkey`` and its reverse ``desckey``."""
    vecs = [column_vec(col) for col in columns]
    return _groebner(vecs, F, termkey, desckey, _shift_submul(F), False)


def submodule_member(columns, F, termkey, desckey):
    """Membership in the span of ``columns``: a column lies in it iff
    ``reference_nf`` reduces it to zero against ``submodule_basis``, which
    ``assert_reduced_module_basis`` certifies first."""
    basis = submodule_basis(columns, F, termkey, desckey)
    assert_reduced_module_basis(basis, termkey, F)
    return lambda col: not reference_nf(column_vec(col), basis, termkey, F)


def berkowitz_det(matrix, ring):
    """The determinant of a square matrix over the commutative ring ``ring``
    without a division (Berkowitz, Inform. Process. Lett. 18, 1984).

    It works up the trailing blocks M[k:, k:], each written [[a, r], [c, B]]
    with B the next block, of size s.  The coefficients q_0..q_(s+1) of the
    block's characteristic polynomial det(t - M[k:, k:]) = sum q_i t^(s+1-i)
    are T times those of B, for the lower-triangular Toeplitz matrix T with
    first column 1, -a, -r.c, -r.B.c, ..., -r.B^(s-1).c.  For the whole
    matrix, det M = (-1)^m q_m.
    """
    m = len(matrix)

    def dot(u, v):
        return sum((a * b for a, b in zip(u, v) if not (a.is_zero() or b.is_zero())), ring.zero())

    coeffs = [ring.one()]
    for k in range(m - 1, -1, -1):
        row = matrix[k][k + 1 :]
        block = [r[k + 1 :] for r in matrix[k + 1 :]]
        toeplitz, vec = [ring.one(), -matrix[k][k]], [r[k] for r in matrix[k + 1 :]]
        for _ in block:
            toeplitz.append(-dot(row, vec))
            vec = [dot(r, vec) for r in block]
        coeffs = [
            dot([toeplitz[i - j] for j in range(min(i, len(coeffs) - 1) + 1)], coeffs)
            for i in range(len(coeffs) + 1)
        ]
    return coeffs[m] if m % 2 == 0 else -coeffs[m]


def reduced_norms(ideal, twist):
    """Nrd(g) for each g of the reduced left basis: the determinant of g on
    the simple module V of rank p^n (``center._simple_module_rows``), as a
    polynomial over F_p in X1..Xn, b1..bn with b the beta of that module."""
    dim, n = twist.p**twist.n, twist.n
    names = twist.twisted_ring.names[:n] + tuple(f"b{i + 1}" for i in range(n))
    R = PolyRing(twist.weyl_ring, names)
    rows = _simple_module_rows(ideal)
    norms = []
    for start in range(0, len(rows), dim):
        matrix = [[R.zero()] * dim for _ in range(dim)]
        for i, row in enumerate(rows[start : start + dim]):
            for col, terms in row:
                matrix[i][col] = MPoly(R, terms)
        norms.append(berkowitz_det(matrix, R))
    return norms


def ideal_equal(I, J):
    """Mutual normal-form membership of the generator lists."""
    return all(J.contains(g) for g in I.gens) and all(I.contains(g) for g in J.gens)


def assert_engine_pairs(ideal):
    """The ideal's ``_pairs()`` are its reduced basis, in order, as the
    engine's (lead, g) pairs at position 0 (no position for the zero ideal):
    g monic at its lead, the lead the element's own under grevlex."""
    by_position, basis = ideal._pairs(), ideal.groebner_basis()
    assert set(by_position) == ({0} if basis else set())
    pairs = by_position.get(0, [])
    assert len(pairs) == len(basis)
    for (lead, vec), g in zip(pairs, basis):
        assert vec == {(0, e): c for e, c in g.terms.items()}
        assert vec[lead] == g._coeffs.one()
        assert lead == (0, g.leading()[0])


def position_lists(basis, termkey):
    """Monic term dicts sorted by lead, the output of ``cgb._groebner``, in
    the engine's basis form: each position's (lead, g) pairs in lead order."""
    lists = {}
    for g in basis:
        lead = max(g, key=termkey)
        lists.setdefault(lead[0], []).append((lead, g))
    return lists


def engine_nf(f, basis, order):
    """The normal form of f against a reduced ``basis`` (commutative or left)
    under ``order``, by the engine's reducer on its (lead, g) pairs, all at
    position 0."""
    pairs = {
        0: [
            ((0, max(g.terms, key=order.key)), {(0, e): c for e, c in g.terms.items()})
            for g in basis
        ]
    }
    work = {(0, e): c for e, c in f.terms.items()}
    rem = _reduce(work, pairs, lambda t: order.desc_key(t[1]), f._submul(f._coeffs))
    return f._new({e: c for (_, e), c in rem.items()})


def radical_member_bruteforce(f, ideal, bound):
    """f in rad(I) iff some power f^k, k <= bound, normal-forms to zero."""
    power = f
    for _ in range(bound):
        if ideal.contains(power):
            return True
        power = power * f
    return False


def radical_member_rabinowitsch(f, ideal):
    """``cgb.radical_member`` without its lead certificate: f lies in rad(I)
    iff 1 lies in I + (1 - t*f), decided by the engine under grevlex with t
    in one extra exponent slot, for every f outside I."""
    if f.is_zero() or ideal.contains(f):
        return True
    R = f._coeffs
    if not R.is_field:
        raise NotAField(f"Groebner bases need field coefficients, got {R}")
    one_tf = {(0, e + (1,)): R.neg(c) for e, c in f.terms.items()}
    one_tf[(0, (0,) * (ideal.ring.nvars + 1))] = R.one()
    vecs = [{(0, e + (0,)): c for e, c in g.terms.items()} for g in ideal.groebner_basis()]
    constants = _groebner(
        vecs + [one_tf],
        R,
        lambda t: GREVLEX.key(t[1]),
        lambda t: GREVLEX.desc_key(t[1]),
        f._submul(R),
        f._product_criterion,
        lambda lead: not any(lead[1]),
    )
    return bool(constants)


def naive_d_pow_x_pow(m, k):
    """d^m x^k in one variable over the integers by repeated product-rule swaps.

    Independent of the closed-form multiplication: applies d to x^a d^b one
    factor at a time via d * x^a d^b = x^a d^(b+1) + a x^(a-1) d^b.
    """
    terms = {(k, 0): 1}
    for _ in range(m):
        new = {}
        for (a, b), c in terms.items():
            new[(a, b + 1)] = new.get((a, b + 1), 0) + c
            if a:
                new[(a - 1, b)] = new.get((a - 1, b), 0) + c * a
        terms = new
    return {key: c for key, c in terms.items() if c}


def rref(rows, ring):
    """Dense reduced row-echelon form; returns (new rows, pivot column list).

    The reference for the sparse linear algebra of the package: pivots are
    chosen left to right, top to bottom, so the echelon form is canonical.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not ring.is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ring.inv(m[r][c])
        m[r] = [ring.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and not ring.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [ring.sub(a, ring.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows, F):
    """Canonical basis of {v : rows @ v = 0}, one vector per free column."""
    ncols = len(rows[0])
    m, pivots = rref(rows, F)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [F.zero()] * ncols
        v[free] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(m[r][free])
        basis.append(v)
    return basis


def dense_kernel(monos, nfs, R):
    """The truncated kernel by one dense elimination over the normal forms
    ``nfs`` of the embedded monomials ``monos``: the canonical nullspace
    basis, as polynomials of the twisted ring R."""
    support = sorted({key for nf in nfs for key in nf.terms})
    # a zero row when every normal form vanishes: the kernel is everything
    rows = [[nf.terms.get(key, 0) for nf in nfs] for key in support]
    kernel = nullspace(rows or [[0] * len(monos)], R.coeffs)
    return [MPoly(R, {e: c for e, c in zip(monos, v) if c}) for v in kernel]


def minimal_leads(kernel):
    """The kernel vectors whose grevlex lead no earlier vector's lead divides.

    A vector whose lead is t * lead(u) for an earlier u differs from a
    multiple of t * u by a kernel element with a smaller lead, so dropping
    it leaves the generated ideal unchanged.
    """
    kept, leads = [], []
    for z in kernel:
        lead = z.leading()[0]
        if not any(monomial_divides(m, lead) for m in leads):
            kept.append(z)
            leads.append(lead)
    return kept


def symbol_dimension(ideal):
    """The dimension of the support of gr(D/I) for the order filtration (0 on
    x, 1 on d), the Rees-module way: the left basis under the weights refined
    by grevlex, its initial forms in F[x, xi], and ``krull_dim`` of the ideal
    they generate.  The p-support of D/I has this dimension, so it checks the
    ladder's gate, which reads the dimension off the grevlex leads instead."""
    n = ideal.n
    basis = left_groebner(list(ideal.gens), Weighted((0,) * n + (1,) * n))
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(f"xi{i + 1}" for i in range(n))
    ring = PolyRing(ideal.ring, names)
    return krull_dim(CIdeal.of([initial_weighted(g) for g in basis], ring=ring))


def reference_ladder(ideal, twist):
    """``central_annihilator_truncated`` without its shortcuts: at each
    degree, the whole dense kernel over the direct normal forms of the
    embedded monomials, cut to its minimal leads, under the same ceiling and
    the same rules: for a one-element reduced left basis, the first nonzero
    kernel; else the first plateau whose dimension is at most
    ``symbol_dimension``, tested by comparing reduced bases.  Returns
    (status, generators of the chosen ideal)."""
    R = twist.twisted_ring
    basis = ideal.groebner_basis()
    norm_degree = min((g.total_degree() for g in basis), default=0)
    top = max(2 * twist.p, norm_degree * twist.p ** (twist.n - 1))
    support = symbol_dimension(ideal)
    nfs, candidates = [], {}
    for d in range(1, top + 1):
        monos = _monomials_up_to(2 * twist.n, d)
        nfs += [ideal.normal_form(twist.embed(MPoly(R, {e: 1}))) for e in monos[len(nfs) :]]
        candidates[d] = CIdeal.of(minimal_leads(dense_kernel(monos, nfs, R)), ring=R)
        if len(basis) == 1 and candidates[d].gens:
            return f"stabilized({d})", candidates[d].gens
        if d == 1 or krull_dim(candidates[d - 1]) > support:
            continue
        if candidates[d - 1].groebner_basis() == candidates[d].groebner_basis():
            return f"stabilized({d - 1})", candidates[d - 1].gens
    return f"truncated({top})", candidates[top].gens


def brute_force_points(basis, nvars, p, k, rng):
    """``psupport._points_on_variety`` by evaluating every basis element, in
    the same order and with the same draws: at every point of
    F_(p^k)^nvars within ``EXHAUSTIVE_POINT_LIMIT``, and beyond it at every
    completion of each draw of the outer coordinates (the same
    ``rng.sample`` of indices, read in base q with the lowest digit for the
    last coordinate).  A draw evaluates the outer coordinates once, leaving
    each element a polynomial in the first coordinate, which is evaluated
    from a table of powers at every field element where the elements before
    it vanish."""
    K = extension_field(p, k)
    elements = [K.element_from_index(i) for i in range(K.size)]
    points = []
    if K.size**nvars <= EXHAUSTIVE_POINT_LIMIT:
        # reversed, so that the first coordinate varies fastest
        for pt in product(elements, repeat=nvars):
            pt = pt[::-1]
            if all(K.is_zero(evaluate(g.terms, pt, K)) for g in basis):
                points.append(pt)
        return K, points

    top = max((e[0] for g in basis for e in g.terms), default=0)
    powers = {}
    for x in elements:
        powers[x] = [K.one()]
        for _ in range(top):
            powers[x].append(K.mul(powers[x][-1], x))

    def roots(terms, candidates):
        """The candidates where the polynomial with the degree -> coefficient
        dict ``terms`` vanishes."""
        if set(terms) <= {0}:
            return candidates if not terms else []
        found = []
        for x in candidates:
            row = powers[x]
            if reduce(K.add, [K.mul(c, row[d]) for d, c in terms.items()]) == K.zero():
                found.append(x)
        return found

    count = K.size ** (nvars - 1)
    for i in rng.sample(range(count), min(RANDOM_POINT_BUDGET, count)):
        digits = []
        for _ in range(nvars - 1):
            i, j = divmod(i, K.size)
            digits.append(elements[j])
        outer = tuple(digits[::-1])
        candidates = elements
        for g in basis:
            terms = {}
            for e, c in g.terms.items():
                value = evaluate({(0,) + e[1:]: c}, (K.zero(),) + outer, K)
                terms[e[0]] = K.add(terms.get(e[0], K.zero()), value)
            candidates = roots({d: c for d, c in terms.items() if not K.is_zero(c)}, candidates)
        points.extend((x,) + outer for x in candidates)
    return K, points


def reference_samples(basis, nvars, p, attempts, rng):
    """``psupport._choose_samples`` without the early stop: every point of
    each field reached (from ``brute_force_points``) is ranked, and the
    first ``attempts`` points of the top Jacobian rank are chosen."""
    jac = [[g.partial(v) for v in range(nvars)] for g in basis]

    def jacobian_rank(K, pt):
        rows = [{v: evaluate(f.terms, pt, K) for v, f in enumerate(row)} for row in jac]
        rows = [{v: x for v, x in row.items() if not K.is_zero(x)} for row in rows]
        return matrix_rank(rows, K, nvars) if rows else 0

    # extend the field until enough points attain the maximal observed
    # Jacobian rank (the smooth locus of the top-dimensional components)
    ranked = []
    for k in (1, 2, 3):
        if k > 1 and p**k > EXHAUSTIVE_POINT_LIMIT:
            break
        K, pts = brute_force_points(basis, nvars, p, k, rng)
        ranked.extend((jacobian_rank(K, pt), k, K, pt) for pt in pts)
        if ranked:
            top = max(r for r, _, _, _ in ranked)
            if sum(1 for r, _, _, _ in ranked if r == top) >= attempts:
                break
    if not ranked:
        raise NoPointsFound("no points of the support over F_(p^k), k <= 3")

    top = max(r for r, _, _, _ in ranked)
    preferred = [item for item in ranked if item[0] == top]
    return preferred[:attempts]


def symplectic_images(n, rng):
    """A random automorphism phi of A_n, as the image {slot: coefficient}
    of each of the 2n slots x_1..x_n, d_1..d_n: a random permutation t of
    the variables, and at a random set of them the Fourier swap, so that
    x_i, d_i go to x_t(i), d_t(i), or to d_t(i), -x_t(i).  Both keep
    [d_i, x_i] = 1.  x_i^p and d_i^p go to the p-th powers of their images,
    and (-1)^p = -1 in F_p, so the same table read on X_1..X_n,
    Xi_1..Xi_n is phi_Z, the map phi induces on the centre
    (``center_image``)."""
    targets = rng.sample(range(n), n)
    images = [None] * (2 * n)
    for i, t in enumerate(targets):
        if rng.random() < 0.5:  # Fourier: x_i -> d_t, d_i -> -x_t
            images[i], images[n + i] = {n + t: 1}, {t: -1}
        else:
            images[i], images[n + i] = {t: 1}, {n + t: 1}
    return images


def inverse_images(images):
    """The table of the inverse of a ``symplectic_images`` map: a sign is
    its own inverse."""
    out = [None] * len(images)
    for i, image in enumerate(images):
        ((j, sign),) = image.items()
        out[j] = {i: sign}
    return out


def elementary_images(n, i, j, c):
    """The automorphism x -> A x, d -> A^(-T) d of A_n for the elementary
    matrix A = 1 + c * E_ij, i != j, as a table like ``symplectic_images``:
    x_i goes to x_i + c * x_j and d_j to d_j - c * d_i, and every other
    slot stays.  [d_j - c * d_i, x_i + c * x_j] = c - c = 0 and the other
    brackets are those of A_n.  The p-th powers are X_i + c^p * X_j and
    Xi_j + (-c)^p * Xi_i, and c^p = c in F_p, so the same table read on the
    centre is phi_Z: X -> A X, Xi -> A^(-T) Xi.  The inverse is
    ``elementary_images(n, i, j, -c)``."""
    images = [{slot: 1} for slot in range(2 * n)]
    images[i][j] = c
    images[n + j][n + i] = -c
    return images


def weyl_image(images, L):
    """phi(L) for the table ``images`` (``symplectic_images``,
    ``elementary_images``): each normal-ordered term c * x^a d^b of L goes
    to c * phi(x)^a * phi(d)^b, multiplied out in A_n."""
    F, n = L.ring, L.n
    gens = [
        sum(
            (WeylOp._gen(F, n, j).scale(F.from_int(a)) for j, a in image.items()),
            WeylOp.zero(F, n),
        )
        for image in images
    ]
    out = WeylOp.zero(F, n)
    for key, c in L.terms.items():
        term = WeylOp.constant(F, n, c)
        for g, k in zip(gens, key):
            term = term * g**k
        out = out + term
    return out


def center_image(images, f):
    """phi_Z(f) for the table ``images`` read on the variables of f: the
    variable at slot i goes to the sum of a * the variable at slot j over
    the entries j: a of images[i]."""
    ring = f.ring
    variables = ring.gens()
    gens = [
        sum((variables[j].scale(ring.coeffs.from_int(a)) for j, a in image.items()), ring.zero())
        for image in images
    ]
    out = ring.zero()
    for e, c in f.terms.items():
        term = ring.one().scale(c)
        for g, k in zip(gens, e):
            term = term * g**k
        out = out + term
    return out
