"""The one sparse echelon, ``linalg.Echelon``, and the rank built on it,
against the dense row-echelon and nullspace references."""

import random

import pytest

from pweyl.linalg import Echelon, rank
from pweyl.rings import Zmod, extension_field

from helpers import nullspace, random_coeff, rref

FIELDS = [Zmod(2), Zmod(3), Zmod(7)] + [
    extension_field(p, k) for p, k in ((2, 2), (3, 2), (2, 3), (3, 3))
]


def dense_rank(rows, F, ncols):
    return len(rref(rows or [[F.zero()] * ncols], F)[1])


def sparse(rows, F):
    return [{j: v for j, v in enumerate(row) if not F.is_zero(v)} for row in rows]


def combination(rows, F, rng):
    """A random linear combination of some of the rows."""
    out = [F.zero()] * len(rows[0])
    for row in rng.sample(rows, rng.randrange(1, len(rows) + 1)):
        c = random_coeff(F, rng)
        out = [F.add(a, F.mul(c, b)) for a, b in zip(out, row)]
    return out


def random_matrix(F, rng):
    """Rows with zero rows, repeated rows and dependent rows mixed in."""
    ncols = rng.randrange(1, 8)
    density = rng.choice((0.15, 0.4, 0.9))
    rows = [
        [random_coeff(F, rng, nonzero=True) if rng.random() < density else F.zero()
         for _ in range(ncols)]
        for _ in range(rng.randrange(1, 10))
    ]
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(3)
        if kind == 0:
            extra = [F.zero()] * ncols
        elif kind == 1:
            extra = list(rng.choice(rows))
        else:
            extra = combination(rows, F, rng)
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return rows, ncols


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_sparse_rank_matches_dense_reference(F):
    rng = random.Random(20261018)
    for _ in range(60):
        rows, ncols = random_matrix(F, rng)
        srows = sparse(rows, F)
        before = [dict(r) for r in srows]
        assert rank(srows, F, ncols) == dense_rank(rows, F, ncols)
        assert srows == before  # the rows are not modified


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_rank_edge_cases(F):
    one = F.one()
    assert rank([], F, 3) == 0
    assert rank([{}, {}, {}], F, 3) == 0  # all-zero matrix
    assert rank([{1: one}, {}, {1: one}, {1: F.add(one, one)}], F, 3) == 1
    assert rank([{0: one, 2: one}, {1: one}, {0: one, 1: one, 2: one}], F, 3) == 2


def test_no_row_is_read_after_full_rank():
    F = Zmod(7)
    read = []

    def rows():
        # a zero row, a repeated row, then a third independent row: full
        # rank 3 is reached at the fifth row, and the sixth is never read
        for row in ({}, {0: 2, 2: 5}, {0: 2, 2: 5}, {1: 3}, {0: 1, 1: 1, 2: 1}, {2: 4}):
            read.append(row)
            yield row

    assert rank(rows(), F, 3) == 3
    assert len(read) == 5


@pytest.mark.parametrize("F", FIELDS, ids=str)
@pytest.mark.parametrize("keyed", (False, True), ids=("int_keys", "tuple_keys"))
def test_echelon_combination_is_the_dense_nullspace_vector(F, keyed):
    # the columns of a random matrix, added in turn with the combination
    # {j: 1}: each vanishing column j returns the canonical nullspace vector
    # of free column j, on int keys and on exponent-tuple keys alike
    rng = random.Random(20261019)
    for _ in range(40):
        rows, ncols = random_matrix(F, rng)
        # tuple keys (i % 3, i // 3) put the rows in another order than i
        keys = [(i % 3, i // 3) if keyed else i for i in range(len(rows))]
        echelon, got = Echelon(F), []
        for j in range(ncols):
            col = {k: row[j] for k, row in zip(keys, rows) if not F.is_zero(row[j])}
            comb = echelon.add(col, {j: F.one()})
            if comb is not None:
                got.append([comb.get(i, F.zero()) for i in range(ncols)])
        assert got == nullspace(rows, F)


def test_echelon_add_modifies_neither_argument():
    # the second vector vanishes and the others are kept, with and without
    # a combination
    F = Zmod(5)
    with_comb, without = Echelon(F), Echelon(F)
    for j, vec in enumerate(({(0, 1): 2, (1, 0): 3}, {(0, 1): 4, (1, 0): 1}, {(1, 0): 3})):
        comb = {j: 1}
        before = (dict(vec), dict(comb))
        assert (with_comb.add(vec, comb) is None) == (j != 1)
        assert without.add(vec) is None
        assert (vec, comb) == before
    assert len(with_comb.pivots) == len(without.pivots) == 2
