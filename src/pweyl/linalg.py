"""Sparse exact linear algebra over a field ring: the rank of a row list.

A sparse vector is a dict {index: nonzero coefficient payload} of the given
ring; absent indices are zero.  Everything is exact and deterministic.
"""


def _sparse_rows(entries, value, K):
    """Rows {index: nonzero value} of sparse entry lists, each entry an
    (index, terms) pair evaluated by ``value`` (``mpoly.evaluator``)."""
    rows = []
    for row_entries in entries:
        row = {}
        for i, terms in row_entries:
            v = value(terms)
            if not K.is_zero(v):
                row[i] = v
        rows.append(row)
    return rows


def _sub_scaled(out, c, vec, F):
    """out -= c * vec, in place, dropping zeros."""
    for k, v in vec.items():
        acc = out.get(k)
        acc = F.sub(acc, F.mul(c, v)) if acc is not None else F.neg(F.mul(c, v))
        if F.is_zero(acc):
            out.pop(k, None)
        else:
            out[k] = acc


def rank(rows, ring, ncols):
    """Rank over the field ``ring`` of sparse rows with columns in range(ncols).

    Each row is reduced against a pivot map keyed by the lowest column of
    the rows kept so far: while the row's lowest column has a pivot, that
    pivot row is subtracted (it is 1 there and zero on every lower column,
    so the row's lowest column only rises); a row left nonzero is scaled
    to 1 at its lowest column and kept.  The rows are not modified, and
    no row is read once the rank reaches ``ncols``.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            low = min(row)
            pivot = pivots.get(low)
            if pivot is None:
                inv = ring.inv(row[low])
                pivots[low] = {k: ring.mul(inv, v) for k, v in row.items()}
                break
            _sub_scaled(row, row[low], pivot, ring)
        if len(pivots) == ncols:
            break
    return len(pivots)
