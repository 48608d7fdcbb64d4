"""Dense exact linear algebra over a field ring (row-echelon form and rank).

Matrices are lists of rows; rows are lists of coefficient payloads of the
given ring.  Everything is deterministic: pivots are chosen left to right,
top to bottom, so echelon forms are canonical.
"""


def rref(rows, ring):
    """Reduced row-echelon form; returns (new rows, pivot column list)."""
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


def rank(rows, ring):
    return len(rref(rows, ring)[1])
