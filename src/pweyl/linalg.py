"""Sparse exact linear algebra over a field ring: ``Echelon``, the package's
one sparse elimination, behind both ``rank`` and the truncated ladder's
kernel (``center.truncated_kernel``, which adds each central normal form
with its monomial as the combination).  The generic rank feeds ``rank`` the
rows that ``mpoly.CompiledRows`` evaluates at each sampled point.

A sparse vector is a dict {key: nonzero coefficient payload} of the given
ring, with comparable keys (column indices or exponent tuples); absent keys
are zero.  Everything is exact and deterministic.
"""


def _sub_scaled(out, c, vec, F):
    """out -= c * vec, in place, dropping zeros."""
    for k, v in vec.items():
        acc = out.get(k)
        acc = F.sub(acc, F.mul(c, v)) if acc is not None else F.neg(F.mul(c, v))
        if F.is_zero(acc):
            out.pop(k, None)
        else:
            out[k] = acc


class Echelon:
    """Sparse vectors over the field ``ring`` in echelon form, one ``add`` at a
    time: each kept vector is a pivot, 1 at its lowest key and filed there.

    ``add(vec, comb)`` reduces vec at its lowest key while a pivot sits there
    (the pivot is zero on every lower key, so the lowest key only rises),
    carrying the optional combination ``comb`` that vec stands for through
    the same steps.  A vector left nonzero is scaled and kept, and None is
    returned; a vanishing one returns its reduced combination.  Neither
    argument is modified: both are copied only when a pivot first reduces
    them, a kept vector is scaled into a new dict, and a zero vec returns
    ``comb`` itself.  Without ``comb`` no combination work is done.
    """

    def __init__(self, ring):
        self.ring = ring
        self.pivots = {}  # lowest key -> (vector, combination or None)

    def add(self, vec, comb=None):
        F, owned = self.ring, False
        while vec:
            low = min(vec)
            pivot, c = self.pivots.get(low), vec[low]
            if pivot is None:
                inv = F.inv(c)
                vec = {k: F.mul(inv, v) for k, v in vec.items()}
                if comb is not None:
                    comb = {k: F.mul(inv, v) for k, v in comb.items()}
                self.pivots[low] = (vec, comb)
                return None
            if not owned:  # the first reduction copies what it reduces
                vec, owned = dict(vec), True
                comb = None if comb is None else dict(comb)
            _sub_scaled(vec, c, pivot[0], F)
            if comb is not None:
                _sub_scaled(comb, c, pivot[1], F)
        return comb


def rank(rows, ring, ncols):
    """Rank over the field ``ring`` of sparse rows with columns in range(ncols),
    the pivot count of one ``Echelon`` fed the rows in turn.  The rows are
    not modified, and no row is read once the rank reaches ``ncols``."""
    echelon = Echelon(ring)
    for row in rows:
        echelon.add(row)
        if len(echelon.pivots) == ncols:
            break
    return len(echelon.pivots)
