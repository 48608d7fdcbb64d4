"""The two monomial orders on exponent tuples: grevlex, and weights then
grevlex.

Grevlex is the order of every ideal (``CIdeal``, ``LeftIdeal``), of I cap Z
on both routes and of every dimension read; ``GREVLEX`` is its one instance.
The weight order with 0 on each x_i and 1 on each d_i gives the symbol ideal
of ``psupport.characteristic_variety``, through ``wgb.left_groebner``, the
one entry that takes an order.

Every order exposes ``key(exponents) -> sortable`` such that the usual tuple
comparison of keys realises the order (bigger key = bigger monomial), and
``desc_key(exponents)``, whose ascending order is the order's descending one
(smaller key = bigger monomial): a min-heap of desc keys pops the leading
term first.  Both orders are total and multiplicative; ``is_global``
reports whether the constant monomial is minimal, which Buchberger-type
algorithms require.  The engine's one order on (position, exponents) terms
is written where it is used, in ``cgb._eliminate_onto``.
"""

from dataclasses import dataclass
from operator import le, neg


@dataclass(frozen=True)
class GrevLex:
    def key(self, e):
        return (sum(e), tuple(map(neg, reversed(e))))

    def desc_key(self, e):
        return (-sum(e), e[::-1])

    @property
    def is_global(self):
        return True


GREVLEX = GrevLex()


@dataclass(frozen=True)
class Weighted:
    """Weight-vector order, ties broken by grevlex.  A block of zero weights
    beside positive ones eliminates the positive block: a monomial touching
    it exceeds every monomial on the zero block alone."""

    weights: tuple

    def key(self, e):
        w = sum(wi * ei for wi, ei in zip(self.weights, e))
        return (w, GREVLEX.key(e))

    def desc_key(self, e):
        w = sum(wi * ei for wi, ei in zip(self.weights, e))
        return (-w, GREVLEX.desc_key(e))

    @property
    def is_global(self):
        return all(w >= 0 for w in self.weights)


def monomial_divides(u, v):
    """Componentwise u <= v."""
    return all(map(le, u, v))


def monomial_lcm(u, v):
    return tuple(map(max, u, v))
