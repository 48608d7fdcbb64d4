"""Monomial orders on exponent tuples.

Every order exposes ``key(exponents) -> sortable`` such that the usual tuple
comparison of keys realises the order (bigger key = bigger monomial), and
``desc_key(exponents)``, whose ascending order is the order's descending one
(smaller key = bigger monomial): a min-heap of desc keys pops the leading
term first.  All orders here are total and multiplicative; ``is_global``
reports whether the constant monomial is minimal, which Buchberger-type
algorithms require.  The engine's one order on (position, exponents) terms
is written where it is used, in ``cgb._eliminate_onto``.
"""

from dataclasses import dataclass, field
from operator import le, neg


def _grevlex_key(e):
    return (sum(e), tuple(map(neg, reversed(e))))


def _grevlex_desc_key(e):
    return (-sum(e), e[::-1])


@dataclass(frozen=True)
class Lex:
    def key(self, e):
        return tuple(e)

    def desc_key(self, e):
        return tuple(map(neg, e))

    @property
    def is_global(self):
        return True


@dataclass(frozen=True)
class GrevLex:
    def key(self, e):
        return _grevlex_key(e)

    def desc_key(self, e):
        return _grevlex_desc_key(e)

    @property
    def is_global(self):
        return True


@dataclass(frozen=True)
class BlockElimination:
    """Two grevlex blocks; the tail block (positions >= split) dominates.

    Any monomial touching the tail block exceeds every monomial supported on
    the head block alone, so basis elements whose leading term avoids the
    tail block generate the ideal's intersection with the head subring.
    """

    split: int

    def key(self, e):
        return (_grevlex_key(e[self.split :]), _grevlex_key(e[: self.split]))

    def desc_key(self, e):
        return (_grevlex_desc_key(e[self.split :]), _grevlex_desc_key(e[: self.split]))

    @property
    def is_global(self):
        return True


@dataclass(frozen=True)
class Weighted:
    """Weight-vector order refined by a tie-break order."""

    weights: tuple
    tie: object = field(default_factory=GrevLex)

    def key(self, e):
        w = sum(wi * ei for wi, ei in zip(self.weights, e))
        return (w, self.tie.key(e))

    def desc_key(self, e):
        w = sum(wi * ei for wi, ei in zip(self.weights, e))
        return (-w, self.tie.desc_key(e))

    @property
    def is_global(self):
        return all(w >= 0 for w in self.weights) and self.tie.is_global


def monomial_divides(u, v):
    """Componentwise u <= v."""
    return all(map(le, u, v))


def monomial_lcm(u, v):
    return tuple(map(max, u, v))
