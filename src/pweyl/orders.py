"""Monomial orders on exponent tuples, plus module orders on (position, monomial).

Every order exposes ``key(exponents) -> sortable`` such that the usual tuple
comparison of keys realises the order (bigger key = bigger monomial).  All
orders here are total and multiplicative; ``is_global`` reports whether the
constant monomial is minimal, which Buchberger-type algorithms require.
"""

from dataclasses import dataclass, field


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


@dataclass(frozen=True)
class Lex:
    def key(self, e):
        return tuple(e)

    @property
    def is_global(self):
        return True


@dataclass(frozen=True)
class GrevLex:
    def key(self, e):
        return _grevlex_key(e)

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

    @property
    def is_global(self):
        return all(w >= 0 for w in self.weights) and self.tie.is_global


@dataclass(frozen=True)
class PositionOverTerm:
    """Module order: lower positions dominate, ties by the base order."""

    base: object = field(default_factory=GrevLex)

    def key(self, pos, e):
        return (-pos, self.base.key(e))


def monomial_divides(u, v):
    """Componentwise u <= v."""
    return all(a <= b for a, b in zip(u, v))


def monomial_lcm(u, v):
    return tuple(max(a, b) for a, b in zip(u, v))


def monomial_mul(u, v):
    return tuple(a + b for a, b in zip(u, v))


def monomial_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))
