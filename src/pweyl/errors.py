"""Exception hierarchy shared by every pweyl module."""


class PweylError(Exception):
    """Base class for all library errors."""


class RingMismatch(PweylError):
    """Arithmetic attempted between elements of different coefficient rings."""


class DimensionMismatch(PweylError):
    """Operands live in ambient spaces of different sizes."""


class NotUnit(PweylError):
    """Inversion of a non-invertible ring element."""


class DivisionByZero(PweylError):
    """Inversion or division by zero."""


class NotAField(PweylError):
    """A field-only algorithm was handed non-field coefficients."""


class NonGlobalOrder(PweylError):
    """A Groebner computation needs a global order (1 minimal) but got none."""


class ZeroInput(PweylError, ValueError):
    """An operation that is undefined on zero received zero."""


class NotDeformationDivisible(PweylError):
    """A commutator of central lifts had a coefficient not divisible by p.

    Cannot happen for correct lifts; raised to surface implementation bugs
    instead of silently dividing garbage.
    """


class BadPrime(PweylError):
    """Reduction mod p hit a denominator divisible by p."""

    def __init__(self, prime, denominator):
        self.prime = prime
        self.denominator = denominator
        super().__init__(
            f"cannot reduce mod {prime}: denominator {denominator} vanishes"
        )


class EmptySupport(PweylError):
    """Rank requested for a module whose central annihilator is the unit ideal."""


class NoPointsFound(PweylError):
    """Point sampling found no points on the support variety."""


class ParseError(PweylError):
    """Surface-syntax error; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class MixedAlphabets(ParseError):
    """Weyl variables (x/d) and twisted variables (X/Xi) in one expression."""


class IndexOutOfRange(ParseError):
    """Variable index outside 1..n."""
