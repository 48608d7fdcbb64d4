"""Surface syntax for operators and twisted polynomials.

Two disjoint alphabets: x1..xn, d1..dn build Weyl operators (normal
ordering applied by the arithmetic itself, so "d1*x1" parses to x1*d1 + 1);
X1..Xn, Xi1..Xin build commutative polynomials of the twisted cotangent
ring.  Mixing the alphabets in one expression is rejected.  Literals are
integers or fractions a/b; operators are + - * ^ with ^ binding tightest
and right-associative; juxtaposition is not multiplication.
"""

from fractions import Fraction

from .errors import IndexOutOfRange, MixedAlphabets, NotUnit, ParseError
from .mpoly import PolyRing
from .rings import QQ
from .weyl import WeylOp
from .center import twisted_names

_SYMBOLS = set("+-*^()/")

# exponents beyond this are rejected rather than evaluated; keeps hostile
# input like 9^9^9^9 from allocating unbounded integers or term lists
EXPONENT_LIMIT = 4096


# ASCII-only classes: str.isdigit/isalpha admit Unicode characters that
# int() and the variable table reject
_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _int(digits, pos):
    """int(digits), or ParseError past Python's cap on integer-string digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long", pos) from None


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(("num", _int(text[i:j], i), i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < len(text) and text[j] in _LETTERS:
                j += 1
            k = j
            while k < len(text) and text[k] in _DIGITS:
                k += 1
            tokens.append(("name", (text[i:j], text[j:k]), i))
            i = k
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, len(text)))
    return tokens


_VAR_KINDS = {"x": "weyl", "d": "weyl", "X": "twisted", "Xi": "twisted"}


class _Parser:
    def __init__(self, text, n):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.kinds = set()

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self):
        # one recursion per nesting level (parentheses, exponent towers); the
        # tree is shallower, so _evaluate stays within what the descent reached
        try:
            node = self.expr()
        except RecursionError:
            raise ParseError("expression nests too deeply", self.peek()[2]) from None
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        return node

    def expr(self):
        return self.chain(self.term, ("+", "-"))

    def term(self):
        return self.chain(self.factor, ("*",))

    def chain(self, operand, ops):
        """operand (op operand)*: one node, which _evaluate folds in a loop."""
        node, rest = operand(), []
        while self.peek()[0] in ops:
            rest.append((self.advance()[0], operand()))
        return ("chain", node, rest) if rest else node

    def factor(self):
        negate = False
        while self.peek()[0] in ("+", "-"):
            if self.advance()[0] == "-":
                negate = not negate
        node = self.power()
        return ("neg", node) if negate else node

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = ("pow", node, self.exponent())
        return node

    def exponent(self):
        tok = self.expect("num")
        k = tok[1]
        if k > EXPONENT_LIMIT:
            raise ParseError(f"exponent {k} exceeds the limit {EXPONENT_LIMIT}", tok[2])
        if self.peek()[0] == "^":  # right-associative exponent towers
            self.advance()
            k = k ** self.exponent()
            if k > EXPONENT_LIMIT:
                raise ParseError(
                    f"exponent tower exceeds the limit {EXPONENT_LIMIT}", tok[2]
                )
        return k

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "num":
            if self.peek()[0] == "/":
                self.advance()
                den_tok = self.expect("num")
                if den_tok[1] == 0:
                    raise ParseError("zero denominator", den_tok[2])
                return ("lit", Fraction(value, den_tok[1]), pos)
            return ("lit", Fraction(value), pos)
        if kind == "name":
            letters, digits = value
            if letters not in _VAR_KINDS:
                raise ParseError(f"unknown symbol {letters!r}", pos)
            if not digits:
                raise ParseError(f"variable {letters!r} needs an index", pos)
            index = _int(digits, pos)
            if not 1 <= index <= self.n:
                raise IndexOutOfRange(
                    f"index {index} outside 1..{self.n} for {letters}{digits}", pos
                )
            self.kinds.add(_VAR_KINDS[letters])
            return ("var", letters, index - 1, pos)
        if kind == "(":
            node = self.expr()
            tok = self.advance()
            if tok[0] != ")":
                raise ParseError("expected ')'", tok[2])
            return node
        raise ParseError(f"unexpected {kind!r}", pos)


class _WeylBuilder:
    def __init__(self, ring, n):
        self.ring, self.n = ring, n

    def lit(self, q, pos):
        try:
            return WeylOp.constant(self.ring, self.n, self.ring.from_fraction(q))
        except NotUnit:
            raise ParseError(f"literal {q} has no meaning in {self.ring}", pos) from None

    def var(self, letters, idx):
        if letters == "x":
            return WeylOp.x(self.ring, self.n, idx)
        return WeylOp.d(self.ring, self.n, idx)


class _TwistedBuilder:
    def __init__(self, ring, n):
        self.ring, self.n = ring, n

    def lit(self, q, pos):
        try:
            return self.ring.constant(self.ring.coeffs.from_fraction(q))
        except NotUnit:
            raise ParseError(f"literal {q} has no meaning in {self.ring.coeffs}", pos) from None

    def var(self, letters, idx):
        return self.ring.gen(idx if letters == "X" else self.n + idx)


def _evaluate(node, builder):
    tag = node[0]
    if tag == "lit":
        return builder.lit(node[1], node[2])
    if tag == "var":
        return builder.var(node[1], node[2])
    if tag == "neg":
        return -_evaluate(node[1], builder)
    if tag == "pow":
        return _evaluate(node[1], builder) ** node[2]
    acc = _evaluate(node[1], builder)
    for op, rhs in node[2]:
        rhs = _evaluate(rhs, builder)
        acc = acc + rhs if op == "+" else acc - rhs if op == "-" else acc * rhs
    return acc


def parse_operator(text, n, coeff_ring=QQ, expect=None):
    """Parse into a WeylOp (x/d alphabet) or twisted MPoly (X/Xi alphabet).

    ``expect`` forces "weyl" or "twisted"; constants alone default to the
    expected alphabet, or to a Weyl operator when nothing is expected.
    """
    if n < 1:
        raise ValueError("need n >= 1 variables")
    parser = _Parser(text, n)
    ast = parser.parse()
    if len(parser.kinds) == 2:
        raise MixedAlphabets("expression mixes Weyl (x/d) and twisted (X/Xi) variables")
    found = next(iter(parser.kinds)) if parser.kinds else None
    if expect is not None and found is not None and found != expect:
        raise MixedAlphabets(f"expected {expect} alphabet, found {found}")
    target = expect or found or "weyl"
    if target == "weyl":
        builder = _WeylBuilder(coeff_ring, n)
    else:
        builder = _TwistedBuilder(PolyRing(coeff_ring, twisted_names(n)), n)
    return _evaluate(ast, builder)


def parse_weyl(text, n, coeff_ring=QQ):
    return parse_operator(text, n, coeff_ring, expect="weyl")


def parse_twisted(text, n, coeff_ring):
    return parse_operator(text, n, coeff_ring, expect="twisted")
