"""Expression DSL for phase-space polynomials.

Grammar::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' uint)?
    base   := uint | identifier | '(' expr ')' | '-' base

Identifiers are the canonical variables (q1..qD, p1..pD, with x_i as an
alias for q_i) or bound parameters, which are substituted by their exact
rational values while parsing.  A '/' denominator must evaluate to a nonzero
constant; general rational functions are rejected.
"""

from __future__ import annotations

from fractions import Fraction

from .context import PhaseContext
from .errors import DegreeBudgetError, DivisionError, ParseError, UnboundIdentifierError
from .poly import PhasePoly

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: PhaseContext):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str) -> None:
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", at)
        self.advance()

    def parse(self) -> PhasePoly:
        result = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", at)
        return result

    def expr(self) -> PhasePoly:
        result = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self) -> PhasePoly:
        result = self.factor()
        while True:
            kind, value, at = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                if value == "*":
                    result = result * rhs
                else:
                    if not rhs.is_constant():
                        raise DivisionError("division by a non-constant expression", at)
                    den = rhs.constant_value()
                    if den == 0:
                        raise DivisionError("division by zero", at)
                    result = result * (Fraction(1) / den)
            else:
                return result

    def factor(self) -> PhasePoly:
        result = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            ekind, etext, eat = self.peek()
            if ekind != "num":
                raise ParseError("expected a nonnegative integer exponent", eat)
            self.advance()
            exponent = int(etext)
            budget = self.ctx.max_degree
            if exponent > budget:
                raise DegreeBudgetError(
                    f"exponent {exponent} exceeds max degree {budget} (at position {eat})"
                )
            deg = result.total_degree()
            if deg > 0 and deg * exponent > budget:
                raise DegreeBudgetError(
                    f"power of degree {deg * exponent} exceeds max degree {budget}"
                    f" (at position {eat})"
                )
            result = result**exponent
        return result

    def base(self) -> PhasePoly:
        kind, value, at = self.advance()
        if kind == "num":
            return PhasePoly.constant(self.ctx, int(value))
        if kind == "ident":
            idx = self.ctx.var_index(value)
            if idx is not None:
                return PhasePoly.variable(self.ctx, value)
            bound = self.ctx.parameter(value)
            if bound is not None:
                return PhasePoly.constant(self.ctx, bound)
            raise UnboundIdentifierError(f"unbound identifier {value!r}", at)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            # '-' binds looser than '^' so that "-q1^2" means -(q1^2).
            return -self.factor()
        raise ParseError(f"expected a value, found {value!r}" if value else "unexpected end of input", at)


def parse_expression(text: str, ctx: PhaseContext) -> PhasePoly:
    """Parse DSL text into a canonical polynomial, substituting parameters."""
    return _Parser(text, ctx).parse()
