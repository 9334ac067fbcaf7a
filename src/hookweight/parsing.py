"""Parser for the canonical rational-function grammar.

Accepts variables ``x<k>``, integers, ``+ - * / ^ ( )``.  Juxtaposition
multiplies (so ``x2x3^2`` and ``2x1`` parse the way the canonical printer
writes them); ``*`` is also accepted.  ``/`` builds rational functions.
"""

from __future__ import annotations

import re

from .ratfunc import _DP_ONE, _MASK, ExponentOverflowError, Polynomial, RatFunc

__all__ = ["parse_ratfunc", "parse_polynomial", "ParseError"]


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(x\d+|\d+|[-+*/^()])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at position {pos}: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer with {len(digits)} digits is too long") from None


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def parse_expr(self) -> RatFunc:
        value = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term(self) -> RatFunc:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.take()
                rhs = self.parse_factor()
                value = value * rhs if tok == "*" else value / rhs
            elif tok is not None and (tok == "(" or tok.isdigit() or tok.startswith("x")):
                value = value * self.parse_factor()
            else:
                return value

    def parse_factor(self) -> RatFunc:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        value = self.parse_primary()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdigit():
                raise ParseError(f"expected integer exponent, got {exp_tok!r}")
            exp = _int(exp_tok)
            if exp > _MASK:
                raise ParseError(f"exponent {exp} exceeds {_MASK}")
            out = RatFunc.from_const(1)
            while exp:  # square and multiply
                if exp & 1:
                    out = out * value
                exp >>= 1
                if exp:
                    value = value * value
            value = out
        return value if sign == 1 else RatFunc.from_const(-1) * value

    def parse_primary(self) -> RatFunc:
        tok = self.take()
        if tok == "(":
            value = self.parse_expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return value
        if tok.isdigit():
            return RatFunc.from_const(_int(tok))
        if tok.startswith("x"):
            var = _int(tok[1:])
            if var < 1:
                raise ParseError(f"variable index must be positive, got {tok!r}")
            return RatFunc._from_atoms({("F", var - 1, 1): 1})
        raise ParseError(f"unexpected token {tok!r}")


def parse_ratfunc(text: str) -> RatFunc:
    parser = _Parser(_tokenize(text))
    try:
        value = parser.parse_expr()
    except ExponentOverflowError as exc:
        raise ParseError(str(exc)) from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.i}: {parser.peek()!r}")
    return value


def parse_polynomial(text: str) -> Polynomial:
    num, den = parse_ratfunc(text)._expand()
    if den != _DP_ONE:
        raise ParseError("expression is not a polynomial")
    return Polynomial._from_dict(num)
