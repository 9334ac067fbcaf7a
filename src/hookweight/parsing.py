"""Parser for the canonical rational-function grammar.

Accepts variables ``x<k>``, integers, ``+ - * / ^ ( )``.  Juxtaposition
multiplies (so ``x2x3^2`` and ``2x1`` parse the way the canonical printer
writes them); ``*`` is also accepted.  ``/`` builds rational functions.

Monomials and sums of monomials, which is all a printed numerator or
denominator holds, are built without ``RatFunc`` arithmetic.  A monomial
is a pair ``(coeff, {var: exp})``: integers, variables, ``^`` and products
of them.  Its exponents and variable indices stay unpacked, so a lone
``x3000000`` costs nothing.  A sum of monomials is one packed dict
``{key: coeff}``, updated in place term by term, so parsing a sum takes
time linear in its length.  A value becomes a ``RatFunc`` at ``)``, at
``/``, next to a ``RatFunc`` operand or at the end of input: a monomial by
its atoms, a sum by ``RatFunc._normalized``.  Without hint atoms that is a
canonical function of the polynomial, the same fields that a chain of
``RatFunc._add`` calls reaches.  Quotients, powers of parenthesised values
and sums with a ``RatFunc`` operand use ``RatFunc`` arithmetic, and so does
a sum with a monomial that no packed key holds: an exponent above 65535,
or a variable above ``ratfunc.MAX_PACKED_VAR``, which ends in a
``ParseError``.

``MAX_PACKED_VAR`` bounds one key, and ``MAX_SUM_KEY_BITS`` bounds them
all: every term of every sum in the expression counts, before it joins
the sum, the bits of its packed key, or when ``RatFunc`` arithmetic adds
it, 16 bits per index of its largest variable, at least the bits of any
key that the arithmetic packs for it.  A total above ``MAX_SUM_KEY_BITS``
is a ``ParseError``.  Without it each term of a sum in large variables
packs its own key of up to 8 MiB.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .ratfunc import (_DP_ONE, _MASK, _SHIFT, MAX_PACKED_VAR,
                      ExponentOverflowError, Polynomial, RatFunc,
                      _atom_last_var, _dp_acc, _last_var, _mono_pack)

__all__ = ["parse_ratfunc", "parse_polynomial", "ParseError"]

# Each level of parentheses costs four stack frames of the recursive
# descent, so this stays well below Python's default recursion limit.
MAX_NESTING = 100

# The bits that the terms of all the sums in one expression may count
# together: two keys in x_MAX_PACKED_VAR, 16 MiB.
MAX_SUM_KEY_BITS = 1 << 27


class ParseError(ValueError):
    pass


# A monomial (coeff, {var: exp}), a packed sum {key: coeff} of two or more
# monomials, or a RatFunc.
_Value = Union[tuple, dict, RatFunc]

_TOKEN = re.compile(r"\s*(?:(x\d+|\d+|[-+*/^()])|(\S))")


def _tokenize(text: str) -> list[str | None]:
    """The tokens of ``text``, then None for the end of input."""
    tokens: list[str | None] = []
    for m in _TOKEN.finditer(text):
        if m.group(2) is not None:
            pos = m.start()
            raise ParseError(f"bad character at position {pos}: {text[pos:]!r}")
        tokens.append(m.group(1))
    tokens.append(None)
    return tokens


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer with {len(digits)} digits is too long") from None


def _ratfunc(value: _Value) -> RatFunc:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, dict):
        return RatFunc._normalized(Fraction(1), value, {})
    c, exps = value
    return RatFunc._from_atoms({("F", v - 1, 1): e for v, e in exps.items()}, c)


def _key_bits(term: Union[tuple, RatFunc]) -> int:
    """16 bits per index of the largest variable of a monomial or RatFunc
    term.  A variable beyond MAX_PACKED_VAR counts 0, because packing it
    raises at once."""
    if isinstance(term, tuple):
        top = max(term[1], default=0)
    else:
        top = max([_last_var(max(term._num, default=0)),
                   *map(_atom_last_var, term._fac)])
    return _SHIFT * top if top <= MAX_PACKED_VAR else 0


def _neg(value: _Value) -> _Value:
    if isinstance(value, tuple):
        return -value[0], value[1]
    return -value


def _times(value: _Value, rhs: _Value) -> _Value:
    if isinstance(value, tuple) and isinstance(rhs, tuple):
        return value[0] * rhs[0], _dp_acc(dict(value[1]), rhs[1].items())
    return _ratfunc(value) * _ratfunc(rhs)


def _power(value: _Value, exp: int) -> _Value:
    if isinstance(value, tuple):
        return value[0] ** exp, {v: e * exp for v, e in value[1].items()}
    out = RatFunc.from_const(1)
    while exp:  # square and multiply
        if exp & 1:
            out = out * value
        exp >>= 1
        if exp:
            value = value * value
    return out


class _Parser:
    def __init__(self, tokens: list[str | None]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.key_bits = 0  # counted by the terms of sums so far

    def peek(self) -> str | None:
        return self.tokens[self.i]

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def parse_expr(self) -> _Value:
        value = self.parse_term()
        if isinstance(value, RatFunc) and self.peek() in ("+", "-"):
            self.count(_key_bits(value))
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_term()
            value = self.plus(value, rhs if op == "+" else _neg(rhs))
        return value

    def plus(self, value: _Value, rhs: _Value) -> _Value:
        """value + rhs; a packed sum ``value`` is updated in place.  A term
        counts before it joins: a monomial first term or ``rhs``, and a
        ``RatFunc`` first term in ``parse_expr``."""
        try:
            if isinstance(value, tuple) and isinstance(rhs, tuple):
                key = _mono_pack(value[1])
                self.count(key.bit_length())
                value = {key: value[0]} if value[0] else {}
            if isinstance(value, dict) and isinstance(rhs, tuple):
                key = _mono_pack(rhs[1])
                self.count(key.bit_length())
                return _dp_acc(value, ((key, rhs[0]),))
        except ExponentOverflowError:  # no packed key holds the monomial
            pass
        self.count(_key_bits(rhs) + (_key_bits(value)
                                     if isinstance(value, tuple) else 0))
        return _ratfunc(value) + _ratfunc(rhs)

    def count(self, bits: int) -> None:
        self.key_bits += bits
        if self.key_bits > MAX_SUM_KEY_BITS:
            raise ParseError(f"the sums need more than {MAX_SUM_KEY_BITS} "
                             f"bits of packed monomials (at token {self.i})")

    def parse_term(self) -> _Value:
        value = self.parse_factor()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.take()
                rhs = self.parse_factor()
                if tok == "*":
                    value = _times(value, rhs)
                else:
                    value = _ratfunc(value) / _ratfunc(rhs)
            elif tok is not None and (tok == "(" or tok.isdigit() or tok.startswith("x")):
                value = _times(value, self.parse_factor())
            else:
                return value

    def parse_factor(self) -> _Value:
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
            value = _power(value, exp)
        return value if sign == 1 else _neg(value)

    def parse_primary(self) -> _Value:
        tok = self.take()
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels")
            self.depth += 1
            value = self.parse_expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            self.depth -= 1
            return _ratfunc(value)
        if tok.isdigit():
            return _int(tok), {}
        if tok.startswith("x"):
            var = _int(tok[1:])
            if var < 1:
                raise ParseError(f"variable index must be positive, got {tok!r}")
            return 1, {var: 1}
        raise ParseError(f"unexpected token {tok!r}")


def parse_ratfunc(text: str) -> RatFunc:
    parser = _Parser(_tokenize(text))
    try:
        value = _ratfunc(parser.parse_expr())
    except ExponentOverflowError as exc:
        raise ParseError(str(exc)) from None
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.i}: {parser.peek()!r}")
    return value


def parse_polynomial(text: str) -> Polynomial:
    try:
        num, den = parse_ratfunc(text)._expand()
    except ExponentOverflowError as exc:
        raise ParseError(str(exc)) from None
    if den != _DP_ONE:
        raise ParseError("expression is not a polynomial")
    return Polynomial._from_dict(num)
