"""Parser for the canonical rational-function grammar.

Accepts variables ``x<k>``, integers, ``+ - * / ^ ( )``.  Juxtaposition
multiplies (so ``x2x3^2`` and ``2x1`` parse the way the canonical printer
writes them); ``*`` is also accepted.  ``/`` builds rational functions.
Juxtaposition binds as ``*`` and ``/`` do, from the left, so ``1/2x1`` is
x1/2.

Monomials and sums of monomials, which is all a printed numerator or
denominator holds, are built without ``RatFunc`` arithmetic.  A monomial
is a pair ``(coeff, {var: exp})``: integers, variables, ``^`` and products
of them.  The tokenizer reads a whole juxtaposed monomial such as
``3x2^3x5`` in one regular-expression match and builds its pair there, so
the recursive descent runs once per monomial (see ``_TOKEN`` for how the
grammar still binds as it would token by token).  A monomial's exponents
and variable indices stay unpacked, so a lone ``x3000000`` costs nothing.
A sum of monomials is one packed dict ``{key: coeff}``, updated in place
term by term, so parsing a sum takes time linear in its length.  A value
becomes a ``RatFunc`` at ``)``, at ``/``, next to a ``RatFunc`` operand or
at the end of input: a monomial by its atoms, a sum by
``RatFunc._normalized``.  Without hint atoms that is a canonical function
of the polynomial, the same fields that a chain of ``RatFunc._add`` calls
reaches.  Quotients, powers of parenthesised values
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
                      _atom_last_var, _dp_acc, _last_var, _mono_pack,
                      _power as _square_and_multiply)

__all__ = ["parse_ratfunc", "parse_polynomial", "ParseError"]

# Each level of parentheses costs three stack frames of the recursive
# descent (sum, term, factor), so this stays well below Python's default
# recursion limit.
MAX_NESTING = 100

# The bits that the terms of all the sums in one expression may count
# together: two keys in x_MAX_PACKED_VAR, 16 MiB.
MAX_SUM_KEY_BITS = 1 << 27


class ParseError(ValueError):
    pass


# A monomial (coeff, {var: exp}), a packed sum {key: coeff} of two or more
# monomials, or a RatFunc.
_Value = Union[tuple, dict, RatFunc]

# One match reads a token.  A monomial such as 3x2^3x5 is one token: atoms,
# each an integer or a variable with an optional exponent.  Every digit run
# is read whole, so backtracking never splits x12 into x1 and 2 (a (?!\d)
# guard does what an atomic group would, which needs Python 3.11).  An atom
# that a spaced or repeated ^ follows ends the monomial and is read alone,
# so that the ^ takes just it: 2x1 ^2 is 2 times x1^2.  A ^ reads its
# integer exponent with it, so (x1+x2)^5x3 is (x1+x2)^5 times x3.
_ATOM = r"(?:x\d+|\d+)(?!\d)(?:\^\d+(?!\d))?(?!\s*\^)"
_TOKEN = re.compile(rf"\s*(?:((?:{_ATOM})+|x\d+|\d+)|\^\s*(\d*)"
                    r"|([-+*/()])|(\S))")
_FIRST_ATOM = re.compile(r"(?:x\d+|\d+)(?:\^\d+)?")


def _tokenize(text: str) -> list:
    """The tokens of ``text``, then None for the end of input: a monomial
    (coeff, {var: exp}), "^" followed by its exponent, or an operator.
    After / and its signs the first atom of a monomial is a token of its
    own, so that 1/2x1 is x1/2 as juxtaposition binds."""
    tokens: list = []
    divisor = False  # the next monomial follows / and its signs
    for m in _TOKEN.finditer(text):
        kind = m.lastindex  # the one group that matched
        if kind == 1:
            mono = m[1]
            cut = _FIRST_ATOM.match(mono).end() if divisor else len(mono)
            tokens.append(_monomial(mono[:cut]))
            if cut < len(mono):
                tokens.append(_monomial(mono[cut:]))
            divisor = False
        elif kind == 2:
            if not m[2]:
                raise ParseError(f"expected integer exponent at position "
                                 f"{m.start()}: {text[m.start():]!r}")
            tokens += ("^", _exponent(m[2]))
            divisor = False
        elif kind == 3:
            op = m[3]
            tokens.append(op)
            divisor = op == "/" or divisor and op in "+-"
        else:
            pos = m.start()
            raise ParseError(f"bad character at position {pos}: {text[pos:]!r}")
    tokens.append(None)
    return tokens


def _monomial(text: str) -> tuple:
    """(coeff, {var: exp}) of a monomial token such as 3x2^3x5."""
    head, *factors = text.split("x")
    try:
        coeff = 1
        if head:
            digits, _, exp = head.partition("^")
            coeff = int(digits) ** _exponent(exp) if exp else int(digits)
        exps: dict = {}
        for factor in factors:
            digits, _, exp = factor.partition("^")
            var = int(digits)
            if var < 1:
                raise ParseError(f"variable index must be positive, got 'x{digits}'")
            exps[var] = exps.get(var, 0) + (_exponent(exp) if exp else 1)
    except ParseError:
        raise
    except ValueError:  # more digits than int() converts
        longest = max(map(len, re.findall(r"\d+", text)))
        raise ParseError(f"integer with {longest} digits is too long") from None
    return coeff, exps


def _exponent(digits: str) -> int:
    try:
        exp = int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"integer with {len(digits)} digits is too long") from None
    if exp > _MASK:
        raise ParseError(f"exponent {exp} exceeds {_MASK}")
    return exp


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
    return _square_and_multiply(value, exp, RatFunc.from_const(1))


class _Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.key_bits = 0  # counted by the terms of sums so far

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def parse_expr(self) -> _Value:
        value = self.parse_term()
        if isinstance(value, RatFunc) and self.peek() in ("+", "-"):
            self.count(_key_bits(value))
        while (op := self.peek()) in ("+", "-"):
            self.i += 1
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
            if tok == "*":
                self.i += 1
                value = _times(value, self.parse_factor())
            elif tok == "/":
                self.i += 1
                value = _ratfunc(value) / _ratfunc(self.parse_factor())
            elif tok == "(" or type(tok) is tuple:  # juxtaposition
                value = _times(value, self.parse_factor())
            else:
                return value

    def parse_factor(self) -> _Value:
        sign = 1
        while (tok := self.take()) in ("+", "-"):
            if tok == "-":
                sign = -sign
        if type(tok) is tuple:
            value = tok
        elif tok == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING} levels")
            self.depth += 1
            value = self.parse_expr()
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            self.depth -= 1
            value = _ratfunc(value)
        else:
            raise ParseError(f"unexpected token {tok!r}")
        if self.peek() == "^":  # the tokenizer put its exponent next
            value = _power(value, self.tokens[self.i + 1])
            self.i += 2
        return value if sign == 1 else _neg(value)


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
