"""Parser for the canonical rational-function grammar.

Accepts variables ``x<k>``, integers, ``+ - * / ^ ( )``, with ASCII digits
and spaces only.  Juxtaposition multiplies (so ``x2x3^2`` and ``2x1``
parse the way the canonical printer writes them); ``*`` is also accepted.
``/`` builds rational functions.  Juxtaposition binds as ``*`` and ``/``
do, from the left, so ``1/2x1`` is x1/2.

Monomials and sums of monomials, which is all a printed numerator or
denominator holds, are built without ``RatFunc`` arithmetic.  A monomial
is a pair ``(coeff, cell)`` of integers, variables, ``^`` and products of
them: a cell is a list ``[{var: exp}, key]``, its exponents and its
packed key, which is None until a sum packs it.  The tokenizer reads a
whole juxtaposed monomial such as ``3x2^3x5`` in one regular-expression
match and builds its pair there, so the recursive descent runs once per
monomial (see ``_TOKEN`` for how the grammar still binds as it would
token by token).

No token but an operator holds one of ``+-*/()``, and no match of
``_TOKEN`` looks past one, so the tokenizer splits the text on them with
one ``re.split`` and reads each chunk between two operators by itself.
Each distinct chunk is read once per process: ``_CHUNKS`` keeps its
tokens, keyed by the chunk and whether it follows ``/`` and its signs,
which decides how its first monomial splits.  A chunk that raises is
never kept, and a ``ParseError`` counts its position from the start of the
whole text and quotes the rest of the whole text, as one pass over the
text would.

Each distinct variable text, ``x2^3x5`` of ``3x2^3x5``, is read once per
process: ``_MONOS`` keeps its cell, and the next token with that text gets
the same cell.  Packing is lazy: the first sum that packs a monomial
stores its key in the cell, next to the exponents, and a later sum reads
it from there.  Products, powers and ``RatFunc`` atoms read only the
exponents.  So a lone or multiplied ``x3000000`` is never packed and
costs nothing.  A cell whose key would pass 64 kB, past x32000 or so, is
never kept, so no one monomial takes the memo.  A shared cell's exponents
dict is never changed: a product or a power of monomials builds a new
cell.

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
the sum, the bits of its packed key, whether packed now or read from its
cell, or when ``RatFunc`` arithmetic adds it, 16 bits per index of its
largest variable, at least the bits of any key that the arithmetic packs
for it.  A total above ``MAX_SUM_KEY_BITS`` is a ``ParseError``.  Without
it each term of a sum in large variables packs its own key of up to 8 MiB.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .combinat import _Memo
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


# A monomial (coeff, cell), a packed sum {key: coeff} of two or more
# monomials, or a RatFunc.
_Value = Union[tuple, dict, RatFunc]

# One match reads a token.  A monomial such as 3x2^3x5 is one token: atoms,
# each an integer or a variable with an optional exponent.  Every digit run
# is read whole, so backtracking never splits x12 into x1 and 2 (a (?!\d)
# guard does what an atomic group would, which needs Python 3.11).  An atom
# that a spaced or repeated ^ follows ends the monomial and is read alone,
# so that the ^ takes just it: 2x1 ^2 is 2 times x1^2.  A ^ reads its
# integer exponent with it, so (x1+x2)^5x3 is (x1+x2)^5 times x3.  Digits
# and spaces are ASCII only: int() would read any Unicode digit.
_ATOM = r"(?:x\d+|\d+)(?!\d)(?:\^\d+(?!\d))?(?!\s*\^)"
_TOKEN = re.compile(rf"\s*(?:((?:{_ATOM})+|x\d+|\d+)|\^\s*(\d*)"
                    r"|([-+*/()])|(\S))", re.ASCII)
_FIRST_ATOM = re.compile(r"(?:x\d+|\d+)(?:\^\d+)?", re.ASCII)

# The cell of each distinct variable text of a monomial token, x2^3x5 of
# 3x2^3x5, so that each text is read once per process (see the module
# docstring); a constant's text is "".  An entry's size is about the bytes
# it pins: _CELL_BYTES for its objects, plus its text and its key's 2 bytes
# per variable up to the last.  An entry above _CELL_MOST, a key past
# x32000 or so, is never kept, so that no one monomial takes the memo.
# The 1,751 texts of the benchmark's roundtrip set fill 737 kB of it.
_CELL_BYTES = 400
_MONOS = _Memo(1 << 20)
_CELL_MOST = _MONOS.budget >> 4


# The operators, which end every other token: the text between two of them,
# a chunk, tokenizes the same by itself as in its place in the text.
_SPLIT = re.compile(r"([-+*/()])")

# The tokens of each distinct chunk, so that each is read once per process
# (see the module docstring), keyed by its text, or by "/" and its text
# after / and its signs: no chunk holds a /.  An entry's size is about the
# bytes it pins: _CHUNK_BYTES for its objects, its text, _TOKEN_BYTES per
# token after the first, and a monomial's coefficient bytes and its cell's
# 2 bytes per variable up to the last.  An entry above _CHUNK_MOST is never
# kept, so that no one chunk takes the memo.  One pass of the benchmark's
# roundtrip set fills it with 1,391 of its 4,362 chunks, which read 79% of
# the chunks that the pass reads again.
_CHUNK_BYTES = 168
_TOKEN_BYTES = 64
_CHUNKS = _Memo(1 << 18)
_CHUNK_MOST = _CHUNKS.budget >> 4


def _tokenize(text: str) -> list:
    """The tokens of ``text``, then None for the end of input: a monomial
    (coeff, cell), "^" followed by its exponent, or an operator.
    After / and its signs the first atom of a monomial is a token of its
    own, so that 1/2x1 is x1/2 as juxtaposition binds."""
    tokens: list = []
    divisor = False  # the next monomial follows / and its signs
    start = 0  # of the chunk or operator in the text
    for i, part in enumerate(_SPLIT.split(text)):
        if i & 1:  # an operator
            tokens.append(part)
            divisor = part == "/" or divisor and part in "+-"
        elif part:
            key = "/" + part if divisor else part
            got = _CHUNKS.get(key)
            if got is None:
                got = _chunk_tokens(text, start, start + len(part), key)
            if got:
                tokens += got
                divisor = False
        start += len(part)
    tokens.append(None)
    return tokens


def _chunk_tokens(text: str, start: int, end: int, key: str) -> tuple:
    """The tokens of the chunk text[start:end], stored in ``_CHUNKS`` at
    ``key`` if they fit.  A ``ParseError`` gives its position in ``text``
    and the rest of ``text`` from there."""
    divisor = key[0] == "/"  # no chunk holds a /: only a key after / starts so
    tokens: list = []
    pos = start
    while pos < end:
        m = _TOKEN.match(text, pos, end)
        if m is None:  # only spaces are left
            break
        pos = m.end()
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
        else:  # no operator is in a chunk
            raise ParseError(f"bad character at position {m.start()}: "
                             f"{text[m.start():]!r}")
    tokens = tuple(tokens)
    size = _CHUNK_BYTES + end - start + _TOKEN_BYTES * (len(tokens) - 1)
    if size <= min(_CHUNKS.room, _CHUNK_MOST):  # else it cannot fit
        for tok in tokens:
            if type(tok) is tuple:
                c, (exps, _) = tok
                size += c.bit_length() // 8 + 2 * max(exps, default=0)
        if size <= _CHUNK_MOST:
            _CHUNKS.put(key, tokens, size)
    return tokens


def _monomial(text: str) -> tuple:
    """(coeff, cell) of a monomial token such as 3x2^3x5: its coefficient
    and the cell of its variables x2^3x5, from ``_MONOS`` or stored there."""
    head, x, rest = text.partition("x")
    body = x + rest
    try:
        coeff = 1
        if head:
            digits, _, exp = head.partition("^")
            coeff = int(digits) ** _exponent(exp) if exp else int(digits)
        cell = _MONOS.get(body)
        if cell is None:
            exps: dict = {}
            for factor in body.split("x")[1:]:
                digits, _, exp = factor.partition("^")
                var = int(digits)
                if var < 1:
                    raise ParseError(
                        f"variable index must be positive, got 'x{digits}'")
                exps[var] = exps.get(var, 0) + (_exponent(exp) if exp else 1)
            cell = [exps, None]
            size = _CELL_BYTES + len(body) + 2 * max(exps, default=0)
            if size <= _CELL_MOST:
                _MONOS.put(body, cell, size)
    except ParseError:
        raise
    except ValueError:  # more digits than int() converts
        longest = max(map(len, re.findall(r"\d+", text)))
        raise ParseError(f"integer with {longest} digits is too long") from None
    return coeff, cell


def _key(mono: tuple) -> int:
    """The packed key of a monomial, stored in its cell the first time."""
    cell = mono[1]
    if cell[1] is None:
        cell[1] = _mono_pack(cell[0])
    return cell[1]


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
    c, (exps, _) = value
    return RatFunc._from_atoms({("F", v - 1, 1): e for v, e in exps.items()}, c)


def _key_bits(term: Union[tuple, RatFunc]) -> int:
    """16 bits per index of the largest variable of a monomial or RatFunc
    term.  A variable beyond MAX_PACKED_VAR counts 0, because packing it
    raises at once."""
    if isinstance(term, tuple):
        top = max(term[1][0], default=0)
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
        (c, (exps, _)), (d, (more, _)) = value, rhs
        return c * d, [_dp_acc(dict(exps), more.items()), None]
    return _ratfunc(value) * _ratfunc(rhs)


def _power(value: _Value, exp: int) -> _Value:
    if isinstance(value, tuple):
        c, (exps, _) = value
        return c ** exp, [{v: e * exp for v, e in exps.items()}, None]
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
                key = _key(value)
                self.count(key.bit_length())
                value = {key: value[0]} if value[0] else {}
            if isinstance(value, dict) and isinstance(rhs, tuple):
                key = _key(rhs)
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
