"""Polynomial and rational-function arithmetic, normalization, printing."""

import random
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import run_python
from oracles import tokenize_whole
from hookweight.cli import main
from hookweight.combinat import enumerate_rl_forests
from hookweight.parsing import (MAX_NESTING, ParseError, _tokenize,
                                parse_polynomial, parse_ratfunc)
from hookweight.qanalog import bracket, bracket_factorial
from hookweight.ratfunc import (
    MAX_PACKED_VAR,
    DivisionByZeroError,
    ExponentOverflowError,
    Monomial,
    Polynomial,
    RatFunc,
    frobenius,
    poly_add,
    poly_mul,
    rf_add,
    rf_div,
    rf_equal,
    rf_frobenius,
    rf_inv,
    rf_mul,
    rf_to_canonical_string,
)
from hookweight.weights import H_of_forest, L_of_forest, wt_perm_recursive

x1, x2, x3, x4 = (Polynomial.variable(i) for i in range(1, 5))


def monomials(max_vars=6, max_exp=4):
    return st.dictionaries(st.integers(1, max_vars), st.integers(1, max_exp),
                           max_size=3)


def polys(max_terms=4):
    term = st.tuples(monomials(), st.integers(-9, 9).filter(bool))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: Polynomial((Monomial(m), c) for m, c in ts))


class TestPolynomial:
    def test_add_inverse(self):
        assert poly_add(x1, -x1).is_zero()

    def test_like_term_merge(self):
        assert poly_add(x1 + x2, x2) == x1 + 2 * x2

    def test_bracket_shift_sum(self):
        # [2] + F^2[1] expands to x1+x2+x3 = [3]
        assert poly_add(bracket(2), frobenius(bracket(1), 2)) == bracket(3)

    def test_mul_identity(self):
        p = x1 * x2 + 3 * x3
        assert poly_mul(Polynomial.one(), p) == p

    def test_mul_distributes(self):
        assert poly_mul(x3 + x4, x4) == x3 * x4 + x4 ** 2

    def test_factorial_product(self):
        product = (x1 + x2 + x3 + x4) * (x2 + x3 + x4) * (x3 + x4) * x4
        assert product == bracket_factorial(4)

    def test_frobenius_identity(self):
        assert frobenius(x1 + x2, 0) == x1 + x2

    def test_frobenius_shift(self):
        assert frobenius(x1, 2) == x3

    def test_frobenius_bracket(self):
        assert frobenius(bracket(3), 1) == x2 + x3 + x4

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            Monomial({0: 1})
        with pytest.raises(ValueError):
            Monomial({1: 65536})  # would wrap into x2
        assert Monomial({1: 65535}).degree == 65535
        with pytest.raises(ValueError):
            Polynomial.variable(0)

    @given(polys(), polys(), polys())
    def test_ring_laws(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(polys(), st.integers(0, 3), st.integers(0, 3))
    def test_frobenius_composes(self, p, a, b):
        assert frobenius(frobenius(p, a), b) == frobenius(p, a + b)

    @given(polys(), polys(), st.integers(0, 3))
    def test_frobenius_is_ring_hom(self, p, q, k):
        assert frobenius(p * q, k) == frobenius(p, k) * frobenius(q, k)
        assert frobenius(p + q, k) == frobenius(p, k) + frobenius(q, k)


class TestRatFunc:
    def test_add_common_denominator(self):
        s = rf_add(RatFunc(x2, x1), RatFunc(x3, x1))
        assert rf_to_canonical_string(s) == "(x2+x3)/(x1)"

    def test_mul_inverse_pair(self):
        assert rf_equal(rf_mul(RatFunc(x1, x2), RatFunc(x2, x1)),
                        RatFunc.from_const(1))

    def test_inv_swaps(self):
        assert rf_equal(rf_inv(RatFunc(x1 + x2, x2)), RatFunc(x2, x1 + x2))

    def test_div(self):
        assert rf_equal(rf_div(RatFunc(x1), RatFunc(x2)), RatFunc(x1, x2))

    def test_div_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            rf_inv(RatFunc.from_const(0))
        with pytest.raises(DivisionByZeroError):
            RatFunc(x1, Polynomial.zero())

    def test_constructor_divides_a_ratfunc_by_den(self):
        assert str(RatFunc(RatFunc(1, x1), x1)) == "(1)/(x1^2)"
        assert str(RatFunc(RatFunc(1, x1), 2)) == "(1)/(2x1)"
        with pytest.raises(DivisionByZeroError):
            RatFunc(RatFunc(x1), 0)

    def test_equal_cases(self):
        assert rf_equal(RatFunc(x2 + x3, x1),
                        rf_add(RatFunc(x2, x1), RatFunc(x3, x1)))
        assert rf_equal(RatFunc(x1, x1), RatFunc.from_const(1))
        assert not rf_equal(RatFunc(x2, x1), RatFunc(x3, x1))

    def test_frobenius(self):
        assert rf_equal(rf_frobenius(RatFunc(x2, x1), 1), RatFunc(x3, x2))
        assert rf_equal(rf_frobenius(RatFunc.from_const(1), 5),
                        RatFunc.from_const(1))
        shifted = rf_frobenius(RatFunc(bracket(2), bracket(1)), 1)
        assert rf_equal(shifted, RatFunc(x2 + x3, x2))

    def test_normalization_removes_content_and_monomials(self):
        r = RatFunc(2 * x1 * x2 + 2 * x2 ** 2, 2 * x1 * x2)
        assert r.num == x1 + x2
        assert r.den == x1

    def test_denominator_sign_is_positive(self):
        r = RatFunc(x2, -x1 + Polynomial.zero())
        assert rf_to_canonical_string(r) == "(-x2)/(x1)"

    def test_shared_factors_cancel_on_construction(self):
        assert rf_to_canonical_string(RatFunc(x1 + x2, x1 + x2)) == "1"
        r = RatFunc((x1 + x2) * (x2 + x3), (x1 + x2) * x4)
        assert rf_to_canonical_string(r) == "(x2+x3)/(x4)"
        one = Polynomial.one()
        r = RatFunc((one - x1 * x2) * x3, (one - x1 * x2) * x4 ** 2)
        assert rf_to_canonical_string(r) == "(x3)/(x4^2)"
        # a factor that is no bracket or binomial stays, but the value is 1
        assert rf_equal(RatFunc(x1 + x2 ** 2, x1 + x2 ** 2),
                        RatFunc.from_const(1))

    def test_shared_opaque_factor_cancels_when_expanded(self):
        p = x1 + x2 ** 2
        r = RatFunc(p, p)
        assert rf_to_canonical_string(r) == "1"
        assert r.num == Polynomial.one() and r.den == Polynomial.one()
        r = RatFunc(p * (x1 + x2), p)
        assert rf_to_canonical_string(r) == "x1+x2"
        assert r.num == x1 + x2 and r.den == Polynomial.one()

    def test_frobenius_stops_at_the_variable_cap(self):
        top = MAX_PACKED_VAR - 1
        assert Polynomial.variable(1).frobenius(top) == \
            Polynomial.variable(MAX_PACKED_VAR)
        with pytest.raises(ExponentOverflowError):
            Polynomial.variable(1).frobenius(top + 1)
        one = Polynomial.one()
        assert RatFunc(1, one - x1).frobenius(top)._fac == \
            {("B", ((MAX_PACKED_VAR, 1),)): -1}
        # the shift of num, and of a B, F and P atom
        for value, k in ((RatFunc(one + x1), top + 1),
                         (RatFunc(1, one - x1), top + 1),
                         (RatFunc(1, x1 + x2), top),
                         (RatFunc(1, x1 + x2 ** 2), top)):
            with pytest.raises(ExponentOverflowError):
                value.frobenius(k)
        assert str(RatFunc(3).frobenius(10 ** 9)) == "3"

    def test_sparse_wide_input_constructs_promptly(self):
        # the 20 s timeout bounds "promptly", which trying every window of
        # variables below x600 as a bracket factor misses
        proc = run_python(
            "-c",
            "from hookweight.ratfunc import Polynomial, RatFunc\n"
            "x = Polynomial.variable\n"
            "assert str(RatFunc(x(1) + x(600))) == 'x1+x600'\n")
        assert proc.returncode == 0, proc.stderr

    def test_inverse_of_non_factored_value(self):
        r = RatFunc(x1 * x3 + Polynomial.one(), x2)
        assert rf_to_canonical_string(rf_inv(r)) == "(x2)/(x1x3+1)"
        assert rf_equal(rf_inv(rf_inv(r)), r)
        assert rf_equal(rf_mul(r, rf_inv(r)), RatFunc.from_const(1))

    def test_normalization_idempotent(self):
        r = RatFunc((x2 + x3) * x3, (x1 + x2) * x1)
        again = RatFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den

    @given(polys(), polys(max_terms=2), polys(), polys(max_terms=2))
    def test_equal_is_congruence(self, a, b, c, d):
        if b.is_zero() or d.is_zero():
            return
        r1, r2 = RatFunc(a, b), RatFunc(c, d)
        scaled = RatFunc(a * d, b * d)
        assert rf_equal(r1, scaled)
        assert rf_equal(rf_add(r1, r2), rf_add(scaled, r2))
        assert rf_equal(rf_mul(r1, r2), rf_mul(scaled, r2))

    @given(polys(), polys(max_terms=2))
    def test_equal_reflexive_symmetric(self, a, b):
        if b.is_zero():
            return
        r = RatFunc(a, b)
        assert rf_equal(r, r)


class TestCanonicalString:
    def test_one(self):
        assert rf_to_canonical_string(RatFunc.from_const(1)) == "1"

    def test_simple_fraction(self):
        assert rf_to_canonical_string(RatFunc(x2 + x3, x1)) == "(x2+x3)/(x1)"

    def test_degree_then_lex_order(self):
        r = RatFunc((x2 + x3) * x3, (x1 + x2) * x1)
        assert rf_to_canonical_string(r) == "(x2x3+x3^2)/(x1^2+x1x2)"

    def test_coefficients_and_signs(self):
        p = 2 * x1 * x2 - x3 ** 2 + Polynomial.constant(1)
        assert str(p) == "2x1x2-x3^2+1"

    def test_zero(self):
        assert str(Polynomial.zero()) == "0"
        assert rf_to_canonical_string(RatFunc(Polynomial.zero(), x1)) == "0"

    def test_sparse_large_variables_print(self):
        # two 8 MiB keys, but each term holds one exponent, which is what
        # the print bound counts, so the sum prints
        top = MAX_PACKED_VAR
        value = RatFunc(Polynomial.variable(top) + Polynomial.variable(top - 1))
        assert rf_to_canonical_string(value) == "x4194303+x4194304"


def _power(value, e):
    out = RatFunc.from_const(1)
    while e:  # square and multiply, as the parser does
        if e & 1:
            out = out * value
        e >>= 1
        if e:
            value = value * value
    return out


def _random_expr(rng, depth):
    """A random sum as (text, value), the value computed with RatFunc."""
    text, value = _random_term(rng, depth)
    for _ in range(rng.randint(0, 5)):
        t, v = _random_term(rng, depth)
        if rng.random() < 0.6:
            text, value = f"{text}+{t}", value + v
        else:
            text, value = f"{text}-{t}", value - v
    return text, value


def _random_term(rng, depth):
    text, value = _random_factor(rng, depth)
    for _ in range(rng.randint(0, 3)):
        t, v = _random_factor(rng, depth)
        op = rng.choice("* /") if rng.random() < 0.3 else " "
        if op == " " and t.startswith("-"):
            op = "*"  # juxtaposed, "-" would be read as a binary minus
        text = f"{text}{op}{t}"
        value = value / v if op == "/" else value * v
    return text, value


def _random_factor(rng, depth):
    r = rng.random()
    if depth > 0 and r < 0.2:
        text, value = _random_expr(rng, depth - 1)
        text = f"({text})"
    elif r < 0.35:
        k = rng.randint(0, 3)
        text, value = str(k), RatFunc.from_const(k)
    else:
        i = rng.randint(1, 4)
        text, value = f"x{i}", RatFunc(Polynomial.variable(i))
    if rng.random() < 0.25:
        e = rng.randint(0, 3)
        text, value = f"{text}^{e}", _power(value, e)
    if rng.random() < 0.1:
        text, value = f"-{text}", -value
    return text, value


class TestParser:
    def test_round_trip(self):
        for text in ["1", "(x2+x3)/(x1)", "(x2x3+x3^2)/(x1^2+x1x2)",
                     "2x1x2-x3^2+1", "3x1"]:
            value = parse_ratfunc(text)
            assert rf_to_canonical_string(value) == text

    def test_explicit_operators(self):
        assert rf_equal(parse_ratfunc("x1 * x2 / (x3 + 1)"),
                        RatFunc(x1 * x2, x3 + Polynomial.one()))

    def test_powers_and_juxtaposition(self):
        assert parse_polynomial("x1^3x2") == x1 ** 3 * x2
        assert parse_polynomial("2(x1+x2)") == 2 * (x1 + x2)

    def test_unary_minus(self):
        assert parse_polynomial("-x1+x2") == x2 - x1

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_ratfunc("x1 +")
        with pytest.raises(ParseError):
            parse_ratfunc("y1")
        with pytest.raises(ParseError):
            parse_polynomial("x1/x2")

    def test_exponent_bound(self):
        assert rf_to_canonical_string(parse_ratfunc("x1^65535")) == "x1^65535"
        with pytest.raises(ParseError):
            parse_ratfunc("x1^65536")
        with pytest.raises(ParseError):
            parse_ratfunc("x1^" + "9" * 5000)

    def test_product_exponent_overflow(self):
        with pytest.raises(ExponentOverflowError):
            rf_equal(parse_ratfunc("x1^65535*x1"), parse_ratfunc("x2"))
        with pytest.raises(ExponentOverflowError):  # x1^65536, kept factored
            rf_to_canonical_string(parse_ratfunc("x1^65535*x1"))
        with pytest.raises(ParseError):
            parse_ratfunc("x1^65535*x1 - x2")
        value = parse_ratfunc("x1^65535*x2")
        assert rf_to_canonical_string(value) == "x1^65535x2"
        assert not rf_equal(value, parse_ratfunc("x2^2"))

    def test_powers_by_squaring(self):
        assert parse_polynomial("(x1+x3)^5") == (x1 + x3) ** 5
        assert parse_polynomial("(x1+x3)^0") == Polynomial.one()
        assert rf_equal(parse_ratfunc("(x2/(x1+x3))^3"),
                        RatFunc(x2 ** 3, (x1 + x3) ** 3))

    def test_variable_index_must_be_positive(self):
        with pytest.raises(ParseError):
            parse_ratfunc("x0")

    def test_fraction_coefficients_survive(self):
        r = parse_ratfunc("x1/2")
        assert rf_equal(r, RatFunc(x1, Polynomial.constant(2)))

    def test_polynomial_exponent_overflow(self):
        # x1^65536 fits a factored value but not the expanded polynomial
        with pytest.raises(ParseError, match="exceeds 65535"):
            parse_polynomial("x1^65535*x1")

    def test_fields_match_ratfunc_arithmetic(self):
        rng = random.Random(20261018)
        for _ in range(400):
            try:
                text, expected = _random_expr(rng, 2)
            except DivisionByZeroError:
                continue
            got = parse_ratfunc(text)
            assert (got._c, got._num, got._fac) == (
                expected._c, expected._num, expected._fac), text
            assert type(got._c) is type(expected._c), text
            assert (rf_to_canonical_string(got)
                    == rf_to_canonical_string(expected)), text

    def test_nesting_bound(self):
        deep = MAX_NESTING * "(" + "x1+1" + MAX_NESTING * ")"
        assert rf_to_canonical_string(parse_ratfunc(deep)) == "x1+1"
        with pytest.raises(ParseError, match="nested deeper"):
            parse_ratfunc("(" + deep + ")")

    def test_zero_divisor_raises(self):
        with pytest.raises(DivisionByZeroError):
            parse_ratfunc("x1/(x2-x2)")

    def test_printed_weights_parse_back(self):
        # the benchmark's roundtrip set: wt(w) over S_6 and L(P), H(P) over
        # the forests with n <= 5, each parsed back to the same value and
        # the same string
        values = [wt_perm_recursive(w) for w in permutations(range(1, 7))]
        for n in range(6):
            for p in enumerate_rl_forests(n):
                values += [L_of_forest(p), H_of_forest(p)]
        for v in values:
            text = rf_to_canonical_string(v)
            back = parse_ratfunc(text)
            assert rf_equal(back, v), text
            assert rf_to_canonical_string(back) == text

    def test_long_sum_parses_promptly(self):
        # all 12,376 monomials of degree 6 in x1..x12; the 20 s timeout
        # bounds "promptly", which re-adding the running sum per term misses
        script = (
            "from itertools import combinations_with_replacement as cwr\n"
            "from hookweight.parsing import parse_polynomial\n"
            "terms = ['x' + 'x'.join(map(str, c)) for c in cwr(range(1, 13), 6)]\n"
            "p = parse_polynomial('+'.join(terms))\n"
            "assert len(p) == len(terms) == 12376, len(p)\n"
            "assert set(p.terms.values()) == {1}\n")
        proc = run_python("-c", script)
        assert proc.returncode == 0, proc.stderr


# Inputs whose tokens a monomial token could change, with the canonical
# string (or the exit code 2) that the token-at-a-time parser gave them
PARSE_EDGE_VALUES = [
    ("2x1 ^2", "2x1^2"),  # the spaced ^ takes x1 alone
    ("x1 ^ 2x2", "x1^2x2"),
    ("(x1+x2)^5", "x1^5+5x1^4x2+10x1^3x2^2+10x1^2x2^3+5x1x2^4+x2^5"),
    ("(x1+x2)^2x3", "x1^2x3+2x1x2x3+x2^2x3"),
    ("2 3x1", "6x1"),
    ("2 ^ 3x1", "8x1"),
    ("x1*x2", "x1x2"),
    ("x1 x2^2 3", "3x1x2^2"),
    ("--x1", "x1"),
    ("x12 ^2", "x12^2"),  # never x1 times 2^2
    ("1/2x1", "(x1)/(2)"),  # juxtaposition binds as / does, from the left
    ("1/x2^2x1", "(x1)/(x2^2)"),
    ("x1/-2x1", "(-x1^2)/(2)"),
]
PARSE_EDGE_ERRORS = [
    "2^3^2", "x1^2^3", "x0", "x1^65536", "9" * 5000,
    (MAX_NESTING + 1) * "(" + "x1" + (MAX_NESTING + 1) * ")",
    "x1 $ x2", "x1^x2", "x1^-2", "2x1 ^", "(x1+x2)^x3",
    # digits are ASCII only: int() reads these Arabic-Indic ones as 1, 3, 2
    "x\u0661", "\u0663x1", "x1^\u0662",
]


class TestParserEdges:
    @pytest.mark.parametrize("text, printed", PARSE_EDGE_VALUES)
    def test_value(self, text, printed):
        assert rf_to_canonical_string(parse_ratfunc(text)) == printed

    @pytest.mark.parametrize("text", PARSE_EDGE_ERRORS,
                             ids=lambda t: t if len(t) < 20 else f"{len(t)} chars")
    def test_error_exits_2(self, text, capsys):
        with pytest.raises(ParseError):
            parse_ratfunc(text)
        assert main(["specialize", "--map", "q", "--expr", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("text, message", [
        ("x\u0661", "bad character at position 0"),
        ("\u0663x1", "bad character at position 0"),
        ("x1^\u0662", "expected integer exponent at position 2"),
        ("x1\u00a0+x2", "bad character at position 2"),  # no-break space
    ])
    def test_non_ascii_digits_and_spaces(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_ratfunc(text)


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


class TestTokenizer:
    # _tokenize reads each chunk between two operators once per process;
    # the whole-text oracle must give the same tokens or the same message,
    # its position and the rest of the text included
    def test_chunks_tokenize_as_the_whole_text(self, fresh_memos):
        rng = random.Random(20261020)
        alphabet = "0123456789xxxx^^  \u0661@"
        # half the strings join chunks from a small pool with operators, so
        # that one chunk recurs after / and elsewhere
        pool = ["".join(rng.choices(alphabet, k=rng.randrange(5)))
                for _ in range(40)]
        for i in range(5000):
            if i % 2:
                text = "".join(rng.choice(pool) + "".join(
                    rng.choices("+-*/()", k=rng.randrange(3)))
                    for _ in range(rng.randrange(5)))
            else:
                text = "".join(rng.choices(alphabet + "+-*/()",
                                           k=rng.randrange(13)))
            want = _tokens_or_error(tokenize_whole, text)
            # the first call reads the chunks, the second the chunk memo
            assert _tokens_or_error(_tokenize, text) == want, text
            assert _tokens_or_error(_tokenize, text) == want, text

    @pytest.mark.parametrize("text, message", [
        ("x2+x1x", "bad character at position 5: 'x'"),
        ("x1^+x2", "expected integer exponent at position 2: '^+x2'"),
    ])
    def test_an_error_counts_from_the_start_of_the_text(self, fresh_memos,
                                                         text, message):
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_ratfunc(text)
            assert str(info.value) == message


_GAP = st.sampled_from(["", "", " ", "  "])


@st.composite
def _expressions(draw, depth):
    """A random sum as (text, value), drawn along the grammar: sums of
    terms of signed, powered atoms and parenthesised sums, with random
    spacing, * or juxtaposition.  The value is RatFunc arithmetic on the
    same tree, left to right."""
    text, value = draw(_terms(depth))
    for _ in range(draw(st.integers(0, 3))):
        t, v = draw(_terms(depth))
        op = draw(st.sampled_from("+-"))
        text = f"{text}{draw(_GAP)}{op}{draw(_GAP)}{t}"
        value = value + v if op == "+" else value - v
    return text, value


@st.composite
def _terms(draw, depth):
    text, value = draw(_factors(depth))
    for _ in range(draw(st.integers(0, 3))):
        t, v = draw(_factors(depth))
        op = draw(st.sampled_from(["*", "/", "", ""]))
        if not op and t[0] in "+-":
            op = "*"  # juxtaposed, the sign would be a binary + or -
        gap = draw(_GAP)
        if not op and not gap and text[-1].isdigit() and t[0].isdigit():
            gap = " "  # the digits would run together
        if op == "/":
            assume(not v.is_zero())
        text = f"{text}{gap}{op}{draw(_GAP) if op else ''}{t}"
        value = value / v if op == "/" else value * v
    return text, value


@st.composite
def _factors(draw, depth):
    kind = draw(st.sampled_from(["int", "var", "sum"][:3 if depth else 2]))
    if kind == "int":
        k = draw(st.integers(0, 12))
        text, value = str(k), RatFunc.from_const(k)
    elif kind == "var":
        i = draw(st.sampled_from([1, 2, 3, 10, 12]))
        text, value = f"x{i}", RatFunc(Polynomial.variable(i))
    else:
        t, value = draw(_expressions(depth - 1))
        text = f"({draw(_GAP)}{t}{draw(_GAP)})"
    if draw(st.booleans()):
        e = draw(st.integers(0, 3))
        text = f"{text}{draw(_GAP)}^{draw(_GAP)}{e}"
        value = _power(value, e)
    signs = draw(st.sampled_from(["", "", "-", "+", "--", "-+"]))
    if signs:
        text = f"{signs}{draw(_GAP)}{text}"
        value = -value if signs.count("-") % 2 else value
    return text, value


class TestParserProperty:
    # one level of parentheses and 200 examples catch, in a few seconds,
    # each of a monomial token that swallows an atom a spaced ^ follows,
    # one that / divides whole and one that splits x12 into x1 and 2
    @settings(max_examples=200)
    @given(_expressions(1))
    def test_parse_is_the_tree_and_printing_is_idempotent(self, case):
        text, value = case
        got = parse_ratfunc(text)
        assert rf_equal(got, value), text
        printed = rf_to_canonical_string(got)
        assert printed == rf_to_canonical_string(value), text
        assert rf_to_canonical_string(parse_ratfunc(printed)) == printed
