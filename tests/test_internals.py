"""Differential tests for the private arithmetic engines.

Every public exactness claim rests on these: packed-key polynomial ops,
exact division by bracket forms and 1 - monomial binomials, greedy
form factorization, the factored rational representation, and the integer
pseudo-remainder GCD.  Each gets checked against an independent
brute-force counterpart on randomized inputs.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, strategies as st

from hookweight import ratfunc
from hookweight.parsing import ParseError, parse_ratfunc
from hookweight.ratfunc import (
    MAX_PACKED_VAR,
    ExponentOverflowError,
    Monomial,
    Polynomial,
    RatFunc,
    _atom_dict,
    _dp_acc,
    _dp_add,
    _dp_as_form,
    _dp_div_binom,
    _dp_div_form,
    _dp_min_monomial,
    _dp_mul,
    _dp_neg,
    _dp_scale,
    _mono_degree,
    _mono_pack,
    _mono_unpack,
)
from hookweight.specialize import UniPoly, UniRatFunc, _int_gcd_dense


def dict_poly(rng, max_vars=5, max_exp=3, max_terms=5, max_coeff=6):
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = {v: rng.randint(1, max_exp)
                for v in rng.sample(range(1, max_vars + 1), rng.randint(0, 2))}
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            k = _mono_pack(mono)
            out[k] = out.get(k, 0) + c
    return {k: v for k, v in out.items() if v}


def random_form(rng, max_var=6, min_m=1):
    off = rng.randint(0, max_var - min_m)
    m = rng.randint(min_m, max_var - off)
    return ("F", off, m)


def random_binom(rng, max_var=5):
    vars_ = rng.sample(range(1, max_var + 1), rng.randint(1, 3))
    return ("B", tuple((v, rng.randint(1, 2)) for v in sorted(vars_)))


def varseq_order(key):
    """The term order as first defined: degree descending, then the variable
    sequence with multiplicity (x1*x3^2 -> 1, 3, 3) ascending."""
    seq = []
    var = 1
    while key:
        seq.extend([var] * (key & 0xFFFF))
        key >>= 16
        var += 1
    return -len(seq), tuple(seq)


monomials = st.dictionaries(st.integers(1, 6), st.integers(0, 4), max_size=4)


class TestPackedMonomials:
    @given(st.dictionaries(st.integers(1, 9), st.integers(1, 9), max_size=4))
    def test_pack_unpack_round_trip(self, exps):
        key = _mono_pack(exps)
        assert dict(_mono_unpack(key)) == {v: e for v, e in exps.items() if e}

    @given(st.dictionaries(st.integers(1, 6), st.integers(1, 9), max_size=3),
           st.dictionaries(st.integers(1, 6), st.integers(1, 9), max_size=3))
    def test_key_addition_is_monomial_product(self, a, b):
        merged = dict(a)
        for v, e in b.items():
            merged[v] = merged.get(v, 0) + e
        assert _mono_pack(a) + _mono_pack(b) == _mono_pack(merged)

    @given(st.lists(st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
                    min_size=1, max_size=3))
    @example([(65535, 0)], [(1, 0)])
    @example([(40000, 1)], [(0, 40000)])
    def test_product_raises_exactly_when_an_exponent_overflows(self, a, b):
        da = {_mono_pack({1: e1, 2: e2}): 1 for e1, e2 in a}
        db = {_mono_pack({1: e1, 2: e2}): 1 for e1, e2 in b}
        exps = [dict(_mono_unpack(k)) for k in da]
        other = [dict(_mono_unpack(k)) for k in db]
        overflow = any(x.get(v, 0) + y.get(v, 0) > 65535
                       for x in exps for y in other for v in (1, 2))
        if overflow:
            with pytest.raises(ExponentOverflowError):
                _dp_mul(da, db)
        else:
            product = _dp_mul(da, db)
            for k in product:
                assert max(dict(_mono_unpack(k)).values(), default=0) <= 65535

    @given(st.dictionaries(st.integers(1, 10**5), st.integers(0, 65535),
                           max_size=5))
    @example({10**5: 65535, 1: 1})
    def test_reader_round_trip_on_large_indices(self, exps):
        key = _mono_pack(exps)
        assert _mono_unpack(key) == \
            tuple(sorted((v, e) for v, e in exps.items() if e))
        assert _mono_degree(key) == sum(exps.values())

    @given(st.lists(monomials, max_size=12))
    @example([{1: 1, 3: 2}, {2: 3}, {1: 2, 4: 1}, {3: 3}, {}])
    def test_term_order_matches_variable_sequences(self, monos):
        keys = {_mono_pack(m) for m in monos}
        for a in keys:
            for b in keys:
                assert (Monomial._from_key(a) < Monomial._from_key(b)) == \
                    (varseq_order(a) < varseq_order(b)), (a, b)
        p = Polynomial._from_dict(dict.fromkeys(keys, 1))
        assert ("+".join(map(str, sorted(p.terms))) or "0") == str(p)

    @given(st.lists(st.lists(monomials, min_size=1, max_size=5),
                    min_size=1, max_size=3))
    @example([[{10**5: 3, 2: 1}, {10**5: 2, 7: 1}]])
    def test_min_monomial_is_the_fieldwise_minimum(self, polys):
        dicts = [{_mono_pack(m): 1 for m in monos} for monos in polys]
        exps = [dict(_mono_unpack(k)) for d in dicts for k in d]
        variables = {v for e in exps for v in e}
        assert _dp_min_monomial({k: 1 for d in dicts for k in d}) == _mono_pack(
            {v: min(e.get(v, 0) for e in exps) for v in variables})

    def test_min_monomial_without_common_variable_unpacks_nothing(
            self, monkeypatch):
        # the AND of the keys' nonzero-field masks is 0 at once
        monkeypatch.setattr(ratfunc, "_fields", None)
        keys = [_mono_pack({MAX_PACKED_VAR - i: 1}) for i in range(3)]
        assert _dp_min_monomial({k: 1 for k in keys}) == 0
        assert _dp_min_monomial({keys[0]: 1, keys[1]: 1}) == 0

    @given(st.dictionaries(
        monomials.map(lambda m: tuple(sorted((v, e) for v, e in m.items() if e))),
        st.integers(1, 2), min_size=1, max_size=4))
    @example({((1, 2),): 1})
    @example({((5, 2),): 1, ((6, 1),): 1})
    @example({((2, 1),): 1, ((3, 1),): 1, ((4, 1),): 1})
    @example({((99999, 1),): 1, ((10**5, 1),): 1})
    def test_as_form_recognizes_exactly_the_forms(self, terms):
        p = {_mono_pack(dict(mono)): c for mono, c in terms.items()}
        variables = sorted(m[0][0] for m, c in terms.items()
                           if c == 1 and len(m) == 1 and m[0][1] == 1)
        is_form = (len(variables) == len(terms)
                   and variables[-1] - variables[0] + 1 == len(variables))
        expected = (("F", variables[0] - 1, len(variables)) if is_form
                    else None)
        assert _dp_as_form(p) == expected

    def test_packing_stops_at_the_variable_cap(self):
        assert _mono_unpack(_mono_pack({MAX_PACKED_VAR: 2})) == \
            ((MAX_PACKED_VAR, 2),)
        for bad in ({MAX_PACKED_VAR + 1: 1}, {1: 65536}):
            with pytest.raises(ExponentOverflowError):
                _mono_pack(bad)
        for atom in (("F", MAX_PACKED_VAR - 1, 2),
                     ("B", ((1, 1), (MAX_PACKED_VAR + 1, 1)))):
            with pytest.raises(ExponentOverflowError):
                _atom_dict(atom)
        with pytest.raises(ParseError):
            parse_ratfunc(f"x{MAX_PACKED_VAR + 1}+1")
        # a monomial alone is held by its atoms and never packed
        assert parse_ratfunc(f"x{MAX_PACKED_VAR + 1}")._fac == \
            {("F", MAX_PACKED_VAR, 1): 1}

    def test_polynomial_variable_packs_through_the_cap(self):
        top = Polynomial.variable(MAX_PACKED_VAR)
        assert top.coefficient(Monomial.variable(MAX_PACKED_VAR)) == 1
        # the key of x_(10^12) would take 2 TB: it must be refused unbuilt
        for i in (MAX_PACKED_VAR + 1, 10 ** 12):
            with pytest.raises(ExponentOverflowError):
                Polynomial.variable(i)
        with pytest.raises(ValueError):
            Polynomial.variable(0)

    def test_monomial_product_overflow(self):
        with pytest.raises(ExponentOverflowError):
            Monomial({1: 65535}) * Monomial({1: 1})
        assert (Monomial({1: 65535}) * Monomial({2: 65535})).exponents == \
            {1: 65535, 2: 65535}


class TestExactDivision:
    def test_form_division_recovers_cofactor(self, rng):
        for _ in range(200):
            q = dict_poly(rng)
            if not q:
                continue
            atom = random_form(rng, min_m=2)
            p = _dp_mul(q, _atom_dict(atom))
            got = _dp_div_form(p, atom[1], atom[2])
            assert got == q, (q, atom)

    def test_form_division_sound_on_arbitrary_input(self, rng):
        for _ in range(300):
            p = dict_poly(rng)
            if not p:
                continue
            atom = random_form(rng, min_m=2)
            got = _dp_div_form(p, atom[1], atom[2])
            if got is not None:
                assert _dp_mul(got, _atom_dict(atom)) == p

    def test_binom_division_recovers_cofactor(self, rng):
        for _ in range(200):
            q = dict_poly(rng)
            if not q:
                continue
            atom = random_binom(rng)
            p = _dp_mul(q, _atom_dict(atom))
            got = _dp_div_binom(p, atom[1])
            assert got == q, (q, atom)

    def test_binom_division_sound_on_arbitrary_input(self, rng):
        for _ in range(300):
            p = dict_poly(rng)
            if not p:
                continue
            atom = random_binom(rng)
            got = _dp_div_binom(p, atom[1])
            if got is not None:
                assert _dp_mul(got, _atom_dict(atom)) == p

    def test_form_division_rejects_on_a_carry(self):
        # x1 x2^65535 + x3 is not a multiple of x1 + x2; the quotient term
        # x2^65535 times x2 would wrap into x3 and cancel it
        p = {_mono_pack({1: 1, 2: 65535}): 1, _mono_pack({3: 1}): 1}
        assert _dp_div_form(p, 0, 2) is None
        q = {_mono_pack({2: 65534}): 1}
        p = _dp_mul(q, _atom_dict(("F", 0, 2)))
        assert _dp_div_form(p, 0, 2) == q

    def test_binom_division_rejects_on_a_carry(self):
        # x2^65535 - x1 x3^2 is not a multiple of 1 - x1 x2 x3; x2^65535
        # times x1 x2 x3 would wrap to x1 x3^2, which keeps its residue
        # mod u, so only the carry check can reject it
        pairs = ((1, 1), (2, 1), (3, 1))
        p = {_mono_pack({2: 65535}): 1, _mono_pack({1: 1, 3: 2}): -1}
        assert _dp_div_binom(p, pairs) is None
        q = {_mono_pack({2: 65534}): 1}
        p = _dp_mul(q, binom_dict(pairs))
        assert _dp_div_binom(p, pairs) == q

    def test_binom_division_rejects_a_carry_from_small_keys(self):
        # every exponent is below 2^15, but the quotient term x1^2 x2^60000
        # x3^2 times u reaches x2^90000, which would wrap to x1^3 x2^24464
        # x3^4 and cancel
        pairs = ((1, 1), (2, 30000), (3, 1))
        p = {0: 1, _mono_pack({1: 3, 2: 24464, 3: 4}): -1}
        assert _dp_div_binom(p, pairs) is None


def binom_dict(pairs):
    return _atom_dict(("B", pairs))


def to_sympy(d, xs):
    return sum(c * prod(xs[v - 1] ** e for v, e in _mono_unpack(k))
               for k, c in d.items())


PAIRS = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)),
                 min_size=1, max_size=3, unique_by=lambda t: t[0]
                 ).map(lambda ps: tuple(sorted(ps)))
INT_DICTS = st.dictionaries(
    st.dictionaries(st.integers(1, 4), st.integers(0, 3), max_size=3
                    ).map(_mono_pack),
    st.integers(-5, 5).filter(bool), min_size=1, max_size=6)


class TestBinomRejection:
    """_dp_div_binom: a ring map rejects, only a long division accepts."""

    @given(INT_DICTS, PAIRS)
    @example({0: 1, _mono_pack({2: 1}): -3}, ((1, 2), (3, 1)))
    @example({_mono_pack({1: 2, 3: 1}): 2, 0: -1}, ((2, 3),))
    def test_exact_multiples_divide(self, q, pairs):
        p = _dp_mul(q, binom_dict(pairs))
        assert _dp_div_binom(p, pairs) == q

    @given(INT_DICTS, PAIRS)
    @example({_mono_pack({1: 2, 3: 1}): 1, 0: -1}, ((1, 2), (3, 1)))
    def test_accepted_quotients_are_exact(self, p, pairs):
        r = _dp_div_binom(p, pairs)
        if r is not None:
            assert _dp_mul(r, binom_dict(pairs)) == p

    def test_rejections_agree_with_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:6")
        for _ in range(150):
            pairs = random_binom(rng)[1]
            p = _dp_mul(dict_poly(rng), binom_dict(pairs))
            if rng.random() < 0.7:  # perturb most multiples
                p = _dp_add(p, dict_poly(rng, max_terms=2))
            if not p:
                continue
            _q, rem = sympy.div(to_sympy(p, xs),
                                to_sympy(binom_dict(pairs), xs), *xs)
            assert (_dp_div_binom(p, pairs) is None) == (rem != 0), (p, pairs)

    def test_long_division_still_rejects(self):
        # x2^2 - x1^32768 vanishes under x1, x2 -> 1 and under both ring maps
        # (its packed keys agree mod u = x1^32768 x2), yet 1 - x1^32768 x2
        # does not divide it: only the long division can say so
        pairs = ((1, 32768), (2, 1))
        u = _mono_pack(dict(pairs))
        p = {_mono_pack({2: 2}): 1, _mono_pack({1: 32768}): -1}
        assert sum(p.values()) == 0
        assert len({k % u for k in p}) == 1
        assert _dp_div_binom(p, pairs) is None


FORMS = st.integers(0, 3).flatmap(
    lambda off: st.tuples(st.just(off), st.integers(2, 5 - off)))


class TestFormRejection:
    """_dp_div_form: for m >= 2 a ring map rejects, only a long division
    accepts."""

    @given(INT_DICTS, FORMS)
    @example({_mono_pack({1: 3, 2: 1}): 2, _mono_pack({4: 2}): -1}, (0, 4))
    def test_exact_multiples_divide(self, q, form):
        off, m = form
        p = _dp_mul(q, _atom_dict(("F", off, m)))
        assert _dp_div_form(p, off, m) == q

    def test_rejections_agree_with_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:7")
        for _ in range(150):
            atom = random_form(rng, min_m=2)
            p = _dp_mul(dict_poly(rng), _atom_dict(atom))
            if rng.random() < 0.7:  # perturb most multiples
                p = _dp_add(p, dict_poly(rng, max_terms=2))
            if not p:
                continue
            _q, rem = sympy.div(to_sympy(p, xs),
                                to_sympy(_atom_dict(atom), xs), *xs)
            assert (_dp_div_form(p, atom[1], atom[2]) is None) == \
                (rem != 0), (p, atom)

    def test_exponent_sum_stays_in_its_fields(self):
        # the map sends x1^40001 x2^40000 to -x2^80001, past 65535: the
        # image holds the sum in the 32 bits of x1 and x2, so it carries
        # into no other variable
        q = {_mono_pack({1: 40000, 2: 40000}): 1}
        p = _dp_mul(q, _atom_dict(("F", 0, 3)))
        assert _dp_div_form(p, 0, 3) == q


def reassembled(f):
    """c * num * prod(atom^e) of a value with no denominator atoms."""
    d = _dp_scale(f._num, f._c)
    for atom, e in f._fac.items():
        assert e > 0
        for _ in range(e):
            d = _dp_mul(d, _atom_dict(atom))
    return d


class TestFactorForms:
    """RatFunc._from_dict factors expanded input into bracket forms."""

    def test_reassembly(self, rng):
        for _ in range(150):
            residual = dict_poly(rng, max_terms=3)
            if not residual:
                continue
            product = dict(residual)
            atoms = [random_form(rng) for _ in range(rng.randint(0, 4))]
            for atom in atoms:
                product = _dp_mul(product, _atom_dict(atom))
            assert reassembled(RatFunc._from_dict(product)) == product

    def test_pure_products_fully_factor(self, rng):
        for _ in range(100):
            atoms = [random_form(rng) for _ in range(rng.randint(1, 5))]
            product = {0: 1}
            for atom in atoms:
                product = _dp_mul(product, _atom_dict(atom))
            f = RatFunc._from_dict(product)
            assert f._c == 1 and f._num == {0: 1}
            assert all(atom[0] == "F" for atom in f._fac)
            assert sum(f._fac.values()) == len(atoms)


def frf_value(f):
    """(num, den) dict pair representing the factored value exactly."""
    num, den = f._expand()
    return num, den


def cross_equal(a, b):
    (na, da), (nb, db) = a, b
    return _dp_mul(na, db) == _dp_mul(nb, da)


def random_frf(rng):
    base = RatFunc._from_dict(dict_poly(rng, max_terms=3) or {0: 1})
    atoms = {}
    for _ in range(rng.randint(0, 3)):
        atoms[random_form(rng)] = rng.choice([-2, -1, 1, 2])
    scaled = base._mul(RatFunc._from_atoms(atoms, c=Fraction(rng.randint(1, 5),
                                                             rng.randint(1, 5))))
    return scaled


class TestFRF:
    def test_add_matches_cross_multiplication(self, rng):
        for _ in range(120):
            f, g = random_frf(rng), random_frf(rng)
            (nf, df), (ng, dg) = frf_value(f), frf_value(g)
            expected = (_dp_add(_dp_mul(nf, dg), _dp_mul(ng, df)),
                        _dp_mul(df, dg))
            assert cross_equal(frf_value(f._add(g)), expected)

    def test_mul_matches_cross_multiplication(self, rng):
        for _ in range(120):
            f, g = random_frf(rng), random_frf(rng)
            (nf, df), (ng, dg) = frf_value(f), frf_value(g)
            expected = (_dp_mul(nf, ng), _dp_mul(df, dg))
            assert cross_equal(frf_value(f._mul(g)), expected)

    def test_equals_matches_cross_multiplication(self, rng):
        for _ in range(150):
            f, g = random_frf(rng), random_frf(rng)
            assert f._equals(g) == cross_equal(frf_value(f), frf_value(g))
            assert f._equals(f)
            scaled = f._mul(RatFunc.from_const(Fraction(3, 7)))
            unscaled = scaled._mul(RatFunc.from_const(Fraction(7, 3)))
            assert f._equals(unscaled)

    def test_frobenius_commutes_with_value(self, rng):
        for _ in range(80):
            f = random_frf(rng)
            k = rng.randint(0, 3)
            from hookweight.ratfunc import _dp_frobenius
            nf, df = frf_value(f)
            expected = (_dp_frobenius(nf, k), _dp_frobenius(df, k))
            assert cross_equal(frf_value(f.frobenius(k)), expected)


class TestExpansionIsNormalized:
    def test_raw_expansion_has_no_content_to_remove(self, rng):
        # printing multiplies out c * num * prod(a^e) and removes neither a
        # joint integer content nor a common monomial: there must be none
        from hookweight.combinat import enumerate_rl_forests
        from hookweight.weights import H_of_forest, L_of_forest
        values = []
        for _ in range(150):
            f, g = random_frf(rng), random_frf(rng)
            f = f._mul(RatFunc._from_atoms({random_binom(rng): rng.choice(
                [-1, 1])}, rng.choice([1, -2, Fraction(3, 4)])))
            top, bottom = (Polynomial._from_dict(_dp_scale(
                dict_poly(rng) or {0: 1}, rng.randint(1, 4))) for _ in "ab")
            values += [f._add(g), f._mul(g), f._mul(g._inv()),
                       f.frobenius(rng.randint(1, 3)),
                       parse_ratfunc(str(f._add(g._inv()))),
                       parse_ratfunc(f"({top})/({bottom})")]
        for n in range(1, 6):
            for p in enumerate_rl_forests(n):
                values += [L_of_forest(p), H_of_forest(p)]
        for value in values:
            num, den = value._expand_up_to_sign()
            assert gcd(*num.values(), *den.values()) == 1, value
            assert _dp_min_monomial({**num, **den}) == 0, value


def opaque_atom(poly):
    return ("P", tuple(sorted(poly.items())))


SUM_ATOMS = [
    ("F", 0, 1), ("F", 1, 1), ("F", 0, 2), ("F", 1, 2), ("F", 0, 3),
    ("F", 2, 2), ("B", ((1, 1),)), ("B", ((1, 2),)), ("B", ((1, 1), (2, 1))),
    ("B", ((2, 1),)),
    opaque_atom({0: 1, _mono_pack({1: 1, 2: 1}): 1}),      # 1 + x1 x2
    opaque_atom({_mono_pack({2: 1}): 1, _mono_pack({1: 2}): 1}),  # x2 + x1^2
]
SUM_NUMS = [
    {0: 1}, {0: 1, _mono_pack({1: 1, 3: 1}): 2},          # 1 + 2 x1 x3
    {_mono_pack({1: 1}): 1, _mono_pack({2: 2}): -1},      # x1 - x2^2
    {0: 3, _mono_pack({2: 1}): 1, _mono_pack({1: 1, 2: 1}): 1},
]
SUM_TERMS = st.builds(
    lambda atoms, c, num: RatFunc._from_atoms(atoms, c)._mul(
        RatFunc._from_dict(num)),
    st.dictionaries(st.sampled_from(SUM_ATOMS), st.integers(-2, 2),
                    max_size=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from(SUM_NUMS))


def fold_add(values, hints=()):
    total = RatFunc.from_const(0)
    for v in values:
        total = RatFunc._sum((total, v), hints)
    return total


def fields(v):
    return v._c, dict(v._num), dict(v._fac)


class TestSum:
    """RatFunc._sum adds any number of values in one pass; _add is its
    two-term case, so the fold of _add is its oracle."""

    @given(st.lists(SUM_TERMS, max_size=8), st.booleans())
    def test_matches_the_fold_of_add(self, values, cancel):
        if cancel:  # every term meets its negation: the sum is 0
            values = values + [-v for v in reversed(values)]
        before = [fields(v) for v in values]
        total, fold = RatFunc._sum(values), fold_add(values)
        assert total._equals(fold)
        assert cross_equal(frf_value(total), frf_value(fold))
        if total._fac == fold._fac:  # then normalizing fixes c and num
            assert total._c == fold._c and total._num == fold._num
        if cancel:
            assert total.is_zero()
        assert [fields(v) for v in values] == before

    @given(SUM_TERMS, SUM_TERMS)
    def test_add_is_the_two_term_sum(self, f, g):
        before = fields(f), fields(g)
        hints = [("F", 0, 2), ("B", ((1, 1),))]
        for h in ((), hints):
            total = RatFunc._sum((f, g), h)
            if not h:
                assert fields(f._add(g)) == fields(total)
            assert fields(total) == fields(RatFunc._sum([f, 0 * g, g], h))
        assert (fields(f), fields(g)) == before

    def test_zero_and_single_terms(self):
        f = RatFunc._from_atoms({("F", 0, 2): -1, ("F", 1, 1): 1}, 3)
        zero = RatFunc.from_const(0)
        assert RatFunc._sum([]).is_zero()
        assert RatFunc._sum([zero, zero]).is_zero()
        assert RatFunc._sum([f]) is f
        assert RatFunc._sum([zero, f, zero]) is f
        assert RatFunc._sum(iter([f, -f])).is_zero()

    def test_one_pass_can_divide_out_more_than_the_fold(self):
        # (1 - x1)/(1 - x1^2)^2 + 1/(1 - x1) + 1: the fold's first partial
        # sum is (x1^2 + 2 x1 + 2)(1 - x1)/(1 - x1^2)^2, and adding 1 to it
        # leaves 1 - x1 in num; the one pass divides it out of the whole sum
        b1, b2 = ("B", ((1, 1),)), ("B", ((1, 2),))
        values = [RatFunc._from_atoms({b1: 1, b2: -2}),
                  RatFunc._from_atoms({b1: -1}), RatFunc.from_const(1)]
        total, fold = RatFunc._sum(values), fold_add(values)
        assert total._equals(fold)
        assert total._fac == {b1: 1, b2: -2} and fold._fac == {b2: -2}

    def test_shared_denominators_cancel_once(self):
        # x1/(x1+x2) + x2/(x1+x2) = 1: the sum divides by the shared form
        form = ("F", 0, 2)
        terms = [RatFunc._from_atoms({("F", 0, 1): 1, form: -1}),
                 RatFunc._from_atoms({("F", 1, 1): 1, form: -1})]
        total = RatFunc._sum(terms)
        assert (total._c, total._num, total._fac) == (1, {0: 1}, {})

    def test_five_terms_against_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:7")

        def pair(v):
            return [sympy.Poly(to_sympy(d, xs), *xs) for d in v._expand()]

        values = [RatFunc._from_atoms(
            {a: rng.choice([-1, 1]) for a in rng.sample(SUM_ATOMS, 3)},
            Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 6)))._mul(
                RatFunc._from_dict(rng.choice(SUM_NUMS))) for _ in range(5)]
        num, den = pair(values[0])
        for v in values[1:]:  # num/den + n/d over the product of the dens
            n, d = pair(v)
            num, den = num * d + n * den, den * d
        total_num, total_den = pair(RatFunc._sum(values))
        assert num * total_den == total_num * den


class TestFactoredConstruction:
    def test_value_preserved(self, rng):
        from hookweight.ratfunc import Polynomial, RatFunc
        for _ in range(120):
            num = dict_poly(rng, max_terms=3) or {0: 1}
            den = {0: 1}
            for _k in range(rng.randint(0, 3)):
                num = _dp_mul(num, _atom_dict(random_form(rng)))
            for _k in range(rng.randint(0, 3)):
                den = _dp_mul(den, _atom_dict(random_form(rng)))
            rf = RatFunc(Polynomial._from_dict(dict(num)),
                         Polynomial._from_dict(dict(den)))
            # pure form denominators always factor into F atoms
            assert all(atom[0] == "F" for atom, e in rf._fac.items()
                       if e < 0)
            assert cross_equal(rf._expand(), (num, den))
            assert cross_equal((rf.num._d, rf.den._d), (num, den))


class TestHintDivision:
    def test_stops_at_a_constant(self, monkeypatch):
        calls = []
        divide = ratfunc._try_divide_atom

        def counting(p, atom):
            calls.append(atom)
            return divide(p, atom)

        monkeypatch.setattr(ratfunc, "_try_divide_atom", counting)
        hints = [("B", ((v, 1),)) for v in (1, 2, 3)]
        # (1 - x1) / (1 - x1) leaves the constant -1 after the sign fix
        f = RatFunc._normalized(Fraction(1), {0: 1, _mono_pack({1: 1}): -1},
                                {}, hints)
        assert calls == hints[:1]
        assert f._c == 1 and f._num == {0: 1} and f._fac == {hints[0]: 1}

    def test_single_variables_are_not_tried(self, monkeypatch):
        calls = []
        divide = ratfunc._try_divide_atom

        def counting(p, atom):
            calls.append(atom)
            return divide(p, atom)

        monkeypatch.setattr(ratfunc, "_try_divide_atom", counting)
        x1, x2 = ("F", 0, 1), ("F", 1, 1)
        # x1^2 * x2 + x1 * x2^2 = x1 * x2 * [2]: the monomial content comes
        # out before the hints, so neither variable is tried
        num = {_mono_pack({1: 2, 2: 1}): 1, _mono_pack({1: 1, 2: 2}): 1}
        f = RatFunc._normalized(Fraction(1), num, {}, [x1, ("F", 0, 2), x2])
        assert calls == [("F", 0, 2)]
        assert f._num == {0: 1} and f._fac == {x1: 1, x2: 1, ("F", 0, 2): 1}


class TestOpaqueAtomSign:
    def test_negated_input_inverts_to_the_same_atom(self, rng):
        from hookweight.ratfunc import Polynomial, RatFunc
        seen_p = 0
        for _ in range(120):
            p = dict_poly(rng)
            if not p:
                continue
            a = RatFunc(Polynomial._from_dict(dict(p)))._inv()
            b = RatFunc(Polynomial._from_dict(_dp_neg(p)))._inv()
            assert a._fac == b._fac and a._c == -b._c
            seen_p += any(atom[0] == "P" for atom in a._fac)
        assert seen_p


class TestSparseAccumulator:
    """_dp_acc is the one in-place sum of sparse maps.  Values share their
    dicts, so no sum or product may change an operand's."""

    def test_cancelling_keys_are_dropped(self):
        out = {1: 2, 5: -1}
        assert _dp_acc(out, [(1, -2), (7, 3), (5, 1), (7, -3)]) is out
        assert out == {}

    def test_zero_on_a_new_key_is_ignored(self):
        assert _dp_acc({}, [(3, 0)]) == {}
        assert _dp_acc({3: 1}, [(4, 0), (3, 0)]) == {3: 1}

    def test_tuple_and_atom_keys(self):
        words = _dp_acc({}, [((2, 1), 1), ((1, 2), Fraction(1, 2)),
                             ((2, 1), -1)])
        assert words == {(1, 2): Fraction(1, 2)}
        atoms = _dp_acc({("F", 0, 2): -1},
                        [(("F", 0, 2), 1), (("B", ((1, 1),)), -1)])
        assert atoms == {("B", ((1, 1),)): -1}

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3))))
    def test_matches_a_counter(self, items):
        expected = Counter()
        for k, v in items:
            expected[k] += v
        assert _dp_acc({}, items) == {k: v for k, v in expected.items() if v}

    def test_t_exponents_are_not_packed_fields(self):
        # 40000 + 40000 would carry out of a 16-bit field of a packed key
        t = UniPoly.monomial(40000)
        assert (t * t).coeffs == {80000: 1}

    def test_ratfunc_operands_are_unchanged(self, rng):
        for _ in range(60):
            f, g = random_frf(rng), random_frf(rng)
            before = [(dict(v._num), dict(v._fac)) for v in (f, g)]
            f._mul(g), g._mul(f), f._mul(f._inv()), f._add(g), g._add(f)
            f._equals(g)
            assert [(v._num, v._fac) for v in (f, g)] == before

    def test_unirat_operands_are_unchanged(self):
        cubic = ((0, 1), (1, 1), (2, 1))  # 1 + t + t^2, no binomial
        a = UniRatFunc._factored(2, 1, {1: 2, 3: -1, cubic: 1})
        b = UniRatFunc._factored(Fraction(1, 3), 0, {1: -2, 3: -1, 5: 1})
        before = (dict(a._f), dict(b._f))
        a * b, b * a, a / b, b / a, a / a, a == b
        assert (a._f, b._f) == before

    def test_cached_value_prints_the_same_after_arithmetic(self):
        from hookweight.combinat import ForestPoset
        from hookweight.specialize import spec_q
        from hookweight.weights import H_of_forest, L_of_forest
        p = ForestPoset.from_covers(5, [[2, 1], [3, 1], [5, 4]])
        value = L_of_forest(p)
        text = str(value)
        other = H_of_forest(p)
        value._mul(other), other._mul(value), value._mul(value._inv())
        value._add(value), value._add(other), other._add(value)
        value - value, value == other, spec_q(value) / spec_q(other)
        assert L_of_forest(p) is value
        assert str(value) == text


class TestSingleRepresentation:
    def test_every_constructor_is_factored(self):
        from hookweight.combinat import DualForestPoset, ForestPoset
        from hookweight.fqsym import (
            FQSymElem,
            dual_forest_prereqs,
            gamma_dual_forest,
            gamma_extension_sum,
            gamma_perm,
            phi_inv,
            phi_maj,
        )
        from hookweight.parsing import parse_ratfunc
        from hookweight.qanalog import binomial, divided_power
        from hookweight.ratfunc import (
            Polynomial,
            RatFunc,
            rf_add,
            rf_div,
            rf_frobenius,
            rf_inv,
            rf_mul,
        )
        from hookweight.weights import (
            H_of_forest,
            L_of_forest,
            wt_perm_recursive,
            wt_perm_tree,
            wt_subset,
        )
        from oracles import L_direct, wt_subset_recursive
        x1, x2 = Polynomial.variable(1), Polynomial.variable(2)
        vee = ForestPoset.from_covers(3, [[1, 2], [3, 2]])
        dual = DualForestPoset.from_covered_by(3, [[1, 3], [2, 3]])
        elem = FQSymElem.basis([2, 1, 3])
        a = RatFunc(x1 + x2 ** 2, x1 * x2 + Polynomial.one())
        values = [
            RatFunc(), RatFunc(x1), RatFunc(x1 + x2, x2), a, RatFunc(a),
            RatFunc.from_const(3), parse_ratfunc("(x2+x3^2)/(1+x1x3)"),
            rf_add(a, a), rf_mul(a, a), rf_inv(a), rf_div(a, a),
            rf_frobenius(a, 2), -a, a - 1, 1 / a,
            wt_subset([3, 1]), wt_subset_recursive([3, 1]),
            wt_perm_recursive([3, 1, 2]), wt_perm_tree([3, 1, 2]),
            L_of_forest(vee), L_direct(vee),
            H_of_forest(vee), binomial(4, 2), gamma_perm([2, 1, 3]),
            gamma_dual_forest(dual),
            gamma_extension_sum(dual_forest_prereqs(dual)),
        ]
        for skew in (phi_inv(elem), phi_maj(elem), divided_power(3)):
            values.extend(skew.coeffs.values())
        for value in values:
            assert (type(value) is RatFunc and isinstance(value._c, Fraction)
                    and isinstance(value._num, dict)
                    and isinstance(value._fac, dict)), value

    def test_printing_a_cached_value_leaves_it_unchanged(self):
        from hookweight.combinat import ForestPoset
        from hookweight.weights import L_of_forest
        p = ForestPoset.from_covers(5, [[2, 1], [3, 1], [5, 4]])
        value = L_of_forest(p)
        assert L_of_forest(p) is value  # handed out from the cache
        assert len(value._fac) > 2  # atoms that printing multiplies out
        fields = (value._c, value._num, value._fac)
        copies = (value._c, dict(value._num), dict(value._fac))
        text = str(value)
        num, den = value.num, value.den
        num._d.clear()  # the returned polynomials are the caller's own
        den._d.clear()
        assert (value._c, value._num, value._fac) == copies
        assert all(now is then for now, then in
                   zip((value._c, value._num, value._fac), fields))
        assert str(L_of_forest(p)) == text
        assert RatFunc.__slots__ == ("_c", "_num", "_fac")

    def test_opaque_atoms_are_not_cached(self):
        from hookweight.ratfunc import _named_atom_dict
        before = _named_atom_dict.cache_info().currsize
        atom = ("P", tuple(sorted(dict_poly(random.Random(7)).items())))
        assert _atom_dict(atom) == dict(atom[1])
        assert _named_atom_dict.cache_info().currsize == before


def fraction_gcd_oracle(a, b):
    """Plain Euclid over Q on dense lists; returns a monic UniPoly."""
    fa = {e: Fraction(v) for e, v in enumerate(a) if v}
    fb = {e: Fraction(v) for e, v in enumerate(b) if v}

    def divmod_(x, y):
        x = dict(x)
        dy = max(y)
        ly = y[dy]
        while x and max(x) >= dy:
            dx = max(x)
            c = x[dx] / ly
            for e, v in y.items():
                ee = dx - dy + e
                nv = x.get(ee, 0) - c * v
                if nv:
                    x[ee] = nv
                else:
                    x.pop(ee, None)
        return x

    while fb:
        fa, fb = fb, divmod_(fa, fb)
    lead = fa[max(fa)]
    return {e: v / lead for e, v in fa.items()}


class TestIntegerGcd:
    def test_against_fraction_euclid(self, rng):
        for _ in range(150):
            deg_g = rng.randint(0, 3)
            g = [rng.randint(-4, 4) for _ in range(deg_g)] + [rng.randint(1, 4)]
            a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [1]
            b = [rng.randint(-5, 5) for _ in range(rng.randint(0, 4))] + [1]

            def mul(x, y):
                out = [0] * (len(x) + len(y) - 1)
                for i, xi in enumerate(x):
                    for j, yj in enumerate(y):
                        out[i + j] += xi * yj
                return out

            A, B = mul(a, g), mul(b, g)
            got = _int_gcd_dense(A, B)
            lead = Fraction(got[-1])
            got_monic = {e: Fraction(v) / lead for e, v in enumerate(got) if v}
            assert got_monic == fraction_gcd_oracle(A, B)

    def test_reduction_invariants(self, rng):
        for _ in range(100):
            num = UniPoly({rng.randint(0, 8): rng.randint(-6, 6)
                           for _ in range(rng.randint(1, 4))})
            den = UniPoly({rng.randint(0, 6): rng.randint(-6, 6)
                           for _ in range(rng.randint(1, 4))})
            if num.is_zero() or den.is_zero():
                continue
            r = UniRatFunc(num, den)
            assert r.den.leading_coefficient() == 1
            # reduced pair stays equal to the original fraction
            assert r.num * den == num * r.den
            # and is actually coprime: reducing again changes nothing
            again = UniRatFunc(r.num, r.den)
            assert again.num == r.num and again.den == r.den
