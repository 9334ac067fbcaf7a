"""Univariate specializations of the multivariate weights.

One routine, ``_substitute``, maps a factored value under x_i -> var(i) and
reduces it; the image of every monomial and atom is built from the variable
images.  Three maps use it:

* ``spec_q``: x_i -> q^{i-1} - q^i, collapsing every weight wt(w) to
  q^inv(w) and the hook identity to the classical q-hook formula;
* ``spec_qt``: x_i -> t^{q^{i-1}} - t^{q^i} for a fixed integer q >= 2; its
  exponents grow like q^i, so a configurable bound guards them
  (``ExponentBoundError``);
* x_i -> q, used by ``fqsym.verify_bw_maj`` for the major-index formula.

Before multiplying, each product is bounded by the bits of coefficients it
may hold: its term count (at most its degree span + 1, and at most the
product of its factors' term counts) times the bits of its largest possible
coefficient.  Above ``MAX_SPEC_BITS`` it raises ``SizeBoundError``, so a
dense power such as (1-q)^65535 is refused while a product of many sparse
binomials, such as [300]!_q, still expands.  Both errors are
``SpecializationError``s, on which the CLI exits 3.

Univariate values are ``UniPoly`` (sparse dict, exponent -> coefficient) and
``UniRatFunc`` (numerator/denominator reduced by univariate GCD, monic
denominator).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Iterable

from .combinat import ForestPoset, inv, inv_poset, linear_extensions, subtree_data
from .ratfunc import RatFunc, _mono_unpack
from .weights import L_of_forest

__all__ = [
    "UniPoly",
    "UniRatFunc",
    "SpecializationError",
    "ExponentBoundError",
    "SizeBoundError",
    "spec_q",
    "spec_qt",
    "q_bracket",
    "q_factorial",
    "verify_bw_inv",
    "DEFAULT_QT_BOUND",
    "MAX_SPEC_BITS",
]

DEFAULT_QT_BOUND = 1 << 20

# Most bits of coefficients a product may hold once multiplied out (16 MiB).
# Just below it, spec_q of x1^11584 takes about 70 s and of H(antichain 640)
# about 40 s on one 2.1 GHz Xeon core; x1^65535 would take hours.
MAX_SPEC_BITS = 1 << 27

_GCD_DEGREE_LIMIT = 10000


class SpecializationError(ValueError):
    """The substituted denominator vanished (or the map is undefined)."""


class ExponentBoundError(SpecializationError):
    """A required exponent q^i exceeded the configured bound."""


class SizeBoundError(SpecializationError):
    """A product to multiply out may hold more than MAX_SPEC_BITS bits."""


class UniPoly:
    """Sparse univariate polynomial over Q: {exponent: coefficient}."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict | None = None):
        self._c: dict[int, Fraction | int] = {}
        if coeffs:
            for e, v in coeffs.items():
                if e < 0:
                    raise ValueError("negative exponent")
                if v:
                    self._c[e] = self._c.get(e, 0) + v
                    if not self._c[e]:
                        del self._c[e]

    @classmethod
    def _raw(cls, c: dict) -> "UniPoly":
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def constant(cls, v) -> "UniPoly":
        return cls({0: v})

    @classmethod
    def monomial(cls, e: int, v=1) -> "UniPoly":
        return cls({e: v})

    @property
    def coeffs(self) -> dict[int, Fraction | int]:
        return dict(self._c)

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return max(self._c, default=-1)

    def is_zero(self) -> bool:
        return not self._c

    def leading_coefficient(self):
        return self._c[self.degree()] if self._c else 0

    def __add__(self, other) -> "UniPoly":
        other = _as_unipoly(other)
        out = dict(self._c)
        for e, v in other._c.items():
            nv = out.get(e, 0) + v
            if nv:
                out[e] = nv
            else:
                del out[e]
        return UniPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other) -> "UniPoly":
        return self + (-_as_unipoly(other))

    def __rsub__(self, other) -> "UniPoly":
        return _as_unipoly(other) + (-self)

    def __mul__(self, other) -> "UniPoly":
        other = _as_unipoly(other)
        out: dict = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                nv = out.get(e, 0) + v1 * v2
                if nv:
                    out[e] = nv
                else:
                    del out[e]
        return UniPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n == 0:
            return UniPoly.constant(1)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def scale(self, v) -> "UniPoly":
        if not v:
            return UniPoly()
        return UniPoly._raw({e: c * v for e, c in self._c.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return {e: Fraction(v) for e, v in self._c.items()} == \
               {e: Fraction(v) for e, v in other._c.items()}

    __hash__ = None

    def __call__(self, value):
        return sum((Fraction(v) * Fraction(value) ** e for e, v in self._c.items()),
                   Fraction(0))

    def to_string(self, var: str = "q") -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            neg = v < 0
            av = -v if neg else v
            if e == 0:
                body = _uni_coeff_str(av)
            else:
                x = var if e == 1 else f"{var}^{e}"
                body = x if av == 1 else _uni_coeff_str(av) + x
            parts.append(("-" if neg else ("" if not parts else "+")) + body)
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"UniPoly<{self}>"


def _uni_coeff_str(v) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"({v.numerator}/{v.denominator})"
    return str(int(v))


def _coeff(v: Fraction):
    return int(v) if v.denominator == 1 else v


def _as_unipoly(v) -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UniPoly.constant(v)
    raise TypeError(f"expected UniPoly, got {type(v)}")


def _dense_int(p: UniPoly) -> tuple[list, int]:
    """Ascending int coefficient list A and scale s with p = A / s."""
    s = 1
    for v in p._c.values():
        if isinstance(v, Fraction):
            d = v.denominator
            s = s // gcd(s, d) * d
    out = [0] * (p.degree() + 1)
    for e, v in p._c.items():
        out[e] = int(v * s)
    return out, s


def _int_content(coeffs) -> int:
    g = 0
    for v in coeffs:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    return g or 1


def _strip(A: list) -> list:
    while A and not A[-1]:
        A.pop()
    return A


def _int_prem(A: list, B: list) -> list:
    """Pseudo-remainder of A by B, up to scalar (content stripped freely)."""
    A = list(A)
    db = len(B) - 1
    lb = B[-1]
    rows = 0
    for i in range(len(A) - 1, db - 1, -1):
        la = A[i]
        if not la:
            continue
        if lb != 1:
            for j in range(i + 1):
                if A[j]:
                    A[j] *= lb
        off = i - db
        for j in range(db + 1):
            A[off + j] -= la * B[j]
        rows += 1
        if rows % 32 == 0:
            c = _int_content(A[:i])
            if c > 1:
                for j in range(i):
                    A[j] //= c
    return _strip(A[:db])


def _int_gcd_dense(A: list, B: list) -> list:
    """Primitive gcd (positive leading coefficient) of int coefficient lists."""
    A = _strip(list(A))
    B = _strip(list(B))
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _int_prem(A, B)
        c = _int_content(R)
        if c > 1:
            R = [v // c for v in R]
        A, B = B, R
    c = _int_content(A)
    if A and A[-1] < 0:
        c = -c
    return [v // c for v in A]


def _int_exact_div(A: list, G: list) -> list:
    """Quotient of A by a known factor G over the integers."""
    A = list(A)
    dg = len(G) - 1
    lg = G[-1]
    quo = [0] * (len(A) - dg)
    for i in range(len(A) - 1, dg - 1, -1):
        c = A[i]
        if not c:
            continue
        q, r = divmod(c, lg)
        if r:
            raise ArithmeticError("inexact cofactor division")
        quo[i - dg] = q
        for j in range(dg + 1):
            A[i - dg + j] -= q * G[j]
    if any(A[:dg]):
        raise ArithmeticError("inexact cofactor division")
    return quo


class UniRatFunc:
    """num/den with gcd(num, den) = 1 and monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None, reduce: bool = True):
        den = UniPoly.constant(1) if den is None else den
        if den.is_zero():
            raise SpecializationError("zero denominator after specialization")
        if num.is_zero():
            self.num, self.den = UniPoly(), UniPoly.constant(1)
            return
        if reduce and max(num.degree(), den.degree()) <= _GCD_DEGREE_LIMIT:
            a, sa = _dense_int(num)
            b, sb = _dense_int(den)
            ca, cb = _int_content(a), _int_content(b)
            a = [v // ca for v in a]
            b = [v // cb for v in b]
            g = _int_gcd_dense(a, b)
            if len(g) > 1:
                a = _int_exact_div(a, g)
                b = _int_exact_div(b, g)
            # value = (sb*ca)/(sa*cb) * a/b, then make b monic
            factor = Fraction(sb * ca, sa * cb) / b[-1]
            num = UniPoly._raw({e: _coeff(v * factor)
                                for e, v in enumerate(a) if v})
            den = UniPoly._raw({e: _coeff(Fraction(v, b[-1]))
                                for e, v in enumerate(b) if v})
            self.num, self.den = num, den
            return
        lead = Fraction(den.leading_coefficient())
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num, self.den = num, den

    @classmethod
    def constant(cls, v) -> "UniRatFunc":
        return cls(UniPoly.constant(v))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == UniPoly.constant(1)

    def __add__(self, other) -> "UniRatFunc":
        other = _as_unirf(other)
        return UniRatFunc(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "UniRatFunc":
        return UniRatFunc(-self.num, self.den, reduce=False)

    def __sub__(self, other) -> "UniRatFunc":
        return self + (-_as_unirf(other))

    def __mul__(self, other) -> "UniRatFunc":
        other = _as_unirf(other)
        return UniRatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "UniRatFunc":
        other = _as_unirf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return UniRatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, UniPoly)):
            other = _as_unirf(other)
        if not isinstance(other, UniRatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def to_string(self, var: str = "q") -> str:
        if self.is_polynomial():
            return self.num.to_string(var)
        return f"({self.num.to_string(var)})/({self.den.to_string(var)})"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"UniRatFunc<{self}>"


def _as_unirf(v) -> UniRatFunc:
    if isinstance(v, UniRatFunc):
        return v
    if isinstance(v, UniPoly):
        return UniRatFunc(v)
    if isinstance(v, (int, Fraction)):
        return UniRatFunc.constant(v)
    raise TypeError(f"expected UniRatFunc, got {type(v)}")


# ---------------------------------------------------------------------------
# q-analogues
# ---------------------------------------------------------------------------

def q_bracket(n: int) -> UniPoly:
    """[n]_q = 1 + q + ... + q^{n-1}."""
    if n < 0:
        raise ValueError("q_bracket requires n >= 0")
    return UniPoly._raw({e: 1 for e in range(n)})


def q_factorial(n: int) -> UniPoly:
    """[n]!_q = [n]_q [n-1]_q ... [1]_q."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    out = UniPoly.constant(1)
    for m in range(2, n + 1):
        out = out * q_bracket(m)
    return out


# ---------------------------------------------------------------------------
# the specialization maps
# ---------------------------------------------------------------------------
#
# A map is its variable image var(i), the image of x_i.  Every other image is
# built from those, so one routine serves all maps; var must be hashable
# because the F and B atom images are cached per map.

def _q_var(i: int) -> UniPoly:
    """x_i -> q^{i-1} - q^i."""
    return UniPoly._raw({i - 1: 1, i: -1})


def _all_q_var(i: int) -> UniPoly:
    """x_i -> q, so a monomial goes to q^degree."""
    return UniPoly._raw({1: 1})


def _qt_power(i: int, q: int, bound: int) -> int:
    """q**i for q >= 2, or ExponentBoundError when it exceeds ``bound``.

    2**i > bound already settles a large i, so no huge power is built.
    """
    if i < bound.bit_length():
        hi = q ** i
        if hi <= bound:
            return hi
    raise ExponentBoundError(f"exponent q^{i} exceeds the bound {bound}")


@lru_cache(maxsize=None)
def _qt_map(q: int, bound: int):
    """The map x_i -> t^{q^{i-1}} - t^{q^i}, one function per (q, bound)."""
    def var(i: int) -> UniPoly:
        hi = _qt_power(i, q, bound)
        return UniPoly._raw({hi // q: 1, hi: -1})
    return var


def _sized(p: UniPoly) -> tuple[UniPoly, int, int, int]:
    """p with its degree span, term count and coefficient 1-norm bit length.

    These bound the size of p's powers (see ``_product``); a zero p has
    term count 0.
    """
    c = p._c
    if not c:
        return p, 0, 0, 0
    norm = sum(map(abs, c.values()))
    return p, max(c) - min(c), len(c), (norm - 1).bit_length()


def _product(factors, c: int = 1) -> UniPoly:
    """c times the (sized image, exponent) pairs multiplied out, checked first.

    The product has at most span + 1 terms, the span being its highest
    exponent minus its lowest, and at most the product of the factors' term
    counts, where p^e has at most C(len(p) + e - 1, e) terms (one per
    multiset of e terms of p).  Its integer coefficients are at most |c|
    times the product of the factors' coefficient 1-norms, so they fit in
    the sum of those norms' bit lengths.  The smaller term count times that
    many bits may not exceed MAX_SPEC_BITS.
    """
    span, terms, bits = 0, 1, abs(c).bit_length()
    for (_, ps, pn, pb), e in factors:
        if not pn:
            return UniPoly()
        span += e * ps
        terms = min(terms * (pn if e == 1 else comb(pn + e - 1, e)),
                    MAX_SPEC_BITS + 1)
        bits += e * pb
    if min(span + 1, terms) * bits > MAX_SPEC_BITS:
        raise SizeBoundError(f"a product to expand may hold more than "
                             f"{MAX_SPEC_BITS} bits of coefficients")
    out = None
    for (p, _, _, _), e in factors:
        out = p ** e if out is None else out * p ** e
    if out is None:
        return UniPoly._raw({0: c})
    return out if c == 1 else out.scale(c)


@lru_cache(maxsize=None)
def _var_image(var, i: int):
    """Sized image of x_i."""
    return _sized(var(i))


def _poly_image(items, var) -> UniPoly:
    """Image of a polynomial given as (packed key, coefficient) pairs."""
    out = UniPoly()
    for key, coeff in items:
        out = out + _product([(_var_image(var, v), e)
                              for v, e in _mono_unpack(key)], coeff)
    return out


@lru_cache(maxsize=None)
def _atom_image(atom, var):
    """Sized image of an F or B atom, cached; P atoms are mostly one-offs."""
    if atom[0] == "F":
        _, off, m = atom  # the sum telescopes under the q and (q,t) maps
        return _sized(sum((var(i) for i in range(off + 1, off + m + 1)),
                          UniPoly()))
    return _sized(1 - _product([(_var_image(var, v), e)
                                for v, e in atom[1]]))  # 1 - x^u


def _substitute(f: RatFunc, var) -> UniRatFunc:
    """Map f under x_i -> var(i) and reduce."""
    frf = f._frf
    if frf.is_zero():
        return UniRatFunc(UniPoly())
    num = [(_sized(_poly_image(frf.num.items(), var)), 1)]
    den = []
    for atom, e in frf.fac.items():
        a = (_sized(_poly_image(atom[1], var)) if atom[0] == "P"
             else _atom_image(atom, var))
        if e > 0:
            num.append((a, e))
        else:
            den.append((a, -e))
    return UniRatFunc(_product(num, frf.c.numerator),
                      _product(den, frf.c.denominator))


def spec_q(f: RatFunc) -> UniRatFunc:
    """Substitute x_i -> q^{i-1} - q^i and reduce."""
    return _substitute(f, _q_var)


def spec_qt(f: RatFunc, q: int, bound: int = DEFAULT_QT_BOUND) -> UniRatFunc:
    """Substitute x_i -> t^{q^{i-1}} - t^{q^i} for a fixed integer q >= 2."""
    if q < 2:
        raise ValueError("spec_qt requires an integer q >= 2")
    return _substitute(f, _qt_map(q, bound))


# ---------------------------------------------------------------------------
# the q-hook formula check
# ---------------------------------------------------------------------------

def _q_hook_sides(ext_stats: Iterable[int], stat_p: int, n: int,
                  hooks: Iterable[int]) -> tuple[UniRatFunc, UniRatFunc]:
    """sum_w q^stat(w) over the extensions, and q^stat(P) [n]!_q / prod [h]_q.

    ``ext_stats`` holds stat(w) for each linear extension w.
    """
    den = UniPoly.constant(1)
    for h in hooks:
        den = den * q_bracket(h)
    closed = UniRatFunc(q_factorial(n) * UniPoly.monomial(stat_p), den)
    return UniRatFunc(UniPoly(Counter(ext_stats))), closed


def verify_bw_inv(p: ForestPoset) -> bool:
    """Inversion-statistic hook formula on a recursively labelled forest.

    Checks that spec_q(L(P)) equals both sum_w q^inv(w) and
    q^inv(P) [n]!_q / prod [h_i]_q.
    """
    lhs = spec_q(L_of_forest(p))
    gen, closed = _q_hook_sides(
        (inv(w) for w in linear_extensions(p)), inv_poset(p), p.n,
        (subtree_data(p, i)[2] for i in range(1, p.n + 1)))
    return lhs == gen and lhs == closed
