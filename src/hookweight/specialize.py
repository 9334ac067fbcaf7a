"""Univariate specializations of the multivariate weights.

``spec_q`` substitutes x_i -> q^{i-1} - q^i, collapsing every weight wt(w)
to q^inv(w) and the hook identity to the classical q-hook formula.
``spec_qt`` substitutes x_i -> t^{q^{i-1}} - t^{q^i} for a fixed integer
q >= 2; its exponents grow like q^i, so a configurable bound guards the
computation.

Univariate values are ``UniPoly`` (sparse dict, exponent -> coefficient) and
``UniRatFunc`` (numerator/denominator reduced by univariate GCD, monic
denominator).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from .combinat import ForestPoset, inv, inv_poset, linear_extensions, subtree_data
from .ratfunc import RatFunc, _mono_unpack
from .weights import L_of_forest

__all__ = [
    "UniPoly",
    "UniRatFunc",
    "SpecializationError",
    "ExponentBoundError",
    "spec_q",
    "spec_qt",
    "q_bracket",
    "q_factorial",
    "verify_bw_inv",
    "DEFAULT_QT_BOUND",
]

DEFAULT_QT_BOUND = 1 << 20

_GCD_DEGREE_LIMIT = 10000


class SpecializationError(ValueError):
    """The substituted denominator vanished (or the map is undefined)."""


class ExponentBoundError(SpecializationError):
    """A required exponent q^i exceeded the configured bound."""


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
        out = UniPoly.constant(1)
        for _ in range(n):
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

def _spec_q_dict(d: dict) -> UniPoly:
    """Apply x_i -> q^{i-1}(1-q) monomial by monomial."""
    out: dict = {}
    for key, coeff in d.items():
        qpow = 0
        deg = 0
        for var, exp in _mono_unpack(key):
            qpow += (var - 1) * exp
            deg += exp
        for e, v in _one_minus_q_power(deg)._c.items():
            ee = qpow + e
            nv = out.get(ee, 0) + coeff * v
            if nv:
                out[ee] = nv
            else:
                del out[ee]
    return UniPoly._raw(out)


@lru_cache(maxsize=None)
def _one_minus_q_power(deg: int) -> UniPoly:
    if deg == 0:
        return UniPoly.constant(1)
    return _one_minus_q_power(deg - 1) * UniPoly({0: 1, 1: -1})


def spec_q(f: RatFunc) -> UniRatFunc:
    """Substitute x_i -> q^{i-1} - q^i and reduce."""
    frf = f._frf
    if frf.is_zero():
        return UniRatFunc(UniPoly())
    num = _spec_q_dict(frf.num).scale(frf.c.numerator)
    den = UniPoly.constant(frf.c.denominator)
    for atom, e in frf.fac.items():
        a = _spec_q_atom(atom)
        for _ in range(abs(e)):
            if e > 0:
                num = num * a
            else:
                den = den * a
    return UniRatFunc(num, den)


def _spec_q_atom(atom) -> UniPoly:
    if atom[0] == "F":
        _, off, m = atom
        return UniPoly({off: 1, off + m: -1})  # q^a - q^{a+m}
    if atom[0] == "P":
        return _spec_q_dict(dict(atom[1]))
    _, pairs = atom  # 1 - x^m with x_i -> q^{i-1}(1-q)
    qpow = sum((v - 1) * e for v, e in pairs)
    deg = sum(e for _v, e in pairs)
    return UniPoly.constant(1) - (_one_minus_q_power(deg)
                                  * UniPoly.monomial(qpow))


def _qt_power(i: int, q: int, bound: int) -> int:
    """q**i for q >= 2, or ExponentBoundError when it exceeds ``bound``.

    2**i > bound already settles a large i, so no huge power is built.
    """
    if i < bound.bit_length():
        hi = q ** i
        if hi <= bound:
            return hi
    raise ExponentBoundError(f"exponent q^{i} exceeds the bound {bound}")


def _qt_var(i: int, q: int, bound: int) -> UniPoly:
    hi = _qt_power(i, q, bound)
    return UniPoly({hi // q: 1, hi: -1})


def spec_qt(f: RatFunc, q: int, bound: int = DEFAULT_QT_BOUND) -> UniRatFunc:
    """Substitute x_i -> t^{q^{i-1}} - t^{q^i} for a fixed integer q >= 2."""
    if q < 2:
        raise ValueError("spec_qt requires an integer q >= 2")
    frf = f._frf
    if frf.is_zero():
        return UniRatFunc(UniPoly())
    num = _spec_qt_dict(frf.num, q, bound).scale(frf.c.numerator)
    den = UniPoly.constant(frf.c.denominator)
    for atom, e in frf.fac.items():
        a = _spec_qt_atom(atom, q, bound)
        for _ in range(abs(e)):
            if e > 0:
                num = num * a
            else:
                den = den * a
    return UniRatFunc(num, den)


def _spec_qt_atom(atom, q: int, bound: int) -> UniPoly:
    if atom[0] == "F":
        _, off, m = atom  # the shifted bracket telescopes
        return UniPoly({q ** off: 1, _qt_power(off + m, q, bound): -1})
    if atom[0] == "P":
        return _spec_qt_dict(dict(atom[1]), q, bound)
    _, pairs = atom
    mono = UniPoly.constant(1)
    for var, exp in pairs:
        v = _qt_var(var, q, bound)
        for _ in range(exp):
            mono = mono * v
    return UniPoly.constant(1) - mono


def _spec_qt_dict(d: dict, q: int, bound: int) -> UniPoly:
    out = UniPoly()
    for key, coeff in d.items():
        term = UniPoly.constant(coeff)
        for var, exp in _mono_unpack(key):
            v = _qt_var(var, q, bound)
            for _ in range(exp):
                term = term * v
        out = out + term
    return out


# ---------------------------------------------------------------------------
# the q-hook formula check
# ---------------------------------------------------------------------------

def verify_bw_inv(p: ForestPoset) -> bool:
    """Inversion-statistic hook formula on a recursively labelled forest.

    Checks that spec_q(L(P)) equals both sum_w q^inv(w) and
    q^inv(P) [n]!_q / prod [h_i]_q.
    """
    lhs = spec_q(L_of_forest(p))
    gen = UniPoly()
    for w in linear_extensions(p):
        gen = gen + UniPoly.monomial(inv(w))
    num = q_factorial(p.n) * UniPoly.monomial(inv_poset(p))
    den = UniPoly.constant(1)
    for i in range(1, p.n + 1):
        den = den * q_bracket(subtree_data(p, i)[2])
    closed = UniRatFunc(num, den)
    return lhs == UniRatFunc(gen) and lhs == closed
