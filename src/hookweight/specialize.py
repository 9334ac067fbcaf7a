"""Univariate specializations of the multivariate weights.

One routine, ``_substitute``, maps a factored value under x_i -> var(i); the
image of every monomial and atom is built from the variable images.  Three
maps use it:

* ``spec_q``: x_i -> q^{i-1} - q^i, collapsing every weight wt(w) to
  q^inv(w) and the hook identity to the classical q-hook formula;
* ``spec_qt``: x_i -> t^{q^{i-1}} - t^{q^i} for a fixed integer q >= 2; its
  exponents grow like q^i, so a configurable bound guards them
  (``ExponentBoundError``);
* x_i -> q, used by ``fqsym.verify_bw_maj`` for the major-index formula.

Under all three maps a bracket atom goes to c t^a (1 - t^k), so the image
stays factored: a ``UniRatFunc`` is c t^a prod f^e with a table of factors
f, keyed by k for the binomial 1 - t^k.  Products and quotients add tables,
and equality cancels the shared factors and cross-multiplies the rest.  The
reduced numerator and denominator are built only for ``num``, ``den`` and
printing.  There 1 - t^k splits into cyclotomic factors, which cancel by
counting; a factor that is no binomial gives up its cyclotomic factors by
exact division, and a dense GCD is taken only between such factors on both
sides.

Before multiplying, each product is bounded by the bits of coefficients it
may hold: its term count (at most its degree span + 1, and at most the
product of its factors' term counts) times the bits of its largest possible
coefficient.  Above ``MAX_SPEC_BITS`` it raises ``SizeBoundError``, so a
dense power such as (1-q)^65535 is refused while a product of many sparse
binomials, such as [300]!_q, still expands.  A substituted value is checked
the same way before it is returned, and so is the dense GCD.  Both errors
are ``SpecializationError``s, on which the CLI exits 3.  The bound is one
function, ``ratfunc._check_size``, which also bounds printing a
multivariate value; each factor comes with its size (``_sized``), whose
one variable t is packed in no key and costs no exponent bits.

Inside, a polynomial in t is a plain {exponent: coefficient} dict, as a
polynomial is in ``ratfunc``: the variable maps, the images, the split
factors, the products and the reduction take and return dicts.  A
``UniPoly``, which shares ``Polynomial``'s ring operations
(``ratfunc._SparsePoly``), is built only for ``num``, ``den``,
``q_bracket``, ``q_factorial`` and the q-hook sides, and read only by
``UniRatFunc(num, den)``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd
from typing import Iterable

from .combinat import (ForestPoset, extension_stat_counts, inv_poset,
                       subtree_data)
from .ratfunc import (MAX_SPEC_BITS, SizeBoundError, SpecializationError,
                      _SparsePoly, _as_coeff, _as_rf, _check_size,
                      _coeff_clear, _dict_mul, _dp_acc, _dp_add, _dp_neg,
                      _dp_scale, _int_str, _mono_unpack)
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


class ExponentBoundError(SpecializationError):
    """A required exponent q^i exceeded the configured bound."""


class UniPoly(_SparsePoly):
    """Sparse univariate polynomial over Q: {exponent: coefficient}."""

    __slots__ = ()
    _dict_product = staticmethod(_dict_mul)
    __hash__ = None

    def __init__(self, coeffs: dict | None = None):
        coeffs = coeffs or {}
        for e in coeffs:
            if not isinstance(e, int):
                raise TypeError(f"exponent {e!r} is not an int")
            if e < 0:
                raise ValueError("negative exponent")
        self._d = _dp_acc({}, ((e, _as_coeff(v)) for e, v in coeffs.items()))

    @classmethod
    def monomial(cls, e: int, v=1) -> "UniPoly":
        return cls({e: v})

    @property
    def coeffs(self) -> dict[int, Fraction | int]:
        return dict(self._d)

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return max(self._d, default=-1)

    def leading_coefficient(self):
        return self._d[self.degree()] if self._d else 0

    def scale(self, v) -> "UniPoly":
        return UniPoly._from_dict(_dp_scale(self._d, _as_coeff(v)))

    def __call__(self, value):
        return sum((Fraction(v) * Fraction(value) ** e for e, v in self._d.items()),
                   Fraction(0))

    def to_string(self, var: str = "q") -> str:
        if not self._d:
            return "0"
        parts = []
        for e in sorted(self._d, reverse=True):
            v = self._d[e]
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
        return f"({_int_str(v.numerator)}/{_int_str(v.denominator)})"
    return _int_str(int(v))


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
            c = gcd(*A[:i])
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
        c = gcd(*R)
        if c > 1:
            R = [v // c for v in R]
        A, B = B, R
    c = gcd(*A)
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


# ---------------------------------------------------------------------------
# the size bound
# ---------------------------------------------------------------------------

def _sized(p: dict) -> tuple:
    """p's size as ``ratfunc._check_size`` reads it, followed by p.

    The size is p's term count, the bit length of its coefficient 1-norm
    minus 1, no packed variable, and its lowest and highest exponent; a
    zero p has term count 0.
    """
    if not p:
        return 0, 0, 0, 0, 0, p
    norm = sum(map(abs, p.values()))
    return len(p), (norm - 1).bit_length(), 0, min(p), max(p), p


def _product(factors, c: int = 1) -> dict:
    """c times the (sized p, e) pairs multiplied out, checked first; with
    c = 1 and one factor p^1 it is p's own dict."""
    if any(not size[0] for size, _ in factors):
        return {}
    _check_size(factors, c)
    out = None
    for size, e in factors:
        for _ in range(e):
            out = size[5] if out is None else _dict_mul(out, size[5])
    if out is None:
        return {0: c}
    return out if c == 1 else _dp_scale(out, c)


# ---------------------------------------------------------------------------
# binomials 1 - t^k and their cyclotomic factors
# ---------------------------------------------------------------------------
#
# 1 - t^k is the product of psi_d over the divisors d of k, where psi_1 =
# 1 - t and psi_d is the cyclotomic polynomial Phi_d for d >= 2.  By Moebius
# inversion psi_d = prod_{e | d} (1 - t^e)^mu(d/e), so any product of
# binomials and psi's is multiplied out by multiplications and exact
# divisions by binomials, each linear in the number of terms.

# Miller-Rabin on the primes up to 37 decides primality exactly below
# _MR_EXACT_BELOW; the bound itself is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 3317044064679887385961981


def _passes_miller_rabin(n: int) -> bool:
    """False proves n composite; True proves n prime below _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n, by Pollard's rho."""
    for p in _MR_BASES:
        if n % p == 0:
            return p
    for c in count(1):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(x - y, n)
        if d != n:
            return d


@lru_cache(maxsize=None)
def _factorization(k: int) -> tuple[tuple[int, int], ...]:
    """(p, multiplicity) for each prime p | k, ascending.

    Pollard's rho splits every cofactor that Miller-Rabin proves composite,
    and the test proves the others prime below _MR_EXACT_BELOW.  A cofactor
    at or above it that passes the test is not proved prime, so it raises
    SizeBoundError rather than give a factorization that may be wrong.
    """
    primes: Counter = Counter()
    stack = [k]
    while stack:
        m = stack.pop()
        if m < 2:
            continue
        if not _passes_miller_rabin(m):
            d = _rho_factor(m)
            stack += (d, m // d)
        elif m < _MR_EXACT_BELOW:
            primes[m] += 1
        else:
            raise SizeBoundError(f"a binomial exponent has a {m.bit_length()}-"
                                 f"bit factor that is not proved prime")
    return tuple(sorted(primes.items()))


@lru_cache(maxsize=None)
def _divisors(k: int) -> tuple[int, ...]:
    out = [1]
    for p, r in _factorization(k):
        out = [d * p ** i for d in out for i in range(r + 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def _psi_binomials(d: int) -> tuple[tuple[int, int], ...]:
    """(e, mu(d/e)) for each e | d with d/e squarefree."""
    out = [(d, 1)]
    for p, _ in _factorization(d):
        out += [(e // p, -mu) for e, mu in out]
    return tuple(out)


@lru_cache(maxsize=None)
def _binomial(k: int) -> tuple:
    """Sized 1 - t^k."""
    return _sized({0: 1, k: -1})


def _times_binomial(c: dict, k: int) -> dict:
    """c * (1 - t^k)."""
    return _dp_acc(dict(c), [(e + k, -v) for e, v in c.items()])


def _over_binomial(c: dict, k: int) -> dict | None:
    """c / (1 - t^k), or None when 1 - t^k does not divide c.

    1 - t^k divides c exactly when the coefficients in each residue class of
    exponents mod k sum to 0; the quotient's coefficient at e is then the sum
    of c's coefficients at e, e - k, e - 2k, ...
    """
    keys = sorted(c)
    sums: dict = {}
    for e in keys:
        sums[e % k] = sums.get(e % k, 0) + c[e]
    if any(sums.values()):
        return None
    out, last = {}, {}
    for e in keys:
        r = e % k
        if r in last:
            x, run = last[r]
            if run:
                for y in range(x, e, k):
                    out[y] = run
            run += c[e]
        else:
            run = c[e]
        last[r] = (e, run)
    return out


def _expand(polys, exps: dict, c: int = 1) -> dict | None:
    """c * prod p^e * prod (1 - t^k)^n as a dict, or None if no polynomial.

    ``polys`` are (dict, e) pairs with e > 0, and ``exps`` maps k to n.  Each
    divisor 1 - t^a (n < 0) is paired with a multiple 1 - t^b from ``exps``
    where one is left: multiplying by 1 - t^b and at once dividing by
    1 - t^a multiplies by the sparse sum of t^(ja), j < b/a.  Unpaired
    divisors come last; an inexact one gives None.  The size is checked
    before anything is multiplied, a pair as its quotient 1 + t^a + ... +
    t^(b-a), and each unpaired division as a scaling of c by
    2^bitlen(span + 1): a quotient's coefficients are partial sums of at
    most span + 1 of the dividend's, the span being the degree span of
    the rest.
    """
    ups = {k: n for k, n in exps.items() if n > 0}
    downs = {k: -n for k, n in exps.items() if n < 0}
    pairs = []
    for a in sorted(downs, reverse=True):
        for b in sorted(ups):
            if b % a == 0 and ups[b]:
                n = min(ups[b], downs[a])
                pairs.append((b, a, n))
                ups[b] -= n
                downs[a] -= n
                if not downs[a]:
                    break
    factors = ([(_sized(p), e) for p, e in polys]
               + [(_binomial(b), n) for b, n in ups.items() if n]
               + [((b // a, (b // a - 1).bit_length(), 0, 0, b - a), n)
                  for b, a, n in pairs])
    span = sum(e * (size[4] - size[3]) for size, e in factors)
    _check_size(factors, c << sum(downs.values()) * (span + 1).bit_length())
    out = {0: c}
    for p, e in polys:
        for _ in range(e):
            out = _dict_mul(out, p)
    for b, a, n in pairs:
        for _ in range(n):
            out = _over_binomial(_times_binomial(out, b), a)
    for b, n in ups.items():
        for _ in range(n):
            out = _times_binomial(out, b)
    for a, n in downs.items():
        for _ in range(n):
            out = _over_binomial(out, a)
            if out is None:
                return None
    return out


# ---------------------------------------------------------------------------
# factored univariate rational functions
# ---------------------------------------------------------------------------

def _split(p: dict) -> tuple:
    """(c, a, key) with p = c t^a f, f primitive with a positive constant term.

    key is None when f = 1, k when f = 1 - t^k, and f's sorted (exponent,
    coefficient) items otherwise.  c is 0 for the zero polynomial, and an
    int whenever it is integral, so that ``_fold`` multiplies ints.
    """
    if not p:
        return 0, 0, None
    a = min(p)
    if len(p) == 1:
        return p[a], a, None
    ints, g, den = _coeff_clear(p)
    s = -1 if ints[a] < 0 else 1
    f = {e - a: s * v for e, v in ints.items()}
    content = s * g if den == 1 else Fraction(s * g, den)
    if len(f) == 2 and f[0] == 1:
        k = max(f)
        if f[k] == -1:
            return content, a, k
    return content, a, tuple(sorted(f.items()))


def _fold(parts, c=1) -> tuple[Fraction, int, dict]:
    """c, a and the factor table of c * prod (c_i t^a_i f_i)^e_i.

    ``parts`` are ((c_i, a_i, key_i), e_i) pairs as ``_split`` gives them.
    """
    parts = list(parts)
    if any(not pc and e < 0 for (pc, _, _), e in parts):
        raise SpecializationError("zero denominator after specialization")
    num, den, a = 1, 1, 0
    for (pc, pa, _), e in parts:
        if not pc:
            return Fraction(0), 0, {}
        if pc != 1:
            top, bottom = (pc.numerator, pc.denominator) if e > 0 else \
                (pc.denominator, pc.numerator)
            num *= top ** abs(e)
            den *= bottom ** abs(e)
        a += pa * e
    fac = _dp_acc({}, [(key, e) for (_, _, key), e in parts if key is not None])
    return Fraction(c) * Fraction(num, den), a, fac


def _side(fac: dict, sign: int) -> list:
    """(sized f, e) pairs of the numerator (sign 1) or denominator (-1)."""
    return [(_binomial(k) if type(k) is int else _sized(dict(k)), e * sign)
            for k, e in fac.items() if e * sign > 0]


class UniRatFunc:
    """A univariate rational function c t^a prod f^e, kept factored.

    Each factor f is a primitive integer polynomial with a positive constant
    term.  The table ``_f`` keys it by k when f is the binomial 1 - t^k and
    by its sorted (exponent, coefficient) items otherwise, with an exponent
    e of either sign.  Products and quotients add tables; equality cancels
    the factors both sides share and cross-multiplies the rest, so it is
    exact and multiplies out nothing when the tables agree.

    ``num`` and ``den`` are the reduced form, gcd(num, den) = 1 with a monic
    denominator, built on first use (``_reduce``) and cached.
    """

    __slots__ = ("_c", "_a", "_f", "_nd")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        parts = [(_split(num._d), 1)]
        if den is not None:
            parts.append((_split(den._d), -1))
        self._c, self._a, self._f = _fold(parts)
        self._nd = None

    @classmethod
    def _factored(cls, c, a: int, fac: dict) -> "UniRatFunc":
        """c t^a prod f^e for a factor table ``fac`` keyed as ``_f`` is."""
        r = object.__new__(cls)
        r._c = Fraction(c)
        r._a, r._f = (a, {k: e for k, e in fac.items() if e}) if c else (0, {})
        r._nd = None
        return r

    @classmethod
    def constant(cls, v) -> "UniRatFunc":
        return cls(UniPoly.constant(v))

    @property
    def num(self) -> UniPoly:
        return self._reduced()[0]

    @property
    def den(self) -> UniPoly:
        return self._reduced()[1]

    def _reduced(self) -> tuple[UniPoly, UniPoly]:
        if self._nd is None:
            self._nd = _reduce(self._c, self._a, self._f)
        return self._nd

    def is_zero(self) -> bool:
        return not self._c

    def is_polynomial(self) -> bool:
        return self.den == UniPoly.constant(1)

    def __add__(self, other) -> "UniRatFunc":
        other = _as_unirf(other)
        return UniRatFunc(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "UniRatFunc":
        return UniRatFunc._factored(-self._c, self._a, self._f)

    def __sub__(self, other) -> "UniRatFunc":
        return self + (-_as_unirf(other))

    def __rsub__(self, other) -> "UniRatFunc":
        return _as_unirf(other) + (-self)

    def __mul__(self, other) -> "UniRatFunc":
        other = _as_unirf(other)
        return UniRatFunc._factored(self._c * other._c, self._a + other._a,
                                    _dp_add(self._f, other._f))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "UniRatFunc":
        other = _as_unirf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return UniRatFunc._factored(self._c / other._c, self._a - other._a,
                                    _dp_add(self._f, _dp_neg(other._f)))

    def __rtruediv__(self, other) -> "UniRatFunc":
        return _as_unirf(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, UniPoly)):
            other = _as_unirf(other)
        if not isinstance(other, UniRatFunc):
            return NotImplemented
        if not (self._c and other._c):
            return self._c == other._c
        if self._a != other._a:
            # both sides' leftover products have a nonzero constant term
            return False
        rest = _dp_add(self._f, _dp_neg(other._f))
        c = self._c / other._c
        return (_product(_side(rest, 1), c.numerator)
                == _product(_side(rest, -1), c.denominator))

    __hash__ = None

    def to_string(self, var: str = "q") -> str:
        if self.is_polynomial():
            return self.num.to_string(var)
        return f"({self.num.to_string(var)})/({self.den.to_string(var)})"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"UniRatFunc<{self}>"


def _reduce(c: Fraction, a: int, fac: dict) -> tuple[UniPoly, UniPoly]:
    """The reduced num and den of c t^a prod f^e: coprime, den monic.

    A binomial 1 - t^k holds the psi_d with d | k.  Only d dividing
    binomials on both sides, or a binomial opposite a factor that is no
    binomial, can cancel; for those, m_d counts psi_d in the numerator minus
    those in the denominator, and what cancels by counting is divided out
    of the binomials.  A factor that is no binomial first gives up, by exact
    division, each such psi_d the other side holds.  Only when such factors
    are left on both sides are they reduced against each other by a dense
    GCD.
    """
    if not c:
        return UniPoly(), UniPoly.constant(1)
    keys = {k: e for k, e in fac.items() if type(k) is int}
    others = [(dict(k), e) for k, e in fac.items() if type(k) is not int]
    ds = set()
    for k, e in keys.items():
        ds.update(d for j, f in keys.items() if e > 0 > f
                  for d in _divisors(gcd(k, j)))
        if any(e * f < 0 for _, f in others):
            ds.update(_divisors(k))
    held = {d: [sum(e for k, e in keys.items() if k % d == 0 and e * s > 0)
                for s in (1, -1)] for d in ds}
    m = {d: up + down for d, (up, down) in held.items()}
    sides: tuple[list, list] = ([], [])
    for f, e in others:
        for d in sorted(m):
            while m[d] * e < 0:
                q = _expand([(f, 1)], {k: -mu for k, mu in _psi_binomials(d)})
                if q is None:
                    break
                f, m[d] = q, m[d] + e
        if f != {0: 1}:
            sides[e < 0].append((f, abs(e)))
    num_f, den_f = sides
    if num_f and den_f:
        num_f, den_f = _cancel_gcd(num_f, den_f)
    num = _expand(num_f, _side_exponents(keys, m, held, 1), c.numerator)
    den = _expand(den_f, _side_exponents(keys, m, held, -1), c.denominator)
    if a > 0:
        num = {e + a: v for e, v in num.items()}
    elif a < 0:
        den = {e - a: v for e, v in den.items()}
    lead = den[max(den)]
    if lead != 1:
        num = {e: _as_coeff(Fraction(v, lead)) for e, v in num.items()}
        den = {e: _as_coeff(Fraction(v, lead)) for e, v in den.items()}
    return UniPoly._from_dict(num), UniPoly._from_dict(den)


def _side_exponents(keys: dict, m: dict, held: dict, sign: int) -> dict:
    """Binomial exponents of one side: its binomials, with each psi_d they
    hold replaced by the max(sign m_d, 0) copies that side keeps."""
    out = Counter({k: e * sign for k, e in keys.items() if e * sign > 0})
    for d, n in m.items():
        change = max(n * sign, 0) - held[d][sign < 0] * sign
        if change:
            for e, mu in _psi_binomials(d):
                out[e] += mu * change
    return {e: n for e, n in out.items() if n}


def _cancel_gcd(num_f: list, den_f: list) -> tuple[list, list]:
    """Both sides' products divided by their gcd, each as one (dict, 1) pair.

    The primitive remainder sequence holds subresultants up to content.  By
    Hadamard's bound on the Sylvester matrix their coefficients are below
    |A|_1^deg(B) |B|_1^deg(A), so they fit in X = deg(B) bits(A) + deg(A)
    bits(B) bits.  They are checked first, as c = 1, of one bit, times one
    factor of max(deg A, deg B) + 1 terms and X - 1 bits.
    """
    A, B = (_product([(_sized(f), e) for f, e in side])
            for side in (num_f, den_f))
    (_, bits_a, _, _, m, _), (_, bits_b, _, _, n, _) = _sized(A), _sized(B)
    _check_size([((max(m, n) + 1, n * bits_a + m * bits_b - 1, 0, 0,
                   max(m, n)), 1)])
    a = [A.get(e, 0) for e in range(m + 1)]
    b = [B.get(e, 0) for e in range(n + 1)]
    g = _int_gcd_dense(a, b)
    if len(g) > 1:
        a, b = _int_exact_div(a, g), _int_exact_div(b, g)
    return ([({e: v for e, v in enumerate(a) if v}, 1)],
            [({e: v for e, v in enumerate(b) if v}, 1)])


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
    return UniPoly._from_dict({e: 1 for e in range(n)})


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

def _q_var(i: int) -> dict:
    """x_i -> q^{i-1} - q^i."""
    return {i - 1: 1, i: -1}


def _all_q_var(i: int) -> dict:
    """x_i -> q, so a monomial goes to q^degree."""
    return {1: 1}


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
    def var(i: int) -> dict:
        hi = _qt_power(i, q, bound)
        return {hi // q: 1, hi: -1}
    return var


def _poly_image(items, var) -> dict:
    """Image of a polynomial given as (packed key, coefficient) pairs."""
    out: dict = {}
    for key, coeff in items:
        _dp_acc(out, _product([(_sized(var(v)), e)
                               for v, e in _mono_unpack(key)], coeff).items())
    return out


@lru_cache(maxsize=None)
def _atom_image(atom, var):
    """Split image of an F or B atom, cached; P atoms are mostly one-offs."""
    if atom[0] == "F":
        _, off, m = atom  # the sum telescopes under the q and (q,t) maps
        return _split(_dp_acc({}, [t for i in range(off + 1, off + m + 1)
                                   for t in var(i).items()]))
    u = _product([(_sized(var(v)), e) for v, e in atom[1]])
    return _split(_dp_add({0: 1}, _dp_neg(u)))  # 1 - x^u


def _substitute(f, var) -> UniRatFunc:
    """Map f under x_i -> var(i), factored, after checking both sides'
    size."""
    f = _as_rf(f)
    if f.is_zero():
        return UniRatFunc._factored(0, 0, {})
    parts = [(_split(_poly_image(f._num.items(), var)), 1)]
    for atom, e in f._fac.items():
        parts.append((_split(_poly_image(atom[1], var)) if atom[0] == "P"
                      else _atom_image(atom, var), e))
    c, a, fac = _fold(parts, f._c)
    for sign, k in ((1, c.numerator), (-1, c.denominator)):
        _check_size(_side(fac, sign), k)
    return UniRatFunc._factored(c, a, fac)


def spec_q(f) -> UniRatFunc:
    """Substitute x_i -> q^{i-1} - q^i in a RatFunc, Polynomial, int or
    Fraction."""
    return _substitute(f, _q_var)


def spec_qt(f, q: int, bound: int = DEFAULT_QT_BOUND) -> UniRatFunc:
    """Substitute x_i -> t^{q^{i-1}} - t^{q^i} for a fixed integer q >= 2 in
    a RatFunc, Polynomial, int or Fraction."""
    if not isinstance(q, int) or q < 2:
        raise ValueError("spec_qt requires an integer q >= 2")
    return _substitute(f, _qt_map(q, bound))


# ---------------------------------------------------------------------------
# the q-hook formula check
# ---------------------------------------------------------------------------

def _q_hook_sides(counts: dict[int, int], stat_p: int, n: int,
                  hooks: Iterable[int]) -> tuple[UniRatFunc, UniRatFunc]:
    """sum_w q^stat(w) over the extensions, and q^stat(P) [n]!_q / prod [h]_q.

    ``counts[s]`` is the number of linear extensions w with stat(w) = s.
    The closed form is kept factored as q^stat(P) prod_{m <= n} (1 - q^m)
    over prod_i (1 - q^{h_i}), the n factors 1 - q of the brackets
    cancelling.
    """
    fac = Counter(range(1, n + 1))
    fac.subtract(hooks)
    return (UniRatFunc(UniPoly(counts)),
            UniRatFunc._factored(1, stat_p, fac))


def verify_bw_inv(p: ForestPoset) -> bool:
    """Inversion-statistic hook formula on a recursively labelled forest.

    Checks that spec_q(L(P)) equals both sum_w q^inv(w) and
    q^inv(P) [n]!_q / prod [h_i]_q.  The extension sum is folded over the
    order ideals of P (``extension_stat_counts``) without listing the
    extensions; the closed form alone uses inv(P) and the hook lengths.
    """
    lhs = spec_q(L_of_forest(p))
    gen, closed = _q_hook_sides(
        extension_stat_counts(p, "inv"), inv_poset(p), p.n,
        (subtree_data(p, i)[2] for i in range(1, p.n + 1)))
    return lhs == gen and lhs == closed
