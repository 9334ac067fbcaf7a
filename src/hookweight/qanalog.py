"""Multivariate q-analogues and the twisted semigroup algebra.

``bracket(n)`` is x1+...+xn and ``bracket_factorial(n)`` the twisted
factorial [n]*F[n-1]*F^2[n-2]*...*F^{n-1}[1], where F shifts variable
indices up by one.  ``binomial(n, k)`` is the quotient
[n]! / ([k]! * F^k([n-k]!)), kept as an unreduced rational function;
identities about it are checked through ``rf_equal``.

``SkewElem`` represents finite sums sum_n f_n(x) * u^n in the algebra whose
multiplication twists the right coefficient by the Frobenius shift:
f*u^k . g*u^l = (f * F^k(g)) u^{k+l}.  It is a ``ratfunc._SparsePoly`` with
u-degree keys and ``RatFunc`` coefficients, so it has that class's ring
operations and names only the twisted product.  The divided powers
u^{(n)} = u^n / [n]! have the multivariate binomials as structure constants.
"""

from __future__ import annotations

from functools import lru_cache

from .ratfunc import (Polynomial, RatFunc, _SparsePoly, _as_rf, _dp_acc,
                      _exponent_key, _named_atom_dict)

__all__ = [
    "bracket",
    "bracket_factorial",
    "binomial",
    "SkewElem",
    "skew_mul",
    "skew_add",
    "skew_equal",
    "divided_power",
]


def bracket(n: int) -> Polynomial:
    """x1 + x2 + ... + xn; bracket(0) is the zero polynomial."""
    if n < 0:
        raise ValueError("bracket requires n >= 0")
    return Polynomial(_named_atom_dict(("F", 0, n)) if n else {})


def _factorial_atoms(n: int, shift: int = 0, sign: int = 1) -> dict:
    """Atoms of F^shift([n]!) with exponent ``sign``."""
    return {("F", shift + i, n - i): sign for i in range(n)}


def _shift_ratio(k: int) -> RatFunc:
    """F([k]!) / [k]!, the ratio in the Pascal recurrence and in wt_subset."""
    return RatFunc._from_atoms({**_factorial_atoms(k, shift=1),
                                **_factorial_atoms(k, sign=-1)})


def bracket_factorial(n: int) -> Polynomial:
    """[n]! = [n] * F([n-1]!) expanded; bracket_factorial(0) = 1."""
    if n < 0:
        raise ValueError("bracket_factorial requires n >= 0")
    return RatFunc._from_atoms(_factorial_atoms(n)).num


def binomial(n: int, k: int) -> RatFunc:
    """[n]! / ([k]! * F^k([n-k]!)) as a rational function."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"binomial requires 0 <= k <= n, got n={n}, k={k}")
    atoms = _dp_acc(_factorial_atoms(n), _factorial_atoms(k, sign=-1).items())
    return RatFunc._from_atoms(_dp_acc(
        atoms, _factorial_atoms(n - k, shift=k, sign=-1).items()))


@lru_cache(maxsize=None)
def _pascal_holds(n: int, k: int) -> bool:
    """Whether binomial(n, k) obeys the Pascal recurrence exactly:
    binomial(n, k) = F(binomial(n-1, k-1)) + F([k]!)/[k]! * F(binomial(n-1, k))
    for 0 < k < n, and binomial(n, k) = 1 for k in (0, n)."""
    lhs = binomial(n, k)
    if k in (0, n):
        return lhs._equals(RatFunc.from_const(1))
    rhs = binomial(n - 1, k - 1).frobenius(1)._add(
        _shift_ratio(k) * binomial(n - 1, k).frobenius(1))
    return lhs._equals(rhs)


def _proved_binomial(n: int, k: int) -> RatFunc:
    """binomial(n, k), once it is proved to be the sum B(n, k) of wt(S) over
    the k-subsets S of {1..n}.

    Splitting the subsets on whether they hold 1 (wt(S) = F(wt(S-hat)) if
    1 is in S, else F([k]!)/[k]! * F(wt(S-hat)), the recursion that
    ``tests/oracles.py`` checks ``wt_subset`` against) gives B(m, j) the
    recurrence that ``_pascal_holds`` checks for binomial(m, j), with
    B(m, 0) = B(m, m) = 1.
    So B(n, k) = binomial(n, k) by induction once ``_pascal_holds(m, j)``
    holds at every (m, j) that (n, k) rests on: j <= k and m - j <= n - k.
    A failed check raises, so no unproved value is ever returned or cached.
    """
    for j in range(k + 1):
        for m in range(j, j + n - k + 1):
            if not _pascal_holds(m, j):
                raise AssertionError(
                    f"binomial({m}, {j}) fails the Pascal recurrence")
    return binomial(n, k)


# ---------------------------------------------------------------------------
# skew semigroup algebra
# ---------------------------------------------------------------------------

class SkewElem(_SparsePoly):
    """Finite sum of f_n(x) * u^n terms with rational-function coefficients:
    {u-degree: nonzero RatFunc}."""

    __slots__ = ()
    _coeff = staticmethod(_as_rf)
    _key = staticmethod(_exponent_key)

    @staticmethod
    def _dict_product(a: dict, b: dict) -> dict:
        """Bilinear extension of f u^k . g u^l = (f * F^k(g)) u^{k+l}."""
        return _dp_acc({}, [(k + l, f * g.frobenius(k))
                            for k, f in a.items() for l, g in b.items()])

    @classmethod
    def term(cls, f, n: int) -> "SkewElem":
        return cls({n: f})

    @property
    def coeffs(self) -> dict[int, RatFunc]:
        return dict(self._d)

    def degrees(self) -> list[int]:
        return sorted(self._d)

    def __str__(self) -> str:
        if not self._d:
            return "0"
        parts = []
        for n in self.degrees():
            f = self._d[n]
            u = "" if n == 0 else ("u" if n == 1 else f"u^{n}")
            s = str(f)
            if u and not (s.startswith("(") and s.endswith(")")):
                s = f"({s})"
            parts.append(s + ("*" + u if u else ""))
        return " + ".join(parts)


def skew_mul(a: SkewElem, b: SkewElem) -> SkewElem:
    """The twisted product a * b."""
    return SkewElem._coerce(a) * SkewElem._coerce(b)


def skew_add(a: SkewElem, b: SkewElem) -> SkewElem:
    return SkewElem._coerce(a) + SkewElem._coerce(b)


def skew_equal(a: SkewElem, b: SkewElem) -> bool:
    """Equal u-degrees, with equal coefficients by ``rf_equal``."""
    return SkewElem._coerce(a) == SkewElem._coerce(b)


def divided_power(n: int) -> SkewElem:
    """u^{(n)} = u^n / [n]!."""
    if n < 0:
        raise ValueError("divided_power requires n >= 0")
    return SkewElem.term(
        RatFunc._from_atoms(_factorial_atoms(n, sign=-1)), n)
