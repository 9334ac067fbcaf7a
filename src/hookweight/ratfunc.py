"""Exact sparse multivariate polynomials and rational functions over Q.

Variables are x1, x2, x3, ... (a countable supply; a packed monomial holds
indices up to MAX_PACKED_VAR = 2^22, a bracket atom any index, and
``frobenius`` shifts no variable past MAX_PACKED_VAR).
The shift endomorphism ``frobenius`` sends x_i to x_{i+k} and is the engine
behind every twisted factorial and hook product in this package.

Representation notes
--------------------
A monomial is packed into a single int, 16 bits of exponent per variable
(variable i occupies bits [16*(i-1), 16*i)), so an exponent is at most 65535;
a product that would pass it raises ExponentOverflowError rather than carry
into the next variable, and an exact division that would carry rejects the
divisor, which cannot divide then.
Monomial multiplication is then integer addition, which keeps the exhaustive
verification sweeps fast in pure Python.  Coefficients are ints, promoted to
fractions.Fraction only when a value is genuinely non-integral.

One reader, ``_fields``, reads every key: it unpacks all 16-bit fields from
the key's bytes at once, in time linear in the key's length, and exponent
lists, degrees and the term order are built on it.  Printing reads each
distinct key once per process: ``_ROWS`` keeps its degree, fields and
text, and the terms sort on them.  The monomial content first ANDs the
keys' nonzero-field masks and reads only the fields of the variables that
every key holds.
Packing a variable above MAX_PACKED_VAR, where a key would pass 8 MiB,
raises ExponentOverflowError as well, and so does a shift that would move a
variable of a key or an atom there.

A ``RatFunc`` has one representation, the factored form c * num * prod(a^e):
a rational constant c, a primitive polynomial num and integer powers of
atoms.  The atoms are the "bracket" linear forms x_{a+1}+...+x_{a+m}, the
binomials 1 - x^m used by partition generating functions, and an opaque
polynomial atom that carries any denominator factor that is neither.
Expanded input is factored once, when it is constructed.  Equality is
decided by cross multiplication of the atoms the two sides do not share,
never by polynomial GCD, so it is always exact.  The sign of num is fixed
by its coefficient at the largest packed key, which needs no term order,
once per normalization: content, monomial content and trial division do
not depend on it.

Sums are kept small by trial division of num by the atoms of the shared
denominator.  Construction runs the same greedy loop: its candidates are
the bracket forms of two or more variables that all occur in the input,
longest first.  One idea rejects a divisor before any long division, for
forms and binomials alike: a ring map that sends the divisor to 0, so that
a nonzero image of num proves that it does not divide.  For a form
x_{a+1}+...+x_{a+m} with m >= 2, x_{a+1} goes to -x_{a+2} and x_{a+3},
..., x_{a+m} go to 0.  For a binomial 1 - x^u, the variables of u go to
powers of t in Z[t]/(t^u - 1); this refines both the projection x_i -> 1
on the variables of u and the residue map k -> t^(k % u) on packed keys.
A rejection is a proof; acceptance always comes from one graded long
division, shared by forms and binomials, that leaves no remainder and no
carry.  It divides by x^lead + rest grade by grade, from x^lead's end: a form
is x_{a+1} + (x_{a+2}+...+x_{a+m}), graded by the exponent of x_{a+1} from
the top down, and a binomial is 1 + (-x^u), graded by the exponent of the
first variable of u from the bottom up.

One routine, ``RatFunc._sum``, adds any number of values over the atoms
they all share and normalizes the result once; ``_add`` is its two-term
case, for the folds whose partial sums cancel.

The expanded numerator and denominator exist only for printing and for the
``num``/``den`` properties.  Multiplied out, they have no joint content and
no common monomial to remove (``RatFunc._expand``), so only the sign is
fixed.  They are built on each request, so a value never changes once
made and cached values are handed out as they are; only the product of
each side's atom powers is kept, in ``_PRODUCTS``, and the constant and
num are multiplied into a new dict.  Each side
is bounded before it is multiplied out, and so is every product of the
specializations, by one rule, ``_check_size``: the
product's terms, at most the product of its factors' term counts and at
most the monomials its degrees allow, times the bits of a coefficient and
of a term's packed exponents, above ``MAX_SPEC_BITS`` raise
``SizeBoundError``, and so does a coefficient with more digits than Python
prints.  Each factor is sized from what it is: a bracket atom from its
fields, without packing its dict.

Sparse maps
-----------
Every {key: number} sum in the package is a sparse dict: packed key to
coefficient here, t-exponent to coefficient in ``UniPoly``, atom to exponent
in the factor tables, word to coefficient in ``FQSymElem``.  One accumulator,
``_dp_acc``, adds (key, value) pairs into a dict in place and drops a key
that reaches 0; ``_dp_add`` copies the larger map and adds the smaller into
it.  ``_dp_acc`` is only handed a dict that its caller has just made, never
one that a value holds or a cache hands out.  ``_dict_mul`` is the product
of two maps whose keys add: ``_dp_mul`` runs it on packed keys after the
carry check, ``UniPoly`` on t-exponents, which are plain ints.

Internals pass these plain dicts; a ``Polynomial`` or ``UniPoly`` is built
only where a caller sees one.  The two share one class body,
``_SparsePoly``, which holds the dict as ``_d`` and has every ring
operation; each names only its dict product, its key validation, its
printing and its hashability.  Every power, of these and of a ``RatFunc``
in the parser, is one square-and-multiply, ``_power``.
"""

from __future__ import annotations

import struct
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress
from math import comb, gcd, lcm
from operator import itemgetter, or_
from typing import Iterable, Mapping, Optional, Union

from .combinat import _Memo

__all__ = [
    "Monomial",
    "Polynomial",
    "RatFunc",
    "DivisionByZeroError",
    "ExponentOverflowError",
    "poly_add",
    "poly_mul",
    "frobenius",
    "rf_add",
    "rf_mul",
    "rf_div",
    "rf_inv",
    "rf_equal",
    "rf_frobenius",
    "rf_to_canonical_string",
]

Coeff = Union[int, Fraction]

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1

# The last variable a packed key may hold: its field starts below bit 2^26,
# so a key stays under 8 MiB.
MAX_PACKED_VAR = 1 << 22


class DivisionByZeroError(ZeroDivisionError):
    """Raised when a rational-function denominator is the zero polynomial."""


class ExponentOverflowError(ValueError):
    """An exponent above 65535 or a variable above x_MAX_PACKED_VAR, which a
    packed key cannot hold."""


class SpecializationError(ValueError):
    """The substituted denominator vanished (or the map is undefined), or a
    value is too large to multiply out or to print."""


class SizeBoundError(SpecializationError):
    """A product to multiply out may hold more than MAX_SPEC_BITS bits, an
    integer has more digits than Python prints, or a binomial exponent has a
    factor too large to prove prime."""


# ---------------------------------------------------------------------------
# the size bound
# ---------------------------------------------------------------------------

# Most bits a product may hold once multiplied out (16 MiB): of its
# coefficients and, for a multivariate value, of its terms' packed exponents.
# Just below it, printing spec_q of x1^11584 takes about 50 s and of
# H(antichain 330), [330]!_q, about 11 s on one 2.1 GHz Xeon core;
# x1^65535 would take hours.
MAX_SPEC_BITS = 1 << 27


def _monomials(v: int, d: int, cap: int) -> int:
    """C(v - 1 + d, d), the monomials of degree d in v variables, or a
    number above ``cap`` once the count passes it."""
    n, k = max(v - 1, d), min(v - 1, d)
    count = 1
    for j in range(1, k + 1):
        count = count * (n + j) // j
        if count > cap:
            break
    return count


def _check_size(factors, c: int = 1) -> None:
    """SizeBoundError when c * prod p^e may multiply out to more than
    MAX_SPEC_BITS bits.

    ``factors`` are (size, e) pairs, e >= 0, where the first five fields
    of a size are p's term count, the bit length of its coefficient
    1-norm minus 1, its packed variables (bit 0 of each of their 16-bit
    fields), and its lowest and highest degree.  A t-polynomial holds no
    packed variable: its one variable t has no field in a key.

    p^e has at most C(len(p) + e - 1, e) terms, one per multiset of e
    terms of p, and the product at most the product of those counts.  It
    also has at most (d - d0 + 1) * C(v - 1 + d, d), the monomials of
    degree d0 to d in its v packed variables (in t alone when it has
    none), d0 and d being the sums of e times the lowest and the highest
    degrees.  Its integer coefficients are at most |c| times the product
    of the 1-norms^e, so they fit in bitlen(c) + sum of e times the norms'
    bits, and a term also holds a 16-bit exponent for each of at most
    min(v, d) packed variables.
    """
    terms, bits, either, lo, hi = 1, abs(c).bit_length(), 0, 0, 0
    for size, e in factors:
        pn, pb, pv, plo, phi = size[:5]
        terms *= pn if e == 1 else comb(pn + e - 1, e)
        if terms > MAX_SPEC_BITS:
            terms = MAX_SPEC_BITS + 1
        bits += e * pb
        either |= pv
        lo += e * plo
        hi += e * phi
    v = either.bit_count()
    if terms * (bits + _SHIFT * v) <= MAX_SPEC_BITS:
        return  # the first count alone settles it
    cap = MAX_SPEC_BITS // (bits + _SHIFT * min(v, hi))
    if min(terms, (hi - lo + 1) * _monomials(max(v, 1), hi, cap)) > cap:
        raise SizeBoundError(f"a product to expand may hold more than "
                             f"{MAX_SPEC_BITS} bits of coefficients"
                             + (" and exponents" if v else ""))


def _dict_size(d: dict) -> tuple[int, int, int, int, int]:
    """The size of a nonzero packed dict, as ``_check_size`` reads it.

    A key's degree, the sum of its fields, is the key mod 2^16 - 1 when
    it is below 2^16 - 1, since 2^16 is 1 mod 2^16 - 1.  No key's degree
    passes the number of variables that occur times ``top``, the OR of
    every field of every key, which halving the keys' OR folds to 16 bits
    without unpacking it.
    """
    either = top = reduce(or_, d)
    n = _last_var(either)
    packed = _folded(either) & _field_bits(n, 0)
    while n > 1:
        half = _SHIFT * (n // 2)
        top = top >> half | top & ((1 << half) - 1)
        n -= n // 2
    if packed.bit_count() * top < _MASK:
        degrees = [k % _MASK for k in d]
    else:
        degrees = list(map(_mono_degree, d))
    return (len(d), (sum(map(abs, d.values())) - 1).bit_length(), packed,
            min(degrees), max(degrees))


def _int_str(v: int) -> str:
    """str(v), or SizeBoundError when v has more digits than Python prints
    (``sys.get_int_max_str_digits()``)."""
    try:
        return str(v)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise SizeBoundError(f"an integer has more than {limit} digits, "
                             f"the most Python converts to a string") from None


# ---------------------------------------------------------------------------
# packed monomial keys
# ---------------------------------------------------------------------------

def _mono_pack(exponents: Mapping[int, int]) -> int:
    key = 0
    for var, exp in exponents.items():
        if var < 1:
            raise ValueError(f"variable index must be positive, got {var}")
        if exp < 0:
            raise ValueError(f"exponent must be nonnegative, got {exp}")
        if exp > _MASK:
            raise ExponentOverflowError(
                f"exponent {exp} of x{var} exceeds {_MASK}")
        if var > MAX_PACKED_VAR:
            raise ExponentOverflowError(
                f"variable x{var} is beyond x{MAX_PACKED_VAR}, the last one "
                f"a packed monomial holds")
        if exp:
            key += exp << (_SHIFT * (var - 1))
    return key


def _field_bits(nfields: int, bit: int) -> int:
    """Bit ``bit`` of each of the first ``nfields`` exponent fields."""
    field = (1 << bit).to_bytes(_SHIFT // 8, "little")
    return int.from_bytes(field * nfields, "little")


# A carry out of an exponent field needs an exponent of at least 2^15 on one
# side, so a product whose keys OR to nothing in these top bits (of the first
# 64 variables) cannot overflow.
_TOP_BITS = _field_bits(64, _SHIFT - 1)
_TOP_SPAN = 64 * _SHIFT


def _sum_carry(a: Iterable[int], b: Iterable[int]) -> int:
    """The carry bits of the first ka + kb that carries out of a field, or 0."""
    nfields = -(-max(max(a), max(b)).bit_length() // _SHIFT)
    carries = _field_bits(nfields, 0) << _SHIFT
    for ka in a:
        for kb in b:
            carry = ((ka + kb) ^ ka ^ kb) & carries
            if carry:
                return carry
    return 0


def _check_key_sums(a: Iterable[int], b: Iterable[int]) -> None:
    """Raise ExponentOverflowError if some ka + kb carries out of a field."""
    carry = _sum_carry(a, b)
    if carry:
        var = (carry & -carry).bit_length() // _SHIFT
        raise ExponentOverflowError(
            f"exponent of x{var} in a product exceeds {_MASK}")


def _quotient_carries(q: Iterable[int], d: Iterable[int]) -> bool:
    """Whether the long division that found the quotient q carried.

    It added every key of d to every key of q, which can carry only where
    the keys OR to an exponent of 2^15 or more, as in _dp_mul.  A carry
    means that the divisor does not divide: an exact quotient times it
    stays within the dividend's exponents, none above 65535.
    """
    either = reduce(or_, q, reduce(or_, d, 0))
    if either & _TOP_BITS or either >> _TOP_SPAN:
        return bool(_sum_carry(q, d))
    return False


@lru_cache(maxsize=None)
def _unpacker(nfields: int):
    """The reader of ``nfields`` fields, compiled once: formatting and
    looking up the format on every call costs more than the unpacking."""
    return struct.Struct(f"<{nfields}H").unpack


def _fields(key: int) -> tuple[int, ...]:
    """The exponents of x1 ... x_last in ``key``, read in one linear pass.

    A 16-bit field is two little-endian bytes, whatever the host's order.
    """
    n = (key.bit_length() + _SHIFT - 1) // _SHIFT
    return _unpacker(n)(key.to_bytes(2 * n, "little"))


def _mono_unpack(key: int) -> tuple[tuple[int, int], ...]:
    """Return ((var, exp), ...) with var ascending."""
    return tuple(filter(itemgetter(1), enumerate(_fields(key), 1)))


def _mono_degree(key: int) -> int:
    return sum(_fields(key))


# ---------------------------------------------------------------------------
# sparse maps (packed key -> coefficient, and any other key -> number)
# ---------------------------------------------------------------------------

_DP_ONE = {0: 1}


def _dp_acc(out: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, value) of ``items`` into ``out`` in place, dropping a
    key whose value reaches 0, and return ``out``.  ``out`` must be a dict of
    the caller's own, never one that a value holds or a cache hands out."""
    get = out.get
    for k, v in items:
        nv = get(k, 0) + v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _dp_add(a: dict, b: dict) -> dict:
    if len(a) < len(b):
        a, b = b, a
    return _dp_acc(dict(a), b.items())


def _dp_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _dp_scale(a: dict, c: Coeff) -> dict:
    if c == 1:
        return dict(a)
    if c == 0:
        return {}
    return {k: v * c for k, v in a.items()}


def _dp_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    either = reduce(or_, a, reduce(or_, b, 0))
    if either & _TOP_BITS or either >> _TOP_SPAN:
        _check_key_sums(a, b)
    return _dict_mul(a, b)


def _dict_mul(a: dict, b: dict) -> dict:
    """The product of two sparse maps whose keys add, unchecked: packed keys
    pass _dp_mul's carry check first, t-exponents need none."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for kb, vb in b.items():
        for ka, va in a.items():
            k = ka + kb
            nv = get(k, 0) + va * vb
            if nv:
                out[k] = nv
            else:
                del out[k]
    return out


def _last_var(key: int) -> int:
    """The largest index of a variable in ``key``, 0 for a constant."""
    return (key.bit_length() + _SHIFT - 1) // _SHIFT


def _check_shift(last: int, k: int) -> None:
    """Raise ExponentOverflowError if x_last shifted by k passes the cap."""
    if last and last + k > MAX_PACKED_VAR:
        raise ExponentOverflowError(
            f"shifting x{last} by {k} passes x{MAX_PACKED_VAR}, the last "
            f"variable a packed monomial holds")


def _dp_frobenius(a: dict, k: int) -> dict:
    if k == 0:
        return dict(a)
    _check_shift(_last_var(max(a, default=0)), k)
    shift = _SHIFT * k
    return {key << shift: v for key, v in a.items()}


def _folded(key: int) -> int:
    """``key`` with each 16-bit field ORed onto its bit 0, which is then set
    where the field is nonzero; the fields' other bits are left over."""
    k = key | key >> 8
    k |= k >> 4
    k |= k >> 2
    return k | k >> 1


def _dp_min_monomial(d: dict) -> int:
    """Packed per-variable minimum exponent over the keys of d.

    The variables that every key holds come first, as the AND of each
    key's nonzero-field mask (bit 0 of a field set where the field is
    nonzero); with none, the content is 1 and no key is unpacked.
    """
    if 0 in d:
        return 0  # a constant term: the content is 1
    common = None
    for key in d:
        k = _folded(key)
        if common is None:  # bit 0 of each field of the first key
            common = k & _field_bits(_last_var(key), 0)
        else:
            common &= k
        if not common:
            return 0
    mins = 0
    while common:
        low = common & -common
        shift = low.bit_length() - 1
        mins |= min(k >> shift & _MASK for k in d) << shift
        common ^= low
    return mins


def _coeff_clear(d: dict) -> tuple[dict, int, int]:
    """(ints, g, den): the primitive int dict ``ints`` times g/den is the
    int/Fraction dict d, g/den in lowest terms.  Since each Fraction is
    reduced, d's content is the gcd of the numerators over the lcm of the
    denominators."""
    den = lcm(*(v.denominator for v in d.values()))
    g = gcd(*(v.numerator for v in d.values()))
    return {k: v * den // g for k, v in d.items()}, g, den


def _dp_div_graded(p: dict, shift: int, lead: int, rest: dict) -> Optional[dict]:
    """Exact quotient of p by x^lead + rest, or None.

    A key's grade is its exponent field at bit ``shift``; x^lead is a power
    of that variable, alone in its grade, and all keys of ``rest`` share
    another.  From x^lead's end, each grade is divided by x^lead and its
    quotient times rest is taken off the grade it reaches, until a quotient
    could not divide or would reach past p.  A term left over is a
    remainder, and so is a carry.
    """
    glead = lead >> shift & _MASK
    step = (next(iter(rest)) >> shift & _MASK) - glead
    buckets: dict[int, dict] = {}
    for k, v in p.items():
        buckets.setdefault(k >> shift & _MASK, {})[k] = v
    top = max(buckets)
    grades = range(top, glead - 1, -1) if step < 0 else range(glead, top - step + 1)
    quotient: dict = {}
    for d in grades:
        cur = buckets.pop(d, None)
        if not cur:
            continue
        nxt = buckets.setdefault(d + step, {})
        for k, v in cur.items():
            kq = k - lead
            quotient[kq] = v
            for kr, vr in rest.items():
                kk = kq + kr
                nv = nxt.get(kk, 0) - v * vr
                if nv:
                    nxt[kk] = nv
                else:
                    del nxt[kk]
    if any(buckets.values()) or _quotient_carries(quotient, rest):
        return None
    return quotient


def _dp_div_form(p: dict, off: int, m: int) -> Optional[dict]:
    """Exact quotient of p by x_{off+1}+...+x_{off+m}, m >= 2, or None.

    A ring map that sends the form to 0 rejects almost every non-multiple
    in one pass: x_{off+1} -> -x_{off+2} and x_{off+3}, ..., x_{off+m} -> 0.
    The image of a key keeps the other variables and holds e_{off+1} +
    e_{off+2}, below 2^17, in the 32 bits of x_{off+1} and x_{off+2}, so the
    sum cannot carry into another variable.  A nonzero
    image proves that the division fails; only a long division with zero
    remainder accepts.
    """
    if not p:
        return {}
    ybit = _SHIFT * off
    move = _MASK << ybit  # k - e*move moves e from x_{off+2} to x_{off+1}
    zero = ((1 << (_SHIFT * (m - 2))) - 1) << (ybit + 2 * _SHIFT)
    image: dict = {}
    get = image.get
    for k, v in p.items():
        if k & zero:
            continue
        y = k >> ybit
        kk = k - (y >> _SHIFT & _MASK) * move
        image[kk] = get(kk, 0) + (-v if y & 1 else v)
    if any(image.values()):
        return None
    return _dp_div_graded(p, ybit, 1 << ybit,
                          _named_atom_dict(("F", off + 1, m - 1)))


def _dp_div_binom(p: dict, pairs: tuple[tuple[int, int], ...]) -> Optional[dict]:
    """Exact quotient of p by 1 - x^pairs, or None.

    A ring map that sends 1 - x^u to 0 rejects almost every non-multiple in
    one pass: each variable x_i of u goes to t^(2^(16(i-1))) in
    Z[t]/(t^u - 1), so the u-part of a packed key k goes to t^((k & mask) % u),
    and the other variables stay.  It refines both the projection x_i -> 1
    and the map k -> t^(k % u).  A nonzero image proves that the division
    fails; only a long division with zero remainder accepts.
    """
    if not p:
        return {}
    mask = 0
    for v, _e in pairs:
        mask |= _MASK << (_SHIFT * (v - 1))
    keep = ~mask
    u = _mono_pack(dict(pairs))
    width = u.bit_length()
    image: dict = {}
    get = image.get
    for k, v in p.items():
        kk = (k & keep) << width | (k & mask) % u
        image[kk] = get(kk, 0) + v
    if any(image.values()):
        return None
    return _dp_div_graded(p, _SHIFT * (pairs[0][0] - 1), 0, {u: -1})


# ---------------------------------------------------------------------------
# factor atoms
# ---------------------------------------------------------------------------
#
# ("F", off, m):  the linear form x_{off+1} + ... + x_{off+m}       (m >= 1)
# ("B", pairs):   the binomial 1 - x^pairs, pairs = ((var, exp), ...) sorted
# ("P", items):   an opaque polynomial, items = sorted (key, coeff) pairs of
#                 a primitive dict with a positive coefficient at its largest
#                 packed key and no monomial content; it holds what F and B
#                 atoms do not

Atom = tuple


def _atom_dict(atom: Atom) -> dict:
    if atom[0] == "P":
        return dict(atom[1])  # not cached: P atoms are mostly one-offs
    return _named_atom_dict(atom)


@lru_cache(maxsize=None)
def _named_atom_dict(atom: Atom) -> dict:
    kind = atom[0]
    if kind == "F":
        _, off, m = atom
        return {_mono_pack({off + i: 1}): 1 for i in range(1, m + 1)}
    if kind == "B":
        _, pairs = atom
        return {0: 1, _mono_pack(dict(pairs)): -1}
    raise ValueError(f"unknown atom kind {atom!r}")


def _atom_size(atom: Atom) -> tuple[int, int, int, int, int]:
    """The size of ``atom`` as ``_check_size`` reads it; only a P atom
    reads a dict, the others are sized from their fields."""
    kind = atom[0]
    if kind == "F":  # x_{off+1} + ... + x_{off+m}
        _, off, m = atom
        return m, (m - 1).bit_length(), _field_bits(m, 0) << _SHIFT * off, 1, 1
    if kind == "B":  # 1 - x^u
        pairs = atom[1]
        return (2, 1, sum(1 << _SHIFT * (v - 1) for v, _ in pairs), 0,
                sum(e for _, e in pairs))
    return _dict_size(dict(atom[1]))


def _atom_last_var(atom: Atom) -> int:
    """The largest index of a variable in ``atom``."""
    if atom[0] == "F":
        return atom[1] + atom[2]
    if atom[0] == "P":  # items sorted by key, so the largest key is last
        return _last_var(atom[1][-1][0])
    return atom[1][-1][0]  # pairs sorted by variable


def _atom_shift(atom: Atom, k: int) -> Atom:
    if k == 0:
        return atom
    _check_shift(_atom_last_var(atom), k)
    if atom[0] == "F":
        return ("F", atom[1] + k, atom[2])
    if atom[0] == "P":
        shift = _SHIFT * k
        return ("P", tuple((key << shift, v) for key, v in atom[1]))
    return ("B", tuple((v + k, e) for v, e in atom[1]))


def _binom_atom(mono_key: int) -> Atom:
    return ("B", _mono_unpack(mono_key))


def _dp_as_form(p: dict) -> Optional[Atom]:
    """Recognize x_{a+1}+...+x_{a+m} (unit coefficients, consecutive run)."""
    if not p:
        return None
    vars_seen = []
    for k, v in p.items():
        # x_v alone is one set bit, at bit 16 (v - 1)
        if v != 1 or k & (k - 1) or (k.bit_length() - 1) % _SHIFT:
            return None
        vars_seen.append(k.bit_length() // _SHIFT + 1)
    vars_seen.sort()
    lo, hi = vars_seen[0], vars_seen[-1]
    if hi - lo + 1 != len(vars_seen):
        return None
    return ("F", lo - 1, hi - lo + 1)


def _dp_as_binom(p: dict) -> Optional[tuple[int, Atom]]:
    """Recognize s*(1 - x^m) with s = +-1; return (s, atom)."""
    if len(p) != 2 or 0 not in p:
        return None
    s = p[0]
    if s not in (1, -1):
        return None
    (key, v), = ((k, v) for k, v in p.items() if k != 0)
    if v != -s:
        return None
    return s, _binom_atom(key)


def _try_divide_atom(p: dict, atom: Atom) -> Optional[dict]:
    if atom[0] == "F":
        return _dp_div_form(p, atom[1], atom[2])
    if atom[0] == "B":
        return _dp_div_binom(p, atom[1])
    return None  # hints are optional; P atoms are never trial-divided


def _form_candidates(d: dict) -> list[Atom]:
    """The forms x_{a+1}+...+x_{a+m} with m >= 2 that may divide d, longest
    first and then by a.  Such a form divides d only if each of its
    variables occurs in d, so only runs of variables that occur are listed."""
    fields = _fields(reduce(or_, d, 0))
    run = [0] * (len(fields) + 1)  # x_{i+1} ... x_{i+run[i]} all occur
    for i in range(len(fields) - 1, -1, -1):
        if fields[i]:
            run[i] = run[i + 1] + 1
    return [("F", off, m) for m in range(max(run), 1, -1)
            for off, r in enumerate(run) if r >= m]


# ---------------------------------------------------------------------------
# public Monomial / Polynomial
# ---------------------------------------------------------------------------

class Monomial:
    """Product of variables x_i with positive integer exponents."""

    __slots__ = ("_key",)

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(exponents, Monomial):
            self._key = exponents._key
            return
        if not isinstance(exponents, Mapping):
            exponents = dict(exponents)
        self._key = _mono_pack(exponents)

    @classmethod
    def _from_key(cls, key: int) -> "Monomial":
        m = object.__new__(cls)
        m._key = key
        return m

    @classmethod
    def variable(cls, i: int) -> "Monomial":
        return cls({i: 1})

    @property
    def exponents(self) -> dict[int, int]:
        return dict(_mono_unpack(self._key))

    @property
    def degree(self) -> int:
        return _mono_degree(self._key)

    def __mul__(self, other: "Monomial") -> "Monomial":
        _check_key_sums((self._key,), (other._key,))
        return Monomial._from_key(self._key + other._key)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "Monomial") -> bool:
        """Canonical term order, the printer's: the larger row comes first
        (``_sorted_terms``)."""
        get = _ROWS.get
        return ((get(self._key) or _row(self._key))
                > (get(other._key) or _row(other._key)))

    def __str__(self) -> str:
        return _mono_str(_fields(self._key)) or "1"

    def __repr__(self) -> str:
        return f"Monomial({self.exponents!r})"


def _power(x, n: int, one):
    """x ** n, n >= 0, by repeated squaring: ``one`` for n = 0 and x itself,
    not multiplied by ``one``, for n = 1."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return one if out is None else out


class _SparsePoly:
    """The ring operations of a sparse polynomial held as one dict ``_d``
    from key to nonzero coefficient.

    A subclass names its dict product, ``_dict_product``, whose keys add
    (packed keys in ``Polynomial``, t-exponents in ``UniPoly``), and adds
    its key validation, printing, hashability and extras.  An int or
    Fraction operand is a constant; for any other the operators return
    NotImplemented, so a rational-function operand takes over in either
    order.
    """

    __slots__ = ("_d",)

    @classmethod
    def _from_dict(cls, d: dict):
        p = object.__new__(cls)
        p._d = d
        return p

    @classmethod
    def constant(cls, c):
        c = _as_coeff(c)
        return cls._from_dict({0: c} if c else {})

    @classmethod
    def _operand(cls, v):
        """v as a polynomial of this class: itself, or an int or Fraction as
        a constant; None for any other operand."""
        if isinstance(v, cls):
            return v
        if isinstance(v, (int, Fraction)):
            return cls.constant(v)
        return None

    @classmethod
    def _coerce(cls, v):
        """``_operand(v)``, raising TypeError where that is None."""
        p = cls._operand(v)
        if p is None:
            raise TypeError(f"expected {cls.__name__}, got {type(v)}")
        return p

    def is_zero(self) -> bool:
        return not self._d

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        return NotImplemented if other is None else self._d == other._d

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._from_dict(_dp_add(self._d, other._d))

    __radd__ = __add__

    def __neg__(self):
        return self._from_dict(_dp_neg(self._d))

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._from_dict(_dp_scale(self._d, _as_coeff(other)))
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._from_dict(self._dict_product(self._d, other._d))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        return _power(self, n, self.constant(1))


class Polynomial(_SparsePoly):
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ()
    _dict_product = staticmethod(_dp_mul)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        if isinstance(terms, Polynomial):
            self._d = dict(terms._d)
            return
        items = terms.items() if isinstance(terms, Mapping) else terms
        self._d = _dp_acc({}, (
            (mono._key if isinstance(mono, Monomial) else
             mono if isinstance(mono, int) else _mono_pack(dict(mono)),
             _as_coeff(coeff)) for mono, coeff in items))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._from_dict({})

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    @classmethod
    def variable(cls, i: int) -> "Polynomial":
        return cls._from_dict({_mono_pack({i: 1}): 1})

    @property
    def terms(self) -> dict[Monomial, Coeff]:
        return {Monomial._from_key(k): v for k, v in self._d.items()}

    def total_degree(self) -> int:
        return max((_mono_degree(k) for k in self._d), default=0)

    def coefficient(self, mono: Monomial) -> Coeff:
        return self._d.get(mono._key, 0)

    def __len__(self) -> int:
        return len(self._d)

    def __hash__(self) -> int:
        return hash(frozenset(self._d.items()))

    def frobenius(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("frobenius shift must be nonnegative")
        return Polynomial._from_dict(_dp_frobenius(self._d, k))

    def __str__(self) -> str:
        return _poly_str(_sorted_terms(self._d))

    def __repr__(self) -> str:
        return f"Polynomial<{self}>"


def _as_coeff(c) -> Coeff:
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)}")


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """Coefficient-wise sum; zero coefficients are dropped."""
    return Polynomial._coerce(a) + Polynomial._coerce(b)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """Distributive product with exponent addition."""
    return Polynomial._coerce(a) * Polynomial._coerce(b)


def frobenius(p: Polynomial, k: int) -> Polynomial:
    """Shift every variable index by k: x_i -> x_{i+k}."""
    return Polynomial._coerce(p).frobenius(k)


# ---------------------------------------------------------------------------
# canonical strings
# ---------------------------------------------------------------------------

def _mono_str(fields: tuple[int, ...]) -> str:
    """The monomial with exponents ``fields`` of x1, x2, ..., e.g. x1x3^2."""
    return "".join([f"x{var}" if exp == 1 else f"x{var}^{exp}"
                    for var, exp in compress(enumerate(fields, 1), fields)])


def _coeff_str(c: Coeff) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{_int_str(c.numerator)}/{_int_str(c.denominator)}"
    return _int_str(int(c))


# Each printed key's row (degree, fields, text): its place in the term
# order, then its monomial's text, built once per process.  An entry's size
# is about the bytes it pins: _ROW_BYTES for its objects, its text, 10 per
# field (8 in the fields tuple, 2 in the key) and 28 per exponent above
# 256, which is an int object of its own.  An entry above _ROW_MOST, a key
# past x6500 or so, is never kept, so that no one monomial takes the memo.
# The 1,751 keys of the benchmark's roundtrip set fill 501 kB of it.
_ROW_BYTES = 224
_ROWS = _Memo(1 << 20)
_ROW_MOST = _ROWS.budget >> 4


def _row(key: int) -> tuple[int, tuple[int, ...], str]:
    """The row of ``key``, stored in ``_ROWS`` if it fits."""
    fields = _fields(key)
    row = (sum(fields), fields, _mono_str(fields))
    size = _ROW_BYTES + len(row[2]) + 10 * len(fields)
    if size <= _ROW_MOST:  # only a key short enough to keep is read again
        size += 28 * sum(e > 256 for e in fields)
    if size <= _ROW_MOST:
        _ROWS.put(key, row, size)
    return row


def _sorted_terms(d: dict) -> list[tuple[tuple, Coeff]]:
    """(row, coeff) of each term of d in canonical order, each key's row
    read from ``_ROWS`` or built once.

    The canonical order is (degree, fields) descending: total degree, then
    the exponents of x1, x2, ... descending.  At equal degree this sorts
    the variable sequences with multiplicity (x1*x3^2 -> 1, 3, 3)
    ascending: where two keys first differ, the larger exponent puts the
    smaller variable first.  No field tuple of a degree is a prefix of
    another, since a key's last field is nonzero, so the tuples first
    differ at a shared position and the texts are never compared.  The
    sort compares rows alone: a row nested in a (row, coeff) pair would
    walk two long field tuples once more to find that the rows differ.
    """
    get = _ROWS.get
    return sorted([(get(k) or _row(k), c) for k, c in d.items()],
                  key=itemgetter(0), reverse=True)


def _poly_str(terms: list, negate: bool = False) -> str:
    """The printed sum of the ``_sorted_terms`` ``terms``, each negated if
    ``negate``."""
    if not terms:
        return "0"
    pieces = []
    for (_, _, mono), c in terms:
        ac = abs(c)
        if not mono:
            body = _coeff_str(ac)
        elif ac == 1:
            body = mono
        else:
            body = _coeff_str(ac) + mono
        pieces.append(("-" if (c < 0) != negate else "+") + body)
    text = "".join(pieces)
    return text[1:] if text[0] == "+" else text


# ---------------------------------------------------------------------------
# RatFunc
# ---------------------------------------------------------------------------

def _positive_top(c: Fraction, num: dict) -> tuple[Fraction, dict]:
    """(c, num) up to a joint sign, with num positive at its largest key."""
    if num[max(num)] < 0:
        return -c, _dp_neg(num)
    return c, num


def _times_atoms(d: dict, fac: dict, base: dict = {}) -> dict:
    """d times a^(fac[a] - base[a]) for every atom a where that exponent is
    positive, an atom missing from a table counting 0.  Neither table is
    changed."""
    get = base.get
    for a, e in fac.items():
        for _ in range(e - get(a, 0)):
            d = _dp_mul(d, _atom_dict(a))
    for a, e in base.items():
        if e < 0 and a not in fac:
            for _ in range(-e):
                d = _dp_mul(d, _atom_dict(a))
    return d


# The product of each distinct side of atom powers that printing multiplies
# out, keyed by the frozenset of its (atom, exponent) pairs, so that each is
# multiplied out once per process.  A side with a P atom is multiplied out
# each time: its key would pin the atom's terms as well, and storing such
# sides too saved no time on the benchmark's roundtrip set, where they take
# the room of other products.  An entry's size is about the bytes it
# pins: _PRODUCT_BYTES for its dict and its key's set, _PAIR_BYTES per pair
# of the key, and _TERM_BYTES per term plus the bytes of its packed key and
# its coefficient.  An entry above _PRODUCT_MOST is never kept, so that no
# one product takes the memo.  One pass of the benchmark's roundtrip set
# fills it with about 270 of the 434 products that it may keep there.
_PRODUCT_BYTES = 320
_PAIR_BYTES = 120
_TERM_BYTES = 64
_PRODUCTS = _Memo(1 << 19)
_PRODUCT_MOST = _PRODUCTS.budget >> 4


def _atom_product(side: list) -> dict:
    """prod a^e over the (atom, e) pairs of ``side``, e > 0, read from
    ``_PRODUCTS`` or multiplied out and stored there if it fits; a lone
    atom to the first power is its cached dict.  The caller never changes
    the dict it gets."""
    if not side:
        return _DP_ONE
    if len(side) == 1 and side[0][1] == 1:
        return _atom_dict(side[0][0])
    if any(a[0] == "P" for a, _ in side):
        return _times_atoms(_DP_ONE, dict(side))
    key = frozenset(side)
    d = _PRODUCTS.get(key)
    if d is None:
        d = _times_atoms(_DP_ONE, dict(side))
        size = _PRODUCT_BYTES + _PAIR_BYTES * len(side) + _TERM_BYTES * len(d)
        if size <= min(_PRODUCTS.room, _PRODUCT_MOST):  # else it cannot fit
            top = max(map(abs, d.values()))
            size += len(d) * ((max(d).bit_length() + top.bit_length()) // 8)
            if size <= _PRODUCT_MOST:
                _PRODUCTS.put(key, d, size)
    return d


def _raw(c: Fraction, num: dict, fac: dict) -> "RatFunc":
    """A RatFunc from fields that are already normalized."""
    rf = object.__new__(RatFunc)
    rf._c = c
    rf._num = num
    rf._fac = fac
    return rf


class RatFunc:
    """Exact rational function, held factored as c * num * prod(atom^e).

    ``_c`` is a Fraction that absorbs scale and sign; zero is ``_c == 0``.
    ``_num`` is a primitive int dict whose coefficient at its largest packed
    key is positive, so a P atom made from it is canonical.  ``_fac`` maps
    atoms (bracket forms, binomials 1 - x^m and opaque polynomials, see the
    module notes) to nonzero exponents, negative on the denominator side.
    ``RatFunc(num, den)`` divides a ``RatFunc`` num by den, and otherwise
    factors its expanded arguments once, so bracket and
    binomial factors that ``num`` and ``den`` share cancel; an opaque factor
    that is all that is left of ``num`` cancels against the same factor of
    ``den`` when the value is expanded.  No polynomial
    GCD is ever taken: equality (``==``, ``rf_equal``) is semantic, by cross
    multiplication.

    A value is immutable: no method changes its fields or their dicts, so
    values may share dicts and a cached value is handed out as it is.  The
    public ``num``/``den`` are the expanded, normalized pair; like the
    printed form they are built on each request, from the product of each
    side's atom powers, which ``_PRODUCTS`` keeps, times the constant and
    num in a new dict.
    """

    __slots__ = ("_c", "_num", "_fac")

    def __init__(self, num=None, den=1):
        if isinstance(num, RatFunc):
            value = num._mul(_as_rf(den)._inv())
        else:
            num = Polynomial.zero() if num is None else Polynomial._coerce(num)
            den = Polynomial._coerce(den)
            if not den._d:
                raise DivisionByZeroError("zero denominator")
            value = RatFunc._from_dict(num._d)._mul(
                RatFunc._from_dict(den._d)._inv())
        self._c, self._num, self._fac = value._c, value._num, value._fac

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def from_const(c) -> "RatFunc":
        return RatFunc._from_atoms({}, c)

    @staticmethod
    def _from_atoms(atoms: Mapping[Atom, int], c=1) -> "RatFunc":
        c = Fraction(c)
        if c == 0:
            return _ZERO
        return _raw(c, _DP_ONE, {a: e for a, e in atoms.items() if e})

    @staticmethod
    def _from_dict(d: dict) -> "RatFunc":
        """Factor an expanded polynomial into bracket forms once."""
        if not d:
            return _ZERO
        ints, g, den = _coeff_clear(d)
        return RatFunc._normalized(Fraction(g, den), ints, {},
                                   _form_candidates(ints))

    @staticmethod
    def _normalized(c: Fraction, num: dict, fac: dict,
                    hint_atoms: Iterable[Atom] = ()) -> "RatFunc":
        """Fold monomial content, the hint atoms that divide num and a
        recognizable rest of num into fac."""
        if not num:
            return _ZERO
        fac = {a: e for a, e in fac.items() if e}
        if num == _DP_ONE:
            return _raw(c, _DP_ONE, fac)
        g = gcd(*num.values())
        if g > 1:
            num = {k: v // g for k, v in num.items()}
            c = c * g
        # pull out the common monomial factor as single-variable forms
        mono = _dp_min_monomial(num)
        if mono:
            num = {k - mono: v for k, v in num.items()}
            for var, exp in _mono_unpack(mono):
                a = ("F", var - 1, 1)
                fac[a] = fac.get(a, 0) + exp
        # cancel against hinted atoms (typically the denominator's) while
        # num is not a constant; a constant here is 1 or -1.  A variable
        # x_{a+1} = ("F", a, 1) is skipped: it is prime and no longer divides
        # num, so it divides no quotient of num either
        for atom in hint_atoms:
            if atom[0] == "F" and atom[2] == 1:
                continue
            while len(num) > 1 or 0 not in num:
                q = _try_divide_atom(num, atom)
                if q is None or not q:
                    break
                fac[atom] = fac.get(atom, 0) + 1
                num = q
        c, num = _positive_top(c, num)
        # recognize what remains
        if num != _DP_ONE:
            form = _dp_as_form(num)
            if form is not None:
                fac[form] = fac.get(form, 0) + 1
                num = _DP_ONE
            else:
                rec = _dp_as_binom(num)
                if rec is not None:
                    s, atom = rec
                    if s < 0:
                        c = -c
                    fac[atom] = fac.get(atom, 0) + 1
                    num = _DP_ONE
        fac = {a: e for a, e in fac.items() if e}
        return _raw(c, num, fac)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self._c == 0

    def _expand(self) -> tuple[dict, dict]:
        """The expanded num/den pair, positive at den's leading term.  As
        multiplied out it has joint content 1 and no common monomial: like
        ``_num``, all atoms but the variables are primitive and monomial-free
        (Gauss), each atom is on one side, and ``_c`` is a reduced Fraction."""
        num, den = self._expand_up_to_sign()
        if _sorted_terms(den)[0][1] < 0:
            return _dp_neg(num), _dp_neg(den)
        return num, den

    def _expand_up_to_sign(self) -> tuple[dict, dict]:
        """``_expand``'s pair up to a joint sign.  Each side is size-checked
        before it is multiplied out (``_check_size``)."""
        if self._c == 0:
            return {}, dict(_DP_ONE)
        c, num, fac = self._c, self._num, self._fac
        if num != _DP_ONE:
            # num over an opaque atom made from that same num: cancel one copy
            atom = ("P", tuple(sorted(num.items())))
            if fac.get(atom, 0) < 0:
                num, fac = _DP_ONE, dict(fac)
                fac[atom] += 1
        top = [(a, e) for a, e in fac.items() if e > 0]
        bottom = [(a, -e) for a, e in fac.items() if e < 0]
        _check_size([(_dict_size(num), 1)]
                    + [(_atom_size(a), e) for a, e in top], c.numerator)
        _check_size([(_atom_size(a), e) for a, e in bottom], c.denominator)
        # each product may be stored: c and num go into new dicts
        up, down = _atom_product(top), _atom_product(bottom)
        if num != _DP_ONE:
            up = _dp_mul(_dp_scale(num, c.numerator), up)
        else:
            up = _dp_scale(up, c.numerator)
        return up, _dp_scale(down, c.denominator)

    @property
    def num(self) -> Polynomial:
        return Polynomial._from_dict(self._expand()[0])

    @property
    def den(self) -> Polynomial:
        return Polynomial._from_dict(self._expand()[1])

    # -- arithmetic --------------------------------------------------------------

    def _mul(self, other: "RatFunc") -> "RatFunc":
        if self._c == 0 or other._c == 0:
            return _ZERO
        fac = _dp_add(self._fac, other._fac)
        c = self._c * other._c
        if self._num == _DP_ONE:
            return _raw(c, other._num, fac)
        if other._num == _DP_ONE:
            return _raw(c, self._num, fac)
        return RatFunc._normalized(c, _dp_mul(self._num, other._num), fac)

    def _inv(self) -> "RatFunc":
        if self._c == 0:
            raise DivisionByZeroError("inverse of the zero rational function")
        fac = {a: -e for a, e in self._fac.items()}
        if self._num != _DP_ONE:
            atom = ("P", tuple(sorted(self._num.items())))
            e = fac.pop(atom, 0) - 1
            if e:
                fac[atom] = e
        return _raw(1 / self._c, _DP_ONE, fac)

    def frobenius(self, k: int) -> "RatFunc":
        if k < 0:
            raise ValueError("frobenius shift must be nonnegative")
        if k == 0 or self._c == 0:
            return self
        return _raw(self._c, _dp_frobenius(self._num, k),
                    {_atom_shift(a, k): e for a, e in self._fac.items()})

    def _cross(self, other: "RatFunc") -> tuple[dict, dict]:
        """Each side's num times the atom powers it holds beyond the other."""
        return (_times_atoms(self._num, self._fac, other._fac),
                _times_atoms(other._num, other._fac, self._fac))

    @staticmethod
    def _sum(values: Iterable["RatFunc"],
             hint_atoms: Iterable[Atom] = ()) -> "RatFunc":
        """The sum of any number of values in one pass.

        The sum keeps the atoms every term shares, each at its least
        exponent over the terms (0 for a term without it).  Each term's num
        times the atoms it holds beyond those, scaled to the common
        constant, is added into one dict, which is normalized once: trial
        division by ``hint_atoms``, then by the shared denominator atoms.
        A zero term is skipped and a lone nonzero term is returned as is.
        """
        terms = [v for v in values if v._c]
        if len(terms) < 2:
            return terms[0] if terms else _ZERO
        first = terms[0]
        common = dict(first._fac)
        den_lcm = first._c.denominator
        for t in terms[1:]:
            f = t._fac
            # an atom missing from common has a least exponent of 0 so far
            common = {a: m for a, e in common.items()
                      if (m := min(e, f.get(a, 0)))}
            for a, e in f.items():
                if e < 0 and a not in common:
                    common[a] = e
            den_lcm = lcm(den_lcm, t._c.denominator)
        scales = [t._c.numerator * (den_lcm // t._c.denominator)
                  for t in terms]
        g = gcd(*scales)
        hints = list(hint_atoms) + [a for a, e in common.items() if e < 0]
        total: dict = {}
        for t, s in zip(terms, scales):
            # t's num times the atoms t holds beyond the shared ones
            p = _dp_scale(_times_atoms(t._num, t._fac, common), s // g)
            total = _dp_acc(total, p.items()) if total else p
        return RatFunc._normalized(Fraction(g, den_lcm), total, common, hints)

    def _add(self, other: "RatFunc") -> "RatFunc":
        """The two-term case of ``_sum``: the sum over the atoms both sides
        share, trial-divided by the shared denominator atoms.  Neither
        operand's dicts change."""
        return RatFunc._sum((self, other))

    def _equals(self, other: "RatFunc") -> bool:
        if self._c == 0 or other._c == 0:
            return self._c == other._c
        lhs, rhs = self._cross(other)
        s1 = self._c.numerator * other._c.denominator
        s2 = other._c.numerator * self._c.denominator
        return _dp_scale(lhs, s1) == _dp_scale(rhs, s2)

    # -- operators ---------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RatFunc, Polynomial, int, Fraction)):
            return NotImplemented
        return rf_equal(self, other)

    __hash__ = None  # semantic equality is not hash-compatible

    def __add__(self, other) -> "RatFunc":
        return rf_add(self, other)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _raw(-self._c, self._num, self._fac)

    def __sub__(self, other) -> "RatFunc":
        return rf_add(self, -_as_rf(other))

    def __rsub__(self, other) -> "RatFunc":
        return rf_add(other, -self)

    def __mul__(self, other) -> "RatFunc":
        return rf_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        return rf_div(self, other)

    def __rtruediv__(self, other) -> "RatFunc":
        return rf_div(other, self)

    def __str__(self) -> str:
        return rf_to_canonical_string(self)

    def __repr__(self) -> str:
        return f"RatFunc<{self}>"


_ZERO = _raw(Fraction(0), {}, {})


def _as_rf(v) -> RatFunc:
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction)):
        return RatFunc.from_const(v)
    if isinstance(v, Polynomial):
        return RatFunc(v)
    raise TypeError(f"expected RatFunc, got {type(v)}")


def rf_add(a: RatFunc, b: RatFunc) -> RatFunc:
    return _as_rf(a)._add(_as_rf(b))


def rf_mul(a: RatFunc, b: RatFunc) -> RatFunc:
    return _as_rf(a)._mul(_as_rf(b))


def rf_inv(a: RatFunc) -> RatFunc:
    return _as_rf(a)._inv()


def rf_div(a: RatFunc, b: RatFunc) -> RatFunc:
    return rf_mul(a, rf_inv(b))


def rf_frobenius(a: RatFunc, k: int) -> RatFunc:
    return _as_rf(a).frobenius(k)


def rf_equal(a: RatFunc, b: RatFunc) -> bool:
    """True iff a.num * b.den == b.num * a.den exactly."""
    return _as_rf(a)._equals(_as_rf(b))


def rf_to_canonical_string(a: RatFunc) -> str:
    """Deterministic rendering, e.g. ``(x2x3+x3^2)/(x1^2+x1x2)``: the pair
    of ``RatFunc._expand``, whose sign the den's sorted terms give.  A side
    that may multiply out to more than ``MAX_SPEC_BITS`` bits raises
    ``SizeBoundError`` before it is expanded (``_check_size``).  A factored
    value whose expansion has an exponent above 65535, such as
    ``parse_ratfunc("x1^65535*x1")``, raises ``ExponentOverflowError``:
    no packed key holds it.  Each key's text is built once
    (``_sorted_terms``)."""
    num, den = _as_rf(a)._expand_up_to_sign()
    den_terms = _sorted_terms(den)
    negate = den_terms[0][1] < 0
    text = _poly_str(_sorted_terms(num), negate)
    if den == {0: -1 if negate else 1}:
        return text
    return f"({text})/({_poly_str(den_terms, negate)})"
