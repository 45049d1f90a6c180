"""Exact Laurent-polynomial scalars and their floating-point counterpart.

Every spectral quantity in this package is expressed through exponentiated
variables: ``u_i`` stands for ``e^{lambda_i}``, ``w_k`` for ``e^{mu_k}`` and
``q`` for ``e^{gamma}``.  In these variables all statistical weights, operator
entries and partition functions are Laurent polynomials with rational
coefficients, so exact arithmetic is closed; no branch cuts or fractional
powers ever appear.

Two interchangeable scalar backends are used throughout, each one
``Backend`` record (``EXACT``, ``FLOAT``; ``backend_of`` tells them apart):

* :class:`LaurentPoly` -- exact, immutable, arbitrary-precision rational
  coefficients.  Internally each monomial is one packed Python int with a
  16-bit balanced digit per variable (exponents within +-EXP_LIMIT =
  32767; anything beyond raises ExponentOverflow), and the coefficients
  are integer numerators over one shared denominator, reduced once per
  operation.  One codec reads and writes keys: ``_encode`` from an
  ``ExpVec``, and ``_digit_array``/``_packed_keys`` between keys and int64
  exponent arrays, so the text and JSON forms render from one decode per
  polynomial.  Digit slots come from a process-wide, append-only registry
  that is safe to use from several threads.  ``sum_of_products`` adds many
  products a_t * b_t in one pass, never forming a product: over one common
  denominator each numerator of the sum is an integer of size at most B =
  sum_t f_t * max|a_t| * max|b_t| * min(n_t, m_t) (n_t, m_t the term
  counts), so its residues modulo just enough 26-bit primes (product M
  past 2B) are accumulated in int64 on mixed-radix monomial keys, reduced
  once per 2,048 rows of products rather than once per product, and
  Garner's CRT rebuilds, in (-M/2, M/2), the numerators whose residues are
  not all zero.  Keys count points of the lattice the product terms lie
  on (a vertex weight moves each exponent by +-1, so products of weights
  step by 2); a box of no more cells than term pairs is the accumulator
  itself, a sparser sum uses the sorted union of its keys.  A key box past
  int64, or a B past the prime table, falls back to pairwise products.
  With ``images`` the kernel sums each pair under permutations of its
  variables, sign * rho(a) * rho(b) = sign * rho(a * b); without, a
  pair's one image is the identity.  One product per pair, each image a
  permutation of its slots: every pair's residues are expanded once per
  prime into one buffer, and each image adds or subtracts that buffer with
  its slot axes transposed (on the sorted union, its cells re-keyed).
* plain ``complex`` -- double precision.  A float zero test is relative:
  each check compares its residual with ``tolerance`` times a scale it
  computes from the same terms, never with an absolute bound, because the
  weights grow exponentially in |lambda|.

Ratios of polynomials (expansion coefficients, solved coefficient tables)
are represented by :class:`RationalFunction`, whose equality is defined by
cross-multiplication; ``RationalFunction.reduced`` runs Euclid's algorithm
on the same packed LaurentPoly terms.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import (
    DegreeExceeded,
    ExponentOverflow,
    UnassignedVariable,
    ZeroBaseWithNegativeExponent,
)

_KIND_RANK = {"u": 0, "w": 1, "q": 2}
_RANK_KIND = {v: k for k, v in _KIND_RANK.items()}

# Variable key: (kind rank, index).  An exponent vector, the public form of
# a monomial, is a tuple of ((rank, index), exponent) pairs sorted by key,
# zero exponents omitted; the constant monomial is the empty tuple.
VarKey = tuple[int, int]
ExpVec = tuple[tuple[VarKey, int], ...]


@dataclass(frozen=True, order=True)
class VarId:
    """A named variable: kind 'u', 'w' or 'q' plus an index.

    All (q, i) denote the same anisotropy variable; the index is normalized
    to 0.  (u, i) == (u, j) iff i == j, likewise for w.
    """

    kind: str
    index: int = 0

    def __post_init__(self):
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("variable index must be non-negative")
        if self.kind == "q":
            object.__setattr__(self, "index", 0)

    @property
    def key(self) -> VarKey:
        return (_KIND_RANK[self.kind], self.index)

    @property
    def name(self) -> str:
        return "q" if self.kind == "q" else f"{self.kind}{self.index}"

    @staticmethod
    def from_key(key: VarKey) -> "VarId":
        return VarId(_RANK_KIND[key[0]], key[1])


def u_var(i: int) -> VarId:
    return VarId("u", i)


def w_var(i: int) -> VarId:
    return VarId("w", i)


def q_var() -> VarId:
    return VarId("q")


# -- packed monomial keys ---------------------------------------------------
#
# Inside a LaurentPoly a monomial is one Python int: every variable owns a
# fixed-width balanced digit, key = sum(e_v << (_DIGIT_BITS * slot(v))), so
# multiplying two monomials is one integer addition.  A digit holds
# exponents in [-EXP_LIMIT, EXP_LIMIT]; arithmetic raises ExponentOverflow
# before a digit could carry into its neighbour.  The codec is _encode, from
# an ExpVec, and _digit_array/_packed_keys between keys and int64 exponent
# arrays; every other exponent read or key built goes through them.

_DIGIT_BITS = 16
_DIGIT_BASE = 1 << _DIGIT_BITS
_DIGIT_MASK = _DIGIT_BASE - 1
_DIGIT_HALF = _DIGIT_BASE >> 1
EXP_LIMIT = _DIGIT_HALF - 1

# Slot registry: variables get digit slots in order of first use, so the
# keys stay short whatever the variable indices are.  Append-only: a slot,
# once given, never changes, and every ordering is computed on decoded
# vectors, so the slot order is invisible outside this module.  New slots
# are handed out under a lock; lookups read the dict without it.
_SLOT_OF: dict[VarKey, int] = {}
_SLOT_KEYS: list[VarKey] = []
_SLOT_LOCK = threading.Lock()


def _slot(key: VarKey) -> int:
    s = _SLOT_OF.get(key)
    if s is None:
        with _SLOT_LOCK:
            s = _SLOT_OF.get(key)
            if s is None:
                s = len(_SLOT_KEYS)
                _SLOT_KEYS.append(key)
                _SLOT_OF[key] = s
    return s


def _overflow(e: int) -> ExponentOverflow:
    return ExponentOverflow(f"exponent {e} is outside [-{EXP_LIMIT}, {EXP_LIMIT}]")


def _encode(exps: ExpVec) -> tuple[int, int]:
    """Packed key of an exponent vector and its largest |exponent|."""
    key = 0
    emax = 0
    for k, e in exps:
        a = abs(e)
        if a > EXP_LIMIT:
            raise _overflow(e)
        if a > emax:
            emax = a
        key += e << (_DIGIT_BITS * _slot(k))
    return key, emax


def _key_bias(width: int) -> int:
    """Adding this to a packed key of ``width`` slots makes every digit
    non-negative, so that the key's bytes are its digits."""
    return _DIGIT_HALF * (((1 << (_DIGIT_BITS * width)) - 1) // _DIGIT_MASK)


def _digit_array(keys, width: int) -> np.ndarray:
    """Balanced digits of packed keys: int64, one row per key and one
    column per slot (``width`` of them), read from the biased keys' bytes."""
    bias = _key_bias(width)
    nbytes = _DIGIT_BITS // 8
    size = nbytes * width
    raw = b"".join([(k + bias).to_bytes(size, "little") for k in keys])
    digits = np.frombuffer(raw, dtype=f"<u{nbytes}").reshape(-1, width).astype(np.int64)
    digits -= _DIGIT_HALF
    return digits


def _packed_keys(digits: np.ndarray) -> list[int]:
    """Packed keys of the rows of an int64 digit array (_digit_array's
    inverse)."""
    nbytes = _DIGIT_BITS // 8
    step = nbytes * digits.shape[1]
    bias = _key_bias(digits.shape[1])
    raw = (digits + _DIGIT_HALF).astype(f"<u{nbytes}").tobytes()
    return [int.from_bytes(raw[i:i + step], "little") - bias for i in range(0, len(raw), step)]


def _decoded(p: "LaurentPoly") -> tuple[list[VarKey], list[list[int]]]:
    """One decode of p's keys: the keys of the variables that occur in p, in
    key order, and their exponents, one row per term (in _num order) and
    one column per variable."""
    rows = _digit_array(p._num, len(_SLOT_KEYS) + 1).tolist()
    slots = sorted((s for s, col in enumerate(zip(*rows)) if any(col)), key=_SLOT_KEYS.__getitem__)
    return [_SLOT_KEYS[s] for s in slots], [[row[s] for s in slots] for row in rows]


def _sparse(row: list[int]) -> tuple[tuple[int, int], ...]:
    """A decoded row as (column, exponent) pairs, zeros dropped.  Columns
    are in variable-key order, so these compare as the ExpVecs do, and
    (total degree, _sparse(row)) is the graded-lex sort key: total degree,
    then lexicographic with variables ordered u < w < q, then by index."""
    return tuple((j, e) for j, e in enumerate(row) if e)


def _content_and_lows(p: "LaurentPoly") -> tuple[Fraction, ExpVec]:
    """p.content() and p's lowest exponent of each variable (absent counts
    0), from one decode of the keys (p nonzero)."""
    keys, rows = _decoded(p)
    _, first = min(zip(rows, p._num.values()), key=lambda t: (sum(t[0]), _sparse(t[0])))
    g = math.gcd(*p._num.values())
    lows = tuple((k, m) for k, m in zip(keys, map(min, zip(*rows))) if m)
    return Fraction(g if first > 0 else -g, p._den), lows


def _product_emax(a: "LaurentPoly", b: "LaurentPoly") -> int:
    """Exact exponent bound of a * b, for when the cheap bound a._emax +
    b._emax is too large to rule out a carry.  Raises ExponentOverflow when
    some product term would leave its digit."""
    width = len(_SLOT_KEYS) + 1
    da, db = _digit_array(a._num, width), _digit_array(b._num, width)
    # slot by slot, the lowest then the highest exponent of the product
    ends = np.stack([da.min(axis=0) + db.min(axis=0), da.max(axis=0) + db.max(axis=0)], axis=1)
    for e in ends.ravel().tolist():
        if abs(e) > EXP_LIMIT:
            raise _overflow(e)
    return int(np.abs(ends).max())


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


def _make(num: dict[int, int], den: int, emax: int) -> "LaurentPoly":
    """Wrap packed terms whose numerators and den share no common factor."""
    r = LaurentPoly.__new__(LaurentPoly)
    r._num = num
    r._den = den
    r._emax = emax if num else 0
    r._hash = None
    return r


def _reduced(num: dict[int, int], den: int, emax: int) -> "LaurentPoly":
    """Like _make, first dividing out the gcd of den and all numerators."""
    if den != 1:
        if not num:
            den = 1
        else:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: v // g for k, v in num.items()}
                den //= g
    return _make(num, den, emax)


class LaurentPoly:
    """Immutable multivariate Laurent polynomial over the rationals.

    Representation: ``_num`` maps each packed monomial key (see
    ``_encode``) to a nonzero integer numerator, over one positive shared
    denominator ``_den`` that has no factor in common with all the
    numerators, so every polynomial has exactly one stored form and two
    polynomials are equal iff their stored forms are.  ``_emax`` bounds
    every |exponent| from above; a product whose bound passes EXP_LIMIT is
    checked exactly and raises ExponentOverflow rather than let a digit
    carry.  The public surface speaks in decoded ``ExpVec``/``Fraction``
    terms.  Instances are hashable and safe to share across threads; a
    variable met for the first time gets its digit slot under the
    registry's lock, so threads may also create polynomials concurrently.
    """

    __slots__ = ("_num", "_den", "_emax", "_hash")

    def __init__(self, terms: Mapping[ExpVec, Fraction] | None = None):
        acc: dict[int, Fraction] = {}
        emax = 0
        if terms:
            for exps, coeff in terms.items():
                c = _as_fraction(coeff)
                if c:
                    key, e = _encode(exps)
                    acc[key] = acc.get(key, 0) + c
                    emax = max(emax, e)
        den = math.lcm(*(c.denominator for c in acc.values()))
        self._num = {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}
        self._den = den if self._num else 1
        self._emax = emax if self._num else 0
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _make({0: 1}, 1, 0)

    @classmethod
    def rational(cls, value) -> "LaurentPoly":
        f = _as_fraction(value)
        return _make({0: f.numerator} if f else {}, f.denominator, 0)

    @classmethod
    def var(cls, v: VarId, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return cls.one()
        return cls({((v.key, exp),): Fraction(1)})

    @classmethod
    def monomial(cls, coeff, exps: Mapping[VarId, int]) -> "LaurentPoly":
        vec = tuple(sorted((v.key, e) for v, e in exps.items() if e))
        return cls({vec: _as_fraction(coeff)})

    # -- inspection ----------------------------------------------------

    def items(self) -> list[tuple[ExpVec, Fraction]]:
        keys, rows = _decoded(self)
        den = self._den
        return [(tuple((k, e) for k, e in zip(keys, row) if e), Fraction(v, den))
                for row, v in zip(rows, self._num.values())]

    def __bool__(self) -> bool:
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    def is_monomial(self) -> bool:
        return len(self._num) == 1

    def num_terms(self) -> int:
        return len(self._num)

    def variables(self) -> set[VarId]:
        return {VarId.from_key(k) for k in _decoded(self)[0]}

    def exponents_of(self, v: VarId) -> set[int]:
        s = _SLOT_OF.get(v.key)
        if s is None:
            return {0} if self._num else set()
        return set(_digit_array(self._num, len(_SLOT_KEYS) + 1)[:, s].tolist())

    def degree_in(self, v: VarId) -> int:
        """Largest exponent of ``v`` (0 if absent)."""
        return max(self.exponents_of(v), default=0)

    def low_degree_in(self, v: VarId) -> int:
        """Smallest exponent of ``v`` (0 if absent)."""
        return min(self.exponents_of(v), default=0)

    def content(self) -> Fraction:
        """gcd of coefficient numerators over lcm of denominators, signed by
        the canonically-first term.  content(0) == 0.

        With numerators over a shared denominator coprime to their gcd,
        this is gcd(numerators) / den."""
        return _content_and_lows(self)[0] if self._num else Fraction(0)

    # -- arithmetic ----------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.rational(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o._num:
            return self
        if not self._num:
            return o
        a, b = self._num, o._num
        da, db = self._den, o._den
        if da == db:
            den = da
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            den = da * fa
            out = {k: v * fa for k, v in a.items()}
            b = {k: v * fb for k, v in b.items()}
        get = out.get
        for k, v in b.items():
            s = get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return _reduced(out, den, max(self._emax, o._emax))

    __radd__ = __add__

    def __neg__(self):
        return _make({k: -v for k, v in self._num.items()}, self._den, self._emax)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        a, b = self._num, o._num
        if not a or not b:
            return _ZERO
        emax = self._emax + o._emax
        if emax > EXP_LIMIT:
            emax = _product_emax(self, o)
        # multiply the smaller term map into the larger one
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((k1, c1),) = a.items()
            out = {k1 + k2: c1 * c2 for k2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            b_items = list(b.items())
            for k1, c1 in a.items():
                for k2, c2 in b_items:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
            if 0 in out.values():
                out = {k: v for k, v in out.items() if v}
        return _reduced(out, self._den * o._den, emax)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if f == 0:
                raise ZeroDivisionError("division of polynomial by zero")
            return self._scaled(Fraction(1) / f)
        if isinstance(other, LaurentPoly) and other.is_monomial():
            return self * other.monomial_inverse()
        return NotImplemented

    def _scaled(self, f: Fraction):
        n = f.numerator
        return _reduced({k: v * n for k, v in self._num.items()} if n else {},
                        self._den * f.denominator, self._emax)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_monomial():
                return self.monomial_inverse() ** (-n)
            raise ValueError("negative power of a non-monomial polynomial")
        if n and self.is_monomial():
            ((k, c),) = self._num.items()
            emax = self._emax * n
            if emax > EXP_LIMIT:
                emax = int(np.abs(_digit_array([k], len(_SLOT_KEYS) + 1)).max()) * n
                if emax > EXP_LIMIT:
                    raise _overflow(emax)
            return _make({k * n: c ** n}, self._den ** n, emax)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse of a single-term polynomial."""
        if not self.is_monomial():
            raise ValueError("only monomials are invertible in the Laurent ring")
        ((k, c),) = self._num.items()
        num, den = (self._den, c) if c > 0 else (-self._den, -c)
        return _make({-k: num}, den, self._emax)

    def substitute(self, mapping: Mapping[VarId, "LaurentPoly | Fraction | int"]) -> "LaurentPoly":
        """Replace variables by monomials or rational constants.

        A variable occurring with a negative exponent needs an invertible
        (monomial) replacement.  Used e.g. for homogeneous limits (u_i -> u)
        and for pinning inhomogeneities to rational values (w_k -> 1).

        One pass over the terms: with the target c * m, a factor v^e of a
        term becomes c^e times a shift of its key by e times m's key.  When
        every c is 1 (a relabeling) no coefficient is computed, and keys
        that stay distinct keep the numerators and the denominator as they
        are.
        """
        slots, shifts, coeffs = [], [], []
        for v, t in mapping.items():
            if isinstance(t, (int, Fraction)):
                t = LaurentPoly.rational(t)
            if not t.is_monomial():
                raise ValueError("substitution targets must be monomials")
            s = _SLOT_OF.get(v.key)
            if s is not None:  # a variable without a slot occurs nowhere
                ((k, c),) = t._num.items()
                slots.append(s)
                shifts.append(k)
                coeffs.append(Fraction(c, t._den))
        if not slots or not self._num:
            return self
        width = len(_SLOT_KEYS) + 1
        digits = _digit_array(self._num, width)
        powers = digits[:, slots]
        digits[:, slots] = 0
        digits += powers @ _digit_array(shifts, width)
        emax = int(np.abs(digits).max())
        if emax > EXP_LIMIT:
            raise _overflow(emax)
        keys = _packed_keys(digits)
        nums = self._num.values()
        den = 1
        if any(c != 1 for c in coeffs):
            # one coefficient factor per distinct row of powers, all scaled to
            # integers over one common denominator
            rows, which = np.unique(powers, axis=0, return_inverse=True)
            factors = [math.prod(c ** e for c, e in zip(coeffs, row)) for row in rows.tolist()]
            den = math.lcm(*(f.denominator for f in factors))
            scaled = [f.numerator * (den // f.denominator) for f in factors]
            nums = [n * scaled[f] for n, f in zip(nums, which.ravel().tolist())]
        elif len(set(keys)) == len(keys):
            return _make(dict(zip(keys, nums)), self._den, emax)
        out: dict[int, int] = {}
        get = out.get
        for k, n in zip(keys, nums):
            out[k] = get(k, 0) + n
        return _reduced({k: v for k, v in out.items() if v}, self._den * den, emax)

    # -- equality / hashing ---------------------------------------------

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._num.items())))
        return self._hash

    # -- canonical ordering and serialization ---------------------------

    def to_text(self) -> str:
        return self.text_and_json_terms()[0]

    def to_json_terms(self) -> list[dict]:
        return self.text_and_json_terms()[1]

    def text_and_json_terms(self) -> tuple[str, list[dict]]:
        """The canonical text and JSON forms, terms in graded-lex order (see
        ``_sparse``), from one decode of the keys and one name per variable."""
        keys, rows = _decoded(self)
        names = [VarId.from_key(k).name for k in keys]
        den = self._den
        terms = sorted((sum(row), _sparse(row), n) for row, n in zip(rows, self._num.values()))
        texts, json_terms = [], []
        for _, vec, n in terms:
            g = math.gcd(n, den)
            coeff = f"{n // g}/{den // g}"
            texts.append("*".join([f"({coeff})", *(f"{names[j]}^{e}" for j, e in vec)]))
            json_terms.append({"coeff": coeff, "exps": {names[j]: e for j, e in vec}})
        return " + ".join(texts) or "0", json_terms

    @classmethod
    def from_json_terms(cls, terms: list[dict]) -> "LaurentPoly":
        acc: dict[ExpVec, Fraction] = {}
        for t in terms:
            coeff = Fraction(t["coeff"])
            vec = tuple(sorted((_parse_var(nm).key, int(e)) for nm, e in t["exps"].items() if int(e)))
            acc[vec] = acc.get(vec, Fraction(0)) + coeff
        return cls(acc)

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"

    __str__ = __repr__


# the one zero polynomial: no code changes a polynomial's terms in place
_ZERO = _make({}, 1, 0)


@dataclass(frozen=True)
class Backend:
    """One scalar backend: exact LaurentPoly entries in object arrays, or
    complex doubles.  A computation reads it once from its inputs
    (``backend_of``) and takes every zero, one, array and scale from it."""

    exact: bool
    zero: object
    one: object
    dtype: type

    def full(self, shape, index=None) -> np.ndarray:
        """An array of zeros, with a one at ``index`` if given."""
        out = np.full(shape, self.zero, dtype=self.dtype)
        if index is not None:
            out[index] = self.one
        return out

    def eye(self, n: int) -> np.ndarray:
        out = self.full((n, n))
        np.fill_diagonal(out, self.one)
        return out

    def abs_sum(self, *sides):
        """The scale of a float check, the sum of |entry| over each side in
        turn; None when exact, where a residual passes only when zero."""
        if self.exact:
            return None
        return sum(float(np.abs(np.asarray(s, dtype=complex)).sum()) for s in sides)


EXACT = Backend(True, _ZERO, LaurentPoly.one(), object)
FLOAT = Backend(False, 0j, 1 + 0j, complex)


def backend_of(x) -> Backend:
    """EXACT for a LaurentPoly, RationalFunction, int or Fraction and for an
    object array; FLOAT for any other number or array."""
    if isinstance(x, np.ndarray):
        return EXACT if x.dtype == object else FLOAT
    return EXACT if isinstance(x, (LaurentPoly, RationalFunction, int, Fraction)) else FLOAT


def invert(x):
    """Multiplicative inverse of a monomial or a nonzero number: exact (a
    Fraction) for an int or a Fraction, as ``backend_of`` counts them."""
    if isinstance(x, LaurentPoly):
        return x.monomial_inverse()
    if isinstance(x, RationalFunction):
        return RationalFunction(x.den, x.num)
    # not isinstance(x, Fraction): the float path would pay its ABC check
    if isinstance(x, int) or type(x) is Fraction:
        return Fraction(1, x)
    return 1 / x


_VAR_RE = re.compile(r"^(u|w)(\d+)$|^q$")


def _parse_var(name: str) -> VarId:
    m = _VAR_RE.match(name)
    if not m:
        raise ValueError(f"bad variable name {name!r}")
    if name == "q":
        return q_var()
    return VarId(m.group(1), int(m.group(2)))


def _split_terms(text: str) -> list[str]:
    """Split on top-level '+' (terms carry their sign inside the coefficient)."""
    depth = 0
    parts = []
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical text form, e.g. ``(-1/2)*q^-1 + (1/2)*q``.

    Also accepts bare coefficients (``3``, ``3/4``) and factors without an
    explicit coefficient (``u1^2*w1^-1``).  An empty term or factor (a
    dangling ``+`` or ``*``, or ``**``) or an exponent that is not a plain
    integer (``u1^2_0``) raises ValueError.
    """
    text = text.strip()
    if text == "0":
        return _ZERO
    acc: dict[ExpVec, Fraction] = {}
    for term in _split_terms(text):
        coeff = Fraction(1)
        exps: dict[VarKey, int] = {}
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty term or factor in {text!r}")
            if factor.startswith("(") and factor.endswith(")"):
                coeff *= Fraction(factor[1:-1].strip())
                continue
            if re.fullmatch(r"[+-]?\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                nm, _, ex = factor.partition("^")
                v = _parse_var(nm.strip())
                if not re.fullmatch(r"\s*-?\d+\s*", ex):
                    raise ValueError(f"bad exponent {ex!r} in {text!r}")
                e = int(ex)
            else:
                v = _parse_var(factor)
                e = 1
            if e:
                exps[v.key] = exps.get(v.key, 0) + e
        vec = tuple(sorted((k, e) for k, e in exps.items() if e))
        acc[vec] = acc.get(vec, Fraction(0)) + coeff
    return LaurentPoly(acc)


# -- evaluation, differentiation, coefficient extraction ----------------


def poly_eval(p: LaurentPoly, assignment: Mapping[VarId, complex]) -> complex:
    """Evaluate at complex values.  Every occurring variable must be assigned;
    a zero value with a negative exponent is rejected."""
    table = {v.key: complex(val) for v, val in assignment.items()}
    keys, rows = _decoded(p)
    den = p._den
    total = 0j
    for row, c in zip(rows, p._num.values()):
        term = complex(c / den)
        for key, e in zip(keys, row):
            if not e:
                continue
            if key not in table:
                raise UnassignedVariable(f"no value for {VarId.from_key(key).name}")
            base = table[key]
            if base == 0 and e < 0:
                raise ZeroBaseWithNegativeExponent(VarId.from_key(key).name)
            term *= base ** e
        total += term
    return total


def poly_derivative(p: LaurentPoly, v: VarId) -> LaurentPoly:
    """Term-wise d/dv with the Laurent rule d(v^n)/dv = n v^(n-1)."""
    s = _SLOT_OF.get(v.key)
    if s is None:
        return _ZERO
    unit = _encode(((v.key, 1),))[0]
    out: dict[int, int] = {}
    es = _digit_array(p._num, len(_SLOT_KEYS) + 1)[:, s].tolist()
    for (k, c), e in zip(p._num.items(), es):
        if e:
            if e - 1 < -EXP_LIMIT:
                raise _overflow(e - 1)
            out[k - unit] = c * e
    return _reduced(out, p._den, min(p._emax + 1, EXP_LIMIT))


def coefficients_in(p: LaurentPoly, vars: list[VarId]) -> dict[tuple[int, ...], LaurentPoly]:
    """Split p by its exponents in the listed variables.

    Maps each exponent tuple e (one entry per listed variable) that occurs
    to its cofactor, free of those variables, so that p is the sum of
    cofactor * prod v^e.  The zero polynomial has no cofactors.
    """
    # as in exponent_array, a last digit column, always zero, stands for
    # variables without a slot
    width = len(_SLOT_KEYS) + 1
    digits = _digit_array(p._num, width)
    slots = [_SLOT_OF.get(v.key, width - 1) for v in vars]
    es = digits[:, slots].tolist()
    digits[:, slots] = 0
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for e, k, c in zip(es, _packed_keys(digits), p._num.values()):
        groups.setdefault(tuple(e), {})[k] = c
    return {es: _reduced(num, p._den, p._emax) for es, num in groups.items()}


def exponent_array(p: LaurentPoly, vars: list[VarId]) -> tuple[np.ndarray, list[int], int]:
    """p's terms as arrays: (exps, nums, den) with p the sum over terms t of
    nums[t] / den * prod_i vars[i]^exps[t, i].  exps is int64 with one row
    per term and one column per listed variable; nums are p's integer
    numerators and den its shared denominator.  Raises ValueError if p
    has a variable outside the list."""
    # one digit column per slot, and a last one, always zero, that stands
    # for variables without a slot
    width = len(_SLOT_KEYS) + 1
    digits = _digit_array(p._num, width)
    slots = [_SLOT_OF.get(v.key, width - 1) for v in vars]
    if np.delete(digits, slots, axis=1).any():
        raise ValueError("the polynomial has a variable outside the list")
    return digits[:, slots], list(p._num.values()), p._den


# -- sums of products ---------------------------------------------------------
#
# sum_of_products, as the module docstring says.  With D the common
# denominator and f_t = D / (den a_t * den b_t), B bounds every numerator
# over D because a monomial of one product gathers at most min(n_t, m_t)
# term pairs.  An image's exponent in slot t is its product's in slot
# cols[t].  In each slot every term of every image lies on lo + step * Z,
# step the gcd of each operand's exponents less its first one's and of
# each image's low less the lowest (1 if that is 0).  A key counts lattice
# points, (d - lo) // step in mixed radix, and a product term's key is the
# sum of its factors'.  The union path stays for sparse sums, whose box
# would be mostly empty (exact z_enumerate at L = 4: ~0.52 M term pairs,
# ~1.1 M cells).
#
# One product per pair, each image a permutation of its slots.  Every
# pair, the identity included, expands a * b once per prime into one
# buffer on its own box: the box's lattice in the slots its images all
# fix, its product's own low, step and extent elsewhere (on the union
# path, only the box's distinct keys).  As each image lies on the box's
# lattice, an image takes digit x of the buffer's slot cols[t] to digit
# start + k * x of slot t: on the box it adds sign times the buffer with
# its slot axes transposed into slices of the accumulator, on the union
# the buffer's cells re-keyed by that map (an image keyed as its pair is,
# such as the identity of a pair with no other image, keeps the cells).
#
# No int64 step wraps: residues stay below p < 2^26, so a product of two
# is at most (p - 1)^2 < 2^52 and is added unreduced.  A block adds to a
# cell at most one product per row of its short operand (the long
# operand's keys are distinct), so a cell reduced below p that then takes
# _ROWS = floor((2^63 - p) / (p - 1)^2) rows, p the largest prime, stays
# below 2^63: the accumulator, and a buffer, is reduced before the rows
# since its last reduction would pass _ROWS (a block has at most 64 rows).
# A buffer cell holds at most (p - 1)^2 times its rows (a reduced one
# counts one row), and each image adds or subtracts it: the accumulator
# counts rows times images, and stays within 2^63 in absolute value.

# the 29 largest primes below 2^26; M reaches 2^753
_PRIMES = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757, 67108753,
    67108747, 67108739, 67108729, 67108721, 67108709, 67108693, 67108669,
    67108667, 67108661, 67108649, 67108633, 67108597, 67108579, 67108529,
    67108511, 67108507, 67108493, 67108471, 67108463, 67108453, 67108439,
    67108387,
)
# rows of products a reduced accumulator cell takes before it could pass 2^63
_ROWS = ((1 << 63) - max(_PRIMES)) // (max(_PRIMES) - 1) ** 2
_CHUNK = 4096  # term pairs per temporary array
_MAX_KEYS = 1 << 63


def _as_poly(x) -> LaurentPoly:
    return x if isinstance(x, LaurentPoly) else LaurentPoly.rational(x)


def _residues(nums, factor: int, primes) -> np.ndarray:
    """factor * nums modulo each prime: int64, one row per prime.  Each
    numerator is read as 16-bit limbs from its two's-complement bytes, the
    top limb signed; a limb times a residue stays below 2^42, and a
    numerator below half the primes' product, 2^753, has at most 48 limbs."""
    nums = list(nums)
    nbytes = 2 * (max(map(abs, nums)).bit_length() // 16 + 1)
    raw = b"".join(n.to_bytes(nbytes, "little", signed=True) for n in nums)
    limbs = np.frombuffer(raw, dtype="<u2").reshape(len(nums), -1).astype(np.int64)
    limbs[:, -1] -= (limbs[:, -1] >> 15) << 16
    weights = np.array([[(factor << (16 * k)) % p for p in primes]
                        for k in range(limbs.shape[1])], dtype=np.int64)
    return weights.T @ limbs.T % np.array(primes, dtype=np.int64)[:, None]


def _symmetric_crt(res: np.ndarray, primes) -> list[int]:
    """The integers in (-M/2, M/2), M = prod(primes), with the given
    residues (one row per prime), by Garner's algorithm."""
    mixed = []
    for i, p in enumerate(primes):
        t = res[i]
        for pj, v in zip(primes, mixed):
            t = (t - v) % p * pow(pj, -1, p) % p
        mixed.append(t)
    total = np.zeros(res.shape[1], dtype=object)
    modulus = 1
    for p, v in zip(primes, mixed):
        total = total + v.astype(object) * modulus
        modulus *= p
    half = modulus // 2
    return [x - modulus if x > half else x for x in total.tolist()]


def _blocks(n: int, m: int):
    """Row and column slices that tile an n x m grid in at most _CHUNK
    cells each."""
    cols = min(m, _CHUNK)
    rows = max(1, _CHUNK // cols)
    for i in range(0, n, rows):
        for j in range(0, m, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def _sorted_union(parts) -> np.ndarray:
    """The distinct keys of the arrays in parts, in increasing order."""
    keys = np.sort(np.concatenate(parts))
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _relabelings(images) -> tuple[int, list[list[tuple[dict, np.ndarray, int]]]]:
    """The digit width, and each (relabel, sign) image as (relabel, cols,
    sign): the image's exponent in slot t is that of what it relabels in
    slot cols[t], since rho(v) takes v's exponent (the identity's cols are
    the slots in order).  A relabel must permute the variables it names,
    and a sign be 1 or -1; the variables get their slots before the width
    is read."""
    for relabel, sign in (image for imgs in images for image in imgs):
        if sign not in (1, -1):
            raise ValueError(f"an image's sign must be 1 or -1, got {sign!r}")
        if not all(isinstance(v, VarId) for v in (*relabel, *relabel.values())) \
                or set(relabel) != set(relabel.values()):
            raise ValueError(f"an image's relabel must permute its variables, got {relabel!r}")
        for v in relabel:
            _slot(v.key)
    width = len(_SLOT_KEYS) + 1
    out = []
    for imgs in images:
        out.append([])
        for relabel, sign in imgs:
            cols = np.arange(width)
            for v, t in relabel.items():
                cols[_SLOT_OF[t.key]] = _SLOT_OF[v.key]
            out[-1].append((relabel, cols, sign))
    return width, out


def sum_of_products(pairs, images=None) -> LaurentPoly:
    """The sum of a * b over the (a, b) pairs, ints and Fractions taken as
    constants: the polynomial, and the ExponentOverflow, that adding the
    products one by one gives, without forming any product (see above).

    With ``images``, one list of (relabel, sign) per pair, the sum is that
    of sign * rho(a) * rho(b) over each pair's images instead, rho the
    relabel: a dict from VarId to VarId that permutes the variables it
    names (ValueError otherwise), sign 1 or -1; without, each pair's one
    image is the identity.  One product per pair, each image a permutation
    of its slots: a * b is expanded once, and each image adds
    sign * rho(a * b)."""
    pairs = [(_as_poly(a), _as_poly(b)) for a, b in pairs]
    if images is None:
        images = [[({}, 1)]] * len(pairs)
    if len(images) != len(pairs):
        raise ValueError(f"{len(pairs)} pairs but {len(images)} image lists")
    width, relabelings = _relabelings(images)
    work = [(a, b, g) for (a, b), g in zip(pairs, relabelings) if a._num and b._num and g]
    emax = 0
    for a, b, _ in work:
        e = a._emax + b._emax
        emax = max(emax, _product_emax(a, b) if e > EXP_LIMIT else e)
    if not work:
        return _ZERO
    dens = [a._den * b._den for a, b, _ in work]
    den = math.lcm(*dens)
    factors = [den // d for d in dens]
    bound = sum(f * max(map(abs, a._num.values())) * max(map(abs, b._num.values()))
                * min(len(a._num), len(b._num)) * len(g) for f, (a, b, g) in zip(factors, work))
    nprimes = next((i + 1 for i in range(len(_PRIMES))
                    if math.prod(_PRIMES[:i + 1]) > 2 * bound), None)
    digits = [(_digit_array(a._num, width), _digit_array(b._num, width)) for a, b, _ in work]
    # each product's low, high and step digits, and the lattice from those
    # of every image, whose exponent in slot t is the product's in slot
    # cols[t]
    spans = [(da.min(0) + db.min(0), da.max(0) + db.max(0),
              np.gcd(np.gcd.reduce(da - da[0]), np.gcd.reduce(db - db[0]))) for da, db in digits]
    seen = [[x[cols] for x in span] for span, (_, _, g) in zip(spans, work) for _, cols, _ in g]
    lo = np.min([low for low, _, _ in seen], axis=0)
    hi = np.max([high for _, high, _ in seen], axis=0)
    step = np.maximum(np.gcd.reduce([s for _, _, s in seen] + [low - lo for low, _, _ in seen]), 1)
    radix = (hi - lo) // step + 1
    box = math.prod(radix.tolist())
    npairs = sum(len(a._num) * len(b._num) * len(g) for a, b, g in work)
    if nprimes is None or box >= _MAX_KEYS:
        total = LaurentPoly.zero()
        for a, b, g in work:
            for relabel, _, sign in g:
                to = {v: LaurentPoly.var(t) for v, t in relabel.items()}
                product = a.substitute(to) * b.substitute(to)
                total = total + (product if sign > 0 else -product)
        return total
    primes = _PRIMES[:nprimes]
    moduli = np.array(primes, dtype=np.int64)[:, None]
    strides = np.cumprod(np.append(1, radix[:-1]))
    # the box's slots with more than one digit: an accumulator row's axes,
    # slowest first (past numpy's limit of 32 axes, a box has more cells
    # than any sum has term pairs, and the union path takes it)
    axes = [s for s in reversed(range(width)) if radix[s] > 1]
    # each product keyed on its own box, with its lowest exponent base,
    # step st and radices rad: the box's in the slots its images all fix,
    # its own elsewhere; each image placed by its sources cols[t], starts
    # and ks over the axes; the long operand's keys sorted, so that every
    # row of a block is an increasing run
    operands = []
    for (a, b, g), f, (da, db), (low, high, own_step) in zip(work, factors, digits, spans):
        if len(a._num) > len(b._num):
            a, b, da, db = b, a, db, da
        la, lb = da.min(0), db.min(0)
        fixed = np.all([cols for _, cols, _ in g] == np.arange(width), axis=0)
        st = np.where(fixed, step, np.maximum(own_step, 1))
        base = np.where(fixed, lo, low)
        rad = np.where(fixed, radix, (high - low) // st + 1)
        own = np.cumprod(np.append(1, rad[:-1]))
        places = []
        for _, cols, sign in g:
            src = cols[axes].tolist()
            places.append((src, [(base[c] - lo[t]) // step[t] for t, c in zip(axes, src)],
                           [max(st[c] // step[t], 1) for t, c in zip(axes, src)], sign))
        kb = ((db - lb + low - base) // st) @ own
        order = np.argsort(kb, kind="stable")
        operands.append(((da - la) // st @ own, kb[order], _residues(a._num.values(), f, primes),
                         _residues(b._num.values(), 1, primes)[:, order], rad, own, places))
    del digits
    # the box itself if the term pairs fill it, else the union of every
    # image's keys, merged whenever the keys waiting outnumber it; a pair
    # keys its buffer on its own distinct keys, its cells, which an image
    # keyed as the pair is (no shift, the pair's own strides) keeps
    union = None
    cells_of = {}
    if box > npairs:
        union = np.empty(0, dtype=np.int64)
        waiting = []
        count = 0
        for n, (ka, kb, _, _, rad, own, places) in enumerate(operands):
            cells = _sorted_union([(ka[ra, None] + kb[rb]).ravel()
                                   for ra, rb in _blocks(len(ka), len(kb))])
            varying = np.flatnonzero(rad > 1)
            loc = None
            parts = []
            for src, starts, ks, _ in places:
                coef = np.zeros(len(rad), dtype=np.int64)
                coef[src] = np.array(ks) * strides[axes]
                shift = np.dot(starts, strides[axes])
                if shift == 0 and np.array_equal(coef[varying], own[varying]):
                    parts.append(cells)
                else:
                    loc = cells[:, None] // own[varying] % rad[varying] if loc is None else loc
                    parts.append(loc @ coef[varying] + shift)
            cells_of[n] = cells, parts
            for part in parts:
                waiting.append(part)
                count += part.size
                if count >= len(union):
                    union = _sorted_union([union, *waiting])
                    waiting, count = [], 0
        union = _sorted_union([union, *waiting])
        del waiting
    acc = np.zeros((nprimes, box if union is None else len(union)), dtype=np.int64)
    shape = radix[axes].tolist()
    # one buffer, as long as the longest that a pair needs
    buffer = np.empty(max(math.prod(rad.tolist()) if union is None else len(cells_of[n][0])
                          for n, (*_, rad, _, _) in enumerate(operands)), dtype=np.int64)
    rows = 0
    for n, (ka, kb, resa, resb, rad, own, places) in enumerate(operands):
        blocks = list(_blocks(len(ka), len(kb)))
        # a pair adds into the buffer, which each image then puts: on the
        # box, into the slices of its part, the buffer's axes transposed
        # onto theirs; on the union, at its cells' image keys
        if union is None:
            cells, buf, targets = None, buffer[:math.prod(rad.tolist())], []
            for src, starts, ks, sign in places:
                slots = sorted(src, reverse=True)
                targets.append(((tuple(slice(x, x + (rad[c] - 1) * k + 1, k)
                                       for x, k, c in zip(starts, ks, src)),
                                 [int(rad[c]) for c in slots], [slots.index(c) for c in src]), sign))
        else:
            cells, keys = cells_of.pop(n)
            buf = buffer[:len(cells)]
            targets = [(np.searchsorted(union, k), sign) for k, (*_, sign) in zip(keys, places)]
        for i, (row, p) in enumerate(zip(acc, primes)):
            buf[:] = 0
            count = 0
            for ra, rb in blocks:
                pos = (ka[ra, None] + kb[rb]).ravel()
                if cells is not None:
                    pos = np.searchsorted(cells, pos)
                if count + len(ka[ra]) > _ROWS:
                    buf %= p
                    count = 1
                count += len(ka[ra])
                np.add.at(buf, pos, np.multiply.outer(resa[i, ra], resb[i, rb]).ravel())
            used = rows
            for target, sign in targets:
                if used + count > _ROWS:
                    row %= p
                    used = 0
                used += count
                if cells is None:
                    where, own_shape, perm = target
                    dst, image = row.reshape(shape), buf.reshape(own_shape).transpose(perm)
                else:
                    dst, where, image = row, target, buf
                if sign > 0:
                    dst[where] += image
                else:
                    dst[where] -= image
        rows = used
    acc %= moduli
    nonzero = np.flatnonzero(acc.any(axis=0))
    if not nonzero.size:
        return _ZERO
    keys = nonzero if union is None else union[nonzero]
    mono = keys[:, None] // strides % radix * step + lo
    num = dict(zip(_packed_keys(mono), _symmetric_crt(acc[:, nonzero], primes)))
    return _reduced(num, den, emax)


def leading_coeff(p: LaurentPoly, vars: list[VarId], degree: int) -> LaurentPoly:
    """Coefficient of ``prod v^degree`` over the listed variables.

    Raises DegreeExceeded if any listed variable occurs beyond ``degree``;
    returns the zero polynomial when the top monomial is absent.
    """
    parts = coefficients_in(p, vars)
    for es in parts:
        for v, e in zip(vars, es):
            if e > degree:
                raise DegreeExceeded(f"{v.name} exceeds degree {degree}")
    return parts.get((degree,) * len(vars), LaurentPoly.zero())


def divide_exponents(p: LaurentPoly, v: VarId, k: int) -> LaurentPoly:
    """Divide every exponent of ``v`` by ``k``: p(v^(1/k)), which must stay
    in the Laurent ring.  Raises ValueError if an exponent of ``v`` is not
    a multiple of ``k``."""
    s = _SLOT_OF.get(v.key)
    if s is None:
        return p
    digits = _digit_array(p._num, len(_SLOT_KEYS) + 1)
    for e in digits[:, s].tolist():
        if e % k:
            raise ValueError(f"exponent {e} of {v.name} is not a multiple of {k}")
    digits[:, s] //= k
    return _make(dict(zip(_packed_keys(digits), p._num.values())), p._den, p._emax)


# -- rational functions ----------------------------------------------


class RationalFunction:
    """A ratio of Laurent polynomials with cross-multiplied equality.

    The canonical form folds monomial denominators into the numerator and
    divides out the denominator's rational content, so that equal fractions
    compare equal whenever num1*den2 == num2*den1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.rational(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
            den = LaurentPoly.rational(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = LaurentPoly.one()
        elif den.is_monomial():
            num = num * den.monomial_inverse()
            den = LaurentPoly.one()
        else:
            # pull the denominator's unit into the numerator
            inv = _unit(den).monomial_inverse()
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _coerced(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return RationalFunction(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.num * o.den == o.num * self.den

    def __hash__(self):
        raise TypeError("RationalFunction is unhashable; compare with ==")

    def eval(self, assignment: Mapping[VarId, complex]) -> complex:
        return poly_eval(self.num, assignment) / poly_eval(self.den, assignment)

    def reduced(self) -> "RationalFunction":
        """Divide out the univariate gcd when num and den share one variable."""
        if self.den == LaurentPoly.one():
            return self
        vs = self.num.variables() | self.den.variables()
        if len(vs) != 1:
            return self
        v = vs.pop()
        g = _gcd_univariate(self.num, self.den, v)
        if g is None or g.num_terms() == 1:
            return self
        return RationalFunction(_exact_div_univariate(self.num, g, v),
                                _exact_div_univariate(self.den, g, v))

    def to_text(self) -> str:
        if self.den == LaurentPoly.one():
            return self.num.to_text()
        return f"({self.num.to_text()}) / ({self.den.to_text()})"

    def __repr__(self):
        return f"RationalFunction({self.to_text()})"


def _unit(p: LaurentPoly) -> LaurentPoly:
    """The monomial of p's content times its lowest power of each variable,
    so that p / _unit(p) has no negative exponent and no monomial factor.
    p must be nonzero."""
    c, lows = _content_and_lows(p)
    key, emax = _encode(lows)
    return _make({key: c.numerator}, c.denominator, emax)


def _divmod_univariate(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Quotient and remainder of a by a nonzero b, both polynomials (no
    negative exponent) in one variable.  A univariate key is e << 16*slot,
    so each leading term is the one with the largest key."""
    kb = max(b._num)
    lead_b = Fraction(b._num[kb], b._den)
    quot = LaurentPoly.zero()
    while a._num:
        ka = max(a._num)
        if ka < kb:
            break
        f = Fraction(a._num[ka], a._den) / lead_b
        k = ka - kb
        # the quotient's exponent is at most deg a, so a._emax bounds it
        t = _make({k: f.numerator}, f.denominator, a._emax)
        quot = quot + t
        a = a - t * b
    return quot, a


def _gcd_univariate(p1: LaurentPoly, p2: LaurentPoly, v: VarId) -> LaurentPoly | None:
    """Monic gcd of nonzero p1 and p2 in v alone, each taken without its
    unit, so the gcd has a nonzero constant term; None if either has
    another variable."""
    if not (p1.variables() | p2.variables()) <= {v}:
        return None
    a, b = p1 / _unit(p1), p2 / _unit(p2)
    while b:
        a, b = b, _divmod_univariate(a, b)[1]
    return a / Fraction(a._num[max(a._num)], a._den)


def _exact_div_univariate(p: LaurentPoly, g: LaurentPoly, v: VarId) -> LaurentPoly:
    """p / g for nonzero Laurent polynomials in v alone; ValueError unless
    g divides p.  Both are shifted by their units first, so negative
    exponents work."""
    if not (p.variables() | g.variables()) <= {v}:
        raise ValueError("polynomial is not univariate")
    up, ug = _unit(p), _unit(g)
    quot, rem = _divmod_univariate(p / up, g / ug)
    if rem:
        raise ValueError("division is not exact")
    return quot * (up / ug)


@dataclass
class CheckOutcome:
    """Result of one identity check, exact or toleranced."""

    name: str
    passed: bool
    exact: bool
    residual: float | None = None
    scale: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "exact": bool(self.exact),
        }
        if not self.exact:
            out.update(residual=self.residual, scale=self.scale, tolerance=self.tolerance)
        if self.details:
            out["details"] = self.details
        return out
