"""Solve the functional equation for the partition-function polynomial.

With all inhomogeneities at zero, the partition function is a Laurent
polynomial in the e^{lambda_i} with exponents in a box of side 2L-1.  The
functional equation, cleared to the common denominator of all pairwise
b-weights, becomes one polynomial identity in the L+2 spectral variables;
matching coefficients of every spectral monomial gives a finite, complete
linear system over the field of rational functions in q for the unknown
table entries h.

Exact pipeline (L <= 3):

1. assemble the cleared equation with packed integer exponents (numpy
   aggregation); every spectral monomial yields one linear constraint whose
   entries are integer Laurent polynomials in q;
2. select an independent subset of constraints by rank over the integers at
   a rational specialization of q (a specialization can only lower rank, so
   independence lifts to the generic field);
3. fraction-free Gaussian elimination over Z[q] on the selected rows,
   back-substitution over rational functions in q;
4. verify the candidate table by evaluating the full functional-equation
   residual through the independent machinery in :mod:`sixvertex.functional`.

Step 2 bounding rank from below and step 4 exhibiting an exact solution
together prove the nullspace is one-dimensional; any mismatch raises
NullspaceDimensionUnexpected rather than being repaired silently.

The homogeneous-limit differential checks live here too: the single-variable
partition polynomial, the hard-coded second-order operator coefficients and
their residuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .asymptotics import asymptotic_norm
from .errors import ExponentOverflow, NullspaceDimensionUnexpected, SizeLimitExceeded
from .functional import FunctionalInput, _bsign, functional_residual
from .partition import z_algebraic
from .sampling import sample_point, sample_spectral_set
from .scalar import (
    LaurentPoly,
    RationalFunction,
    invert,
    is_exact,
    parse_poly,
    q_var,
    u_var,
    w_var,
)

_EXACT_LIMIT = 3
_NUMERIC_LIMIT = 4


# ---------------------------------------------------------------------
# univariate polynomials in the homogeneous variable x = e^{2(lambda-mu)}
# ---------------------------------------------------------------------


class UniPoly:
    """Polynomial in one formal variable with scalar coefficients.

    Coefficients are LaurentPoly in q (exact) or complex (float); only the
    operations needed by the differential checks are provided.
    """

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {}
        for k, v in (coeffs or {}).items():
            if isinstance(v, LaurentPoly):
                if not v.is_zero():
                    self.coeffs[k] = v
            elif v != 0:
                self.coeffs[k] = v

    @classmethod
    def x_power(cls, k: int, coeff) -> "UniPoly":
        return cls({k: coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return UniPoly(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return UniPoly(out)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return UniPoly({k: v * other for k, v in self.coeffs.items()})
        out: dict = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
        return UniPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "UniPoly":
        return UniPoly({k - 1: v * k for k, v in self.coeffs.items() if k})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, UniPoly) and (self - other).is_zero()

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def coeff(self, k: int):
        return self.coeffs.get(k, 0)

    def __repr__(self):
        inner = ", ".join(f"x^{k}: {v!r}" for k, v in sorted(self.coeffs.items()))
        return f"UniPoly({{{inner}}})"


def phi_polynomials(q=None) -> tuple[UniPoly, UniPoly, UniPoly]:
    """The three x-polynomial coefficients of the homogeneous second-order
    relation for L = 2, exactly as they stand."""
    if q is None:
        q = LaurentPoly.var(q_var())
    one = LaurentPoly.one() if is_exact(q) else 1 + 0j
    q2, q4, q6 = q ** 2, q ** 4, q ** 6
    phi0 = UniPoly({
        0: -4 * q2 * (one + q2 + q4),
        1: 6 * q4 * (one + q2),
        2: 12 * q6,
        3: -6 * q6 * (one + q2),
    })
    phi1 = UniPoly({
        0: -(one + 2 * q2 + 2 * q4 + q6),
        1: 4 * q2 * (one + q2 + q4),
        3: -12 * q6,
        4: q4 * (-one + 4 * q2 + 4 * q4 - q6),
    })
    phi2 = UniPoly({
        1: one - q2 - q4 + q6,
        2: -2 * q2 * (one - 2 * q2 + q4),
        4: -2 * q4 * (one - 2 * q2 + q4),
        5: q4 * (one - q2 - q4 + q6),
    })
    return phi0, phi1, phi2


def homogeneous_partition_polynomial(L: int) -> UniPoly:
    """The homogeneous-limit polynomial: all lambdas equal, all mus equal,
    times x^{L(L-1)/2}.  Obtained by direct substitution into the exact
    multivariate polynomial; no limits of singular coefficients are needed.
    """
    u = LaurentPoly.var(u_var(0))
    w = LaurentPoly.var(w_var(0))
    q = LaurentPoly.var(q_var())
    z = z_algebraic([u] * L, [w] * L, q)
    shifted = z * LaurentPoly.monomial(1, {u_var(0): L * (L - 1), w_var(0): -L * (L - 1)})
    coeffs: dict[int, dict] = {}
    uk, wk, qk = u_var(0).key, w_var(0).key, q_var().key
    for exps, coeff in shifted.items():
        d = dict(exps)
        eu = d.pop(uk, 0)
        ew = d.pop(wk, 0)
        if eu % 2 or ew != -eu:
            raise ValueError("homogeneous polynomial is not a function of x")
        qpart = tuple(sorted(d.items()))
        slot = coeffs.setdefault(eu // 2, {})
        slot[qpart] = slot.get(qpart, Fraction(0)) + coeff
    return UniPoly({k: LaurentPoly(v) for k, v in coeffs.items()})


def homogeneous_ode_residual(L: int, zbar: UniPoly | None = None) -> UniPoly:
    """Residual of the homogeneous differential relation, denominators
    cleared; identically zero for the computed partition polynomial."""
    if L not in (1, 2):
        raise ValueError("homogeneous differential checks exist for L = 1, 2")
    q = LaurentPoly.var(q_var())
    if zbar is None:
        zbar = homogeneous_partition_polynomial(L)
    d1 = zbar.derivative()
    d2 = d1.derivative()
    if L == 1:
        # [1 - 2qx/(q+q^-1)] Z' + (x/2)[1 - 4qx/(q+q^-1) + q^2 x^2] Z'',
        # multiplied through by 2 (q + q^-1)
        qpq = q + invert(q)
        t1 = UniPoly({0: 2 * qpq, 1: -4 * q})
        t2 = UniPoly({1: qpq, 2: -4 * q, 3: q ** 2 * qpq})
        return t1 * d1 + t2 * d2
    phi0, phi1, phi2 = phi_polynomials(q)
    return phi0 * zbar + phi1 * d1 + phi2 * d2


# ---------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------


def ansatz_box(L: int) -> list[tuple[int, ...]]:
    """Exponent multi-indices of the polynomial ansatz, (2L-1)^L of them."""
    return list(itertools.product(range(-(L - 1), L), repeat=L))


@dataclass
class CoefficientTable:
    """Solved coefficients h indexed by exponent multi-indices."""

    size: int
    normalization: str
    entries: dict = field(repr=False)
    h_top: RationalFunction | None = None

    @property
    def top_index(self) -> tuple[int, ...]:
        return (self.size - 1,) * self.size

    def entry(self, index) -> RationalFunction:
        return self.entries[tuple(index)]

    def nonzero_entries(self) -> dict:
        return {k: v for k, v in self.entries.items() if not v.is_zero()}

    def ratio_to_top(self, index) -> RationalFunction:
        return (self.entries[tuple(index)] / self.entries[self.top_index]).reduced()

    def to_json_obj(self) -> dict:
        entries = []
        for idx in sorted(self.nonzero_entries()):
            item = {
                "index": list(idx),
                "ratio_to_top": self.ratio_to_top(idx).to_text(),
                "value": self.entries[idx].reduced().to_text(),
            }
            entries.append(item)
        return {
            "L": self.size,
            "normalization": self.normalization,
            "h_top": self.entries[self.top_index].reduced().to_text(),
            "entries": entries,
            "zero_indices": len(self.entries) - len(self.nonzero_entries()),
        }


def h_table_from_z(L: int) -> CoefficientTable:
    """Expansion coefficients of the operator-product partition function at
    zero inhomogeneities; the direct counterpart of the solved table."""
    q = LaurentPoly.var(q_var())
    lams = [LaurentPoly.var(u_var(i)) for i in range(1, L + 1)]
    z = z_algebraic(lams, [LaurentPoly.one()] * L, q)
    ukeys = [u_var(i).key for i in range(1, L + 1)]
    qk = q_var().key
    acc: dict[tuple, dict] = {}
    for exps, coeff in z.items():
        d = dict(exps)
        idx = tuple(d.pop(k, 0) for k in ukeys)
        qpart = tuple(sorted(d.items()))
        if any(k != qk for k, _ in qpart):
            raise ValueError("unexpected variable in the expansion")
        slot = acc.setdefault(idx, {})
        slot[qpart] = slot.get(qpart, Fraction(0)) + coeff
    entries = {}
    for idx in ansatz_box(L):
        poly = LaurentPoly(acc.get(idx, {}))
        entries[idx] = RationalFunction(poly)
    return CoefficientTable(L, "asymptotic", entries)


# ---------------------------------------------------------------------
# exact constraint assembly (packed integer exponents)
# ---------------------------------------------------------------------

_FIELD = 64          # u-exponent digits live in balanced base 64
_COL_BITS = 8192     # column slot: 7 bits, q slot: 6 bits
_Q_OFF = 32


def _pp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            k = k1 + k2
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _pp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


class _PackedWeights:
    """Doubled weight factors as packed two-term polynomials.

    A monomial is keyed by (sum(e_p * 64^p for points p)) * 64 + qexp with
    all digits signed and balanced: key addition is exponent addition as
    long as every digit stays below 32 in magnitude, which
    _assemble_constraints checks before it decodes any key.
    """

    def __init__(self, npoints: int):
        self.npoints = npoints

    def _mono(self, exps: dict[int, int], qexp: int) -> int:
        key = 0
        for p in range(self.npoints - 1, -1, -1):
            key = key * _FIELD + exps.get(p, 0)
        return key * _FIELD + qexp

    def a_pair(self, x: int, y: int) -> dict:
        # 2 a(lam_x - lam_y) = u_x u_y^-1 q - u_x^-1 u_y q^-1
        return {
            self._mono({x: 1, y: -1}, 1): 1,
            self._mono({x: -1, y: 1}, -1): -1,
        }

    def b_pair(self, x: int, y: int) -> dict:
        return {
            self._mono({x: 1, y: -1}, 0): 1,
            self._mono({x: -1, y: 1}, 0): -1,
        }

    def a_zero(self, x: int) -> dict:
        # 2 a(lam_x - mu) at mu = 0
        return {
            self._mono({x: 1}, 1): 1,
            self._mono({x: -1}, -1): -1,
        }

    def b_zero(self, x: int) -> dict:
        return {
            self._mono({x: 1}, 0): 1,
            self._mono({x: -1}, 0): -1,
        }

    def c_const(self) -> dict:
        return {
            self._mono({}, 1): 1,
            self._mono({}, -1): -1,
        }

    def shift_key(self, exps: dict[int, int]) -> int:
        return self._mono(exps, 0)  # pure u-shift, no q component


def _cleared_term_polys(L: int):
    """Packed coefficient polynomials of every term of the cleared equation.

    Yields (packed poly, factors, subset) triples: the polynomial multiplies
    the partition-function value on the listed point subset and is a sum of
    products of ``factors`` weight binomials.  All denominators have been
    multiplied out against the full pairwise b-product, and every weight
    carries a factor 2, so coefficients are integers.
    """
    n = L + 1
    pw = _PackedWeights(n + 1)
    all_pairs = {(x, y) for x in range(n + 1) for y in range(x + 1, n + 1)}

    def omission(i):
        pairs = {(0, i)} | {(min(i, k), max(i, k)) for k in range(1, n + 1) if k != i} \
            | {(0, k) for k in range(1, n + 1) if k != i}

        def term(p, r):
            sign = _bsign(r, p)
            acc = pw.c_const()
            for _ in range(L):
                acc = _pp_mul(acc, pw.a_zero(p))
                acc = _pp_mul(acc, pw.b_zero(r))
            for k in range(1, n + 1):
                if k == i:
                    continue
                sign *= _bsign(r, k) * _bsign(k, p)
                acc = _pp_mul(acc, pw.a_pair(r, k))
                acc = _pp_mul(acc, pw.a_pair(k, p))
            return acc if sign > 0 else {k: -v for k, v in acc.items()}

        num = _pp_add(term(0, i), term(i, 0))
        cofactors = sorted(all_pairs - pairs)
        for pr in cofactors:
            num = _pp_mul(num, pw.b_pair(*pr))
        return num, 1 + 2 * L + 2 * (n - 1) + len(cofactors)

    def substitution(j, i):
        pairs = {(0, i), (0, j), (i, j)} \
            | {(min(i, m), max(i, m)) for m in range(1, n + 1) if m not in (i, j)} \
            | {(min(j, m), max(j, m)) for m in range(1, n + 1) if m not in (i, j)}

        def term(ii, jj):
            sign = _bsign(0, jj) * _bsign(ii, 0) * _bsign(jj, ii)
            acc = _pp_mul(pw.c_const(), pw.c_const())
            acc = _pp_mul(acc, pw.a_pair(jj, ii))
            for _ in range(L):
                acc = _pp_mul(acc, pw.a_zero(ii))
                acc = _pp_mul(acc, pw.b_zero(jj))
            for m in range(1, n + 1):
                if m in (i, j):
                    continue
                sign *= _bsign(jj, m) * _bsign(m, ii)
                acc = _pp_mul(acc, pw.a_pair(jj, m))
                acc = _pp_mul(acc, pw.a_pair(m, ii))
            return acc if sign > 0 else {k: -v for k, v in acc.items()}

        num = _pp_add(term(i, j), term(j, i))
        cofactors = sorted(all_pairs - pairs)
        for pr in cofactors:
            num = _pp_mul(num, pw.b_pair(*pr))
        return num, 3 + 2 * L + 2 * (n - 2) + len(cofactors)

    for i in range(1, n + 1):
        yield *omission(i), tuple(k for k in range(1, n + 1) if k != i)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield *substitution(j, i), (0,) + tuple(
                k for k in range(1, n + 1) if k not in (i, j))


def _assemble_constraints(L: int):
    """All distinct linear constraints as canonical rows.

    A row is a tuple of (column, qpoly) pairs with qpoly a tuple of
    (exponent, integer coefficient) pairs; rows are normalized by content,
    common q-power and overall sign, then deduplicated.
    """
    n = L + 1
    box = ansatz_box(L)
    ncols = len(box)
    pw = _PackedWeights(n + 1)
    # every weight binomial moves any digit by at most 1, and the column
    # shift by at most the largest |ansatz exponent|
    top_shift = max(abs(e) for m in box for e in m)
    key_chunks = []
    val_chunks = []
    for poly, factors, subset in _cleared_term_polys(L):
        if factors + top_shift >= _FIELD // 2:
            raise ExponentOverflow(
                f"packed digits could reach {factors + top_shift}; "
                f"base {_FIELD} holds less than {_FIELD // 2}")
        keys = np.fromiter(poly.keys(), dtype=np.int64, count=len(poly))
        vals = np.fromiter(poly.values(), dtype=np.int64, count=len(poly))
        # balanced split into the signed q digit and the u-part, then
        # re-pack with the column slot in between and the q digit offset
        qd = keys % _FIELD
        qd = np.where(qd >= _FIELD // 2, qd - _FIELD, qd)
        upart = (keys - qd) // _FIELD
        shifts = np.empty(ncols, dtype=np.int64)
        for col, mvec in enumerate(box):
            exps: dict[int, int] = {}
            for pos, point in enumerate(subset):
                exps[point] = exps.get(point, 0) + mvec[pos]
            shifts[col] = pw.shift_key(exps) // _FIELD
        cols = np.arange(ncols, dtype=np.int64)
        combined = (upart[:, None] + shifts[None, :]) * (_COL_BITS * _FIELD) \
            + (cols * _FIELD)[None, :] + (qd + _Q_OFF)[:, None]
        key_chunks.append(combined.ravel())
        val_chunks.append(np.broadcast_to(vals[:, None], combined.shape).ravel())
    big_k = np.concatenate(key_chunks)
    big_v = np.concatenate(val_chunks)
    order = np.argsort(big_k, kind="stable")
    big_k = big_k[order]
    big_v = big_v[order]
    starts = np.flatnonzero(np.r_[True, np.diff(big_k) != 0])
    sums = np.add.reduceat(big_v, starts)
    keys = big_k[starts]
    nz = sums != 0
    keys, sums = keys[nz], sums[nz]
    if len(keys) == 0:
        # the whole cleared equation cancels identically (L = 1)
        return [], ncols, box
    # group by spectral monomial (everything above the column/q slots)
    ukeys = keys // (_COL_BITS * _FIELD)
    cols = (keys % (_COL_BITS * _FIELD)) // _FIELD
    qexps = keys % _FIELD - _Q_OFF
    row_bounds = np.flatnonzero(np.r_[True, np.diff(ukeys) != 0])
    rows = set()
    for a, b in zip(row_bounds, np.r_[row_bounds[1:], len(keys)]):
        per_col: dict[int, list] = {}
        for c, e, v in zip(cols[a:b], qexps[a:b], sums[a:b]):
            per_col.setdefault(int(c), []).append((int(e), int(v)))
        rows.add(_canonical_row(per_col))
    return sorted(rows, key=lambda r: (len(r), r)), ncols, box


def _canonical_row(per_col: dict[int, list]) -> tuple:
    minq = min(e for pairs in per_col.values() for e, _ in pairs)
    g = 0
    for pairs in per_col.values():
        for _, v in pairs:
            g = math.gcd(g, v)
    items = []
    for c in sorted(per_col):
        pairs = tuple(sorted((e - minq, v // g) for e, v in per_col[c]))
        items.append((c, pairs))
    if items[0][1][0][1] < 0:
        items = [(c, tuple((e, -v) for e, v in pairs)) for c, pairs in items]
    return tuple(items)


# -- integer specialization: rank and row selection --------------------


def _row_at_q(row: tuple, qval: int) -> dict[int, int]:
    out = {}
    for c, pairs in row:
        v = sum(coef * qval ** e for e, coef in pairs)
        if v:
            out[c] = v
    return out


def _select_independent_rows(rows: list, ncols: int, qval: int = 3):
    """Greedy selection of rows independent over the integers at q = qval."""
    basis: dict[int, dict[int, int]] = {}
    selected = []
    target = ncols - 1
    for ridx, row in enumerate(rows):
        if len(selected) >= target:
            break
        v = _row_at_q(row, qval)
        while v:
            lead = min(v)
            if lead not in basis:
                g = math.gcd(*v.values()) if len(v) > 1 else abs(next(iter(v.values())))
                basis[lead] = {c: x // g for c, x in v.items()}
                selected.append(ridx)
                break
            b = basis[lead]
            f1, f2 = b[lead], v[lead]
            nv = {}
            for c in set(v) | set(b):
                x = v.get(c, 0) * f1 - b.get(c, 0) * f2
                if x:
                    nv[c] = x
            if nv:
                g = math.gcd(*nv.values()) if len(nv) > 1 else abs(next(iter(nv.values())))
                nv = {c: x // g for c, x in nv.items()}
            v = nv
    return selected, len(selected)


# -- exact elimination over Z[q] ---------------------------------------


def _qp_normalize(pairs: dict[int, int]) -> tuple:
    return tuple(sorted(pairs.items()))


def _qp_combine(a: tuple, fa: tuple, b: tuple, fb: tuple) -> tuple:
    """a * fa - b * fb."""
    out: dict[int, int] = {}
    for e1, v1 in a:
        for e2, v2 in fa:
            e = e1 + e2
            s = out.get(e, 0) + v1 * v2
            if s:
                out[e] = s
            else:
                del out[e]
    for e1, v1 in b:
        for e2, v2 in fb:
            e = e1 + e2
            s = out.get(e, 0) - v1 * v2
            if s:
                out[e] = s
            else:
                del out[e]
    return _qp_normalize(out)


def _row_reduce_normalize(row: dict[int, tuple]) -> dict[int, tuple]:
    if not row:
        return row
    minq = min(e for qp in row.values() for e, _ in qp)
    g = 0
    for qp in row.values():
        for _, v in qp:
            g = math.gcd(g, v)
    return {
        c: tuple((e - minq, v // g) for e, v in qp)
        for c, qp in row.items()
    }


def _exact_nullvector(rows: list, ncols: int) -> list[RationalFunction]:
    """Nullvector of a rank-(ncols-1) system with entries in Z[q]."""
    basis: dict[int, dict[int, tuple]] = {}
    for row in rows:
        v: dict[int, tuple] = {c: qp for c, qp in row}
        while v:
            lead = min(v)
            if lead not in basis:
                basis[lead] = _row_reduce_normalize(v)
                break
            b = basis[lead]
            f1, f2 = b[lead], v[lead]
            nv: dict[int, tuple] = {}
            for c in set(v) | set(b):
                qp = _qp_combine(v.get(c, ()), f1, b.get(c, ()), f2)
                if qp:
                    nv[c] = qp
            v = _row_reduce_normalize(nv)
    if len(basis) != ncols - 1:
        raise NullspaceDimensionUnexpected(
            f"rank {len(basis)} over Z[q], expected {ncols - 1}")
    free = next(c for c in range(ncols) if c not in basis)
    qv = q_var()

    def qp_to_poly(qp: tuple) -> LaurentPoly:
        return LaurentPoly({(((qv.key, e),) if e else ()): Fraction(v) for e, v in qp})

    values: dict[int, RationalFunction] = {free: RationalFunction(LaurentPoly.one())}
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        acc = RationalFunction(LaurentPoly.zero())
        for c, qp in row.items():
            if c == lead:
                continue
            acc = acc + RationalFunction(qp_to_poly(qp)) * values[c]
        values[lead] = (-acc / RationalFunction(qp_to_poly(row[lead]))).reduced()
    return [values[c] for c in range(ncols)]


def _verify_candidate(L: int, box, values: list[RationalFunction]) -> None:
    """Exact check of the full functional equation for the candidate table,
    through the independent coefficient machinery."""
    from .scalar import _exact_div_univariate, _gcd_univariate

    qv = q_var()
    one = LaurentPoly.one()
    den = one
    for v in values:
        if v.is_zero() or v.den == one:
            continue
        shared = _gcd_univariate(den, v.den, qv)
        extra = v.den if shared is None else _exact_div_univariate(v.den, shared, qv)
        den = den * extra
    cleared = []
    for v in values:
        if v.is_zero():
            cleared.append(LaurentPoly.zero())
        elif v.den == one:
            cleared.append(v.num * den)
        else:
            cleared.append(v.num * _exact_div_univariate(den, v.den, qv))

    def provider(subset):
        total = LaurentPoly.zero()
        for idx, hq in zip(box, cleared):
            if hq.is_zero():
                continue
            mono = LaurentPoly.one()
            for pos, point in enumerate(subset):
                mono = mono * point ** idx[pos]
            total = total + hq * mono
        return total

    points = tuple(LaurentPoly.var(u_var(i)) for i in range(L + 2))
    mus = tuple(LaurentPoly.one() for _ in range(L))
    inp = FunctionalInput(L, points, mus, LaurentPoly.var(q_var()))
    res = functional_residual(inp, provider)
    if not res.is_zero():
        raise NullspaceDimensionUnexpected(
            "candidate from the selected constraints fails the full equation; "
            "the system has no one-dimensional solution space")


def solve_fz_exact(L: int, normalization: str = "asymptotic") -> CoefficientTable:
    """Exact coefficient table at zero inhomogeneities."""
    if L > _EXACT_LIMIT:
        raise SizeLimitExceeded(f"exact solve supports L <= {_EXACT_LIMIT}")
    if normalization not in ("asymptotic", "top-one"):
        raise ValueError(f"unknown normalization {normalization!r}")
    rows, ncols, box = _assemble_constraints(L)
    selected, rank = _select_independent_rows(rows, ncols)
    if rank < ncols - 1:
        selected2, rank2 = _select_independent_rows(rows, ncols, qval=5)
        if rank2 < ncols - 1:
            raise NullspaceDimensionUnexpected(
                f"constraint rank {max(rank, rank2)} < {ncols - 1}: "
                "solution space has dimension > 1")
        selected, rank = selected2, rank2
    values = _exact_nullvector([rows[i] for i in selected], ncols)
    _verify_candidate(L, box, values)
    top = values[box.index((L - 1,) * L)]
    if top.is_zero():
        raise NullspaceDimensionUnexpected("top coefficient vanished")
    q = LaurentPoly.var(q_var())
    norm = asymptotic_norm(L, q)
    entries = {}
    for idx, v in zip(box, values):
        ratio = (v / top).reduced()
        if normalization == "asymptotic":
            entries[idx] = (ratio * norm).reduced()
        else:
            entries[idx] = ratio
    h_top = entries[(L - 1,) * L]
    return CoefficientTable(L, normalization, entries, h_top=h_top)


# ---------------------------------------------------------------------
# numeric backend
# ---------------------------------------------------------------------


@dataclass
class NumericSolveSample:
    q: complex
    ratios: dict
    singular_gap: float
    batch_discrepancy: float


@dataclass
class NumericSolveResult:
    size: int
    normalization: str
    samples: list

    def to_json_obj(self) -> dict:
        return {
            "L": self.size,
            "normalization": self.normalization,
            "samples": [
                {
                    "q": repr(s.q),
                    "singular_gap": s.singular_gap,
                    "batch_discrepancy": s.batch_discrepancy,
                    "entries": [
                        {"index": list(k), "ratio_to_top": repr(v)}
                        for k, v in sorted(s.ratios.items())
                    ],
                }
                for s in self.samples
            ],
        }


def _numeric_rows(L: int, q: complex, rng, count: int) -> np.ndarray:
    from .functional import _omission_parts, _substitution_parts

    n = L + 1
    box_range = np.arange(-(L - 1), L)
    ncols = (2 * L - 1) ** L
    rows = np.empty((count, ncols), dtype=complex)
    for r in range(count):
        pts = sample_spectral_set(rng, n + 1)
        mus = [1.0 + 0j] * L
        row = np.zeros(ncols, dtype=complex)
        terms = []
        for i in range(1, n + 1):
            num, pairs = _omission_parts(i, pts, mus, q)
            subset = tuple(k for k in range(1, n + 1) if k != i)
            terms.append((num / _den(pairs, pts, q), subset))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                num, pairs = _substitution_parts(j, i, pts, mus, q)
                subset = (0,) + tuple(k for k in range(1, n + 1) if k not in (i, j))
                terms.append((num / _den(pairs, pts, q), subset))
        for coeff, subset in terms:
            vecs = [np.power(pts[p], box_range) for p in subset]
            contrib = vecs[0]
            for v in vecs[1:]:
                contrib = np.kron(contrib, v)
            row += coeff * contrib
        rows[r] = row
    return rows


def _den(pairs, pts, q):
    d = 1 + 0j
    for x, y in sorted(pairs):
        z = pts[x] / pts[y]
        d *= (z - 1 / z) / 2
    return d


def _nullvector_from_rows(A: np.ndarray) -> tuple[np.ndarray, float]:
    if A.shape[1] == 1:
        # single unknown: the equation must be trivial and the vector free
        return np.ones(1, dtype=complex), float(np.abs(A).max())
    _, s, vh = np.linalg.svd(A)
    gap = s[-1] / s[-2] if s[-2] > 0 else float("inf")
    return vh[-1].conj(), gap


def solve_fz_numeric(L: int, rng, q_count: int = 8,
                     normalization: str = "asymptotic",
                     consistency_tol: float = 1e-6) -> NumericSolveResult:
    """Float-backend solve: at several random q, sample admissible spectral
    points, build the constraint matrix, and extract the nullvector.

    Each q is solved twice with independent point batches; disagreement of
    the two ratio vectors beyond ``consistency_tol`` (a rank fluke) raises
    NullspaceDimensionUnexpected.
    """
    if L > _NUMERIC_LIMIT:
        raise SizeLimitExceeded(f"numeric solve supports L <= {_NUMERIC_LIMIT}")
    box = ansatz_box(L)
    ncols = len(box)
    top = box.index((L - 1,) * L)
    samples = []
    for _ in range(q_count):
        q = sample_point(rng)
        nrows = ncols + max(20, ncols // 4)
        ratio_pair = []
        gaps = []
        for _batch in range(2):
            A = _numeric_rows(L, q, rng, nrows)
            v, gap = _nullvector_from_rows(A)
            if L > 1 and gap > 1e-6:
                raise NullspaceDimensionUnexpected(
                    f"no clear one-dimensional nullspace at q={q}: gap {gap}")
            ratio_pair.append(v / v[top])
            gaps.append(gap)
        diff = float(np.abs(ratio_pair[0] - ratio_pair[1]).max())
        scale = float(np.abs(ratio_pair[0]).max())
        if diff > consistency_tol * scale:
            raise NullspaceDimensionUnexpected(
                f"ratio vectors from independent batches disagree at q={q}")
        ratios = ratio_pair[0]
        if normalization == "asymptotic":
            ratios = ratios * asymptotic_norm(L, q)
        entries = {
            idx: complex(ratios[k])
            for k, idx in enumerate(box)
            if abs(ratios[k]) > 1e-8 * float(np.abs(ratios).max())
        }
        samples.append(NumericSolveSample(q, entries, max(gaps), diff / max(scale, 1e-300)))
    return NumericSolveResult(L, normalization, samples)


def solve_fz(L: int, normalization: str = "asymptotic", backend: str = "exact",
             rng=None, q_count: int = 8):
    """Solve the coefficient system; exact for L <= 3, numeric for L <= 4."""
    if backend == "exact":
        return solve_fz_exact(L, normalization)
    if backend == "float":
        if rng is None:
            raise ValueError("numeric solve requires an rng")
        return solve_fz_numeric(L, rng, q_count, normalization)
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------
# reference table for L = 3 and its verification
# ---------------------------------------------------------------------

_D6 = "1 + q^2 + q^4"     # (1 - q + q^2)(1 + q + q^2)
_D2 = "1 + q^2"

# ratios h_index / h_top by sorted index class, as factor lists
_L3_RATIO_CLASSES: dict[tuple[int, int, int], tuple[list, list]] = {
    (-2, -2, -2): (["1"], ["q^6"]),
    (-2, -2, 0): (["-3", _D2], ["q^4", _D6]),
    (-2, -2, 2): (["3"], ["q^2", _D6]),
    (-2, 0, 0): (["12"], ["q^2", _D6]),
    (-2, 0, 2): (["-1 + -10*q^2 + -1*q^4"], ["q^2", _D2, _D6]),
    (-2, 2, 2): (["3"], [_D6]),
    (0, 0, 0): (["1 + -8*q^2 + -34*q^4 + -8*q^6 + q^8"], ["q^4", _D2, _D6]),
    (0, 0, 2): (["12"], [_D6]),
    (0, 2, 2): (["-3", _D2], [_D6]),
}


def _parse_factors(factors: list[str]) -> LaurentPoly:
    out = LaurentPoly.one()
    for f in factors:
        out = out * parse_poly(f)
    return out


def reference_l3_ratios() -> dict[tuple[int, int, int], RationalFunction]:
    """All 26 known non-null ratio entries for L = 3 (plus nothing else)."""
    out = {}
    for cls, (num_f, den_f) in _L3_RATIO_CLASSES.items():
        rf = RationalFunction(_parse_factors(num_f), _parse_factors(den_f))
        for perm in set(itertools.permutations(cls)):
            out[perm] = rf
    return out


def expected_l2_table() -> CoefficientTable:
    """The known solved table for L = 2 under asymptotic normalization."""
    q = LaurentPoly.var(q_var())
    h11 = RationalFunction((q - invert(q)) ** 2 * (1 + q ** 2) / 16)
    zero = RationalFunction(LaurentPoly.zero())
    entries = {idx: zero for idx in ansatz_box(2)}
    entries[(1, 1)] = h11
    entries[(-1, -1)] = h11 / RationalFunction(q ** 2)
    entries[(-1, 1)] = h11 * RationalFunction(LaurentPoly.rational(-2), 1 + q ** 2)
    entries[(1, -1)] = entries[(-1, 1)]
    return CoefficientTable(2, "asymptotic", entries, h_top=h11)


@dataclass
class TableEntryReport:
    index: tuple
    expected: str
    matches: bool


@dataclass
class TableReport:
    size: int
    entries: list
    unexpected_nonzero: list

    @property
    def ok(self) -> bool:
        return all(e.matches for e in self.entries) and not self.unexpected_nonzero

    def to_json_obj(self) -> dict:
        return {
            "L": self.size,
            "passed": self.ok,
            "entries": [
                {"index": list(e.index), "expected": e.expected, "matches": e.matches}
                for e in self.entries
            ],
            "unexpected_nonzero": [list(i) for i in self.unexpected_nonzero],
        }


def verify_h_table(table: CoefficientTable) -> TableReport:
    """Compare a solved or directly-expanded L = 3 table against the known
    non-null ratios; absent indices must carry zero coefficients."""
    if table.size != 3:
        raise ValueError("the reference table is for L = 3")
    ref = reference_l3_ratios()
    top = table.entries[table.top_index]
    if top.is_zero():
        raise ValueError("table has zero top coefficient")
    reports = []
    unexpected = []
    for idx in ansatz_box(3):
        got = table.entries[idx] / top
        if idx == table.top_index:
            reports.append(TableEntryReport(idx, "1", got == RationalFunction(1)))
        elif idx in ref:
            reports.append(TableEntryReport(idx, ref[idx].to_text(), got == ref[idx]))
        elif not got.is_zero():
            unexpected.append(idx)
    return TableReport(3, reports, unexpected)
