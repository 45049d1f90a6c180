"""Solve the functional equation for the partition-function polynomial.

With all inhomogeneities at zero, the partition function is a Laurent
polynomial in the e^{lambda_i} with exponents in a box of side 2L-1.  The
functional equation, cleared to the common denominator of all pairwise
b-weights, becomes one polynomial identity in the L+2 spectral variables;
matching coefficients of every spectral monomial gives a finite, complete
linear system over the field of rational functions in q for the unknown
table entries h.

Exact pipeline (L <= 3), modulo p = ``scalar._PRIMES[0]`` = 67108859 up
to the candidate:

1. sample the cleared equation's rows: at q = 2, 3, ..., 3 L^2 + 1 and, for
   each q, ncols + 3 point sets of L + 2 random integers, drawn from a
   fixed seed, with unit mus; each point set gives one row, the sum over
   ``functional._terms`` of num * D times the term's ansatz monomials, D =
   ``_WeightTable.clearing``, evaluated on ``scalar.Residues`` in one batch
   over every point set and q, with the inverses of the points and q
   formed once;
2. certify the rank: Gaussian elimination modulo p of each q's rows, every
   q at once, the top index (L-1, ..., L-1) the last column.  A row at one
   q is a combination of the symbolic rows there, and reduction modulo p
   and putting in q can only lower rank, so rank ncols - 1 at any q bounds
   the nullspace over Q(q) to one dimension.  Each q whose rows have that
   rank with a pivot in every column but the top one gives the nullvector
   with top entry 1 there; a q where the rank or the top entry vanishes is
   skipped;
3. rebuild the candidate: each entry, a ratio to the top one, as a rational
   function of q from its values at those q, by Newton interpolation and
   the extended Euclidean algorithm, adding values of q until a candidate
   takes the next two, its coefficients lifted from modulo p to fractions
   by Wang's rational reconstruction;
4. verify the candidate table: it must be symmetric in the spectral
   points, as Z is, or it is refused with a message of its own; then the
   whole equation, with the table's polynomial for every Z, must sum to
   exactly zero in one ``functional._orbit_expansion_sum`` of the two
   canonical terms over their orbits, as the default exact FZ residual
   does, at symbolic points and q (``_equation``).  Nothing of steps 1-3
   enters it but the candidate.

Step 2 bounding rank from below and step 4 exhibiting an exact solution
together prove the nullspace is one-dimensional and the candidate spans
it; a rank short of ncols - 1, a candidate that does not settle or lift,
or one that fails step 4 raises NullspaceDimensionUnexpected rather than
being repaired silently.

Numeric pipeline (L <= 4): the unknowns are the L^L entries whose exponents
all have the parity of L-1, as every DWBC row has an odd number of c
vertices (the exact full-box solve finds the rest zero).  At each sampled
q, both independent batches' point sets are drawn in one
``sampling.sample_spectral_sets`` call and their rows come from one batched
float residual call; each batch gets its own SVD nullvector.

The homogeneous-limit differential checks live here too: the partition
polynomial in the one variable x = e^{2(lambda-mu)}, the hard-coded
second-order operator coefficients and their residuals.  All three are
LaurentPolys in x and q, with x written as the variable u0 (``X``), and
differentiated with ``scalar.poly_derivative``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .asymptotics import asymptotic_norm
from .errors import NullspaceDimensionUnexpected, SizeLimitExceeded
from .functional import (FunctionalInput, _orbit_expansion_sum, _orbits, _terms, _WeightTable,
                         functional_residual)
from .partition import z_algebraic
from .sampling import sample_point, sample_spectral_sets
from .scalar import (
    _PRIMES,
    MODULAR,
    CheckOutcome,
    LaurentPoly,
    RationalFunction,
    Residues,
    _exact_div_univariate,
    _gcd_univariate,
    coefficients_in,
    divide_exponents,
    invert,
    parse_poly,
    poly_derivative,
    q_var,
    u_var,
)
from .vertex import verdict

_EXACT_LIMIT = 3
_NUMERIC_LIMIT = 4
# relative disagreement allowed between the two batches of a numeric solve
_CONSISTENCY_TOL = 1e-6


# ---------------------------------------------------------------------
# homogeneous limit, in one variable x = e^{2(lambda-mu)}
# ---------------------------------------------------------------------

# The homogeneous variable x, written as u0: homogeneous polynomials are
# LaurentPolys in X and q.
X = u_var(0)


def phi_polynomials() -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
    """The three x-polynomial coefficients of the homogeneous second-order
    relation for L = 2, exactly as they stand."""
    q = LaurentPoly.var(q_var())
    x = LaurentPoly.var(X)
    q2, q4, q6 = q ** 2, q ** 4, q ** 6
    phi0 = (-4 * q2 * (1 + q2 + q4) + 6 * q4 * (1 + q2) * x + 12 * q6 * x ** 2
            - 6 * q6 * (1 + q2) * x ** 3)
    phi1 = (-(1 + 2 * q2 + 2 * q4 + q6) + 4 * q2 * (1 + q2 + q4) * x - 12 * q6 * x ** 3
            + q4 * (-1 + 4 * q2 + 4 * q4 - q6) * x ** 4)
    phi2 = ((1 - q2 - q4 + q6) * x - 2 * q2 * (1 - 2 * q2 + q4) * x ** 2
            - 2 * q4 * (1 - 2 * q2 + q4) * x ** 4 + q4 * (1 - q2 - q4 + q6) * x ** 5)
    return phi0, phi1, phi2


def homogeneous_partition_polynomial(L: int) -> LaurentPoly:
    """The homogeneous-limit polynomial in x and q: all lambdas equal to
    lambda, all mus zero, times x^{L(L-1)/2}.  Obtained by direct
    substitution into the exact multivariate polynomial; no limits of
    singular coefficients are needed.  Z depends on lambda - mu only, so
    u0 = e^lambda carries every exponent, and x = u0^2.
    """
    u = LaurentPoly.var(X)
    z = z_algebraic([u] * L, [LaurentPoly.one()] * L, LaurentPoly.var(q_var()))
    return divide_exponents(z * u ** (L * (L - 1)), X, 2)


def homogeneous_ode_residual(L: int, zbar: LaurentPoly | None = None) -> LaurentPoly:
    """Residual of the homogeneous differential relation, denominators
    cleared; identically zero for the computed partition polynomial."""
    if L not in (1, 2):
        raise ValueError("homogeneous differential checks exist for L = 1, 2")
    q = LaurentPoly.var(q_var())
    x = LaurentPoly.var(X)
    if zbar is None:
        zbar = homogeneous_partition_polynomial(L)
    d1 = poly_derivative(zbar, X)
    d2 = poly_derivative(d1, X)
    if L == 1:
        # [1 - 2qx/(q+q^-1)] Z' + (x/2)[1 - 4qx/(q+q^-1) + q^2 x^2] Z'',
        # multiplied through by 2 (q + q^-1)
        qpq = q + invert(q)
        return (2 * qpq - 4 * q * x) * d1 + (qpq * x - 4 * q * x ** 2 + q ** 2 * qpq * x ** 3) * d2
    phi0, phi1, phi2 = phi_polynomials()
    return phi0 * zbar + phi1 * d1 + phi2 * d2


# ---------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------


def ansatz_box(L: int) -> list[tuple[int, ...]]:
    """Exponent multi-indices of the polynomial ansatz, (2L-1)^L of them."""
    return list(itertools.product(range(-(L - 1), L), repeat=L))


def _parity_exponents(L: int) -> range:
    """The exponents of one u_i in Z: those of the parity of L-1."""
    return range(-(L - 1), L, 2)


@dataclass
class CoefficientTable:
    """Solved coefficients h indexed by exponent multi-indices."""

    size: int
    normalization: str
    entries: dict = field(repr=False)

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
    us = [u_var(i) for i in range(1, L + 1)]
    z = z_algebraic([LaurentPoly.var(v) for v in us], [LaurentPoly.one()] * L,
                    LaurentPoly.var(q_var()))
    parts = coefficients_in(z, us)
    if any(v != q_var() for p in parts.values() for v in p.variables()):
        raise ValueError("unexpected variable in the expansion")
    zero = LaurentPoly.zero()
    entries = {idx: RationalFunction(parts.get(idx, zero)) for idx in ansatz_box(L)}
    return CoefficientTable(L, "asymptotic", entries)


# ---------------------------------------------------------------------
# exact solve: sampled rows, rank certificate, candidate, verification
# ---------------------------------------------------------------------


def _equation_points(L: int) -> tuple:
    """The symbolic spectral points u0 .. u_{L+1} of the cleared equation."""
    return tuple(LaurentPoly.var(u_var(i)) for i in range(L + 2))


def _equation(L: int) -> tuple:
    """The weight table and the two term families (``functional._orbits``)
    of the equation at the symbolic points, unit inhomogeneities and
    symbolic q, which step 4 checks the candidate on."""
    w = _WeightTable(_equation_points(L), (LaurentPoly.one(),) * L, LaurentPoly.var(q_var()))
    return w, _orbits(w)


# the exact solve's sampling: one fixed seed for every point set drawn, and
# spare rows per q, past the ncols - 1 a rank certificate needs, for a
# pivot that vanishes modulo p at some row
_SAMPLE_SEED = 20100
_SPARE_ROWS = 4


@dataclass(frozen=True)
class _Samples:
    """Rows of the cleared equation modulo p = ``scalar._PRIMES[0]``, by q:
    ``rows[i, r]`` is the row of the r-th point set drawn at q = ``qs[i]``,
    int64 residues, one per ansatz column."""

    qs: list[int]
    rows: np.ndarray

    def __len__(self) -> int:
        return self.rows.shape[0] * self.rows.shape[1]


def _assemble_constraints(L: int):
    """Rows of the cleared equation at sampled points, modulo p, and the
    ansatz columns: (``_Samples``, ncols, box).

    Each row is the equation at L + 2 random points with unit mus and an
    integer q, as ``Residues``: the sum over ``functional._terms`` of num *
    D * the term's ansatz monomials, D = ``_WeightTable.clearing``.  Every
    point set of every q is one column of a single batch, so each weight is
    one array operation, and the inverses the weights take are those of the
    points and q, formed once (``Residues.units``).  The monomial products
    add unreduced: each is below p^2 < 2^52, and a row sums one per term,
    far fewer than 2^11."""
    p = _PRIMES[0]
    box = ansatz_box(L)
    ncols = len(box)
    # 3 L^2 values of q: an entry of the L = 3 table takes up to 20 to
    # rebuild, and two more to confirm
    qs = list(range(2, 2 + 3 * L * L))
    per_q = ncols - 1 + _SPARE_ROWS
    count = len(qs) * per_q
    drawn = np.random.default_rng(_SAMPLE_SEED).integers(1, p, size=(L + 2, count))
    units = Residues.units(np.vstack([drawn, np.repeat(qs, per_q)]))
    points = [units[k] for k in range(L + 2)]
    w = _WeightTable(points, (MODULAR.one,) * L, units[L + 2])
    # x^e for e = -(L - 1) .. L - 1, the exponents of one ansatz position
    powers = np.empty((L + 2, 2 * L - 1, count), dtype=np.int64)
    powers[:, L - 1] = 1
    for e in range(1, L):
        powers[:, L - 1 + e] = powers[:, L - 2 + e] * units.value[:L + 2] % p
        powers[:, L - 1 - e] = powers[:, L - e] * units.inverse[:L + 2] % p
    total = np.zeros((ncols, count), dtype=np.int64)
    for num, pairs, subset in _terms(w):
        # columns in box order: the first position varies slowest
        column = (num * w.clearing(pairs)).value[None]
        for k in subset[:-1]:
            column = (column[:, None] * powers[k]).reshape(-1, count) % p
        total += (column[:, None] * powers[subset[-1]]).reshape(-1, count)
    rows = (total % p).T.reshape(len(qs), per_q, ncols)
    return _Samples(qs, rows), ncols, box


def _select_independent_rows(samples: _Samples, ncols: int):
    """The rank certificate and each q's nullvector: (nullvectors, rank).

    The rows at each q are reduced modulo p by Gaussian elimination, every
    q at once, columns in box order, so the top index (L-1, ..., L-1),
    the last, comes last.  rank is the largest rank found at any q.
    Reduction modulo p and putting in a value of q can only lower rank, so
    the rows over Q(q) have at least that rank: at ncols - 1, the nullspace
    has at most one dimension.  nullvectors maps each q whose rows have
    rank ncols - 1 with a pivot in every column but the top one to the
    nullvector scaled to top entry 1, int64 residues in box order; a q
    where the rank falls short or the top entry vanishes is skipped.

    Entries are reduced only where read, a pivot column and a pivot row:
    each elimination step adds a product of two residues, below p^2 <
    2^52, to an entry, so ncols - 1 steps stay inside int64 while ncols <=
    2048 (125 at ``_EXACT_LIMIT`` = 3)."""
    p = _PRIMES[0]
    a = samples.rows.copy()
    nq, count, _ = a.shape
    at = np.arange(nq)
    below = np.arange(count)
    rank = np.zeros(nq, dtype=np.int64)
    for j in range(ncols - 1):
        lo = int(rank.min())
        if lo == count:
            break
        column = a[:, lo:, j] % p
        free = (column != 0) & (below[lo:] >= rank[:, None])
        found = free.any(axis=1)
        # each q's first free row with a nonzero entry swaps into its pivot
        # row; a q with no such row (or none left) swaps a row with itself
        here = np.minimum(rank, count - 1)
        pivot = np.where(found, free.argmax(axis=1) + lo, here)
        rows = a[at, pivot]
        a[at, pivot] = a[at, here]
        lead = rows[:, j] % p
        scale = np.array([pow(x, -1, p) if x else 0 for x in lead.tolist()], dtype=np.int64)
        rows = rows[:, j + 1:] % p * scale[:, None] % p
        a[at[found], rank[found], j + 1:] = rows[found]
        factor = np.where(below[lo:] > rank[:, None], a[:, lo:, j] % p, 0)
        a[:, lo:, j + 1:] -= factor[:, :, None] * rows[:, None, :]
        rank += found
    # a nonzero left in the top column past the pivot rows is one more rank
    full = ((a[:, :, -1] % p != 0) & (below >= rank[:, None])).any(axis=1)
    good = np.flatnonzero((rank == ncols - 1) & ~full)
    x = np.zeros((len(good), ncols), dtype=np.int64)
    x[:, -1] = 1
    # the pivot rows of a good q are its first ncols - 1, in column order
    upper = a[good]
    for j in reversed(range(ncols - 1 if len(good) else 0)):
        x[:, j] = -(upper[:, j, j + 1:] * x[:, j + 1:]).sum(axis=1) % p
    nullvectors = {samples.qs[i]: v for i, v in zip(good.tolist(), x)}
    return nullvectors, int((rank + full).max(initial=0))


# -- the candidate, rebuilt in q ---------------------------------------
#
# Polynomials modulo p are lists of coefficients, lowest power first.


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo p, b with a nonzero leading coefficient."""
    p = _PRIMES[0]
    a = list(a)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = a[k + len(b) - 1] * inv % p
        if c:
            for i, bi in enumerate(b):
                a[k + i] = (a[k + i] - c * bi) % p
    rem = a[:len(b) - 1]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _poly_sub_mul(a: list[int], b: list[int], c: list[int]) -> list[int]:
    """a - b * c modulo p, trimmed."""
    p = _PRIMES[0]
    out = list(a) + [0] * max(len(b) + len(c) - 1 - len(a), 0)
    for i, bi in enumerate(b):
        for k, ck in enumerate(c):
            out[i + k] = (out[i + k] - bi * ck) % p
    while out and not out[-1]:
        out.pop()
    return out


def _poly_at(poly: list[int], x: int) -> int:
    """poly(x) modulo p, by Horner's rule."""
    p = _PRIMES[0]
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _rational_interpolant(xs: list[int], newton: list[int]) -> tuple[list[int], list[int]]:
    """num / den modulo p, den monic, through the values at xs whose
    Newton coefficients are ``newton``.  The extended Euclidean algorithm on
    M = prod (q - x) and the interpolating polynomial f gives remainders r
    and cofactors t with r = t * f modulo M; of those pairs it takes the one
    of least deg r + deg t, the one after the quotient of largest degree
    (maximal quotient rational reconstruction)."""
    p = _PRIMES[0]
    f: list[int] = []
    modulus = [1]
    for x, c in zip(reversed(xs), reversed(newton)):
        f = _poly_sub_mul([c], f, [x, p - 1]) if f else [c]
    for x in xs:
        modulus = _poly_sub_mul([0] + modulus, modulus, [x])
    while f and not f[-1]:
        f.pop()
    r0, r1, t0, t1 = modulus, f, [], [1]
    best, gap = (f, [1]), -1
    while r1:
        quot, rem = _poly_divmod(r0, r1)
        if len(quot) - 1 > gap:
            best, gap = (r1, t1), len(quot) - 1
        r0, r1, t0, t1 = r1, rem, t1, _poly_sub_mul(t0, quot, t1)
    num, den = best
    inv = pow(den[-1], -1, p)
    return [c * inv % p for c in num], [c * inv % p for c in den]


def _lift(c: int) -> Fraction:
    """The fraction a / b = c modulo p with |a| and b at most sqrt(p / 2),
    by Wang's rational reconstruction; ValueError if there is none."""
    p = _PRIMES[0]
    bound = math.isqrt(p // 2)
    r0, r1, s0, s1 = p, c, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        raise ValueError(f"{c} modulo p is no fraction of small height")
    return Fraction(r1, s1)


def _rebuild(qs: list[int], ys: list[int]) -> RationalFunction:
    """The rational function of q with values ys modulo p at qs, from as few
    of them as it takes: a candidate from the first m values must take the
    next two, else it is rebuilt with the value it missed.  Its coefficients
    are lifted to fractions once it holds."""
    p = _PRIMES[0]
    newton: list[int] = []
    candidate, agreed = None, 0
    for m, (x, y) in enumerate(zip(qs, ys)):
        below = 0 if candidate is None else _poly_at(candidate[1], x)
        if below and _poly_at(candidate[0], x) == y * below % p:
            agreed += 1
            if agreed == 2:
                break
        else:
            candidate, agreed = None, 0
        d = y
        for xi, c in zip(qs, newton):
            d = (d - c) * pow(x - xi, -1, p) % p
        newton.append(d)
        if candidate is None:
            candidate = _rational_interpolant(qs[:m + 1], newton)
    else:
        raise NullspaceDimensionUnexpected(
            f"candidate entry did not settle within {len(qs)} values of q")
    qv = q_var()
    try:
        num, den = ({((qv.key, e),) if e else (): _lift(c) for e, c in enumerate(part) if c}
                    for part in candidate)
    except ValueError as exc:
        raise NullspaceDimensionUnexpected(f"candidate entry does not lift: {exc}") from exc
    return RationalFunction(LaurentPoly(num), LaurentPoly(den))


def _exact_nullvector(nullvectors: dict, ncols: int) -> list[RationalFunction]:
    """The candidate: each entry of the nullvectors, top entry 1, rebuilt as
    a rational function of q (``_rebuild``); entries with the same values
    at every q, such as an index and its permutations, are rebuilt once."""
    qs = list(nullvectors)
    values = np.array(list(nullvectors.values()), dtype=np.int64).reshape(len(qs), ncols)
    rebuilt: dict[bytes, RationalFunction] = {}
    out = []
    for column in values.T:
        key = column.tobytes()
        if key not in rebuilt:
            rebuilt[key] = _rebuild(qs, column.tolist())
        out.append(rebuilt[key])
    return out


def _verify_candidate(L: int, box, values: list[RationalFunction], equation: tuple) -> None:
    """Exact check of the candidate table: it must be symmetric in the
    spectral points, as Z is, and the whole functional equation,
    ``_equation(L)``, must vanish for it.  The equation is one
    ``functional._orbit_expansion_sum`` of the two canonical terms with the
    table's polynomial on their subsets: sigma carries the canonical subset
    onto each term's position by position, so that term's Z is sigma of the
    canonical one, and the orbit sum is the sum over every term."""
    position = {idx: k for k, idx in enumerate(box)}
    # the adjacent transpositions of index positions generate every permutation
    for idx, v in zip(box, values):
        for p in range(L - 1):
            swapped = (*idx[:p], idx[p + 1], idx[p], *idx[p + 2:])
            if swapped != idx and values[position[swapped]] != v:
                raise NullspaceDimensionUnexpected(
                    f"candidate rebuilt from the sampled rows is not symmetric: h{idx} != "
                    f"h{swapped}; the system has no one-dimensional solution space")
    w, families = equation
    points = _equation_points(L)
    qv = q_var()
    one = LaurentPoly.one()
    den = one
    # a zero value has denominator one
    for v in values:
        if v.den == one:
            continue
        shared = _gcd_univariate(den, v.den, qv)
        extra = v.den if shared is None else _exact_div_univariate(v.den, shared, qv)
        den = den * extra
    scaled = [v.num * (den if v.den == one else _exact_div_univariate(den, v.den, qv))
              for v in values]

    def z(subset):
        total = LaurentPoly.zero()
        for idx, hq in zip(box, scaled):
            if hq.is_zero():
                continue
            mono = LaurentPoly.one()
            for pos, k in enumerate(subset):
                mono = mono * points[k] ** idx[pos]
            total = total + hq * mono
        return total

    if _orbit_expansion_sum(w, families, [z(c[2]) for c, _ in families],
                            list(map(u_var, range(L + 2)))):
        raise NullspaceDimensionUnexpected(
            "candidate rebuilt from the sampled rows fails the full equation; "
            "the system has no one-dimensional solution space")


def _check_arguments(L: int, limit: int, backend: str, normalization: str,
                     q_count: int = 1) -> None:
    """Refuse bad solve arguments before any work (q_count: numeric only)."""
    if L < 1:
        raise ValueError(f"solve needs size L >= 1, got L = {L}")
    if L > limit:
        raise SizeLimitExceeded(f"{backend} solve supports L <= {limit}")
    if normalization not in ("asymptotic", "top-one"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if q_count < 1:
        raise ValueError(f"numeric solve needs q_count >= 1, got {q_count}")


def solve_fz_exact(L: int, normalization: str = "asymptotic") -> CoefficientTable:
    """Exact coefficient table at zero inhomogeneities."""
    _check_arguments(L, _EXACT_LIMIT, "exact", normalization)
    samples, ncols, box = _assemble_constraints(L)
    nullvectors, rank = _select_independent_rows(samples, ncols)
    if rank < ncols - 1:
        raise NullspaceDimensionUnexpected(
            f"constraint rank {rank} < {ncols - 1}: solution space has dimension > 1")
    values = _exact_nullvector(nullvectors, ncols)
    _verify_candidate(L, box, values, _equation(L))
    # the candidate's entries are ratios to its top entry
    norm = asymptotic_norm(L, LaurentPoly.var(q_var())) if normalization == "asymptotic" else 1
    entries = {idx: (v * norm).reduced() for idx, v in zip(box, values)}
    return CoefficientTable(L, normalization, entries)


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


def _monomial_provider(L: int):
    """A batched provider of the ansatz monomials: for a subset of L points,
    each an array of shape (k,), the columns prod_m p_m^idx_m over the
    parity box, shape (L^L, k)."""
    box_range = np.array(_parity_exponents(L))[:, None]

    def provider(subset):
        column = subset[0] ** box_range
        for p in subset[1:]:
            column = (column[:, None, :] * p ** box_range).reshape(-1, p.size)
        return column

    return provider


def _numeric_rows(L: int, q: complex, rng, count: int) -> np.ndarray:
    """One constraint row per sampled point set: the float functional-
    equation residual of the monomial provider.  The count sets are drawn
    first, in one batch, then solved as one batch."""
    sets = sample_spectral_sets(rng, count, L + 2)
    inp = FunctionalInput(L, tuple(sets.T), (1.0 + 0j,) * L, q)
    return functional_residual(inp, _monomial_provider(L)).T


def _nullvector_from_rows(A: np.ndarray) -> tuple[np.ndarray, float]:
    if A.shape[1] == 1:
        # single unknown: the equation must be trivial and the vector free
        return np.ones(1, dtype=complex), float(np.abs(A).max())
    _, s, vh = np.linalg.svd(A)
    gap = s[-1] / s[-2] if s[-2] > 0 else float("inf")
    return vh[-1].conj(), gap


def solve_fz_numeric(L: int, rng, q_count: int = 8,
                     normalization: str = "asymptotic") -> NumericSolveResult:
    """Float-backend solve: at several random q, sample admissible spectral
    points, build the constraint matrix, and extract the nullvector.

    Each q is solved twice with independent point batches, whose rows come
    from one ``_numeric_rows`` call (the second batch's sets are drawn right
    after the first's); disagreement of the two ratio vectors beyond
    ``_CONSISTENCY_TOL`` (a rank fluke) raises NullspaceDimensionUnexpected.
    """
    _check_arguments(L, _NUMERIC_LIMIT, "numeric", normalization, q_count)
    box = list(itertools.product(_parity_exponents(L), repeat=L))
    ncols = len(box)
    top = box.index((L - 1,) * L)
    samples = []
    for _ in range(q_count):
        q = sample_point(rng)
        nrows = ncols + max(20, ncols // 4)
        rows = _numeric_rows(L, q, rng, 2 * nrows)
        ratio_pair = []
        gaps = []
        for A in (rows[:nrows], rows[nrows:]):
            v, gap = _nullvector_from_rows(A)
            if L > 1 and gap > 1e-6:
                raise NullspaceDimensionUnexpected(
                    f"no clear one-dimensional nullspace at q={q}: gap {gap}")
            ratio_pair.append(v / v[top])
            gaps.append(gap)
        scale = float(np.abs(ratio_pair[0]).max())
        agree = verdict("batch-consistency", ratio_pair[0] - ratio_pair[1], scale, _CONSISTENCY_TOL)
        if not agree.passed:
            raise NullspaceDimensionUnexpected(
                f"ratio vectors from independent batches disagree at q={q}")
        ratios = ratio_pair[0]
        if normalization == "asymptotic":
            ratios = ratios * asymptotic_norm(L, q)
        cut = 1e-8 * float(np.abs(ratios).max())
        entries = {idx: complex(r) for idx, r in zip(box, ratios) if abs(r) > cut}
        samples.append(NumericSolveSample(q, entries, max(gaps), agree.residual / scale))
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
    return CoefficientTable(2, "asymptotic", entries)


def verify_h_table(table: CoefficientTable) -> CheckOutcome:
    """Compare a solved or directly-expanded L = 3 table against the known
    non-null ratios; absent indices must carry zero coefficients.  The
    residual holds (got - expected).num for each ansatz index, where got is
    the entry's ratio to the top one and expected is the reference ratio,
    1 at the top index, or 0 where no ratio is expected."""
    if table.size != 3:
        raise ValueError("the reference table is for L = 3")
    want = {idx: (rf, rf.to_text()) for idx, rf in reference_l3_ratios().items()}
    want[table.top_index] = (RationalFunction(1), "1")
    top = table.entries[table.top_index]
    if top.is_zero():
        raise ValueError("table has zero top coefficient")
    residual, entries, unexpected = [], [], []
    for idx in ansatz_box(3):
        expected, text = want.get(idx, (0, None))
        res = (table.entries[idx] / top - expected).num
        residual.append(res)
        if text is not None:
            entries.append({"index": list(idx), "expected": text, "matches": res.is_zero()})
        elif not res.is_zero():
            unexpected.append(list(idx))
    return verdict("h-table", np.array(residual, dtype=object), None, 0,
                   {"L": 3, "entries": entries, "unexpected_nonzero": unexpected})
