"""Solve the functional equation for the partition-function polynomial.

With all inhomogeneities at zero, the partition function is a Laurent
polynomial in the e^{lambda_i} with exponents in a box of side 2L-1.  The
functional equation, cleared to the common denominator of all pairwise
b-weights, becomes one polynomial identity in the L+2 spectral variables;
matching coefficients of every spectral monomial gives a finite, complete
linear system over the field of rational functions in q for the unknown
table entries h.

Exact pipeline (L <= 3):

1. assemble the cleared equation from the omission/substitution terms of
   :mod:`sixvertex.functional` as its two orbits, ``functional._orbits``
   (weight table and families built once per solve, ``_equation``): each
   family's canonical numerator is expanded exactly times its clearing
   factor at symbolic points and q, once, and every term of the family
   takes those exponents with the u columns gathered by its point
   permutation sigma, its values negated for odd sigma, as num_t * D_t =
   sgn(sigma) * sigma(num_c * D_c); entries are summed per int64 numpy
   key, and every spectral monomial yields one linear constraint, kept in
   flat int64 arrays of (column, q exponent, integer value) entries;
2. select independent constraints greedily, fewest entries first, by rank
   modulo the exact kernel's first prime, p = ``scalar._PRIMES[0]`` =
   67108859, at q = 3 (reduction modulo p and specialization of q can only
   lower rank, so independence lifts to the generic field);
3. fraction-free Gaussian elimination over Z[q] on the selected rows,
   back-substitution over rational functions in q;
4. verify the candidate table: it must be symmetric in the spectral
   points, as Z is, or it is refused with a message of its own; then the
   whole equation, with the table's polynomial for every Z, must sum to
   exactly zero in one ``functional._orbit_expansion_sum`` of the two
   canonical terms over their orbits, as the default exact FZ residual
   does.  It reuses step 1's weight table and families, but not its
   expanded coefficients, grouping, selection or elimination.

Step 2 bounding rank from below and step 4 exhibiting an exact solution
together prove the nullspace is one-dimensional; any mismatch raises
NullspaceDimensionUnexpected rather than being repaired silently.

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
from .functional import (FunctionalInput, _orbit_expansion_sum, _orbits, _WeightTable,
                         functional_residual)
from .partition import z_algebraic
from .sampling import sample_point, sample_spectral_sets
from .scalar import (
    _PRIMES,
    CheckOutcome,
    LaurentPoly,
    RationalFunction,
    _content_and_lows,
    _exact_div_univariate,
    _gcd_univariate,
    coefficients_in,
    divide_exponents,
    exponent_array,
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
# exact constraint assembly
# ---------------------------------------------------------------------


def _equation_points(L: int) -> tuple:
    """The symbolic spectral points u0 .. u_{L+1} of the cleared equation."""
    return tuple(LaurentPoly.var(u_var(i)) for i in range(L + 2))


def _equation(L: int) -> tuple:
    """The weight table and the two term families (``functional._orbits``)
    of the equation at the symbolic points, unit inhomogeneities and
    symbolic q, built once per solve; steps 1 and 4 both read them."""
    w = _WeightTable(_equation_points(L), (LaurentPoly.one(),) * L, LaurentPoly.var(q_var()))
    return w, _orbits(w)


@dataclass(frozen=True)
class _Rows:
    """Flat int64 rows: row r sums val * q^qexp * h[col] over starts[r]:starts[r + 1]."""

    starts: np.ndarray
    col: np.ndarray
    qexp: np.ndarray
    val: np.ndarray

    def __len__(self) -> int:
        return len(self.starts) - 1


def _assemble_constraints(L: int, equation: tuple):
    """The linear constraints of ``_equation(L)`` as ``_Rows``, one per
    spectral monomial, entries by column, then q power; neither normalized
    nor deduplicated, as the selection skips dependent rows.  The rows need
    the coefficients of each numerator times its clearing factor, expanded:
    once per family, for its canonical term; every other term's are
    sgn(sigma) times those relabeled by sigma, exactly, as the equation's
    points are bare variables that the unit mus and q do not hold."""
    n = L + 1
    box = ansatz_box(L)
    ncols = len(box)
    variables = [*map(u_var, range(n + 1)), q_var()]
    box_exps = np.array(box, dtype=np.int64)
    w, families = equation
    terms = []
    for (num, pairs, _), orbit in families:
        exps, nums, den = exponent_array(num * w.clearing(pairs), variables)
        negated = [-c for c in nums]
        for sigma, sign, subset in orbit:
            # sigma moves the exponent of u_k to u_sigma[k]; q's stays put
            inverse = np.argsort(sigma).tolist()
            # the ansatz monomial of each column, spread onto the term's points
            shift = np.zeros((ncols, n + 1), dtype=np.int64)
            shift[:, list(subset)] = box_exps
            terms.append((exps[:, inverse + [n + 1]], nums if sign > 0 else negated, den, shift))
    # one common scale makes every coefficient an integer and keeps their proportions
    common = math.lcm(*(den for _, _, den, _ in terms))
    # one int64 key per (u-exponents, column, q-exponent) entry, in a mixed
    # radix measured before expansion: u digits, then column, then q, so
    # sorted keys come grouped by spectral monomial and in row order
    allexps = np.concatenate([t[0] for t in terms])
    lo = allexps.min(axis=0)
    hi = allexps.max(axis=0)
    lo[:-1] += box_exps.min()
    hi[:-1] += box_exps.max()
    dims = tuple(hi[:-1] - lo[:-1] + 1) + (ncols, hi[-1] - lo[-1] + 1)
    cols = np.arange(ncols)
    key_chunks = []
    val_chunks = []
    for exps, nums, den, shift in terms:
        digits = tuple(exps[:, p, None] + shift[None, :, p] - lo[p] for p in range(n + 1))
        digits += (cols[None, :], exps[:, -1, None] - lo[-1])
        keys = np.ravel_multi_index(digits, dims)
        vals = np.array([c * (common // den) for c in nums], dtype=np.int64)
        key_chunks.append(keys.ravel())
        val_chunks.append(np.broadcast_to(vals[:, None], keys.shape).ravel())
    keys = np.concatenate(key_chunks)
    vals = np.concatenate(val_chunks)
    del key_chunks, val_chunks
    # numpy's int64 sums wrap silently: refuse values whose sums could
    if int(np.abs(vals).max()) * len(vals) > np.iinfo(np.int64).max:
        raise OverflowError("constraint sums could leave int64")
    # one array at a time, which keeps the peak memory down
    order = np.argsort(keys)
    keys = keys[order]
    vals = vals[order]
    del order
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    keys = keys[starts]
    vals = np.add.reduceat(vals, starts)
    del starts
    nz = vals != 0
    keys, vals = keys[nz], vals[nz]
    # a row per spectral monomial; none at L = 1, where the equation cancels
    nq = dims[-1]
    starts = np.r_[np.flatnonzero(np.diff(keys // (ncols * nq), prepend=-1)), len(keys)]
    return _Rows(starts, keys // nq % ncols, keys % nq + lo[-1], vals), ncols, box


# -- row selection: rank modulo a prime at one q -----------------------


def _select_independent_rows(rows: _Rows, ncols: int):
    """Greedy selection, fewest entries first, of up to ncols - 1 rows
    independent modulo p = ``scalar._PRIMES[0]`` at q = 3: (row indices, rank).

    Rank modulo p at one q can only be lower than over Q(q), so the rows
    are independent over Q(q) too.  A row is independent of those selected
    when its product with their nullspace, kept modulo p, is not zero; once
    selected, the nullspace keeps the combinations it annihilates.  Rows are
    read in dense blocks of ncols rows, then twice as many each time up to
    4096.  Residues stay below p < 2^26: a float64 sum of under 2^27 is exact,
    and the int64 block product, a sum of ncols products of two, stays below
    2^63 while ncols <= 2048 (125 at ``_EXACT_LIMIT`` = 3, but 2401 at L = 4).
    """
    p = _PRIMES[0]
    lengths = np.diff(rows.starts)
    order = np.argsort(lengths, kind="stable")
    low = rows.qexp.min(initial=0)  # a power of q per row keeps its rank
    powers = np.array([pow(3, k, p) for k in range(rows.qexp.max(initial=0) - low + 1)])
    null = np.eye(ncols, dtype=np.int64)
    selected = []
    pos, size = 0, ncols
    while len(selected) < ncols - 1 and pos < len(rows):
        block = order[pos:pos + size]
        pos, size = pos + size, min(2 * size, 4096)
        counts = lengths[block]
        entries = (np.repeat(rows.starts[block] - np.cumsum(counts) + counts, counts)
                   + np.arange(counts.sum()))
        res = rows.val[entries] % p * powers[rows.qexp[entries] - low] % p
        cells = np.repeat(np.arange(len(block)) * ncols, counts) + rows.col[entries]
        m = np.bincount(cells, res, len(block) * ncols).astype(np.int64).reshape(-1, ncols) % p
        t = m @ null % p
        live = np.flatnonzero(t.any(axis=1))
        t = t[live]
        for i, r in enumerate(block[live].tolist()):
            nz = np.flatnonzero(t[i])
            if len(nz) and len(selected) < ncols - 1:
                j = nz[0]
                s = t[i] * pow(int(t[i, j]), -1, p) % p
                keep = np.arange(len(s)) != j
                null = (null[:, keep] - null[:, j, None] * s[keep]) % p
                t = (t[:, keep] - t[:, j, None] * s[keep]) % p
                selected.append(r)
    return selected, len(selected)


# -- exact elimination over Z[q] ---------------------------------------


def _row_reduce_normalize(row: dict[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """Divide a row by its lowest power of q and the gcd of its contents,
    both read from one decode of each entry."""
    if not row:
        return row
    qv = q_var()
    contents, lows = zip(*map(_content_and_lows, row.values()))
    minq = min(dict(low).get(qv.key, 0) for low in lows)
    g = math.gcd(*(c.numerator for c in contents))
    unit = LaurentPoly.monomial(Fraction(1, g), {qv: -minq})
    return {c: p * unit for c, p in row.items()}


def _exact_nullvector(rows: _Rows, selected, ncols: int) -> list[RationalFunction]:
    """Nullvector of the selected rows, a rank-(ncols-1) system over Z[q]."""
    qv = q_var()
    zero = LaurentPoly.zero()
    basis: dict[int, dict[int, LaurentPoly]] = {}
    for r in selected:
        terms: dict[int, dict] = {}
        span = slice(rows.starts[r], rows.starts[r + 1])
        for c, e, x in zip(*(a[span].tolist() for a in (rows.col, rows.qexp, rows.val))):
            terms.setdefault(c, {})[((qv.key, e),) if e else ()] = x
        v = {c: LaurentPoly(t) for c, t in terms.items()}
        # fraction-free reduction against the basis rows, keyed by leading
        # (lowest) column; a nonzero remainder joins them, normalized
        while v and min(v) in basis:
            lead = min(v)
            b = basis[lead]
            nv = {}
            for c in set(v) | set(b):
                x = v.get(c, zero) * b[lead] - b.get(c, zero) * v[lead]
                if x:
                    nv[c] = x
            v = _row_reduce_normalize(nv)
        if v:
            basis[min(v)] = _row_reduce_normalize(v)
    if len(basis) != ncols - 1:
        raise NullspaceDimensionUnexpected(
            f"rank {len(basis)} over Z[q], expected {ncols - 1}")
    free = next(c for c in range(ncols) if c not in basis)
    values: dict[int, RationalFunction] = {free: RationalFunction(LaurentPoly.one())}
    for lead in sorted(basis, reverse=True):
        row = basis[lead]
        acc = RationalFunction(LaurentPoly.zero())
        for c, p in row.items():
            if c != lead:
                acc = acc + RationalFunction(p) * values[c]
        values[lead] = (-acc / RationalFunction(row[lead])).reduced()
    return [values[c] for c in range(ncols)]


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
                    f"candidate from the selected constraints is not symmetric: h{idx} != "
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
            "candidate from the selected constraints fails the full equation; "
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
    equation = _equation(L)
    rows, ncols, box = _assemble_constraints(L, equation)
    selected, rank = _select_independent_rows(rows, ncols)
    if rank < ncols - 1:
        raise NullspaceDimensionUnexpected(
            f"constraint rank {rank} < {ncols - 1}: solution space has dimension > 1")
    values = _exact_nullvector(rows, selected, ncols)
    _verify_candidate(L, box, values, equation)
    top = values[box.index((L - 1,) * L)]
    if top.is_zero():
        raise NullspaceDimensionUnexpected("top coefficient vanished")
    norm = asymptotic_norm(L, LaurentPoly.var(q_var())) if normalization == "asymptotic" else 1
    scale = RationalFunction(norm) / top
    entries = {idx: (v * scale).reduced() for idx, v in zip(box, values)}
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
