"""Expansion coefficients of C(lam_0) prod B(lam_i) |0> and the linear
functional equation they impose on the partition function.

Acting with C(lam_0) on a product of n B-operators over the vacuum expands
into two families of terms: single omissions (one B removed, coefficient
``omission_coeff``) and pair substitutions (two B's removed, B(lam_0)
inserted, coefficient ``substitution_coeff``).  Projecting the expansion at
n = L+1 onto the dual vacuum kills the left-hand side, which leaves a linear
relation among partition-function values on (L+1)-subsets of the L+2
spectral points: the functional-equation residual computed here.

One term source: every coefficient is a product of the vertex weights
a, b, c of ``vertex.weights_of``, computed once per input for each ordered
point pair and each point-mu pair, with the products A_x, B_x of each
point's a- and b-weights over the mus (``_WeightTable``).  Every half-term
of a numerator comes from ``_half_term``: its point-pair a-weights first,
then the short part c * A_p * B_r (times c * a for a substitution).
``_terms`` yields each term's numerator, the point pairs whose b-weights
form its denominator, and the points whose B-operators it keeps.  The float backend
divides each numerator by its denominator.  The exact backend clears every
term to the common denominator ``prod b(lam_x - lam_y)`` over all pairs,
keeping every intermediate a genuine Laurent polynomial, by one rule,
``_expansion_sum``: each numerator is paired with its clearing factor D
(the b-weights outside its denominator, ``_WeightTable.clearing``) times
its value X, a Z value or a B-product vector entry, in one
``scalar.sum_of_products`` call (residues modulo word-size primes, then
CRT), so that the long numerators meet only the kernel.  The per-term FZ
residual of an explicit provider takes it, and the orbit sums below the
same pairing; the final numerator is tested for exact zero.  Float points
closer than ``sampling.MIN_POLE_DISTANCE`` to a pole are refused once per
input, each point pair checked over a whole batch at once.

A float input may hold a batch of k point sets, each point a complex
array of shape (k,) with set j at index j; the weight table, the terms and
the residual then run elementwise.  A batch provider returns values whose
trailing axis is the batch, as in ``vertex.apply_two_site``: (k,) for Z
values, (ncols, k) for column vectors; the residual has the same shape.
``check_fz`` takes one set.

The default provider evaluates every Z of one input in one call,
``_WeightTable.b_products``; Z is ``z_algebraic``'s on each subset, the same
floats or polynomials: the subsets it needs (every term's in float, the
two canonical terms' when exact) are the columns of one batch, each B
operator one ``monodromy.b_products`` sweep over all of them.  The table's
point-mu weights (the values ``build_monodromy`` computes) are stacked
once into one (points, mus, 3) array, ``_WeightTable.mu_rows``, and each
operator's batch is one index gather from it, by the subsets' points at
that operator's position.  The C(lam_0) expansion takes its term vectors, and prod B |0>
over all of points[1:], from the same call, and C(lam_0) from the point-0
weights.  An explicit provider goes subset by subset.

The default exact FZ residual and every entry of the exact cbb residual
are orbit sums.  Within each family every term is the image of one
canonical term, omission 1 or substitution (2, 1), under a permutation
sigma of points 1..n: num_t * D_t * X_t = sgn(sigma) * sigma(num_c * D_c *
X_c), since the B operators commute, the coefficients are symmetric in the
points they do not single out, and ``den(every)`` is antisymmetric.  The
orbits are defined once, ``_orbits``: each family's canonical term, and
each term's sigma (a point-index list fixing 0), sign and subset, in
``_terms`` order.  ``_orbit_expansion_sum`` hands the sigmas to
``sum_of_products`` as relabelings (its ``images``): the kernel expands
each canonical product once and adds every image as a permutation of that
product's slots.  A relabeling moves only the points, so the exact
route runs on the weight table at generic points x_0 .. x_n (u indices
from ``_GENERIC`` up, which an exact input may not use) with the input's
mus and q, ``_generic_table``: only the two canonical numerators are
built, their values come from one ``b_products`` call, and the input's
points are put in for the x's at the end by ``LaurentPoly.substitute``.
Substituting monomials or nonzero rational constants is a ring
homomorphism, so the result is the per-term sum at the input's points,
whatever their shape.  The solver's step-4 check takes the same orbit
sum.  An explicit provider, the float backend, and the solver's sampled
rows on ``scalar.Residues`` go term by term through ``_terms``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PoleAtCoincidingPoints, ProviderFailure
from .monodromy import (apply_block, b_product, b_products, batch_monodromy,
                        build_monodromy, vacuum)
from .sampling import (MIN_POLE_DISTANCE, pair_index, pole_distance, sample_point,
                       sample_spectral_set)
from .scalar import (CheckOutcome, LaurentPoly, RationalFunction, backend_of, invert,
                     sum_of_products, u_var)
from .vertex import verdict, weights_of


def _bsign(p: int, r: int) -> int:
    """b(lam_p - lam_r) = sign * b_canonical(min, max); b is odd."""
    return 1 if p < r else -1


def _is_batch(points) -> bool:
    return np.ndim(points[0]) > 0


def _guard_poles(points):
    """Refuse float points whose differences come within MIN_POLE_DISTANCE
    of a zero of b, where the coefficients have their poles; a batch is
    checked pair by pair over all its sets at once, and the first set with
    a close pair is named."""
    if len(points) < 2 or backend_of(points[0]).exact:
        return
    x, y = pair_index(len(points))
    pts = np.array(points, dtype=complex)
    near = (pole_distance(pts[x], pts[y]) < MIN_POLE_DISTANCE).reshape(len(x), -1)
    sets = np.flatnonzero(near.any(axis=0))
    if sets.size:
        j = int(sets[0])
        where = f"set {j}: " if _is_batch(points) else ""
        bad = [(int(x[p]), int(y[p])) for p in np.flatnonzero(near[:, j])]
        raise PoleAtCoincidingPoints(f"{where}point pairs too close: {bad}")


@dataclass(frozen=True)
class FunctionalInput:
    """The L+2 spectral points, inhomogeneities and anisotropy of one
    functional-equation instance, or of a batch of them (float points
    only: each point an array of shape (k,)).  points[0] is the
    distinguished point."""

    size: int
    points: tuple
    mus: tuple
    q: object

    def __post_init__(self):
        if len(self.points) != self.size + 2:
            raise ValueError(f"need L+2 spectral points, got {len(self.points)}")
        if len(self.mus) != self.size:
            raise ValueError(f"need L inhomogeneities, got {len(self.mus)}")
        if len({np.shape(p) for p in self.points}) != 1 or np.ndim(self.points[0]) > 1:
            raise ValueError("points must be scalars, or arrays of one shape (k,)")
        _guard_poles(self.points)

    @classmethod
    def sample(cls, L: int, rng, q=None):
        pts = sample_spectral_set(rng, L + 2)
        mus = sample_spectral_set(rng, L)
        if q is None:
            q = sample_point(rng)
        return cls(L, tuple(pts), tuple(mus), q)


# u indices from _GENERIC up name the generic points of the exact orbit
# sums, so an exact input must not use them
_GENERIC = 10 ** 9


def _generic_table(points, mus, q):
    """The weight table at the generic points x_0 .. x_n, with the input's
    mus and q; the x's variables; and the map that puts the input's points
    in for them."""
    for x in (*points, *mus, q):
        if isinstance(x, LaurentPoly) and any(v.kind == "u" and v.index >= _GENERIC
                                              for v in x.variables()):
            raise ConfigError(f"u indices from {_GENERIC} up are reserved, got {x}")
    xs = [u_var(_GENERIC + k) for k in range(len(points))]
    return _WeightTable([LaurentPoly.var(x) for x in xs], mus, q), xs, dict(zip(xs, points))


class _WeightTable:
    """``weights_of`` for every ordered pair of points (``pt[x, y]`` for
    lam_x - lam_y) and every point-mu pair (``mu[x][k]`` for lam_x - mu_k)
    of one input, in the backend of its points, and the products over the
    mus A_x = prod_k a(lam_x - mu_k) (``a_mu[x]``) and B_x, of the b's."""

    def __init__(self, points, mus, q):
        self.backend = backend_of(points[0])
        self.points, self.mus, self.q = points, mus, q
        self.n = len(points) - 1
        self.every = {(x, y) for x in range(self.n + 1) for y in range(x + 1, self.n + 1)}
        self.pt = {(x, y): weights_of(px * invert(py), q)
                   for x, px in enumerate(points)
                   for y, py in enumerate(points) if x != y}
        self.mu = [[weights_of(p * invert(m), q) for m in mus] for p in points]
        self.a_mu = [math.prod((ws.a for ws in row), start=self.backend.one) for row in self.mu]
        self.b_mu = [math.prod((ws.b for ws in row), start=self.backend.one) for row in self.mu]
        # c does not depend on the spectral difference
        self.c = self.pt[0, 1].c if self.n else None

    def den(self, pairs):
        """prod b(lam_x - lam_y) over the pairs, in sorted order."""
        den = self.backend.one
        for pair in sorted(pairs):
            den = den * self.pt[pair].b
        return den

    def clearing(self, pairs):
        """D, the b-weights outside a term's denominator: num * D is over ``den(every)``."""
        return self.den(self.every - pairs)

    def coefficient(self, num, pairs):
        """A term's coefficient: exact ratio or float quotient."""
        den = self.den(pairs)
        return RationalFunction(num, den) if self.backend.exact else num / den

    @functools.cached_property
    def mu_rows(self) -> np.ndarray:
        """The point-mu weights as one (points, mus, 3) array: ``mu_rows[x, k]``
        is (a, b, c) of lam_x - mu_k, complex, or object if exact."""
        return np.array([[(ws.a, ws.b, ws.c) for ws in row] for row in self.mu]).reshape(
            len(self.mu), len(self.mus), 3)

    def b_products(self, subsets) -> np.ndarray:
        """prod B |0> over the points of each subset (all of one length), one
        column per subset, in the table's backend: one batch sweep per B
        operator, its batch gathered from ``mu_rows`` by the subsets' points
        at the operator's position."""
        points = np.array(subsets, dtype=np.intp)
        ms = [batch_monodromy(self.mu_rows[points[:, r]]) for r in range(points.shape[1])]
        v = vacuum(len(self.mus), self.backend)
        return b_products(ms, np.repeat(v[:, None], len(subsets), axis=1))


def _half_term(w: _WeightTable, p: int, r: int, others, sign: int, extra):
    """sign * c * A_p * B_r * extra * prod_k a(lam_r - lam_k) a(lam_k - lam_p)
    over the points k in others, the b-signs of the point pairs taken into
    sign: the point-pair product first, the short mu-part last."""
    acc = w.backend.one
    for k in others:
        sign *= _bsign(r, k) * _bsign(k, p)
        acc = acc * w.pt[r, k].a * w.pt[k, p].a
    acc = acc * (w.c * w.a_mu[p] * w.b_mu[r] * extra)
    return acc if sign > 0 else -acc


def _omission_parts(i: int, w: _WeightTable):
    """Numerator and denominator pair set of the i-th omission coefficient."""
    n = w.n
    if not 1 <= i <= n:
        raise ValueError(f"omission coefficient requires 1 <= i <= {n}, got i = {i}")
    others = [k for k in range(1, n + 1) if k != i]
    pairs = {(0, i)} | {(min(i, k), max(i, k)) for k in others} | {(0, k) for k in others}
    # the formula with lam_0 -> points[p], lam_i -> points[r]
    return (_half_term(w, 0, i, others, _bsign(i, 0), w.backend.one)
            + _half_term(w, i, 0, others, _bsign(0, i), w.backend.one)), pairs


def _substitution_parts(j: int, i: int, w: _WeightTable):
    """Numerator and pair set of the (j, i) pair-substitution coefficient."""
    n = w.n
    if not 1 <= i < j <= n:
        raise ValueError(f"substitution coefficient requires 1 <= i < j <= {n}, got {(j, i)}")
    others = [m for m in range(1, n + 1) if m not in (i, j)]
    pairs = ({(0, i), (0, j), (i, j)} | {(min(i, m), max(i, m)) for m in others}
             | {(min(j, m), max(j, m)) for m in others})

    def term(ii: int, jj: int):
        sign = _bsign(0, jj) * _bsign(ii, 0) * _bsign(jj, ii)
        return _half_term(w, ii, jj, others, sign, w.c * w.pt[jj, ii].a)

    return term(i, j) + term(j, i), pairs


def _terms(w: _WeightTable):
    """(numerator, denominator pair set, subset) of every term of the
    expansion over the B-operators at points[1:]; subset lists the points,
    in order, whose B-operators the term keeps (0 is the inserted
    B(lam_0))."""
    n = w.n
    for i in range(1, n + 1):
        yield (*_omission_parts(i, w), tuple(k for k in range(1, n + 1) if k != i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield (*_substitution_parts(j, i, w),
                   (0,) + tuple(k for k in range(1, n + 1) if k not in (i, j)))


def _expansion_sum(w: _WeightTable, terms, xs) -> LaurentPoly:
    """The numerator over ``w.den(w.every)`` of the sum of num / den * X over
    the terms and their values xs, exact: one ``sum_of_products`` of the pairs
    (num, ``w.clearing(pairs)`` * X), where the long numerators meet only the kernel."""
    return sum_of_products((num, w.clearing(pairs) * x)
                           for (num, pairs, _), x in zip(terms, xs))


def _orbits(w: _WeightTable):
    """The terms of ``_terms`` as two orbits (one at n = 1, which has no
    substitution, none at n = 0): for each family, the canonical term,
    omission 1 or substitution (2, 1), as (numerator, denominator pair set,
    subset), and for every term of the family, in ``_terms`` order, (sigma,
    sign, subset).
    sigma is a point permutation as an index list, sigma[k] the image of
    point k: it fixes 0, sends 1 to i (and 2 to j), and the other points in
    increasing order onto the rest; sign is its signature; subset is the
    term's own, the canonical one carried by sigma position by position."""
    n = w.n

    def image(c, *front):
        sigma = [0, *front, *(k for k in range(1, n + 1) if k not in front)]
        sign = (-1) ** sum(x > y for x, y in itertools.combinations(sigma, 2))
        return sigma, sign, tuple(sigma[k] for k in c[2])

    families = []
    if n >= 1:
        omission = (*_omission_parts(1, w), tuple(range(2, n + 1)))
        families.append((omission, [image(omission, i) for i in range(1, n + 1)]))
    if n >= 2:
        substitution = (*_substitution_parts(2, 1, w), (0,) + tuple(range(3, n + 1)))
        families.append((substitution, [image(substitution, i, j) for i in range(1, n + 1)
                                        for j in range(i + 1, n + 1)]))
    return families


def _orbit_expansion_sum(w: _WeightTable, families, xs, vs) -> LaurentPoly:
    """``_expansion_sum`` over every term of the ``_orbits`` families from
    their canonical terms and values xs alone, ``vs`` the points'
    variables: one ``sum_of_products`` of the pairs (num_c, D_c * X_c), each
    summed over its family's signed relabelings of vs."""
    images = [[({vs[k]: vs[t] for k, t in enumerate(sigma) if k}, sign)
               for sigma, sign, _ in orbit] for _, orbit in families]
    return sum_of_products(((num, w.clearing(pairs) * x)
                            for ((num, pairs, _), _), x in zip(families, xs)), images)


def _orbit_sum(points, mus, q) -> RationalFunction:
    """The default exact FZ residual: two orbit sums at the generic points,
    the input's points put in for them (see the module docstring)."""
    w, vs, to = _generic_table(points, mus, q)
    families = _orbits(w)
    zs = _call_provider(lambda s: w.b_products(s)[-1], [c[2] for c, _ in families])
    return RationalFunction(_orbit_expansion_sum(w, families, zs, vs).substitute(to),
                            w.den(w.every).substitute(to))


def _expansion_table(n: int, points, mus, q) -> _WeightTable:
    """The weight table of an expansion over n B-operators at n + 1 checked points."""
    if len(points) != n + 1:
        raise ValueError("need n+1 spectral points")
    _guard_poles(points)
    return _WeightTable(points, mus, q)


def omission_coeff(i: int, points, mus, q):
    """Coefficient of the term omitting B(lam_i); i in 1..n."""
    w = _expansion_table(len(points) - 1, points, mus, q)
    return w.coefficient(*_omission_parts(i, w))


def substitution_coeff(j: int, i: int, points, mus, q):
    """Coefficient of the term replacing B(lam_i), B(lam_j) by B(lam_0); i < j."""
    w = _expansion_table(len(points) - 1, points, mus, q)
    return w.coefficient(*_substitution_parts(j, i, w))


@dataclass
class ExpansionCoeffs:
    """All omission and substitution coefficients for n B-operators."""

    omit: list
    subst: dict


def expansion_coeffs(n: int, points, mus, q) -> ExpansionCoeffs:
    w = _expansion_table(n, points, mus, q)
    omit = [w.coefficient(*_omission_parts(i, w)) for i in range(1, n + 1)]
    subst = {
        (j, i): w.coefficient(*_substitution_parts(j, i, w))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return ExpansionCoeffs(omit, subst)


def algebraic_provider(mus, q):
    """``z_algebraic`` subset by subset: the reference for the default."""
    from .partition import z_algebraic

    def provider(lams_subset):
        return z_algebraic(list(lams_subset), list(mus), q)

    return provider


def functional_residual(inp: FunctionalInput, z_provider=None):
    """Residual of the linear relation among partition-function values.

    Returns an exact RationalFunction (zero iff its numerator vanishes) in
    the exact backend, or a complex residual in the float backend (an
    array with the provider's shape for a batch); use check_fz for the
    toleranced verdict with its scale.
    """
    res, _ = _functional_residual_with_scale(inp, z_provider)
    return res


def _call_provider(provider, subset):
    try:
        return provider(tuple(subset))
    except Exception as exc:  # noqa: BLE001 - report the provider, not us
        raise ProviderFailure(str(exc)) from exc


def _functional_residual_with_scale(inp: FunctionalInput, z_provider=None):
    points, mus, q = inp.points, inp.mus, inp.q
    if z_provider is None and _is_batch(points):
        raise ValueError("a batch of point sets needs a batched provider")
    if z_provider is None and backend_of(points[0]).exact:
        return _orbit_sum(points, mus, q), None
    w = _WeightTable(points, mus, q)
    terms = list(_terms(w))
    if z_provider is None:
        zs = _call_provider(lambda s: w.b_products(s)[-1], [subset for *_, subset in terms])
    else:
        # term by term, so that one provider value, (ncols, k) for a batch, is alive at a time
        zs = (_call_provider(z_provider, [points[k] for k in subset]) for *_, subset in terms)
    if w.backend.exact:
        return RationalFunction(_expansion_sum(w, terms, zs), w.den(w.every)), None
    total = w.backend.zero
    scale = 0.0
    for (num, pairs, _), z in zip(terms, zs):
        term = w.coefficient(num, pairs) * z
        total += term
        scale += abs(term)
    return total, scale


def check_fz(inp: FunctionalInput, z_provider=None,
             tolerance: float = 1e-9) -> CheckOutcome:
    if _is_batch(inp.points):
        raise ValueError("check_fz takes one point set, not a batch")
    res, scale = _functional_residual_with_scale(inp, z_provider)
    if isinstance(res, RationalFunction):
        res = res.num
    return verdict("functional-equation", res, scale, tolerance)


# -- operator-level checks ---------------------------------------------


def cbb_expansion_residual(n: int, points, mus, q):
    """Residual vector of the C(lam_0)-expansion over n B-operators, on the
    full 2^L space (not projected).  Exact backend: the residual times
    ``den(every)``, each entry one orbit sum at the generic points, the
    input's points put in for them.

    Returns (residual_vector, scale)."""
    if len(points) != n + 1:
        raise ValueError("need n+1 spectral points")
    exact = backend_of(points[0]).exact
    if exact:
        w, vs, to = _generic_table(points, mus, q)
        families = _orbits(w)
        terms = [c for c, _ in families]
    else:
        _guard_poles(points)
        w = _WeightTable(points, mus, q)
        terms = list(_terms(w))
    # a batch holds subsets of one length: the full product is a batch of its own
    full = w.b_products([tuple(range(1, n + 1))])
    res = apply_block(batch_monodromy(w.mu_rows[:1]), "C", full)[:, 0]
    vecs = w.b_products([s for *_, s in terms]) if terms else w.backend.full((len(res), 0))
    if exact:
        res = res * w.den(w.every) - [_orbit_expansion_sum(w, families, row, vs) for row in vecs]
        res[:] = [x.substitute(to) for x in res]
        return res, None
    scale = float(np.abs(res).sum())
    for t, (num, pairs, _) in enumerate(terms):
        term = w.coefficient(num, pairs) * vecs[:, t]
        res = res - term
        scale += float(np.abs(term).sum())
    return res, scale


def check_cbb_expansion(n: int, points, mus, q,
                        tolerance: float = 1e-9) -> CheckOutcome:
    return verdict("cbb-expansion", *cbb_expansion_residual(n, points, mus, q), tolerance)


def b_nilpotency_residual(L: int, lams, mus, q) -> np.ndarray:
    """prod_{j=1}^{L+1} B(lam_j) |0>, which must vanish identically."""
    if len(lams) != L + 1 or len(mus) != L:
        raise ValueError("need L+1 spectral points and L inhomogeneities")
    return b_product(list(lams), list(mus), q)


def check_b_nilpotency(L: int, lams, mus, q,
                       tolerance: float = 1e-10) -> CheckOutcome:
    """prod B |0> over L + 1 points must vanish.  No state has L + 1 flipped
    spins, so every entry of the float residual is a sum of products with an
    exact zero factor: it is exactly 0.0 at finite points, its scale and
    tolerance never decide, and only a NaN (or an indexing fault) fails it."""
    res = b_nilpotency_residual(L, lams, mus, q)
    scale = None
    if not backend_of(q).exact:
        # scale: the largest intermediate product of L B-applications
        inter = b_product(list(lams)[:-1], list(mus), q)
        block = build_monodromy(lams[-1], list(mus), q).block("B")
        scale = float(np.abs(inter).sum()) * float(np.abs(block).max())
    return verdict("b-nilpotency", res, scale, tolerance)
