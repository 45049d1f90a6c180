"""Expansion coefficients of C(lam_0) prod B(lam_i) |0> and the linear
functional equation they impose on the partition function.

Acting with C(lam_0) on a product of n B-operators over the vacuum expands
into two families of terms: single omissions (one B removed, coefficient
``omission_coeff``) and pair substitutions (two B's removed, B(lam_0)
inserted, coefficient ``substitution_coeff``).  Projecting the expansion at
n = L+1 onto the dual vacuum kills the left-hand side, which leaves a linear
relation among partition-function values on (L+1)-subsets of the L+2
spectral points: the functional-equation residual computed here.

Symbolic strategy: each coefficient is a ratio whose denominator is a
product of b-weights over a known set of point pairs.  Sums are assembled
over the common denominator ``prod b(lam_x - lam_y)`` for all pairs, keeping
every intermediate a genuine Laurent polynomial; the final numerator is
tested for exact zero.  Premature expansion into cleared single fractions
is avoided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleAtCoincidingPoints, ProviderFailure
from .monodromy import build_monodromy, vacuum
from .sampling import pole_distance, sample_spectral_set
from .scalar import (
    CheckOutcome,
    DEFAULT_POLICY,
    LaurentPoly,
    RationalFunction,
    TolerancePolicy,
    invert,
    is_exact,
)
from .vertex import matrix_is_zero


def _wa(x, y, q):
    """a(lam_x - lam_y) from exponentiated points."""
    z = x * invert(y) * q
    return (z - invert(z)) / 2


def _wb(x, y, q):
    z = x * invert(y)
    return (z - invert(z)) / 2


def _wc(q):
    return (q - invert(q)) / 2


def _bsign(p: int, r: int) -> int:
    """b(lam_p - lam_r) = sign * b_canonical(min, max); b is odd."""
    return 1 if p < r else -1


@dataclass(frozen=True)
class FunctionalInput:
    """The L+2 spectral points, inhomogeneities and anisotropy of one
    functional-equation instance.  points[0] is the distinguished point."""

    size: int
    points: tuple
    mus: tuple
    q: object
    policy: TolerancePolicy = DEFAULT_POLICY

    def __post_init__(self):
        if len(self.points) != self.size + 2:
            raise ValueError(f"need L+2 spectral points, got {len(self.points)}")
        if len(self.mus) != self.size:
            raise ValueError(f"need L inhomogeneities, got {len(self.mus)}")
        if not is_exact(self.points[0]):
            bad = [
                (i, j)
                for i in range(len(self.points))
                for j in range(i + 1, len(self.points))
                if pole_distance(self.points[i], self.points[j]) < self.policy.min_pole_distance
            ]
            if bad:
                raise PoleAtCoincidingPoints(f"point pairs too close: {bad}")

    @classmethod
    def sample(cls, L: int, rng, q=None, policy: TolerancePolicy = DEFAULT_POLICY):
        pts = sample_spectral_set(rng, L + 2, policy.min_pole_distance)
        mus = sample_spectral_set(rng, L, policy.min_pole_distance)
        if q is None:
            from .sampling import sample_point
            q = sample_point(rng)
        return cls(L, tuple(pts), tuple(mus), q, policy)


def _omission_parts(i: int, points, mus, q):
    """Numerator and denominator pair set of the i-th omission coefficient."""
    n = len(points) - 1
    pairs = {(0, i)}
    for k in range(1, n + 1):
        if k != i:
            pairs.add((min(i, k), max(i, k)))
            pairs.add((0, k))

    def term(p: int, r: int):
        # the formula with lam_0 -> points[p], lam_i -> points[r]
        sign = _bsign(r, p)
        acc = _wc(q)
        for mu in mus:
            acc = acc * _wa(points[p], mu, q) * _wb(points[r], mu, q)
        for k in range(1, n + 1):
            if k == i:
                continue
            sign *= _bsign(r, k) * _bsign(k, p)
            acc = acc * _wa(points[r], points[k], q) * _wa(points[k], points[p], q)
        return acc if sign > 0 else -acc

    return term(0, i) + term(i, 0), pairs


def _substitution_parts(j: int, i: int, points, mus, q):
    """Numerator and pair set of the (j, i) pair-substitution coefficient."""
    if not i < j:
        raise ValueError("substitution coefficient requires i < j")
    n = len(points) - 1
    pairs = {(0, i), (0, j), (i, j)}
    for m in range(1, n + 1):
        if m not in (i, j):
            pairs.add((min(i, m), max(i, m)))
            pairs.add((min(j, m), max(j, m)))

    def term(ii: int, jj: int):
        sign = _bsign(0, jj) * _bsign(ii, 0) * _bsign(jj, ii)
        acc = _wc(q) * _wc(q) * _wa(points[jj], points[ii], q)
        for mu in mus:
            acc = acc * _wa(points[ii], mu, q) * _wb(points[jj], mu, q)
        for m in range(1, n + 1):
            if m in (i, j):
                continue
            sign *= _bsign(jj, m) * _bsign(m, ii)
            acc = acc * _wa(points[jj], points[m], q) * _wa(points[m], points[ii], q)
        return acc if sign > 0 else -acc

    return term(i, j) + term(j, i), pairs


def _pair_b(pair, points, q):
    return _wb(points[pair[0]], points[pair[1]], q)


def _guard_poles(points, policy: TolerancePolicy):
    if is_exact(points[0]):
        return
    for x in range(len(points)):
        for y in range(x + 1, len(points)):
            if pole_distance(points[x], points[y]) < policy.min_pole_distance:
                raise PoleAtCoincidingPoints(f"points {x} and {y} coincide")


def omission_coeff(i: int, points, mus, q, policy: TolerancePolicy = DEFAULT_POLICY):
    """Coefficient of the term omitting B(lam_i); i in 1..n."""
    _guard_poles(points, policy)
    num, pairs = _omission_parts(i, points, mus, q)
    den = _den_product(pairs, points, q)
    if is_exact(num):
        return RationalFunction(num, den)
    return num / den


def substitution_coeff(j: int, i: int, points, mus, q,
                       policy: TolerancePolicy = DEFAULT_POLICY):
    """Coefficient of the term replacing B(lam_i), B(lam_j) by B(lam_0)."""
    _guard_poles(points, policy)
    num, pairs = _substitution_parts(j, i, points, mus, q)
    den = _den_product(pairs, points, q)
    if is_exact(num):
        return RationalFunction(num, den)
    return num / den


def _den_product(pairs, points, q):
    exact = is_exact(points[0])
    den = LaurentPoly.one() if exact else 1 + 0j
    for pair in sorted(pairs):
        den = den * _pair_b(pair, points, q)
    return den


@dataclass
class ExpansionCoeffs:
    """All omission and substitution coefficients for n B-operators."""

    omit: list
    subst: dict


def expansion_coeffs(n: int, points, mus, q,
                     policy: TolerancePolicy = DEFAULT_POLICY) -> ExpansionCoeffs:
    omit = [omission_coeff(i, points, mus, q, policy) for i in range(1, n + 1)]
    subst = {
        (j, i): substitution_coeff(j, i, points, mus, q, policy)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }
    return ExpansionCoeffs(omit, subst)


def algebraic_provider(mus, q):
    """Default partition-function provider backed by the operator product."""
    from .partition import z_algebraic

    def provider(lams_subset):
        return z_algebraic(list(lams_subset), list(mus), q)

    return provider


def functional_residual(inp: FunctionalInput, z_provider=None):
    """Residual of the linear relation among partition-function values.

    Returns an exact RationalFunction (zero iff its numerator vanishes) in
    the exact backend, or a complex residual in the float backend; use
    check_fz for the toleranced verdict with its scale.
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
    n = inp.size + 1
    if z_provider is None:
        z_provider = algebraic_provider(mus, q)
    if is_exact(points[0]):
        total = LaurentPoly.zero()
        for cleared, subset in _cleared_terms(points, mus, q):
            total = total + cleared * _call_provider(z_provider, [points[k] for k in subset])
        return RationalFunction(total, _den_product(_all_pairs(n), points, q)), None
    total = 0j
    scale = 0.0
    for kind, idx, subset in _term_index(n):
        if kind == "omit":
            coeff = omission_coeff(idx[0], points, mus, q, inp.policy)
        else:
            coeff = substitution_coeff(idx[0], idx[1], points, mus, q, inp.policy)
        term = coeff * _call_provider(z_provider, [points[k] for k in subset])
        total += term
        scale += abs(term)
    return total, scale


def _term_index(n: int):
    """(kind, indices, subset) of every term of the expansion over n
    B-operators; subset lists the points, in order, whose B-operators the
    term keeps (0 is the inserted B(lam_0))."""
    for i in range(1, n + 1):
        yield "omit", (i,), tuple(k for k in range(1, n + 1) if k != i)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield "subst", (j, i), (0,) + tuple(k for k in range(1, n + 1) if k not in (i, j))


def _term_parts(kind: str, idx: tuple, points, mus, q):
    if kind == "omit":
        return _omission_parts(idx[0], points, mus, q)
    return _substitution_parts(idx[0], idx[1], points, mus, q)


def _all_pairs(n: int) -> set:
    return {(x, y) for x in range(n + 1) for y in range(x + 1, n + 1)}


def _cleared_terms(points, mus, q):
    """Yield (cleared coefficient, subset) for every term of the expansion
    over the B-operators at points[1:].

    The cleared coefficient is the term's numerator times the b-weights of
    every point pair outside its denominator, so all terms share the
    denominator ``_den_product(_all_pairs(n), points, q)``.  Exact backend.
    """
    n = len(points) - 1
    all_pairs = _all_pairs(n)
    bvals = {p: _pair_b(p, points, q) for p in sorted(all_pairs)}
    for kind, idx, subset in _term_index(n):
        num, pairs = _term_parts(kind, idx, points, mus, q)
        cof = LaurentPoly.one()
        for p in sorted(all_pairs - pairs):
            cof = cof * bvals[p]
        yield num * cof, subset


def check_fz(inp: FunctionalInput, z_provider=None,
             tolerance: float = 1e-9) -> CheckOutcome:
    res, scale = _functional_residual_with_scale(inp, z_provider)
    if isinstance(res, RationalFunction):
        return CheckOutcome("functional-equation", res.is_zero(), exact=True)
    r = abs(res)
    return CheckOutcome("functional-equation", r <= tolerance * scale, exact=False,
                        residual=r, scale=scale, tolerance=tolerance)


# -- operator-level checks ---------------------------------------------


def _b_product_vector(points, mus, q):
    """prod B(points[k]) |0>, applied right to left."""
    L = len(mus)
    exact = is_exact(q) or (points and is_exact(points[0]))
    v = vacuum(L, exact)
    for p in reversed(points):
        v = build_monodromy(p, mus, q).apply("B", v)
    return v


def cbb_expansion_residual(n: int, points, mus, q,
                           policy: TolerancePolicy = DEFAULT_POLICY):
    """Residual vector of the C(lam_0)-expansion over n B-operators, on the
    full 2^L space (not projected).  Exact backend: denominators cleared.

    Returns (residual_vector, scale)."""
    _guard_poles(points, policy)
    exact = is_exact(points[0])
    lam0 = points[0]
    bs = points[1:]
    c_of_prod = build_monodromy(lam0, mus, q).apply("C", _b_product_vector(bs, mus, q))
    if exact:
        res = c_of_prod * _den_product(_all_pairs(n), points, q)
        for cleared, subset in _cleared_terms(points, mus, q):
            res = res - _b_product_vector([points[k] for k in subset], mus, q) * cleared
        return res, None
    res = c_of_prod.astype(complex)
    scale = float(np.abs(res).sum())
    for kind, idx, subset in _term_index(n):
        if kind == "omit":
            coeff = omission_coeff(idx[0], points, mus, q, policy)
        else:
            coeff = substitution_coeff(idx[0], idx[1], points, mus, q, policy)
        term = coeff * _b_product_vector([points[k] for k in subset], mus, q)
        res = res - term
        scale += float(np.abs(term).sum())
    return res, scale


def check_cbb_expansion(n: int, points, mus, q,
                        policy: TolerancePolicy = DEFAULT_POLICY,
                        tolerance: float = 1e-9) -> CheckOutcome:
    res, scale = cbb_expansion_residual(n, points, mus, q, policy)
    if scale is None:
        return CheckOutcome("cbb-expansion", matrix_is_zero(res), exact=True)
    r = float(np.abs(res).max())
    return CheckOutcome("cbb-expansion", r <= tolerance * scale, exact=False,
                        residual=r, scale=scale, tolerance=tolerance)


def b_nilpotency_residual(L: int, lams, mus, q) -> np.ndarray:
    """prod_{j=1}^{L+1} B(lam_j) |0>, which must vanish identically."""
    if len(lams) != L + 1:
        raise ValueError("need L+1 spectral points")
    return _b_product_vector(list(lams), list(mus), q)


def check_b_nilpotency(L: int, lams, mus, q,
                       tolerance: float = 1e-10) -> CheckOutcome:
    res = b_nilpotency_residual(L, lams, mus, q)
    if is_exact(q):
        return CheckOutcome("b-nilpotency", matrix_is_zero(res), exact=True)
    # scale: the largest intermediate product of L B-applications
    inter = _b_product_vector(list(lams)[:-1], list(mus), q)
    scale = float(np.abs(inter).sum()) * float(
        np.abs(np.asarray(
            build_monodromy(lams[-1], list(mus), q).block("B"), dtype=complex)).max())
    r = float(np.abs(res).max())
    return CheckOutcome("b-nilpotency", r <= tolerance * max(scale, 1e-300), exact=False,
                        residual=r, scale=scale, tolerance=tolerance)
