"""Monodromy matrix, its A/B/C/D blocks and the operator-identity checks.

The monodromy matrix is the ordered product of one-site L-matrices along a
row, left to right, with the auxiliary space traced through the product.
Its four auxiliary blocks act on the 2^L quantum space:

    A = T[0,0]   B = T[0,1]   C = T[1,0]   D = T[1,1]

Both backends apply a block matrix-free, as a right-to-left sweep of sparse
one-site factors: O(L 2^L) scalar operations per vector.  The sweep takes a
vector (2^L,) or a batch (2^L, k) of column vectors, so ``Monodromy.block``
materializes a whole block as one sweep over the identity, for the
identities that need a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidingSpectralPoints, DimensionMismatch
from .sampling import pole_distance
from .scalar import (
    CheckOutcome,
    DEFAULT_POLICY,
    LaurentPoly,
    TolerancePolicy,
    invert,
    is_exact,
)
from .vertex import matrix_abs_sum, matrix_is_zero, permutation_matrix, build_L, weights_of

_BLOCKS = ("A", "B", "C", "D")


def _zero(exact: bool):
    return LaurentPoly.zero() if exact else 0j


def _one(exact: bool):
    return LaurentPoly.one() if exact else 1 + 0j


def vacuum(L: int, exact: bool = True) -> np.ndarray:
    """|0>: all quantum spins in the first basis state."""
    v = np.full(2 ** L, _zero(exact), dtype=object if exact else complex)
    v[0] = _one(exact)
    return v


def dual_vacuum(L: int, exact: bool = True) -> np.ndarray:
    """|0bar>: all quantum spins in the second basis state."""
    v = np.full(2 ** L, _zero(exact), dtype=object if exact else complex)
    v[-1] = _one(exact)
    return v


def _eye(n: int, exact: bool) -> np.ndarray:
    if not exact:
        return np.eye(n, dtype=complex)
    m = np.full((n, n), LaurentPoly.zero(), dtype=object)
    for i in range(n):
        m[i, i] = LaurentPoly.one()
    return m


@dataclass
class Monodromy:
    """Monodromy matrix data for one spectral point u over inhomogeneities ws."""

    size: int
    u: object
    ws: tuple
    q: object
    exact: bool
    weights: tuple  # vertex.Weights of each site, at u / w_j
    _blocks: dict = field(default_factory=dict, repr=False)
    # always the sweep; a constant because perfbench's traced run still reads it
    representation = "matrix-free"

    def block(self, name: str) -> np.ndarray:
        """The block as a 2^L x 2^L matrix: one sweep over the identity, cached."""
        if name not in self._blocks:
            self._blocks[name] = apply_block(self, name, _eye(2 ** self.size, self.exact))
        return self._blocks[name]

    def apply(self, name: str, vec: np.ndarray) -> np.ndarray:
        return apply_block(self, name, vec)


def build_monodromy(u, ws, q) -> Monodromy:
    """Ordered product L_A1(lam-mu_1) ... L_AL(lam-mu_L) over the aux space."""
    ws = tuple(ws)
    return Monodromy(size=len(ws), u=u, ws=ws, q=q, exact=is_exact(u),
                     weights=tuple(weights_of(u * invert(wv), q) for wv in ws))


def _apply_site(phi0: np.ndarray, phi1: np.ndarray, j: int, L: int, w):
    """The one-site factor at site j (1-based) on the aux pair (phi0, phi1):
    (A phi0 + B phi1, C phi0 + D phi1), with A = diag(a, b), D = diag(b, a),
    B = c X^- (raises |0>_j to |1>_j) and C = c X^+ acting on site j."""
    shape = (2 ** (j - 1), 2, 2 ** (L - j)) + phi0.shape[1:]
    p0, p1 = phi0.reshape(shape), phi1.reshape(shape)
    new0, new1 = np.empty_like(p0), np.empty_like(p1)
    new0[:, 0] = p0[:, 0] * w.a
    new0[:, 1] = p0[:, 1] * w.b + p1[:, 0] * w.c
    new1[:, 0] = p0[:, 1] * w.c + p1[:, 0] * w.b
    new1[:, 1] = p1[:, 1] * w.a
    return new0.reshape(phi0.shape), new1.reshape(phi1.shape)


def apply_block(m: Monodromy, name: str, vec: np.ndarray) -> np.ndarray:
    """Apply block A/B/C/D to a state vector (2^L,) or to each column of a
    batch (2^L, k).

    The pair of auxiliary components is propagated through the one-site
    factors right to left.
    """
    if name not in _BLOCKS:
        raise KeyError(name)
    if len(vec) != 2 ** m.size:
        raise DimensionMismatch(f"vector of length {len(vec)} for L={m.size}")
    row, col = divmod(_BLOCKS.index(name), 2)
    phi = [np.full_like(vec, _zero(m.exact)), np.full_like(vec, _zero(m.exact))]
    phi[col] = vec.copy()
    for j in range(m.size, 0, -1):
        phi = _apply_site(phi[0], phi[1], j, m.size, m.weights[j - 1])
    return phi[row]


def _lift_aux(m: Monodromy, slot: int) -> np.ndarray:
    """Embed a monodromy (2x2 aux of operators) into aux1 x aux2 x quantum."""
    dim = 2 ** m.size
    big = 4 * dim
    out = np.full((big, big), _zero(m.exact), dtype=object) if m.exact \
        else np.zeros((big, big), dtype=complex)
    for r in range(2):
        for c in range(2):
            E = np.zeros((2, 2))
            E[r, c] = 1.0
            aux = np.kron(E, np.eye(2)) if slot == 0 else np.kron(np.eye(2), E)
            blk = m.block(_BLOCKS[2 * r + c])
            for ar in range(4):
                for ac in range(4):
                    if aux[ar, ac]:
                        out[ar * dim:(ar + 1) * dim, ac * dim:(ac + 1) * dim] += blk
    return out


def rtt_residual(u, v, ws, q) -> tuple[np.ndarray, float]:
    """R(lam-nu) T1(lam) T2(nu) - T1(nu) T2(lam) R(lam-nu) on aux x aux x 2^L,
    together with a float scale (0.0 in the exact backend)."""
    dim = 2 ** len(ws)
    exact = is_exact(u)
    Tu = build_monodromy(u, ws, q)
    Tv = build_monodromy(v, ws, q)
    T1u = _lift_aux(Tu, 0)
    T2v = _lift_aux(Tv, 1)
    T1v = _lift_aux(Tv, 0)
    T2u = _lift_aux(Tu, 1)
    R4 = permutation_matrix(exact) @ build_L(u * invert(v), q)
    R = np.kron(R4, _eye(dim, exact))
    lhs = R @ (T1u @ T2v)
    rhs = (T1v @ T2u) @ R
    scale = 0.0 if exact else matrix_abs_sum(lhs) + matrix_abs_sum(rhs)
    return lhs - rhs, scale


def check_rtt(u, v, ws, q, tolerance: float = 1e-9, rng=None,
              probes: int = 8) -> CheckOutcome:
    """Exchange-relation check.  The full 4*2^L matrix identity is formed for
    L <= 4 (or exact backend); larger float sizes probe random vectors."""
    L = len(ws)
    exact = is_exact(u)
    if exact or L <= 4:
        res, scale = rtt_residual(u, v, ws, q)
        if exact:
            return CheckOutcome("rtt", matrix_is_zero(res), exact=True)
        r = float(np.abs(res).max())
        return CheckOutcome("rtt", r <= tolerance * scale, exact=False,
                            residual=r, scale=scale, tolerance=tolerance)
    if rng is None:
        raise ValueError("probing RTT for L > 4 requires an rng")
    dim = 2 ** L
    mu_ = build_monodromy(u, ws, q)
    mv_ = build_monodromy(v, ws, q)
    R4 = permutation_matrix(False) @ build_L(u / v, q)
    worst_r, worst_s = 0.0, 0.0
    for _ in range(probes):
        vec = rng.standard_normal(4 * dim) + 1j * rng.standard_normal(4 * dim)
        lhs = _rtt_apply(R4, mu_, mv_, vec, r_first=True)
        rhs = _rtt_apply(R4, mv_, mu_, vec, r_first=False)
        worst_r = max(worst_r, float(np.abs(lhs - rhs).max()))
        worst_s += float(np.abs(lhs).sum() + np.abs(rhs).sum())
    return CheckOutcome("rtt", worst_r <= tolerance * worst_s, exact=False,
                        residual=worst_r, scale=worst_s, tolerance=tolerance)


def _rtt_apply(R4, m1: Monodromy, m2: Monodromy, vec, r_first: bool):
    """Apply R T1 T2 (or T1 T2 R) matrix-free on aux1 x aux2 x quantum."""
    dim = 2 ** m1.size
    comps = [vec[k * dim:(k + 1) * dim].copy() for k in range(4)]

    def apply_R(cs):
        out = [np.zeros(dim, dtype=complex) for _ in range(4)]
        for r in range(4):
            for c in range(4):
                if R4[r, c] != 0:
                    out[r] += R4[r, c] * cs[c]
        return out

    def apply_T(cs, m: Monodromy, slot: int):
        out = []
        for k in range(4):
            a1, a2 = divmod(k, 2)
            row = a1 if slot == 0 else a2
            acc = np.zeros(dim, dtype=complex)
            for colbit in range(2):
                src = (colbit * 2 + a2) if slot == 0 else (a1 * 2 + colbit)
                name = _BLOCKS[2 * row + colbit]
                acc += apply_block(m, name, cs[src])
            out.append(acc)
        return out

    if r_first:
        comps = apply_T(comps, m2, 1)
        comps = apply_T(comps, m1, 0)
        comps = apply_R(comps)
    else:
        comps = apply_R(comps)
        comps = apply_T(comps, m2, 1)
        comps = apply_T(comps, m1, 0)
    return np.concatenate(comps)


_COMM_RULES = ("AB", "DB", "CB", "BB")


def commutation_residual(rule: str, lam, nu, ws, q) -> tuple[np.ndarray, float]:
    """Denominator-cleared form of one exchange rule, as an operator identity.

    AB:  b(nu-lam) A(lam)B(nu) - a(nu-lam) B(nu)A(lam) + c B(lam)A(nu) = 0
    DB:  b(lam-nu) D(lam)B(nu) - a(lam-nu) B(nu)D(lam) + c B(lam)D(nu) = 0
    CB:  b(lam-nu) [C(lam),B(nu)] - c (A(nu)D(lam) - A(lam)D(nu)) = 0
    BB:  [B(lam),B(nu)] = 0
    """
    if rule not in _COMM_RULES:
        raise KeyError(rule)
    ml = build_monodromy(lam, ws, q)
    mn = build_monodromy(nu, ws, q)
    exact = is_exact(lam)
    if rule == "BB":
        t1 = ml.block("B") @ mn.block("B")
        t2 = mn.block("B") @ ml.block("B")
        scale = 0.0 if exact else matrix_abs_sum(t1) + matrix_abs_sum(t2)
        return t1 - t2, scale
    if rule == "AB":
        w = weights_of(nu * invert(lam), q)
        t1 = w.b * (ml.block("A") @ mn.block("B"))
        t2 = w.a * (mn.block("B") @ ml.block("A"))
        t3 = w.c * (ml.block("B") @ mn.block("A"))
    elif rule == "DB":
        w = weights_of(lam * invert(nu), q)
        t1 = w.b * (ml.block("D") @ mn.block("B"))
        t2 = w.a * (mn.block("B") @ ml.block("D"))
        t3 = w.c * (ml.block("B") @ mn.block("D"))
    else:  # CB
        w = weights_of(lam * invert(nu), q)
        t1 = w.b * (ml.block("C") @ mn.block("B") - mn.block("B") @ ml.block("C"))
        t2 = w.c * (mn.block("A") @ ml.block("D") - ml.block("A") @ mn.block("D"))
        scale = 0.0 if exact else matrix_abs_sum(t1) + matrix_abs_sum(t2)
        return t1 - t2, scale
    scale = 0.0 if exact else (matrix_abs_sum(t1) + matrix_abs_sum(t2) + matrix_abs_sum(t3))
    return t1 - t2 + t3, scale


def check_commutation(rule: str, lam, nu, ws, q,
                      policy: TolerancePolicy = DEFAULT_POLICY,
                      tolerance: float = 1e-9) -> CheckOutcome:
    exact = is_exact(lam)
    if not exact and rule in ("AB", "DB", "CB"):
        if pole_distance(lam, nu) < policy.min_pole_distance:
            raise CoincidingSpectralPoints(
                f"lam and nu too close for rule {rule}: b(lam-nu) ~ 0")
    res, scale = commutation_residual(rule, lam, nu, ws, q)
    name = f"commutation-{rule}"
    if exact:
        return CheckOutcome(name, matrix_is_zero(res), exact=True)
    r = float(np.abs(res).max())
    return CheckOutcome(name, r <= tolerance * scale, exact=False,
                        residual=r, scale=scale, tolerance=tolerance)


def triangular_action_residuals(u, ws, q) -> dict[str, np.ndarray]:
    """Residual vectors of all eight vacuum/dual-vacuum block actions.

    A|0> - prod a |0>,  D|0> - prod b |0>,  C|0>,  B|0bar>,
    A|0bar> - prod b |0bar>,  D|0bar> - prod a |0bar>, and the two
    'must be nonzero' actions B|0>, C|0bar> returned as-is for inspection.
    """
    L = len(ws)
    exact = is_exact(u)
    m = build_monodromy(u, ws, q)
    v0 = vacuum(L, exact)
    v1 = dual_vacuum(L, exact)
    prod_a = _one(exact)
    prod_b = _one(exact)
    for w in m.weights:
        prod_a = prod_a * w.a
        prod_b = prod_b * w.b
    return {
        "A|0>": m.apply("A", v0) - v0 * prod_a,
        "D|0>": m.apply("D", v0) - v0 * prod_b,
        "C|0>": m.apply("C", v0),
        "B|0bar>": m.apply("B", v1),
        "A|0bar>": m.apply("A", v1) - v1 * prod_b,
        "D|0bar>": m.apply("D", v1) - v1 * prod_a,
        "B|0> (nonzero)": m.apply("B", v0),
        "C|0bar> (nonzero)": m.apply("C", v1),
    }


def check_triangular(u, ws, q, tolerance: float = 1e-9) -> CheckOutcome:
    exact = is_exact(u)
    res = triangular_action_residuals(u, ws, q)
    nonzero_keys = [k for k in res if "nonzero" in k]
    zero_keys = [k for k in res if "nonzero" not in k]
    if exact:
        ok_zero = all(matrix_is_zero(res[k]) for k in zero_keys)
        ok_nonzero = all(not matrix_is_zero(res[k]) for k in nonzero_keys)
        return CheckOutcome("triangular-actions", ok_zero and ok_nonzero, exact=True,
                            details={"nonzero_actions_present": ok_nonzero})
    scale = sum(float(np.abs(v).sum()) for v in res.values())
    worst = max(float(np.abs(res[k]).max()) for k in zero_keys)
    ok_nonzero = all(float(np.abs(res[k]).max()) > tolerance * scale for k in nonzero_keys)
    return CheckOutcome("triangular-actions", worst <= tolerance * scale and ok_nonzero,
                        exact=False, residual=worst, scale=scale, tolerance=tolerance)
