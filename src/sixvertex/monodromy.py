"""Monodromy matrix, its A/B/C/D blocks and the operator-identity checks.

The monodromy matrix is the ordered product of one-site L-matrices along a
row, left to right, with the auxiliary space traced through the product.
Its four auxiliary blocks act on the 2^L quantum space:

    A = T[0,0]   B = T[0,1]   C = T[1,0]   D = T[1,1]

The float backend materializes the blocks densely for L <= 6.  The exact
backend, and the float backend beyond L = 6, apply them matrix-free as a
sweep of sparse one-site factors, O(L 2^L) scalar operations per
application instead of the dense product's O(L 8^L); ``Monodromy.block``
materializes a matrix-free block on request by applying it to the basis
vectors.
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
from .vertex import matrix_abs_sum, matrix_is_zero, permutation_matrix, build_L

_BLOCKS = ("A", "B", "C", "D")
_DENSE_LIMIT = 6


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


def _site_weights(z, q):
    """The weights a, b, c of one site at exponentiated argument z."""
    zq = z * q
    return (zq - invert(zq)) / 2, (z - invert(z)) / 2, (q - invert(q)) / 2


def _site_blocks(z, q, exact: bool):
    """The four aux blocks of the one-site L-matrix as local 2x2 matrices."""
    a, b, c = _site_weights(z, q)
    zero = _zero(exact)
    dt = object if exact else complex
    return {
        "A": np.array([[a, zero], [zero, b]], dtype=dt),
        "B": np.array([[zero, zero], [c, zero]], dtype=dt),
        "C": np.array([[zero, c], [zero, zero]], dtype=dt),
        "D": np.array([[b, zero], [zero, a]], dtype=dt),
    }


def _site_matrix(op2: np.ndarray, j: int, L: int) -> np.ndarray:
    """Lift a local 2x2 operator at site j (1-based) to the full chain."""
    pre = np.eye(2 ** (j - 1), dtype=op2.dtype) if op2.dtype != object else _obj_eye(2 ** (j - 1))
    post = np.eye(2 ** (L - j), dtype=op2.dtype) if op2.dtype != object else _obj_eye(2 ** (L - j))
    return np.kron(np.kron(pre, op2), post)


def _obj_eye(n: int) -> np.ndarray:
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
    representation: str  # "dense" or "matrix-free"
    _blocks: dict = field(default_factory=dict, repr=False)

    def block(self, name: str) -> np.ndarray:
        """The block as a 2^L x 2^L matrix; a matrix-free monodromy builds
        it column by column from the basis vectors and keeps it."""
        if name not in _BLOCKS:
            raise KeyError(name)
        if name not in self._blocks:
            dim = 2 ** self.size
            cols = []
            for j in range(dim):
                e = np.full(dim, _zero(self.exact), dtype=object if self.exact else complex)
                e[j] = _one(self.exact)
                cols.append(apply_block(self, name, e))
            self._blocks[name] = np.stack(cols, axis=1)
        return self._blocks[name]

    def apply(self, name: str, vec: np.ndarray) -> np.ndarray:
        return apply_block(self, name, vec)


def build_monodromy(u, ws, q, representation: str = "auto") -> Monodromy:
    """Ordered product L_A1(lam-mu_1) ... L_AL(lam-mu_L) over the aux space."""
    ws = tuple(ws)
    L = len(ws)
    exact = is_exact(u)
    if representation == "auto":
        representation = "dense" if (not exact and L <= _DENSE_LIMIT) else "matrix-free"
    m = Monodromy(size=L, u=u, ws=ws, q=q, exact=exact, representation=representation)
    if representation == "dense":
        dim = 2 ** L
        eye = _obj_eye(dim) if exact else np.eye(dim, dtype=complex)
        zero = np.full((dim, dim), _zero(exact), dtype=object) if exact \
            else np.zeros((dim, dim), dtype=complex)
        T = {(0, 0): eye, (0, 1): zero.copy(), (1, 0): zero.copy(), (1, 1): eye.copy()}
        for j, wv in enumerate(ws, start=1):
            blk = _site_blocks(u * invert(wv), q, exact)
            site = {
                (0, 0): _site_matrix(blk["A"], j, L),
                (0, 1): _site_matrix(blk["B"], j, L),
                (1, 0): _site_matrix(blk["C"], j, L),
                (1, 1): _site_matrix(blk["D"], j, L),
            }
            T = {
                (r, c): T[(r, 0)] @ site[(0, c)] + T[(r, 1)] @ site[(1, c)]
                for r in range(2) for c in range(2)
            }
        m._blocks = {"A": T[(0, 0)], "B": T[(0, 1)], "C": T[(1, 0)], "D": T[(1, 1)]}
    return m


def _apply_site(name: str, vec: np.ndarray, j: int, L: int, weights, exact: bool):
    """Apply one aux block of the one-site L-matrix at site j (1-based)."""
    a, b, c = weights
    pre, post = 2 ** (j - 1), 2 ** (L - j)
    v = vec.reshape(pre, 2, post)
    out = np.full_like(vec, _zero(exact)).reshape(pre, 2, post)
    if name == "A":
        out[:, 0, :] = v[:, 0, :] * a
        out[:, 1, :] = v[:, 1, :] * b
    elif name == "D":
        out[:, 0, :] = v[:, 0, :] * b
        out[:, 1, :] = v[:, 1, :] * a
    elif name == "B":  # c X^- : raises |0>_j to |1>_j
        out[:, 1, :] = v[:, 0, :] * c
    elif name == "C":  # c X^+
        out[:, 0, :] = v[:, 1, :] * c
    return out.reshape(vec.shape)


def apply_block(m: Monodromy, name: str, vec: np.ndarray) -> np.ndarray:
    """Apply block A/B/C/D to a state vector.

    The matrix-free path propagates the pair of auxiliary components through
    the one-site factors right to left, which agrees with the dense product.
    """
    if name not in _BLOCKS:
        raise KeyError(name)
    if len(vec) != 2 ** m.size:
        raise DimensionMismatch(f"vector of length {len(vec)} for L={m.size}")
    if m.representation == "dense":
        return m._blocks[name] @ vec
    row, col = divmod(_BLOCKS.index(name), 2)
    exact, L = m.exact, m.size
    zero_vec = np.full_like(vec, _zero(exact))
    phi = [zero_vec.copy(), zero_vec.copy()]
    phi[col] = vec.copy()
    for j in range(L, 0, -1):
        w = _site_weights(m.u * invert(m.ws[j - 1]), m.q)
        new0 = _apply_site("A", phi[0], j, L, w, exact) + _apply_site("B", phi[1], j, L, w, exact)
        new1 = _apply_site("C", phi[0], j, L, w, exact) + _apply_site("D", phi[1], j, L, w, exact)
        phi = [new0, new1]
    return phi[row]


def _lift_aux(block_mats: dict, slot: int, dim: int) -> np.ndarray:
    """Embed a monodromy (2x2 aux of operators) into aux1 x aux2 x quantum."""
    exact = block_mats["A"].dtype == object
    big = 4 * dim
    out = np.full((big, big), _zero(exact), dtype=object) if exact \
        else np.zeros((big, big), dtype=complex)
    for r in range(2):
        for c in range(2):
            E = np.zeros((2, 2))
            E[r, c] = 1.0
            aux = np.kron(E, np.eye(2)) if slot == 0 else np.kron(np.eye(2), E)
            name = _BLOCKS[2 * r + c]
            blk = block_mats[name]
            for ar in range(4):
                for ac in range(4):
                    if aux[ar, ac]:
                        out[ar * dim:(ar + 1) * dim, ac * dim:(ac + 1) * dim] += blk
    return out


def rtt_residual(u, v, ws, q) -> tuple[np.ndarray, float]:
    """R(lam-nu) T1(lam) T2(nu) - T1(nu) T2(lam) R(lam-nu) on aux x aux x 2^L,
    together with a float scale (0.0 in the exact backend)."""
    L = len(ws)
    dim = 2 ** L
    exact = is_exact(u)
    Tu = build_monodromy(u, ws, q, "dense")._blocks
    Tv = build_monodromy(v, ws, q, "dense")._blocks
    T1u = _lift_aux(Tu, 0, dim)
    T2v = _lift_aux(Tv, 1, dim)
    T1v = _lift_aux(Tv, 0, dim)
    T2u = _lift_aux(Tu, 1, dim)
    R4 = permutation_matrix(exact) @ build_L(u * invert(v), q)
    eye = _obj_eye(dim) if exact else np.eye(dim, dtype=complex)
    R = np.kron(R4, eye)
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
    Tl = build_monodromy(lam, ws, q, "dense")._blocks
    Tn = build_monodromy(nu, ws, q, "dense")._blocks
    exact = is_exact(lam)
    c = (q - invert(q)) / 2
    if rule == "BB":
        t1 = Tl["B"] @ Tn["B"]
        t2 = Tn["B"] @ Tl["B"]
        scale = 0.0 if exact else matrix_abs_sum(t1) + matrix_abs_sum(t2)
        return t1 - t2, scale
    if rule == "AB":
        z = nu * invert(lam)
        zq = z * q
        a_d = (zq - invert(zq)) / 2
        b_d = (z - invert(z)) / 2
        t1 = b_d * (Tl["A"] @ Tn["B"])
        t2 = a_d * (Tn["B"] @ Tl["A"])
        t3 = c * (Tl["B"] @ Tn["A"])
    elif rule == "DB":
        z = lam * invert(nu)
        zq = z * q
        a_d = (zq - invert(zq)) / 2
        b_d = (z - invert(z)) / 2
        t1 = b_d * (Tl["D"] @ Tn["B"])
        t2 = a_d * (Tn["B"] @ Tl["D"])
        t3 = c * (Tl["B"] @ Tn["D"])
    else:  # CB
        z = lam * invert(nu)
        b_d = (z - invert(z)) / 2
        t1 = b_d * (Tl["C"] @ Tn["B"] - Tn["B"] @ Tl["C"])
        t2 = c * (Tn["A"] @ Tl["D"] - Tl["A"] @ Tn["D"])
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
    m = build_monodromy(u, ws, q, "dense")
    v0 = vacuum(L, exact)
    v1 = dual_vacuum(L, exact)
    prod_a = _one(exact)
    prod_b = _one(exact)
    for wv in ws:
        z = u * invert(wv)
        zq = z * q
        prod_a = prod_a * (zq - invert(zq)) / 2
        prod_b = prod_b * (z - invert(z)) / 2
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
