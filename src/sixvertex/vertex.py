"""Statistical weights, L-matrix, R-matrix and the Yang-Baxter check.

Spectral arguments are passed in exponentiated form: the difference
lambda - mu enters as z = e^(lambda-mu), a Laurent monomial in the exact
backend or a nonzero complex number in the float backend.  The weights are

    a = (z q - (z q)^-1) / 2      # sinh(lambda - mu + gamma)
    b = (z - z^-1) / 2            # sinh(lambda - mu)
    c = (q - q^-1) / 2            # sinh(gamma), independent of z

Index conventions, fixed once and validated downstream by the forcing test
Z(L=1) = c: basis pairs are ordered (aux state, quantum state) with 0 the
first basis vector; matrix rows carry outgoing indices and columns incoming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import CheckOutcome, LaurentPoly, invert, is_exact


@dataclass(frozen=True)
class Weights:
    a: object
    b: object
    c: object


def weights_of(z, q) -> Weights:
    """Vertex weights for spectral difference z = e^(lambda-mu)."""
    zq = z * q
    return Weights(
        a=(zq - invert(zq)) / 2,
        b=(z - invert(z)) / 2,
        c=(q - invert(q)) / 2,
    )


def l_matrix_from_weights(wts: Weights) -> np.ndarray:
    """Place a, b, c on the six allowed positions of the 4x4 one-site matrix."""
    a, b, c = wts.a, wts.b, wts.c
    exact = is_exact(a)
    zero = LaurentPoly.zero() if exact else 0j
    rows = [
        [a, zero, zero, zero],
        [zero, b, c, zero],
        [zero, c, b, zero],
        [zero, zero, zero, a],
    ]
    return np.array(rows, dtype=object if exact else complex)


def build_L(z, q) -> np.ndarray:
    return l_matrix_from_weights(weights_of(z, q))


def permutation_matrix(exact: bool = True) -> np.ndarray:
    """The 4x4 swap matrix P on C^2 x C^2."""
    if exact:
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
    else:
        one, zero = 1 + 0j, 0j
    return np.array(
        [[one, zero, zero, zero],
         [zero, zero, one, zero],
         [zero, one, zero, zero],
         [zero, zero, zero, one]],
        dtype=object if exact else complex)


def build_R(z, q) -> np.ndarray:
    """R = P L; the intertwiner appearing in the exchange relation."""
    exact = is_exact(z) or is_exact(q)
    return permutation_matrix(exact) @ build_L(z, q)


def delta_residual(z, q):
    """Residual of the integrable-manifold identity, cleared of denominators:
    a^2 + b^2 - c^2 - a b (q + q^-1)."""
    wts = weights_of(z, q)
    return wts.a * wts.a + wts.b * wts.b - wts.c * wts.c - wts.a * wts.b * (q + invert(q))


def embed_two_site(m4: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Lift a 4x4 two-site matrix to act on factors i, j of (C^2)^n (0-based)."""
    exact = m4.dtype == object
    dim = 2 ** n
    zero = LaurentPoly.zero() if exact else 0j
    out = np.full((dim, dim), zero, dtype=m4.dtype)
    for r in range(dim):
        bits = [(r >> (n - 1 - k)) & 1 for k in range(n)]
        for si in range(2):
            for sj in range(2):
                entry = m4[2 * bits[i] + bits[j], 2 * si + sj]
                if isinstance(entry, LaurentPoly):
                    if entry.is_zero():
                        continue
                elif entry == 0:
                    continue
                cb = list(bits)
                cb[i], cb[j] = si, sj
                col = 0
                for k, v in enumerate(cb):
                    col |= v << (n - 1 - k)
                out[r, col] = out[r, col] + entry
    return out


def matrix_is_zero(m: np.ndarray) -> bool:
    """Exact zero test, entry-wise (exact backend only)."""
    for entry in m.flat:
        if isinstance(entry, LaurentPoly):
            if not entry.is_zero():
                return False
        elif entry != 0:
            return False
    return True


def matrix_abs_sum(m: np.ndarray) -> float:
    return float(np.abs(np.asarray(m, dtype=complex)).sum())


def yang_baxter_residual(u_lam, u_mu, u_nu, q) -> tuple[np.ndarray, float]:
    """L12(lam-mu) L13(lam-nu) L23(mu-nu) minus the reversed product, on
    the triple tensor space, together with a float scale (0.0 in the exact
    backend).  Arguments are the exponentiated points."""
    l12 = embed_two_site(build_L(u_lam * invert(u_mu), q), 0, 1, 3)
    l13 = embed_two_site(build_L(u_lam * invert(u_nu), q), 0, 2, 3)
    l23 = embed_two_site(build_L(u_mu * invert(u_nu), q), 1, 2, 3)
    lhs = l12 @ l13 @ l23
    rhs = l23 @ l13 @ l12
    scale = 0.0 if is_exact(u_lam) else matrix_abs_sum(lhs) + matrix_abs_sum(rhs)
    return lhs - rhs, scale


def check_yang_baxter(u_lam, u_mu, u_nu, q, tolerance: float = 1e-10) -> CheckOutcome:
    res, scale = yang_baxter_residual(u_lam, u_mu, u_nu, q)
    if is_exact(u_lam):
        return CheckOutcome("yang-baxter", matrix_is_zero(res), exact=True)
    r = float(np.abs(res).max())
    return CheckOutcome("yang-baxter", r <= tolerance * scale, exact=False,
                        residual=r, scale=scale, tolerance=tolerance)


def check_delta(z, q, tolerance: float = 1e-9) -> CheckOutcome:
    res = delta_residual(z, q)
    if is_exact(res):
        return CheckOutcome("delta-invariant", res.is_zero(), exact=True)
    wts = weights_of(z, q)
    scale = abs(wts.a) ** 2 + abs(wts.b) ** 2 + abs(wts.c) ** 2 + abs(wts.a * wts.b * (q + 1 / q))
    r = abs(res)
    return CheckOutcome("delta-invariant", r <= tolerance * scale, exact=False,
                        residual=r, scale=scale, tolerance=tolerance)
