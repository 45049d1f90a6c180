"""Statistical weights, L-matrix, R-matrix and the Yang-Baxter check.

Spectral arguments are passed in exponentiated form: the difference
lambda - mu enters as z = e^(lambda-mu), a Laurent monomial in the exact
backend or a nonzero complex number in the float backend.  The weights are

    a = (z q - (z q)^-1) / 2      # sinh(lambda - mu + gamma)
    b = (z - z^-1) / 2            # sinh(lambda - mu)
    c = (q - q^-1) / 2            # sinh(gamma), independent of z

Zeros, identities and float scales come from the ``scalar.Backend`` that
``scalar.backend_of`` reads from the weights or the points.

Index conventions, fixed once and validated downstream by the forcing test
Z(L=1) = c: basis pairs are ordered (aux state, quantum state) with 0 the
first basis vector; matrix rows carry outgoing indices and columns incoming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import EXACT, Backend, CheckOutcome, LaurentPoly, backend_of, invert


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
    bk = backend_of(a)
    zero = bk.zero
    rows = [
        [a, zero, zero, zero],
        [zero, b, c, zero],
        [zero, c, b, zero],
        [zero, zero, zero, a],
    ]
    return np.array(rows, dtype=bk.dtype)


def build_L(z, q) -> np.ndarray:
    return l_matrix_from_weights(weights_of(z, q))


def permutation_matrix(backend: Backend = EXACT) -> np.ndarray:
    """The 4x4 swap matrix P on C^2 x C^2."""
    return backend.eye(4)[[0, 2, 1, 3]]


def build_R(z, q) -> np.ndarray:
    """R = P L; the intertwiner appearing in the exchange relation."""
    m = build_L(z, q)
    return permutation_matrix(backend_of(m)) @ m


def delta_residual(z, q):
    """Residual of the integrable-manifold identity, cleared of denominators:
    a^2 + b^2 - c^2 - a b (q + q^-1)."""
    wts = weights_of(z, q)
    return wts.a * wts.a + wts.b * wts.b - wts.c * wts.c - wts.a * wts.b * (q + invert(q))


def apply_two_site(m4: np.ndarray, i: int, j: int, n: int, x: np.ndarray) -> np.ndarray:
    """Apply a 4x4 two-site matrix on factors i, j of (C^2)^n (0-based, factor 0
    the most significant bit) to a vector (2^n,) or each column of a batch
    (2^n, k)."""
    t = x.reshape((2,) * n + x.shape[1:])
    out = np.tensordot(m4.reshape(2, 2, 2, 2), t, axes=([2, 3], [i, j]))
    return np.moveaxis(out, [0, 1], [i, j]).reshape(x.shape)


def matrix_is_zero(m) -> bool:
    """Exact zero test, entry-wise, of an object array or one exact scalar."""
    for entry in m.flat if isinstance(m, np.ndarray) else (m,):
        if isinstance(entry, LaurentPoly):
            if not entry.is_zero():
                return False
        elif entry != 0:
            return False
    return True


def verdict(name: str, residual, scale, tolerance: float, details=None) -> CheckOutcome:
    """The one pass/fail rule of every identity check.

    An exact residual (a LaurentPoly, an int or Fraction, or an object
    array) passes when every entry is exactly zero; scale is ignored.  A
    float residual passes when its largest absolute entry r satisfies
    r <= tolerance * scale."""
    details = details or {}
    if backend_of(residual).exact:
        return CheckOutcome(name, matrix_is_zero(residual), exact=True, details=details)
    r = float(np.abs(residual).max()) if isinstance(residual, np.ndarray) else abs(residual)
    return CheckOutcome(name, r <= tolerance * scale, exact=False, residual=r,
                        scale=scale, tolerance=tolerance, details=details)


def yang_baxter_residual(u_lam, u_mu, u_nu, q) -> tuple[np.ndarray, float]:
    """L12(lam-mu) L13(lam-nu) L23(mu-nu) minus the reversed product, on
    the triple tensor space, together with a float scale (None in the
    exact backend).  Arguments are the exponentiated points."""
    l12 = build_L(u_lam * invert(u_mu), q)
    l13 = build_L(u_lam * invert(u_nu), q)
    l23 = build_L(u_mu * invert(u_nu), q)
    bk = backend_of(l12)
    lhs = rhs = bk.eye(8)
    for m4, i, j in ((l23, 1, 2), (l13, 0, 2), (l12, 0, 1)):
        lhs = apply_two_site(m4, i, j, 3, lhs)
    for m4, i, j in ((l12, 0, 1), (l13, 0, 2), (l23, 1, 2)):
        rhs = apply_two_site(m4, i, j, 3, rhs)
    return lhs - rhs, bk.abs_sum(lhs, rhs)


def check_yang_baxter(u_lam, u_mu, u_nu, q, tolerance: float = 1e-10) -> CheckOutcome:
    return verdict("yang-baxter", *yang_baxter_residual(u_lam, u_mu, u_nu, q), tolerance)


def check_delta(z, q, tolerance: float = 1e-9) -> CheckOutcome:
    res = delta_residual(z, q)
    scale = None
    if not backend_of(res).exact:
        wts = weights_of(z, q)
        scale = abs(wts.a) ** 2 + abs(wts.b) ** 2 + abs(wts.c) ** 2 + abs(wts.a * wts.b * (q + 1 / q))
    return verdict("delta-invariant", res, scale, tolerance)
