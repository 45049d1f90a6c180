"""Leading-order structure of the B-operator and the asymptotic norm.

The top coefficient of B in the variable x_i = e^{2(lambda_i - mu_i)} is a
sum of string operators P_j built from the q-deformed su(2) generators.
Their exchange algebra orders arbitrary products onto P_1 P_2 ... P_L, which
evaluates between the two ferromagnetic vacua to a pure q-power; combining
the pieces yields the closed-form normalization

    (q - q^-1)^L / 2^(L^2) * [L]_{q^2}!

that pins the overall scale of the partition function.

Each P_j acts matrix-free (``apply_p``): a slice move for the lowering
generator at site j times one diagonal phase for the K strings, on a vector
or a batch of columns.  The operator identities apply products of P's to
the identity batch; ``p_operator`` is the same route on the identity.

Half-integer q-powers (the K generator carries q^(1/2)) are kept exact by
working internally in s = q^(1/2): the stored q-exponents simply count
powers of s.  All externally visible results are even in s, which is
asserted on conversion back to integer q-powers.  ``_ring`` reads q=None
as this exact s-ring and a complex q as the float backend.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

from .errors import SizeLimitExceeded
from .monodromy import build_monodromy, vacuum
from .partition import standard_symbolic_params
from .scalar import (
    EXACT,
    FLOAT,
    CheckOutcome,
    LaurentPoly,
    _as_poly,
    backend_of,
    divide_exponents,
    invert,
    leading_coeff,
    q_var,
    u_var,
    w_var,
)
from .vertex import matrix_is_zero, verdict


def from_half_exponents(p: LaurentPoly) -> LaurentPoly:
    """Map an s-ring polynomial back to integer q-powers; the exponents must
    all be even (this evenness is itself a checked invariant)."""
    return divide_exponents(p, q_var(), 2)


def _s_poly(exp: int) -> LaurentPoly:
    return LaurentPoly.var(q_var(), exp)


def _ring(q=None):
    """(backend, s): the exact s-ring and its generator s for q=None, or the
    float backend and s = sqrt(q) for a complex q."""
    return (EXACT, _s_poly(1)) if q is None else (FLOAT, cmath.sqrt(q))


def _local_generators(q=None):
    """K, K^-1, X+, X- as 2x2 matrices (s-ring or complex)."""
    bk, s = _ring(q)
    si = invert(s)
    K = np.array([[s, bk.zero], [bk.zero, si]], dtype=bk.dtype)
    Ki = np.array([[si, bk.zero], [bk.zero, s]], dtype=bk.dtype)
    return K, Ki, bk.full((2, 2), (0, 1)), bk.full((2, 2), (1, 0))


def apply_p(j: int, L: int, x: np.ndarray, q=None) -> np.ndarray:
    """The string operator K x ... x K x X- x K^-1 x ... x K^-1, with the
    lowering generator at site j (1-based), applied to a vector (2^L,) or
    each column of a batch (2^L, k).

    X- moves the site-j slice |0> to |1>; the K and K^-1 factors on the
    other sites multiply by one diagonal phase s^e, e counting their sites
    in |0> less those in |1> (sign flipped right of j).
    """
    bk, s = _ring(q)
    power = _s_poly if bk.exact else (lambda e: s ** e)
    left = [j - 1 - 2 * bin(k).count("1") for k in range(2 ** (j - 1))]
    right = [2 * bin(k).count("1") - (L - j) for k in range(2 ** (L - j))]
    phase = np.array([[power(a + b) for b in right] for a in left], dtype=bk.dtype)
    t = x.reshape((len(left), 2, len(right)) + x.shape[1:])
    out = np.full_like(t, bk.zero)
    out[:, 1] = t[:, 0] * phase.reshape(phase.shape + (1,) * (x.ndim - 1))
    return out.reshape(x.shape)


def p_operator(j: int, L: int, q=None) -> np.ndarray:
    """P_j as a dense 2^L matrix: apply_p on the identity."""
    return apply_p(j, L, _ring(q)[0].eye(2 ** L), q)


def q_factorial(L: int, q):
    """prod_{k=1}^{L} (1 + q^2 + ... + q^(2(k-1))); equals L! at q = 1."""
    if L < 1:
        raise ValueError("L >= 1")
    bk = backend_of(q)
    out = bk.one
    for k in range(1, L + 1):
        acc = bk.zero
        for t in range(k):
            acc = acc + q ** (2 * t)
        out = out * acc
    return out


def asymptotic_norm(L: int, q):
    """(q - q^-1)^L / 2^(L^2) * [L]_{q^2}!; the top coefficient of the
    shifted partition polynomial."""
    return (q - invert(q)) ** L * q_factorial(L, q) / 2 ** (L * L)


def f_top(i: int, ws, q, L: int) -> np.ndarray:
    """Top operator coefficient of B(lam_i) in x_i, as a 2^L matrix.

    Exact backend: ws are monomials (or rationals) and q the symbolic
    variable; float: complex values.  Entries come out with integer
    q-powers, the s-ring being internal only.
    """
    exact = backend_of(q).exact
    if exact:
        s = _s_poly(1)
        ws = [_as_poly(wv) for wv in ws]
    else:
        s = cmath.sqrt(q)
    pref = s ** (L - 3) * (s ** 4 - 1) / 2 ** L
    wfac = ws[i - 1] ** (L - 1)
    for wv in ws:
        wfac = wfac * invert(wv)
    acc = sum(p_operator(j, L, None if exact else q) * ws[j - 1] for j in range(1, L + 1))
    out = acc * (pref * wfac)
    # w-monomials carry no q-power, so only the s-ring result needs converting
    return np.frompyfunc(from_half_exponents, 1, 1)(out) if exact else out


def b_top_coefficient(i: int, L: int) -> np.ndarray:
    """Top x_i-coefficient of the monodromy B-block at canonical symbolic
    parameters, entry-wise; the independent counterpart of f_top."""
    lams, mus, q = standard_symbolic_params(L)
    B = build_monodromy(lams[i - 1], mus, q).block("B")
    shift = LaurentPoly.monomial(1, {u_var(i): L - 1, w_var(i): -(L - 1)})
    wback = LaurentPoly.var(w_var(i), 2 * (L - 1))
    dim = 2 ** L
    out = np.empty((dim, dim), dtype=object)
    for r in range(dim):
        for c in range(dim):
            out[r, c] = leading_coeff(B[r, c] * shift, [u_var(i)], 2 * (L - 1)) * wback
    return out


def _apply_product(js, L: int, x: np.ndarray, q=None) -> np.ndarray:
    """P_{js[0]} ... P_{js[-1]} applied to x, the rightmost factor first."""
    for j in reversed(js):
        x = apply_p(j, L, x, q)
    return x


def vacuum_sandwich_p_chain(L: int, q=None):
    """<0bar| P_1 P_2 ... P_L |0>, equal to q^(L(L-1)/2)."""
    bk, _ = _ring(q)
    val = _apply_product(range(1, L + 1), L, vacuum(L, bk), q)[-1]
    return from_half_exponents(val) if bk.exact else val


def check_p_relations(L: int, q=None) -> CheckOutcome:
    """Exchange and square-zero relations of the string operators plus the
    one-site deformed-su(2) relations, as exact matrix identities."""
    bk, s = _ring(q)
    K, Ki, Xp, Xm = _local_generators(q)
    s4 = _s_poly(4) if bk.exact else q * q
    problems = []
    Ps = {j: p_operator(j, L, q) for j in range(1, L + 1)}
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            if not _sides_agree(apply_p(i, L, Ps[j], q), apply_p(j, L, Ps[i], q) * s4):
                problems.append(f"exchange ({i},{j})")
    for i in range(1, L + 1):
        if not _sides_agree(apply_p(i, L, Ps[i], q), bk.full(Ps[i].shape)):
            problems.append(f"square ({i})")
    qq = _s_poly(2) if bk.exact else q
    if not _sides_agree(K @ Xp @ Ki, Xp * qq):
        problems.append("K X+ K^-1")
    if not _sides_agree(K @ Xm @ Ki, Xm * invert(qq)):
        problems.append("K X- K^-1")
    # [X+, X-] (q - q^-1) = K^2 - K^-2, cleared of the denominator
    if not _sides_agree((Xp @ Xm - Xm @ Xp) * (qq - invert(qq)), K @ K - Ki @ Ki):
        problems.append("[X+, X-]")
    want = from_half_exponents(_s_poly(L * (L - 1))) if bk.exact else s ** (L * (L - 1))
    scale = None if bk.exact else abs(want)
    if not verdict("", vacuum_sandwich_p_chain(L, q) - want, scale, 1e-9).passed:
        problems.append("vacuum sandwich")
    return CheckOutcome("string-operator-relations", not problems, exact=bk.exact,
                        details={"failed": problems} if problems else {})


def _sides_agree(lhs, rhs, tol: float = 1e-12) -> bool:
    return verdict("", lhs - rhs, backend_of(lhs).abs_sum(lhs, rhs), tol).passed


def check_ordering_sum(L: int, q=None) -> CheckOutcome:
    """Sum of P_{a_1}...P_{a_L} over all L! orderings against the ordered
    product with its q-counting prefactor, by explicit enumeration."""
    if L > 5:
        raise SizeLimitExceeded("ordering sum enumerates L! <= 120 products")
    bk, _ = _ring(q)
    ident = bk.eye(2 ** L)
    total = bk.full(ident.shape)
    for perm in itertools.permutations(range(1, L + 1)):
        total = total + _apply_product(perm, L, ident, q)
    pref = q_factorial(L, _s_poly(-2) if bk.exact else 1 / q)
    ordered = _apply_product(range(1, L + 1), L, ident, q) * pref
    return verdict("ordering-sum", total - ordered, bk.abs_sum(total, ordered), 1e-9)


def check_f_top_matches_b(L: int) -> CheckOutcome:
    """f_top against the top x_i-coefficient extracted from the monodromy."""
    _, mus, q = standard_symbolic_params(L)
    ok = True
    for i in range(1, L + 1):
        ft = f_top(i, mus, q, L)
        bt = b_top_coefficient(i, L)
        if not matrix_is_zero(ft - bt):
            ok = False
    return CheckOutcome("b-top-coefficient", ok, exact=True)


def check_norm_consistency(L: int) -> CheckOutcome:
    """asymptotic_norm against <0bar| prod f_top |0> by brute-force products."""
    _, mus, q = standard_symbolic_params(L)
    dim = 2 ** L
    prod = EXACT.eye(dim)
    for i in range(1, L + 1):
        prod = prod @ f_top(i, mus, q, L)
    got = prod[dim - 1, 0]
    want = asymptotic_norm(L, q)
    return CheckOutcome("norm-consistency", got == want, exact=True)


def check_zbar_leading(L: int) -> CheckOutcome:
    """Top coefficient of the shifted partition polynomial against the norm."""
    from .partition import shifted_polynomial, z_algebraic

    lams, mus, q = standard_symbolic_params(L)
    p = shifted_polynomial(z_algebraic(lams, mus, q), L)
    top = leading_coeff(p, [u_var(i) for i in range(1, L + 1)], 2 * (L - 1))
    wback = LaurentPoly.monomial(1, {w_var(i): 2 * (L - 1) for i in range(1, L + 1)})
    got = top * wback
    return CheckOutcome("partition-leading-coefficient", got == asymptotic_norm(L, q),
                        exact=True)


def run_asymptotic_checks(L: int) -> list[CheckOutcome]:
    out = [check_p_relations(L), check_ordering_sum(min(L, 5))]
    if L <= 3:
        out.append(check_f_top_matches_b(L))
        out.append(check_zbar_leading(L))
    if L <= 4:
        out.append(check_norm_consistency(L))
    return out
