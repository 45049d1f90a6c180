"""Leading-order structure of the B-operator and the asymptotic norm.

The top coefficient of B in the variable x_i = e^{2(lambda_i - mu_i)} is a
sum of string operators P_j built from the q-deformed su(2) generators.
Their exchange algebra orders arbitrary products onto P_1 P_2 ... P_L, which
evaluates between the two ferromagnetic vacua to a pure q-power; combining
the pieces yields the closed-form normalization

    (q - q^-1)^L / 2^(L^2) * [L]_{q^2}!

that pins the overall scale of the partition function.

Half-integer q-powers (the K generator carries q^(1/2)) are kept exact by
working internally in s = q^(1/2): the stored q-exponents simply count
powers of s.  All externally visible results are even in s, which is
asserted on conversion back to integer q-powers.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

from .errors import SizeLimitExceeded
from .monodromy import _eye, build_monodromy
from .partition import standard_symbolic_params
from .scalar import (
    CheckOutcome,
    LaurentPoly,
    invert,
    is_exact,
    leading_coeff,
    q_var,
    u_var,
    w_var,
)
from .vertex import matrix_is_zero


def to_half_exponents(p: LaurentPoly) -> LaurentPoly:
    """Embed a genuine-q polynomial into the s-ring (q = s^2)."""
    acc = {}
    qk = q_var().key
    for exps, coeff in p.items():
        vec = tuple((k, 2 * e if k == qk else e) for k, e in exps)
        acc[vec] = coeff
    return LaurentPoly(acc)


def from_half_exponents(p: LaurentPoly) -> LaurentPoly:
    """Map an s-ring polynomial back to integer q-powers; the exponents must
    all be even (this evenness is itself a checked invariant)."""
    acc = {}
    qk = q_var().key
    for exps, coeff in p.items():
        vec = []
        for k, e in exps:
            if k == qk:
                if e % 2:
                    raise ValueError(f"odd power of q^(1/2): {e}")
                e //= 2
            if e:
                vec.append((k, e))
        acc[tuple(vec)] = coeff
    return LaurentPoly(acc)


def _s_poly(exp: int) -> LaurentPoly:
    return LaurentPoly.var(q_var(), exp)


def _local_generators(q=None):
    """K, K^-1, X+, X- as 2x2 matrices (s-ring or complex)."""
    if q is None:
        s = _s_poly(1)
        si = _s_poly(-1)
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        dt = object
    else:
        s = cmath.sqrt(q)
        si = 1 / s
        zero, one = 0j, 1 + 0j
        dt = complex
    K = np.array([[s, zero], [zero, si]], dtype=dt)
    Ki = np.array([[si, zero], [zero, s]], dtype=dt)
    Xp = np.array([[zero, one], [zero, zero]], dtype=dt)
    Xm = np.array([[zero, zero], [one, zero]], dtype=dt)
    return K, Ki, Xp, Xm


def _kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def p_operator(j: int, L: int, q=None) -> np.ndarray:
    """The string operator K x ... x K x X- x K^-1 x ... x K^-1 with the
    lowering generator at site j (1-based)."""
    K, Ki, _, Xm = _local_generators(q)
    mats = [K] * (j - 1) + [Xm] + [Ki] * (L - j)
    return _kron_chain(mats)


def q_factorial(L: int, q):
    """prod_{k=1}^{L} (1 + q^2 + ... + q^(2(k-1))); equals L! at q = 1."""
    if L < 1:
        raise ValueError("L >= 1")
    one = LaurentPoly.one() if is_exact(q) else 1 + 0j
    out = one
    for k in range(1, L + 1):
        acc = one - one  # additive zero in either backend
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
    exact = is_exact(q)
    if exact:
        # w-monomials carry no q-power, so they need no s-ring conversion
        pref = _s_poly(L - 3) * (_s_poly(4) - 1) / 2 ** L
        wpolys = [wv if isinstance(wv, LaurentPoly) else LaurentPoly.rational(wv)
                  for wv in ws]
        wfac = wpolys[i - 1] ** (L - 1)
        for wv in wpolys:
            wfac = wfac * wv ** (-1)
        dim = 2 ** L
        acc = np.full((dim, dim), LaurentPoly.zero(), dtype=object)
        for j in range(1, L + 1):
            acc = acc + p_operator(j, L) * wpolys[j - 1]
        out = acc * (pref * wfac)
        conv = np.empty_like(out)
        for r in range(dim):
            for c in range(dim):
                conv[r, c] = from_half_exponents(out[r, c])
        return conv
    s = cmath.sqrt(q)
    pref = 2 ** (-L) * s ** (L - 3) * (q * q - 1)
    wfac = ws[i - 1] ** (L - 1)
    for wv in ws:
        wfac /= wv
    dim = 2 ** L
    acc = np.zeros((dim, dim), dtype=complex)
    for j in range(1, L + 1):
        acc += ws[j - 1] * p_operator(j, L, q)
    return pref * wfac * acc


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


def vacuum_sandwich_p_chain(L: int, q=None):
    """<0bar| P_1 P_2 ... P_L |0>, equal to q^(L(L-1)/2)."""
    dim = 2 ** L
    prod = _eye(dim, q is None)
    for j in range(1, L + 1):
        prod = prod @ p_operator(j, L, q)
    val = prod[dim - 1, 0]
    if q is None:
        return from_half_exponents(val)
    return val


def check_p_relations(L: int, q=None) -> CheckOutcome:
    """Exchange and square-zero relations of the string operators plus the
    one-site deformed-su(2) relations, as exact matrix identities."""
    exact = q is None
    K, Ki, Xp, Xm = _local_generators(q)
    s4 = _s_poly(4) if exact else q * q
    problems = []
    Ps = {j: p_operator(j, L, q) for j in range(1, L + 1)}
    zero2 = np.full((2, 2), LaurentPoly.zero(), dtype=object) if exact \
        else np.zeros((2, 2), dtype=complex)
    zeroL = np.full_like(Ps[1], LaurentPoly.zero()) if exact \
        else np.zeros_like(Ps[1])
    for i in range(1, L + 1):
        for j in range(i + 1, L + 1):
            if not _sides_agree(Ps[i] @ Ps[j], (Ps[j] @ Ps[i]) * s4, exact):
                problems.append(f"exchange ({i},{j})")
    for i in range(1, L + 1):
        if not _sides_agree(Ps[i] @ Ps[i], zeroL, exact):
            problems.append(f"square ({i})")
    qq = _s_poly(2) if exact else q
    if not _sides_agree(K @ Xp @ Ki, Xp * qq, exact):
        problems.append("K X+ K^-1")
    if not _sides_agree(K @ Xm @ Ki, Xm * invert(qq), exact):
        problems.append("K X- K^-1")
    # [X+, X-] (q - q^-1) = K^2 - K^-2, cleared of the denominator
    if not _sides_agree((Xp @ Xm - Xm @ Xp) * (qq - invert(qq)),
                        K @ K - Ki @ Ki, exact):
        problems.append("[X+, X-]")
    want = _s_poly(L * (L - 1)) if exact else cmath.sqrt(q) ** (L * (L - 1))
    got = vacuum_sandwich_p_chain(L, q)
    if exact:
        if got != from_half_exponents(want):
            problems.append("vacuum sandwich")
    elif abs(got - want) > 1e-9 * abs(want):
        problems.append("vacuum sandwich")
    return CheckOutcome("string-operator-relations", not problems, exact=exact,
                        details={"failed": problems} if problems else {})


def _sides_agree(lhs, rhs, exact: bool, tol: float = 1e-12) -> bool:
    if exact:
        return matrix_is_zero(lhs - rhs)
    scale = float(np.abs(lhs).sum() + np.abs(rhs).sum())
    if scale == 0.0:
        return bool(np.abs(lhs - rhs).max() == 0.0)
    return bool(np.abs(lhs - rhs).max() <= tol * scale)


def check_ordering_sum(L: int, q=None) -> CheckOutcome:
    """Sum of P_{a_1}...P_{a_L} over all L! orderings against the ordered
    product with its q-counting prefactor, by explicit enumeration."""
    if L > 5:
        raise SizeLimitExceeded("ordering sum enumerates L! <= 120 products")
    exact = q is None
    dim = 2 ** L
    Ps = {j: p_operator(j, L, q) for j in range(1, L + 1)}
    total = np.full((dim, dim), LaurentPoly.zero(), dtype=object) if exact \
        else np.zeros((dim, dim), dtype=complex)
    for perm in itertools.permutations(range(1, L + 1)):
        prod = _eye(dim, exact)
        for a in perm:
            prod = prod @ Ps[a]
        total = total + prod
    pref = LaurentPoly.one() if exact else 1 + 0j
    qm2 = _s_poly(-4) if exact else 1 / (q * q)
    for k in range(1, L + 1):
        acc = pref - pref  # zero
        for t in range(k):
            acc = acc + qm2 ** t
        pref = pref * acc
    ordered = _eye(dim, exact)
    for a in range(1, L + 1):
        ordered = ordered @ Ps[a]
    res = total - ordered * pref
    if exact:
        return CheckOutcome("ordering-sum", matrix_is_zero(res), exact=True)
    scale = float(np.abs(total).sum() + np.abs(ordered * pref).sum())
    r = float(np.abs(res).max())
    return CheckOutcome("ordering-sum", r <= 1e-9 * scale, exact=False,
                        residual=r, scale=scale, tolerance=1e-9)


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
    prod = _eye(dim, True)
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
