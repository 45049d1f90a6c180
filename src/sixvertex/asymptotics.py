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
asserted on conversion back to integer q-powers.  Every function takes q as
the rest of the package does, the symbolic q (the default) or a complex q;
``_ring`` reads the first as this exact s-ring, the second as the float
backend, and refuses any other exact q.
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
from .vertex import verdict


def from_half_exponents(p: LaurentPoly) -> LaurentPoly:
    """Map an s-ring polynomial back to integer q-powers; the exponents must
    all be even (this evenness is itself a checked invariant)."""
    return divide_exponents(p, q_var(), 2)


_Q = LaurentPoly.var(q_var())


def _ring(q):
    """(backend, s, q, to_q): the one exact/float choice of this module.

    For the symbolic q: the exact s-ring, its generator s (written as the q
    variable), q = s^2 there, and to_q mapping entries back to integer
    q-powers.  For a complex q: the float backend, s = sqrt(q), q itself
    and the identity."""
    bk = backend_of(q)
    if not bk.exact:
        return bk, cmath.sqrt(q), q, lambda x: x
    if not (isinstance(q, LaurentPoly) and q == _Q):
        raise ValueError(f"an exact q must be the symbolic q, got {q!r}")
    return bk, _Q, _Q * _Q, np.frompyfunc(from_half_exponents, 1, 1)


def _local_generators(q):
    """K, K^-1, X+, X- as 2x2 matrices (s-ring or complex)."""
    bk, s, _, _ = _ring(q)
    si = invert(s)
    K = np.array([[s, bk.zero], [bk.zero, si]], dtype=bk.dtype)
    Ki = np.array([[si, bk.zero], [bk.zero, s]], dtype=bk.dtype)
    return K, Ki, bk.full((2, 2), (0, 1)), bk.full((2, 2), (1, 0))


def apply_p(j: int, L: int, x: np.ndarray, q=_Q) -> np.ndarray:
    """The string operator K x ... x K x X- x K^-1 x ... x K^-1, with the
    lowering generator at site j (1-based), applied to a vector (2^L,) or
    each column of a batch (2^L, k).

    X- moves the site-j slice |0> to |1>; the K and K^-1 factors on the
    other sites multiply by one diagonal phase s^e, e counting their sites
    in |0> less those in |1> (sign flipped right of j).
    """
    bk, s, _, _ = _ring(q)
    left = [j - 1 - 2 * bin(k).count("1") for k in range(2 ** (j - 1))]
    right = [2 * bin(k).count("1") - (L - j) for k in range(2 ** (L - j))]
    phase = np.array([[s ** (a + b) for b in right] for a in left], dtype=bk.dtype)
    t = x.reshape((len(left), 2, len(right)) + x.shape[1:])
    out = np.full_like(t, bk.zero)
    out[:, 1] = t[:, 0] * phase.reshape(phase.shape + (1,) * (x.ndim - 1))
    return out.reshape(x.shape)


def p_operator(j: int, L: int, q=_Q) -> np.ndarray:
    """P_j as a dense 2^L matrix, in the s-ring for the symbolic q: apply_p on the identity."""
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
    bk, s, _, to_q = _ring(q)
    if bk.exact:
        ws = [_as_poly(wv) for wv in ws]
    pref = s ** (L - 3) * (s ** 4 - 1) / 2 ** L
    wfac = ws[i - 1] ** (L - 1)
    for wv in ws:
        wfac = wfac * invert(wv)
    acc = sum(p_operator(j, L, q) * ws[j - 1] for j in range(1, L + 1))
    # w-monomials carry no q-power, so to_q only has the s-ring to undo
    return to_q(acc * (pref * wfac))


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


def _apply_product(js, L: int, x: np.ndarray, q) -> np.ndarray:
    """P_{js[0]} ... P_{js[-1]} applied to x, the rightmost factor first."""
    for j in reversed(js):
        x = apply_p(j, L, x, q)
    return x


def vacuum_sandwich_p_chain(L: int, q=_Q):
    """<0bar| P_1 P_2 ... P_L |0>, equal to q^(L(L-1)/2)."""
    bk, _, _, to_q = _ring(q)
    return to_q(_apply_product(range(1, L + 1), L, vacuum(L, bk), q)[-1])


def check_p_relations(L: int, q=_Q) -> CheckOutcome:
    """Exchange and square-zero relations of the string operators plus the
    one-site deformed-su(2) relations, as exact matrix identities.  A float
    outcome carries the numbers, and the name, of the relation nearest its
    bound: the largest residual / (scale * tolerance), a failed one first."""
    bk, s, qq, to_q = _ring(q)
    K, Ki, Xp, Xm = _local_generators(q)
    Ps = {j: p_operator(j, L, q) for j in range(1, L + 1)}
    out = [_sides(f"exchange ({i},{j})", apply_p(i, L, Ps[j], q),
                  apply_p(j, L, Ps[i], q) * (qq * qq))
           for i in range(1, L + 1) for j in range(i + 1, L + 1)]
    out += [_sides(f"square ({i})", apply_p(i, L, Ps[i], q), bk.full(Ps[i].shape))
            for i in range(1, L + 1)]
    out.append(_sides("K X+ K^-1", K @ Xp @ Ki, Xp * qq))
    out.append(_sides("K X- K^-1", K @ Xm @ Ki, Xm * invert(qq)))
    # [X+, X-] (q - q^-1) = K^2 - K^-2, cleared of the denominator
    out.append(_sides("[X+, X-]", (Xp @ Xm - Xm @ Xp) * (qq - invert(qq)), K @ K - Ki @ Ki))
    want = to_q(s ** (L * (L - 1)))
    out.append(verdict("vacuum sandwich", vacuum_sandwich_p_chain(L, q) - want,
                       bk.abs_sum(want), 1e-9))
    problems = [o.name for o in out if not o.passed]
    details = {"failed": problems} if problems else {}
    if bk.exact:
        return verdict("string-operator-relations", len(problems), None, 0, details)
    worst = max(out, key=lambda o: (not o.passed,
                                    o.residual and o.residual / (o.scale * o.tolerance)))
    return verdict("string-operator-relations", worst.residual, worst.scale, worst.tolerance,
                   {"worst": worst.name, **details})


def _sides(name: str, lhs, rhs, tol: float = 1e-12) -> CheckOutcome:
    return verdict(name, lhs - rhs, backend_of(lhs).abs_sum(lhs, rhs), tol)


def check_ordering_sum(L: int, q=_Q) -> CheckOutcome:
    """Sum of P_{a_1}...P_{a_L} over all L! orderings against the ordered
    product with its q-counting prefactor, by explicit enumeration."""
    if L > 5:
        raise SizeLimitExceeded("ordering sum enumerates L! <= 120 products")
    bk, _, qq, _ = _ring(q)
    ident = bk.eye(2 ** L)
    total = bk.full(ident.shape)
    for perm in itertools.permutations(range(1, L + 1)):
        total = total + _apply_product(perm, L, ident, q)
    pref = q_factorial(L, invert(qq))
    ordered = _apply_product(range(1, L + 1), L, ident, q) * pref
    return verdict("ordering-sum", total - ordered, bk.abs_sum(total, ordered), 1e-9)


def check_f_top_matches_b(L: int) -> CheckOutcome:
    """f_top against the top x_i-coefficient extracted from the monodromy."""
    _, mus, q = standard_symbolic_params(L)
    res = [f_top(i, mus, q, L) - b_top_coefficient(i, L) for i in range(1, L + 1)]
    return verdict("b-top-coefficient", np.array(res), None, 0)


def check_norm_consistency(L: int) -> CheckOutcome:
    """asymptotic_norm against <0bar| prod f_top |0> by brute-force products."""
    _, mus, q = standard_symbolic_params(L)
    dim = 2 ** L
    prod = EXACT.eye(dim)
    for i in range(1, L + 1):
        prod = prod @ f_top(i, mus, q, L)
    return verdict("norm-consistency", prod[dim - 1, 0] - asymptotic_norm(L, q), None, 0)


def check_zbar_leading(L: int) -> CheckOutcome:
    """Top coefficient of the shifted partition polynomial against the norm."""
    from .partition import shifted_polynomial, z_algebraic

    lams, mus, q = standard_symbolic_params(L)
    p = shifted_polynomial(z_algebraic(lams, mus, q), L)
    top = leading_coeff(p, [u_var(i) for i in range(1, L + 1)], 2 * (L - 1))
    wback = LaurentPoly.monomial(1, {w_var(i): 2 * (L - 1) for i in range(1, L + 1)})
    return verdict("partition-leading-coefficient", top * wback - asymptotic_norm(L, q),
                   None, 0)


def run_asymptotic_checks(L: int) -> list[CheckOutcome]:
    out = [check_p_relations(L), check_ordering_sum(min(L, 5))]
    if L <= 3:
        out.append(check_f_top_matches_b(L))
        out.append(check_zbar_leading(L))
    if L <= 4:
        out.append(check_norm_consistency(L))
    return out
