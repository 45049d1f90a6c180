import ast
import cmath
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from sixvertex.scalar import EXACT, FLOAT, LaurentPoly, RationalFunction, q_var, u_var, w_var
from sixvertex.vertex import (
    Weights,
    apply_two_site,
    build_L,
    build_R,
    check_delta,
    check_yang_baxter,
    delta_residual,
    l_matrix_from_weights,
    matrix_is_zero,
    permutation_matrix,
    verdict,
    weights_of,
)
from sixvertex.sampling import make_rng, sample_point

Q = LaurentPoly.var(q_var())


def test_weights_b_vanishes_at_equal_points():
    w = weights_of(1 + 0j, 1.7 + 0.1j)
    assert w.b == 0


def test_weights_c_independent_of_z(rng):
    q = sample_point(rng)
    c_vals = {weights_of(sample_point(rng), q).c for _ in range(5)}
    assert len(c_vals) == 1


def test_weights_ice_point():
    z = cmath.exp(1j * math.pi / 3)
    q = cmath.exp(1j * math.pi / 3)
    w = weights_of(z, q)
    want = 1j * math.sqrt(3) / 2
    for v in (w.a, w.b, w.c):
        assert abs(v - want) < 1e-15


def test_delta_identity_symbolic():
    z = LaurentPoly.var(u_var(1)) * LaurentPoly.var(w_var(1)).monomial_inverse()
    assert delta_residual(z, Q).is_zero()
    assert check_delta(z, Q).passed
    # also on a composite monomial argument
    z2 = LaurentPoly.monomial(1, {u_var(1): 2, u_var(2): -2})
    assert delta_residual(z2, Q).is_zero()


def test_delta_identity_float(rng):
    assert check_delta(sample_point(rng), sample_point(rng)).passed


def test_l_matrix_sparsity_pattern():
    wts = Weights(a=5 + 0j, b=3 + 0j, c=2 + 0j)
    m = l_matrix_from_weights(wts)
    allowed = {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
    for r in range(4):
        for c in range(4):
            if (r, c) in allowed:
                assert m[r, c] != 0
            else:
                assert m[r, c] == 0
    assert m[0, 0] == m[3, 3]


def test_l_matrix_symbolic_entries_match_weights():
    z = LaurentPoly.var(u_var(1))
    m = build_L(z, Q)
    w = weights_of(z, Q)
    assert m[0, 0] == w.a and m[3, 3] == w.a
    assert m[1, 1] == w.b and m[2, 2] == w.b
    assert m[1, 2] == w.c and m[2, 1] == w.c


def test_l_matrix_b_zero_at_equal_points():
    m = build_L(1 + 0j, 1.3 + 0.2j)
    assert m[1, 1] == 0 and m[2, 2] == 0
    assert m[0, 0] == m[1, 2]  # a = c at z = 1


def test_det_regression():
    m = build_L(0.7 + 0.3j, 1.2 - 0.5j)
    det = np.linalg.det(m)
    frozen = -2.4486593024640956e-06 + 9.133139637821408e-07j
    assert abs(det - frozen) <= 1e-12 * abs(frozen)
    a, b, c = m[0, 0], m[1, 1], m[1, 2]
    assert abs(det - a * a * (b * b - c * c)) <= 1e-12 * abs(det)


def test_permutation_matrix_swaps():
    p = permutation_matrix(FLOAT)
    v = np.array([1, 2, 3, 4], dtype=complex)
    assert np.allclose(p @ v, [1, 3, 2, 4])
    r = build_R(0.8 + 0.1j, 1.1 - 0.3j)
    l = build_L(0.8 + 0.1j, 1.1 - 0.3j)
    assert np.allclose(r, p @ l)


def test_yang_baxter_symbolic_exact():
    pts = [LaurentPoly.var(u_var(i)) for i in (1, 2, 3)]
    assert check_yang_baxter(pts[0], pts[1], pts[2], Q).passed


def test_yang_baxter_equal_arguments():
    u = LaurentPoly.var(u_var(1))
    assert check_yang_baxter(u, u, u, Q).passed


def test_yang_baxter_numeric_sweep():
    rng = make_rng(7)
    for _ in range(100):
        out = check_yang_baxter(
            sample_point(rng), sample_point(rng), sample_point(rng),
            sample_point(rng), tolerance=1e-10)
        assert out.passed


def test_matrix_is_zero_helper():
    zero = np.full((2, 2), LaurentPoly.zero(), dtype=object)
    assert matrix_is_zero(zero)
    zero[0, 1] = Q
    assert not matrix_is_zero(zero)


def test_verdict_exact_scalars():
    for zero in (LaurentPoly.zero(), Q - Q, 0, Fraction(0)):
        out = verdict("t", zero, None, 1e-9)
        assert out.passed and out.exact and out.residual is None
    for nonzero in (Q, LaurentPoly.one(), 1, Fraction(1, 3)):
        out = verdict("t", nonzero, None, 1e-9)
        assert not out.passed and out.exact


def test_verdict_exact_object_array_ignores_scale():
    m = np.full((2, 3), LaurentPoly.zero(), dtype=object)
    # the exact backend reports scale None; an exact verdict ignores any scale
    for scale in (None, 0.0):
        assert verdict("t", m, scale, 1e-9).passed
    m[1, 2] = Q * Q
    assert not verdict("t", m, 0.0, 1.0).passed
    out = verdict("t", m, None, 1e-9, {"k": 1})
    assert out.exact and out.details == {"k": 1}


def test_verdict_rational_function_numerator():
    den = Q + LaurentPoly.one()
    assert verdict("t", RationalFunction(Q * Q - Q * Q, den).num, None, 1e-9).passed
    assert not verdict("t", RationalFunction(Q, den).num, None, 1e-9).passed


def test_verdict_float_scalar_residual_is_python_abs():
    # a value whose complex modulus differs in the last bit between numpy and
    # Python; the reported residual must be Python's abs, as it always was
    x = -0.5442589828573099 - 0.31630015636915454j
    assert float(np.abs(x)) != abs(x)
    out = verdict("t", x, 1.0, 1.0)
    assert not out.exact and out.passed
    assert out.residual.hex() == abs(x).hex()
    assert (out.scale, out.tolerance) == (1.0, 1.0)


def test_verdict_float_array_uses_largest_entry():
    res = np.array([1e-12 + 0j, -3e-12j, 2e-12 + 0j])
    out = verdict("t", res, 1.0, 3e-12)
    assert out.residual == 3e-12 and out.passed
    assert not verdict("t", res, 1.0, 2.9e-12).passed


def test_verdict_zero_scale_passes_only_exact_zero():
    assert verdict("t", 0j, 0.0, 1e-9).passed
    assert verdict("t", np.zeros(4, dtype=complex), 0.0, 1e-9).passed
    assert not verdict("t", 1e-300 + 0j, 0.0, 1e-9).passed
    assert not verdict("t", np.array([0j, 5e-324 + 0j]), 0.0, 1e9).passed


def _outcome_calls(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) == "CheckOutcome"]


def test_only_verdict_builds_a_check_outcome():
    # every check's pass/fail comes from the one rule
    src = Path(__file__).resolve().parents[1] / "src" / "sixvertex"
    in_verdict, found = 0, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(c) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   and (path.name, fn.name) == ("vertex.py", "verdict")
                   for c in _outcome_calls(fn)}
        in_verdict += len(allowed)
        found += [f"{path.name}:{c.lineno}" for c in _outcome_calls(tree) if id(c) not in allowed]
    assert found == [] and in_verdict == 2  # verdict's exact and float outcomes


def test_verdict_zero_tolerance():
    assert verdict("t", np.zeros(3, dtype=complex), 1e6, 0.0).passed
    assert not verdict("t", np.array([1e-30 + 0j]), 1e6, 0.0).passed
    assert not verdict("t", float("nan"), 1.0, 1.0).passed


def _embed_reference(m4, i, j, n):
    """The 4x4 matrix lifted to factors i, j of (C^2)^n as a dense matrix, row
    by row from the bits of each basis index (factor 0 the most significant)."""
    dim = 2 ** n
    out = np.full((dim, dim), LaurentPoly.zero() if m4.dtype == object else 0j, dtype=m4.dtype)
    for r in range(dim):
        bits = [(r >> (n - 1 - k)) & 1 for k in range(n)]
        for si in range(2):
            for sj in range(2):
                cb = list(bits)
                cb[i], cb[j] = si, sj
                col = sum(v << (n - 1 - k) for k, v in enumerate(cb))
                out[r, col] = out[r, col] + m4[2 * bits[i] + bits[j], 2 * si + sj]
    return out


def test_apply_two_site_vs_dense_embedding_exact():
    # sixteen distinct symbols, so a transposed or misplaced entry shows
    m4 = np.array([[LaurentPoly.var(u_var(4 * r + c + 1)) for c in range(4)]
                   for r in range(4)], dtype=object)
    for n in (3, 4):
        vec = np.array([LaurentPoly.var(w_var(k + 1)) for k in range(2 ** n)], dtype=object)
        for i, j in itertools.permutations(range(n), 2):
            ref = _embed_reference(m4, i, j, n)
            got = apply_two_site(m4, i, j, n, EXACT.eye(2 ** n))
            assert all(x == y for x, y in zip(got.flat, ref.flat)), (n, i, j)
            got = apply_two_site(m4, i, j, n, vec)
            assert all(x == y for x, y in zip(got, ref @ vec)), (n, i, j)


def test_apply_two_site_vs_dense_embedding_float():
    rng = make_rng(11)
    m4 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for n in (3, 4):
        batch = rng.standard_normal((2 ** n, 3)) + 1j * rng.standard_normal((2 ** n, 3))
        for i, j in itertools.permutations(range(n), 2):
            ref = _embed_reference(m4, i, j, n)
            got = apply_two_site(m4, i, j, n, FLOAT.eye(2 ** n))
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max(), (n, i, j)
            for x in (batch, batch[:, 1]):
                want = ref @ x
                got = apply_two_site(m4, i, j, n, x)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (n, i, j)
