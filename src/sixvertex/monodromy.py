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

A monodromy may also carry a batch of k spectral points: each site's
weights a, b, c are then (k,) arrays (object arrays when exact), and column
i of a (2^L, k) batch is acted on by the operator of entry i.  ``b_products``
applies a sequence of such B operators to the vacuum, so the B products of
k point sets are one sweep per operator; ``b_product`` is its one-set case.

The exchange relation R T1 T2 = T1 T2 R lives on aux1 x aux2 x 2^L, and is
checked in the same style: ``_apply_T`` applies T on one aux factor as one
sweep over both aux components, R acts on the two aux factors through
``vertex.apply_two_site``, and both sides are applied to one batch, the
identity for the full matrix identity or a few random probe columns.
A monodromy carries the ``scalar.Backend`` of its point or its batch, and
vacua, identities and the checks' float scales come from that record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidingSpectralPoints, DimensionMismatch
from .sampling import MIN_POLE_DISTANCE, pole_distance
from .scalar import EXACT, Backend, CheckOutcome, backend_of, invert
from .vertex import Weights, apply_two_site, build_R, verdict, weights_of

_BLOCKS = ("A", "B", "C", "D")
_RTT_PROBES = 8  # random columns probed by the float RTT check above L = 4


def vacuum(L: int, backend: Backend = EXACT) -> np.ndarray:
    """|0>: all quantum spins in the first basis state."""
    return backend.full(2 ** L, 0)


def dual_vacuum(L: int, backend: Backend = EXACT) -> np.ndarray:
    """|0bar>: all quantum spins in the second basis state."""
    return backend.full(2 ** L, -1)


@dataclass
class Monodromy:
    """The monodromy matrix of one row, as the vertex weights of each site
    (``vertex.Weights`` at u / w_j): scalars for one spectral point u, or
    (k,) arrays for a batch of k points."""

    weights: tuple
    backend: Backend
    _blocks: dict = field(default_factory=dict, repr=False)
    # always the sweep; a constant because perfbench's traced run still reads it
    representation = "matrix-free"

    @property
    def size(self) -> int:
        return len(self.weights)

    def block(self, name: str) -> np.ndarray:
        """The block as a 2^L x 2^L matrix: one sweep over the identity, cached."""
        if name not in self._blocks:
            self._blocks[name] = apply_block(self, name, self.backend.eye(2 ** self.size))
        return self._blocks[name]

    def apply(self, name: str, vec: np.ndarray) -> np.ndarray:
        return apply_block(self, name, vec)


def build_monodromy(u, ws, q) -> Monodromy:
    """Ordered product L_A1(lam-mu_1) ... L_AL(lam-mu_L) over the aux space."""
    return Monodromy(tuple(weights_of(u * invert(wv), q) for wv in ws), backend_of(u))


def batch_monodromy(rows) -> Monodromy:
    """The monodromies of k spectral points as one batch: rows, a (k, L, 3)
    array, holds at [i, j] the weights (a, b, c) of point i at site j, and
    site j of the batch carries their a, b, c as (k,) arrays: complex, or
    object if exact."""
    return Monodromy(tuple(Weights(*site) for site in rows.transpose(1, 2, 0)), backend_of(rows))


def b_products(ms, v: np.ndarray) -> np.ndarray:
    """B(ms[0]) ... B(ms[-1]) v, applied right to left: one sweep per
    operator, over a vector (2^L,) or a batch (2^L, k) for batch
    monodromies."""
    for m in reversed(ms):
        v = apply_block(m, "B", v)
    return v


def b_product(points, mus, q) -> np.ndarray:
    """prod B(points[k]) |0>, applied right to left; |0> itself in q's
    backend when there are no points.  The one-set case of ``b_products``."""
    v = vacuum(len(mus), backend_of(points[0] if len(points) else q))
    return b_products([build_monodromy(p, mus, q) for p in points], v)


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


def _sweep(m: Monodromy, phi0: np.ndarray, phi1: np.ndarray):
    """The whole monodromy on an aux pair: the one-site factors applied
    right to left to (phi0, phi1), giving (A phi0 + B phi1, C phi0 + D phi1)."""
    for j in range(m.size, 0, -1):
        phi0, phi1 = _apply_site(phi0, phi1, j, m.size, m.weights[j - 1])
    return phi0, phi1


def apply_block(m: Monodromy, name: str, vec: np.ndarray) -> np.ndarray:
    """Apply block A/B/C/D to a state vector (2^L,) or to each column of a
    batch (2^L, k): one sweep with ``vec`` in the block's aux column and
    zero in the other.
    """
    if name not in _BLOCKS:
        raise KeyError(name)
    if len(vec) != 2 ** m.size:
        raise DimensionMismatch(f"vector of length {len(vec)} for L={m.size}")
    row, col = divmod(_BLOCKS.index(name), 2)
    bk = backend_of(vec)  # a batch of no sites has no weights to tell
    phi = [bk.full(vec.shape), bk.full(vec.shape)]
    phi[col][...] = vec  # a real vector is swept in complex arrays
    return _sweep(m, *phi)[row]


def _apply_T(m: Monodromy, slot: int, x: np.ndarray) -> np.ndarray:
    """T on auxiliary factor ``slot`` (0 or 1) of aux1 x aux2 x 2^L, applied to
    a vector (4 2^L,) or each column of a batch (4 2^L, k): one sweep over
    both aux components."""
    dim = 2 ** m.size
    # (aux in this slot, aux in the other slot, quantum, columns)
    t = np.moveaxis(x.reshape((2, 2, dim) + x.shape[1:]), slot, 0)
    cols = [np.moveaxis(t[c], 1, 0).reshape(dim, -1) for c in range(2)]
    rows = _sweep(m, cols[0], cols[1])
    out = np.stack([np.moveaxis(y.reshape((dim, 2) + x.shape[1:]), 0, 1) for y in rows])
    return np.moveaxis(out, 0, slot).reshape(x.shape)


def rtt_residual(u, v, ws, q, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(R(lam-nu) T1(lam) T2(nu) - T1(nu) T2(lam) R(lam-nu)) x on
    aux1 x aux2 x 2^L, for a vector or a batch x, together with a float scale
    (None in the exact backend).  On the identity it is the full matrix
    identity."""
    n = len(ws) + 2
    Tu = build_monodromy(u, ws, q)
    Tv = build_monodromy(v, ws, q)
    R = build_R(u * invert(v), q)
    lhs = apply_two_site(R, 0, 1, n, _apply_T(Tu, 0, _apply_T(Tv, 1, x)))
    rhs = _apply_T(Tv, 0, _apply_T(Tu, 1, apply_two_site(R, 0, 1, n, x)))
    return lhs - rhs, Tu.backend.abs_sum(lhs, rhs)


def check_rtt(u, v, ws, q, tolerance: float = 1e-9, rng=None) -> CheckOutcome:
    """Exchange-relation check.  The full 4*2^L matrix identity is formed for
    L <= 4 (or exact backend); larger float sizes probe _RTT_PROBES random
    columns drawn from rng."""
    L = len(ws)
    bk = backend_of(u)
    dim = 4 * 2 ** L
    if bk.exact or L <= 4:
        x = bk.eye(dim)
    elif rng is None:
        raise ValueError("probing RTT for L > 4 requires an rng")
    else:
        x = np.stack([rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                      for _ in range(_RTT_PROBES)], axis=1)
    return verdict("rtt", *rtt_residual(u, v, ws, q, x), tolerance)


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
    bk = ml.backend
    if rule == "BB":
        t1 = ml.block("B") @ mn.block("B")
        t2 = mn.block("B") @ ml.block("B")
        return t1 - t2, bk.abs_sum(t1, t2)
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
        return t1 - t2, bk.abs_sum(t1, t2)
    return t1 - t2 + t3, bk.abs_sum(t1, t2, t3)


def check_commutation(rule: str, lam, nu, ws, q,
                      tolerance: float = 1e-9) -> CheckOutcome:
    if not backend_of(lam).exact and rule in ("AB", "DB", "CB"):
        if pole_distance(lam, nu) < MIN_POLE_DISTANCE:
            raise CoincidingSpectralPoints(
                f"lam and nu too close for rule {rule}: b(lam-nu) ~ 0")
    return verdict(f"commutation-{rule}", *commutation_residual(rule, lam, nu, ws, q), tolerance)


def triangular_action_residuals(u, ws, q) -> dict[str, np.ndarray]:
    """Residual vectors of all eight vacuum/dual-vacuum block actions.

    A|0> - prod a |0>,  D|0> - prod b |0>,  C|0>,  B|0bar>,
    A|0bar> - prod b |0bar>,  D|0bar> - prod a |0bar>, and the two
    'must be nonzero' actions B|0>, C|0bar> returned as-is for inspection.
    """
    L = len(ws)
    m = build_monodromy(u, ws, q)
    v0 = vacuum(L, m.backend)
    v1 = dual_vacuum(L, m.backend)
    prod_a = prod_b = m.backend.one
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
    """The six vanishing actions as one residual; B|0> and C|0bar> must fail
    that same verdict."""
    bk = backend_of(u)
    res = triangular_action_residuals(u, ws, q)
    scale = bk.abs_sum(*res.values())
    present = all(not verdict("", v, scale, tolerance).passed
                  for k, v in res.items() if "nonzero" in k)
    out = verdict("triangular-actions",
                  np.concatenate([v for k, v in res.items() if "nonzero" not in k]),
                  scale, tolerance, {"nonzero_actions_present": present} if bk.exact else None)
    out.passed = out.passed and present
    return out
