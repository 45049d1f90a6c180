"""Partition function with domain wall boundaries, by two independent routes.

* ``z_algebraic`` evaluates the operator product <0bar| B(lam_1)...B(lam_L) |0>
  through the monodromy matrix.
* ``z_enumerate`` sums the weight product over all ice-rule-valid lattice
  configurations with domain-wall boundary edges, by brute force over the
  interior edges (naive) or by a row-by-row depth-first sweep that abandons a
  branch at the first ice-rule violation (pruned).  Neither shares any
  algebra with the monodromy route, so agreement is a genuine cross-check.

Vertex (i, j) carries the spectral argument lambda_i - mu_j.  Edge states
are bits; the arrow encoding is configurable and the shipped default is
pinned by the forcing identity Z(L=1) = c.  Flipping both the horizontal
and the vertical encoding is a symmetry (it relabels every configuration);
flipping only one of them breaks the forcing identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeLimitExceeded
from .monodromy import build_monodromy, vacuum
from .sampling import pairwise_sum
from .scalar import LaurentPoly, invert, is_exact, q_var, u_var, w_var
from .vertex import build_L

_SIZE_LIMITS = {"pruned": 6, "naive": 4}


@dataclass(frozen=True)
class EdgeConvention:
    """Bit encoding of the four arrow states on lattice edges."""

    right: int = 1
    left: int = 0
    down: int = 0
    up: int = 1

    def __post_init__(self):
        if {self.right, self.left} != {0, 1} or {self.down, self.up} != {0, 1}:
            raise ValueError("each axis must use both bit values")


DEFAULT_CONVENTION = EdgeConvention()


@dataclass(frozen=True)
class LatticeConfig:
    """Edge states of one lattice configuration.

    alpha[i][j]: horizontal edges, i = 0..L-1 rows, j = 0..L columns.
    beta[i][j]:  vertical edges,   i = 0..L rows,  j = 0..L-1 columns.
    """

    alpha: tuple
    beta: tuple

    @property
    def size(self) -> int:
        return len(self.alpha)

    def satisfies_dwbc(self, conv: EdgeConvention = DEFAULT_CONVENTION) -> bool:
        L = self.size
        return (
            all(self.alpha[i][0] == conv.right for i in range(L))
            and all(self.alpha[i][L] == conv.left for i in range(L))
            and all(self.beta[0][j] == conv.down for j in range(L))
            and all(self.beta[L][j] == conv.up for j in range(L))
        )

    def satisfies_ice_rule(self) -> bool:
        L = self.size
        for i in range(L):
            for j in range(L):
                if self.alpha[i][j] + self.beta[i][j] != self.alpha[i][j + 1] + self.beta[i + 1][j]:
                    return False
        return True


def _weight_tables(lams, mus, q):
    """Nested Python lists: indexing them is cheaper than numpy's [row, col]."""
    return [[build_L(lam * invert(mu), q).tolist() for mu in mus] for lam in lams]


@dataclass(frozen=True)
class PartitionValue:
    """A computed partition-function value with its provenance."""

    value: object
    method: str
    size: int
    lams: tuple
    mus: tuple
    q: object


def compute_partition(lams, mus, q, method: str = "algebraic",
                      conv: EdgeConvention = DEFAULT_CONVENTION) -> PartitionValue:
    """One partition-function evaluation tagged with how it was obtained."""
    lams, mus = tuple(lams), tuple(mus)
    if method == "algebraic":
        value = z_algebraic(lams, mus, q)
    elif method in ("enumerate-pruned", "enumerate-naive"):
        value = z_enumerate(lams, mus, q, method.split("-", 1)[1], conv)
    else:
        raise ValueError(f"unknown method {method!r}")
    return PartitionValue(value, method, len(lams), lams, mus, q)


def z_algebraic(lams, mus, q):
    """<0bar| B(lam_1) ... B(lam_L) |0>; symmetric in the lams."""
    lams = list(lams)
    mus = list(mus)
    if len(lams) != len(mus):
        raise ValueError("need as many spectral points as inhomogeneities")
    L = len(lams)
    exact = is_exact(lams[0])
    v = vacuum(L, exact)
    for lam in reversed(lams):
        v = build_monodromy(lam, mus, q).apply("B", v)
    return v[-1]


def _check_size(L: int, mode: str):
    if mode not in _SIZE_LIMITS:
        raise ValueError(f"unknown mode {mode!r}")
    if L > _SIZE_LIMITS[mode]:
        raise SizeLimitExceeded(f"{mode} enumeration supports L <= {_SIZE_LIMITS[mode]}")


def _dwbc_walk(L: int, conv: EdgeConvention, tables=None, snapshot=None) -> list:
    """The pruned search: the weights of all valid configurations, in order.

    One depth-first walk fixes the vertices row-major; at each vertex only
    outgoing pairs that conserve the bit sum survive, and boundary bits are
    enforced as soon as they are reached.  No transfer-matrix or operator
    structure is used.  The walk carries the running product of the weights
    tables[i][j][out][in] (1 when ``tables`` is None), so each weight is
    ``_config_weight``'s left-to-right product with shared prefixes
    multiplied once.  ``snapshot(alpha, beta)``, if given, sees each
    configuration's flat edge lists (row i at i*(L+1) and at i*L).
    """
    n = L * L
    alpha = [None] * (L * (L + 1))
    alpha[::L + 1] = [conv.right] * L
    beta = [conv.down] * L + [None] * n

    def surviving(i, j, a_in, b_in):
        out = []
        for a_out in (0, 1):
            b_out = a_in + b_in - a_out
            if (b_out not in (0, 1) or (j == L - 1 and a_out != conv.left)
                    or (i == L - 1 and b_out != conv.up)):
                continue
            w = 1 if tables is None else tables[i][j][2 * a_out + b_out][2 * a_in + b_in]
            out.append((a_out, b_out, w))
        return out

    # moves[k][a_in][b_in] at vertex k = i*L + j
    moves = [[[surviving(i, j, a, b) for b in (0, 1)] for a in (0, 1)]
             for i in range(L) for j in range(L)]
    weights = []

    def rec(k, acc):
        if k == n:
            weights.append(acc)
            if snapshot:
                snapshot(alpha, beta)
            return
        h = k + k // L
        for a_out, b_out, w in moves[k][alpha[h]][beta[k]]:
            alpha[h + 1] = a_out
            beta[k + L] = b_out
            rec(k + 1, w if acc is None else acc * w)

    rec(0, None)
    # rec's closure holds rec: clearing it frees the walk's state now, not
    # at some later cyclic garbage collection
    del rec
    return weights


def iter_dwbc_configs(L: int, conv: EdgeConvention = DEFAULT_CONVENTION):
    """All valid configurations, in the pruned search's order."""
    _check_size(L, "pruned")
    configs = []
    _dwbc_walk(L, conv, snapshot=lambda alpha, beta: configs.append(LatticeConfig(
        alpha=tuple(tuple(alpha[i * (L + 1):(i + 1) * (L + 1)]) for i in range(L)),
        beta=tuple(tuple(beta[i * L:(i + 1) * L]) for i in range(L + 1)),
    )))
    yield from configs


def _config_weight(cfg: LatticeConfig, tables):
    L = cfg.size
    acc = None
    for i in range(L):
        for j in range(L):
            row = 2 * cfg.alpha[i][j + 1] + cfg.beta[i + 1][j]
            col = 2 * cfg.alpha[i][j] + cfg.beta[i][j]
            wv = tables[i][j][row][col]
            acc = wv if acc is None else acc * wv
    return acc


def z_enumerate(lams, mus, q, mode: str = "pruned",
                conv: EdgeConvention = DEFAULT_CONVENTION):
    """Configuration sum over valid DWBC lattices; equals z_algebraic."""
    lams = list(lams)
    mus = list(mus)
    L = len(lams)
    if len(mus) != L:
        raise ValueError("need as many spectral points as inhomogeneities")
    _check_size(L, mode)
    tables = _weight_tables(lams, mus, q)
    if mode == "pruned":
        terms = _dwbc_walk(L, conv, tables)
    else:
        terms = [_config_weight(cfg, tables) for cfg in _iter_configs_naive(L, conv)]
    if is_exact(lams[0]):
        return sum(terms, LaurentPoly.zero())
    # deterministic pairwise reduction in configuration order
    return pairwise_sum(terms) if terms else 0j


def _iter_configs_naive(L: int, conv: EdgeConvention):
    """All interior edge assignments, filtered by the ice rule afterwards."""
    n = L * (L - 1)
    for bits in itertools.product((0, 1), repeat=2 * n):
        cfg = LatticeConfig(
            alpha=tuple((conv.right, *bits[i * (L - 1):(i + 1) * (L - 1)], conv.left)
                        for i in range(L)),
            beta=((conv.down,) * L, *(bits[n + i * L:n + (i + 1) * L] for i in range(L - 1)),
                  (conv.up,) * L),
        )
        if cfg.satisfies_ice_rule():
            yield cfg


def count_configs(L: int, mode: str = "pruned") -> int:
    """Number of ice-rule-valid DWBC configurations."""
    _check_size(L, mode)
    if mode == "naive":
        return sum(1 for _ in _iter_configs_naive(L, DEFAULT_CONVENTION))
    return len(_dwbc_walk(L, DEFAULT_CONVENTION))


# -- symbolic helpers ---------------------------------------------------


def standard_symbolic_params(L: int):
    """(lams, mus, q) as the canonical symbolic monomials u_i, w_k, q."""
    lams = [LaurentPoly.var(u_var(i)) for i in range(1, L + 1)]
    mus = [LaurentPoly.var(w_var(i)) for i in range(1, L + 1)]
    return lams, mus, LaurentPoly.var(q_var())


def shifted_polynomial(z: LaurentPoly, L: int) -> LaurentPoly:
    """Z times prod u_i^(L-1) w_i^-(L-1): the polynomial whose degree in each
    u_i is 2(L-1) and whose exponents are all even (degree L-1 in each x_i)."""
    shift = LaurentPoly.monomial(1, {
        **{u_var(i): L - 1 for i in range(1, L + 1)},
        **{w_var(i): -(L - 1) for i in range(1, L + 1)},
    })
    return z * shift


@dataclass
class PolynomialStructureReport:
    """Degree/parity facts of the shifted partition polynomial."""

    size: int
    degrees: dict
    all_even: bool
    within_bounds: bool
    full_degree: bool

    @property
    def ok(self) -> bool:
        return self.all_even and self.within_bounds and self.full_degree


def polynomial_structure_report(L: int) -> PolynomialStructureReport:
    lams, mus, q = standard_symbolic_params(L)
    p = shifted_polynomial(z_algebraic(lams, mus, q), L)
    degs = {}
    even = True
    within = True
    full = True
    for i in range(1, L + 1):
        exps = p.exponents_of(u_var(i))
        degs[f"u{i}"] = (min(exps), max(exps))
        even = even and all(e % 2 == 0 for e in exps)
        within = within and min(exps) >= 0 and max(exps) <= 2 * (L - 1)
        full = full and max(exps) == 2 * (L - 1)
    return PolynomialStructureReport(L, degs, even, within, full)
