"""Partition function with domain wall boundaries, by two independent routes.

* ``z_algebraic`` evaluates the operator product <0bar| B(lam_1)...B(lam_L) |0>
  through the monodromy matrix.
* ``z_enumerate`` sums the weight product over all ice-rule-valid lattice
  configurations with domain-wall boundary edges.  Neither shares any
  algebra with the monodromy route, so agreement is a genuine cross-check.

The valid configurations (the alternating-sign matrices) do not depend on
the spectral parameters, so they are found once per size and edge
convention and kept as a read-only configuration table: entry [k, c] is the
flat index 4*out + in of vertex k = i*L + j of configuration c in that
vertex's 4x4 ``build_L`` table.  The pruned table comes from a search that
fills the lattice row by row and drops a branch at its first ice-rule or
boundary violation; its columns are in the depth-first order of that
search.  The naive table tests every assignment of the interior edges, in
int64 bit masks, and keeps the same configurations.  Beside each table a
row tree is cached, derived from the table alone: for each row, the
distinct partial configurations with the rows up to it filled, each with
its parent in the row before and its row's vertex kinds.  Configurations
share their partials, so the weighing forms each partial's product once,
row by row from its parent's, for all partials at once, and the last row
is the configurations: every weight is the same left-to-right product as
a per-configuration loop, in fewer multiplies (106,362 instead of 260,260
at L = 6).

Vertex (i, j) carries the spectral argument lambda_i - mu_j.  Edge states
are bits; the arrow encoding is configurable and the shipped default is
pinned by the forcing identity Z(L=1) = c.  Flipping both the horizontal
and the vertical encoding is a symmetry (it relabels every configuration);
flipping only one of them breaks the forcing identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitExceeded
from .monodromy import b_product
from .sampling import pairwise_sum
from .scalar import (CheckOutcome, LaurentPoly, backend_of, invert, q_var, sum_of_products,
                     u_var, w_var)
from .vertex import build_L, verdict

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


def _holds_variable(values) -> bool:
    return any(isinstance(x, LaurentPoly) and x.variables() for x in values)


def z_algebraic(lams, mus, q):
    """<0bar| B(lam_1) ... B(lam_L) |0>; symmetric in the lams.  Past L = 4,
    points, inhomogeneities and q that all hold a variable are refused before
    any B operator is built: at L = 5 they exhaust memory."""
    lams = list(lams)
    mus = list(mus)
    if len(lams) != len(mus):
        raise ValueError("need as many spectral points as inhomogeneities")
    if len(lams) > 4 and all(map(_holds_variable, (lams, mus, [q]))):
        raise SizeLimitExceeded(
            "exact algebraic Z with symbolic points, inhomogeneities and q supports L <= 4")
    return b_product(lams, mus, q)[-1]


def _check_size(L: int, mode: str):
    if mode not in _SIZE_LIMITS:
        raise ValueError(f"unknown mode {mode!r}")
    if L > _SIZE_LIMITS[mode]:
        raise SizeLimitExceeded(f"{mode} enumeration supports L <= {_SIZE_LIMITS[mode]}")


def _kind(a_in, b_in, a_out, b_out):
    """Flat index 4*out + in of a vertex's entry in its 4x4 ``build_L`` table."""
    return 4 * (2 * a_out + b_out) + 2 * a_in + b_in


def _row_moves(L: int, conv: EdgeConvention, last: bool):
    """Every valid filling of one row, from each of the 2^L patterns of
    incoming vertical edges (bit j for column j): (src, kinds, dst), the
    incoming pattern, (L, count) kinds and outgoing pattern of each filling.

    The vertices are fixed left to right for all partial fillings at once,
    each keeping the outgoing pairs that conserve the bit sum, a_out = 0
    before 1, so the fillings are sorted by src and each source's fillings
    are in depth-first order.  Boundary bits (the right one, and the bottom
    ones in the last row) are enforced at their vertex.
    """
    src = np.arange(1 << L)
    vert = src.copy()
    horiz = np.full(1 << L, conv.right)
    a_out = np.array([0, 1])
    kinds = np.empty((0, 1 << L), dtype=np.uint8)
    for j in range(L):
        b_in = vert >> j & 1
        b_out = (horiz + b_in)[:, None] - a_out
        ok = (b_out == 0) | (b_out == 1)
        if j == L - 1:
            ok &= a_out == conv.left
        if last:
            ok &= b_out == conv.up
        parent, a = np.nonzero(ok)
        b = b_out[parent, a]
        kinds = np.concatenate([kinds[:, parent], [_kind(horiz[parent], b_in[parent], a, b)]])
        src, vert, horiz = src[parent], vert[parent] & ~(1 << j) | b << j, a
    return src, kinds.astype(np.uint8), vert.astype(np.uint8)


@functools.lru_cache(maxsize=None)
def _dwbc_kinds(L: int, conv: EdgeConvention) -> np.ndarray:
    """The pruned search's configuration table, read-only, shape (L*L, count):
    entry [k, c] is the ``_kind`` of vertex k = i*L + j of configuration c.

    Row by row, every partial configuration is followed by the
    ``_row_moves`` fillings from its pattern of vertical edges, in order,
    so the columns are in the depth-first order of a vertex-by-vertex search
    that abandons a branch at its first violation.
    """
    moves = [_row_moves(L, conv, last) for last in (False, True)]
    # one partial configuration, with no vertex fixed yet
    table = np.empty((0, 1), dtype=np.uint8)
    pattern = np.array([conv.down * ((1 << L) - 1)])
    for i in range(L):
        src, kinds, dst = moves[i == L - 1]
        # partial configuration p is followed by moves first[p] .. first[p] + count[p] - 1
        first = np.searchsorted(src, pattern)
        count = np.searchsorted(src, pattern, side="right") - first
        parent = np.repeat(np.arange(len(pattern), dtype=np.int32), count)
        move = np.repeat((first - np.cumsum(count) + count).astype(np.int32), count)
        move += np.arange(len(move), dtype=np.int32)
        # in-range indices; mode="clip" writes into out without a buffered copy
        grown = np.empty((L * (i + 1), len(move)), dtype=np.uint8)
        table.take(parent, axis=1, out=grown[:L * i], mode="clip")
        kinds.take(move, axis=1, out=grown[L * i:], mode="clip")
        table, pattern = grown, dst[move]
    table.flags.writeable = False
    return table


_NAIVE_CHUNK = 1 << 20


@functools.lru_cache(maxsize=None)
def _naive_kinds(L: int, conv: EdgeConvention) -> np.ndarray:
    """The brute-force configuration table, in ``_dwbc_kinds``'s format:
    every assignment of the 2L(L-1) interior edges, in itertools.product
    order (interior alpha row-major, then interior beta), that conserves the
    bit sum at every vertex.  A valid configuration's interior alpha edges
    fix its beta edges, so this order is the depth-first one too.

    An assignment is an int64 word: the interior edges from its most
    significant interior bit down, the 4L boundary edges above them as
    constants.  Words are tested in chunks, vertex by vertex, each test
    dropping the words that fail it.
    """
    n = 2 * L * (L - 1)
    interior = iter(range(n - 1, -1, -1))
    boundary = iter(range(n, n + 4 * L))
    # bit position of each edge in a word, indexed like LatticeConfig
    alpha = [[next(boundary), *(next(interior) for _ in range(L - 1)), next(boundary)]
             for _ in range(L)]
    beta = [[next(boundary) for _ in range(L)],
            *([next(interior) for _ in range(L)] for _ in range(L - 1)),
            [next(boundary) for _ in range(L)]]
    fixed = (sum(conv.right << row[0] | conv.left << row[L] for row in alpha)
             + sum(conv.down << p for p in beta[0]) + sum(conv.up << p for p in beta[L]))
    vertices = [(alpha[i][j], beta[i][j], alpha[i][j + 1], beta[i + 1][j])
                for i in range(L) for j in range(L)]
    kept = []
    for start in range(0, 1 << n, _NAIVE_CHUNK):
        words = np.arange(start, min(start + _NAIVE_CHUNK, 1 << n), dtype=np.int64) | fixed
        for a_in, b_in, a_out, b_out in vertices:
            words = words[(words >> a_in & 1) + (words >> b_in & 1)
                          == (words >> a_out & 1) + (words >> b_out & 1)]
        kept.append(words)
    words = np.concatenate(kept)
    table = np.array([_kind(*(words >> p & 1 for p in v)) for v in vertices],
                     dtype=np.uint8).reshape(len(vertices), len(words))
    table.flags.writeable = False
    return table


def _config_table(L: int, mode: str, conv: EdgeConvention) -> np.ndarray:
    _check_size(L, mode)
    return (_dwbc_kinds if mode == "pruned" else _naive_kinds)(L, conv)


@functools.lru_cache(maxsize=None)
def _row_tree(L: int, mode: str, conv: EdgeConvention) -> tuple:
    """The configuration table's row tree: for each row i, (parent, kinds)
    of the distinct partial configurations with rows 0..i filled, in
    column order.  parent[p] is partial p's index in row i - 1 (None in
    row 0), kinds[:, p] its L vertex kinds in row i; read-only, kinds uint8.

    Columns that agree on rows 0..i share a partial, and the table's
    depth-first order keeps them adjacent, so each column is compared with
    the one before it.  In the last row every column is its own partial:
    the last row's partials are the configurations, column by column.
    """
    table = _config_table(L, mode, conv)
    # new[c]: column c begins a partial; before row 0 all share the empty one
    new = np.zeros(table.shape[1], dtype=bool)
    new[:1] = True
    index = None
    rows = []
    for i in range(L):
        row = table[L * i:L * (i + 1)]
        new[1:] |= (row[:, 1:] != row[:, :-1]).any(axis=0)
        if i == L - 1:
            new[:] = True
        first = np.flatnonzero(new)
        # each partial's parent is the row i - 1 partial of its first column
        parent = None if index is None else index[first]
        index = np.cumsum(new, dtype=np.int32) - 1
        kinds = row[:, first]
        kinds.flags.writeable = False
        if parent is not None:
            parent.flags.writeable = False
        rows.append((parent, kinds))
    return tuple(rows)


def iter_dwbc_configs(L: int, conv: EdgeConvention = DEFAULT_CONVENTION,
                      mode: str = "pruned"):
    """All valid configurations, in the configuration table's order."""
    table = _config_table(L, mode, conv)
    kinds = table.reshape(L, L, table.shape[1]).transpose(2, 0, 1)
    for a_out, b_out in zip((kinds >> 3).tolist(), (kinds >> 2 & 1).tolist()):
        yield LatticeConfig(alpha=tuple((conv.right, *row) for row in a_out),
                            beta=((conv.down,) * L, *map(tuple, b_out)))


def _tree_steps(tree, n: int):
    """(k, parent, kind) for each vertex k < n, row by row along the row
    tree: kind indexes vertex k's weights for each partial of its row, and
    parent, at the first vertex of every row after row 0, gathers the row's
    partials from the row before."""
    L = len(tree)
    for i, (parent, kinds) in enumerate(tree):
        for j in range(min(L, n - L * i)):
            # an intp index gathers faster than a uint8 one
            yield L * i + j, parent if j == 0 else None, kinds[j].astype(np.intp)


def _config_weight(tree, weights: np.ndarray, n: int) -> np.ndarray:
    """The weight of every configuration over its first n > L(L-1) vertices:
    the product of weights[k][kind] over the vertices k < n, multiplied left
    to right.  Along the row tree (``_row_tree``), each partial
    configuration takes its parent's product and multiplies in its own
    row's weights, once for all the configurations that share it; the last
    row's partials are the configurations.  Each configuration's product is
    thus the same multiplies in the same order as a per-configuration loop.
    A float product is carried as real and imaginary arrays and formed as
    Python's complex product forms it, so every weight is bit-identical to
    a per-configuration loop over Python complex numbers."""
    if backend_of(weights).exact:
        acc = None
        for k, parent, kind in _tree_steps(tree, n):
            w = weights[k][kind]
            acc = w if acc is None else (acc if parent is None else acc[parent]) * w
        return acc
    re, im = weights.real, weights.imag
    ar = ai = None
    for k, parent, kind in _tree_steps(tree, n):
        br, bi = re[k][kind], im[k][kind]
        if ar is None:
            ar, ai = br, bi
            continue
        if parent is not None:
            ar, ai = ar[parent], ai[parent]
        ar, ai = ar * br - ai * bi, ar * bi + ai * br
    out = np.empty(len(ar), dtype=complex)
    out.real, out.imag = ar, ai
    return out


def z_enumerate(lams, mus, q, mode: str = "pruned",
                conv: EdgeConvention = DEFAULT_CONVENTION):
    """Configuration sum over valid DWBC lattices; equals z_algebraic.
    The empty lattice (L = 0) has one configuration, of weight one.
    An exact sum past L = 4 whose weights hold a variable is refused
    before any configuration weight is formed: those would exhaust memory."""
    lams = list(lams)
    mus = list(mus)
    L = len(lams)
    if len(mus) != L:
        raise ValueError("need as many spectral points as inhomogeneities")
    tree = _row_tree(L, mode, conv)
    if not L:
        # the empty lattice's one configuration weighs the empty product
        return backend_of(q).one
    weights = np.array([build_L(lam * invert(mu), q).ravel() for lam in lams for mu in mus])
    bk = backend_of(weights)
    if bk.exact:
        if L > 4 and _holds_variable(weights.flat):
            raise SizeLimitExceeded("exact enumeration with symbolic weights supports L <= 4")
        # the last vertex's products go to the sum-of-products kernel unformed
        last = tree[-1][1][-1]
        prefix = _config_weight(tree, weights, L * L - 1) if L > 1 else [bk.one] * len(last)
        return sum_of_products(zip(prefix, weights[-1][last]))
    terms = _config_weight(tree, weights, L * L)
    # deterministic pairwise reduction in configuration order
    return pairwise_sum(terms) if len(terms) else bk.zero


def count_configs(L: int, mode: str = "pruned") -> int:
    """Number of ice-rule-valid DWBC configurations."""
    return _config_table(L, mode, DEFAULT_CONVENTION).shape[1]


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


def polynomial_structure_report(L: int) -> CheckOutcome:
    """Degree/parity facts of the shifted partition polynomial: in each u_i
    its exponents are all even, within [0, 2(L-1)] and reach 2(L-1).  The
    exact residual counts the facts that fail."""
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
    return verdict("polynomial-structure", [even, within, full].count(False), None, 0,
                   {"L": L, "degrees": degs, "all_even": even, "within_bounds": within,
                    "full_degree": full})
