"""Query-specific rank fusion across hash tables via a random walk with restart.

Each table's top candidates (plus the query) become vertices of a graph whose
edge weights come from inner products of truncated anchor similarities in the
weighted Hamming space. Graphs from all tables are superposed, the weight
matrix is row-normalized into a transition matrix P, and a restart walk that
keeps most of its mass on the query scores every candidate: its visiting
probabilities solve (I - alpha P^T) r = (1 - alpha) restart.

On the query path no graph is materialised: each table's weights stay as the
factors of its embedding, and the superposition as one pair of sparse factors
over every table's candidate rows, applied in O(candidates * s_nn). Every
table's weights are symmetric, so with D the vertex degrees the walk's system
is self-adjoint and positive definite in the inner product weighted by 1/D,
once the dangling vertices (no edges) are solved in closed form; the walk
solves it by conjugate gradients on that operator. P^T is column-stochastic,
so ||(I - alpha P^T)^-1||_1 <= 1 / (1 - alpha), and the l1 norm of the
residual b - A r, computed from the operator, over 1 - alpha bounds the l1
error of r; the walk stops once that certificate is below its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .anchors import SCREEN_ENTRIES, SparseEmbedding, kernel_rows, smallest_per_row
from .hashing import PackedCodes, kth_smallest, unpack_bits
from .qrank import (HashTable, QueryParams, QRankResult, _check_top_n, qrank_query,
                    weighted_hamming_scan)

QUERY_VERTEX = -1
# A measured residual that does not halve the last one has stagnated at rounding.
STALL = 0.5
# The walk measures its residual once the recursive estimate has fallen this much
# since the last measurement, before rounding can part the two far.
MEASURE_DROP = 2.0 ** 40


@dataclass
class SimilarityFactors:
    """One graph's edge weights S = D^-1 G + G D^-1 off the diagonal, kept factored.

    G = Z Z^T with Z the candidates x anchors embedding, which has exactly
    s_nn entries per row: row i's anchor ids are indices[i] and its weights
    values[i]. D = diag(lambda), lambda = Z (Z^T 1); inv_lam is 1/lambda, 0
    on isolated rows. `tocsr` materialises S for oracles and diagnostics.
    """

    indices: np.ndarray  # (n, s_nn) anchor ids
    values: np.ndarray   # (n, s_nn) embedding weights
    n_anchors: int
    inv_lam: np.ndarray

    def tocsr(self) -> sp.csr_matrix:
        n, s_nn = self.indices.shape
        zmat = sp.csr_matrix((self.values.ravel(), self.indices.ravel(),
                              np.arange(0, n * s_nn + 1, s_nn)), shape=(n, self.n_anchors))
        g = (zmat @ zmat.T).tocsr()
        half = sp.diags(self.inv_lam) @ (g - sp.diags(g.diagonal()))
        s = (half + half.T).tocsr()
        s.eliminate_zeros()
        return s


@dataclass
class CandidateGraph:
    """One table's candidate graph: global vertex ids (query = -1) and edge weights.

    edges is a SimilarityFactors, symmetric by construction, or any scipy
    sparse matrix, which must be square over the vertices, symmetric and
    nonnegative: the walk's solver and its closed form for dangling vertices
    rely on that.
    """

    table_id: int
    vertices: np.ndarray
    edges: object
    isolated: np.ndarray = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.int64)
        if not isinstance(self.edges, SimilarityFactors):
            e, n = sp.csr_matrix(self.edges), len(self.vertices)
            if e.shape != (n, n):
                raise ValueError(f"graph {self.table_id}: edge matrix is {e.shape[0]} x "
                                 f"{e.shape[1]}, expected {n} x {n} for its {n} vertices")
            if not np.all(e.data >= 0.0):
                raise ValueError(f"graph {self.table_id}: edge weights must be nonnegative")
            if (e != e.T).nnz:
                raise ValueError(f"graph {self.table_id}: edge matrix must be symmetric")
        if self.isolated is None:
            self.isolated = np.zeros(len(self.vertices), dtype=bool)


class FusedGraph:
    """Union graph omega = sum_m Pi_m^T S_m Pi_m, kept as its per-graph parts.

    parts holds, per superposed graph, the positions of its vertices in
    `vertices` (Pi_m) and its edges. The factored parts are stacked into one
    operator over all their candidate rows: S_m = U_m V_m^T - diag(c_m) with
    U_m = [D^-1 Z, Z] and V_m = [Z, D^-1 Z], each table taking its own 2K
    columns. A row holds 2 s_nn distinct columns, so U and V share one index
    array and differ only in their data, and c_m is the diagonal of U_m V_m^T.
    `rmatvec` applies omega^T by a gather of x at the rows' positions, U^T, V
    and a scatter back, in O(candidates * s_nn); explicit matrices are applied
    as they are.

    transition_and_restart fills restart, alpha, inv_degree (1/row sums of
    omega, 0 on dangling rows) and dangling. `omega` and `transition` (P =
    diag(inv_degree) omega, dangling rows uniform) are materialised on first
    access, for oracles and diagnostics; either may also be assigned.
    """

    def __init__(self, vertices, parts):
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self.parts = parts
        self.restart: Optional[np.ndarray] = None
        self.alpha = 0.85
        self.inv_degree: Optional[np.ndarray] = None
        self.dangling: Optional[np.ndarray] = None

        self._explicit = [(pos, sp.csr_matrix(e)) for pos, e in parts
                          if not isinstance(e, SimilarityFactors)]
        factored = [(pos, f) for pos, f in parts if isinstance(f, SimilarityFactors)]
        self._pos = None
        if not factored:
            return
        cols, u, v, c, width = [], [], [], [], 0
        for _, f in factored:
            z = f.values
            a = z * f.inv_lam[:, None]
            cols.append((np.hstack([f.indices, f.indices + f.n_anchors]) + width).ravel())
            u.append(np.hstack([a, z]).ravel())
            v.append(np.hstack([z, a]).ravel())
            c.append(2.0 * np.einsum("ij,ij->i", a, z))
            width += 2 * f.n_anchors
        self._pos = np.concatenate([pos for pos, _ in factored])
        self._c = np.concatenate(c)
        row_len = np.repeat([2 * f.values.shape[1] for _, f in factored],
                            [len(pos) for pos, _ in factored])
        indptr = np.concatenate(([0], np.cumsum(row_len)))
        cols = np.concatenate(cols)
        shape = (len(self._pos), width)
        self._u = sp.csr_matrix((np.concatenate(u), cols, indptr), shape=shape)
        self._v = sp.csr_matrix((np.concatenate(v), cols, indptr), shape=shape)
        self._ut = self._u.T  # a CSC view of the same arrays

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """omega^T @ x."""
        nv = len(self.vertices)
        if self._pos is not None:
            y = x[self._pos]
            out = np.bincount(self._pos, self._v @ (self._ut @ y) - self._c * y, minlength=nv)
        else:
            out = np.zeros(nv)
        for pos, e in self._explicit:
            out[pos] += e.T @ x[pos]
        return out

    def row_sums(self) -> np.ndarray:
        """omega @ 1 from the operator's factors, exactly 0 on rows without edges.

        A factored row sums U_ie ((V^T 1)_e - V_ie) over its entries e, which
        leaves out its own diagonal term; an anchor no other row holds gives
        exactly (v - v) = 0.
        """
        nv = len(self.vertices)
        out = np.zeros(nv)
        if self._pos is not None:
            u, v = self._u, self._v
            col_sums = np.bincount(u.indices, v.data, minlength=u.shape[1])
            terms = u.data * (col_sums.take(u.indices) - v.data)
            out += np.bincount(self._pos, np.add.reduceat(terms, u.indptr[:-1]), minlength=nv)
        for pos, e in self._explicit:
            out[pos] += e @ np.ones(len(pos))
        return out

    @cached_property
    def omega(self) -> sp.csr_matrix:
        nv = len(self.vertices)
        out = sp.csr_matrix((nv, nv))
        for pos, edges in self.parts:
            e = edges.tocsr().tocoo()
            out = out + sp.csr_matrix((e.data, (pos[e.row], pos[e.col])), shape=(nv, nv))
        return out

    @cached_property
    def transition(self) -> sp.csr_matrix:
        if self.inv_degree is None:
            raise ValueError("call transition_and_restart first")
        nv = len(self.vertices)
        uniform = sp.csr_matrix(self.dangling[:, None] / nv) @ sp.csr_matrix(np.ones((1, nv)))
        return (sp.diags(self.inv_degree) @ self.omega + uniform).tocsr()


@dataclass
class RankScores:
    """Visiting probabilities over the fused vertices, and how the solve ended.

    iterations counts operator applications; residual bounds the l1 error
    ||r - r*||_1 of r against the exact walk scores r*.
    """

    r: np.ndarray
    iterations: int
    converged: bool
    residual: float


@dataclass
class QsrfParams:
    """Knobs for the fused reranking pipeline."""

    top_n: int = 1000
    alpha: float = 0.85
    restart_mass: float = 0.99
    walk_tol: float = 1e-10
    walk_max_iters: int = 1000
    query: QueryParams = field(default_factory=QueryParams)


@dataclass
class QsrfResult:
    ids: np.ndarray
    scores: np.ndarray
    per_table: list
    fused: FusedGraph
    walk: RankScores


def candidate_embedding(
    candidate_words: np.ndarray,
    anchor_codes: PackedCodes,
    bits: int,
    wstar: np.ndarray,
    s_nn: int,
) -> SparseEmbedding:
    """Truncated anchor similarities of candidates under weighted Hamming distance.

    Every candidate row (the query included) keeps its s_nn nearest anchors by
    weighted Hamming distance E, ties to the lower anchor id; kept entries are
    exp(-E / sigma_h) normalized to sum 1. sigma_h is W = sum(w*), the
    largest attainable weighted distance (1 when that is 0). On the grid of
    qrank.dyadic_weights, where the ranking's weights lie, every sum below is
    exact, so E is the exact distance whatever the BLAS.

    Prune: row 0 is the pivot p. With E_(s) the s_nn-th smallest E(p, a)
    and R = max_i E(p, c_i), anchors with E(p, a) > E_(s) + 2R are dropped.
    For any row c, such an anchor has E(c, a) >= E(p, a) - E(p, c) > E_(s) +
    R, while each of the pivot's s_nn nearest anchors a' has E(c, a') <=
    E_(s) + R, so a is in no row's top s_nn.

    Screen: on the kept anchors, E = c.w + a.w - 2 (c o w).a, all in one
    matmul of the rows [-2 c o w, c.w, 1] and [a, 1, a.w], in row blocks of
    at most SCREEN_ENTRIES entries. Each row keeps its entries at or below
    its s_nn-th smallest value.
    """
    wstar = np.asarray(wstar, dtype=np.float64)
    if not 1 <= s_nn <= anchor_codes.n:
        raise ValueError(f"need 1 <= s_nn <= anchor count {anchor_codes.n}, got s_nn={s_nn}")
    total = float(wstar.sum())
    cands = PackedCodes(candidate_words, bits)
    pivot = cands.words[0]
    # prune: anchors too far from the pivot to reach any row's top s_nn
    to_anchor = weighted_hamming_scan(anchor_codes, pivot, wstar)
    radius = float(weighted_hamming_scan(cands, pivot, wstar).max())
    kept = np.flatnonzero(to_anchor <= kth_smallest(to_anchor, s_nn) + 2.0 * radius)
    ab = unpack_bits(PackedCodes(anchor_codes.words[kept], bits))
    cw = unpack_bits(cands) * wstar
    lhs = np.hstack([-2.0 * cw, cw.sum(axis=1)[:, None], np.ones((cands.n, 1))])
    rhs = np.hstack([ab, np.ones((len(kept), 1)), (ab @ wstar)[:, None]]).T
    step = max(1, SCREEN_ENTRIES // len(kept))
    flat, vals = [], []
    for lo in range(0, cands.n, step):
        screen = lhs[lo:lo + step] @ rhs
        # flatnonzero and divmod take half the time of a 2-d np.nonzero here
        at = np.flatnonzero(screen <= kth_smallest(screen, s_nn)[:, None])
        flat.append(at + lo * len(kept))
        vals.append(screen.ravel()[at])
    rows, cols = np.divmod(np.concatenate(flat), len(kept))
    indices, dist = smallest_per_row(rows, kept[cols], np.concatenate(vals), s_nn)
    return SparseEmbedding(indices=indices.astype(np.int32),
                           values=kernel_rows(dist, total if total > 0 else 1.0))


def candidate_similarity(z: SparseEmbedding, n_anchors: int):
    """Edge weights S_ij = <Z_i,Z_j>/lambda_i + <Z_i,Z_j>/lambda_j, zero diagonal.

    lambda_i sums <Z_i, Z_j> over every row j of this graph. Rows with
    lambda_i = 0 get no edges and are flagged isolated. Returns
    (SimilarityFactors, isolated); S itself is never formed.
    """
    indices = z.indices.astype(np.intp)  # numpy indexes fastest with intp
    zt1 = np.bincount(indices.ravel(), z.values.ravel(), minlength=n_anchors)
    lam = np.einsum("ij,ij->i", z.values, zt1[indices])
    isolated = lam <= 0.0
    inv = np.zeros(z.n)
    inv[~isolated] = 1.0 / lam[~isolated]
    return SimilarityFactors(z.indices, z.values, n_anchors, inv), isolated


def build_candidate_graph(table: HashTable, table_id: int, result: QRankResult) -> CandidateGraph:
    """Assemble one table's graph from its ranked candidates; query vertex first."""
    cand_words = np.vstack([
        result.query_words[None, :],
        table.codes.words[result.local_ids],
    ])
    z = candidate_embedding(
        cand_words,
        table.anchor_model.anchor_codes,
        table.hash_model.bits,
        result.weights.calibrated,
        table.anchor_model.s_nn,
    )
    s, isolated = candidate_similarity(z, table.anchor_model.k)
    vertices = np.concatenate(([QUERY_VERTEX], result.ids))
    return CandidateGraph(table_id=table_id, vertices=vertices, edges=s, isolated=isolated)


def fuse(graphs: Sequence[CandidateGraph]) -> FusedGraph:
    """Superpose candidate graphs: union vertices, edge weights summed elementwise."""
    if not graphs:
        raise ValueError("fuse needs at least one graph")
    for gr in graphs:
        if QUERY_VERTEX not in gr.vertices:
            raise ValueError(f"graph {gr.table_id} lacks the query vertex")
    union, where = np.unique(np.concatenate([gr.vertices for gr in graphs]), return_inverse=True)
    ends = np.cumsum([len(gr.vertices) for gr in graphs])
    return FusedGraph(vertices=union, parts=[(where[end - len(gr.vertices):end], gr.edges)
                                             for gr, end in zip(graphs, ends)])


def transition_and_restart(fused: FusedGraph, alpha: float = 0.85, restart_mass: float = 0.99) -> FusedGraph:
    """Fill the row normalization of omega (P = D^-1 omega, dangling rows uniform) and restart.

    Row sums come from the fused operator's factors, which sum a row that
    shares no anchor to exactly 0, so dangling rows are the rows without edges.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    if not (0.0 <= restart_mass <= 1.0):
        raise ValueError("restart_mass must be in [0, 1]")
    nv = len(fused.vertices)
    rowsum = fused.row_sums()
    dangling = rowsum <= 0.0
    inv = np.zeros(nv)
    inv[~dangling] = 1.0 / rowsum[~dangling]
    qpos = np.flatnonzero(fused.vertices == QUERY_VERTEX)
    if len(qpos) != 1:
        raise ValueError("fused graph must contain exactly one query vertex")
    restart = np.zeros(nv)
    if nv == 1:
        restart[0] = 1.0
    else:
        restart[:] = (1.0 - restart_mass) / (nv - 1)
        restart[qpos[0]] = restart_mass
    fused.inv_degree = inv
    fused.dangling = dangling
    fused.restart = restart
    fused.alpha = alpha
    return fused


def random_walk(fused: FusedGraph, tol: float = 1e-10, max_iters: int = 1000) -> RankScores:
    """Solve (I - alpha P^T) r = (1 - alpha) restart = b by conjugate gradients.

    P^T x = omega (x / rowsum) + (sum of x over dangling rows) / nv, with
    omega = omega^T >= 0 the fused graph's operator. Dangling vertices G have
    zero rows and columns in omega, so their equations see only their total
    s = sum_G r = sum_G b / (1 - alpha |G| / nv), and each takes r_i = b_i +
    alpha s / nv. The other vertices solve (I - alpha omega D^-1) r = b +
    alpha s / nv, D their degrees. That matrix is self-adjoint in <x, y> =
    sum_i x_i y_i / D_i with eigenvalues in [1 - alpha, 1 + alpha], so
    conjugate gradients (Hestenes & Stiefel 1952) in that inner product solve
    it from r = restart, one operator application a step.

    The stop is certified: P^T is column-stochastic, so ||A^-1||_1 <= 1 /
    (1 - alpha) and ||r - r*||_1 <= ||b - A r||_1 / (1 - alpha) = residual,
    with b - A r applied by the operator itself. CG's recursive residual is
    in the same coordinates, so its l1 norm estimates ||b - A r||_1. The
    residual is measured (one more application), and CG restarts from it,
    once the estimate is at most tol (1 - alpha), once it has fallen
    MEASURE_DROP-fold since the last measurement, and before the application
    that would leave none for a measurement. The walk has converged once
    residual <= tol. A measurement that does not cut the last one by STALL
    has stagnated at rounding, and the walk stops unconverged. iterations
    counts operator applications, at most max_iters; the measured iterate
    with the smallest residual is returned.

    Each vector entry is formed elementwise or by the operator, the same way
    wherever it sits, so vertices with identical rows and columns get
    bitwise-equal scores. The inner products are einsum sums: the walk makes
    no BLAS call, so its bits do not depend on the BLAS threads.
    """
    if fused.restart is None:
        raise ValueError("call transition_and_restart first")
    alpha, restart, inv = fused.alpha, fused.restart, fused.inv_degree
    dangling = np.flatnonzero(fused.dangling)
    nv = len(restart)
    b = (1.0 - alpha) * restart
    target = tol * (1.0 - alpha)

    def measure(x):
        """b - A x through the operator, its l1 norm, then 0 on the dangling rows."""
        pt_x = fused.rmatvec(inv * x)
        if len(dangling):
            pt_x += x[dangling].sum() / nv
        res = b - x + alpha * pt_x
        norm = float(np.abs(res).sum())
        res[dangling] = 0.0
        return res, norm

    def inner(u, v):
        return float(np.einsum("i,i,i->", inv, u, v))

    x = restart.copy()
    if len(dangling):
        s = b[dangling].sum() / (1.0 - alpha * len(dangling) / nv)
        x[dangling] = b[dangling] + alpha * s / nv
    res, last = measure(x)
    used = 1
    best = (last, x)
    p, rho = res, inner(res, res)
    while last > target and used + 2 <= max_iters and rho > 0.0:
        q = p - alpha * fused.rmatvec(inv * p)
        used += 1
        step = rho / inner(p, q)
        x = x + step * p
        res = res - step * q
        est = float(np.abs(res).sum())
        if est <= target or est * MEASURE_DROP <= last or used + 2 > max_iters:
            res, measured = measure(x)
            used += 1
            if measured < best[0]:
                best = (measured, x)
            if measured > STALL * last:
                break
            last = measured
            p, rho = res, inner(res, res)
        else:
            rho, rho_prev = inner(res, res), rho
            p = res + (rho / rho_prev) * p
    residual, x = best
    return RankScores(r=x, iterations=used, converged=residual <= target,
                      residual=residual / (1.0 - alpha))


def closed_form_rank(fused: FusedGraph) -> RankScores:
    """Direct solve r* = (1-alpha) (I - alpha P^T)^-1 restart, for small graphs."""
    if fused.restart is None:
        raise ValueError("call transition_and_restart first")
    nv = len(fused.vertices)
    a = np.eye(nv) - fused.alpha * fused.transition.toarray().T
    r = np.linalg.solve(a, (1.0 - fused.alpha) * fused.restart)
    r = r / r.sum()
    residual = float(np.abs((1.0 - fused.alpha) * fused.restart - a @ r).sum()) / (1.0 - fused.alpha)
    return RankScores(r=r, iterations=0, converged=True, residual=residual)


def qsrf_search(
    index,
    query_views: Sequence[np.ndarray],
    params: QsrfParams = QsrfParams(),
) -> QsrfResult:
    """Fused reranking over all tables of a multi-view index: each table's
    weighted ranking (`qrank_query`), then `fuse_rankings` over them."""
    tables = index.tables
    if len(query_views) != len(tables):
        raise ValueError(f"query has {len(query_views)} views, index has {len(tables)}")
    rankings = [qrank_query(table, qv, params.query, top_n=params.top_n)
                for table, qv in zip(tables, query_views)]
    return fuse_rankings(tables, rankings, params)


def fuse_rankings(
    tables: Sequence[HashTable],
    rankings: Sequence[QRankResult],
    params: QsrfParams = QsrfParams(),
) -> QsrfResult:
    """Rerank the first params.top_n items of each table's qrank result.

    Builds each table's candidate graph, superposes them, and ranks by the
    restart walk's visiting probabilities. The query vertex is dropped; ties on
    score break by ascending id. A deeper ranking fuses exactly as a top_n one
    would: the rankings `qrank_query` returns for one query at any depth are
    prefixes of one stable order.
    """
    if len(rankings) != len(tables):
        raise ValueError(f"got {len(rankings)} rankings for {len(tables)} tables")
    _check_top_n(params.top_n)
    n = params.top_n
    per_table = [replace(res, ids=res.ids[:n], local_ids=res.local_ids[:n],
                         distances=res.distances[:n]) for res in rankings]
    graphs = [build_candidate_graph(table, m, res)
              for m, (table, res) in enumerate(zip(tables, per_table))]
    fused = fuse(graphs)
    fused = transition_and_restart(fused, alpha=params.alpha, restart_mass=params.restart_mass)
    walk = random_walk(fused, tol=params.walk_tol, max_iters=params.walk_max_iters)
    keep = fused.vertices != QUERY_VERTEX
    ids = fused.vertices[keep]
    scores = walk.r[keep]
    order = np.lexsort((ids, -scores))
    return QsrfResult(ids=ids[order], scores=scores[order], per_table=per_table,
                      fused=fused, walk=walk)
