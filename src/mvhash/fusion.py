"""Query-specific rank fusion across hash tables via a random walk with restart.

Each table's top candidates (plus the query) become vertices of a graph whose
edge weights come from inner products of truncated anchor similarities in the
weighted Hamming space. Graphs from all tables are superposed, the weight
matrix is row-normalized into a transition matrix, and a restart walk that
keeps most of its mass on the query scores every candidate.

On the query path no graph is materialised: each table's weights stay as the
factors of its embedding, the superposition as per-table vertex positions,
and a walk step applies them in O(candidates * s_nn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .anchors import SparseEmbedding
from .hashing import PackedCodes
from .qrank import HashTable, QueryParams, QRankResult, qrank_query

QUERY_VERTEX = -1


@dataclass
class SimilarityFactors:
    """One graph's edge weights S = D^-1 G + G D^-1 off the diagonal, kept factored.

    G = Z Z^T with Z the candidates x anchors embedding, which has exactly
    s_nn entries per row: row i's anchor ids are indices[:, i] and its weights
    values[:, i] (slot-major, so per-row sums run over contiguous slots).
    D = diag(lambda), lambda = Z (Z^T 1); inv_lam is 1/lambda, 0 on isolated
    rows. `S @ y` is exact on rows without edges (their sums are exactly 0);
    `tocsr` materialises S for oracles and diagnostics.
    """

    indices: np.ndarray  # (s_nn, n) anchor ids
    values: np.ndarray   # (s_nn, n) embedding weights
    n_anchors: int
    inv_lam: np.ndarray

    @property
    def shape(self) -> tuple:
        n = self.indices.shape[1]
        return (n, n)

    def _offdiag_gram(self, y: np.ndarray) -> np.ndarray:
        """(G - diag G) y as sum_a z_ia ((Z^T y)_a - z_ia y_i).

        An anchor held by row i alone contributes exactly 0, so a row that
        shares no anchor gets an exactly zero sum.
        """
        zy = self.values * y
        zty = np.bincount(self.indices.ravel(), zy.ravel(), minlength=self.n_anchors)
        return (self.values * (zty[self.indices] - zy)).sum(axis=0)

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return self.inv_lam * self._offdiag_gram(y) + self._offdiag_gram(self.inv_lam * y)

    def tocsr(self) -> sp.csr_matrix:
        s_nn, n = self.indices.shape
        zmat = sp.csr_matrix((self.values.T.ravel(), self.indices.T.ravel(),
                              np.arange(0, n * s_nn + 1, s_nn)), shape=(n, self.n_anchors))
        g = (zmat @ zmat.T).tocsr()
        half = sp.diags(self.inv_lam) @ (g - sp.diags(g.diagonal()))
        s = (half + half.T).tocsr()
        s.eliminate_zeros()
        return s


@dataclass
class CandidateGraph:
    """One table's candidate graph: global vertex ids (query = -1) and edge weights.

    edges is a SimilarityFactors or any scipy sparse matrix.
    """

    table_id: int
    vertices: np.ndarray
    edges: object
    isolated: np.ndarray = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.int64)
        if self.isolated is None:
            self.isolated = np.zeros(len(self.vertices), dtype=bool)


class FusedGraph:
    """Union graph omega = sum_m Pi_m^T S_m Pi_m, kept as its per-graph parts.

    parts holds, per superposed graph, the positions of its vertices in
    `vertices` (Pi_m) and its edges. For the walk the parts are also stacked
    into sparse factors with omega = U V^T - diag(c): a factored graph adds
    columns U = [Pi^T D^-1 Z, Pi^T Z] and V = [Pi^T Z, Pi^T D^-1 Z] and its
    diagonal to c; an explicit matrix E adds U = Pi^T E and V = Pi^T.
    `rmatvec` applies omega^T with them in O(candidates * s_nn).

    transition_and_restart fills restart, alpha, inv_degree (1/row sums of
    omega, 0 on dangling rows) and dangling. `omega` and `transition` (P =
    diag(inv_degree) omega, dangling rows uniform) are materialised on first
    access, for oracles and diagnostics; either may also be given explicitly.
    """

    def __init__(self, vertices, omega=None, parts=None):
        self.vertices = np.asarray(vertices, dtype=np.int64)
        nv = len(self.vertices)
        if parts is None:
            parts = [(np.arange(nv), omega)]
        if omega is not None:
            self.omega = omega
        self.parts = parts
        self.restart: Optional[np.ndarray] = None
        self.alpha = 0.85
        self.inv_degree: Optional[np.ndarray] = None
        self.dangling: Optional[np.ndarray] = None

        u, v, self._c, width = [], [], np.zeros(nv), 0
        for pos, edges in parts:
            if isinstance(edges, SimilarityFactors):
                z = edges.values
                a = z * edges.inv_lam
                rows = np.broadcast_to(pos, z.shape).ravel()
                cols = width + edges.indices.ravel()
                k = edges.n_anchors
                u += [(rows, cols, a.ravel()), (rows, cols + k, z.ravel())]
                v += [(rows, cols, z.ravel()), (rows, cols + k, a.ravel())]
                self._c[pos] += 2.0 * (a * z).sum(axis=0)
                width += 2 * k
            else:
                e = edges.tocoo()
                u.append((pos[e.row], width + e.col, e.data))
                v.append((pos, width + np.arange(len(pos)), np.ones(len(pos))))
                width += len(pos)
        self._ut = _stack_csr(u, (nv, width)).T.tocsr()
        self._v = _stack_csr(v, (nv, width))

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """omega^T @ x from the stacked factors."""
        return self._v @ (self._ut @ x) - self._c * x

    @cached_property
    def omega(self) -> sp.csr_matrix:
        coos = [(pos, edges.tocsr().tocoo()) for pos, edges in self.parts]
        nv = len(self.vertices)
        return _stack_csr([(pos[e.row], pos[e.col], e.data) for pos, e in coos], (nv, nv))

    @cached_property
    def transition(self) -> sp.csr_matrix:
        if self.inv_degree is None:
            raise ValueError("call transition_and_restart first")
        nv = len(self.vertices)
        uniform = sp.csr_matrix(self.dangling[:, None] / nv) @ sp.csr_matrix(np.ones((1, nv)))
        return (sp.diags(self.inv_degree) @ self.omega + uniform).tocsr()


def _stack_csr(entries, shape) -> sp.csr_matrix:
    """CSR matrix of the (rows, cols, data) triples in entries; duplicates add up."""
    rows, cols, data = (np.concatenate(part) for part in zip(*entries))
    return sp.csr_matrix((data, (rows, cols)), shape=shape)


@dataclass
class RankScores:
    """Stationary visiting probabilities over the fused vertices."""

    r: np.ndarray
    iterations: int
    converged: bool
    history: Optional[list] = None


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
    sigma_h: Optional[float] = None,
) -> SparseEmbedding:
    """Truncated anchor similarities of candidates under weighted Hamming distance.

    Every candidate row (the query included) keeps its s_nn nearest anchors by
    weighted Hamming distance; kept entries are exp(-d_H / sigma_h) normalized
    to sum 1. sigma_h defaults to sum(w*), the largest attainable weighted
    distance. Ties on distance keep the lower anchor id.
    """
    wstar = np.asarray(wstar, dtype=np.float64)
    if sigma_h is None:
        sigma_h = float(wstar.sum())
    if sigma_h <= 0:
        sigma_h = 1.0
    if not 1 <= s_nn <= anchor_codes.n:
        raise ValueError(f"need 1 <= s_nn <= anchor count {anchor_codes.n}, got s_nn={s_nn}")
    cand_bits = _unpack_words(np.asarray(candidate_words, np.uint64), bits)
    anch_bits = _unpack_words(anchor_codes.words, bits)
    # d_ij = sum_k w_k (c_ik xor a_jk) expands into two weighted matmuls
    cw = cand_bits * wstar
    ncw = (1.0 - cand_bits) * wstar
    d = cw @ (1.0 - anch_bits).T + ncw @ anch_bits.T
    # Every entry within each row's s_nn-th smallest distance, ordered by
    # (distance, anchor id); the first s_nn of each row are kept.
    kth = np.partition(d, s_nn - 1, axis=1)[:, s_nn - 1:s_nn]
    rows, cols = np.nonzero(d <= kth)
    dist = d[rows, cols]
    order = np.lexsort((cols, dist, rows))
    rows, cols, dist = rows[order], cols[order], dist[order]
    first = np.arange(len(rows)) - np.searchsorted(rows, rows) < s_nn
    indices = cols[first].reshape(-1, s_nn)
    kept = dist[first].reshape(-1, s_nn)
    vals = np.exp(-(kept - kept[:, :1]) / sigma_h)  # shift cancels in the normalization
    np.maximum(vals, 1e-300, out=vals)
    vals /= vals.sum(axis=1, keepdims=True)
    return SparseEmbedding(indices=indices.astype(np.int32), values=vals)


def _unpack_words(words: np.ndarray, bits: int) -> np.ndarray:
    n = words.shape[0]
    as_bytes = np.ascontiguousarray(words).view(np.uint8).reshape(n, -1)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :bits].astype(np.float64)


def candidate_similarity(z: SparseEmbedding, n_anchors: int):
    """Edge weights S_ij = <Z_i,Z_j>/lambda_i + <Z_i,Z_j>/lambda_j, zero diagonal.

    lambda_i sums <Z_i, Z_j> over every row j of this graph. Rows with
    lambda_i = 0 get no edges and are flagged isolated. Returns
    (SimilarityFactors, isolated); S itself is never formed.
    """
    indices = np.ascontiguousarray(z.indices.T, dtype=np.intp)
    values = np.ascontiguousarray(z.values.T)
    zt1 = np.bincount(indices.ravel(), values.ravel(), minlength=n_anchors)
    lam = (values * zt1[indices]).sum(axis=0)
    isolated = lam <= 0.0
    inv = np.zeros(z.n)
    inv[~isolated] = 1.0 / lam[~isolated]
    return SimilarityFactors(indices, values, n_anchors, inv), isolated


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
    union = np.unique(np.concatenate([gr.vertices for gr in graphs]))
    parts = [(np.searchsorted(union, gr.vertices), gr.edges) for gr in graphs]
    return FusedGraph(vertices=union, parts=parts)


def transition_and_restart(fused: FusedGraph, alpha: float = 0.85, restart_mass: float = 0.99) -> FusedGraph:
    """Fill the row normalization of omega (P = D^-1 omega, dangling rows uniform) and restart.

    Row sums come from each graph's own edges; a factored graph sums a row
    that shares no anchor to exactly 0, so dangling rows are the rows without
    edges.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    nv = len(fused.vertices)
    rowsum = np.zeros(nv)
    for pos, edges in fused.parts:
        rowsum[pos] += edges @ np.ones(len(pos))
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


def random_walk(
    fused: FusedGraph,
    tol: float = 1e-10,
    max_iters: int = 1000,
    record_history: bool = False,
) -> RankScores:
    """Iterate r <- (1-alpha) restart + alpha P^T r from r0 = restart.

    P^T r = omega^T (r / rowsum) + (sum of r over dangling rows) / nv: the
    dangling rows' uniform mass is a scalar, and omega^T is applied from the
    fused graph's stacked factors, so a step costs O(candidates * s_nn).
    """
    if fused.restart is None:
        raise ValueError("call transition_and_restart first")
    alpha = fused.alpha
    restart = fused.restart
    inv, dangling = fused.inv_degree, fused.dangling
    nv = len(restart)
    r = restart.copy()
    history = [r.copy()] if record_history else None
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        pt_r = fused.rmatvec(inv * r) + r[dangling].sum() / nv
        new_r = (1.0 - alpha) * restart + alpha * pt_r
        delta = float(np.abs(new_r - r).sum())
        r = new_r
        if record_history:
            history.append(r.copy())
        if delta < tol:
            converged = True
            break
    return RankScores(r=r, iterations=iters, converged=converged, history=history)


def closed_form_rank(fused: FusedGraph) -> RankScores:
    """Direct solve r* = (1-alpha) (I - alpha P^T)^-1 restart, for small graphs."""
    if fused.restart is None:
        raise ValueError("call transition_and_restart first")
    nv = len(fused.vertices)
    a = np.eye(nv) - fused.alpha * fused.transition.toarray().T
    r = np.linalg.solve(a, (1.0 - fused.alpha) * fused.restart)
    r = r / r.sum()
    return RankScores(r=r, iterations=0, converged=True)


def qsrf_search(
    index,
    query_views: Sequence[np.ndarray],
    params: QsrfParams = QsrfParams(),
) -> QsrfResult:
    """Fused reranking over all tables of a multi-view index.

    Runs the per-table weighted ranking, builds each table's candidate graph,
    superposes them, and ranks by the restart walk's visiting probabilities.
    The query vertex is dropped; ties on score break by ascending id.
    """
    tables = index.tables
    if len(query_views) != len(tables):
        raise ValueError(f"query has {len(query_views)} views, index has {len(tables)}")
    graphs = []
    per_table = []
    for m, (table, qv) in enumerate(zip(tables, query_views)):
        res = qrank_query(table, qv, params.query, top_n=params.top_n)
        per_table.append(res)
        graphs.append(build_candidate_graph(table, m, res))
    fused = fuse(graphs)
    fused = transition_and_restart(fused, alpha=params.alpha, restart_mass=params.restart_mass)
    walk = random_walk(fused, tol=params.walk_tol, max_iters=params.walk_max_iters)
    keep = fused.vertices != QUERY_VERTEX
    ids = fused.vertices[keep]
    scores = walk.r[keep]
    order = np.lexsort((ids, -scores))
    return QsrfResult(ids=ids[order], scores=scores[order], per_table=per_table,
                      fused=fused, walk=walk)
