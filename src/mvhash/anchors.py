"""Anchor selection, sparse anchor embeddings, and the similarity kernel on them.

Each view gets one anchor set that plays two roles: basis for the sparse
embedding z(x) and landmark set for the query's neighbor profile. Embeddings
keep the s_nn nearest anchors with Gaussian kernel weights normalized to sum 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .binfile import BinaryReader
from .hashing import HashModel, PackedCodes, encode, kth_smallest, topk

MAGIC_ANCHORS = b"MVHA"
ANCHORS_VERSION = 3
# entries per block of a points x anchors screen (nearest_anchors, and
# fusion.candidate_embedding's candidates x kept anchors): a block (125 KiB)
# stays below glibc's default 128 KiB mmap threshold, so it comes from the
# heap whatever the process allocated before.
SCREEN_ENTRIES = 16000
KMEANS_ITERS = 25  # Lloyd updates at most, for method="kmeans"

SparseRow = tuple[np.ndarray, np.ndarray]  # (anchor indices, values), aligned


@dataclass
class SparseEmbedding:
    """Rows of (anchor index, value) pairs, exactly s_nn entries per row."""

    indices: np.ndarray  # (n, s_nn) int32
    values: np.ndarray   # (n, s_nn) float64

    def row(self, i: int) -> SparseRow:
        return self.indices[i], self.values[i]

    @property
    def n(self) -> int:
        return self.indices.shape[0]


@dataclass
class AnchorModel:
    """Per-view anchors with kernel bandwidth and fixed similarity scale sigma.

    landmark_embeddings, each anchor's own sparse embedding against the anchor
    set, depends on the anchors alone: it is derived on first use (the first
    query profile) and cached, never stored. anchor_codes are the anchors'
    hash codes under the view's HashModel, encode(hash_model, anchors); they
    are not stored either: build_anchors(hash_model=) and the index's tables
    attach them (None until then). An anchor value that is not finite or exceeds
    sqrt(float64 max / (4 (dim + 2))) in magnitude, a bandwidth that is not
    positive with 2 bw^2 a finite normal double, and a sigma that is not
    positive with sigma^2 one are a ValueError.
    """

    anchors: np.ndarray
    kernel_bandwidth: float
    s_nn: int
    sigma: float
    anchor_codes: Optional[PackedCodes] = None

    def __post_init__(self):
        if not (1 <= self.s_nn <= self.k):
            raise ValueError(f"need 1 <= s_nn <= K, got s_nn={self.s_nn} K={self.k}")
        finfo = np.finfo(np.float64)
        bw, sigma = self.kernel_bandwidth, self.sigma
        # kernel_rows divides by 2 bw^2 and landmark_similarities by sigma^2
        for name, value, square, what in (("bandwidth", bw, 2.0 * bw * bw, "2 bw^2"),
                                          ("sigma", sigma, sigma * sigma, "sigma^2")):
            if not (value > 0 and finfo.tiny <= square <= finfo.max):  # NaN fails too
                raise ValueError(f"{name} must be positive with {what} a finite normal "
                                 f"double, got {value!r}")
        # nearest_anchors' screen, margin and direct sums stay finite under this bound
        bound = np.sqrt(finfo.max / (4 * (self.dim + 2)))
        if not (np.abs(self.anchors) <= bound).all():  # NaN fails too
            raise ValueError(f"anchor values must be finite and at most {bound:.6g} in magnitude")

    @cached_property
    def landmark_embeddings(self) -> SparseEmbedding:
        return _embed_matrix(self.anchors, self.anchors, self.s_nn, self.kernel_bandwidth)

    @cached_property
    def _landmark_sqnorm(self) -> np.ndarray:
        return (self.landmark_embeddings.values ** 2).sum(axis=1)

    @property
    def k(self) -> int:
        return self.anchors.shape[0]

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]


def _kmeans(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding and at most KMEANS_ITERS
    updates; returns the k centers.

    Seeding keeps d2, each point's direct-sum squared distance to its nearest
    center so far, and scores a new center c exactly only on the points whose
    screen passes: fl(S - delta) <= d2, with S and delta from _screen. S -
    delta <= E (see nearest_anchors), and rounding is monotone, so a point
    that fails has E > d2 and min(d2, E) = d2: d2 keeps the bits that scoring
    every point gives. Lloyd's update sums each cluster's members in
    ascending index order (np.add.at) and divides by its count, which for d
    >= 2 is members.mean(axis=0) bit for bit; an empty cluster redraws a
    random point, in ascending cluster order.
    """
    n, d = data.shape
    centers = np.empty((k, d))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    xx = (data ** 2).sum(axis=1)
    for c in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[c] = data[rng.choice(n, p=probs)]
        center = centers[c:c + 1]
        screen, delta = _screen(data, xx, center, (center ** 2).sum(axis=1))
        near = np.flatnonzero(screen[:, 0] - delta <= d2)
        d2[near] = np.minimum(d2[near], ((data[near] - center) ** 2).sum(axis=1))
    assign = None
    for _ in range(KMEANS_ITERS):
        new_assign = nearest_anchors(data, centers, 1)[0][:, 0]
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros((k, d))
        np.add.at(sums, assign, data)
        filled = counts > 0
        centers[filled] = sums[filled] / counts[filled, None]
        for c in np.flatnonzero(~filled):
            centers[c] = data[rng.integers(n)]
    return centers


def smallest_per_row(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, s: int):
    """(cols, dist), each (n, s): the first s entries of every row 0..n-1 of a
    window in (row, dist, col) order. The window must hold s entries a row
    and list each row's entries in ascending col order, as np.nonzero does:
    one stable sort of the integer key row * (m + 1) + (rank of dist among
    the window's m entries, equal for equal dist) then keeps ties in col order.
    """
    by_dist = np.argsort(dist)
    ranked = dist[by_dist]
    rank = np.empty(len(dist), dtype=np.int64)
    rank[by_dist] = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
    order = np.argsort(rows * (len(dist) + 1) + rank, kind="stable")
    rows, cols, dist = rows[order], cols[order], dist[order]
    first = np.arange(len(rows)) - np.searchsorted(rows, rows) < s
    return cols[first].reshape(-1, s), dist[first].reshape(-1, s)


def kernel_rows(dist: np.ndarray, scale: float) -> np.ndarray:
    """exp(-dist / scale) floored at 1e-300, rows normalized to sum 1. Each row
    is shifted by its first, smallest entry, which cancels in the normalization."""
    with np.errstate(over="ignore"):  # an inf quotient is meant: exp(-inf) = 0, floored below
        vals = np.exp(-(dist - dist[:, :1]) / scale)
    np.maximum(vals, 1e-300, out=vals)
    vals /= vals.sum(axis=1, keepdims=True)
    return vals


def _screen(x: np.ndarray, xx: np.ndarray, anchors: np.ndarray, aa: np.ndarray):
    """(S, delta): the screen S = |x|^2 + |a|^2 - 2 x.a of every (row, anchor),
    shape (m, K), and per row a margin delta with |S - E| <= delta, where E
    is the direct sum ((x - a) ** 2).sum(). xx and aa are the rows' and the
    anchors' direct-sum squared norms. S is formed in place, as fl(fl(fl(-2
    x.a) + |a|^2) + |x|^2); the bound is derived in nearest_anchors.
    """
    finfo = np.finfo(np.float64)
    screen = x @ anchors.T
    screen *= -2.0
    screen += aa
    screen += xx[:, None]
    delta = 4.0 * (x.shape[1] + 2) * (finfo.eps * (xx + aa.max()) + finfo.tiny)
    return screen, delta


def nearest_anchors(points: np.ndarray, anchors: np.ndarray, s: int):
    """Each point's s nearest anchors, as (ids, d2), each (n, s).

    Rows are in (distance, anchor id) order and d2 holds the direct sums
    ((x - a) ** 2).sum(): bit for bit the first s of a stable argsort of all
    of them, whatever the BLAS. Needs 1 <= s <= K. Memory: a screen block of
    at most max(SCREEN_ENTRIES, K) entries, a block's window differences,
    about (rows per block) * s * d, and every block's window (row, anchor id,
    d2), about n * s entries, ordered once by smallest_per_row.

    Screen (_screen): S = fl(fl(fl(-2 x.a) + |a|^2) + |x|^2). With u = eps/2,
    N = |x|^2 + |a|^2 and D the exact distance: the norms and x.a are d-term
    sums within gamma_d = d u / (1 - d u) of exact (|x.a| <= N/2), so they
    contribute gamma_d N; the product by -2 is exact, and the two additions
    round values of size at most 2N, adding 4u N. So |S - D| <= (2 gamma_d +
    4u) N. The direct sum E rounds a difference, a square and d - 1
    additions a term: |E - D| <= gamma_{d+2} D <= 2 gamma_{d+2} N, so |S - E|
    <= 2 (d + 2) eps N to first order. delta_x = 4 (d + 2) (eps (|x|^2 + max
    |a|^2) + tiny) bounds it with a 2x margin for second-order terms, the
    computed norms, the rounding of delta_x and (tiny) gradual underflow.
    With S_(s) the row's s-th smallest S, the s anchors of smallest S have E
    <= S_(s) + delta_x, so the s-th smallest E is at most that, and each
    anchor of the exact top s has S <= S_(s) + 2 delta_x. Rounding is
    monotone, so S <= fl(S_(s) + 2 delta_x) keeps them all; only that window
    is scored exactly.
    """
    n, k = len(points), len(anchors)
    if not 1 <= s <= k:
        raise ValueError(f"need 1 <= s <= {k}, got s={s}")
    if not (np.isfinite(points).all() and np.isfinite(anchors).all()):
        raise ValueError("points and anchors must be finite")
    aa = (anchors ** 2).sum(axis=1)
    step = max(1, SCREEN_ENTRIES // k)
    windows = []
    for lo in range(0, max(n, 1), step):  # one empty block when n = 0
        x = points[lo:lo + step]
        screen, delta = _screen(x, (x ** 2).sum(axis=1), anchors, aa)
        kth = kth_smallest(screen, s)
        # flatnonzero and divmod take half the time of a 2-d np.nonzero
        rows, cols = np.divmod(np.flatnonzero(screen <= (kth + 2.0 * delta)[:, None]), k)
        windows.append((rows + lo, cols, ((x[rows] - anchors[cols]) ** 2).sum(axis=1)))
    # the blocks' windows, in row order, are one window in ascending (row, col) order
    return smallest_per_row(*(np.concatenate(part) for part in zip(*windows)), s)


def _embed_matrix(points: np.ndarray, anchors: np.ndarray, s_nn: int, bandwidth: float) -> SparseEmbedding:
    """Vectorized embedding of many points: s_nn nearest anchors, kernel weights."""
    ids, kept = nearest_anchors(points, anchors, s_nn)
    return SparseEmbedding(ids.astype(np.int32), kernel_rows(kept, 2.0 * bandwidth * bandwidth))


def build_anchors(
    data: np.ndarray,
    k: int,
    method: str = "random",
    s_nn: int = 5,
    seed: int = 0,
    hash_model: Optional[HashModel] = None,
    rows: Optional[np.ndarray] = None,
) -> AnchorModel:
    """Pick K anchors from the database rows of data and fix the view's kernel scales.

    rows names the database rows of data (default: every row); the result is
    bit for bit that of build_anchors(data[rows], ...). Random anchors and the
    point samples below gather only the rows they draw; k-means gathers
    data[rows] once, as it uses every row.

    method "random" samples rows without replacement; "kmeans" runs Lloyd's
    with k-means++ seeding for at most KMEANS_ITERS iterations. The kernel
    bandwidth is the mean distance from a sampled subset of points to their
    s_nn-th nearest anchor; sigma is the largest embedding-space distance over a 1000-pair
    sample, clamped to at least 1e-6. Pass hash_model to attach anchor codes.
    """
    data = np.asarray(data, dtype=np.float64)
    ids = np.arange(len(data)) if rows is None else np.asarray(rows)
    n = len(ids)
    if k > n:
        raise ValueError(f"K={k} exceeds n={n}")
    if not (1 <= s_nn <= k):
        raise ValueError(f"need 1 <= s_nn <= K, got s_nn={s_nn} K={k}")
    rng = np.random.default_rng(seed)
    if method == "random":
        anchors = data[ids[np.sort(rng.choice(n, size=k, replace=False))]]
    elif method == "kmeans":
        anchors = _kmeans(data if rows is None else data[ids], k, rng)
    else:
        raise ValueError(f"unknown anchor method {method!r}")

    sample_idx = rng.choice(n, size=min(n, 1000), replace=False)
    kth = nearest_anchors(data[ids[sample_idx]], anchors, s_nn)[1][:, s_nn - 1]
    bandwidth = float(np.sqrt(kth).mean()) or 1e-9  # 0 when every sample sits on s_nn anchors

    pair_idx = rng.integers(0, n, size=(1000, 2))
    pair_pts = np.unique(pair_idx)
    emb = _embed_matrix(data[ids[pair_pts]], anchors, s_nn, bandwidth)
    a, b = np.searchsorted(pair_pts, pair_idx).T
    # |z_a - z_b|^2 = |z_a|^2 + |z_b|^2 - 2 z_a.z_b, with the b rows scattered dense
    dense_b = np.zeros((len(b), k))
    np.put_along_axis(dense_b, emb.indices[b], emb.values[b], axis=1)
    dots = (emb.values[a] * np.take_along_axis(dense_b, emb.indices[a], axis=1)).sum(axis=1)
    sqnorm = (emb.values ** 2).sum(axis=1)
    d2 = sqnorm[a] + sqnorm[b] - 2.0 * dots
    sigma = max(np.sqrt(max(d2.max(), 0.0)), 1e-6)

    model = AnchorModel(
        anchors=anchors,
        kernel_bandwidth=bandwidth,
        s_nn=s_nn,
        sigma=float(sigma),
    )
    if hash_model is not None:
        model.anchor_codes = encode(hash_model, anchors)
    return model


def embed(model: AnchorModel, x: np.ndarray) -> SparseRow:
    """Sparse embedding of one vector: s_nn nearest anchors, weights summing to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ValueError(f"expected a vector of dim {model.dim}")
    return _embed_matrix(x[None, :], model.anchors, model.s_nn, model.kernel_bandwidth).row(0)


def landmark_similarities(model: AnchorModel, z_q: SparseRow) -> np.ndarray:
    """Similarity of the query embedding to every landmark (anchor), vectorized."""
    qi, qv = z_q
    dense = np.zeros(model.k)
    dense[qi] = qv
    land = model.landmark_embeddings
    dots = (land.values * dense[land.indices]).sum(axis=1)
    d2 = float(qv @ qv) + model._landmark_sqnorm - 2.0 * dots
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (model.sigma * model.sigma))


def query_neighbor_profile(model: AnchorModel, z_q: SparseRow, n_landmarks: int = 25):
    """Top-L landmarks by similarity with weights renormalized to sum to 1.

    Ties on similarity break toward the lower anchor id. Returns the pair
    (landmark ids, weights) as aligned arrays. Top-L similarities that are
    all 0 (each exp(-d2 / sigma^2) underflows) or not finite are a ValueError.
    """
    if n_landmarks > model.k:
        raise ValueError(f"L={n_landmarks} exceeds K={model.k}")
    sims = landmark_similarities(model, z_q)
    top = topk(-sims, n_landmarks)
    total = sims[top].sum()
    if not 0 < total < np.inf:
        raise ValueError(f"the query's top-{n_landmarks} landmark similarities sum to {total} "
                         f"(sigma {model.sigma!r})")
    return top.astype(np.int64), sims[top] / total


def save_anchor_model(path: Union[str, Path], model: AnchorModel) -> None:
    """Binary blob: header, then the anchors (<f8); the anchor codes are not stored."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_ANCHORS)
        fh.write(struct.pack("<IIIIdd", ANCHORS_VERSION, model.k, model.dim, model.s_nn,
                             model.kernel_bandwidth, model.sigma))
        fh.write(np.ascontiguousarray(model.anchors, dtype="<f8").tobytes())


def load_anchor_model(path: Union[str, Path]) -> AnchorModel:
    rd = BinaryReader(path, MAGIC_ANCHORS, "anchors", ANCHORS_VERSION)
    k, dim, s_nn, bandwidth, sigma = rd.header("<IIIdd")
    return rd.done(rd.make(AnchorModel, anchors=rd.array("<f8", k, dim), kernel_bandwidth=bandwidth,
                           s_nn=s_nn, sigma=sigma))
