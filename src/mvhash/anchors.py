"""Anchor selection, sparse anchor embeddings, and the similarity kernel on them.

Each view gets one anchor set that plays two roles: basis for the sparse
embedding z(x) and landmark set for the query's neighbor profile. Embeddings
keep the s_nn nearest anchors with Gaussian kernel weights normalized to sum 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .binfile import BinaryReader
from .hashing import HashModel, PackedCodes, encode, topk, words_per_item

MAGIC_ANCHORS = b"MVHA"

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

    landmark_embeddings holds each anchor's own sparse embedding against the
    anchor set, precomputed so query-to-landmark similarities are cheap online.
    anchor_codes are the anchors' hash codes under the view's HashModel; they
    are attached at index build time (None until then).
    """

    anchors: np.ndarray
    kernel_bandwidth: float
    s_nn: int
    sigma: float
    landmark_embeddings: SparseEmbedding
    anchor_codes: Optional[PackedCodes] = None
    _landmark_sqnorm: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (1 <= self.s_nn <= self.k):
            raise ValueError(f"need 1 <= s_nn <= K, got s_nn={self.s_nn} K={self.k}")
        if self.kernel_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self._landmark_sqnorm is None:
            self._landmark_sqnorm = (self.landmark_embeddings.values ** 2).sum(axis=1)

    @property
    def k(self) -> int:
        return self.anchors.shape[0]

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]


def _kmeans(data: np.ndarray, k: int, rng: np.random.Generator, iters: int = 25) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; returns the k centers."""
    n = data.shape[0]
    centers = np.empty((k, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = ((data - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        probs = d2 / d2.sum() if d2.sum() > 0 else np.full(n, 1.0 / n)
        centers[c] = data[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((data - centers[c]) ** 2).sum(axis=1))
    assign = None
    for _ in range(iters):
        dists = _blocked_sqdist(data, centers) if n * k <= 2_000_000 \
            else _chunked_sqdist(data, centers)
        new_assign = dists.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = data[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                centers[c] = data[rng.integers(n)]
    return centers


def _blocked_sqdist(a: np.ndarray, b: np.ndarray, block: int = 256) -> np.ndarray:
    """Squared distances summed from direct differences, `block` rows of a at a time.

    Equal bit for bit to ((a[:, None] - b[None]) ** 2).sum(axis=2), with a
    (block, len(b), d) temporary instead of an (len(a), len(b), d) one.
    """
    out = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], block):
        out[lo:lo + block] = ((a[lo:lo + block, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return out


def _chunked_sqdist(a: np.ndarray, b: np.ndarray, chunk: int = 2048) -> np.ndarray:
    out = np.empty((a.shape[0], b.shape[0]))
    bb = (b ** 2).sum(axis=1)
    for lo in range(0, a.shape[0], chunk):
        hi = min(lo + chunk, a.shape[0])
        aa = (a[lo:hi] ** 2).sum(axis=1)
        out[lo:hi] = aa[:, None] + bb[None, :] - 2.0 * (a[lo:hi] @ b.T)
    np.maximum(out, 0.0, out=out)
    return out


def _embed_matrix(points: np.ndarray, anchors: np.ndarray, s_nn: int, bandwidth: float) -> SparseEmbedding:
    """Vectorized embedding of many points: s_nn nearest anchors, kernel weights."""
    d2 = _chunked_sqdist(points, anchors)
    order = np.argsort(d2, axis=1, kind="stable")[:, :s_nn]
    kept = np.take_along_axis(d2, order, axis=1)
    # shift by the nearest distance before exponentiating; the normalization
    # cancels the shift and the nearest entry stays exactly exp(0)=1
    shifted = (kept - kept[:, :1]) / (2.0 * bandwidth * bandwidth)
    vals = np.exp(-shifted)
    np.maximum(vals, 1e-300, out=vals)
    vals /= vals.sum(axis=1, keepdims=True)
    return SparseEmbedding(indices=order.astype(np.int32), values=vals)


def build_anchors(
    data: np.ndarray,
    k: int,
    method: str = "random",
    s_nn: int = 5,
    seed: int = 0,
    hash_model: Optional[HashModel] = None,
) -> AnchorModel:
    """Pick K anchors from the database matrix and fix the view's kernel scales.

    method "random" samples rows without replacement; "kmeans" runs Lloyd's
    with k-means++ seeding for at most 25 iterations. The kernel bandwidth is
    the mean distance from a sampled subset of points to their s_nn-th nearest
    anchor; sigma is the largest embedding-space distance over a 1000-pair
    sample, clamped to at least 1e-6. Pass hash_model to attach anchor codes.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if k > n:
        raise ValueError(f"K={k} exceeds n={n}")
    if not (1 <= s_nn <= k):
        raise ValueError(f"need 1 <= s_nn <= K, got s_nn={s_nn} K={k}")
    rng = np.random.default_rng(seed)
    if method == "random":
        anchors = data[np.sort(rng.choice(n, size=k, replace=False))].copy()
    elif method == "kmeans":
        anchors = _kmeans(data, k, rng)
    else:
        raise ValueError(f"unknown anchor method {method!r}")

    sample_idx = rng.choice(n, size=min(n, 1000), replace=False)
    sample = data[sample_idx]
    d2 = _chunked_sqdist(sample, anchors)
    kth = np.sort(d2, axis=1)[:, s_nn - 1]
    bandwidth = float(np.sqrt(kth).mean())
    if bandwidth <= 0.0:
        bandwidth = 1e-9

    landmark_emb = _embed_matrix(anchors, anchors, s_nn, bandwidth)

    pair_idx = rng.integers(0, n, size=(1000, 2))
    pair_pts = np.unique(pair_idx)
    emb = _embed_matrix(data[pair_pts], anchors, s_nn, bandwidth)
    pos = np.searchsorted(pair_pts, pair_idx)
    sigma = 0.0
    for a, b in pos:
        d = _sparse_sqdist(emb.row(a), emb.row(b))
        sigma = max(sigma, d)
    sigma = max(np.sqrt(sigma), 1e-6)

    model = AnchorModel(
        anchors=anchors,
        kernel_bandwidth=bandwidth,
        s_nn=s_nn,
        sigma=float(sigma),
        landmark_embeddings=landmark_emb,
    )
    if hash_model is not None:
        model.anchor_codes = encode(hash_model, anchors)
    return model


def embed(model: AnchorModel, x: np.ndarray) -> SparseRow:
    """Sparse embedding of one vector: s_nn nearest anchors, weights summing to 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.dim:
        raise ValueError(f"expected a vector of dim {model.dim}")
    e = _embed_matrix(x[None, :], model.anchors, model.s_nn, model.kernel_bandwidth)
    return e.row(0)


def _sparse_sqdist(z_p: SparseRow, z_q: SparseRow) -> float:
    """Squared Euclidean distance between sparse rows over the union of supports."""
    pi, pv = z_p
    qi, qv = z_q
    _, ia, ib = np.intersect1d(pi, qi, return_indices=True)
    dot = float(pv[ia] @ qv[ib]) if len(ia) else 0.0
    d2 = float(pv @ pv) + float(qv @ qv) - 2.0 * dot
    return max(d2, 0.0)


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
    (landmark ids, weights) as aligned arrays.
    """
    if n_landmarks > model.k:
        raise ValueError(f"L={n_landmarks} exceeds K={model.k}")
    sims = landmark_similarities(model, z_q)
    top = topk(-sims, n_landmarks)
    weights = sims[top]
    weights = weights / weights.sum()
    return top.astype(np.int64), weights


def save_anchor_model(path: Union[str, Path], model: AnchorModel) -> None:
    """Binary blob: header, anchors (<f8), anchor codes, landmark embeddings (<f8)."""
    if model.anchor_codes is None:
        raise ValueError("anchor model has no codes attached; build the index first")
    emb = model.landmark_embeddings
    with open(path, "wb") as fh:
        fh.write(MAGIC_ANCHORS)
        fh.write(struct.pack("<IIIIdd", 1, model.k, model.dim, model.s_nn,
                             model.kernel_bandwidth, model.sigma))
        fh.write(np.ascontiguousarray(model.anchors, dtype="<f8").tobytes())
        fh.write(struct.pack("<I", model.anchor_codes.bits))
        fh.write(np.ascontiguousarray(model.anchor_codes.words, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(emb.indices, dtype="<i4").tobytes())
        fh.write(np.ascontiguousarray(emb.values, dtype="<f8").tobytes())


def load_anchor_model(path: Union[str, Path]) -> AnchorModel:
    rd = BinaryReader(path, MAGIC_ANCHORS, "anchors")
    k, dim, s_nn, bandwidth, sigma = rd.header("<IIIdd")
    anchors = rd.array("<f8", k, dim)
    (bits,) = rd.header("<I")
    codes = PackedCodes(words=rd.array("<u8", k, words_per_item(bits)), bits=bits)
    emb = SparseEmbedding(indices=rd.array("<i4", k, s_nn), values=rd.array("<f8", k, s_nn))
    return rd.done(AnchorModel(anchors=anchors, kernel_bandwidth=bandwidth, s_nn=s_nn,
                               sigma=sigma, landmark_embeddings=emb, anchor_codes=codes))
