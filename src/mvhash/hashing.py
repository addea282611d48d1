"""Projection hashing: train lsh/pcah/itq models, encode to packed codes, Hamming rank.

Bit convention used across the package: bit 1 stands for +1 and bit 0 for -1.
A projected value of exactly 0 maps to +1. Codes are packed little-endian into
uint64 words, ceil(B/64) words per item, padding bits zero.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .binfile import BinaryReader

FAMILIES = ("lsh", "pcah", "itq")

MAGIC_MODEL = b"MVHM"
MAGIC_CODES = b"MVHC"
# encode() projects at most this many rows at a time, so its float64
# temporaries stay O(ENCODE_BLOCK * (d + B)) whatever the number of rows.
ENCODE_BLOCK = 8192


@dataclass
class HashModel:
    """Trained hash function: bit k of x = sign((rotation @ projection @ (x - mean))_k).

    rotation is identity for lsh and pcah. Arrays are float64, the precision
    they are serialized at, so a save/load round trip encodes identically.
    """

    family: str
    mean: np.ndarray
    projection: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.rotation = np.asarray(self.rotation, dtype=np.float64)

    @property
    def bits(self) -> int:
        return self.projection.shape[0]

    @property
    def dim(self) -> int:
        return self.projection.shape[1]


@dataclass
class PackedCodes:
    """Immutable bit-packed codes: (n, ceil(bits/64)) uint64 words."""

    words: np.ndarray
    bits: int

    def __post_init__(self):
        self.words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if self.words.ndim != 2:
            raise ValueError("words must be 2-d")
        if self.words.shape[1] != words_per_item(self.bits):
            raise ValueError(f"expected {words_per_item(self.bits)} words for {self.bits} bits")

    @property
    def n(self) -> int:
        return self.words.shape[0]


def words_per_item(bits: int) -> int:
    return (bits + 63) // 64


def pack_bits(bits01: np.ndarray) -> PackedCodes:
    """Pack an (n, B) 0/1 matrix into codes. Bit k of item i = bits01[i, k]."""
    bits01 = np.asarray(bits01)
    n, b = bits01.shape
    nbytes = words_per_item(b) * 8
    packed = np.packbits(bits01.astype(np.uint8), axis=1, bitorder="little")
    if packed.shape[1] < nbytes:
        pad = np.zeros((n, nbytes - packed.shape[1]), dtype=np.uint8)
        packed = np.hstack([packed, pad])
    return PackedCodes(words=np.ascontiguousarray(packed).view(np.uint64), bits=b)


def unpack_bits(codes: PackedCodes) -> np.ndarray:
    """Inverse of pack_bits: (n, B) uint8 matrix of 0/1 bit values."""
    as_bytes = codes.words.view(np.uint8).reshape(codes.n, -1)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : codes.bits]


def _pca_directions(data: np.ndarray, bits: int, rng: np.random.Generator) -> np.ndarray:
    """Top-`bits` covariance eigenvectors as rows, random fill if rank-deficient."""
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / max(len(data) - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    tol = max(eigvals[0], 0.0) * 1e-10
    rank = int(np.sum(eigvals > tol))
    if rank >= bits:
        return eigvecs[:, :bits].T.copy()
    warnings.warn(
        f"covariance rank {rank} < {bits} requested bits; filling the rest with random directions",
        RuntimeWarning,
    )
    dim = data.shape[1]
    kept = eigvecs[:, :rank]
    extra = rng.normal(size=(dim, bits - rank))
    basis, _ = np.linalg.qr(np.hstack([kept, extra]))
    return basis[:, :bits].T.copy()


def _itq_rotation(projected: np.ndarray, iters: int, rng: np.random.Generator):
    """Alternating minimization of the binarization loss ||sign(VR) - VR||_F^2.

    Returns (rotation, losses); losses has one entry per iteration, recorded
    after the Procrustes step, and is non-increasing.
    """
    b = projected.shape[1]
    r0, _ = np.linalg.qr(rng.normal(size=(b, b)))
    rot = r0
    v = projected @ rot
    losses = []
    for _ in range(iters):
        binary = np.where(v >= 0.0, 1.0, -1.0)
        u, _, vt = np.linalg.svd(projected.T @ binary)
        rot = u @ vt
        v = projected @ rot  # the loss's product is the next step's VR
        losses.append(float(np.linalg.norm(binary - v) ** 2))
    return rot, losses


def train(family: str, data: np.ndarray, bits: int, seed: int, itq_iters: int = 50) -> HashModel:
    """Train a hash model of the given family on the training matrix.

    lsh draws Gaussian hyperplanes through the data mean; pcah keeps the top
    PCA directions and thresholds at the mean; itq refines pcah with a learned
    orthogonal rotation (alternating sign assignment / Procrustes solve).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("train expects a non-empty 2-d matrix")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    n, dim = data.shape
    rng = np.random.default_rng(seed)
    mean = data.mean(axis=0)
    if family == "lsh":
        projection = rng.normal(size=(bits, dim))
        rotation = np.eye(bits)
    elif family in ("pcah", "itq"):
        if bits > dim:
            raise ValueError(f"{family} needs bits <= dim, got bits={bits} dim={dim}")
        projection = _pca_directions(data, bits, rng)
        if family == "pcah":
            rotation = np.eye(bits)
        else:
            projected = (data - mean) @ projection.T
            rot, _ = _itq_rotation(projected, itq_iters, rng)
            # encode() applies rotation on the left of the projected column
            # vector, i.e. row_vectors @ rotation.T, so store the transpose.
            rotation = rot.T
    else:
        raise ValueError(f"unknown family {family!r}")
    return HashModel(family=family, mean=mean, projection=projection, rotation=rotation)


def encode(model: HashModel, data: np.ndarray) -> PackedCodes:
    """Encode rows of data into packed codes under the model.

    Bit k of item i is 1 iff (rotation @ projection @ (x_i - mean))_k >= 0.
    More than ENCODE_BLOCK rows are encoded a block at a time; each row's bits
    do not depend on the rows encoded with it.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[1] != model.dim:
        raise ValueError(f"data dim {data.shape[1]} does not match model dim {model.dim}")
    if len(data) > ENCODE_BLOCK:
        return PackedCodes(np.concatenate([encode(model, data[i:i + ENCODE_BLOCK]).words
                                           for i in range(0, len(data), ENCODE_BLOCK)]),
                           model.bits)
    vals = (data - model.mean) @ model.projection.T @ model.rotation.T
    return pack_bits(vals >= 0.0)


def encode_one(model: HashModel, x: np.ndarray) -> np.ndarray:
    """Encode a single vector; returns its uint64 word row."""
    return encode(model, x[None, :]).words[0]


def hamming_scan(codes: PackedCodes, query_words: np.ndarray) -> np.ndarray:
    """Hamming distance from the query code to every item, in the narrowest
    unsigned dtype that holds codes.bits (uint8 below 256 bits). A query of
    other than words_per_item(codes.bits) words is a ValueError."""
    x = codes.words ^ PackedCodes(np.asarray(query_words, dtype=np.uint64)[None], codes.bits).words
    return np.bitwise_count(x).sum(axis=1, dtype=np.min_scalar_type(codes.bits))


def topk(dist: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(dist, kind="stable")[:k] without sorting all of dist.

    The k-th smallest value comes from a counting select, the first v with
    at least k entries at or below it, when dist holds unsigned integers of
    at most 16 bits (hamming_scan's counts), and from np.partition
    otherwise. Every entry at or below it, ties at the boundary included,
    is kept in ascending index order, and a stable sort of that window gives
    the order. Needs 1 <= k <= len(dist).
    """
    if not 1 <= k <= len(dist):
        raise ValueError(f"need 1 <= k <= {len(dist)}, got k={k}")
    if dist.dtype.kind == "u" and dist.dtype.itemsize <= 2:
        kth = int(np.searchsorted(np.cumsum(np.bincount(dist)), k))
    else:
        kth = np.partition(dist, k - 1)[k - 1]
    window = np.flatnonzero(dist <= kth)
    return window[np.argsort(dist[window], kind="stable")[:k]]


def save_model(path: Union[str, Path], model: HashModel) -> None:
    """Versioned binary blob: family tag, dims, then mean/projection/rotation as <f8."""
    fam = FAMILIES.index(model.family)
    with open(path, "wb") as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<IBII", 1, fam, model.bits, model.dim))
        fh.write(np.ascontiguousarray(model.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.projection, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.rotation, dtype="<f8").tobytes())


def load_model(path: Union[str, Path]) -> HashModel:
    rd = BinaryReader(path, MAGIC_MODEL, "model")
    fam, bits, dim = rd.header("<BII")
    if fam >= len(FAMILIES):
        raise ValueError(f"{path}: unknown family tag {fam}")
    return rd.done(HashModel(family=FAMILIES[fam], mean=rd.array("<f8", dim),
                             projection=rd.array("<f8", bits, dim),
                             rotation=rd.array("<f8", bits, bits)))


def save_codes(path: Union[str, Path], codes: PackedCodes) -> None:
    """Header (n, bits) then the uint64 words, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_CODES)
        fh.write(struct.pack("<III", 1, codes.n, codes.bits))
        fh.write(np.ascontiguousarray(codes.words, dtype="<u8").tobytes())


def load_codes(path: Union[str, Path]) -> PackedCodes:
    rd = BinaryReader(path, MAGIC_CODES, "codes")
    n, bits = rd.header("<II")
    return rd.done(PackedCodes(words=rd.array("<u8", n, words_per_item(bits)), bits=bits))
