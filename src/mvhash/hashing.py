"""Projection hashing: train lsh/pcah/itq models, encode to packed codes, Hamming rank.

Bit convention used across the package: bit 1 stands for +1 and bit 0 for -1.
A projected value of exactly 0 maps to +1. Codes are packed little-endian into
uint64 words, ceil(B/64) words per item, padding bits zero.
"""

from __future__ import annotations

import bisect
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .binfile import BinaryReader

FAMILIES = ("lsh", "pcah", "itq")

MAGIC_MODEL = b"MVHM"
MODEL_VERSION = 2
MAGIC_CODES = b"MVHC"
# encode() projects at most this many rows at a time, so its float64
# temporaries stay O(ENCODE_BLOCK * (d + B)) whatever the number of rows.
ENCODE_BLOCK = 8192


@dataclass
class HashModel:
    """Trained hash function: bit k of x = sign((projection @ (x - mean))_k).

    One linear map for every family: itq's learned rotation is folded into
    its projection at training time. Arrays are float64, the precision they
    are serialized at, so a save/load round trip encodes identically. A
    non-finite array is a ValueError.
    """

    family: str
    mean: np.ndarray
    projection: np.ndarray

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.projection = np.asarray(self.projection, dtype=np.float64)
        for name in ("mean", "projection"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite value in the {name}")

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
    words = np.zeros((len(bits01), words_per_item(bits01.shape[1])), dtype=np.uint64)
    _pack_rows(words, 0, bits01)
    return PackedCodes(words=words, bits=bits01.shape[1])


def _pack_rows(words: np.ndarray, lo: int, bits01: np.ndarray) -> None:
    """Write bits01's rows, packed, into words[lo:lo + len(bits01)]; bytes past
    the last bit are left as they are (zero in a fresh array)."""
    packed = np.packbits(bits01, axis=1, bitorder="little")
    words.view(np.uint8)[lo:lo + len(packed), :packed.shape[1]] = packed


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


def _itq_rotation(projected: np.ndarray, iters: int, rng: np.random.Generator) -> np.ndarray:
    """The rotation R after iters steps of alternating minimization of the
    binarization loss ||sign(VR) - VR||_F^2 (sign step, then Procrustes step)."""
    b = projected.shape[1]
    rot, _ = np.linalg.qr(rng.normal(size=(b, b)))
    for _ in range(iters):
        binary = np.where(projected @ rot >= 0.0, 1.0, -1.0)
        u, _, vt = np.linalg.svd(projected.T @ binary)
        rot = u @ vt
    return rot


def train(family: str, data: np.ndarray, bits: int, seed: int, itq_iters: int = 50) -> HashModel:
    """Train a hash model of the given family on the training matrix.

    lsh draws Gaussian hyperplanes through the data mean; pcah keeps the top
    PCA directions and thresholds at the mean; itq refines pcah with a learned
    orthogonal rotation (alternating sign assignment / Procrustes solve) and
    keeps the rotated directions as its projection.
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
    elif family in ("pcah", "itq"):
        if bits > dim:
            raise ValueError(f"{family} needs bits <= dim, got bits={bits} dim={dim}")
        projection = _pca_directions(data, bits, rng)
        if family == "itq":
            rot = _itq_rotation((data - mean) @ projection.T, itq_iters, rng)
            projection = rot.T @ projection
    else:
        raise ValueError(f"unknown family {family!r}")
    return HashModel(family=family, mean=mean, projection=projection)


def encode(model: HashModel, data: np.ndarray) -> PackedCodes:
    """Encode rows of data into packed codes under the model.

    Bit k of item i is 1 iff (projection @ (x_i - mean))_k >= 0. Rows are
    projected ENCODE_BLOCK at a time, and each block's bits are packed
    straight into the output; a row's bits do not depend on the rows encoded
    with it.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if data.shape[1] != model.dim:
        raise ValueError(f"data dim {data.shape[1]} does not match model dim {model.dim}")
    words = np.zeros((len(data), words_per_item(model.bits)), dtype=np.uint64)
    for lo in range(0, len(data), ENCODE_BLOCK):
        vals = (data[lo:lo + ENCODE_BLOCK] - model.mean) @ model.projection.T
        _pack_rows(words, lo, vals >= 0.0)
        del vals  # free this block's values before the next block forms its own
    return PackedCodes(words=words, bits=model.bits)


def encode_one(model: HashModel, x: np.ndarray) -> np.ndarray:
    """Encode a single vector; returns its uint64 word row."""
    return encode(model, x[None, :]).words[0]


def hamming_scan(codes: PackedCodes, query_words: np.ndarray) -> np.ndarray:
    """Hamming distance from the query code to every item, in the narrowest
    unsigned dtype that holds codes.bits (uint8 below 256 bits). A query of
    other than words_per_item(codes.bits) words is a ValueError."""
    x = codes.words ^ PackedCodes(np.asarray(query_words, dtype=np.uint64)[None], codes.bits).words
    return np.bitwise_count(x).sum(axis=1, dtype=np.min_scalar_type(codes.bits))


def kth_smallest(values: np.ndarray, k: int):
    """The k-th smallest entry of a 1-d array, or of each row of a 2-d one;
    needs 1 <= k <= the row length. k = 1 is the minimum. Unsigned integers of
    at most 16 bits (popcounts) in 1-d bisect over [0, max] for the first v
    with at least k entries at or below it; anything else is np.partition's.
    """
    if k == 1:
        return values.min(axis=-1)
    if values.ndim == 1 and values.dtype.kind == "u" and values.dtype.itemsize <= 2:
        return bisect.bisect_left(range(int(values.max()) + 1), k,
                                  key=lambda v: np.count_nonzero(values <= v))
    return np.partition(values, k - 1, axis=-1)[..., k - 1]


def topk(dist: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(dist, kind="stable")[:k] without sorting all of dist.

    Every entry at or below the k-th smallest value (kth_smallest), ties at
    the boundary included, is kept in ascending index order, and a stable
    sort of that window gives the order. Needs 1 <= k <= len(dist).
    """
    if not 1 <= k <= len(dist):
        raise ValueError(f"need 1 <= k <= {len(dist)}, got k={k}")
    window = np.flatnonzero(dist <= kth_smallest(dist, k))
    return window[np.argsort(dist[window], kind="stable")[:k]]


def save_model(path: Union[str, Path], model: HashModel) -> None:
    """Versioned binary blob: family tag, dims, then mean and projection as <f8."""
    fam = FAMILIES.index(model.family)
    with open(path, "wb") as fh:
        fh.write(MAGIC_MODEL)
        fh.write(struct.pack("<IBII", MODEL_VERSION, fam, model.bits, model.dim))
        fh.write(np.ascontiguousarray(model.mean, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.projection, dtype="<f8").tobytes())


def load_model(path: Union[str, Path]) -> HashModel:
    rd = BinaryReader(path, MAGIC_MODEL, "model", MODEL_VERSION)
    fam, bits, dim = rd.header("<BII")
    if fam >= len(FAMILIES):
        raise ValueError(f"{path}: unknown family tag {fam}")
    return rd.done(rd.make(HashModel, family=FAMILIES[fam], mean=rd.array("<f8", dim),
                           projection=rd.array("<f8", bits, dim)))


def save_codes(path: Union[str, Path], codes: PackedCodes) -> None:
    """Header (n, bits) then the uint64 words, all little-endian."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_CODES)
        fh.write(struct.pack("<III", 1, codes.n, codes.bits))
        fh.write(np.ascontiguousarray(codes.words, dtype="<u8").tobytes())


def load_codes(path: Union[str, Path]) -> PackedCodes:
    """A codes file; a set padding bit, which hamming_scan would count, is a
    ValueError naming the file and the row."""
    rd = BinaryReader(path, MAGIC_CODES, "codes")
    n, bits = rd.header("<II")
    codes = PackedCodes(words=rd.array("<u8", n, words_per_item(bits)), bits=bits)
    if bits % 64:
        bad = np.flatnonzero(codes.words[:, -1] >> np.uint64(bits % 64))
        if len(bad):
            raise ValueError(f"{path}: code row {bad[0]} sets padding bits past bit {bits}")
    return rd.done(codes)
