"""Query-adaptive bit weighting over one hash table.

Offline, each table stores an independence matrix built from pairwise mutual
information between bits on the training split. Online, a query gets raw
per-bit weights from how well each bit preserves its anchor neighborhood,
calibration redistributes mass away from redundant bits via replicator
dynamics on the simplex, and the database is ranked by weighted Hamming
distance under the calibrated weights.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .anchors import AnchorModel, embed, query_neighbor_profile
from .binfile import BinaryReader
from .hashing import HashModel, PackedCodes, encode, encode_one, hamming_scan, topk, unpack_bits

MAGIC_INDEP = b"MVHI"

MI_SMOOTHING = 0.25
WEIGHT_FLOOR = 1e-12
CALIB_BLOCK = 64  # replicator steps per stop test in `calibrate`

# bit b of byte value v, little-endian within the byte: (256, 8) of 0/1
_BYTE_BITS = unpack_bits(PackedCodes(np.arange(256, dtype=np.uint64)[:, None], 8))


@dataclass
class IndependenceMatrix:
    """Symmetric B x B matrix a_ij = exp(-lambda * MI(bit_i, bit_j)), zero diagonal."""

    a: np.ndarray
    lam: float


@dataclass
class BitWeights:
    """Raw weights w, simplex variable pi, and calibrated weights w* = w o pi.

    calibrated is floored at 1e-12 so weighted distances stay a total
    preorder even when calibration drives some pi_k to zero.
    """

    raw: np.ndarray
    pi: np.ndarray
    calibrated: np.ndarray
    gamma: float


@dataclass
class QueryParams:
    """Online knobs for query-adaptive ranking."""

    gamma: float = 1.0
    n_landmarks: int = 25
    calib_tol: float = 1e-8
    calib_max_iters: int = 1000
    calibrate: bool = True


@dataclass
class HashTable:
    """One view's immutable search state."""

    name: str
    hash_model: HashModel
    codes: PackedCodes          # database codes, row-aligned with db_ids
    db_ids: np.ndarray          # global item id per code row, ascending
    anchor_model: AnchorModel
    independence: IndependenceMatrix


@dataclass
class CalibrationResult:
    pi: np.ndarray
    calibrated: np.ndarray
    objectives: list
    iterations: int
    converged: bool
    iterates: Optional[list] = None


@dataclass
class QRankResult:
    """Ranked output of one table: global ids with weighted distances.

    calibration is the run that produced weights.calibrated (its iterations
    and whether it converged before the cap), or None when calibration is off.
    """

    ids: np.ndarray
    local_ids: np.ndarray
    distances: np.ndarray
    weights: BitWeights
    query_words: np.ndarray
    calibration: Optional[CalibrationResult] = None


def _mi_terms(p: np.ndarray, pi_m: np.ndarray, pj_m: np.ndarray) -> np.ndarray:
    return p * np.log(p / (pi_m * pj_m))


def _mi_from_counts(c11, c10, c01, c00, smoothing: float):
    """MI in nats from smoothed 2x2 counts; grouping keeps i<->j exactly symmetric."""
    t = c11 + c10 + c01 + c00 + 4.0 * smoothing
    p11 = (c11 + smoothing) / t
    p10 = (c10 + smoothing) / t
    p01 = (c01 + smoothing) / t
    p00 = (c00 + smoothing) / t
    pi1 = p11 + p10
    pi0 = p01 + p00
    pj1 = p11 + p01
    pj0 = p10 + p00
    return (
        _mi_terms(p11, pi1, pj1)
        + (_mi_terms(p10, pi1, pj0) + _mi_terms(p01, pi0, pj1))
        + _mi_terms(p00, pi0, pj0)
    )


def pairwise_mutual_information(bits01: np.ndarray, smoothing: float = MI_SMOOTHING) -> np.ndarray:
    """All-pairs MI matrix (B x B, nats) from an (n, B) 0/1 bit matrix."""
    y = np.asarray(bits01, dtype=np.float64)
    n = y.shape[0]
    c11 = y.T @ y
    ones = y.sum(axis=0)
    c10 = ones[:, None] - c11
    c01 = ones[None, :] - c11
    c00 = n - c11 - c10 - c01
    return _mi_from_counts(c11, c10, c01, c00, smoothing)


def independence_matrix(codes: PackedCodes, lam: float = 1.0, smoothing: float = MI_SMOOTHING) -> IndependenceMatrix:
    """exp(-lambda * MI) off the diagonal, 0 on it; computed once per table offline."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    mi = pairwise_mutual_information(unpack_bits(codes), smoothing)
    a = np.exp(-lam * mi)
    np.fill_diagonal(a, 0.0)
    return IndependenceMatrix(a=a, lam=lam)


def raw_weights(
    hash_model: HashModel,
    anchor_model: AnchorModel,
    query: np.ndarray,
    gamma: float = 1.0,
    n_landmarks: int = 25,
) -> np.ndarray:
    """Per-bit weights w_k = exp(gamma * sum_p s(q,p) h_k(q) h_k(p)).

    The profile p ranges over the query's top-L landmarks with similarity
    weights summing to 1; h values are +-1 read off the query's code and the
    stored anchor codes. gamma=0 is allowed and gives unit weights (the
    degenerate reduction to plain Hamming).
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if anchor_model.anchor_codes is None:
        raise ValueError("anchor model has no codes; attach the view's hash model first")
    z_q = embed(anchor_model, query)
    landmark_ids, profile = query_neighbor_profile(anchor_model, z_q, n_landmarks)
    q_bits = unpack_bits(encode(hash_model, query))[0]
    a_bits = unpack_bits(anchor_model.anchor_codes)[landmark_ids]
    q_pm = 2.0 * q_bits.astype(np.float64) - 1.0
    a_pm = 2.0 * a_bits.astype(np.float64) - 1.0
    agreement = q_pm * (profile @ a_pm)
    return np.exp(gamma * agreement)


def calibrate(
    raw: np.ndarray,
    a: Union[IndependenceMatrix, np.ndarray],
    tol: float = 1e-8,
    max_iters: int = 1000,
    record_iterates: bool = False,
) -> CalibrationResult:
    """Replicator dynamics for pi maximizing pi^T M pi with M_ij = w_i a_ij w_j.

    Starts from the uniform simplex point and iterates
    pi <- (pi o M pi) / (pi^T M pi) until the l1 change drops below tol or
    max_iters is hit. Returns pi and the floored calibrated weights w o pi.
    An all-zero M yields the uniform pi with a warning.

    The stop test runs once per block of CALIB_BLOCK steps, over every step of
    the block, and the result ends at the block's first step that passes it.
    Each step does the same float operations in the same order as a loop
    testing every step, so the result equals that loop's bit for bit. Working
    memory is one (CALIB_BLOCK + 1, B) buffer whatever max_iters is.
    """
    w = np.asarray(raw, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("raw weights must be positive")
    amat = a.a if isinstance(a, IndependenceMatrix) else np.asarray(a, dtype=np.float64)
    b = len(w)
    m = amat * np.outer(w, w)
    pi = np.full(b, 1.0 / b)
    g = m @ pi
    obj = float(pi @ g)
    if obj == 0.0:
        warnings.warn("calibration objective is zero (all-zero M); keeping uniform pi", RuntimeWarning)
        calibrated = np.maximum(w * pi, WEIGHT_FLOOR)
        return CalibrationResult(pi=pi, calibrated=calibrated, objectives=[0.0],
                                 iterations=0, converged=True,
                                 iterates=[pi.copy()] if record_iterates else None)
    objectives = [obj]
    iterates = [pi.copy()] if record_iterates else None
    # Steps run CALIB_BLOCK at a time. Step j of a block reads row j - 1 of
    # buf and objs and writes row j of both, through views made once here, so
    # a step is four NumPy calls; ndarray.dot gives the same bits as `m @ pi`
    # and `pi @ g` (the tests check this) at less call overhead. The l1 stop
    # test then runs once over the block's steps, and the steps after the
    # first one that passes it are dropped.
    buf = np.empty((CALIB_BLOCK + 1, b))
    objs = np.empty(CALIB_BLOCK + 1)
    buf[0], objs[0] = pi, obj
    rows, obj_views = list(buf), [objs[j, ...] for j in range(CALIB_BLOCK + 1)]
    converged = False
    iters = steps = 0
    while iters < max_iters:
        n = min(CALIB_BLOCK, max_iters - iters)
        for j in range(1, n + 1):
            nxt = rows[j]
            np.multiply(rows[j - 1], g, nxt)
            np.divide(nxt, obj_views[j - 1], nxt)
            m.dot(nxt, g)
            nxt.dot(g, obj_views[j])
            if objs[j] == 0.0:
                n = j
                break
        deltas = np.add.reduce(np.abs(buf[1:n + 1] - buf[:n]), axis=1)
        hit = np.flatnonzero(deltas < tol)
        converged = hit.size > 0
        steps = int(hit[0]) + 1 if converged else n
        objectives.extend(objs[1:steps + 1].tolist())
        if record_iterates:
            iterates.extend(row.copy() for row in rows[1:steps + 1])
        iters += steps
        if converged or objs[n] == 0.0:
            break
        buf[0], objs[0] = buf[n], objs[n]
    pi = buf[steps].copy()
    calibrated = np.maximum(w * pi, WEIGHT_FLOOR)
    return CalibrationResult(pi=pi, calibrated=calibrated, objectives=objectives,
                             iterations=iters, converged=converged, iterates=iterates)


def weighted_hamming_scan(
    codes: PackedCodes, query_words: np.ndarray, wstar: np.ndarray
) -> np.ndarray:
    """Weighted Hamming distance from the query to every item: sum of w* over set XOR bits.

    Each distance is accumulated left to right in ascending bit order. That
    order is the distance's canonical semantics: float addition is not
    associative, and rankings must not depend on which code path produced
    the distance. Skipped bits contribute an exact +0.0, so the column
    accumulation equals a per-item loop over the set bits bit for bit.
    """
    wstar = np.asarray(wstar, dtype=np.float64)
    x = PackedCodes(codes.words ^ np.asarray(query_words, dtype=np.uint64), codes.bits)
    bits = np.ascontiguousarray(unpack_bits(x).T)  # one row per bit: each pass reads in order
    out = np.zeros(codes.n)
    for pos in range(codes.bits):
        out += np.where(bits[pos] != 0, wstar[pos], 0.0)
    return out


def _screen_delta(wstar: np.ndarray, bits: int) -> float:
    """Bound on |screened - canonical| weighted distance used by weighted_topk."""
    return 2.0 * bits * float(np.finfo(np.float64).eps) * float(np.sum(wstar))


def weighted_topk(
    codes: PackedCodes, query_words: np.ndarray, wstar: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k local ids by weighted Hamming distance and their distances.

    Equal, ties included, to the first k entries of a stable argsort of
    weighted_hamming_scan, at the cost of a byte-table screen plus an exact
    scan of a small window.

    Screen: byte tables T[j][v] (ceil(B/8) x 256) hold the summed w* of the
    bits set in byte value v of byte j; padding bits weigh 0. The approximate
    distance A of an item is the sum of T[j][x_j] over the bytes x_j of
    (item XOR query). A and the canonical ascending-bit distance E sum the same
    at most B nonnegative terms in different orders, so each lies within
    gamma_{B-1} * sum(w*) of the exact real sum (gamma_m = m u / (1 - m u),
    u = eps/2, for any summation order), and |A - E| <= 2 gamma_{B-1} sum(w*)
    <= delta = 2 B eps sum(w*) with a 2x margin that also absorbs the
    rounding of delta itself.

    Window: let A_(k), E_(k) be the k-th smallest A and E. The k items with
    the smallest A all have E <= A_(k) + delta, so E_(k) <= A_(k) + delta, and
    any item with E <= E_(k) has A <= E + delta <= A_(k) + 2 delta. Rounding is
    monotone, so the float comparison A <= fl(A_(k) + 2 delta) keeps them all.
    The window, in ascending id order, therefore holds every item of the
    stable top-k; weighted_hamming_scan gives its exact distances, and a
    stable top-k of the window is the answer. Needs 1 <= k <= codes.n.
    """
    if not 1 <= k <= codes.n:
        raise ValueError(f"need 1 <= k <= {codes.n}, got k={k}")
    wstar = np.asarray(wstar, dtype=np.float64)
    nbytes = (codes.bits + 7) // 8
    w = np.zeros(nbytes * 8)
    w[: codes.bits] = wstar
    w = w.reshape(nbytes, 8)
    tables = np.zeros((nbytes, 256))
    for b in range(8):
        tables += _BYTE_BITS[:, b] * w[:, b:b + 1]
    q = np.asarray(query_words, dtype=np.uint64)
    x = (codes.words ^ q).view(np.uint8)
    approx = np.take(tables[0], x[:, 0])
    for j in range(1, nbytes):
        approx += np.take(tables[j], x[:, j])
    kth = np.partition(approx, k - 1)[k - 1]
    window = np.flatnonzero(approx <= kth + 2.0 * _screen_delta(wstar, codes.bits))
    exact = weighted_hamming_scan(PackedCodes(codes.words[window], codes.bits), q, wstar)
    order = topk(exact, k)
    return window[order], exact[order]


def _check_top_n(top_n: int) -> None:
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")


def qrank_query(
    table: HashTable,
    query: np.ndarray,
    params: QueryParams = QueryParams(),
    top_n: int = 1000,
) -> QRankResult:
    """Full online pipeline for one table: weights, calibration, weighted scan.

    Returns the top_n database items sorted by ascending weighted distance
    (ties by ascending id), with global ids. With params.calibrate False the
    raw weights are used as-is, which with gamma=0 reduces exactly to plain
    Hamming ranking.
    """
    _check_top_n(top_n)
    w = raw_weights(table.hash_model, table.anchor_model, query,
                    gamma=params.gamma, n_landmarks=params.n_landmarks)
    cal = None
    if params.calibrate:
        cal = calibrate(w, table.independence, tol=params.calib_tol,
                        max_iters=params.calib_max_iters)
        pi, wstar = cal.pi, cal.calibrated
    else:
        pi = np.full(len(w), 1.0 / len(w))
        wstar = w
    weights = BitWeights(raw=w, pi=pi, calibrated=wstar, gamma=params.gamma)
    query_words = encode_one(table.hash_model, np.asarray(query, np.float64))
    order, dist = weighted_topk(table.codes, query_words, wstar, min(top_n, table.codes.n))
    return QRankResult(
        ids=table.db_ids[order],
        local_ids=order,
        distances=dist,
        weights=weights,
        query_words=query_words,
        calibration=cal,
    )


def hamming_query(table: HashTable, query: np.ndarray, top_n: int = 1000):
    """Plain Hamming baseline over the same table; returns (global ids, distances)."""
    _check_top_n(top_n)
    query_words = encode_one(table.hash_model, np.asarray(query, np.float64))
    dist = hamming_scan(table.codes, query_words)
    order = topk(dist, min(top_n, table.codes.n))
    return table.db_ids[order], dist[order]


def save_independence(path: Union[str, Path], indep: IndependenceMatrix) -> None:
    a = np.ascontiguousarray(indep.a, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC_INDEP)
        fh.write(struct.pack("<IId", 1, a.shape[0], indep.lam))
        fh.write(a.tobytes())


def load_independence(path: Union[str, Path]) -> IndependenceMatrix:
    rd = BinaryReader(path, MAGIC_INDEP, "independence")
    b, lam = rd.header("<Id")
    return rd.done(IndependenceMatrix(a=rd.array("<f8", b, b), lam=lam))
