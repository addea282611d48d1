"""Query-adaptive bit weighting over one hash table.

Offline, each table stores an independence matrix built from pairwise mutual
information between bits on the training split. Online, a query gets raw
per-bit weights from how well each bit preserves its anchor neighborhood,
calibration redistributes mass away from redundant bits by maximizing a
quadratic form on the simplex, and the database is ranked by weighted Hamming
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
from .hashing import (HashModel, PackedCodes, encode_one, hamming_scan, pack_bits, topk,
                      unpack_bits)

MAGIC_INDEP = b"MVHI"

MI_SMOOTHING = 0.25
WEIGHT_FLOOR = 1e-12
# weighted_topk bounds every item by a masked popcount from this many items on
BOUND_ITEMS = 1 << 16

# bit b of byte value v, little-endian within the byte: (256, 8) of 0/1
_BYTE_BITS = unpack_bits(PackedCodes(np.arange(256, dtype=np.uint64)[:, None], 8))


@dataclass
class IndependenceMatrix:
    """Symmetric B x B matrix a_ij = exp(-lambda * MI(bit_i, bit_j)), zero diagonal."""

    a: np.ndarray
    lam: float


@dataclass
class BitWeights:
    """Raw weights w, simplex variable pi, and the weights w* the ranking uses.

    calibrated holds grid weights, dyadic_weights(max(w o pi, 1e-12)), or
    dyadic_weights(w) with calibration off: every weighted distance is then
    exact, and every weight is positive even where calibration drives pi_k
    to zero.
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
    query_words: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-bit weights w_k = exp(gamma * sum_p s(q,p) h_k(q) h_k(p)).

    The profile p ranges over the query's top-L landmarks with similarity
    weights summing to 1; h values are +-1 read off the query's code and the
    stored anchor codes. gamma=0 is allowed and gives unit weights (the
    degenerate reduction to plain Hamming). query_words, the query's code
    as encode_one returns it, saves encoding the query again.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if anchor_model.anchor_codes is None:
        raise ValueError("anchor model has no codes; attach the view's hash model first")
    z_q = embed(anchor_model, query)
    landmark_ids, profile = query_neighbor_profile(anchor_model, z_q, n_landmarks)
    if query_words is None:
        query_words = encode_one(hash_model, np.asarray(query, np.float64))
    codes = anchor_model.anchor_codes
    q_bits = unpack_bits(PackedCodes(query_words[None], codes.bits))[0]
    a_bits = unpack_bits(PackedCodes(codes.words[landmark_ids], codes.bits))
    q_pm = 2.0 * q_bits.astype(np.float64) - 1.0
    a_pm = 2.0 * a_bits.astype(np.float64) - 1.0
    agreement = q_pm * (profile @ a_pm)
    return np.exp(gamma * agreement)


def dyadic_weights(w: np.ndarray) -> np.ndarray:
    """w rounded down onto a dyadic grid on which every ranking sum is exact.

    With max(w) < 2^t (np.frexp) and c = ceil(log2 B), the grid step is
    q = 2^(t - 51 + c), or 2^-1074 if that is smaller, and each weight
    becomes max(floor(w_k / q), 1) q. Rounding down keeps max(w) in its
    binade, so the map is idempotent and commutes with scaling by powers of
    two; every weight stays >= q > 0.

    Exactness: every weight is an integer multiple of q below 2^t = 2^(51 - c)
    q, and every integer multiple of q up to 2^53 q is a double. So any sum of
    multiples of q whose partial sums stay within 2^53 q is exact, in any
    order, BLAS blocking or FMA: sums of at most B weights (below 2^51 q), a
    pivot bound E_(s) + 2R (below 3 2^51 q), and a screen c.w + a.w -
    2 (c o w).a, whose partials are within 4 B 2^t <= 2^53 q.
    """
    w = np.asarray(w, dtype=np.float64)
    t = int(np.frexp(w.max())[1])
    q = np.ldexp(1.0, max(t - 51 + (len(w) - 1).bit_length(), -1074))
    return np.maximum(np.floor(w / q), 1.0) * q


def calibrate(
    raw: np.ndarray,
    a: Union[IndependenceMatrix, np.ndarray],
    tol: float = 1e-8,
    max_iters: int = 1000,
    record_iterates: bool = False,
) -> CalibrationResult:
    """Infection-immunization dynamics for pi maximizing pi^T M pi, M_ij = w_i a_ij w_j.

    Starts from the uniform simplex point. With payoffs g = M pi and
    obj = pi^T g, each step takes the vertex k that violates optimality most:
    the largest g_k - obj over all k (infection: move towards e_k) or the
    largest obj - g_k over the support (immunization: move away from e_k, at
    most until pi_k = 0, which is then set exactly). Along pi + t (e_k - pi)
    the objective is obj + 2 t r + t^2 q, r = g_k - obj, q = m_kk - 2 g_k + obj;
    the step takes its exact maximizer over the allowed t and updates g in
    O(B) (Rota Bulo, Pelillo & Bomze, CVIU 2011). It stops, converged, once
    the largest violation is below tol * obj, else after max_iters steps; the
    test is relative, so calibrating 2^j w gives the same pi bit for bit.

    Returns pi and the calibrated weights dyadic_weights(max(w o pi,
    WEIGHT_FLOOR)). An all-zero M yields the uniform pi with a warning; a
    non-finite M is a ValueError.
    """
    w = np.asarray(raw, dtype=np.float64)
    if np.any(w <= 0):
        raise ValueError("raw weights must be positive")
    amat = a.a if isinstance(a, IndependenceMatrix) else np.asarray(a, dtype=np.float64)
    b = len(w)
    with np.errstate(over="ignore", invalid="ignore"):
        m = amat * np.outer(w, w)
    if not np.isfinite(m).all():
        raise ValueError("calibration matrix w_i a_ij w_j is not finite; raw weights too large")
    pi = np.full(b, 1.0 / b)
    g = m @ pi
    obj = float(pi @ g)
    if obj == 0.0:
        warnings.warn("calibration objective is zero (all-zero M); keeping uniform pi", RuntimeWarning)
        calibrated = dyadic_weights(np.maximum(w * pi, WEIGHT_FLOOR))
        return CalibrationResult(pi=pi, calibrated=calibrated, objectives=[0.0],
                                 iterations=0, converged=True,
                                 iterates=[pi.copy()] if record_iterates else None)
    objectives = [obj]
    iterates = [pi.copy()] if record_iterates else None
    rows, diag = list(m), m.diagonal().tolist()
    off, gs = np.zeros(b), np.empty(b)  # off: 0 on the support of pi, inf off it
    iters = 0
    while True:
        i = int(g.argmax())
        np.add(g, off, gs)
        j = int(gs.argmin())
        up, down = g.item(i) - obj, obj - g.item(j)
        converged = max(up, down) < tol * obj
        if converged or iters == max_iters:
            break
        pk = pi.item(j)
        away = down > up and pk < 1.0  # pi_j = 1 leaves no room to move away
        k, lo, hi, r = (j, -pk / (1.0 - pk), 0.0, -down) if away else (i, 0.0, 1.0, up)
        gk = g.item(k)
        # -q / 2: halved terms keep every intermediate within max(M)
        h = 0.5 * (gk - diag[k]) + 0.5 * r
        t = min(max(0.5 * r / h, lo), hi) if h > 0.0 else (hi if r > 0.0 else lo)
        pi *= 1.0 - t
        g += t * (rows[k] - g)
        if t == 1.0:
            off.fill(np.inf)  # pi is e_k now
        pi[k], off[k] = (0.0, np.inf) if away and t <= lo else (pi.item(k) + t, 0.0)
        obj = float(pi.dot(g))
        objectives.append(obj)
        if record_iterates:
            iterates.append(pi.copy())
        iters += 1
    calibrated = dyadic_weights(np.maximum(w * pi, WEIGHT_FLOOR))
    return CalibrationResult(pi=pi, calibrated=calibrated, objectives=objectives,
                             iterations=iters, converged=converged, iterates=iterates)


def _bit_weights(codes: PackedCodes, wstar: np.ndarray) -> np.ndarray:
    """wstar as float64, a ValueError unless it holds one weight per bit."""
    wstar = np.asarray(wstar, dtype=np.float64)
    if wstar.shape != (codes.bits,):
        raise ValueError(f"need one weight per bit: {codes.bits} bits, got {wstar.size} weights")
    return wstar


def weighted_hamming_scan(
    codes: PackedCodes, query_words: np.ndarray, wstar: np.ndarray
) -> np.ndarray:
    """Weighted Hamming distance from the query to every item: sum of w* over set XOR bits.

    Byte tables T[j][v] (ceil(B/8) x 256) hold the summed w* of the bits set
    in byte value v of byte j; padding bits weigh 0. An item's distance is
    the sum of T[j][x_j] over the bytes x_j of (item XOR query), ceil(B/8)
    gathers an item. On the grid of dyadic_weights every table entry and
    every such sum is exact, so the sum in any other order, ascending bit
    order included, gives the same bits. Weights of other than codes.bits
    entries, or a query of other than words_per_item(codes.bits) words, are
    a ValueError.
    """
    wstar = _bit_weights(codes, wstar)
    nbytes = (codes.bits + 7) // 8
    w = np.zeros(nbytes * 8)
    w[: codes.bits] = wstar
    w = w.reshape(nbytes, 8)
    tables = np.zeros((nbytes, 256))
    for b in range(8):
        tables += _BYTE_BITS[:, b] * w[:, b:b + 1]
    x = codes.words ^ PackedCodes(np.asarray(query_words, dtype=np.uint64)[None], codes.bits).words
    x = x.view(np.uint8)
    dist = np.take(tables[0], x[:, 0])
    for j in range(1, nbytes):
        dist += np.take(tables[j], x[:, j])
    return dist


def weighted_topk(
    codes: PackedCodes, query_words: np.ndarray, wstar: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k local ids by weighted Hamming distance and their distances: the
    first k entries of a stable argsort of weighted_hamming_scan. Needs
    1 <= k <= codes.n and grid weights, one per bit, as dyadic_weights
    returns them.

    From BOUND_ITEMS items on, only the items a popcount bound cannot exclude
    are scored. The light bits are those at min(w*) (none when all weights
    are equal), the heavy bits the rest. An item differing from the query in
    c heavy bits has a distance of at least LB[c], the sum of the c smallest
    heavy weights. c* is the smallest c with at least k items at or below
    it; those items are scored, and their k-th distance T bounds the k-th
    distance overall, so every item with LB[c] <= T is kept, and scored in
    a second scan when that reaches past c*. The kept items, in ascending
    id, go through topk, so ties at the cut resolve as in the full scan. LB
    is a sum of grid weights, hence exact; off the grid a rounded bound
    could drop an item the full scan would keep.
    """
    wstar = _bit_weights(codes, wstar)
    if codes.n < BOUND_ITEMS:
        dist = weighted_hamming_scan(codes, query_words, wstar)
        order = topk(dist, k)
        return order, dist[order]
    if not 1 <= k <= codes.n:  # topk would name the kept items' count instead
        raise ValueError(f"need 1 <= k <= {codes.n}, got k={k}")
    heavy = wstar > wstar.min()
    if not heavy.any():  # equal weights: the count alone fixes the distance
        heavy[:] = True
    mask = pack_bits(heavy[None]).words
    x = codes.words ^ PackedCodes(np.asarray(query_words, dtype=np.uint64)[None], codes.bits).words
    x &= mask
    counts = np.bitwise_count(x).sum(axis=1, dtype=np.min_scalar_type(codes.bits))
    lower = np.concatenate(([0.0], np.cumsum(np.sort(wstar[heavy]))))
    lo, hi = 0, len(lower) - 1  # every count is at most the heavy bits' number
    while lo < hi:
        mid = (lo + hi) // 2
        if np.count_nonzero(counts <= mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    kept = np.flatnonzero(counts <= lo)  # lo is c*
    dist = weighted_hamming_scan(PackedCodes(codes.words[kept], codes.bits), query_words, wstar)
    c_max = int(np.searchsorted(lower, np.partition(dist, k - 1)[k - 1], side="right")) - 1
    if c_max > lo:
        kept = np.flatnonzero(counts <= c_max)
        dist = weighted_hamming_scan(PackedCodes(codes.words[kept], codes.bits),
                                     query_words, wstar)
    order = topk(dist, k)
    return kept[order], dist[order]


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
    raw weights are put on the grid of dyadic_weights, which keeps unit
    weights, so gamma=0 reduces exactly to plain Hamming ranking.
    """
    _check_top_n(top_n)
    query_words = encode_one(table.hash_model, np.asarray(query, np.float64))
    w = raw_weights(table.hash_model, table.anchor_model, query, gamma=params.gamma,
                    n_landmarks=params.n_landmarks, query_words=query_words)
    cal = None
    if params.calibrate:
        cal = calibrate(w, table.independence, tol=params.calib_tol,
                        max_iters=params.calib_max_iters)
        pi, wstar = cal.pi, cal.calibrated
    else:
        pi = np.full(len(w), 1.0 / len(w))
        wstar = dyadic_weights(w)
    weights = BitWeights(raw=w, pi=pi, calibrated=wstar, gamma=params.gamma)
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
    return table.db_ids[order], dist[order].astype(np.int64)


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
