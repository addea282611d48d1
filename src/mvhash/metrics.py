"""Retrieval metrics and exhaustive oracles shared by the CLI and the test suite.

All metric functions treat `ranked` as a sequence of item ids ordered best
first and `relevant` as a set-like of relevant ids. Queries with empty
relevant sets must be excluded by the caller; helpers here raise on them.
"""

from __future__ import annotations

import numpy as np

from .hashing import PackedCodes, unpack_bits


def _check(relevant, k=1):
    if len(relevant) == 0:
        raise ValueError("empty relevant set; caller must exclude such queries")
    if k < 1:
        raise ValueError("k must be >= 1")


def precision_at_k(ranked, relevant, k: int) -> float:
    """|top-k intersect relevant| / k; a short list's missing tail counts as misses."""
    _check(relevant, k)
    rel = set(relevant)
    hits = sum(1 for item in list(ranked)[:k] if item in rel)
    return hits / k


def recall_at_k(ranked, relevant, k: int) -> float:
    """|top-k intersect relevant| / |relevant|."""
    _check(relevant, k)
    rel = set(relevant)
    hits = sum(1 for item in list(ranked)[:k] if item in rel)
    return hits / len(rel)


def average_precision(ranked, relevant, k_cut: int) -> float:
    """Truncated AP: mean of precision@i over relevant hits in the top k_cut.

    Normalized by min(|relevant|, k_cut) so a perfect prefix scores 1.0.
    """
    _check(relevant, k_cut)
    rel = set(relevant)
    hits = 0
    total = 0.0
    for i, item in enumerate(list(ranked)[:k_cut], start=1):
        if item in rel:
            hits += 1
            total += hits / i
    return total / min(len(rel), k_cut)


def map_score(per_query_aps) -> float:
    """Arithmetic mean of per-query APs (queries already filtered to valid ones)."""
    aps = list(per_query_aps)
    if not aps:
        raise ValueError("no valid queries")
    return float(np.mean(aps))


def pr_curve(ranked, relevant) -> np.ndarray:
    """(recall, precision) at every rank position of the list, as a (2, len) array."""
    _check(relevant)
    rel = np.asarray(list(relevant))
    cum = np.cumsum(np.isin(np.asarray(ranked), rel))
    return np.stack([cum / len(rel), cum / np.arange(1, len(cum) + 1)])


def ranking_metrics(ranked, relevant, ks, depth: int) -> dict:
    """All per-query metrics in one vectorized pass over the ranked list.

    Returns {"precision@k": ..., "recall@k": ..., "ap@k": ...} for each k in
    ks plus "map@depth". Agrees with the scalar reference functions above.
    """
    _check(relevant)
    ranked = np.asarray(ranked)[:depth]
    rel = np.asarray(list(relevant))
    hits = np.isin(ranked, rel)
    cum = np.cumsum(hits)
    prec = cum / np.arange(1, len(ranked) + 1)
    out = {}
    for k in ks:
        kk = min(k, len(ranked))
        if kk == 0:
            out[f"precision@{k}"] = 0.0
            out[f"recall@{k}"] = 0.0
            out[f"ap@{k}"] = 0.0
            continue
        out[f"precision@{k}"] = float(cum[kk - 1] / k)
        out[f"recall@{k}"] = float(cum[kk - 1] / len(rel))
        out[f"ap@{k}"] = float((prec[:kk] * hits[:kk]).sum() / min(len(rel), k))
    out[f"map@{depth}"] = float((prec * hits).sum() / min(len(rel), depth))
    return out


def brute_force_rank(subject, query, metric: str, k: int, weights=None) -> np.ndarray:
    """Exhaustive Hamming scan oracle with the ascending-id tie rule.

    metric "hamming" or "weighted_hamming"; subject is PackedCodes and query a
    word row. Distances are recomputed bit by bit here, independently of the
    packed fast paths.
    """
    if metric not in ("hamming", "weighted_hamming"):
        raise ValueError(f"unknown metric {metric!r}")
    if not isinstance(subject, PackedCodes):
        raise ValueError("hamming oracles need PackedCodes")
    bits = unpack_bits(subject)
    qwords = np.asarray(query, dtype=np.uint64).reshape(1, -1)
    neq = bits != unpack_bits(PackedCodes(qwords, subject.bits))[0]
    if metric == "hamming":
        dist = neq.sum(axis=1).astype(np.int64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if len(w) != subject.bits:
            raise ValueError("weight length must equal bit count")
        dist = np.zeros(subject.n)
        for pos in range(subject.bits):  # accumulate in bit order on purpose
            dist += np.where(neq[:, pos], w[pos], 0.0)
    return np.argsort(dist, kind="stable")[:k]
