"""Reference implementations that only the tests use.

Each one computes a quantity the library computes some other way, straight
from its definition, so tests can check the library against it.
"""

import numpy as np
import pytest

from mvhash.anchors import AnchorModel, SparseEmbedding, embed, landmark_similarities
from mvhash.hashing import unpack_bits
from mvhash.qrank import MI_SMOOTHING, WEIGHT_FLOOR, CalibrationResult, IndependenceMatrix


def embed_many(model, points):
    """Sparse anchor embeddings of many points: `embed` row by row, stacked."""
    rows = [embed(model, p) for p in np.asarray(points, dtype=np.float64)]
    return SparseEmbedding(indices=np.stack([idx for idx, _ in rows]),
                           values=np.stack([vals for _, vals in rows]))


def similarity(z_p, z_q, sigma):
    """Gaussian similarity exp(-||z_p - z_q||^2 / sigma^2) of two sparse rows,
    computed on dense copies.

    It also asserts that the library's `landmark_similarities`, with z_p as the
    only landmark, gives the same value; the library rejects sigma <= 0.
    """
    k = int(max(z_p[0].max(), z_q[0].max())) + 1
    model = AnchorModel(
        anchors=np.zeros((k, 1)), kernel_bandwidth=1.0, s_nn=len(z_p[0]), sigma=sigma,
        landmark_embeddings=SparseEmbedding(indices=np.asarray(z_p[0])[None],
                                            values=np.asarray(z_p[1])[None]),
    )
    p, q = np.zeros(k), np.zeros(k)
    p[z_p[0]] = z_p[1]
    q[z_q[0]] = z_q[1]
    ref = float(np.exp(-((p - q) ** 2).sum() / (sigma * sigma)))
    assert landmark_similarities(model, z_q)[0] == pytest.approx(ref, rel=1e-12, abs=1e-15)
    return ref


def mutual_information(codes, i, j, smoothing=MI_SMOOTHING):
    """Mutual information (nats) between bits i and j of the codes, summed cell
    by cell over their smoothed 2x2 joint table."""
    bits = unpack_bits(codes).astype(np.int64)
    counts = np.zeros((2, 2))
    np.add.at(counts, (bits[:, i], bits[:, j]), 1.0)
    p = (counts + smoothing) / (counts.sum() + 4.0 * smoothing)
    pi, pj = p.sum(axis=1), p.sum(axis=0)
    return float(sum(p[a, b] * np.log(p[a, b] / (pi[a] * pj[b]))
                     for a in (0, 1) for b in (0, 1)))


def calibrate_per_step(raw, a, tol=1e-8, max_iters=1000, record_iterates=False):
    """Replicator dynamics on pi' M pi, M_ij = w_i a_ij w_j, with the l1 stop
    test after every step: the loop `qrank.calibrate` must reproduce bit for bit."""
    w = np.asarray(raw, dtype=np.float64)
    amat = a.a if isinstance(a, IndependenceMatrix) else np.asarray(a, dtype=np.float64)
    b = len(w)
    m = amat * np.outer(w, w)
    pi = np.full(b, 1.0 / b)
    g = m @ pi
    obj = float(pi @ g)
    if obj == 0.0:
        return CalibrationResult(pi=pi, calibrated=np.maximum(w * pi, WEIGHT_FLOOR),
                                 objectives=[0.0], iterations=0, converged=True,
                                 iterates=[pi.copy()] if record_iterates else None)
    objectives = [obj]
    iterates = [pi.copy()] if record_iterates else None
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        new_pi = pi * g / obj
        delta = float(np.abs(new_pi - pi).sum())
        pi = new_pi
        g = m @ pi
        obj = float(pi @ g)
        objectives.append(obj)
        if record_iterates:
            iterates.append(pi.copy())
        if delta < tol:
            converged = True
            break
        if obj == 0.0:
            break
    return CalibrationResult(pi=pi, calibrated=np.maximum(w * pi, WEIGHT_FLOOR),
                             objectives=objectives, iterations=iters, converged=converged,
                             iterates=iterates)
