"""Reference implementations that only the tests use.

Each one computes a quantity the library computes some other way, straight
from its definition, so tests can check the library against it.
"""

import numpy as np

from mvhash.anchors import SparseEmbedding, embed
from mvhash.hashing import unpack_bits
from mvhash.qrank import MI_SMOOTHING, WEIGHT_FLOOR, CalibrationResult, IndependenceMatrix


def embed_many(model, points):
    """Sparse anchor embeddings of many points: `embed` row by row, stacked."""
    rows = [embed(model, p) for p in np.asarray(points, dtype=np.float64)]
    return SparseEmbedding(indices=np.stack([idx for idx, _ in rows]),
                           values=np.stack([vals for _, vals in rows]))


def nearest_anchors_exhaustive(points, anchors, s):
    """Each point's s nearest anchors: direct-difference squared distances to
    every anchor, then a stable argsort; returns (ids, squared distances)."""
    d2 = ((points[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2)
    ids = np.argsort(d2, axis=1, kind="stable")[:, :s]
    return ids, np.take_along_axis(d2, ids, axis=1)


def kmeans_reference(data, k, rng, iters=25):
    """k-means++ seeding that scores every point against each new center,
    then Lloyd's iterations: assignment by `nearest_anchors_exhaustive`, each
    center the mean of its members, an empty cluster redrawn at a random
    point, stopping when the assignment repeats. `anchors._kmeans` screens
    the seeding and groups the update; the tests compare the two."""
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
        new_assign = nearest_anchors_exhaustive(data, centers, 1)[0][:, 0]
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


def similarity(z_p, z_q, sigma):
    """Gaussian similarity exp(-||z_p - z_q||^2 / sigma^2) of two sparse rows,
    computed on dense copies. `anchors.landmark_similarities` computes it
    sparsely for every landmark at once; the tests compare the two."""
    k = int(max(z_p[0].max(), z_q[0].max())) + 1
    p, q = np.zeros(k), np.zeros(k)
    p[z_p[0]] = z_p[1]
    q[z_q[0]] = z_q[1]
    return float(np.exp(-((p - q) ** 2).sum() / (sigma * sigma)))


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
    """The paper's calibration: replicator dynamics pi <- (pi o M pi) / (pi^T M pi)
    on pi^T M pi, M_ij = w_i a_ij w_j, from the uniform pi, stopping once a
    step's l1 change is below tol or after max_iters steps. `qrank.calibrate`
    solves the same program by another method; the tests compare the two."""
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


def candidate_embedding_reference(cand, anchors, w, s_nn):
    """`fusion.candidate_embedding` from its definition: every (row, anchor)
    distance summed over the differing bits in ascending bit order, a stable
    argsort per row, and kernel weights exp(-d / sum(w)) normalized to sum 1.
    Returns (anchor ids, weights, distances), each (n, s_nn)."""
    cb, ab = unpack_bits(cand), unpack_bits(anchors)
    d = np.zeros((cand.n, anchors.n))
    for k in range(cand.bits):
        d += np.where(cb[:, None, k] != ab[None, :, k], w[k], 0.0)
    ids = np.argsort(d, axis=1, kind="stable")[:, :s_nn]
    kept = np.take_along_axis(d, ids, axis=1)
    scale = w.sum() if w.sum() > 0 else 1.0
    vals = np.maximum(np.exp(-(kept - kept[:, :1]) / scale), 1e-300)
    return ids, vals / vals.sum(axis=1, keepdims=True), kept


def power_walk(fused, tol=1e-10, max_iters=1000):
    """The paper's walk: r <- (1 - alpha) restart + alpha P^T r from r0 =
    restart, with P materialised, until a step's l1 change is below tol or
    after max_iters steps. Returns (iterates, converged); iterates[0] is the
    restart vector and iterates[-1] the scores. `fusion.random_walk` solves
    the same linear system by conjugate gradients; the tests compare the two."""
    pt = fused.transition.T.tocsr()
    alpha, restart = fused.alpha, fused.restart
    iterates = [restart.copy()]
    for _ in range(max_iters):
        r = (1.0 - alpha) * restart + alpha * (pt @ iterates[-1])
        delta = float(np.abs(r - iterates[-1]).sum())
        iterates.append(r)
        if delta < tol:
            return iterates, True
    return iterates, False
