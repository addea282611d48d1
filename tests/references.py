"""Reference implementations that only the tests use.

Each one computes a quantity the library computes some other way, straight
from its definition, so tests can check the library against it.
"""

import numpy as np
import pytest

from mvhash.anchors import AnchorModel, SparseEmbedding, embed, landmark_similarities
from mvhash.hashing import unpack_bits
from mvhash.qrank import MI_SMOOTHING


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
