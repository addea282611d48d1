"""Anchor selection, sparse kernel embeddings, similarity, neighbor profiles."""

import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvhash import anchors as anchors_mod
from mvhash.anchors import (AnchorModel, build_anchors, embed, load_anchor_model,
                            nearest_anchors, query_neighbor_profile, save_anchor_model,
                            smallest_per_row)
from mvhash.dataset import gen_synthetic
from mvhash.hashing import encode, train
from references import embed_many, kmeans_reference, nearest_anchors_exhaustive, similarity


def _model(data, k, s_nn, seed=0, method="random", with_codes=False):
    hm = train("lsh", data, 8, seed=seed) if with_codes else None
    return build_anchors(data, k, method=method, s_nn=s_nn, seed=seed,
                         hash_model=hm)


def test_anchor_count_and_shape():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(500, 12))
    model = _model(data, 40, s_nn=5)
    assert model.anchors.shape == (40, 12)
    assert model.k == 40


def test_k_equals_n_random_anchors_are_the_data():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(30, 6))
    model = _model(data, 30, s_nn=3)
    # sampled without replacement, so sorted rows must match the data rows
    got = model.anchors[np.lexsort(model.anchors.T)]
    want = data[np.lexsort(data.T)]
    np.testing.assert_allclose(got, want)


def test_k_exceeds_n_rejected():
    data = np.random.default_rng(2).normal(size=(10, 4))
    with pytest.raises(ValueError):
        build_anchors(data, 11, s_nn=2, seed=0)


def test_kmeans_anchors_land_inside_separated_clusters():
    rng = np.random.default_rng(3)
    centers = np.array([[100.0, 0.0], [-100.0, 0.0], [0.0, 100.0]])
    labels = np.repeat(np.arange(3), 50)
    data = centers[labels] + rng.normal(scale=0.5, size=(150, 2))
    model = _model(data, 3, s_nn=1, method="kmeans", seed=4)
    for anchor in model.anchors:
        c = np.argmin(np.linalg.norm(centers - anchor, axis=1))
        cluster = data[labels == c]
        assert np.all(anchor >= cluster.min(axis=0) - 1e-9)
        assert np.all(anchor <= cluster.max(axis=0) + 1e-9)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), k_frac=st.floats(0, 1), d=st.integers(2, 8),
       log_norm=st.floats(-3, 6), log_spread=st.integers(-20, 0), grid=st.booleans(),
       dups=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
def test_kmeans_matches_the_reference_bit_for_bit(n, k_frac, d, log_norm, log_spread, grid,
                                                  dups, seed):
    # Duplicate points tie seeding distances and assignments exactly; k near
    # n empties clusters, so the update redraws. Points spread by as little
    # as 2^-20 about an offset of norm up to 1e6 make the seeding screen
    # cancel badly, so a screen without its margin would skip points that
    # are nearer the new center; on a grid of that step, distances tie.
    rng = np.random.default_rng(seed)
    k = 1 + int(k_frac * (n - 1))
    spread = 2.0 ** log_spread
    offset = rng.uniform(-1, 1, size=d) * 10.0 ** log_norm / np.sqrt(d)
    if grid:
        data = spread * (np.round(offset / spread) + rng.integers(-2, 3, size=(n, d)))
    else:
        data = offset + spread * rng.normal(size=(n, d))
    data[rng.integers(n, size=min(dups, n))] = data[rng.integers(n, size=min(dups, n))]
    got = anchors_mod._kmeans(data, k, np.random.default_rng(seed))
    want = kmeans_reference(data, k, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


def test_kmeans_centres_are_pinned():
    # Centres come from direct sums and the Generator alone, not from BLAS
    # or LAPACK; the second corpus has 4 distinct points for 10 centres, so
    # its clusters empty and redraw on every iteration.
    h = hashlib.sha256()
    for noise, k in ((0.3, 60), (0.0, 10)):
        ds = gen_synthetic(n_clusters=4, per_cluster=40, n_views=1, dim=6, noise=noise, seed=5)
        model = build_anchors(ds.views[0].data, k, method="kmeans", s_nn=3, seed=9)
        h.update(np.ascontiguousarray(model.anchors, dtype="<f8").tobytes())
    assert h.hexdigest() == "3a38ef414bd91507e58aaa1c553fc3570c98b9ca3e25506ccf83d9e3c212bdb1"


def test_embedding_rows_probability_with_exact_support():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(300, 10))
    model = _model(data, 50, s_nn=5)
    emb = embed_many(model, data[:100])
    assert emb.indices.shape == (100, 5)
    assert np.all(emb.values > 0)
    np.testing.assert_allclose(emb.values.sum(axis=1), 1.0, atol=1e-9)
    for i in range(100):
        assert len(np.unique(emb.indices[i])) == 5


def test_embed_on_anchor_with_snn_1_is_indicator():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(80, 6))
    model = _model(data, 20, s_nn=1)
    for j in (0, 7, 19):
        idx, vals = embed(model, model.anchors[j])
        assert idx[0] == j
        assert vals[0] == pytest.approx(1.0)


def test_embed_normalization_arithmetic():
    # query sits on anchor 0; anchor 1 placed so the kernel ratio is 3:1,
    # which must normalize to entries (0.75, 0.25)
    bw = 1.0
    d1 = np.sqrt(2 * bw**2 * np.log(3))
    anchors = np.array([[0.0], [d1]])
    x = np.array([0.0])
    model = AnchorModel(anchors=anchors, kernel_bandwidth=bw, s_nn=2, sigma=1.0)
    idx, vals = embed(model, x)
    order = np.argsort(idx)
    np.testing.assert_allclose(vals[order], [0.75, 0.25], atol=1e-12)


def test_embed_dimension_mismatch():
    rng = np.random.default_rng(6)
    data = rng.normal(size=(50, 4))
    model = _model(data, 10, s_nn=2)
    with pytest.raises(ValueError):
        embed(model, np.ones(5))


def test_similarity_identical_rows_is_one():
    idx = np.array([2, 5], dtype=np.int64)
    vals = np.array([0.6, 0.4])
    assert similarity((idx, vals), (idx.copy(), vals.copy()), sigma=0.7) == \
        pytest.approx(1.0)


def test_similarity_disjoint_supports_hand_value():
    z_p = (np.array([0, 1]), np.array([0.5, 0.5]))
    z_q = (np.array([2, 3]), np.array([0.5, 0.5]))
    # squared distance = 4 * 0.25 = 1.0, sigma = 1 -> exp(-1)
    assert similarity(z_p, z_q, sigma=1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_similarity_monotone_in_distance():
    z_q = (np.array([0]), np.array([1.0]))
    gaps = []
    for v in (0.9, 0.7, 0.5):
        z_p = (np.array([0, 1]), np.array([v, 1.0 - v]))
        gaps.append(similarity(z_p, z_q, sigma=1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_similarity_rejects_bad_sigma():
    for sigma in (0.0, -1.0, float("nan"), float("inf"), 1e-170, 1e170):
        with pytest.raises(ValueError, match="sigma must be positive with sigma\\^2 a finite"):
            AnchorModel(anchors=np.zeros((1, 1)), kernel_bandwidth=1.0, s_nn=1, sigma=sigma)


def test_anchor_model_rejects_values_the_query_path_cannot_square():
    # 2 bw^2 and sigma^2 must be normal doubles, and anchor values at most
    # sqrt(float64 max / (4 (d + 2))) in magnitude, so that nearest_anchors
    # and the kernels stay finite
    anchors = np.zeros((3, 2))
    bound = np.sqrt(np.finfo(np.float64).max / 16)
    for bw in (0.0, -1.0, float("nan"), float("inf"), 1e-170, 1e170):
        with pytest.raises(ValueError, match="bandwidth must be positive with 2 bw\\^2 a finite"):
            AnchorModel(anchors=anchors, kernel_bandwidth=bw, s_nn=1, sigma=1.0)
    for value in (1e200, -np.nextafter(bound, np.inf), np.inf, np.nan):
        bad = anchors.copy()
        bad[1, 0] = value
        with pytest.raises(ValueError, match="anchor values must be finite and at most"):
            AnchorModel(anchors=bad, kernel_bandwidth=1.0, s_nn=1, sigma=1.0)
    AnchorModel(anchors=anchors, kernel_bandwidth=1e-150, s_nn=1, sigma=1e-150)
    edge = np.full((3, 2), -bound)
    edge[0] = bound
    model = AnchorModel(anchors=edge, kernel_bandwidth=1.0, s_nn=2, sigma=1.0)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        _, d2 = nearest_anchors(edge, edge, 2)
        assert np.isfinite(d2).all() and d2.max() > 1e307
        assert np.isfinite(model.landmark_embeddings.values).all()


def test_far_anchors_under_a_tiny_bandwidth_embed_without_a_warning():
    # 1e150-scale anchors are within the magnitude bound and 2 bw^2 = 2e-300 is
    # a normal double, so kernel_rows' quotient overflows to inf, on purpose
    anchors = np.random.default_rng(3).normal(size=(20, 4)) * 1e150
    model = AnchorModel(anchors=anchors, kernel_bandwidth=1e-150, s_nn=3, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = model.landmark_embeddings.values
    np.testing.assert_array_equal(values.sum(axis=1), 1.0)
    np.testing.assert_array_equal(model.landmark_embeddings.indices[:, 0], np.arange(20))


def test_similarity_symmetric():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(200, 8))
    model = _model(data, 30, s_nn=4)
    for _ in range(20):
        i, j = rng.integers(0, 200, size=2)
        z_i, z_j = embed(model, data[i]), embed(model, data[j])
        assert similarity(z_i, z_j, model.sigma) == \
            pytest.approx(similarity(z_j, z_i, model.sigma), abs=1e-15)


def test_profile_single_landmark_weight_one():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(100, 5))
    model = _model(data, 20, s_nn=3)
    ids, weights = query_neighbor_profile(model, embed(model, data[0]), 1)
    assert len(ids) == 1
    assert weights[0] == pytest.approx(1.0)


def test_profile_weights_sum_to_one():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(150, 6))
    model = _model(data, 25, s_nn=4)
    for i in range(0, 150, 10):
        _, weights = query_neighbor_profile(model, embed(model, data[i]), 10)
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_profile_top_set_matches_exhaustive_sort():
    from mvhash.anchors import landmark_similarities
    rng = np.random.default_rng(10)
    data = rng.normal(size=(120, 7))
    model = _model(data, 30, s_nn=5)
    for i in (3, 44, 90):
        z_q = embed(model, data[i])
        ids, _ = query_neighbor_profile(model, z_q, 8)
        sims = np.array([similarity(model.landmark_embeddings.row(j), z_q,
                                    model.sigma) for j in range(30)])
        expected = np.argsort(-sims, kind="stable")[:8]
        np.testing.assert_array_equal(np.sort(ids), np.sort(expected))
        # and the fast all-landmark similarity path agrees with the sparse one
        np.testing.assert_allclose(landmark_similarities(model, z_q), sims,
                                   atol=1e-12)


@pytest.mark.parametrize("s_nn", [1, 3, 30])
def test_landmark_similarities_match_the_dense_reference(s_nn):
    from mvhash.anchors import landmark_similarities
    rng = np.random.default_rng(20 + s_nn)
    data = rng.normal(size=(200, 6))
    model = _model(data, 30, s_nn=s_nn)
    for i in range(0, 200, 20):
        z_q = embed(model, data[i])
        want = [similarity(model.landmark_embeddings.row(j), z_q, model.sigma)
                for j in range(30)]
        np.testing.assert_allclose(landmark_similarities(model, z_q), want,
                                   rtol=1e-12, atol=1e-15)


def test_landmark_embeddings_are_derived_from_the_anchors_on_first_use(tmp_path):
    rng = np.random.default_rng(21)
    data = rng.normal(size=(300, 7))
    model = _model(data, 40, s_nn=4, with_codes=True)
    assert "landmark_embeddings" not in vars(model)  # the build does not derive them
    path = tmp_path / "anchors.bin"
    save_anchor_model(path, model)
    back = load_anchor_model(path)
    assert "landmark_embeddings" not in vars(back)
    query_neighbor_profile(back, embed(back, data[5]), 10)
    assert "landmark_embeddings" in vars(back)
    want = embed_many(model, model.anchors)
    for got in (model.landmark_embeddings, back.landmark_embeddings):
        assert got.indices.tobytes() == want.indices.tobytes()
        assert got.values.tobytes() == want.values.tobytes()


def test_profile_l_exceeds_k_rejected():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(50, 4))
    model = _model(data, 10, s_nn=2)
    with pytest.raises(ValueError):
        query_neighbor_profile(model, embed(model, data[0]), 11)


def test_anchor_model_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    data = rng.normal(size=(200, 9))
    model = _model(data, 25, s_nn=4, with_codes=True)
    path = tmp_path / "anchors.bin"
    save_anchor_model(path, model)
    back = load_anchor_model(path)
    np.testing.assert_array_equal(back.anchors, model.anchors)
    assert back.kernel_bandwidth == model.kernel_bandwidth
    assert back.sigma == model.sigma
    assert back.s_nn == model.s_nn
    # the file holds no codes; load_bundle derives them from the anchors
    assert back.anchor_codes is None
    np.testing.assert_array_equal(encode(train("lsh", data, 8, seed=0), back.anchors).words,
                                  model.anchor_codes.words)
    i1, v1 = embed(model, data[13])
    i2, v2 = embed(back, data[13])
    np.testing.assert_array_equal(i1, i2)
    np.testing.assert_array_equal(v1, v2)


def test_build_deterministic():
    rng = np.random.default_rng(13)
    data = rng.normal(size=(150, 5))
    m1 = _model(data, 20, s_nn=3, seed=21)
    m2 = _model(data, 20, s_nn=3, seed=21)
    np.testing.assert_array_equal(m1.anchors, m2.anchors)
    assert m1.kernel_bandwidth == m2.kernel_bandwidth
    assert m1.sigma == m2.sigma


@pytest.mark.parametrize("method", ["random", "kmeans"])
@pytest.mark.parametrize("n_rows", [12, 400, 1500])
def test_anchors_from_row_ids_equal_anchors_from_the_slice(method, n_rows):
    # 1500 rows: the bandwidth sample (1000) and the sigma pairs draw a subset
    rng = np.random.default_rng(n_rows)
    data = rng.normal(size=(n_rows + 150, 6))
    ids = np.sort(rng.choice(len(data), size=n_rows, replace=False))
    hm = train("lsh", data, 10, seed=3)
    k = min(n_rows, 40)
    got = build_anchors(data, k, method=method, s_nn=3, seed=5, hash_model=hm, rows=ids)
    want = build_anchors(data[ids], k, method=method, s_nn=3, seed=5, hash_model=hm)
    for a, b in ((got.anchors, want.anchors),
                 (got.landmark_embeddings.indices, want.landmark_embeddings.indices),
                 (got.landmark_embeddings.values, want.landmark_embeddings.values),
                 (got.anchor_codes.words, want.anchor_codes.words)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert (got.kernel_bandwidth, got.sigma) == (want.kernel_bandwidth, want.sigma)
    with pytest.raises(ValueError, match=f"K={n_rows + 1} exceeds n={n_rows}"):
        build_anchors(data, n_rows + 1, method=method, rows=ids)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("method", ["random", "kmeans"])
def test_sigma_is_the_largest_embedding_distance(n, method):
    # 1000 sampled pairs cover all n^2 pairs of so few points
    rng = np.random.default_rng(40 + n)
    data = rng.normal(size=(n, 3))
    for k, s_nn in ((n, 1), (n, n), (max(n - 1, 1), max(n // 2, 1))):
        model = _model(data, k, s_nn=s_nn, seed=n, method=method)
        emb = embed_many(model, data)
        dense = np.zeros((n, k))
        np.put_along_axis(dense, emb.indices, emb.values, axis=1)
        dist = np.sqrt(((dense[:, None, :] - dense[None, :, :]) ** 2).sum(axis=2))
        assert model.sigma == pytest.approx(max(dist.max(), 1e-6), rel=1e-12)
    same = np.tile(data[:1], (n, 1))
    assert _model(same, n, s_nn=max(n // 2, 1), seed=n, method=method).sigma == 1e-6


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 25), d=st.integers(1, 16),
       log_norm=st.floats(0, 6), grid=st.booleans(), s_pick=st.sampled_from(["1", "mid", "k"]),
       entries=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_nearest_anchors_matches_exhaustive_stable_argsort(n, k, d, log_norm, grid, s_pick,
                                                           entries, seed):
    # A common offset of norm up to 1e6 makes the screen's |x|^2 + |a|^2 -
    # 2 x.a cancel badly; integer grids, duplicate anchors and points placed
    # on anchors force exact ties, also at the s-th place. A block holds
    # max(1, entries // k) rows: one row when k > entries, and a short last
    # block when that does not divide n.
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1, 1, size=d) * 10.0 ** log_norm / np.sqrt(d)
    if grid:
        offset = np.round(offset)
        anchors = offset + rng.integers(-2, 3, size=(k, d))
        points = offset + rng.integers(-2, 3, size=(n, d))
    else:
        anchors = offset + rng.normal(size=(k, d))
        points = offset + rng.normal(size=(n, d))
    anchors[rng.integers(k, size=k // 3)] = anchors[rng.integers(k, size=k // 3)]
    points[:n // 3] = anchors[rng.integers(k, size=n // 3)]
    s = {"1": 1, "mid": (k + 1) // 2, "k": k}[s_pick]
    with mock.patch.object(anchors_mod, "SCREEN_ENTRIES", entries):
        ids, d2 = nearest_anchors(points, anchors, s)
    ref_ids, ref_d2 = nearest_anchors_exhaustive(points, anchors, s)
    np.testing.assert_array_equal(ids, ref_ids)
    assert d2.tobytes() == ref_d2.tobytes()


def test_nearest_anchors_rejects_bad_s_and_non_finite_input():
    anchors = np.zeros((3, 2))
    for s in (0, 4):
        with pytest.raises(ValueError):
            nearest_anchors(np.zeros((1, 2)), anchors, s)
    with pytest.raises(ValueError):
        nearest_anchors(np.array([[np.nan, 0.0]]), anchors, 1)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 30), k=st.integers(1, 20), levels=st.integers(1, 6),
       s_frac=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
def test_smallest_per_row_matches_lexsort(n, k, levels, s_frac, seed):
    # A window as np.nonzero lists it, at least s entries a row, with few
    # distinct distances (ties within and across rows) and -0.0 beside 0.0.
    rng = np.random.default_rng(seed)
    s = 1 + int(s_frac * (k - 1))
    keep = rng.random((n, k)) < 0.5
    keep[:, :s] |= keep.sum(axis=1, keepdims=True) < s
    rows, cols = np.nonzero(keep)
    dist = rng.integers(0, levels, size=len(rows)) * 0.5
    dist[(dist == 0) & (rng.random(len(rows)) < 0.5)] = -0.0
    order = np.lexsort((cols, dist, rows))
    firsts = [order[rows[order] == r][:s] for r in range(n)]
    got_cols, got_dist = smallest_per_row(rows, cols, dist, s)
    np.testing.assert_array_equal(got_cols, np.array([cols[f] for f in firsts]))
    np.testing.assert_array_equal(got_dist.view(np.uint64),
                                  np.array([dist[f] for f in firsts]).view(np.uint64))
