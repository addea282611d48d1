"""Tests for candidate graphs, superposition, and the restart walk."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mvhash import (
    MultiViewDataset,
    QsrfParams,
    QueryParams,
    VectorView,
    build_candidate_graph,
    build_index,
    candidate_embedding,
    candidate_similarity,
    closed_form_rank,
    fuse,
    gen_synthetic,
    hamming_query,
    make_split,
    pack_bits,
    qrank_query,
    qsrf_search,
    random_walk,
    transition_and_restart,
)
import mvhash.fusion as fusion_module
from mvhash.anchors import SparseEmbedding
from mvhash.fusion import QUERY_VERTEX, CandidateGraph, FusedGraph, fuse_rankings
from mvhash.qrank import WEIGHT_FLOOR, dyadic_weights

from references import candidate_embedding_reference, power_walk


def _graph(vertices, weighted_edges, n=None):
    """Build a CandidateGraph from a vertex list and (i, j, w) triples."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if n is None:
        n = len(vertices)
    mat = sp.lil_matrix((n, n))
    for i, j, w in weighted_edges:
        mat[i, j] = w
        mat[j, i] = w
    return CandidateGraph(table_id=0, vertices=vertices, edges=mat.tocsr())


def _two_view_index(seed=11):
    ds = gen_synthetic(n_clusters=4, per_cluster=50, n_views=2, dim=16,
                       noise=0.5, seed=seed)
    split = make_split(ds.n, n_train=80, n_query=20, seed=seed)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=40, s_nn=3,
                     seed=seed)
    return ds, split, idx


def test_two_view_lsh_rankings_are_pinned():
    """Every hamming, qrank and qsrf id and score bit of an lsh, random-anchor,
    two-view index, each query ranking the whole database. A change that
    moves a ranking on purpose re-derives the pin and says which modes moved."""
    ds, split, idx = _two_view_index()
    top_n = len(split.database)
    digest = hashlib.sha256()
    for q in split.query:
        queries = [view.data[q] for view in ds.views]
        for table, x in zip(idx.tables, queries):
            ids, dist = hamming_query(table, x, top_n=top_n)
            res = qrank_query(table, x, top_n=top_n)
            for arr in (ids, dist, res.ids, res.distances):
                digest.update(arr.tobytes())
        fused = qsrf_search(idx, queries, QsrfParams(top_n=top_n))
        digest.update(fused.ids.tobytes())
        digest.update(fused.scores.tobytes())
    assert digest.hexdigest() == "4ca9ca2c56f2983df1db847e83bbebe7193c32f9844dfd8a0ee4f8169ecf2219"


# ---------------------------------------------------------------- embedding


def test_candidate_embedding_exact_match_single_neighbor():
    anchors = pack_bits(np.array([[0, 0], [1, 1]], dtype=np.uint8))
    cand = pack_bits(np.array([[0, 0]], dtype=np.uint8))
    z = candidate_embedding(cand.words, anchors, bits=2,
                            wstar=np.array([0.5, 0.5]), s_nn=1)
    assert z.indices.shape == (1, 1)
    assert z.indices[0, 0] == 0
    assert z.values[0, 0] == 1.0


def test_candidate_embedding_equidistant_rows_are_uniform():
    anchors = pack_bits(np.array([[0, 0], [1, 1]], dtype=np.uint8))
    cand = pack_bits(np.array([[0, 1]], dtype=np.uint8))
    z = candidate_embedding(cand.words, anchors, bits=2,
                            wstar=np.array([0.5, 0.5]), s_nn=2)
    np.testing.assert_array_equal(z.values[0], [0.5, 0.5])
    np.testing.assert_array_equal(np.sort(z.indices[0]), [0, 1])


def test_candidate_embedding_rows_sum_to_one_with_s_nn_entries():
    rng = np.random.default_rng(3)
    bits = 16
    anchors = pack_bits(rng.integers(0, 2, size=(20, bits)).astype(np.uint8))
    cand = pack_bits(rng.integers(0, 2, size=(7, bits)).astype(np.uint8))
    w = rng.random(bits) + 0.05
    z = candidate_embedding(cand.words, anchors, bits=bits, wstar=w, s_nn=5)
    assert z.indices.shape == (7, 5)
    assert z.values.shape == (7, 5)
    np.testing.assert_allclose(z.values.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(z.values > 0)
    for row in z.indices:
        assert len(set(row.tolist())) == 5


def test_candidate_embedding_kernel_arithmetic():
    # Distances 1.0 and 3.0 under w = (1, 3); default scale is sum(w) = 4.
    anchors = pack_bits(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    cand = pack_bits(np.array([[0, 0]], dtype=np.uint8))
    z = candidate_embedding(cand.words, anchors, bits=2,
                            wstar=np.array([1.0, 3.0]), s_nn=2)
    e = np.exp(-(3.0 - 1.0) / 4.0)
    np.testing.assert_allclose(z.values[0], [1.0 / (1.0 + e), e / (1.0 + e)],
                               rtol=1e-15)
    np.testing.assert_array_equal(z.indices[0], [0, 1])


def test_candidate_embedding_distance_tie_keeps_lower_anchor_id():
    anchors = pack_bits(np.array([[1, 0], [1, 0]], dtype=np.uint8))
    cand = pack_bits(np.array([[0, 0]], dtype=np.uint8))
    z = candidate_embedding(cand.words, anchors, bits=2,
                            wstar=np.array([1.0, 1.0]), s_nn=1)
    assert z.indices[0, 0] == 0


@settings(max_examples=120, deadline=None)
@given(bits=st.integers(1, 70), n_anchors=st.integers(1, 40), s_nn_frac=st.floats(0, 1),
       integer_weights=st.booleans(), floor_weights=st.booleans(), clustered=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_candidate_embedding_matches_stable_argsort(bits, n_anchors, s_nn_frac,
                                                    integer_weights, floor_weights,
                                                    clustered, seed):
    # Few bits, many anchors and integer weights force exact distance ties,
    # also at the s_nn boundary, where the lower anchor id must win. The
    # weights go onto the grid of dyadic_weights, as calibrate leaves them.
    rng = np.random.default_rng(seed)
    s_nn = 1 + int(s_nn_frac * (n_anchors - 1))
    w = (rng.integers(1, 4, size=bits).astype(np.float64) if integer_weights
         else rng.random(bits) + 0.05)
    if floor_weights:
        # O(1) weights beside calibration's floor: distances then differ in
        # steps of about 1e-12, far below the largest distance.
        w[rng.random(bits) < 0.5] = WEIGHT_FLOOR
    w = dyadic_weights(w)
    cand_bits = rng.integers(0, 2, size=(15, bits)).astype(np.uint8)
    anchor_bits = rng.integers(0, 2, size=(n_anchors, bits)).astype(np.uint8)
    far = np.zeros(n_anchors, dtype=bool)
    if clustered:
        # Rows and the near anchors differ from one pivot code only in the
        # lightest bits, of total weight at most W/8; the far anchors are its
        # complement up to those bits. So E(row 0, far) >= 7W/8 exceeds
        # E_(s) + 2R <= 3W/8 whenever s_nn <= the near count, and the pivot
        # prune drops every far anchor.
        light = np.zeros(bits, dtype=np.uint8)
        light[np.argsort(w, kind="stable")[np.cumsum(np.sort(w)) <= w.sum() / 8]] = 1
        pivot = cand_bits[0]
        cand_bits = pivot ^ (cand_bits & light)
        far = rng.random(n_anchors) < 0.5
        anchor_bits = pivot ^ far[:, None].astype(np.uint8) ^ (anchor_bits & light)
    cand, anchors = pack_bits(cand_bits), pack_bits(anchor_bits)
    z = candidate_embedding(cand.words, anchors, bits=bits, wstar=w, s_nn=s_nn)
    ref_idx, ref_vals, _ = candidate_embedding_reference(cand, anchors, w, s_nn)
    np.testing.assert_array_equal(z.indices, ref_idx)
    np.testing.assert_array_equal(z.values, ref_vals)
    if clustered and far.any() and s_nn <= n_anchors - far.sum():
        assert not far[ref_idx].any()


@pytest.mark.parametrize("block", [1, 100, 400, 10**6])
def test_candidate_embedding_row_blocks_equal_the_reference(monkeypatch, block):
    # 37 rows x 50 anchors, which random 70-bit codes keep through the prune:
    # blocks of 1, 2 and 8 rows (a short last one) and one block for all.
    rng = np.random.default_rng(21)
    w = dyadic_weights(rng.random(70) + WEIGHT_FLOOR)
    cand = pack_bits(rng.integers(0, 2, size=(37, 70)).astype(np.uint8))
    anchors = pack_bits(rng.integers(0, 2, size=(50, 70)).astype(np.uint8))
    monkeypatch.setattr(fusion_module, "SCREEN_ENTRIES", block)
    z = candidate_embedding(cand.words, anchors, bits=70, wstar=w, s_nn=4)
    ref_idx, ref_vals, _ = candidate_embedding_reference(cand, anchors, w, 4)
    np.testing.assert_array_equal(z.indices, ref_idx)
    np.testing.assert_array_equal(z.values, ref_vals)


def test_candidate_embedding_rejects_s_nn_beyond_anchor_count():
    anchors = pack_bits(np.array([[0, 0]], dtype=np.uint8))
    cand = pack_bits(np.array([[0, 0]], dtype=np.uint8))
    for s_nn in (0, 2):
        with pytest.raises(ValueError):
            candidate_embedding(cand.words, anchors, bits=2,
                                wstar=np.ones(2), s_nn=s_nn)


# --------------------------------------------------------------- similarity


def test_candidate_similarity_identical_indicator_rows():
    z = SparseEmbedding(indices=np.array([[0], [0]], dtype=np.int32),
                        values=np.array([[1.0], [1.0]]))
    s, isolated = candidate_similarity(z, n_anchors=3)
    s = s.tocsr()
    assert s[0, 1] == 1.0
    assert s[1, 0] == 1.0
    assert s[0, 0] == 0.0
    assert not isolated.any()


def test_candidate_similarity_disjoint_supports_have_no_edges():
    z = SparseEmbedding(indices=np.array([[0], [1]], dtype=np.int32),
                        values=np.array([[1.0], [1.0]]))
    s, isolated = candidate_similarity(z, n_anchors=2)
    s = s.tocsr()
    assert s.nnz == 0
    assert not isolated.any()


def test_candidate_similarity_is_exactly_symmetric():
    rng = np.random.default_rng(9)
    vals = rng.random((6, 3))
    vals /= vals.sum(axis=1, keepdims=True)
    idx = np.array([rng.choice(8, size=3, replace=False) for _ in range(6)],
                   dtype=np.int32)
    z = SparseEmbedding(indices=idx, values=vals)
    s = candidate_similarity(z, n_anchors=8)[0].tocsr()
    diff = (s - s.T)
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_candidate_similarity_matches_dense_reference():
    rng = np.random.default_rng(21)
    n, k, s_nn = 5, 7, 3
    vals = rng.random((n, s_nn))
    vals /= vals.sum(axis=1, keepdims=True)
    idx = np.array([rng.choice(k, size=s_nn, replace=False) for _ in range(n)],
                   dtype=np.int32)
    z = SparseEmbedding(indices=idx, values=vals)
    s = candidate_similarity(z, n_anchors=k)[0].tocsr()

    dense_z = np.zeros((n, k))
    for i in range(n):
        dense_z[i, idx[i]] = vals[i]
    g = dense_z @ dense_z.T
    lam = g.sum(axis=1)
    ref = g / lam[:, None] + g / lam[None, :]
    np.fill_diagonal(ref, 0.0)
    np.testing.assert_allclose(s.toarray(), ref, rtol=1e-12, atol=1e-15)


def test_candidate_similarity_factors_match_materialised_product():
    rng = np.random.default_rng(31)
    n, k, s_nn = 40, 25, 3
    vals = rng.random((n, s_nn))
    vals /= vals.sum(axis=1, keepdims=True)
    idx = np.array([rng.choice(k, size=s_nn, replace=False) for _ in range(n)],
                   dtype=np.int32)
    s, _ = candidate_similarity(SparseEmbedding(indices=idx, values=vals), n_anchors=k)
    fused = FusedGraph(vertices=np.arange(n), parts=[(np.arange(n), s)])
    y = rng.random(n)
    np.testing.assert_allclose(fused.rmatvec(y), s.tocsr().T @ y, rtol=1e-13)
    np.testing.assert_allclose(fused.row_sums(), s.tocsr() @ np.ones(n), rtol=1e-13)
    assert s.tocsr().shape == (n, n)


def test_rows_sharing_no_anchor_are_exactly_dangling():
    # Rows 0 and 3 hold anchors no other row holds: no edges in either graph.
    z = SparseEmbedding(indices=np.array([[0, 1], [2, 3], [2, 4], [5, 6]], dtype=np.int32),
                        values=np.array([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5], [0.9, 0.1]]))
    s, isolated = candidate_similarity(z, n_anchors=7)
    assert not isolated.any()
    g1 = CandidateGraph(table_id=0, vertices=[-1, 4, 6, 8], edges=s)
    g2 = CandidateGraph(table_id=1, vertices=[-1, 6, 8, 9], edges=s)
    fused = transition_and_restart(fuse([g1, g2]), alpha=0.85)
    np.testing.assert_array_equal(fused.vertices, [-1, 4, 6, 8, 9])
    rowsum = np.asarray(fused.omega.sum(axis=1)).ravel()
    np.testing.assert_array_equal(fused.dangling, rowsum <= 0.0)
    np.testing.assert_array_equal(fused.dangling, [True, False, False, False, True])
    np.testing.assert_array_equal(fused.transition.toarray()[0], np.full(5, 0.2))
    walk = random_walk(fused, tol=1e-13, max_iters=10000)
    np.testing.assert_allclose(walk.r, closed_form_rank(fused).r, atol=1e-11)


def test_build_candidate_graph_puts_query_vertex_first():
    ds, split, idx = _two_view_index()
    table = idx.tables[0]
    q = ds.views[0].data[split.query[0]]
    res = qrank_query(table, q, QueryParams(n_landmarks=10), top_n=25)
    graph = build_candidate_graph(table, 0, res)
    assert graph.vertices[0] == QUERY_VERTEX
    np.testing.assert_array_equal(graph.vertices[1:], res.ids)
    assert graph.edges.tocsr().shape == (26, 26)
    assert graph.isolated.dtype == np.bool_


# --------------------------------------------------------------------- fuse


def test_fuse_single_graph_keeps_weights():
    g = _graph([-1, 5, 9], [(0, 1, 0.25), (1, 2, 0.5)])
    fused = fuse([g])
    np.testing.assert_array_equal(fused.vertices, [-1, 5, 9])
    np.testing.assert_array_equal(fused.omega.toarray(), g.edges.toarray())


def test_fuse_sums_shared_edges_and_dedups_vertices():
    g1 = _graph([-1, 5, 9], [(0, 1, 0.25)])
    g2 = _graph([-1, 5, 12], [(0, 1, 0.25)])
    fused = fuse([g1, g2])
    np.testing.assert_array_equal(fused.vertices, [-1, 5, 9, 12])
    assert fused.omega[0, 1] == 0.5
    assert fused.omega[1, 0] == 0.5
    assert fused.omega[0, 2] == 0.0


def test_fuse_duplicate_graph_doubles_weights_exactly():
    g = _graph([-1, 2, 7], [(0, 1, 0.375), (1, 2, 0.125)])
    once = fuse([g]).omega.toarray()
    twice = fuse([g, g]).omega.toarray()
    np.testing.assert_array_equal(twice, 2.0 * once)


def test_fuse_requires_graphs_and_query_vertex():
    with pytest.raises(ValueError):
        fuse([])
    g = _graph([3, 5], [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        fuse([g])


# ------------------------------------------------------- transition/restart


def test_transition_rows_are_stochastic_and_dangling_rows_uniform():
    g = _graph([-1, 1, 2, 3], [(0, 1, 0.5), (1, 2, 1.5)])  # vertex 3 dangling
    fused = transition_and_restart(fuse([g]), alpha=0.85, restart_mass=0.99)
    p = fused.transition.toarray()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(p[3], [0.25, 0.25, 0.25, 0.25])


def test_restart_vector_concentrates_on_query():
    g = _graph([-1, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)])
    fused = transition_and_restart(fuse([g]), alpha=0.85, restart_mass=0.99)
    assert fused.restart[0] == 0.99
    np.testing.assert_allclose(fused.restart[1:], 0.01 / 3, rtol=1e-15)
    assert fused.restart.sum() == pytest.approx(1.0, abs=1e-12)
    assert fused.alpha == 0.85


def test_transition_rejects_bad_alpha_and_missing_query():
    g = _graph([-1, 1], [(0, 1, 1.0)])
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            transition_and_restart(fuse([g]), alpha=bad)
    no_query = FusedGraph(vertices=np.array([2, 3]),
                          parts=[(np.arange(2), sp.csr_matrix(np.array([[0.0, 1.0],
                                                                        [1.0, 0.0]])))])
    with pytest.raises(ValueError):
        transition_and_restart(no_query, alpha=0.85)


def test_transition_rejects_restart_mass_outside_the_unit_interval():
    g = _graph([-1, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)])
    for bad in (-0.5, -1e-300, 1.0 + 2**-52, 2.0, float("nan")):
        with pytest.raises(ValueError, match="restart_mass"):
            transition_and_restart(fuse([g]), restart_mass=bad)
    for mass in (0.0, 1.0):
        restart = transition_and_restart(fuse([g]), restart_mass=mass).restart
        assert restart.min() >= 0.0 and restart.sum() == 1.0
    ds, split, idx = _two_view_index()
    with pytest.raises(ValueError, match="restart_mass"):
        qsrf_search(idx, [v.data[split.query[0]] for v in ds.views],
                    QsrfParams(top_n=20, restart_mass=2.0))


# --------------------------------------------------------------------- walk


def _two_vertex_fused(alpha=0.8, restart_mass=0.99):
    g = _graph([-1, 0], [(0, 1, 1.0)])
    return transition_and_restart(fuse([g]), alpha=alpha,
                                  restart_mass=restart_mass)


def test_random_walk_two_vertex_fixed_point():
    fused = _two_vertex_fused()
    np.testing.assert_array_equal(fused.transition.toarray(),
                                  [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(fused.restart, [0.99, 0.01], rtol=1e-14)
    scores = random_walk(fused, tol=1e-12, max_iters=10000)
    assert scores.converged
    np.testing.assert_allclose(scores.r, [0.5544, 0.4456], atol=1e-4)


def test_random_walk_iterates_stay_probability_vectors():
    rng = np.random.default_rng(5)
    mat = sp.csr_matrix(np.triu(rng.random((8, 8)), 1))
    g = CandidateGraph(table_id=0, vertices=np.arange(-1, 7),
                       edges=(mat + mat.T).tocsr())
    fused = transition_and_restart(fuse([g]), alpha=0.85)
    iterates, converged = power_walk(fused, tol=1e-12, max_iters=5000)
    assert converged
    for r in iterates:
        assert np.all(r >= 0)
        assert r.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_walk_step_deltas_contract_geometrically():
    fused = _two_vertex_fused(alpha=0.8)
    iterates, converged = power_walk(fused, tol=1e-12, max_iters=10000)
    assert converged
    deltas = np.abs(np.diff(np.array(iterates), axis=0)).sum(axis=1)
    nz = deltas > 0
    assert np.all(deltas[1:][nz[1:]] <= 0.8 * deltas[:-1][nz[1:]] + 1e-15)


def test_random_walk_uniform_restart_on_doubly_stochastic_chain_stays_uniform():
    g = _graph([-1, 1, 2, 3], [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                               (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    fused = transition_and_restart(fuse([g]), alpha=0.85)
    fused.restart = np.full(4, 0.25)
    scores = random_walk(fused, tol=1e-12, max_iters=100)
    assert scores.converged
    assert scores.iterations == 1
    np.testing.assert_allclose(scores.r, 0.25, atol=1e-15)


def test_random_walk_requires_transition():
    g = _graph([-1, 1], [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        random_walk(fuse([g]))


def _certificate(fused, r):
    """||(1 - alpha) restart - (I - alpha P^T) r||_1 / (1 - alpha), P materialised."""
    a = np.eye(len(r)) - fused.alpha * fused.transition.toarray().T
    return np.abs((1.0 - fused.alpha) * fused.restart - a @ r).sum() / (1.0 - fused.alpha)


def _operator_certificate(fused, r):
    """The same bound formed as the walk forms it, through fused.rmatvec."""
    pt_r = fused.rmatvec(fused.inv_degree * r)
    if fused.dangling.any():
        pt_r += r[fused.dangling].sum() / len(r)
    res = (1.0 - fused.alpha) * fused.restart - r + fused.alpha * pt_r
    return float(np.abs(res).sum()) / (1.0 - fused.alpha)


def _random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    weights = np.triu(rng.random((n, n)), 1) * np.triu(rng.random((n, n)) < density, 1)
    return CandidateGraph(table_id=0, vertices=np.arange(-1, n - 1),
                          edges=sp.csr_matrix(weights + weights.T))


def test_random_walk_single_vertex_certifies_at_once():
    g = CandidateGraph(table_id=0, vertices=[-1], edges=sp.csr_matrix((1, 1)))
    fused = transition_and_restart(fuse([g]), alpha=0.85)
    walk = random_walk(fused, tol=1e-12)
    assert walk.converged and walk.iterations == 1
    assert walk.residual <= 1e-15
    np.testing.assert_array_equal(walk.r, [1.0])


def test_random_walk_on_an_all_dangling_graph_breaks_down_to_the_exact_solve():
    # P^T x is sum(x) / nv everywhere: the dangling closed form solves every
    # vertex, so the first measurement certifies it and no CG step is taken.
    g = CandidateGraph(table_id=0, vertices=[-1, 3, 5, 8], edges=sp.csr_matrix((4, 4)))
    fused = transition_and_restart(fuse([g]), alpha=0.85)
    assert fused.dangling.all()
    walk = random_walk(fused, tol=1e-14)
    assert walk.converged and walk.iterations <= 4
    closed = closed_form_rank(fused).r
    np.testing.assert_allclose(walk.r, 0.15 * fused.restart + 0.85 / 4, rtol=1e-14)
    assert np.abs(walk.r - closed).sum() <= walk.residual + 1e-15


@pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 8, 1000])
def test_random_walk_certificate_bounds_the_error_within_the_cap(max_iters):
    fused = transition_and_restart(fuse([_random_graph(90, 0.2, 7)]), alpha=0.85)
    walk = random_walk(fused, tol=1e-12, max_iters=max_iters)
    assert 1 <= walk.iterations <= max_iters
    assert walk.converged == (max_iters == 1000)
    if walk.converged:
        # At a residual of about 1e-13 the two l1 sums differ in their last
        # bits; the walk's own is checked exactly, P's against tol.
        assert walk.residual == _operator_certificate(fused, walk.r)
        assert _certificate(fused, walk.r) <= 1e-12
    else:
        assert walk.residual == pytest.approx(_certificate(fused, walk.r), rel=1e-6, abs=1e-16)
    assert np.abs(walk.r - closed_form_rank(fused).r).sum() <= walk.residual + 1e-15


def test_random_walk_solves_dangling_vertices_in_closed_form():
    # One graph with edges and four dangling vertices; and two tables, the
    # first leaving vertex 3 without edges, which the second gives one, and
    # the second leaving 9 and 10 without edges, which no table gives one.
    one = _graph([-1, 1, 2, 3, 4, 5, 6, 7], [(0, 1, 0.5), (1, 2, 1.5), (0, 3, 0.25)])
    g1 = _graph([-1, 1, 2, 3], [(0, 1, 0.5), (1, 2, 0.25)])
    g2 = _graph([-1, 3, 9, 10, 11], [(0, 1, 0.75), (0, 4, 0.5)])
    for graphs, dangling in (([one], [4, 5, 6, 7]), ([g1, g2], [9, 10])):
        fused = transition_and_restart(fuse(graphs), alpha=0.85)
        at = np.isin(fused.vertices, dangling)
        np.testing.assert_array_equal(fused.dangling, at)
        walk = random_walk(fused, tol=1e-13)
        assert walk.converged
        assert np.abs(walk.r - closed_form_rank(fused).r).sum() <= walk.residual + 1e-15
        assert len(set(walk.r[at].tolist())) == 1
        assert abs(walk.r.sum() - 1.0) <= 1e-12


def test_candidate_graph_rejects_asymmetric_negative_and_mis_sized_edges():
    # The walk's solver and its dangling closed form need omega = omega^T >= 0.
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    bad = {"symmetric": np.array([[0.0, 1.0], [0.5, 0.0]]),
           "nonnegative": -good,
           "3 x 3": np.zeros((3, 3))}
    for what, edges in bad.items():
        with pytest.raises(ValueError, match=f"graph 7: .*{what}"):
            CandidateGraph(table_id=7, vertices=[-1, 4], edges=sp.csr_matrix(edges))
    CandidateGraph(table_id=7, vertices=[-1, 4], edges=sp.csr_matrix(good))


@pytest.mark.parametrize("n", [97, 563, 1601, 1602])
def test_random_walk_gives_twin_vertices_bitwise_equal_scores_anywhere(n):
    # Rows with one embedding have equal rows and columns in omega. Every
    # vector the solve forms must compute their entries alike, also at the
    # end of the vector, where BLAS kernels finish with a different code path.
    rng = np.random.default_rng(n)
    idx = np.array([rng.choice(300, size=4, replace=False) for _ in range(n)], dtype=np.int32)
    vals = rng.random((n, 4))
    vals /= vals.sum(axis=1, keepdims=True)
    twins = [1, n // 2, n - 3, n - 2, n - 1]
    idx[twins], vals[twins] = idx[1], vals[1]
    sim, _ = candidate_similarity(SparseEmbedding(indices=idx, values=vals), n_anchors=300)
    g = CandidateGraph(table_id=0, vertices=np.arange(-1, n - 1), edges=sim)
    walk = random_walk(transition_and_restart(fuse([g])), tol=1e-12)
    assert walk.converged
    assert len(set(walk.r[twins].tolist())) == 1


def test_random_walk_tolerance_below_rounding_stops_unconverged_before_the_cap():
    ds, split, idx = _two_view_index()
    params = QsrfParams(top_n=60, walk_tol=1e-300, query=QueryParams(n_landmarks=10))
    res = qsrf_search(idx, [v.data[split.query[2]] for v in ds.views], params)
    small = transition_and_restart(fuse([_random_graph(12, 0.4, 3)]), alpha=0.85)
    for fused, walk in ((res.fused, res.walk), (small, random_walk(small, tol=1e-300))):
        assert not walk.converged
        assert np.isfinite(walk.residual) and 0.0 < walk.residual < 1e-13
        assert walk.iterations < params.walk_max_iters // 4
        assert np.abs(walk.r - closed_form_rank(fused).r).sum() <= walk.residual + 1e-15


# -------------------------------------------------------------- closed form


def test_closed_form_identity_chain_returns_restart():
    fused = FusedGraph(vertices=np.array([-1, 0, 1]),
                       parts=[(np.arange(3), sp.csr_matrix((3, 3)))])
    fused.transition = sp.identity(3, format="csr")
    fused.restart = np.array([0.5, 0.25, 0.25])
    fused.alpha = 0.5
    scores = closed_form_rank(fused)
    np.testing.assert_allclose(scores.r, fused.restart, rtol=1e-14)
    assert scores.r.sum() == pytest.approx(1.0, abs=1e-10)


def test_closed_form_matches_walk_on_random_graphs():
    rng = np.random.default_rng(17)
    for n in (5, 37, 120):
        mask = np.triu(rng.random((n, n)) < 0.3, 1)
        weights = np.triu(rng.random((n, n)), 1) * mask
        g = CandidateGraph(table_id=0, vertices=np.arange(-1, n - 1),
                           edges=sp.csr_matrix(weights + weights.T))
        fused = transition_and_restart(fuse([g]), alpha=0.85)
        walk = random_walk(fused, tol=1e-13, max_iters=200000)
        closed = closed_form_rank(fused)
        assert walk.converged
        assert np.abs(walk.r - closed.r).max() < 1e-8
        assert closed.r.sum() == pytest.approx(1.0, abs=1e-10)


def test_closed_form_requires_transition():
    g = _graph([-1, 1], [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        closed_form_rank(fuse([g]))


# --------------------------------------------------------------------- qsrf


def test_duplicate_graph_fusion_leaves_walk_scores_unchanged():
    # Superposing a graph with itself doubles every edge weight; dyadic
    # weights make the row normalization cancel exactly, so the walk is
    # bit-for-bit identical.
    g = _graph([-1, 2, 7, 9], [(0, 1, 0.375), (1, 2, 0.125), (2, 3, 0.5)])
    r_once = random_walk(transition_and_restart(fuse([g]), alpha=0.85),
                         tol=1e-12, max_iters=10000).r
    r_twice = random_walk(transition_and_restart(fuse([g, g]), alpha=0.85),
                          tol=1e-12, max_iters=10000).r
    np.testing.assert_array_equal(r_once, r_twice)


def test_qsrf_search_single_table_returns_candidate_permutation():
    ds = gen_synthetic(n_clusters=4, per_cluster=50, n_views=1, dim=16,
                       noise=0.5, seed=13)
    split = make_split(ds.n, n_train=80, n_query=20, seed=13)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=40, s_nn=3,
                     seed=13)
    params = QsrfParams(top_n=25, query=QueryParams(n_landmarks=10))
    res = qsrf_search(idx, [ds.views[0].data[split.query[0]]], params)
    assert set(res.ids.tolist()) == set(res.per_table[0].ids.tolist())
    assert QUERY_VERTEX not in res.ids


def test_qsrf_search_two_views_structure():
    ds, split, idx = _two_view_index()
    qid = split.query[0]
    params = QsrfParams(top_n=30, query=QueryParams(n_landmarks=10))
    res = qsrf_search(idx, [v.data[qid] for v in ds.views], params)

    assert QUERY_VERTEX not in res.ids
    assert len(np.unique(res.ids)) == len(res.ids)
    union = set(res.per_table[0].ids.tolist()) | set(res.per_table[1].ids.tolist())
    assert set(res.ids.tolist()) == union
    assert len(res.ids) == len(res.fused.vertices) - 1
    assert np.all(np.diff(res.scores) <= 0)
    # Ranking is the walk's scores with ties broken by ascending id.
    keep = res.fused.vertices != QUERY_VERTEX
    ids = res.fused.vertices[keep]
    scores = res.walk.r[keep]
    order = np.lexsort((ids, -scores))
    np.testing.assert_array_equal(res.ids, ids[order])
    np.testing.assert_array_equal(res.scores, scores[order])


def test_qsrf_search_ties_identical_candidates_by_ascending_id():
    # Every item appears three times, so the database holds groups of items
    # whose codes are identical in every view; with top_n above the database
    # size all of them are candidates. Each group must score bitwise-equal
    # and come out in ascending id order.
    base = gen_synthetic(n_clusters=4, per_cluster=40, n_views=2, dim=16,
                         noise=0.5, seed=3)
    rep = np.repeat(np.arange(base.n), 3)
    ds = MultiViewDataset(views=[VectorView(v.name, v.data[rep]) for v in base.views],
                          labels=np.asarray(base.labels)[rep])
    split = make_split(ds.n, n_train=60, n_query=10, seed=3)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=40, s_nn=3, seed=3)
    params = QsrfParams(top_n=1000, query=QueryParams(n_landmarks=10))
    codes = np.hstack([t.codes.words for t in idx.tables])
    _, group_of = np.unique(codes, axis=0, return_inverse=True)
    groups = [np.sort(idx.tables[0].db_ids[group_of.ravel() == g])
              for g in np.unique(group_of)]
    groups = [g for g in groups if len(g) > 1]
    assert groups
    for qid in split.query:
        res = qsrf_search(idx, [v.data[qid] for v in ds.views], params)
        rank = {int(i): p for p, i in enumerate(res.ids)}
        for members in groups:
            pos = [rank[int(i)] for i in members]
            assert len(set(res.scores[pos].tolist())) == 1, members
            assert np.all(np.diff(pos) > 0), members


def test_qsrf_search_walks_the_materialised_graph():
    ds, split, idx = _two_view_index()
    params = QsrfParams(top_n=60, query=QueryParams(n_landmarks=10))
    res = qsrf_search(idx, [v.data[split.query[1]] for v in ds.views], params)
    fused = res.fused
    y = np.random.default_rng(2).random(len(fused.vertices))
    np.testing.assert_allclose(fused.rmatvec(y), fused.omega.T @ y, rtol=1e-12)
    rowsum = np.asarray(fused.omega.sum(axis=1)).ravel()
    np.testing.assert_array_equal(fused.dangling, rowsum <= 0.0)
    bound = params.alpha / (1.0 - params.alpha) * params.walk_tol
    assert np.abs(res.walk.r - closed_form_rank(fused).r).sum() <= bound


def test_qsrf_order_matches_the_exact_walk_outside_certified_near_ties():
    # |r_i - r*_i| <= walk.residual, so two candidates whose exact scores are
    # more than 2 * residual apart keep their exact order; only chains of
    # closer scores may reorder.
    ds, split, idx = _two_view_index()
    params = QsrfParams(top_n=60, query=QueryParams(n_landmarks=10))
    for qid in split.query[:8]:
        res = qsrf_search(idx, [v.data[qid] for v in ds.views], params)
        assert res.walk.converged and res.walk.residual <= params.walk_tol
        keep = res.fused.vertices != QUERY_VERTEX
        ids, exact = res.fused.vertices[keep], closed_form_rank(res.fused).r[keep]
        order = np.lexsort((ids, -exact))
        group = np.concatenate(([0], np.cumsum(-np.diff(exact[order]) > 2 * res.walk.residual)))
        group_of = dict(zip(ids[order].tolist(), group.tolist()))
        np.testing.assert_array_equal([group_of[i] for i in res.ids.tolist()], group)


def test_qsrf_search_rejects_view_count_mismatch():
    ds, split, idx = _two_view_index()
    with pytest.raises(ValueError):
        qsrf_search(idx, [ds.views[0].data[split.query[0]]])


def test_fusing_deeper_rankings_equals_qsrf_search():
    # eval ranks each view once at its full depth and fuses those rankings;
    # fuse_rankings cuts them to top_n, so the result must equal qsrf_search.
    ds, split, idx = _two_view_index()
    params = QsrfParams(top_n=30, query=QueryParams(n_landmarks=10))
    for qid in split.query[:5]:
        views = [v.data[qid] for v in ds.views]
        deep = [qrank_query(t, x, params.query, top_n=75) for t, x in zip(idx.tables, views)]
        assert all(len(res.ids) == 75 for res in deep)
        fused = fuse_rankings(idx.tables, deep, params)
        ref = qsrf_search(idx, views, params)
        np.testing.assert_array_equal(fused.ids, ref.ids)
        assert fused.scores.tobytes() == ref.scores.tobytes()
        for got, want in zip(fused.per_table, ref.per_table):
            np.testing.assert_array_equal(got.ids, want.ids)
            assert got.distances.tobytes() == want.distances.tobytes()
    with pytest.raises(ValueError):
        fuse_rankings(idx.tables, deep[:1], params)


def test_fuse_rankings_rejects_top_n_below_one():
    # a negative top_n would cut the last candidates off each ranking, and 0 all of them
    ds, split, idx = _two_view_index()
    views = [v.data[split.query[0]] for v in ds.views]
    deep = [qrank_query(t, x, QueryParams(n_landmarks=10), top_n=20)
            for t, x in zip(idx.tables, views)]
    for top_n in (0, -1):
        with pytest.raises(ValueError, match=f"top_n must be >= 1, got {top_n}"):
            fuse_rankings(idx.tables, deep, QsrfParams(top_n=top_n))
