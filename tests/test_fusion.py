"""Tests for candidate graphs, superposition, and the restart walk."""

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
    make_split,
    pack_bits,
    qrank_query,
    qsrf_search,
    random_walk,
    transition_and_restart,
    unpack_bits,
)
from mvhash.anchors import SparseEmbedding
from mvhash.fusion import QUERY_VERTEX, CandidateGraph, FusedGraph


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


def _argsort_embedding(cand, anchors, w, s_nn):
    """Reference: the same distances, then a stable full argsort per row."""
    cb = unpack_bits(cand).astype(np.float64)
    ab = unpack_bits(anchors).astype(np.float64)
    d = (cb * w) @ (1.0 - ab).T + ((1.0 - cb) * w) @ ab.T
    order = np.argsort(d, axis=1, kind="stable")[:, :s_nn]
    kept = np.take_along_axis(d, order, axis=1)
    vals = np.maximum(np.exp(-(kept - kept[:, :1]) / w.sum()), 1e-300)
    return order, vals / vals.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(1, 70), n_anchors=st.integers(1, 40), s_nn_frac=st.floats(0, 1),
       integer_weights=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_candidate_embedding_matches_stable_argsort(bits, n_anchors, s_nn_frac,
                                                    integer_weights, seed):
    # Few bits, many anchors and integer weights force exact distance ties,
    # also at the s_nn boundary, where the lower anchor id must win.
    rng = np.random.default_rng(seed)
    s_nn = 1 + int(s_nn_frac * (n_anchors - 1))
    anchors = pack_bits(rng.integers(0, 2, size=(n_anchors, bits)).astype(np.uint8))
    cand = pack_bits(rng.integers(0, 2, size=(15, bits)).astype(np.uint8))
    w = (rng.integers(1, 4, size=bits).astype(np.float64) if integer_weights
         else rng.random(bits) + 0.05)
    z = candidate_embedding(cand.words, anchors, bits=bits, wstar=w, s_nn=s_nn)
    ref_idx, ref_vals = _argsort_embedding(cand, anchors, w, s_nn)
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
    y = rng.random(n)
    np.testing.assert_allclose(s @ y, s.tocsr() @ y, rtol=1e-13)
    assert s.shape == (n, n)


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
    assert graph.edges.shape == (26, 26)
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
                          omega=sp.csr_matrix(np.array([[0.0, 1.0],
                                                        [1.0, 0.0]])))
    with pytest.raises(ValueError):
        transition_and_restart(no_query, alpha=0.85)


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
    scores = random_walk(fused, tol=1e-12, max_iters=5000,
                         record_history=True)
    assert scores.converged
    assert len(scores.history) == scores.iterations + 1
    for r in scores.history:
        assert np.all(r >= 0)
        assert r.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_walk_step_deltas_contract_geometrically():
    fused = _two_vertex_fused(alpha=0.8)
    scores = random_walk(fused, tol=1e-12, max_iters=10000,
                         record_history=True)
    hist = np.array(scores.history)
    deltas = np.abs(np.diff(hist, axis=0)).sum(axis=1)
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


# -------------------------------------------------------------- closed form


def test_closed_form_identity_chain_returns_restart():
    fused = FusedGraph(vertices=np.array([-1, 0, 1]),
                       omega=sp.csr_matrix((3, 3)))
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


def test_qsrf_search_rejects_view_count_mismatch():
    ds, split, idx = _two_view_index()
    with pytest.raises(ValueError):
        qsrf_search(idx, [ds.views[0].data[split.query[0]]])
