"""Bitwise mutual information, independence matrix, raw weights, replicator
calibration, weighted Hamming ranking."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mvhash.qrank as qrank_module
from mvhash.anchors import build_anchors
from mvhash.dataset import gen_synthetic, make_split
from mvhash.fusion import QsrfParams, qsrf_search
from mvhash.hashing import HashModel, encode_one, hamming_scan, pack_bits, train, unpack_bits
from mvhash.index import build_index
from mvhash.metrics import brute_force_rank
from mvhash.qrank import (CALIB_BLOCK, HashTable, QueryParams, calibrate, hamming_query,
                          independence_matrix, pairwise_mutual_information, qrank_query,
                          raw_weights, weighted_hamming_scan, weighted_topk)
from references import calibrate_per_step, embed_many, mutual_information


def weighted_hamming(codes, i, query_words, wstar):
    """Test-local per-item reference: w* summed over the set bits of item i XOR
    the query, left to right in ascending bit order (the canonical order).
    Bits are read off the words as Python ints, independently of unpack_bits."""
    x = codes.words[i] ^ np.asarray(query_words, dtype=np.uint64)
    total = 0.0
    for pos in range(codes.bits):
        if int(x[pos // 64]) >> (pos % 64) & 1:
            total += float(wstar[pos])
    return total


def weighted_rank(codes, query_words, wstar, k):
    """Test-local reference: top-k ids by weighted Hamming distance, ties by ascending id."""
    return weighted_topk(codes, query_words, wstar, k)[0]


def mi(codes, i, j):
    """The library's MI of bits i and j, an entry of pairwise_mutual_information,
    after checking it against the cell-by-cell reference."""
    value = pairwise_mutual_information(unpack_bits(codes))[i, j]
    assert value == pytest.approx(mutual_information(codes, i, j), abs=1e-12)
    return value


def _codes_from_columns(*cols):
    return pack_bits(np.stack(cols, axis=1).astype(np.uint8))


def test_mi_of_bit_with_itself_is_entropy_of_fair_bit():
    n = 10000
    bit = np.concatenate([np.ones(n // 2), np.zeros(n // 2)]).astype(np.uint8)
    codes = _codes_from_columns(bit, bit)
    assert mi(codes, 0, 0) == pytest.approx(np.log(2), abs=1e-3)


def test_mi_independent_bits_zero():
    # joint counts exactly n/4 each: the smoothed table stays uniform, MI = 0
    a = np.array([1, 1, 0, 0], dtype=np.uint8).repeat(2500)
    b = np.tile(np.array([1, 0], dtype=np.uint8), 5000)
    codes = _codes_from_columns(a, b)
    assert mi(codes, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_mi_complementary_bits_full_information():
    n = 10000
    a = np.concatenate([np.ones(n // 2), np.zeros(n // 2)]).astype(np.uint8)
    codes = _codes_from_columns(a, 1 - a)
    assert mi(codes, 0, 1) == pytest.approx(np.log(2), abs=1e-3)


def test_mi_exactly_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    bits = (rng.random(size=(400, 10)) < rng.random(10)).astype(np.uint8)
    codes = pack_bits(bits)
    for _ in range(40):
        i, j = (int(v) for v in rng.integers(0, 10, size=2))
        mij = mi(codes, i, j)
        assert mij == mi(codes, j, i)  # exact, not approx
        assert mij >= 0
        hi = mi(codes, i, i)
        hj = mi(codes, j, j)
        assert mij <= min(hi, hj) + 1e-12


def test_pairwise_mi_matches_scalar():
    rng = np.random.default_rng(1)
    bits = (rng.random(size=(300, 8)) < 0.5).astype(np.uint8)
    codes = pack_bits(bits)
    table = pairwise_mutual_information(bits)
    for i in range(8):
        for j in range(8):
            assert table[i, j] == pytest.approx(
                mutual_information(codes, i, j), abs=1e-12)


def test_independence_matrix_ranges_and_diagonal():
    rng = np.random.default_rng(2)
    bits = (rng.random(size=(500, 12)) < 0.5).astype(np.uint8)
    indep = independence_matrix(pack_bits(bits), lam=1.0)
    a = indep.a
    np.testing.assert_array_equal(np.diag(a), np.zeros(12))
    off = a[~np.eye(12, dtype=bool)]
    assert np.all(off > 0)
    assert np.all(off <= 1.0)
    np.testing.assert_array_equal(a, a.T)


def test_independence_matrix_independent_bits_give_one():
    a = np.array([1, 1, 0, 0], dtype=np.uint8).repeat(25)
    b = np.tile(np.array([1, 0], dtype=np.uint8), 50)
    indep = independence_matrix(_codes_from_columns(a, b), lam=1.0)
    assert indep.a[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_independence_matrix_correlated_bits_give_half():
    n = 10000
    a = np.concatenate([np.ones(n // 2), np.zeros(n // 2)]).astype(np.uint8)
    indep = independence_matrix(_codes_from_columns(a, a), lam=1.0)
    assert indep.a[0, 1] == pytest.approx(0.5, abs=1e-3)


def test_independence_matrix_rejects_bad_lambda():
    bits = np.zeros((10, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        independence_matrix(pack_bits(bits), lam=0.0)


def _controlled_anchor_setup(agree_mask, n_anchors=6, dim=4, seed=0):
    """Anchor model whose anchor codes agree with the query on exactly the
    masked bits; the query sits at the data mean so its own code is all ones."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(50, dim))
    hm = train("lsh", data, len(agree_mask), seed=seed)
    model = build_anchors(data, n_anchors, s_nn=2, seed=seed, hash_model=hm)
    query = data[7]
    q_bits = np.unpackbits(
        encode_one(hm, query).view(np.uint8), bitorder="little")[: len(agree_mask)]
    anchor_bits = np.where(agree_mask, q_bits, 1 - q_bits)
    forced = np.tile(anchor_bits, (n_anchors, 1)).astype(np.uint8)
    object.__setattr__(model, "anchor_codes", pack_bits(forced))
    return hm, model, query


def test_raw_weights_unanimous_agreement_and_disagreement():
    agree = np.array([True, False, True])
    hm, model, query = _controlled_anchor_setup(agree)
    w = raw_weights(hm, model, query, gamma=1.0, n_landmarks=4)
    np.testing.assert_allclose(w[agree], np.e, rtol=1e-12)
    np.testing.assert_allclose(w[~agree], np.exp(-1.0), rtol=1e-12)


def test_raw_weights_gamma_scales_exponent():
    agree = np.array([True, False])
    hm, model, query = _controlled_anchor_setup(agree)
    w = raw_weights(hm, model, query, gamma=2.5, n_landmarks=3)
    np.testing.assert_allclose(w, [np.exp(2.5), np.exp(-2.5)], rtol=1e-12)


def test_raw_weights_balanced_mass_gives_one():
    # two anchors mirrored around the query get equal profile weight; one
    # agrees and one disagrees on the single bit, so the exponent cancels
    from mvhash.anchors import AnchorModel, SparseEmbedding
    anchors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    hm = train("lsh", np.vstack([anchors, np.zeros((4, 2))]), 1, seed=3)
    emb = embed_many(
        AnchorModel(anchors=anchors, kernel_bandwidth=1.0, s_nn=2, sigma=1.0,
                    landmark_embeddings=SparseEmbedding(
                        indices=np.zeros((2, 2), dtype=np.int32),
                        values=np.full((2, 2), 0.5))),
        anchors)
    query = np.zeros(2)
    q_bit = np.unpackbits(encode_one(hm, query).view(np.uint8),
                          bitorder="little")[0]
    codes = pack_bits(np.array([[q_bit], [1 - q_bit]], dtype=np.uint8))
    model = AnchorModel(anchors=anchors, kernel_bandwidth=1.0, s_nn=2,
                        sigma=1.0, landmark_embeddings=emb, anchor_codes=codes)
    w = raw_weights(hm, model, query, gamma=1.0, n_landmarks=2)
    assert w[0] == pytest.approx(1.0, abs=1e-12)


def test_raw_weights_rejects_negative_gamma():
    agree = np.array([True])
    hm, model, query = _controlled_anchor_setup(agree)
    with pytest.raises(ValueError):
        raw_weights(hm, model, query, gamma=-0.5)


def test_calibrate_two_bit_symmetric_fixed_point():
    res = calibrate(np.ones(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(res.pi, [0.5, 0.5], atol=1e-12)


def test_calibrate_three_bit_frozen_fixed_point():
    m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    res = calibrate(np.ones(3), m, tol=1e-12)
    np.testing.assert_allclose(res.pi, [0.5, 0.25, 0.25], atol=1e-6)
    assert res.converged


def test_calibrate_simplex_and_objective_invariants():
    rng = np.random.default_rng(4)
    for trial in range(20):
        b = int(rng.integers(3, 24))
        a = rng.random((b, b))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        w = rng.random(b) + 0.1
        # Dense random matrices have near-interior fixed points whose
        # contraction rate scales like 1 - c / b, so the step norm can
        # need a few thousand iterations to fall below the tolerance.
        # Pass an explicit budget; the default cap is a latency bound.
        res = calibrate(w, a, max_iters=30000, record_iterates=True)
        for pi in res.iterates:
            assert np.all(pi >= 0)
            assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        objectives = np.asarray(res.objectives)
        assert np.all(np.diff(objectives) >= -1e-12)
        assert res.converged
        np.testing.assert_allclose(res.calibrated,
                                   np.maximum(w * res.pi, 1e-12), rtol=1e-15)


def test_calibrate_zero_matrix_returns_uniform_with_warning():
    with pytest.warns(RuntimeWarning):
        res = calibrate(np.ones(4), np.zeros((4, 4)))
    np.testing.assert_allclose(res.pi, 0.25)


def test_calibrate_memory_does_not_grow_with_max_iters():
    tracemalloc.start()
    try:
        res = calibrate(np.ones(2), np.array([[0.0, 1.0], [1.0, 0.0]]), max_iters=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < 1 << 20


def _assert_same_calibration(got, want):
    assert got.pi.tobytes() == want.pi.tobytes()
    assert got.calibrated.tobytes() == want.calibrated.tobytes()
    assert np.array(got.objectives).tobytes() == np.array(want.objectives).tobytes()
    assert all(type(obj) is float for obj in got.objectives)
    assert (got.iterations, got.converged) == (want.iterations, want.converged)
    if want.iterates is None:
        assert got.iterates is None
    else:
        assert [pi.tobytes() for pi in got.iterates] == [pi.tobytes() for pi in want.iterates]


def _random_instance(rng, b, spread=1.0, density=1.0):
    """Raw weights and a symmetric, zero-diagonal independence matrix; with
    density < 1 some pairs are 0, so pi can run off to a face of the simplex."""
    a = np.exp(-spread * rng.random((b, b))) * (rng.random((b, b)) < density)
    a = np.triu(a, 1)
    return np.exp(spread * rng.uniform(-1.0, 1.0, b)), a + a.T


def _tol_stopping_at(w, a, step):
    """A tol that stops the per-step loop at `step` if that step's l1 change is
    below every earlier one (else at the first later step that is)."""
    ref = calibrate_per_step(w, a, tol=0.0, max_iters=step, record_iterates=True)
    deltas = [float(np.abs(new - old).sum()) for old, new in zip(ref.iterates, ref.iterates[1:])]
    return min(deltas[:step - 1], default=3.0)  # an l1 change on the simplex is at most 2


@pytest.mark.parametrize("step", [1, 7, CALIB_BLOCK - 1, CALIB_BLOCK, CALIB_BLOCK + 1,
                                  2 * CALIB_BLOCK])
def test_calibrate_stops_on_the_per_step_loops_step(step):
    w, a = _random_instance(np.random.default_rng(0), 48)
    tol = _tol_stopping_at(w, a, step)
    res = calibrate(w, a, tol=tol, max_iters=1000, record_iterates=True)
    assert res.converged and res.iterations == step
    _assert_same_calibration(res, calibrate_per_step(w, a, tol=tol, max_iters=1000,
                                                     record_iterates=True))


@st.composite
def _calibration_cases(draw):
    b = draw(st.sampled_from([2, 3, 31, 48, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w, a = _random_instance(rng, b, spread=draw(st.sampled_from([0.1, 1.0, 4.0])),
                            density=draw(st.sampled_from([1.0, 0.5, 0.1])))
    max_iters = draw(st.sampled_from([0, 1, CALIB_BLOCK - 1, CALIB_BLOCK, CALIB_BLOCK + 1, 1000]))
    stop = draw(st.sampled_from(["default", "never", "inside", "block end"]))
    if stop == "default":
        tol = 1e-8
    elif stop == "never":
        tol = 0.0
    else:
        blocks = range(CALIB_BLOCK, 3 * CALIB_BLOCK + 1, CALIB_BLOCK)
        inside = [s for s in range(1, 3 * CALIB_BLOCK) if s % CALIB_BLOCK]
        tol = _tol_stopping_at(w, a, draw(st.sampled_from(blocks if stop == "block end"
                                                          else inside)))
    return w, a, tol, max_iters, draw(st.booleans())


@pytest.mark.filterwarnings("ignore:calibration objective is zero")
@settings(max_examples=100, deadline=None)
@given(_calibration_cases())
def test_calibrate_equals_the_per_step_loop_bit_for_bit(case):
    w, a, tol, max_iters, record = case
    _assert_same_calibration(
        calibrate(w, a, tol=tol, max_iters=max_iters, record_iterates=record),
        calibrate_per_step(w, a, tol=tol, max_iters=max_iters, record_iterates=record))


def test_weighted_hamming_single_differing_bit():
    codes = pack_bits(np.array([[1, 1, 0], [1, 0, 0]], dtype=np.uint8))
    w = np.array([0.5, 0.3, 0.2])
    assert weighted_hamming(codes, 1, codes.words[0], w) == pytest.approx(0.3)
    assert weighted_hamming_scan(codes, codes.words[0], w).tolist() == [0.0, 0.3]


def test_weighted_hamming_uniform_weights_reduce_to_hamming():
    rng = np.random.default_rng(5)
    bits = (rng.random(size=(30, 17)) < 0.5).astype(np.uint8)
    codes = pack_bits(bits)
    w = np.full(17, 0.25)
    scan = weighted_hamming_scan(codes, codes.words[3], w)
    hamming = hamming_scan(codes, codes.words[3])
    for i in range(30):
        d = weighted_hamming(codes, i, codes.words[3], w)
        assert d == pytest.approx(0.25 * hamming[i], abs=1e-12)
        assert scan[i] == d


def test_weighted_hamming_ones_equal_integer_hamming_exactly():
    rng = np.random.default_rng(6)
    bits = (rng.random(size=(25, 21)) < 0.5).astype(np.uint8)
    codes = pack_bits(bits)
    w = np.ones(21)
    scan = weighted_hamming_scan(codes, codes.words[0], w)
    hamming = hamming_scan(codes, codes.words[0])
    for i in range(25):
        assert weighted_hamming(codes, i, codes.words[0], w) == float(hamming[i])
        assert scan[i] == float(hamming[i])


def test_weighted_scan_matches_per_item_definition():
    rng = np.random.default_rng(7)
    bits = (rng.random(size=(120, 33)) < 0.5).astype(np.uint8)
    codes = pack_bits(bits)
    w = rng.random(33)
    q = codes.words[11]
    scan = weighted_hamming_scan(codes, q, w)
    for i in range(120):
        assert scan[i] == weighted_hamming(codes, i, q, w)  # bitwise equal


def test_weighted_distance_invariant_under_bit_permutation():
    rng = np.random.default_rng(8)
    bits = (rng.random(size=(40, 19)) < 0.5).astype(np.uint8)
    w = rng.random(19)
    perm = rng.permutation(19)
    codes = pack_bits(bits)
    codes_p = pack_bits(bits[:, perm])
    scan = weighted_hamming_scan(codes, codes.words[2], w)
    scan_p = weighted_hamming_scan(codes_p, codes_p.words[2], w[perm])
    for i in range(0, 40, 5):
        d = weighted_hamming(codes, i, codes.words[2], w)
        d_p = weighted_hamming(codes_p, i, codes_p.words[2], w[perm])
        assert d_p == pytest.approx(d, rel=1e-12, abs=1e-15)
        assert scan_p[i] == pytest.approx(scan[i], rel=1e-12, abs=1e-15)


def test_weighted_rank_scaling_weights_keeps_permutation():
    rng = np.random.default_rng(9)
    bits = (rng.random(size=(60, 16)) < 0.5).astype(np.uint8)
    codes = pack_bits(bits)
    w = rng.random(16) + 0.05
    base = weighted_rank(codes, codes.words[0], w, 60)
    for c in (2.0, 0.5, 256.0):  # powers of two scale each addend exactly
        scaled = weighted_rank(codes, codes.words[0], c * w, 60)
        np.testing.assert_array_equal(base, scaled)


def _small_table(seed=0, n_views=1, noise=0.8):
    ds = gen_synthetic(n_clusters=5, per_cluster=60, n_views=n_views, dim=12,
                       noise=noise, seed=seed)
    split = make_split(ds.n, 80, 20, seed=seed)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=40, s_nn=4,
                      seed=seed)
    return ds, split, idx


def test_qrank_query_matches_weighted_oracle():
    ds, split, idx = _small_table(seed=10)
    table = idx.tables[0]
    for q in split.query[:10]:
        x = ds.views[0].data[q]
        res = qrank_query(table, x, QueryParams(gamma=1.0), top_n=50)
        oracle = brute_force_rank(table.codes, res.query_words,
                                  "weighted_hamming", 50,
                                  weights=res.weights.calibrated)
        np.testing.assert_array_equal(res.local_ids, oracle)
        np.testing.assert_array_equal(res.ids, table.db_ids[oracle])


def test_qrank_degenerate_reduction_to_hamming():
    ds, split, idx = _small_table(seed=11)
    table = idx.tables[0]
    params = QueryParams(gamma=0.0, calibrate=False)
    for q in split.query:
        x = ds.views[0].data[q]
        res = qrank_query(table, x, params, top_n=idx.tables[0].codes.n)
        ids, dists = hamming_query(table, x, top_n=idx.tables[0].codes.n)
        np.testing.assert_array_equal(res.ids, ids)
        np.testing.assert_array_equal(res.distances, dists.astype(np.float64))
        np.testing.assert_array_equal(res.weights.raw, np.ones(16))


def test_qrank_distances_sorted_with_id_tiebreak():
    ds, split, idx = _small_table(seed=12)
    table = idx.tables[0]
    res = qrank_query(table, ds.views[0].data[split.query[0]],
                      QueryParams(), top_n=100)
    d = res.distances
    assert np.all(np.diff(d) >= 0)
    ties = np.flatnonzero(np.diff(d) == 0)
    for t in ties:
        assert res.local_ids[t] < res.local_ids[t + 1]


def test_qrank_top_n_clamped_to_database():
    ds, split, idx = _small_table(seed=13)
    res = qrank_query(idx.tables[0], ds.views[0].data[split.query[0]],
                      QueryParams(), top_n=10**6)
    assert len(res.ids) == idx.tables[0].codes.n
    np.testing.assert_array_equal(np.sort(res.local_ids),
                                  np.arange(idx.tables[0].codes.n))


def test_top_n_below_one_is_rejected():
    ds, split, idx = _small_table(seed=14, n_views=2)
    table = idx.tables[0]
    views = [v.data[split.query[0]] for v in ds.views]
    for top_n in (0, -1):
        with pytest.raises(ValueError, match="top_n"):
            hamming_query(table, views[0], top_n=top_n)
        with pytest.raises(ValueError, match="top_n"):
            qrank_query(table, views[0], QueryParams(), top_n=top_n)
        with pytest.raises(ValueError, match="top_n"):
            qsrf_search(idx, views, QsrfParams(top_n=top_n))


def _identity_table(bits01: np.ndarray) -> HashTable:
    """A table whose hash model maps x to the bits of x >= 0, so the query
    vector 2 * bits - 1 encodes to exactly those bits. Weights come from the
    caller (raw_weights is patched), so no anchors or independence are needed."""
    n, b = bits01.shape
    model = HashModel(family="lsh", mean=np.zeros(b), projection=np.eye(b), rotation=np.eye(b))
    return HashTable(name="t", hash_model=model, codes=pack_bits(bits01),
                     db_ids=3 * np.arange(n, dtype=np.int64) + 7,
                     anchor_model=None, independence=None)


@st.composite
def _ranking_cases(draw):
    """Codes drawn from a pool of at most 4 distinct rows, so many duplicates
    share the k-th distance, and w* spanning 1e-12..1e3. Random draws rarely
    round a screened distance across the k-th one; the margin test below
    builds that case by hand."""
    bits = draw(st.sampled_from([1, 63, 64, 65, 128]))
    n = draw(st.integers(2, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.random((draw(st.integers(1, 4)), bits)) < 0.5
    rows = pool[rng.integers(0, len(pool), n)].astype(np.uint8)
    query = pool[0] if draw(st.booleans()) else rng.random(bits) < 0.5
    weight = st.sampled_from([1e-12, 1.0, 1e3]) | st.floats(1e-12, 1e3)
    wstar = np.array(draw(st.lists(weight, min_size=bits, max_size=bits)))
    top_n = draw(st.sampled_from([1, n - 1, n, n + 5]))
    return rows, query.astype(np.float64), wstar, top_n


@settings(max_examples=200, deadline=None)
@given(_ranking_cases())
def test_topk_paths_match_oracle_and_full_stable_argsort(case):
    rows, query_bits, wstar, top_n = case
    table = _identity_table(rows)
    query = 2.0 * query_bits - 1.0
    k = min(top_n, len(rows))

    with mock.patch("mvhash.qrank.raw_weights", return_value=wstar):
        res = qrank_query(table, query, QueryParams(calibrate=False), top_n=top_n)
    full = weighted_hamming_scan(table.codes, res.query_words, wstar)
    oracle = brute_force_rank(table.codes, res.query_words, "weighted_hamming", k,
                              weights=wstar)
    np.testing.assert_array_equal(oracle, np.argsort(full, kind="stable")[:k])
    np.testing.assert_array_equal(res.local_ids, oracle)
    np.testing.assert_array_equal(res.ids, table.db_ids[oracle])
    assert res.distances.tobytes() == full[oracle].tobytes()

    ids, dists = hamming_query(table, query, top_n=top_n)
    hfull = hamming_scan(table.codes, res.query_words)
    horacle = brute_force_rank(table.codes, res.query_words, "hamming", k)
    np.testing.assert_array_equal(horacle, np.argsort(hfull, kind="stable")[:k])
    np.testing.assert_array_equal(ids, table.db_ids[horacle])
    np.testing.assert_array_equal(dists, hfull[horacle])


def test_weighted_topk_window_margin_is_needed(monkeypatch):
    # Items 0 and 1 both have the canonical distance 1.0: for item 0,
    # 1 + 2**-53 rounds back to 1, twice. The byte tables first add bits 8
    # and 9 to 2**-52, so item 0 screens at 1 + 2**-52 while item 1 screens
    # at 1. Only the 2 * delta margin keeps item 0, the stable top-1, in the
    # window.
    w = np.ones(16)
    w[8] = w[9] = 2.0 ** -53
    bits = np.zeros((2, 16), dtype=np.uint8)
    bits[:, 0] = 1
    bits[0, [8, 9]] = 1
    codes = pack_bits(bits)
    q = np.zeros(1, dtype=np.uint64)
    np.testing.assert_array_equal(weighted_hamming_scan(codes, q, w), [1.0, 1.0])
    order, dist = weighted_topk(codes, q, w, 1)
    assert order.tolist() == [0] and dist.tolist() == [1.0]

    monkeypatch.setattr(qrank_module, "_screen_delta", lambda wstar, bits: 0.0)
    order, _ = weighted_topk(codes, q, w, 1)
    assert order.tolist() == [1]
