"""Bitwise mutual information, independence matrix, raw weights, calibration,
weighted Hamming ranking."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvhash import hashing, qrank
from mvhash.anchors import build_anchors
from mvhash.dataset import gen_synthetic, make_split
from mvhash.fusion import QsrfParams, qsrf_search
from mvhash.hashing import HashModel, encode_one, hamming_scan, pack_bits, train, unpack_bits
from mvhash.index import build_index
from mvhash.metrics import brute_force_rank
from mvhash.qrank import (WEIGHT_FLOOR, HashTable, IndependenceMatrix, QueryParams, calibrate,
                          dyadic_weights, hamming_query, independence_matrix,
                          pairwise_mutual_information, qrank_query, raw_weights,
                          weighted_hamming_scan, weighted_topk)
from references import calibrate_per_step, mutual_information


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


def test_independence_matrix_checks_its_values():
    # only lambda: independence_matrix makes the entries, never a file
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    for lam in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="lambda must be finite and positive"):
            IndependenceMatrix(a=a, lam=lam)


def test_independence_matrix_caps_entries_at_one():
    # these 26 codes have a pair of bits whose MI rounds to -3.7e-17, so
    # exp(-100 MI) rounds to 1 + 4e-15
    rng = np.random.default_rng(702)
    n = int(rng.integers(2, 200))
    bits = (rng.random((n, 6)) < rng.uniform(0, 1, 6)).astype(np.uint8)
    assert pairwise_mutual_information(bits).min() < 0
    assert independence_matrix(pack_bits(bits), lam=100.0).a.max() == 1.0


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
    from mvhash.anchors import AnchorModel
    anchors = np.array([[1.0, 0.0], [-1.0, 0.0]])
    hm = train("lsh", np.vstack([anchors, np.zeros((4, 2))]), 1, seed=3)
    query = np.zeros(2)
    q_bit = np.unpackbits(encode_one(hm, query).view(np.uint8),
                          bitorder="little")[0]
    codes = pack_bits(np.array([[q_bit], [1 - q_bit]], dtype=np.uint8))
    model = AnchorModel(anchors=anchors, kernel_bandwidth=1.0, s_nn=2,
                        sigma=1.0, anchor_codes=codes)
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
        np.testing.assert_array_equal(res.calibrated,
                                      dyadic_weights(np.maximum(w * res.pi, WEIGHT_FLOOR)))


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


def _random_instance(rng, b, spread=1.0, density=1.0):
    """Raw weights and a symmetric, zero-diagonal independence matrix; with
    density < 1 some pairs are 0, so pi can run off to a face of the simplex."""
    a = np.exp(-spread * rng.random((b, b))) * (rng.random((b, b)) < density)
    a = np.triu(a, 1)
    return np.exp(spread * rng.uniform(-1.0, 1.0, b)), a + a.T


def _codes_instance(rng, b):
    """Raw weights exp(gamma u), u in [-1, 1], and the library's
    a = exp(-MI) of random codes, about a third of whose bits are noisy
    copies of others."""
    n = int(rng.integers(8, 300))
    bits = rng.random((n, b)) < rng.uniform(0.05, 0.95, b)
    copies = rng.random(b) < 0.3
    noisy = bits[:, rng.integers(0, b, b)] ^ (rng.random((n, b)) < 0.1)
    bits = np.where(copies, noisy, bits).astype(np.uint8)
    w = np.exp(rng.choice([0.5, 1.0, 3.0]) * rng.uniform(-1.0, 1.0, b))
    return w, independence_matrix(pack_bits(bits), lam=1.0).a


@st.composite
def _calibration_instances(draw, kinds=("codes", "dense", "sparse")):
    """(w, a) with B in {2, 3, 31, 48, 64}; equal raw weights force ties."""
    b = draw(st.sampled_from([2, 3, 31, 48, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "codes":
        w, a = _codes_instance(rng, b)
    else:
        w, a = _random_instance(rng, b, spread=draw(st.sampled_from([0.1, 1.0, 4.0])),
                                density=1.0 if kind == "dense" else 0.1)
    if draw(st.booleans()):
        w = np.ones(b)
    return w, a


@pytest.mark.filterwarnings("ignore:calibration objective is zero")
@settings(max_examples=150, deadline=None)
@given(_calibration_instances())
def test_calibrate_certifies_its_stop_on_the_simplex(case):
    w, a = case
    tol = 1e-8
    res = calibrate(w, a, tol=tol, max_iters=50_000, record_iterates=True)
    for pi in res.iterates:
        assert np.all(pi >= 0.0)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    objectives = np.asarray(res.objectives)
    assert np.all(np.diff(objectives) >= -1e-12 * np.abs(objectives[1:]))
    np.testing.assert_array_equal(res.calibrated,
                                  dyadic_weights(np.maximum(w * res.pi, WEIGHT_FLOOR)))
    if res.converged:
        # Payoffs recomputed from pi; the solver's own g differs by rounding.
        g = (a * np.outer(w, w)) @ res.pi
        obj = float(res.pi @ g)
        slack = 1e-12 * abs(obj)
        assert np.all(g <= obj * (1.0 + tol) + slack)
        assert np.all(g[res.pi > 0] >= obj * (1.0 - tol) - slack)


@settings(max_examples=60, deadline=None)
@given(_calibration_instances(kinds=("codes",)))
def test_calibrate_objective_is_at_least_the_replicators(case):
    # Only a = exp(-MI) of codes, as the library builds it: on a random or
    # sparse a, pi^T M pi has many local maxima (for a 0/1 a, one per maximal
    # clique), and two ascent methods from the same start can end on
    # different ones, either of them higher.
    w, a = case
    res = calibrate(w, a)
    ref = calibrate_per_step(w, a, max_iters=50_000)
    assert res.converged
    assert res.objectives[-1] >= ref.objectives[-1] - 1e-12 * abs(ref.objectives[-1])


@pytest.mark.parametrize("j", [-20, 20])
@pytest.mark.parametrize("kind", ["codes", "dense", "sparse"])
def test_calibrate_is_invariant_to_scaling_the_raw_weights(kind, j):
    rng = np.random.default_rng(5)
    w, a = (_codes_instance(rng, 48) if kind == "codes"
            else _random_instance(rng, 48, density=1.0 if kind == "dense" else 0.1))
    base, scaled = calibrate(w, a), calibrate(2.0**j * w, a)
    assert base.iterations > 1
    assert scaled.pi.tobytes() == base.pi.tobytes()
    assert (scaled.iterations, scaled.converged) == (base.iterations, base.converged)


def test_calibrate_is_exact_up_to_the_largest_finite_matrix():
    # M_01 = M_02 is 0.9 of the largest double: an infection of vertex 0
    # needs 2 g_0 > max(M), which must not overflow.
    a = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.01], [1.0, 0.01, 0.0]])
    w = np.full(3, np.sqrt(0.9) * 2.0**512)
    top, low = calibrate(w, a), calibrate(2.0**-600 * w, a)
    assert np.isfinite((a * np.outer(w, w)).max())
    assert top.converged and top.iterations > 0
    assert top.pi.tobytes() == low.pi.tobytes()
    assert top.iterations == low.iterations


def test_calibrate_rejects_weights_whose_matrix_overflows():
    with pytest.raises(ValueError, match="not finite"):
        calibrate(np.array([1e200, 1e200]), np.array([[0.0, 1.0], [1.0, 0.0]]))


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
    w = dyadic_weights(rng.random(33))
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


def test_qrank_query_encodes_the_query_once():
    # every encode of one row packs it with one hashing._pack_rows call;
    # raw_weights reads the words qrank_query passes it, and encodes the
    # query itself without them
    ds, split, idx = _small_table(seed=10)
    table, x = idx.tables[0], ds.views[0].data[split.query[0]]
    with mock.patch("mvhash.hashing._pack_rows", wraps=hashing._pack_rows) as packs:
        res = qrank_query(table, x, QueryParams(gamma=1.0), top_n=50)
    assert packs.call_count == 1
    w = raw_weights(table.hash_model, table.anchor_model, x, gamma=1.0, n_landmarks=25)
    assert w.tobytes() == res.weights.raw.tobytes()


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
    model = HashModel(family="lsh", mean=np.zeros(b), projection=np.eye(b))
    return HashTable(name="t", hash_model=model, codes=pack_bits(bits01),
                     db_ids=3 * np.arange(n, dtype=np.int64) + 7,
                     anchor_model=None, independence=None)


@st.composite
def _ranking_cases(draw):
    """Codes drawn from a pool of at most 4 distinct rows, so many duplicates
    share the k-th distance, and raw weights spanning 1e-12..1e3, which
    qrank_query puts on the dyadic grid."""
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
    wstar = res.weights.calibrated
    np.testing.assert_array_equal(wstar, dyadic_weights(wstar))
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
    assert dists.dtype == np.int64


@pytest.mark.parametrize("bits, words", [(40, 2), (100, 1), (100, 3)])
def test_scans_reject_a_query_of_the_wrong_word_count(bits, words):
    # A wrong-width query row would broadcast against the codes' words and
    # give plausible but wrong distances.
    codes = pack_bits(np.random.default_rng(bits).random((5, bits)) < 0.5)
    query = np.resize(codes.words[0], words)
    with pytest.raises(ValueError, match="words"):
        hamming_scan(codes, query)
    with pytest.raises(ValueError, match="words"):
        weighted_hamming_scan(codes, query, np.ones(bits))


@pytest.mark.parametrize("bound_items", [1, qrank.BOUND_ITEMS], ids=["bound", "full-scan"])
@pytest.mark.parametrize("n_weights", [1, 7])
def test_weights_of_the_wrong_length_are_rejected(bound_items, n_weights):
    # One weight on 6-bit codes would broadcast over every bit (three
    # differing bits would give 1.5). The bound reads the weights before any
    # scan, so both weighted_topk paths check them first.
    codes = pack_bits(np.array([[1, 1, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0]], dtype=np.uint8))
    w = np.full(n_weights, 0.5)
    message = f"6 bits, got {n_weights} weights"
    with pytest.raises(ValueError, match=message):
        weighted_hamming_scan(codes, codes.words[1], w)
    with mock.patch.object(qrank, "BOUND_ITEMS", bound_items):
        with pytest.raises(ValueError, match=message):
            weighted_topk(codes, codes.words[1], w, 2)


@pytest.mark.parametrize("bound_items", [1, qrank.BOUND_ITEMS], ids=["bound", "full-scan"])
def test_weighted_topk_rejects_k_outside_the_table(bound_items):
    codes = pack_bits(np.eye(4, dtype=np.uint8))
    with mock.patch.object(qrank, "BOUND_ITEMS", bound_items):
        for k in (0, 5):
            with pytest.raises(ValueError, match=f"need 1 <= k <= 4, got k={k}"):
                weighted_topk(codes, codes.words[0], np.full(4, 0.5), k)


def _floor_heavy(rng, bits):
    """Weights as calibrate returns them: dyadic_weights(max(w o pi, WEIGHT_FLOOR))
    with pi zero off a random support, so most bits sit at the floor."""
    pi = np.zeros(bits)
    support = rng.choice(bits, rng.integers(1, max(bits // 4, 1) + 1), replace=False)
    pi[support] = rng.dirichlet(np.ones(len(support)))
    return dyadic_weights(np.maximum(np.exp(rng.uniform(-1.0, 1.0, bits)) * pi, WEIGHT_FLOOR))


@st.composite
def _bound_cases(draw):
    """Codes mixing a pool of duplicate rows, so ties straddle the cut, with
    random rows, and grid weights of four kinds: unit, all equal but not 1
    (no light bits), floor-heavy, and spread over twelve decades."""
    bits = draw(st.sampled_from([1, 8, 9, 17, 48, 64, 65, 100, 128]))
    n = draw(st.integers(1, 100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["unit", "equal", "floor", "spread"]))
    if kind == "unit":
        w = np.ones(bits)
    elif kind == "equal":
        w = dyadic_weights(np.full(bits, rng.uniform(1e-6, 1e3)))
    elif kind == "floor":
        w = _floor_heavy(rng, bits)
    else:
        w = dyadic_weights(np.exp(rng.uniform(-np.log(1e12), 0.0, bits)))
    pool = rng.random((draw(st.integers(1, 4)), bits)) < 0.5
    codes = pack_bits(np.vstack([pool[rng.integers(0, len(pool), n)],
                                 rng.random((draw(st.integers(0, n)), bits)) < 0.5]))
    query = pack_bits(pool[:1] if draw(st.booleans()) else rng.random((1, bits)) < 0.5).words[0]
    k = draw(st.sampled_from([1, codes.n - 1, codes.n]))
    return codes, query, w, max(k, 1)


@settings(max_examples=300, deadline=None)
@given(_bound_cases())
def test_bound_keeps_the_full_scans_top_k(case):
    codes, query, w, k = case
    with mock.patch.object(qrank, "BOUND_ITEMS", 1):
        ids, dist = weighted_topk(codes, query, w, k)
    full = weighted_hamming_scan(codes, query, w)
    order = np.argsort(full, kind="stable")[:k]
    np.testing.assert_array_equal(ids, order)
    assert dist.tobytes() == full[order].tobytes()
    oracle = brute_force_rank(codes, query, "weighted_hamming", k, weights=w)
    np.testing.assert_array_equal(ids, oracle)


def _record_scans(scored):
    """Patch weighted_hamming_scan to append the codes of each call to scored."""
    scan = qrank.weighted_hamming_scan
    return mock.patch.object(qrank, "weighted_hamming_scan",
                             side_effect=lambda codes, *a: scored.append(codes) or scan(codes, *a))


def test_bound_keeps_an_item_whose_count_exceeds_the_threshold_count():
    # Heavy bits weigh 2, 3 and 4, light bits 0.5, so LB = [0, 2, 5, 9].
    # Item 1 is the one item at count c* = 0 for k = 1, and its distance 2
    # (all four light bits) bounds the top-1 distance. Item 0 differs in the
    # 2-bit alone: count 1 and LB[1] = 2, equal to the bound, so it is kept,
    # scored in a second scan, and wins the tie at 2 by its lower id. Item 2
    # (count 2, LB[2] = 5) is the one item excluded.
    w = np.array([2.0, 3.0, 4.0, 0.5, 0.5, 0.5, 0.5])
    rows = np.array([[1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1], [0, 1, 1, 0, 0, 0, 0]],
                    dtype=np.uint8)
    codes, query = pack_bits(rows), pack_bits(np.zeros((1, 7), dtype=np.uint8)).words[0]
    scored = []
    with mock.patch.object(qrank, "BOUND_ITEMS", 1), _record_scans(scored):
        ids, dist = weighted_topk(codes, query, w, 1)
    assert ids.tolist() == [0] and dist.tolist() == [2.0]
    assert [c.words.tolist() for c in scored] == [codes.words[1:2].tolist(),
                                                  codes.words[:2].tolist()]


@pytest.mark.parametrize("weights", ["equal", "few-values", "floor-heavy"])
def test_bound_on_a_large_table_matches_the_oracle(weights):
    # 2^16 items take the bound unpatched; a pool of repeated rows and
    # weights of few distinct values put many ties at the cut.
    n, bits, top_n = qrank.BOUND_ITEMS, 48, 1000
    rng = np.random.default_rng(17)
    pool = rng.random((300, bits)) < 0.5
    rows = np.where(rng.random((n, 1)) < 0.5, pool[rng.integers(0, 300, n)],
                    rng.random((n, bits)) < 0.5).astype(np.uint8)
    table = _identity_table(rows)
    query = 2.0 * rows[5] - 1.0
    w = {"equal": np.ones(bits), "few-values": rng.choice([0.5, 1.0, 3.0], bits),
         "floor-heavy": _floor_heavy(rng, bits)}[weights]
    scored = []
    with mock.patch("mvhash.qrank.raw_weights", return_value=w), _record_scans(scored):
        res = qrank_query(table, query, QueryParams(calibrate=False), top_n=top_n)
    assert len(scored) in (1, 2) and top_n <= scored[-1].n < n
    oracle = brute_force_rank(table.codes, res.query_words, "weighted_hamming", top_n,
                              weights=res.weights.calibrated)
    np.testing.assert_array_equal(res.local_ids, oracle)
    full = weighted_hamming_scan(table.codes, res.query_words, res.weights.calibrated)
    assert res.distances.tobytes() == full[oracle].tobytes()
    ids, _ = hamming_query(table, query, top_n=top_n)
    horacle = brute_force_rank(table.codes, res.query_words, "hamming", top_n)
    np.testing.assert_array_equal(ids, table.db_ids[horacle])


def test_qrank_distances_are_exact_sums_of_the_grid_weights():
    # Real sums tie at 1 + 2^-52, but the ascending float sums do not: item
    # 1's 1 + 2^-53 + 2^-53 rounds to 1. On the grid (q = 2^-48 here, so the
    # small weights all become q) both sums are exact, and the order is a
    # stable sort of the exact sums.
    w = np.array([2.0**-52, 1.0, 2.0**-53, 2.0**-53])
    table = _identity_table(np.array([[1, 1, 0, 0], [0, 1, 1, 1]], dtype=np.uint8))
    with mock.patch("mvhash.qrank.raw_weights", return_value=w):
        res = qrank_query(table, -np.ones(4), QueryParams(calibrate=False), top_n=2)
    wstar = [Fraction(x) for x in res.weights.calibrated]
    exact = [wstar[0] + wstar[1], wstar[1] + wstar[2] + wstar[3]]
    assert [Fraction(d) for d in res.distances] == [exact[i] for i in res.local_ids]
    assert res.local_ids.tolist() == sorted(range(2), key=lambda i: exact[i])


# Weights as calibrate and qrank_query pass them: some may be 0 or tiny, not all 0.
_weights = st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=1,
                    max_size=130).filter(lambda ws: max(ws) > 0)


@settings(max_examples=200, deadline=None)
@given(_weights, st.integers(-3, 3))
def test_dyadic_weights_is_an_idempotent_scale_equivariant_grid(raw, j):
    w = np.array(raw)
    grid = dyadic_weights(w)
    assert grid.tobytes() == dyadic_weights(grid).tobytes()
    assert dyadic_weights(2.0**j * w).tobytes() == (2.0**j * grid).tobytes()
    t = int(np.frexp(w.max())[1])
    q = 2.0 ** (t - 51 + (len(w) - 1).bit_length())
    assert np.all(grid >= q) and np.all(grid / q == np.floor(grid / q))
    assert np.all(grid <= np.maximum(w, q))
    assert np.frexp(grid.max())[1] == t
    np.testing.assert_array_equal(dyadic_weights(np.ones(len(w))), np.ones(len(w)))
    # q is at least the smallest double, so subnormal weights stay finite
    np.testing.assert_array_equal(dyadic_weights(np.array([2.0**-1060, 0.0])),
                                  [2.0**-1060, 2.0**-1074])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e6, 1e12]))
def test_grid_weights_sum_exactly_in_any_bit_order(bits, seed, spread):
    # The scan sums byte tables; the oracle and the per-item reference add
    # bit by bit in ascending order. On the grid, permuting the bits, and so
    # the order of every sum, changes no distance bit.
    rng = np.random.default_rng(seed)
    w = dyadic_weights(np.exp(rng.uniform(-np.log(spread), 0.0, bits)))
    rows = (rng.random((40, bits)) < 0.5).astype(np.uint8)
    perm = rng.permutation(bits)
    codes, codes_p = pack_bits(rows), pack_bits(rows[:, perm])
    ascending = np.array([weighted_hamming(codes, i, codes.words[0], w) for i in range(40)])
    scan_p = weighted_hamming_scan(codes_p, codes_p.words[0], w[perm])
    assert scan_p.tobytes() == ascending.tobytes()
    oracle = brute_force_rank(codes, codes.words[0], "weighted_hamming", 40, weights=w)
    np.testing.assert_array_equal(oracle, np.argsort(scan_p, kind="stable"))
