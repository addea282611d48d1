"""Hash training, bit packing, Hamming scan, model serialization."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvhash import hashing
from mvhash.hashing import (FAMILIES, HashModel, encode, encode_one, hamming_scan,
                            kth_smallest, load_codes, load_model, pack_bits, save_codes,
                            save_model, topk, train, unpack_bits, words_per_item)


def _random_bits(rng, n, bits):
    return (rng.random(size=(n, bits)) < 0.5).astype(np.uint8)


def hamming(codes, i, j):
    """Test-local reference: Hamming distance between items i and j, read off hamming_scan."""
    return int(hamming_scan(codes, codes.words[j])[i])


def hamming_rank(codes, query_words, k):
    """Test-local reference: top-k ids by Hamming distance, ties by ascending id."""
    return topk(hamming_scan(codes, query_words), k)


def test_words_per_item():
    assert words_per_item(1) == 1
    assert words_per_item(64) == 1
    assert words_per_item(65) == 2
    assert words_per_item(128) == 2


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(0)
    for bits in (1, 7, 48, 64, 65, 96, 130):
        raw = _random_bits(rng, 20, bits)
        codes = pack_bits(raw)
        assert codes.words.shape == (20, words_per_item(bits))
        np.testing.assert_array_equal(unpack_bits(codes), raw)
        # a column-major input, as fancy indexing of columns returns
        np.testing.assert_array_equal(unpack_bits(pack_bits(np.asfortranarray(raw))), raw)


def test_pack_padding_bits_are_zero():
    raw = np.ones((4, 5), dtype=np.uint8)
    codes = pack_bits(raw)
    # bits beyond position 4 of the single word must be clear
    assert np.all(codes.words >> np.uint64(5) == 0)


def test_pack_bit_layout_little_endian():
    # item with only bit 0 set -> word 1; only bit 63 -> 2**63; only bit 64 -> second word 1
    raw = np.zeros((3, 65), dtype=np.uint8)
    raw[0, 0] = 1
    raw[1, 63] = 1
    raw[2, 64] = 1
    codes = pack_bits(raw)
    assert codes.words[0, 0] == 1 and codes.words[0, 1] == 0
    assert codes.words[1, 0] == np.uint64(1) << np.uint64(63)
    assert codes.words[2, 0] == 0 and codes.words[2, 1] == 1


def test_hamming_trivial_values():
    raw = np.zeros((2, 48), dtype=np.uint8)
    raw[1] = 1
    codes = pack_bits(raw)
    assert hamming(codes, 0, 0) == 0
    assert hamming(codes, 0, 1) == 48


def test_hamming_matches_naive_bit_count():
    rng = np.random.default_rng(1)
    raw = _random_bits(rng, 30, 96)
    codes = pack_bits(raw)
    for _ in range(50):
        i, j = rng.integers(0, 30, size=2)
        naive = int(np.sum(raw[i] != raw[j]))
        assert hamming(codes, int(i), int(j)) == naive


def test_hamming_is_a_metric_on_random_triples():
    rng = np.random.default_rng(2)
    raw = _random_bits(rng, 20, 33)
    codes = pack_bits(raw)
    for _ in range(100):
        i, j, l = (int(v) for v in rng.integers(0, 20, size=3))
        dij = hamming(codes, i, j)
        assert dij == hamming(codes, j, i)
        if np.array_equal(raw[i], raw[j]):
            assert dij == 0
        else:
            assert dij > 0
        assert dij <= hamming(codes, i, l) + hamming(codes, l, j)


def test_encode_identity_projection():
    model = HashModel(family="lsh", mean=np.zeros(2), projection=np.eye(2))
    codes = encode(model, np.array([[1.0, -2.0]]))
    np.testing.assert_array_equal(unpack_bits(codes)[0], [1, 0])


def test_encode_tie_at_zero_goes_positive():
    model = HashModel(family="lsh", mean=np.zeros(1), projection=np.eye(1))
    codes = encode(model, np.array([[0.0]]))
    assert unpack_bits(codes)[0, 0] == 1


def test_encode_one_matches_encode():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(40, 12))
    model = train("lsh", data, 20, seed=4)
    codes = encode(model, data)
    for i in (0, 7, 39):
        np.testing.assert_array_equal(encode_one(model, data[i]), codes.words[i])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FAMILIES), st.sampled_from([1, 48, 64, 65, 130]),
       st.sampled_from([1, 3, 7]),
       st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 2)]),
       st.integers(0, 2**32 - 1))
def test_block_encoding_gives_the_one_shot_codes(family, bits, block, rows, seed):
    # n = blocks * block + extra rows: empty, one row, and around block
    # boundaries. A row at the mean centres to +0.0 and projects to 0, which
    # the sign test sends to bit 1.
    blocks, extra = rows
    n = blocks * block + extra
    rng = np.random.default_rng(seed)
    dim = bits + 3  # pcah and itq need bits <= dim
    model = train(family, rng.normal(size=(dim + 20, dim)), bits, seed=seed, itq_iters=5)
    x = rng.normal(size=(n, dim))
    if n:
        x[rng.integers(n, size=2)] = model.mean
    one_shot = pack_bits(((x - model.mean) @ model.projection.T) >= 0.0)
    with mock.patch.object(hashing, "ENCODE_BLOCK", block):
        codes = encode(model, x)
        for i in range(n):
            np.testing.assert_array_equal(encode_one(model, x[i]), codes.words[i])
    assert codes.bits == bits
    np.testing.assert_array_equal(codes.words, one_shot.words)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["lsh", "pcah"]), st.sampled_from([1, 48, 64, 65]),
       st.sampled_from([1, 2, 5]), st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_lsh_and_pcah_encode_skips_only_an_identity_product(family, bits, block, n, seed):
    # Rows at the mean centre to +0.0; rows at -0.0 about a zero mean centre
    # to -0.0. Either projects to 0, which the sign test sends to bit 1 with
    # or without an identity product after the projection.
    rng = np.random.default_rng(seed)
    dim = bits + 2
    trained = train(family, rng.normal(size=(dim + 20, dim)), bits, seed=seed)
    for model in (trained, HashModel(family, np.zeros(dim), trained.projection)):
        x = rng.normal(size=(n + 3, dim))
        x[rng.integers(n + 3, size=2)] = model.mean
        x[rng.integers(n + 3)] = -0.0
        want = pack_bits(((x - model.mean) @ model.projection.T @ np.eye(bits)) >= 0.0)
        with mock.patch.object(hashing, "ENCODE_BLOCK", block):
            np.testing.assert_array_equal(encode(model, x).words, want.words)


def test_hash_model_rejects_non_finite_arrays():
    mean, proj = np.zeros(3), np.ones((2, 3))
    for arrays in ((np.array([0.0, np.nan, 0.0]), proj), (mean, np.full((2, 3), np.inf))):
        for family in FAMILIES:
            with pytest.raises(ValueError, match="non-finite"):
                HashModel(family, *arrays)


def test_encode_dimension_mismatch():
    model = HashModel(family="lsh", mean=np.zeros(2), projection=np.eye(2))
    with pytest.raises(ValueError):
        encode(model, np.ones((3, 5)))


def test_train_deterministic_per_family():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(100, 16))
    for family in ("lsh", "pcah", "itq"):
        m1 = train(family, data, 8, seed=11)
        m2 = train(family, data, 8, seed=11)
        np.testing.assert_array_equal(m1.projection, m2.projection)
        m3 = train(family, data, 8, seed=12)
        if family != "pcah":  # pcah has no random component
            assert not np.array_equal(m1.projection, m3.projection)


def test_train_rejects_too_many_bits_for_pca_families():
    data = np.random.default_rng(6).normal(size=(50, 8))
    for family in ("pcah", "itq"):
        with pytest.raises(ValueError):
            train(family, data, 9, seed=0)
    # lsh can exceed the input dimension
    assert train("lsh", data, 9, seed=0).bits == 9


def test_itq_rotation_is_orthogonal():
    # itq's projection is pcah's directions under the folded rotation
    rng = np.random.default_rng(7)
    data = rng.normal(size=(200, 24))
    model = train("itq", data, 16, seed=8)
    pca = train("pcah", data, 16, seed=8).projection
    r = model.projection @ pca.T
    assert np.abs(r.T @ r - np.eye(16)).max() < 1e-6
    assert np.abs(r @ pca - model.projection).max() < 1e-12


def test_itq_quantization_loss_non_increasing():
    # the loss ||sign(VR) - VR||_F^2 of the rotation after each prefix of the
    # same run: iters = 0..30 steps from the same seed
    from mvhash.hashing import _itq_rotation
    rng = np.random.default_rng(8)
    for trial in range(5):
        projected = rng.normal(size=(80, 12))
        losses = []
        for iters in range(31):
            v = projected @ _itq_rotation(projected, iters, np.random.default_rng(trial))
            losses.append(float(np.linalg.norm(np.where(v >= 0.0, 1.0, -1.0) - v) ** 2))
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-9)


def test_pcah_bits_balanced_on_synthetic_data():
    from mvhash.dataset import gen_synthetic
    ds = gen_synthetic(n_clusters=10, per_cluster=100, n_views=1, dim=16,
                       noise=1.0, seed=9)
    data = ds.views[0].data
    model = train("pcah", data, 8, seed=0)
    ones = unpack_bits(encode(model, data)).mean(axis=0)
    assert np.all(ones >= 0.40)
    assert np.all(ones <= 0.60)


def test_rank_deficient_covariance_warns_and_fills():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(60, 3))
    data = np.hstack([base, base @ rng.normal(size=(3, 5))])  # rank 3 in dim 8
    with pytest.warns(RuntimeWarning):
        model = train("pcah", data, 6, seed=1)
    assert model.projection.shape == (6, 8)
    codes = encode(model, data)
    assert codes.bits == 6


def test_hamming_scan_matches_pairwise():
    rng = np.random.default_rng(11)
    raw = _random_bits(rng, 50, 48)
    codes = pack_bits(raw)
    q = codes.words[17]
    dist = hamming_scan(codes, q)
    for i in range(50):
        assert dist[i] == int(np.sum(raw[i] != raw[17]))


def test_hamming_rank_self_query_first():
    rng = np.random.default_rng(12)
    raw = _random_bits(rng, 30, 32)
    codes = pack_bits(raw)
    top = hamming_rank(codes, codes.words[5], 3)
    assert top[0] == 5 or hamming(codes, int(top[0]), 5) == 0


def test_hamming_rank_k_equals_n_is_permutation():
    rng = np.random.default_rng(13)
    codes = pack_bits(_random_bits(rng, 25, 16))
    order = hamming_rank(codes, codes.words[0], 25)
    np.testing.assert_array_equal(np.sort(order), np.arange(25))


def test_hamming_rank_all_equal_codes_ascending_ids():
    raw = np.tile(np.array([1, 0, 1], dtype=np.uint8), (10, 1))
    codes = pack_bits(raw)
    order = hamming_rank(codes, codes.words[0], 10)
    np.testing.assert_array_equal(order, np.arange(10))


def test_hamming_rank_k_too_large():
    codes = pack_bits(np.zeros((4, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        hamming_rank(codes, codes.words[0], 5)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16]), st.integers(2, 300), st.integers(1, 4),
       st.sampled_from(["first", "second-last", "last"]), st.integers(0, 2**32 - 1))
def test_counting_topk_equals_a_full_stable_argsort(dtype, n, n_values, which, seed):
    # Few distinct values, so the k-th value is tied many times over.
    rng = np.random.default_rng(seed)
    values = rng.choice(np.iinfo(dtype).max + 1, size=n_values, replace=False)
    dist = values[rng.integers(0, n_values, n)].astype(dtype)
    k = {"first": 1, "second-last": n - 1, "last": n}[which]
    np.testing.assert_array_equal(topk(dist, k), np.argsort(dist, kind="stable")[:k])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16, np.float64]), st.sampled_from([(), (1,), (5,)]),
       st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_kth_smallest_is_the_sorted_rows_kth_entry(dtype, rows, n, n_values, seed):
    # 1-d (rows ()) or 2-d values; few distinct values, so every k is tied
    rng = np.random.default_rng(seed)
    if dtype == np.float64:
        pool = rng.normal(size=n_values) * 10.0 ** rng.integers(-300, 300, n_values)
    else:
        pool = rng.choice(np.iinfo(dtype).max + 1, size=n_values, replace=False)
    values = pool[rng.integers(0, n_values, rows + (n,))].astype(dtype)
    ordered = np.sort(values, axis=-1)
    for k in range(1, n + 1):
        np.testing.assert_array_equal(kth_smallest(values, k), ordered[..., k - 1])


def test_hamming_scan_counts_in_the_narrowest_unsigned_dtype():
    rng = np.random.default_rng(16)
    for bits, dtype in ((1, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)):
        assert hamming_scan(pack_bits(_random_bits(rng, 3, bits)), np.zeros(
            words_per_item(bits), dtype=np.uint64)).dtype == dtype
    raw = _random_bits(rng, 2, 300)
    raw[1] = 1 - raw[0]
    codes = pack_bits(raw)
    assert hamming_scan(codes, codes.words[0]).tolist() == [0, 300]


def test_model_roundtrip_encodes_identically(tmp_path):
    rng = np.random.default_rng(14)
    data = rng.normal(size=(120, 10))
    for family in ("lsh", "pcah", "itq"):
        model = train(family, data, 8, seed=15)
        path = tmp_path / f"{family}.bin"
        save_model(path, model)
        back = load_model(path)
        assert back.family == family
        np.testing.assert_array_equal(encode(model, data).words,
                                      encode(back, data).words)


def test_codes_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    codes = pack_bits(_random_bits(rng, 40, 70))
    path = tmp_path / "codes.bin"
    save_codes(path, codes)
    back = load_codes(path)
    assert back.bits == 70
    np.testing.assert_array_equal(back.words, codes.words)


def test_model_load_rejects_corrupt_magic(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(ValueError):
        load_model(path)


def test_encode_unpack_reproduces_projection_signs():
    rng = np.random.default_rng(16)
    data = rng.normal(size=(60, 9))
    model = train("pcah", data, 6, seed=17)
    projected = (data - model.mean) @ model.projection.T
    expected = (projected >= 0.0).astype(np.uint8)
    np.testing.assert_array_equal(unpack_bits(encode(model, data)), expected)
