"""Dataset plumbing: file formats, splits, ground truth, synthetic generator."""

import hashlib
import re
import warnings

import numpy as np
import pytest

from mvhash.dataset import (MultiViewDataset, VectorView, gen_synthetic,
                            ground_truth, load_labels, load_vectors, make_split,
                            save_labels, save_vectors)


def test_binary_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(3, 2)).astype(np.float32).astype(np.float64)
    path = tmp_path / "v.mvh"
    save_vectors(path, data)
    back = load_vectors(path)
    assert back.shape == (3, 2)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, data)


def test_save_vectors_refuses_values_beyond_float32(tmp_path):
    # float32's largest finite value is about 3.4028e38; a larger one would
    # be written as inf and refused by load_vectors only at the next command
    path = tmp_path / "v.mvh"
    top = float(np.finfo(np.float32).max)
    save_vectors(path, np.array([[top, -top]]))  # the range's ends still fit
    for bad in (4e38, -1e300, np.inf, np.nan):
        data = np.zeros((5, 2))
        data[3, 1] = bad
        path.unlink(missing_ok=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 3 "):
                save_vectors(path, data)
        assert not path.exists()


def test_binary_truncated_payload_rejected(tmp_path):
    path = tmp_path / "v.mvh"
    save_vectors(path, np.ones((4, 3)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError):
        load_vectors(path)


def test_binary_bad_magic_rejected(tmp_path):
    path = tmp_path / "v.mvh"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_vectors(path)


def test_csv_parse(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    mat = load_vectors(path)
    np.testing.assert_array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_nan_names_row(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("nan,2.0\n3.0,4.0\n")
    with pytest.raises(ValueError, match="row 0"):
        load_vectors(path)


def test_csv_ragged_row_names_row(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 1"):
        load_vectors(path)


def test_labels_roundtrip(tmp_path):
    path = tmp_path / "labels.txt"
    labels = np.array([3, 1, 4, 1, 5])
    save_labels(path, labels)
    np.testing.assert_array_equal(load_labels(path), labels)


def test_vector_view_rejects_non_finite():
    data = np.ones((3, 2))
    data[1, 0] = np.inf
    with pytest.raises(ValueError, match="row 1"):
        VectorView(name="v", data=data)


def test_dataset_rejects_mismatched_views():
    a = VectorView(name="a", data=np.ones((3, 2)))
    b = VectorView(name="b", data=np.ones((4, 2)))
    with pytest.raises(ValueError):
        MultiViewDataset(views=[a, b])


def test_make_split_protocol_scale_counts():
    split = make_split(70000, 5000, 3000, seed=7)
    assert len(split.train) == 5000
    assert len(split.query) == 3000
    assert len(split.database) == 67000
    assert len(np.intersect1d(split.query, split.database)) == 0


def test_make_split_boundary_all_train():
    split = make_split(10, 10, 0, seed=1)
    np.testing.assert_array_equal(np.sort(split.train), np.arange(10))
    assert len(split.query) == 0
    assert len(split.database) == 10


def test_make_split_deterministic():
    s1 = make_split(500, 100, 50, seed=9)
    s2 = make_split(500, 100, 50, seed=9)
    np.testing.assert_array_equal(s1.train, s2.train)
    np.testing.assert_array_equal(s1.query, s2.query)
    np.testing.assert_array_equal(s1.database, s2.database)


def test_make_split_counts_exceed_n():
    with pytest.raises(ValueError):
        make_split(10, 8, 3, seed=0)


def _split_of(query, database, train=()):
    from mvhash.dataset import DatasetSplit
    return DatasetSplit(
        train=np.asarray(train, dtype=np.int64),
        query=np.asarray(query, dtype=np.int64),
        database=np.asarray(database, dtype=np.int64),
    )


def test_split_must_be_ascending_with_queries_outside_the_database():
    for kwargs, message in (
            (dict(query=[3, 1], database=[0, 2]), "query ids must be strictly ascending"),
            (dict(query=[1], database=[0, 0, 2]), "database ids must be strictly ascending"),
            (dict(query=[1], database=[0, 2], train=[2, 0]), "train ids must be strictly ascending"),
            (dict(query=[1, 4], database=[0, 2, 4]), "query id 4 is also a database id"),
            (dict(query=[1], database=[0, 2], train=[0, 3]), "train id 3 is not a database id"),
            (dict(query=[1], database=[], train=[0]), "train id 0 is not a database id")):
        with pytest.raises(ValueError, match=message):
            _split_of(**kwargs)
    _split_of(query=[5, 7], database=[])  # no database to collide with
    _split_of(query=[], database=[0, 2], train=[0, 2])  # train lies within it


def test_ground_truth_single_label():
    gt = ground_truth([0, 0, 1], _split_of(query=[0], database=[1, 2]))
    np.testing.assert_array_equal(gt[0], [1])


def test_ground_truth_unique_label_gives_empty_set():
    gt = ground_truth([0, 1, 1], _split_of(query=[0], database=[1, 2]))
    assert len(gt[0]) == 0


def test_ground_truth_multilabel_intersection():
    labels = [{1, 2}, {2, 3}, {4}]
    gt = ground_truth(labels, _split_of(query=[0], database=[1, 2]))
    assert 1 in gt[0]
    assert 2 not in gt[0]


def test_gen_synthetic_shape_contract():
    ds = gen_synthetic(n_clusters=10, per_cluster=200, n_views=2, dim=32,
                       noise=0.3, seed=4)
    assert ds.n == 2000
    assert ds.n_views == 2
    np.testing.assert_array_equal(np.unique(ds.labels), np.arange(10))
    for view in ds.views:
        assert view.data.shape == (2000, 32)


def test_gen_synthetic_zero_noise_collapses_clusters():
    ds = gen_synthetic(n_clusters=3, per_cluster=5, n_views=2, dim=8,
                       noise=0.0, seed=2)
    for view in ds.views:
        for c in range(3):
            rows = view.data[ds.labels == c]
            spread = np.abs(rows - rows[0]).max()
            assert spread < 1e-12


def test_gen_synthetic_deterministic_and_seed_sensitive():
    d1 = gen_synthetic(n_clusters=3, per_cluster=10, seed=5)
    d2 = gen_synthetic(n_clusters=3, per_cluster=10, seed=5)
    d3 = gen_synthetic(n_clusters=3, per_cluster=10, seed=6)
    np.testing.assert_array_equal(d1.views[0].data, d2.views[0].data)
    assert not np.array_equal(d1.views[0].data, d3.views[0].data)


def test_gen_synthetic_views_differ():
    ds = gen_synthetic(n_clusters=3, per_cluster=10, n_views=2, seed=5)
    assert not np.array_equal(ds.views[0].data, ds.views[1].data)


@pytest.mark.parametrize("noise, digest", [
    (0.3, "6b9121a847cc99815f549f0c3021269e3c30cca9892a27695193664c36be3c61"),
    (0.0, "6d9f4c213a334fb7b1c4a22d3c10bdf9ee42babb9223ad2db2bfe0eb6ce600b6"),
])
def test_gen_synthetic_bytes_are_pinned(noise, digest):
    # Every benchmark corpus is a gen_synthetic output, so a change to these
    # bytes changes every benchmark's data.
    ds = gen_synthetic(n_clusters=3, per_cluster=4, n_views=2, dim=5, noise=noise, seed=11)
    h = hashlib.sha256()
    for view in ds.views:
        h.update(np.ascontiguousarray(view.data, dtype="<f8").tobytes())
    assert h.hexdigest() == digest
