"""Tests for the multi-view index build and the on-disk bundle format."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mvhash import (
    QsrfParams,
    QueryParams,
    build_index,
    gen_synthetic,
    load_bundle,
    make_split,
    qrank_query,
    qsrf_search,
    save_bundle,
)
from mvhash.hashing import encode
from mvhash.index import load_split, save_split
from mvhash.qrank import independence_matrix


def _dataset(seed=5, n_views=2):
    ds = gen_synthetic(n_clusters=4, per_cluster=50, n_views=n_views, dim=16,
                       noise=0.5, seed=seed)
    split = make_split(ds.n, n_train=80, n_query=20, seed=seed)
    return ds, split


def test_build_index_shapes_and_alignment():
    ds, split = _dataset()
    idx = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                     seed=5, params={"note": 1})
    assert idx.n_views == 2
    assert idx.bits == 16
    assert idx.params == {"note": 1}
    for table in idx.tables:
        assert table.codes.n == len(split.database)
        assert table.codes.bits == 16
        np.testing.assert_array_equal(table.db_ids, split.database)
        assert table.anchor_model.k == 30
        assert table.anchor_model.anchor_codes is not None
        assert table.anchor_model.anchor_codes.n == 30
        assert table.independence.a.shape == (16, 16)


@pytest.mark.parametrize("family", ["lsh", "pcah", "itq"])
def test_build_index_codes_are_the_database_rows_codes(family):
    # one encode of every row, then row selections: the database codes and
    # the training codes the independence matrix is estimated on
    ds, split = _dataset(seed=8)
    idx = build_index(ds, split, bits=12, family=family, anchors=30, s_nn=3, seed=8)
    for table, view in zip(idx.tables, ds.views):
        want = encode(table.hash_model, view.data[split.database])
        assert table.codes.words.tobytes() == want.words.tobytes()
        indep = independence_matrix(encode(table.hash_model, view.data[split.train]), lam=1.0)
        assert table.independence.a.tobytes() == indep.a.tobytes()


@pytest.mark.parametrize("family, bits, digest", [
    ("lsh", 48, "3f5343b23d483efcf06c6431f4b044f076080615c4d04bb95a5a0efb389d27f2"),
    ("pcah", 10, "fd4ebb56760af28b880ee9b41390de03c84a2f70ecca305e0ca0856d95361ed7"),
], ids=["lsh", "pcah"])
def test_model_and_code_files_are_pinned(tmp_path, family, bits, digest):
    # Digests of both views' model and codes files. They were derived from
    # the files of the build that still stored and applied an identity
    # rotation: each model's version field set to 2 and its trailing B x B
    # rotation block dropped. pcah's directions come from LAPACK's eigh, so
    # another LAPACK build may round them differently.
    ds = gen_synthetic(n_clusters=4, per_cluster=60, n_views=2, dim=12, seed=3)
    split = make_split(ds.n, n_train=60, n_query=20, seed=2)
    save_bundle(build_index(ds, split, bits=bits, family=family, anchors=20, s_nn=3, seed=4),
                tmp_path)
    h = hashlib.sha256()
    for m in range(2):
        for kind in ("model", "codes"):
            h.update((tmp_path / f"view{m}.{kind}.bin").read_bytes())
    assert h.hexdigest() == digest


def test_views_get_distinct_hash_models():
    ds, split = _dataset()
    idx = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                     seed=5)
    p0 = idx.tables[0].hash_model.projection
    p1 = idx.tables[1].hash_model.projection
    assert not np.array_equal(p0, p1)


def test_split_round_trip(tmp_path):
    _, split = _dataset()
    path = tmp_path / "split.bin"
    save_split(path, split)
    loaded = load_split(path)
    np.testing.assert_array_equal(loaded.train, split.train)
    np.testing.assert_array_equal(loaded.query, split.query)
    np.testing.assert_array_equal(loaded.database, split.database)


def test_split_rejects_bad_magic(tmp_path):
    path = tmp_path / "split.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_split(path)


def test_bundle_round_trip_preserves_rankings(tmp_path):
    ds, split = _dataset(seed=6)
    idx = build_index(ds, split, bits=16, family="itq", anchors=30, s_nn=3,
                     seed=6)
    save_bundle(idx, tmp_path / "bundle")
    reloaded = load_bundle(tmp_path / "bundle")

    assert reloaded.bits == idx.bits
    assert reloaded.family == idx.family
    assert reloaded.seed == idx.seed
    np.testing.assert_array_equal(reloaded.split.query, idx.split.query)

    qid = split.query[0]
    params = QsrfParams(top_n=25, query=QueryParams(n_landmarks=10))
    before = qsrf_search(idx, [v.data[qid] for v in ds.views], params)
    after = qsrf_search(reloaded, [v.data[qid] for v in ds.views], params)
    np.testing.assert_array_equal(before.ids, after.ids)
    np.testing.assert_array_equal(before.scores, after.scores)

    table_res_before = qrank_query(idx.tables[1], ds.views[1].data[qid],
                                   QueryParams(n_landmarks=10), top_n=25)
    table_res_after = qrank_query(reloaded.tables[1], ds.views[1].data[qid],
                                  QueryParams(n_landmarks=10), top_n=25)
    np.testing.assert_array_equal(table_res_before.ids, table_res_after.ids)
    np.testing.assert_array_equal(table_res_before.distances,
                                  table_res_after.distances)
    # a bundle holds no anchor codes and no independence matrix: the loaded
    # ones are derived, and equal the built ones
    for built, loaded in zip(idx.tables, reloaded.tables):
        assert built.anchor_model.anchor_codes.words.tobytes() == \
            loaded.anchor_model.anchor_codes.words.tobytes()
        assert built.independence.a.tobytes() == loaded.independence.a.tobytes()
        assert built.independence.lam == loaded.independence.lam
    assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == [
        "manifest.json", "split.bin", *(f"view{m}.{kind}.bin" for m in range(2)
                                        for kind in ("anchors", "codes", "model"))]


def test_manifest_files_beyond_the_layout_are_never_opened(tmp_path):
    ds, split = _dataset(seed=6)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3, seed=6)
    manifest_path = save_bundle(idx, tmp_path / "bundle")
    manifest = json.loads(manifest_path.read_text())
    manifest["files"].update({"../absent.bin": "0" * 64, "/nonexistent/x.bin": "0" * 64})
    manifest_path.write_text(json.dumps(manifest))
    reloaded = load_bundle(tmp_path / "bundle")
    qid = split.query[0]
    params = QsrfParams(top_n=25, query=QueryParams(n_landmarks=10))
    before = qsrf_search(idx, [v.data[qid] for v in ds.views], params)
    after = qsrf_search(reloaded, [v.data[qid] for v in ds.views], params)
    np.testing.assert_array_equal(before.ids, after.ids)
    np.testing.assert_array_equal(before.scores, after.scores)


def test_rebuild_is_deterministic(tmp_path):
    ds, split = _dataset(seed=8)
    idx1 = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                      seed=8)
    idx2 = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                      seed=8)
    save_bundle(idx1, tmp_path / "b1")
    save_bundle(idx2, tmp_path / "b2")
    m1 = json.loads((tmp_path / "b1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b2" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]


def test_different_seed_changes_artifacts(tmp_path):
    ds, split = _dataset(seed=8)
    idx1 = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                      seed=8)
    idx2 = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                      seed=9)
    save_bundle(idx1, tmp_path / "b1")
    save_bundle(idx2, tmp_path / "b2")
    m1 = json.loads((tmp_path / "b1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b2" / "manifest.json").read_text())
    assert m1["files"] != m2["files"]


def test_tampered_bundle_is_rejected(tmp_path):
    ds, split = _dataset(seed=6)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                     seed=6)
    save_bundle(idx, tmp_path / "bundle")
    victim = tmp_path / "bundle" / "view0.codes.bin"
    blob = bytearray(victim.read_bytes())
    blob[16] ^= 0xFF  # bits 0-7 of the first code, after the 16-byte header
    victim.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="hash mismatch"):
        load_bundle(tmp_path / "bundle")
    # verify=False skips the content check and loads anyway.
    loaded = load_bundle(tmp_path / "bundle", verify=False)
    assert loaded.n_views == 2
    # The last byte of a 16-bit code is padding, which the codes reader
    # checks whether or not the content hashes are verified.
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="padding bits"):
        load_bundle(tmp_path / "bundle", verify=False)


def test_missing_manifest_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="manifest"):
        load_bundle(tmp_path)


def test_wrong_format_or_version_is_rejected(tmp_path):
    ds, split = _dataset(seed=6)
    idx = build_index(ds, split, bits=16, family="lsh", anchors=30, s_nn=3,
                     seed=6)
    manifest_path = save_bundle(idx, tmp_path / "bundle")
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = "something-else"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_bundle(tmp_path / "bundle")
    manifest["format"] = "mvhash-bundle"
    manifest["version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_bundle(tmp_path / "bundle")


# Builds a k-means/itq index, saves it, loads it back and ranks every held-out
# query in all three modes through the loaded index; prints the bundle's sha256
# set and a digest of the result bytes and of a block-path encode.
_BUILD_AND_QUERY = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
from mvhash import (QsrfParams, build_index, gen_synthetic, hamming_query, load_bundle,
                    make_split, qrank_query, qsrf_search, save_bundle)
from mvhash.hashing import ENCODE_BLOCK, encode
ds = gen_synthetic(n_clusters=4, per_cluster=150, n_views=2, dim=32, noise=0.8, seed=7)
split = make_split(ds.n, n_train=200, n_query=40, seed=7)
out = Path(sys.argv[1])
save_bundle(build_index(ds, split, bits=32, family="itq", anchor_method="kmeans", seed=7), out)
index = load_bundle(out)
digest = hashlib.sha256()
for q in split.query:
    for table, view in zip(index.tables, ds.views):
        ids, dist = hamming_query(table, view.data[q], top_n=100)
        res = qrank_query(table, view.data[q], top_n=100)
        for arr in (ids, dist, res.ids, res.distances):
            digest.update(arr.tobytes())
    fused = qsrf_search(index, [view.data[q] for view in ds.views], QsrfParams(top_n=100))
    digest.update(fused.ids.tobytes())
    digest.update(fused.scores.tobytes())
# every database item a candidate: the largest fused graph this index gives, so
# candidate_embedding's screen (a BLAS matmul) and the walk run at full size
q = split.query[0]
fused = qsrf_search(index, [view.data[q] for view in ds.views],
                    QsrfParams(top_n=len(split.database)))
digest.update(fused.ids.tobytes())
digest.update(fused.scores.tobytes())
digest.update(str(fused.walk.iterations).encode())
# more rows than two encode blocks, so the block path runs under threaded BLAS too
rows = np.random.default_rng(7).normal(size=(2 * ENCODE_BLOCK + 5, 32))
digest.update(encode(index.tables[0].hash_model, rows).words.tobytes())
print(json.dumps({"files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in sorted(out.iterdir())},
                  "results": digest.hexdigest()}))
"""


def test_bundle_and_rankings_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _BUILD_AND_QUERY, str(tmp_path / threads)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0]["files"] == runs[1]["files"]
    assert runs[0]["results"] == runs[1]["results"]
    # every hamming, qrank and qsrf id and score bit; a change that moves a
    # ranking on purpose re-derives the pin and says which modes moved
    assert runs[0]["results"] == "750500618d0acb1fe9ae19522e1b83b4e26a6f228a12040b5646a962e24fabb7"
