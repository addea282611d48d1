"""End-to-end tests for the command-line front end."""

import hashlib
import json
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import mvhash.qrank as qrank_module
from mvhash import load_vectors, save_vectors
from mvhash.cli import main
from mvhash.hashing import PackedCodes, load_codes, save_codes
from mvhash.qrank import IndependenceMatrix, save_independence


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _synth(capsys, out_dir, views=2, seed=3):
    code, out, _ = _run(capsys, [
        "synth", "--out", str(out_dir), "--seed", str(seed),
        "--synth-clusters", "3", "--synth-per-cluster", "30",
        "--synth-views", str(views), "--synth-dim", "8",
        "--synth-noise", "0.5",
    ])
    assert code == 0
    return json.loads(out)


def _build(capsys, data, bundle_dir, seed=3, extra=(), labels=True):
    argv = ["build"]
    for path in data["views"]:
        argv += ["--view", path]
    if labels:
        argv += ["--labels", data["labels"]]
    argv += [
        "--out", str(bundle_dir),
        "--bits", "16", "--anchors", "25", "--s-nn", "3",
        "--n-train", "40", "--n-query", "10", "--seed", str(seed),
    ]
    argv += list(extra)
    code, out, _ = _run(capsys, argv)
    assert code == 0
    return out.strip()


def _query_files(data, tmp_path, n=3):
    paths = []
    for m, view_path in enumerate(data["views"]):
        mat = load_vectors(view_path)
        qpath = tmp_path / f"queries{m}.mvh"
        save_vectors(qpath, mat[:n])
        paths.append(str(qpath))
    return paths


# -------------------------------------------------------------------- synth


def test_synth_writes_views_and_labels(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    assert len(data["views"]) == 2
    for path in data["views"]:
        mat = load_vectors(path)
        assert mat.shape == (90, 8)
    labels = (tmp_path / "data" / "labels.txt").read_text().strip().splitlines()
    assert len(labels) == 90


def test_synth_rerun_is_byte_identical(capsys, tmp_path):
    d1 = _synth(capsys, tmp_path / "a")
    d2 = _synth(capsys, tmp_path / "b")
    for p1, p2 in zip(d1["views"], d2["views"]):
        assert open(p1, "rb").read() == open(p2, "rb").read()
    assert (tmp_path / "a" / "labels.txt").read_bytes() == \
           (tmp_path / "b" / "labels.txt").read_bytes()


# -------------------------------------------------------------------- build


def test_build_writes_manifest(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    manifest_path = _build(capsys, data, tmp_path / "bundle")
    manifest = json.loads(open(manifest_path).read())
    assert manifest["bits"] == 16
    assert manifest["n_views"] == 2
    assert manifest["params"]["anchors"] == 25


def test_rebuild_produces_identical_manifests(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    m1 = json.loads(open(_build(capsys, data, tmp_path / "b1")).read())
    m2 = json.loads(open(_build(capsys, data, tmp_path / "b2")).read())
    assert m1["files"] == m2["files"]


def test_single_view_pipeline_works(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data", views=1)
    manifest_path = _build(capsys, data, tmp_path / "bundle")
    assert json.loads(open(manifest_path).read())["n_views"] == 1
    qfiles = _query_files(data, tmp_path)
    code, out, _ = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--mode", "qrank", "-k", "5",
    ])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 3
    assert len(payload["results"][0]) == 5


# -------------------------------------------------------------------- query


def test_query_modes_and_schema(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path)

    code, out, _ = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--mode", "hamming", "--view", "0", "-k", "7",
    ])
    assert code == 0
    ham = json.loads(out)
    assert ham["mode"] == "hamming"
    assert ham["k"] == 7
    for ranked in ham["results"]:
        assert len(ranked) == 7
        scores = [r["score"] for r in ranked]
        assert all(isinstance(r["id"], int) for r in ranked)
        assert all(isinstance(s, int) for s in scores)
        assert scores == sorted(scores)

    code, out, _ = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--mode", "qrank", "-k", "7",
    ])
    assert code == 0
    qr = json.loads(out)
    for ranked in qr["results"]:
        scores = [r["score"] for r in ranked]
        assert all(isinstance(s, float) for s in scores)
        assert scores == sorted(scores)

    code, out, _ = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--queries", qfiles[1], "--mode", "qsrf",
    ])
    assert code == 0
    qs = json.loads(out)
    assert qs["k"] == 10  # default
    for ranked in qs["results"]:
        assert len(ranked) == 10
        scores = [r["score"] for r in ranked]
        assert scores == sorted(scores, reverse=True)  # visit probabilities


def test_query_gamma_zero_uncalibrated_matches_hamming_ids(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path, n=5)

    code, out_h, _ = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--mode", "hamming", "-k", "15",
    ])
    assert code == 0
    code, out_q, _ = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--mode", "qrank", "-k", "15",
        "--gamma", "0", "--no-calibrate",
    ])
    assert code == 0
    ham = json.loads(out_h)["results"]
    qr = json.loads(out_q)["results"]
    for h_ranked, q_ranked in zip(ham, qr):
        assert [r["id"] for r in h_ranked] == [r["id"] for r in q_ranked]


def test_query_out_file(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path)
    dest = tmp_path / "results.json"
    code, out, err = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--out", str(dest),
    ])
    assert code == 0
    assert out == ""
    assert "results.json" in err
    payload = json.loads(dest.read_text())
    assert payload["mode"] == "qrank"


# --------------------------------------------------------------------- eval


def test_eval_outputs_csv_pr_json(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    code, out, err = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "bundle"),
        "--view", data["views"][0], "--view", data["views"][1],
        "--labels", data["labels"],
        "--runs", "2", "--queries-per-run", "5", "--ks", "1", "5",
        "--top-candidates", "30",
        "--out-dir", str(tmp_path / "eval"),
    ])
    assert code == 0
    csv_path = out.strip()
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "mode,metric,k,mean,stddev"
    modes = {line.split(",")[0] for line in lines[1:]}
    assert modes == {"hamming:view0", "hamming:view1",
                     "qrank:view0", "qrank:view1", "qsrf"}
    metrics = {tuple(line.split(",")[:3]) for line in lines[1:]}
    assert ("qsrf", "precision", "1") in metrics
    assert ("qsrf", "map", "30") in metrics
    for line in lines[1:]:
        _, _, k, mean, std = line.split(",")
        assert 0.0 <= float(mean) <= 1.0
        assert float(std) >= 0.0

    pr_lines = open(tmp_path / "eval" / "pr_curves.csv").read().splitlines()
    assert pr_lines[0] == "mode,recall,precision"
    assert {line.split(",")[0] for line in pr_lines[1:]} == modes

    blob = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert blob["runs"] == 2
    assert set(blob["modes"]) == modes
    for mode_stats in blob["modes"].values():
        for stats in mode_stats.values():
            assert len(stats["runs"]) == 2


def test_eval_view_files_must_match_the_bundle(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle", seed=9)  # the split's largest id, 89, is a query
    narrow = tmp_path / "narrow.mvh"
    save_vectors(narrow, np.zeros((90, 4)))  # the views are 8-dimensional
    short = [str(tmp_path / f"short{m}.mvh") for m in range(2)]
    for m, path in enumerate(short):
        save_vectors(path, load_vectors(data["views"][m])[:89])
    short_labels = tmp_path / "short_labels.txt"
    short_labels.write_text("".join(open(data["labels"]).readlines()[:89]))
    for views, labels, message in (
        (data["views"][:1], data["labels"], "need one query file per view (view 0, view 1), got 1"),
        ([data["views"][0], str(narrow)], data["labels"], "dim 4 does not match view 1 dim 8"),
        (data["views"] + data["views"][:1], data["labels"],
         "need one query file per view (view 0, view 1), got 3"),
        (short, str(short_labels), "dataset has 89 items; the index's split has ids up to 89"),
    ):
        argv = ["eval", "--bundle", str(tmp_path / "bundle"), "--labels", labels,
                "--runs", "1", "--queries-per-run", "3", "--out-dir", str(tmp_path / "eval")]
        for path in views:
            argv += ["--view", path]
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("mvhash: error:")
        assert message in err


def test_eval_ranks_each_view_once_per_query(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    with mock.patch("mvhash.qrank.calibrate", wraps=qrank_module.calibrate) as spy:
        code, _, _ = _run(capsys, [
            "eval", "--bundle", str(tmp_path / "bundle"),
            "--view", data["views"][0], "--view", data["views"][1],
            "--labels", data["labels"], "--runs", "1", "--queries-per-run", "5",
            "--top-candidates", "30", "--out-dir", str(tmp_path / "eval"),
        ])
    assert code == 0
    # 5 queries x 2 views: the qsrf row reuses the qrank rows' calibrated weights
    assert spy.call_count == 10
    modes = {line.split(",")[0] for line in (tmp_path / "eval" / "metrics.csv").read_text()
             .splitlines()[1:]}
    assert modes == {"hamming:view0", "hamming:view1", "qrank:view0", "qrank:view1", "qsrf"}


def test_eval_reports_solver_nonconvergence_rates(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"calib_max_iters": 1, "walk_max_iters": 1}))
    _build(capsys, data, tmp_path / "bundle", extra=["--config", str(cfg_path)])
    code, _, _ = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "bundle"),
        "--view", data["views"][0], "--view", data["views"][1],
        "--labels", data["labels"], "--runs", "2", "--queries-per-run", "3",
        "--top-candidates", "30", "--out-dir", str(tmp_path / "eval"),
    ])
    assert code == 0
    modes = json.loads((tmp_path / "eval" / "metrics.json").read_text())["modes"]
    capped = {"mean": 1.0, "stddev": 0.0, "runs": [1.0, 1.0]}
    for v in (0, 1):
        assert modes[f"qrank:view{v}"]["calibration_nonconverged_frac"] == capped
        assert not any("nonconverged" in name for name in modes[f"hamming:view{v}"])
    assert modes["qsrf"]["walk_nonconverged_frac"] == capped
    assert "nonconverged" not in (tmp_path / "eval" / "metrics.csv").read_text()


def test_eval_single_view_omits_qsrf(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data", views=1)
    _build(capsys, data, tmp_path / "bundle")
    code, out, _ = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "bundle"),
        "--view", data["views"][0], "--labels", data["labels"],
        "--runs", "1", "--queries-per-run", "5", "--ks", "5",
        "--top-candidates", "20",
        "--out-dir", str(tmp_path / "eval"),
    ])
    assert code == 0
    lines = open(out.strip()).read().splitlines()
    modes = {line.split(",")[0] for line in lines[1:]}
    assert modes == {"hamming:view0", "qrank:view0"}


# ------------------------------------------------------------------- config


def test_config_file_flag_precedence(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "bits": 32, "anchors": 25, "s_nn": 3, "lambda": 2.0,
        "n_train": 40, "n_query": 10,
        "views": data["views"], "labels": data["labels"],
    }))
    code, out, _ = _run(capsys, [
        "build", "--config", str(cfg_path),
        "--out", str(tmp_path / "bundle"), "--bits", "16",
    ])
    assert code == 0
    manifest = json.loads(open(out.strip()).read())
    assert manifest["bits"] == 16          # flag beats config
    assert manifest["params"]["lam"] == 2.0  # config beats default
    assert manifest["params"]["anchors"] == 25


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    code, _, err = _run(capsys, ["synth", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "d")])
    assert code == 1
    assert "unknown keys" in err
    assert "bogus" in err


def test_invalid_config_values_are_rejected(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 1.5}))
    code, _, err = _run(capsys, ["synth", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "d")])
    assert code == 1
    assert "alpha" in err


@pytest.mark.parametrize("bad", [
    {"calib_max_iters": 2.5}, {"walk_max_iters": 1.5}, {"calib_tol": "x"}, {"bits": "48"},
    {"bits": True}, {"eval_ks": [1, "5"]}, {"output": 5},
    {"calib_tol": 0}, {"walk_tol": -1e-3}, {"calib_max_iters": 0}, {"walk_max_iters": 0},
])
def test_config_value_of_wrong_type_or_range_is_an_error(capsys, tmp_path, bad):
    data = _synth(capsys, tmp_path / "data")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(bad))
    argv = ["build", "--config", str(cfg_path), "--out", str(tmp_path / "bundle")]
    for path in data["views"]:
        argv += ["--view", path]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("mvhash: error:")
    assert next(iter(bad)) in err


# ------------------------------------------------------------------- errors


def test_errors_exit_one_with_stderr_diagnostics(capsys, tmp_path):
    code, out, err = _run(capsys, ["build", "--out", str(tmp_path / "b")])
    assert code == 1
    assert out == ""
    assert err.startswith("mvhash: error:")

    code, _, err = _run(capsys, [
        "query", "--bundle", str(tmp_path / "nope"), "--queries", "x.mvh",
    ])
    assert code == 1
    assert "mvhash: error:" in err

    # A bundle built without labels cannot be evaluated without --labels.
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "nolabels", labels=False)
    code, _, err = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "nolabels"),
        "--view", data["views"][0], "--view", data["views"][1],
    ])
    assert code == 1
    assert "labels" in err

    _build(capsys, data, tmp_path / "bundle")

    qfiles = _query_files(data, tmp_path)
    code, _, err = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--mode", "qsrf",
    ])
    assert code == 1
    assert "one query file per view" in err


def test_qsrf_query_dimension_mismatch_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path)
    wide = tmp_path / "wide.mvh"
    save_vectors(wide, np.zeros((3, 9)))  # the views are 8-dimensional
    code, out, err = _run(capsys, [
        "query", "--bundle", str(tmp_path / "bundle"),
        "--queries", qfiles[0], "--queries", str(wide), "--mode", "qsrf",
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("mvhash: error: queries view 1")
    assert "dim 9 does not match view 1 dim 8" in err


def test_query_k_below_one_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path)
    for k in ("0", "-3"):
        for mode, files in (("hamming", qfiles[:1]), ("qrank", qfiles[:1]), ("qsrf", qfiles)):
            argv = ["query", "--bundle", str(tmp_path / "bundle"), "--mode", mode, "-k", k]
            for f in files:
                argv += ["--queries", f]
            code, out, err = _run(capsys, argv)
            assert code == 1
            assert out == ""
            assert err.startswith(f"mvhash: error: -k must be >= 1, got {k}")


def _query_bundle(capsys, bundle, qfile):
    code, out, err = _run(capsys, ["query", "--bundle", str(bundle), "--queries", qfile])
    assert code == 1
    assert out == ""
    assert err.startswith("mvhash: error:")
    assert "Traceback" not in err
    return err


def test_malformed_manifest_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfile = _query_files(data, tmp_path)[0]
    manifest_path = tmp_path / "bundle" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())

    manifest_path.write_text("[1, 2]")
    assert "not a JSON object" in _query_bundle(capsys, tmp_path / "bundle", qfile)
    for key in ("files", "views", "split"):
        manifest_path.write_text(json.dumps({k: v for k, v in manifest.items() if k != key}))
        assert f"missing {key}" in _query_bundle(capsys, tmp_path / "bundle", qfile)
    # Every view entry must be an object whose files name all four view files.
    for bad_view in (1, {"name": "view0"}, {"name": "view0", "files": []},
                     {"name": "view0", "files": {k: v for k, v in
                                                 manifest["views"][0]["files"].items()
                                                 if k != "independence"}}):
        views = [bad_view] + manifest["views"][1:]
        manifest_path.write_text(json.dumps({**manifest, "views": views}))
        err = _query_bundle(capsys, tmp_path / "bundle", qfile)
        assert "manifest.json: view 0 needs a files object" in err
    # Every file the loader reads must carry a content hash.
    for name in ("split.bin", "view1.anchors.bin"):
        files = {k: v for k, v in manifest["files"].items() if k != name}
        manifest_path.write_text(json.dumps({**manifest, "files": files}))
        err = _query_bundle(capsys, tmp_path / "bundle", qfile)
        assert f"no content hash for {name}" in err


def test_cut_or_padded_bundle_file_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfile = _query_files(data, tmp_path)[0]
    bundle = tmp_path / "bundle"
    manifest = json.loads((bundle / "manifest.json").read_text())
    for name in ("split.bin", "view0.model.bin", "view0.codes.bin", "view0.anchors.bin",
                 "view0.indep.bin"):
        blob = (bundle / name).read_bytes()
        for bad in (blob[:10], blob[:-1], blob + b"\0\0\0"):
            # A bundle whose hashes match its bytes: only the reader can catch it.
            (bundle / name).write_bytes(bad)
            files = {**manifest["files"], name: hashlib.sha256(bad).hexdigest()}
            (bundle / "manifest.json").write_text(json.dumps({**manifest, "files": files}))
            err = _query_bundle(capsys, bundle, qfile)
            assert name in err and ("truncated" in err or "trailing bytes" in err)
        (bundle / name).write_bytes(blob)


def test_bundle_files_must_agree_with_each_other(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfile = _query_files(data, tmp_path)[0]
    bundle = tmp_path / "bundle"
    manifest = json.loads((bundle / "manifest.json").read_text())
    codes = load_codes(bundle / "view0.codes.bin")
    few_rows = tmp_path / "few.codes.bin"
    save_codes(few_rows, PackedCodes(words=codes.words[:5], bits=codes.bits))
    small_indep = tmp_path / "small.indep.bin"
    save_independence(small_indep, IndependenceMatrix(a=np.zeros((8, 8)), lam=1.0))
    for name, swap, message in (
        ("view0.codes.bin", few_rows, "view 0: code rows 5 does not match split database size 80"),
        ("view0.indep.bin", small_indep, "view 0: independence size 8 does not match manifest bits 16"),
    ):
        blob = (bundle / name).read_bytes()
        # Valid files with matching hashes: only the cross-file checks can catch them.
        (bundle / name).write_bytes(swap.read_bytes())
        files = {**manifest["files"], name: hashlib.sha256(swap.read_bytes()).hexdigest()}
        (bundle / "manifest.json").write_text(json.dumps({**manifest, "files": files}))
        for mode in ("hamming", "qrank"):
            code, out, err = _run(capsys, ["query", "--bundle", str(bundle), "--queries", qfile,
                                           "--mode", mode])
            assert code == 1
            assert out == ""
            assert err.startswith("mvhash: error:")
            assert message in err
        (bundle / name).write_bytes(blob)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvhash.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout
    assert "eval" in proc.stdout
