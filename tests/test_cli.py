"""End-to-end tests for the command-line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mvhash import load_vectors, save_vectors
from mvhash.cli import main


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvhash.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout
    assert "eval" in proc.stdout
