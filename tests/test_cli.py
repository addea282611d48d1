"""End-to-end tests for the command-line front end."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mvhash.qrank as qrank_module
from mvhash import ground_truth, load_bundle, load_vectors, save_vectors
from mvhash.dataset import load_labels, save_labels
from mvhash.cli import _overrides, build_parser, load_config, main
from mvhash.hashing import PackedCodes, load_codes, save_codes


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


def _build_argv(data, bundle_dir, seed=3, labels=True):
    argv = ["build"]
    for path in data["views"]:
        argv += ["--view", path]
    if labels:
        argv += ["--labels", data["labels"]]
    return argv + [
        "--out", str(bundle_dir),
        "--bits", "16", "--anchors", "25", "--s-nn", "3",
        "--n-train", "40", "--n-query", "10", "--seed", str(seed),
    ]


def _build(capsys, data, bundle_dir, seed=3, extra=(), labels=True):
    code, out, _ = _run(capsys, _build_argv(data, bundle_dir, seed, labels) + list(extra))
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


def test_synth_noise_beyond_float32_or_float64_is_an_error(capsys, tmp_path):
    # 1e39 overflows the files' float32, 1e308 the float64 corpus itself
    for noise, message in (("1e39", "view0.mvh: row 0 is not finite as float32"),
                           ("1e308", "view 'view0': non-finite value")):
        code, out, err = _run(capsys, ["synth", "--out", str(tmp_path), "--synth-noise", noise])
        assert (code, out) == (1, "")
        assert err.startswith("mvhash: error: synth failed: ") and message in err
        assert not list(tmp_path.glob("*.mvh"))


# -------------------------------------------------------------------- build


def test_build_writes_manifest(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    manifest_path = _build(capsys, data, tmp_path / "bundle")
    manifest = json.loads(open(manifest_path).read())
    assert manifest["bits"] == 16
    assert len(manifest["views"]) == 2
    assert manifest["params"]["anchors"] == 25


def test_rebuild_produces_identical_manifests(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    m1 = json.loads(open(_build(capsys, data, tmp_path / "b1")).read())
    m2 = json.loads(open(_build(capsys, data, tmp_path / "b2")).read())
    assert m1["files"] == m2["files"]


def test_single_view_pipeline_works(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data", views=1)
    manifest_path = _build(capsys, data, tmp_path / "bundle")
    assert len(json.loads(open(manifest_path).read())["views"]) == 1
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


def test_query_out_that_cannot_be_written_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path)
    for dest in (tmp_path / "missing" / "results.json", tmp_path):
        code, out, err = _run(capsys, [
            "query", "--bundle", str(tmp_path / "bundle"),
            "--queries", qfiles[0], "--out", str(dest),
        ])
        assert code == 1
        assert out == ""
        assert err.startswith(f"mvhash: error: --out {dest}:")
    assert not (tmp_path / "missing").exists()


def test_output_directory_that_cannot_be_made_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    afile = tmp_path / "afile"  # a regular file: nothing can be made under it
    afile.write_text("")
    eval_args = ["eval", "--bundle", str(tmp_path / "bundle"), "--view", data["views"][0],
                 "--view", data["views"][1], "--labels", data["labels"], "--runs", "1"]
    for argv, flag, dest in (
        (["synth", "--out", str(afile / "x")], "--out", afile / "x"),
        (_build_argv(data, afile / "idx"), "--out", afile / "idx"),
        (eval_args + ["--out-dir", str(afile / "sub")], "--out-dir", afile / "sub"),
        (eval_args + ["--out-dir", str(afile)], "--out-dir", afile),
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith(f"mvhash: error: {flag} {dest}:")
        assert "Traceback" not in err
    assert afile.read_text() == ""


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


def test_eval_of_a_bundle_without_query_ids_is_an_error(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle", extra=["--n-query", "0"])
    code, out, err = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "bundle"),
        "--view", data["views"][0], "--view", data["views"][1],
        "--labels", data["labels"], "--out-dir", str(tmp_path / "eval"),
    ])
    assert code == 1
    assert out == ""
    assert err.startswith("mvhash: error:")
    assert "no query ids" in err


def test_eval_pr_curve_rows_are_the_mean_recall_and_precision_at_k(capsys, tmp_path):
    # qsrf fuses at most 2 x 10 candidates, so its lists are shorter than
    # depth 30 and differ in length; a short list's tail counts as misses
    code, out, _ = _run(capsys, ["synth", "--out", str(tmp_path / "data"), "--seed", "3",
                                 "--synth-clusters", "4", "--synth-per-cluster", "40"])
    assert code == 0
    data = json.loads(out)
    _run(capsys, ["build", "--view", data["views"][0], "--view", data["views"][1],
                  "--labels", data["labels"], "--out", str(tmp_path / "bundle"),
                  "--anchors", "30", "--n-train", "40", "--n-query", "20"])
    ks = [str(k) for k in range(1, 31)]
    code, _, _ = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "bundle"),
        "--view", data["views"][0], "--view", data["views"][1], "--labels", data["labels"],
        "--top-candidates", "10", "--ks", *ks, "--runs", "1", "--queries-per-run", "0",
        "--modes", "qsrf", "--out-dir", str(tmp_path / "eval")])
    assert code == 0
    stats = json.loads((tmp_path / "eval" / "metrics.json").read_text())["modes"]["qsrf"]
    rows = [tuple(map(float, line.split(",")[1:])) for line in
            (tmp_path / "eval" / "pr_curves.csv").read_text().splitlines()[1:]]
    assert 10 <= len(rows) < 30
    for k, (recall, precision) in enumerate(rows, start=1):
        assert recall == pytest.approx(stats[f"recall@{k}"]["mean"], abs=6e-7)
        assert precision == pytest.approx(stats[f"precision@{k}"]["mean"], abs=6e-7)
    # past the longest list every recall stays at its last value
    assert rows[-1][0] == pytest.approx(stats["recall@30"]["mean"], abs=6e-7)


def _valid_queries(bundle, labels_path):
    split = load_bundle(bundle).split
    gt = ground_truth([int(x) for x in open(labels_path).read().split()], split)
    return np.asarray([q for q in split.query if len(gt[int(q)])])


def test_eval_ranks_each_view_once_per_query(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")  # seed 3, 10 query ids
    valid = _valid_queries(tmp_path / "bundle", data["labels"])
    # eval's draws: 3 runs of 5 of the valid ids, from seed + 7919 (run + 1)
    drawn = {int(q) for run in range(3)
             for q in np.random.default_rng(3 + 7919 * (run + 1)).choice(valid, 5, replace=False)}
    assert len(drawn) < 15  # the runs overlap
    with mock.patch("mvhash.qrank.calibrate", wraps=qrank_module.calibrate) as spy:
        code, _, err = _run(capsys, [
            "eval", "--bundle", str(tmp_path / "bundle"),
            "--view", data["views"][0], "--view", data["views"][1],
            "--labels", data["labels"], "--runs", "3", "--queries-per-run", "5",
            "--top-candidates", "30", "--out-dir", str(tmp_path / "eval"),
        ])
    assert code == 0
    # one calibration per distinct drawn id and view: the qsrf row reuses the
    # qrank rows' calibrated weights, and later runs reuse earlier rankings
    assert spy.call_count == 2 * len(drawn)
    assert "every run draws" not in err
    modes = {line.split(",")[0] for line in (tmp_path / "eval" / "metrics.csv").read_text()
             .splitlines()[1:]}
    assert modes == {"hamming:view0", "hamming:view1", "qrank:view0", "qrank:view1", "qsrf"}


def test_eval_says_when_every_run_draws_every_query(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    n_valid = len(_valid_queries(tmp_path / "bundle", data["labels"]))
    for per_run in ("0", str(n_valid)):
        with mock.patch("mvhash.qrank.calibrate", wraps=qrank_module.calibrate) as spy:
            code, _, err = _run(capsys, [
                "eval", "--bundle", str(tmp_path / "bundle"),
                "--view", data["views"][0], "--view", data["views"][1],
                "--labels", data["labels"], "--runs", "3", "--queries-per-run", per_run,
                "--modes", "qrank", "--out-dir", str(tmp_path / "eval"),
            ])
        assert code == 0
        assert spy.call_count == 2 * n_valid
        assert (f"eval: every run draws all {n_valid} valid queries: each stddev is 0"
                in err.splitlines())
        for line in (tmp_path / "eval" / "metrics.csv").read_text().splitlines()[1:]:
            assert line.endswith(",0.000000")


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
        assert modes[f"qrank:view{v}"]["calibration_iterations"] == capped
        assert not any("nonconverged" in name for name in modes[f"hamming:view{v}"])
    assert modes["qsrf"]["walk_nonconverged_frac"] == capped
    assert modes["qsrf"]["walk_iterations"] == capped
    assert "nonconverged" not in (tmp_path / "eval" / "metrics.csv").read_text()


def test_query_reports_solves_stopped_at_their_caps(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    qfiles = _query_files(data, tmp_path)
    query = ["query", "--mode", "qsrf", "-k", "5", "--queries", qfiles[0], "--queries", qfiles[1]]
    _build(capsys, data, tmp_path / "plain")
    code, out, err = _run(capsys, query + ["--bundle", str(tmp_path / "plain")])
    assert code == 0 and json.loads(out)["results"]
    assert "stopped" not in err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"calib_max_iters": 1, "walk_max_iters": 1}))
    _build(capsys, data, tmp_path / "capped", extra=["--config", str(cfg_path)])
    code, out, err = _run(capsys, query + ["--bundle", str(tmp_path / "capped")])
    assert code == 0
    assert "query: 6 of 6 calibrations stopped at calib_max_iters=1" in err
    assert "query: 3 of 3 walks stopped at walk_max_iters=1" in err
    code, _, err_out = _run(capsys, query + ["--bundle", str(tmp_path / "capped"),
                                             "--out", str(tmp_path / "r.json")])
    assert code == 0 and err_out.startswith(err)
    assert (tmp_path / "r.json").read_text() == out
    code, _, err = _run(capsys, ["query", "--bundle", str(tmp_path / "capped"),
                                 "--queries", qfiles[0], "--view", "0"])
    assert code == 0
    assert "query: 3 of 3 calibrations stopped at calib_max_iters=1" in err
    assert "walks" not in err


def test_eval_calibrations_converge_at_the_defaults(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    code, _, _ = _run(capsys, [
        "eval", "--bundle", str(tmp_path / "bundle"),
        "--view", data["views"][0], "--view", data["views"][1],
        "--labels", data["labels"], "--runs", "2", "--queries-per-run", "10",
        "--modes", "qrank", "--out-dir", str(tmp_path / "eval"),
    ])
    assert code == 0
    modes = json.loads((tmp_path / "eval" / "metrics.json").read_text())["modes"]
    for v in (0, 1):
        assert modes[f"qrank:view{v}"]["calibration_nonconverged_frac"]["runs"] == [0.0, 0.0]
        assert 0 < modes[f"qrank:view{v}"]["calibration_iterations"]["mean"] < 1000


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


# Every subcommand's options: flags>dest, then what differs from a plain
# string option (action, type, nargs, choices, default, required).
PARSER_SURFACE = {
    "synth": [
        "--config>config", "--out>out", "--output>output", "--seed>seed int",
        "--synth-clusters>synth_clusters int", "--synth-dim>synth_dim int",
        "--synth-noise>synth_noise float", "--synth-per-cluster>synth_per_cluster int",
        "--synth-views>synth_views int",
    ],
    "build": [
        "--anchor-method>anchor_method {random,kmeans}", "--anchors>anchors int",
        "--bits>bits int", "--config>config", "--family>family {lsh,pcah,itq}",
        "--itq-iters>itq_iters int", "--labels>labels", "--lambda>lam float",
        "--n-query>n_query int", "--n-train>n_train int", "--out>out", "--output>output",
        "--s-nn>s_nn int", "--seed>seed int", "--view>view _AppendAction",
    ],
    "query": [
        "--alpha>alpha float", "--bundle>bundle required", "--gamma>gamma float",
        "--landmarks>landmarks int", "--mode>mode {hamming,qrank,qsrf} ='qrank'",
        "--no-calibrate>no_calibrate _StoreTrueAction nargs=0 =False", "--out>out",
        "--queries>queries _AppendAction", "--restart-mass>restart_mass float",
        "--top-candidates>top_candidates int", "--view>view int =0", "-k>k int =10",
    ],
    "eval": [
        "--alpha>alpha float", "--bundle>bundle required", "--gamma>gamma float",
        "--ks>ks int nargs=+", "--labels>labels", "--landmarks>landmarks int",
        "--modes>modes nargs=+ {hamming,qrank,qsrf}", "--out-dir>out_dir",
        "--queries-per-run>queries_per_run int", "--restart-mass>restart_mass float",
        "--runs>runs int", "--top-candidates>top_candidates int", "--view>view _AppendAction",
    ],
}


def _describe(action) -> str:
    """An option as PARSER_SURFACE spells it; a type of str counts as none,
    since argparse parses both alike."""
    words = [f"{'/'.join(action.option_strings)}>{action.dest}"]
    if type(action) is not argparse._StoreAction:
        words.append(type(action).__name__)
    if action.type not in (None, str):
        words.append(action.type.__name__)
    if action.nargs is not None:
        words.append(f"nargs={action.nargs}")
    if action.choices is not None:
        words.append("{" + ",".join(action.choices) + "}")
    if action.default is not None:
        words.append(f"={action.default!r}")
    if action.required:
        words.append("required")
    return " ".join(words)


def test_parser_surface_is_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(PARSER_SURFACE)
    for name, parser in sub.choices.items():
        got = sorted(_describe(a) for a in parser._actions
                     if not isinstance(a, argparse._HelpAction))
        assert got == PARSER_SURFACE[name], name


def test_config_flags_land_in_the_config_typed():
    for argv, key, want in ((["build", "--lambda", "2"], "lam", 2.0),
                            (["query", "--bundle", "b", "--top-candidates", "7"],
                             "top_candidates", 7),
                            (["synth", "--synth-noise", "0.5"], "synth_noise", 0.5)):
        value = getattr(load_config(None, _overrides(build_parser().parse_args(argv))), key)
        assert (value, type(value)) == (want, type(want))


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
    {"seed": -1}, {"n_train": -5}, {"n_query": -2}, {"queries_per_run": -2}, {"itq_iters": -1},
    {"synth_clusters": 0}, {"synth_per_cluster": 0}, {"synth_views": 0}, {"synth_dim": 0},
    {"synth_noise": -0.1}, {"gamma": 355}, {"gamma": float("inf")},
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
    assert manifest["version"] == 4
    bundle = tmp_path / "bundle"
    for version in (1, 2, 3):
        manifest_path.write_text(json.dumps({**manifest, "version": version}))
        assert _query_bundle(capsys, bundle, qfile) == (
            f"mvhash: error: bundle {bundle}: {bundle}: unsupported bundle version {version}\n")
    for key in ("files", "views", "lam"):
        manifest_path.write_text(json.dumps({k: v for k, v in manifest.items() if k != key}))
        assert f"missing {key}" in _query_bundle(capsys, tmp_path / "bundle", qfile)
    # each build field has its type; lam lists the independence lambda of each view
    assert manifest["lam"] == [1.0, 1.0]
    for key, values, rule in (
            ("bits", ["16", 0, 16.0, True], "bits must be an integer >= 1"),
            ("seed", ["7", 7.0, None, False], "seed must be an integer"),
            ("family", ["xyz", ["lsh"]], "family must be one of ('lsh', 'pcah', 'itq')"),
            ("params", [[1], "x", None], "params must be an object"),
            ("lam", [1.0, [1.0], [1.0, 1.0, 1.0], [1.0, 0], [1.0, -2.0], [1.0, "1"],
                     [1.0, True], [1.0, float("inf")], [1.0, float("nan")]],
             "lam must list one finite positive number per view")):
        for value in values:
            manifest_path.write_text(json.dumps({**manifest, key: value}))
            assert _query_bundle(capsys, bundle, qfile) == (
                f"mvhash: error: bundle {bundle}: {manifest_path}: {rule}\n")
    # views lists the view names; the file names follow from their count
    manifest_path.write_text(json.dumps({**manifest, "views": [{"name": "view0"}, "view1"]}))
    err = _query_bundle(capsys, tmp_path / "bundle", qfile)
    assert "manifest.json: views must be a list of view names" in err
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
    for name in ("split.bin", "view0.model.bin", "view0.codes.bin", "view0.anchors.bin"):
        blob = (bundle / name).read_bytes()
        for bad in (blob[:10], blob[:-1], blob + b"\0\0\0"):
            # A bundle whose hashes match its bytes: only the reader can catch it.
            (bundle / name).write_bytes(bad)
            files = {**manifest["files"], name: hashlib.sha256(bad).hexdigest()}
            (bundle / "manifest.json").write_text(json.dumps({**manifest, "files": files}))
            err = _query_bundle(capsys, bundle, qfile)
            assert name in err and ("truncated" in err or "trailing bytes" in err)
        (bundle / name).write_bytes(blob)


def _patch(bundle, manifest: dict, name: str, at: int, value: bytes) -> None:
    """Overwrite bundle/name from byte `at` with value, and give the manifest
    its new hash: a file that only the reader's own checks can catch."""
    bad = bytearray((bundle / name).read_bytes())
    bad[at:at + len(value) or None] = value
    (bundle / name).write_bytes(bytes(bad))
    files = {**manifest["files"], name: hashlib.sha256(bad).hexdigest()}
    (bundle / "manifest.json").write_text(json.dumps({**manifest, "files": files}))


def test_bundle_with_bad_code_or_model_values_is_an_error(capsys, tmp_path):
    # Files whose hashes match their bytes and whose lengths are right: only
    # the value checks can catch them. Default lsh, 16 bits: the last byte of
    # each code is padding, and the projection (16 x 8 float64s) ends the model.
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfile = _query_files(data, tmp_path)[0]
    bundle = tmp_path / "bundle"
    manifest = json.loads((bundle / "manifest.json").read_text())
    for name, at, value, message in (
            ("view0.codes.bin", -1, b"\x80", "code row 79 sets padding bits past bit 16"),
            ("view0.model.bin", -8, struct.pack("<d", float("nan")),
             "non-finite value in the projection")):
        blob = (bundle / name).read_bytes()
        _patch(bundle, manifest, name, at, value)
        err = _query_bundle(capsys, bundle, qfile)
        assert f"{bundle / name}: {message}" in err
        (bundle / name).write_bytes(blob)


def test_bundle_with_bad_anchor_or_split_values_is_an_error(capsys, tmp_path):
    # The anchors file: a 20-byte header, then bandwidth, sigma and the
    # anchors; an anchor value of 1e200 overflowed nearest_anchors' squares,
    # and a bandwidth of 1e-170 makes the 2 bw^2 that kernel_rows divides by
    # underflow to 0. The query ids follow the split's 20-byte header and its
    # 40 train ids; the last train id set to a query id is outside the database.
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfiles = _query_files(data, tmp_path)
    bundle = tmp_path / "bundle"
    manifest = json.loads((bundle / "manifest.json").read_text())
    split = load_bundle(bundle).split
    db_id = int(split.database[split.database < split.query[1]].max())  # query ids stay sorted
    query_id = int(split.query[split.query > split.train[-2]].min())  # train ids stay sorted
    for name, at, value, message in (
            ("view0.anchors.bin", 36, struct.pack("<d", 1e200),
             "anchor values must be finite and at most 2.11996e+153 in magnitude"),
            ("view0.anchors.bin", 20, struct.pack("<d", 1e-170),
             "bandwidth must be positive with 2 bw^2 a finite normal double, got 1e-170"),
            ("split.bin", 20 + 4 * 40, struct.pack("<I", db_id),
             f"query id {db_id} is also a database id"),
            ("split.bin", 20 + 4 * 39, struct.pack("<I", query_id),
             f"train id {query_id} is not a database id")):
        blob = (bundle / name).read_bytes()
        _patch(bundle, manifest, name, at, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["query", "--bundle", str(bundle), "--mode", "qsrf",
                                           "--queries", qfiles[0], "--queries", qfiles[1]])
        assert (code, out) == (1, "")
        assert err.startswith(f"mvhash: error: bundle {bundle}: {bundle / name}: {message}")
        assert "Traceback" not in err
        (bundle / name).write_bytes(blob)


def _quiet(argv):
    """main(argv) with stdout and stderr captured: (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    """A small two-view bundle, built once: (data, query files, bundle dir)."""
    root = tmp_path_factory.mktemp("fuzz")
    code, out, _ = _quiet(["synth", "--out", str(root / "data"), "--seed", "3",
                           "--synth-clusters", "3", "--synth-per-cluster", "30",
                           "--synth-dim", "8", "--synth-noise", "0.5"])
    data = json.loads(out)
    assert code == 0 and _quiet(_build_argv(data, root / "bundle"))[0] == 0
    queries = []
    for m, path in enumerate(data["views"]):
        queries.append(str(root / f"queries{m}.mvh"))
        save_vectors(queries[-1], load_vectors(path)[:3])
    return data, queries, root / "bundle"


_FAILURES = {  # case -> the message of its expected failure (None: exit 0)
    "family-from-config": "family must be one of ('lsh', 'pcah', 'itq')",
    "s_nn-above-anchors": "need anchors >= 1 and 1 <= s_nn <= anchors",
    "landmarks-above-anchors": "need 1 <= landmarks <= anchors",
    "restart-mass-1": "restart_mass must be in (0, 1)",
    "ks-0": "eval_ks must be positive",
    "config-not-an-object": "config {cfg}: expected a JSON object",
    "views-differ-in-rows": "view 'view1' has 89 items but view 'view0' has 90",
    "split-above-n": "n_train + n_query = 100 exceeds n = 90",
    "qsrf-queries-differ-in-rows": "queries view files disagree on the number of rows",
    "query-without-queries": "pass --queries at least once",
    "view-out-of-range": "--view 2 out of range for 2 views",
    "no-valid-query": "zero valid queries: every query has an empty relevant set",
    "some-queries-excluded": None,
}


@pytest.mark.parametrize("case", list(_FAILURES))
def test_expected_failures_end_in_their_message(small_bundle, tmp_path, case):
    data, queries, bundle = small_bundle  # 90 items, 2 views, 25 anchors
    views = [arg for path in data["views"] for arg in ("--view", path)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text({"family-from-config": '{"family": "xyz"}',
                    "config-not-an-object": "[1, 2]"}.get(case, "{}"))
    short = str(tmp_path / "short.mvh")
    save_vectors(short, load_vectors(data["views"][1])[:89])
    short_queries = str(tmp_path / "short_queries.mvh")
    save_vectors(short_queries, load_vectors(queries[1])[:2])
    labels = load_labels(data["labels"])
    query_ids = load_bundle(bundle).split.query
    alone = tmp_path / "alone.txt"  # items whose label no other item has
    if case == "no-valid-query":
        save_labels(alone, 100 + np.arange(len(labels)))
    else:
        labels[query_ids[:2]] = [100, 101]
        save_labels(alone, labels)
    build = ["build", "--config", str(cfg), "--out", str(tmp_path / "b")]
    query = ["query", "--bundle", str(bundle), "--queries", queries[0]]
    evaluate = ["eval", "--bundle", str(bundle), *views, "--labels", str(alone),
                "--runs", "1", "--modes", "hamming", "--out-dir", str(tmp_path / "eval")]
    argv = {
        "family-from-config": build + views,
        "s_nn-above-anchors": build + views + ["--anchors", "5", "--s-nn", "6"],
        "landmarks-above-anchors": query + ["--landmarks", "26"],
        "restart-mass-1": query + ["--restart-mass", "1"],
        "ks-0": evaluate + ["--ks", "0"],
        "config-not-an-object": build + views,
        "views-differ-in-rows": build + ["--view", data["views"][0], "--view", short],
        "split-above-n": build + views + ["--n-train", "80", "--n-query", "20"],
        "qsrf-queries-differ-in-rows": query + ["--queries", short_queries, "--mode", "qsrf"],
        "query-without-queries": ["query", "--bundle", str(bundle)],
        "view-out-of-range": query + ["--view", "2"],
        "no-valid-query": evaluate,
        "some-queries-excluded": evaluate,
    }[case]
    code, out, err = _quiet(argv)
    if _FAILURES[case] is None:
        assert code == 0
        assert "eval: excluded 2 queries with empty relevant sets" in err.splitlines()
    else:
        assert (code, out) == (1, "")
        assert err == f"mvhash: error: {_FAILURES[case].format(cfg=cfg)}\n"


def _check_run(code: int, out: str, err: str, mode: str | None, out_dir: Path) -> None:
    """Exit 0 with well-formed output (query JSON for a mode, else eval's
    metrics.csv), or exit 1 with an mvhash error."""
    if code == 1:
        assert out == "" and err.splitlines()[-1].startswith("mvhash: error:")
        return
    assert code == 0
    if mode is None:
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "mode,metric,k,mean,stddev" and len(lines) > 1
        for line in lines[1:]:
            assert 0.0 <= float(line.split(",")[3]) <= 1.0
        return
    payload = json.loads(out)
    assert (payload["mode"], payload["k"], len(payload["results"])) == (mode, 5, 3)
    for row in payload["results"]:
        assert 1 <= len(row) <= 5
        assert all(isinstance(r["id"], int) and math.isfinite(r["score"]) for r in row)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bundle_with_overwritten_bytes_fails_cleanly_or_runs(small_bundle, data):
    dataset, queries, bundle = small_bundle
    manifest = json.loads((bundle / "manifest.json").read_text())
    name = data.draw(st.sampled_from(sorted(manifest["files"])), label="file")
    size = (bundle / name).stat().st_size
    at = data.draw(st.integers(0, size - 1), label="at")
    value = data.draw(st.binary(min_size=1, max_size=min(8, size - at)), label="bytes")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "bundle"
        shutil.copytree(bundle, copy)
        _patch(copy, manifest, name, at, value)
        for mode in ("hamming", "qrank", "qsrf"):
            files = queries if mode == "qsrf" else queries[:1]
            argv = ["query", "--bundle", str(copy), "--mode", mode, "-k", "5"]
            _check_run(*_quiet(argv + [arg for f in files for arg in ("--queries", f)]), mode,
                       None)
        out_dir = Path(tmp) / "eval"
        _check_run(*_quiet(["eval", "--bundle", str(copy), "--view", dataset["views"][0],
                            "--view", dataset["views"][1], "--labels", dataset["labels"],
                            "--runs", "2", "--queries-per-run", "5", "--top-candidates", "30",
                            "--out-dir", str(out_dir)]), None, out_dir)


def test_bundle_files_must_agree_with_each_other(capsys, tmp_path):
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfile = _query_files(data, tmp_path)[0]
    bundle = tmp_path / "bundle"
    manifest = json.loads((bundle / "manifest.json").read_text())
    codes = load_codes(bundle / "view0.codes.bin")
    few_rows = tmp_path / "few.codes.bin"
    save_codes(few_rows, PackedCodes(words=codes.words[:5], bits=codes.bits))
    for name, swap, message in (
        ("view0.codes.bin", few_rows, "view 0: code rows 5 does not match split database size 80"),
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


def test_bundle_file_that_is_not_a_regular_file_is_an_error(capsys, tmp_path):
    # A FIFO blocks its reader until a writer opens it, so each query runs in
    # a subprocess with a timeout: a regression fails instead of hanging. A
    # missing file is reported the same way.
    data = _synth(capsys, tmp_path / "data")
    _build(capsys, data, tmp_path / "bundle")
    qfile = _query_files(data, tmp_path)[0]
    bundle = tmp_path / "bundle"
    os.mkfifo(tmp_path / "fifo")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, make in (("view0.model.bin", os.mkfifo),
                       ("view1.codes.bin", lambda path: path.symlink_to(tmp_path / "fifo")),
                       ("view1.anchors.bin", lambda path: None)):
        blob = (bundle / name).read_bytes()
        (bundle / name).unlink()
        make(bundle / name)
        proc = subprocess.run([sys.executable, "-m", "mvhash.cli", "query", "--bundle", str(bundle),
                               "--queries", qfile], capture_output=True, text=True, env=env,
                              timeout=60)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"mvhash: error: bundle {bundle}: {bundle / name}: "
                               "missing or not a regular file\n")
        (bundle / name).unlink(missing_ok=True)
        (bundle / name).write_bytes(blob)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mvhash.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout
    assert "eval" in proc.stdout
