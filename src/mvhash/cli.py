"""Command-line front end: synth, build, query, eval.

Configuration lives in a flat-key JSON file; every field can be overridden by
a command-line flag. Data goes to stdout or output files, diagnostics to
stderr, exit code 0 iff no errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import (MultiViewDataset, VectorView, gen_synthetic, ground_truth,
                      load_labels, load_vectors, make_split, save_labels, save_vectors)
from .fusion import QsrfParams, qsrf_search
from .hashing import FAMILIES
from .index import build_index, load_bundle, save_bundle
from .metrics import ranking_metrics
from .qrank import QueryParams, hamming_query, qrank_query

DEFAULT_BITS = 48
BITS_PRESETS = (48, 96)
DEFAULT_ANCHORS = 300
DEFAULT_TOP_CANDIDATES = 1000
DEFAULT_ALPHA = 0.85
DEFAULT_RESTART_MASS = 0.99
DEFAULT_RUNS = 10
DEFAULT_QUERY_K = 10


class CliError(Exception):
    """Expected failure: message to stderr, exit code 1."""


@dataclass
class RunConfig:
    """Every knob of the pipeline, JSON-serializable with flat keys."""

    views: list = field(default_factory=list)
    labels: str = ""
    output: str = "mvhash_out"
    bits: int = DEFAULT_BITS
    family: str = "lsh"
    anchors: int = DEFAULT_ANCHORS
    anchor_method: str = "random"
    s_nn: int = 5
    landmarks: int = 25
    gamma: float = 1.0
    lam: float = 1.0
    alpha: float = DEFAULT_ALPHA
    top_candidates: int = DEFAULT_TOP_CANDIDATES
    restart_mass: float = DEFAULT_RESTART_MASS
    calib_tol: float = 1e-8
    calib_max_iters: int = 1000
    walk_tol: float = 1e-10
    walk_max_iters: int = 1000
    itq_iters: int = 50
    seed: int = 7
    runs: int = DEFAULT_RUNS
    n_train: int = 500
    n_query: int = 200
    queries_per_run: int = 200
    eval_ks: list = field(default_factory=lambda: [1, 5, 10])
    synth_clusters: int = 10
    synth_per_cluster: int = 200
    synth_views: int = 2
    synth_dim: int = 32
    synth_noise: float = 0.3


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.bits < 1:
        raise CliError("bits must be >= 1")
    if cfg.family not in FAMILIES:
        raise CliError(f"family must be one of {FAMILIES}")
    if cfg.anchors < 1 or not (1 <= cfg.s_nn <= cfg.anchors):
        raise CliError("need anchors >= 1 and 1 <= s_nn <= anchors")
    if not (1 <= cfg.landmarks <= cfg.anchors):
        raise CliError("need 1 <= landmarks <= anchors")
    if cfg.gamma < 0 or cfg.lam <= 0:
        raise CliError("need gamma >= 0 and lambda > 0")
    if not (0.0 < cfg.alpha < 1.0):
        raise CliError("alpha must be in (0, 1)")
    if not (0.0 < cfg.restart_mass < 1.0):
        raise CliError("restart_mass must be in (0, 1)")
    if cfg.top_candidates < 1 or cfg.runs < 1:
        raise CliError("top_candidates and runs must be >= 1")
    if not cfg.eval_ks or any(k < 1 for k in cfg.eval_ks):
        raise CliError("eval_ks must be positive")
    return cfg


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """defaults < JSON file < command-line flags."""
    values = asdict(RunConfig())
    if path:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise CliError(f"config {path}: expected a JSON object")
        if "lambda" in raw:
            raw["lam"] = raw.pop("lambda")
        unknown = sorted(set(raw) - set(values))
        if unknown:
            raise CliError(f"config {path}: unknown keys {unknown}")
        values.update(raw)
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    return _validate(RunConfig(**values))


def _overrides(args, keys) -> dict:
    return {k: getattr(args, k, None) for k in keys}


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    cfg = load_config(args.config, _overrides(args, [
        "output", "seed", "synth_clusters", "synth_per_cluster", "synth_views",
        "synth_dim", "synth_noise",
    ]))
    out_dir = Path(args.out or (Path(cfg.output) / "data"))
    out_dir.mkdir(parents=True, exist_ok=True)
    ds = gen_synthetic(
        n_clusters=cfg.synth_clusters,
        per_cluster=cfg.synth_per_cluster,
        n_views=cfg.synth_views,
        dim=cfg.synth_dim,
        noise=cfg.synth_noise,
        seed=cfg.seed,
    )
    view_paths = []
    for m, view in enumerate(ds.views):
        path = out_dir / f"view{m}.mvh"
        save_vectors(path, view.data)
        view_paths.append(str(path))
    labels_path = out_dir / "labels.txt"
    save_labels(labels_path, ds.labels)
    _log(f"synth: wrote {ds.n} items, {ds.n_views} views to {out_dir}")
    print(json.dumps({"views": view_paths, "labels": str(labels_path)}, indent=2))
    return 0


# ---------------------------------------------------------------- build

def _load_dataset(cfg: RunConfig) -> MultiViewDataset:
    if not cfg.views:
        raise CliError("no views configured; pass --view or set 'views' in the config")
    views = []
    for m, path in enumerate(cfg.views):
        try:
            data = load_vectors(path)
        except (OSError, ValueError) as exc:
            raise CliError(f"view {m} ({path}): {exc}") from None
        views.append(VectorView(name=f"view{m}", data=data))
    labels = None
    if cfg.labels:
        try:
            labels = load_labels(cfg.labels)
        except (OSError, ValueError) as exc:
            raise CliError(f"labels ({cfg.labels}): {exc}") from None
    try:
        return MultiViewDataset(views=views, labels=labels)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_build(args) -> int:
    over = _overrides(args, [
        "labels", "output", "bits", "family", "anchors", "anchor_method", "s_nn",
        "lam", "itq_iters", "seed", "n_train", "n_query",
    ])
    if args.view:
        over["views"] = args.view
    cfg = load_config(args.config, over)
    ds = _load_dataset(cfg)
    if cfg.n_train + cfg.n_query > ds.n:
        raise CliError(f"n_train + n_query = {cfg.n_train + cfg.n_query} exceeds n = {ds.n}")
    split = make_split(ds.n, cfg.n_train, cfg.n_query, cfg.seed)
    bundle_dir = Path(args.out or (Path(cfg.output) / "index"))
    for m in range(ds.n_views):
        _log(f"build: view {m}: training {cfg.family} ({cfg.bits} bits), "
             f"{cfg.anchors} anchors over {len(split.database)} items")
    try:
        index = build_index(
            ds, split,
            bits=cfg.bits, family=cfg.family, anchors=cfg.anchors,
            anchor_method=cfg.anchor_method, s_nn=cfg.s_nn, lam=cfg.lam,
            itq_iters=cfg.itq_iters, seed=cfg.seed, params=asdict(cfg),
        )
    except ValueError as exc:
        raise CliError(f"build failed: {exc}") from None
    manifest = save_bundle(index, bundle_dir)
    _log(f"build: bundle at {bundle_dir}")
    print(str(manifest))
    return 0


# ---------------------------------------------------------------- query

def _bundle_config(index) -> RunConfig:
    values = asdict(RunConfig())
    known = {k: v for k, v in index.params.items() if k in values}
    values.update(known)
    return RunConfig(**values)


def _query_params(cfg: RunConfig, calibrate: bool) -> QueryParams:
    return QueryParams(
        gamma=cfg.gamma, n_landmarks=cfg.landmarks, calib_tol=cfg.calib_tol,
        calib_max_iters=cfg.calib_max_iters, calibrate=calibrate,
    )


def _qsrf_params(cfg: RunConfig, calibrate: bool) -> QsrfParams:
    return QsrfParams(
        top_n=cfg.top_candidates, alpha=cfg.alpha, restart_mass=cfg.restart_mass,
        walk_tol=cfg.walk_tol, walk_max_iters=cfg.walk_max_iters,
        query=_query_params(cfg, calibrate),
    )


def cmd_query(args) -> int:
    try:
        index = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise CliError(f"bundle {args.bundle}: {exc}") from None
    cfg = _bundle_config(index)
    for key in ("gamma", "landmarks", "top_candidates", "alpha", "restart_mass"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    _validate(cfg)
    calibrate = not args.no_calibrate
    if not args.queries:
        raise CliError("pass --queries at least once")
    query_mats = []
    for m, path in enumerate(args.queries):
        try:
            query_mats.append(load_vectors(path))
        except (OSError, ValueError) as exc:
            raise CliError(f"queries view {m} ({path}): {exc}") from None

    mode = args.mode
    k = args.k
    results = []
    if mode == "qsrf":
        if len(query_mats) != index.n_views:
            raise CliError(
                f"qsrf needs one query file per view: got {len(query_mats)}, "
                f"index has {index.n_views} views"
            )
        for m, (mat, table) in enumerate(zip(query_mats, index.tables)):
            if mat.shape[1] != table.hash_model.dim:
                raise CliError(
                    f"queries view {m} ({args.queries[m]}): dim {mat.shape[1]} does not "
                    f"match view {m} dim {table.hash_model.dim}"
                )
        n_q = query_mats[0].shape[0]
        if any(mat.shape[0] != n_q for mat in query_mats):
            raise CliError("query files disagree on the number of query rows")
        params = _qsrf_params(cfg, calibrate)
        for qi in range(n_q):
            res = qsrf_search(index, [mat[qi] for mat in query_mats], params)
            results.append([
                {"id": int(i), "score": float(s)}
                for i, s in zip(res.ids[:k], res.scores[:k])
            ])
    else:
        view = args.view
        if not (0 <= view < index.n_views):
            raise CliError(f"--view {view} out of range for {index.n_views} views")
        if len(query_mats) != 1:
            raise CliError(f"mode {mode} takes exactly one --queries file")
        table = index.tables[view]
        if query_mats[0].shape[1] != table.hash_model.dim:
            raise CliError(
                f"query dim {query_mats[0].shape[1]} does not match view {view} "
                f"dim {table.hash_model.dim}"
            )
        for q in query_mats[0]:
            if mode == "hamming":
                ids, dists = hamming_query(table, q, top_n=max(k, 1))
                results.append([
                    {"id": int(i), "score": int(d)} for i, d in zip(ids[:k], dists[:k])
                ])
            elif mode == "qrank":
                res = qrank_query(table, q, _query_params(cfg, calibrate), top_n=max(k, 1))
                results.append([
                    {"id": int(i), "score": float(d)}
                    for i, d in zip(res.ids[:k], res.distances[:k])
                ])
            else:
                raise CliError(f"unknown mode {mode!r}")
    payload = json.dumps({"mode": mode, "k": k, "results": results}, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        _log(f"query: wrote {args.out}")
    else:
        print(payload)
    return 0


# ---------------------------------------------------------------- eval

def _eval_modes(requested, n_views: int) -> list[str]:
    """Expand base mode names into per-view row labels; qsrf only when M >= 2
    unless explicitly forced."""
    base = list(requested) if requested else (
        ["hamming", "qrank"] + (["qsrf"] if n_views >= 2 else [])
    )
    rows = []
    for b in base:
        if b == "qsrf":
            rows.append("qsrf")
        elif b in ("hamming", "qrank"):
            rows.extend(f"{b}:view{m}" for m in range(n_views))
        else:
            raise CliError(f"unknown mode {b!r}")
    return rows


def _rank_for_mode(mode: str, index, query_views, cfg: RunConfig, depth: int) -> np.ndarray:
    if mode == "qsrf":
        res = qsrf_search(index, query_views, _qsrf_params(cfg, True))
        return res.ids[:depth]
    base, _, view_name = mode.partition(":")
    view = int(view_name.replace("view", ""))
    table = index.tables[view]
    if base == "hamming":
        ids, _ = hamming_query(table, query_views[view], top_n=depth)
        return ids
    res = qrank_query(table, query_views[view], _query_params(cfg, True), top_n=depth)
    return res.ids


def cmd_eval(args) -> int:
    try:
        index = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise CliError(f"bundle {args.bundle}: {exc}") from None
    cfg = _bundle_config(index)
    for key in ("runs", "queries_per_run", "gamma", "landmarks", "top_candidates",
                "alpha", "restart_mass", "labels"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if args.view:
        cfg.views = args.view
    if args.ks:
        cfg.eval_ks = args.ks
    _validate(cfg)
    ds = _load_dataset(cfg)
    if ds.labels is None:
        raise CliError("eval needs labels; pass --labels or set it in the config")
    if ds.n <= int(index.split.database.max()):
        raise CliError("dataset is smaller than the index's database ids")
    gt = ground_truth(ds.labels, index.split)
    n_empty = sum(1 for rel in gt.values() if len(rel) == 0)
    valid_queries = np.asarray([q for q in index.split.query if len(gt[int(q)]) > 0])
    if len(valid_queries) == 0:
        raise CliError("zero valid queries: every query has an empty relevant set")
    if n_empty:
        _log(f"eval: excluded {n_empty} queries with empty relevant sets")

    modes = _eval_modes(args.modes, index.n_views)
    ks = sorted(set(int(k) for k in cfg.eval_ks))
    depth = max(cfg.top_candidates, max(ks))
    out_dir = Path(args.out_dir or (Path(cfg.output) / "eval"))
    out_dir.mkdir(parents=True, exist_ok=True)

    per_run: dict[str, dict[str, list]] = {m: {} for m in modes}
    pr_sums: dict[str, np.ndarray] = {}
    pr_counts: dict[str, int] = {}
    for run in range(cfg.runs):
        rng = np.random.default_rng(cfg.seed + 7919 * (run + 1))
        if cfg.queries_per_run and cfg.queries_per_run < len(valid_queries):
            qids = np.sort(rng.choice(valid_queries, size=cfg.queries_per_run, replace=False))
        else:
            qids = valid_queries
        _log(f"eval: run {run + 1}/{cfg.runs}: {len(qids)} queries, modes {modes}")
        for mode in modes:
            acc: dict[str, list] = {}
            for q in qids:
                q = int(q)
                query_views = [v.data[q] for v in ds.views]
                ranked = _rank_for_mode(mode, index, query_views, cfg, depth)
                m = ranking_metrics(ranked, gt[q], ks, depth)
                for name, val in m.items():
                    acc.setdefault(name, []).append(val)
                curve_len = min(depth, len(ranked))
                rel = np.asarray(gt[q])
                hits = np.isin(ranked[:curve_len], rel)
                cum = np.cumsum(hits)
                pr = np.stack([cum / len(rel), cum / np.arange(1, curve_len + 1)])
                if mode not in pr_sums:
                    pr_sums[mode] = np.zeros((2, curve_len))
                    pr_counts[mode] = 0
                width = min(pr_sums[mode].shape[1], curve_len)
                pr_sums[mode][:, :width] += pr[:, :width]
                pr_counts[mode] += 1
            for name, vals in acc.items():
                per_run[mode].setdefault(name, []).append(float(np.mean(vals)))

    rows = []
    summary: dict[str, dict] = {}
    for mode in modes:
        summary[mode] = {}
        for name, runs_vals in per_run[mode].items():
            metric, kv = name.rsplit("@", 1)
            arr = np.asarray(runs_vals)
            rows.append((mode, metric, int(kv), float(arr.mean()), float(arr.std())))
            summary[mode][name] = {
                "mean": float(arr.mean()),
                "stddev": float(arr.std()),
                "runs": [float(v) for v in arr],
            }

    csv_path = out_dir / "metrics.csv"
    with open(csv_path, "w") as fh:
        fh.write("mode,metric,k,mean,stddev\n")
        for mode, metric, k, mean, std in rows:
            fh.write(f"{mode},{metric},{k},{mean:.6f},{std:.6f}\n")

    pr_path = out_dir / "pr_curves.csv"
    with open(pr_path, "w") as fh:
        fh.write("mode,recall,precision\n")
        for mode in modes:
            avg = pr_sums[mode] / pr_counts[mode]
            for rec, prec in avg.T:
                fh.write(f"{mode},{rec:.6f},{prec:.6f}\n")

    json_path = out_dir / "metrics.json"
    json_path.write_text(json.dumps({
        "bundle": str(args.bundle),
        "runs": cfg.runs,
        "ks": ks,
        "depth": depth,
        "n_queries_excluded": n_empty,
        "modes": summary,
    }, indent=2, sort_keys=True) + "\n")

    _log(f"eval: wrote {csv_path}, {pr_path}, {json_path}")
    print(str(csv_path))
    return 0


# ---------------------------------------------------------------- parser

def _add_config_arg(p):
    p.add_argument("--config", help="JSON config file with flat keys")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvhash",
        description="multi-view binary hashing search: build, query, evaluate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic multi-view dataset")
    _add_config_arg(p)
    p.add_argument("--out", help="output directory (default <output>/data)")
    p.add_argument("--seed", type=int)
    p.add_argument("--synth-clusters", dest="synth_clusters", type=int)
    p.add_argument("--synth-per-cluster", dest="synth_per_cluster", type=int)
    p.add_argument("--synth-views", dest="synth_views", type=int)
    p.add_argument("--synth-dim", dest="synth_dim", type=int)
    p.add_argument("--synth-noise", dest="synth_noise", type=float)
    p.add_argument("--output")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="build and serialize the index bundle")
    _add_config_arg(p)
    p.add_argument("--view", action="append", help="vector file; repeat per view")
    p.add_argument("--labels")
    p.add_argument("--out", help="bundle directory (default <output>/index)")
    p.add_argument("--bits", type=int, help=f"code length (presets {BITS_PRESETS})")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--anchors", type=int)
    p.add_argument("--anchor-method", dest="anchor_method", choices=("random", "kmeans"))
    p.add_argument("--s-nn", dest="s_nn", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--itq-iters", dest="itq_iters", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--n-query", dest="n_query", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="rank database items for query vectors")
    p.add_argument("--bundle", required=True, help="index bundle directory")
    p.add_argument("--queries", action="append",
                   help="query vector file; repeat per view for qsrf")
    p.add_argument("--mode", choices=("hamming", "qrank", "qsrf"), default="qrank")
    p.add_argument("--view", type=int, default=0, help="view for hamming/qrank")
    p.add_argument("-k", type=int, default=DEFAULT_QUERY_K)
    p.add_argument("--gamma", type=float)
    p.add_argument("--landmarks", type=int)
    p.add_argument("--top-candidates", dest="top_candidates", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--restart-mass", dest="restart_mass", type=float)
    p.add_argument("--no-calibrate", action="store_true")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="run the evaluation protocol over a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--view", action="append", help="vector file; repeat per view")
    p.add_argument("--labels")
    p.add_argument("--modes", nargs="+", choices=("hamming", "qrank", "qsrf"))
    p.add_argument("--runs", type=int)
    p.add_argument("--queries-per-run", dest="queries_per_run", type=int)
    p.add_argument("--ks", nargs="+", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--landmarks", type=int)
    p.add_argument("--top-candidates", dest="top_candidates", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--restart-mass", dest="restart_mass", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"mvhash: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
