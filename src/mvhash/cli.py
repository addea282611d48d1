"""Command-line front end: synth, build, query, eval.

Configuration lives in a flat-key JSON file; every field can be overridden by
a command-line flag. Data goes to stdout or output files, diagnostics to
stderr, exit code 0 iff no errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .dataset import (MultiViewDataset, VectorView, gen_synthetic, ground_truth,
                      load_labels, load_vectors, make_split, save_labels, save_vectors)
from .fusion import QsrfParams, fuse_rankings
from .hashing import FAMILIES
from .index import build_index, load_bundle, save_bundle
from .metrics import pr_curve, ranking_metrics
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# a field's declared type (a list field: its name) -> (what it must be, check)
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "views": ("a list of strings", lambda v: isinstance(v, list)
              and all(isinstance(p, str) for p in v)),
    "eval_ks": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def _check_types(cfg: RunConfig) -> None:
    for f in fields(RunConfig):
        kind, ok = _FIELD_KINDS[f.name if f.type == "list" else f.type]
        value = getattr(cfg, f.name)
        if not ok(value):
            raise CliError(f"{f.name} must be {kind}, got {value!r}")


def _validate(cfg: RunConfig) -> RunConfig:
    _check_types(cfg)
    if cfg.bits < 1:
        raise CliError("bits must be >= 1")
    if cfg.family not in FAMILIES:
        raise CliError(f"family must be one of {FAMILIES}")
    if cfg.anchors < 1 or not (1 <= cfg.s_nn <= cfg.anchors):
        raise CliError("need anchors >= 1 and 1 <= s_nn <= anchors")
    if not (1 <= cfg.landmarks <= cfg.anchors):
        raise CliError("need 1 <= landmarks <= anchors")
    if not (cfg.gamma >= 0 and cfg.lam > 0):
        raise CliError("need gamma >= 0 and lambda > 0")
    if not (0.0 < cfg.alpha < 1.0):
        raise CliError("alpha must be in (0, 1)")
    if not (0.0 < cfg.restart_mass < 1.0):
        raise CliError("restart_mass must be in (0, 1)")
    if not (cfg.calib_tol > 0 and cfg.walk_tol > 0):
        raise CliError("need calib_tol > 0 and walk_tol > 0")
    if cfg.calib_max_iters < 1 or cfg.walk_max_iters < 1:
        raise CliError("need calib_max_iters >= 1 and walk_max_iters >= 1")
    if cfg.top_candidates < 1 or cfg.runs < 1:
        raise CliError("top_candidates and runs must be >= 1")
    if not cfg.eval_ks or any(k < 1 for k in cfg.eval_ks):
        raise CliError("eval_ks must be positive")
    return cfg


def _config(values: dict, overrides: dict) -> RunConfig:
    """defaults < values < overrides; a None override keeps the value below it."""
    merged = asdict(RunConfig())
    merged.update(values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return _validate(RunConfig(**merged))


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """defaults < JSON file < command-line flags."""
    raw = {}
    if path:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise CliError(f"config {path}: expected a JSON object")
        if "lambda" in raw:
            raw["lam"] = raw.pop("lambda")
        unknown = sorted(set(raw) - set(asdict(RunConfig())))
        if unknown:
            raise CliError(f"config {path}: unknown keys {unknown}")
    return _config(raw, overrides)


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

def _read_views(paths, label: str) -> list[np.ndarray]:
    """Read one vector file per view; `label` names the files in errors."""
    mats = []
    for m, path in enumerate(paths):
        try:
            mats.append(load_vectors(path))
        except (OSError, ValueError) as exc:
            raise CliError(f"{label} {m} ({path}): {exc}") from None
    return mats


def _load_dataset(cfg: RunConfig) -> MultiViewDataset:
    if not cfg.views:
        raise CliError("no views configured; pass --view or set 'views' in the config")
    views = [VectorView(name=f"view{m}", data=data)
             for m, data in enumerate(_read_views(cfg.views, "view"))]
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

RANKING_KEYS = ("gamma", "landmarks", "top_candidates", "alpha", "restart_mass")


def _open_bundle(args, overrides: dict):
    """Load --bundle; its build parameters < the ranking flags < `overrides`."""
    try:
        index = load_bundle(args.bundle)
    except (OSError, ValueError) as exc:
        raise CliError(f"bundle {args.bundle}: {exc}") from None
    keys = asdict(RunConfig())
    built = {k: v for k, v in index.params.items() if k in keys}
    return index, _config(built, {**_overrides(args, RANKING_KEYS), **overrides})


def _check_views(index, mats, paths, views, label: str) -> None:
    """mats[i], read from paths[i], must fit the index's view views[i]."""
    if len(mats) != len(views):
        names = ", ".join(f"view {v}" for v in views)
        raise CliError(f"need one query file per view ({names}), got {len(mats)}")
    for mat, path, v in zip(mats, paths, views):
        dim = index.tables[v].hash_model.dim
        if mat.shape[1] != dim:
            raise CliError(f"{label} {v} ({path}): dim {mat.shape[1]} does not match "
                           f"view {v} dim {dim}")
    if any(mat.shape[0] != mats[0].shape[0] for mat in mats):
        raise CliError(f"{label} files disagree on the number of rows")


def _row(mode: str, view: int) -> str:
    return "qsrf" if mode == "qsrf" else f"{mode}:view{view}"


def _rank(index, views, vectors, modes, cfg: RunConfig, calibrate: bool, depth: int):
    """Rank one query in every mode of `modes`: row label -> (ids, scores), at
    most `depth` long. vectors[i] is the query in view views[i]. Each view is
    ranked once by qrank, and the qsrf row fuses those same rankings.

    Also returns row label -> {rate name: 1.0 if the row's iterative solver
    (qrank's calibration, qsrf's walk) stopped at its cap, else 0.0}."""
    rows, capped, rankings = {}, {}, []
    qparams = QueryParams(gamma=cfg.gamma, n_landmarks=cfg.landmarks, calib_tol=cfg.calib_tol,
                          calib_max_iters=cfg.calib_max_iters, calibrate=calibrate)
    qrank_depth = max(depth if "qrank" in modes else 1,
                      cfg.top_candidates if "qsrf" in modes else 1)
    for v, x in zip(views, vectors):
        table = index.tables[v]
        if "hamming" in modes:
            rows[_row("hamming", v)] = hamming_query(table, x, top_n=depth)
        if "qrank" in modes or "qsrf" in modes:
            res = qrank_query(table, x, qparams, top_n=qrank_depth)
            rows[_row("qrank", v)] = (res.ids[:depth], res.distances[:depth])
            if res.calibration is not None:
                capped[_row("qrank", v)] = {
                    "calibration_nonconverged_frac": float(not res.calibration.converged)}
            rankings.append(res)
    if "qsrf" in modes:
        res = fuse_rankings(index.tables, rankings, QsrfParams(
            top_n=cfg.top_candidates, alpha=cfg.alpha, restart_mass=cfg.restart_mass,
            walk_tol=cfg.walk_tol, walk_max_iters=cfg.walk_max_iters, query=qparams))
        rows["qsrf"] = (res.ids[:depth], res.scores[:depth])
        capped["qsrf"] = {"walk_nonconverged_frac": float(not res.walk.converged)}
    return rows, capped


def cmd_query(args) -> int:
    if args.k < 1:
        raise CliError(f"-k must be >= 1, got {args.k}")
    index, cfg = _open_bundle(args, {})
    if not args.queries:
        raise CliError("pass --queries at least once")
    mode = args.mode
    if mode == "qsrf":
        views = list(range(index.n_views))
    elif 0 <= args.view < index.n_views:
        views = [args.view]
    else:
        raise CliError(f"--view {args.view} out of range for {index.n_views} views")
    mats = _read_views(args.queries, "queries view")
    _check_views(index, mats, args.queries, views, "queries view")
    results = []
    for qi in range(mats[0].shape[0]):
        rows, _ = _rank(index, views, [mat[qi] for mat in mats], (mode,), cfg,
                        not args.no_calibrate, args.k)
        ids, scores = rows[_row(mode, views[0])]
        results.append([
            {"id": int(i), "score": int(s) if mode == "hamming" else float(s)}
            for i, s in zip(ids, scores)
        ])
    payload = json.dumps({"mode": mode, "k": args.k, "results": results}, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
        _log(f"query: wrote {args.out}")
    else:
        print(payload)
    return 0


# ---------------------------------------------------------------- eval

def cmd_eval(args) -> int:
    index, cfg = _open_bundle(args, {
        **_overrides(args, ("runs", "queries_per_run", "labels")),
        "views": args.view, "eval_ks": args.ks,
    })
    ds = _load_dataset(cfg)
    views = list(range(index.n_views))
    _check_views(index, [v.data for v in ds.views], cfg.views, views, "view")
    if ds.labels is None:
        raise CliError("eval needs labels; pass --labels or set it in the config")
    split_ids = max(index.split.database.max(), index.split.query.max())
    if ds.n <= split_ids:
        raise CliError(f"dataset has {ds.n} items; the index's split has ids up to {split_ids}")
    gt = ground_truth(ds.labels, index.split)
    n_empty = sum(1 for rel in gt.values() if len(rel) == 0)
    valid_queries = np.asarray([q for q in index.split.query if len(gt[int(q)]) > 0])
    if len(valid_queries) == 0:
        raise CliError("zero valid queries: every query has an empty relevant set")
    if n_empty:
        _log(f"eval: excluded {n_empty} queries with empty relevant sets")

    # qsrf runs by default only when there are at least two views
    bases = args.modes or ["hamming", "qrank"] + (["qsrf"] if index.n_views >= 2 else [])
    modes = list(dict.fromkeys(_row(b, v) for b in bases for v in views))
    ks = sorted(set(int(k) for k in cfg.eval_ks))
    depth = max(cfg.top_candidates, max(ks))
    out_dir = Path(args.out_dir or (Path(cfg.output) / "eval"))
    out_dir.mkdir(parents=True, exist_ok=True)

    per_run: dict[str, dict[str, list]] = {m: {} for m in modes}
    pr_sums: dict[str, np.ndarray] = {}
    n_ranked = 0
    for run in range(cfg.runs):
        rng = np.random.default_rng(cfg.seed + 7919 * (run + 1))
        if cfg.queries_per_run and cfg.queries_per_run < len(valid_queries):
            qids = np.sort(rng.choice(valid_queries, size=cfg.queries_per_run, replace=False))
        else:
            qids = valid_queries
        _log(f"eval: run {run + 1}/{cfg.runs}: {len(qids)} queries, modes {modes}")
        acc: dict[str, dict[str, list]] = {m: {} for m in modes}
        for q in qids:
            q = int(q)
            ranked, capped = _rank(index, views, [v.data[q] for v in ds.views], bases, cfg,
                                   True, depth)
            n_ranked += 1
            for mode in modes:
                ids = ranked[mode][0]
                rates = capped.get(mode, {})
                for name, val in {**ranking_metrics(ids, gt[q], ks, depth), **rates}.items():
                    acc[mode].setdefault(name, []).append(val)
                pr = np.asarray(pr_curve(ids, gt[q])).T  # ids holds at most depth items
                if mode not in pr_sums:
                    pr_sums[mode] = np.zeros(pr.shape)
                width = min(pr_sums[mode].shape[1], pr.shape[1])
                pr_sums[mode][:, :width] += pr[:, :width]
        for mode in modes:
            for name, vals in acc[mode].items():
                per_run[mode].setdefault(name, []).append(float(np.mean(vals)))

    summary = {mode: {name: {"mean": float(np.mean(vals)), "stddev": float(np.std(vals)),
                             "runs": vals}
                      for name, vals in per_run[mode].items()}
               for mode in modes}

    csv_path = out_dir / "metrics.csv"
    with open(csv_path, "w") as fh:
        fh.write("mode,metric,k,mean,stddev\n")
        for mode in modes:
            for name, stats in summary[mode].items():
                if "@" not in name:
                    continue  # a solver's non-convergence rate: metrics.json only
                metric, k = name.rsplit("@", 1)
                fh.write(f"{mode},{metric},{k},{stats['mean']:.6f},{stats['stddev']:.6f}\n")

    pr_path = out_dir / "pr_curves.csv"
    with open(pr_path, "w") as fh:
        fh.write("mode,recall,precision\n")
        for mode in modes:
            avg = pr_sums[mode] / n_ranked
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


def _add_ranking_args(p):
    """The flags named by RANKING_KEYS."""
    p.add_argument("--gamma", type=float)
    p.add_argument("--landmarks", type=int)
    p.add_argument("--top-candidates", dest="top_candidates", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--restart-mass", dest="restart_mass", type=float)


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
    _add_ranking_args(p)
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
    _add_ranking_args(p)
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
