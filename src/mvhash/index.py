"""Multi-view index: offline build over all views and the on-disk bundle format.

A bundle is a directory holding per-view artifacts (hash model, database
codes, anchors) plus the split and a manifest.json that records the view
names, sha256 content hashes, each view's independence lambda and the build
parameters. The file names follow from the view count alone (_layout). What
a view derives from those parts, its anchors' codes and its bit-independence
matrix, is derived in one function (_table) at build and at load. Builds are
deterministic: the same data and seed reproduce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .anchors import AnchorModel, build_anchors, load_anchor_model, save_anchor_model
from .binfile import BinaryReader
from .dataset import DatasetSplit, MultiViewDataset
from .hashing import (FAMILIES, HashModel, PackedCodes, encode, load_codes, load_model, save_codes,
                      save_model, train)
from .qrank import HashTable, independence_matrix

MAGIC_SPLIT = b"MVHS"
MANIFEST_NAME = "manifest.json"
BUNDLE_FORMAT = "mvhash-bundle"
BUNDLE_VERSION = 4
MANIFEST_KEYS = ("files", "views", "bits", "family", "seed", "lam", "params")


@dataclass
class MultiViewIndex:
    """Built search state for every view plus the split it was built from."""

    tables: list[HashTable]
    split: DatasetSplit
    bits: int
    family: str
    seed: int
    params: dict

    @property
    def n_views(self) -> int:
        return len(self.tables)


def _view_seed(seed: int, view: int, salt: int) -> int:
    # distinct deterministic streams per (view, stage)
    return int(seed) + 1_000_003 * int(view) + 101 * int(salt)


def build_index(
    dataset: MultiViewDataset,
    split: DatasetSplit,
    bits: int = 48,
    family: str = "lsh",
    anchors: int = 300,
    anchor_method: str = "random",
    s_nn: int = 5,
    lam: float = 1.0,
    itq_iters: int = 50,
    seed: int = 7,
    params: dict | None = None,
) -> MultiViewIndex:
    """Offline stage: per view, train hashes on the training rows, encode the
    view once, and pick anchors among the database rows; _table derives the
    rest. The database codes are a row selection of the view's codes, and
    random anchors gather the database rows they need by id, so beyond the
    corpus a view holds one encode block and its codes, not a database slice
    (k-means anchors gather the database rows once, as they use all).
    """
    tables = []
    for m, view in enumerate(dataset.views):
        model = train(family, view.data[split.train], bits, seed=_view_seed(seed, m, 1),
                      itq_iters=itq_iters)
        codes = encode(model, view.data)
        anchor_model = build_anchors(view.data, anchors, method=anchor_method, s_nn=s_nn,
                                     seed=_view_seed(seed, m, 2), rows=split.database)
        tables.append(_table(view.name, model, PackedCodes(codes.words[split.database], bits),
                             anchor_model, split, lam))
    return MultiViewIndex(tables=tables, split=split, bits=bits, family=family,
                          seed=seed, params=params or {})


def _table(name: str, model: HashModel, codes: PackedCodes, anchor_model: AnchorModel,
           split: DatasetSplit, lam: float) -> HashTable:
    """One view's table from its stored parts, the database codes among them.
    The one place a view's derived parts are made, at build and at load: the
    anchors' codes, and the bit-independence matrix on the codes of the
    training rows, which are database rows (DatasetSplit checks it)."""
    anchor_model.anchor_codes = encode(model, anchor_model.anchors)
    train_codes = PackedCodes(codes.words[np.searchsorted(split.database, split.train)], codes.bits)
    return HashTable(name=name, hash_model=model, codes=codes,
                     db_ids=split.database.astype(np.int64), anchor_model=anchor_model,
                     independence=independence_matrix(train_codes, lam))


def save_split(path: Union[str, Path], split: DatasetSplit) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC_SPLIT)
        fh.write(struct.pack("<IIII", 1, len(split.train), len(split.query), len(split.database)))
        for arr in (split.train, split.query, split.database):
            fh.write(np.ascontiguousarray(arr, dtype="<u4").tobytes())


def load_split(path: Union[str, Path]) -> DatasetSplit:
    rd = BinaryReader(path, MAGIC_SPLIT, "split")
    train, query, database = (rd.array("<u4", n).astype(np.int64) for n in rd.header("<III"))
    return rd.done(rd.make(DatasetSplit, train=train, query=query, database=database))


def _layout(n_views: int) -> tuple[list[str], list[dict[str, str]]]:
    """A bundle's file names besides its manifest, split.bin first, and each
    view's model, codes and anchors file names."""
    views = [{kind: f"view{m}.{kind}.bin" for kind in ("model", "codes", "anchors")}
             for m in range(n_views)]
    return ["split.bin"] + [name for names in views for name in names.values()], views


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def save_bundle(index: MultiViewIndex, bundle_dir: Union[str, Path]) -> Path:
    """Write all artifacts plus manifest.json; returns the manifest path."""
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    names, view_names = _layout(index.n_views)
    save_split(bundle_dir / names[0], index.split)
    for table, files in zip(index.tables, view_names):
        save_model(bundle_dir / files["model"], table.hash_model)
        save_codes(bundle_dir / files["codes"], table.codes)
        save_anchor_model(bundle_dir / files["anchors"], table.anchor_model)
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "bits": index.bits,
        "family": index.family,
        "seed": index.seed,
        "views": [table.name for table in index.tables],
        "lam": [table.independence.lam for table in index.tables],
        "files": {name: _sha256(bundle_dir / name) for name in names},
        "params": index.params,
    }
    path = bundle_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(bundle_dir: Union[str, Path], verify: bool = True) -> MultiViewIndex:
    """Load a bundle directory; verifies content hashes unless verify=False.

    Only the layout's files are opened, and each must be a regular file (a
    FIFO or a device would block or never end). Each view's derived parts
    come from _table, as at build.
    """
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(f"{bundle_dir}: no {MANIFEST_NAME}")
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: not a JSON object")
    if manifest.get("format") != BUNDLE_FORMAT:
        raise ValueError(f"{bundle_dir}: not a {BUNDLE_FORMAT} bundle")
    if manifest.get("version") != BUNDLE_VERSION:
        raise ValueError(f"{bundle_dir}: unsupported bundle version {manifest.get('version')}")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"{manifest_path}: missing {', '.join(missing)}")
    views, hashes, bits, lams = (manifest[key] for key in ("views", "files", "bits", "lam"))
    if not (isinstance(views, list) and all(isinstance(v, str) for v in views)
            and isinstance(hashes, dict)):
        raise ValueError(f"{manifest_path}: views must be a list of view names and files an object")
    for ok, rule in (
            (type(bits) is int and bits >= 1, "bits must be an integer >= 1"),
            (type(manifest["seed"]) is int, "seed must be an integer"),
            (manifest["family"] in FAMILIES, f"family must be one of {FAMILIES}"),
            (isinstance(manifest["params"], dict), "params must be an object"),
            (isinstance(lams, list) and len(lams) == len(views)
             and all(type(lam) in (int, float) and 0 < lam < math.inf for lam in lams),
             "lam must list one finite positive number per view")):
        if not ok:
            raise ValueError(f"{manifest_path}: {rule}")
    names, view_names = _layout(len(views))
    for name in names:
        if not (bundle_dir / name).is_file():
            raise ValueError(f"{bundle_dir / name}: missing or not a regular file")
    if verify:
        unhashed = [name for name in names if name not in hashes]
        if unhashed:
            raise ValueError(f"{manifest_path}: no content hash for {', '.join(unhashed)}")
        for name in names:
            if _sha256(bundle_dir / name) != hashes[name]:
                raise ValueError(f"{bundle_dir}/{name}: content hash mismatch")
    split = load_split(bundle_dir / names[0])
    tables = []
    for m, (view, files, lam) in enumerate(zip(views, view_names, lams)):
        model = load_model(bundle_dir / files["model"])
        codes = load_codes(bundle_dir / files["codes"])
        anchor_model = load_anchor_model(bundle_dir / files["anchors"])
        _check_view(model, codes, anchor_model, len(split.database), bits,
                    f"{manifest_path}: view {m}")
        tables.append(_table(view, model, codes, anchor_model, split, lam))
    return MultiViewIndex(tables=tables, split=split, bits=bits, family=manifest["family"],
                          seed=manifest["seed"], params=manifest["params"])


def _check_view(model: HashModel, codes: PackedCodes, anchor_model: AnchorModel, n_db: int,
                bits: int, where: str) -> None:
    """One view's files must agree with each other, the split and the manifest."""
    for what, got, ref, want in (
        ("model bits", model.bits, "manifest bits", bits),
        ("code bits", codes.bits, "manifest bits", bits),
        ("code rows", codes.n, "split database size", n_db),
        ("anchor dim", anchor_model.dim, "model dim", model.dim),
    ):
        if got != want:
            raise ValueError(f"{where}: {what} {got} does not match {ref} {want}")
