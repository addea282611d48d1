"""Multi-view index: offline build over all views and the on-disk bundle format.

A bundle is a directory holding per-view artifacts (hash model, database
codes, anchors, independence matrix) plus the split and a manifest.json that
records file names, sha256 content hashes, and the build parameters. Builds
are deterministic: the same data and seed reproduce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .anchors import build_anchors, load_anchor_model, save_anchor_model
from .binfile import BinaryReader
from .dataset import DatasetSplit, MultiViewDataset
from .hashing import PackedCodes, encode, load_codes, load_model, save_codes, save_model, train
from .qrank import HashTable, independence_matrix, load_independence, save_independence

MAGIC_SPLIT = b"MVHS"
MANIFEST_NAME = "manifest.json"
BUNDLE_FORMAT = "mvhash-bundle"
BUNDLE_VERSION = 2
MANIFEST_KEYS = ("files", "views", "split", "bits", "family", "seed")
VIEW_FILES = ("model", "codes", "anchors", "independence")


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
    view once, pick anchors among the database rows, and compute the
    bit-independence matrix on the training codes.

    The database and training codes are row selections of the view's codes,
    and random anchors gather the database rows they need by id, so beyond
    the corpus a view holds one encode block and its codes, not a database
    slice (k-means anchors gather the database rows once, as they use all).
    """
    tables = []
    for m, view in enumerate(dataset.views):
        model = train(family, view.data[split.train], bits, seed=_view_seed(seed, m, 1),
                      itq_iters=itq_iters)
        codes = encode(model, view.data)
        anchor_model = build_anchors(
            view.data, anchors, method=anchor_method, s_nn=s_nn,
            seed=_view_seed(seed, m, 2), hash_model=model, rows=split.database,
        )
        indep = independence_matrix(PackedCodes(codes.words[split.train], bits), lam=lam)
        db_codes = PackedCodes(codes.words[split.database], bits)
        tables.append(HashTable(
            name=view.name,
            hash_model=model,
            codes=db_codes,
            db_ids=split.database.astype(np.int64),
            anchor_model=anchor_model,
            independence=indep,
        ))
    return MultiViewIndex(tables=tables, split=split, bits=bits, family=family,
                          seed=seed, params=params or {})


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


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def save_bundle(index: MultiViewIndex, bundle_dir: Union[str, Path]) -> Path:
    """Write all artifacts plus manifest.json; returns the manifest path."""
    bundle_dir = Path(bundle_dir)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}

    split_name = "split.bin"
    save_split(bundle_dir / split_name, index.split)
    files[split_name] = _sha256(bundle_dir / split_name)

    views = []
    for m, table in enumerate(index.tables):
        names = {
            "model": f"view{m}.model.bin",
            "codes": f"view{m}.codes.bin",
            "anchors": f"view{m}.anchors.bin",
            "independence": f"view{m}.indep.bin",
        }
        save_model(bundle_dir / names["model"], table.hash_model)
        save_codes(bundle_dir / names["codes"], table.codes)
        save_anchor_model(bundle_dir / names["anchors"], table.anchor_model)
        save_independence(bundle_dir / names["independence"], table.independence)
        for f in names.values():
            files[f] = _sha256(bundle_dir / f)
        views.append({"name": table.name, "files": names})

    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "bits": index.bits,
        "family": index.family,
        "seed": index.seed,
        "n_views": index.n_views,
        "views": views,
        "split": split_name,
        "files": files,
        "params": index.params,
    }
    path = bundle_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_bundle(bundle_dir: Union[str, Path], verify: bool = True) -> MultiViewIndex:
    """Load a bundle directory; verifies content hashes unless verify=False."""
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
    if not (isinstance(manifest["views"], list) and isinstance(manifest["files"], dict)
            and isinstance(manifest["split"], str)):
        raise ValueError(f"{manifest_path}: views must be a list, files an object and "
                         f"split a file name")
    for m, view in enumerate(manifest["views"]):
        names = view.get("files") if isinstance(view, dict) else None
        if not (isinstance(names, dict) and all(isinstance(names.get(k), str) for k in VIEW_FILES)):
            raise ValueError(f"{manifest_path}: view {m} needs a files object naming its "
                             f"{', '.join(VIEW_FILES)} files")
    if verify:
        loaded = [manifest["split"]]
        loaded += [view["files"][key] for view in manifest["views"] for key in VIEW_FILES]
        unhashed = sorted(set(loaded) - set(manifest["files"]))
        if unhashed:
            raise ValueError(f"{manifest_path}: no content hash for {', '.join(unhashed)}")
        for name, digest in manifest["files"].items():
            actual = _sha256(bundle_dir / name)
            if actual != digest:
                raise ValueError(f"{bundle_dir}/{name}: content hash mismatch")
    split = load_split(bundle_dir / manifest["split"])
    tables = []
    for m, view in enumerate(manifest["views"]):
        names = view["files"]
        table = HashTable(
            name=view.get("name", f"view{m}"),
            hash_model=load_model(bundle_dir / names["model"]),
            codes=load_codes(bundle_dir / names["codes"]),
            db_ids=split.database.astype(np.int64),
            anchor_model=load_anchor_model(bundle_dir / names["anchors"]),
            independence=load_independence(bundle_dir / names["independence"]),
        )
        _check_table(table, manifest["bits"], f"{manifest_path}: view {m}")
        tables.append(table)
    return MultiViewIndex(
        tables=tables,
        split=split,
        bits=manifest["bits"],
        family=manifest["family"],
        seed=manifest["seed"],
        params=manifest.get("params", {}),
    )


def _check_table(table: HashTable, bits: int, where: str) -> None:
    """One view's files must agree with each other, the split and the manifest."""
    for what, got, ref, want in (
        ("model bits", table.hash_model.bits, "manifest bits", bits),
        ("code bits", table.codes.bits, "manifest bits", bits),
        ("anchor code bits", table.anchor_model.anchor_codes.bits, "manifest bits", bits),
        ("independence size", table.independence.a.shape[0], "manifest bits", bits),
        ("code rows", table.codes.n, "split database size", len(table.db_ids)),
        ("anchor dim", table.anchor_model.dim, "model dim", table.hash_model.dim),
    ):
        if got != want:
            raise ValueError(f"{where}: {what} {got} does not match {ref} {want}")
