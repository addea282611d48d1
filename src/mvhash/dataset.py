"""Multi-view vector datasets: file formats, splits, ground truth, synthetic data.

A dataset is a list of views over the same items. Each view stores one dense
float matrix of shape (n_items, dim); dims may differ across views but every
view must cover the same n_items in the same order. Item ids are row indices.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .binfile import BinaryReader

MAGIC_VECTORS = b"MVH1"


@dataclass
class VectorView:
    """One view of the data: (n, d) float64 matrix plus a view name."""

    name: str
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"view {self.name!r}: expected a 2-d matrix, got ndim={self.data.ndim}")
        if not np.all(np.isfinite(self.data)):
            bad = int(np.argwhere(~np.isfinite(self.data).all(axis=1))[0, 0])
            raise ValueError(f"view {self.name!r}: non-finite value in row {bad}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class MultiViewDataset:
    """Views over one item set, with an optional label per item.

    All views must have identical n; a mismatch is a constructor error.
    Labels may be a 1-d int array (single label per item) or a list whose
    entries are collections of int tags (multi-label).
    """

    views: list[VectorView]
    labels: Optional[Sequence] = None

    def __post_init__(self):
        if not self.views:
            raise ValueError("dataset needs at least one view")
        n0 = self.views[0].n
        for v in self.views[1:]:
            if v.n != n0:
                raise ValueError(
                    f"view {v.name!r} has {v.n} items but view {self.views[0].name!r} has {n0}"
                )
        if self.labels is not None and len(self.labels) != n0:
            raise ValueError(f"got {len(self.labels)} labels for {n0} items")

    @property
    def n(self) -> int:
        return self.views[0].n

    @property
    def n_views(self) -> int:
        return len(self.views)


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint query set plus train subset; database is everything not queried.

    Every train id is a database id (training items stay searchable, and a
    table's independence matrix is derived from their database codes);
    queries are excluded from the database. All three arrays hold global item
    ids, sorted ascending; an array out of order, a query id in the database
    or a train id outside it is a ValueError.
    """

    train: np.ndarray
    query: np.ndarray
    database: np.ndarray

    def __post_init__(self):
        for name in ("train", "query", "database"):
            if (np.diff(getattr(self, name)) <= 0).any():
                raise ValueError(f"{name} ids must be strictly ascending")
        db, query, train = self.database, self.query, self.train
        # all sorted: an id in db is where searchsorted puts it
        query_in_db, train_in_db = (
            db[np.minimum(np.searchsorted(db, ids), len(db) - 1)] == ids if len(db)
            else np.zeros(len(ids), dtype=bool) for ids in (query, train))
        if query_in_db.any():
            raise ValueError(f"query id {query[query_in_db.argmax()]} is also a database id")
        if not train_in_db.all():
            raise ValueError(f"train id {train[train_in_db.argmin()]} is not a database id")


def save_vectors(path: Union[str, Path], data: np.ndarray) -> None:
    """Write an (n, d) matrix in the binary vector format.

    Layout: magic "MVH1", u32 n, u32 d, then n*d little-endian float32 values
    row-major. Values are cast to float32 on write; a row that is not finite
    as float32 (beyond its range, or inf or nan) is a ValueError naming it,
    and no file is written.
    """
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(data, dtype="<f4")
    if data.ndim != 2:
        raise ValueError("save_vectors expects a 2-d matrix")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: row {bad[0]} is not finite as float32")
    n, d = data.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC_VECTORS)
        fh.write(struct.pack("<II", n, d))
        fh.write(data.tobytes())


def _load_vectors_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise ValueError(f"{path}: row {i} has {len(parts)} values, expected {width}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
            if not all(np.isfinite(vals)):
                raise ValueError(f"{path}: non-finite value in row {i}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def load_vectors(path: Union[str, Path]) -> np.ndarray:
    """Load a vector matrix: CSV if the extension is .csv, the binary format otherwise.

    CSV uses comma separators and '.' decimals. Non-finite values are
    rejected with the offending row index.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_vectors_csv(path)
    rd = BinaryReader(path, MAGIC_VECTORS, "vectors", version=None)
    n, d = rd.header("<II")
    data = rd.done(rd.array("<f4", n, d).astype(np.float64))
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.isfinite(data).all(axis=1))[0, 0])
        raise ValueError(f"{path}: non-finite value in row {bad}")
    return data


def load_labels(path: Union[str, Path]) -> np.ndarray:
    """Read one integer label per line; blank lines are not allowed mid-file."""
    labels = []
    with open(path, "r") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError:
                raise ValueError(f"{path}: row {i}: not an integer label: {line!r}") from None
    return np.asarray(labels, dtype=np.int64)


def save_labels(path: Union[str, Path], labels: Sequence[int]) -> None:
    with open(path, "w") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def make_split(n: int, n_train: int, n_query: int, seed: int) -> DatasetSplit:
    """Deterministic train/query/database split of item ids 0..n-1.

    A seeded permutation assigns the first n_train ids to train and the next
    n_query to query. The database is every id not in query, so train items
    remain searchable and sizes come out (n_train, n_query, n - n_query).
    """
    if n_train < 0 or n_query < 0:
        raise ValueError("split sizes must be nonnegative")
    if n_train + n_query > n:
        raise ValueError(f"n_train + n_query = {n_train + n_query} exceeds n = {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train = np.sort(perm[:n_train])
    query = np.sort(perm[n_train:n_train + n_query])
    mask = np.ones(n, dtype=bool)
    mask[query] = False
    database = np.flatnonzero(mask)
    return DatasetSplit(train=train, query=query, database=database)


def _as_tag_set(label) -> frozenset:
    if isinstance(label, (set, frozenset, list, tuple, np.ndarray)):
        return frozenset(int(t) for t in label)
    return frozenset((int(label),))


def ground_truth(labels: Sequence, split: DatasetSplit) -> dict[int, np.ndarray]:
    """Map each query id to the database ids sharing at least one label tag.

    Single labels match on equality; multi-label entries match when the tag
    sets intersect. Queries themselves are never relevant (they are not in
    the database). Empty relevant sets are kept as empty arrays; metric code
    decides how to treat them.
    """
    if labels is None:
        raise ValueError("ground truth requires labels")
    labels = list(labels)
    single = all(not isinstance(l, (set, frozenset, list, tuple, np.ndarray)) for l in labels)
    out: dict[int, np.ndarray] = {}
    if single:
        arr = np.asarray([int(l) for l in labels], dtype=np.int64)
        db_labels = arr[split.database]
        for q in split.query:
            out[int(q)] = split.database[db_labels == arr[q]]
        return out
    tag_sets = [_as_tag_set(l) for l in labels]
    db_tags = [tag_sets[i] for i in split.database]
    for q in split.query:
        qt = tag_sets[q]
        hits = [i for i, t in zip(split.database, db_tags) if qt & t]
        out[int(q)] = np.asarray(hits, dtype=np.int64)
    return out


def gen_synthetic(
    n_clusters: int = 10,
    per_cluster: int = 200,
    n_views: int = 2,
    dim: int = 32,
    noise: float = 0.3,
    seed: int = 0,
) -> MultiViewDataset:
    """Clustered Gaussian data where views share structure but not noise.

    One set of cluster centers is drawn once; every view applies its own
    random orthogonal rotation to the centers and adds its own Gaussian
    noise, so views agree on cluster membership while disagreeing in detail.
    Labels are cluster ids. With noise=0 all members of a cluster coincide.
    """
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, dim))
    labels = np.repeat(np.arange(n_clusters), per_cluster)
    n = n_clusters * per_cluster
    views = []
    for v in range(n_views):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        pts = centers[labels] @ q.T
        if noise > 0:
            pts += rng.normal(scale=noise, size=(n, dim))  # in place: no third (n, dim) array
        views.append(VectorView(name=f"view{v}", data=pts))
    return MultiViewDataset(views=views, labels=labels)
