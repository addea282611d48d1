"""The offline build's memory: bounded by blocks and codes, not by a database slice or n."""

import tracemalloc

import numpy as np

from mvhash import build_anchors, build_index, gen_synthetic, make_split
from mvhash.hashing import encode, train

MB = 2**20


def traced_peak(fn):
    """(fn(), the most bytes fn held at once beyond what was live when it began),
    as tracemalloc sees NumPy's and Python's allocations."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_encode_peak_does_not_grow_with_n():
    # One-shot, 80k rows x 64 bits would hold two (n, 64) float64 products
    # (78 MB); a block of rows holds under 10 MB beside the packed words.
    rng = np.random.default_rng(0)
    x = rng.normal(size=(80_000, 32))
    model = train("lsh", x[:1000], 64, seed=1)
    _, peak = traced_peak(lambda: encode(model, x))
    assert peak < 16 * MB


def test_build_index_holds_no_database_slice():
    # Each view is encoded once, a block at a time, and random anchors gather
    # the database rows they draw: the build holds encode blocks, the codes
    # and the index it returns (about 0.4 of a slice here), not the 19.5 MB
    # slice it gathered before.
    ds = gen_synthetic(n_clusters=10, per_cluster=8000, n_views=2, dim=32)
    split = make_split(ds.n, n_train=500, n_query=200, seed=1)
    slice_bytes = len(split.database) * ds.views[0].data[0].nbytes
    _, peak = traced_peak(lambda: build_index(ds, split, bits=48, family="lsh", anchors=100,
                                              seed=1))
    assert peak < 0.6 * slice_bytes


def test_kmeans_anchors_hold_blocks_not_n_by_k_screens():
    # 20k x 32 points, 300 centres. Screen blocks of SCREEN_ENTRIES entries,
    # a screened seeding and a grouped update hold one data-sized difference
    # (the first centre's) and a few (n,) vectors; a 2048 x 300 screen and
    # its temporaries alone would hold about 3x the data.
    data = gen_synthetic(n_clusters=20, per_cluster=1000, n_views=1, dim=32, noise=0.8,
                         seed=7).views[0].data
    _, peak = traced_peak(lambda: build_anchors(data, 300, method="kmeans", seed=1))
    assert peak < 2 * data.nbytes


def test_gen_synthetic_adds_its_noise_in_place():
    # base + noise as a new array would peak at about twice the output
    ds, peak = traced_peak(lambda: gen_synthetic(n_clusters=10, per_cluster=8000, n_views=2,
                                                 dim=32))
    assert peak < 1.75 * sum(view.data.nbytes for view in ds.views)
