"""Acceptance suite: ten end-to-end guarantees, one printed verdict line each.

Each test prints "[criterion NN] PASS/FAIL: <measured numbers>" outside of
pytest's capture so the verdicts always reach the terminal, then asserts
every clause. Configurations and tolerances are pinned; budgets reflect
measured headroom.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from mvhash import (
    QsrfParams,
    QueryParams,
    brute_force_rank,
    build_index,
    calibrate,
    candidate_similarity,
    fuse,
    gen_synthetic,
    ground_truth,
    hamming_query,
    independence_matrix,
    make_split,
    pack_bits,
    qrank_query,
    qsrf_search,
    random_walk,
    ranking_metrics,
    transition_and_restart,
    unpack_bits,
)
from mvhash.anchors import SparseEmbedding
from mvhash.cli import (
    BITS_PRESETS,
    DEFAULT_ALPHA,
    DEFAULT_ANCHORS,
    DEFAULT_BITS,
    DEFAULT_RESTART_MASS,
    DEFAULT_RUNS,
    DEFAULT_TOP_CANDIDATES,
    RunConfig,
)
from mvhash.fusion import CandidateGraph, closed_form_rank
from mvhash.qrank import pairwise_mutual_information, raw_weights, weighted_topk
from references import calibrate_per_step, embed_many


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {verdict}: {detail}", flush=True)


@pytest.fixture(scope="module")
def big_table():
    """Single-view table over a 5000-item database with 100 held-out queries."""
    ds = gen_synthetic(n_clusters=10, per_cluster=510, n_views=1, dim=32,
                       noise=0.8, seed=42)
    split = make_split(ds.n, n_train=150, n_query=100, seed=42)
    assert len(split.database) == 5000
    idx = build_index(ds, split, bits=32, family="lsh", anchors=300, s_nn=5,
                     lam=1.0, seed=42)
    return ds, split, idx.tables[0]


@pytest.fixture(scope="module")
def fusion_index():
    """Two-view index sized for full-depth fused reranking (1400-item database)."""
    ds = gen_synthetic(n_clusters=10, per_cluster=200, n_views=2, dim=32,
                       noise=1.2, seed=0)
    split = make_split(ds.n, n_train=500, n_query=100, seed=0)
    idx = build_index(ds, split, bits=32, family="lsh", anchors=300, s_nn=5,
                     lam=1.0, seed=0)
    return ds, split, idx


def test_criterion_01_rankings_match_exhaustive_oracle(big_table, capsys):
    ds, split, table = big_table
    k = 10
    t0 = time.monotonic()
    mismatches_h = 0
    mismatches_q = 0
    for q in split.query:
        x = ds.views[0].data[q]
        ids_h, _ = hamming_query(table, x, top_n=k)
        res = qrank_query(table, x, QueryParams(gamma=1.0), top_n=k)

        oracle_h = table.db_ids[brute_force_rank(
            table.codes, res.query_words, "hamming", k)]
        oracle_q = table.db_ids[brute_force_rank(
            table.codes, res.query_words, "weighted_hamming", k,
            weights=res.weights.calibrated)]
        mismatches_h += not np.array_equal(ids_h, oracle_h)
        mismatches_q += not np.array_equal(res.ids, oracle_q)
    elapsed = time.monotonic() - t0
    ok = mismatches_h == 0 and mismatches_q == 0 and elapsed < 30.0
    _report(capsys, 1, ok, f"100 queries x 5000 items, top-{k}: "
                   f"{mismatches_h} plain / {mismatches_q} weighted oracle "
                   f"mismatches, {elapsed:.1f}s (budget 30s)")
    assert mismatches_h == 0
    assert mismatches_q == 0
    assert elapsed < 30.0


def test_criterion_02_degenerate_weighting_equals_plain_hamming(big_table, capsys):
    ds, split, table = big_table
    params = QueryParams(gamma=0.0, calibrate=False)
    bad = 0
    for q in split.query[:50]:
        x = ds.views[0].data[q]
        ids_h, dists_h = hamming_query(table, x, top_n=200)
        res = qrank_query(table, x, params, top_n=200)
        same = (np.array_equal(res.ids, ids_h)
                and np.array_equal(res.distances, dists_h.astype(np.float64)))
        bad += not same
    ok = bad == 0
    _report(capsys, 2, ok, f"gamma=0, calibration off: {50 - bad}/50 queries identical "
                   f"to plain Hamming (ids and distances)")
    assert bad == 0


def test_criterion_03_replicator_invariants_and_convergence(capsys):
    ds = gen_synthetic(n_clusters=10, per_cluster=200, n_views=1, dim=32,
                       noise=0.8, seed=42)
    split = make_split(ds.n, n_train=500, n_query=100, seed=42)
    idx = build_index(ds, split, bits=64, family="lsh", anchors=300, s_nn=5,
                     lam=1.0, seed=42)
    table = idx.tables[0]

    # The near-uniform fixed point of these 64-bit instances contracts at
    # roughly 1 - c/64 per replicator step, so the 1e-8 step norm needs a few
    # thousand iterations (worst measured 13823 across seeds); 25000 gives
    # headroom. `calibrate` and the paper's replicator get the same budget.
    budget = 25000
    solvers = {"calibrate": calibrate, "replicator": calibrate_per_step}
    n_converged = dict.fromkeys(solvers, 0)
    worst_sum_err = dict.fromkeys(solvers, 0.0)
    worst_obj_drop = dict.fromkeys(solvers, 0.0)
    max_iters_used = dict.fromkeys(solvers, 0)
    worst_gap = np.inf  # calibrate's final objective minus the replicator's
    for q in split.query[:50]:
        w = raw_weights(table.hash_model, table.anchor_model,
                        ds.views[0].data[q], gamma=1.0, n_landmarks=25)
        final = {}
        for name, solve in solvers.items():
            res = solve(w, table.independence.a, tol=1e-8, max_iters=budget,
                        record_iterates=True)
            arr = np.asarray(res.iterates)
            assert np.all(arr >= 0.0)
            worst_sum_err[name] = max(worst_sum_err[name],
                                      float(np.abs(arr.sum(axis=1) - 1.0).max()))
            diffs = np.diff(np.asarray(res.objectives))
            worst_obj_drop[name] = min(worst_obj_drop[name],
                                       float(diffs.min()) if len(diffs) else 0.0)
            n_converged[name] += res.converged
            max_iters_used[name] = max(max_iters_used[name], res.iterations)
            final[name] = res.objectives[-1]
        worst_gap = min(worst_gap, final["calibrate"] - final["replicator"])

    example = calibrate(np.ones(3),
                        np.array([[0.0, 1.0, 1.0],
                                  [1.0, 0.0, 0.0],
                                  [1.0, 0.0, 0.0]]))
    example_err = float(np.abs(example.pi - np.array([0.5, 0.25, 0.25])).max())

    ok = (all(n == 50 for n in n_converged.values())
          and max(worst_sum_err.values()) <= 1e-9
          and min(worst_obj_drop.values()) >= -1e-12 and worst_gap >= -1e-12
          and example.converged and example_err <= 1e-6)
    per_solver = "; ".join(
        f"{name}: {n_converged[name]}/50 converged within {budget} iterations "
        f"(max used {max_iters_used[name]}), simplex error {worst_sum_err[name]:.1e} "
        f"(tol 1e-9), worst objective step {worst_obj_drop[name]:.1e} (tol -1e-12)"
        for name in solvers)
    _report(capsys, 3, ok, f"50 instances (B=64): {per_solver}; calibrate minus replicator "
                   f"objective >= {worst_gap:.1e} (tol -1e-12), 3-bit fixed point error "
                   f"{example_err:.1e} (tol 1e-6)")
    for name in solvers:
        assert n_converged[name] == 50
        assert worst_sum_err[name] <= 1e-9
        assert worst_obj_drop[name] >= -1e-12
    assert worst_gap >= -1e-12
    assert example.converged
    assert example_err <= 1e-6


def test_criterion_04_walk_matches_closed_form(capsys):
    rng = np.random.default_rng(4242)
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 201))
        density = rng.uniform(0.1, 0.6)
        mask = np.triu(rng.random((n, n)) < density, 1)
        weights = np.triu(rng.random((n, n)), 1) * mask
        g = CandidateGraph(table_id=0, vertices=np.arange(-1, n - 1),
                           edges=sp.csr_matrix(weights + weights.T))
        fused = transition_and_restart(fuse([g]), alpha=0.85,
                                       restart_mass=0.99)
        walk = random_walk(fused, tol=1e-13, max_iters=100000)
        closed = closed_form_rank(fused)
        assert walk.converged
        worst_gap = max(worst_gap, float(np.abs(walk.r - closed.r).max()))
        worst_sum = max(worst_sum,
                        abs(float(walk.r.sum()) - 1.0),
                        abs(float(closed.r.sum()) - 1.0))

    two = CandidateGraph(table_id=0, vertices=np.array([-1, 0]),
                         edges=sp.csr_matrix(np.array([[0.0, 1.0],
                                                       [1.0, 0.0]])))
    fused2 = transition_and_restart(fuse([two]), alpha=0.8, restart_mass=0.99)
    r2 = random_walk(fused2, tol=1e-12, max_iters=10000).r
    two_err = float(np.abs(r2 - np.array([0.5544, 0.4456])).max())

    ok = worst_gap <= 1e-8 and worst_sum <= 1e-8 and two_err <= 1e-4
    _report(capsys, 4, ok, f"50 graphs (2..200 vertices): walk vs direct solve "
                   f"l_inf {worst_gap:.1e} (tol 1e-8), mass error "
                   f"{worst_sum:.1e} (tol 1e-8), 2-vertex fixed point error "
                   f"{two_err:.1e} (tol 1e-4)")
    assert worst_gap <= 1e-8
    assert worst_sum <= 1e-8
    assert two_err <= 1e-4


def test_criterion_05_mutual_information_anchored(capsys):
    rng = np.random.default_rng(5)
    n = 10000
    half = np.repeat([0, 1], n // 2).astype(np.uint8)
    col_a = rng.permutation(half)
    col_b = rng.permutation(half)
    codes = pack_bits(np.stack([col_a, col_b, col_a, 1 - col_a], axis=1))

    mi = pairwise_mutual_information(unpack_bits(codes))
    mi_indep, mi_self, mi_comp = mi[0, 1], mi[0, 2], mi[0, 3]
    err_self = abs(mi_self - np.log(2.0))
    err_comp = abs(mi_comp - np.log(2.0))

    rand_codes = pack_bits(rng.integers(0, 2, size=(2000, 16)).astype(np.uint8))
    a = independence_matrix(rand_codes, lam=1.0).a
    off = a[~np.eye(16, dtype=bool)]
    in_range = bool(np.all(off > 0.0) and np.all(off <= 1.0))

    ok = (mi_indep < 1e-3 and err_self <= 1e-3 and err_comp <= 1e-3
          and in_range)
    _report(capsys, 5, ok, f"n={n}: independent bits MI {mi_indep:.2e} (<1e-3), "
                   f"identical |MI-ln2| {err_self:.2e}, complementary "
                   f"|MI-ln2| {err_comp:.2e} (tol 1e-3), off-diagonal "
                   f"a_ij in (0,1]: {in_range}")
    assert mi_indep < 1e-3
    assert err_self <= 1e-3
    assert err_comp <= 1e-3
    assert in_range


def test_criterion_06_adaptive_weighting_beats_plain_ranking(capsys):
    t0 = time.monotonic()
    depth = 1000
    wins = 0
    margins = []
    for seed in range(10):
        ds = gen_synthetic(n_clusters=10, per_cluster=200, n_views=1, dim=32,
                           noise=0.8, seed=seed)
        split = make_split(ds.n, n_train=500, n_query=200, seed=seed)
        idx = build_index(ds, split, bits=32, family="lsh", anchors=300,
                         s_nn=5, lam=1.0, seed=seed)
        gt = ground_truth(ds.labels, split)
        table = idx.tables[0]
        params = QueryParams(gamma=1.0)
        maps_h, maps_q = [], []
        for q in split.query:
            rel = gt[int(q)]
            if len(rel) == 0:
                continue
            x = ds.views[0].data[q]
            ids_h, _ = hamming_query(table, x, top_n=depth)
            res = qrank_query(table, x, params, top_n=depth)
            maps_h.append(ranking_metrics(ids_h, rel, [], depth)[f"map@{depth}"])
            maps_q.append(ranking_metrics(res.ids, rel, [], depth)[f"map@{depth}"])
        mh, mq = float(np.mean(maps_h)), float(np.mean(maps_q))
        wins += mq >= mh
        margins.append(mq - mh)
    elapsed = time.monotonic() - t0
    ok = wins >= 8 and elapsed < 120.0
    _report(capsys, 6, ok, f"MAP@{depth}, 10 seeds x 200 queries: adaptive >= plain "
                   f"in {wins}/10 (need 8), margins "
                   f"[{min(margins):+.3f}, {max(margins):+.3f}], "
                   f"{elapsed:.0f}s (budget 120s)")
    assert wins >= 8
    assert elapsed < 120.0


def test_criterion_07_fused_reranking_beats_single_views(capsys):
    t0 = time.monotonic()
    top_n = 1000
    wins = 0
    margins = []
    for seed in range(10):
        ds = gen_synthetic(n_clusters=10, per_cluster=200, n_views=2, dim=32,
                           noise=1.2, seed=seed)
        split = make_split(ds.n, n_train=500, n_query=100, seed=seed)
        idx = build_index(ds, split, bits=32, family="lsh", anchors=300,
                         s_nn=5, lam=1.0, seed=seed)
        gt = ground_truth(ds.labels, split)
        qp = QueryParams(gamma=1.0)
        fp = QsrfParams(top_n=top_n, query=qp)
        ap = {"qsrf": [], "view0": [], "view1": []}
        for q in split.query:
            rel = gt[int(q)]
            if len(rel) == 0:
                continue
            xs = [v.data[q] for v in ds.views]
            for m in (0, 1):
                r = qrank_query(idx.tables[m], xs[m], qp, top_n=top_n)
                ap[f"view{m}"].append(
                    ranking_metrics(r.ids, rel, [10], 10)["ap@10"])
            res = qsrf_search(idx, xs, fp)
            ap["qsrf"].append(ranking_metrics(res.ids, rel, [10], 10)["ap@10"])
        means = {k: float(np.mean(v)) for k, v in ap.items()}
        best_single = max(means["view0"], means["view1"])
        wins += means["qsrf"] >= best_single
        margins.append(means["qsrf"] - best_single)
    elapsed = time.monotonic() - t0
    ok = wins >= 8 and elapsed < 180.0
    _report(capsys, 7, ok, f"AP@10, 10 seeds x 100 queries: fused >= best single view "
                   f"in {wins}/10 (need 8), margins "
                   f"[{min(margins):+.3f}, {max(margins):+.3f}], "
                   f"{elapsed:.0f}s (budget 180s)")
    assert wins >= 8
    assert elapsed < 180.0


def test_criterion_08_structural_invariants(fusion_index, capsys):
    ds, split, idx = fusion_index
    table = idx.tables[0]

    # Anchor embedding rows are stochastic with exactly s_nn entries.
    z = embed_many(table.anchor_model, ds.views[0].data[split.database[:200]])
    row_err = float(np.abs(z.values.sum(axis=1) - 1.0).max())
    shape_ok = z.indices.shape[1] == table.anchor_model.s_nn
    nonneg_ok = bool(np.all(z.values >= 0.0))

    # Candidate similarity is exactly symmetric.
    rng = np.random.default_rng(88)
    vals = rng.random((10, 4))
    vals /= vals.sum(axis=1, keepdims=True)
    emb = SparseEmbedding(
        indices=np.array([rng.choice(12, 4, replace=False) for _ in range(10)],
                         dtype=np.int32),
        values=vals)
    s = candidate_similarity(emb, n_anchors=12)[0].tocsr()
    sym_gap = (s - s.T)
    sym_ok = sym_gap.nnz == 0 or float(np.abs(sym_gap.data).max()) == 0.0

    # Superposition sums shared edges exactly; one graph fuses to itself.
    def graph(vertices, entries):
        mat = sp.lil_matrix((len(vertices), len(vertices)))
        for i, j, w in entries:
            mat[i, j] = w
            mat[j, i] = w
        return CandidateGraph(table_id=0, vertices=np.asarray(vertices),
                              edges=mat.tocsr())

    g1 = graph([-1, 3, 5], [(0, 2, 0.25), (1, 2, 0.5)])
    g2 = graph([-1, 5, 9], [(0, 1, 0.25), (0, 2, 0.125)])
    fused = fuse([g1, g2])
    sum_ok = (np.array_equal(fused.vertices, [-1, 3, 5, 9])
              and fused.omega[0, 2] == 0.25 + 0.25  # (-1,5) from both graphs
              and fused.omega[0, 1] == 0.0          # (-1,3) absent in both
              and fused.omega[1, 2] == 0.5          # (3,5) from g1 only
              and fused.omega[0, 3] == 0.125)       # (-1,9) from g2 only
    single = fuse([g1])
    single_ok = (np.array_equal(single.vertices, g1.vertices)
                 and (single.omega != g1.edges).nnz == 0)

    # Scaling calibrated weights by a positive constant permutes nothing.
    bits = table.hash_model.bits
    w = rng.integers(1, 64, size=bits).astype(np.float64) / 32.0  # dyadic
    qwords = table.codes.words[7]
    base = weighted_topk(table.codes, qwords, w, k=table.codes.n)[0]
    scaled = weighted_topk(table.codes, qwords, 4.0 * w, k=table.codes.n)[0]
    scale_ok = np.array_equal(base, scaled)

    ok = (row_err <= 1e-12 and shape_ok and nonneg_ok and sym_ok and sum_ok
          and single_ok and scale_ok)
    _report(capsys, 8, ok, f"embedding rows stochastic (err {row_err:.1e}, s_nn "
                   f"{'ok' if shape_ok else 'BAD'}), similarity exactly "
                   f"symmetric: {sym_ok}, superposition sums: {sum_ok}, "
                   f"single-graph identity: {single_ok}, weight-scaling "
                   f"ranking invariance: {scale_ok}")
    assert row_err <= 1e-12
    assert shape_ok and nonneg_ok
    assert sym_ok
    assert sum_ok
    assert single_ok
    assert scale_ok


def test_criterion_09_default_parameters(capsys):
    cfg = RunConfig()
    qsrf = QsrfParams()
    qp = QueryParams()
    checks = {
        "anchors K=300": DEFAULT_ANCHORS == 300 and cfg.anchors == 300,
        "candidates N=1000": (DEFAULT_TOP_CANDIDATES == 1000
                              and cfg.top_candidates == 1000
                              and qsrf.top_n == 1000),
        "restart mass 0.99": (DEFAULT_RESTART_MASS == 0.99
                              and cfg.restart_mass == 0.99
                              and qsrf.restart_mass == 0.99),
        "alpha 0.85 in (0.8,1)": (DEFAULT_ALPHA == 0.85
                                  and 0.8 < DEFAULT_ALPHA < 1.0
                                  and cfg.alpha == 0.85
                                  and qsrf.alpha == 0.85),
        "bit presets 48/96": (BITS_PRESETS == (48, 96)
                              and DEFAULT_BITS == 48 and cfg.bits == 48),
        "eval runs 10": DEFAULT_RUNS == 10 and cfg.runs == 10,
        "gamma 1.0": qp.gamma == 1.0,
        "landmarks 25": qp.n_landmarks == 25 and cfg.landmarks == 25,
        "calibration 1e-8/1000": (qp.calib_tol == 1e-8
                                  and qp.calib_max_iters == 1000),
    }
    bad = [name for name, good in checks.items() if not good]
    ok = not bad
    _report(capsys, 9, ok, "defaults: " + (", ".join(checks) if ok
                                   else "WRONG: " + ", ".join(bad)))
    assert not bad


def test_criterion_10_per_query_latency(fusion_index, capsys):
    ds, split, idx = fusion_index
    params = QsrfParams(top_n=1000, query=QueryParams(gamma=1.0))
    assert idx.n_views == 2
    assert idx.tables[0].anchor_model.k == 300

    times = []
    for q in split.query[:20]:
        xs = [v.data[q] for v in ds.views]
        t0 = time.perf_counter()
        qsrf_search(idx, xs, params)
        times.append(time.perf_counter() - t0)
    worst = max(times)
    median = float(np.median(times))
    ok = worst < 0.25
    _report(capsys, 10, ok, f"fused query (2 views, 1000 candidates, 300 anchors): "
                    f"median {median * 1000:.0f}ms, worst "
                    f"{worst * 1000:.0f}ms over 20 queries (budget 250ms)")
    assert worst < 0.25
