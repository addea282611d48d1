"""Traced replays of the library's build and query pipelines.

Each replay calls the same public functions, in the same order and with the
same arguments, as `build_index`, `qrank_query`, `hamming_query` and
`qsrf_search`, and records a span around every call. The benchmark checks
that a replay's output equals the library call's output, so the spans
describe the program that is timed, not a look-alike.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from mvhash import (BitWeights, CandidateGraph, MultiViewIndex, QRankResult, build_anchors,
                    calibrate, candidate_embedding, candidate_similarity, encode, encode_one,
                    fuse, hamming_scan, independence_matrix, random_walk, raw_weights, train,
                    transition_and_restart, weighted_hamming_scan)
from mvhash.fusion import QUERY_VERTEX
from mvhash.index import _view_seed  # build_index's per-(view, stage) seeds
from mvhash.qrank import HashTable


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, query id).

    Spans nest by call order; the innermost open span is the parent of the
    next one opened. Nothing is written until `write` is called.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, query=None):
        """Time the body as span `name`; yields the span id."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start - self._t0, end - self._t0, parent, query)

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every closed span called `name`, in call order."""
        return [s[3] - s[2] for s in self.spans if s is not None and s[1] == name]

    def leaf_total(self, sid: int) -> float:
        """Seconds covered by the leaf spans nested inside span `sid`.

        Spans are stored in opening order, so the descendants of a closed span
        are exactly the spans opened after it and before it closed.
        """
        end = self.spans[sid][3]
        inner = [s for s in self.spans[sid + 1:] if s is not None and s[2] < end]
        parents = {s[4] for s in inner}
        return sum(s[3] - s[2] for s in inner if s[0] not in parents)

    def write(self, path) -> None:
        """One JSON object per span, in opening order."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, query in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "query": query}) + "\n")


def staged_build(tr: Tracer, dataset, split, bits, family, anchors, anchor_method, seed,
                 s_nn=5, lam=1.0, itq_iters=50, tag=None) -> MultiViewIndex:
    """`build_index`, one traced call per stage and view."""
    tables = []
    for m, view in enumerate(dataset.views):
        with tr.span("hashing.train", tag):
            model = train(family, view.data[split.train], bits, seed=_view_seed(seed, m, 1),
                          itq_iters=itq_iters)
        with tr.span("hashing.encode", tag):
            db_codes = encode(model, view.data[split.database])
        with tr.span("anchors.build", tag):
            anchor_model = build_anchors(view.data[split.database], anchors, method=anchor_method,
                                         s_nn=s_nn, seed=_view_seed(seed, m, 2), hash_model=model)
        with tr.span("hashing.encode", tag):
            train_codes = encode(model, view.data[split.train])
        with tr.span("qrank.independence", tag):
            indep = independence_matrix(train_codes, lam=lam)
        tables.append(HashTable(name=view.name, hash_model=model, codes=db_codes,
                                db_ids=split.database.astype(np.int64),
                                anchor_model=anchor_model, independence=indep))
    return MultiViewIndex(tables=tables, split=split, bits=bits, family=family, seed=seed,
                          params={})


def _topk(dist: np.ndarray, top_n: int) -> np.ndarray:
    return np.argsort(dist, kind="stable")[: min(top_n, len(dist))]


def hamming(tr: Tracer, table, query, top_n, qid):
    """`hamming_query`; returns (global ids, distances)."""
    with tr.span("hashing.encode_one", qid):
        query_words = encode_one(table.hash_model, np.asarray(query, np.float64))
    with tr.span("hashing.hamming_scan", qid):
        dist = hamming_scan(table.codes, query_words)
    with tr.span("hamming.topk", qid):
        order = _topk(dist, top_n)
    return table.db_ids[order], dist[order]


def qrank(tr: Tracer, table, query, params, top_n, qid):
    """`qrank_query` with calibration on; returns (QRankResult, CalibrationResult)."""
    if not params.calibrate:
        raise ValueError("the replay follows qrank_query's calibrated path only")
    with tr.span("qrank.raw_weights", qid):
        w = raw_weights(table.hash_model, table.anchor_model, query,
                        gamma=params.gamma, n_landmarks=params.n_landmarks)
    with tr.span("qrank.calibrate", qid):
        cal = calibrate(w, table.independence, tol=params.calib_tol,
                        max_iters=params.calib_max_iters)
    with tr.span("hashing.encode_one", qid):
        query_words = encode_one(table.hash_model, np.asarray(query, np.float64))
    with tr.span("qrank.scan", qid):
        dist = weighted_hamming_scan(table.codes, query_words, cal.calibrated)
    with tr.span("qrank.topk", qid):
        order = _topk(dist, top_n)
    weights = BitWeights(raw=w, pi=cal.pi, calibrated=cal.calibrated, gamma=params.gamma)
    res = QRankResult(ids=table.db_ids[order], local_ids=order, distances=dist[order],
                      weights=weights, query_words=query_words)
    return res, cal


def qsrf(tr: Tracer, index, query_views, params, qid):
    """`qsrf_search`; returns (ids, per-view CalibrationResults, graphs, fused graph, walk)."""
    graphs, cals = [], []
    for m, (table, qv) in enumerate(zip(index.tables, query_views)):
        with tr.span("qrank", qid):
            res, cal = qrank(tr, table, qv, params.query, params.top_n, qid)
        cals.append(cal)
        with tr.span("fusion.candidate_embedding", qid):
            cand_words = np.vstack([res.query_words[None, :], table.codes.words[res.local_ids]])
            z = candidate_embedding(cand_words, table.anchor_model.anchor_codes,
                                    table.hash_model.bits, res.weights.calibrated,
                                    table.anchor_model.s_nn)
        with tr.span("fusion.candidate_similarity", qid):
            s, isolated = candidate_similarity(z, table.anchor_model.k)
        graphs.append(CandidateGraph(table_id=m, vertices=np.concatenate(([QUERY_VERTEX], res.ids)),
                                     edges=s, isolated=isolated))
    with tr.span("fusion.fuse", qid):
        fused = fuse(graphs)
    with tr.span("fusion.transition", qid):
        fused = transition_and_restart(fused, alpha=params.alpha, restart_mass=params.restart_mass)
    with tr.span("fusion.walk", qid):
        walk = random_walk(fused, tol=params.walk_tol, max_iters=params.walk_max_iters)
    keep = fused.vertices != QUERY_VERTEX
    ids, scores = fused.vertices[keep], walk.r[keep]
    return ids[np.lexsort((ids, -scores))], cals, graphs, fused, walk
