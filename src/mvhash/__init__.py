"""Multi-view binary hashing search with query-adaptive bit weighting and
graph-based rank fusion."""

from .anchors import build_anchors
from .dataset import (MultiViewDataset, VectorView, gen_synthetic, ground_truth, load_vectors,
                      make_split, save_vectors)
from .fusion import (CandidateGraph, QsrfParams, build_candidate_graph, candidate_embedding,
                     candidate_similarity, closed_form_rank, fuse, qsrf_search, random_walk,
                     transition_and_restart)
from .hashing import encode, encode_one, hamming_scan, pack_bits, train, unpack_bits
from .index import MultiViewIndex, build_index, load_bundle, save_bundle
from .metrics import (average_precision, brute_force_rank, map_score, pr_curve, precision_at_k,
                      ranking_metrics, recall_at_k)
from .qrank import (BitWeights, QRankResult, QueryParams, calibrate, hamming_query,
                    independence_matrix, qrank_query, raw_weights, weighted_hamming_scan)

__version__ = "0.1.0"

__all__ = [
    "BitWeights", "CandidateGraph", "MultiViewDataset", "MultiViewIndex", "QRankResult",
    "QsrfParams", "QueryParams", "VectorView", "average_precision", "brute_force_rank",
    "build_anchors", "build_candidate_graph", "build_index", "calibrate",
    "candidate_embedding", "candidate_similarity", "closed_form_rank", "encode",
    "encode_one", "fuse", "gen_synthetic", "ground_truth", "hamming_query", "hamming_scan",
    "independence_matrix", "load_bundle", "load_vectors", "make_split", "map_score",
    "pack_bits", "pr_curve", "precision_at_k", "qrank_query", "qsrf_search", "random_walk",
    "ranking_metrics", "raw_weights", "recall_at_k", "save_bundle", "save_vectors", "train",
    "transition_and_restart", "unpack_bits", "weighted_hamming_scan",
]
