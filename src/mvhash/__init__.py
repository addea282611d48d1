"""Multi-view binary hashing search with query-adaptive bit weighting and
graph-based rank fusion."""

from .anchors import (AnchorModel, build_anchors, embed, embed_many,
                      load_anchor_model, query_neighbor_profile, save_anchor_model,
                      similarity)
from .dataset import (DatasetSplit, MultiViewDataset, VectorView, gen_synthetic,
                      ground_truth, load_labels, load_vectors, make_split,
                      save_labels, save_vectors)
from .fusion import (CandidateGraph, FusedGraph, QsrfParams, QsrfResult, RankScores,
                     SimilarityFactors, build_candidate_graph, candidate_embedding,
                     candidate_similarity, closed_form_rank, fuse, qsrf_search, random_walk,
                     transition_and_restart)
from .hashing import (FAMILIES, HashModel, PackedCodes, encode, encode_one, hamming,
                      hamming_rank, hamming_scan, load_codes, load_model, pack_bits,
                      save_codes, save_model, train, unpack_bits)
from .index import MultiViewIndex, build_index, load_bundle, save_bundle
from .metrics import (Metrics, average_precision, brute_force_rank, map_score,
                      pr_curve, precision_at_k, ranking_metrics, recall_at_k)
from .qrank import (BitWeights, CalibrationResult, HashTable, IndependenceMatrix,
                    QRankResult, QueryParams, calibrate, hamming_query,
                    independence_matrix, mutual_information,
                    pairwise_mutual_information, qrank_query, raw_weights,
                    weighted_hamming, weighted_hamming_scan, weighted_rank)

__version__ = "0.1.0"

__all__ = [
    "AnchorModel", "BitWeights", "CalibrationResult", "CandidateGraph",
    "DatasetSplit", "FAMILIES", "FusedGraph", "HashModel", "HashTable",
    "IndependenceMatrix", "Metrics", "MultiViewDataset", "MultiViewIndex",
    "PackedCodes", "QRankResult", "QsrfParams", "QsrfResult", "QueryParams",
    "RankScores", "SimilarityFactors", "VectorView", "average_precision",
    "brute_force_rank", "build_anchors", "build_candidate_graph", "build_index", "calibrate",
    "candidate_embedding", "candidate_similarity", "closed_form_rank", "embed",
    "embed_many", "encode", "encode_one", "fuse", "gen_synthetic", "ground_truth",
    "hamming", "hamming_query", "hamming_rank", "hamming_scan",
    "independence_matrix", "load_anchor_model", "load_bundle", "load_codes",
    "load_labels", "load_model", "load_vectors", "make_split", "map_score",
    "mutual_information", "pack_bits", "pairwise_mutual_information", "pr_curve",
    "precision_at_k", "qrank_query", "qsrf_search", "query_neighbor_profile",
    "random_walk", "ranking_metrics", "raw_weights", "recall_at_k", "save_anchor_model",
    "save_bundle", "save_codes", "save_labels", "save_model", "save_vectors",
    "similarity", "train", "transition_and_restart", "unpack_bits",
    "weighted_hamming", "weighted_hamming_scan", "weighted_rank",
]
