"""Tests for retrieval metrics and the exhaustive ranking oracle."""

import numpy as np
import pytest

from mvhash import (
    average_precision,
    brute_force_rank,
    map_score,
    pack_bits,
    pr_curve,
    precision_at_k,
    ranking_metrics,
    recall_at_k,
)


def _reference_ap(ranked, relevant, k_cut):
    """Independent truncated-AP computation used to cross-check the library."""
    rel = set(relevant)
    hits = 0
    total = 0.0
    for i, item in enumerate(ranked[:k_cut], start=1):
        if item in rel:
            hits += 1
            total += hits / i
    return total / min(len(rel), k_cut)


# ------------------------------------------------------------ hand values


def test_precision_at_k_hand_values():
    ranked = [3, 1, 4, 1, 5]
    relevant = {1, 5}
    assert precision_at_k(ranked, relevant, 1) == 0.0
    assert precision_at_k(ranked, relevant, 2) == 0.5
    assert precision_at_k(ranked, relevant, 5) == pytest.approx(3 / 5)


def test_recall_at_k_hand_values():
    ranked = [3, 1, 4, 2, 5]
    relevant = {1, 5, 9}
    assert recall_at_k(ranked, relevant, 2) == pytest.approx(1 / 3)
    assert recall_at_k(ranked, relevant, 5) == pytest.approx(2 / 3)


def test_short_list_tail_counts_as_misses():
    assert precision_at_k([1], {1, 2}, 4) == 0.25
    assert recall_at_k([1], {1, 2}, 4) == 0.5


def test_average_precision_hand_value():
    # Hits at ranks 1 and 3 of the cut list; |relevant| = 2.
    ranked = [7, 4, 8, 5]
    relevant = {7, 8}
    expected = (1 / 1 + 2 / 3) / 2
    assert average_precision(ranked, relevant, 4) == pytest.approx(expected)


def test_average_precision_perfect_prefix_is_one():
    assert average_precision([1, 2, 3, 9], {1, 2, 3}, 10) == 1.0
    # Cut below |relevant|: normalization switches to the cut.
    assert average_precision([1, 2, 3, 4], {1, 2, 3, 4, 5, 6}, 2) == 1.0


def test_average_precision_matches_reference_on_random_lists():
    rng = np.random.default_rng(12)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        ranked = rng.permutation(n).tolist()
        relevant = set(rng.choice(n, size=int(rng.integers(1, n)),
                                  replace=False).tolist())
        k_cut = int(rng.integers(1, n + 1))
        got = average_precision(ranked, relevant, k_cut)
        want = _reference_ap(ranked, relevant, k_cut)
        assert got == pytest.approx(want, abs=1e-12)


def test_map_is_mean_of_aps():
    assert map_score([1.0, 0.0]) == 0.5
    assert map_score([0.25]) == 0.25
    with pytest.raises(ValueError):
        map_score([])


def test_empty_relevant_set_raises():
    for fn in (lambda: precision_at_k([1], set(), 1),
               lambda: recall_at_k([1], set(), 1),
               lambda: average_precision([1], set(), 1),
               lambda: pr_curve([1], set())):
        with pytest.raises(ValueError):
            fn()


# -------------------------------------------------------------- pr curve


def test_pr_curve_perfect_ranking():
    np.testing.assert_array_equal(pr_curve([1, 2, 3], {1, 2, 3}),
                                  [[1 / 3, 2 / 3, 1.0], [1.0, 1.0, 1.0]])


def test_pr_curve_recall_is_monotone_and_ends_at_full_recall():
    rng = np.random.default_rng(3)
    ranked = rng.permutation(40).tolist()
    relevant = set(rng.choice(40, size=12, replace=False).tolist())
    recalls, precisions = pr_curve(ranked, relevant)
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0
    for i, (r, p) in enumerate(zip(recalls, precisions), start=1):
        assert 0.0 <= r <= 1.0
        assert 0.0 < p <= 1.0 or p == 0.0
        assert (r, p) == (recall_at_k(ranked, relevant, i), precision_at_k(ranked, relevant, i))


# ------------------------------------------------------- vectorized bundle


def test_ranking_metrics_agrees_with_scalar_references():
    rng = np.random.default_rng(44)
    for _ in range(20):
        n = int(rng.integers(10, 80))
        ranked = rng.permutation(n)
        relevant = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 1)),
                                  replace=False).tolist())
        ks = [1, 5, 10]
        depth = int(rng.integers(10, n + 1))
        got = ranking_metrics(ranked, relevant, ks, depth)
        lst = ranked.tolist()
        for k in ks:
            assert got[f"precision@{k}"] == pytest.approx(
                precision_at_k(lst[:depth], relevant, k), abs=1e-12)
            assert got[f"recall@{k}"] == pytest.approx(
                recall_at_k(lst[:depth], relevant, k), abs=1e-12)
            assert got[f"ap@{k}"] == pytest.approx(
                average_precision(lst[:depth], relevant, min(k, depth)),
                abs=1e-12)
        assert got[f"map@{depth}"] == pytest.approx(
            average_precision(lst, relevant, depth), abs=1e-12)


def test_counts_recovered_from_rates_are_integers():
    rng = np.random.default_rng(8)
    ranked = rng.permutation(30).tolist()
    relevant = set(rng.choice(30, size=7, replace=False).tolist())
    for k in (1, 3, 10, 30):
        hits_from_p = precision_at_k(ranked, relevant, k) * k
        hits_from_r = recall_at_k(ranked, relevant, k) * len(relevant)
        assert hits_from_p == pytest.approx(round(hits_from_p), abs=1e-9)
        assert hits_from_r == pytest.approx(round(hits_from_r), abs=1e-9)
        assert round(hits_from_p) == round(hits_from_r)


# ------------------------------------------------------------------ oracle


def test_brute_force_hamming_counts_bits():
    bits = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
                    dtype=np.uint8)
    codes = pack_bits(bits)
    order = brute_force_rank(codes, codes.words[0], "hamming", k=4)
    np.testing.assert_array_equal(order, [0, 1, 2, 3])


def test_brute_force_tie_breaks_by_ascending_id():
    bits = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.uint8)
    codes = pack_bits(bits)
    # Items 0 and 2 are identical; both at distance 0 from the query code.
    order = brute_force_rank(codes, codes.words[0], "hamming", k=3)
    np.testing.assert_array_equal(order, [0, 2, 1])


def test_brute_force_weighted_hamming_uses_weights():
    bits = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.uint8)
    codes = pack_bits(bits)
    # Query 00: distances are 0, w0, w1. Heavy first bit pushes item 1 last.
    order = brute_force_rank(codes, codes.words[0], "weighted_hamming", k=3,
                             weights=np.array([5.0, 1.0]))
    np.testing.assert_array_equal(order, [0, 2, 1])


def test_brute_force_rejects_bad_inputs():
    bits = np.array([[0, 0]], dtype=np.uint8)
    codes = pack_bits(bits)
    with pytest.raises(ValueError):
        brute_force_rank(codes, codes.words[0], "weighted_hamming", k=1,
                         weights=np.ones(3))
    with pytest.raises(ValueError):
        brute_force_rank(np.zeros((2, 2)), np.zeros(2), "hamming", k=1)
    with pytest.raises(ValueError):
        brute_force_rank(np.zeros((2, 2)), np.zeros(2), "cosine", k=1)
