"""Tests for error counting and efficiency metrics."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from tokenwise.decoder import NBestList
from tokenwise.metrics import ErrorCounts, corpus_oracle_wer, corpus_wer, edit_distance, efficiency_stats
from tokenwise.model import JoinerCounters


def _reference_distance(ref: tuple, hyp: tuple) -> int:
    """Plain memoized recursion, written independently of the module under test."""

    @functools.lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        if ref[i] == hyp[j]:
            return solve(i + 1, j + 1)
        return 1 + min(solve(i + 1, j + 1), solve(i, j + 1), solve(i + 1, j))

    return solve(0, 0)


def test_known_alignments() -> None:
    counts = edit_distance([1, 2], [2, 1])
    assert (counts.substitutions, counts.insertions, counts.deletions) == (2, 0, 0)
    counts = edit_distance([1], [])
    assert (counts.substitutions, counts.insertions, counts.deletions) == (0, 0, 1)
    counts = edit_distance([], [1])
    assert (counts.substitutions, counts.insertions, counts.deletions) == (0, 1, 0)
    counts = edit_distance([1, 2, 3], [1, 3])
    assert (counts.substitutions, counts.insertions, counts.deletions) == (0, 0, 1)
    counts = edit_distance([5, 5, 5], [5, 5, 5])
    assert counts.total == 0


def test_total_matches_independent_recursion() -> None:
    rng = np.random.default_rng(81)
    for _ in range(300):
        ref = tuple(int(v) for v in rng.integers(0, 5, size=rng.integers(0, 9)))
        hyp = tuple(int(v) for v in rng.integers(0, 5, size=rng.integers(0, 9)))
        counts = edit_distance(ref, hyp)
        assert counts.total == _reference_distance(ref, hyp)
        assert counts.reference_length == len(ref)
        assert counts.insertions - counts.deletions == len(hyp) - len(ref)


def test_counts_are_symmetric_in_total_only() -> None:
    counts = edit_distance([1, 2, 3], [3, 2])
    flipped = edit_distance([3, 2], [1, 2, 3])
    assert counts.total == flipped.total
    assert counts.insertions == flipped.deletions
    assert counts.deletions == flipped.insertions


def test_error_counts_total() -> None:
    counts = ErrorCounts(substitutions=2, insertions=1, deletions=3, reference_length=10)
    assert counts.total == 6


def test_corpus_wer_pools_over_utterances() -> None:
    pairs = [
        ((1, 2, 3), (1, 2, 3)),
        ((1, 2), (2, 2, 2)),
        ((4,), ()),
    ]
    # Errors: 0, then sub+ins = 2, then 1 deletion, over 6 reference tokens.
    assert corpus_wer(pairs) == pytest.approx(3 / 6)


def test_corpus_wer_rejects_empty_reference_pool() -> None:
    with pytest.raises(ValueError):
        corpus_wer([((), (1, 2))])
    with pytest.raises(ValueError):
        corpus_wer([])


def test_oracle_wer_picks_best_entry() -> None:
    nbest = NBestList((((1, 2), -0.1), ((1, 2, 3), -0.7), ((9, 9), -0.9)))
    assert corpus_oracle_wer([((1, 2, 3), nbest)]) == 0.0
    worst_only = NBestList((((7,), -0.5),))
    assert corpus_oracle_wer([((1, 2, 3), worst_only)]) == 1.0


def test_oracle_wer_with_single_entry_matches_wer() -> None:
    rng = np.random.default_rng(82)
    for _ in range(25):
        pairs = []
        lists = []
        for _ in range(4):
            ref = tuple(int(v) for v in rng.integers(0, 4, size=rng.integers(1, 7)))
            hyp = tuple(int(v) for v in rng.integers(0, 4, size=rng.integers(0, 7)))
            pairs.append((ref, hyp))
            lists.append((ref, NBestList(((hyp, -1.0),))))
        assert corpus_oracle_wer(lists) == corpus_wer(pairs)


def test_oracle_wer_never_exceeds_top_hypothesis_wer() -> None:
    rng = np.random.default_rng(83)
    for _ in range(25):
        pairs = []
        lists = []
        for _ in range(5):
            ref = tuple(int(v) for v in rng.integers(0, 4, size=rng.integers(1, 7)))
            entries = []
            seen = set()
            for rank in range(int(rng.integers(1, 4))):
                hyp = tuple(int(v) for v in rng.integers(0, 4, size=rng.integers(0, 7)))
                if hyp in seen:
                    continue
                seen.add(hyp)
                entries.append((hyp, -0.1 * (rank + 1)))
            pairs.append((ref, entries[0][0]))
            lists.append((ref, NBestList(tuple(entries))))
        assert corpus_oracle_wer(lists) <= corpus_wer(pairs)


def test_oracle_wer_rejects_empty_nbest() -> None:
    with pytest.raises(ValueError):
        corpus_oracle_wer([((1,), NBestList(()))])


def test_efficiency_stats_division() -> None:
    counters = JoinerCounters(calls=50, frame_joins=200, frames_decoded=100, forced_finalizations=0)
    stats = efficiency_stats(counters, wall_time_sec=2.0)
    assert stats.calls_per_frame == pytest.approx(0.5)
    assert stats.joins_per_frame == pytest.approx(2.0)
    assert stats.frames_per_second == pytest.approx(50.0)


def test_efficiency_stats_validation() -> None:
    counters = JoinerCounters(calls=1, frame_joins=1, frames_decoded=0, forced_finalizations=0)
    with pytest.raises(ValueError):
        efficiency_stats(counters, wall_time_sec=1.0)
    ok = JoinerCounters(calls=1, frame_joins=1, frames_decoded=5, forced_finalizations=0)
    with pytest.raises(ValueError):
        efficiency_stats(ok, wall_time_sec=0.0)
    with pytest.raises(ValueError):
        efficiency_stats(ok, wall_time_sec=-1.0)
