"""Tests for error rates and the per-corpus summary."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from tokenwise.decoder import NBestList
from tokenwise.harness import Utterance, corpus_summary
from tokenwise.metrics import corpus_oracle_wer, corpus_wer, edit_distance
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
    assert edit_distance([1, 2], [2, 1]) == 2
    assert edit_distance([1], []) == 1
    assert edit_distance([], [1]) == 1
    assert edit_distance([1, 2, 3], [1, 3]) == 1
    assert edit_distance([5, 5, 5], [5, 5, 5]) == 0


def test_total_matches_independent_recursion() -> None:
    rng = np.random.default_rng(81)
    for _ in range(300):
        ref = tuple(int(v) for v in rng.integers(0, 5, size=rng.integers(0, 9)))
        hyp = tuple(int(v) for v in rng.integers(0, 5, size=rng.integers(0, 9)))
        distance = edit_distance(ref, hyp)
        assert type(distance) is int
        assert distance == _reference_distance(ref, hyp)


def test_counts_are_symmetric_in_total_only() -> None:
    assert edit_distance([1, 2, 3], [3, 2]) == edit_distance([3, 2], [1, 2, 3]) == 2


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
    with pytest.raises(ValueError, match="no reference tokens"):
        corpus_oracle_wer([((), NBestList((((1, 2), -0.1),)))])


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
    utterances = [Utterance("a", 100, (1, 2))]
    summary = corpus_summary(utterances, [NBestList((((1,), -0.1),))], counters, wall_time_sec=2.0)
    assert summary["calls_per_frame"] == pytest.approx(0.5)
    assert summary["joins_per_frame"] == pytest.approx(2.0)
    assert summary["timing"] == {"wall_time_sec": 2.0, "frames_per_second": pytest.approx(50.0)}
    assert summary["wer"] == summary["oracle_wer"] == pytest.approx(0.5)
    assert summary["counters"] == vars(counters)


def test_efficiency_stats_validation() -> None:
    counters = JoinerCounters(calls=1, frame_joins=1, frames_decoded=0, forced_finalizations=0)
    utterances = [Utterance("a", 0, ())]
    summary = corpus_summary(utterances, [NBestList((((), 0.0),))], counters, wall_time_sec=1.0)
    assert summary["calls_per_frame"] is None
    assert summary["joins_per_frame"] is None
    assert summary["timing"]["frames_per_second"] is None
    assert summary["wer"] is None and summary["oracle_wer"] is None
