"""Tests for the brute-force alignment oracle."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from tokenwise.decoder import DecodeConfig, decode_utterance_tokenwise
from tokenwise.harness import load_corpus
from tokenwise.logmath import LOG_ONE, LOG_ZERO, log_sum
from tokenwise.model import SeededModel, TabularModel, TokenCapModel, load_model_file
from tokenwise.oracle import (
    DP_MAX_FRAMES,
    ENUM_MAX_FRAMES,
    ENUM_MAX_TOKENS,
    ENUM_MAX_VOCAB,
    exact_marginals,
    exact_nbest,
    exact_sequence_marginal,
)

from reference import enumerate_alignment_paths, exact_marginals_dp, total_log_mass

CAP = 4
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _tiny_model(rng: np.random.Generator) -> tuple[SeededModel, int]:
    frames = int(rng.integers(1, ENUM_MAX_FRAMES + 1))
    vocab = int(rng.integers(1, ENUM_MAX_VOCAB + 1))
    return SeededModel(vocab_size=vocab, frames=frames, seed=int(rng.integers(1, 2**31))), frames


def test_total_path_mass_is_one() -> None:
    rng = np.random.default_rng(61)
    for _ in range(30):
        model, _ = _tiny_model(rng)
        exact = exact_marginals(model, model.encode(uid="mass"), CAP)
        assert abs(total_log_mass(exact)) < 1e-12


def test_truncated_mass_is_separated_not_dropped() -> None:
    model = SeededModel(vocab_size=2, frames=4, seed=7, blank_prior=0.3)
    exact = exact_marginals(model, model.encode(uid="trunc"), 1)
    assert exact.excluded_log_mass > LOG_ZERO
    covered = log_sum(exact.marginals.values())
    assert covered < 0.0
    assert abs(total_log_mass(exact)) < 1e-12


def test_paths_reconstruct_their_sequences() -> None:
    rng = np.random.default_rng(62)
    model, frames = _tiny_model(rng)
    paths = enumerate_alignment_paths(model, model.encode(uid="paths"), CAP)
    assert paths
    for path in paths:
        assert len(path.emissions) == frames
        flattened = tuple(token for burst in path.emissions for token in burst)
        assert flattened == path.tokens
        assert path.log_prob > LOG_ZERO


def test_marginal_is_sum_over_any_path_ordering() -> None:
    rng = np.random.default_rng(63)
    model, _ = _tiny_model(rng)
    encoder = model.encode(uid="orders")
    paths = enumerate_alignment_paths(model, encoder, CAP)
    by_sequence: dict = {}
    for path in paths:
        by_sequence.setdefault(path.tokens, []).append(path.log_prob)
    exact = exact_marginals(model, encoder, CAP)
    for tokens, terms in by_sequence.items():
        for trial in range(5):
            shuffled = list(terms)
            np.random.default_rng(trial).shuffle(shuffled)
            assert abs(log_sum(shuffled) - exact.log_prob(tokens)) < 1e-12


def test_enumeration_agrees_with_forward_dp() -> None:
    rng = np.random.default_rng(64)
    for _ in range(25):
        model, _ = _tiny_model(rng)
        encoder = model.encode(uid="dual")
        enum = exact_marginals(model, encoder, CAP)
        dp = exact_marginals_dp(model, encoder, CAP)
        reachable = {seq for seq, val in enum.marginals.items() if val > LOG_ZERO}
        dp_reachable = {seq for seq, val in dp.items() if val > LOG_ZERO}
        assert reachable == dp_reachable
        for seq in reachable:
            assert abs(enum.marginals[seq] - dp[seq]) < 1e-12


def test_sequence_marginal_empty_utterance() -> None:
    model = SeededModel(vocab_size=2, frames=3, seed=9)
    encoder = model.encode(frames=0)
    assert exact_sequence_marginal(model, encoder, ()) == LOG_ONE
    assert exact_sequence_marginal(model, encoder, (1,)) == LOG_ZERO


def test_event_stream_covers_empty_utterance() -> None:
    model = SeededModel(vocab_size=2, frames=3, seed=9)
    exact = exact_marginals(model, model.encode(frames=0), CAP)
    assert exact.marginals == {(): LOG_ONE}
    assert exact.excluded_log_mass == LOG_ZERO


def test_enumeration_limits_are_enforced() -> None:
    big_frames = SeededModel(vocab_size=2, frames=ENUM_MAX_FRAMES + 1, seed=1)
    with pytest.raises(ValueError):
        exact_marginals(big_frames, big_frames.encode(), CAP)
    big_vocab = SeededModel(vocab_size=ENUM_MAX_VOCAB + 1, frames=2, seed=1)
    with pytest.raises(ValueError):
        exact_marginals(big_vocab, big_vocab.encode(), CAP)
    small = SeededModel(vocab_size=2, frames=2, seed=1)
    with pytest.raises(ValueError):
        exact_marginals(small, small.encode(), ENUM_MAX_TOKENS + 1)
    long_utt = SeededModel(vocab_size=2, frames=DP_MAX_FRAMES + 1, seed=1)
    with pytest.raises(ValueError):
        exact_sequence_marginal(long_utt, long_utt.encode(), (0,))
    with pytest.raises(ValueError):
        exact_nbest(small, small.encode(), 0, CAP)


def test_bench_scores_never_exceed_the_true_marginal() -> None:
    # A decoded score sums only the alignments the search kept, so it is a
    # lower bound on the forward-DP marginal, here at bench scale (90-110 frames).
    model = load_model_file(DATA_DIR / "bench_model.json")
    utterances = load_corpus(DATA_DIR / "bench_corpus.jsonl", model.vocab)[:20]
    assert max(u.frames for u in utterances) <= DP_MAX_FRAMES
    checked = 0
    for beam, segment in ((1, 1), (4, 5), (1, 10)):
        config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
        for utt in utterances:
            encoder = model.encode(utt.frames, utt.uid)
            result, _ = decode_utterance_tokenwise(model, encoder, config)
            for tokens, score in result.entries:
                assert score <= exact_sequence_marginal(model, encoder, tokens) + 1e-9
                checked += 1
    assert checked == 20 * (1 + 4 + 1)


def test_blank_certain_model_prefers_empty_sequence() -> None:
    payload = np.full((3, 1, 3), LOG_ZERO)
    payload[:, :, -1] = 0.0
    model = TabularModel(vocab_size=2, payload=payload.tolist())
    result = exact_nbest(model, model.encode(), 5, CAP)
    assert result.entries == (((), 0.0),)


def test_nbest_returns_all_when_n_exceeds_sequences() -> None:
    model = SeededModel(vocab_size=2, frames=2, seed=11)
    capped = TokenCapModel(model, cap=2)
    encoder = capped.encode(uid="all")
    exact = exact_marginals(capped, encoder, 2)
    reachable = {seq for seq, val in exact.marginals.items() if val > LOG_ZERO or seq == ()}
    result = exact_nbest(capped, encoder, 1000, 2)
    assert set(result.sequences()) == reachable


def test_nbest_ranking_matches_dp_route() -> None:
    rng = np.random.default_rng(65)
    for _ in range(20):
        model, _ = _tiny_model(rng)
        capped = TokenCapModel(model, cap=CAP)
        encoder = capped.encode(uid="rank")
        enum_ranked = exact_nbest(capped, encoder, 10, CAP)
        dp = exact_marginals_dp(capped, encoder, CAP)
        resort = sorted(
            ((seq, val) for seq, val in dp.items() if val > LOG_ZERO or seq == ()),
            key=lambda item: (-item[1], len(item[0]), item[0]),
        )[:10]
        assert enum_ranked.sequences() == [seq for seq, _ in resort]
        gaps = [abs(a[1] - b[1]) for a, b in zip(enum_ranked.entries, resort)]
        assert max(gaps) < 1e-12


def test_marginal_upper_bounds_beam_scores() -> None:
    from tokenwise.decoder import DecodeConfig, decode_utterance_tokenwise

    rng = np.random.default_rng(66)
    for _ in range(15):
        model, _ = _tiny_model(rng)
        encoder = model.encode(uid="bound")
        for beam in (1, 2):
            config = DecodeConfig(beam_size=beam, segment_size=2, nbest=beam)
            decoded, _ = decode_utterance_tokenwise(model, encoder, config)
            for tokens, score in decoded.entries:
                marginal = exact_sequence_marginal(model, encoder, tokens)
                assert score <= marginal + 1e-9


def test_zero_probability_branches_stay_out_of_marginals() -> None:
    probs = np.full((2, 1, 3), LOG_ZERO)
    probs[:, :, 0] = math.log(0.5)
    probs[:, :, 2] = math.log(0.5)
    model = TabularModel(vocab_size=2, payload=probs.tolist())
    exact = exact_marginals(model, model.encode(), 2)
    for tokens in exact.marginals:
        assert 1 not in tokens
