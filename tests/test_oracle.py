"""Tests for the exact forward-DP oracle."""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tokenwise.decoder import UNBOUNDED_BEAM, DecodeConfig, decode_utterance_tokenwise
from tokenwise.harness import load_corpus
from tokenwise.logmath import LOG_ONE, LOG_ZERO, log_sum_exp
from tokenwise.model import CELL_BUDGET, SeededModel, TabularModel, TokenCapModel, load_model_file
from tokenwise.oracle import (
    capped_prefixes,
    check_oracle_budget,
    exact_marginals,
    exact_nbest,
    exact_sequence_marginals,
)

from reference import enumerate_alignment_paths, path_marginals

CAP = 4
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _tiny_model(rng: np.random.Generator) -> tuple[SeededModel, int]:
    # Tiny, because the reference path enumeration grows exponentially with frames.
    frames = int(rng.integers(1, 7))
    vocab = int(rng.integers(1, 5))
    return SeededModel(vocab_size=vocab, frames=frames, seed=int(rng.integers(1, 2**31))), frames


def test_total_path_mass_is_one() -> None:
    # The capped model ends every path by the cap, so the marginals hold all the mass.
    rng = np.random.default_rng(61)
    for _ in range(30):
        model, _ = _tiny_model(rng)
        capped = TokenCapModel(model, CAP)
        marginals = exact_marginals(capped, capped.encode(uid="mass"), CAP)
        assert abs(log_sum_exp(np.array(list(marginals.values())), 0)[0]) < 1e-12


def test_truncated_marginals_cover_less_than_all_mass() -> None:
    model = SeededModel(vocab_size=2, frames=4, seed=7, blank_prior=0.3)
    marginals = exact_marginals(model, model.encode(uid="trunc"), 1)
    covered = log_sum_exp(np.array(list(marginals.values())), 0)[0]
    assert covered < 0.0


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
    marginals = exact_marginals(model, encoder, CAP)
    for tokens, terms in by_sequence.items():
        for trial in range(5):
            shuffled = list(terms)
            np.random.default_rng(trial).shuffle(shuffled)
            total = log_sum_exp(np.array(shuffled), 0)[0]
            assert abs(total - marginals.get(tokens, LOG_ZERO)) < 1e-12


def test_enumeration_agrees_with_forward_dp() -> None:
    rng = np.random.default_rng(64)
    for _ in range(25):
        model, _ = _tiny_model(rng)
        encoder = model.encode(uid="dual")
        dp = exact_marginals(model, encoder, CAP)
        enum = path_marginals(model, encoder, CAP)
        reachable = {seq for seq, val in dp.items() if val > LOG_ZERO}
        enum_reachable = {seq for seq, val in enum.items() if val > LOG_ZERO}
        assert reachable == enum_reachable
        for seq in reachable:
            assert abs(dp[seq] - enum[seq]) < 1e-12


def test_sequence_marginal_empty_utterance() -> None:
    model = SeededModel(vocab_size=2, frames=3, seed=9)
    encoder = model.encode(frames=0)
    assert exact_sequence_marginals(model, encoder, [()]) == [LOG_ONE]
    assert exact_sequence_marginals(model, encoder, [(1,)]) == [LOG_ZERO]


def test_sequence_marginals_reject_tokens_outside_the_vocabulary() -> None:
    model = load_model_file(DATA_DIR / "tiny_model.json")
    size = model.vocab.size
    for encoder in (model.encode(uid="range"), model.encode(0, uid="range")):
        for tokens in ((-1,), (size,), (size + 1,), (0, 99)):
            with pytest.raises(ValueError, match="outside vocabulary"):
                exact_sequence_marginals(model, encoder, [tokens])
        # A float token is refused, not truncated to the integer below it.
        for tokens in ((1.5,), (0, 1.0)):
            with pytest.raises(ValueError, match="tokens must be integers"):
                exact_sequence_marginals(model, encoder, [tokens])
        numpy_tokens = (np.int64(1), np.int32(0))
        assert exact_sequence_marginals(model, encoder, [numpy_tokens]) == (
            exact_sequence_marginals(model, encoder, [(1, 0)])
        )


def test_sequence_marginals_handle_a_sequence_longer_than_the_recursion_limit() -> None:
    model = SeededModel(vocab_size=3, frames=8, seed=5)
    tokens = tuple(k % 3 for k in range(1500))
    # Only the current path of nodes is held, so memory is linear in its length.
    tracemalloc.start()
    try:
        [marginal] = exact_sequence_marginals(model, model.encode(uid="long"), [tokens])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(marginal, float)
    assert peak < 6 * 2**20


def test_event_stream_covers_empty_utterance() -> None:
    model = SeededModel(vocab_size=2, frames=3, seed=9)
    assert exact_marginals(model, model.encode(frames=0), CAP) == {(): LOG_ONE}


def test_enumeration_limits_are_enforced() -> None:
    assert [capped_prefixes(1, cap) for cap in (0, 4)] == [1, 5]
    assert [capped_prefixes(4, cap) for cap in (0, 1, 4)] == [1, 5, 341]
    # The budget is prefixes x frames x symbols, a zero-frame utterance counting as one frame.
    small = SeededModel(vocab_size=2, frames=2, seed=1)
    for frames in (0, 1, 7):
        fitting = CELL_BUDGET // (max(frames, 1) * 3)
        check_oracle_budget(small, frames, fitting)
        with pytest.raises(ValueError, match=f"the limit is {CELL_BUDGET}$"):
            check_oracle_budget(small, frames, fitting + 1)
    # Over the budget, each route fails before its first join.
    huge_vocab = _JoinCounting(SeededModel(vocab_size=10**6, frames=1, seed=1))
    with pytest.raises(ValueError, match=r"needs \d+ joiner cells \(\d+ prefixes x 1 frames"):
        exact_marginals(huge_vocab, huge_vocab.encode(0), 5)
    long_utt = _JoinCounting(SeededModel(vocab_size=2, frames=1000, seed=1))
    too_many = [(0,) * 1398, (1,) * 1]  # 1,400 prefixes x 1,000 frames x 3 symbols
    with pytest.raises(ValueError, match="needs 4200000 joiner cells"):
        exact_sequence_marginals(long_utt, long_utt.encode(), too_many)
    # CPython prints no int past 4,300 digits, so huge counts are written as powers of two.
    counting = _JoinCounting(small)
    power_of_two = r"at least 2\*\*20003 joiner cells \(at least 2\*\*20000 prefixes x 2 frames"
    with pytest.raises(ValueError, match=power_of_two):
        exact_marginals(counting, small.encode(), 20000)
    assert huge_vocab.joins == long_utt.joins == counting.joins == 0
    for cap in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="token cap must be a non-negative integer"):
            exact_marginals(small, small.encode(), cap)
    assert exact_marginals(small, small.encode(), np.int64(2)) == exact_marginals(
        small, small.encode(), 2
    )
    with pytest.raises(ValueError):
        exact_nbest(small, small.encode(), 0, CAP)


def test_exact_marginals_refuse_a_cap_whose_sequences_hold_too_many_tokens() -> None:
    # At vocabulary 1 the cell count is linear in the cap, but the sequences'
    # tokens are quadratic: cap 2,048 needs only 2,049 x 2 cells at one frame,
    # yet its 2,049 sequences are counted as 2,049 x 2,048 tokens, past the budget.
    model = _JoinCounting(SeededModel(1, 1, 5))
    message = r"needs 4196352 tokens \(2049 sequences x 2048 tokens\); the limit is 4194304$"
    with pytest.raises(ValueError, match=message):
        exact_marginals(model, model.encode(), 2048)
    assert model.joins == 0
    assert len(exact_marginals(model, model.encode(), 500)) == 501


def test_bench_scores_never_exceed_the_true_marginal() -> None:
    # A decoded score sums only the alignments the search kept, so it is a
    # lower bound on the forward-DP marginal, here at bench scale (90-110 frames).
    model = load_model_file(DATA_DIR / "bench_model.json")
    utterances = load_corpus(DATA_DIR / "bench_corpus.jsonl", model.vocab)[:20]
    checked = 0
    for beam, segment in ((1, 1), (4, 5), (1, 10)):
        config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
        for utt in utterances:
            encoder = model.encode(utt.frames, utt.uid)
            result, _ = decode_utterance_tokenwise(model, encoder, config)
            marginals = exact_sequence_marginals(
                model, encoder, [tokens for tokens, _ in result.entries]
            )
            for (_, score), marginal in zip(result.entries, marginals, strict=True):
                assert score <= marginal + 1e-9
                checked += 1
    assert checked == 20 * (1 + 4 + 1)


def _bench_length_tabular() -> TabularModel:
    """100 frames, vocabulary 3, with ``-inf`` logits: blank-certain rows, and token 1
    impossible at prefix depth 2, so every sequence with 1 in third place has no mass."""
    rng = np.random.default_rng(7)
    logits = rng.choice([LOG_ZERO, -2.0, 0.0, 1.5], size=(100, 6, 4))
    logits[rng.random((100, 6)) < 0.3, :-1] = LOG_ZERO
    logits[:, 2, 1] = LOG_ZERO
    logits[:, :, -1] = np.maximum(logits[:, :, -1], 2.0)
    return TabularModel(vocab_size=3, payload=logits.tolist())


def test_oracle_exactness_and_segment_invariance_at_bench_length() -> None:
    # Unbounded-beam decodes of a token-capped model at bench length (100
    # frames) list exactly the oracle's sequences, in its order and at its
    # marginals, whatever the segment size.
    models = [
        SeededModel(vocab_size=3, frames=100, seed=11, blank_prior=0.85),
        SeededModel(vocab_size=4, frames=100, seed=12, blank_prior=0.97),
        _bench_length_tabular(),
    ]
    for model in models:
        capped = TokenCapModel(model, CAP)
        encoder = capped.encode(uid="bench-length")
        truth = exact_nbest(capped, encoder, UNBOUNDED_BEAM, CAP).entries
        for segment in (1, 3, 10, encoder.frames):
            config = DecodeConfig(UNBOUNDED_BEAM, segment_size=segment, nbest=UNBOUNDED_BEAM)
            decoded, _ = decode_utterance_tokenwise(capped, encoder, config)
            assert [tokens for tokens, _ in decoded.entries] == [tokens for tokens, _ in truth]
            for (_, score), (_, marginal) in zip(decoded.entries, truth):
                assert abs(score - marginal) <= DecodeConfig.mass_tolerance
    # The tabular model's 121 sequences less the 9 + 27 with token 1 in third place.
    assert len(truth) == 85
    assert all(tokens[2:3] != (1,) for tokens, _ in truth)


class _JoinCounting:
    """Forwards to a model and counts its ``join`` calls."""

    def __init__(self, model) -> None:
        self.model = model
        self.joins = 0

    def __getattr__(self, name):
        return getattr(self.model, name)

    def join(self, *args):
        self.joins += 1
        return self.model.join(*args)


def test_shared_prefixes_are_joined_once() -> None:
    model = load_model_file(DATA_DIR / "bench_model.json")
    for utt in load_corpus(DATA_DIR / "bench_corpus.jsonl", model.vocab)[:3]:
        encoder = model.encode(utt.frames, utt.uid)
        sequences = []
        for beam, segment in ((1, 1), (4, 5), (4, 10)):
            config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
            result, _ = decode_utterance_tokenwise(model, encoder, config)
            sequences += [tokens for tokens, _ in result.entries]
        counting = _JoinCounting(model)
        together = exact_sequence_marginals(counting, encoder, sequences)
        prefixes = {tokens[:u] for tokens in sequences for u in range(len(tokens) + 1)}
        assert counting.joins == len(prefixes)
        alone = [exact_sequence_marginals(model, encoder, [tokens])[0] for tokens in sequences]
        assert [value.hex() for value in together] == [value.hex() for value in alone]


def test_sequence_prefixes_are_counted_without_being_built() -> None:
    # 16 random 2,700-token sequences have about 43,000 distinct prefixes, far
    # over the budget at 3,000 frames; the prefixes themselves take about 450 MB.
    model = _JoinCounting(SeededModel(vocab_size=2, frames=3000, seed=1))
    encoder = model.encode()
    rng = np.random.default_rng(12)
    sequences = [tuple(int(k) for k in rng.integers(0, 2, 2700)) for _ in range(16)]
    tree: dict = {}  # the prefix trie as nested dicts, one node per prefix
    prefixes = 1
    for tokens in sequences:
        node = tree
        for token in tokens:
            if token not in node:
                node[token] = {}
                prefixes += 1
            node = node[token]
    message = rf"needs {prefixes * 3000 * 3} joiner cells \({prefixes} prefixes x 3000 frames"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            exact_sequence_marginals(model, encoder, sequences)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert model.joins == 0


def test_every_prefix_up_to_the_cap_is_joined_once() -> None:
    # Prefixes that no mass enters are folded too, so each cap costs
    # V**0 + ... + V**cap joins whatever the model gives zero probability:
    # 15 for the capped model, where only 3 prefixes get mass.
    probs = np.full((3, 1, 3), LOG_ZERO)
    probs[:, :, 0] = math.log(0.5)
    probs[:, :, 2] = math.log(0.5)
    never_one = TabularModel(vocab_size=2, payload=probs.tolist())
    # Besides the list of sequences, only the nodes on the current root-to-leaf
    # path are held: at vocabulary 4, 100 frames and cap 4, five of the 341
    # prefixes, each with 100 rows.
    capped = TokenCapModel(SeededModel(2, 3, 7), 1)
    bench_length = TokenCapModel(SeededModel(4, 100, 12), 4)
    for model, cap in ((SeededModel(3, 4, 5), 3), (capped, 3), (never_one, 4), (bench_length, 4)):
        counting = _JoinCounting(model)
        tracemalloc.start()
        try:
            exact_marginals(counting, model.encode(uid="cap"), cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counting.joins == sum(model.vocab.size**k for k in range(cap + 1))
        assert peak < (2**19 if model is bench_length else 4 * 2**20)
    counting = _JoinCounting(SeededModel(2, 3, 7))
    exact_marginals(counting, counting.encode(0, "none"), 3)
    assert counting.joins == 0


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
    marginals = exact_marginals(capped, encoder, 2)
    reachable = {seq for seq, val in marginals.items() if val > LOG_ZERO or seq == ()}
    result = exact_nbest(capped, encoder, 1000, 2)
    assert {tokens for tokens, _ in result.entries} == reachable


def test_nbest_ranking_matches_dp_route() -> None:
    rng = np.random.default_rng(65)
    for _ in range(20):
        model, _ = _tiny_model(rng)
        capped = TokenCapModel(model, cap=CAP)
        encoder = capped.encode(uid="rank")
        dp_ranked = exact_nbest(capped, encoder, 10, CAP)
        enum = path_marginals(capped, encoder, CAP)
        resort = sorted(
            ((seq, val) for seq, val in enum.items() if val > LOG_ZERO or seq == ()),
            key=lambda item: (-item[1], len(item[0]), item[0]),
        )[:10]
        assert [seq for seq, _ in dp_ranked.entries] == [seq for seq, _ in resort]
        gaps = [abs(a[1] - b[1]) for a, b in zip(dp_ranked.entries, resort)]
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
            marginals = exact_sequence_marginals(
                model, encoder, [tokens for tokens, _ in decoded.entries]
            )
            for (_, score), marginal in zip(decoded.entries, marginals, strict=True):
                assert score <= marginal + 1e-9


def test_zero_probability_branches_stay_out_of_marginals() -> None:
    probs = np.full((2, 1, 3), LOG_ZERO)
    probs[:, :, 0] = math.log(0.5)
    probs[:, :, 2] = math.log(0.5)
    model = TabularModel(vocab_size=2, payload=probs.tolist())
    marginals = exact_marginals(model, model.encode(), 2)
    for tokens in marginals:
        assert 1 not in tokens
