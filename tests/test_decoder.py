"""Tests for beam search, expansion scoring, and selection utilities."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokenwise.decoder import (
    ROUNDS_PER_FRAME,
    DecodeConfig,
    DecodeTrace,
    NBestList,
    _batch_expansions,
    _carried_mass,
    _merge_entry,
    _nth_largest,
    _ranked,
    decode_utterance_standard,
    decode_utterance_tokenwise,
    _search_segment,
)
from tokenwise.logmath import LOG_ZERO, log_sum_exp
from tokenwise.model import JoinerCounters, PredictorState, SeededModel, TabularModel


def _random_lattice(rng: np.random.Generator, frames: int, symbols: int) -> np.ndarray:
    """One hypothesis's (frames, symbols) block of a joiner grid, blank last."""
    logits = rng.uniform(-3.0, 3.0, size=(frames, symbols))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return np.log(probs)


def _random_mass(rng: np.random.Generator, frames: int) -> np.ndarray:
    mass = rng.uniform(-6.0, -0.5, size=frames)
    mass[rng.uniform(size=frames) < 0.3] = LOG_ZERO
    if (mass == LOG_ZERO).all():
        mass[0] = -1.0
    return mass


def _expand_one(mass: np.ndarray, lattice: np.ndarray):
    """The batched expansion kernel on a batch of one hypothesis."""
    token_mass, token_scores, blank_scores = _batch_expansions(mass[None, :], lattice[None])
    return token_mass[0], token_scores[0], float(blank_scores[0])


def _expand_nonblank_direct(mass: np.ndarray, lattice: np.ndarray, token: int) -> np.ndarray:
    frames = lattice.shape[0]
    out = np.full(frames, LOG_ZERO)
    for t in range(frames):
        terms = []
        for origin in range(t + 1):
            run = float(np.sum(lattice[origin:t, -1]))
            terms.append(mass[origin] + run + lattice[t, token])
        out[t] = log_sum_exp(np.array(terms), 0)[0]
    return out


def test_expand_nonblank_matches_double_sum() -> None:
    rng = np.random.default_rng(31)
    for _ in range(60):
        frames = int(rng.integers(1, 7))
        symbols = int(rng.integers(2, 6))
        lattice = _random_lattice(rng, frames, symbols)
        mass = _random_mass(rng, frames)
        token = int(rng.integers(0, symbols - 1))
        token_mass, token_scores, _ = _expand_one(mass, lattice)
        new_mass, score = token_mass[:, token], token_scores[token]
        direct = _expand_nonblank_direct(mass, lattice, token)
        with np.errstate(invalid="ignore"):
            diff = new_mass - direct
        diff = np.where(np.isneginf(new_mass) & np.isneginf(direct), 0.0, diff)
        assert np.abs(diff).max() < 1e-12
        assert abs(score - log_sum_exp(direct, 0)[0]) < 1e-12


def test_expand_nonblank_score_is_mass_total() -> None:
    rng = np.random.default_rng(32)
    lattice = _random_lattice(rng, 5, 4)
    mass = _random_mass(rng, 5)
    token_mass, token_scores, _ = _expand_one(mass, lattice)
    assert abs(token_scores[1] - log_sum_exp(token_mass[:, 1], 0)[0]) < 1e-12


def test_expand_blank_matches_double_sum() -> None:
    rng = np.random.default_rng(33)
    for _ in range(60):
        frames = int(rng.integers(1, 7))
        lattice = _random_lattice(rng, frames, 4)
        mass = _random_mass(rng, frames)
        direct = log_sum_exp(
            np.array([mass[origin] + np.sum(lattice[origin:, -1]) for origin in range(frames)]), 0
        )[0]
        assert abs(_expand_one(mass, lattice)[2] - direct) < 1e-12


def _blank_run(blanks: np.ndarray, start: int, end: int) -> float:
    """Log-probability of blanks at frames ``start..end-1``, by carrying a unit mass.

    ``end`` may be ``len(blanks)``, a run that exits the segment: the carry
    gets one more frame, whose blank score it never reads.
    """
    mass = np.full(len(blanks) + 1, LOG_ZERO)
    mass[start] = 0.0
    return float(_carried_mass(mass, np.append(blanks, 0.0))[end])


def test_blank_run_exact_composition() -> None:
    blanks = np.full(4, -0.5)
    assert _blank_run(blanks, 0, 0) == 0.0
    assert _blank_run(blanks, 0, 4) == -2.0
    for split in range(5):
        assert _blank_run(blanks, 0, split) + _blank_run(blanks, split, 4) == -2.0


def test_blank_run_general_lattices() -> None:
    rng = np.random.default_rng(35)
    for _ in range(40):
        frames = int(rng.integers(1, 8))
        blanks = _random_lattice(rng, frames, 3)[:, -1]
        start = int(rng.integers(0, frames + 1))
        end = int(rng.integers(0, frames + 1))
        got = _blank_run(blanks, start, end)
        if start > end:
            assert got == LOG_ZERO
        else:
            assert abs(got - float(np.sum(blanks[start:end]))) < 1e-12


def test_mass_conservation_check_on_consistent_hypothesis() -> None:
    rng = np.random.default_rng(36)
    trace = DecodeTrace()
    for _ in range(30):
        frames = int(rng.integers(1, 7))
        lattice = _random_lattice(rng, frames, 4)
        mass = _random_mass(rng, frames)
        _, token_scores, blank_score = _expand_one(mass, lattice)
        trace.record(log_sum_exp(mass, 0), token_scores[None], np.array([blank_score]))
    assert trace.mass_checks == 30
    assert trace.max_mass_defect < 1e-12


def test_add_and_merge_adds_log_scores() -> None:
    entries: dict = {}
    _merge_entry(entries, (1,), math.log(0.25), "first")
    _merge_entry(entries, (1,), math.log(0.25), "second")
    assert len(entries) == 1
    assert abs(entries[(1,)][0] - math.log(0.5)) < 1e-12
    assert entries[(1,)][1] == "first"
    _merge_entry(entries, (2,), -1.0, None)
    assert list(entries) == [(1,), (2,)]


def test_choose_n_best_returns_all_when_n_large() -> None:
    entries = {(i,): (-float(i), f"state{i}") for i in (2, 0, 1)}
    assert _ranked(entries, 10) == [((i,), -float(i), f"state{i}") for i in range(3)]


def test_choose_n_best_orders_by_score() -> None:
    entries = {(1,): (-3.0, None), (2,): (-1.0, None), (3,): (-2.0, None)}
    top = _ranked(entries, 2)
    assert [tokens for tokens, _, _ in top] == [(2,), (3,)]


def test_choose_n_best_ties_prefer_shorter_then_lexicographic() -> None:
    sequences = [(2, 1), (1, 2), (3,)]
    for ordering in itertools.permutations(sequences):
        top = _ranked({tokens: (-1.0, None) for tokens in ordering}, 3)
        assert [tokens for tokens, _, _ in top] == [(3,), (1, 2), (2, 1)]


def test_choose_n_best_rejects_bad_n() -> None:
    with pytest.raises(ValueError):
        _ranked({}, 0)


def test_choose_nth_score_handles_short_lists() -> None:
    scores = [-2.0, -1.0]
    assert _nth_largest(scores, 1) == -1.0
    assert _nth_largest(scores, 2) == -2.0
    assert _nth_largest(scores, 3) == LOG_ZERO
    assert _nth_largest([], 1) == LOG_ZERO


class _AdvanceRecordingModel(TabularModel):
    """A tabular model that logs each ``(parent key, token)`` the search advances."""

    def __init__(self, vocab_size: int, payload) -> None:
        super().__init__(vocab_size, payload)
        self.advanced: list[tuple[int, int]] = []

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        self.advanced.append((state.key, token))
        return super().advance_predictor(state, token)


def test_choose_n_best_expansions_matches_full_sort() -> None:
    # One frame, so a member's expansion score is its score plus the joiner
    # term exactly. Logits, depths and scores come from small value sets, so
    # exact ties are common: the search must break them to the lower
    # (member, token) index, as a full sort on that key does.
    rng = np.random.default_rng(37)
    for _ in range(500):
        vocab = int(rng.integers(1, 5))
        beam_size = int(rng.integers(1, 5))
        members = int(rng.integers(1, beam_size + 1))
        payload = rng.choice([0.0, -1.0, -2.0], size=(1, 2, vocab + 1))
        model = _AdvanceRecordingModel(vocab, payload.tolist())
        encoder = model.encode()
        states = [PredictorState(key=i, depth=int(rng.integers(0, 2))) for i in range(members)]
        scores = [float(rng.choice([-1.0, -2.0])) for _ in range(members)]
        beam = [((100 + i,), scores[i], states[i]) for i in range(members)]
        rows = model.join(encoder, (0, 1), states, JoinerCounters())[:, 0, :]
        blank = sorted((scores[i] + rows[i, -1] for i in range(members)), reverse=True)
        threshold = blank[beam_size - 1] if members >= beam_size else LOG_ZERO
        expansion = {
            (i, k): scores[i] + rows[i, k] for i in range(members) for k in range(vocab)
        }
        alive = [pair for pair, score in expansion.items() if score > threshold]
        want = sorted(alive, key=lambda pair: (-expansion[pair], pair[0], pair[1]))[:beam_size]
        config = DecodeConfig(beam_size=beam_size)
        _search_segment(model, encoder, beam, 0, 1, config, JoinerCounters())
        assert model.advanced[: len(want)] == want
        if not want:
            assert model.advanced == []


def test_nbest_list_rejects_duplicates_and_indexes() -> None:
    with pytest.raises(ValueError):
        NBestList((((1,), -1.0), ((1,), -2.0)))
    out = NBestList((((1,), -1.0), ((2,), -2.0)))
    assert out.top == (1,)
    assert dict(out.entries)[(2,)] == -2.0
    assert [tokens for tokens, _ in out.entries] == [(1,), (2,)]
    with pytest.raises(IndexError):
        NBestList(()).top


def test_decode_config_validation() -> None:
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=1, segment_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=1, nbest=2)
    # Non-integers fail here, not mid-decode as a slice or range TypeError.
    for field, value in (("beam_size", 2.5), ("segment_size", 1.5), ("nbest", 1.0)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DecodeConfig(**{"beam_size": 3, field: value})
    model = SeededModel(vocab_size=3, frames=5, seed=2)
    encoder = model.encode(uid="numpy-sizes")
    numpy_sizes = DecodeConfig(np.int64(2), segment_size=np.int32(3), nbest=np.int64(2))
    want, _ = decode_utterance_tokenwise(model, encoder, DecodeConfig(2, 3, 2))
    assert decode_utterance_tokenwise(model, encoder, numpy_sizes)[0] == want
    assert ROUNDS_PER_FRAME == 16


def test_trace_rejects_nan() -> None:
    trace = DecodeTrace()
    with pytest.raises(FloatingPointError):
        trace.record(
            np.array([0.0]), np.array([[float("nan")]]), np.array([-1.0])
        )


def test_trace_accumulates_counts() -> None:
    trace = DecodeTrace()
    trace.record(np.array([0.0]), np.array([[-1.0, -2.0]]), np.array([-0.8]))
    trace.record(np.array([-1.0, -2.0]), np.full((2, 2), -3.0), np.array([-1.5, -2.5]))
    assert trace.mass_checks == 3


# Reference expansion step: the carried mass as one ``np.logaddexp`` per frame
# over the whole batch, and the token scores by the written-out max-shifted
# log-sum-exp. The batched kernel must reproduce it bit for bit.
def _reference_carried_mass(emission_mass: np.ndarray, blank_scores: np.ndarray) -> np.ndarray:
    carry = np.empty_like(emission_mass)
    carry[..., 0] = emission_mass[..., 0]
    for t in range(1, emission_mass.shape[-1]):
        carry[..., t] = np.logaddexp(
            emission_mass[..., t], carry[..., t - 1] + blank_scores[..., t - 1]
        )
    return carry


def _reference_batch_expansions(mass: np.ndarray, grids: np.ndarray):
    blanks = grids[:, :, -1]
    carry = _reference_carried_mass(mass, blanks)
    token_mass = carry[:, :, None] + grids[:, :, :-1]
    peak = np.max(token_mass, axis=1, keepdims=True)
    anchor = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        token_scores = np.log(np.exp(token_mass - anchor).sum(axis=1)) + np.squeeze(anchor, axis=1)
    blank_scores = carry[:, -1] + blanks[:, -1]
    return token_mass, token_scores, blank_scores


EXPANSION_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Log-masses and joiner log-probabilities, LOG_ZERO among them; NaN only in
# the mass, where a corrupt score would enter.
_log_masses = st.one_of(st.floats(-40.0, 0.0), st.sampled_from([LOG_ZERO, LOG_ZERO, math.nan]))
_log_probs = st.one_of(st.floats(-20.0, 0.0), st.just(LOG_ZERO))


@st.composite
def _expansion_cases(draw):
    batch = draw(st.integers(1, 4))
    frames = draw(st.integers(1, 12))
    symbols = draw(st.integers(2, 6))
    mass = draw(arrays(np.float64, (batch, frames), elements=_log_masses))
    grids = draw(arrays(np.float64, (batch, frames, symbols), elements=_log_probs))
    return mass, grids


def _identical(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


@EXPANSION_SETTINGS
@given(case=_expansion_cases())
def test_carried_mass_equals_the_reference_fold_exactly(case) -> None:
    mass, grids = case
    blanks = grids[:, :, -1]
    with np.errstate(all="ignore"):
        want = _reference_carried_mass(mass, blanks)
        assert _identical(_carried_mass(mass, blanks), want)
        # One hypothesis as a flat row.
        assert _identical(_carried_mass(mass[0], blanks[0]), want[0])


@EXPANSION_SETTINGS
@given(case=_expansion_cases())
def test_batch_expansions_equal_the_reference_kernel_exactly(case) -> None:
    mass, grids = case
    with np.errstate(all="ignore"):
        got = _batch_expansions(mass, grids)
        want = _reference_batch_expansions(mass, grids)
    for got_part, want_part in zip(got, want):
        assert _identical(got_part, want_part)


# One-frame segments, where the kernel skips the log-sum-exp: signed zeros and
# every non-finite mass, compared down to the sign bit.
_edge_masses = st.sampled_from([0.0, -0.0, LOG_ZERO, math.inf, math.nan])


@st.composite
def _one_frame_cases(draw):
    batch = draw(st.integers(1, 4))
    symbols = draw(st.integers(2, 6))
    mass = draw(arrays(np.float64, (batch, 1), elements=st.one_of(_log_masses, _edge_masses)))
    grids = draw(
        arrays(np.float64, (batch, 1, symbols), elements=st.one_of(_log_probs, st.just(-0.0)))
    )
    return mass, grids


@EXPANSION_SETTINGS
@given(case=_one_frame_cases())
def test_one_frame_expansions_equal_the_reference_kernel_bit_for_bit(case) -> None:
    mass, grids = case
    with np.errstate(all="ignore"):
        got = _batch_expansions(mass, grids)
        want = _reference_batch_expansions(mass, grids)
    for got_part, want_part in zip(got, want):
        assert _identical(got_part, want_part)
        assert np.array_equal(np.signbit(got_part), np.signbit(want_part))


def test_search_segment_rejects_ranges_outside_the_utterance() -> None:
    model = SeededModel(vocab_size=3, frames=5, seed=44)
    encoder = model.encode(uid="seg")
    config = DecodeConfig(beam_size=2, segment_size=2)
    beam = [((), 0.0, model.init_predictor())]
    for t_begin, t_end in ((3, 3), (4, 6), (-1, 1)):
        counters = JoinerCounters()
        with pytest.raises(ValueError):
            _search_segment(model, encoder, beam, t_begin, t_end, config, counters)
        assert counters.calls == 0


def test_search_segment_returns_a_ranked_plain_beam() -> None:
    model = SeededModel(vocab_size=3, frames=5, seed=45)
    encoder = model.encode(uid="strip")
    root = model.init_predictor()
    out = _search_segment(
        model,
        encoder,
        [((), 0.0, root)],
        0,
        3,
        DecodeConfig(beam_size=2, segment_size=3),
        JoinerCounters(),
    )
    assert 1 <= len(out) <= 2
    assert out == sorted(out, key=lambda entry: (-entry[1], len(entry[0]), entry[0]))
    for tokens, score, state in out:
        assert isinstance(score, float) and score <= 0.0
        expected = root
        for token in tokens:
            expected = model.advance_predictor(expected, token)
        assert state == expected


def test_final_short_segment_gets_a_round_cap_for_its_own_width() -> None:
    # Blank is all but impossible, so every segment, or frame, runs into its round cap.
    payload = np.zeros((5, 1, 2))
    payload[:, :, -1] = -30.0
    model = TabularModel(vocab_size=1, payload=payload.tolist())
    config = DecodeConfig(beam_size=1, segment_size=4)
    # The token-wise decoder gives frames 0..3 four frames' worth of rounds and
    # the final frame 4 one frame's; the standard decoder caps every frame.
    for decode, forced in ((decode_utterance_tokenwise, 2), (decode_utterance_standard, 5)):
        counters = JoinerCounters()
        result, _ = decode(model, model.encode(), config, counters)
        assert len(result.entries) == 1
        assert counters.forced_finalizations == forced
        assert counters.calls == 5 * ROUNDS_PER_FRAME


def test_empty_utterance_decodes_to_empty_sequence() -> None:
    model = SeededModel(vocab_size=3, frames=4, seed=47)
    encoder = model.encode(frames=0)
    for decode in (decode_utterance_tokenwise, decode_utterance_standard):
        counters = JoinerCounters()
        result, _ = decode(model, encoder, DecodeConfig(beam_size=2, nbest=1), counters)
        assert result.entries == (((), 0.0),)
        assert counters.calls == 0


def test_tokenwise_equals_standard_at_segment_one() -> None:
    rng = np.random.default_rng(48)
    for _ in range(40):
        frames = int(rng.integers(1, 18))
        vocab = int(rng.integers(2, 7))
        beam = int(rng.choice([1, 2, 4]))
        model = SeededModel(vocab_size=vocab, frames=frames, seed=int(rng.integers(1, 2**31)))
        encoder = model.encode(uid="eq")
        config = DecodeConfig(beam_size=beam, segment_size=1, nbest=beam)
        tokenwise, tw_counters = decode_utterance_tokenwise(model, encoder, config)
        standard, st_counters = decode_utterance_standard(model, encoder, config)
        assert [s for s, _ in tokenwise.entries] == [s for s, _ in standard.entries]
        gaps = [abs(a[1] - b[1]) for a, b in zip(tokenwise.entries, standard.entries)]
        assert max(gaps, default=0.0) == 0.0
        assert tw_counters.calls == st_counters.calls
        assert tw_counters.frame_joins == st_counters.frame_joins


def test_larger_segments_use_fewer_calls() -> None:
    model = SeededModel(vocab_size=6, frames=40, seed=49)
    encoder = model.encode(uid="cost")
    calls = []
    for segment in (1, 4, 10):
        counters = JoinerCounters()
        decode_utterance_tokenwise(
            model, encoder, DecodeConfig(beam_size=2, segment_size=segment), counters
        )
        calls.append(counters.calls)
        assert counters.frame_joins <= counters.calls * segment
    assert calls[0] > calls[1] > calls[2]


def test_nbest_is_trimmed_and_sorted() -> None:
    model = SeededModel(vocab_size=4, frames=8, seed=50)
    encoder = model.encode(uid="trim")
    result, _ = decode_utterance_tokenwise(
        model, encoder, DecodeConfig(beam_size=4, segment_size=2, nbest=3)
    )
    assert len(result.entries) <= 3
    scores = [score for _, score in result.entries]
    assert scores == sorted(scores, reverse=True)
