"""Property tests of the token-wise decoder and the seeded joiner on generated tiny models.

The exact oracle is the reference wherever an instance is small enough for it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tokenwise.decoder import (
    UNBOUNDED_BEAM,
    DecodeConfig,
    DecodeTrace,
    decode_utterance_standard,
    decode_utterance_tokenwise,
)
from tokenwise.logmath import LOG_ZERO
from tokenwise.model import (
    _DEPTH_SALT,
    _FRAME_SALT,
    _MASK64,
    _SLOT_SALT,
    _SPIKE_SALT,
    JoinerCounters,
    SeededModel,
    TabularModel,
    TokenCapModel,
    _mix64,
)
from tokenwise.oracle import ENUM_MAX_FRAMES, exact_marginals, exact_sequence_marginals

from reference import path_marginals, seeded_segment_scores, total_log_mass

# Derandomized, so every run checks the same examples and a failure reproduces.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def seeded_models(draw, vocab_sizes=st.integers(1, 4)) -> SeededModel:
    return SeededModel(
        vocab_size=draw(vocab_sizes),
        frames=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**32)),
        blank_prior=draw(st.sampled_from([0.1, 0.5, 0.85, 0.97])),
    )


@st.composite
def tabular_models(draw, vocab_sizes=st.integers(1, 4)) -> TabularModel:
    """Raw logits from a small value set, so exact score ties and ``-inf`` occur.

    Some rows are blank-certain: every token logit is ``-inf``.
    """
    vocab_size = draw(vocab_sizes)
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 3)), vocab_size + 1)
    logits = draw(
        arrays(np.float64, shape, elements=st.sampled_from([LOG_ZERO, -2.0, 0.0, 0.0, 1.5]))
    )
    logits[draw(arrays(np.bool_, shape[:2])), :-1] = LOG_ZERO
    logits[(logits == LOG_ZERO).all(axis=-1), -1] = 0.0  # every row needs a finite logit
    return TabularModel(vocab_size, logits.tolist())


models = st.one_of(seeded_models(), tabular_models())
single_symbol_models = st.one_of(
    seeded_models(vocab_sizes=st.just(1)), tabular_models(vocab_sizes=st.just(1))
)


@PROPERTY_SETTINGS
@given(model=models, beam=st.integers(1, 4))
def test_tokenwise_at_segment_one_equals_standard(model, beam) -> None:
    encoder = model.encode(uid="prop")
    config = DecodeConfig(beam_size=beam, segment_size=1, nbest=beam)
    tokenwise, tw_counters = decode_utterance_tokenwise(model, encoder, config)
    standard, st_counters = decode_utterance_standard(model, encoder, config)
    assert tokenwise.entries == standard.entries
    assert vars(tw_counters) == vars(st_counters)


@PROPERTY_SETTINGS
@given(model=models, beam=st.integers(1, 4), data=st.data())
def test_tokenwise_nbest_is_ranked_and_bounded(model, beam, data) -> None:
    encoder = model.encode(uid="prop")
    segment = data.draw(st.integers(1, encoder.frames + 2))
    config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
    counters = JoinerCounters()
    result, _ = decode_utterance_tokenwise(model, encoder, config, counters)
    entries = list(result.entries)
    assert 1 <= len(entries) <= beam
    assert entries == sorted(entries, key=lambda e: (-e[1], len(e[0]), e[0]))
    assert all(score <= 1e-12 for _, score in entries)
    assert counters.frame_joins <= counters.calls * segment


@PROPERTY_SETTINGS
@given(model=models, data=st.data())
def test_scores_do_not_depend_on_segment_size(model, data) -> None:
    capped = TokenCapModel(model, cap=3)
    encoder = capped.encode(uid="prop")
    segment = data.draw(st.integers(1, encoder.frames + 2))

    def positive(segment_size: int) -> dict:
        config = DecodeConfig(UNBOUNDED_BEAM, segment_size=segment_size, nbest=UNBOUNDED_BEAM)
        result, _ = decode_utterance_tokenwise(capped, encoder, config)
        return {tokens: score for tokens, score in result.entries if score > LOG_ZERO}

    reference, got = positive(1), positive(segment)
    assert got.keys() == reference.keys()
    assert all(abs(got[tokens] - reference[tokens]) <= 1e-9 for tokens in got)


@PROPERTY_SETTINGS
@given(
    model=seeded_models(),
    frames=st.integers(1, 8),
    paths=st.lists(st.lists(st.integers(0, 3), max_size=11), min_size=1, max_size=4),
    data=st.data(),
)
def test_tabled_joiner_terms_equal_the_payload_less_recompute(model, frames, paths, data) -> None:
    # ``frames`` may exceed the model's own length, and paths may run deeper
    # than the depth table (depths 0..frames-1), where join hashes from scratch.
    encoder = model.encode(frames, uid="tables")
    tables = encoder.payload
    assert len(tables.depth_keys) == len(tables.preferred) == frames
    for depth in range(frames):
        depth_keys, preferred = model._depth_terms(tables.handle, np.array([depth]))
        assert tables.depth_keys[depth] == depth_keys[0]
        assert tables.preferred[depth] == preferred[0]
    # The depth terms, rebuilt one depth at a time from the scalar hash, also
    # past the table, where join calls ``_depth_terms`` directly.
    deep = np.arange(frames + 12)
    depth_keys, preferred = model._depth_terms(tables.handle, deep)
    for depth in deep.tolist():
        depth_key = _mix64((depth + _DEPTH_SALT) & _MASK64)
        slot = _mix64(tables.handle ^ _mix64((depth + _SLOT_SALT) & _MASK64))
        assert depth_keys[depth] == depth_key
        assert preferred[depth] == slot % model.vocab.size
        if depth < frames:
            assert tables.depth_keys[depth] == depth_key
            assert tables.preferred[depth] == slot % model.vocab.size
    # The frame terms, rebuilt one frame at a time from the scalar hash.
    demanded = 0
    for frame in range(frames):
        spike = _mix64(tables.handle ^ _mix64((frame + _SPIKE_SALT) & _MASK64))
        demanded += (spike >> 11) * 2.0**-53 < 1.0 - model.blank_prior
        assert tables.demanded[frame] == demanded
        frame_key = _mix64(tables.handle ^ ((frame + _FRAME_SALT) & _MASK64))
        assert tables.frame_keys[frame] == frame_key
    # A call holding any state past the table scores every state from scratch,
    # so it must match single-state calls, which read the table where they can.
    states = []
    for path in paths:
        state = model.init_predictor()
        for token in path:
            state = model.advance_predictor(state, token % model.vocab.size)
        states.append(state)
    t_begin = data.draw(st.integers(0, frames - 1))
    t_end = data.draw(st.integers(t_begin + 1, frames))
    batched = model.join(encoder, (t_begin, t_end), states, JoinerCounters())
    for row, state in zip(batched, states):
        alone = model.join(encoder, (t_begin, t_end), [state], JoinerCounters())[0]
        assert np.array_equal(row, alone)


@PROPERTY_SETTINGS
@given(
    model=seeded_models(vocab_sizes=st.integers(1, 40)),
    frames=st.integers(1, 12),
    paths=st.lists(st.lists(st.integers(0, 39), max_size=16), min_size=1, max_size=6),
    data=st.data(),
)
def test_seeded_join_equals_the_reference_formula_bit_for_bit(model, frames, paths, data) -> None:
    # Paths may run past the depth table (depths 0..frames-1), and the grids
    # are compared as raw bits, so a sign of zero counts.
    encoder = model.encode(frames, uid="fused")
    states = []
    for path in paths:
        state = model.init_predictor()
        for token in path:
            state = model.advance_predictor(state, token % model.vocab.size)
        states.append(state)
    t_begin = data.draw(st.integers(0, frames - 1))
    t_end = data.draw(st.integers(t_begin + 1, frames))
    got = model.join(encoder, (t_begin, t_end), states, JoinerCounters())
    want = seeded_segment_scores(model, encoder, t_begin, t_end, states)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@PROPERTY_SETTINGS
@given(model=models, cap=st.integers(0, 3), data=st.data())
def test_forward_dp_equals_the_path_enumeration(model, cap, data) -> None:
    # Uncapped models, so the mass past the cap is excluded, not zero.
    encoder = model.encode(data.draw(st.integers(0, min(model.frames, ENUM_MAX_FRAMES))), uid="dp")
    marginals, excluded = exact_marginals(model, encoder, cap)
    enumerated = path_marginals(model, encoder, cap)
    assert marginals.keys() == enumerated.keys()
    assert all(abs(marginals[tokens] - enumerated[tokens]) <= 1e-12 for tokens in enumerated)
    assert abs(total_log_mass(marginals, excluded)) <= 1e-12
    per_sequence = exact_sequence_marginals(model, encoder, list(marginals))
    assert [value.hex() for value in per_sequence] == [value.hex() for value in marginals.values()]


def _matches_exact_marginals(model, cap: int, segment: int) -> None:
    """Unbounded token-capped decode: every positive-mass sequence, at its exact marginal."""
    capped = TokenCapModel(model, cap)
    encoder = capped.encode(min(model.frames, ENUM_MAX_FRAMES), uid="oracle")
    marginals, excluded = exact_marginals(capped, encoder, cap)
    config = DecodeConfig(UNBOUNDED_BEAM, segment_size=segment, nbest=UNBOUNDED_BEAM)
    trace = DecodeTrace()
    result, counters = decode_utterance_tokenwise(capped, encoder, config, trace=trace)
    got = {tokens: score for tokens, score in result.entries if score > LOG_ZERO}
    want = {tokens: score for tokens, score in marginals.items() if score > LOG_ZERO}
    assert got.keys() == want.keys()
    assert all(abs(got[tokens] - want[tokens]) <= 1e-9 for tokens in got)
    assert excluded == LOG_ZERO
    assert trace.mass_checks >= counters.calls
    assert trace.max_mass_defect <= 1e-9


@PROPERTY_SETTINGS
@given(model=models, cap=st.integers(1, 3), data=st.data())
def test_unbounded_beam_reproduces_the_exact_marginals(model, cap, data) -> None:
    segment = data.draw(st.integers(1, min(model.frames, ENUM_MAX_FRAMES) + 1))
    _matches_exact_marginals(model, cap, segment)


@PROPERTY_SETTINGS
@given(model=models, beam=st.integers(1, 4), data=st.data())
def test_every_expansion_round_conserves_mass(model, beam, data) -> None:
    encoder = model.encode(uid="mass")
    segment = data.draw(st.integers(1, encoder.frames + 2))
    config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
    trace = DecodeTrace()
    _, counters = decode_utterance_tokenwise(model, encoder, config, trace=trace)
    assert trace.mass_checks >= counters.calls
    assert trace.max_mass_defect <= 1e-9


@PROPERTY_SETTINGS
@given(model=single_symbol_models, beam=st.integers(1, 3), cap=st.integers(1, 3), data=st.data())
def test_single_symbol_vocabulary(model, beam, cap, data) -> None:
    encoder = model.encode(uid="one")
    config = DecodeConfig(beam_size=beam, segment_size=1, nbest=beam)
    tokenwise, _ = decode_utterance_tokenwise(model, encoder, config)
    standard, _ = decode_utterance_standard(model, encoder, config)
    assert tokenwise.entries == standard.entries
    assert all(set(tokens) <= {0} for tokens, _ in tokenwise.entries)
    segment = data.draw(st.integers(1, min(model.frames, ENUM_MAX_FRAMES) + 1))
    _matches_exact_marginals(model, cap, segment)
