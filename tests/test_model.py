"""Tests for the synthetic model families and their serialization."""

from __future__ import annotations

import numpy as np
import pytest

from tokenwise.logmath import LOG_ZERO, log_sum_array
from tokenwise.model import (
    EncoderOutput,
    JoinerCounters,
    ModelFormatError,
    ModelSpec,
    SeededModel,
    TabularModel,
    TokenCapModel,
    Vocabulary,
    load_model,
    load_model_file,
    read_model_spec,
    write_model_spec,
)

# Frozen joiner outputs for SeededModel(vocab_size=3, frames=4, seed=99),
# uid "golden", empty prefix. A change here means decode results shift for
# every stored corpus, so it must be deliberate.
GOLDEN_EMPTY_PREFIX = np.array(
    [
        [-0.4383763275903712, -3.646045321635057, -3.5292986192710307, -1.2056494440228207],
        [-3.033132782439186, -7.174992005340695, -6.675765585684543, -0.05149448426440482],
        [-1.5555308510010093, -5.260493843793967, -4.56424247664914, -0.25707244375343674],
        [-0.6187046346426484, -2.771581940633896, -3.9204341759776735, -0.9703171297089725],
    ]
)


def _golden_model() -> SeededModel:
    return SeededModel(vocab_size=3, frames=4, seed=99)


def test_seeded_join_matches_frozen_values() -> None:
    model = _golden_model()
    encoder = model.encode(uid="golden")
    grid = model.join(encoder, (0, 4), [model.init_predictor()], JoinerCounters())
    assert grid.shape == (1, 4, 4)
    assert np.abs(grid[0] - GOLDEN_EMPTY_PREFIX).max() < 1e-15


def test_seeded_rows_are_normalized() -> None:
    model = SeededModel(vocab_size=16, frames=30, seed=5)
    encoder = model.encode(uid="norm")
    state = model.init_predictor()
    deep = model.advance_predictor(state, 7)
    grid = model.join(encoder, (0, 30), [state, deep], JoinerCounters())
    assert np.abs(log_sum_array(grid, axis=-1)).max() < 1e-12


def test_seeded_model_is_deterministic() -> None:
    one = SeededModel(vocab_size=4, frames=8, seed=21).join(
        SeededModel(vocab_size=4, frames=8, seed=21).encode(uid="x"),
        (0, 8),
        [SeededModel(vocab_size=4, frames=8, seed=21).init_predictor()],
        JoinerCounters(),
    )[0]
    other_model = SeededModel(vocab_size=4, frames=8, seed=21)
    other = other_model.join(
        other_model.encode(uid="x"), (0, 8), [other_model.init_predictor()], JoinerCounters()
    )[0]
    assert np.array_equal(one, other)


def test_seeded_model_varies_with_seed_and_uid() -> None:
    base = SeededModel(vocab_size=4, frames=6, seed=1)
    other_seed = SeededModel(vocab_size=4, frames=6, seed=2)
    rows = base.join(base.encode(uid="a"), (0, 6), [base.init_predictor()], JoinerCounters())[0]
    seed_rows = other_seed.join(
        other_seed.encode(uid="a"), (0, 6), [other_seed.init_predictor()], JoinerCounters()
    )[0]
    uid_rows = base.join(base.encode(uid="b"), (0, 6), [base.init_predictor()], JoinerCounters())[0]
    assert np.abs(rows - seed_rows).max() > 0.01
    assert np.abs(rows - uid_rows).max() > 0.01


def test_seeded_model_is_prefix_order_sensitive() -> None:
    model = SeededModel(vocab_size=4, frames=6, seed=3)
    encoder = model.encode(uid="order")
    root = model.init_predictor()
    one_two = model.advance_predictor(model.advance_predictor(root, 1), 2)
    two_one = model.advance_predictor(model.advance_predictor(root, 2), 1)
    assert one_two.depth == two_one.depth == 2
    assert one_two.key != two_one.key
    rows = model.join(encoder, (0, 6), [one_two, two_one], JoinerCounters())
    assert np.abs(rows[0] - rows[1]).max() > 0.01


def test_join_without_seeded_tables_raises() -> None:
    model = SeededModel(vocab_size=4, frames=6, seed=17)
    encoder = model.encode(uid="payload")
    bare = EncoderOutput(frames=encoder.frames, handle=encoder.handle, uid=encoder.uid)
    assert bare.payload is None
    state = model.init_predictor()
    counters = JoinerCounters()
    with pytest.raises(ValueError, match="no seeded tables"):
        model.join(bare, (2, 5), [state], counters)
    assert counters.calls == 0
    model.join(encoder, (2, 5), [state], counters)
    assert counters.calls == 1


def test_encode_rejects_negative_frames() -> None:
    model = _golden_model()
    with pytest.raises(ValueError):
        model.encode(frames=-1)


def test_join_counts_one_call_regardless_of_batch() -> None:
    model = SeededModel(vocab_size=4, frames=10, seed=4)
    encoder = model.encode(uid="count")
    root = model.init_predictor()
    states = [root, model.advance_predictor(root, 0), model.advance_predictor(root, 3)]
    counters = JoinerCounters()
    model.join(encoder, (2, 7), states, counters)
    assert counters.calls == 1
    assert counters.frame_joins == 5
    model.join(encoder, (0, 10), states[:1], counters)
    assert counters.calls == 2
    assert counters.frame_joins == 15


def test_join_validates_range_and_states() -> None:
    model = _golden_model()
    encoder = model.encode(uid="range")
    state = model.init_predictor()
    counters = JoinerCounters()
    with pytest.raises(ValueError):
        model.join(encoder, (2, 2), [state], counters)
    with pytest.raises(ValueError):
        model.join(encoder, (-1, 2), [state], counters)
    with pytest.raises(ValueError):
        model.join(encoder, (0, 5), [state], counters)
    with pytest.raises(ValueError):
        model.join(encoder, (0, 2), [], counters)
    assert counters.calls == 0


class _MisshapenModel(TabularModel):
    """Cuts every grid it returns with a fixed index, to break its shape."""

    def __init__(self, cut) -> None:
        super().__init__(vocab_size=2, payload=_uniform_payload(3, 2, 3))
        self.cut = cut

    def _segment_scores(self, encoder, t_begin, t_end, states):
        return super()._segment_scores(encoder, t_begin, t_end, states)[self.cut]


@pytest.mark.parametrize(
    "cut",
    [
        np.s_[:, :-1, :],  # a frame short
        np.s_[:, :, :-1],  # no blank column
        np.s_[:1, :, :],  # one state short
        np.s_[:, 0, :],  # frame axis dropped
    ],
)
def test_join_rejects_a_grid_of_the_wrong_shape(cut) -> None:
    model = _MisshapenModel(cut)
    root = model.init_predictor()
    states = [root, model.advance_predictor(root, 1)]
    counters = JoinerCounters()
    with pytest.raises(ValueError, match="shape"):
        model.join(model.encode(), (0, 3), states, counters)
    assert counters.calls == 0


def test_counters_record_call_rejects_empty_range() -> None:
    with pytest.raises(ValueError):
        JoinerCounters().record_call(0)


def test_counters_merge_adds_fields() -> None:
    a = JoinerCounters(calls=2, frame_joins=10, frames_decoded=5, forced_finalizations=1)
    b = JoinerCounters(calls=1, frame_joins=3, frames_decoded=2, forced_finalizations=0)
    a.merge(b)
    assert (a.calls, a.frame_joins, a.frames_decoded, a.forced_finalizations) == (3, 13, 7, 1)


def test_predictor_rejects_blank_and_out_of_range_tokens() -> None:
    model = _golden_model()
    state = model.init_predictor()
    with pytest.raises(ValueError):
        model.advance_predictor(state, model.vocab.blank_id)
    with pytest.raises(ValueError):
        model.advance_predictor(state, -1)
    assert model.advance_predictor(state, 0).depth == 1


def test_blank_prior_bounds() -> None:
    with pytest.raises(ModelFormatError):
        SeededModel(vocab_size=2, frames=3, seed=1, blank_prior=1.0)
    with pytest.raises(ModelFormatError):
        SeededModel(vocab_size=2, frames=3, seed=1, blank_prior=0.0)


def test_blank_prior_shifts_blank_mass() -> None:
    low = SeededModel(vocab_size=4, frames=40, seed=8, blank_prior=0.55)
    high = SeededModel(vocab_size=4, frames=40, seed=8, blank_prior=0.95)
    state_low = low.init_predictor()
    state_high = high.init_predictor()
    mean_low = low.join(low.encode(uid="p"), (0, 40), [state_low], JoinerCounters())[0]
    mean_high = high.join(high.encode(uid="p"), (0, 40), [state_high], JoinerCounters())[0]
    assert np.exp(mean_low[:, -1]).mean() < np.exp(mean_high[:, -1]).mean()


def _uniform_payload(frames: int, prefixes: int, symbols: int) -> list:
    return np.zeros((frames, prefixes, symbols)).tolist()


def test_tabular_model_normalizes_and_clamps_depth() -> None:
    payload = np.zeros((2, 2, 3))
    payload[:, 0, 0] = 2.0
    payload[:, 1, 1] = 2.0
    model = TabularModel(vocab_size=2, payload=payload.tolist())
    encoder = model.encode()
    root = model.init_predictor()
    deep = model.advance_predictor(model.advance_predictor(root, 0), 0)
    assert deep.depth == 2
    rows = model.join(encoder, (0, 2), [root, deep], JoinerCounters())
    assert np.abs(log_sum_array(rows[0], axis=-1)).max() < 1e-12
    # depth 2 exceeds the two stored prefix rows, so the last row is reused
    second = model.join(encoder, (0, 2), [model.advance_predictor(root, 0)], JoinerCounters())[0]
    assert np.array_equal(rows[1], second)


def test_tabular_model_validates_payload() -> None:
    with pytest.raises(ModelFormatError):
        TabularModel(vocab_size=2, payload=[[[0.0, 0.0], [0.0]]])
    with pytest.raises(ModelFormatError):
        TabularModel(vocab_size=2, payload=_uniform_payload(2, 1, 4))
    with pytest.raises(ModelFormatError):
        TabularModel(vocab_size=2, payload=np.zeros((2, 0, 3)).tolist())
    nan_payload = np.zeros((1, 1, 3))
    nan_payload[0, 0, 0] = np.nan
    with pytest.raises(ModelFormatError):
        TabularModel(vocab_size=2, payload=nan_payload.tolist())
    dead_row = np.full((1, 1, 3), LOG_ZERO)
    with pytest.raises(ModelFormatError):
        TabularModel(vocab_size=2, payload=dead_row.tolist())


def test_tabular_encode_bounds() -> None:
    model = TabularModel(vocab_size=2, payload=_uniform_payload(3, 1, 3))
    assert model.encode(frames=2).frames == 2
    with pytest.raises(ValueError):
        model.encode(frames=4)


def test_token_cap_model_makes_deep_states_blank_certain() -> None:
    inner = SeededModel(vocab_size=3, frames=4, seed=12)
    capped = TokenCapModel(inner, cap=2)
    encoder = capped.encode(uid="cap")
    state = capped.init_predictor()
    for _ in range(2):
        state = capped.advance_predictor(state, 1)
    rows = capped.join(encoder, (0, 4), [state], JoinerCounters())[0]
    assert (rows[:, :-1] == LOG_ZERO).all()
    assert (rows[:, -1] == 0.0).all()
    shallow = capped.join(encoder, (0, 4), [capped.init_predictor()], JoinerCounters())[0]
    assert (shallow[:, :-1] > LOG_ZERO).any()


def test_token_cap_model_validates_and_refuses_spec() -> None:
    inner = _golden_model()
    with pytest.raises(ValueError):
        TokenCapModel(inner, cap=0)


def test_model_spec_round_trip() -> None:
    spec = ModelSpec(kind="seeded", vocab_size=7, frames=20, seed=42, blank_prior=0.7)
    again = ModelSpec.from_dict(spec.to_dict())
    assert again == spec
    rebuilt = load_model(again)
    assert isinstance(rebuilt, SeededModel)
    fields = (rebuilt.vocab.size, rebuilt.frames, rebuilt.seed, rebuilt.blank_prior)
    assert fields == (spec.vocab_size, spec.frames, spec.seed, spec.blank_prior)


def test_model_spec_validation() -> None:
    with pytest.raises(ModelFormatError):
        ModelSpec(kind="mystery", vocab_size=2, frames=2, seed=1)
    with pytest.raises(ModelFormatError):
        ModelSpec(kind="seeded", vocab_size=2, frames=2)
    with pytest.raises(ModelFormatError):
        ModelSpec(kind="tabular", vocab_size=2, frames=2)
    with pytest.raises(ModelFormatError):
        ModelSpec(kind="seeded", vocab_size=0, frames=2, seed=1)
    with pytest.raises(ModelFormatError):
        ModelSpec.from_dict({"kind": "seeded", "vocab_size": 2, "frames": 2, "seed": 1, "zap": 3})
    with pytest.raises(ModelFormatError):
        ModelSpec.from_dict({"kind": "seeded", "vocab_size": 2})
    with pytest.raises(ModelFormatError):
        ModelSpec.from_dict([1, 2, 3])


def test_spec_file_round_trip(tmp_path) -> None:
    path = tmp_path / "model.json"
    spec = ModelSpec(kind="tabular", vocab_size=2, frames=2, payload=_uniform_payload(2, 1, 3))
    write_model_spec(spec, path)
    assert read_model_spec(path) == spec
    model = load_model_file(path)
    assert isinstance(model, TabularModel)


def test_tabular_spec_frame_mismatch_rejected() -> None:
    spec = ModelSpec(kind="tabular", vocab_size=2, frames=5, payload=_uniform_payload(2, 1, 3))
    with pytest.raises(ModelFormatError):
        load_model(spec)


def test_read_model_spec_bad_file(tmp_path) -> None:
    missing = tmp_path / "nope.json"
    with pytest.raises(ModelFormatError):
        read_model_spec(missing)
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        read_model_spec(garbled)


def test_encoder_payload_ignored_by_equality() -> None:
    a = EncoderOutput(frames=3, handle=1, uid="u", payload=np.array([0, 1, 1]))
    b = EncoderOutput(frames=3, handle=1, uid="u", payload=None)
    assert a == b


def test_vocabulary_blank_is_last_symbol() -> None:
    vocab = Vocabulary(5)
    assert vocab.blank_id == 5
    assert vocab.num_symbols == 6


def test_vocabulary_rejects_empty() -> None:
    with pytest.raises(ValueError):
        Vocabulary(0)
