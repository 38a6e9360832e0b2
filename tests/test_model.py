"""Tests for the synthetic model families and their serialization."""

from __future__ import annotations

import hashlib
import json
import pickle
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from tokenwise.decoder import DecodeConfig, decode_utterance_tokenwise
from tokenwise.harness import load_corpus
from tokenwise.logmath import LOG_ZERO, log_normalize, log_sum_exp
from tokenwise.model import (
    EncoderOutput,
    JoinerCounters,
    SeededModel,
    TabularModel,
    TokenCapModel,
    Vocabulary,
    load_model,
    load_model_file,
    read_model_spec,
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


# sha256 of the raw bits of every grid below, recorded before the joiner's
# passes were fused. Any change to a single bit of any cell changes it.
BENCH_PROBE_SHA256 = "d83851962f432143f98c6fd78bca67ad8a00e2a6b8df5c9f3203dccfe25def92"
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def test_seeded_join_grids_on_the_bench_probe_shapes_are_frozen() -> None:
    # The first 8 bench utterances, each joined at 1, 2, 4 and 8 chained
    # states over its first 1, 2, 5 and 10 frames.
    model = load_model_file(DATA_DIR / "bench_model.json")
    utterances = load_corpus(DATA_DIR / "bench_corpus.jsonl", model.vocab)[:8]
    digest = hashlib.sha256()
    for utterance in utterances:
        encoder = model.encode(utterance.frames, utterance.uid)
        chain = [model.init_predictor()]
        while len(chain) < 8:
            chain.append(model.advance_predictor(chain[-1], len(chain) % model.vocab.size))
        for states in (1, 2, 4, 8):
            for width in (1, 2, 5, 10):
                frames = (0, min(width, encoder.frames))
                grid = model.join(encoder, frames, chain[:states], JoinerCounters())
                digest.update(grid.view(np.uint64).tobytes())
    assert digest.hexdigest() == BENCH_PROBE_SHA256


def test_seeded_rows_are_normalized() -> None:
    model = SeededModel(vocab_size=16, frames=30, seed=5)
    encoder = model.encode(uid="norm")
    state = model.init_predictor()
    deep = model.advance_predictor(state, 7)
    grid = model.join(encoder, (0, 30), [state, deep], JoinerCounters())
    assert np.abs(log_sum_exp(grid, -1)).max() < 1e-12


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
    bare = EncoderOutput(frames=encoder.frames, uid=encoder.uid)
    assert bare.payload is None
    state = model.init_predictor()
    counters = JoinerCounters()
    with pytest.raises(ValueError, match="no seeded tables"):
        model.join(bare, (2, 5), [state], counters)
    assert counters.calls == 0
    model.join(encoder, (2, 5), [state], counters)
    assert counters.calls == 1


def test_loading_a_seeded_model_does_not_scale_with_its_frames() -> None:
    spec = {"kind": "seeded", "vocab_size": 3, "frames": 10**6, "seed": 99}
    tracemalloc.start()
    try:
        model = load_model(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    small = load_model({**spec, "frames": 3})
    config = DecodeConfig(beam_size=4, segment_size=2, nbest=4)
    for uid in ("golden", "other"):
        got, _ = decode_utterance_tokenwise(model, model.encode(3, uid), config)
        want, _ = decode_utterance_tokenwise(small, small.encode(3, uid), config)
        assert got == want


def test_encode_leaves_a_seeded_model_unchanged() -> None:
    model = _golden_model()
    before = pickle.dumps(model)
    for frames in (0, 7, 300):
        model.encode(frames, uid="still")
        assert pickle.dumps(model) == before
    # A state deeper than the depth table is scored without touching the model either.
    state = model.init_predictor()
    for token in (0, 1, 2, 0, 1):
        state = model.advance_predictor(state, token)
    model.join(model.encode(3, uid="still"), (0, 3), [state], JoinerCounters())
    assert pickle.dumps(model) == before


def test_encode_rejects_negative_frames() -> None:
    model = _golden_model()
    with pytest.raises(ValueError, match="cannot be negative"):
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


def test_counters_merge_adds_fields() -> None:
    a = JoinerCounters(calls=2, frame_joins=10, frames_decoded=5, forced_finalizations=1)
    b = JoinerCounters(calls=1, frame_joins=3, frames_decoded=2, forced_finalizations=0)
    a.merge(b)
    assert (a.calls, a.frame_joins, a.frames_decoded, a.forced_finalizations) == (3, 13, 7, 1)
    # Every field, however many there are, is added: distinct values catch a swap.
    names = [f.name for f in fields(JoinerCounters)]
    left = JoinerCounters(**{name: 10 ** i for i, name in enumerate(names)})
    right = JoinerCounters(**{name: 7 * 10 ** i for i, name in enumerate(names)})
    left.merge(right)
    assert {name: getattr(left, name) for name in names} == {
        name: 8 * 10 ** i for i, name in enumerate(names)
    }


def test_predictor_rejects_blank_and_out_of_range_tokens() -> None:
    model = _golden_model()
    state = model.init_predictor()
    with pytest.raises(ValueError):
        model.advance_predictor(state, model.vocab.blank_id)
    with pytest.raises(ValueError):
        model.advance_predictor(state, -1)
    assert model.advance_predictor(state, 0).depth == 1


def test_blank_prior_bounds() -> None:
    with pytest.raises(ValueError, match="blank_prior must lie strictly between 0 and 1"):
        SeededModel(vocab_size=2, frames=3, seed=1, blank_prior=1.0)
    with pytest.raises(ValueError, match="blank_prior must lie strictly between 0 and 1"):
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
    assert np.abs(log_sum_exp(rows[0], -1)).max() < 1e-12
    # normalized once at load, bit for bit as if each joined block were normalized
    raw = np.transpose(payload[:, [0, 1], :], (1, 0, 2))
    assert rows.tobytes() == np.ascontiguousarray(log_normalize(raw, axis=-1)).tobytes()
    # depth 2 exceeds the two stored prefix rows, so the last row is reused
    second = model.join(encoder, (0, 2), [model.advance_predictor(root, 0)], JoinerCounters())[0]
    assert np.array_equal(rows[1], second)


def test_tabular_model_validates_payload() -> None:
    with pytest.raises(ValueError, match="not a rectangular numeric table"):
        TabularModel(vocab_size=2, payload=[[[0.0, 0.0], [0.0]]])
    with pytest.raises(ValueError) as raised:
        TabularModel(vocab_size=2, payload=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert str(raised.value) == "payload must be nested as frames x prefixes x symbols"
    with pytest.raises(ValueError, match="rows have 4 symbols, expected 3"):
        TabularModel(vocab_size=2, payload=_uniform_payload(2, 1, 4))
    # As a list, a table with no prefix rows flattens to 2-D; as an array it keeps its shape.
    with pytest.raises(ValueError, match="at least one prefix row"):
        TabularModel(vocab_size=2, payload=np.zeros((2, 0, 3)))
    nan_payload = np.zeros((1, 1, 3))
    nan_payload[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="must be finite or -inf"):
        TabularModel(vocab_size=2, payload=nan_payload.tolist())
    dead_row = np.full((1, 1, 3), LOG_ZERO)
    with pytest.raises(ValueError, match="a row with no finite logit"):
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


def test_token_cap_model_rejects_a_cap_below_one() -> None:
    inner = _golden_model()
    with pytest.raises(ValueError, match="token cap must be positive"):
        TokenCapModel(inner, cap=0)
    # A fractional cap is refused, not truncated to the integer below it.
    with pytest.raises(ValueError, match="token cap must be an integer"):
        TokenCapModel(inner, cap=2.5)
    assert TokenCapModel(inner, cap=np.int64(2)).cap == 2


def test_model_spec_round_trip() -> None:
    spec = {"kind": "seeded", "vocab_size": 7, "frames": 20, "seed": 42, "blank_prior": 0.7}
    rebuilt = load_model(json.loads(json.dumps(spec)))
    assert isinstance(rebuilt, SeededModel)
    fields = (rebuilt.vocab.size, rebuilt.frames, rebuilt.seed, rebuilt.blank_prior)
    assert fields == (7, 20, 42, 0.7)


def test_model_spec_validation() -> None:
    seeded = {"kind": "seeded", "vocab_size": 2, "frames": 2, "seed": 1}
    with pytest.raises(ValueError, match="unknown model kind: 'mystery'"):
        load_model({**seeded, "kind": "mystery"})
    with pytest.raises(ValueError, match="seeded model needs a seed"):
        load_model({"kind": "seeded", "vocab_size": 2, "frames": 2})
    with pytest.raises(ValueError, match="tabular model needs a payload"):
        load_model({"kind": "tabular", "vocab_size": 2, "frames": 2})
    with pytest.raises(ValueError, match="vocab_size must be positive"):
        load_model({**seeded, "vocab_size": 0})
    with pytest.raises(ValueError, match="frames cannot be negative"):
        load_model({**seeded, "frames": -1})
    with pytest.raises(ValueError, match=re.escape("unknown model spec fields: ['zap']")):
        load_model({**seeded, "zap": 3})
    with pytest.raises(ValueError, match="model spec is missing field 'frames'"):
        load_model({"kind": "seeded", "vocab_size": 2})
    with pytest.raises(ValueError, match="model spec must be a JSON object"):
        load_model([1, 2, 3])


def test_spec_file_round_trip(tmp_path) -> None:
    path = tmp_path / "model.json"
    spec = {"kind": "tabular", "vocab_size": 2, "frames": 2, "payload": _uniform_payload(2, 1, 3)}
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert read_model_spec(path) == spec
    model = load_model_file(path)
    assert isinstance(model, TabularModel)


def test_tabular_spec_frame_mismatch_rejected() -> None:
    spec = {"kind": "tabular", "vocab_size": 2, "frames": 5, "payload": _uniform_payload(2, 1, 3)}
    with pytest.raises(ValueError, match="payload holds 2 frames but spec declares 5"):
        load_model(spec)


def test_read_model_spec_bad_file(tmp_path) -> None:
    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError, match=re.escape(f"cannot read model file {missing}: ")):
        read_model_spec(missing)
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"model file {garbled} is not valid JSON: ")):
        read_model_spec(garbled)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(ValueError, match=f"model file .*{latin1.name} is not UTF-8 text"):
        read_model_spec(latin1)


def test_encoder_payload_ignored_by_equality() -> None:
    a = EncoderOutput(frames=3, uid="u", payload=np.array([0, 1, 1]))
    b = EncoderOutput(frames=3, uid="u", payload=None)
    assert a == b


def test_vocabulary_blank_is_last_symbol() -> None:
    vocab = Vocabulary(5)
    assert vocab.blank_id == 5
    assert vocab.num_symbols == 6


def test_vocabulary_rejects_empty() -> None:
    with pytest.raises(ValueError):
        Vocabulary(0)
