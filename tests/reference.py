"""Independent references that the oracle's forward DP and the seeded joiner are checked against.

``enumerate_alignment_paths`` lists every complete alignment path with the
tokens it emits at each frame, with its own joiner rows, and
``path_marginals`` log-sums the paths of each sequence. Neither shares code
with the column fold of ``tokenwise.oracle``. ``seeded_segment_scores`` is
the seeded joiner's grid written out term by term, one hash per term and
its own splitmix64, with none of the model's fused passes.
``strip_timing`` drops the wall-clock parts of a benchmark report, the only
parts two runs of one sweep may differ in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tokenwise.logmath import LOG_ONE, LOG_ZERO, log_add, log_normalize, log_sum_exp
from tokenwise.model import (
    _BLANK_GATE_SPREAD,
    _CATCHUP_PULL,
    _GATE_SALT,
    _GOLDEN,
    _MIX1,
    _MIX2,
    _PREFERRED_BOOST,
    _SYMBOL_SALT,
    _TOKEN_JITTER,
    EncoderOutput,
    JoinerCounters,
    PredictorState,
    SeededModel,
    TransducerModel,
)


@dataclass(frozen=True)
class AlignmentPath:
    """One complete alignment: the emitted symbols frame by frame.

    ``emissions`` lists, for each frame in order, the tokens emitted there
    followed implicitly by the blank that advanced past the frame.
    """

    tokens: tuple[int, ...]
    emissions: tuple[tuple[int, ...], ...]
    log_prob: float


def enumerate_alignment_paths(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> list[AlignmentPath]:
    """Every complete path emitting at most ``max_tokens`` tokens, blank branch first."""
    frames = encoder.frames
    if frames == 0:
        return [AlignmentPath((), (), LOG_ONE)]
    rows: dict = {}

    def prefix_rows(prefix: tuple[int, ...]):
        if prefix not in rows:
            state = model.init_predictor()
            for token in prefix:
                state = model.advance_predictor(state, token)
            rows[prefix] = model.join(encoder, (0, frames), [state], JoinerCounters())[0]
        return rows[prefix]

    paths = []

    def walk(frame, prefix, log_prob, emissions, burst):
        row = prefix_rows(prefix)[frame]
        blank_score = log_prob + row[model.vocab.blank_id]
        if blank_score > LOG_ZERO:
            closed = emissions + (burst,)
            if frame + 1 == frames:
                paths.append(AlignmentPath(prefix, closed, blank_score))
            else:
                walk(frame + 1, prefix, blank_score, closed, ())
        if len(prefix) < max_tokens:
            for token in range(model.vocab.size):
                emit_score = log_prob + row[token]
                if emit_score > LOG_ZERO:
                    walk(frame, prefix + (token,), emit_score, emissions, burst + (token,))

    walk(0, (), LOG_ONE, (), ())
    return paths


def path_marginals(model: TransducerModel, encoder: EncoderOutput, max_tokens: int) -> dict:
    """Marginal of every sequence with a complete path: its paths' masses, log-summed."""
    terms: dict = {}
    for path in enumerate_alignment_paths(model, encoder, max_tokens):
        terms.setdefault(path.tokens, []).append(path.log_prob)
    return {
        tokens: float(log_sum_exp(np.array(values), 0)[0]) for tokens, values in terms.items()
    }


def total_log_mass(marginals: dict, excluded_log_mass: float) -> float:
    """Mass of complete plus excluded paths; zero in exact arithmetic."""
    covered = log_sum_exp(np.array(list(marginals.values())), 0)[0]
    return log_add(float(covered), excluded_log_mass)


def strip_timing(data: dict) -> dict:
    """Copy of a report dict with every ``timing`` object removed."""
    if isinstance(data, dict):
        return {k: strip_timing(v) for k, v in data.items() if k != "timing"}
    if isinstance(data, list):
        return [strip_timing(v) for v in data]
    return data


def _mix64_array(values: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, one new array per step."""
    out = values + np.uint64(_GOLDEN)
    out = (out ^ (out >> np.uint64(30))) * np.uint64(_MIX1)
    out = (out ^ (out >> np.uint64(27))) * np.uint64(_MIX2)
    return out ^ (out >> np.uint64(31))


def _unit(keys: np.ndarray) -> np.ndarray:
    """The top 53 bits of each key as a float in [0, 1)."""
    return (keys >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def seeded_segment_scores(
    model: SeededModel,
    encoder: EncoderOutput,
    t_begin: int,
    t_end: int,
    states: list[PredictorState],
) -> np.ndarray:
    """The (states, frames, symbols) grid a seeded ``join`` must return.

    Depth terms come from the encoder's table where it reaches and from
    ``_depth_terms`` past it. The gate hashes the acoustic key, the token
    jitter hashes the state key once per token lane, and the grid is
    concatenated from the token and blank columns.
    """
    tables = encoder.payload
    depths = np.array([s.depth for s in states], dtype=np.int64)
    frame_keys = tables.frame_keys[t_begin:t_end]
    demanded = tables.demanded[t_begin:t_end]
    if depths.max() < len(tables.preferred):
        depth_keys = tables.depth_keys[depths]
        preferred = tables.preferred[depths]
    else:
        depth_keys, preferred = model._depth_terms(tables.handle, depths)

    acoustic = _mix64_array(depth_keys[:, None] ^ frame_keys[None, :])
    gate_unit = _unit(_mix64_array(acoustic ^ np.uint64(_GATE_SALT)))
    owed = demanded[None, :] - depths[:, None]
    gate = model._prior_logit + _BLANK_GATE_SPREAD * (gate_unit - 0.5) - _CATCHUP_PULL * owed
    log_blank = -np.logaddexp(0.0, -gate)
    log_nonblank = -np.logaddexp(0.0, gate)

    state_keys = np.array([s.key for s in states], dtype=np.uint64)
    context = _mix64_array(state_keys[:, None] ^ frame_keys[None, :])
    lanes = np.arange(1, model.vocab.size + 1, dtype=np.uint64) * np.uint64(_SYMBOL_SALT)
    jitter_unit = _unit(_mix64_array(context[:, :, None] ^ lanes[None, None, :]))
    token_logits = _TOKEN_JITTER * jitter_unit
    token_logits += _PREFERRED_BOOST * (
        np.arange(model.vocab.size)[None, None, :] == preferred[:, None, None]
    )
    log_tokens = log_normalize(token_logits, axis=-1) + log_nonblank[:, :, None]
    return np.concatenate([log_tokens, log_blank[:, :, None]], axis=2)
