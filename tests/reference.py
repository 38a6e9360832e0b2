"""Independent references that the oracle's own enumeration is checked against.

``enumerate_alignment_paths`` lists every complete alignment path with the
tokens it emits at each frame, and ``exact_marginals_dp`` sweeps the forward
DP over every sequence up to a cap. Neither shares a walk with
``tokenwise.oracle.exact_marginals``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from tokenwise.logmath import LOG_ONE, LOG_ZERO, log_add, log_sum
from tokenwise.model import EncoderOutput, JoinerCounters, TransducerModel
from tokenwise.oracle import (
    ENUM_MAX_TOKENS,
    ENUM_MAX_VOCAB,
    ExactMarginals,
    exact_sequence_marginal,
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


def exact_marginals_dp(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> dict:
    """Marginals of every sequence up to the cap, via the forward DP route."""
    if model.vocab.size > ENUM_MAX_VOCAB:
        raise ValueError(f"full DP sweep handles vocabularies up to {ENUM_MAX_VOCAB}")
    if max_tokens > ENUM_MAX_TOKENS:
        raise ValueError(f"token cap must lie in 0..{ENUM_MAX_TOKENS}")
    out: dict = {}
    for length in range(max_tokens + 1):
        for tokens in itertools.product(range(model.vocab.size), repeat=length):
            marginal = exact_sequence_marginal(model, encoder, tokens)
            if marginal > LOG_ZERO or length == 0:
                out[tokens] = marginal
    return out


def total_log_mass(exact: ExactMarginals) -> float:
    """Mass of complete plus excluded paths; zero in exact arithmetic."""
    return log_add(log_sum(exact.marginals.values()), exact.excluded_log_mass)
