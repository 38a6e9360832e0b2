"""Independent reference that the oracle's forward DP is checked against.

``enumerate_alignment_paths`` lists every complete alignment path with the
tokens it emits at each frame, with its own joiner rows, and
``path_marginals`` log-sums the paths of each sequence. Neither shares code
with the column fold of ``tokenwise.oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tokenwise.logmath import LOG_ONE, LOG_ZERO, log_add, log_sum_exp
from tokenwise.model import EncoderOutput, JoinerCounters, TransducerModel
from tokenwise.oracle import ExactMarginals


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


def total_log_mass(exact: ExactMarginals) -> float:
    """Mass of complete plus excluded paths; zero in exact arithmetic."""
    covered = log_sum_exp(np.array(list(exact.marginals.values())), 0)[0]
    return log_add(float(covered), exact.excluded_log_mass)
