"""Exact references that the decoders are checked against.

``exact_marginals`` enumerates every alignment path of a tiny instance and
``exact_nbest`` ranks its sequences like the decoders do. For one given
sequence, ``exact_sequence_marginal`` runs a forward dynamic program over
the (frame, emitted-token-count) grid, which stretches to bench-length
utterances (up to ``DP_MAX_FRAMES``).

An alignment path interleaves token emissions (which keep the frame fixed)
with blank emissions (which advance the frame); it completes when the blank
of the last frame is emitted. The marginal probability of a token sequence
is the sum over all of its alignment paths. Sequence lengths are capped
so the path set is finite; every path cut off at the cap is accounted for
in ``excluded_log_mass`` rather than dropped, so the total mass over
complete and excluded paths is exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import NBestList, _ranked
from .logmath import LOG_ONE, LOG_ZERO, log_add
from .model import EncoderOutput, JoinerCounters, TransducerModel

ENUM_MAX_FRAMES = 6
ENUM_MAX_VOCAB = 4
ENUM_MAX_TOKENS = 5
DP_MAX_FRAMES = 256


@dataclass(frozen=True)
class ExactMarginals:
    """Alignment-sum marginals for every sequence up to the length cap."""

    marginals: dict
    excluded_log_mass: float
    max_tokens: int

    def log_prob(self, tokens: tuple[int, ...]) -> float:
        return self.marginals.get(tuple(tokens), LOG_ZERO)


class _RowCache:
    """Joiner rows per consumed prefix, fetched once over the whole utterance."""

    def __init__(self, model: TransducerModel, encoder: EncoderOutput) -> None:
        self._model = model
        self._encoder = encoder
        self._scratch = JoinerCounters()
        self._states = {(): model.init_predictor()}
        self._rows: dict = {}

    def state(self, prefix: tuple[int, ...]):
        got = self._states.get(prefix)
        if got is None:
            parent = self.state(prefix[:-1])
            got = self._model.advance_predictor(parent, prefix[-1])
            self._states[prefix] = got
        return got

    def rows(self, prefix: tuple[int, ...]) -> np.ndarray:
        got = self._rows.get(prefix)
        if got is None:
            got = self._model.join(
                self._encoder,
                (0, self._encoder.frames),
                [self.state(prefix)],
                self._scratch,
            )[0]
            self._rows[prefix] = got
        return got


def _check_enum_limits(model: TransducerModel, encoder: EncoderOutput, max_tokens: int) -> None:
    if encoder.frames > ENUM_MAX_FRAMES:
        raise ValueError(f"enumeration handles at most {ENUM_MAX_FRAMES} frames")
    if model.vocab.size > ENUM_MAX_VOCAB:
        raise ValueError(f"enumeration handles vocabularies up to {ENUM_MAX_VOCAB}")
    if not (0 <= max_tokens <= ENUM_MAX_TOKENS):
        raise ValueError(f"token cap must lie in 0..{ENUM_MAX_TOKENS}")


def exact_marginals(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> ExactMarginals:
    """Alignment-sum marginal of every sequence of at most ``max_tokens``.

    One depth-first walk over the alignment paths: at each node the blank
    branch is taken before the tokens in id order. Each complete path's mass
    is log-added into its sequence's marginal; an emission that would push a
    sequence past the cap log-adds its mass, which covers every continuation,
    into ``excluded_log_mass``. Zero-probability branches are not entered, so
    their sequences stay at marginal zero. Only tiny instances are accepted;
    the walk is exponential by design.
    """
    _check_enum_limits(model, encoder, max_tokens)
    frames = encoder.frames
    vocab_size = model.vocab.size
    cache = _RowCache(model, encoder)
    marginals: dict = {}
    excluded = LOG_ZERO

    def walk(frame: int, prefix: tuple[int, ...], log_prob: float) -> None:
        nonlocal excluded
        rows = cache.rows(prefix)
        blank_score = log_prob + rows[frame, vocab_size]
        if blank_score > LOG_ZERO:
            if frame + 1 == frames:
                marginals[prefix] = log_add(marginals.get(prefix, LOG_ZERO), blank_score)
            else:
                walk(frame + 1, prefix, blank_score)
        for token in range(vocab_size):
            emit_score = log_prob + rows[frame, token]
            if emit_score == LOG_ZERO:
                continue
            if len(prefix) >= max_tokens:
                excluded = log_add(excluded, emit_score)
            else:
                walk(frame, prefix + (token,), emit_score)

    if frames == 0:
        marginals[()] = LOG_ONE
    else:
        walk(0, (), LOG_ONE)
    return ExactMarginals(marginals, excluded, max_tokens)


def exact_sequence_marginal(
    model: TransducerModel, encoder: EncoderOutput, tokens: tuple[int, ...]
) -> float:
    """Alignment-sum marginal of one sequence via the forward DP.

    Grid cell (t, u) accumulates the mass of path prefixes that stand at
    frame t having emitted the first u tokens; a cell is fed by emitting
    token u at frame t or by the blank of frame t-1.
    """
    if encoder.frames > DP_MAX_FRAMES:
        raise ValueError(f"forward DP handles at most {DP_MAX_FRAMES} frames")
    tokens = tuple(int(k) for k in tokens)
    frames = encoder.frames
    count = len(tokens)
    if frames == 0:
        return LOG_ONE if count == 0 else LOG_ZERO
    cache = _RowCache(model, encoder)
    prefix_rows = [cache.rows(tokens[:u]) for u in range(count + 1)]
    blank = model.vocab.blank_id
    grid = np.full((frames, count + 1), LOG_ZERO)
    grid[0, 0] = LOG_ONE
    for t in range(frames):
        for u in range(count + 1):
            total = grid[t, u]
            if u >= 1:
                total = log_add(total, grid[t, u - 1] + prefix_rows[u - 1][t, tokens[u - 1]])
            if t >= 1:
                total = log_add(total, grid[t - 1, u] + prefix_rows[u][t - 1, blank])
            grid[t, u] = total
    return float(grid[frames - 1, count] + prefix_rows[count][frames - 1, blank])


def exact_nbest(
    model: TransducerModel, encoder: EncoderOutput, n: int, max_tokens: int
) -> NBestList:
    """Top ``n`` sequences by exact marginal, ranked like the decoders."""
    exact = exact_marginals(model, encoder, max_tokens)
    entries = {
        tokens: (score, None)
        for tokens, score in exact.marginals.items()
        if score > LOG_ZERO or tokens == ()
    }
    return NBestList(tuple((tokens, score) for tokens, score, _ in _ranked(entries, n)))
