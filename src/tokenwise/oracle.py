"""Exact brute-force references for tiny decoding instances.

Two independent routes to the same numbers: explicit enumeration of every
alignment path, and a forward dynamic program over the (frame,
emitted-token-count) grid. The enumeration is the root of trust; the DP
cross-checks it and stretches to somewhat longer utterances.

An alignment path interleaves token emissions (which keep the frame fixed)
with blank emissions (which advance the frame); it completes when the blank
of the last frame is emitted. The marginal probability of a token sequence
is the sum over all of its alignment paths. Sequence lengths are capped
so the path set is finite; every path cut off at the cap is accounted for
in ``excluded_log_mass`` rather than dropped, so the total mass over
complete and excluded paths is exactly one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .decoder import NBestList, _ranked
from .logmath import LOG_ONE, LOG_ZERO, log_add, log_sum
from .model import EncoderOutput, JoinerCounters, TransducerModel

ENUM_MAX_FRAMES = 6
ENUM_MAX_VOCAB = 4
ENUM_MAX_TOKENS = 5
DP_MAX_FRAMES = 256


@dataclass(frozen=True)
class AlignmentPath:
    """One complete alignment: the emitted symbols frame by frame.

    ``emissions`` lists, for each frame in order, the tokens emitted there
    followed implicitly by the blank that advanced past the frame.
    """

    tokens: tuple[int, ...]
    emissions: tuple[tuple[int, ...], ...]
    log_prob: float


@dataclass(frozen=True)
class ExactMarginals:
    """Alignment-sum marginals for every sequence up to the length cap."""

    marginals: dict
    excluded_log_mass: float
    max_tokens: int

    def total_log_mass(self) -> float:
        """Mass of complete plus excluded paths; zero in exact arithmetic."""
        return log_add(log_sum(self.marginals.values()), self.excluded_log_mass)

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


def _walk_paths(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> Iterator[tuple[str, tuple[int, ...], float, tuple]]:
    """Depth-first traversal shared by the event and path views.

    Yields ``("complete", tokens, log_prob, per_frame_emissions)`` once per
    complete path and ``("truncated", tokens, log_mass, ())`` whenever an
    emission would push a sequence past the cap; the truncated mass covers
    every continuation of that emission. Zero-probability branches are not
    entered, so their sequences simply stay at marginal zero.
    """
    frames = encoder.frames
    cache = _RowCache(model, encoder)
    vocab_size = model.vocab.size

    def walk(frame, prefix, log_prob, done_frames, frame_tokens):
        rows = cache.rows(prefix)
        blank_score = log_prob + rows[frame, vocab_size]
        if blank_score > LOG_ZERO:
            closed = done_frames + (frame_tokens,)
            if frame + 1 == frames:
                yield ("complete", prefix, blank_score, closed)
            else:
                yield from walk(frame + 1, prefix, blank_score, closed, ())
        for token in range(vocab_size):
            emit_score = log_prob + rows[frame, token]
            if emit_score == LOG_ZERO:
                continue
            if len(prefix) >= max_tokens:
                yield ("truncated", prefix + (token,), emit_score, ())
            else:
                yield from walk(
                    frame, prefix + (token,), emit_score, done_frames, frame_tokens + (token,)
                )

    yield from walk(0, (), LOG_ONE, (), ())


def iter_alignment_events(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> Iterator[tuple[str, tuple[int, ...], float]]:
    """Complete and truncated alignment masses, in traversal order."""
    _check_enum_limits(model, encoder, max_tokens)
    if encoder.frames == 0:
        yield ("complete", (), LOG_ONE)
        return
    for kind, tokens, log_prob, _ in _walk_paths(model, encoder, max_tokens):
        yield (kind, tokens, log_prob)


def enumerate_alignment_paths(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> list[AlignmentPath]:
    """Every complete alignment path as an :class:`AlignmentPath`."""
    _check_enum_limits(model, encoder, max_tokens)
    if encoder.frames == 0:
        return [AlignmentPath((), (), LOG_ONE)]
    return [
        AlignmentPath(tokens, emissions, log_prob)
        for kind, tokens, log_prob, emissions in _walk_paths(model, encoder, max_tokens)
        if kind == "complete"
    ]


def exact_marginals(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> ExactMarginals:
    """Alignment-sum marginal of every sequence of at most ``max_tokens``.

    Only tiny instances are accepted; the walk is exponential by design.
    """
    marginals: dict = {}
    excluded = LOG_ZERO
    for kind, tokens, log_prob in iter_alignment_events(model, encoder, max_tokens):
        if kind == "complete":
            marginals[tokens] = log_add(marginals.get(tokens, LOG_ZERO), log_prob)
        else:
            excluded = log_add(excluded, log_prob)
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
