"""Beam search decoding for transducer models.

Two interchangeable strategies over the same model interface:

* :func:`decode_utterance_standard` walks the utterance frame by frame,
  expanding every surviving hypothesis against one frame at a time.
* :func:`decode_utterance_tokenwise` walks it in segments of several frames.
  One joiner call covers the whole segment for every expandable hypothesis,
  and each hypothesis carries a per-frame distribution over where inside the
  segment its most recent token was emitted. Expanding by a token or by
  closing the segment sums over every blank run that connects those emission
  frames, so path merging is exact while the joiner is invoked far less
  often per frame.

Both strategies apply the same selection rules (merging, ranking, pruning,
tie-breaking), so with a segment size of one they make identical decisions
and produce identical beams. Both hold the beam between frames or segments
as ranked ``(tokens, score, state)`` entries and share only the ranking,
the pruning threshold (:func:`_nth_largest`) and the round cap of
``ROUNDS_PER_FRAME`` rounds per frame. The rest is implemented independently,
so each can check the other: the standard decoder scores products along
each path, the token-wise decoder works on emission-mass arrays.

Scores are natural-log probabilities throughout. A hypothesis score is the
sum of the probabilities of every alignment of its token sequence that the
search has explored, never a Viterbi maximum.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .logmath import LOG_ONE, LOG_ZERO, log_add, log_sum_exp
from .model import EncoderOutput, JoinerCounters, PredictorState, TransducerModel

UNBOUNDED_BEAM = 1_000_000_000
ROUNDS_PER_FRAME = 16


@dataclass(frozen=True)
class DecodeConfig:
    """Search settings shared by both decoding strategies."""

    beam_size: int
    segment_size: int = 1
    nbest: int = 1
    mass_tolerance: ClassVar[float] = 1e-9

    def __post_init__(self) -> None:
        for name in ("beam_size", "segment_size", "nbest"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.beam_size < 1:
            raise ValueError("beam size must be positive")
        if self.segment_size < 1:
            raise ValueError("segment size must be positive")
        if not (1 <= self.nbest <= self.beam_size):
            raise ValueError("nbest must lie in 1..beam_size")


@dataclass(frozen=True)
class NBestList:
    """Ranked decode output: ``(token_sequence, log_score)`` pairs."""

    entries: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self) -> None:
        seen = set()
        for tokens, _ in self.entries:
            if tokens in seen:
                raise ValueError("duplicate sequence in n-best list")
            seen.add(tokens)

    @property
    def top(self) -> tuple[int, ...]:
        if not self.entries:
            raise IndexError("empty n-best list")
        return self.entries[0][0]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass
class DecodeTrace:
    """Optional per-round instrumentation used by invariant checks."""

    mass_checks: int = 0
    max_mass_defect: float = 0.0

    def record(
        self,
        scores: np.ndarray,
        token_scores: np.ndarray,
        blank_scores: np.ndarray,
    ) -> None:
        """Compare each hypothesis score against its total expansion mass.

        Exact arithmetic gives ``exp(score) == exp(blank) + sum(exp(tokens))``
        for every expandable hypothesis; the recorded defect is the absolute
        difference of the two sides in the linear domain. The token-wise
        decoder passes each member's total from its mass row as ``scores``;
        from eight frames numpy may sum it in another order than its score.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            totals = np.logaddexp(blank_scores, log_sum_exp(token_scores, 1)[:, 0])
            defects = np.abs(np.exp(scores) * np.expm1(totals - scores))
        defects = np.where(np.isneginf(scores) & np.isneginf(totals), 0.0, defects)
        if np.isnan(defects).any():
            raise FloatingPointError("mass check produced NaN")
        self.mass_checks += defects.size
        self.max_mass_defect = max(self.max_mass_defect, float(defects.max()))


def _carried_mass(emission_mass: np.ndarray, blank_scores: np.ndarray) -> np.ndarray:
    """Fold emission mass forward through blank runs, along the last axis.

    Output entry ``t`` is the log-mass of paths whose latest token was
    emitted at some frame ``t' <= t`` and that then emitted blanks at frames
    ``t'..t-1``, i.e. paths currently positioned at frame ``t``. The fold
    runs on Python floats, where :func:`log_add` gives ``np.logaddexp``'s
    result for every log-mass below ``+inf`` at a fraction of its per-call
    cost on rows this short.
    """
    frames = emission_mass.shape[-1]
    if frames == 1:
        return emission_mass
    carry = emission_mass.ravel().tolist()
    blanks = blank_scores.ravel().tolist()
    for index in range(1, len(carry)):
        if index % frames:
            carry[index] = log_add(carry[index], carry[index - 1] + blanks[index - 1])
    return np.array(carry).reshape(emission_mass.shape)


def _batch_expansions(
    mass: np.ndarray, grids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All expansion scores for a batch of hypotheses.

    ``mass`` is (batch, frames); ``grids`` is (batch, frames, symbols) with
    blank last. Returns the per-token shifted emission masses
    (batch, frames, tokens), the non-blank expansion scores (batch, tokens),
    and the segment-closing blank scores (batch,). Over one frame the
    log-sum-exp of a single value ``x`` is ``log(1) + x``, which is
    ``x + 0.0`` bit for bit (``-0.0`` becomes ``0.0``, and ``-inf``, ``+inf``
    and NaN pass through), so that case skips the kernel.
    """
    blanks = grids[:, :, -1]
    carry = _carried_mass(mass, blanks)
    token_mass = carry[:, :, None] + grids[:, :, :-1]
    if token_mass.shape[1] == 1:
        token_scores = token_mass[:, 0, :] + 0.0
    else:
        token_scores = log_sum_exp(token_mass, 1)[:, 0, :]
    blank_scores = carry[:, -1] + blanks[:, -1]
    return token_mass, token_scores, blank_scores


def _rank_key(tokens: tuple[int, ...], score: float):
    return (-score, len(tokens), tokens)


def _ranked(entries: dict, n: int) -> list[tuple[tuple[int, ...], float, PredictorState]]:
    """Top ``n`` of a ``tokens -> (score, state)`` dict as ``(tokens, score, state)``.

    Ties prefer shorter, then lexicographically smaller sequences; the order
    is total, so insertion order does not matter. Fewer entries are all kept.
    """
    if n < 1:
        raise ValueError("n must be positive")
    ranked = sorted(entries.items(), key=lambda item: _rank_key(item[0], item[1][0]))
    return [(seq, score, state) for seq, (score, state) in ranked[:n]]


def _nth_largest(values: Sequence[float], n: int) -> float:
    """The ``n``-th largest of ``values``, or ``LOG_ZERO`` if fewer exist."""
    if len(values) < n:
        return LOG_ZERO
    return sorted(values, reverse=True)[n - 1]


def _search_segment(
    model: TransducerModel,
    encoder: EncoderOutput,
    beam: Sequence[tuple[tuple[int, ...], float, PredictorState]],
    t_begin: int,
    t_end: int,
    config: DecodeConfig,
    counters: JoinerCounters,
    trace: Optional[DecodeTrace] = None,
) -> list[tuple[tuple[int, ...], float, PredictorState]]:
    """Advance a ranked beam of ``(tokens, score, state)`` across one segment.

    Inside the segment the expandable group is held as tokens, states and an
    emission-mass array (B, frames), where entry ``t`` is the log-mass of the
    paths whose most recent token was emitted at segment frame ``t``. Every
    emission round makes exactly one batched joiner call for the group,
    merges each member's blank-finalized score into ``finished``, prunes
    non-blank expansions against the ``beam_size``-th finished score, and
    keeps the best ``beam_size`` expansions as the next group. Ties go to
    the lower (member, token) index, so the incoming beam's rank order
    decides them.

    The round cap, ``ROUNDS_PER_FRAME`` times the segment's width, bounds
    joiner rounds. When it is reached the surviving group contributes only
    its blank-finalized scores (already merged this round) and
    ``counters.forced_finalizations`` grows by its size; nothing is dropped
    silently. Returns the top ``beam_size`` finished entries in rank order.
    """
    if not (0 <= t_begin < t_end <= encoder.frames):
        raise ValueError(f"segment [{t_begin}, {t_end}) outside utterance")
    cap = ROUNDS_PER_FRAME * (t_end - t_begin)
    vocab_size = model.vocab.size
    tokens = [entry[0] for entry in beam]
    states = [entry[2] for entry in beam]
    mass = np.full((len(beam), t_end - t_begin), LOG_ZERO)
    mass[:, 0] = [entry[1] for entry in beam]
    finished: dict[tuple[int, ...], tuple[float, PredictorState]] = {}
    rounds = 0
    while True:
        rounds += 1
        grid = model.join(encoder, (t_begin, t_end), states, counters)
        token_mass, token_scores, blank_scores = _batch_expansions(mass, grid)
        if trace is not None:
            trace.record(log_sum_exp(mass, 1)[:, 0], token_scores, blank_scores)
        for seq, closed, state in zip(tokens, blank_scores.tolist(), states):
            earlier = finished.get(seq)
            finished[seq] = (
                (closed, state) if earlier is None else (log_add(earlier[0], closed), earlier[1])
            )
        threshold = _nth_largest([score for score, _ in finished.values()], config.beam_size)
        flat = token_scores.ravel().tolist()
        alive = [index for index, score in enumerate(flat) if score > threshold]
        if not alive:
            break
        if rounds >= cap:
            counters.forced_finalizations += len(tokens)
            break
        # A stable sort, so equal scores keep the lower (member, token) index first.
        chosen = sorted(alive, key=flat.__getitem__, reverse=True)[: config.beam_size]
        pairs = [divmod(index, vocab_size) for index in chosen]
        parents, emitted = zip(*pairs)
        mass = token_mass[parents, :, emitted]
        # Group members carry distinct sequences, so their children do too:
        # nothing inside one round needs merging.
        states = [model.advance_predictor(states[p], k) for p, k in pairs]
        tokens = [tokens[p] + (k,) for p, k in pairs]
    return _ranked(finished, config.beam_size)


def decode_utterance_tokenwise(
    model: TransducerModel,
    encoder: EncoderOutput,
    config: DecodeConfig,
    counters: Optional[JoinerCounters] = None,
    trace: Optional[DecodeTrace] = None,
) -> tuple[NBestList, JoinerCounters]:
    """Decode an utterance segment by segment.

    Segments have ``config.segment_size`` frames, except a shorter final
    one when the utterance length is not a multiple. An empty utterance
    yields the empty sequence with certainty and no joiner calls.
    """
    counters = JoinerCounters() if counters is None else counters
    counters.frames_decoded += encoder.frames
    beam = [((), LOG_ONE, model.init_predictor())]
    for t_begin in range(0, encoder.frames, config.segment_size):
        t_end = min(t_begin + config.segment_size, encoder.frames)
        beam = _search_segment(model, encoder, beam, t_begin, t_end, config, counters, trace)
    entries = tuple((seq, score) for seq, score, _ in beam[: config.nbest])
    return NBestList(entries), counters


def _merge_entry(entries: dict, tokens: tuple[int, ...], score: float, state) -> None:
    """Add ``(score, state)`` under ``tokens``, log-adding an equal sequence's score.

    An entry already there keeps its predictor state and its place.
    """
    existing = entries.get(tokens)
    if existing is not None:
        score, state = log_add(existing[0], score), existing[1]
    entries[tokens] = (score, state)


def decode_utterance_standard(
    model: TransducerModel,
    encoder: EncoderOutput,
    config: DecodeConfig,
    counters: Optional[JoinerCounters] = None,
    trace: Optional[DecodeTrace] = None,
) -> tuple[NBestList, JoinerCounters]:
    """Frame-synchronous breadth-first decode, one joiner call per round.

    The reference strategy: scores accumulate as direct products along each
    path, merged per token sequence. ``config.segment_size`` is ignored;
    every joiner call covers exactly one frame.
    """
    counters = JoinerCounters() if counters is None else counters
    counters.frames_decoded += encoder.frames
    vocab_size = model.vocab.size
    beam = [((), LOG_ONE, model.init_predictor())]
    for t in range(encoder.frames):
        active = beam
        finished: dict[tuple[int, ...], tuple[float, PredictorState]] = {}
        rounds = 0
        while active:
            rounds += 1
            rows = model.join(encoder, (t, t + 1), [state for _, _, state in active], counters)
            scores = np.array([score for _, score, _ in active])
            token_scores = scores[:, None] + rows[:, 0, :vocab_size]
            blank_scores = scores + rows[:, 0, vocab_size]
            if trace is not None:
                trace.record(scores, token_scores, blank_scores)
            for (seq, _, state), closed in zip(active, blank_scores):
                _merge_entry(finished, seq, float(closed), state)
            threshold = _nth_largest([score for score, _ in finished.values()], config.beam_size)
            flat = token_scores.ravel()
            alive = np.flatnonzero(flat > threshold)
            if alive.size == 0:
                break
            if rounds >= ROUNDS_PER_FRAME:
                counters.forced_finalizations += len(active)
                break
            order = alive[np.argsort(-flat[alive], kind="stable")]
            # Active entries carry distinct sequences, so their children do too.
            children = []
            for flat_index in order[: config.beam_size]:
                parent, token = divmod(int(flat_index), vocab_size)
                seq, _, state = active[parent]
                child = model.advance_predictor(state, token)
                children.append((seq + (token,), float(flat[flat_index]), child))
            active = children
        beam = _ranked(finished, config.beam_size)
    return NBestList(tuple((seq, score) for seq, score, _ in beam[: config.nbest])), counters
