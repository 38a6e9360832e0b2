"""Exact references that the decoders are checked against.

An alignment path interleaves token emissions (which keep the frame fixed)
with blank emissions (which advance the frame); it completes when the blank
of the last frame is emitted. The marginal probability of a token sequence
is the sum over all of its alignment paths. One forward dynamic program
over the prefix trie of an utterance sums them: a prefix's column holds the
mass of the paths that stand at each frame having emitted exactly that
prefix, and each prefix is joined and folded once. ``exact_marginals``
expands every prefix up to a token cap on a tiny instance, so the path set
is finite; every emission out of a prefix at the cap is accounted for in
``excluded_log_mass`` rather than dropped, so the total mass over complete
and excluded paths is exactly one. ``exact_nbest`` ranks its sequences like
the decoders do. ``exact_sequence_marginals`` gives the marginals of given
sequences, up to ``DP_MAX_FRAMES`` frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


class _Trie:
    """The prefix trie of one utterance: each prefix's state, rows and column, made once."""

    def __init__(self, model: TransducerModel, encoder: EncoderOutput) -> None:
        self._model = model
        self._encoder = encoder
        self._scratch = JoinerCounters()
        self._states = {(): model.init_predictor()}
        self._rows: dict = {}
        self._columns: dict = {}

    def state(self, prefix: tuple[int, ...]):
        got = self._states.get(prefix)
        if got is None:
            parent = self.state(prefix[:-1])
            got = self._model.advance_predictor(parent, prefix[-1])
            self._states[prefix] = got
        return got

    def rows(self, prefix: tuple[int, ...]) -> list[list[float]]:
        """The prefix's joiner rows as Python floats, ``[frame][symbol]``.

        The folds read one value at a time, cheaper from a list than from an
        array. The state is advanced first, so every token is checked, even
        at zero frames, where the rows are ``[]`` and nothing is joined.
        """
        got = self._rows.get(prefix)
        if got is None:
            state, frames = self.state(prefix), self._encoder.frames
            got = []
            if frames:
                grid = self._model.join(self._encoder, (0, frames), [state], self._scratch)
                got = grid[0].tolist()
            self._rows[prefix] = got
        return got

    def entering(self, prefix: tuple[int, ...], token: int) -> list[float]:
        """Mass entering ``prefix + (token,)`` at each frame: column plus emission."""
        return [mass + row[token] for mass, row in zip(self.column(prefix), self.rows(prefix))]

    def column(
        self, prefix: tuple[int, ...], entering: Optional[list[float]] = None
    ) -> list[float]:
        """The prefix's column: ``log_add(entering[t], column[t-1] + blank[t-1])``.

        The empty prefix starts with all the mass. The extra last entry is
        the prefix's marginal. A caller that already holds the prefix's
        :meth:`entering` list passes it; otherwise it is built here. Callers
        walk prefixes parent first, so the recursion to the parent's column
        stays one level deep.
        """
        got = self._columns.get(prefix)
        if got is None:
            rows = self.rows(prefix)
            if prefix:
                carried = LOG_ZERO
                if entering is None:
                    entering = self.entering(prefix[:-1], prefix[-1])
            else:
                carried, entering = LOG_ONE, [LOG_ZERO] * len(rows)
            blank = self._model.vocab.blank_id
            got = []
            for mass, row in zip(entering, rows):
                carried = log_add(mass, carried)
                got.append(carried)
                carried += row[blank]
            got.append(carried)
            self._columns[prefix] = got
        return got


def exact_marginals(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> ExactMarginals:
    """Alignment-sum marginal of every sequence of at most ``max_tokens``.

    Expands the prefix trie breadth first, children in token-id order. A
    child no mass enters is not expanded, and only marginals above zero are
    stored. Every emission out of a prefix at the cap log-adds into
    ``excluded_log_mass``. Only tiny instances are accepted.
    """
    if encoder.frames > ENUM_MAX_FRAMES:
        raise ValueError(f"enumeration handles at most {ENUM_MAX_FRAMES} frames")
    if model.vocab.size > ENUM_MAX_VOCAB:
        raise ValueError(f"enumeration handles vocabularies up to {ENUM_MAX_VOCAB}")
    if not (0 <= max_tokens <= ENUM_MAX_TOKENS):
        raise ValueError(f"token cap must lie in 0..{ENUM_MAX_TOKENS}")
    trie = _Trie(model, encoder)
    marginals: dict = {}
    excluded = LOG_ZERO
    pending = [((), None)]
    for prefix, entering in pending:  # grows as children are appended
        marginal = trie.column(prefix, entering)[-1]
        if marginal > LOG_ZERO:
            marginals[prefix] = marginal
        for token in range(model.vocab.size):
            child = trie.entering(prefix, token)
            if len(prefix) == max_tokens:
                for mass in child:
                    excluded = log_add(excluded, mass)
            elif max(child, default=LOG_ZERO) > LOG_ZERO:
                pending.append((prefix + (token,), child))
    return ExactMarginals(marginals, excluded)


def exact_sequence_marginals(
    model: TransducerModel, encoder: EncoderOutput, sequences: list[tuple[int, ...]]
) -> list[float]:
    """Alignment-sum marginal of each of ``sequences``, in order.

    Every prefix of the sequences is joined and folded once, so sequences
    that share a prefix share its work.
    """
    if encoder.frames > DP_MAX_FRAMES:
        raise ValueError(f"forward DP handles at most {DP_MAX_FRAMES} frames")
    trie = _Trie(model, encoder)
    sequences = [tuple(int(k) for k in tokens) for tokens in sequences]
    for tokens in sequences:
        for u in range(len(tokens) + 1):
            trie.column(tokens[:u])
    return [trie.column(tokens)[-1] for tokens in sequences]


def exact_nbest(
    model: TransducerModel, encoder: EncoderOutput, n: int, max_tokens: int
) -> NBestList:
    """Top ``n`` sequences by exact marginal, ranked like the decoders."""
    exact = exact_marginals(model, encoder, max_tokens)
    entries = {tokens: (score, None) for tokens, score in exact.marginals.items()}
    return NBestList(tuple((tokens, score) for tokens, score, _ in _ranked(entries, n)))
