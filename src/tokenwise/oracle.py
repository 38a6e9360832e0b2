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

    def rows(self, prefix: tuple[int, ...]) -> list[list[float]]:
        """The prefix's joiner rows as lists of Python floats, ``[frame][symbol]``.

        The column folds read one value at a time, which is cheaper from a
        list than from an array; the values are the same doubles.
        """
        got = self._rows.get(prefix)
        if got is None:
            got = self._model.join(
                self._encoder,
                (0, self._encoder.frames),
                [self.state(prefix)],
                self._scratch,
            )[0].tolist()
            self._rows[prefix] = got
        return got


def _column(entering: list[float], rows: list[list[float]], blank: int) -> list[float]:
    """A prefix's column: ``log_add(entering[t], column[t-1] + blank[t-1])``.

    ``entering[t]`` is the parent's column at frame t plus the emission of
    the prefix's last token. The extra last entry is the prefix's marginal.
    """
    column = []
    carried = LOG_ZERO
    for mass, row in zip(entering, rows):
        carried = log_add(mass, carried)
        column.append(carried)
        carried += row[blank]
    column.append(carried)
    return column


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
    if encoder.frames == 0:
        return ExactMarginals({(): LOG_ONE}, LOG_ZERO)
    cache = _RowCache(model, encoder)
    blank = model.vocab.blank_id
    marginals: dict = {}
    excluded = LOG_ZERO
    start = [LOG_ONE] + [LOG_ZERO] * (encoder.frames - 1)
    nodes = [((), _column(start, cache.rows(()), blank))]
    for prefix, column in nodes:  # grows as children are appended
        if column[-1] > LOG_ZERO:
            marginals[prefix] = column[-1]
        rows = cache.rows(prefix)
        for token in range(model.vocab.size):
            entering = [mass + row[token] for mass, row in zip(column, rows)]
            if len(prefix) == max_tokens:
                for mass in entering:
                    excluded = log_add(excluded, mass)
            elif max(entering) > LOG_ZERO:
                child = prefix + (token,)
                nodes.append((child, _column(entering, cache.rows(child), blank)))
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
    sequences = [tuple(int(k) for k in tokens) for tokens in sequences]
    if encoder.frames == 0:
        return [LOG_ONE if not tokens else LOG_ZERO for tokens in sequences]
    cache = _RowCache(model, encoder)
    blank = model.vocab.blank_id
    start = [LOG_ONE] + [LOG_ZERO] * (encoder.frames - 1)
    columns = {(): _column(start, cache.rows(()), blank)}
    for tokens in sequences:
        for u in range(1, len(tokens) + 1):
            if tokens[:u] not in columns:
                # The child's rows first: advancing the predictor checks the token.
                child_rows = cache.rows(tokens[:u])
                parent = columns[tokens[: u - 1]]
                rows = cache.rows(tokens[: u - 1])
                entering = [mass + row[tokens[u - 1]] for mass, row in zip(parent, rows)]
                columns[tokens[:u]] = _column(entering, child_rows, blank)
    return [columns[tokens][-1] for tokens in sequences]


def exact_nbest(
    model: TransducerModel, encoder: EncoderOutput, n: int, max_tokens: int
) -> NBestList:
    """Top ``n`` sequences by exact marginal, ranked like the decoders."""
    exact = exact_marginals(model, encoder, max_tokens)
    entries = {tokens: (score, None) for tokens, score in exact.marginals.items()}
    return NBestList(tuple((tokens, score) for tokens, score, _ in _ranked(entries, n)))
