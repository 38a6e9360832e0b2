"""Exact references that the decoders are checked against.

An alignment path interleaves token emissions (which keep the frame fixed)
with blank emissions (which advance the frame); it completes when the blank
of the last frame is emitted. The marginal probability of a token sequence
is the sum over all of its alignment paths. One forward dynamic program
over the prefix trie of an utterance sums them: a prefix's column holds the
mass of the paths that stand at each frame having emitted exactly that
prefix, and each prefix is joined and folded once, so its work is held to
``ORACLE_CELL_BUDGET`` joiner cells: prefixes x frames x symbols.
``exact_marginals`` expands every prefix up to a token cap, so the path set
is finite; every emission out of a prefix at the cap is accounted for in
``excluded_log_mass`` rather than dropped, so the total mass over complete
and excluded paths is exactly one. ``exact_nbest`` ranks its sequences like
the decoders do. ``exact_sequence_marginals`` gives those of given sequences.
"""

from __future__ import annotations

import numbers

from .decoder import NBestList, _ranked
from .logmath import LOG_ONE, LOG_ZERO, log_add
from .model import EncoderOutput, JoinerCounters, TransducerModel

ORACLE_CELL_BUDGET = 2**22  # a 32 MiB float64 grid, as ``harness.ROUND_CELL_BUDGET``


class _Trie:
    """The prefix trie of one utterance, each node made once.

    A node is the triple ``(state, rows, column)`` of a prefix: its
    predictor state, its joiner rows as Python floats (``[frame][symbol]``;
    the folds read one value at a time, cheaper from a list than from an
    array) and its column, whose extra last entry is the prefix's marginal.
    Callers ask for prefixes parent first.
    """

    def __init__(self, model: TransducerModel, encoder: EncoderOutput) -> None:
        self._model = model
        self._encoder = encoder
        self._scratch = JoinerCounters()
        self._nodes: dict = {}
        self._add((), model.init_predictor(), LOG_ONE, [LOG_ZERO] * encoder.frames)

    def _add(self, prefix: tuple[int, ...], state, carried: float, entering: list[float]) -> None:
        """Join ``state``; fold ``column[t] = log_add(entering[t], column[t-1] + blank[t-1])``.

        At zero frames the rows are ``[]`` and nothing is joined.
        """
        frames = self._encoder.frames
        rows = []
        if frames:
            rows = self._model.join(self._encoder, (0, frames), [state], self._scratch)[0].tolist()
        blank = self._model.vocab.blank_id
        column = []
        for mass, row in zip(entering, rows):
            carried = log_add(mass, carried)
            column.append(carried)
            carried += row[blank]
        column.append(carried)
        self._nodes[prefix] = (state, rows, column)

    def entering(self, prefix: tuple[int, ...], token: int) -> list[float]:
        """Mass entering ``prefix + (token,)`` at each frame: column plus emission."""
        _, rows, column = self._nodes[prefix]
        return [mass + row[token] for mass, row in zip(column, rows)]

    def column(self, prefix: tuple[int, ...]) -> list[float]:
        """The prefix's column, its node added from the parent's if missing.

        The last token advances the parent's state before any row is read,
        so every token is checked, even at zero frames.
        """
        if prefix not in self._nodes:
            parent, token = prefix[:-1], prefix[-1]
            state = self._model.advance_predictor(self._nodes[parent][0], token)
            self._add(prefix, state, LOG_ZERO, self.entering(parent, token))
        return self._nodes[prefix][2]


def capped_prefixes(vocab: int, cap: int) -> int:
    """The number of sequences of at most ``cap`` tokens: the sum of ``vocab**k`` for k <= cap."""
    return (vocab ** (cap + 1) - 1) // (vocab - 1) if vocab > 1 else cap + 1


def check_oracle_budget(model: TransducerModel, frames: int, prefixes: int) -> None:
    """Reject a trie of ``prefixes`` over ``frames`` above ``ORACLE_CELL_BUDGET`` cells."""
    # Zero frames count as one, since the trie still visits every prefix.
    frames, symbols = max(frames, 1), model.vocab.num_symbols
    cells = prefixes * frames * symbols
    if cells > ORACLE_CELL_BUDGET:
        raise ValueError(
            f"the exact oracle needs {cells} joiner cells ({prefixes} prefixes x {frames}"
            f" frames x {symbols} symbols); the limit is {ORACLE_CELL_BUDGET}"
        )


def exact_marginals(
    model: TransducerModel, encoder: EncoderOutput, max_tokens: int
) -> tuple[dict, float]:
    """Alignment-sum marginal of every sequence of at most ``max_tokens``.

    Returns ``(marginals, excluded_log_mass)``: the marginals by token
    sequence, only those above zero stored, and the log-mass of every
    emission out of a prefix at the cap. Folds every prefix up to the cap
    once, breadth first, children in token-id order, so the cap's
    ``capped_prefixes`` must fit ``check_oracle_budget``.
    """
    if not isinstance(max_tokens, numbers.Integral) or max_tokens < 0:
        raise ValueError("token cap must be a non-negative integer")
    max_tokens = int(max_tokens)
    check_oracle_budget(model, encoder.frames, capped_prefixes(model.vocab.size, max_tokens))
    trie = _Trie(model, encoder)
    marginals: dict = {}
    excluded = LOG_ZERO
    pending = [()]
    for prefix in pending:  # grows as children are appended
        marginal = trie.column(prefix)[-1]
        if marginal > LOG_ZERO:
            marginals[prefix] = marginal
        for token in range(model.vocab.size):
            if len(prefix) < max_tokens:
                pending.append(prefix + (token,))
            else:
                for mass in trie.entering(prefix, token):
                    excluded = log_add(excluded, mass)
    return marginals, excluded


def exact_sequence_marginals(
    model: TransducerModel, encoder: EncoderOutput, sequences: list[tuple[int, ...]]
) -> list[float]:
    """Alignment-sum marginal of each of ``sequences``, in order.

    Every prefix of the sequences is joined and folded once, so sequences
    that share a prefix share its work; ``check_oracle_budget`` counts each once.
    """
    if not all(isinstance(k, numbers.Integral) for tokens in sequences for k in tokens):
        raise ValueError("sequence tokens must be integers")
    sequences = [tuple(int(k) for k in tokens) for tokens in sequences]
    prefixes = {()} | {tokens[:u] for tokens in sequences for u in range(1, len(tokens) + 1)}
    check_oracle_budget(model, encoder.frames, len(prefixes))
    trie = _Trie(model, encoder)
    for prefix in sorted(prefixes, key=len):  # parents first
        trie.column(prefix)
    return [trie.column(tokens)[-1] for tokens in sequences]


def exact_nbest(
    model: TransducerModel, encoder: EncoderOutput, n: int, max_tokens: int
) -> NBestList:
    """Top ``n`` sequences by exact marginal, ranked like the decoders."""
    marginals, _ = exact_marginals(model, encoder, max_tokens)
    entries = {tokens: (score, None) for tokens, score in marginals.items()}
    return NBestList(tuple((tokens, score) for tokens, score, _ in _ranked(entries, n)))
