"""Exact references that the decoders are checked against.

An alignment path interleaves token emissions (which keep the frame fixed)
with blank emissions (which advance the frame); it completes when the blank
of the last frame is emitted. The marginal probability of a token sequence
is the sum over all of its alignment paths. One forward dynamic program
over the prefix trie of an utterance sums them: a prefix's column holds the
mass of the paths that stand at each frame having emitted exactly that
prefix, and each prefix is joined and folded once, so its work is held to
``ORACLE_CELL_BUDGET`` joiner cells: prefixes x frames x symbols. A
prefix's node is built from its parent's, and none is kept longer than its
children need it: ``exact_sequence_marginals`` holds the current
root-to-leaf path and ``exact_marginals`` the nodes below the cap.
``exact_marginals`` expands every prefix up to a token cap, so the path set
is finite; every emission out of a prefix at the cap is accounted for in
``excluded_log_mass`` rather than dropped, so the total mass over complete
and excluded paths is exactly one. ``exact_nbest`` ranks its sequences like
the decoders do. ``exact_sequence_marginals`` gives those of given sequences.
"""

from __future__ import annotations

import numbers
from collections import deque

from .decoder import NBestList, _ranked
from .logmath import LOG_ONE, LOG_ZERO, log_add
from .model import EncoderOutput, JoinerCounters, TransducerModel

ORACLE_CELL_BUDGET = 2**22  # a 32 MiB float64 grid, as ``harness.ROUND_CELL_BUDGET``


def _node(model: TransducerModel, encoder: EncoderOutput, parent=None, token=None) -> tuple:
    """The node ``(state, rows, column)`` of a prefix, from its parent's node and last token.

    ``state`` is the predictor state; ``rows`` its joiner rows as Python
    floats (``[frame][symbol]``; the folds read one value at a time, cheaper
    from a list than from an array); ``column[t] = log_add(entering[t],
    column[t-1] + blank[t-1])``, whose extra last entry is the prefix's
    marginal. Without a parent it is the root's node. The token advances the
    parent's state before any row is read, so every token is checked, even
    at zero frames, where the rows are ``[]`` and nothing is joined.
    """
    if parent is None:
        state, carried, entering = model.init_predictor(), LOG_ONE, [LOG_ZERO] * encoder.frames
    else:
        state, carried = model.advance_predictor(parent[0], token), LOG_ZERO
        entering = _entering(parent, token)
    rows = []
    if encoder.frames:
        rows = model.join(encoder, (0, encoder.frames), [state], JoinerCounters())[0].tolist()
    blank = model.vocab.blank_id
    column = []
    for mass, row in zip(entering, rows):
        carried = log_add(mass, carried)
        column.append(carried)
        carried += row[blank]
    column.append(carried)
    return state, rows, column


def _entering(node: tuple, token: int) -> list[float]:
    """Mass entering the node's child by ``token`` at each frame: column plus emission."""
    _, rows, column = node
    return [mass + row[token] for mass, row in zip(column, rows)]


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
            f"the exact oracle needs {_count(cells)} joiner cells ({_count(prefixes)} prefixes"
            f" x {frames} frames x {symbols} symbols); the limit is {ORACLE_CELL_BUDGET}"
        )


def _count(n: int) -> str:
    """``n`` in decimal, or past 2**256 as the power of two at or below it."""
    return str(n) if n.bit_length() <= 256 else f"at least 2**{n.bit_length() - 1}"


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
    marginals: dict = {}
    excluded = LOG_ZERO
    queue = deque([((), None, None)])  # (prefix, its parent's node, its last token)
    while queue:
        prefix, parent, last = queue.popleft()
        node = _node(model, encoder, parent, last)
        if node[2][-1] > LOG_ZERO:
            marginals[prefix] = node[2][-1]
        for token in range(model.vocab.size):
            if len(prefix) < max_tokens:
                queue.append((prefix + (token,), node, token))
            else:
                for mass in _entering(node, token):
                    excluded = log_add(excluded, mass)
    return marginals, excluded


def exact_sequence_marginals(
    model: TransducerModel, encoder: EncoderOutput, sequences: list[tuple[int, ...]]
) -> list[float]:
    """Alignment-sum marginal of each of ``sequences``, in order.

    Every prefix of the sequences is joined and folded once, so sequences
    that share a prefix share its work; ``check_oracle_budget`` counts each
    once. The prefixes are counted, not built, before that check: in sorted
    order a sequence's new prefixes are those longer than its common prefix
    with the sequence before it.
    """
    if not all(isinstance(k, numbers.Integral) for tokens in sequences for k in tokens):
        raise ValueError("sequence tokens must be integers")
    sequences = [tuple(int(k) for k in tokens) for tokens in sequences]
    walks = []  # (sequence, length of its common prefix with the one before)
    previous: tuple[int, ...] = ()
    for tokens in sorted(set(sequences)):
        shared = 0
        for token, before in zip(tokens, previous):
            if token != before:
                break
            shared += 1
        walks.append((tokens, shared))
        previous = tokens
    check_oracle_budget(model, encoder.frames, 1 + sum(len(t) - u for t, u in walks))
    path = [_node(model, encoder)]  # the nodes of the previous sequence and its prefixes
    marginals = {}
    for tokens, shared in walks:
        del path[shared + 1 :]
        for token in tokens[shared:]:
            path.append(_node(model, encoder, path[-1], token))
        marginals[tokens] = path[-1][2][-1]
    return [marginals[tokens] for tokens in sequences]


def exact_nbest(
    model: TransducerModel, encoder: EncoderOutput, n: int, max_tokens: int
) -> NBestList:
    """Top ``n`` sequences by exact marginal, ranked like the decoders."""
    marginals, _ = exact_marginals(model, encoder, max_tokens)
    entries = {tokens: (score, None) for tokens, score in marginals.items()}
    return NBestList(tuple((tokens, score) for tokens, score, _ in _ranked(entries, n)))
