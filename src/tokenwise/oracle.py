"""Exact references that the decoders are checked against.

An alignment path interleaves token emissions (which keep the frame fixed)
with blank emissions (which advance the frame); it completes when the blank
of the last frame is emitted. The marginal probability of a token sequence
is the sum over all of its alignment paths. One forward dynamic program
over the prefix trie of an utterance sums them: a prefix's column holds the
mass of the paths that stand at each frame having emitted exactly that
prefix, and each prefix is joined and folded once, so its work is held to
``model.CELL_BUDGET`` joiner cells: prefixes x frames x symbols. A
prefix's node is built from its parent's, and ``exact_sequence_marginals``
walks the trie of its sequences depth first in sorted order, holding only
the nodes on the current root-to-leaf path. ``exact_marginals`` is that
walk over every sequence of at most a token cap, and ``exact_nbest`` ranks
those sequences like the decoders do.
"""

from __future__ import annotations

import itertools
import numbers

from .decoder import NBestList, _ranked
from .logmath import LOG_ONE, LOG_ZERO, log_add
from .model import CELL_BUDGET, EncoderOutput, JoinerCounters, TransducerModel, check_cell_budget


def _node(model: TransducerModel, encoder: EncoderOutput, parent=None, token=None) -> tuple:
    """The node ``(state, rows, column)`` of a prefix, from its parent's node and last token.

    ``state`` is the predictor state; ``rows`` its joiner rows as Python
    floats (``[frame][symbol]``; the folds read one value at a time, cheaper
    from a list than from an array); ``column[t] = log_add(entering[t],
    column[t-1] + blank[t-1])``, where ``entering[t]`` is the parent's
    ``column[t]`` plus its emission of the token, and the extra last entry
    is the prefix's marginal. Without a parent it is the root's node. The
    token advances the parent's state before any row is read, so every
    token is checked, even at zero frames, where the rows are ``[]`` and
    nothing is joined.
    """
    if parent is None:
        state, carried, entering = model.init_predictor(), LOG_ONE, [LOG_ZERO] * encoder.frames
    else:
        state, carried = model.advance_predictor(parent[0], token), LOG_ZERO
        entering = [mass + row[token] for mass, row in zip(parent[2], parent[1])]
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


def capped_prefixes(vocab: int, cap: int) -> int:
    """The number of sequences of at most ``cap`` tokens: the sum of ``vocab**k`` for k <= cap."""
    return (vocab ** (cap + 1) - 1) // (vocab - 1) if vocab > 1 else cap + 1


def check_oracle_budget(model: TransducerModel, frames: int, prefixes: int) -> None:
    """Reject a trie of ``prefixes`` over ``frames`` above ``CELL_BUDGET`` cells."""
    # Zero frames count as one, since the trie still visits every prefix.
    frames, symbols = max(frames, 1), model.vocab.num_symbols
    check_cell_budget("the exact oracle", prefixes=prefixes, frames=frames, symbols=symbols)


def check_sequence_budget(
    model: TransducerModel, frames: int, sequences: list[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], int]]:
    """Reject the distinct prefixes of ``sequences`` above the budget; return their walk.

    The prefixes are counted, not built: in sorted order a sequence's new
    prefixes are those longer than its common prefix with the sequence
    before it. The walk is the sorted distinct sequences, each with the
    length of that common prefix.
    """
    walks = []
    previous: tuple[int, ...] = ()
    for tokens in sorted(set(sequences)):
        shared = 0
        for token, before in zip(tokens, previous):
            if token != before:
                break
            shared += 1
        walks.append((tokens, shared))
        previous = tokens
    check_oracle_budget(model, frames, 1 + sum(len(t) - u for t, u in walks))
    return walks


def exact_marginals(model: TransducerModel, encoder: EncoderOutput, max_tokens: int) -> dict:
    """Alignment-sum marginal of every sequence of at most ``max_tokens``.

    Returns the marginals by token sequence, only those above zero stored.
    It lists the sequences and takes their marginals from
    ``exact_sequence_marginals``, so it holds that list, the same order of
    size as its result, plus one root-to-leaf path of nodes. Before it
    lists any, the cap's ``capped_prefixes`` must fit ``check_oracle_budget``
    and their tokens, counted as ``capped_prefixes`` x ``max_tokens``, must
    fit ``CELL_BUDGET``.
    """
    if not isinstance(max_tokens, numbers.Integral) or max_tokens < 0:
        raise ValueError("token cap must be a non-negative integer")
    max_tokens, vocab = int(max_tokens), model.vocab.size
    prefixes = capped_prefixes(vocab, max_tokens)
    check_oracle_budget(model, encoder.frames, prefixes)
    if prefixes * max_tokens > CELL_BUDGET:
        raise ValueError(
            f"the exact oracle needs {prefixes * max_tokens} tokens ({prefixes} sequences"
            f" x {max_tokens} tokens); the limit is {CELL_BUDGET}"
        )
    lengths = range(max_tokens + 1)
    sequences = [tokens for k in lengths for tokens in itertools.product(range(vocab), repeat=k)]
    marginals = exact_sequence_marginals(model, encoder, sequences)
    return {tokens: mass for tokens, mass in zip(sequences, marginals) if mass > LOG_ZERO}


def exact_sequence_marginals(
    model: TransducerModel, encoder: EncoderOutput, sequences: list[tuple[int, ...]]
) -> list[float]:
    """Alignment-sum marginal of each of ``sequences``, in order.

    Every prefix of the sequences is joined and folded once, so sequences
    that share a prefix share its work; ``check_sequence_budget`` counts
    each once before any is built.
    """
    if not all(isinstance(k, numbers.Integral) for tokens in sequences for k in tokens):
        raise ValueError("sequence tokens must be integers")
    sequences = [tuple(int(k) for k in tokens) for tokens in sequences]
    walks = check_sequence_budget(model, encoder.frames, sequences)
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
    marginals = exact_marginals(model, encoder, max_tokens)
    entries = {tokens: (score, None) for tokens, score in marginals.items()}
    return NBestList(tuple((tokens, score) for tokens, score, _ in _ranked(entries, n)))
