"""Error-rate metrics.

Error rates are pooled over a corpus: total edit operations divided by
total reference length, not an average of per-utterance rates. The oracle
variant scores, for each utterance, the n-best entry with the fewest
errors, which bounds how much of the n-best list's potential a rescoring
pass could recover.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Sequence, Tuple

from .decoder import NBestList


def edit_distance(reference: Sequence[int], hypothesis: Sequence[int]) -> int:
    """Levenshtein distance: substitutions, insertions and deletions cost one each."""
    hyp = list(hypothesis)
    row = list(range(len(hyp) + 1))
    for i, ref_token in enumerate(reference, 1):
        prev = row
        row = [i]
        for j, hyp_token in enumerate(hyp, 1):
            row.append(
                min(prev[j - 1] + (ref_token != hyp_token), row[j - 1] + 1, prev[j] + 1)
            )
    return row[-1]


def corpus_wer(pairs: Iterable[Tuple[Sequence[int], Sequence[int]]]) -> float:
    """Pooled word error rate over (reference, hypothesis) pairs."""
    errors = 0
    length = 0
    for reference, hypothesis in pairs:
        errors += edit_distance(reference, hypothesis)
        length += len(reference)
    if length == 0:
        raise ValueError("corpus has no reference tokens")
    return errors / length


def corpus_oracle_wer(pairs: Iterable[Tuple[Sequence[int], NBestList]]) -> float:
    """Pooled error rate of each utterance's least-wrong n-best entry.

    :func:`corpus_wer` pools each reference with that entry, so with
    one-entry lists this is exactly :func:`corpus_wer`.
    """
    least_wrong = []
    for reference, nbest in pairs:
        if not nbest.entries:
            raise ValueError("empty n-best list in oracle scoring")
        best = min((tokens for tokens, _ in nbest.entries), key=partial(edit_distance, reference))
        least_wrong.append((reference, best))
    return corpus_wer(least_wrong)
