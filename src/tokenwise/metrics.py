"""Error-rate and joiner-cost metrics.

Error rates are pooled over a corpus: total edit operations divided by
total reference length, not an average of per-utterance rates. The oracle
variant scores, for each utterance, the n-best entry with the fewest
errors, which bounds how much of the n-best list's potential a rescoring
pass could recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .decoder import NBestList
from .model import JoinerCounters


@dataclass(frozen=True)
class ErrorCounts:
    """Edit operations turning a hypothesis into its reference."""

    substitutions: int
    insertions: int
    deletions: int
    reference_length: int

    @property
    def total(self) -> int:
        return self.substitutions + self.insertions + self.deletions


@dataclass(frozen=True)
class EfficiencyStats:
    """Joiner cost per frame plus wall-clock throughput."""

    calls_per_frame: float
    joins_per_frame: float
    frames_per_second: float


def edit_distance(reference: Sequence[int], hypothesis: Sequence[int]) -> ErrorCounts:
    """Minimal edit operations, with a deterministic split into kinds.

    Among cost-equal alignments the split prefers substitutions over
    insertions over deletions, applied cell by cell in the usual dynamic
    program, so equal inputs always give identical counts.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    # row[j] = (total, subs, ins, dels) for the current ref prefix vs hyp[:j]
    row = [(j, 0, j, 0) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        prev = row
        row = [(i, 0, 0, i)]
        for j in range(1, len(hyp) + 1):
            match = ref[i - 1] == hyp[j - 1]
            diag = prev[j - 1]
            best = (
                diag[0] + (0 if match else 1),
                diag[1] + (0 if match else 1),
                diag[2],
                diag[3],
            )
            left = row[j - 1]
            candidate = (left[0] + 1, left[1], left[2] + 1, left[3])
            if candidate[0] < best[0]:
                best = candidate
            up = prev[j]
            candidate = (up[0] + 1, up[1], up[2], up[3] + 1)
            if candidate[0] < best[0]:
                best = candidate
            row.append(best)
    total, subs, ins, dels = row[len(hyp)]
    assert total == subs + ins + dels
    return ErrorCounts(subs, ins, dels, len(ref))


def corpus_wer(pairs: Iterable[Tuple[Sequence[int], Sequence[int]]]) -> float:
    """Pooled word error rate over (reference, hypothesis) pairs."""
    errors = 0
    length = 0
    for reference, hypothesis in pairs:
        counts = edit_distance(reference, hypothesis)
        errors += counts.total
        length += counts.reference_length
    if length == 0:
        raise ValueError("corpus has no reference tokens")
    return errors / length


def corpus_oracle_wer(pairs: Iterable[Tuple[Sequence[int], NBestList]]) -> float:
    """Pooled error rate of each utterance's least-wrong n-best entry.

    Ties on error count go to the entry ranked higher by the decoder. With
    one-entry lists this is exactly :func:`corpus_wer`.
    """
    errors = 0
    length = 0
    for reference, nbest in pairs:
        if len(nbest) == 0:
            raise ValueError("empty n-best list in oracle scoring")
        best = min(
            (edit_distance(reference, tokens) for tokens, _ in nbest),
            key=lambda counts: counts.total,
        )
        errors += best.total
        length += best.reference_length
    if length == 0:
        raise ValueError("corpus has no reference tokens")
    return errors / length


def efficiency_stats(counters: JoinerCounters, wall_time_sec: float) -> EfficiencyStats:
    """Normalize joiner counters by decoded frames and elapsed time."""
    if counters.frames_decoded <= 0:
        raise ValueError("no frames decoded")
    if wall_time_sec <= 0.0:
        raise ValueError("wall time must be positive")
    return EfficiencyStats(
        calls_per_frame=counters.calls / counters.frames_decoded,
        joins_per_frame=counters.frame_joins / counters.frames_decoded,
        frames_per_second=counters.frames_decoded / wall_time_sec,
    )
