"""Value types shared between the decoders, models, and oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

import numpy as np

from .logmath import log_sum_array


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory. Non-blank ids are ``0..size-1``; blank is ``size``.

    Blank is not a real token: it never appears in emitted sequences, only
    as the extra final column of a lattice row.
    """

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("vocabulary needs at least one non-blank token")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError("label count does not match vocabulary size")

    @property
    def blank_id(self) -> int:
        return self.size

    @property
    def num_symbols(self) -> int:
        """Width of a lattice row: all tokens plus blank."""
        return self.size + 1


@dataclass(frozen=True)
class SegmentLattice:
    """One hypothesis's row block ``grid[i]`` of a joiner grid, validated.

    The per-hypothesis expansion helpers in :mod:`tokenwise.decoder` take
    this form. ``scores[t, k]`` is the log-probability of symbol ``k`` at
    the ``t``-th frame of the range (blank in the last column). Rows are
    expected to log-sum to zero; use :meth:`normalization_defect` to audit
    that.
    """

    scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("lattice scores must be a 2-d array")
        if scores.shape[0] < 1 or scores.shape[1] < 2:
            raise ValueError("lattice needs at least one frame and two symbols")
        scores = np.ascontiguousarray(scores)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    @property
    def frames(self) -> int:
        return self.scores.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.scores.shape[1]

    @property
    def blank_scores(self) -> np.ndarray:
        return self.scores[:, -1]

    def normalization_defect(self) -> float:
        """Largest absolute row log-sum; zero for a perfectly normalized lattice."""
        row_totals = log_sum_array(self.scores, axis=1)
        return float(np.max(np.abs(row_totals)))


@dataclass(frozen=True)
class Hypothesis:
    """One beam entry of the frame-synchronous decoder and the oracle.

    ``emission_mass``, when present, holds per segment frame ``t`` the
    log-mass of the paths whose most recent token was emitted at frame
    ``t``; its log-sum equals ``score``. The per-hypothesis expansion
    helpers in :mod:`tokenwise.decoder` read it; finished entries carry
    ``None``.
    """

    tokens: tuple[int, ...]
    score: float
    predictor_state: Any = None
    emission_mass: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.emission_mass is not None:
            mass = np.asarray(self.emission_mass, dtype=np.float64)
            if mass.ndim != 1:
                raise ValueError("emission mass must be one-dimensional")
            mass.setflags(write=False)
            object.__setattr__(self, "emission_mass", mass)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Beam:
    """Ordered hypothesis set with a nominal capacity.

    Token sequences are unique within a beam; merging identical sequences
    is the caller's job (see ``decoder.add_and_merge``). ``capacity`` is the
    width selection operations should trim to, not a hard bound on the
    stored tuple.
    """

    hypotheses: tuple[Hypothesis, ...]
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("beam capacity must be positive")
        if not isinstance(self.hypotheses, tuple):
            object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        seen = set()
        for hyp in self.hypotheses:
            if hyp.tokens in seen:
                raise ValueError("duplicate token sequence in beam")
            seen.add(hyp.tokens)

    def __len__(self) -> int:
        return len(self.hypotheses)

    def __iter__(self) -> Iterator[Hypothesis]:
        return iter(self.hypotheses)

    def scores(self) -> list[float]:
        return [hyp.score for hyp in self.hypotheses]

    def sequences(self) -> list[tuple[int, ...]]:
        return [hyp.tokens for hyp in self.hypotheses]
