"""Value types shared between the decoders, models, and oracle."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


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
class Hypothesis:
    """One beam entry of the frame-synchronous decoder and the oracle."""

    tokens: tuple[int, ...]
    score: float
    predictor_state: Any = None

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)
