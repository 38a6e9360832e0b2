"""Tests for the shared value types."""

from __future__ import annotations

import pytest

from tokenwise.types import Vocabulary


def test_vocabulary_blank_is_last_symbol() -> None:
    vocab = Vocabulary(5)
    assert vocab.blank_id == 5
    assert vocab.num_symbols == 6


def test_vocabulary_rejects_empty() -> None:
    with pytest.raises(ValueError):
        Vocabulary(0)
