"""Tests for the shared value types."""

from __future__ import annotations

import pytest

from tokenwise.types import Hypothesis, Vocabulary


def test_vocabulary_blank_is_last_symbol() -> None:
    vocab = Vocabulary(5)
    assert vocab.blank_id == 5
    assert vocab.num_symbols == 6


def test_vocabulary_rejects_empty() -> None:
    with pytest.raises(ValueError):
        Vocabulary(0)


def test_vocabulary_label_count_must_match() -> None:
    assert Vocabulary(2, labels=("a", "b")).labels == ("a", "b")
    with pytest.raises(ValueError):
        Vocabulary(2, labels=("a",))


def test_hypothesis_coerces_tokens_to_tuple() -> None:
    hyp = Hypothesis([1, 2, 3], score=-1.0)
    assert hyp.tokens == (1, 2, 3)
    assert len(hyp) == 3
