"""Spans recorded from outside the model, and what the benchmark derives from them.

A span is ``[name, start_ns, end_ns, parent, uid, states, frames]``: ``parent``
is the index of the enclosing span (-1 for a root), ``uid`` the utterance the
span served, and ``states``/``frames`` the batch shape of a joiner call (zero
elsewhere). Spans live in one in-memory list and are written out once, after
every timed region has ended.

The span names carry their layer as the prefix before the first dot:
``loop.decode`` (the benchmark loop's own work around one decode),
``decoder.decode`` (one ``decode_utterance_tokenwise`` call), and the
``model.*`` calls the decoder makes through :class:`TracedModel`.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns
from typing import Optional, Sequence

import numpy as np

from tokenwise.model import EncoderOutput, PredictorState, TransducerModel

NAME, START, END, PARENT, UID, STATES, FRAMES = range(7)


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.uid = ""
        self._open: list[int] = []

    def begin(self, name: str, states: int = 0, frames: int = 0) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, 0, 0, parent, self.uid, states, frames])
        self.spans[index][START] = perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError(f"span {index} closed out of order")

    def write(self, path: Path) -> None:
        """One JSON array per line, in the field order of the module docstring."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class TracedModel(TransducerModel):
    """Times and counts every call the decoder makes into a wrapped model.

    ``join`` is the base-class join, so the lattice hand-off it does around
    ``_segment_scores`` runs exactly as it does for the wrapped model; the
    span of ``_segment_scores`` nests inside the span of ``join``.
    """

    def __init__(self, inner: TransducerModel, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.vocab = inner.vocab

    def encode(self, frames: Optional[int] = None, uid: str = "") -> EncoderOutput:
        span = self.tracer.begin("model.encode")
        try:
            return self.inner.encode(frames, uid)
        finally:
            self.tracer.end(span)

    def init_predictor(self) -> PredictorState:
        return self.inner.init_predictor()

    def advance_predictor(self, state: PredictorState, token: int) -> PredictorState:
        span = self.tracer.begin("model.advance")
        try:
            return self.inner.advance_predictor(state, token)
        finally:
            self.tracer.end(span)

    def join(self, encoder, frame_range, states, counters):
        states = list(states)
        span = self.tracer.begin(
            "model.join", len(states), int(frame_range[1]) - int(frame_range[0])
        )
        try:
            return super().join(encoder, frame_range, states, counters)
        finally:
            self.tracer.end(span)

    def _segment_scores(self, encoder, t_begin, t_end, states):
        span = self.tracer.begin("model.scores")
        try:
            return self.inner._segment_scores(encoder, t_begin, t_end, states)
        finally:
            self.tracer.end(span)

    def spec(self):
        return self.inner.spec()


def self_times(spans: Sequence[list]) -> tuple[list[int], list[int]]:
    """Per span: its self time in ns, and the index of its root span.

    Self time is the span's duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    own = [span[END] - span[START] for span in spans]
    roots = [0] * len(spans)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        roots[index] = index if parent < 0 else roots[parent]
        if parent >= 0:
            own[parent] -= span[END] - span[START]
    return own, roots


def layer_totals(spans: Sequence[list], root_name: str) -> dict:
    """Call counts, total and self ns per span name, over trees rooted at ``root_name``."""
    own, roots = self_times(spans)
    totals: dict = {}
    for index, span in enumerate(spans):
        if spans[roots[index]][NAME] != root_name:
            continue
        entry = totals.setdefault(
            span[NAME], {"calls": 0, "total_ns": 0, "self_ns": 0, "states": 0, "cells": 0}
        )
        entry["calls"] += 1
        entry["total_ns"] += span[END] - span[START]
        entry["self_ns"] += own[index]
        entry["states"] += span[STATES]
        entry["cells"] += span[STATES] * span[FRAMES]
    return totals


def fit_join_cost(spans: Sequence[list]) -> tuple[float, float, float]:
    """Fit ``t_join = a + b * cells`` by least squares over the join spans.

    Returns ``(a_ns, b_ns_per_cell, r2)``. A cell is one predictor state
    scored against one frame. Spans are grouped by cell count and each
    group enters as its median duration, weighted by its number of spans:
    single calls are dominated by scheduler noise, which would otherwise
    swamp the per-cell term.
    """
    groups: dict[int, list[int]] = {}
    for span in spans:
        if span[NAME] == "model.join":
            groups.setdefault(span[STATES] * span[FRAMES], []).append(span[END] - span[START])
    cells = np.array(sorted(groups), dtype=np.float64)
    times = np.array([np.median(groups[c]) for c in sorted(groups)])
    weights = np.sqrt([len(groups[c]) for c in sorted(groups)])
    design = np.column_stack([np.ones_like(cells), cells])
    (fixed, per_cell), *_ = np.linalg.lstsq(design * weights[:, None], times * weights, rcond=None)
    residual = (times - design @ np.array([fixed, per_cell])) * weights
    centred = (times - np.average(times, weights=weights**2)) * weights
    spread = float((centred**2).sum())
    r2 = 1.0 - float((residual**2).sum()) / spread if spread > 0 else 1.0
    return float(fixed), float(per_cell), r2
