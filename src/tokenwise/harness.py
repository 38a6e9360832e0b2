"""Corpus files, corpus generation, benchmark sweeps, and verification.

File formats
------------
Corpora are JSON Lines: one ``{"id": str, "frames": int, "reference":
[int, ...]}`` object per line. Models are single JSON objects (see
``model.ModelSpec``). Benchmark reports are JSON with one entry per
(beam size, segment size) cell under keys like ``"N2/S5"``; wall-clock
numbers live in each cell's ``"timing"`` object so reports from repeated
runs are byte-identical once timing is stripped.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .decoder import (
    DecodeConfig,
    DecodeTrace,
    NBestList,
    UNBOUNDED_BEAM,
    decode_utterance_standard,
    decode_utterance_tokenwise,
)
from .metrics import corpus_oracle_wer, corpus_wer, efficiency_stats
from .model import (
    DEFAULT_BLANK_PRIOR,
    JoinerCounters,
    ModelSpec,
    TokenCapModel,
    TransducerModel,
    Vocabulary,
    _mix64,
    load_model,
    load_model_file,
    read_model_spec,
    write_model_spec,
    write_text_file,
)
from .oracle import (
    ENUM_MAX_FRAMES,
    ENUM_MAX_VOCAB,
    ENUM_MAX_TOKENS,
    exact_marginals,
    exact_nbest,
    exact_sequence_marginal,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

REFERENCE_BEAM = 8
REFERENCE_SEGMENT = 4
VERIFY_BEAM_SIZES = (1, 2, 5)


class CorpusFormatError(ValueError):
    """Raised for malformed or inconsistent corpus files."""


@dataclass(frozen=True)
class Utterance:
    """One corpus entry: an id, a frame count, and a reference sequence."""

    uid: str
    frames: int
    reference: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.frames < 0:
            raise ValueError("frame count cannot be negative")
        object.__setattr__(self, "reference", tuple(int(t) for t in self.reference))


def load_corpus(path: str | Path, vocab: Optional[Vocabulary] = None) -> list[Utterance]:
    """Read a JSONL corpus, optionally validating tokens against a vocabulary."""
    path = Path(path)
    utterances: list[Utterance] = []
    seen_ids: set[str] = set()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read corpus file {path}: {exc}") from exc
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:{number}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or set(record) != {"id", "frames", "reference"}:
            raise CorpusFormatError(
                f"{path}:{number}: expected exactly the fields id, frames, reference"
            )
        uid = record["id"]
        frames = record["frames"]
        reference = record["reference"]
        if not isinstance(uid, str) or not uid:
            raise CorpusFormatError(f"{path}:{number}: id must be a non-empty string")
        if not isinstance(frames, int) or isinstance(frames, bool) or frames < 0:
            raise CorpusFormatError(f"{path}:{number}: frames must be a non-negative integer")
        if not isinstance(reference, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in reference
        ):
            raise CorpusFormatError(f"{path}:{number}: reference must be a list of integers")
        if uid in seen_ids:
            raise CorpusFormatError(f"{path}:{number}: duplicate utterance id {uid!r}")
        seen_ids.add(uid)
        if vocab is not None:
            bad = [t for t in reference if not (0 <= t < vocab.size)]
            if bad:
                raise CorpusFormatError(
                    f"utterance {uid!r}: reference tokens {bad} outside vocabulary"
                    f" of size {vocab.size}"
                )
        utterances.append(Utterance(uid, frames, tuple(reference)))
    return utterances


def save_corpus(utterances: Iterable[Utterance], path: str | Path) -> None:
    """Write a corpus as JSONL; a fixed field order keeps output reproducible."""
    lines = []
    for utt in utterances:
        lines.append(
            json.dumps(
                {"id": utt.uid, "frames": utt.frames, "reference": list(utt.reference)}
            )
        )
    write_text_file(path, "\n".join(lines) + ("\n" if lines else ""))


def generate_corpus(
    seed: int,
    count: int,
    vocab_size: int,
    frames_range: tuple[int, int],
    blank_prior: float = DEFAULT_BLANK_PRIOR,
    model_path: Optional[str | Path] = None,
    corpus_path: Optional[str | Path] = None,
) -> tuple[ModelSpec, list[Utterance]]:
    """Create a seeded model and a matching corpus with reachable references.

    Frame counts are drawn per utterance from a hash of (seed, index), so a
    longer run of the same seed extends a shorter one without changing its
    prefix. References come from the exact oracle when the instance is
    small enough and otherwise from a wide-beam segment decode, so they are
    sequences the model can actually produce. Files are written only when
    the corresponding path is given.
    """
    if count < 1:
        raise ValueError("need at least one utterance")
    low, high = int(frames_range[0]), int(frames_range[1])
    if not (0 < low <= high):
        raise ValueError("frame range must satisfy 0 < low <= high")
    spec = ModelSpec(
        kind="seeded",
        vocab_size=vocab_size,
        frames=high,
        seed=seed,
        blank_prior=blank_prior,
    )
    model = load_model(spec)
    reference_config = DecodeConfig(
        beam_size=REFERENCE_BEAM,
        segment_size=REFERENCE_SEGMENT,
        nbest=1,
    )
    utterances = []
    for index in range(count):
        frames = low + _mix64((seed & ((1 << 64) - 1)) ^ (index * 2 + 1)) % (high - low + 1)
        uid = f"utt-{index:04d}"
        encoder = model.encode(frames, uid)
        if frames <= ENUM_MAX_FRAMES and vocab_size <= ENUM_MAX_VOCAB:
            reference = exact_nbest(model, encoder, 1, ENUM_MAX_TOKENS).top
        else:
            result, _ = decode_utterance_tokenwise(model, encoder, reference_config)
            reference = result.top
        utterances.append(Utterance(uid, frames, reference))
    if model_path is not None:
        write_model_spec(spec, model_path)
    if corpus_path is not None:
        save_corpus(utterances, corpus_path)
    return spec, utterances


@dataclass(frozen=True)
class BenchmarkReport:
    """Full sweep output; serializes deterministically apart from timing."""

    meta: dict
    cells: dict

    @staticmethod
    def cell_key(beam_size: int, segment_size: int) -> str:
        return f"N{beam_size}/S{segment_size}"

    def to_dict(self) -> dict:
        return {"meta": self.meta, "cells": self.cells}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path: str | Path) -> None:
        write_text_file(path, self.to_json())

    @staticmethod
    def strip_timing(data: dict) -> dict:
        """Copy of a report dict with every ``timing`` object removed."""

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items() if k != "timing"}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node

        return strip(data)


def _relative_delta(value: Optional[float], baseline: Optional[float]):
    if value is None or baseline is None:
        return None
    if baseline == 0.0:
        return 0.0 if value == baseline else None
    return (value - baseline) / baseline


_POOL_STATE: dict = {}


def _pool_init(spec: ModelSpec) -> None:
    _POOL_STATE["model"] = load_model(spec)


def _pool_decode(task: tuple[DecodeConfig, str, int]):
    config, uid, frames = task
    model = _POOL_STATE["model"]
    encoder = model.encode(frames, uid)
    result, counters = decode_utterance_tokenwise(model, encoder, config)
    return result.entries, counters


def decode_corpus(
    model: TransducerModel,
    utterances: Sequence[Utterance],
    config: DecodeConfig,
    pool: Optional[ProcessPoolExecutor] = None,
    chunksize: int = 1,
) -> tuple[list[NBestList], JoinerCounters]:
    """Decode every utterance, in this process or, given a pool, in its workers.

    Results keep the corpus order; the counters are summed over the corpus.
    """
    counters = JoinerCounters()
    results: list[NBestList] = []
    if pool is None:
        for utt in utterances:
            encoder = model.encode(utt.frames, utt.uid)
            result, _ = decode_utterance_tokenwise(model, encoder, config, counters)
            results.append(result)
        return results, counters
    tasks = [(config, utt.uid, utt.frames) for utt in utterances]
    for entries, utterance_counters in pool.map(_pool_decode, tasks, chunksize=chunksize):
        results.append(NBestList(entries))
        counters.merge(utterance_counters)
    return results, counters


def run_benchmark(
    model_path: str | Path,
    corpus_path: str | Path,
    beam_sizes: Sequence[int],
    segment_sizes: Sequence[int],
    nbest: int = 1,
    repeats: int = 1,
    out_path: Optional[str | Path] = None,
    workers: int = 1,
    max_rounds: Optional[int] = None,
) -> BenchmarkReport:
    """Sweep the decode grid and collect error, cost, and timing metrics.

    Every beam size is paired with every segment size; segment size one
    must be present because each beam size's other cells report deltas
    against it. ``nbest`` is clamped to the cell's beam size. Wall time per
    cell is the median over ``repeats`` full passes; decode output of the
    first pass is the one scored. Per-frame rates are ``None`` when the
    corpus has no frames, error rates when it has no reference tokens, and
    so are the deltas computed from them.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    beams = list(dict.fromkeys(int(n) for n in beam_sizes))
    segments = list(dict.fromkeys(int(s) for s in segment_sizes))
    if not beams or not segments:
        raise ValueError("need at least one beam size and one segment size")
    if 1 not in segments:
        raise ValueError("segment sizes must include 1, the per-frame baseline")
    # Every cell's config is checked before any work, so a bad size late in
    # the sweep cannot cost a decode of the earlier cells.
    configs = {
        (beam, segment): DecodeConfig(
            beam_size=beam,
            segment_size=segment,
            nbest=min(nbest, beam),
            max_rounds_per_segment=max_rounds,
        )
        for beam in beams
        for segment in segments
    }
    spec = read_model_spec(model_path)
    model = load_model(spec)
    utterances = load_corpus(corpus_path, model.vocab)
    if not utterances:
        raise CorpusFormatError(f"corpus {corpus_path} is empty")
    scored = any(u.reference for u in utterances)

    cells: dict[str, dict] = {}
    # One pool serves every cell and repeat; its workers are started before
    # the first timed pass, so start-up is never billed as decode time.
    chunksize = max(1, len(utterances) // (workers * 4))
    pool_context = contextlib.nullcontext()
    if workers > 1:
        # Imported here because it pulls in multiprocessing, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(spec,)
        )
    with pool_context as pool:
        if pool is not None:
            pool.submit(int).result()
        for (beam, segment), config in configs.items():
            times = []
            results: Optional[list[NBestList]] = None
            counters: Optional[JoinerCounters] = None
            for _ in range(repeats):
                started = time.perf_counter()
                pass_results, pass_counters = decode_corpus(
                    model, utterances, config, pool, chunksize
                )
                times.append(time.perf_counter() - started)
                if results is None:
                    results, counters = pass_results, pass_counters
            wall = statistics.median(times)
            stats = efficiency_stats(counters, wall) if counters.frames_decoded else None
            pairs = list(zip((u.reference for u in utterances), results))
            cells[BenchmarkReport.cell_key(beam, segment)] = {
                "beam_size": beam,
                "segment_size": segment,
                "nbest": config.nbest,
                "wer": corpus_wer([(ref, res.top) for ref, res in pairs]) if scored else None,
                "oracle_wer": corpus_oracle_wer(pairs) if scored else None,
                "counters": {
                    "calls": counters.calls,
                    "frame_joins": counters.frame_joins,
                    "frames_decoded": counters.frames_decoded,
                    "forced_finalizations": counters.forced_finalizations,
                },
                "calls_per_frame": stats.calls_per_frame if stats else None,
                "joins_per_frame": stats.joins_per_frame if stats else None,
                "timing": {
                    "wall_time_sec": wall,
                    "frames_per_second": stats.frames_per_second if stats else None,
                },
            }

    for cell in cells.values():
        baseline = cells[BenchmarkReport.cell_key(cell["beam_size"], 1)]
        cell["deltas"] = {
            name: _relative_delta(cell[name], baseline[name])
            for name in ("wer", "oracle_wer", "calls_per_frame", "joins_per_frame")
        }
        cell["timing"]["frames_per_second_delta"] = _relative_delta(
            cell["timing"]["frames_per_second"], baseline["timing"]["frames_per_second"]
        )

    meta = {
        "model": {k: v for k, v in spec.to_dict().items() if k != "payload"},
        "corpus": {
            "utterances": len(utterances),
            "frames": sum(u.frames for u in utterances),
            "reference_tokens": sum(len(u.reference) for u in utterances),
        },
        "settings": {
            "beam_sizes": beams,
            "segment_sizes": segments,
            "nbest": nbest,
            "repeats": repeats,
            "max_rounds_per_segment": max_rounds,
        },
    }
    report = BenchmarkReport(meta=meta, cells=cells)
    if out_path is not None:
        report.write(out_path)
    return report


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_defect: float
    detail: str = ""


@dataclass(frozen=True)
class VerificationSummary:
    results: tuple[PropertyResult, ...]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)


def verify(
    model: TransducerModel,
    utterances: Sequence[Utterance],
    *,
    tolerance: float = 1e-9,
    max_tokens: int = 4,
) -> VerificationSummary:
    """Check the decoding invariants end to end on a tiny corpus.

    Instances must be small enough for the exact oracle (it re-derives
    every marginal by brute force); zero-frame utterances are allowed.
    The checks: the segment decoder at segment size one matches the
    frame-synchronous reference decoder; every expansion round conserves
    probability mass; with a token cap of ``max_tokens`` and an unbounded
    beam the decoder reproduces the exact marginals and their ranking; final
    scores do not depend on the segment size; and no beam score ever
    exceeds its sequence's true marginal. Each passes when its largest
    defect is at most ``tolerance``.
    """
    if not utterances:
        raise ValueError("verification needs at least one utterance")
    for utt in utterances:
        if utt.frames > ENUM_MAX_FRAMES:
            raise ValueError(
                f"utterance {utt.uid!r} has {utt.frames} frames;"
                f" verification handles at most {ENUM_MAX_FRAMES}"
            )
    if model.vocab.size > ENUM_MAX_VOCAB:
        raise ValueError(f"verification handles vocabularies up to {ENUM_MAX_VOCAB}")
    if not (1 <= max_tokens <= ENUM_MAX_TOKENS):
        raise ValueError(f"max_tokens must lie in 1..{ENUM_MAX_TOKENS}")
    if not tolerance >= 0.0:
        raise ValueError("tolerance must be a non-negative number")

    results: list[PropertyResult] = []
    trace = DecodeTrace()

    mismatch = ""
    score_gap = 0.0
    pairs_checked = 0
    for utt in utterances:
        encoder = model.encode(utt.frames, utt.uid)
        for beam in VERIFY_BEAM_SIZES:
            config = DecodeConfig(beam_size=beam, segment_size=1, nbest=beam)
            reference, _ = decode_utterance_standard(model, encoder, config, trace=trace)
            segmented, _ = decode_utterance_tokenwise(model, encoder, config, trace=trace)
            pairs_checked += 1
            if reference.sequences() != segmented.sequences():
                mismatch = f"{utt.uid!r} at beam {beam}: sequence lists differ"
                break
            gaps = [
                abs(a[1] - b[1]) for a, b in zip(reference.entries, segmented.entries)
            ]
            score_gap = max(score_gap, max(gaps, default=0.0))
        if mismatch:
            break
    results.append(
        PropertyResult(
            "s1-equivalence",
            not mismatch and score_gap <= tolerance,
            score_gap,
            mismatch or f"max |score gap| {score_gap:.3e} over {pairs_checked} decode pairs",
        )
    )

    capped = TokenCapModel(model, max_tokens)
    exact_defect = 0.0
    exact_detail = ""
    exact_ok = True
    invariance_defect = 0.0
    invariance_detail = ""
    invariance_ok = True
    for utt in utterances:
        encoder = capped.encode(utt.frames, utt.uid)
        exact = exact_marginals(capped, encoder, max_tokens)
        truth = exact_nbest(capped, encoder, UNBOUNDED_BEAM, max_tokens)

        whole = max(utt.frames, 1)
        by_segment: dict[int, NBestList] = {}
        for segment in sorted({1, 2, 3, whole}):
            config = DecodeConfig(
                beam_size=UNBOUNDED_BEAM, segment_size=segment, nbest=UNBOUNDED_BEAM
            )
            decoded, _ = decode_utterance_tokenwise(
                capped, encoder, config, trace=trace
            )
            by_segment[segment] = decoded

        full = by_segment[whole]
        if exact_ok:
            if full.sequences() != truth.sequences():
                exact_ok = False
                exact_detail = f"{utt.uid!r}: ranking differs from the exact oracle"
            else:
                for tokens, score in full.entries:
                    exact_defect = max(exact_defect, abs(score - exact.log_prob(tokens)))

        if invariance_ok:
            reference_entries = dict(by_segment[1].entries)
            for segment, decoded in by_segment.items():
                entries = dict(decoded.entries)
                if set(entries) != set(reference_entries):
                    invariance_ok = False
                    invariance_detail = (
                        f"{utt.uid!r}: segment size {segment} changes the sequence set"
                    )
                    break
                for tokens, score in entries.items():
                    invariance_defect = max(
                        invariance_defect, abs(score - reference_entries[tokens])
                    )
    results.append(
        PropertyResult(
            "oracle-exactness",
            exact_ok and exact_defect <= tolerance,
            exact_defect,
            exact_detail or f"max |marginal gap| {exact_defect:.3e}",
        )
    )
    results.append(
        PropertyResult(
            "segment-invariance",
            invariance_ok and invariance_defect <= tolerance,
            invariance_defect,
            invariance_detail or f"max |score gap| {invariance_defect:.3e}",
        )
    )

    bound_defect = 0.0
    for utt in utterances:
        encoder = model.encode(utt.frames, utt.uid)
        for beam in VERIFY_BEAM_SIZES:
            for segment in (1, 3):
                config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
                decoded, _ = decode_utterance_tokenwise(model, encoder, config, trace=trace)
                for tokens, score in decoded.entries:
                    marginal = exact_sequence_marginal(model, encoder, tokens)
                    bound_defect = max(bound_defect, score - marginal)
    results.append(
        PropertyResult(
            "score-upper-bound",
            bound_defect <= tolerance,
            max(bound_defect, 0.0),
            f"max score excess over true marginal {max(bound_defect, 0.0):.3e}",
        )
    )

    results.append(
        PropertyResult(
            "mass-conservation",
            trace.max_mass_defect <= tolerance,
            trace.max_mass_defect,
            f"max defect {trace.max_mass_defect:.3e} over {trace.mass_checks} checks",
        )
    )
    return VerificationSummary(tuple(results))


def verify_files(
    model_path: str | Path,
    corpus_path: str | Path,
    *,
    tolerance: float = 1e-9,
    max_tokens: int = 4,
) -> VerificationSummary:
    model = load_model_file(model_path)
    utterances = load_corpus(corpus_path, model.vocab)
    return verify(model, utterances, tolerance=tolerance, max_tokens=max_tokens)
