"""Corpus files, corpus generation, benchmark sweeps, and verification.

File formats
------------
Corpora are JSON Lines: one ``{"id": str, "frames": int, "reference":
[int, ...]}`` object per line. Models are single JSON objects (see
``model.load_model``). Benchmark reports are JSON with one entry per
(beam size, segment size) cell under keys like ``"N2/S5"``; wall-clock
numbers live in each cell's ``"timing"`` object so reports from repeated
runs are byte-identical once timing is stripped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .decoder import (
    DecodeConfig,
    DecodeTrace,
    NBestList,
    UNBOUNDED_BEAM,
    decode_utterance_standard,
    decode_utterance_tokenwise,
)
from .metrics import corpus_oracle_wer, corpus_wer
from .model import (
    DEFAULT_BLANK_PRIOR,
    JoinerCounters,
    TokenCapModel,
    TransducerModel,
    Vocabulary,
    _mix64,
    check_cell_budget,
    check_output_path,
    load_model,
    read_model_spec,
    write_text_file,
)
from .oracle import (
    capped_prefixes,
    check_oracle_budget,
    check_sequence_budget,
    exact_nbest,
    exact_sequence_marginals,
)

REFERENCE_BEAM = 8
REFERENCE_SEGMENT = 4
VERIFY_BEAM_SIZES = (1, 2, 5)
VERIFY_MAX_TOKENS = 4


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


def load_corpus(
    path: str | Path, vocab: Vocabulary, max_frames: Optional[int] = None
) -> list[Utterance]:
    """Read a non-empty JSONL corpus.

    Reference tokens must lie inside ``vocab``; given ``max_frames`` (a
    model's limit), no utterance may be longer.
    """
    path = Path(path)
    utterances: list[Utterance] = []
    seen_ids: set[str] = set()
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read corpus file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from exc
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}:{number}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or set(record) != {"id", "frames", "reference"}:
            raise ValueError(
                f"{path}:{number}: expected exactly the fields id, frames, reference"
            )
        uid = record["id"]
        frames = record["frames"]
        reference = record["reference"]
        if not isinstance(uid, str) or not uid:
            raise ValueError(f"{path}:{number}: id must be a non-empty string")
        try:
            uid.encode("utf-8")
        except UnicodeEncodeError:
            # A lone surrogate, such as the JSON escape "\ud800", has no UTF-8 form.
            raise ValueError(f"{path}:{number}: id must be valid Unicode text") from None
        if not isinstance(frames, int) or isinstance(frames, bool) or frames < 0:
            raise ValueError(f"{path}:{number}: frames must be a non-negative integer")
        if max_frames is not None and frames > max_frames:
            raise ValueError(
                f"{path}:{number}: utterance {uid!r} has {frames} frames;"
                f" the model holds at most {max_frames}"
            )
        if not isinstance(reference, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in reference
        ):
            raise ValueError(f"{path}:{number}: reference must be a list of integers")
        if uid in seen_ids:
            raise ValueError(f"{path}:{number}: duplicate utterance id {uid!r}")
        seen_ids.add(uid)
        bad = [t for t in reference if not (0 <= t < vocab.size)]
        if bad:
            raise ValueError(
                f"{path}:{number}: utterance {uid!r}: reference tokens {bad}"
                f" outside vocabulary of size {vocab.size}"
            )
        utterances.append(Utterance(uid, frames, tuple(reference)))
    if not utterances:
        raise ValueError(f"corpus {path} is empty")
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
    *,
    model_path: str | Path,
    corpus_path: str | Path,
) -> tuple[dict, list[Utterance]]:
    """Create a seeded model and a matching corpus with reachable references.

    Frame counts are drawn per utterance from a hash of (seed, index), so a
    longer run of the same seed extends a shorter one without changing its
    prefix. Each reference is a sequence the model can produce: the top of
    a beam-8, segment-4 decode. Both files are written after every
    utterance is made. Returns the model file's JSON object and the
    utterances.
    """
    if count < 1:
        raise ValueError("need at least one utterance")
    low, high = int(frames_range[0]), int(frames_range[1])
    if not (0 < low <= high):
        raise ValueError("frame range must satisfy 0 < low <= high")
    check_output_path(model_path)
    check_output_path(corpus_path, model_path)
    reference_config = DecodeConfig(beam_size=REFERENCE_BEAM, segment_size=REFERENCE_SEGMENT)
    # Checked before the model is built: its tables grow with the vocabulary.
    width, symbols = min(REFERENCE_SEGMENT, high), vocab_size + 1
    check_cell_budget("a decode round", hypotheses=REFERENCE_BEAM, frames=width, symbols=symbols)
    spec = {
        "kind": "seeded",
        "vocab_size": vocab_size,
        "frames": high,
        "seed": seed,
        "blank_prior": blank_prior,
    }
    model = load_model(spec)
    utterances = []
    for index in range(count):
        frames = low + _mix64((seed & ((1 << 64) - 1)) ^ (index * 2 + 1)) % (high - low + 1)
        uid = f"utt-{index:04d}"
        result, _ = decode_utterance_tokenwise(model, model.encode(frames, uid), reference_config)
        utterances.append(Utterance(uid, frames, result.top))
    write_text_file(model_path, json.dumps(spec, sort_keys=True, indent=2) + "\n")
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

    def to_json(self) -> str:
        report = {"meta": self.meta, "cells": self.cells}
        return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _relative_delta(value: Optional[float], baseline: Optional[float]):
    if value is None or baseline is None:
        return None
    if baseline == 0.0:
        return 0.0 if value == baseline else None
    return (value - baseline) / baseline


def check_round_budget(
    model: TransducerModel, utterances: Sequence[Utterance], config: DecodeConfig
) -> None:
    """Reject a config whose full-beam round would exceed ``CELL_BUDGET`` cells.

    A round joins up to ``beam_size`` hypotheses over its segment, so its
    grid holds beam x width x symbols log-probabilities, where the width is
    the segment size capped at the longest utterance. Without the budget an
    absurd beam keeps every expansion and its group grows until memory runs
    out; with it, such a beam fails before any decode.
    """
    width = min(config.segment_size, max((utt.frames for utt in utterances), default=0))
    check_cell_budget(
        "a decode round", hypotheses=config.beam_size, frames=width, symbols=model.vocab.num_symbols
    )


def _decode_utterance(
    model: TransducerModel, config: DecodeConfig, utt: Utterance
) -> tuple[NBestList, JoinerCounters]:
    encoder = model.encode(utt.frames, utt.uid)
    return decode_utterance_tokenwise(model, encoder, config)


def decode_corpus(
    model: TransducerModel,
    utterances: Sequence[Utterance],
    config: DecodeConfig,
    mapper: Callable = map,
) -> tuple[list[NBestList], JoinerCounters]:
    """Decode every utterance with ``model`` through ``mapper``, in corpus order.

    ``mapper(function, utterances)`` is ``map`` in this process, or a process
    pool's ``map``, whose tasks carry the model by pickle. The counters are
    summed over the corpus.
    """
    decoded = mapper(functools.partial(_decode_utterance, model, config), utterances)
    counters = JoinerCounters()
    results: list[NBestList] = []
    for result, utterance_counters in decoded:
        results.append(result)
        counters.merge(utterance_counters)
    return results, counters


def corpus_summary(
    utterances: Sequence[Utterance],
    results: Sequence[NBestList],
    counters: JoinerCounters,
    wall_time_sec: float,
) -> dict:
    """Error rates, joiner cost per frame and throughput of one decoded corpus.

    Per-frame rates are ``None`` when no frame was decoded, error rates when
    the corpus has no reference tokens. Wall-clock numbers go under
    ``timing``.
    """
    frames = counters.frames_decoded
    scored = any(u.reference for u in utterances)
    pairs = list(zip((u.reference for u in utterances), results))
    return {
        "wer": corpus_wer([(ref, res.top) for ref, res in pairs]) if scored else None,
        "oracle_wer": corpus_oracle_wer(pairs) if scored else None,
        "counters": asdict(counters),
        "calls_per_frame": counters.calls / frames if frames else None,
        "joins_per_frame": counters.frame_joins / frames if frames else None,
        "timing": {
            "wall_time_sec": wall_time_sec,
            "frames_per_second": frames / wall_time_sec if frames else None,
        },
    }


def run_benchmark(
    model_path: str | Path,
    corpus_path: str | Path,
    beam_sizes: Sequence[int],
    segment_sizes: Sequence[int],
    nbest: int = 1,
    repeats: int = 1,
    workers: int = 1,
) -> BenchmarkReport:
    """Sweep the decode grid and collect error, cost, and timing metrics.

    Every beam size is paired with every segment size; segment size one
    must be present because each beam size's other cells report deltas
    against it. ``nbest`` is clamped to the cell's beam size. Wall time per
    cell is the median over ``repeats`` full passes, which decode alike; the
    last pass's output is the one scored. Each cell holds
    :func:`corpus_summary`'s numbers; a delta computed from a ``None`` rate
    is ``None``.
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
            beam_size=beam, segment_size=segment, nbest=min(nbest, beam)
        )
        for beam in beams
        for segment in segments
    }
    spec = read_model_spec(model_path)
    model = load_model(spec)
    utterances = load_corpus(corpus_path, model.vocab, model.max_frames)
    for config in configs.values():
        check_round_budget(model, utterances, config)
    cells: dict[str, dict] = {}
    # One pool serves every cell and repeat; its workers are started before
    # the first timed pass, so start-up is never billed as decode time. A
    # pass has one task per utterance at most, so no more workers are started.
    workers = min(workers, len(utterances))
    pool_context = contextlib.nullcontext()
    if workers > 1:
        # Imported here because it pulls in multiprocessing, which only a pool needs.
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(max_workers=workers)
    with pool_context as pool:
        mapper = map
        if pool is not None:
            pool.submit(int).result()
            chunksize = max(1, len(utterances) // (workers * 4))
            mapper = functools.partial(pool.map, chunksize=chunksize)
        for (beam, segment), config in configs.items():
            times = []
            for _ in range(repeats):
                started = time.perf_counter()
                results, counters = decode_corpus(model, utterances, config, mapper)
                times.append(time.perf_counter() - started)
            times.sort()
            median = (times[(repeats - 1) // 2] + times[repeats // 2]) / 2
            cells[BenchmarkReport.cell_key(beam, segment)] = {
                "beam_size": beam,
                "segment_size": segment,
                "nbest": config.nbest,
                **corpus_summary(utterances, results, counters, median),
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
        "model": {k: v for k, v in spec.items() if k != "payload"},
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
        },
    }
    return BenchmarkReport(meta=meta, cells=cells)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    max_defect: float
    detail: str = ""


def _compare_entries(
    name: str, pairs: Iterable[tuple[Sequence, Sequence, str]], summary: str
) -> PropertyResult:
    """Fold ``(got_entries, want_entries, failure_detail)`` triples into one property.

    Each pair must list the same sequences in the same order; the defect is
    the largest score gap. The first pair that differs ends the fold and
    fails the property with its detail and the gap so far. Otherwise the
    detail is ``summary`` formatted with ``gap`` and the number of ``pairs``.
    """
    gap = 0.0
    count = 0
    for got, want, detail in pairs:
        if [tokens for tokens, _ in got] != [tokens for tokens, _ in want]:
            return PropertyResult(name, False, gap, detail)
        count += 1
        for (_, got_score), (_, want_score) in zip(got, want):
            gap = max(gap, abs(got_score - want_score))
    passed = gap <= DecodeConfig.mass_tolerance
    return PropertyResult(name, passed, gap, summary.format(gap=gap, pairs=count))


def verify(model: TransducerModel, utterances: Sequence[Utterance]) -> tuple[PropertyResult, ...]:
    """Check the decoding invariants end to end against the exact oracle.

    Before any decode, the token cap is the largest up to ``VERIFY_MAX_TOKENS``
    whose trie fits ``check_oracle_budget`` at the longest utterance; past it
    even at one token, ``verify`` raises. Zero frames are allowed. After each
    finite-beam decode, the sequences decoded so far for the utterance must
    fit ``check_sequence_budget``, so a score bound too large to check ends
    the run before the next decode.
    Returns five results, in this order: the segment decoder at segment size
    one matches the frame-synchronous reference decoder (s1-equivalence);
    with that token cap and an unbounded beam it reproduces the exact
    marginals and their ranking (oracle-exactness); final scores
    do not depend on the segment size (segment-invariance); no beam score
    ever exceeds its sequence's true marginal (score-upper-bound); and every
    expansion round conserves probability mass (mass-conservation). Each
    passes when its largest defect is at most ``DecodeConfig.mass_tolerance``.
    """
    if not utterances:
        raise ValueError("verification needs at least one utterance")
    longest = max(utt.frames for utt in utterances)
    for cap in range(VERIFY_MAX_TOKENS, 0, -1):  # the largest cap that fits, or cap 1's error
        try:
            check_oracle_budget(model, longest, capped_prefixes(model.vocab.size, cap))
            break
        except ValueError:
            if cap == 1:
                raise
    at_cap = "" if cap == VERIFY_MAX_TOKENS else f" at a token cap of {cap}"

    capped = TokenCapModel(model, cap)
    trace = DecodeTrace()
    s1_pairs, exact_pairs, invariance_pairs = [], [], []
    bound_defect = 0.0
    for utt in utterances:
        # A capped model encodes as its inner model, so one encoder per utterance
        # serves every check; each decode configuration runs once.
        encoder = model.encode(utt.frames, utt.uid)
        entries = []
        for beam in VERIFY_BEAM_SIZES:
            for segment in (1, 3):
                config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
                decoded, _ = decode_utterance_tokenwise(model, encoder, config, trace=trace)
                entries += decoded.entries
                check_sequence_budget(model, encoder.frames, [tokens for tokens, _ in entries])
                if segment == 1:
                    standard, _ = decode_utterance_standard(model, encoder, config, trace=trace)
                    detail = f"{utt.uid!r} at beam {beam}: sequence lists differ"
                    s1_pairs.append((decoded.entries, standard.entries, detail))
        marginals = exact_sequence_marginals(model, encoder, [tokens for tokens, _ in entries])
        for (_, score), marginal in zip(entries, marginals):
            bound_defect = max(bound_defect, score - marginal)

        truth = exact_nbest(capped, encoder, UNBOUNDED_BEAM, cap)
        whole = max(utt.frames, 1)
        by_segment = {}
        for segment in sorted({1, 2, 3, whole}):
            config = DecodeConfig(
                beam_size=UNBOUNDED_BEAM, segment_size=segment, nbest=UNBOUNDED_BEAM
            )
            decoded, _ = decode_utterance_tokenwise(capped, encoder, config, trace=trace)
            by_segment[segment] = decoded.entries
        detail = f"{utt.uid!r}: ranking differs from the exact oracle{at_cap}"
        exact_pairs.append((by_segment[whole], truth.entries, detail))
        # Sorted by tokens, so equal sequence sets compare as equal lists.
        reference = sorted(by_segment[1])
        for segment, got in by_segment.items():
            detail = f"{utt.uid!r}: segment size {segment} changes the sequence set"
            invariance_pairs.append((sorted(got), reference, detail))
    s1_summary = "max |score gap| {gap:.3e} over {pairs} decode pairs"
    s1 = _compare_entries("s1-equivalence", s1_pairs, s1_summary)
    exact_summary = "max |marginal gap| {gap:.3e}" + at_cap
    exactness = _compare_entries("oracle-exactness", exact_pairs, exact_summary)
    invariance = _compare_entries(
        "segment-invariance", invariance_pairs, "max |score gap| {gap:.3e}"
    )
    bound = PropertyResult(
        "score-upper-bound",
        bound_defect <= DecodeConfig.mass_tolerance,
        bound_defect,
        f"max score excess over true marginal {bound_defect:.3e}",
    )

    mass = PropertyResult(
        "mass-conservation",
        trace.max_mass_defect <= DecodeConfig.mass_tolerance,
        trace.max_mass_defect,
        f"max defect {trace.max_mass_defect:.3e} over {trace.mass_checks} checks",
    )
    return (s1, exactness, invariance, bound, mass)
