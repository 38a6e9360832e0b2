"""Tests for corpus handling, the benchmark sweep, and verification."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tokenwise.decoder import DecodeConfig, decode_utterance_standard
from tokenwise.harness import (
    BenchmarkReport,
    CorpusFormatError,
    Utterance,
    generate_corpus,
    load_corpus,
    run_benchmark,
    save_corpus,
    verify,
    verify_files,
)
from tokenwise.logmath import LOG_ZERO
from tokenwise.metrics import corpus_wer
from tokenwise.model import (
    ModelSpec,
    SeededModel,
    Vocabulary,
    load_model,
    read_model_spec,
    write_model_spec,
)
from tokenwise.oracle import ENUM_MAX_TOKENS, exact_nbest

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Checksums of the bundled corpora; the generator must keep reproducing them.
DATA_SHA256 = {
    "bench_model.json": "ab3e22fa7afb6f14b29a25ee4c97ef0ed648f82fe5638cb2cb184fed4a3904c1",
    "tiny_model.json": "9204670a977e529b8783bf93d7f63b7490e6bb79b1faa8f15bcdae655beef147",
    "bench_corpus.jsonl": "1903d07938d31665b99cba65ec3bc68cddae0e7f6a48773a6e40d3f1bb494e2d",
    "tiny_corpus.jsonl": "d6c2c0e5664f144c9d9114f5fad4743fdade78b0ac0719c3f52b8e74e280fa60",
}

TINY_SEED = 20250311
TINY_PARAMS = dict(count=12, vocab_size=3, frames_range=(4, 6), blank_prior=0.6)


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def test_utterance_validation() -> None:
    utt = Utterance(uid="a", frames=3, reference=[1, 2])
    assert utt.reference == (1, 2)
    with pytest.raises(ValueError):
        Utterance(uid="a", frames=-1, reference=())


def test_load_corpus_round_trip(tmp_path: Path) -> None:
    utterances = [
        Utterance(uid="u1", frames=5, reference=(0, 2)),
        Utterance(uid="u2", frames=1, reference=()),
    ]
    path = tmp_path / "c.jsonl"
    save_corpus(utterances, path)
    assert load_corpus(path) == utterances
    assert load_corpus(path, Vocabulary(3)) == utterances


def test_load_corpus_reports_line_numbers(tmp_path: Path) -> None:
    path = _write_lines(
        tmp_path / "bad.jsonl",
        ['{"id": "a", "frames": 2, "reference": []}', "{not json"],
    )
    with pytest.raises(CorpusFormatError, match=r":2: invalid JSON"):
        load_corpus(path)


def test_load_corpus_rejects_field_drift(tmp_path: Path) -> None:
    extra = _write_lines(
        tmp_path / "extra.jsonl",
        ['{"id": "a", "frames": 2, "reference": [], "speaker": "x"}'],
    )
    with pytest.raises(CorpusFormatError):
        load_corpus(extra)
    missing = _write_lines(tmp_path / "missing.jsonl", ['{"id": "a", "frames": 2}'])
    with pytest.raises(CorpusFormatError):
        load_corpus(missing)


def test_load_corpus_rejects_bad_values(tmp_path: Path) -> None:
    empty_id = _write_lines(
        tmp_path / "id.jsonl", ['{"id": "", "frames": 2, "reference": []}']
    )
    with pytest.raises(CorpusFormatError):
        load_corpus(empty_id)
    bool_frames = _write_lines(
        tmp_path / "bool.jsonl", ['{"id": "a", "frames": true, "reference": []}']
    )
    with pytest.raises(CorpusFormatError):
        load_corpus(bool_frames)
    dup = _write_lines(
        tmp_path / "dup.jsonl",
        [
            '{"id": "a", "frames": 2, "reference": []}',
            '{"id": "a", "frames": 3, "reference": []}',
        ],
    )
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(dup)


def test_load_corpus_checks_vocabulary(tmp_path: Path) -> None:
    path = _write_lines(
        tmp_path / "oov.jsonl", ['{"id": "a", "frames": 2, "reference": [7]}']
    )
    assert load_corpus(path)[0].reference == (7,)
    with pytest.raises(CorpusFormatError):
        load_corpus(path, Vocabulary(3))


def test_load_corpus_missing_file(tmp_path: Path) -> None:
    with pytest.raises(CorpusFormatError, match="cannot read"):
        load_corpus(tmp_path / "absent.jsonl")


def test_generate_corpus_is_deterministic() -> None:
    spec_a, utts_a = generate_corpus(seed=TINY_SEED, **TINY_PARAMS)
    spec_b, utts_b = generate_corpus(seed=TINY_SEED, **TINY_PARAMS)
    assert spec_a == spec_b
    assert utts_a == utts_b


def test_generate_corpus_prefix_stability() -> None:
    _, short = generate_corpus(seed=5, count=5, vocab_size=4, frames_range=(3, 6))
    _, long = generate_corpus(seed=5, count=10, vocab_size=4, frames_range=(3, 6))
    assert long[:5] == short


def test_generate_corpus_validation() -> None:
    with pytest.raises(ValueError):
        generate_corpus(seed=1, count=0, vocab_size=4, frames_range=(3, 6))
    with pytest.raises(ValueError):
        generate_corpus(seed=1, count=1, vocab_size=4, frames_range=(6, 3))
    with pytest.raises(ValueError):
        generate_corpus(seed=1, count=1, vocab_size=4, frames_range=(0, 3))


def test_tiny_references_match_exact_oracle() -> None:
    spec, utterances = generate_corpus(seed=TINY_SEED, **TINY_PARAMS)
    model = load_model(spec)
    for utt in utterances:
        encoder = model.encode(utt.frames, utt.uid)
        best = exact_nbest(model, encoder, 1, ENUM_MAX_TOKENS).top
        assert utt.reference == best


def test_bundled_data_checksums() -> None:
    for name, expected in DATA_SHA256.items():
        digest = hashlib.sha256((DATA_DIR / name).read_bytes()).hexdigest()
        assert digest == expected, f"{name} drifted from its frozen bytes"


def test_generator_reproduces_bundled_tiny_files(tmp_path: Path) -> None:
    model_path = tmp_path / "tiny_model.json"
    corpus_path = tmp_path / "tiny_corpus.jsonl"
    generate_corpus(
        seed=TINY_SEED,
        model_path=model_path,
        corpus_path=corpus_path,
        **TINY_PARAMS,
    )
    assert model_path.read_bytes() == (DATA_DIR / "tiny_model.json").read_bytes()
    assert corpus_path.read_bytes() == (DATA_DIR / "tiny_corpus.jsonl").read_bytes()


def test_report_cell_key_and_timing_strip() -> None:
    assert BenchmarkReport.cell_key(4, 10) == "N4/S10"
    data = {
        "meta": {"timing": {"x": 1}, "keep": 2},
        "cells": {"N1/S1": {"wer": 0.5, "timing": {"wall_time_sec": 3.0}}},
        "list": [{"timing": 1, "ok": True}],
    }
    stripped = BenchmarkReport.strip_timing(data)
    assert stripped == {
        "meta": {"keep": 2},
        "cells": {"N1/S1": {"wer": 0.5}},
        "list": [{"ok": True}],
    }
    # The original is untouched.
    assert "timing" in data["meta"]


def test_report_json_is_sorted_and_newline_terminated() -> None:
    report = BenchmarkReport(meta={"b": 1, "a": 2}, cells={})
    text = report.to_json()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"meta": {"a": 2, "b": 1}, "cells": {}}


def _tiny_bench_paths(tmp_path: Path) -> tuple[Path, Path]:
    model_path = tmp_path / "model.json"
    corpus_path = tmp_path / "corpus.jsonl"
    generate_corpus(
        seed=404,
        count=6,
        vocab_size=4,
        frames_range=(8, 12),
        blank_prior=0.8,
        model_path=model_path,
        corpus_path=corpus_path,
    )
    return model_path, corpus_path


def test_run_benchmark_validation(tmp_path: Path) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    with pytest.raises(ValueError, match="segment"):
        run_benchmark(model_path, corpus_path, beam_sizes=[1], segment_sizes=[2])
    with pytest.raises(ValueError):
        run_benchmark(model_path, corpus_path, beam_sizes=[], segment_sizes=[1])
    with pytest.raises(ValueError):
        run_benchmark(model_path, corpus_path, beam_sizes=[1], segment_sizes=[1], repeats=0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            run_benchmark(
                model_path, corpus_path, beam_sizes=[1], segment_sizes=[1], workers=workers
            )
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        run_benchmark(model_path, empty, beam_sizes=[1], segment_sizes=[1])


def test_run_benchmark_single_cell_has_zero_deltas(tmp_path: Path) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    report = run_benchmark(model_path, corpus_path, beam_sizes=[2], segment_sizes=[1], nbest=9)
    assert list(report.cells) == ["N2/S1"]
    cell = report.cells["N2/S1"]
    assert cell["nbest"] == 2
    for value in cell["deltas"].values():
        assert value == 0.0
    assert cell["timing"]["frames_per_second_delta"] == 0.0
    assert report.meta["settings"]["nbest"] == 9


def test_run_benchmark_baseline_matches_reference_decoder(tmp_path: Path) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    report = run_benchmark(model_path, corpus_path, beam_sizes=[2], segment_sizes=[1, 3])
    model = load_model(read_model_spec(model_path))
    utterances = load_corpus(corpus_path, model.vocab)
    config = DecodeConfig(beam_size=2, segment_size=1, nbest=1)
    pairs = []
    for utt in utterances:
        result, _ = decode_utterance_standard(model, model.encode(utt.frames, utt.uid), config)
        pairs.append((utt.reference, result.top))
    assert report.cells["N2/S1"]["wer"] == corpus_wer(pairs)


def test_run_benchmark_writes_report(tmp_path: Path) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    out_path = tmp_path / "report.json"
    report = run_benchmark(
        model_path, corpus_path, beam_sizes=[1], segment_sizes=[1], out_path=out_path
    )
    assert json.loads(out_path.read_text(encoding="utf-8")) == report.to_dict()


def test_run_benchmark_workers_match_serial(tmp_path: Path) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    serial = run_benchmark(model_path, corpus_path, beam_sizes=[2], segment_sizes=[1, 2])
    parallel = run_benchmark(
        model_path, corpus_path, beam_sizes=[2], segment_sizes=[1, 2], workers=2
    )
    serial_clean = BenchmarkReport.strip_timing(serial.to_dict())
    parallel_clean = BenchmarkReport.strip_timing(parallel.to_dict())
    assert serial_clean == parallel_clean


def test_run_benchmark_builds_one_pool_per_run(tmp_path: Path, monkeypatch) -> None:
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs) -> None:
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    run_benchmark(
        model_path, corpus_path, beam_sizes=[1, 2], segment_sizes=[1, 2], repeats=2, workers=2
    )
    assert built == [2]
    run_benchmark(model_path, corpus_path, beam_sizes=[1], segment_sizes=[1])
    assert built == [2]


def test_blank_certain_benchmark_has_exact_call_count(tmp_path: Path) -> None:
    frames = 12
    vocab_size = 2
    payload = np.full((frames, 1, vocab_size + 1), LOG_ZERO)
    payload[:, :, -1] = 0.0
    spec = ModelSpec(kind="tabular", vocab_size=vocab_size, frames=frames, payload=payload.tolist())
    model_path = tmp_path / "blank.json"
    write_model_spec(spec, model_path)
    corpus_path = _write_lines(
        tmp_path / "blank.jsonl",
        [
            '{"id": "a", "frames": 12, "reference": [0, 1]}',
            '{"id": "b", "frames": 12, "reference": [1]}',
        ],
    )
    report = run_benchmark(
        model_path, corpus_path, beam_sizes=[1, 3], segment_sizes=[1, 2, 3]
    )
    for beam in (1, 3):
        for segment in (1, 2, 3):
            cell = report.cells[BenchmarkReport.cell_key(beam, segment)]
            # Certain blanks: one joiner call per segment, everything deleted.
            assert cell["wer"] == 1.0
            assert cell["oracle_wer"] == 1.0
            assert cell["calls_per_frame"] == pytest.approx(1.0 / segment)
            assert cell["counters"]["forced_finalizations"] == 0


def test_verify_passes_on_bundled_tiny_corpus() -> None:
    summary = verify_files(DATA_DIR / "tiny_model.json", DATA_DIR / "tiny_corpus.jsonl")
    assert summary.passed
    names = [result.name for result in summary.results]
    assert len(names) == len(set(names)) == 5
    for result in summary.results:
        assert result.max_defect < 1e-9


def test_verify_rejects_oversized_instances() -> None:
    model = SeededModel(vocab_size=2, frames=3, seed=3)
    with pytest.raises(ValueError):
        verify(model, [])
    with pytest.raises(ValueError):
        verify(model, [Utterance(uid="long", frames=7, reference=())])
    big = SeededModel(vocab_size=5, frames=3, seed=3)
    with pytest.raises(ValueError):
        verify(big, [Utterance(uid="a", frames=3, reference=())])
    with pytest.raises(ValueError):
        verify(
            model,
            [Utterance(uid="a", frames=3, reference=())],
            max_tokens=99,
        )
    # A zero-frame utterance is within the oracle's limits: all five properties pass.
    summary = verify(model, [Utterance(uid="empty", frames=0, reference=())])
    assert [result.passed for result in summary.results] == [True] * 5


def test_verify_zero_tolerance_fails_gracefully() -> None:
    spec = read_model_spec(DATA_DIR / "tiny_model.json")
    model = load_model(spec)
    utterances = load_corpus(DATA_DIR / "tiny_corpus.jsonl", model.vocab)[:3]
    summary = verify(model, utterances, tolerance=0.0)
    assert not summary.passed
