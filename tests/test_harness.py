"""Tests for corpus handling, the benchmark sweep, and verification."""

from __future__ import annotations

import collections
import concurrent.futures
import functools
import hashlib
import json
import re
import statistics
from pathlib import Path

import numpy as np
import pytest

from tokenwise import harness
from tokenwise.decoder import DecodeConfig, NBestList, decode_utterance_standard
from tokenwise.harness import (
    BenchmarkReport,
    Utterance,
    generate_corpus,
    load_corpus,
    run_benchmark,
    save_corpus,
    verify,
)
from tokenwise.logmath import LOG_ZERO
from tokenwise.metrics import corpus_wer
from tokenwise.model import (
    SeededModel,
    TabularModel,
    TokenCapModel,
    Vocabulary,
    load_model,
    load_model_file,
    read_model_spec,
    write_text_file,
)
from tokenwise.oracle import ORACLE_CELL_BUDGET, exact_nbest

from reference import strip_timing

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
    assert load_corpus(path, Vocabulary(3)) == utterances
    # A blank line between records is skipped.
    first, second = path.read_text(encoding="utf-8").splitlines()
    _write_lines(path, [first, "", second])
    assert load_corpus(path, Vocabulary(3)) == utterances


def test_load_corpus_reports_line_numbers(tmp_path: Path) -> None:
    path = _write_lines(
        tmp_path / "bad.jsonl",
        ['{"id": "a", "frames": 2, "reference": []}', "{not json"],
    )
    with pytest.raises(ValueError, match=r":2: invalid JSON"):
        load_corpus(path, Vocabulary(3))


def test_load_corpus_rejects_field_drift(tmp_path: Path) -> None:
    extra = _write_lines(
        tmp_path / "extra.jsonl",
        ['{"id": "a", "frames": 2, "reference": [], "speaker": "x"}'],
    )
    fields_message = ":1: expected exactly the fields id, frames, reference"
    with pytest.raises(ValueError, match=re.escape(f"{extra}{fields_message}")):
        load_corpus(extra, Vocabulary(3))
    missing = _write_lines(tmp_path / "missing.jsonl", ['{"id": "a", "frames": 2}'])
    with pytest.raises(ValueError, match=re.escape(f"{missing}{fields_message}")):
        load_corpus(missing, Vocabulary(3))


def test_load_corpus_rejects_bad_values(tmp_path: Path) -> None:
    empty_id = _write_lines(
        tmp_path / "id.jsonl", ['{"id": "", "frames": 2, "reference": []}']
    )
    with pytest.raises(
        ValueError, match=re.escape(f"{empty_id}:1: id must be a non-empty string")
    ):
        load_corpus(empty_id, Vocabulary(3))
    bool_frames = _write_lines(
        tmp_path / "bool.jsonl", ['{"id": "a", "frames": true, "reference": []}']
    )
    with pytest.raises(
        ValueError, match=re.escape(f"{bool_frames}:1: frames must be a non-negative integer")
    ):
        load_corpus(bool_frames, Vocabulary(3))
    for reference in ('"0"', "[0, true]"):
        bad_reference = _write_lines(
            tmp_path / "ref.jsonl", [f'{{"id": "a", "frames": 2, "reference": {reference}}}']
        )
        with pytest.raises(ValueError, match="reference must be a list of integers"):
            load_corpus(bad_reference, Vocabulary(3))
    dup = _write_lines(
        tmp_path / "dup.jsonl",
        [
            '{"id": "a", "frames": 2, "reference": []}',
            '{"id": "a", "frames": 3, "reference": []}',
        ],
    )
    with pytest.raises(ValueError, match="duplicate"):
        load_corpus(dup, Vocabulary(3))
    # JSON can escape a lone surrogate, which no UTF-8 text holds.
    surrogate = _write_lines(
        tmp_path / "surrogate.jsonl", ['{"id": "a\\ud800", "frames": 2, "reference": []}']
    )
    with pytest.raises(
        ValueError, match=re.escape(f"{surrogate}:1: id must be valid Unicode text")
    ):
        load_corpus(surrogate, Vocabulary(3))
    latin1 = tmp_path / "latin1.jsonl"
    latin1.write_bytes(b'{"id": "a", "frames": 2, "reference": []}\n{"id": "\xff"}\n')
    with pytest.raises(ValueError, match=re.escape(f"{latin1}:2: not UTF-8 text")):
        load_corpus(latin1, Vocabulary(3))


def test_load_corpus_checks_vocabulary(tmp_path: Path) -> None:
    path = _write_lines(
        tmp_path / "oov.jsonl", ['{"id": "a", "frames": 2, "reference": [7]}']
    )
    with pytest.raises(ValueError) as raised:
        load_corpus(path, Vocabulary(3))
    message = f"{path}:1: utterance 'a': reference tokens [7] outside vocabulary of size 3"
    assert str(raised.value) == message


def test_load_corpus_missing_file(tmp_path: Path) -> None:
    with pytest.raises(ValueError, match="cannot read"):
        load_corpus(tmp_path / "absent.jsonl", Vocabulary(3))


_SEEDED = {"kind": "seeded", "vocab_size": 2, "frames": 2, "seed": 1}


def _read_model_bytes(tmp_path: Path, data: bytes) -> dict:
    path = tmp_path / "model.json"
    path.write_bytes(data)
    return read_model_spec(path)


def _read_corpus_bytes(tmp_path: Path, data: bytes) -> list[Utterance]:
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    return load_corpus(path, Vocabulary(2))


_INVALID_INPUTS = {
    "spec-not-object": (lambda p: load_model([1]), "model spec must be a JSON object"),
    "spec-kind": (lambda p: load_model({**_SEEDED, "kind": "x"}), "unknown model kind: 'x'"),
    "spec-unknown-field": (
        lambda p: load_model({**_SEEDED, "zap": 3}),
        "unknown model spec fields: ['zap']",
    ),
    "spec-field-type": (
        lambda p: load_model({**_SEEDED, "frames": "2"}),
        "frames must be an integer",
    ),
    "spec-vocab": (
        lambda p: load_model({**_SEEDED, "vocab_size": 0}),
        "vocab_size must be positive",
    ),
    "spec-missing-field": (
        lambda p: load_model({"kind": "seeded"}),
        "model spec is missing field 'vocab_size'",
    ),
    "spec-foreign-field": (
        lambda p: load_model({**_SEEDED, "payload": []}),
        "a seeded model takes no payload",
    ),
    "spec-payload-entry": (
        lambda p: load_model(
            {"kind": "tabular", "vocab_size": 1, "frames": 1, "payload": [[["1", 0]]]}
        ),
        "payload entries must be JSON numbers",
    ),
    "spec-blank-prior": (
        lambda p: load_model({**_SEEDED, "blank_prior": 2.0}),
        "blank_prior must lie strictly between 0 and 1",
    ),
    "model-unreadable": (lambda p: read_model_spec(p / "absent.json"), "cannot read model file"),
    "model-not-utf8": (lambda p: _read_model_bytes(p, b"\xff"), "is not UTF-8 text"),
    "model-not-json": (lambda p: _read_model_bytes(p, b"{"), "is not valid JSON"),
    "tabular-payload": (
        lambda p: TabularModel(2, [[[0.0, 0.0]]]),
        "payload rows have 2 symbols, expected 3",
    ),
    "tabular-frames": (
        lambda p: load_model(
            {"kind": "tabular", "vocab_size": 2, "frames": 2, "payload": [[[0.0, 0.0, 0.0]]]}
        ),
        "payload holds 1 frames but spec declares 2",
    ),
    "seeded-blank-prior": (
        lambda p: SeededModel(2, 2, 1, blank_prior=2.0),
        "blank_prior must lie strictly between 0 and 1",
    ),
    "corpus-json": (lambda p: _read_corpus_bytes(p, b"{"), ":1: invalid JSON"),
    "corpus-fields": (
        lambda p: _read_corpus_bytes(p, b'{"id": "a"}'),
        ":1: expected exactly the fields id, frames, reference",
    ),
    "corpus-frames": (
        lambda p: _read_corpus_bytes(p, b'{"id": "a", "frames": -1, "reference": []}'),
        ":1: frames must be a non-negative integer",
    ),
    "corpus-vocabulary": (
        lambda p: _read_corpus_bytes(p, b'{"id": "a", "frames": 2, "reference": [5]}'),
        ":1: utterance 'a': reference tokens [5] outside vocabulary of size 2",
    ),
    "corpus-empty": (lambda p: _read_corpus_bytes(p, b"\n"), "is empty"),
    "corpus-not-utf8": (lambda p: _read_corpus_bytes(p, b'{"id": "\xff"}'), ":1: not UTF-8 text"),
    "corpus-unreadable": (
        lambda p: load_corpus(p / "absent.jsonl", Vocabulary(2)),
        "cannot read corpus file",
    ),
}


@pytest.mark.parametrize("make, message", _INVALID_INPUTS.values(), ids=_INVALID_INPUTS)
def test_invalid_input_raises_plain_value_error(tmp_path: Path, make, message) -> None:
    with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
        make(tmp_path)
    assert excinfo.type is ValueError


def _generate(directory: Path, name: str, **params) -> tuple[dict, list[Utterance]]:
    """``generate_corpus`` writing ``name``'s model and corpus into ``directory``."""
    model_path, corpus_path = directory / f"{name}.json", directory / f"{name}.jsonl"
    return generate_corpus(model_path=model_path, corpus_path=corpus_path, **params)


def test_generate_corpus_is_deterministic(tmp_path: Path) -> None:
    spec_a, utts_a = _generate(tmp_path, "a", seed=TINY_SEED, **TINY_PARAMS)
    spec_b, utts_b = _generate(tmp_path, "b", seed=TINY_SEED, **TINY_PARAMS)
    assert spec_a == spec_b
    assert utts_a == utts_b


def test_generate_corpus_prefix_stability(tmp_path: Path) -> None:
    _, short = _generate(tmp_path, "short", seed=5, count=5, vocab_size=4, frames_range=(3, 6))
    _, long = _generate(tmp_path, "long", seed=5, count=10, vocab_size=4, frames_range=(3, 6))
    assert long[:5] == short


def test_generate_corpus_validation(tmp_path: Path) -> None:
    with pytest.raises(ValueError):
        _generate(tmp_path, "c", seed=1, count=0, vocab_size=4, frames_range=(3, 6))
    with pytest.raises(ValueError):
        _generate(tmp_path, "c", seed=1, count=1, vocab_size=4, frames_range=(6, 3))
    with pytest.raises(ValueError):
        _generate(tmp_path, "c", seed=1, count=1, vocab_size=4, frames_range=(0, 3))
    assert not any(tmp_path.iterdir())


def test_tiny_references_match_exact_oracle(tmp_path: Path) -> None:
    spec, utterances = _generate(tmp_path, "tiny", seed=TINY_SEED, **TINY_PARAMS)
    model = load_model(spec)
    for utt in utterances:
        encoder = model.encode(utt.frames, utt.uid)
        best = exact_nbest(model, encoder, 1, harness.REFERENCE_EXACT_TOKENS).top
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
    stripped = strip_timing(data)
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
    with pytest.raises(ValueError, match=re.escape(f"corpus {empty} is empty")):
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
    report = run_benchmark(model_path, corpus_path, beam_sizes=[1], segment_sizes=[1])
    write_text_file(out_path, report.to_json())
    written = json.loads(out_path.read_text(encoding="utf-8"))
    assert written == {"meta": report.meta, "cells": report.cells}


def test_run_benchmark_workers_match_serial(tmp_path: Path) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    for repeats in (1, 2):
        grid = dict(beam_sizes=[2], segment_sizes=[1, 2], repeats=repeats)
        serial = run_benchmark(model_path, corpus_path, **grid)
        parallel = run_benchmark(model_path, corpus_path, **grid, workers=2)
        serial_clean = strip_timing(json.loads(serial.to_json()))
        parallel_clean = strip_timing(json.loads(parallel.to_json()))
        assert serial_clean == parallel_clean


@pytest.mark.parametrize("repeats", [1, 2, 3, 4])
def test_run_benchmark_times_each_cell_by_its_median_pass(
    tmp_path: Path, monkeypatch, repeats: int
) -> None:
    model_path, corpus_path = _tiny_bench_paths(tmp_path)
    rng = np.random.default_rng(repeats)
    cells = ["N1/S1", "N1/S2"]
    # One (start, stop) pair per pass, cell by cell; durations are unsorted.
    stamps = [
        (start, start + duration)
        for start, duration in zip(
            rng.uniform(10.0, 1000.0, len(cells) * repeats),
            rng.uniform(0.001, 2.0, len(cells) * repeats),
        )
    ]
    clock = iter(float(t) for pair in stamps for t in pair)
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    report = run_benchmark(
        model_path, corpus_path, beam_sizes=[1], segment_sizes=[1, 2], repeats=repeats
    )
    assert next(clock, None) is None
    for index, key in enumerate(cells):
        passes = stamps[index * repeats : (index + 1) * repeats]
        durations = [float(stop) - float(start) for start, stop in passes]
        assert report.cells[key]["timing"]["wall_time_sec"] == statistics.median(durations)


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


def test_decode_corpus_in_a_plain_pool_decodes_with_the_given_model() -> None:
    model = load_model_file(DATA_DIR / "tiny_model.json")
    utterances = load_corpus(DATA_DIR / "tiny_corpus.jsonl", model.vocab)
    config = DecodeConfig(beam_size=2, segment_size=2, nbest=2)
    # No initializer: the workers know no model but the one each call hands them.
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        # The timeout bounds every result decode_corpus reads, so a lost worker fails the test.
        mapper = functools.partial(pool.map, chunksize=3, timeout=60)
        # A token cap of 1 is a model no spec describes.
        for candidate in (model, TokenCapModel(model, 1)):
            want, want_counters = harness.decode_corpus(candidate, utterances, config)
            got, got_counters = harness.decode_corpus(candidate, utterances, config, mapper)
            assert [r.entries for r in got] == [r.entries for r in want]
            assert vars(got_counters) == vars(want_counters)


def test_blank_certain_benchmark_has_exact_call_count(tmp_path: Path) -> None:
    frames = 12
    vocab_size = 2
    payload = np.full((frames, 1, vocab_size + 1), LOG_ZERO)
    payload[:, :, -1] = 0.0
    spec = {"kind": "tabular", "vocab_size": vocab_size, "frames": frames}
    model_path = tmp_path / "blank.json"
    model_path.write_text(json.dumps({**spec, "payload": payload.tolist()}), encoding="utf-8")
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
    assert report.meta["model"] == spec
    for beam in (1, 3):
        for segment in (1, 2, 3):
            cell = report.cells[BenchmarkReport.cell_key(beam, segment)]
            # Certain blanks: one joiner call per segment, everything deleted.
            assert cell["wer"] == 1.0
            assert cell["oracle_wer"] == 1.0
            assert cell["calls_per_frame"] == pytest.approx(1.0 / segment)
            assert cell["counters"]["forced_finalizations"] == 0


def test_verify_passes_on_bundled_tiny_corpus(monkeypatch) -> None:
    model = load_model_file(DATA_DIR / "tiny_model.json")
    utterances = load_corpus(DATA_DIR / "tiny_corpus.jsonl", model.vocab)
    encoded = []
    encode = SeededModel.encode

    def counting_encode(self, frames=None, uid=""):
        encoded.append(uid)
        return encode(self, frames, uid)

    monkeypatch.setattr(SeededModel, "encode", counting_encode)
    results = verify(model, utterances)
    # Every pass, the token-capped one included, reuses one encoder output per utterance.
    assert encoded == [utt.uid for utt in utterances]
    assert all(result.passed for result in results)
    names = [result.name for result in results]
    assert len(names) == len(set(names)) == 5
    for result in results:
        assert result.max_defect < 1e-9


def test_verify_rejects_oversized_instances(monkeypatch) -> None:
    model = SeededModel(vocab_size=2, frames=3, seed=3)
    with pytest.raises(ValueError):
        verify(model, [])
    # The oracle's trie at cap 4 over vocabulary 2 joins 31 prefixes x 3 symbols
    # per frame, so 45,100 frames fit the budget and 45,101 do not.
    assert 45100 * 93 <= ORACLE_CELL_BUDGET < 45101 * 93
    longest = [Utterance(uid="short", frames=3, reference=()), Utterance("long", 45101, ())]
    big = SeededModel(vocab_size=40, frames=3, seed=3)
    monkeypatch.setattr(harness, "decode_utterance_tokenwise", None)  # no decode may start
    with pytest.raises(ValueError, match="needs 4194393 joiner cells"):
        verify(model, longest)
    with pytest.raises(ValueError, match=r"\(2625641 prefixes x 1 frames x 41 symbols\)"):
        verify(big, [Utterance(uid="a", frames=1, reference=())])
    monkeypatch.undo()
    # A zero-frame utterance and a 100-frame one are within the budget: all five properties pass.
    utterances = [Utterance(uid="empty", frames=0, reference=()), Utterance("long", 100, ())]
    results = verify(model, utterances)
    assert [result.passed for result in results] == [True] * 5


def _swap_top_two(result: NBestList) -> NBestList:
    entries = result.entries
    return result if len(entries) < 2 else NBestList((entries[1], entries[0]) + entries[2:])


def _fault_in_standard_decoder(monkeypatch) -> None:
    real = harness.decode_utterance_standard

    def swapped(model, encoder, *args, **kwargs):
        result, counters = real(model, encoder, *args, **kwargs)
        return (_swap_top_two(result) if encoder.uid == "utt-0002" else result), counters

    monkeypatch.setattr(harness, "decode_utterance_standard", swapped)


def _fault_in_oracle_ranking(monkeypatch) -> None:
    real = harness.exact_nbest

    def swapped(model, encoder, *args, **kwargs):
        result = real(model, encoder, *args, **kwargs)
        return _swap_top_two(result) if encoder.uid == "utt-0002" else result

    monkeypatch.setattr(harness, "exact_nbest", swapped)


def _fault_at_segment_two(monkeypatch) -> None:
    real = harness.decode_utterance_tokenwise

    def dropped(model, encoder, config, *args, **kwargs):
        result, counters = real(model, encoder, config, *args, **kwargs)
        if (
            isinstance(model, TokenCapModel)
            and config.segment_size == 2
            and encoder.uid == "utt-0002"
        ):
            result = NBestList(result.entries[:-1])
        return result, counters

    monkeypatch.setattr(harness, "decode_utterance_tokenwise", dropped)


_S1_PASS = (True, "s1-equivalence", 0.0, "max |score gap| 0.000e+00 over 36 decode pairs")
_EXACT_PASS = (True, "oracle-exactness", 0.0, "max |marginal gap| 0.000e+00")
_INVARIANCE_PASS = (
    True,
    "segment-invariance",
    1.4210854715202004e-14,
    "max |score gap| 1.421e-14",
)
_BOUND_PASS = (
    True,
    "score-upper-bound",
    4.440892098500626e-16,
    "max score excess over true marginal 4.441e-16",
)


def _mass_pass(checks: int) -> tuple:
    return (
        True,
        "mass-conservation",
        5.503490066159161e-16,
        f"max defect 5.503e-16 over {checks} checks",
    )


# Each fault breaks one comparison property at utt-0002, the third tiny
# utterance. The failing property reports the largest gap over the pairs
# before it; the others are untouched.
@pytest.mark.parametrize(
    "inject, expected",
    [
        (
            _fault_in_standard_decoder,
            [
                (False, "s1-equivalence", 0.0, "'utt-0002' at beam 2: sequence lists differ"),
                _EXACT_PASS,
                _INVARIANCE_PASS,
                _BOUND_PASS,
                _mass_pass(52289),
            ],
        ),
        (
            _fault_in_oracle_ranking,
            [
                _S1_PASS,
                (
                    False,
                    "oracle-exactness",
                    0.0,
                    "'utt-0002': ranking differs from the exact oracle",
                ),
                _INVARIANCE_PASS,
                _BOUND_PASS,
                _mass_pass(52289),
            ],
        ),
        (
            _fault_at_segment_two,
            [
                _S1_PASS,
                _EXACT_PASS,
                (
                    False,
                    "segment-invariance",
                    1.0658141036401503e-14,
                    "'utt-0002': segment size 2 changes the sequence set",
                ),
                _BOUND_PASS,
                _mass_pass(52289),
            ],
        ),
    ],
    ids=["standard-nbest-swapped", "oracle-ranking-swapped", "entry-dropped-at-s2"],
)
def test_verify_reports_each_injected_fault(monkeypatch, inject, expected) -> None:
    inject(monkeypatch)
    model = load_model_file(DATA_DIR / "tiny_model.json")
    results = verify(model, load_corpus(DATA_DIR / "tiny_corpus.jsonl", model.vocab))
    got = [(r.passed, r.name, r.max_defect, r.detail) for r in results]
    assert got == expected


def test_verify_decodes_each_configuration_once(monkeypatch) -> None:
    real = harness.decode_utterance_tokenwise
    calls = collections.Counter()

    def counted(model, encoder, config, *args, **kwargs):
        key = (encoder.uid, type(model).__name__, config.beam_size, config.segment_size)
        calls[key] += 1
        return real(model, encoder, config, *args, **kwargs)

    monkeypatch.setattr(harness, "decode_utterance_tokenwise", counted)
    model = load_model_file(DATA_DIR / "tiny_model.json")
    utterances = load_corpus(DATA_DIR / "tiny_corpus.jsonl", model.vocab)
    assert all(result.passed for result in verify(model, utterances))
    assert {uid for uid, *_ in calls} == {utt.uid for utt in utterances}
    assert set(calls.values()) == {1}
