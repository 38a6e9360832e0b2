"""End-to-end tests for the command line interface."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tokenwise
from tokenwise import cli, harness
from tokenwise.cli import main
from tokenwise.decoder import DecodeConfig, NBestList, decode_utterance_tokenwise
from tokenwise.harness import load_corpus
from tokenwise.model import _string_key, load_model_file

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _generate(tmp_path: Path) -> tuple[str, str]:
    model = str(tmp_path / "model.json")
    corpus = str(tmp_path / "corpus.jsonl")
    code = main(
        [
            "generate",
            "--seed", "77",
            "--count", "5",
            "--vocab-size", "4",
            "--frames-min", "8",
            "--frames-max", "12",
            "--model", model,
            "--corpus", corpus,
        ]
    )
    assert code == 0
    return model, corpus


def test_generate_writes_both_files(tmp_path: Path, capsys) -> None:
    model, corpus = _generate(tmp_path)
    assert Path(model).exists()
    assert Path(corpus).exists()
    out = capsys.readouterr().out
    assert "5 utterances" in out


def test_decode_writes_jsonl(tmp_path: Path, capsys) -> None:
    model_path, corpus_path = _generate(tmp_path)
    capsys.readouterr()
    out_path = tmp_path / "hyps.jsonl"
    code = main(
        [
            "decode",
            "--model", model_path,
            "--corpus", corpus_path,
            "--beam-size", "2",
            "--segment-size", "3",
            "--nbest", "2",
            "--out", str(out_path),
        ]
    )
    assert code == 0
    # Line by line: the utterance's id and exactly the decoder's entries.
    model = load_model_file(model_path)
    utterances = load_corpus(corpus_path, model.vocab)
    config = DecodeConfig(beam_size=2, segment_size=3, nbest=2)
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(utterances) == 5
    for line, utt in zip(lines, utterances):
        record = json.loads(line)
        assert list(record) == ["id", "hypotheses"]
        assert record["id"] == utt.uid
        result, _ = decode_utterance_tokenwise(model, model.encode(utt.frames, utt.uid), config)
        written = [(tuple(hyp["tokens"]), hyp["score"]) for hyp in record["hypotheses"]]
        assert written == list(result.entries)
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"decoded 5 utterances: calls/frame \d+\.\d{3}, joins/frame \d+\.\d{3},"
        r" frames/sec \d+, wer \d\.\d{4}\n",
        err,
    )


def test_decode_without_out_prints_jsonl(tmp_path: Path, capsys) -> None:
    model, corpus = _generate(tmp_path)
    capsys.readouterr()
    code = main(["decode", "--model", model, "--corpus", corpus])
    assert code == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert len(out_lines) == 5
    assert all(json.loads(line)["id"].startswith("utt-") for line in out_lines)


def test_bench_prints_table_and_writes_report(tmp_path: Path, capsys) -> None:
    model, corpus = _generate(tmp_path)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "bench",
            "--model", model,
            "--corpus", corpus,
            "--beam-size", "1",
            "--beam-size", "2",
            "--segment-size", "1",
            "--segment-size", "2",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for key in ("N1/S1", "N1/S2", "N2/S1", "N2/S2"):
        assert key in out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert set(report) == {"meta", "cells"}
    assert set(report["cells"]) == {"N1/S1", "N1/S2", "N2/S1", "N2/S2"}


def test_bench_rejects_workers_below_one(tmp_path: Path, capsys) -> None:
    model, corpus = _generate(tmp_path)
    capsys.readouterr()
    for workers in ("0", "-3"):
        code = main(["bench", "--model", model, "--corpus", corpus, "--workers", workers])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: workers must be positive\n"


def test_bench_rejects_a_bad_size_before_decoding_any_cell(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    model, corpus = _generate(tmp_path)
    capsys.readouterr()
    decoded = []
    real_decode_corpus = harness.decode_corpus

    def logged_decode_corpus(*args):
        decoded.append(args)
        return real_decode_corpus(*args)

    monkeypatch.setattr(harness, "decode_corpus", logged_decode_corpus)
    cases = {
        ("--beam-size", "1", "--segment-size", "1", "--segment-size", "0"): "segment size",
        ("--beam-size", "1", "--beam-size", "0", "--segment-size", "1"): "beam size",
    }
    for sizes, size in cases.items():
        code = main(["bench", "--model", model, "--corpus", corpus, *sizes])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {size} must be positive\n"
    assert decoded == []


def test_verify_passes_on_bundled_data(capsys) -> None:
    code = main(
        [
            "verify",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_exits_one_naming_the_property_a_fault_breaks(monkeypatch, capsys) -> None:
    real = harness.exact_nbest

    def swapped(model, encoder, *args):
        result = real(model, encoder, *args)
        if encoder.uid != "utt-0002":
            return result
        first, second, *rest = result.entries
        return NBestList((second, first, *rest))

    monkeypatch.setattr(harness, "exact_nbest", swapped)
    code = main(
        [
            "verify",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
        ]
    )
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "s1-equivalence:"],
        ["FAIL", "oracle-exactness:"],
        ["PASS", "segment-invariance:"],
        ["PASS", "score-upper-bound:"],
        ["PASS", "mass-conservation:"],
    ]
    assert lines[1] == "FAIL oracle-exactness: 'utt-0002': ranking differs from the exact oracle"


def test_verify_accepts_a_zero_frame_utterance(tmp_path: Path, capsys) -> None:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        (DATA_DIR / "tiny_corpus.jsonl").read_text(encoding="utf-8")
        + '{"id": "empty", "frames": 0, "reference": []}\n',
        encoding="utf-8",
    )
    code = main(
        ["verify", "--model", str(DATA_DIR / "tiny_model.json"), "--corpus", str(corpus)]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.count("PASS") == 5
    assert captured.err == ""


def test_model_file_with_mistyped_fields_exits_two(tmp_path: Path, capsys) -> None:
    seeded = {"kind": "seeded", "vocab_size": 3, "frames": 6, "seed": 1, "blank_prior": 0.6}
    tabular = {"kind": "tabular", "vocab_size": 1, "frames": 1, "payload": [[[0.0, 0.0]]]}
    unseeded = {name: value for name, value in seeded.items() if name != "seed"}
    cases = [
        ({**seeded, "vocab_size": None}, "vocab_size must be an integer"),
        ({**seeded, "vocab_size": 4.9}, "vocab_size must be an integer"),
        ({**seeded, "vocab_size": "3"}, "vocab_size must be an integer"),
        ({**seeded, "frames": [12]}, "frames must be an integer"),
        ({**seeded, "frames": "12"}, "frames must be an integer"),
        ({**seeded, "frames": True}, "frames must be an integer"),
        ({**seeded, "seed": True}, "seed must be an integer"),
        ({**seeded, "seed": 1.0}, "seed must be an integer"),
        ({**seeded, "seed": None}, "seed must be an integer"),
        ({**seeded, "blank_prior": "0.6"}, "blank_prior must be a number"),
        ({**seeded, "blank_prior": None}, "blank_prior must be a number"),
        ({**seeded, "blank_prior": False}, "blank_prior must be a number"),
        ({**seeded, "payload": tabular["payload"]}, "a seeded model takes no payload"),
        ({**tabular, "seed": 1}, "a tabular model takes no seed"),
        ({**tabular, "blank_prior": 0.6}, "a tabular model takes no blank_prior"),
        # numpy would read each of these entries as a logit.
        ({**tabular, "payload": [[["1", 0.0]]]}, "payload entries must be JSON numbers"),
        ({**tabular, "payload": [[["-inf", 0.0]]]}, "payload entries must be JSON numbers"),
        ({**tabular, "payload": [[[True, 0.0]]]}, "payload entries must be JSON numbers"),
        ([1, 2, 3], "model spec must be a JSON object"),
        ({**seeded, "zap": 3}, "unknown model spec fields: ['zap']"),
        ({"kind": "seeded", "vocab_size": 2}, "model spec is missing field 'frames'"),
        (unseeded, "seeded model needs a seed"),
        ({**tabular, "payload": None}, "tabular model needs a payload"),
        ({**seeded, "kind": "mystery"}, "unknown model kind: 'mystery'"),
        ({**seeded, "vocab_size": 0}, "vocab_size must be positive"),
        ({**seeded, "frames": -1}, "frames cannot be negative"),
        ({**seeded, "blank_prior": 2.0}, "blank_prior must lie strictly between 0 and 1"),
        ({**tabular, "frames": 2}, "payload holds 1 frames but spec declares 2"),
        # Several faults at once: the first of load_model's checks to fail is named.
        ({**tabular, "seed": 1, "zap": 3}, "unknown model spec fields: ['zap']"),
        ({**tabular, "vocab_size": "3", "seed": 1}, "vocab_size must be an integer"),
        ({"kind": "tabular", "seed": 1}, "a tabular model takes no seed"),
        ({"kind": "mystery", "frames": -1}, "model spec is missing field 'vocab_size'"),
        ({"kind": "mystery", "vocab_size": 0, "frames": -1}, "unknown model kind: 'mystery'"),
        ({**seeded, "vocab_size": 0, "frames": -1}, "vocab_size must be positive"),
        ({**unseeded, "blank_prior": 2.0}, "seeded model needs a seed"),
        ({**tabular, "frames": 2, "payload": [[["1"]]]}, "payload entries must be JSON numbers"),
    ]
    path = tmp_path / "model.json"
    for spec, message in cases:
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(
            ["decode", "--model", str(path), "--corpus", str(DATA_DIR / "tiny_corpus.jsonl")]
        )
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), spec
    # The unmodified specs still load.
    for spec in (seeded, tabular):
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert load_model_file(path).vocab.size == spec["vocab_size"]


def test_generate_and_decode_create_missing_output_directories(
    tmp_path: Path, capsys
) -> None:
    model = tmp_path / "models" / "m.json"
    corpus = tmp_path / "corpora" / "c.jsonl"
    code = main(
        [
            "generate",
            "--seed", "77",
            "--count", "2",
            "--vocab-size", "4",
            "--frames-min", "8",
            "--frames-max", "12",
            "--model", str(model),
            "--corpus", str(corpus),
        ]
    )
    assert code == 0
    assert model.exists() and corpus.exists()
    out_path = tmp_path / "hyps" / "deeper" / "h.jsonl"
    code = main(["decode", "--model", str(model), "--corpus", str(corpus), "--out", str(out_path)])
    assert code == 0
    assert len(out_path.read_text(encoding="utf-8").splitlines()) == 2
    assert "error" not in capsys.readouterr().err


def _forbid(monkeypatch, module, name: str) -> None:
    """Replace ``module.name`` with a stub that fails the test if it is called."""

    def reached(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(module, name, reached)


def test_decode_rejects_a_bad_out_path_before_decoding(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    _forbid(monkeypatch, cli, "decode_corpus")
    code = main(
        [
            "decode",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
            "--out", str(afile / "h.jsonl"),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_bench_rejects_a_directory_out_path_before_the_sweep(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    _forbid(monkeypatch, harness, "decode_corpus")
    code = main(
        [
            "bench",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
            "--beam-size", "1",
            "--segment-size", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output path {tmp_path} is a directory\n"


def test_generate_rejects_a_bad_corpus_path_before_writing_the_model(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    model = tmp_path / "g" / "m.json"
    _forbid(monkeypatch, harness, "decode_utterance_tokenwise")
    code = main(
        [
            "generate",
            "--seed", "77",
            "--count", "2",
            "--vocab-size", "4",
            "--frames-min", "8",
            "--frames-max", "12",
            "--model", str(model),
            "--corpus", str(afile / "c.jsonl"),
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not model.parent.exists()


def test_missing_model_exits_two(tmp_path: Path, capsys) -> None:
    code = main(
        [
            "decode",
            "--model", str(tmp_path / "absent.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_decode_zero_frame_corpus_exits_zero(tmp_path: Path, capsys) -> None:
    corpus = tmp_path / "silent.jsonl"
    corpus.write_text(
        '{"id": "a", "frames": 0, "reference": []}\n'
        '{"id": "b", "frames": 0, "reference": [1]}\n',
        encoding="utf-8",
    )
    out_path = tmp_path / "hyps.jsonl"
    code = main(
        [
            "decode",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(corpus),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out_path.read_text(encoding="utf-8").splitlines()]
    assert [r["id"] for r in records] == ["a", "b"]
    assert all(r["hypotheses"] == [{"tokens": [], "score": 0.0}] for r in records)
    err = capsys.readouterr().err
    assert "decoded 2 utterances: 0 frames" in err
    assert "error" not in err


def test_decode_empty_corpus_exits_two_before_output(tmp_path: Path, capsys) -> None:
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("", encoding="utf-8")
    out_path = tmp_path / "out.json"
    for command in ("decode", "bench", "verify"):
        argv = [command, "--model", str(DATA_DIR / "tiny_model.json"), "--corpus", str(corpus)]
        code = main(argv + (["--out", str(out_path)] if command != "verify" else []))
        assert code == 2, command
        assert f"error: corpus {corpus} is empty" in capsys.readouterr().err, command
        assert not out_path.exists(), command


def _bench_report(tmp_path: Path, corpus_lines: str) -> dict:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(corpus_lines, encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main(
        [
            "bench",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(corpus),
            "--beam-size", "2",
            "--segment-size", "1",
            "--segment-size", "3",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    return json.loads(report_path.read_text(encoding="utf-8"))


def test_bench_zero_frame_corpus_reports_null_rates(tmp_path: Path, capsys) -> None:
    report = _bench_report(
        tmp_path,
        '{"id": "a", "frames": 0, "reference": []}\n'
        '{"id": "b", "frames": 0, "reference": [1]}\n',
    )
    for cell in report["cells"].values():
        assert cell["counters"]["frames_decoded"] == 0
        assert cell["calls_per_frame"] is None
        assert cell["joins_per_frame"] is None
        assert cell["timing"]["frames_per_second"] is None
        assert cell["timing"]["frames_per_second_delta"] is None
        assert cell["deltas"]["calls_per_frame"] is None
        assert cell["deltas"]["joins_per_frame"] is None
        assert cell["wer"] == 1.0
    captured = capsys.readouterr()
    assert "error" not in captured.err
    row = next(line for line in captured.out.splitlines() if "N2/S3" in line)
    assert row.split()[1:] == ["1.0000", "1.0000", "-", "-", "-"]


def test_bench_corpus_without_reference_tokens_reports_null_error_rates(
    tmp_path: Path, capsys
) -> None:
    report = _bench_report(
        tmp_path,
        '{"id": "a", "frames": 3, "reference": []}\n'
        '{"id": "b", "frames": 4, "reference": []}\n',
    )
    for cell in report["cells"].values():
        assert cell["wer"] is None
        assert cell["oracle_wer"] is None
        assert cell["deltas"]["wer"] is None
        assert cell["deltas"]["oracle_wer"] is None
        assert cell["counters"]["frames_decoded"] == 7
        assert cell["calls_per_frame"] > 0
    assert "error" not in capsys.readouterr().err


def test_bad_generate_range_exits_two(tmp_path: Path, capsys) -> None:
    code = main(
        [
            "generate",
            "--seed", "1",
            "--count", "1",
            "--frames-min", "9",
            "--frames-max", "3",
            "--model", str(tmp_path / "m.json"),
            "--corpus", str(tmp_path / "c.jsonl"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error() -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def _child_env() -> dict:
    # The child imports the package the tests import, installed or not.
    package_root = str(Path(tokenwise.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point_shows_help() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "tokenwise", "--help"],
        capture_output=True,
        text=True,
        check=False,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout


def test_import_does_not_load_the_process_pool() -> None:
    # Only ``bench --workers`` above one builds a pool; every other command
    # should not pay for importing multiprocessing.
    code = "import sys, tokenwise; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    assert proc.stdout == "False\n"


def test_decoding_loads_neither_openssl_nor_statistics() -> None:
    # OpenSSL's libcrypto (via hashlib) and statistics (with fractions and
    # decimal) cost memory and import time a decode never uses, and a bench
    # takes its median without statistics. numpy is imported first, so only
    # what tokenwise itself loads is counted.
    code = f"""
import sys
import numpy
before = set(sys.modules)
from tokenwise import DecodeConfig, decode_utterance_tokenwise, load_corpus, load_model_file
model = load_model_file({str(DATA_DIR / "bench_model.json")!r})
utterance = load_corpus({str(DATA_DIR / "bench_corpus.jsonl")!r}, model.vocab)[0]
config = DecodeConfig(beam_size=4, segment_size=10, nbest=4)
decode_utterance_tokenwise(model, model.encode(utterance.frames, utterance.uid), config)
print(sorted({{"_hashlib", "statistics"}} & (set(sys.modules) - before)))
from tokenwise import run_benchmark
run_benchmark(
    {str(DATA_DIR / "tiny_model.json")!r},
    {str(DATA_DIR / "tiny_corpus.jsonl")!r},
    beam_sizes=[1],
    segment_sizes=[1],
    repeats=2,
)
print(sorted({{"_hashlib", "statistics"}} & (set(sys.modules) - before)))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=_child_env(),
    )
    assert proc.stdout == "[]\n[]\n"
    # The builtin BLAKE2b gives the key hashlib's does.
    for uid in ("", "utt-0000", "äußerung-日本"):
        digest = hashlib.blake2b(uid.encode("utf-8"), digest_size=8).digest()
        assert _string_key(uid) == int.from_bytes(digest, "big")


# A size that fails its allocation at once: 10**12 tokens or frames asks
# numpy for 7.28 TiB, which no host grants, so nothing is touched.
HUGE = 10**12


TOO_LARGE = r"input is too large to fit in memory: [^\n]+"


def _snapshot(workspace: Path) -> dict[Path, Optional[bytes]]:
    return {path: path.read_bytes() if path.is_file() else None for path in workspace.rglob("*")}


def _exits_two_leaving_nothing(argv: list[str], workspace: Path, capsys, message: str) -> None:
    """``argv`` exits 2 with one ``error:`` line matching ``message`` and changes no file."""
    before = _snapshot(workspace)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert re.fullmatch(f"error: {message}\n", captured.err), captured.err
    assert _snapshot(workspace) == before


# numpy refuses a uint64 table of 2**62 entries with its own text, returns an
# empty one for 2**63 and cannot size one of 10**20.
TOO_LARGE_SIZES = (HUGE, 2**62, 2**63, 10**20)


def test_a_vocabulary_too_large_for_memory_exits_two(tmp_path: Path, capsys) -> None:
    model = tmp_path / "model.json"
    corpus = str(DATA_DIR / "tiny_corpus.jsonl")
    inputs = ["--model", str(model), "--corpus", corpus]
    for size in TOO_LARGE_SIZES:
        model.write_text(
            json.dumps({"kind": "seeded", "vocab_size": size, "frames": 6, "seed": 1}),
            encoding="utf-8",
        )
        for argv in (
            ["decode", *inputs, "--out", str(tmp_path / "h.jsonl")],
            ["bench", *inputs, "--out", str(tmp_path / "r.json")],
            ["verify", *inputs],
        ):
            _exits_two_leaving_nothing(argv, tmp_path, capsys, TOO_LARGE)


def test_generate_over_the_round_cell_budget_exits_two_before_building_a_model(
    tmp_path: Path, capsys
) -> None:
    # The reference decode joins 8 hypotheses over segments of up to 4
    # frames, so 2**17 tokens make 4,194,336 cells a round, 32 over the
    # budget. The check comes before the model's per-token tables are built:
    # a vocabulary too large for memory gets the same message.
    outputs = ["--model", str(tmp_path / "g" / "m.json")]
    outputs += ["--corpus", str(tmp_path / "g" / "c.jsonl")]
    for vocab in (2**17, *TOO_LARGE_SIZES):
        argv = ["generate", "--seed", "1", "--count", "1", "--vocab-size", str(vocab)]
        argv += ["--frames-min", "4", "--frames-max", "4", *outputs]
        message = re.escape(
            f"beam size 8 needs {8 * 4 * (vocab + 1)} joiner cells per round (4-frame segments"
            f" x {vocab + 1} symbols); the limit is {harness.ROUND_CELL_BUDGET}"
        )
        started = time.perf_counter()
        _exits_two_leaving_nothing(argv, tmp_path, capsys, message)
        assert time.perf_counter() - started < 1.0


def test_an_utterance_too_long_for_memory_exits_two(tmp_path: Path, capsys) -> None:
    corpus = tmp_path / "corpus.jsonl"
    inputs = ["--model", str(DATA_DIR / "tiny_model.json"), "--corpus", str(corpus)]
    report = str(tmp_path / "r.json")
    for size in TOO_LARGE_SIZES:
        corpus.write_text(
            '{"id": "short", "frames": 3, "reference": [0]}\n'
            f'{{"id": "long", "frames": {size}, "reference": [0]}}\n',
            encoding="utf-8",
        )
        for argv in (
            ["decode", *inputs, "--out", str(tmp_path / "h.jsonl")],
            ["bench", *inputs, "--out", report],
            ["bench", *inputs, "--workers", "2", "--out", report],
            [
                "generate",
                "--seed", "1",
                "--count", "1",
                "--frames-min", str(size),
                "--frames-max", str(size),
                "--model", str(tmp_path / "g" / "m.json"),
                "--corpus", str(tmp_path / "g" / "c.jsonl"),
            ],
        ):
            _exits_two_leaving_nothing(argv, tmp_path, capsys, TOO_LARGE)


def _forbid_decoding(monkeypatch) -> None:
    def decode(*args, **kwargs):
        raise AssertionError("decoded before rejecting the input")

    monkeypatch.setattr(harness, "decode_utterance_tokenwise", decode)
    monkeypatch.setattr(harness, "decode_utterance_standard", decode)


def test_a_corpus_line_longer_than_a_tabular_model_exits_two_before_any_decode(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    model, corpus = tmp_path / "model.json", tmp_path / "corpus.jsonl"
    row = [[0.0, -1.0]]
    spec = {"kind": "tabular", "vocab_size": 1, "frames": 2, "payload": [row, row]}
    model.write_text(json.dumps(spec), encoding="utf-8")
    corpus.write_text(
        '{"id": "fits", "frames": 2, "reference": [0]}\n'
        '{"id": "long", "frames": 5, "reference": [0]}\n',
        encoding="utf-8",
    )
    _forbid_decoding(monkeypatch)
    inputs = ["--model", str(model), "--corpus", str(corpus)]
    message = re.escape(f"{corpus}:2: utterance 'long' has 5 frames; the model holds at most 2")
    for argv in (
        ["decode", *inputs, "--out", str(tmp_path / "h.jsonl")],
        ["bench", *inputs, "--out", str(tmp_path / "r.json")],
        ["verify", *inputs],
    ):
        _exits_two_leaving_nothing(argv, tmp_path, capsys, message)
    # A seeded model encodes any length.
    assert load_model_file(DATA_DIR / "tiny_model.json").max_frames is None


def test_a_beam_over_the_round_cell_budget_exits_two_before_any_decode(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    model, corpus = tmp_path / "model.json", tmp_path / "corpus.jsonl"
    spec = {"kind": "seeded", "vocab_size": 3, "frames": 3, "seed": 1}
    model.write_text(json.dumps(spec), encoding="utf-8")
    corpus.write_text('{"id": "a", "frames": 3, "reference": [0]}\n', encoding="utf-8")
    _forbid_decoding(monkeypatch)
    inputs = ["--model", str(model), "--corpus", str(corpus)]
    beam = 10**23
    budget = harness.ROUND_CELL_BUDGET
    for argv, width in (
        (["decode", *inputs, "--beam-size", str(beam), "--out", str(tmp_path / "h.jsonl")], 1),
        (["decode", *inputs, "--beam-size", str(beam), "--segment-size", str(HUGE)], 3),
        (["bench", *inputs, "--beam-size", "1", "--beam-size", str(beam)], 1),
    ):
        message = re.escape(
            f"beam size {beam} needs {beam * width * 4} joiner cells per round"
            f" ({width}-frame segments x 4 symbols); the limit is {budget}"
        )
        _exits_two_leaving_nothing(argv, tmp_path, capsys, message)
    # The budget bounds beam x effective width x symbols, the width capped at
    # the longest utterance; the check itself decodes nothing.
    loaded = load_model_file(model)
    utterances = load_corpus(corpus, loaded.vocab)
    largest = budget // (3 * 4)
    harness.check_round_budget(loaded, utterances, DecodeConfig(largest, segment_size=HUGE))
    with pytest.raises(ValueError, match="joiner cells per round"):
        harness.check_round_budget(loaded, utterances, DecodeConfig(largest + 1, segment_size=3))


def test_an_output_naming_an_input_or_the_other_output_exits_two(tmp_path: Path, capsys) -> None:
    (tmp_path / "t").mkdir()
    model, corpus = tmp_path / "t" / "model.json", tmp_path / "t" / "corpus.jsonl"
    model.write_bytes((DATA_DIR / "tiny_model.json").read_bytes())
    corpus.write_bytes((DATA_DIR / "tiny_corpus.jsonl").read_bytes())
    inputs = ["--model", str(model), "--corpus", str(corpus)]
    dotted = str(tmp_path / "t" / ".." / "t" / "corpus.jsonl")
    generate = ["generate", "--seed", "1", "--count", "1", "--vocab-size", "2"]
    generate += ["--frames-min", "2", "--frames-max", "3"]
    for argv, out, same in (
        ([*generate, "--model", str(model), "--corpus", str(model)], model, model),
        (["decode", *inputs, "--out", str(corpus)], corpus, corpus),
        (["decode", *inputs, "--out", str(model)], model, model),
        (["bench", *inputs, "--out", str(model)], model, model),
        (["bench", *inputs, "--out", dotted], dotted, corpus),
    ):
        message = re.escape(f"output path {out} names the same file as {same}")
        _exits_two_leaving_nothing(argv, tmp_path, capsys, message)


def test_an_input_that_is_not_utf8_exits_two_naming_its_file(tmp_path: Path, capsys) -> None:
    model, corpus = tmp_path / "model.json", tmp_path / "corpus.jsonl"
    model.write_bytes(b'{"kind": "\xff"}')
    corpus.write_bytes(b'{"id": "a", "frames": 2, "reference": []}\n{"id": "\xff"}\n')
    tiny_model, tiny_corpus = str(DATA_DIR / "tiny_model.json"), str(DATA_DIR / "tiny_corpus.jsonl")
    for model_arg, corpus_arg, message in (
        (str(model), tiny_corpus, f"model file {model} is not UTF-8 text: invalid start byte"),
        (tiny_model, str(corpus), f"{corpus}:2: not UTF-8 text: invalid start byte"),
    ):
        inputs = ["--model", model_arg, "--corpus", corpus_arg]
        for argv in (
            ["decode", *inputs, "--out", str(tmp_path / "h.jsonl")],
            ["bench", *inputs, "--out", str(tmp_path / "r.json")],
            ["verify", *inputs],
        ):
            _exits_two_leaving_nothing(argv, tmp_path, capsys, re.escape(message))


def test_json_beyond_float_range_or_nesting_depth_exits_two(tmp_path: Path, capsys) -> None:
    huge, deep = "1" + "0" * 400, "[" * 100_000 + "]" * 100_000
    seeded = '{"kind": "seeded", "vocab_size": 1, "frames": 3, "seed": 1, "blank_prior": %s}'
    tabular = '{"kind": "tabular", "vocab_size": 1, "frames": 1, "payload": %s}'
    files = {
        "prior.json": seeded % huge,
        "payload.json": tabular % f"[[[{huge}, 0]]]",
        "nested.json": tabular % deep,
        "corpus.jsonl": '{"id": "a", "frames": 1, "reference": %s}\n' % deep,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    nested, corpus = tmp_path / "nested.json", tmp_path / "corpus.jsonl"
    tiny_model, tiny_corpus = DATA_DIR / "tiny_model.json", DATA_DIR / "tiny_corpus.jsonl"
    too_deep = "maximum recursion depth exceeded.*"
    for model_arg, corpus_arg, message in (
        (
            tmp_path / "prior.json",
            tiny_corpus,
            re.escape("blank_prior must lie strictly between 0 and 1"),
        ),
        (
            tmp_path / "payload.json",
            tiny_corpus,
            re.escape(
                "payload is not a rectangular numeric table: int too large to convert to float"
            ),
        ),
        (nested, tiny_corpus, re.escape(f"model file {nested} is not valid JSON: ") + too_deep),
        (tiny_model, corpus, re.escape(f"{corpus}:1: invalid JSON: ") + too_deep),
    ):
        inputs = ["--model", str(model_arg), "--corpus", str(corpus_arg)]
        for argv in (
            ["decode", *inputs, "--out", str(tmp_path / "h.jsonl")],
            ["bench", *inputs, "--out", str(tmp_path / "r.json")],
            ["verify", *inputs],
        ):
            _exits_two_leaving_nothing(argv, tmp_path, capsys, message)


def test_an_out_of_vocabulary_reference_exits_two_naming_its_line(
    tmp_path: Path, capsys
) -> None:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id": "a", "frames": 2, "reference": [0]}\n{"id": "b", "frames": 2, "reference": [7]}\n',
        encoding="utf-8",
    )
    inputs = ["--model", str(DATA_DIR / "tiny_model.json"), "--corpus", str(corpus)]
    message = f"{corpus}:2: utterance 'b': reference tokens [7] outside vocabulary of size 3"
    for argv in (
        ["decode", *inputs, "--out", str(tmp_path / "h.jsonl")],
        ["bench", *inputs, "--out", str(tmp_path / "r.json")],
        ["verify", *inputs],
    ):
        _exits_two_leaving_nothing(argv, tmp_path, capsys, re.escape(message))


# The input contract on generated inputs. Each case breaks at most one input
# ("site"), so valid cases are common and every fault is seen on its own.
# Besides the drawn cases, every (command, site) pair gets cases that break
# that site, and the test fails unless each pair was rejected at least once.
# Sizes are drawn from small valid values plus 0, -1 and HUGE, never in
# between, where an allocation could succeed and take gigabytes. Sizes that
# cost time instead of memory (counts, beams, repeats) are never drawn HUGE:
# such a beam would make the search unbounded. The explicit examples cover
# two limits checked before any decode, a corpus line longer than a tabular
# model's table and a beam over the round cell budget; the latter decodes a
# vocabulary-1 model, where each hypothesis has one expansion, so its group
# grows no faster than its rounds and a decode stays short should the budget
# ever let such a beam through. Paths are
# relative to a fresh workspace, written as "{ws}/...", that holds a regular
# file "afile" and an empty directory "adir".
_WS = "{ws}"
_BAD_TYPES = [None, True, False, "2", 2.5, [1], ""]
_SITES = {
    "generate": ["count", "vocab", "frames", "prior", "model-out", "corpus-out"],
    "decode": ["nbest", "beam", "segment", "out"],
    "bench": ["beam", "segment", "repeats", "workers", "out"],
    "verify": [],
}
_FILE_SITES = ["model", "vocab", "corpus", "frames", "paths"]
_PAIRS = [
    (command, site)
    for command, sites in sorted(_SITES.items())
    for site in sites + (_FILE_SITES if command != "generate" else [])
]


@st.composite
def _model_texts(draw, broken: Optional[str]) -> tuple[str, int]:
    """A model file's text and the vocabulary size it was built with."""
    vocab = draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        row = [0.0, -1.0, 0.5, 2.0][: vocab + 1]
        spec = {"kind": "tabular", "vocab_size": vocab, "frames": 4, "payload": [[row, row]] * 4}
    else:
        spec = {
            "kind": "seeded",
            "vocab_size": vocab,
            "frames": draw(st.sampled_from([1, 2, 4])),
            "seed": draw(st.integers(-3, 3)),
            "blank_prior": draw(st.sampled_from([0.3, 0.85])),
        }
    if broken == "vocab":
        spec["vocab_size"] = draw(st.sampled_from([HUGE, 0, -1]))
    if broken != "model":
        return json.dumps(spec), vocab
    field = draw(st.sampled_from(sorted(spec)))
    mutation = draw(
        st.sampled_from(["type", "size", "missing", "unknown", "not-object", "not-json"])
    )
    if mutation == "type":
        spec[field] = draw(st.sampled_from(_BAD_TYPES))
    elif mutation == "size":
        spec["frames"] = draw(st.sampled_from([HUGE, 0, -1]))
    elif mutation == "missing":
        del spec[field]
    elif mutation == "unknown":
        spec["extra"] = 1
    text = json.dumps([spec] if mutation == "not-object" else spec)
    return (text[:-1] if mutation == "not-json" else text), vocab


@st.composite
def _corpus_texts(draw, vocab: int, broken: Optional[str]) -> str:
    """Valid corpora have 1 to 3 utterances of at most 4 frames, zero included."""
    records = [
        {
            "id": f"u{index}",
            "frames": draw(st.sampled_from([0, 1, 2, 4])),
            "reference": draw(st.lists(st.integers(0, vocab - 1), max_size=3)),
        }
        for index in range(draw(st.integers(1, 3)))
    ]
    lines = [json.dumps(record) for record in records]
    mutation = {"frames": "size", "corpus": None}.get(broken, "none")
    if mutation is None:
        mutation = draw(
            st.sampled_from(
                ["empty", "type", "missing", "unknown", "out-of-vocabulary"]
                + ["duplicate-id", "surrogate-id", "not-object", "not-json"]
            )
        )
    if mutation == "empty":
        return ""
    if mutation != "none":
        index = draw(st.integers(0, len(records) - 1))
        record = records[index]
        field = draw(st.sampled_from(["id", "frames", "reference"]))
        if mutation == "type":
            record[field] = draw(st.sampled_from(_BAD_TYPES))
        elif mutation == "size":
            record["frames"] = draw(st.sampled_from([HUGE, -1]))
        elif mutation == "missing":
            del record[field]
        elif mutation == "unknown":
            record["extra"] = 0
        elif mutation == "out-of-vocabulary":
            record["reference"] = [draw(st.sampled_from([vocab, -1, HUGE]))]
        elif mutation == "surrogate-id":
            record["id"] = "a\ud800"
        lines[index] = {"not-object": "[]", "not-json": "{"}.get(mutation, json.dumps(record))
        if mutation == "duplicate-id":
            lines.append(lines[index])
    return "".join(line + "\n" for line in lines)


@st.composite
def _cases(draw, forced: Optional[tuple[str, str]] = None) -> tuple:
    """Files to write, the argv, the output paths a success must leave, and the broken site.

    A ``forced`` (command, site) pair is broken; otherwise the command and at
    most one broken site are drawn.
    """
    if forced is None:
        command = draw(st.sampled_from(sorted(_SITES)))
        sites = [site for pair_command, site in _PAIRS if pair_command == command]
        broken = draw(st.one_of(st.none(), st.sampled_from(sites)))
    else:
        command, broken = forced

    def pick(site: str, valid: list, invalid: list):
        return draw(st.sampled_from(invalid if broken == site else valid))

    def output(site: str, name: str) -> str:
        return f"{_WS}/{pick(site, [name, f'new/deeper/{name}'], [f'afile/{name}', 'adir'])}"

    if command == "generate":
        low, high = pick(
            "frames",
            [(1, 3), (2, 4), (4, 4)],
            [(HUGE, HUGE), (HUGE, 2), (0, 2), (-1, 2), (3, 1), (2, 0), (2, -1)],
        )
        outputs = [output("model-out", "model.json"), output("corpus-out", "corpus.jsonl")]
        argv = [
            command,
            "--seed", str(draw(st.integers(-3, 3))),
            "--count", str(pick("count", [1, 2], [0, -1])),
            "--vocab-size", str(pick("vocab", [1, 3], [HUGE, 0, -1])),
            "--frames-min", str(low),
            "--frames-max", str(high),
            "--blank-prior", str(pick("prior", [0.85, 0.5], [0.0, 1.0])),
            "--model", outputs[0],
            "--corpus", outputs[1],
        ]
        return {}, argv, outputs, broken

    model_text, vocab = draw(_model_texts(broken))
    files = {"model": model_text, "corpus": draw(_corpus_texts(vocab, broken))}
    model_path, corpus_path = pick(
        "paths",
        [("model", "corpus")],
        [("absent", "corpus"), ("adir", "corpus"), ("model", "absent"), ("model", "adir")],
    )
    argv = [command, "--model", f"{_WS}/{model_path}", "--corpus", f"{_WS}/{corpus_path}"]
    if command == "verify":
        return files, argv, [], broken
    if command == "decode":
        beam = pick("beam", [1, 2], [0, -1])
        argv += ["--beam-size", str(beam)]
        argv += ["--nbest", str(pick("nbest", [1, max(beam, 1)], [0, -1, HUGE]))]
        argv += ["--segment-size", str(pick("segment", [1, 2, HUGE], [0, -1]))]
    else:
        beams = draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2))
        segments = [1] + draw(st.lists(st.sampled_from([2, HUGE]), max_size=1))
        if broken == "beam":
            beams.append(draw(st.sampled_from([0, -1])))
        if broken == "segment":
            segments = draw(st.sampled_from([[2], [1, 0], [-1, 1]]))
        argv += [arg for beam in beams for arg in ("--beam-size", str(beam))]
        argv += [arg for segment in segments for arg in ("--segment-size", str(segment))]
        # A bench's nbest is clamped to each cell's beam, so HUGE is valid there.
        argv += ["--nbest", str(draw(st.sampled_from([1, 2, HUGE])))]
        argv += ["--repeats", str(pick("repeats", [1, 2], [0, -1]))]
        argv += ["--workers", str(pick("workers", [1, 2], [0, -1]))]
    outputs = []
    if broken == "out" or draw(st.booleans()):
        outputs.append(output("out", "out"))
        argv += ["--out", outputs[0]]
    return files, argv, outputs, broken


def _limit_case(command: str, site: str, model: dict, corpus: str, *options: str) -> tuple:
    argv = [command, "--model", f"{_WS}/model", "--corpus", f"{_WS}/corpus", *options]
    outputs = []
    if command != "verify":
        outputs.append(f"{_WS}/out")
        argv += ["--out", outputs[0]]
    return {"model": json.dumps(model), "corpus": corpus}, argv, outputs, site


_TABULAR_2 = {"kind": "tabular", "vocab_size": 1, "frames": 2, "payload": [[[0.0, -1.0]]] * 2}
_LONG_LINE = (
    '{"id": "a", "frames": 2, "reference": [0]}\n{"id": "b", "frames": 5, "reference": [0]}\n'
)
_SEEDED_1 = {"kind": "seeded", "vocab_size": 1, "frames": 3, "seed": 1}
_SHORT_LINE = '{"id": "a", "frames": 3, "reference": [0]}\n'
_OVER_BUDGET = ["--beam-size", str(HUGE)]


_LIMIT_CASES = [
    _limit_case("decode", "frames", _TABULAR_2, _LONG_LINE),
    _limit_case("bench", "frames", _TABULAR_2, _LONG_LINE),
    _limit_case("verify", "frames", _TABULAR_2, _LONG_LINE),
    _limit_case("decode", "beam", _SEEDED_1, _SHORT_LINE, *_OVER_BUDGET),
    _limit_case("bench", "beam", _SEEDED_1, _SHORT_LINE, "--beam-size", "1", *_OVER_BUDGET),
]
_FORCED_EXAMPLES = 10


def _run_case(files: dict[str, str], argv: list[str], outputs: list[str]) -> int:
    """Run one case in a fresh workspace, check the exit-code contract, return the code."""
    with tempfile.TemporaryDirectory() as workspace:
        root = Path(workspace)
        (root / "afile").write_text("", encoding="utf-8")
        (root / "adir").mkdir()
        for name, text in files.items():
            (root / name).write_text(text, encoding="utf-8")
        before = sorted(root.rglob("*"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.replace(_WS, workspace) for arg in argv])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        if code == 2:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert sorted(root.rglob("*")) == before
        elif code == 1:
            assert argv[0] == "verify" and "FAIL" in out
        else:
            assert code == 0
            assert "error" not in err
            assert all(Path(path.replace(_WS, workspace)).is_file() for path in outputs)
    return code


def test_every_command_keeps_the_input_contract() -> None:
    rejected = set()

    def check(case) -> None:
        files, argv, outputs, broken = case
        if _run_case(files, argv, outputs) == 2:
            rejected.add((argv[0], broken))

    deterministic = settings(deadline=None, derandomize=True, database=None)
    drawn = given(case=_cases())(check)
    for case in _LIMIT_CASES:
        drawn = example(case=case)(drawn)
    settings(deterministic, max_examples=200)(drawn)()
    for pair in _PAIRS:
        forced = given(case=_cases(pair))(check)
        settings(deterministic, max_examples=_FORCED_EXAMPLES)(forced)()
    assert [pair for pair in _PAIRS if pair not in rejected] == []
