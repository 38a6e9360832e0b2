"""End-to-end tests for the command line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tokenwise
from tokenwise import cli, harness
from tokenwise.cli import main
from tokenwise.decoder import DecodeConfig, decode_utterance_tokenwise
from tokenwise.harness import load_corpus
from tokenwise.model import load_model_file

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


def test_verify_zero_tolerance_exits_one(capsys) -> None:
    code = main(
        [
            "verify",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
            "--tolerance", "0",
        ]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_a_negative_or_nan_tolerance(capsys) -> None:
    for tolerance in ("-1", "nan"):
        code = main(
            [
                "verify",
                "--model", str(DATA_DIR / "tiny_model.json"),
                "--corpus", str(DATA_DIR / "tiny_corpus.jsonl"),
                "--tolerance", tolerance,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tolerance must be a non-negative number\n"


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
    cases = [
        {**seeded, "vocab_size": None},
        {**seeded, "vocab_size": 4.9},
        {**seeded, "vocab_size": "3"},
        {**seeded, "frames": [12]},
        {**seeded, "frames": "12"},
        {**seeded, "frames": True},
        {**seeded, "seed": True},
        {**seeded, "seed": 1.0},
        {**seeded, "seed": None},
        {**seeded, "blank_prior": "0.6"},
        {**seeded, "blank_prior": None},
        {**seeded, "blank_prior": False},
        {**seeded, "payload": tabular["payload"]},
        {**tabular, "seed": 1},
        {**tabular, "blank_prior": 0.6},
    ]
    path = tmp_path / "model.json"
    for spec in cases:
        path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(
            ["decode", "--model", str(path), "--corpus", str(DATA_DIR / "tiny_corpus.jsonl")]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), spec
        assert captured.err.startswith("error: "), spec
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
    out_path = tmp_path / "hyps.jsonl"
    code = main(
        [
            "decode",
            "--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(corpus),
            "--out", str(out_path),
        ]
    )
    assert code == 2
    assert f"error: corpus {corpus} is empty" in capsys.readouterr().err
    assert not out_path.exists()


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
