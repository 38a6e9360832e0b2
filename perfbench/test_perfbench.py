"""Tests of the decode benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``. They take
about a minute: two of them decode the default-seed corpus in full.
"""

from __future__ import annotations

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (run puts the repository's src/ on sys.path)
from tracing import END, FRAMES, NAME, START, STATES, UID, TracedModel, Tracer  # noqa: E402
from tracing import fit_join_cost, layer_totals  # noqa: E402

from tokenwise import (  # noqa: E402
    DecodeConfig,
    SeededModel,
    corpus_wer,
    load_corpus,
    load_model_file,
)
from tokenwise.harness import BenchmarkReport, run_benchmark  # noqa: E402

DATA_DIR = run.ROOT / "data"
FROZEN_SHA256 = {
    "model.json": "ab3e22fa7afb6f14b29a25ee4c97ef0ed648f82fe5638cb2cb184fed4a3904c1",
    "corpus.jsonl": "1903d07938d31665b99cba65ec3bc68cddae0e7f6a48773a6e40d3f1bb494e2d",
}


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The bench recipe at the default seed, generated as the benchmark does."""
    return run.ensure_inputs(run.BENCH, run.DEFAULT_SEED, tmp_path_factory.mktemp("inputs"))


def _loaded(model_path, corpus_path):
    model = load_model_file(model_path)
    utterances = load_corpus(corpus_path, model.vocab)
    return model, utterances, [model.encode(u.frames, u.uid) for u in utterances]


def test_default_seed_reproduces_the_frozen_bench_pair(bench_inputs) -> None:
    for path in bench_inputs:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_SHA256[path.name]
    assert bench_inputs[0].read_bytes() == (DATA_DIR / "bench_model.json").read_bytes()
    assert bench_inputs[1].read_bytes() == (DATA_DIR / "bench_corpus.jsonl").read_bytes()


def test_counters_and_wer_agree_with_tokenwise_bench(bench_inputs) -> None:
    model, utterances, encoders = _loaded(*bench_inputs)
    sweeps = {
        "sync_n1s1": ([1], [1]),
        "segment_n4s10": ([4], [1, 10]),
    }
    for name, (beams, segments) in sweeps.items():
        workload = run.WORKLOADS[name]
        loop = run.Caller(model, len(encoders))
        run.run_passes([loop], encoders, workload.config, seconds=0, partial=True)
        assert loop.passes == 1
        wer = corpus_wer(
            [(u.reference, entries[0][0]) for u, (_, entries) in zip(utterances, loop.outcomes)]
        )
        report = run_benchmark(
            DATA_DIR / "bench_model.json",
            DATA_DIR / "bench_corpus.jsonl",
            beam_sizes=beams,
            segment_sizes=segments,
            workers=1,
        )
        cell = report.cells[BenchmarkReport.cell_key(workload.beam, workload.segment)]
        assert vars(loop.counters) == cell["counters"], name
        assert wer == cell["wer"], name


def test_golden_matches_and_a_tampered_output_counts_as_failed(bench_inputs) -> None:
    model, utterances, encoders = _loaded(*bench_inputs)
    workload = run.WORKLOADS["segment_n4s10"]
    golden = run.load_golden("segment_n4s10", utterances)
    decoded = run.decode_all(model, encoders[:4], workload.config)
    references = {"golden": golden}
    outcomes = list(enumerate(decoded))
    assert run.count_failures(outcomes, workload.config.nbest, references) == (0, [])

    (tokens, score), *rest = decoded[0]
    tampered = [
        (0, [(tokens, score + 2 * run.SCORE_TOLERANCE), *rest]),
        (1, [(decoded[1][0][0] + (0,), decoded[1][0][1]), *decoded[1][1:]]),
        (2, list(reversed(decoded[2]))),
        (3, None),
    ]
    failed, reasons = run.count_failures(tampered, workload.config.nbest, references)
    assert failed == 4
    assert "scores differ from golden" in reasons[0]
    assert "sequences differ from golden" in reasons[1]
    assert "rank order" in reasons[2]
    assert "decode raised" in reasons[3]


@pytest.mark.parametrize(
    "entries, problem",
    [
        ([], "0 entries"),
        ([((1,), -1.0), ((1,), -2.0)], "duplicate"),
        ([((1,), -2.0), ((2,), -1.0)], "rank order"),
        ([((2,), -1.0), ((1,), -1.0)], "rank order"),
        ([((1,), 0.5)], "above 0"),
        ([((1,), float("nan"))], "above 0"),
    ],
)
def test_structural_checks(entries, problem) -> None:
    problems = run.entry_problems(entries, nbest=4)
    assert any(problem in text for text in problems), problems


def test_scores_within_tolerance_pass() -> None:
    entries = [((1, 2), -1.0), ((1,), -2.0)]
    close = [((1, 2), -1.0 + run.SCORE_TOLERANCE / 2), ((1,), -2.0)]
    assert run.entry_problems(entries, 2, [("reference", close)]) == []


def test_traced_run_accounts_for_wall_time_and_changes_no_output() -> None:
    model = SeededModel(vocab_size=5, frames=30, seed=7, blank_prior=0.5)
    encoders = [model.encode(20 + i, f"u{i}") for i in range(6)]
    config = DecodeConfig(beam_size=3, segment_size=4, nbest=3)
    plain = run.Caller(model, len(encoders))
    tracer = Tracer()
    traced = run.Caller(TracedModel(model, tracer), len(encoders), tracer)
    run.run_passes([plain, traced], encoders, config, seconds=0, partial=False)
    assert traced.passes == plain.passes == 1
    assert traced.outcomes == plain.outcomes
    assert vars(traced.counters) == vars(plain.counters)

    totals = layer_totals(tracer.spans, "loop.decode")
    wall = totals["loop.decode"]["total_ns"]
    layers = sum(entry["self_ns"] for entry in totals.values())
    assert layers == wall
    assert totals["decoder.decode"]["calls"] == len(encoders)
    assert totals["model.join"]["calls"] == plain.counters.calls
    assert totals["model.scores"]["calls"] == plain.counters.calls
    assert totals["model.join"]["cells"] >= plain.counters.frame_joins
    decodes = [span for span in tracer.spans if span[NAME] == "decoder.decode"]
    assert [span[UID] for span in decodes] == [e.uid for e in encoders]


def test_fit_join_cost_recovers_a_known_line() -> None:
    spans = []
    for states, frames in [(1, 1), (2, 5), (4, 10), (8, 3), (3, 7)]:
        cells = states * frames
        span = ["model.join", 0, 0, -1, "", states, frames]
        span[START], span[END] = 1000, 1000 + 5000 + 40 * cells
        spans.append(span)
    fixed, per_cell, r2 = fit_join_cost(spans)
    assert fixed == pytest.approx(5000)
    assert per_cell == pytest.approx(40)
    assert r2 == pytest.approx(1.0)
    assert spans[0][STATES] * spans[0][FRAMES] == 1


def test_run_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns(".*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "sync_n1s1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
