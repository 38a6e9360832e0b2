"""The library surface that the decode benchmark in ``perfbench/`` uses.

``perfbench/test_perfbench.py`` tests the benchmark itself, but outside the
tier-1 suite. These tests drive the same entry points the benchmark does on
five utterances of the bundled bench pair, so a change to the library that
the benchmark would trip over, such as a renamed counter field or a changed
``join`` signature, fails here. They write nothing under ``perfbench/``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (run puts the repository's src/ on sys.path)
from tracing import TracedModel, Tracer  # noqa: E402

from tokenwise import load_corpus, load_model_file  # noqa: E402

DATA_DIR = run.ROOT / "data"
BENCH_MODEL = DATA_DIR / "bench_model.json"
BENCH_CORPUS = DATA_DIR / "bench_corpus.jsonl"
WORKLOAD = "segment_n4s10"
UTTERANCES = 5
# Per-layer metrics that ``run.run`` adds after ``layer_metrics``.
LATER_LAYERS = {
    "trace.overhead_share",
    "decoder.max_mass_defect",
    "harness.load_model_s",
    "harness.load_corpus_s",
    "metrics.wer_s",
    "metrics.wer",
}


def test_traced_and_untraced_passes_yield_the_metrics_and_match_the_golden() -> None:
    model = load_model_file(BENCH_MODEL)
    utterances = load_corpus(BENCH_CORPUS, model.vocab)[:UTTERANCES]
    encoders = [model.encode(u.frames, u.uid) for u in utterances]
    config = run.WORKLOADS[WORKLOAD].config
    untraced = run.Caller(model, len(encoders))
    tracer = Tracer()
    traced = run.Caller(TracedModel(model, tracer), len(encoders), tracer)
    for utt in utterances:
        tracer.uid = utt.uid
        traced.model.encode(utt.frames, utt.uid)
    run.run_passes([untraced, traced], encoders, config, seconds=0, partial=False)
    run.probe_join_costs(traced.model, encoders)

    problems: list[str] = []
    layers = run.layer_metrics(traced, utterances, config, problems)
    assert problems == []
    assert set(layers) == set(run.PER_LAYER_UNITS) - LATER_LAYERS
    end_to_end = run.throughput_and_latency(untraced, [u.frames for u in utterances])
    assert set(end_to_end) <= set(run.END_TO_END_UNITS)

    mass = run.DecodeTrace()
    decoded = run.decode_all(model, encoders, config, trace=mass)
    assert mass.max_mass_defect <= config.mass_tolerance
    outcomes = untraced.outcomes + traced.outcomes + list(enumerate(decoded))
    references = {"the recorded golden": run.load_golden(WORKLOAD, utterances)}
    assert run.count_failures(outcomes, config.nbest, references) == (0, [])


def test_the_generate_and_set_up_children_run(tmp_path: Path) -> None:
    model_path, corpus_path = tmp_path / "model.json", tmp_path / "corpus.jsonl"
    # Seed 1, two utterances of 2-3 frames over three tokens, blank prior 0.85.
    arguments = [run.SRC, 1, 2, 3, 2, 3, 0.85, model_path, corpus_path]
    generated = subprocess.run(
        [sys.executable, "-c", run._GENERATE, *map(str, arguments)],
        capture_output=True,
        text=True,
        timeout=run.CHILD_TIMEOUT_S,
    )
    assert generated.returncode == 0, generated.stderr
    assert load_corpus(corpus_path, load_model_file(model_path).vocab)

    [setup] = run.measure_setup(BENCH_MODEL, BENCH_CORPUS, 1)
    assert set(setup) == {"setup_s", "load_model_s", "load_corpus_s"}
