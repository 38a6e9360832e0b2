"""Decode benchmark: seeded workloads decoded back to back by one caller.

Run from the repository root:

    python3 perfbench/run.py --workload segment_n4s10 --seed 20250407 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from traced decodes of a model wrapper, each next to an
untraced decode of the same utterance. Every line before it is a
human-readable table of everything the run measured. See README.md beside
this file for the workloads, the metrics and the trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import tokenwise  # noqa: E402
from tokenwise import (  # noqa: E402
    DecodeConfig,
    DecodeTrace,
    JoinerCounters,
    corpus_wer,
    decode_utterance_standard,
    decode_utterance_tokenwise,
    load_corpus,
    load_model_file,
)

from tracing import END, NAME, START, TracedModel, Tracer, fit_join_cost, layer_totals  # noqa: E402

DEFAULT_SEED = 20250407
GOLDEN_PATH = BENCH_DIR / "golden_seed20250407.json"
INPUT_CACHE = BENCH_DIR / ".inputs"
TRACE_DIR = BENCH_DIR / ".traces"

SCORE_TOLERANCE = 1e-9
SETUP_REPEATS = 8
WARMUP_UTTERANCES = 10
WER_REPEATS = 3
PROBE_STATES = (1, 2, 4, 8)
PROBE_WIDTHS = (1, 2, 5, 10)
PROBE_UTTERANCES = 8
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Recipe:
    """Arguments of ``generate_corpus`` apart from the seed."""

    name: str
    count: int
    vocab_size: int
    frames: tuple[int, int]
    blank_prior: float


@dataclass(frozen=True)
class Workload:
    recipe: Recipe
    beam: int
    segment: int
    standard_reference: bool = False

    @property
    def config(self) -> DecodeConfig:
        return DecodeConfig(beam_size=self.beam, segment_size=self.segment, nbest=self.beam)


# At the default seed this recipe reproduces data/bench_model.json and
# data/bench_corpus.jsonl byte for byte, the pair `tokenwise bench` is run on.
BENCH = Recipe("bench", 200, 16, (90, 110), 0.85)
DENSE = Recipe("dense", 200, 16, (40, 160), 0.3)

# Why each workload exists is in README.md; in short: the joiner's per-call
# cost dominates sync_n1s1, per-cell and bookkeeping cost dominate
# segment_n4s10, and dense_n4s5 has many rounds per segment and lengths that
# vary fourfold.
WORKLOADS = {
    "sync_n1s1": Workload(BENCH, beam=1, segment=1, standard_reference=True),
    "segment_n4s10": Workload(BENCH, beam=4, segment=10),
    "dense_n4s5": Workload(DENSE, beam=4, segment=5),
}

END_TO_END_UNITS = {
    "frames_per_s": "frames/s",
    "utt_latency_p50_ms": "ms",
    "utt_latency_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "model.join_calls_per_frame": "calls/frame",
    "model.join_cells_per_frame": "cells/frame",
    "model.join_states_per_call": "states/call",
    "model.join_fixed_us": "us",
    "model.join_cell_ns": "ns",
    "model.join_fit_r2": "ratio",
    "model.scores_s": "s",
    "model.lattice_s": "s",
    "model.join_share": "ratio",
    "model.advance_calls_per_frame": "calls/frame",
    "model.advance_s": "s",
    "model.encode_s": "s",
    "decoder.self_s": "s",
    "decoder.self_share": "ratio",
    "decoder.rounds_per_segment": "rounds/segment",
    "decoder.forced_finalizations": "count",
    "decoder.max_mass_defect": "prob",
    "harness.load_model_s": "s",
    "harness.load_corpus_s": "s",
    "metrics.wer_s": "s",
    "metrics.wer": "ratio",
    "trace.overhead_share": "ratio",
    "trace.loop_self_share": "ratio",
}

_GENERATE = """
import sys
sys.path.insert(0, sys.argv[1])
from tokenwise import generate_corpus
seed, count, vocab, low, high = map(int, sys.argv[2:7])
generate_corpus(seed, count, vocab, (low, high), float(sys.argv[7]),
                model_path=sys.argv[8], corpus_path=sys.argv[9])
"""

# Set-up as a fresh `tokenwise decode` process pays it, timed inside the
# child so that interpreter start-up, which no change to the repository
# moves, stays out. OpenBLAS is held to one thread: tokenwise does no BLAS
# work, and the worker threads OpenBLAS otherwise starts during `import
# numpy` take 0-40% of the importing thread's core, depending on where the
# scheduler puts them.
_SETUP = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tokenwise
t1 = time.perf_counter()
model = tokenwise.load_model_file(sys.argv[2])
t2 = time.perf_counter()
utterances = tokenwise.load_corpus(sys.argv[3], model.vocab)
t3 = time.perf_counter()
encoders = [model.encode(u.frames, u.uid) for u in utterances]
t4 = time.perf_counter()
print(json.dumps({"setup_s": t4 - t0, "load_model_s": t2 - t1, "load_corpus_s": t3 - t2}))
"""


def ensure_inputs(recipe: Recipe, seed: int, cache: Path = INPUT_CACHE) -> tuple[Path, Path]:
    """Model and corpus files for ``seed``, generated once into ``cache``.

    Generation runs in a child process, outside every timed region and
    outside this process's memory peak.
    """
    target = cache / f"{recipe.name}-{seed}"
    if not target.is_dir():
        cache.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as staging:
            staged = Path(staging) / "inputs"
            staged.mkdir()
            subprocess.run(
                [
                    sys.executable,
                    "-c",
                    _GENERATE,
                    str(SRC),
                    str(seed),
                    str(recipe.count),
                    str(recipe.vocab_size),
                    str(recipe.frames[0]),
                    str(recipe.frames[1]),
                    repr(recipe.blank_prior),
                    str(staged / "model.json"),
                    str(staged / "corpus.jsonl"),
                ],
                check=True,
                timeout=CHILD_TIMEOUT_S,
            )
            staged.rename(target)
    return target / "model.json", target / "corpus.jsonl"


def measure_setup(model_path: Path, corpus_path: Path, repeats: int) -> list[dict]:
    """Each set-up phase, in seconds, in each of ``repeats`` fresh processes."""
    runs = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, "-c", _SETUP, str(SRC), str(model_path), str(corpus_path)],
            check=True,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        runs.append(json.loads(child.stdout))
    return runs


def _rank_key(entry):
    tokens, score = entry
    return (-score, len(tokens), tokens)


def entry_problems(entries, nbest: int, expected: Sequence[tuple[str, object]] = ()) -> list[str]:
    """What is wrong with one decode's n-best entries; empty when nothing is.

    Structure: 1..nbest entries, unique sequences, ranked as the decoder
    ranks them, every score a log-probability (<= 0). Each ``(label,
    entries)`` in ``expected`` must match token for token, with scores
    within ``SCORE_TOLERANCE``; a ``None`` expectation is skipped.
    """
    entries = list(entries)
    problems = []
    if not 1 <= len(entries) <= nbest:
        problems.append(f"{len(entries)} entries, expected 1..{nbest}")
    sequences = [tuple(tokens) for tokens, _ in entries]
    if len(set(sequences)) != len(sequences):
        problems.append("duplicate sequences")
    if entries != sorted(entries, key=_rank_key):
        problems.append("entries not in rank order")
    if not all(score <= 0.0 for _, score in entries):
        problems.append("a score is above 0 or NaN")
    for label, reference in expected:
        if reference is None:
            continue
        if sequences != [tuple(tokens) for tokens, _ in reference]:
            problems.append(f"sequences differ from {label}")
        elif any(
            not abs(score - ref_score) <= SCORE_TOLERANCE
            for (_, score), (_, ref_score) in zip(entries, reference)
        ):
            problems.append(f"scores differ from {label} by more than {SCORE_TOLERANCE}")
    return problems


def count_failures(outcomes, nbest: int, references: dict) -> tuple[int, list[str]]:
    """Decodes that raised or failed a check, and the first few reasons.

    ``outcomes`` holds ``(utterance index, entries or None)`` with ``None``
    for a decode that raised; ``references`` maps a label to the expected
    entries per utterance index.
    """
    failed = 0
    reasons: list[str] = []
    for index, entries in outcomes:
        if entries is None:
            problems = ["decode raised"]
        else:
            problems = entry_problems(
                entries, nbest, [(label, ref[index]) for label, ref in references.items()]
            )
        if problems:
            failed += 1
            if len(reasons) < 5:
                reasons.append(f"utterance {index}: " + "; ".join(problems))
    return failed, reasons


@dataclass
class Caller:
    """A model the loop decodes with, and what its decodes produced."""

    model: object
    utterances: int
    tracer: Optional[Tracer] = None
    outcomes: list = field(default_factory=list)  # (utterance index, entries or None)
    latencies_ns: list = field(init=False)  # per utterance, one per decode
    counters: Optional[JoinerCounters] = None  # of the first whole pass
    passes: int = 0  # whole passes

    def __post_init__(self) -> None:
        self.latencies_ns = [[] for _ in range(self.utterances)]

    def decode(self, index: int, encoder, config: DecodeConfig, counters: JoinerCounters) -> None:
        """One timed decode; one that raises is recorded as ``None``."""
        tracer = self.tracer
        if tracer:
            tracer.uid = encoder.uid
            root = tracer.begin("loop.decode")
            span = tracer.begin("decoder.decode")
        begun = perf_counter_ns()
        try:
            result, _ = decode_utterance_tokenwise(self.model, encoder, config, counters)
            entries = result.entries
        except Exception:  # counted as failed; the loop must keep running
            traceback.print_exc(file=sys.stderr)
            entries = None
        self.latencies_ns[index].append(perf_counter_ns() - begun)
        if tracer:
            tracer.end(span)
        self.outcomes.append((index, entries))
        if tracer:
            tracer.end(root)


def run_passes(
    callers: Sequence[Caller], encoders, config: DecodeConfig, seconds: float, partial: bool
) -> None:
    """Passes over the corpus for ``seconds``, and at least one whole pass.

    One process, no pool: each decode starts when the previous returns.
    With several callers every utterance is decoded by each in turn, first
    caller first on even utterances and last on odd ones, so that all of
    them see the same phases of the host's speed. With ``partial`` the last
    pass stops at the deadline; otherwise only whole passes run.
    """
    deadline = perf_counter() + seconds
    while callers[0].passes == 0 or perf_counter() < deadline:
        tallies = [(caller, JoinerCounters()) for caller in callers]
        whole = True
        for index, encoder in enumerate(encoders):
            if partial and callers[0].passes and perf_counter() >= deadline:
                whole = False
                break
            for caller, counters in tallies if index % 2 == 0 else reversed(tallies):
                caller.decode(index, encoder, config, counters)
        if whole:
            for caller, counters in tallies:
                caller.passes += 1
                caller.counters = caller.counters or counters


def throughput_and_latency(caller: Caller, frames: Sequence[int]) -> dict:
    """End-to-end figures from each utterance's mean latency over the passes.

    On a shared host the CPU's speed drifts in phases that last seconds; with
    the mean, such a phase moves the figures in proportion to its length.
    """
    per_utterance = [statistics.fmean(samples) / 1e6 for samples in caller.latencies_ns]
    return {
        "frames_per_s": sum(frames) / (sum(per_utterance) / 1e3),
        "utt_latency_p50_ms": statistics.median(per_utterance),
        "utt_latency_p95_ms": statistics.quantiles(per_utterance, n=20)[18],
    }


def decode_all(
    model, encoders, config: DecodeConfig, decode=decode_utterance_tokenwise, trace=None
):
    """Entries per utterance from one untimed pass."""
    return [decode(model, encoder, config, trace=trace)[0].entries for encoder in encoders]


def load_golden(workload: str, utterances) -> list:
    data = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    by_uid = data["workloads"][workload]
    return [[(tuple(tokens), score) for tokens, score in by_uid[u.uid]] for u in utterances]


def record_golden(path: Path = GOLDEN_PATH) -> None:
    """Write the n-best entries of every workload at the default seed."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        model_path, corpus_path = ensure_inputs(workload.recipe, DEFAULT_SEED)
        model = load_model_file(model_path)
        utterances = load_corpus(corpus_path, model.vocab)
        encoders = [model.encode(u.frames, u.uid) for u in utterances]
        entries = decode_all(model, encoders, workload.config)
        out["workloads"][name] = {
            u.uid: [[list(tokens), score] for tokens, score in got]
            for u, got in zip(utterances, entries)
        }
    path.write_text(json.dumps(out, sort_keys=True) + "\n", encoding="utf-8")


def probe_join_costs(traced: TracedModel, encoders) -> None:
    """Join calls over a fixed grid of batch shapes, so the cost fit is identifiable.

    At beam 1 and segment 1 every call scores one cell, which alone cannot
    split fixed from per-cell cost.
    """
    inner = traced.inner
    counters = JoinerCounters()
    for encoder in encoders[:PROBE_UTTERANCES]:
        chain = [inner.init_predictor()]
        while len(chain) < max(PROBE_STATES):
            chain.append(inner.advance_predictor(chain[-1], len(chain) % inner.vocab.size))
        traced.tracer.uid = encoder.uid
        for states in PROBE_STATES:
            for width in PROBE_WIDTHS:
                traced.join(encoder, (0, min(width, encoder.frames)), chain[:states], counters)


def layer_metrics(traced: Caller, utterances, config, problems) -> dict:
    """Per-layer metrics from the spans of the traced passes and the join probe.

    Times are per corpus pass (``_s``) or shares of the traced passes' wall
    time; counts are per decoded frame and repeat exactly across runs.
    """
    tracer, passes = traced.tracer, traced.passes
    totals = layer_totals(tracer.spans, "loop.decode")
    wall = totals["loop.decode"]["total_ns"]
    model_self = sum(t["self_ns"] for name, t in totals.items() if name.startswith("model."))
    decoder_self = totals["decoder.decode"]["self_ns"]
    loop_self = totals["loop.decode"]["self_ns"]
    if model_self + decoder_self + loop_self != wall:
        problems.append("self times of model, decoder and loop do not sum to the traced wall")
    join = totals["model.join"]
    advance = totals.get("model.advance", {"calls": 0, "total_ns": 0})
    if join["calls"] != traced.counters.calls * passes:
        problems.append("traced join spans disagree with the decoder's joiner counters")
    frames = sum(u.frames for u in utterances) * passes
    segments = sum(-(-u.frames // config.segment_size) for u in utterances) * passes
    encodes = [span for span in tracer.spans if span[NAME] == "model.encode"]
    encode_ns = sum(span[END] - span[START] for span in encodes)
    fixed_ns, cell_ns, r2 = fit_join_cost(tracer.spans)
    per_pass = 1e9 * passes
    return {
        "model.join_calls_per_frame": join["calls"] / frames,
        "model.join_cells_per_frame": join["cells"] / frames,
        "model.join_states_per_call": join["states"] / join["calls"],
        "model.join_fixed_us": fixed_ns / 1e3,
        "model.join_cell_ns": cell_ns,
        "model.join_fit_r2": r2,
        "model.scores_s": totals["model.scores"]["total_ns"] / per_pass,
        "model.lattice_s": join["self_ns"] / per_pass,
        "model.join_share": join["total_ns"] / wall,
        "model.advance_calls_per_frame": advance["calls"] / frames,
        "model.advance_s": advance["total_ns"] / per_pass,
        "model.encode_s": encode_ns / 1e9,
        "decoder.self_s": decoder_self / per_pass,
        "decoder.self_share": decoder_self / wall,
        "decoder.rounds_per_segment": join["calls"] / segments,
        "decoder.forced_finalizations": traced.counters.forced_finalizations,
        "trace.loop_self_share": loop_self / wall,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    config = workload.config
    model_path, corpus_path = ensure_inputs(workload.recipe, seed)
    # Half the set-up samples are taken before the timed loop and half after
    # it, so that their median spans the run rather than one moment of it.
    setup_runs = measure_setup(model_path, corpus_path, SETUP_REPEATS // 2)

    model = load_model_file(model_path)
    utterances = load_corpus(corpus_path, model.vocab)
    encoders = [model.encode(u.frames, u.uid) for u in utterances]
    frames = [u.frames for u in utterances]

    references: dict = {}
    if seed == DEFAULT_SEED:
        references["the recorded golden"] = load_golden(workload_name, utterances)
    if workload.standard_reference:
        references["decode_utterance_standard"] = decode_all(
            model, encoders, config, decode_utterance_standard
        )
    for encoder in encoders[:WARMUP_UTTERANCES]:
        decode_utterance_tokenwise(model, encoder, config)

    problems: list[str] = []
    layers: dict = {}
    untraced = Caller(model, len(encoders))
    if not trace:
        run_passes([untraced], encoders, config, seconds, partial=True)
        outcomes = list(untraced.outcomes)
    else:
        tracer = Tracer()
        traced = Caller(TracedModel(model, tracer), len(encoders), tracer)
        for utt in utterances:
            tracer.uid = utt.uid
            traced.model.encode(utt.frames, utt.uid)
        run_passes([untraced, traced], encoders, config, seconds, partial=False)
        probe_join_costs(traced.model, encoders)
        layers = layer_metrics(traced, utterances, config, problems)
        layers["trace.overhead_share"] = (
            1.0
            - throughput_and_latency(traced, frames)["frames_per_s"]
            / throughput_and_latency(untraced, frames)["frames_per_s"]
        )
        tracer.write(TRACE_DIR / f"{workload_name}.jsonl")
        outcomes = untraced.outcomes + traced.outcomes

    setup_runs += measure_setup(model_path, corpus_path, SETUP_REPEATS - SETUP_REPEATS // 2)
    setup = {key: statistics.median(run[key] for run in setup_runs) for key in setup_runs[0]}
    first_pass = [entries for _, entries in untraced.outcomes[: len(encoders)]]
    if seed != DEFAULT_SEED:
        references["the run's first decode"] = first_pass
    # A decode that raised scores as an empty hypothesis.
    pairs = [(u.reference, got[0][0] if got else ()) for u, got in zip(utterances, first_pass)]
    wer_times = []
    for _ in range(WER_REPEATS):
        begun = perf_counter()
        wer = corpus_wer(pairs)
        wer_times.append(perf_counter() - begun)

    metrics = {
        **throughput_and_latency(untraced, frames),
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        mass = DecodeTrace()
        outcomes += list(enumerate(decode_all(model, encoders, config, trace=mass)))
        if mass.max_mass_defect > config.mass_tolerance:
            problems.append(f"mass defect {mass.max_mass_defect:.3e} above tolerance")
        layers.update(
            {
                "decoder.max_mass_defect": mass.max_mass_defect,
                "harness.load_model_s": setup["load_model_s"],
                "harness.load_corpus_s": setup["load_corpus_s"],
                "metrics.wer_s": statistics.median(wer_times),
                "metrics.wer": wer,
            }
        )

    failed, reasons = count_failures(outcomes, config.nbest, references)
    problems += reasons
    return {
        "workload": workload_name,
        "seed": seed,
        "passes": untraced.passes,
        "latency_samples": len(encoders),
        "counters": vars(untraced.counters),
        "wer": wer,
        "attempted": len(outcomes),
        "failed": failed,
        "problems": problems,
        "end_to_end": metrics,
        "per_layer": layers,
    }


def _print_table(report: dict) -> None:
    print(
        f"workload {report['workload']}  seed {report['seed']}  passes {report['passes']}"
        f"  latency samples {report['latency_samples']} (one per utterance: its mean over the"
        " passes)"
    )
    print("counters " + json.dumps(report["counters"], sort_keys=True))
    rows = [(name, value, END_TO_END_UNITS[name]) for name, value in report["end_to_end"].items()]
    rows.append(("wer", report["wer"], "ratio"))
    rows.append(("failed_share", report["failed"] / report["attempted"], "ratio"))
    rows += [(name, value, PER_LAYER_UNITS[name]) for name, value in report["per_layer"].items()]
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>14.6g} {unit}")
    for problem in report["problems"]:
        print(f"problem: {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if Path(tokenwise.__file__).resolve().parent != SRC / "tokenwise":
        parser.error(f"tokenwise was imported from {tokenwise.__file__}, not from {SRC}")

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_table(report)
    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0 and not report["problems"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
