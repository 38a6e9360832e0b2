"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
The numeric tolerances here are pinned; loosening them is a behavior change.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from tokenwise.decoder import (
    UNBOUNDED_BEAM,
    DecodeConfig,
    DecodeTrace,
    decode_utterance_standard,
    decode_utterance_tokenwise,
)
from tokenwise.cli import main as cli_main
from tokenwise.harness import BenchmarkReport, load_corpus, run_benchmark
from tokenwise.metrics import corpus_oracle_wer, corpus_wer, edit_distance
from tokenwise.decoder import NBestList
from tokenwise.model import JoinerCounters, SeededModel, TokenCapModel, load_model_file
from tokenwise.oracle import exact_marginals, exact_nbest, exact_sequence_marginals

from reference import strip_timing

TOLERANCE = 1e-9
OWER_SLACK = 0.002

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
BENCH_MODEL = DATA_DIR / "bench_model.json"
BENCH_CORPUS = DATA_DIR / "bench_corpus.jsonl"
# The benchmark's recorded n-best lists; at its default seed its bench recipe
# reproduces the bundled bench pair byte for byte.
PERFBENCH_GOLDEN = DATA_DIR.parent / "perfbench" / "golden_seed20250407.json"

EQUIVALENCE_INSTANCES = 300
TINY_INSTANCES = 100
TINY_CAP = 4
METRIC_PAIRS = 1000
BENCH_SEGMENTS = (1, 2, 3, 5, 10)


def _report(number: int, name: str, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"{mark} criterion {number} ({name}): {detail}")


@functools.lru_cache(maxsize=1)
def _equivalence_run() -> dict:
    rng = np.random.default_rng(20250818)
    beams = (1, 2, 5, 8)
    counters, trace = JoinerCounters(), DecodeTrace()
    mismatches = []
    max_gap = 0.0
    for index in range(EQUIVALENCE_INSTANCES):
        frames = int(rng.integers(1, 26))
        vocab = int(rng.integers(1, 9))
        beam = beams[index % len(beams)]
        model = SeededModel(
            vocab_size=vocab,
            frames=frames,
            seed=int(rng.integers(1, 2**31)),
            blank_prior=float(rng.uniform(0.3, 0.9)),
        )
        encoder = model.encode(uid=f"eq-{index:04d}")
        config = DecodeConfig(beam_size=beam, segment_size=1, nbest=beam)
        tokenwise, _ = decode_utterance_tokenwise(model, encoder, config, counters, trace)
        standard, _ = decode_utterance_standard(model, encoder, config, counters, trace)
        if [s for s, _ in tokenwise.entries] != [s for s, _ in standard.entries]:
            mismatches.append(f"eq-{index:04d}: sequence sets differ")
            continue
        for (_, a), (_, b) in zip(tokenwise.entries, standard.entries):
            max_gap = max(max_gap, abs(a - b))
    return {
        "mismatches": mismatches,
        "max_gap": max_gap,
        "instances": EQUIVALENCE_INSTANCES,
        "counters": counters,
        "trace": trace,
    }


@functools.lru_cache(maxsize=1)
def _tiny_instances() -> list:
    rng = np.random.default_rng(314159)
    instances = []
    for index in range(TINY_INSTANCES):
        frames = int(rng.integers(1, 6))
        vocab = int(rng.integers(1, 4))
        model = TokenCapModel(
            SeededModel(
                vocab_size=vocab,
                frames=frames,
                seed=int(rng.integers(1, 2**31)),
                blank_prior=float(rng.uniform(0.3, 0.8)),
            ),
            cap=TINY_CAP,
        )
        instances.append((model, model.encode(uid=f"tiny-{index:04d}"), frames))
    return instances


def _decode_scores(
    model, encoder, segment_size: int, counters: JoinerCounters, trace: DecodeTrace
) -> dict:
    config = DecodeConfig(
        beam_size=UNBOUNDED_BEAM,
        segment_size=segment_size,
        nbest=UNBOUNDED_BEAM,
    )
    decoded, _ = decode_utterance_tokenwise(model, encoder, config, counters, trace)
    return {tokens: score for tokens, score in decoded.entries}


@functools.lru_cache(maxsize=1)
def _oracle_run() -> dict:
    counters, trace = JoinerCounters(), DecodeTrace()
    mismatches = []
    max_gap = 0.0
    for model, encoder, frames in _tiny_instances():
        marginals, _ = exact_marginals(model, encoder, TINY_CAP)
        reachable = {seq: val for seq, val in marginals.items() if val > float("-inf")}
        config = DecodeConfig(
            beam_size=UNBOUNDED_BEAM, segment_size=frames, nbest=UNBOUNDED_BEAM
        )
        decoded, _ = decode_utterance_tokenwise(model, encoder, config, counters, trace)
        scores = {tokens: score for tokens, score in decoded.entries}
        if set(scores) != set(reachable):
            mismatches.append(f"{encoder.uid}: sequence sets differ")
            continue
        for seq, marginal in reachable.items():
            max_gap = max(max_gap, abs(scores[seq] - marginal))
        ranked = exact_nbest(model, encoder, len(scores), TINY_CAP)
        if [s for s, _ in decoded.entries] != [s for s, _ in ranked.entries]:
            mismatches.append(f"{encoder.uid}: ranking differs")
    return {
        "mismatches": mismatches,
        "max_gap": max_gap,
        "instances": TINY_INSTANCES,
        "counters": counters,
        "trace": trace,
    }


@functools.lru_cache(maxsize=1)
def _invariance_run() -> dict:
    counters, trace = JoinerCounters(), DecodeTrace()
    mismatches = []
    max_gap = 0.0
    for model, encoder, frames in _tiny_instances():
        segment_sizes = sorted({1, 2, 3, frames})
        by_segment = [
            _decode_scores(model, encoder, size, counters, trace) for size in segment_sizes
        ]
        base = by_segment[0]
        for size, scores in zip(segment_sizes[1:], by_segment[1:]):
            if set(scores) != set(base):
                mismatches.append(f"{encoder.uid}: sequences differ at S={size}")
                continue
            for seq, value in scores.items():
                max_gap = max(max_gap, abs(value - base[seq]))
    return {
        "mismatches": mismatches,
        "max_gap": max_gap,
        "instances": TINY_INSTANCES,
        "counters": counters,
        "trace": trace,
    }


@functools.lru_cache(maxsize=1)
def _trend_report() -> BenchmarkReport:
    return run_benchmark(
        BENCH_MODEL,
        BENCH_CORPUS,
        beam_sizes=[1, 2],
        segment_sizes=list(BENCH_SEGMENTS),
    )


@functools.lru_cache(maxsize=1)
def _nbest_report() -> BenchmarkReport:
    return run_benchmark(
        BENCH_MODEL,
        BENCH_CORPUS,
        beam_sizes=[5],
        segment_sizes=list(BENCH_SEGMENTS),
        nbest=5,
    )


def test_criterion_1_segment_size_one_equivalence() -> None:
    run = _equivalence_run()
    passed = not run["mismatches"] and run["max_gap"] <= TOLERANCE
    detail = (
        f"{run['instances']} instances, {len(run['mismatches'])} sequence mismatches,"
        f" max score gap {run['max_gap']:.3e} (tolerance {TOLERANCE:.0e})"
    )
    _report(1, "segment size one equivalence", passed, detail)
    assert passed, detail


def test_segment_size_one_equivalence_at_bench_scale() -> None:
    # Criterion 1 draws up to 25 frames; this slice of the frozen bench
    # corpus holds its first utterances and its longest ones.
    model = load_model_file(BENCH_MODEL)
    utterances = load_corpus(BENCH_CORPUS, model.vocab)
    longest = sorted(utterances, key=lambda utt: -utt.frames)[:10]
    chosen = {utt.uid: utt for utt in utterances[:10] + longest}
    for utt in chosen.values():
        encoder = model.encode(utt.frames, utt.uid)
        for beam in (1, 4):
            config = DecodeConfig(beam_size=beam, segment_size=1, nbest=beam)
            tokenwise, tw_counters = decode_utterance_tokenwise(model, encoder, config)
            standard, st_counters = decode_utterance_standard(model, encoder, config)
            assert tokenwise.entries == standard.entries, f"{utt.uid} at N{beam}"
            assert vars(tw_counters) == vars(st_counters), f"{utt.uid} at N{beam}"


def test_mass_conservation_at_bench_scale() -> None:
    # Criterion 4 traces segments of at most 8 frames. From 8 frames numpy
    # sums a mass row pairwise, so the total the trace reads may differ in
    # the last bit from the score the search selected; it must stay in bound.
    model = load_model_file(BENCH_MODEL)
    config = DecodeConfig(beam_size=4, segment_size=10)
    counters, trace = JoinerCounters(), DecodeTrace()
    for utt in load_corpus(BENCH_CORPUS, model.vocab)[:5]:
        encoder = model.encode(utt.frames, utt.uid)
        decode_utterance_tokenwise(model, encoder, config, counters, trace)
    assert trace.mass_checks >= counters.calls > 0
    assert trace.max_mass_defect <= DecodeConfig.mass_tolerance


def test_bench_scale_decodes_match_the_benchmark_golden_under_their_marginals() -> None:
    golden = json.loads(PERFBENCH_GOLDEN.read_text(encoding="utf-8"))["workloads"]
    model = load_model_file(BENCH_MODEL)
    utterances = load_corpus(BENCH_CORPUS, model.vocab)
    encoders = [model.encode(utt.frames, utt.uid) for utt in utterances]
    for name, beam, segment in (("sync_n1s1", 1, 1), ("segment_n4s10", 4, 10)):
        assert set(golden[name]) == {utt.uid for utt in utterances}
        config = DecodeConfig(beam_size=beam, segment_size=segment, nbest=beam)
        for encoder in encoders:
            decoded, _ = decode_utterance_tokenwise(model, encoder, config)
            want = [(tuple(tokens), score) for tokens, score in golden[name][encoder.uid]]
            assert list(decoded.entries) == want, f"{encoder.uid} at {name}"
            sequences = [tokens for tokens, _ in decoded.entries]
            marginals = exact_sequence_marginals(model, encoder, sequences)
            for (tokens, score), marginal in zip(decoded.entries, marginals):
                assert score <= marginal + DecodeConfig.mass_tolerance, (encoder.uid, name, tokens)


def test_criterion_2_oracle_exactness() -> None:
    run = _oracle_run()
    passed = not run["mismatches"] and run["max_gap"] <= TOLERANCE
    detail = (
        f"{run['instances']} instances, {len(run['mismatches'])} set or rank"
        f" mismatches, max marginal gap {run['max_gap']:.3e}"
        f" (tolerance {TOLERANCE:.0e})"
    )
    _report(2, "exhaustive decode matches exact marginals", passed, detail)
    assert passed, detail


def test_criterion_3_segment_size_invariance() -> None:
    run = _invariance_run()
    passed = not run["mismatches"] and run["max_gap"] <= TOLERANCE
    detail = (
        f"{run['instances']} instances, {len(run['mismatches'])} sequence-set"
        f" mismatches, max pairwise score gap {run['max_gap']:.3e}"
        f" (tolerance {TOLERANCE:.0e})"
    )
    _report(3, "scores invariant to segment size", passed, detail)
    assert passed, detail


def test_criterion_4_mass_conservation() -> None:
    runs = [_equivalence_run(), _oracle_run(), _invariance_run()]
    rounds = sum(run["counters"].calls for run in runs)
    defect = max(run["trace"].max_mass_defect for run in runs)
    passed = rounds > 0 and defect <= TOLERANCE
    detail = (
        f"{rounds} expansion rounds, max probability mass defect {defect:.3e}"
        f" (tolerance {TOLERANCE:.0e})"
    )
    _report(4, "expansion rounds conserve probability mass", passed, detail)
    assert passed, detail


def test_criterion_5_joiner_call_trend() -> None:
    report = _trend_report()
    problems = []
    summaries = []
    for beam in (1, 2):
        calls = []
        joins = []
        for segment in BENCH_SEGMENTS:
            cell = report.cells[BenchmarkReport.cell_key(beam, segment)]
            calls.append(cell["calls_per_frame"])
            joins.append(cell["joins_per_frame"])
            if cell["joins_per_frame"] > cell["calls_per_frame"] * segment + 1e-12:
                problems.append(f"N{beam}/S{segment}: joins exceed calls*segment")
        if not all(a > b for a, b in zip(calls, calls[1:])):
            problems.append(f"N{beam}: calls per frame not strictly decreasing {calls}")
        if not all(a < b for a, b in zip(joins, joins[1:])):
            problems.append(f"N{beam}: joins per frame not increasing {joins}")
        summaries.append(
            f"N{beam} calls/frame {calls[0]:.3f}->{calls[-1]:.3f},"
            f" joins/frame {joins[0]:.3f}->{joins[-1]:.3f}"
        )
    passed = not problems
    detail = "; ".join(summaries) if passed else "; ".join(problems)
    _report(5, "batching lowers joiner calls per frame", passed, detail)
    assert passed, detail


def test_criterion_6_oracle_error_ordering() -> None:
    report = _nbest_report()
    problems = []
    for segment in BENCH_SEGMENTS:
        cell = report.cells[BenchmarkReport.cell_key(5, segment)]
        if cell["oracle_wer"] > cell["wer"]:
            problems.append(f"S{segment}: oracle error rate above top-1 rate")
    first = report.cells[BenchmarkReport.cell_key(5, BENCH_SEGMENTS[0])]
    last = report.cells[BenchmarkReport.cell_key(5, BENCH_SEGMENTS[-1])]
    if last["oracle_wer"] > first["oracle_wer"] + OWER_SLACK:
        problems.append(
            f"oracle error rate degraded: {first['oracle_wer']:.4f} ->"
            f" {last['oracle_wer']:.4f}"
        )
    passed = not problems
    detail = (
        f"oracle wer S=1 {first['oracle_wer']:.4f}, S=10 {last['oracle_wer']:.4f},"
        f" top-1 wer S=1 {first['wer']:.4f}, S=10 {last['wer']:.4f}"
        f" (slack {OWER_SLACK})"
        if passed
        else "; ".join(problems)
    )
    _report(6, "n-best oracle error never above top-1 error", passed, detail)
    assert passed, detail


def _recursive_distance(ref: tuple, hyp: tuple) -> int:
    @functools.lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        if ref[i] == hyp[j]:
            return solve(i + 1, j + 1)
        return 1 + min(solve(i + 1, j + 1), solve(i, j + 1), solve(i + 1, j))

    return solve(0, 0)


def test_criterion_7_metric_cross_checks() -> None:
    rng = np.random.default_rng(20250707)
    distance_errors = 0
    for _ in range(METRIC_PAIRS):
        ref = tuple(int(v) for v in rng.integers(0, 10, size=rng.integers(0, 13)))
        hyp = tuple(int(v) for v in rng.integers(0, 10, size=rng.integers(0, 13)))
        if edit_distance(ref, hyp) != _recursive_distance(ref, hyp):
            distance_errors += 1
    pairs = []
    lists = []
    for _ in range(50):
        ref = tuple(int(v) for v in rng.integers(0, 10, size=rng.integers(1, 13)))
        hyp = tuple(int(v) for v in rng.integers(0, 10, size=rng.integers(0, 13)))
        pairs.append((ref, hyp))
        lists.append((ref, NBestList(((hyp, -1.0),))))
    pooled_equal = corpus_oracle_wer(lists) == corpus_wer(pairs)
    passed = distance_errors == 0 and pooled_equal
    detail = (
        f"{METRIC_PAIRS} random pairs, {distance_errors} distance mismatches,"
        f" single-entry oracle rate equals top-1 rate: {pooled_equal}"
    )
    _report(7, "metrics match independent implementations", passed, detail)
    assert passed, detail


def test_criterion_8_benchmark_determinism(tmp_path: Path, capsys) -> None:
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"report-{run}.json"
        code = cli_main(
            [
                "bench",
                "--model", str(BENCH_MODEL),
                "--corpus", str(BENCH_CORPUS),
                "--beam-size", "1",
                "--beam-size", "2",
                "--segment-size", "1",
                "--segment-size", "5",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        loaded = json.loads(out_path.read_text(encoding="utf-8"))
        stripped = strip_timing(loaded)
        outputs.append(json.dumps(stripped, sort_keys=True, indent=2))
    capsys.readouterr()
    passed = outputs[0] == outputs[1]
    detail = (
        f"two sweeps serialized to {len(outputs[0])} identical bytes after"
        " removing timing"
        if passed
        else "reports differ after removing timing"
    )
    _report(8, "benchmark reports are reproducible", passed, detail)
    assert passed, detail
