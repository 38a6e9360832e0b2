"""Command-line interface.

Subcommands: ``generate`` builds a seeded model and corpus, ``decode`` runs
one decode configuration over a corpus, ``bench`` sweeps a grid of beam and
segment sizes into a JSON report, and ``verify`` checks the decoding
invariants against the exact oracle on a corpus within its cell budget.

Exit codes: 0 on success, 1 when a verification property fails, 2 for
invalid inputs, inputs too large to fit in memory, or file problems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from .decoder import DecodeConfig
from .harness import (
    check_round_budget,
    corpus_summary,
    decode_corpus,
    generate_corpus,
    load_corpus,
    run_benchmark,
    verify,
)
from .model import (
    DEFAULT_BLANK_PRIOR,
    check_output_path,
    load_model_file,
    write_text_file,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tokenwise",
        description="Segment-batched transducer beam search: data, decoding, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="create a seeded model and corpus")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, default=100)
    gen.add_argument("--vocab-size", type=int, default=16)
    gen.add_argument("--frames-min", type=int, default=90)
    gen.add_argument("--frames-max", type=int, default=110)
    gen.add_argument("--blank-prior", type=float, default=DEFAULT_BLANK_PRIOR)
    gen.add_argument("--model", required=True, help="output model JSON path")
    gen.add_argument("--corpus", required=True, help="output corpus JSONL path")

    dec = sub.add_parser("decode", help="decode a corpus with one configuration")
    dec.add_argument("--model", required=True)
    dec.add_argument("--corpus", required=True)
    dec.add_argument("--beam-size", type=int, default=4)
    dec.add_argument("--segment-size", type=int, default=1)
    dec.add_argument("--nbest", type=int, default=1)
    dec.add_argument("--out", default=None, help="write hypotheses as JSONL here")

    bench = sub.add_parser("bench", help="sweep beam and segment sizes")
    bench.add_argument("--model", required=True)
    bench.add_argument("--corpus", required=True)
    bench.add_argument(
        "--beam-size",
        type=int,
        action="append",
        default=None,
        help="repeatable; default sweeps 1 and 2",
    )
    bench.add_argument(
        "--segment-size",
        type=int,
        action="append",
        default=None,
        help="repeatable; must include 1; default sweeps 1, 2, 3, 5, 10",
    )
    bench.add_argument("--nbest", type=int, default=1)
    bench.add_argument("--repeats", type=int, default=1)
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--out", default=None, help="write the JSON report here")

    ver = sub.add_parser("verify", help="check decoder invariants against the exact oracle")
    ver.add_argument("--model", required=True)
    ver.add_argument("--corpus", required=True)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec, utterances = generate_corpus(
        seed=args.seed,
        count=args.count,
        vocab_size=args.vocab_size,
        frames_range=(args.frames_min, args.frames_max),
        blank_prior=args.blank_prior,
        model_path=args.model,
        corpus_path=args.corpus,
    )
    frames = sum(u.frames for u in utterances)
    tokens = sum(len(u.reference) for u in utterances)
    print(
        f"wrote {args.model} (seeded, vocab {spec['vocab_size']}) and {args.corpus}"
        f" ({len(utterances)} utterances, {frames} frames, {tokens} reference tokens)"
    )
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    model = load_model_file(args.model)
    utterances = load_corpus(args.corpus, model.vocab, model.max_frames)
    config = DecodeConfig(
        beam_size=args.beam_size, segment_size=args.segment_size, nbest=args.nbest
    )
    check_round_budget(model, utterances, config)
    if args.out is not None:
        check_output_path(args.out, args.model, args.corpus)
    started = time.perf_counter()
    results, counters = decode_corpus(model, utterances, config)
    summary = corpus_summary(utterances, results, counters, time.perf_counter() - started)
    lines = [
        json.dumps(
            {
                "id": utt.uid,
                "hypotheses": [
                    {"tokens": list(tokens), "score": score} for tokens, score in result.entries
                ],
            }
        )
        for utt, result in zip(utterances, results)
    ]
    if args.out is not None:
        write_text_file(args.out, "\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    message = f"decoded {len(utterances)} utterances:"
    if summary["calls_per_frame"] is None:
        message += " 0 frames"
    else:
        message += (
            f" calls/frame {summary['calls_per_frame']:.3f},"
            f" joins/frame {summary['joins_per_frame']:.3f},"
            f" frames/sec {summary['timing']['frames_per_second']:.0f}"
        )
    if summary["wer"] is not None:
        message += f", wer {summary['wer']:.4f}"
    print(message, file=sys.stderr)
    return 0


def _column(value: Optional[float], width: int, spec: str) -> str:
    """A right-aligned table cell; ``-`` for a rate the corpus cannot give."""
    return f"{'-' if value is None else format(value, spec):>{width}}"


def _cmd_bench(args: argparse.Namespace) -> int:
    beams = args.beam_size if args.beam_size else [1, 2]
    segments = args.segment_size if args.segment_size else [1, 2, 3, 5, 10]
    if args.out is not None:
        check_output_path(args.out, args.model, args.corpus)
    report = run_benchmark(
        model_path=args.model,
        corpus_path=args.corpus,
        beam_sizes=beams,
        segment_sizes=segments,
        nbest=args.nbest,
        repeats=args.repeats,
        workers=args.workers,
    )
    if args.out is not None:
        report.write(args.out)
    header = f"{'cell':>8} {'wer':>8} {'ower':>8} {'calls/f':>9} {'joins/f':>9} {'frames/s':>10}"
    print(header)
    for key, cell in report.cells.items():
        print(
            f"{key:>8}"
            f" {_column(cell['wer'], 8, '.4f')}"
            f" {_column(cell['oracle_wer'], 8, '.4f')}"
            f" {_column(cell['calls_per_frame'], 9, '.3f')}"
            f" {_column(cell['joins_per_frame'], 9, '.3f')}"
            f" {_column(cell['timing']['frames_per_second'], 10, '.0f')}"
        )
    if args.out is not None:
        print(f"report written to {args.out}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    model = load_model_file(args.model)
    utterances = load_corpus(args.corpus, model.vocab, model.max_frames)
    results = verify(model, utterances)
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        print(f"{mark} {result.name}: {result.detail}")
    return 0 if all(result.passed for result in results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "decode": _cmd_decode,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Every command builds its per-token and per-frame tables before it
        # writes anything, so an input too large for them leaves no output.
        print(f"error: input is too large to fit in memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
