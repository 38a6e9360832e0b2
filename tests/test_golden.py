"""The CLI's outputs on the bundled tiny pair, and two bench sweeps, compared with recorded files.

``tests/golden/`` holds the ``decode --out`` JSONL at N1/S1, N2/S3 and N4/S5
(nbest equal to the beam), the ``verify`` exit code and lines, and the
``bench`` report with timing stripped for beams 1 and 2 by segments 1 and 3.
``bench_pair.json`` holds the acceptance suite's two sweeps of the bundled
bench pair, timing stripped: beams 1 and 2, and beam 5 with nbest 5, each by
segments 1, 2, 3, 5 and 10. Tokens, counts, keys and PASS/FAIL must match
exactly; floats must match within 1e-12, so a different numpy build does
not fail the test.

After a change that is meant to alter these outputs, rewrite the files with
``PYTHONPATH=src python3 tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from tokenwise.cli import main

from reference import strip_timing
from test_acceptance import _nbest_report, _trend_report

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DATA_DIR = Path(__file__).resolve().parent.parent / "data"
FLOAT_TOLERANCE = 1e-12
DECODE_CELLS = ((1, 1), (2, 3), (4, 5))
BENCH_PAIR = "bench_pair.json"
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one CLI run; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _record(out_dir: Path) -> dict[str, str]:
    """Run every golden command; return each output by its golden file name."""
    pair = ["--model", str(DATA_DIR / "tiny_model.json"),
            "--corpus", str(DATA_DIR / "tiny_corpus.jsonl")]
    outputs = {}
    for beam, segment in DECODE_CELLS:
        name = f"decode_n{beam}s{segment}.jsonl"
        code, _ = _run(["decode", *pair, "--beam-size", str(beam), "--segment-size",
                        str(segment), "--nbest", str(beam), "--out", str(out_dir / name)])
        assert code == 0
        outputs[name] = (out_dir / name).read_text(encoding="utf-8")
    code, out = _run(["verify", *pair])
    outputs["verify.txt"] = f"exit {code}\n{out}"
    code, _ = _run(["bench", *pair, "--beam-size", "1", "--beam-size", "2",
                    "--segment-size", "1", "--segment-size", "3",
                    "--out", str(out_dir / "bench.json")])
    assert code == 0
    report = json.loads((out_dir / "bench.json").read_text(encoding="utf-8"))
    outputs["bench.json"] = json.dumps(strip_timing(report), sort_keys=True, indent=2) + "\n"
    return outputs


def _bench_pair() -> str:
    """The acceptance suite's sweeps, shared with it through their caches."""
    reports = {"nbest": _nbest_report(), "trend": _trend_report()}
    stripped = {
        name: strip_timing(json.loads(report.to_json())) for name, report in reports.items()
    }
    return json.dumps(stripped, sort_keys=True, indent=2) + "\n"


def _parse(name: str, text: str):
    """A golden file as values: JSON, JSON per line, or per line words and numbers."""
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    lines = []
    for line in text.splitlines():
        values: list = []
        position = 0
        for match in _NUMBER.finditer(line):
            number = match.group()
            values.append(line[position:match.start()])
            values.append(float(number) if re.search(r"[.e]", number) else int(number))
            position = match.end()
        lines.append(values + [line[position:]])
    return lines


def _assert_same(actual, expected, where: str) -> None:
    """Equal structure, keys, strings, ints and bools; floats within tolerance."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=FLOAT_TOLERANCE, abs_tol=FLOAT_TOLERANCE), (
            f"{where}: {actual!r} != {expected!r}"
        )
    elif isinstance(expected, dict) and isinstance(actual, dict):
        assert list(actual) == list(expected), f"{where}: keys differ"
        for key in expected:
            _assert_same(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list) and isinstance(actual, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{index}]")
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


def test_cli_outputs_match_the_golden_files(tmp_path: Path) -> None:
    outputs = _record(tmp_path)
    assert sorted([*outputs, BENCH_PAIR]) == sorted(path.name for path in GOLDEN_DIR.iterdir())
    for name, text in outputs.items():
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
        _assert_same(_parse(name, text), _parse(name, golden), name)


def test_bench_sweeps_match_the_golden_file() -> None:
    golden = (GOLDEN_DIR / BENCH_PAIR).read_text(encoding="utf-8")
    _assert_same(_parse(BENCH_PAIR, _bench_pair()), _parse(BENCH_PAIR, golden), BENCH_PAIR)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        recorded = _record(Path(scratch))
    recorded[BENCH_PAIR] = _bench_pair()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in recorded.items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(recorded)} files to {GOLDEN_DIR}")
