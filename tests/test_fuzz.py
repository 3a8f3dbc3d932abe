"""One-line corruptions of the shipped schedule and complex files. Each
corrupted file must parse, or raise the parser's format error naming the
corrupted line; through the CLI, a failing file is a usage error (exit 2)
naming that line, never a traceback. The corruptions are a fixed list."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from starqec.cli import main
from starqec.complexes import ComplexFormatError, parse_complex
from starqec.scheduling import ScheduleError, parse_schedule

ROOT = Path(__file__).resolve().parent.parent
# file, its parser and format error, and the CLI command that reads it
FILES = {
    "surface17.sched": (ROOT / "src/starqec/schedules/surface17.sched", parse_schedule,
                        ScheduleError, ["schedule", "verify", "--code", "surface17", "--schedule"]),
    "ssd.sched": (ROOT / "src/starqec/schedules/ssd.sched", parse_schedule, ScheduleError,
                  ["schedule", "verify", "--code", "ssd", "--schedule"]),
    "ssd.cplx": (ROOT / "benchmarks/inputs/ssd.cplx", parse_complex, ComplexFormatError,
                 ["code", "info", "--complex-file"]),
}
# a non-integer, a negative, a digit int() refuses, and a value past any range
VALUES = ("x", "-1", "²", "1000000")
CLI_SAMPLE = 12  # failing files per shipped file run through the CLI


def corrupted(text: str):
    """(line number, corrupted text) for every line with content: each field
    dropped, each field replaced by each of ``VALUES``, and the line
    repeated (the copy is the line named)."""
    lines = text.splitlines()
    for i, raw in enumerate(lines):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        variants = [fields[:k] + fields[k + 1:] for k in range(len(fields))]
        variants += [fields[:k] + [v] + fields[k + 1:] for k in range(len(fields)) for v in VALUES]
        for variant in variants:
            yield i + 1, "\n".join(lines[:i] + [" ".join(variant)] + lines[i + 1:]) + "\n"
        yield i + 2, "\n".join(lines[: i + 1] + lines[i:]) + "\n"


@pytest.mark.parametrize("name", FILES)
def test_corrupted_line_parses_or_is_named(name, tmp_path):
    path, parse, error, command = FILES[name]
    failing = []
    for line, text in corrupted(path.read_text(encoding="utf-8")):
        try:
            parse(text)
        except error as exc:
            assert str(exc).startswith(f"line {line}: "), (line, str(exc))
            failing.append((line, text))
    assert len(failing) > 10 * CLI_SAMPLE
    runner = CliRunner()
    for line, text in failing[:: len(failing) // CLI_SAMPLE][:CLI_SAMPLE]:
        bad = tmp_path / path.name
        bad.write_text(text, encoding="utf-8")
        res = runner.invoke(main, [*command, str(bad)])
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), res.output
        assert f"line {line}: " in res.output
