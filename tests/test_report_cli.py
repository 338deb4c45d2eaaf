"""Every documented ``python -m repro.report`` command parses.

The commands in ``README.md``, ``docs/*.md`` (fenced blocks and inline
spans) and the CI workflow go through :func:`repro.report.parse_command`
— parsed, never run — so a doc or CI line that drifts from the CLI
fails here.  CI matrix placeholders expand over every matrix value.
"""

from __future__ import annotations

import itertools
import re
import shlex
from pathlib import Path

from repro.report import MODES, UsageError, parse_command

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
COMMAND = re.compile(r"python -m repro\.report\b([^#`\n]*)")
#: ``--serve ... --chaos SEED``, ``--certify NETWORK[:BOARD]``: syntax, not commands
PLACEHOLDER = re.compile(r"\.\.\.|\b[A-Z]{2,}\b")
MATRIX = re.compile(r"\$\{\{ matrix\.([\w-]+) \}\}|\$REPRO_FAULT_SEED")


def _doc_lines():
    """Fenced-block lines and inline code spans of the markdown docs."""
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        chunks = re.split(r"^```.*$", path.read_text(), flags=re.M)
        for i, chunk in enumerate(chunks):
            if i % 2:
                yield from ((path.name, line) for line in chunk.splitlines())
            else:
                for span in re.findall(r"`([^`]+)`", chunk):
                    yield path.name, " ".join(span.split())


def _expand(args: str, matrix):
    """Every substitution of the CI matrix placeholders in ``args``."""
    keys = [m.group(1) or "fault-seed" for m in MATRIX.finditer(args)]
    for values in itertools.product(*(matrix[k] for k in keys)):
        it = iter(values)
        yield MATRIX.sub(lambda _: next(it), args)


def documented_commands():
    ci = CI.read_text()
    matrix = {
        key: re.findall(r'"([^"]+)"', values)
        for key, values in re.findall(r"^\s+([\w-]+): \[(.*)\]$", ci, re.M)
    }
    lines = [*_doc_lines(), *(("ci.yml", line) for line in ci.splitlines())]
    for where, line in lines:
        for m in COMMAND.finditer(line):
            for args in _expand(m.group(1), matrix):
                argv = shlex.split(args)
                if PLACEHOLDER.search(args) or (
                        argv and argv[-1].lstrip("-") in MODES):
                    continue
                yield where, argv


def test_documented_commands_parse():
    commands = list(documented_commands())
    assert ("ci.yml", ["--verify", "lenet5:A10"]) in commands
    assert sum(where == "ci.yml" for where, _ in commands) >= 30
    assert len(commands) >= 60
    failures = []
    for where, argv in commands:
        try:
            parse_command(argv)
        except UsageError as e:
            failures.append(f"{where}: {' '.join(argv)}: {e}")
    assert not failures, "\n".join(failures)
