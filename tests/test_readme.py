"""The README's command-line transcripts, checked against real runs.

Each `$ fano64 ...` line in a fenced block is run in a shell from the
repository root, with `fano64` and `python` standing for this
interpreter, and must exit 0 with no stderr.  The lines after it, up to
the next `$` line or the end of the block, are its stdout; a `...` line
matches any run of lines.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fano64

ROOT = Path(__file__).resolve().parent.parent


def readme_examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    output = None
    in_block = False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, output = not in_block, None
        elif in_block and line.startswith("$ fano64 "):
            output = []
            examples.append((line[2:], output))
        elif output is not None:
            output.append(line)
    for _, output in examples:
        while output and not output[-1]:
            output.pop()
    return examples


EXAMPLES = readme_examples()


def test_readme_shows_every_subcommand():
    commands = {command.split()[1] for command, _ in EXAMPLES}
    assert commands == {"bundle", "wps", "toric", "reproduce"}, commands


@pytest.mark.parametrize(("command", "output"), EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_matches_a_real_run(command, output):
    python = shlex.quote(sys.executable)
    shell = command.removeprefix("fano64 ").replace("| python ", f"| {python} ")
    shell = f"{python} -m fano64.cli {shell}"
    src = str(Path(fano64.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        shell,
        shell=True,
        cwd=ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (0, ""), command
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in output)
    assert re.fullmatch(pattern, done.stdout), (command, done.stdout)
