"""The README's examples: each console example whose output it shows in
full, run through ``python -m breakcalc.cli``, and the library example."""

import codecs
import contextlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

#: the exit code of an example by the start of its output (README, "CLI")
EXIT_CODES = {"error: ": 1, "syntax error: ": 2}


def console_examples():
    """(command, output lines) for each ``$ `` line of the README's sh
    blocks, its output running to the next prompt, blank line or block end;
    an output with an elided ``...`` line is not shown in full and is left
    out."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *rest = chunk.split("\n")
            output = []
            for line in rest:
                if not line:
                    break
                output.append(line)
            if "..." not in output:
                examples.append((command, output))
    return examples


def run_example(command: str) -> subprocess.CompletedProcess:
    """command, a ``breakcalc`` line that may read an ``echo`` or
    ``printf --`` argument from a pipe, without a shell."""
    stdin = ""
    if " | " in command:
        feed, command = command.split(" | ")
        program, *args = shlex.split(feed)
        if program == "echo":
            stdin = args[0] + "\n"
        else:
            assert program == "printf" and args[0] == "--"
            stdin = codecs.decode(args[1], "unicode_escape")
    program, *args = shlex.split(command)
    assert program == "breakcalc"
    return subprocess.run([sys.executable, "-m", "breakcalc.cli", *args],
                          input=stdin, capture_output=True, text=True,
                          cwd=ROOT)


EXAMPLES = console_examples()


def test_the_shown_console_examples_are_found():
    commands = [command for command, _ in EXAMPLES]
    assert len(commands) == 5
    assert "breakcalc check samples/b1.bterm" in commands
    assert sum("| breakcalc check -" in c for c in commands) == 2
    assert sum("--experimental-blconv" in c for c in commands) == 2


@pytest.mark.parametrize("command, output", EXAMPLES,
                         ids=[command for command, _ in EXAMPLES])
def test_console_example(command, output):
    proc = run_example(command)
    code = next((c for start, c in EXIT_CODES.items()
                 if output[0].startswith(start)), 0)
    assert proc.returncode == code
    if code:
        assert proc.stderr.splitlines() == output and proc.stdout == ""
    else:
        assert proc.stdout.splitlines() == output and proc.stderr == ""


def test_library_example():
    code = re.search(r"## Library example\n\n```python\n(.*?)```", README,
                     re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "A -> A"
    assert [line.split(" ")[1] for line in lines[1:5]] == [
        "beta", "b-conv", "beta", "beta"]
    assert [line.split(" ")[0] for line in lines[1:5]] == ["0", "1", "2", "3"]
    assert lines[5] == "\\w:A. w"
    assert lines[6].startswith("(")
