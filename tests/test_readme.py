"""README examples: every `$ fqlab ...` line in a fenced block of README.md
is run, and its stdout must equal the lines documented under it, byte for
byte, up to the next blank line, prompt or fence."""

import shlex
from pathlib import Path

import pytest

from fqlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, str]]:
    examples, current, fenced = [], None, False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ fqlab "):
            current = [line[2:], ""]
            examples.append(current)
        elif not line.strip():
            current = None
        elif current is not None:
            current[1] += line + "\n"
    return [tuple(example) for example in examples]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("command,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_stdout(command, expected, capsys):
    main(shlex.split(command)[1:])
    assert capsys.readouterr().out == expected
