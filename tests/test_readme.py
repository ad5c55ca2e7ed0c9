"""The README's examples, run as written.

The Library block is executed statement by statement, and each
expression with a ``# value`` comment must have that repr.  Each
``$ imptables ...`` example in a ``sh`` block must print the lines shown
under it; a last line ``...`` stands for the rest of the output.
"""

import ast
import re
import shlex
from pathlib import Path

import pytest

from imptables.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def shell_examples():
    """(argv, expected output lines) for every ``$ imptables`` line."""
    examples = []
    for block in blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *output = chunk.splitlines()
            if command.startswith("imptables "):
                examples.append((command, output))
    return examples


def test_library_block_values():
    (block,) = blocks("python")
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        if isinstance(statement, ast.Expr) and comment:
            assert repr(eval(code, namespace)) == comment, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4


@pytest.mark.parametrize(
    "command, expected", shell_examples(), ids=[command for command, _ in shell_examples()]
)
def test_shell_example(capsys, monkeypatch, command, expected):
    for name in ("IMPTABLES_ORDER", "IMPTABLES_SEED", "IMPTABLES_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    if expected[-1:] == ["..."]:
        expected = expected[:-1]
        out = out[: len(expected)]
    assert out == expected


def test_every_shell_example_found():
    assert len(shell_examples()) == 3
