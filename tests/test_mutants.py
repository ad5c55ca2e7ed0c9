"""The mutant generator of the mutation gate, `mutants/run.py`, on a fixed snippet."""

import ast
import importlib.util
from pathlib import Path

GATE = Path(__file__).resolve().parent.parent / "mutants" / "run.py"
spec = importlib.util.spec_from_file_location("mutation_gate", GATE)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)

SNIPPET = '''"""A module docstring: 1 < 2 and f(3 + 4)."""


def clamp(x, low=0):
    """A function docstring: 5 * 6 and g()."""
    if x < low and x != -1:
        log(x)
        log(x)
    label = "≤" * 2
    return x + 2 * 3


class Box:
    def area(self):
        return self.side * self.side

    def shown(self, x):
        return f"{x + 1}"
'''

EXPECTED = [
    "snippet.py:clamp:literal: 0 -> 1",
    "snippet.py:clamp:boolean: x < low and x != -1 -> x != -1",
    "snippet.py:clamp:boolean: x < low and x != -1 -> x < low",
    "snippet.py:clamp:relational: x < low -> x <= low",
    "snippet.py:clamp:relational: x != -1 -> x == -1",
    "snippet.py:clamp:literal: -1 -> -2",
    "snippet.py:clamp:call: log(x) -> pass",
    "snippet.py:clamp:call: log(x) -> pass [2]",
    'snippet.py:clamp:arithmetic: "≤" * 2 -> "≤" // 2',
    'snippet.py:clamp:literal: "≤" * 2 -> "≤" * 3',
    "snippet.py:clamp:arithmetic: x + 2 * 3 -> x - 2 * 3",
    "snippet.py:clamp:arithmetic: 2 * 3 -> 2 // 3",
    "snippet.py:clamp:literal: 2 * 3 -> 3 * 3",
    "snippet.py:clamp:literal: 2 * 3 -> 2 * 4",
    "snippet.py:Box.area:arithmetic: self.side * self.side -> self.side // self.side",
]


def test_each_operator_yields_its_mutants():
    # Nothing in a docstring or an f-string is mutated.
    assert [id for id, *_ in gate.generate(SNIPPET, "snippet.py")] == EXPECTED


def test_each_mutant_parses_and_replaces_one_span():
    swaps = set(gate.SWAPS.values())
    for id, start, end, new in gate.generate(SNIPPET, "snippet.py"):
        old = SNIPPET[start:end]
        mutated = SNIPPET[:start] + new + SNIPPET[end:]
        ast.parse(mutated)
        operator = id.split(":")[2]
        if operator in ("relational", "arithmetic"):
            assert (old, new) in swaps
        elif operator == "literal":
            assert new == str(int(old) + 1)
        elif operator == "call":
            assert (old, new) == ("log(x)", "pass")
        else:
            assert (old, new) in {("x < low and x != -1", "x != -1"), ("x < low and x != -1", "x < low")}


def test_ids_survive_an_edit_to_another_function():
    edited = SNIPPET.replace("\n\ndef clamp", "\n\ndef added(y):\n    return y - 1\n\n\ndef clamp")
    original = gate.generate(SNIPPET, "snippet.py")
    kept = [m for m in gate.generate(edited, "snippet.py") if ":added:" not in m[0]]
    assert [m[0] for m in kept] == EXPECTED
    # Every mutant moved by the length of the inserted function.
    shift = len(edited) - len(SNIPPET)
    assert [m[1] - shift for m in kept] == [m[1] for m in original]
