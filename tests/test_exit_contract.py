"""The exit-code contract, fuzzed over small command lines.

Every call of `cli.main` exits 0, 1, 2 or 3 and no traceback escapes.
Exit 1 (a counterexample) comes only from a `--tamper` run, since the
library is sound.  On exit 2 or 3 stdout is empty and stderr is one
``error:`` line; a syntax error that argparse rejects itself exits 2
with its usage text and then one ``imptables ...: error:`` line.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import event, given, settings, strategies as st

from imptables.cli import main
from imptables.series import SERIES_NAMES

ENV_NAMES = ("IMPTABLES_ORDER", "IMPTABLES_SEED", "IMPTABLES_BUDGET")


def mostly(valid, invalid):
    """Each of ``valid`` twice as often as each of ``invalid``."""
    return st.sampled_from([*valid, *valid, *invalid])


def flag(name, values):
    """``[name, value]``, or nothing when the drawn value is None."""
    return values.map(lambda v: [] if v is None else [name, str(v)])


# Sizes stay small, so each call takes milliseconds; None leaves a flag out.
SIZES = mostly([None, 2, 3, 4], [1, 0, -1])
SEMANTICS = mostly([None, 2, 3], [4])
TAMPERS = mostly(
    [None, "t:3:1", "t:0:1", "g:3:1", "s:4:-1", "u:2:1", "r:2:1"],
    ["t:99:1", "t:-1:1", "t:3:0", "q:1:1", "i:0:1", "t:3", "t:x:1", "bad"],
)
OPTIONS = {
    "series": [
        mostly(SERIES_NAMES, ["q"]).map(lambda name: [name]),
        flag("--n", mostly([None, 1, 4, 30], [0, -1])),
    ],
    "table": [
        flag("--n", SIZES),
        flag("--index", mostly([None, 0, 1, 4], [50, -1])),
        flag("--semantics", SEMANTICS),
    ],
    "verify": [
        flag("--n", SIZES),
        flag("--semantics", SEMANTICS),
        flag("--budget", SIZES),
    ],
    "monoid": [
        flag("--order", mostly([None, 2, 3, 6], [1, -1])),
        flag("--kmax", mostly([None, 2, 3], [1])),
        flag("--seed", mostly([None, 0, 5], [-1])),
        flag("--tamper", TAMPERS),
    ],
    "colors": [
        flag("--n", SIZES),
        flag("--semantics", SEMANTICS),
        flag("--budget", SIZES),
    ],
}
COMMON = [
    flag("--format", mostly([None, "plain", "csv", "json"], ["bfile", "xml"])),
    flag("--output", mostly([None, None, "out.txt"], ["missing/out.txt"])),
    # An unknown flag, now and then: argparse's own rejection.
    mostly([[], []], [["--bogus"]]),
]
ENV_VALUES = mostly(["", "3", "6"], ["x", "0", "-1"])


@st.composite
def calls(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for option in draw(st.permutations(OPTIONS[command])) + COMMON:
        argv += draw(option)
    env = draw(st.fixed_dictionaries({}, optional=dict.fromkeys(ENV_NAMES, ENV_VALUES)))
    return argv, env


@settings(max_examples=300, deadline=None)
@given(calls())
def test_exit_code_contract(call):
    argv, env = call
    clean = {k: v for k, v in os.environ.items() if k not in ENV_NAMES}
    out, err = io.StringIO(), io.StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.dict(os.environ, {**clean, **env}, clear=True),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        # A relative --output lands in the temporary directory.
        argv = [str(Path(tmp, a)) if a.endswith("out.txt") else a for a in argv]
        try:
            code = main(argv)
            parsed = True
        except SystemExit as exc:
            code, parsed = exc.code, False
    stdout, stderr = out.getvalue(), err.getvalue()
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, env, stderr)
    assert "Traceback" not in stderr
    if code == 1:
        assert "--tamper" in argv, (argv, env, stdout, stderr)
    if code in (2, 3):
        assert stdout == ""
        lines = stderr.splitlines()
        if parsed:
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, env, stderr)
        else:
            assert code == 2
            assert lines[-1].startswith("imptables") and ": error: " in lines[-1], stderr
            assert sum(": error: " in line for line in lines) == 1, stderr
