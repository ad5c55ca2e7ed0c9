"""Command-line front end.

Subcommands:

    series  NAME    coefficients of one count series (t f u g r s g2 i)
    table           one bracketing's full truth table
    verify          brute force vs recurrence vs closed form, per n
    monoid          the algebraic verification suites
    colors          root-split color classes, with convolutions in
                    classical mode

Formats: plain (default), csv, json, bfile where meaningful.  The json
dumps are canonical (sorted keys, two-space indent, trailing newline),
so parsing and re-serializing them is byte-identical.

Each subcommand is a module of `imptables.commands` whose ``run(args)``
returns its exit code and the chunks of text to write; `main` is the
only code that opens the destination and writes to it.  It opens
--output before the subcommand runs, so a path that cannot be opened
fails at once, and a usage error found after that leaves the file
empty, as a shell redirection does.

Every text format streams: plain, csv and bfile output is written one
line per chunk (the `table` command one block of rows per chunk), and
the long reports (`verify`, `series` csv and bfile, `table`) format
each line only as it is written, so a call's memory does not grow with
its text.  A json result is one chunk, `json.dumps` of the payload.
A subcommand finishes everything that can fail, its exit code included,
before it returns, so the chunks only format what is already computed.

Exit codes: 0 success or verified, 1 counterexample found, 2 usage
error, 3 budget exceeded (brute force beyond its budget, or a table of
more than `commands.table.TABLE_ROW_LIMIT` rows).  A route that fails
its own check is a counterexample too: a closed form that expands to a
non-integral or negative count (`ConsistencyError`), or a recurrence
step whose halving is not exact.  Both are `ArithmeticError`s, and
`main` maps every `ArithmeticError` to exit 1, with one error line and
nothing on stdout.
Exit 2 is any ValueError: this module raises plain ValueError for its
own usage errors (a setting below its floor, an environment value that
is not an integer, a bad --tamper, an --output path that cannot be
opened), as the library does, so there is no separate usage-error type.
A setting's floor is checked by the library's one integer rule,
`imptables._check_int`, so "--n must be at least 1, got 0" has the same
wording as "n must be at least 1, got 0" from `catalan(0)`.
Output that cannot be written (a closed pipe, a full disk) exits 2 too.

Defaults for --order, --seed and --budget can be overridden with the
IMPTABLES_ORDER, IMPTABLES_SEED and IMPTABLES_BUDGET environment
variables; explicit flags always win.  Every integer setting is read by
`_setting`, which is also the one place a default is applied (the parser
sets none), and a usage error about one names where its value came
from: the flag, or the environment variable.  This module states no
library decision: the monoid defaults are `monoid.DEFAULT_ORDER`,
`DEFAULT_K_MAX` and `DEFAULT_SEED` (`run_all`'s own), the brute-force
budget is the semantics' `brute_budget`, and which truth value each
count series counts is `series.SERIES_VALUES`.

Each call loads and compiles only the code its subcommand runs.  Every
call loads this module, and `main` imports the one command module it
dispatches to: `series` loads `series`, `table` loads `logic`, `colors`
loads `logic` and, once brute force is within its budget, `series`,
`verify` loads `logic`, `recurrences` and `series`, and `monoid` loads
`monoid` (which imports `logic` and `series`).  No call loads
`fractions` (nor the `decimal` and `numbers` modules it imports) unless
it forms a non-integral value.

Each subcommand's arguments are stated once, in `COMMANDS`.  `main`
first reads argv with `_fast_parse`, which takes only the plain form
(exact long flags, each once, with valid values) and imports nothing.
Any other argv goes unchanged to argparse, built from the same table,
so no call loads `argparse` (nor the `gettext` and `locale` modules it
imports) unless it asks for help or makes a usage error, and help and
usage-error text are argparse's own.

`entry`, which the ``imptables`` script and ``python -m imptables`` run,
calls `gc.freeze()` before `main`: the start-up heap (the interpreter's
modules, `site`'s imports and this module) moves to the permanent
generation, so neither a collection during the call nor the full one at
interpreter exit scans it again.  Objects the call creates are collected
as usual.  `main` leaves the collector alone, so in-process callers keep
their own GC state.
"""

import contextlib
import gc
import importlib
import os
import sys
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

import imptables

# A subcommand's exit code and the chunks of text it writes.
Result = tuple[int, Iterable[str]]


def _setting(
    flag: str,
    value: int | None,
    env: str | None = None,
    default: int | None = None,
    floor: int | None = None,
    why: str = "",
) -> int | None:
    """One integer setting: the flag's value if given, else the environment
    variable ``env`` if set and nonempty, else ``default``.

    A value below ``floor`` (``why`` says why the floor is there) or an
    environment value that is not an integer is a usage error naming
    the source: the flag, or the environment variable.  The floor is
    checked by `imptables._check_int` with the source as the name, the
    rule every library entry point applies to its integer arguments.
    """
    source = flag
    raw = os.environ.get(env, "") if env and value is None else ""
    if raw:
        source = f"environment variable {env}"
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{source} must be an integer, got {raw!r}")
    elif value is None:
        value = default
    if value is not None and floor is not None:
        imptables._check_int(source, value, floor, why)
    return value


def _render(fmt: str, payload: object, lines: Iterable[str]) -> Iterable[str]:
    """A result as chunks: the canonical json of ``payload`` as one chunk,
    or the ``lines`` of the plain, csv or bfile format, one newline-terminated
    chunk per line.

    The text chunks are made as `main` writes them, so a text report is
    never held whole, and ``lines`` may be a generator that formats each
    line only then.  Such a generator must only format: anything that can
    fail (a setting, a budget, a check, the verdict behind the exit code)
    is done before it is made, or a failure would leave part of a report
    written.
    """
    if fmt == "json":
        # Imported here, not at the top: only json output needs it, and every
        # call would pay for the import.
        import json

        return [json.dumps(payload, indent=2, sort_keys=True) + "\n"]
    return (line + "\n" for line in lines)


# --- command line ------------------------------------------------------------


def _finish(formats: tuple[str, ...]) -> dict[str, dict]:
    """A command's last two arguments: --format with ``formats`` and --output."""
    return {
        "--format": {"choices": formats, "default": "plain"},
        "--output": {"metavar": "PATH", "help": "write to a file instead of stdout"},
    }


FORMATS = ("plain", "csv", "json")
SEMANTICS = {"type": int, "choices": (2, 3)}
BUDGET = {"type": int, "help": "largest n for brute force"}
# The command line, stated once: each subcommand's help and its arguments
# in order, as the name and keywords `add_argument` takes.  `build_parser`
# builds argparse's parser from it, and `_fast_parse` reads it.  Choices
# given as a function are looked up when needed, so only a call that names
# a series loads `series`.
COMMANDS = {
    "series": ("coefficients of one count series", {
        "name": {"choices": lambda: imptables.SERIES_NAMES},
        "--n": {"type": int, "help": "how many coefficients (from n=1)"},
        **_finish((*FORMATS, "bfile")),
    }),
    "table": ("full truth table of one bracketing", {
        "--n": {"type": int, "required": True, "help": "number of variables"},
        "--index": {"type": int, "help": "bracketing index, 0-based"},
        "--semantics": {**SEMANTICS, "help": "2 classical, 3 Kleene"},
        **_finish(FORMATS),
    }),
    "verify": ("three-way agreement: brute force, recurrence, closed form", {
        "--n": {"type": int, "help": "largest n (default 7 or 9)"},
        "--semantics": SEMANTICS,
        "--budget": BUDGET,
        **_finish(FORMATS),
    }),
    "monoid": ("run the algebraic verification suites", {
        "--order": {"type": int, "help": "truncation order"},
        "--kmax": {"type": int},
        "--seed": {"type": int, "help": "sampling seed"},
        "--tamper": {
            "metavar": "NAME:INDEX:DELTA",
            "help": "corrupt one coefficient first (negative control)",
        },
        **_finish(("plain", "json")),
    }),
    "colors": ("root-split color class counts", {
        "--n": {"type": int}, "--semantics": SEMANTICS, "--budget": BUDGET, **_finish(FORMATS)
    }),
}


def _choices(keywords: dict) -> object:
    """An argument's choices, or None; choices given as a function are its result."""
    choices = keywords.get("choices")
    return choices() if callable(choices) else choices


def build_parser():
    """argparse's parser for `COMMANDS`; `main` needs it only for help and
    usage errors, so argparse is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="imptables",
        description=(
            "Truth tables of bracketed implication chains: exact counts, "
            "generating functions, and monoid checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, keywords in arguments.items():
            command_parser.add_argument(name, **{**keywords, "choices": _choices(keywords)})
    return parser


def _fast_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """``argv`` parsed as argparse parses it, if it has the one plain form
    read here: a subcommand, `series`' name, then exact long flags, each
    given once with a value that does not start with "-" and passes the
    flag's type and choices, every required flag among them.  None for any
    other argv, which `main` hands to argparse unchanged."""
    command, *rest = argv or [""]
    if command not in COMMANDS:
        return None
    arguments = COMMANDS[command][1]
    names = [name for name in arguments if not name.startswith("-")]
    texts = rest[: len(names)] + rest[len(names) + 1 :: 2]
    names += rest[len(names) :: 2]
    # A flag named like the positional repeats it.
    if len(names) != len(texts) or len(set(names)) != len(names):
        return None
    values = {name.lstrip("-"): keywords.get("default") for name, keywords in arguments.items()}
    for name, text in zip(names, texts):
        keywords = arguments.get(name)
        if keywords is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        choices = _choices(keywords)
        if choices is not None and value not in choices:
            return None
        values[name.lstrip("-")] = value
    if any(keywords.get("required") and name not in names for name, keywords in arguments.items()):
        return None
    return SimpleNamespace(command=command, **values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_parse(argv) or build_parser().parse_args(argv)
    try:
        if args.output is None:
            destination = contextlib.nullcontext(sys.stdout)
        else:
            try:
                destination = open(args.output, "w", encoding="ascii")
            except OSError as exc:
                raise ValueError(f"cannot open --output {args.output}: {exc.strerror or exc}")
        with destination as out:
            command = importlib.import_module(f".commands.{args.command}", __package__)
            code, chunks = command.run(args)
            out.writelines(chunks)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A failed write or flush (a closed pipe, a full disk): an --output
        # path that cannot be opened is a usage error above.
        if args.output is None:
            _discard_stdout()
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # A route failed its own check (a closed form's `ConsistencyError`,
        # the recurrence's halving): a counterexample.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Named through the package's lazy export, and last: the expression is
    # evaluated (and `logic` loaded) only for an exception that no clause
    # above caught.
    except imptables.BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device.

    The unwritten rest of stdout's buffer is flushed again at interpreter
    exit; this lets that flush succeed instead of printing an "Exception
    ignored" report and changing the exit status.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def entry() -> None:
    """The ``imptables`` script and ``python -m imptables``: freeze the
    start-up heap, run `main` on ``sys.argv`` and exit with its code."""
    # The start-up heap holds no garbage cycles, so no collection needs to
    # scan it, the full one at interpreter exit included.  Here and not in
    # `main`, whose in-process callers keep their own GC state; not
    # `gc.disable()`, since json output leaves reference cycles to collect.
    gc.freeze()
    sys.exit(main())
