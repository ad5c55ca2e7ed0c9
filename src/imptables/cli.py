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
returns its exit code and the text to write; `main` is the only code
that opens the destination and writes to it.  It opens --output before
the subcommand runs, so a path that cannot be opened fails at once, and
a usage error found after that leaves the file empty, as a shell
redirection does.

Exit codes: 0 success or verified, 1 counterexample found (including
a closed form that expands to a non-integral or negative count: one
error line, nothing on stdout), 2 usage error, 3 budget exceeded (brute
force beyond its budget, or a table of more than
`commands.table.TABLE_ROW_LIMIT` rows).
Exit 2 is any ValueError: this module raises plain ValueError for its
own usage errors (a setting below its floor, an environment value that
is not an integer, a bad --tamper, an --output path that cannot be
opened), as the library does, so there is no separate usage-error type.
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
call loads this module and `series`, whose names the parser offers, and
then `main` imports the one command module it dispatches to: `series`
loads nothing more, `table` and `colors` load `logic`, `verify` loads
`logic` and `recurrences`, and `monoid` loads `monoid` (which imports
`logic`).  No call loads `fractions` (nor the `decimal` and `numbers`
modules it imports) unless it forms a non-integral value.
"""

import argparse
import contextlib
import importlib
import os
import sys
from collections.abc import Iterable, Sequence

import imptables

from .series import SERIES_NAMES, ConsistencyError

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
    the source: the flag, or the environment variable.
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
    if value is not None and floor is not None and value < floor:
        raise ValueError(f"{source} must be at least {floor}{why}, got {value}")
    return value


def _render(fmt: str, payload: object, lines: list[str]) -> list[str]:
    """A whole result as chunks: the canonical json of ``payload``, or the
    ``lines`` of the plain, csv or bfile format, each newline-terminated."""
    if fmt == "json":
        # Imported here, not at the top: only json output needs it, and every
        # call would pay for the import.
        import json

        return [json.dumps(payload, indent=2, sort_keys=True) + "\n"]
    return ["\n".join(lines) + "\n"]


# --- parser ------------------------------------------------------------------


def _finish(parser: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    """After a command's own arguments: --format with ``formats`` and --output."""
    parser.add_argument("--format", choices=formats, default="plain")
    parser.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imptables",
        description=(
            "Truth tables of bracketed implication chains: exact counts, "
            "generating functions, and monoid checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = ("plain", "csv", "json")

    p_series = sub.add_parser("series", help="coefficients of one count series")
    p_series.add_argument("name", choices=SERIES_NAMES)
    p_series.add_argument("--n", type=int, help="how many coefficients (from n=1)")
    _finish(p_series, (*formats, "bfile"))

    p_table = sub.add_parser("table", help="full truth table of one bracketing")
    p_table.add_argument("--n", type=int, required=True, help="number of variables")
    p_table.add_argument("--index", type=int, help="bracketing index, 0-based")
    p_table.add_argument("--semantics", type=int, choices=(2, 3), help="2 classical, 3 Kleene")
    _finish(p_table, formats)

    p_verify = sub.add_parser(
        "verify", help="three-way agreement: brute force, recurrence, closed form"
    )
    p_verify.add_argument("--n", type=int, help="largest n (default 7 or 9)")
    p_verify.add_argument("--semantics", type=int, choices=(2, 3))
    p_verify.add_argument("--budget", type=int, help="largest n for brute force")
    _finish(p_verify, formats)

    p_monoid = sub.add_parser("monoid", help="run the algebraic verification suites")
    p_monoid.add_argument("--order", type=int, help="truncation order")
    p_monoid.add_argument("--kmax", type=int)
    p_monoid.add_argument("--seed", type=int, help="sampling seed")
    p_monoid.add_argument(
        "--tamper",
        metavar="NAME:INDEX:DELTA",
        help="corrupt one coefficient first (negative control)",
    )
    _finish(p_monoid, ("plain", "json"))

    p_colors = sub.add_parser("colors", help="root-split color class counts")
    p_colors.add_argument("--n", type=int)
    p_colors.add_argument("--semantics", type=int, choices=(2, 3))
    p_colors.add_argument("--budget", type=int, help="largest n for brute force")
    _finish(p_colors, formats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
    except ConsistencyError as exc:
        # A closed form that fails its own count check is a counterexample.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A failed write or flush (a closed pipe, a full disk): an --output
        # path that cannot be opened is a usage error above.
        if args.output is None:
            _discard_stdout()
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except imptables.BudgetError as exc:
        # Named through the package's lazy export, and last: the expression
        # is evaluated (and `logic` loaded) only for an exception that no
        # clause above caught.
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
    sys.exit(main())
