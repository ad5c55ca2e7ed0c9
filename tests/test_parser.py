"""The command line's help and usage-error text is argparse's own, and
`cli._fast_parse` parses only what argparse parses the same way.

`build_parser` below is the reference: `cli`'s parser as it was written
out by hand, one `add_argument` call per flag, copied verbatim from
before the option table in `cli` stated each flag once.  Built on the
running Python, it gives that release's argparse text, so the comparison
holds on every supported release.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import event, given, settings
from test_exit_contract import calls

from imptables import cli
from imptables.cli import main
from imptables.series import SERIES_NAMES


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


def typed(namespace):
    """A namespace's attributes with each value's type, so 2 differs from True."""
    return {name: (type(value), value) for name, value in vars(namespace).items()}


def exit_and_text(parse, argv):
    """``parse(argv)``'s exit code, stdout and stderr; it must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    # argparse wraps its text to the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([name, "--help"] for name in ("series", "table", "verify", "monoid", "colors")),
    ],
    ids=lambda argv: argv[0] if len(argv) > 1 else "top",
)
def test_help_is_the_reference_text(argv):
    code, out, err = exit_and_text(main, argv)
    want = exit_and_text(build_parser().parse_args, argv)
    assert (code, out, err) == want
    assert code == 0 and out.startswith("usage: imptables")


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "q"],
        ["table"],
        ["table", "--n", "2", "--semantics", "4"],
        ["verify", "--n", "x"],
        ["--bogus"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_usage_error_is_the_reference_text(argv):
    code, out, err = exit_and_text(main, argv)
    assert (code, out, err) == exit_and_text(build_parser().parse_args, argv)
    assert code == 2 and err.startswith("usage: imptables")


@settings(max_examples=500, deadline=None)
@given(calls())
def test_fast_path_agrees_with_argparse(call):
    argv, _ = call
    fast = cli._fast_parse(argv)
    event("fast path" if fast else "argparse")
    if fast is not None:
        assert typed(fast) == typed(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "t", "--n", "3"],
        ["series", "i", "--format", "bfile", "--output", "out.txt", "--n", "1"],
        ["table", "--semantics", "2", "--n", "2", "--index", "0", "--format", "csv"],
        ["verify", "--n", "0"],
        ["monoid", "--tamper", "t:3:-1", "--seed", "+5", "--kmax", "2", "--order", " 7"],
        ["colors"],
    ],
    ids=lambda argv: argv[0],
)
def test_fast_path_takes_the_plain_form(argv):
    fast = cli._fast_parse(argv)
    assert fast is not None
    assert typed(fast) == typed(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "2", "--semantic", "2"],
        ["series", "t", "--n=3"],
        ["table", "--n", "2", "--n", "3"],
        ["series", "t", "name", "s"],
        ["series", "t", "--n", "-1"],
        ["monoid", "--tamper", "-t:3:1"],
        ["series", "--help"],
        ["--help"],
        ["table", "--n", "2", "--semantics", "4"],
        ["series", "q"],
        ["table", "--index", "1"],
        ["verify", "--n", "x"],
        ["series", "t", "--n"],
        ["series"],
        ["series", "t", "--", "--n", "3"],
        ["colors", "--bogus", "1"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "empty",
)
def test_other_forms_fall_through_to_argparse(argv):
    assert cli._fast_parse(argv) is None
