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

Each subcommand returns its exit code and the text to write; `main` is
the only code that opens the destination and writes to it.  It opens
--output before the subcommand runs, so a path that cannot be opened
fails at once, and a usage error found after that leaves the file
empty, as a shell redirection does.

Exit codes: 0 success or verified, 1 counterexample found (including
a closed form that expands to a non-integral or negative count: one
error line, nothing on stdout), 2 usage error, 3 budget exceeded (brute
force beyond its budget, or a table of more than TABLE_ROW_LIMIT rows).
Exit 2 is any ValueError: this module raises plain ValueError for its
own usage errors (a setting below its floor, an environment value that
is not an integer, a bad --tamper, an --output path that cannot be
opened), as the library does, so there is no separate usage-error type.
Output that cannot be written (a closed pipe, a full disk) exits 2 too.

Defaults for --order, --seed and --budget can be overridden with the
IMPTABLES_ORDER, IMPTABLES_SEED and IMPTABLES_BUDGET environment
variables; explicit flags always win.  Every integer setting is read by
`_setting`, and a usage error about one names where its value came
from: the flag, or the environment variable.

Each call loads only the modules its subcommand runs.  Every call loads
`series`, whose names the parser offers; `series` loads nothing more,
`table` and `colors` load `logic`, `verify` loads `logic` and
`recurrences`, and `monoid` loads `monoid` (which imports `logic`).
"""

import argparse
import contextlib
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

import imptables

from .series import SERIES_NAMES, ConsistencyError, closed_form, series_description

DEFAULT_ORDER = 40
DEFAULT_K_MAX = 6
DEFAULT_SEED = 0

# `table` refuses a table of more rows than this, before building its
# value column (a byte per row): Kleene n <= 12 and classical n <= 20.
TABLE_ROW_LIMIT = 2**20

# The count series of each truth value, by radix, in display order.
COUNT_SERIES = {3: {"t": 1, "f": 0, "u": 2}, 2: {"r": 1, "s": 0}}

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


def _dump_json(payload: object) -> str:
    # Imported here, not at the top: only json output needs it, and every
    # call would pay for the import.
    import json

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render(fmt: str, payload: object, lines: list[str]) -> list[str]:
    """A whole result as chunks: the canonical json of ``payload``, or the
    ``lines`` of the plain, csv or bfile format, each newline-terminated."""
    if fmt == "json":
        return [_dump_json(payload)]
    return ["\n".join(lines) + "\n"]


# --- series ------------------------------------------------------------------


def _cmd_series(args: argparse.Namespace) -> Result:
    n_max = _setting("--n", args.n, floor=1)
    series = closed_form(args.name, n_max)
    values = [series.coefficient(n) for n in range(1, n_max + 1)]
    lines = []
    if args.format == "plain":
        lines = [" ".join(map(str, values))]
    elif args.format == "csv":
        lines = [f"n,{args.name}"] + [f"{n},{v}" for n, v in enumerate(values, start=1)]
    elif args.format == "bfile":
        lines = [f"{n} {v}" for n, v in enumerate(values, start=1)]
    payload = {
        "series": args.name,
        "description": series_description(args.name),
        "start": 1,
        "coefficients": values,
    }
    return 0, _render(args.format, payload, lines)


# --- table -------------------------------------------------------------------


def _table_lines(tree, n: int, sem, fmt: str) -> Iterator[str]:
    """The table in ``fmt``: a header, one chunk per block of rows that
    share their first ceil(n/2) digits, then a footer, so no format holds
    the table.

    The values come from the tree's `truth_column`; a row's valuation
    text is its block's high-digit text followed by one of the low-digit
    texts, both precomputed.  The json text equals ``_dump_json`` of the
    payload ``{"formula", "n", "rows": [{"valuation", "value"}],
    "semantics"}``: keys sorted (``"valuation"`` before ``"value"``),
    two-space indent, and each valuation digit on its own line.
    """
    from .logic import format_formula, iter_valuations, truth_column

    formula = format_formula(tree)
    # Per format: row start, digit indent, digit separator, row end by
    # value, and the separator between rows.
    if fmt == "plain":
        header, footer = f"{formula}  [{sem.name}]\n", ""
        start, indent, sep, joiner = "", "", " ", ""
        ends = [f" | {v}\n" for v in sem.values]
    elif fmt == "csv":
        header, footer = ",".join(f"p{i}" for i in range(1, n + 1)) + ",value\n", ""
        start, indent, sep, joiner = "", "", ",", ""
        ends = [f",{v}\n" for v in sem.values]
    else:
        import json

        header = f'{{\n  "formula": {json.dumps(formula)},\n  "n": {n},\n  "rows": [\n'
        footer = f'\n  ],\n  "semantics": {json.dumps(sem.name)}\n}}\n'
        start, indent, sep, joiner = '    {\n      "valuation": [\n', "        ", ",\n", ",\n"
        ends = [f'\n      ],\n      "value": {v}\n    }}' for v in sem.values]
    high = (n + 1) // 2
    highs = [
        start + sep.join(f"{indent}{d}" for d in digits)
        for digits in iter_valuations(high, sem)
    ]
    lows = [
        "".join(f"{sep}{indent}{d}" for d in digits)
        for digits in iter_valuations(n - high, sem)
    ]
    column = truth_column(tree, sem)
    yield header
    for block, prefix in enumerate(highs):
        values = column[block * len(lows) : (block + 1) * len(lows)]
        rows = joiner.join([prefix + low + ends[v] for low, v in zip(lows, values)])
        yield (joiner if block else "") + rows
    yield footer


def _cmd_table(args: argparse.Namespace) -> Result:
    from .logic import BudgetError, bracketing_at, semantics_from_radix

    sem = semantics_from_radix(args.semantics)
    n = _setting("--n", args.n, floor=1)
    # The exponent is capped so a huge --n costs no huge power.
    if sem.radix ** min(n, TABLE_ROW_LIMIT.bit_length()) > TABLE_ROW_LIMIT:
        raise BudgetError(
            f"n={n} gives {sem.radix}^{n} {sem.name} table rows, over the row limit "
            f"({TABLE_ROW_LIMIT})"
        )
    # The rows are computed as they are written.
    return 0, _table_lines(bracketing_at(n, args.index), n, sem, args.format)


# --- verify ------------------------------------------------------------------


def _verify_rows(n_max: int, sem, limit: int) -> list[dict]:
    from .logic import brute_counts
    from .recurrences import counts_by_recurrence

    names = COUNT_SERIES[sem.radix]
    table = counts_by_recurrence(n_max, sem)
    closed = {name: closed_form(name, n_max) for name in names}
    rows = []
    for n in range(1, n_max + 1):
        tallies = table.row(n)
        recurrence = {name: tallies[value] for name, value in names.items()}
        closed_row = {name: closed[name].coefficient(n) for name in names}
        brute_row = None
        if n <= limit:
            counts = brute_counts(n, sem, budget=limit)
            brute_row = {name: getattr(counts, name) for name in names}
        agree = closed_row == recurrence and brute_row in (None, recurrence)
        rows.append(
            {
                "n": n,
                "brute": brute_row,
                "recurrence": recurrence,
                "closed": closed_row,
                "agree": agree,
            }
        )
    return rows


def _cmd_verify(args: argparse.Namespace) -> Result:
    from .logic import semantics_from_radix

    sem = semantics_from_radix(args.semantics)
    n_max = _setting("--n", args.n, default=7 if sem.radix == 3 else 9, floor=1)
    limit = _setting("--budget", args.budget, "IMPTABLES_BUDGET", sem.brute_budget, 0)
    rows = _verify_rows(n_max, sem, limit)
    all_agree = all(row["agree"] for row in rows)
    names = COUNT_SERIES[sem.radix]
    if args.format == "csv":
        lines = [",".join(["n", *names, "g"])]
        for row in rows:
            values = [row["recurrence"][k] for k in names]
            lines.append(",".join(map(str, [row["n"], *values, sum(values)])))
    else:
        lines = [f"{sem.name} three-way agreement, n <= {n_max} (brute budget {limit})"]
        for row in rows:
            parts = [
                f"{path} skipped"
                if row[path] is None
                else f"{path} " + " ".join(f"{k}={row[path][k]}" for k in names)
                for path in ("brute", "recurrence", "closed")
            ]
            verdict = "ok" if row["agree"] else "MISMATCH"
            lines.append(f"n={row['n']}: " + " | ".join(parts) + f" -> {verdict}")
        lines.append("all paths agree" if all_agree else "paths disagree")
    payload = {"semantics": sem.name, "n_max": n_max, "agree": all_agree, "rows": rows}
    return (0 if all_agree else 1), _render(args.format, payload, lines)


# --- monoid ------------------------------------------------------------------


def _parse_tamper(raw: str | None) -> tuple[str, int, int] | None:
    if raw is None:
        return None
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"--tamper takes NAME:INDEX:DELTA (e.g. t:3:1), got {raw!r}")
    name, index_text, delta_text = parts
    try:
        index, delta = int(index_text), int(delta_text)
    except ValueError:
        raise ValueError(f"--tamper index and delta must be integers, got {raw!r}")
    return (name, index, delta)


def _witness_json(witness) -> dict | None:
    """A witness with integral sides as ints and fractional ones as strings."""
    if witness is None:
        return None
    lhs, rhs = (
        int(v) if getattr(v, "denominator", 1) == 1 else str(v)
        for v in (witness.lhs, witness.rhs)
    )
    return {"n": witness.n, "lhs": lhs, "rhs": rhs, "context": witness.context}


def _cmd_monoid(args: argparse.Namespace) -> Result:
    from .monoid import run_all

    order = _setting("--order", args.order, "IMPTABLES_ORDER", DEFAULT_ORDER, 2)
    seed = _setting("--seed", args.seed, "IMPTABLES_SEED", DEFAULT_SEED)
    k_max = _setting("--kmax", args.kmax, floor=2)
    tamper = _parse_tamper(args.tamper)
    if tamper is not None and not 0 <= tamper[1] <= order:
        raise ValueError(f"--tamper index {tamper[1]} outside orders 0..{order}")
    reports = run_all(order=order, k_max=k_max, seed=seed, tamper=tamper)
    all_ok = all(r.verified for r in reports)
    lines = [r.summary_line() for r in reports]
    if tamper is not None:
        name, index, delta = tamper
        lines.insert(0, f"tamper applied: {name} coefficient {index} shifted by {delta}")
    lines.append("all claims verified" if all_ok else "counterexample found")
    payload = {
        "order": order,
        "k_max": k_max,
        "seed": seed,
        "tamper": list(tamper) if tamper else None,
        "verified": all_ok,
        "reports": [
            {
                "claim": r.claim,
                "detail": r.detail,
                "order": r.order,
                "verified": r.verified,
                "witness": _witness_json(r.witness),
            }
            for r in reports
        ],
    }
    return (0 if all_ok else 1), _render(args.format, payload, lines)


# --- colors ------------------------------------------------------------------


def _cmd_colors(args: argparse.Namespace) -> Result:
    from .logic import color_class_counts, semantics_from_radix

    sem = semantics_from_radix(args.semantics)
    n = _setting("--n", args.n, floor=2, why=" (a root split is needed)")
    budget = _setting("--budget", args.budget, "IMPTABLES_BUDGET", floor=0)
    classes = color_class_counts(n, sem, budget=budget)
    names = COUNT_SERIES[sem.radix]
    by_value = {value: closed_form(name, n) for name, value in names.items()}
    products = {
        (a, b): (by_value[a] * by_value[b]).coefficient(n)
        for a in sem.values
        for b in sem.values
    }
    keys = sorted(classes, reverse=True)
    agree = all(classes[k] == products[k] for k in keys)
    total = sum(classes.values())
    # Only the classical products are shown; the three-valued ones are checked.
    shown = sem.radix == 2
    rows = [(a, b, classes[a, b], products[a, b] if shown else None) for a, b in keys]
    if args.format == "csv":
        lines = ["left,right,count" + (",convolution" if shown else "")]
        lines += [",".join(map(str, row if shown else row[:3])) for row in rows]
    else:
        lines = [f"root-split color classes, n={n} [{sem.name}]"]
        lines += [
            f"left={a} right={b}: {count}" + (f" (convolution {conv})" if shown else "")
            for a, b, count, conv in rows
        ]
        lines.append(f"total {total}")
        if shown or not agree:
            lines.append("classes match convolutions" if agree else "MISMATCH with convolutions")
    payload = {
        "n": n,
        "semantics": sem.name,
        "classes": [dict(zip(("left", "right", "count", "convolution"), row)) for row in rows],
        "total": total,
        "agree": agree,
    }
    return (0 if agree else 1), _render(args.format, payload, lines)


# --- parser ------------------------------------------------------------------


def _finish(parser: argparse.ArgumentParser, formats: tuple[str, ...], handler) -> None:
    """After a command's own arguments: --format with ``formats``, --output,
    and the handler."""
    parser.add_argument("--format", choices=formats, default="plain")
    parser.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")
    parser.set_defaults(handler=handler)


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
    p_series.add_argument("--n", type=int, default=10, help="how many coefficients (from n=1)")
    _finish(p_series, (*formats, "bfile"), _cmd_series)

    p_table = sub.add_parser("table", help="full truth table of one bracketing")
    p_table.add_argument("--n", type=int, required=True, help="number of variables")
    p_table.add_argument("--index", type=int, default=0, help="bracketing index, 0-based")
    p_table.add_argument(
        "--semantics", type=int, choices=(2, 3), default=3, help="2 classical, 3 Kleene"
    )
    _finish(p_table, formats, _cmd_table)

    p_verify = sub.add_parser(
        "verify", help="three-way agreement: brute force, recurrence, closed form"
    )
    p_verify.add_argument("--n", type=int, help="largest n (default 7 or 9)")
    p_verify.add_argument("--semantics", type=int, choices=(2, 3), default=3)
    p_verify.add_argument("--budget", type=int, help="largest n for brute force")
    _finish(p_verify, formats, _cmd_verify)

    p_monoid = sub.add_parser("monoid", help="run the algebraic verification suites")
    p_monoid.add_argument("--order", type=int, help="truncation order")
    p_monoid.add_argument("--kmax", type=int, default=DEFAULT_K_MAX)
    p_monoid.add_argument("--seed", type=int, help="sampling seed")
    p_monoid.add_argument(
        "--tamper",
        metavar="NAME:INDEX:DELTA",
        help="corrupt one coefficient first (negative control)",
    )
    _finish(p_monoid, ("plain", "json"), _cmd_monoid)

    p_colors = sub.add_parser("colors", help="root-split color class counts")
    p_colors.add_argument("--n", type=int, default=4)
    p_colors.add_argument("--semantics", type=int, choices=(2, 3), default=3)
    p_colors.add_argument("--budget", type=int, help="largest n for brute force")
    _finish(p_colors, formats, _cmd_colors)

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
            code, chunks = args.handler(args)
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
