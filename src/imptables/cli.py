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

Exit codes: 0 success or verified, 1 counterexample found, 2 usage
error (including any ValueError the library raises on the arguments,
an --output path that cannot be opened, and output that cannot be
written: a closed pipe, a full disk), 3 brute-force budget exceeded.

Defaults for --order, --seed and --budget can be overridden with the
IMPTABLES_ORDER, IMPTABLES_SEED and IMPTABLES_BUDGET environment
variables; explicit flags always win.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterator, Optional, Sequence, TextIO

from .logic import (
    Bracketing,
    BudgetError,
    Semantics,
    brute_counts,
    bracketing_at,
    color_class_counts,
    format_formula,
    iter_valuations,
    semantics_from_radix,
    truth_column,
)
from .series import SERIES_NAMES, closed_form, series_description

DEFAULT_ORDER = 40
DEFAULT_K_MAX = 6
DEFAULT_SEED = 0

# The count series of each truth value, by radix, in display order.
COUNT_SERIES = {3: {"t": 1, "f": 0, "u": 2}, 2: {"r": 1, "s": 0}}


class CliUsageError(Exception):
    """Bad arguments detected after parsing; maps to exit code 2."""


def run_all(**kwargs) -> list:
    """`monoid.run_all`, imported when called: only the monoid subcommand
    loads the monoid module."""
    from .monoid import run_all

    return run_all(**kwargs)


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise CliUsageError(f"environment variable {name} must be an integer, got {raw!r}")


def _resolve(
    flag_value: Optional[int], env_name: str, fallback: Optional[int]
) -> Optional[int]:
    if flag_value is not None:
        return flag_value
    env_value = _env_int(env_name)
    if env_value is not None:
        return env_value
    return fallback


def _dump_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _output(destination: Optional[str]) -> Iterator[TextIO]:
    if destination is None:
        yield sys.stdout
        return
    try:
        handle = open(destination, "w", encoding="ascii")
    except OSError as exc:
        raise CliUsageError(f"cannot open --output {destination}: {exc.strerror or exc}")
    with handle:
        yield handle


def _emit(text: str, destination: Optional[str]) -> None:
    with _output(destination) as out:
        out.write(text)


# --- series ------------------------------------------------------------------


def _cmd_series(args: argparse.Namespace) -> int:
    n_max = args.n
    if n_max < 1:
        raise CliUsageError(f"--n must be at least 1, got {n_max}")
    series = closed_form(args.name, n_max)
    values = [series.coefficient(n) for n in range(1, n_max + 1)]
    if args.format == "plain":
        text = " ".join(str(v) for v in values) + "\n"
    elif args.format == "csv":
        lines = [f"n,{args.name}"]
        lines += [f"{n},{v}" for n, v in enumerate(values, start=1)]
        text = "\n".join(lines) + "\n"
    elif args.format == "bfile":
        text = "".join(f"{n} {v}\n" for n, v in enumerate(values, start=1))
    else:
        text = _dump_json(
            {
                "series": args.name,
                "description": series_description(args.name),
                "start": 1,
                "coefficients": values,
            }
        )
    _emit(text, args.output)
    return 0


# --- table -------------------------------------------------------------------


def _table_lines(tree: Bracketing, n: int, sem: Semantics, fmt: str) -> Iterator[str]:
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


def _cmd_table(args: argparse.Namespace) -> int:
    sem = semantics_from_radix(args.semantics)
    n = args.n
    if n < 1:
        raise CliUsageError(f"--n must be at least 1, got {n}")
    tree = bracketing_at(n, args.index)
    with _output(args.output) as out:
        out.writelines(_table_lines(tree, n, sem, args.format))
    return 0


# --- verify ------------------------------------------------------------------


def _verify_rows(n_max: int, sem: Semantics, limit: int) -> list[dict]:
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
        candidates = [recurrence, closed_row] + ([brute_row] if brute_row else [])
        agree = all(c == candidates[0] for c in candidates)
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


def _cmd_verify(args: argparse.Namespace) -> int:
    sem = semantics_from_radix(args.semantics)
    n_max = args.n if args.n is not None else (7 if sem.radix == 3 else 9)
    if n_max < 1:
        raise CliUsageError(f"--n must be at least 1, got {n_max}")
    budget = _resolve(args.budget, "IMPTABLES_BUDGET", None)
    limit = sem.brute_budget if budget is None else budget
    rows = _verify_rows(n_max, sem, limit)
    all_agree = all(row["agree"] for row in rows)
    names = COUNT_SERIES[sem.radix]
    if args.format == "plain":
        lines = [
            f"{sem.name} three-way agreement, n <= {n_max} (brute budget {limit})"
        ]
        for row in rows:
            parts = []
            for path in ("brute", "recurrence", "closed"):
                values = row[path]
                if values is None:
                    parts.append(f"{path} skipped")
                else:
                    shown = " ".join(f"{k}={values[k]}" for k in names)
                    parts.append(f"{path} {shown}")
            verdict = "ok" if row["agree"] else "MISMATCH"
            lines.append(f"n={row['n']}: " + " | ".join(parts) + f" -> {verdict}")
        lines.append("all paths agree" if all_agree else "paths disagree")
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        header = "n,t,f,u,g" if sem.radix == 3 else "n,r,s,g"
        lines = [header]
        for row in rows:
            values = [row["recurrence"][k] for k in names]
            lines.append(",".join(map(str, [row["n"], *values, sum(values)])))
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json(
            {"semantics": sem.name, "n_max": n_max, "agree": all_agree, "rows": rows}
        )
    _emit(text, args.output)
    return 0 if all_agree else 1


# --- monoid ------------------------------------------------------------------


def _parse_tamper(raw: Optional[str]) -> Optional[tuple[str, int, int]]:
    if raw is None:
        return None
    parts = raw.split(":")
    if len(parts) != 3:
        raise CliUsageError(
            f"--tamper takes NAME:INDEX:DELTA (e.g. t:3:1), got {raw!r}"
        )
    name, index_text, delta_text = parts
    if name not in SERIES_NAMES or name == "i":
        raise CliUsageError(f"--tamper target must be a count series, got {name!r}")
    try:
        index, delta = int(index_text), int(delta_text)
    except ValueError:
        raise CliUsageError(f"--tamper index and delta must be integers, got {raw!r}")
    if index < 0:
        raise CliUsageError(f"--tamper index must be nonnegative, got {index}")
    return (name, index, delta)


def _witness_value(value) -> object:
    if getattr(value, "denominator", 1) == 1:
        return int(value)
    return str(value)


def _cmd_monoid(args: argparse.Namespace) -> int:
    order = _resolve(args.order, "IMPTABLES_ORDER", DEFAULT_ORDER)
    seed = _resolve(args.seed, "IMPTABLES_SEED", DEFAULT_SEED)
    if order < 2:
        raise CliUsageError(f"--order must be at least 2, got {order}")
    if args.kmax < 2:
        raise CliUsageError(f"--kmax must be at least 2, got {args.kmax}")
    tamper = _parse_tamper(args.tamper)
    if tamper is not None and tamper[1] > order:
        raise CliUsageError(f"--tamper index {tamper[1]} outside orders 0..{order}")
    reports = run_all(order=order, k_max=args.kmax, seed=seed, tamper=tamper)
    all_ok = all(r.verified for r in reports)
    if args.format == "plain":
        lines = []
        if tamper is not None:
            lines.append(
                f"tamper applied: {tamper[0]} coefficient {tamper[1]} shifted by {tamper[2]}"
            )
        lines += [r.summary_line() for r in reports]
        lines.append("all claims verified" if all_ok else "counterexample found")
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "order": order,
            "k_max": args.kmax,
            "seed": seed,
            "tamper": list(tamper) if tamper else None,
            "verified": all_ok,
            "reports": [
                {
                    "claim": r.claim,
                    "detail": r.detail,
                    "order": r.order,
                    "verified": r.verified,
                    "witness": (
                        None
                        if r.witness is None
                        else {
                            "n": r.witness.n,
                            "lhs": _witness_value(r.witness.lhs),
                            "rhs": _witness_value(r.witness.rhs),
                            "context": r.witness.context,
                        }
                    ),
                }
                for r in reports
            ],
        }
        text = _dump_json(payload)
    _emit(text, args.output)
    return 0 if all_ok else 1


# --- colors ------------------------------------------------------------------


def _cmd_colors(args: argparse.Namespace) -> int:
    sem = semantics_from_radix(args.semantics)
    n = args.n
    if n < 2:
        raise CliUsageError(f"--n must be at least 2 (a root split is needed), got {n}")
    budget = _resolve(args.budget, "IMPTABLES_BUDGET", None)
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
    # Only the classical products are shown; the three-valued ones are checked.
    convolutions = products if sem.radix == 2 else None
    if args.format == "plain":
        lines = [f"root-split color classes, n={n} [{sem.name}]"]
        for a, b in keys:
            line = f"left={a} right={b}: {classes[a, b]}"
            if convolutions is not None:
                line += f" (convolution {convolutions[a, b]})"
            lines.append(line)
        lines.append(f"total {sum(classes.values())}")
        if convolutions is not None or not agree:
            lines.append(
                "classes match convolutions" if agree else "MISMATCH with convolutions"
            )
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        header = "left,right,count" + (",convolution" if convolutions is not None else "")
        lines = [header]
        for key in keys:
            row = f"{key[0]},{key[1]},{classes[key]}"
            if convolutions is not None:
                row += f",{convolutions[key]}"
            lines.append(row)
        text = "\n".join(lines) + "\n"
    else:
        text = _dump_json(
            {
                "n": n,
                "semantics": sem.name,
                "classes": [
                    {
                        "left": key[0],
                        "right": key[1],
                        "count": classes[key],
                        "convolution": None if convolutions is None else convolutions[key],
                    }
                    for key in keys
                ],
                "total": sum(classes.values()),
                "agree": agree,
            }
        )
    _emit(text, args.output)
    return 0 if agree else 1


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imptables",
        description=(
            "Truth tables of bracketed implication chains: exact counts, "
            "generating functions, and monoid checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", metavar="PATH", help="write to a file instead of stdout")

    p_series = sub.add_parser("series", help="coefficients of one count series")
    p_series.add_argument("name", choices=SERIES_NAMES)
    p_series.add_argument("--n", type=int, default=10, help="how many coefficients (from n=1)")
    p_series.add_argument(
        "--format", choices=("plain", "csv", "json", "bfile"), default="plain"
    )
    add_output(p_series)
    p_series.set_defaults(handler=_cmd_series)

    p_table = sub.add_parser("table", help="full truth table of one bracketing")
    p_table.add_argument("--n", type=int, required=True, help="number of variables")
    p_table.add_argument("--index", type=int, default=0, help="bracketing index, 0-based")
    p_table.add_argument(
        "--semantics", type=int, choices=(2, 3), default=3, help="2 classical, 3 Kleene"
    )
    p_table.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    add_output(p_table)
    p_table.set_defaults(handler=_cmd_table)

    p_verify = sub.add_parser(
        "verify", help="three-way agreement: brute force, recurrence, closed form"
    )
    p_verify.add_argument("--n", type=int, default=None, help="largest n (default 7 or 9)")
    p_verify.add_argument("--semantics", type=int, choices=(2, 3), default=3)
    p_verify.add_argument(
        "--budget", type=int, default=None, help="largest n for brute force"
    )
    p_verify.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    add_output(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_monoid = sub.add_parser("monoid", help="run the algebraic verification suites")
    p_monoid.add_argument("--order", type=int, default=None, help="truncation order")
    p_monoid.add_argument("--kmax", type=int, default=DEFAULT_K_MAX)
    p_monoid.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_monoid.add_argument(
        "--tamper",
        metavar="NAME:INDEX:DELTA",
        default=None,
        help="corrupt one coefficient first (negative control)",
    )
    p_monoid.add_argument("--format", choices=("plain", "json"), default="plain")
    add_output(p_monoid)
    p_monoid.set_defaults(handler=_cmd_monoid)

    p_colors = sub.add_parser("colors", help="root-split color class counts")
    p_colors.add_argument("--n", type=int, default=4)
    p_colors.add_argument("--semantics", type=int, choices=(2, 3), default=3)
    p_colors.add_argument(
        "--budget", type=int, default=None, help="largest n for brute force"
    )
    p_colors.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    add_output(p_colors)
    p_colors.set_defaults(handler=_cmd_colors)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except (CliUsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # Opening --output is checked in `_output`, so this is a failed write
        # or flush: a closed pipe, a full disk.
        if args.output is None:
            _discard_stdout()
        print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return 2


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
