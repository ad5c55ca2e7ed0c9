"""``imptables table``: one bracketing's full truth table."""

import argparse
from collections.abc import Iterator

from ..cli import Result, _setting

# `table` refuses a table of more rows than this, before building its
# value column (a byte per row): Kleene n <= 12 and classical n <= 20.
TABLE_ROW_LIMIT = 2**20


def _table_lines(tree, n: int, sem, fmt: str) -> Iterator[str]:
    """The table in ``fmt``: a header, one chunk per block of rows that
    share their first ceil(n/2) digits, then a footer, so no format holds
    the table.

    The values come from the tree's `truth_column`; a row's valuation
    text is its block's high-digit text followed by one of the low-digit
    texts, both precomputed.  The json text equals `_render`'s json of the
    payload ``{"formula", "n", "rows": [{"valuation", "value"}],
    "semantics"}``: keys sorted (``"valuation"`` before ``"value"``),
    two-space indent, and each valuation digit on its own line.
    """
    from ..logic import format_formula, iter_valuations, truth_column

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


def run(args: argparse.Namespace) -> Result:
    from ..logic import BudgetError, bracketing_at, semantics_from_radix

    sem = semantics_from_radix(_setting("--semantics", args.semantics, default=3))
    n = _setting("--n", args.n, floor=1)
    # The exponent is capped so a huge --n costs no huge power.
    if sem.radix ** min(n, TABLE_ROW_LIMIT.bit_length()) > TABLE_ROW_LIMIT:
        raise BudgetError(
            f"n={n} gives {sem.radix}^{n} {sem.name} table rows, over the row limit "
            f"({TABLE_ROW_LIMIT})"
        )
    index = _setting("--index", args.index, default=0)
    # The rows are computed as they are written.
    return 0, _table_lines(bracketing_at(n, index), n, sem, args.format)
