"""``imptables series NAME``: coefficients of one count series."""

import argparse

from ..cli import Result, _render, _setting
from ..series import closed_form, series_description


def run(args: argparse.Namespace) -> Result:
    n_max = _setting("--n", args.n, default=10, floor=1)
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
