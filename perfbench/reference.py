"""A fixed pure-Python process that gauges how fast the host runs right now.

Usage: python3 perfbench/reference.py

On a shared host the same Python code runs up to twice as fast in one second
as in the next, and the mix of fast and slow spells drifts from one minute to
the next.  The benchmark launches this script the way it launches a CLI call,
before the first call of each session and after every call, and scales the
run's times by how long this script took over the run (see run.py).  It does
what a call does, with the standard library only: it starts an interpreter,
imports the modules imptables imports, and multiplies truncated power series
with exact rational coefficients.

The script is part of the benchmark's definition.  Changing it changes the
scale of every time the benchmark reports, so it stays as it is.
"""

from __future__ import annotations

import argparse  # noqa: F401  imported as a CLI call imports it
import dataclasses  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
import math  # noqa: F401
import random  # noqa: F401
import typing  # noqa: F401
from fractions import Fraction


def _series_product(order: int) -> Fraction:
    a = [Fraction(1, k + 2) for k in range(order + 1)]
    b = [Fraction(k + 1, 3 * k + 5) for k in range(order + 1)]
    c = [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(order + 1)]
    return c[-1]


if __name__ == "__main__":
    for _ in range(4):
        _series_product(80)
