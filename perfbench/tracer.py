"""Run one `imptables` CLI call with its layers wrapped in spans.

Usage: PYTHONPATH=src python3 perfbench/tracer.py SPANS.json ARGV...

The call behaves as `imptables ARGV...` does: same stdout, stderr and exit
code.  Before it runs, the public functions of the five modules (logic,
recurrences, series, monoid, cli) are replaced by wrappers in every namespace
that holds them, since cli and monoid import several by name.  The source is
not changed.  Each wrapper records a span (name, start, end, parent) in memory
and counts work from the call's arguments; everything is written to SPANS.json
when the call ends.  One call per process, so no cache or memo outlives it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

from imptables import cli, logic, monoid, recurrences, series

MODULES = (cli, logic, monoid, recurrences, series)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sqrt_inputs: list[str] = []
        self.realized: dict[object, set] = {}  # Realizer -> exponent vectors seen

    def wrap(self, name, fn, count=None):
        """`fn` recording a span per call and, once it returns, `count(args)`."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if count is not None:
                count(*args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        def bound(fn):
            signature = inspect.signature(fn)

            def arguments(*args, **kwargs):
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                return call.arguments

            return arguments

        brute_args = bound(logic.brute_counts)
        recurrence_args = bound(recurrences.counts_by_recurrence)
        counts = self.counts

        def entries(*args, **kwargs):
            a = brute_args(*args, **kwargs)
            counts["logic.entries"] += logic.catalan(a["n"]) * a["sem"].radix ** a["n"]

        def terms(*args, **kwargs):
            counts["recurrences.terms"] += recurrence_args(*args, **kwargs)["n_max"]

        def calls(key):
            def count(*args, **kwargs):
                counts[key] += 1

            return count

        def sqrt_input(self_series):
            counts["series.sqrt.calls"] += 1
            digest = hashlib.sha256(repr(self_series.coeffs).encode()).hexdigest()
            self.sqrt_inputs.append(digest)

        def realize(realizer, element):
            counts["monoid.realize.calls"] += 1
            seen = self.realized.setdefault(realizer, set())
            if element.exponents in seen:
                counts["monoid.realize.hits"] += 1
            seen.add(element.exponents)

        def product(a, b):
            m = min(a.order, b.order)
            counts["series.mul.calls"] += 1
            counts["series.mul.coeff_products"] += (m + 1) * (m + 2) // 2

        functions = {
            logic.brute_counts: self.wrap("logic.brute_counts", logic.brute_counts, entries),
            logic.color_class_counts: self.wrap(
                "logic.color_class_counts", logic.color_class_counts
            ),
            logic.enumerate_bracketings: self.wrap(
                "logic.enumerate_bracketings", logic.enumerate_bracketings
            ),
            logic.evaluate: self.wrap(
                "logic.evaluate", logic.evaluate, calls("logic.evaluate.calls")
            ),
            recurrences.counts_by_recurrence: self.wrap(
                "recurrences.counts_by_recurrence", recurrences.counts_by_recurrence, terms
            ),
            series.closed_form: self.wrap(
                "series.closed_form", series.closed_form, calls("series.closed_form.calls")
            ),
            monoid.run_all: self.wrap("monoid.run_all", monoid.run_all),
            cli.main: self.wrap("cli.main", cli.main),
        }
        for attr in dir(monoid):
            if attr.startswith("verify_"):
                fn = getattr(monoid, attr)
                functions[fn] = self.wrap(f"monoid.claim.{attr[len('verify_'):]}", fn)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and value in functions:
                    setattr(module, attr, functions[value])

        power_series, realizer = series.PowerSeries, monoid.Realizer
        plain_mul = power_series.__mul__
        traced_mul = self.wrap("series.mul", plain_mul, product)

        def mul(a, b):
            if isinstance(b, power_series):
                return traced_mul(a, b)
            return plain_mul(a, b)

        power_series.__mul__ = mul
        power_series.sqrt = self.wrap("series.sqrt", power_series.sqrt, sqrt_input)
        realizer.__init__ = self.wrap("monoid.realizer_init", realizer.__init__)
        realizer.realize = self.wrap("monoid.realize", realizer.realize, realize)
        realizer.power = self.wrap(
            "monoid.power", realizer.power, calls("monoid.power.calls")
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": self.counts,
                    "sqrt_inputs": self.sqrt_inputs,
                },
                handle,
            )


def run(path: str, argv: list[str]) -> None:
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.write(path)
    sys.exit(code)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2:])
