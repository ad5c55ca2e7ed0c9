"""Check that the benchmark's own checks and counters can be trusted.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. A corrupted expected stdout, expected exit code or expected verdict is
   counted as a failed call, and an intact one is not.
2. Tracing changes no call's exit code or stdout, and the exact counts of a
   traced session repeat when it is run again, are nonzero, and match values
   worked out by hand.

Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys

from run import BENCH, OUT, run_session
from workloads import SEED, Call

EXACT = (
    "logic.entries",
    "logic.evaluate.calls",
    "recurrences.terms",
    "series.mul.calls",
    "series.mul.coeff_products",
    "series.closed_form.calls",
    "series.sqrt.calls",
    "series.sqrt.useful_ratio",
    "monoid.realize.calls",
    "monoid.realize.hit_ratio",
    "monoid.power.calls",
    "cli.stdout_bytes",
)


def check(label: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    return ok


def main() -> int:
    OUT.mkdir(exist_ok=True)
    expected = json.loads((BENCH / "expected.json").read_text())
    results = []

    series = Call(("series", "t", "--n", "10"), 0)
    usage = Call(("table", "--n", "3", "--index", "9"), 2)
    tamper = Call(("monoid", "--order", "20", "--format", "json", "--tamper", "t:5:1",
                   "--seed", SEED), 1)
    pairs = [
        (series, series.argv),
        (usage, usage.argv),
        (tamper, tamper.argv[:-1] + ("7",)),
    ]
    intact = run_session(pairs, expected, traced=False)
    results.append(check("intact expectations: no call fails", intact["failed"] == 0))

    corrupt = copy.deepcopy(expected)
    corrupt[series.key(series.argv)]["sha256"] = "0" * 64
    corrupt[tamper.key(tamper.argv)]["verdict"][0] = True
    broken = [(series, series.argv), (Call(usage.argv, 0), usage.argv), pairs[2]]
    print("three FAIL lines follow, as intended:")
    result = run_session(broken, corrupt, traced=False)
    results.append(check(
        "corrupted stdout, exit code and verdict: three failed calls, not correct",
        result["failed"] == 3 and not result["correct"],
    ))

    calls = [
        Call(("verify", "--n", "6", "--format", "csv"), 0),
        Call(("table", "--n", "5", "--index", "3", "--format", "json"), 0),
        Call(("monoid", "--order", "8"), 0),
        Call(("colors", "--n", "4", "--semantics", "2"), 0),
    ]
    pairs = [(call, call.argv) for call in calls]
    sessions = [run_session(pairs, expected, traced=True) for _ in range(2)]
    results.append(check(
        "traced calls keep their exit codes and stdout", all(s["failed"] == 0 for s in sessions)
    ))
    first, second = (s["layers"] for s in sessions)
    counts = {name: first[name] for name in EXACT}
    print(json.dumps(counts, indent=1))
    results.append(check(
        "exact counts repeat across two traced sessions",
        all(first[name] == second[name] for name in EXACT),
    ))
    results.append(check("exact counts are nonzero", all(counts.values())))
    # sum over n <= 6 of catalan(n) * 3**n; 3**5 table rows
    results.append(check(
        "logic.entries and logic.evaluate.calls match hand counts",
        counts["logic.entries"] == 34491 and counts["logic.evaluate.calls"] == 243,
    ))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
