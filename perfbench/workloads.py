"""The four CLI sessions the benchmark runs, and what each call must produce.

A session is a fixed list of `imptables` CLI calls, each started as its own
process, one after another.  Every call carries the exit code its documented
contract requires: 0 verified, 1 counterexample, 2 usage error, 3 budget
exceeded.

The run seed reaches the program only through the argv:

* a `Choice` item is replaced by one of its options, picked by the seed, and
  `perfbench/expected.json` holds the expected stdout of every option, so these
  calls are still checked byte for byte;
* the `SEED` item is replaced by the seed itself (`monoid --seed`).  Such
  output depends on the seed, so only the exit code and the verdict lines are
  checked (see `verdict`).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

SEED = "{seed}"


@dataclass(frozen=True)
class Choice:
    options: tuple[str, ...]


@dataclass(frozen=True)
class Call:
    argv: tuple
    exit: int

    @property
    def seeded(self) -> bool:
        return SEED in self.argv

    def key(self, argv: tuple[str, ...]) -> str:
        """Where expected.json holds the expected stdout of this call as `argv`."""
        return " ".join(self.argv if self.seeded else argv)

    def variants(self) -> list[tuple[str, ...]]:
        """Every argv a seed can turn this call into, the seed token aside."""
        pools = [a.options if isinstance(a, Choice) else (a,) for a in self.argv]
        return list(itertools.product(*pools))


SERIES_NAME = Choice(("t", "f", "u", "g", "r", "s", "g2", "i"))


def _indices(count: int) -> Choice:
    return Choice(tuple(str(i) for i in range(count)))


def session(workload: str, seed: int) -> list[tuple[Call, tuple[str, ...]]]:
    """The workload's calls with the seed applied, in launch order."""
    rng = random.Random(seed)
    out = []
    for call in WORKLOADS[workload]:
        argv = tuple(
            rng.choice(a.options) if isinstance(a, Choice)
            else str(seed) if a == SEED
            else a
            for a in call.argv
        )
        out.append((call, argv))
    return out


WORKLOADS = {
    "monoid": (
        Call(("monoid", "--order", "20", "--seed", SEED), 0),
        Call(("monoid", "--order", "16", "--format", "json", "--seed", SEED), 0),
        Call(("monoid", "--order", "12", "--seed", SEED), 0),
        Call(("monoid", "--order", "20", "--format", "json", "--tamper", "t:5:1",
              "--seed", SEED), 1),
    ),
    "brute": (
        Call(("verify", "--semantics", "3", "--n", "7"), 0),
        Call(("verify", "--semantics", "2", "--n", "9"), 0),
        Call(("colors", "--semantics", "2", "--n", "9"), 0),
    ),
    "deep": (
        Call(("series", "t", "--n", "300"), 0),
        Call(("series", "r", "--n", "300"), 0),
        Call(("verify", "--semantics", "3", "--n", "300", "--budget", "0"), 0),
        Call(("verify", "--semantics", "2", "--n", "300", "--budget", "0"), 0),
    ),
    "queries": (
        Call(("series", "t", "--n", "10"), 0),
        Call(("series", SERIES_NAME, "--n", "12", "--format", "csv"), 0),
        Call(("series", SERIES_NAME, "--n", "20", "--format", "json"), 0),
        Call(("series", SERIES_NAME, "--n", "15", "--format", "bfile"), 0),
        Call(("series", "t", "--n", "0"), 2),
        Call(("table", "--n", "4", "--index", _indices(5)), 0),
        Call(("table", "--n", "6", "--index", _indices(42), "--semantics", "2",
              "--format", "csv"), 0),
        Call(("table", "--n", "5", "--index", _indices(14), "--format", "json"), 0),
        Call(("table", "--n", "10", "--semantics", "3", "--format", "json"), 0),
        Call(("table", "--n", "3", "--index", "9"), 2),
        Call(("verify",), 0),
        Call(("verify", "--semantics", "2"), 0),
        Call(("verify", "--n", "6", "--format", "csv"), 0),
        Call(("verify", "--semantics", "2", "--n", "8", "--format", "json"), 0),
        Call(("colors",), 0),
        Call(("colors", "--n", "4", "--semantics", "2"), 0),
        Call(("colors", "--n", "7", "--semantics", "2", "--format", "csv"), 0),
        Call(("colors", "--n", "6", "--format", "json"), 0),
        Call(("colors", "--n", "10", "--semantics", "3"), 3),
        Call(("monoid", "--order", "8"), 0),
        Call(("monoid", "--order", "8", "--format", "json"), 0),
        Call(("monoid", "--order", "10", "--tamper", "u:3:1"), 1),
        Call(("monoid", "--order", "10", "--tamper", "s:4:-1", "--format", "json"), 1),
        # Known defect at the seed commit: exits 1 with a traceback.
        Call(("monoid", "--order", "12", "--tamper", "t:99:1"), 2),
    ),
}


def verdict(stdout: bytes) -> object:
    """The seed-independent part of a monoid report: every claim's status.

    Plain output keeps each line up to its first colon ("PASS bound[kleene]
    (order 40)", "all claims verified"); json keeps the overall flag and, per
    claim, its name, its flag and whether a witness was given.
    """
    text = stdout.decode("ascii", errors="replace")
    if text.startswith("{"):
        try:
            payload = json.loads(text)
            return [
                payload["verified"],
                [[r["claim"], r["verified"], r["witness"] is not None]
                 for r in payload["reports"]],
            ]
        except (ValueError, KeyError, TypeError):
            return None
    return [line.split(":", 1)[0] for line in text.splitlines()]
