"""Every subcommand and format, and each kind of failure, pinned byte for
byte: stdout, stderr and the exit code.

The cases are listed in ``golden/cases.json``.  Each names its argv, the
exit code, the stderr text and the file holding its stdout (``null`` for
none); some set environment variables or patch one library function
first.  The goldens were recorded once and are never regenerated by a
test: a change to any of them is a change to the command line.
"""

import json
from pathlib import Path

import pytest

from imptables.cli import main
from imptables.series import PowerSeries, _radicals, closed_form

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def bent_t(name, order):
    """`closed_form` with one coefficient of t off by one, so a check
    against the closed forms has something to catch."""
    series = closed_form(name, order)
    if name != "t":
        return series
    coeffs = list(series.coeffs)
    coeffs[2] += 1
    return PowerSeries(coeffs)


def bent_w(logic, order):
    """`_radicals` with one coefficient of the three-valued w off by one,
    so the three-valued closed forms expand to non-integral counts."""
    s, w = _radicals(logic, order)
    if logic != "kleene":
        return s, w
    coeffs = list(w.coeffs)
    coeffs[2] += 1
    return s, PowerSeries(coeffs)


PATCHES = {
    "bent_t": ("imptables.commands.colors.closed_form", bent_t),
    "bent_w": ("imptables.series._radicals", bent_w),
}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(capsys, monkeypatch, case):
    for name in ("IMPTABLES_ORDER", "IMPTABLES_SEED", "IMPTABLES_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    for name, value in case.get("env", {}).items():
        monkeypatch.setenv(name, value)
    if "patch" in case:
        monkeypatch.setattr(*PATCHES[case["patch"]])
    code = main(case["argv"].split())
    captured = capsys.readouterr()
    stdout = (GOLDEN / case["stdout"]).read_text() if case["stdout"] else ""
    assert (code, captured.out, captured.err) == (case["code"], stdout, case["stderr"])
