"""Every subcommand and format, and each kind of failure, pinned byte for
byte: stdout, stderr and the exit code.

The cases are listed in ``golden/cases.json``.  Each names its argv, the
exit code, the stderr text and the file holding its stdout (``null`` for
none); some set environment variables or patch one library function
first.  The goldens were recorded once and are never regenerated by a
test: a change to any of them is a change to the command line.

Every case runs in process through `cli.main`.  Some unpatched cases also
run as ``python -m imptables`` processes, through `cli.entry` and the
interpreter's exit, against the same recorded output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imptables
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


SRC = str(Path(imptables.__file__).resolve().parent.parent)
# One case per subcommand and per exit code (0, 1, 2, 3), one of them set
# through the environment.
PROCESS_CASES = (
    "series_t_plain.txt",
    "table_n3_index1_kleene_json.json",
    "verify_n4_budget2.txt",
    "monoid_order8_kmax2_tamper_t.txt",
    "colors_n4_classical_csv.csv",
    "error_series_n0",
    "error_env_order",
    "budget_colors_kleene_n10",
)
ENV_NAMES = ("IMPTABLES_ORDER", "IMPTABLES_SEED", "IMPTABLES_BUDGET")

PATCHES = {
    "bent_t": ("imptables.series.closed_form", bent_t),
    "bent_w": ("imptables.series._radicals", bent_w),
}


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(capsys, monkeypatch, case):
    for name in ENV_NAMES:
        monkeypatch.delenv(name, raising=False)
    for name, value in case.get("env", {}).items():
        monkeypatch.setenv(name, value)
    if "patch" in case:
        monkeypatch.setattr(*PATCHES[case["patch"]])
    code = main(case["argv"].split())
    captured = capsys.readouterr()
    stdout = (GOLDEN / case["stdout"]).read_text() if case["stdout"] else ""
    assert (code, captured.out, captured.err) == (case["code"], stdout, case["stderr"])


@pytest.mark.parametrize(
    "case",
    [case for case in CASES if case["name"] in PROCESS_CASES],
    ids=lambda case: case["name"],
)
def test_golden_as_a_process(case):
    env = {name: value for name, value in os.environ.items() if name not in ENV_NAMES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "imptables", *case["argv"].split()],
        capture_output=True,
        text=True,
        env={**env, **case.get("env", {})},
        timeout=60,
    )
    stdout = (GOLDEN / case["stdout"]).read_text() if case["stdout"] else ""
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["code"], stdout, case["stderr"])
