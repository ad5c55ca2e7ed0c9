import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imptables
import imptables.logic as logic
import imptables.recurrences as recurrences
from imptables.cli import main
from imptables.logic import (
    CountVector,
    brute_counts,
    catalan,
    enumerate_bracketings,
    evaluate,
    format_formula,
    iter_valuations,
    semantics_from_radix,
)
from imptables.monoid import run_all
from imptables.recurrences import counts_by_recurrence
from imptables.series import SERIES_VALUES, closed_form, series_description


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeries:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "series", "u", "--n", "3")
        assert code == 0
        assert out == "1 3 18\n"

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "series", "g", "--n", "3", "--format", "bfile")
        assert code == 0
        assert out == "1 3\n2 9\n3 54\n"

    def test_identity_series(self, capsys):
        code, out, _ = run(capsys, "series", "i", "--n", "2")
        assert code == 0
        assert out == "0 0\n"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "series", "r", "--n", "4", "--format", "csv")
        assert code == 0
        assert out == "n,r\n1,1\n2,3\n3,12\n4,61\n"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "series", "t", "--n", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == [1, 5, 30, 229, 1938]
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_default_n_is_10(self, capsys):
        code, out, _ = run(capsys, "series", "t")
        assert code == 0
        assert out == "1 5 30 229 1938 17530 165852 1621133 16242474 165923854\n"

    def test_unknown_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "q", "--n", "3"])
        assert exc.value.code == 2

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "series", "u", "--n", "0")
        assert code == 2
        assert "at least 1" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "u.txt"
        code, out, _ = run(capsys, "series", "u", "--n", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "1 3 18\n"


class TestTable:
    def test_plain_two_variables(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2", "--index", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "(p1=>p2)  [kleene]"
        assert len(lines) == 1 + 9
        assert "1 0 | 0" in lines

    def test_single_variable(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "1")
        assert code == 0
        assert out.splitlines() == ["p1  [kleene]", "0 | 0", "1 | 1", "2 | 2"]

    def test_classical_row_count(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3", "--index", "1", "--semantics", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "((p1=>p2)=>p3)  [classical]"
        assert len(lines) == 1 + 8

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "table", "--n", "2", "--semantics", "2", "--format", "csv"
        )
        assert code == 0
        assert out == "p1,p2,value\n0,0,1\n0,1,1\n1,0,0\n1,1,1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["formula"] == "(p1=>p2)"
        assert len(payload["rows"]) == 9
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    @pytest.mark.parametrize("semantics", [2, 3])
    def test_streamed_output_matches_whole_renderings(
        self, capsys, tmp_path, semantics
    ):
        # The expected texts are built whole, as the command built them
        # before it streamed its rows.
        sem = semantics_from_radix(semantics)
        for n in range(1, 6):
            for index, tree in enumerate(enumerate_bracketings(n)):
                formula = format_formula(tree)
                rows = [(v, evaluate(tree, v, sem)) for v in iter_valuations(n, sem)]
                expected = {
                    "plain": "\n".join(
                        [f"{formula}  [{sem.name}]"]
                        + [" ".join(map(str, v)) + f" | {value}" for v, value in rows]
                    )
                    + "\n",
                    "csv": "\n".join(
                        [",".join(f"p{i}" for i in range(1, n + 1)) + ",value"]
                        + [",".join(map(str, v)) + f",{value}" for v, value in rows]
                    )
                    + "\n",
                    "json": json.dumps(
                        {
                            "formula": formula,
                            "n": n,
                            "semantics": sem.name,
                            "rows": [
                                {"valuation": list(v), "value": value} for v, value in rows
                            ],
                        },
                        indent=2,
                        sort_keys=True,
                    )
                    + "\n",
                }
                for fmt, text in expected.items():
                    argv = ["table", "--n", str(n), "--index", str(index),
                            "--semantics", str(semantics), "--format", fmt]
                    assert run(capsys, *argv) == (0, text, "")
                    target = tmp_path / f"table.{fmt}"
                    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
                    assert target.read_text() == text

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "table", "--n", "3", "--index", "2")
        assert code == 2
        assert "valid indices 0..1" in err

    @pytest.mark.parametrize("n", [1, 6, 7])
    def test_blocks_at_the_digit_split_edges(self, capsys, n):
        # n = 1 has no low digits; n = 6 splits evenly, n = 7 does not.
        sem = semantics_from_radix(2)
        for index in (0, catalan(n) - 1):
            tree = enumerate_bracketings(n)[index]
            formula = format_formula(tree)
            rows = [(v, evaluate(tree, v, sem)) for v in iter_valuations(n, sem)]
            expected = {
                "plain": f"{formula}  [classical]\n"
                + "".join(" ".join(map(str, v)) + f" | {value}\n" for v, value in rows),
                "csv": ",".join(f"p{i}" for i in range(1, n + 1)) + ",value\n"
                + "".join(",".join(map(str, v)) + f",{value}\n" for v, value in rows),
                "json": json.dumps(
                    {
                        "formula": formula,
                        "n": n,
                        "semantics": "classical",
                        "rows": [{"valuation": list(v), "value": value} for v, value in rows],
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n",
            }
            for fmt, text in expected.items():
                argv = ["table", "--n", str(n), "--index", str(index),
                        "--semantics", "2", "--format", fmt]
                assert run(capsys, *argv) == (0, text, "")

    def test_builds_only_the_requested_tree(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("table enumerated the bracketings")

        monkeypatch.setattr(logic, "enumerate_bracketings", refuse)
        monkeypatch.setattr(logic, "_bracketings", refuse)
        code, out, _ = run(
            capsys, "table", "--n", "13", "--index", "0", "--semantics", "2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 2**13
        assert lines[-1] == "1,1,1,1,1,1,1,1,1,1,1,1,1,1"

    @pytest.mark.parametrize("argv", [("--n", "20"), ("--n", "21", "--semantics", "2")])
    def test_row_limit_checked_before_any_column(self, capsys, monkeypatch, argv):
        # A column is a byte per row, so an unguarded Kleene n = 20 would
        # allocate 3.5 GB; here it would reach the patched function instead.
        def refuse(*args):
            raise AssertionError("truth_column called past the row limit")

        monkeypatch.setattr(logic, "truth_column", refuse)
        code, out, err = run(capsys, "table", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "row limit" in err

    def test_row_limit_bounds(self, capsys, monkeypatch):
        from imptables.commands import table

        # Every table size in use (the benchmark's Kleene n = 10, the
        # classical n = 13 above) is within the limit.
        assert max(3**10, 2**13) <= table.TABLE_ROW_LIMIT
        monkeypatch.setattr(table, "TABLE_ROW_LIMIT", 9)
        assert run(capsys, "table", "--n", "2")[0] == 0
        assert run(capsys, "table", "--n", "3", "--semantics", "2")[0] == 0
        assert run(capsys, "table", "--n", "3") == (
            3, "", "error: n=3 gives 3^3 kleene table rows, over the row limit (9)\n"
        )


class TestModuleEntry:
    def test_python_dash_m(self):
        src = str(Path(imptables.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "imptables", "series", "t", "--n", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "1 5 30\n")


class TestVerify:
    def test_kleene_plain(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5")
        assert code == 0
        assert out.endswith("all paths agree\n")
        assert "n=5: brute t=1938 f=330 u=1134" in out

    def test_classical_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--semantics", "2", "--n", "4", "--format", "csv"
        )
        assert code == 0
        assert out == "n,r,s,g\n1,1,1,2\n2,3,1,4\n3,12,4,16\n4,61,19,80\n"

    def test_kleene_csv_header(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,t,f,u,g"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["agree"] is True
        assert payload["rows"][2]["brute"] == {"t": 30, "f": 6, "u": 18}
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_brute_skipped_beyond_budget(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--budget", "2")
        assert code == 0
        assert "n=3: brute skipped" in out
        assert "n=4: brute skipped" in out

    def test_brute_force_leg_can_fail(self, capsys, monkeypatch):
        real = logic.brute_counts

        def swapped(n, sem, budget=None):
            c = real(n, sem, budget=budget)
            return CountVector(n=c.n, t=c.f, f=c.t, u=c.u, g=c.g)

        monkeypatch.setattr(logic, "brute_counts", swapped)
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 1
        assert "n=1: brute t=1 f=1 u=1 | " in out and out.count("-> ok") == 1
        assert "n=2: brute t=1 f=5 u=3 | recurrence t=5 f=1 u=3 | " in out
        assert "-> MISMATCH" in out
        assert out.endswith("paths disagree\n")


def whole_verify_texts(n_max, sem, budget):
    """`verify`'s output in each format, each built whole from the three
    routes, as the command built it before it streamed its lines."""
    names = SERIES_VALUES[sem.name]
    table = counts_by_recurrence(n_max, sem)
    closed = {name: closed_form(name, n_max) for name in names}
    rows = []
    for n in range(1, n_max + 1):
        brute = None
        if n <= budget:
            counts = brute_counts(n, sem)
            brute = {name: getattr(counts, name) for name in names}
        recurrence = {name: table.row(n)[value] for name, value in names.items()}
        closed_row = {name: closed[name].coefficient(n) for name in names}
        agree = closed_row == recurrence and brute in (None, recurrence)
        rows.append(
            {"n": n, "brute": brute, "recurrence": recurrence, "closed": closed_row, "agree": agree}
        )
    assert all(row["agree"] for row in rows)
    plain = [f"{sem.name} three-way agreement, n <= {n_max} (brute budget {budget})"]
    for row in rows:
        parts = [
            f"{path} skipped"
            if row[path] is None
            else f"{path} " + " ".join(f"{name}={row[path][name]}" for name in names)
            for path in ("brute", "recurrence", "closed")
        ]
        plain.append(f"n={row['n']}: " + " | ".join(parts) + " -> ok")
    plain.append("all paths agree")
    csv = [",".join(["n", *names, "g"])]
    for row in rows:
        counts = [row["recurrence"][name] for name in names]
        csv.append(",".join(map(str, [row["n"], *counts, sum(counts)])))
    payload = {"semantics": sem.name, "n_max": n_max, "agree": True, "rows": rows}
    return {
        "plain": "\n".join(plain) + "\n",
        "csv": "\n".join(csv) + "\n",
        "json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
    }


class RecordingSink:
    """A stand-in for stdout that keeps every chunk written to it."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)

    def flush(self):
        pass


# Starts ARGV with its stdout on the null device, waits for it and prints
# its exit code and peak RSS in KiB.  On Linux a child's peak RSS starts
# from the peak of the process that starts it, so this runs in a fresh
# `python -S`, which stays below any imptables call, as perfbench/spawn.py
# does.
PEAK_RSS_LAUNCHER = """
import os, sys
null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=null)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_kib(*argv):
    """The exit code and peak RSS (KiB) of a fresh ``python -m imptables ARGV``."""
    src = str(Path(imptables.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PEAK_RSS_LAUNCHER, sys.executable, "-m", "imptables", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return tuple(map(int, proc.stdout.split()))


class TestStreaming:
    """Every text format is written one line per chunk, and the long
    reports format each line only as it is written."""

    @pytest.mark.parametrize("semantics", [2, 3])
    def test_verify_streamed_output_matches_whole_renderings(self, capsys, tmp_path, semantics):
        sem = semantics_from_radix(semantics)
        for n_max in (1, 2, 5, 12):
            for budget in (0, 4):
                for fmt, text in whole_verify_texts(n_max, sem, budget).items():
                    argv = ["verify", "--n", str(n_max), "--semantics", str(semantics),
                            "--budget", str(budget), "--format", fmt]
                    assert run(capsys, *argv) == (0, text, "")
                    target = tmp_path / f"verify.{fmt}"
                    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
                    assert target.read_text() == text

    @pytest.mark.parametrize("name", ["t", "u", "r", "g2", "i"])
    def test_series_streamed_output_matches_whole_renderings(self, capsys, tmp_path, name):
        for n_max in (1, 2, 13):
            series = closed_form(name, n_max)
            values = [series.coefficient(n) for n in range(1, n_max + 1)]
            numbered = list(enumerate(values, start=1))
            payload = {
                "series": name,
                "description": series_description(name),
                "start": 1,
                "coefficients": values,
            }
            expected = {
                "plain": " ".join(map(str, values)) + "\n",
                "csv": "\n".join([f"n,{name}"] + [f"{n},{v}" for n, v in numbered]) + "\n",
                "bfile": "\n".join(f"{n} {v}" for n, v in numbered) + "\n",
                "json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
            }
            for fmt, text in expected.items():
                argv = ["series", name, "--n", str(n_max), "--format", fmt]
                assert run(capsys, *argv) == (0, text, "")
                target = tmp_path / f"series.{fmt}"
                assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
                assert target.read_text() == text

    def test_verify_writes_one_chunk_per_line(self, capsys, monkeypatch):
        sink = RecordingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["verify", "--semantics", "3", "--n", "300", "--budget", "0"]) == 0
        lines = "".join(sink.chunks).splitlines()
        assert len(lines) == 302
        assert len(sink.chunks) >= 302
        assert max(map(len, sink.chunks)) <= max(map(len, lines)) + 1

    @pytest.mark.skipif(sys.platform != "linux", reason="reads a Linux peak RSS in KiB")
    def test_verify_peak_rss_does_not_grow_with_its_report(self):
        # On a 2-vCPU Linux VM with Python 3.11, n = 600 (a 1.2 MB report)
        # peaked 1.1-1.3 MiB above n = 8 with every line made as it is
        # written, and 4.0-4.2 MiB above it with the report joined whole.
        argv = ("verify", "--semantics", "3", "--budget", "0", "--n")
        code, small = peak_rss_kib(*argv, "8")
        assert code == 0
        code, large = peak_rss_kib(*argv, "600")
        assert code == 0
        assert large - small <= 2560


class TestMonoid:
    def test_clean(self, capsys):
        code, out, _ = run(capsys, "monoid", "--order", "8", "--kmax", "2")
        assert code == 0
        assert out.endswith("all claims verified\n")
        assert out.count("PASS ") == 11

    def test_tamper_fails(self, capsys):
        code, out, _ = run(
            capsys, "monoid", "--order", "8", "--kmax", "2", "--tamper", "t:3:1"
        )
        assert code == 1
        assert "tamper applied: t coefficient 3 shifted by 1" in out
        assert out.endswith("counterexample found\n")
        assert "FAIL" in out

    @pytest.mark.parametrize("index", ["0", "8"], ids=["first", "last"])
    def test_tamper_at_either_end_of_the_order(self, capsys, index):
        code, out, err = run(capsys, "monoid", "--order", "8", "--tamper", f"t:{index}:1")
        assert (code, err) == (1, "")
        assert out.startswith(f"tamper applied: t coefficient {index} shifted by 1\n")
        assert "\nFAIL partitions[kleene] (order 8): " in out

    def test_tamper_json_carries_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "monoid",
            "--order",
            "8",
            "--kmax",
            "2",
            "--tamper",
            "u:2:1",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["verified"] is False
        witnesses = [
            r["witness"] for r in payload["reports"] if r["witness"] is not None
        ]
        assert witnesses
        assert {"n", "lhs", "rhs", "context"} <= set(witnesses[0])
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_fractional_witness_is_a_string(self, capsys):
        code, out, _ = run(
            capsys, "monoid", "--order", "12", "--kmax", "3", "--tamper", "g:3:1",
            "--format", "json",
        )
        assert code == 1
        report = next(
            r for r in json.loads(out)["reports"] if r["claim"] == "power-identities[kleene]"
        )
        assert report["witness"]["lhs"] == 758
        assert report["witness"]["rhs"] == "2284/3"
        assert '"rhs": "2284/3"' in out

    def test_bad_tamper_argument(self, capsys):
        code, _, err = run(capsys, "monoid", "--tamper", "t:3")
        assert code == 2
        assert "NAME:INDEX:DELTA" in err
        code, out, err = run(capsys, "monoid", "--tamper", "t:x:1")
        assert (code, out) == (2, "")
        assert err == "error: --tamper index and delta must be integers, got 't:x:1'\n"

    @pytest.mark.parametrize("target", ["i", "q"])
    def test_tamper_target_not_a_count_series(self, capsys, target):
        # The library's own check rejects it, before any series is expanded.
        code, out, err = run(capsys, "monoid", "--tamper", f"{target}:1:1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"tamper target {target!r}" in err

    def test_tamper_index_beyond_order(self, capsys):
        code, out, err = run(capsys, "monoid", "--order", "12", "--tamper", "t:99:1")
        assert code == 2
        assert out == ""
        assert "error: --tamper index 99 outside orders 0..12" in err

    def test_library_value_error_is_a_usage_error(self, capsys, monkeypatch):
        def reject(**kwargs):
            raise ValueError("rejected by the library")

        monkeypatch.setattr("imptables.monoid.run_all", reject)
        code, out, err = run(capsys, "monoid", "--order", "4")
        assert code == 2
        assert out == ""
        assert err == "error: rejected by the library\n"

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "monoid", "--order", "1")
        assert code == 2

    def test_env_overrides(self, capsys, monkeypatch):
        monkeypatch.setenv("IMPTABLES_ORDER", "8")
        monkeypatch.setenv("IMPTABLES_SEED", "5")
        code, out, _ = run(capsys, "monoid", "--kmax", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["order"] == 8
        assert payload["seed"] == 5

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("IMPTABLES_ORDER", "30")
        code, out, _ = run(
            capsys, "monoid", "--order", "8", "--kmax", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["order"] == 8

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("IMPTABLES_ORDER", "many")
        code, _, err = run(capsys, "monoid", "--kmax", "2")
        assert code == 2
        assert "IMPTABLES_ORDER" in err

    def test_defaults_are_run_alls(self, capsys, monkeypatch):
        for name in ("IMPTABLES_ORDER", "IMPTABLES_SEED", "IMPTABLES_BUDGET"):
            monkeypatch.delenv(name, raising=False)
        code, out, _ = run(capsys, "monoid", "--format", "json")
        payload = json.loads(out)
        defaults = inspect.signature(run_all).parameters
        assert code == 0
        assert {key: payload[key] for key in ("order", "k_max", "seed")} == {
            key: defaults[key].default for key in ("order", "k_max", "seed")
        }


class TestColors:
    def test_default_n_is_4(self, capsys):
        code, out, _ = run(capsys, "colors")
        assert code == 0
        assert out.startswith("root-split color classes, n=4 [kleene]\n")

    def test_classical_n4(self, capsys):
        code, out, _ = run(capsys, "colors", "--n", "4", "--semantics", "2")
        assert code == 0
        assert "left=1 right=1: 33 (convolution 33)" in out
        assert "total 80" in out
        assert "classes match convolutions" in out

    def test_kleene_n2_csv(self, capsys):
        code, out, _ = run(
            capsys, "colors", "--n", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "left,right,count"
        assert len(lines) == 1 + 9
        assert all(line.endswith(",1") for line in lines[1:])

    def test_kleene_classes_checked_against_products(self, capsys, monkeypatch):
        from imptables.series import PowerSeries, closed_form

        def bent(name, order):
            series = closed_form(name, order)
            if name != "t":
                return series
            coeffs = list(series.coeffs)
            coeffs[2] += 1
            return PowerSeries(coeffs)

        code, out, _ = run(capsys, "colors", "--n", "4")
        assert code == 0
        assert "MISMATCH" not in out
        monkeypatch.setattr("imptables.series.closed_form", bent)
        code, out, _ = run(capsys, "colors", "--n", "4")
        assert code == 1
        assert out.endswith("MISMATCH with convolutions\n")
        code, out, _ = run(capsys, "colors", "--n", "4", "--format", "json")
        assert code == 1
        assert json.loads(out)["agree"] is False

    def test_classical_csv_has_convolution_column(self, capsys):
        code, out, _ = run(
            capsys, "colors", "--n", "2", "--semantics", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "left,right,count,convolution"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "colors", "--n", "3", "--semantics", "2", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["agree"] is True
        assert payload["total"] == 16
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "colors", "--n", "20", "--semantics", "2")
        assert code == 3
        assert "budget" in err

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("IMPTABLES_BUDGET", "3")
        code, _, err = run(capsys, "colors", "--n", "4", "--semantics", "2")
        assert code == 3

    def test_n_too_small(self, capsys):
        code, _, err = run(capsys, "colors", "--n", "1")
        assert code == 2


class TestSettings:
    """Every integer setting is read by `cli._setting`: the flag, else its
    IMPTABLES_* variable, else the default.  A usage error names the source
    of the value it rejects (the goldens pin more such errors)."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for name in ("IMPTABLES_ORDER", "IMPTABLES_SEED", "IMPTABLES_BUDGET"):
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize(
        "argv, env, code",
        [
            ("series i --n 1", {}, 0),
            ("table --n 1", {}, 0),
            ("verify --n 1 --budget 0", {}, 0),
            ("verify --n 1", {"IMPTABLES_BUDGET": "0"}, 0),
            ("monoid --order 2 --kmax 2", {}, 0),
            ("monoid --kmax 2", {"IMPTABLES_ORDER": "2"}, 0),
            ("colors --n 2", {}, 0),
            # The floor admits 0; brute force then refuses n = 2.
            ("colors --n 2 --budget 0", {}, 3),
            ("colors --n 2", {"IMPTABLES_BUDGET": "0"}, 3),
        ],
    )
    def test_floor_is_accepted(self, capsys, monkeypatch, argv, env, code):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(capsys, *argv.split())[0] == code

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            ("monoid --order 1", {"IMPTABLES_ORDER": "8"}, "--order must be at least 2, got 1"),
            (
                "verify",
                {"IMPTABLES_BUDGET": "-1"},
                "environment variable IMPTABLES_BUDGET must be at least 0, got -1",
            ),
            (
                "colors --budget -1",
                {"IMPTABLES_BUDGET": "4"},
                "--budget must be at least 0, got -1",
            ),
            # Settings are read in order: the order's floor before the seed.
            ("monoid --order 1", {"IMPTABLES_SEED": "x"}, "--order must be at least 2, got 1"),
        ],
    )
    def test_error_names_the_source(self, capsys, monkeypatch, argv, env, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run(capsys, *argv.split()) == (2, "", f"error: {message}\n")

    def test_flags_beat_bad_environment_values(self, capsys, monkeypatch):
        monkeypatch.setenv("IMPTABLES_ORDER", "many")
        monkeypatch.setenv("IMPTABLES_SEED", "x")
        code, out, _ = run(
            capsys, "monoid", "--order", "4", "--seed", "1", "--kmax", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert (code, payload["order"], payload["seed"]) == (0, 4, 1)

    def test_empty_environment_value_means_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("IMPTABLES_BUDGET", "")
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 0
        assert out.startswith("kleene three-way agreement, n <= 1 (brute budget 8)\n")


class TestExitCodeClauses:
    """`main` maps ValueError to exit 2, OSError to 2, ArithmeticError
    (ConsistencyError included) to 1 and, last, BudgetError to 3; any
    other exception is not its business."""

    def test_consistency_error_is_an_arithmetic_error(self):
        # So a closed form's failed self-check takes the exit-1 clause.
        assert issubclass(imptables.ConsistencyError, ArithmeticError)

    def test_other_exception_propagates_unchanged(self, monkeypatch):
        error = RuntimeError("no exit code for this")

        def fail(args):
            raise error

        monkeypatch.setattr("imptables.commands.series.run", fail)
        with pytest.raises(RuntimeError) as raised:
            main(["series", "t", "--n", "3"])
        assert raised.value is error

    def test_recurrence_halving_failure_is_exit_1(self, monkeypatch, capsys):
        # The first square one too high: twice f at n = 2 is odd.
        square, calls = recurrences._square, []

        def odd_once(col):
            calls.append(col)
            return square(col) + (len(calls) == 1)

        monkeypatch.setattr(recurrences, "_square", odd_once)
        code, out, err = run(capsys, "verify", "--n", "3", "--budget", "0")
        assert (code, out) == (1, "")
        assert err == "error: twice the count of value 0 at n = 2 is odd\n"

    def test_budget_error_is_exit_3(self, capsys):
        code, out, err = run(capsys, "table", "--n", "13")
        assert (code, out) == (3, "")
        assert err == "error: n=13 gives 3^13 kleene table rows, over the row limit (1048576)\n"


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--n", "2", "--format", "bfile"])
        assert exc.value.code == 2
