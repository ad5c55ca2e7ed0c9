"""Start-up cost: the package loads its public names on first use, each
subcommand imports only the modules it needs, and the command line
freezes the start-up heap so that no collection rescans it.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import imptables
import imptables.logic as logic
import imptables.monoid as monoid
import imptables.recurrences as recurrences
import imptables.series as series
from imptables.cli import main

SRC = str(Path(imptables.__file__).resolve().parent.parent)

# Where each public name is defined.
HOMES = {
    logic: [
        "Bracketing", "BudgetError", "CLASSICAL", "CountVector", "FALSE", "KLEENE",
        "Leaf", "Node", "Semantics", "TRUE", "UNKNOWN", "brute_counts", "catalan",
        "color_class_counts", "enumerate_bracketings", "evaluate", "format_formula",
        "implies", "iter_valuations", "leaf_count", "semantics_from_radix",
        "tree_counts",
    ],
    monoid: [
        "MonoidElement", "Realizer", "VerificationReport", "Witness",
        "default_sample", "run_all", "verify_associativity", "verify_bound",
        "verify_commutativity", "verify_ideal_samples", "verify_partitions",
        "verify_power_identities", "verify_substitution_bounds",
    ],
    recurrences: [
        "SequenceTable", "classical_by_recurrence", "counts_by_recurrence",
        "kleene_by_recurrence",
    ],
    series: [
        "CLASSICAL_SERIES", "ConsistencyError", "KLEENE_SERIES", "PowerSeries",
        "SERIES_NAMES", "closed_form", "series_description",
    ],
}

# Run as ``python -m imptables ARGV...`` does (through runpy), then print
# the names of all loaded modules on stderr's last line.
PROBE = """
import runpy, sys
code = 0
try:
    runpy.run_module("imptables", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write("\\n" + " ".join(sorted(sys.modules)))
sys.exit(code)
"""


def fresh_python(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )


def loaded_by(*cli_args, flags=()):
    proc = fresh_python(*flags, "-c", PROBE, *cli_args)
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        proc = fresh_python(
            "-c",
            "import imptables, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('imptables.')))",
        )
        assert (proc.returncode, proc.stdout) == (0, "[]\n")

    def test_submodules_are_attributes_after_a_bare_import(self):
        proc = fresh_python(
            "-c",
            "import imptables; "
            "print(imptables.monoid.__name__, imptables.series.PowerSeries.__name__)",
        )
        assert (proc.returncode, proc.stdout) == (0, "imptables.monoid PowerSeries\n")

    def test_homes_cover_all(self):
        names = [name for names in HOMES.values() for name in names]
        assert sorted(names + ["__version__"]) == sorted(imptables.__all__)
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize(
        "module, name",
        [(module, name) for module, names in HOMES.items() for name in names],
    )
    def test_name_is_the_defining_modules_object(self, module, name):
        assert getattr(imptables, name) is getattr(module, name)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from imptables import *", namespace)
        for name in imptables.__all__:
            assert namespace[name] is getattr(imptables, name)

    def test_dir_lists_all(self):
        assert set(imptables.__all__) <= set(dir(imptables))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            imptables.no_such_name
        assert not hasattr(imptables, "run_everything")

    def test_version(self):
        assert imptables.__version__ == "0.1.0"


class TestSubcommandImports:
    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (("table", "--n", "2"), "(p1=>p2)  [kleene]\n"),
            (("series", "i", "--n", "1"), "0\n"),
        ],
    )
    def test_light_subcommands(self, argv, stdout):
        code, out, modules = loaded_by(*argv)
        assert code == 0
        assert out.startswith(stdout)
        forbidden = {"imptables.monoid", "imptables.recurrences", "dataclasses", "__future__"}
        assert not forbidden & modules

    @pytest.mark.parametrize(
        "argv, code, loads_series",
        [(("colors", "--n", "10", "--semantics", "3"), 3, False), (("colors", "--n", "2"), 0, True)],
        ids=["over-budget", "within-budget"],
    )
    def test_colors_loads_series_only_within_its_budget(self, argv, code, loads_series):
        exit_code, _, modules = loaded_by(*argv)
        assert exit_code == code
        assert ("imptables.series" in modules) == loads_series

    def test_table_loads_no_series(self):
        code, out, modules = loaded_by("table", "--n", "2")
        assert code == 0
        assert out.startswith("(p1=>p2)  [kleene]\n")
        assert "imptables.series" not in modules

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "i", "--n", "1"),
            ("table", "--n", "2"),
            ("verify", "--n", "3"),
            ("monoid", "--order", "4"),
            ("colors", "--n", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_module_loads_typing(self, argv):
        # -S: a `site` that runs third-party .pth files may import typing
        # itself, which would hide an import of it by the package.
        code, _, modules = loaded_by(*argv, flags=("-S",))
        assert code == 0
        assert "typing" not in modules

    @pytest.mark.parametrize(
        "argv, runs_logic",
        [
            (("series", "t", "--n", "3"), False),
            (("series", "i", "--n", "1"), False),
            (("table", "--n", "2"), True),
            (("verify", "--n", "3"), True),
            (("colors", "--n", "2"), True),
        ],
        ids=["series-t", "series-i", "table", "verify", "colors"],
    )
    def test_logic_loaded_only_where_it_runs(self, argv, runs_logic):
        code, _, modules = loaded_by(*argv)
        assert code == 0
        assert ("imptables.logic" in modules) == runs_logic

    @pytest.mark.parametrize(
        "argv",
        [("series", "t", "--n", "3"), ("table", "--n", "2"), ("verify", "--n", "3")],
        ids=lambda argv: argv[0],
    )
    def test_plain_output_loads_no_json(self, argv):
        code, _, modules = loaded_by(*argv)
        assert code == 0
        assert "json" not in modules

    def test_json_output_loads_json(self):
        code, out, modules = loaded_by("series", "t", "--n", "3", "--format", "json")
        assert code == 0
        assert out.startswith("{")
        assert "json" in modules

    def test_monoid_loads_monoid(self):
        code, out, modules = loaded_by("monoid", "--order", "4")
        assert code == 0
        assert out.endswith("all claims verified\n")
        assert "imptables.monoid" in modules
        assert "dataclasses" not in modules

    def test_verify_loads_recurrences_not_monoid(self):
        code, out, modules = loaded_by("verify", "--n", "3")
        assert code == 0
        assert out.endswith("all paths agree\n")
        assert "imptables.recurrences" in modules
        assert "imptables.monoid" not in modules


# Every subcommand with every format it offers.
FORMATS = {
    ("series", "t", "--n", "5"): ("plain", "csv", "json", "bfile"),
    ("table", "--n", "2"): ("plain", "csv", "json"),
    ("verify", "--n", "3"): ("plain", "csv", "json"),
    ("monoid", "--order", "8"): ("plain", "json"),
    ("colors", "--n", "3"): ("plain", "csv", "json"),
}
FRACTION_MODULES = {"fractions", "decimal", "_decimal", "_pydecimal", "numbers"}
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


class TestStartupLoadsNoSpareCode:
    """A call compiles `cli`, the one command module it runs and the
    library modules that module uses; it loads `fractions` (and the
    `decimal` and `numbers` modules that `fractions` imports) only when
    it forms a non-integral value, which no untampered call does, and
    `argparse` (with `gettext` and `locale`) only for help or a usage
    error that `cli._fast_parse` leaves to it."""

    @pytest.mark.parametrize(
        "argv",
        [(*argv, "--format", fmts[-1], "--output", os.devnull) for argv, fmts in FORMATS.items()],
        ids=lambda argv: argv[0],
    )
    def test_no_fast_path_call_loads_argparse(self, argv):
        # -S: a `site` that runs third-party .pth files may import them itself.
        code, _, modules = loaded_by(*argv, flags=("-S",))
        assert code == 0
        assert not ARGPARSE_MODULES & modules

    def test_help_loads_argparse(self):
        code, out, modules = loaded_by("table", "--help", flags=("-S",))
        assert code == 0
        assert out.startswith("usage: imptables table")
        assert "argparse" in modules

    @pytest.mark.parametrize(
        "argv",
        [(*argv, "--format", fmt) for argv, fmts in FORMATS.items() for fmt in fmts],
        ids=lambda argv: f"{argv[0]}-{argv[-1]}",
    )
    def test_no_call_loads_fractions(self, argv):
        # -S: a `site` that runs third-party .pth files may import them itself.
        code, _, modules = loaded_by(*argv, flags=("-S",))
        assert code == 0
        assert not FRACTION_MODULES & modules

    @pytest.mark.parametrize("argv", FORMATS, ids=lambda argv: argv[0])
    def test_each_call_loads_only_its_own_command_module(self, argv):
        code, _, modules = loaded_by(*argv)
        assert code == 0
        loaded = {m for m in modules if m.startswith("imptables.commands.")}
        assert loaded == {f"imptables.commands.{argv[0]}"}


# Each first forms a non-integral value in a fresh process, where
# `fractions` is not loaded yet, and prints the coefficients and their types.
NON_INTEGRAL = {
    "division": ("PowerSeries([1, 1]) / 3", [(1, 3), (1, 3)], ["Fraction", "Fraction"]),
    "sqrt": ("PowerSeries([4, 1]).sqrt()", [(2, 1), (1, 4)], ["int", "Fraction"]),
    "fraction-root": ("(PowerSeries([1, 4]) / 4).sqrt()", [(1, 2), (1, 1)], ["Fraction", "int"]),
    "fraction-coefficients": (
        "PowerSeries([__import__('fractions').Fraction(n, 2) for n in (1, 4)])",
        [(1, 2), (2, 1)],
        ["Fraction", "int"],
    ),
    "fraction-factor": (
        "PowerSeries([1, 2]) * __import__('fractions').Fraction(1, 2)",
        [(1, 2), (1, 1)],
        ["Fraction", "int"],
    ),
}

NON_INTEGRAL_PROBE = """
import sys
from imptables.series import PowerSeries, closed_form
closed_form("t", 8) / 1 * 2
assert "fractions" not in sys.modules, "loaded before any non-integral value"
series = {expression}
print([(c.numerator, c.denominator) for c in series.coeffs])
print([type(c).__name__ for c in series.coeffs])
"""


@pytest.mark.parametrize("case", NON_INTEGRAL)
def test_first_non_integral_value_in_a_fresh_process(case):
    expression, values, types = NON_INTEGRAL[case]
    proc = fresh_python("-S", "-c", NON_INTEGRAL_PROBE.format(expression=expression))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{values}\n{types}\n"


# Run as ``python -m imptables ARGV...`` does, with an `atexit` hook that
# writes how many objects the collector holds frozen when the process exits.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"{gc.get_freeze_count()}\\n"))
runpy.run_module("imptables", run_name="__main__", alter_sys=True)
"""


class TestGarbageCollection:
    """`cli.entry` freezes the start-up heap, so the full collection at
    interpreter exit does not rescan it; `cli.main` leaves the collector
    as it found it."""

    def test_entry_freezes_the_start_up_heap(self):
        proc = fresh_python("-c", FREEZE_PROBE, "series", "t", "--n", "3")
        assert (proc.returncode, proc.stdout) == (0, "1 5 30\n")
        assert int(proc.stderr) > 0

    def test_main_leaves_the_collector_alone(self, capsys):
        state = (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold())
        assert main(["series", "t", "--n", "3"]) == 0
        assert capsys.readouterr().out == "1 5 30\n"
        assert (gc.get_freeze_count(), gc.isenabled(), gc.get_threshold()) == state
