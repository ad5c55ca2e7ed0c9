"""Mutation gate: every mutant of the package must be killed by the tests.

Usage: python3 mutants/run.py

Two kinds of mutant are run:

- Generated mutants, made from every module under `src/imptables/` by
  six operators: a relational swap (`<` and `<=`, `>` and `>=`, `==` and
  `!=`), `+` and `-`, `*` and `//`, an integer literal plus 1, a call
  statement replaced by `pass`, and one operand dropped from an `and` or
  `or`.  Each replaces one token or one node at its source position, so
  the rest of the file stays byte for byte.  Its ID names the file, the
  enclosing function, the operator and the replaced text (with a
  ``[k]`` suffix for the k-th same text in that function), so an edit to
  another function leaves the ID alone.  Nothing inside an f-string is
  mutated: its node positions differ between Python releases.
- Hand mutants (HAND), one per structural fault that no operator makes:
  an exact text in a file, its broken replacement, and the tests that
  must catch it.  The gate fails when an old text no longer occurs
  exactly once, so an entry cannot rot when the code it targets changes.

The script first runs every distinct test selection once on an unmutated
copy of the tree; each must pass, or a failure under a mutant would
prove nothing.  Then each mutant runs in its own copy, on
`os.cpu_count()` workers.  A generated mutant runs its module's own test
file (OWN_TESTS), then, if it survives that, the rest of the tests,
stopping at the first failure; a hand mutant runs its own tests.  A run
that outlasts ten times the unmutated time of the same selection is cut
and counts as a kill.  For a generated mutant, pytest's exit 2 counts as
a kill too, because the mutated package failed at import; for a hand
mutant it is a failure of the gate (its tests did not run).

`mutants/survivors.txt` lists the generated mutants accepted as
survivors, one a line as ``ID  # reason``; they are not run.  The gate
fails when a mutant survives that the file does not list, and when a
line of the file names no generated mutant or gives no reason.

pytest does not collect this directory (pyproject.toml's testpaths).
"""

from __future__ import annotations

import ast
import io
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/imptables"
SURVIVORS = ROOT / "mutants" / "survivors.txt"
# The test file a module's generated mutants run first; the modules not
# named here (__main__ and the command modules) run the CLI tests.  `cli`
# runs the parser tests, which are quicker than the CLI tests and catch
# most of its mutants; the rest of the suite follows either way.
OWN_TESTS = {
    "__init__.py": "tests/test_int_arguments.py",
    "cli.py": "tests/test_parser.py",
    "logic.py": "tests/test_logic.py",
    "monoid.py": "tests/test_monoid.py",
    "recurrences.py": "tests/test_recurrences.py",
    "series.py": "tests/test_series.py",
}
CLI_TESTS = "tests/test_cli.py"
# A run is cut after this many times the unmutated run of its selection.
TIMEOUT_FACTOR = 10
# The address space of each test run, so that a mutant that allocates
# without end fails with MemoryError instead of exhausting the machine.
MEMORY_LIMIT = 1 << 30

# Each swapped operator: the token it is written as, and its replacement.
SWAPS = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"),
    ast.FloorDiv: ("//", "*"),
}
# Operands that need parentheses where their `and`/`or` stood.
LOOSE = (ast.BoolOp, ast.IfExp, ast.Lambda, ast.NamedExpr)


class Mutant(NamedTuple):
    """``new`` in place of the characters ``start:end`` of ``path``, run
    against each test selection of ``stages`` until one kills it."""

    id: str
    path: str
    start: int
    end: int
    new: str
    stages: tuple[tuple[str, ...], ...]
    generated: bool


def generate(source: str, path: str) -> list[tuple[str, int, int, str]]:
    """The operator mutants of one module as ``(id, start, end, new)``,
    where ``new`` replaces ``source[start:end]``."""
    lines = io.StringIO(source).readlines()
    starts = list(accumulate(map(len, lines), initial=0))
    operators = [
        (starts[token.start[0] - 1] + token.start[1], token.string)
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.OP
    ]
    found: list[tuple[str, int, int, str]] = []

    def offset(row: int, col: int) -> int:
        # ast counts columns in UTF-8 bytes, str indexing in characters.
        return starts[row - 1] + len(lines[row - 1].encode()[:col].decode())

    def span(node: ast.AST) -> tuple[int, int]:
        return offset(node.lineno, node.col_offset), offset(node.end_lineno, node.end_col_offset)

    def segment(node: ast.AST) -> str:
        return source[slice(*span(node))]

    def add(scope: str, operator: str, context: ast.AST, start: int, end: int, new: str) -> None:
        low = span(context)[0]
        old = segment(context)
        after = old[: start - low] + new + old[end - low :]
        text = " ".join(f"{old} -> {after}".split())
        found.append((f"{path}:{scope}:{operator}: {text}", start, end, new))

    def swap(scope: str, operator: str, node: ast.AST, left: ast.AST, right: ast.AST, op: ast.AST):
        old, new = SWAPS[type(op)]
        low, high = span(left)[1], span(right)[0]
        start = next(pos for pos, text in operators if low <= pos < high and text == old)
        add(scope, operator, node, start, start + len(old), new)

    def visit(node: ast.AST, scope: str, context: ast.AST | None) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    swap(scope, "relational", node, left, right, op)
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            swap(scope, "arithmetic", node, node.left, node.right, node.op)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            add(scope, "literal", context or node, *span(node), str(node.value + 1))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            add(scope, "call", node, *span(node), "pass")
        elif isinstance(node, ast.BoolOp):
            joiner = " and " if isinstance(node.op, ast.And) else " or "
            for dropped in range(len(node.values)):
                kept = [
                    f"({segment(v)})" if isinstance(v, LOOSE) else segment(v)
                    for i, v in enumerate(node.values)
                    if i != dropped
                ]
                add(scope, "boolean", node, *span(node), joiner.join(kept))
        if isinstance(node, ast.stmt):
            context = None
        elif isinstance(node, ast.expr):
            context = node
        for child in ast.iter_child_nodes(node):
            visit(child, scope, context)

    visit(ast.parse(source), "<module>", None)
    seen: Counter[str] = Counter()
    mutants = []
    for id, start, end, new in found:
        seen[id] += 1
        mutants.append((id if seen[id] == 1 else f"{id} [{seen[id]}]", start, end, new))
    return mutants


def generated_mutants() -> list[Mutant]:
    mutants = []
    for file in sorted((ROOT / PACKAGE).rglob("*.py")):
        name = file.relative_to(ROOT / PACKAGE).as_posix()
        own = OWN_TESTS.get(name, CLI_TESTS)
        stages = ((own,), ("tests", f"--ignore={own}"))
        for id, start, end, new in generate(file.read_text(), name):
            mutants.append(Mutant(id, f"{PACKAGE}/{name}", start, end, new, stages, True))
    return mutants


INIT = "src/imptables/__init__.py"
LOGIC = "src/imptables/logic.py"
SERIES = "src/imptables/series.py"
RECURRENCES = "src/imptables/recurrences.py"
MONOID = "src/imptables/monoid.py"
CLI = "src/imptables/cli.py"
TABLE_COMMAND = "src/imptables/commands/table.py"
VERIFY_COMMAND = "src/imptables/commands/verify.py"
MONOID_COMMAND = "src/imptables/commands/monoid.py"
COLORS_COMMAND = "src/imptables/commands/colors.py"
SERIES_COMMAND = "src/imptables/commands/series.py"

# `_check`'s whole-sequence comparison of an eq case's two sides.
EQ_SHORTCUT = """        if holds is eq and lhs == rhs:
            continue
"""
PARSER_TESTS = ["tests/test_parser.py"]
COLORS_BUDGET = (
    "tests/test_startup.py::TestSubcommandImports::test_colors_loads_series_only_within_its_budget"
)
# The exact halving of twice each count in `counts_by_recurrence`.
HALVING = """\
            counts[v], odd = divmod(sum(w * squares[key] for key, w in weights.items()), 2)
            if odd:
                raise ArithmeticError(f"twice the count of value {v} at n = {n} is odd")
"""
# The acceptance test that the recurrence's totals are radix**n times Catalan.
TOTALS_ACCEPTANCE = "tests/test_acceptance.py::test_acceptance_2_structural_totals"
# The last line of `cli.entry`.
ENTRY_FREEZE = "    gc.freeze()\n    sys.exit(main())\n"
# The line of `cli.main` that imports the command module it runs.
DISPATCH = """\
            command = importlib.import_module(f".commands.{args.command}", __package__)
"""

# The head of `counts_by_recurrence`, up to its kernel.
RECURRENCE_HEAD = """def counts_by_recurrence(n_max: int, sem: Semantics) -> SequenceTable:
    \"\"\"Entry counts for all values and all n up to n_max, by convolution.\"\"\"
    _check_semantics(sem)
    _check_int("n_max", n_max, 1)
    kernel = _kernel(sem)
"""
# The end of `run_all`, from its bound claim on.
RUN_ALL_TAIL = """        reports.append(verify_bound(realizer, nonidentity))
        reports.append(verify_partitions(realizer))
        if logic == "kleene":
            reports.append(verify_power_identities(realizer, k_max))
            reports.append(verify_ideal_samples(realizer, samples[:20]))
            reports.append(verify_substitution_bounds(realizer))
    return reports
"""
# Tests that pass a bool to the sites of `_check_int`.
BOOL_ORDER = "tests/test_series.py::TestClosedForms::test_order_must_be_an_int"
BOOL_POWER = "tests/test_monoid.py::TestRealizer::test_power_must_be_an_int"
BOOL_TRUTH_VALUE = "tests/test_logic.py::TestImplies::test_truth_value_must_be_an_int"
# The line of `series._radicals` that expands s by its binomial series, and
# the tests that compare s with the binomial theorem and s*s with 1 - a*x.
S_STEP = "coeffs.append(_divide(coeffs[-1] * a * (2 * n - 3), 2 * n))"
S_TESTS = [
    "tests/test_series.py::TestClosedForms::test_s_is_the_binomial_series_in_ints",
    "tests/test_series.py::TestClosedForms::test_radicals_are_integral_to_order_300",
]

# Structural faults that no operator makes: name, file, exact old text, new
# text, tests that must fail.
HAND = [
    (
        "kernel snapshotted at import",
        RECURRENCES,
        RECURRENCE_HEAD,
        "_KERNELS = {s.radix: _kernel(s) for s in (KLEENE, CLASSICAL)}\n\n\n"
        + RECURRENCE_HEAD.replace("kernel = _kernel(sem)", "kernel = _KERNELS[sem.radix]"),
        ["tests/test_recurrences.py"],
    ),
    (
        "kernel counting each unordered pair once whatever its orientations",
        RECURRENCES,
        "weights[pair] = weights.get(pair, 0) - 1",
        "weights[pair] = -1",
        ["tests/test_recurrences.py::TestEveryConnective"],
    ),
    (
        "square formed without the doubling",
        RECURRENCES,
        "acc = 2 * sum(map(mul, col[:half], col[: -half - 1 : -1]))",
        "acc = sum(map(mul, col[:half], col[: -half - 1 : -1]))",
        ["tests/test_recurrences.py"],
    ),
    (
        "a D_ab dropped from one value's weights",
        RECURRENCES,
        "            if a != b:\n",
        "            if a != b and (a, b) != (0, 1):\n",
        [TOTALS_ACCEPTANCE],
    ),
    (
        "one weight's sign flipped",
        RECURRENCES,
        "    return kernel\n",
        "    kernel[0][0, 1] *= -1\n    return kernel\n",
        [TOTALS_ACCEPTANCE],
    ),
    (
        "halving floored without the remainder check",
        RECURRENCES,
        HALVING,
        "            counts[v] = sum(w * squares[key] for key, w in weights.items()) // 2\n",
        ["tests/test_recurrences.py::TestKernel::test_an_odd_numerator_raises"],
    ),
    (
        "import from series into logic",
        LOGIC,
        "from collections.abc import Callable, Iterator, Sequence\n",
        "from collections.abc import Callable, Iterator, Sequence\n\n"
        "from .series import PowerSeries\n",
        ["tests/test_logic.py::TestBruteForceIndependence"],
    ),
    (
        "reversed leaf variable order",
        LOGIC,
        """    run = sem.radix ** (n - index)
    period = run * sem.radix
    repunit = ((1 << (period * sem.radix ** (index - 1))) - 1) // ((1 << period) - 1)
""",
        """    run = sem.radix ** (index - 1)
    period = run * sem.radix
    repunit = ((1 << (period * sem.radix ** (n - index))) - 1) // ((1 << period) - 1)
""",
        ["tests/test_logic.py::TestBruteForceAgainstEvaluate"],
    ),
    (
        "left and right columns swapped",
        LOGIC,
        """    right = _column(tree.right, sem, rows)
    mapped = [right.translate(row) for row in rows]
    left = _column(tree.left, sem, rows)
""",
        """    right = _column(tree.left, sem, rows)
    mapped = [right.translate(row) for row in rows]
    left = _column(tree.right, sem, rows)
""",
        ["tests/test_logic.py::TestTruthColumn"],
    ),
    (
        "join block loop dropping its last block",
        LOGIC,
        "for start in range(0, len(left), _JOIN_BLOCK)",
        "for start in range(0, len(left) - _JOIN_BLOCK, _JOIN_BLOCK)",
        ["tests/test_logic.py::TestTruthColumn"],
    ),
    (
        "translate rows built at import",
        LOGIC,
        """    rows = [bytes(row).ljust(256, b"\\0") for row in _IMPLIES_TABLE]
    return _column(tree, sem, rows)
""",
        """    return _column(tree, sem, _ROWS)


_ROWS = [bytes(row).ljust(256, b"\\0") for row in _IMPLIES_TABLE]
""",
        ["tests/test_logic.py::TestTruthColumn"],
    ),
    (
        "every run of the builder starting at variable 1",
        LOGIC,
        "runs = {(start, 1): [leaf(start)] for start in range(1, n + 1)}",
        "runs = {(start, 1): [leaf(1)] for start in range(1, n + 1)}",
        [
            "tests/test_logic.py::TestBracketingAt",
            "tests/test_logic.py::TestBruteForceAgainstEvaluate",
        ],
    ),
    (
        "builder roots built with node instead of root",
        LOGIC,
        "                yield root(left, right)\n",
        "                yield node(left, right)\n",
        ["tests/test_logic.py::TestBruteForceAgainstEvaluate"],
    ),
    (
        "divmod by the left count",
        LOGIC,
        "left, right = divmod(index, catalan(size - k))",
        "left, right = divmod(index, catalan(k))",
        ["tests/test_logic.py::TestBracketingAt"],
    ),
    (
        "sqrt without the middle square",
        SERIES,
        """            if n % 2 == 0:
                acc += ys[half] * ys[half]
""",
        "",
        ["tests/test_series.py::TestSqrt"],
    ),
    (
        "sqrt without the doubling",
        SERIES,
        "acc = 2 * sum(map(mul, ys[1:half], ys[n - 1 : n - half : -1]))",
        "acc = sum(map(mul, ys[1:half], ys[n - 1 : n - half : -1]))",
        ["tests/test_series.py::TestSqrt"],
    ),
    (
        "sqrt off by one index",
        SERIES,
        "acc = 2 * sum(map(mul, ys[1:half], ys[n - 1 : n - half : -1]))",
        "acc = 2 * sum(map(mul, ys[1:half], ys[n - 2 : n - half - 1 : -1]))",
        ["tests/test_series.py::TestSqrt"],
    ),
    (
        "s ratio numerator off by two",
        SERIES,
        S_STEP,
        S_STEP.replace("2 * n - 3", "2 * n - 1"),
        S_TESTS,
    ),
    (
        "s ratio divisor off by two",
        SERIES,
        S_STEP,
        S_STEP.replace(", 2 * n)", ", 2 * n + 2)"),
        S_TESTS,
    ),
    (
        "s ratio without a",
        SERIES,
        S_STEP,
        S_STEP.replace(" * a * ", " * "),
        S_TESTS,
    ),
    (
        "s built by the general square root again",
        SERIES,
        "    s = PowerSeries(coeffs)\n",
        "    s = (PowerSeries.identity(order) - a * PowerSeries.x(order)).sqrt()\n",
        ["tests/test_series.py::TestClosedForms::test_one_sqrt_per_logic_and_order"],
    ),
    (
        "w built by the general square root again",
        SERIES,
        "    w = PowerSeries(ws)\n",
        "    w = (b * PowerSeries.identity(order) + c * PowerSeries.x(order) + d * s).sqrt()\n",
        ["tests/test_series.py::TestClosedForms::test_one_sqrt_per_logic_and_order"],
    ),
    (
        "_divide floors",
        SERIES,
        "return q if r == 0 else _fraction()(c) / d",
        "return q",
        ["tests/test_series.py::TestArithmetic"],
    ),
    (
        "asymmetric series product",
        SERIES,
        "sum(map(mul, head, rb[n - m :])) for m in range(v, n + 1)",
        "sum(map(mul, head[: m - v], rb[n - m :])) for m in range(v, n + 1)",
        ["tests/test_monoid.py::TestCommutativityAndAssociativity"],
    ),
    (
        "first nonzero coefficient skipped",
        SERIES,
        """        if coeffs[i]:
            return i
""",
        """        if coeffs[i]:
            return i + 1
""",
        [
            "tests/test_series.py::TestArithmetic"
            "::test_mul_with_leading_zeros_matches_fraction_reference"
        ],
    ),
    (
        "dense product",
        SERIES,
        "        va = _valuation(a, n)\n        vb = _valuation(b, n - va)\n",
        "        va = vb = 0\n",
        [
            "tests/test_series.py::TestArithmetic"
            "::test_mul_forms_only_products_above_both_valuations"
        ],
    ),
    (
        "coefficient check blind to the last coefficient",
        SERIES,
        "if not set(map(type, cs)) <= {int}:",
        "if not set(map(type, cs[:-1])) <= {int}:",
        [
            "tests/test_series.py::TestConstruction"
            "::test_a_bad_coefficient_is_caught_in_any_position",
            "tests/test_series.py::TestConstruction"
            "::test_an_integral_fraction_becomes_an_int_in_any_position",
        ],
    ),
    (
        "product memo keyed on the unordered pair",
        MONOID,
        "key = (a.exponents, b.exponents)",
        "key = tuple(sorted((a.exponents, b.exponents)))",
        [
            "tests/test_monoid.py::TestCommutativityAndAssociativity"
            "::test_commutativity_can_fail_through_the_memo"
        ],
    ),
    (
        "associativity using product(a, b) on both sides",
        MONOID,
        "(realizer.realize(a) * realizer.product(b, c)).coeffs",
        "(realizer.product(a, b) * realizer.realize(c)).coeffs",
        [
            "tests/test_monoid.py::TestCommutativityAndAssociativity"
            "::test_associativity_can_fail_through_the_memo"
        ],
    ),
    (
        "realize returning the first generator power alone",
        MONOID,
        "reduce(mul, powers) if powers",
        "powers[0] if powers",
        ["tests/test_monoid.py::TestRealizer"],
    ),
    (
        "_dominated accepting equality where the right side is nonzero",
        MONOID,
        "return lhs < rhs or lhs == rhs == 0",
        "return lhs <= rhs",
        ["tests/test_monoid.py::TestIdealAndSubstitution::test_equality_is_allowed_only_at_zero"],
    ),
    (
        "run_all calling a claim through a private alias",
        MONOID,
        RUN_ALL_TAIL,
        RUN_ALL_TAIL.replace("(verify_bound(", "(_verify_bound(") + "\n\n_verify_bound = verify_bound\n",
        ["tests/test_monoid.py::TestRunAll::test_calls_every_claim_through_the_module"],
    ),
    (
        "zero-delta tamper accepted",
        MONOID,
        """        if delta == 0:
            raise ValueError(f"tamper delta must be nonzero, got {delta}")
""",
        "",
        [
            "tests/test_golden.py::test_golden[error_monoid_tamper_zero_delta]",
            "tests/test_monoid.py::TestRealizer::test_zero_delta_rejected_before_any_expansion",
        ],
    ),
    (
        "color classes without the largest n",
        MONOID,
        "for n in range(2, color_n + 1):",
        "for n in range(2, color_n):",
        ["tests/test_monoid.py::TestPartitions::test_color_classes_checked_at_both_ends"],
    ),
    (
        "f identity's right side taking the left side's top coefficient",
        MONOID,
        'f_rhs = 2 * (fj * u) - fj + power("f", i).shift()\n',
        'f_rhs = PowerSeries((2 * (fj * u) - fj + power("f", i).shift()).coeffs[:-1]'
        ' + power("f", k).coeffs[-1:])\n',
        ["tests/test_monoid.py::TestPowerIdentities::test_identity_broken_at_the_top_only"],
    ),
    (
        "power identity sides formed before the identity before them held",
        MONOID,
        """    cases = (
        (lhs.coeffs, rhs.coeffs, {"k": k, "identity": identity})
        for k in range(2, k_max + 1)
        for identity, lhs, rhs in identities(k)
    )
""",
        """    cases = [
        (lhs.coeffs, rhs.coeffs, {"k": k, "identity": identity})
        for k in range(2, k_max + 1)
        for identity, lhs, rhs in identities(k)
    ]
""",
        [
            "tests/test_monoid.py::TestPowerIdentities"
            "::test_sides_formed_only_after_the_identity_before_holds"
        ],
    ),
    (
        "a failing case reported as verified",
        MONOID,
        "claim, failed.format(count=count, **fields), order, False, witness",
        "claim, failed.format(count=count, **fields), order, True, witness",
        ["tests/test_monoid.py::TestBound::test_tampered_bound_fails"],
    ),
    (
        "_check dropping the [logic] suffix",
        MONOID,
        'claim, order = f"{claim}[{realizer.logic}]", realizer.order',
        "claim, order = claim, realizer.order",
        ["tests/test_monoid.py::TestBound::test_tampered_bound_fails"],
    ),
    (
        "_check's default relation always true",
        MONOID,
        "holds: Callable[[object, object], bool] = eq,",
        "holds: Callable[[object, object], bool] = lambda lhs, rhs: True,",
        ["tests/test_monoid.py::TestPartitions::test_three_u_checked_against_the_total"],
    ),
    (
        "eq cases walked even when their sides agree whole",
        MONOID,
        EQ_SHORTCUT,
        "",
        ["tests/test_monoid.py::TestCheck::test_equal_eq_case_reads_no_coefficient"],
    ),
    (
        "eq cases that differ whole failed at their first index",
        MONOID,
        EQ_SHORTCUT,
        EQ_SHORTCUT
        + """        if holds is eq:
            witness = Witness(0, lhs[0], rhs[0], context.format(n=0, **fields))
            return VerificationReport(claim, failed.format(**fields), order, False, witness)
""",
        ["tests/test_monoid.py::TestCheck::test_eq_case_differing_only_at_its_last_index"],
    ),
    (
        "element exponents not checked for a tuple of ints",
        MONOID,
        """        if not isinstance(exponents, tuple) or not set(map(type, exponents)) <= {int}:
            raise ValueError(f"exponents must be a tuple of ints, got {exponents!r}")
""",
        "",
        ["tests/test_monoid.py::TestMonoidElement::test_exponents_must_be_a_tuple_of_ints"],
    ),
    (
        "environment value reported as the flag",
        CLI,
        """        source = f"environment variable {env}"
""",
        """        source = flag
""",
        ["tests/test_cli.py::TestSettings"],
    ),
    (
        "verify verdict always true",
        VERIFY_COMMAND,
        'all_agree = all(row["agree"] for row in rows)',
        "all_agree = True",
        ["tests/test_cli.py::TestVerify::test_brute_force_leg_can_fail"],
    ),
    (
        "monoid verdict always true",
        MONOID_COMMAND,
        "all_ok = all(r.verified for r in reports)",
        "all_ok = True",
        ["tests/test_cli.py::TestMonoid"],
    ),
    (
        "colors verdict always true",
        COLORS_COMMAND,
        "agree = all(classes[k] == products[k] for k in keys)",
        "agree = True",
        ["tests/test_cli.py::TestColors"],
    ),
    (
        "wrong json separator",
        CLI,
        "json.dumps(payload, indent=2, sort_keys=True)",
        'json.dumps(payload, indent=2, sort_keys=True, separators=(", ", ": "))',
        ["tests/test_golden.py"],
    ),
    (
        "_render joins the text lines again",
        CLI,
        '    return (line + "\\n" for line in lines)\n',
        '    return ["\\n".join(lines) + "\\n"]\n',
        ["tests/test_cli.py::TestStreaming::test_verify_writes_one_chunk_per_line"],
    ),
    (
        "enumerate_bracketings called in the table command",
        TABLE_COMMAND,
        "return 0, _table_lines(bracketing_at(n, index), n, sem, args.format)",
        "from ..logic import enumerate_bracketings\n\n"
        "    return 0, _table_lines(enumerate_bracketings(n)[index], n, sem, args.format)",
        ["tests/test_cli.py::TestTable::test_builds_only_the_requested_tree"],
    ),
    (
        "series imports fractions at module level",
        SERIES,
        "from operator import mul\n",
        "from fractions import Fraction\nfrom operator import mul\n",
        ["tests/test_startup.py::TestStartupLoadsNoSpareCode::test_no_call_loads_fractions"],
    ),
    (
        "fast path accepting a bad choice",
        CLI,
        """        if choices is not None and value not in choices:
            return None
""",
        "",
        PARSER_TESTS,
    ),
    (
        "fast path accepting an abbreviated flag",
        CLI,
        "        keywords = arguments.get(name)\n",
        "        keywords = next((v for k, v in arguments.items() if k.startswith(name)), None)\n",
        PARSER_TESTS,
    ),
    (
        "fast path without the required-flag check",
        CLI,
        """    if any(keywords.get("required") and name not in names for name, keywords in arguments.items()):
        return None
""",
        "",
        PARSER_TESTS,
    ),
    (
        "cli imports argparse at module level",
        CLI,
        "import contextlib\n",
        "import argparse\nimport contextlib\n",
        [
            "tests/test_startup.py::TestStartupLoadsNoSpareCode"
            "::test_no_fast_path_call_loads_argparse"
        ],
    ),
    (
        "cli imports series at module level",
        CLI,
        "import imptables\n",
        "import imptables\nimport imptables.series\n",
        ["tests/test_startup.py::TestSubcommandImports::test_table_loads_no_series"],
    ),
    (
        "--tamper index or delta that is not an integer reported as int()'s error",
        MONOID_COMMAND,
        """        raise ValueError(f"--tamper index and delta must be integers, got {raw!r}")
""",
        """        raise
""",
        ["tests/test_cli.py::TestMonoid::test_bad_tamper_argument"],
    ),
    (
        "count series constant term not checked",
        SERIES,
        """    if series.coeffs[0] != 0:
        raise ConsistencyError(
            f"count series {name!r} has constant term {series.coeffs[0]}, expected 0"
        )
""",
        "",
        ["tests/test_series.py::TestClosedForms::test_constant_term_checked"],
    ),
    (
        "series bfile lines tab-separated",
        SERIES_COMMAND,
        'lines = (f"{n} {v}" for n, v in enumerate(values, start=1))',
        'lines = (f"{n}\\t{v}" for n, v in enumerate(values, start=1))',
        ["tests/test_readme.py"],
    ),
    (
        "main imports every command module",
        CLI,
        DISPATCH,
        """            for name in ("series", "table", "verify", "monoid", "colors"):
                importlib.import_module(f".commands.{name}", __package__)
"""
        + DISPATCH,
        [
            "tests/test_startup.py::TestStartupLoadsNoSpareCode"
            "::test_each_call_loads_only_its_own_command_module"
        ],
    ),
    (
        "gc.freeze() moved into main",
        CLI,
        ENTRY_FREEZE,
        """    sys.exit(main())


_main = main


def main(argv: Sequence[str] | None = None) -> int:
    gc.freeze()
    return _main(argv)
""",
        ["tests/test_startup.py::TestGarbageCollection::test_main_leaves_the_collector_alone"],
    ),
    (
        "colors imports series at module level",
        COLORS_COMMAND,
        "from ..cli import Result, _render, _setting\n",
        "from ..cli import Result, _render, _setting\nfrom ..series import closed_form\n",
        [COLORS_BUDGET],
    ),
    (
        "a route's failed self-check not mapped to exit 1",
        CLI,
        """    except ArithmeticError as exc:
        # A route failed its own check (a closed form's `ConsistencyError`,
        # the recurrence's halving): a counterexample.
        print(f"error: {exc}", file=sys.stderr)
        return 1
""",
        "",
        [
            "tests/test_cli.py::TestExitCodeClauses::test_recurrence_halving_failure_is_exit_1",
            "tests/test_golden.py::test_golden[consistency_series_t_bent_w]",
        ],
    ),
    (
        "a semantics name accepted for a Semantics",
        LOGIC,
        "    if not isinstance(sem, Semantics):\n",
        "    if not isinstance(sem, (Semantics, str)):\n",
        [
            "tests/test_logic.py::TestSemantics::test_sem_must_be_a_semantics",
            "tests/test_recurrences.py::TestInterface::test_sem_must_be_a_semantics",
        ],
    ),
    (
        "a bool order accepted",
        SERIES,
        '    _check_int("order", order, 1)\n',
        '    if order < 1:\n        raise ValueError(f"order must be at least 1, got {order}")\n',
        [BOOL_ORDER],
    ),
    (
        "a bool power accepted",
        MONOID,
        '        _check_int("k", k, 0)\n',
        '        if k < 0:\n            raise ValueError(f"k must be at least 0, got {k}")\n',
        [BOOL_POWER],
    ),
    (
        "a bool accepted as an int",
        INIT,
        "    if type(value) is not int:\n",
        "    if not isinstance(value, int):\n",
        [BOOL_ORDER, BOOL_POWER, BOOL_TRUTH_VALUE],
    ),
]



def hand_mutants() -> tuple[list[Mutant], list[str]]:
    """The HAND entries as mutants, and a complaint for each entry whose
    old text does not occur exactly once."""
    mutants, stale = [], []
    for name, path, old, new, tests in HAND:
        text = (ROOT / path).read_text()
        if text.count(old) != 1:
            stale.append(f"old text occurs {text.count(old)} times in {path}, not once: {name}")
            continue
        start = text.index(old)
        mutants.append(Mutant(name, path, start, start + len(old), new, (tuple(tests),), False))
    return mutants, stale


def read_survivors() -> tuple[dict[str, str], list[str]]:
    """The accepted survivors (ID to reason), and a complaint for each
    line that gives no reason."""
    survivors, bad = {}, []
    for line in SURVIVORS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            id, _, reason = line.partition("  # ")
            survivors[id] = reason
            if not reason.strip():
                bad.append(f"survivor listed without a reason: {id}")
    return survivors, bad


def copy_tree(copy: Path) -> None:
    """Copy into ``copy`` what the tests read: the package, the tests,
    the tools and this directory (which tests load by path),
    pyproject.toml, and README.md (which `tests/test_readme.py` runs)."""
    for name in ("src", "tests", "tools", "mutants"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, copy / name)


def run_tests(copy: Path, selection: tuple[str, ...], timeout: float | None, cache: Path):
    """pytest's exit status on ``selection`` in ``copy`` (None when cut
    at ``timeout``), and the tail of its output.  Bytecode is cached
    under ``cache``, shared by every run."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONPYCACHEPREFIX": str(cache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    with subprocess.Popen(
        command,
        cwd=copy,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    ) as proc:
        resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            # The whole process group: a test may have started the CLI.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, ""
    return proc.returncode, "\n".join(out.splitlines()[-10:])


def run_mutant(mutant: Mutant, copy: Path, timeouts: dict, cache: Path) -> tuple[str, str]:
    """The verdict on one mutant, run in ``copy`` ('killed', 'timeout' or
    why it counts against the gate), and the output to show with it."""
    copy_tree(copy)
    target = copy / mutant.path
    text = target.read_text()
    target.write_text(text[: mutant.start] + mutant.new + text[mutant.end :])
    try:
        for selection in mutant.stages:
            code, out = run_tests(copy, selection, timeouts[selection], cache)
            if code is None:
                return "timeout", ""
            if code == 1 or (code == 2 and mutant.generated):
                return "killed", ""
            if code != 0:
                return f"tests did not run (pytest exit {code})", out
        return "SURVIVED", ""
    finally:
        shutil.rmtree(copy)


def timed(function, *args) -> tuple:
    start = time.perf_counter()
    result = function(*args)
    return (time.perf_counter() - start, *result)


def main() -> int:
    began = time.perf_counter()
    generated = generated_mutants()
    hand, problems = hand_mutants()
    survivors, bad = read_survivors()
    ids = {m.id for m in generated}
    problems += bad + [f"survivor line names no generated mutant: {id}" for id in survivors if id not in ids]
    mutants = [m for m in generated if m.id not in survivors] + hand
    print(
        f"{len(generated)} generated mutants, {len(generated) + len(hand) - len(mutants)} of them"
        f" listed as survivors; {len(hand)} hand mutants; {os.cpu_count()} workers",
        flush=True,
    )
    selections = list(dict.fromkeys(s for m in mutants for s in m.stages))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp, ThreadPoolExecutor(os.cpu_count()) as pool:
        base = Path(tmp)
        copy_tree(base / "clean")
        runs = pool.map(lambda s: timed(run_tests, base / "clean", s, None, base / "cache"), selections)
        timeouts, failing = {}, 0
        for selection, (seconds, code, out) in zip(selections, runs):
            timeouts[selection] = TIMEOUT_FACTOR * seconds
            if code != 0:
                failing += 1
                print(f"fails on the unmutated tree: {' '.join(selection)}\n{out}", flush=True)
        if failing:
            print(f"{failing} of {len(selections)} test selections fail unmutated; no mutant run")
            return 1
        print(f"all {len(selections)} test selections pass unmutated", flush=True)
        futures = {
            pool.submit(timed, run_mutant, m, base / f"mutant-{i}", timeouts, base / "cache"): m
            for i, m in enumerate(mutants)
        }
        verdicts = Counter()
        for future in as_completed(futures):
            seconds, verdict, out = future.result()
            verdicts[verdict] += 1
            if verdict not in ("killed", "timeout"):
                problems.append(f"{verdict}: {futures[future].id}")
            print(f"{verdict:<10} {seconds:6.1f} s  {futures[future].id}", flush=True)
            if out:
                print(out, flush=True)
    print("\n".join(problems))
    print(
        f"{verdicts['killed']} killed, {verdicts['timeout']} cut at their timeout,"
        f" {len(problems)} problems; {time.perf_counter() - began:.0f} s wall"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
