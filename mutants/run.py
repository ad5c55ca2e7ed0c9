"""Mutation gate: every recorded mutant must be killed by the tests named for it.

Usage: python3 mutants/run.py

Each entry of MUTANTS replaces one exact text in one file of the package
(or of the tests) with a broken version.  The script first runs every
distinct test selection once on an unmutated copy of `src/`, `tests/`,
`pyproject.toml` and `README.md`; each must pass, or a failure under a
mutant would prove nothing, and the gate fails without applying any
mutant.  Then it copies the tree into a temporary directory per mutant,
applies that one replacement, and runs the entry's tests there with
pytest.  The gate fails when a mutant survives (its tests pass), when
its tests cannot run (a collection error is not a kill), and when an old
text no longer occurs exactly once, so an entry cannot rot silently when
the code it targets changes.

pytest does not collect this directory (pyproject.toml's testpaths).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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

# Claim index ranges that two mutants each shift, and the tests that pin
# both ends of a range.
COMMUTATIVITY_RANGE = """    every_n = range(realizer.order + 1)
    cases = (
        (realizer.product(a, b).coeffs, realizer.product(b, a).coeffs, every_n, {"a": a, "b": b})
"""
ASSOCIATIVITY_RANGE = """    every_n = range(realizer.order + 1)
    cases = (
        (
            (realizer.product(a, b) * realizer.realize(c)).coeffs,
"""
IDEAL_RANGE = """    above_one = range(2, realizer.order + 1)
    elements = tuple(elements)
"""
SQUARE_RANGE = "        yield square, g, range(2, order + 1), {\n"
POWER_RANGE = """    every_n = range(realizer.order + 1)
    f, g, u = realizer.series("f"), realizer.series("g"), realizer.series("u")
"""
IDEAL_ENDS = "tests/test_monoid.py::TestIdealAndSubstitution::test_ideal_samples_checked_at_both_ends"
SQUARE_ENDS = (
    "tests/test_monoid.py::TestPartitions::test_square_checked_against_the_total_at_both_ends"
)
COLOR_ENDS = "tests/test_monoid.py::TestPartitions::test_color_classes_checked_at_both_ends"
PARSER_TESTS = ["tests/test_parser.py"]
TAMPER_ENDS = "tests/test_cli.py::TestMonoid::test_tamper_at_either_end_of_the_order"
COLORS_BUDGET = (
    "tests/test_startup.py::TestSubcommandImports::test_colors_loads_series_only_within_its_budget"
)
# The last two `except` clauses of `cli.main`.
BUDGET_CLAUSE = """    except imptables.BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
"""
CONSISTENCY_CLAUSE = """    except imptables.ConsistencyError as exc:
        # A closed form that fails its own count check is a counterexample.
        print(f"error: {exc}", file=sys.stderr)
        return 1
"""
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
# The head of `run_all`, up to its bound claim.
RUN_ALL_HEAD = """def run_all(
    order: int = DEFAULT_ORDER,
    k_max: int = DEFAULT_K_MAX,
    seed: int = DEFAULT_SEED,
    tamper: Tamper | None = None,
) -> list[VerificationReport]:
    \"\"\"Run every verification suite for both logics and collect reports.

    A tamper triple applies to whichever logic owns the named series;
    the other logic runs clean.  A tamper that names no series of
    either logic, an index outside 0..order, a zero delta, or k_max
    below 2 raises ValueError, and an index, delta, seed or k_max that
    is not an int raises TypeError, before anything is expanded.
    \"\"\"
    _check_tamper(tamper, KLEENE_SERIES + CLASSICAL_SERIES, order, "a series of either logic")
    _check_int("seed", seed)
    _check_int("k_max", k_max, 2)
    reports: list[VerificationReport] = []
    for logic, names in SERIES.items():
        local_tamper = tamper if tamper is not None and tamper[0] in names else None
        realizer = Realizer(logic, order, tamper=local_tamper)
        samples = default_sample(logic, seed=seed)
        nonidentity = [e for e in samples if not e.is_identity]
        reports.append(verify_commutativity(realizer, _pairs(samples)))
        reports.append(verify_associativity(realizer, _triples(samples)))
        reports.append(verify_bound(realizer, nonidentity))
"""
# Tests that pass a value of the wrong type to the sites of `_check_int`.
INT_RULE = "tests/test_int_arguments.py"
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

# name, file, exact old text, new text, tests that must fail.
MUTANTS = [
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
        "_divide floors",
        SERIES,
        "return q if r == 0 else _fraction()(c) / d",
        "return q",
        ["tests/test_series.py::TestArithmetic"],
    ),
    (
        "closed_form without _assert_count_series",
        SERIES,
        "    _assert_count_series(series, key)\n",
        "",
        ["tests/test_golden.py::test_golden[consistency_series_t_bent_w]"],
    ),
    (
        "asymmetric series product",
        SERIES,
        "sum(map(mul, head, rb[n - m :])) for m in range(va + vb, n + 1)",
        "sum(map(mul, head[: m - va - vb], rb[n - m :])) for m in range(va + vb, n + 1)",
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
        "va, vb = _valuation(a, n), _valuation(b, n)",
        "va, vb = 0, 0",
        [
            "tests/test_series.py::TestArithmetic"
            "::test_mul_forms_only_products_above_both_valuations"
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
        "_below_total without its integrality test",
        MONOID,
        "return c.denominator == 1 and 0 <= c < g",
        "return 0 <= c < g",
        ["tests/test_monoid.py::TestBound::test_fractional_coefficient_escapes_the_bound"],
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
        RUN_ALL_HEAD,
        "_verify_bound = verify_bound\n\n\n"
        + RUN_ALL_HEAD.replace("append(verify_bound(", "append(_verify_bound("),
        ["tests/test_monoid.py::TestRunAll::test_calls_every_claim_through_the_module"],
    ),
    (
        "tamper range closed below the order",
        MONOID,
        "        if not 0 <= index <= order:\n",
        "        if not 0 <= index < order:\n",
        ["tests/test_monoid.py::TestRunAll::test_tamper_at_either_end_of_the_range_is_applied"],
    ),
    (
        "commutativity without its top coefficient",
        MONOID,
        COMMUTATIVITY_RANGE,
        COMMUTATIVITY_RANGE.replace("range(realizer.order + 1)", "range(realizer.order)"),
        [
            "tests/test_monoid.py::TestCommutativityAndAssociativity"
            "::test_commutativity_checks_the_top_coefficient"
        ],
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
        "commutativity without its constant coefficient",
        MONOID,
        COMMUTATIVITY_RANGE,
        COMMUTATIVITY_RANGE.replace("range(realizer.order + 1)", "range(1, realizer.order + 1)"),
        [
            "tests/test_monoid.py::TestCommutativityAndAssociativity"
            "::test_commutativity_checks_the_constant_coefficient"
        ],
    ),
    (
        "associativity without its top coefficient",
        MONOID,
        ASSOCIATIVITY_RANGE,
        ASSOCIATIVITY_RANGE.replace("range(realizer.order + 1)", "range(realizer.order)"),
        [
            "tests/test_monoid.py::TestCommutativityAndAssociativity"
            "::test_associativity_checks_the_top_coefficient"
        ],
    ),
    (
        "associativity without its constant coefficient",
        MONOID,
        ASSOCIATIVITY_RANGE,
        ASSOCIATIVITY_RANGE.replace("range(realizer.order + 1)", "range(1, realizer.order + 1)"),
        [
            "tests/test_monoid.py::TestCommutativityAndAssociativity"
            "::test_associativity_checks_the_constant_coefficient"
        ],
    ),
    (
        "bound without its top coefficient",
        MONOID,
        """    above_one = range(2, realizer.order + 1)

    def cases() -> Iterator[Case]:
""",
        """    above_one = range(2, realizer.order)

    def cases() -> Iterator[Case]:
""",
        ["tests/test_monoid.py::TestBound::test_bound_checks_the_top_coefficient"],
    ),
    (
        "ideal containment without its top coefficient",
        MONOID,
        IDEAL_RANGE,
        IDEAL_RANGE.replace("range(2, realizer.order + 1)", "range(2, realizer.order)"),
        [IDEAL_ENDS],
    ),
    (
        "ideal containment from n = 3",
        MONOID,
        IDEAL_RANGE,
        IDEAL_RANGE.replace("range(2, realizer.order + 1)", "range(3, realizer.order + 1)"),
        [IDEAL_ENDS],
    ),
    (
        "substitution bounds from n = 3",
        MONOID,
        """    above_one = range(2, realizer.order + 1)
    families = (
""",
        """    above_one = range(3, realizer.order + 1)
    families = (
""",
        ["tests/test_monoid.py::TestIdealAndSubstitution::test_domination_checked_from_n_two"],
    ),
    (
        "g2^2 against g2 without its top coefficient",
        MONOID,
        SQUARE_RANGE,
        SQUARE_RANGE.replace("range(2, order + 1)", "range(2, order)"),
        [SQUARE_ENDS],
    ),
    (
        "g2^2 against g2 from n = 3",
        MONOID,
        SQUARE_RANGE,
        SQUARE_RANGE.replace("range(2, order + 1)", "range(3, order + 1)"),
        [SQUARE_ENDS],
    ),
    (
        "color classes without the largest n",
        MONOID,
        "for n in range(2, color_n + 1):",
        "for n in range(2, color_n):",
        [COLOR_ENDS],
    ),
    (
        "color classes from n = 3",
        MONOID,
        "for n in range(2, color_n + 1):",
        "for n in range(3, color_n + 1):",
        [COLOR_ENDS],
    ),
    (
        "power identities from n = 1",
        MONOID,
        POWER_RANGE,
        POWER_RANGE.replace("range(realizer.order + 1)", "range(1, realizer.order + 1)"),
        ["tests/test_monoid.py::TestPowerIdentities::test_identity_broken_at_the_constant_term"],
    ),
    (
        "power identities without their top coefficient",
        MONOID,
        POWER_RANGE,
        POWER_RANGE.replace("range(realizer.order + 1)", "range(realizer.order)"),
        ["tests/test_monoid.py::TestPowerIdentities::test_identity_broken_at_the_top_only"],
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
        (lhs.coeffs, rhs.coeffs, every_n, {"k": k, "identity": identity})
        for k in range(2, k_max + 1)
        for identity, lhs, rhs in identities(k)
    )
""",
        """    cases = [
        (lhs.coeffs, rhs.coeffs, every_n, {"k": k, "identity": identity})
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
        "run_all leaving k_max to the power identities",
        MONOID,
        '    _check_int("k_max", k_max, 2)\n    reports: list',
        "    reports: list",
        ["tests/test_monoid.py::TestRunAll::test_k_max_below_two_rejected_before_any_expansion"],
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
        "floor compared with <=",
        INIT,
        "    if floor is not None and value < floor:\n",
        "    if floor is not None and value <= floor:\n",
        [
            "tests/test_cli.py::TestSettings::test_floor_is_accepted",
            "tests/test_logic.py::TestBracketings::test_counts_match_catalan",
        ],
    ),
    (
        "brute leg dropped from agree",
        VERIFY_COMMAND,
        "agree = closed_row == recurrence and brute_row in (None, recurrence)",
        "agree = closed_row == recurrence",
        ["tests/test_cli.py::TestVerify::test_brute_force_leg_can_fail"],
    ),
    (
        "closed-form leg dropped from agree",
        VERIFY_COMMAND,
        "agree = closed_row == recurrence and brute_row in (None, recurrence)",
        "agree = brute_row in (None, recurrence)",
        [
            "tests/test_logic.py::TestBruteForceIndependence"
            "::test_patched_table_changes_brute_force_and_fails_verify"
        ],
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
        "cli.main without its stdout flush",
        CLI,
        "        sys.stdout.flush()\n",
        "",
        ["tests/test_output_errors.py"],
    ),
    (
        "cli.main without pointing stdout at the null device",
        CLI,
        "            _discard_stdout()\n",
        "            pass\n",
        ["tests/test_output_errors.py"],
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
        "fast path accepting a repeated flag",
        CLI,
        "if len(names) != len(texts) or len(set(names)) != len(names):",
        "if len(names) != len(texts):",
        PARSER_TESTS,
    ),
    (
        "fast path accepting a value that starts with a dash",
        CLI,
        'if keywords is None or text.startswith("-"):',
        "if keywords is None:",
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
        "--tamper index 0 rejected",
        MONOID_COMMAND,
        "not 0 <= tamper[1] <= order",
        "not 0 < tamper[1] <= order",
        [TAMPER_ENDS],
    ),
    (
        "--tamper index at the order rejected",
        MONOID_COMMAND,
        "not 0 <= tamper[1] <= order",
        "not 0 <= tamper[1] < order",
        [TAMPER_ENDS],
    ),
    (
        "claim case count starting at 1",
        MONOID,
        "    count = 0\n",
        "    count = 1\n",
        ["tests/test_monoid.py::TestCommutativityAndAssociativity::test_no_pairs_is_zero_pairs"],
    ),
    (
        "colors --n default 5",
        COLORS_COMMAND,
        "default=4, floor=2",
        "default=5, floor=2",
        ["tests/test_cli.py::TestColors::test_default_n_is_4"],
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
        "a float radix accepted",
        LOGIC,
        "if type(radix) is not int or radix not in (2, 3):",
        "if radix not in (2, 3):",
        ["tests/test_logic.py::TestSemantics::test_from_radix_error_shows_the_type"],
    ),
    (
        "a negative budget reported as a budget overrun",
        LOGIC,
        """    if budget is not None:
        _check_int("budget", budget, 0)
""",
        "",
        [
            "tests/test_logic.py::TestBruteCounts::test_negative_budget_is_a_value_error",
            "tests/test_logic.py::TestColorClasses::test_negative_budget_is_a_value_error",
        ],
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
        "entry without gc.freeze()",
        CLI,
        ENTRY_FREEZE,
        "    sys.exit(main())\n",
        ["tests/test_startup.py::TestGarbageCollection::test_entry_freezes_the_start_up_heap"],
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
        "consistency clause before the budget clause",
        CLI,
        BUDGET_CLAUSE + CONSISTENCY_CLAUSE,
        CONSISTENCY_CLAUSE + BUDGET_CLAUSE,
        [COLORS_BUDGET],
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
    (
        "a truth value's type unchecked",
        LOGIC,
        '    _check_int("truth value", v)\n',
        "",
        [BOOL_TRUTH_VALUE],
    ),
    (
        "a tree index's type unchecked",
        LOGIC,
        '    _check_int("index", index)\n',
        "",
        [INT_RULE],
    ),
    (
        "a valuation length's type unchecked",
        LOGIC,
        '    _check_int("n", n, 0)\n',
        "",
        [INT_RULE],
    ),
    (
        "a series power's exponent unchecked",
        SERIES,
        '        _check_int("exponent", exponent, 0)\n',
        "",
        [INT_RULE],
    ),
    (
        "a tamper index's type unchecked",
        MONOID,
        '        _check_int("tamper index", index)\n',
        "",
        [INT_RULE],
    ),
    (
        "a tamper delta's type unchecked",
        MONOID,
        '        _check_int("tamper delta", delta)\n',
        "",
        [INT_RULE],
    ),
    (
        "a constant series' order unchecked",
        SERIES,
        '        _check_int("order", order, 0)\n',
        "",
        [INT_RULE],
    ),
    (
        "a coefficient index's type unchecked",
        SERIES,
        '        _check_int("n", n)\n',
        "",
        [INT_RULE],
    ),
    (
        "a truncation order's type unchecked",
        SERIES,
        '        _check_int("order", order)\n',
        "",
        [INT_RULE],
    ),
    (
        "a table row's type unchecked",
        RECURRENCES,
        '        _check_int("n", n)\n',
        "",
        [INT_RULE],
    ),
    (
        "a sample seed's type unchecked",
        MONOID,
        '    _check_int("seed", seed)\n    names = ',
        "    names = ",
        [INT_RULE],
    ),
    (
        "run_all leaving the seed to default_sample",
        MONOID,
        '    _check_int("seed", seed)\n    _check_int("k_max"',
        '    _check_int("k_max"',
        ["tests/test_monoid.py::TestRunAll::test_seed_rejected_before_any_expansion"],
    ),
]


def copy_tree(copy: Path) -> None:
    """Copy the package, the tests, pyproject.toml and README.md (which
    `tests/test_readme.py` runs) into ``copy``."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, copy / name)


def run_tests(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def tail(proc: subprocess.CompletedProcess) -> str:
    return "\n".join(proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:])


def run_mutant(name: str, path: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', or why the mutant counts against the gate."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {path}, not once"
        target.write_text(text.replace(old, new))
        proc = run_tests(copy, tests)
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"tests did not run (pytest exit {proc.returncode}):\n{tail(proc)}"


def main() -> int:
    selections = list(dict.fromkeys(tuple(entry[4]) for entry in MUTANTS))
    failing = 0
    with tempfile.TemporaryDirectory(prefix="clean-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        for tests in selections:
            proc = run_tests(copy, list(tests))
            if proc.returncode != 0:
                failing += 1
                print(f"fails on the unmutated tree: {' '.join(tests)}\n{tail(proc)}")
    if failing:
        print(f"{failing} of {len(selections)} test selections fail unmutated; no mutant run")
        return 1
    print(f"all {len(selections)} test selections pass unmutated")
    failed = 0
    for entry in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(*entry)
        failed += verdict != "killed"
        print(f"{verdict.splitlines()[0]:<10} {time.perf_counter() - start:5.1f} s  {entry[0]}")
        for line in verdict.splitlines()[1:]:
            print(line)
    print(f"{failed} of {len(MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
