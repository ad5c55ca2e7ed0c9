import ast
import gc
import inspect
import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import imptables.logic as logic
from imptables.cli import main

from imptables.logic import (
    CLASSICAL,
    KLEENE,
    BudgetError,
    CountVector,
    Leaf,
    Node,
    bracketing_at,
    brute_counts,
    catalan,
    color_class_counts,
    enumerate_bracketings,
    evaluate,
    format_formula,
    implies,
    iter_valuations,
    leaf_count,
    semantics_from_radix,
    tree_counts,
    truth_column,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def trees(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.sampled_from(enumerate_bracketings(n))
    )


@st.composite
def tree_with_valuation(draw, sem, max_n=5):
    tree = draw(trees(max_n))
    n = leaf_count(tree)
    valuation = tuple(draw(st.sampled_from(sem.values)) for _ in range(n))
    return tree, valuation


class TestImplies:
    def test_kleene_table_entries(self):
        assert implies(1, 0, KLEENE) == 0
        assert implies(0, 2, KLEENE) == 1
        assert implies(2, 0, KLEENE) == 2
        assert implies(2, 2, KLEENE) == 2
        assert implies(0, 0, CLASSICAL) == 1

    def test_false_antecedent_is_always_true(self):
        for b in KLEENE.values:
            assert implies(0, b, KLEENE) == 1

    def test_true_consequent_is_always_true(self):
        for a in KLEENE.values:
            assert implies(a, 1, KLEENE) == 1

    def test_classical_restricts_kleene(self):
        for a, b in itertools.product(CLASSICAL.values, repeat=2):
            assert implies(a, b, CLASSICAL) == implies(a, b, KLEENE)

    def test_classical_rejects_unknown(self):
        with pytest.raises(ValueError):
            implies(2, 0, CLASSICAL)
        with pytest.raises(ValueError):
            implies(0, 2, CLASSICAL)

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            implies(3, 0, KLEENE)

    @pytest.mark.parametrize("value", [True, False, 1.0, "1"], ids=["true", "false", "float", "str"])
    def test_truth_value_must_be_an_int(self, value):
        # True and False would index the table as 1 and 0.
        message = f"^truth value must be an int, got {value!r}$"
        with pytest.raises(TypeError, match=message):
            implies(value, 0, KLEENE)
        with pytest.raises(TypeError, match=message):
            implies(0, value, CLASSICAL)
        with pytest.raises(TypeError, match=message):
            evaluate(Node(Leaf(1), Leaf(2)), (value, 2), KLEENE)

    def test_illegal_int_keeps_its_semantics_text(self):
        with pytest.raises(ValueError, match="^truth value 2 is not legal in classical semantics$"):
            implies(2, 0, CLASSICAL)


class TestSemantics:
    def test_from_radix(self):
        assert semantics_from_radix(3) is KLEENE
        assert semantics_from_radix(2) is CLASSICAL
        with pytest.raises(ValueError):
            semantics_from_radix(4)

    @pytest.mark.parametrize("radix, shown", [(4, "4"), ("3", "'3'"), (3.0, "3.0"), (2.0, "2.0")])
    def test_from_radix_error_shows_the_type(self, radix, shown):
        with pytest.raises(ValueError, match=f"^radix must be 2 or 3, got {shown}$"):
            semantics_from_radix(radix)

    def test_values_match_radix(self):
        assert KLEENE.values == (0, 1, 2)
        assert CLASSICAL.values == (0, 1)

    def test_truth_value_constants(self):
        assert (logic.FALSE, logic.TRUE, logic.UNKNOWN) == (0, 1, 2)

    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: brute_counts(3, "kleene"), "'kleene'"),
            (lambda: color_class_counts(3, "classical"), "'classical'"),
            (lambda: tree_counts(Leaf(1), "kleene"), "'kleene'"),
            (lambda: implies(1, 2, "kleene"), "'kleene'"),
            (lambda: evaluate(Leaf(1), (1,), "kleene"), "'kleene'"),
            (lambda: iter_valuations(2, "classical"), "'classical'"),
        ],
        ids=[
            "brute_counts",
            "color_class_counts",
            "tree_counts",
            "implies",
            "evaluate",
            "iter_valuations",
        ],
    )
    def test_sem_must_be_a_semantics(self, call, shown):
        message = rf"^sem must be a Semantics \(KLEENE or CLASSICAL\), got {shown}$"
        with pytest.raises(TypeError, match=message):
            call()


class TestBracketings:
    def test_counts_match_catalan(self):
        for n in range(1, 9):
            assert len(enumerate_bracketings(n)) == catalan(n) == CATALAN[n - 1]

    def test_catalan_larger(self):
        assert catalan(12) == 58786

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_bracketings(0)
        with pytest.raises(ValueError):
            catalan(0)

    def test_single_leaf(self):
        (tree,) = enumerate_bracketings(1)
        assert tree == Leaf(1)
        assert format_formula(tree) == "p1"

    def test_canonical_order_n3(self):
        first, second = enumerate_bracketings(3)
        assert format_formula(first) == "(p1=>(p2=>p3))"
        assert format_formula(second) == "((p1=>p2)=>p3)"

    def test_trees_are_distinct(self):
        for n in range(1, 8):
            seq = enumerate_bracketings(n)
            assert len(set(seq)) == len(seq)

    @given(trees(max_n=6))
    def test_leaves_are_consecutive(self, tree):
        indices = []

        def walk(t):
            if isinstance(t, Leaf):
                indices.append(t.index)
            else:
                walk(t.left)
                walk(t.right)

        walk(tree)
        assert indices == list(range(1, len(indices) + 1))


    @pytest.mark.parametrize(
        "call, shown",
        [
            (lambda: leaf_count(None), "None"),
            (lambda: format_formula("p1"), "'p1'"),
            (lambda: tree_counts(3), "3"),
            (lambda: tree_counts(Node(Leaf(1), 3)), "3"),
            (lambda: evaluate(3, (0,)), "3"),
            (lambda: truth_column(Node(None, Leaf(2))), "None"),
        ],
        ids=["leaf_count", "format_formula", "tree_counts", "tree_counts-subtree", "evaluate",
             "truth_column"],
    )
    def test_tree_must_be_a_leaf_or_node(self, call, shown):
        with pytest.raises(TypeError, match=rf"^tree must be a Leaf or Node, got {shown}$"):
            call()


class TestBracketingAt:
    def test_matches_enumeration(self):
        for n in range(1, 10):
            for index, tree in enumerate(enumerate_bracketings(n)):
                assert bracketing_at(n, index) == tree

    def test_out_of_range_rejected(self):
        for n in range(1, 7):
            for index in (-1, catalan(n), catalan(n) + 5):
                with pytest.raises(ValueError, match="out of range"):
                    bracketing_at(n, index)
        with pytest.raises(ValueError):
            bracketing_at(0, 0)

    def test_builds_no_other_tree(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bracketing_at enumerated the bracketings")

        monkeypatch.setattr(logic, "_bracketings", refuse)
        tree = bracketing_at(30, catalan(30) - 1)
        assert leaf_count(tree) == 30
        assert format_formula(tree).startswith("(" * 29 + "p1=>p2)")


class TestEvaluate:
    def test_two_leaf_tree_matches_table(self):
        tree = Node(Leaf(1), Leaf(2))
        assert evaluate(tree, (1, 0), KLEENE) == 0
        assert evaluate(tree, (2, 1), KLEENE) == 1
        for a, b in itertools.product(KLEENE.values, repeat=2):
            assert evaluate(tree, (a, b), KLEENE) == implies(a, b, KLEENE)
        for a, b in itertools.product(CLASSICAL.values, repeat=2):
            assert evaluate(tree, (a, b), CLASSICAL) == implies(a, b, CLASSICAL)

    def test_length_mismatch_rejected(self):
        tree = Node(Leaf(1), Leaf(2))
        with pytest.raises(ValueError):
            evaluate(tree, (1,), KLEENE)
        with pytest.raises(ValueError):
            evaluate(tree, (1, 0, 1), KLEENE)

    def test_illegal_value_rejected(self):
        tree = Node(Leaf(1), Leaf(2))
        with pytest.raises(ValueError):
            evaluate(tree, (2, 0), CLASSICAL)

    def test_rightmost_true_forces_true(self):
        # implies(_, 1) = 1, so a true rightmost variable propagates up
        # the right spine no matter what the rest of the valuation does.
        for n in range(2, 5):
            for tree in enumerate_bracketings(n):
                valuation = (0,) * (n - 1) + (1,)
                assert evaluate(tree, valuation, KLEENE) == 1
                assert evaluate(tree, valuation, CLASSICAL) == 1

    def test_all_zero_valuation_is_tree_dependent(self):
        # (0=>0)=>0 evaluates to 0 while 0=>(0=>0) evaluates to 1, so no
        # uniform claim holds for the all-zero valuation.
        chain_right, chain_left = enumerate_bracketings(3)
        assert evaluate(chain_right, (0, 0, 0), KLEENE) == 1
        assert evaluate(chain_left, (0, 0, 0), KLEENE) == 0

    @given(tree_with_valuation(KLEENE))
    def test_classical_valuations_agree_across_semantics(self, pair):
        tree, valuation = pair
        if all(v != 2 for v in valuation):
            assert evaluate(tree, valuation, KLEENE) == evaluate(
                tree, valuation, CLASSICAL
            )


class TestBruteCounts:
    def test_kleene_small(self):
        assert brute_counts(1, KLEENE) == CountVector(n=1, t=1, f=1, u=1, g=3)
        assert brute_counts(2, KLEENE) == CountVector(n=2, t=5, f=1, u=3, g=9)
        assert brute_counts(3, KLEENE) == CountVector(n=3, t=30, f=6, u=18, g=54)

    def test_classical_small(self):
        two = brute_counts(2, CLASSICAL)
        assert (two.r, two.s, two.g) == (3, 1, 4)
        assert brute_counts(4, CLASSICAL).g == 80

    def test_total_is_radix_power_times_catalan(self):
        for sem in (KLEENE, CLASSICAL):
            for n in range(1, 6):
                counts = brute_counts(n, sem)
                assert counts.g == sem.radix**n * catalan(n)
                assert counts.t + counts.f + counts.u == counts.g

    def test_classical_has_no_unknowns(self):
        for n in range(1, 6):
            assert brute_counts(n, CLASSICAL).u == 0

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            brute_counts(9, KLEENE)
        with pytest.raises(BudgetError):
            brute_counts(11, CLASSICAL)
        with pytest.raises(BudgetError):
            brute_counts(3, KLEENE, budget=2)

    def test_negative_budget_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^budget must be at least 0, got -1$"):
            brute_counts(3, budget=-1)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            brute_counts(0, KLEENE)

    def test_count_vector_rejects_bad_total(self):
        with pytest.raises(ValueError):
            CountVector(n=1, t=1, f=1, u=1, g=4)


class TestBruteForceAgainstEvaluate:
    """Brute force tallies exactly what `evaluate` gives, entry by entry."""

    CASES = [(KLEENE, n) for n in range(1, 6)] + [(CLASSICAL, n) for n in range(1, 8)]

    @pytest.mark.parametrize("sem,n", CASES)
    def test_brute_counts_tally_evaluate(self, sem, n):
        tally = [0, 0, 0]
        for tree in enumerate_bracketings(n):
            for valuation in iter_valuations(n, sem):
                tally[evaluate(tree, valuation, sem)] += 1
        assert brute_counts(n, sem) == CountVector(
            n=n, t=tally[1], f=tally[0], u=tally[2], g=sum(tally)
        )

    @pytest.mark.parametrize("sem", [KLEENE, CLASSICAL])
    def test_plane_bit_k_is_valuation_k(self, sem):
        for n in range(1, 5):
            roots = list(logic._plane_bracketings(n, sem))
            assert len(roots) == catalan(n)
            for tree, planes in zip(enumerate_bracketings(n), roots):
                for k, valuation in enumerate(iter_valuations(n, sem)):
                    bits = [plane >> k & 1 for plane in planes]
                    value = evaluate(tree, valuation, sem)
                    assert bits == [int(v == value) for v in range(3)]

    @pytest.mark.parametrize("sem,n", [case for case in CASES if case[1] >= 2])
    def test_color_classes_classify_by_evaluate(self, sem, n):
        classes = {(a, b): 0 for a in sem.values for b in sem.values}
        for tree in enumerate_bracketings(n):
            k = leaf_count(tree.left)
            for valuation in iter_valuations(n, sem):
                left = evaluate(tree.left, valuation[:k], sem)
                right = evaluate(tree.right, valuation[k:], sem)
                classes[(left, right)] += 1
        assert color_class_counts(n, sem) == classes


class TestTruthColumn:
    """Byte k of the column is what `evaluate` gives valuation k."""

    CASES = [(KLEENE, n) for n in range(1, 7)] + [(CLASSICAL, n) for n in range(1, 9)]

    @pytest.mark.parametrize("sem,n", CASES)
    def test_matches_evaluate(self, sem, n):
        for tree in enumerate_bracketings(n):
            expected = bytes(evaluate(tree, v, sem) for v in iter_valuations(n, sem))
            assert truth_column(tree, sem) == expected

    @pytest.mark.parametrize("sem,n", [(KLEENE, 9), (CLASSICAL, 14)])
    def test_columns_longer_than_a_join_block(self, sem, n):
        # The left-nested tree's root joins 3**8 or 2**13 pieces, more
        # than one block of them.
        assert sem.radix ** (n - 1) > logic._JOIN_BLOCK
        for index in (catalan(n) // 2, catalan(n) - 1):
            tree = bracketing_at(n, index)
            expected = bytes(evaluate(tree, v, sem) for v in iter_valuations(n, sem))
            assert truth_column(tree, sem) == expected

    def test_memory_is_bounded_by_rows_not_shape(self):
        # 2**20 rows; the left-nested tree's root joins 2**19 pieces.  One
        # join over all of them peaked at about 45 MiB, against 2.5 MiB for
        # the right-nested tree.  Traced in process: a child process's
        # ru_maxrss starts from its parent's on Linux, so it hides this.
        n = 20
        for index in (0, catalan(n) - 1):
            tree = bracketing_at(n, index)
            tracemalloc.start()
            try:
                column = truth_column(tree, CLASSICAL)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(column) == 2**n
            assert peak < 16 * 2**20

    def test_patched_table_changes_the_printed_table(self, capsys, monkeypatch):
        argv = ["table", "--n", "3", "--index", "0"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        patched = tuple(
            tuple(1 if (a, b) == (1, 0) else value for b, value in enumerate(row))
            for a, row in enumerate(logic._IMPLIES_TABLE)
        )
        monkeypatch.setattr(logic, "_IMPLIES_TABLE", patched)
        assert main(argv) == 0
        assert capsys.readouterr().out != clean


class TestNothingOutlivesACall:
    def test_no_memory_stays_traced(self):
        # A cache that lives as long as the process would keep the trees
        # or planes of every run of variables seen so far.
        def work(n_brute, n_colors, n_trees):
            brute_counts(n_brute, CLASSICAL)
            color_class_counts(n_colors, KLEENE)
            assert len(enumerate_bracketings(n_trees)) == catalan(n_trees)

        work(3, 3, 3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            work(9, 7, 11)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 4096


class TestBruteForceIndependence:
    def test_patched_table_changes_brute_force_and_fails_verify(
        self, capsys, monkeypatch
    ):
        # Negative control: brute force and the recurrence read the
        # implication table on every call, while the closed forms encode
        # implication itself, so one corrupted entry must surface as a
        # verify mismatch.
        clean = brute_counts(4, KLEENE)
        patched = tuple(
            tuple(1 if (a, b) == (1, 0) else value for b, value in enumerate(row))
            for a, row in enumerate(logic._IMPLIES_TABLE)
        )
        monkeypatch.setattr(logic, "_IMPLIES_TABLE", patched)
        assert brute_counts(4, KLEENE) != clean
        code = main(["verify", "--semantics", "3", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out

    def test_logic_imports_no_other_counting_path(self):
        tree = ast.parse(inspect.getsource(logic))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        for name in imported:
            for banned in ("recurrences", "series"):
                assert banned not in name.split("."), name
        for value in vars(logic).values():
            module = getattr(value, "__module__", None) or getattr(value, "__name__", "")
            assert not str(module).startswith(
                ("imptables.recurrences", "imptables.series")
            ), value


class TestTreeCounts:
    def test_leaf(self):
        assert tree_counts(Leaf(1), KLEENE) == (1, 1, 1)
        assert tree_counts(Leaf(1), CLASSICAL) == (1, 1, 0)

    def test_two_leaves(self):
        assert tree_counts(Node(Leaf(1), Leaf(2)), KLEENE) == (5, 1, 3)

    def test_n3_trees_sum_to_brute(self):
        total = [0, 0, 0]
        for tree in enumerate_bracketings(3):
            t, f, u = tree_counts(tree, KLEENE)
            total[0] += t
            total[1] += f
            total[2] += u
        assert tuple(total) == (30, 6, 18)

    @given(trees(max_n=5), st.sampled_from([KLEENE, CLASSICAL]))
    def test_matches_exhaustive_evaluation(self, tree, sem):
        n = leaf_count(tree)
        tally = [0, 0, 0]
        for valuation in iter_valuations(n, sem):
            tally[evaluate(tree, valuation, sem)] += 1
        assert tree_counts(tree, sem) == (tally[1], tally[0], tally[2])

    def test_summing_over_trees_equals_brute(self):
        for sem in (KLEENE, CLASSICAL):
            for n in range(1, 6):
                sums = [0, 0, 0]
                for tree in enumerate_bracketings(n):
                    t, f, u = tree_counts(tree, sem)
                    sums[0] += t
                    sums[1] += f
                    sums[2] += u
                counts = brute_counts(n, sem)
                assert tuple(sums) == (counts.t, counts.f, counts.u)


class TestColorClasses:
    def test_classical_n4(self):
        classes = color_class_counts(4, CLASSICAL)
        assert classes == {(1, 1): 33, (1, 0): 19, (0, 1): 19, (0, 0): 9}
        assert sum(classes.values()) == 80

    def test_classical_n2(self):
        assert color_class_counts(2, CLASSICAL) == {
            (1, 1): 1,
            (1, 0): 1,
            (0, 1): 1,
            (0, 0): 1,
        }

    def test_kleene_n2(self):
        classes = color_class_counts(2, KLEENE)
        assert len(classes) == 9
        assert set(classes.values()) == {1}

    def test_totals_partition_all_entries(self):
        for sem in (KLEENE, CLASSICAL):
            for n in range(2, 6):
                classes = color_class_counts(n, sem)
                assert sum(classes.values()) == brute_counts(n, sem).g

    def test_requires_root_split(self):
        with pytest.raises(ValueError):
            color_class_counts(1, KLEENE)

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            color_class_counts(12, CLASSICAL)

    def test_negative_budget_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^budget must be at least 0, got -1$"):
            color_class_counts(3, budget=-1)


class TestValuationOrder:
    def test_first_variable_most_significant(self):
        assert list(iter_valuations(2, KLEENE)) == [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (2, 2),
        ]

    def test_row_count(self):
        for sem in (KLEENE, CLASSICAL):
            for n in range(1, 5):
                assert len(list(iter_valuations(n, sem))) == sem.radix**n
