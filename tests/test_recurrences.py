import ast
import inspect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import imptables.logic as logic
import imptables.recurrences as recurrences
from imptables.logic import (
    CLASSICAL,
    KLEENE,
    brute_counts,
    catalan,
    color_class_counts,
    enumerate_bracketings,
    tree_counts,
    truth_column,
)
from imptables.recurrences import (
    classical_by_recurrence,
    counts_by_recurrence,
    kleene_by_recurrence,
)
from imptables.series import closed_form


def literal_kleene(n_max):
    """The three-valued recurrences written out longhand, as a cross-check
    against the kernel derived from the implication table."""
    t, f, u = [1], [1], [1]
    for n in range(2, n_max + 1):
        g = [ti + fi + ui for ti, fi, ui in zip(t, f, u)]
        fn = sum(t[k - 1] * f[n - k - 1] for k in range(1, n))
        un = sum(
            t[k - 1] * u[n - k - 1] + u[k - 1] * f[n - k - 1] + u[k - 1] * u[n - k - 1]
            for k in range(1, n)
        )
        tn = sum(
            t[k - 1] * t[n - k - 1] + f[k - 1] * g[n - k - 1] + u[k - 1] * t[n - k - 1]
            for k in range(1, n)
        )
        t.append(tn)
        f.append(fn)
        u.append(un)
    return t, f, u


def literal_classical(n_max):
    r, s = [1], [1]
    for n in range(2, n_max + 1):
        sn = sum(r[k - 1] * s[n - k - 1] for k in range(1, n))
        rn = sum(
            r[k - 1] * r[n - k - 1]
            + s[k - 1] * (r[n - k - 1] + s[n - k - 1])
            for k in range(1, n)
        )
        r.append(rn)
        s.append(sn)
    return r, s


class TestKleene:
    def test_base_case(self):
        table = kleene_by_recurrence(1)
        assert table.row(1) == {0: 1, 1: 1, 2: 1}

    def test_small_rows(self):
        table = kleene_by_recurrence(3)
        assert (table.column(1)[1], table.column(0)[1], table.column(2)[1]) == (5, 1, 3)
        assert (table.column(1)[2], table.column(0)[2], table.column(2)[2]) == (30, 6, 18)

    def test_matches_longhand_recurrences(self):
        table = kleene_by_recurrence(15)
        t, f, u = literal_kleene(15)
        assert list(table.column(1)) == t
        assert list(table.column(0)) == f
        assert list(table.column(2)) == u

    def test_matches_brute_force(self):
        table = kleene_by_recurrence(6)
        for n in range(1, 7):
            counts = brute_counts(n, KLEENE)
            assert table.row(n) == {0: counts.f, 1: counts.t, 2: counts.u}

    def test_matches_closed_forms(self):
        order = 40
        table = kleene_by_recurrence(order)
        expected = {
            1: closed_form("t", order),
            0: closed_form("f", order),
            2: closed_form("u", order),
        }
        for value, series in expected.items():
            for n in range(1, order + 1):
                assert table.column(value)[n - 1] == series.coefficient(n)


class TestClassical:
    def test_base_case(self):
        assert classical_by_recurrence(1).row(1) == {0: 1, 1: 1}

    def test_small_rows(self):
        table = classical_by_recurrence(3)
        assert (table.column(1)[1], table.column(0)[1]) == (3, 1)
        assert (table.column(1)[2], table.column(0)[2]) == (12, 4)

    def test_matches_longhand_recurrences(self):
        table = classical_by_recurrence(15)
        r, s = literal_classical(15)
        assert list(table.column(1)) == r
        assert list(table.column(0)) == s

    def test_matches_brute_force(self):
        table = classical_by_recurrence(8)
        for n in range(1, 9):
            counts = brute_counts(n, CLASSICAL)
            assert table.row(n) == {0: counts.s, 1: counts.r}

    def test_matches_closed_forms(self):
        order = 40
        table = classical_by_recurrence(order)
        r = closed_form("r", order)
        s = closed_form("s", order)
        for n in range(1, order + 1):
            assert table.column(1)[n - 1] == r.coefficient(n)
            assert table.column(0)[n - 1] == s.coefficient(n)


class TestKernel:
    """Twice each count as a weighted sum of squares: the key (a,) is
    Q_a = x_a*x_a and (a, b) is D_ab = (x_a - x_b)*(x_a - x_b)."""

    def test_kleene_weights(self):
        # f = Q0 + Q1 - D01, t = 4Q0 + 4Q1 + 2Q2 - D01 - D02 - D12,
        # u = Q0 + Q1 + 4Q2 - D02 - D12, all halved
        assert recurrences._kernel(KLEENE) == {
            0: {(0,): 1, (1,): 1, (0, 1): -1},
            1: {(0,): 4, (1,): 4, (2,): 2, (0, 1): -1, (0, 2): -1, (1, 2): -1},
            2: {(0,): 1, (1,): 1, (2,): 4, (0, 2): -1, (1, 2): -1},
        }

    def test_classical_weights(self):
        # s = Q0 + Q1 - D01, r = 3Q0 + 3Q1 - D01, both halved
        assert recurrences._kernel(CLASSICAL) == {
            0: {(0,): 1, (1,): 1, (0, 1): -1},
            1: {(0,): 3, (1,): 3, (0, 1): -1},
        }

    def test_a_pair_keeps_both_orientations(self, monkeypatch):
        # Disjunction: 0 v 1 and 1 v 0 are both 1, so D01 weighs -2 there.
        table = patched_table({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
        monkeypatch.setattr(logic, "_IMPLIES_TABLE", table)
        assert recurrences._kernel(CLASSICAL) == {
            0: {(0,): 2},
            1: {(0,): 2, (1,): 4, (0, 1): -2},
        }

    @pytest.mark.parametrize("sem", [KLEENE, CLASSICAL], ids=["kleene", "classical"])
    def test_a_fault_in_any_one_square_moves_the_totals(self, monkeypatch, sem):
        def totals_hold():
            totals = counts_by_recurrence(8, sem).totals
            return all(totals[n - 1] == sem.radix**n * catalan(n) for n in range(1, 9))

        assert totals_hold()
        per_step = len({key for weights in recurrences._kernel(sem).values() for key in weights})
        square = recurrences._square
        for target in range(per_step):
            # The squares of a step are formed in one fixed order; raise
            # the target's by 2, so every halving stays exact.
            calls = itertools.count()
            monkeypatch.setattr(
                recurrences,
                "_square",
                lambda col: square(col) + 2 * (next(calls) % per_step == target),
            )
            assert not totals_hold(), target

    def test_an_odd_numerator_raises(self, monkeypatch):
        # Every square one too high: twice s gains 1 + 1 - 1 at n = 2.
        square = recurrences._square
        monkeypatch.setattr(recurrences, "_square", lambda col: square(col) + 1)
        with pytest.raises(ArithmeticError, match=r"^twice the count of value 0 at n = 2 is odd$"):
            counts_by_recurrence(2, CLASSICAL)


class TestLargeN:
    @pytest.mark.parametrize(
        "sem, names, total",
        [(KLEENE, {"t": 1, "f": 0, "u": 2}, "g"), (CLASSICAL, {"r": 1, "s": 0}, "g2")],
        ids=["kleene", "classical"],
    )
    def test_columns_match_the_closed_forms_to_120(self, sem, names, total):
        # Both parities of n, so both cases of a square's middle term.
        table = counts_by_recurrence(120, sem)
        for name, value in names.items():
            assert table.column(value) == closed_form(name, 120).coeffs[1:], name
        assert table.totals == closed_form(total, 120).coeffs[1:]

    @pytest.mark.parametrize(
        "sem, names", [(KLEENE, {"t": 1, "f": 0, "u": 2}), (CLASSICAL, {"r": 1, "s": 0})],
        ids=["kleene", "classical"],
    )
    def test_columns_match_the_closed_forms_to_300(self, sem, names):
        table = counts_by_recurrence(300, sem)
        for name, value in names.items():
            assert table.column(value) == closed_form(name, 300).coeffs[1:], name


class TestBruteForceBeyondTheDefaultBudgets:
    """Past the default budgets (Kleene 8, classical 10), with an explicit
    ``budget=``: the defaults bound what a call may cost, not where the
    counts stay right."""

    @pytest.mark.parametrize(
        "sem,n", [(KLEENE, 9), (KLEENE, 10), (CLASSICAL, 11), (CLASSICAL, 12)]
    )
    def test_brute_counts_match_the_recurrence(self, sem, n):
        row = counts_by_recurrence(n, sem).row(n)
        counts = brute_counts(n, sem, budget=n)
        assert (counts.t, counts.f, counts.u) == (row[1], row[0], row.get(2, 0))

    @pytest.mark.parametrize("n", [11, 12])
    def test_classical_color_classes_match_the_products(self, n):
        r, s = closed_form("r", n), closed_form("s", n)
        products = {(1, 1): r * r, (1, 0): r * s, (0, 1): s * r, (0, 0): s * s}
        assert color_class_counts(n, CLASSICAL, budget=n) == {
            key: series.coefficient(n) for key, series in products.items()
        }


class TestTotals:
    def test_totals_are_radix_scaled_catalan(self):
        for sem in (KLEENE, CLASSICAL):
            table = counts_by_recurrence(25, sem)
            for n in range(1, 26):
                assert table.totals[n - 1] == sem.radix**n * catalan(n)

    def test_totals_self_convolve(self):
        # the total sequence satisfies sum_k g_k g_{n-k} = g_n for n >= 2
        for sem in (KLEENE, CLASSICAL):
            table = counts_by_recurrence(30, sem)
            g = table.totals
            for n in range(2, 31):
                assert sum(g[k - 1] * g[n - k - 1] for k in range(1, n)) == g[n - 1]


class TestInterface:
    def test_row_bounds(self):
        table = kleene_by_recurrence(4)
        with pytest.raises(ValueError):
            table.row(0)
        with pytest.raises(ValueError):
            table.row(5)

    def test_invalid_n_max(self):
        with pytest.raises(ValueError):
            counts_by_recurrence(0, KLEENE)

    def test_sem_must_be_a_semantics(self):
        message = r"^sem must be a Semantics \(KLEENE or CLASSICAL\), got 'kleene'$"
        with pytest.raises(TypeError, match=message):
            counts_by_recurrence(5, "kleene")


def patched_table(outcomes):
    """`_IMPLIES_TABLE` with the given outcomes for the listed (a, b) pairs."""
    return tuple(
        tuple(outcomes.get((a, b), value) for b, value in enumerate(row))
        for a, row in enumerate(logic._IMPLIES_TABLE)
    )


def brute_row(n, sem):
    counts = brute_counts(n, sem)
    row = {0: counts.f, 1: counts.t, 2: counts.u}
    return {v: row[v] for v in sem.values}


def check_every_path(outcomes, sem, n_max):
    """The recurrence, `tree_counts` summed over every tree, the tallies of
    `truth_column` (n <= 5) and `color_class_counts` against brute force
    and the recurrence's columns, under the table patched in."""
    counts = counts_by_recurrence(n_max, sem)
    for n in range(1, n_max + 1):
        brute = brute_row(n, sem)
        assert counts.row(n) == brute, (outcomes, n)
        trees = enumerate_bracketings(n)
        by_tree = [dict(zip((1, 0, 2), tree_counts(tree, sem))) for tree in trees]
        assert {v: sum(t[v] for t in by_tree) for v in sem.values} == brute, (outcomes, n)
        if n <= 5:
            column = b"".join(truth_column(tree, sem) for tree in trees)
            assert {v: column.count(v) for v in sem.values} == brute, (outcomes, n)
        if n >= 2:
            # A root split of the n leaves into k and n - k.
            convolutions = {
                (a, b): sum(
                    counts.column(a)[k - 1] * counts.column(b)[n - k - 1] for k in range(1, n)
                )
                for a in sem.values
                for b in sem.values
            }
            assert color_class_counts(n, sem) == convolutions, (outcomes, n)


class TestEveryConnective:
    """Every counting path against brute force for other connectives.

    Brute force, `tree_counts`, `truth_column`, `color_class_counts` and
    the recurrence kernel read `_IMPLIES_TABLE` on every call, so
    patching it turns them into counters for another binary connective.
    None of them may depend on which table implication happens to be.
    """

    CLASSICAL_PAIRS = [(a, b) for a in (0, 1) for b in (0, 1)]
    KLEENE_PAIRS = [(a, b) for a in (0, 1, 2) for b in (0, 1, 2)]

    @pytest.mark.parametrize(
        "outcomes", list(itertools.product((0, 1), repeat=4)), ids=str
    )
    def test_all_classical_tables(self, monkeypatch, outcomes):
        # Only the classical entries change; those involving 2 stay.
        table = patched_table(dict(zip(self.CLASSICAL_PAIRS, outcomes)))
        monkeypatch.setattr(logic, "_IMPLIES_TABLE", table)
        counts = counts_by_recurrence(7, CLASSICAL)
        for n in range(1, 8):
            assert counts.row(n) == brute_row(n, CLASSICAL), (outcomes, n)
        check_every_path(outcomes, CLASSICAL, 7)

    @pytest.mark.parametrize("seed", range(20))
    def test_sampled_three_valued_tables(self, monkeypatch, seed):
        outcomes = random.Random(seed).choices((0, 1, 2), k=9)
        table = patched_table(dict(zip(self.KLEENE_PAIRS, outcomes)))
        monkeypatch.setattr(logic, "_IMPLIES_TABLE", table)
        counts = counts_by_recurrence(5, KLEENE)
        for n in range(1, 6):
            assert counts.row(n) == brute_row(n, KLEENE), (outcomes, n)
        check_every_path(outcomes, KLEENE, 5)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.sampled_from((0, 1, 2))] * 9))
    def test_drawn_three_valued_tables(self, outcomes):
        # Any of the 3^9 tables; monkeypatch's fixture would outlive one draw.
        table = patched_table(dict(zip(self.KLEENE_PAIRS, outcomes)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logic, "_IMPLIES_TABLE", table)
            check_every_path(outcomes, KLEENE, 5)


class TestIndependence:
    def test_recurrences_imports_no_other_counting_path(self):
        tree = ast.parse(inspect.getsource(recurrences))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert ".logic" in imported
        for name in imported:
            for banned in ("series", "monoid", "cli"):
                assert banned not in name.split("."), name
        for value in vars(recurrences).values():
            module = getattr(value, "__module__", None) or getattr(value, "__name__", "")
            assert not str(module).startswith(
                ("imptables.series", "imptables.monoid", "imptables.cli")
            ), value

    def test_kernel_read_on_every_call(self, monkeypatch):
        # Negative control: a kernel snapshotted at import would not see
        # the patched entry.
        clean = counts_by_recurrence(4, KLEENE)
        monkeypatch.setattr(logic, "_IMPLIES_TABLE", patched_table({(1, 0): 1}))
        assert counts_by_recurrence(4, KLEENE) != clean
