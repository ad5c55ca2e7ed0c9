"""The public record classes behave as frozen value records.

Covered for each of the eight classes: construction by position and by
keyword, equality only within the class, hashing as the tuple of the
fields, the exact repr, refusal of assignment and deletion, copies and
pickles, and positional ``match`` patterns.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from imptables.logic import CLASSICAL, KLEENE, CountVector, Leaf, Node, Semantics
from imptables.monoid import MonoidElement, VerificationReport, Witness
from imptables.recurrences import SequenceTable, counts_by_recurrence

TREE = Node(Node(Leaf(1), Leaf(2)), Leaf(3))
WITNESS = Witness(4, Fraction(2284, 3), 761, "t^2 at n={n}")

# (class, field values in order, the same instance's repr)
RECORDS = [
    (
        Semantics,
        ("kleene", 3, (0, 1, 2), 8),
        "Semantics(name='kleene', radix=3, values=(0, 1, 2), brute_budget=8)",
    ),
    (Leaf, (7,), "Leaf(index=7)"),
    (
        Node,
        (Node(Leaf(1), Leaf(2)), Leaf(3)),
        "Node(left=Node(left=Leaf(index=1), right=Leaf(index=2)), right=Leaf(index=3))",
    ),
    (CountVector, (3, 30, 6, 18, 54), "CountVector(n=3, t=30, f=6, u=18, g=54)"),
    (
        MonoidElement,
        ("kleene", (1, 0, 2)),
        "MonoidElement(logic='kleene', exponents=(1, 0, 2))",
    ),
    (
        Witness,
        (4, Fraction(2284, 3), 761, "t^2 at n={n}"),
        "Witness(n=4, lhs=Fraction(2284, 3), rhs=761, context='t^2 at n={n}')",
    ),
    (
        VerificationReport,
        ("bound", "t^k below g^k", 12, False, WITNESS),
        "VerificationReport(claim='bound', detail='t^k below g^k', order=12, "
        "verified=False, witness=Witness(n=4, lhs=Fraction(2284, 3), rhs=761, "
        "context='t^2 at n={n}'))",
    ),
    (
        SequenceTable,
        (CLASSICAL, 2, {0: (1, 1), 1: (1, 3)}, (2, 4)),
        "SequenceTable(semantics=Semantics(name='classical', radix=2, "
        "values=(0, 1), brute_budget=10), n_max=2, columns={0: (1, 1), 1: (1, 3)}, "
        "totals=(2, 4))",
    ),
]

FIELDS = {
    Semantics: ("name", "radix", "values", "brute_budget"),
    Leaf: ("index",),
    Node: ("left", "right"),
    CountVector: ("n", "t", "f", "u", "g"),
    MonoidElement: ("logic", "exponents"),
    Witness: ("n", "lhs", "rhs", "context"),
    VerificationReport: ("claim", "detail", "order", "verified", "witness"),
    SequenceTable: ("semantics", "n_max", "columns", "totals"),
}

HASHABLE = [r for r in RECORDS if r[0] is not SequenceTable]


def ids(records):
    return [cls.__name__ for cls, _, _ in records]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids(RECORDS))
class TestEveryRecord:
    def test_by_position_and_by_keyword(self, cls, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(FIELDS[cls], values)))
        assert by_position == by_keyword
        for name, value in zip(FIELDS[cls], values):
            assert getattr(by_position, name) is value
            assert getattr(by_keyword, name) is value

    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_equal_only_within_the_class(self, cls, values, text):
        record = cls(*values)
        assert record == cls(*values)
        assert not record != cls(*values)
        assert record != values
        assert values != record

    def test_assignment_and_deletion_refused(self, cls, values, text):
        record = cls(*values)
        for name in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
            assert getattr(record, name) is values[FIELDS[cls].index(name)]

    def test_copy_deepcopy_and_pickle_round_trip(self, cls, values, text):
        record = cls(*values)
        for twin in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(twin) is cls
            assert twin == record
            assert repr(twin) == text

    def test_match_args_are_the_fields_in_order(self, cls, values, text):
        # A class pattern's positional subpatterns bind the fields in order;
        # TestMatch below uses them.
        assert cls.__match_args__ == FIELDS[cls]


@pytest.mark.parametrize("cls, values, text", HASHABLE, ids=ids(HASHABLE))
def test_hash_is_the_hash_of_the_fields(cls, values, text):
    record = cls(*values)
    assert hash(record) == hash(values)
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1


def test_sequence_table_is_unhashable():
    with pytest.raises(TypeError):
        hash(counts_by_recurrence(3, KLEENE))


def test_different_classes_with_equal_fields_differ():
    assert Leaf(1) != (1,)
    assert (1,) != Leaf(1)
    assert Node(Leaf(1), Leaf(2)) != (Leaf(1), Leaf(2))
    assert Leaf(1) != Leaf(2)
    assert Witness(1, 2, 3, "c") != VerificationReport(1, 2, 3, "c")


def test_report_witness_defaults_to_none():
    report = VerificationReport("bound", "detail", 8, True)
    assert report.witness is None
    assert report == VerificationReport("bound", "detail", 8, True, None)
    assert report == VerificationReport(
        claim="bound", detail="detail", order=8, verified=True
    )
    assert repr(report) == (
        "VerificationReport(claim='bound', detail='detail', order=8, "
        "verified=True, witness=None)"
    )


class TestValidation:
    def test_count_vector_totals_must_add_up(self):
        with pytest.raises(ValueError, match=r"inconsistent counts at n=3: 30\+6\+18 != 55"):
            CountVector(3, 30, 6, 18, 55)
        with pytest.raises(ValueError, match="inconsistent counts"):
            CountVector(n=3, t=30, f=6, u=18, g=53)

    def test_count_vector_aliases(self):
        counts = CountVector(3, 30, 6, 18, 54)
        assert (counts.r, counts.s) == (30, 6)

    def test_monoid_element_logic(self):
        with pytest.raises(ValueError, match="logic must be 'kleene' or 'classical'"):
            MonoidElement("boolean", (1, 2))

    def test_monoid_element_length(self):
        with pytest.raises(ValueError, match="kleene elements need 3 exponents, got 2"):
            MonoidElement("kleene", (1, 2))
        with pytest.raises(ValueError, match="classical elements need 2 exponents"):
            MonoidElement(logic="classical", exponents=(1, 2, 3))

    def test_monoid_element_signs(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            MonoidElement("classical", (1, -1))

    def test_missing_and_extra_arguments(self):
        for call in (
            lambda: Leaf(),
            lambda: Leaf(1, 2),
            lambda: Leaf(1, index=1),
            lambda: Leaf(position=1),
            lambda: Node(Leaf(1)),
            lambda: VerificationReport("c", "d", 1),
        ):
            with pytest.raises(TypeError):
                call()


class TestMatch:
    def test_tree_patterns(self):
        def describe(tree):
            match tree:
                case Leaf(i):
                    return f"p{i}"
                case Node(Leaf(i), right):
                    return f"p{i} => {describe(right)}"
                case Node(left, right):
                    return f"({describe(left)}) => {describe(right)}"

        assert describe(TREE) == "(p1 => p2) => p3"
        assert describe(Node(Leaf(1), Node(Leaf(2), Leaf(3)))) == "p1 => p2 => p3"

    def test_record_patterns(self):
        match CountVector(3, 30, 6, 18, 54):
            case CountVector(n, t, f, u, g):
                assert (n, t, f, u, g) == (3, 30, 6, 18, 54)
        match KLEENE:
            case Semantics(name, radix, values, budget):
                assert (name, radix, values, budget) == ("kleene", 3, (0, 1, 2), 8)
        match VerificationReport("c", "d", 5, False, WITNESS):
            case VerificationReport(claim, _, _, False, Witness(n, lhs, rhs, _)):
                assert (claim, n, lhs, rhs) == ("c", 4, Fraction(2284, 3), 761)
        match MonoidElement("classical", (2, 0)):
            case MonoidElement("classical", (r, s)):
                assert (r, s) == (2, 0)
        match counts_by_recurrence(2, CLASSICAL):
            case SequenceTable(sem, n_max, columns, totals):
                assert (sem, n_max, totals) == (CLASSICAL, 2, (2, 4))
                assert columns == {0: (1, 1), 1: (1, 3)}


def test_records_in_sets_and_dict_keys():
    trees = {Leaf(1): "a", Node(Leaf(1), Leaf(2)): "b"}
    assert trees[Leaf(1)] == "a"
    assert trees[Node(Leaf(1), Leaf(2))] == "b"
    assert {KLEENE, Semantics("kleene", 3, (0, 1, 2), 8)} == {KLEENE}
    assert str(KLEENE) == "kleene"
    assert str(MonoidElement("kleene", (1, 0, 2))) == "t*u^2"
