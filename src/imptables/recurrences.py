"""Convolution recurrences for the truth-table counts.

Every bracketing of n variables splits uniquely at the root into a left
part with k variables and a right part with n-k, and the entry counts of
the whole table factor through the counts of the two parts: each cell of
the product table pairs one left valuation with one right one, and the
result value depends only on the values the parts take there.  Summing
over k gives quadratic convolution recurrences with base case n=1, where
the single formula p1 takes each value exactly once.

The recurrence kernel is derived from `implies` on every call rather
than hard-coded, so these counts are an independent check against both
the brute-force enumeration and the closed forms: the only shared
ingredient is the connective itself.  For a result value v, the left
values a whose rows {b : a => b = v} are equal form one group, and by
bilinearity the group costs one convolution: the sum of its left
columns against the sum of its row's columns.  That is 5 convolutions
per step in three-valued semantics and 3 in classical, against 9 and 4
for one per (a, b) pair.
"""

from __future__ import annotations

from operator import mul

from .logic import CLASSICAL, KLEENE, Semantics, _Record, implies


class SequenceTable(_Record):
    """Counts for n = 1..n_max, one tuple per tracked value.

    `columns` maps a truth value to the tuple of its counts; index i
    holds the count for n = i + 1.  `totals` is the row-wise sum, i.e.
    the number of table entries radix**n times the bracketing count.
    """

    __slots__ = ("semantics", "n_max", "columns", "totals")
    semantics: Semantics
    n_max: int
    columns: dict[int, tuple[int, ...]]
    totals: tuple[int, ...]

    def column(self, value: int) -> tuple[int, ...]:
        return self.columns[value]

    def row(self, n: int) -> dict[int, int]:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max}, got {n}")
        return {v: col[n - 1] for v, col in self.columns.items()}


def _kernel(sem: Semantics) -> dict[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
    """For each result value v, its (left values, right values) groups.

    Left values a with the same row {b : a => b = v} form one group, and
    that row is the group's right values; together the groups cover every
    (a, b) pair producing v exactly once.
    """
    kernel = {}
    for v in sem.values:
        groups: dict[tuple[int, ...], list[int]] = {}
        for a in sem.values:
            row = tuple(b for b in sem.values if implies(a, b, sem) == v)
            if row:
                groups.setdefault(row, []).append(a)
        kernel[v] = tuple((tuple(lefts), row) for row, lefts in groups.items())
    return kernel


def counts_by_recurrence(n_max: int, sem: Semantics) -> SequenceTable:
    """Entry counts for all values and all n up to n_max, by convolution."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    kernel = _kernel(sem)
    # One running column per set of values that a group sums over: the
    # counts of a single value, or the entrywise sum of several.
    sums: dict[tuple[int, ...], list[int]] = {(v,): [1] for v in sem.values}

    def running(values: tuple[int, ...]) -> list[int]:
        # At n = 1 each value is taken once, so a sum over k values starts at k.
        return sums.setdefault(values, [len(values)])

    terms = [
        (v, [(running(lefts), running(rights)) for lefts, rights in groups])
        for v, groups in kernel.items()
    ]
    for _ in range(2, n_max + 1):
        counts = {
            v: sum(sum(map(mul, left, reversed(right))) for left, right in pairs)
            for v, pairs in terms
        }
        # extend every column only once the whole row is known, so each
        # convolution above sees lists of equal length
        for values, col in sums.items():
            col.append(sum(counts[v] for v in values))
    columns = {v: tuple(sums[(v,)]) for v in sem.values}
    totals = tuple(sum(col[i] for col in columns.values()) for i in range(n_max))
    return SequenceTable(semantics=sem, n_max=n_max, columns=columns, totals=totals)


def kleene_by_recurrence(n_max: int) -> SequenceTable:
    return counts_by_recurrence(n_max, KLEENE)


def classical_by_recurrence(n_max: int) -> SequenceTable:
    return counts_by_recurrence(n_max, CLASSICAL)
