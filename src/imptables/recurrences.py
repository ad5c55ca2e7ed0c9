"""Convolution recurrences for the truth-table counts.

Every bracketing of n variables splits uniquely at the root into a left
part with k variables and a right part with n-k, and the entry counts of
the whole table factor through the counts of the two parts: each cell of
the product table pairs one left valuation with one right one, and the
result value depends only on the values the parts take there.  Summing
over k gives quadratic convolution recurrences with base case n=1, where
the single formula p1 takes each value exactly once.

The recurrence kernel is derived from the implication table at import
time rather than hard-coded, so these counts are an independent check
against both the brute-force enumeration and the closed forms: the only
shared ingredient is the connective itself.
"""

from __future__ import annotations

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


def _kernel(sem: Semantics) -> dict[int, tuple[tuple[int, int], ...]]:
    """For each result value, the (left, right) value pairs producing it."""
    table: dict[int, list[tuple[int, int]]] = {v: [] for v in sem.values}
    for a in sem.values:
        for b in sem.values:
            table[implies(a, b, sem)].append((a, b))
    return {v: tuple(pairs) for v, pairs in table.items()}


def counts_by_recurrence(n_max: int, sem: Semantics) -> SequenceTable:
    """Entry counts for all values and all n up to n_max, by convolution."""
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    kernel = _kernel(sem)
    counts: dict[int, list[int]] = {v: [1] for v in sem.values}
    for n in range(2, n_max + 1):
        for v in sem.values:
            total = 0
            for a, b in kernel[v]:
                left, right = counts[a], counts[b]
                total += sum(left[k - 1] * right[n - k - 1] for k in range(1, n))
            counts[v].append(total)
        # grow all columns in lockstep so the inner sums above see
        # completed rows only
    columns = {v: tuple(col) for v, col in counts.items()}
    totals = tuple(sum(col[i] for col in columns.values()) for i in range(n_max))
    return SequenceTable(semantics=sem, n_max=n_max, columns=columns, totals=totals)


def kleene_by_recurrence(n_max: int) -> SequenceTable:
    return counts_by_recurrence(n_max, KLEENE)


def classical_by_recurrence(n_max: int) -> SequenceTable:
    return counts_by_recurrence(n_max, CLASSICAL)
