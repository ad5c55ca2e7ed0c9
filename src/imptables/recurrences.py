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
ingredient is the connective itself.  Convolution is symmetric, so for a
result value v the kernel counts each unordered pair {a, b} by how many
of its orientations give a => b = v (two at most).  The pairs are then
grouped greedily: the value found in the most remaining pairs is a
group's left side and the multiset of its partners its right side, and
by bilinearity the group costs one convolution, the left column against
the sum of the right columns.  That is 4 convolutions per step in
three-valued semantics and 3 in classical, one of them a square formed
from half its products, against 9 and 4 for one per (a, b) pair.
"""

from operator import mul

from .logic import CLASSICAL, KLEENE, Semantics, _check_semantics, _Record, implies


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


def _kernel(sem: Semantics) -> dict[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """For each result value v, its (left value, right values) groups.

    Each unordered pair {a, b} giving v appears in one group, with a on
    the left and b in the right values once per orientation (a, b) or
    (b, a) that gives v.  The left value of each group is the one found
    in the most pairs still ungrouped, the lowest on ties.
    """
    kernel = {}
    for v in sem.values:
        orientations: dict[tuple[int, int], int] = {}
        for a in sem.values:
            for b in sem.values:
                if implies(a, b, sem) == v:
                    pair = (min(a, b), max(a, b))
                    orientations[pair] = orientations.get(pair, 0) + 1
        groups = []
        while orientations:
            left = min(sem.values, key=lambda x: (-sum(x in p for p in orientations), x))
            rights = []
            for pair in [p for p in orientations if left in p]:
                partner = pair[1] if pair[0] == left else pair[0]
                rights += [partner] * orientations.pop(pair)
            groups.append((left, tuple(sorted(rights))))
        kernel[v] = tuple(groups)
    return kernel


def _convolve(left: list[int], right: list[int]) -> int:
    """The next term of the convolution: sum of left[k] * right[m-1-k] over
    the m terms so far.  When both are one column (a square), each
    symmetric pair of products is formed once and doubled."""
    if left is not right:
        return sum(map(mul, left, reversed(right)))
    half, odd = divmod(len(left), 2)
    acc = 2 * sum(map(mul, left[:half], left[: -half - 1 : -1]))
    return acc + left[half] * left[half] if odd else acc


def counts_by_recurrence(n_max: int, sem: Semantics) -> SequenceTable:
    """Entry counts for all values and all n up to n_max, by convolution."""
    _check_semantics(sem)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    kernel = _kernel(sem)
    # One running column per multiset of values that a group sums over:
    # the counts of a single value, or the entrywise sum of several.
    sums: dict[tuple[int, ...], list[int]] = {(v,): [1] for v in sem.values}

    def running(values: tuple[int, ...]) -> list[int]:
        # At n = 1 each value is taken once, so a sum over k values starts at k.
        return sums.setdefault(values, [len(values)])

    terms = [
        (v, [(sums[(left,)], running(rights)) for left, rights in groups])
        for v, groups in kernel.items()
    ]
    for _ in range(2, n_max + 1):
        counts = {v: sum(_convolve(*pair) for pair in pairs) for v, pairs in terms}
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
