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
ingredient is the connective itself.  Each step forms only
self-convolutions (squares), each from half its products: Q_a = x_a*x_a
for every value column x_a, and D_ab = (x_a - x_b)*(x_a - x_b) for each
pair of values a < b.  By polarization x_a*x_b = (Q_a + Q_b - D_ab) / 2,
so twice each count is an integer combination of squares, and the kernel
holds its weights: each ordered pair (a, b) with a => b = v adds
Q_a + Q_b - D_ab to twice the count of v, which is 2 Q_a when a == b.
That is 6 half-cost squares per step in three-valued semantics and 3 in
classical, against 9 and 4 full convolutions for one per (a, b) pair.
The halving is exact or the step raises `ArithmeticError`.

No value is taken as the row total minus the others, so the totals stay
a check of every square: twice the total is 2r times the sum of the Q_a
minus twice the sum of the D_ab (r the radix), and a fault in any one
square moves it off r^n times the Catalan number.
"""

from operator import mul

from . import _check_int
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
        _check_int("n", n)
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n must be in 1..{self.n_max}, got {n}")
        return {v: col[n - 1] for v, col in self.columns.items()}


def _kernel(sem: Semantics) -> dict[int, dict[tuple[int, ...], int]]:
    """For each result value v, the weight of each square in twice its count.

    The key (a,) stands for Q_a and (a, b), a < b, for D_ab.  Each ordered
    pair (a, b) with a => b = v adds 1 to the weights of Q_a and of Q_b,
    and -1 to that of D_ab when a != b.
    """
    kernel: dict[int, dict[tuple[int, ...], int]] = {v: {} for v in sem.values}
    for a in sem.values:
        for b in sem.values:
            weights = kernel[implies(a, b, sem)]
            weights[(a,)] = weights.get((a,), 0) + 1
            weights[(b,)] = weights.get((b,), 0) + 1
            if a != b:
                pair = (min(a, b), max(a, b))
                weights[pair] = weights.get(pair, 0) - 1
    return kernel


def _square(col: list[int]) -> int:
    """The next term of the column's self-convolution: the sum of
    col[k] * col[m-1-k] over its m terms, each symmetric pair of products
    formed once and doubled."""
    half, odd = divmod(len(col), 2)
    acc = 2 * sum(map(mul, col[:half], col[: -half - 1 : -1]))
    return acc + col[half] * col[half] if odd else acc


def counts_by_recurrence(n_max: int, sem: Semantics) -> SequenceTable:
    """Entry counts for all values and all n up to n_max, by convolution."""
    _check_semantics(sem)
    _check_int("n_max", n_max, 1)
    kernel = _kernel(sem)
    # The running argument of each square: x_a for (a,), x_a - x_b for
    # (a, b).  At n = 1 each value is taken once.
    columns = {key: [1 if len(key) == 1 else 0] for weights in kernel.values() for key in weights}
    for n in range(2, n_max + 1):
        squares = {key: _square(col) for key, col in columns.items()}
        counts = {}
        for v, weights in kernel.items():
            counts[v], odd = divmod(sum(w * squares[key] for key, w in weights.items()), 2)
            if odd:
                raise ArithmeticError(f"twice the count of value {v} at n = {n} is odd")
        for key, col in columns.items():
            col.append(counts[key[0]] - sum(counts[b] for b in key[1:]))
    values = {v: tuple(columns[(v,)]) for v in sem.values}
    totals = tuple(map(sum, zip(*values.values())))
    return SequenceTable(semantics=sem, n_max=n_max, columns=values, totals=totals)


def kleene_by_recurrence(n_max: int) -> SequenceTable:
    return counts_by_recurrence(n_max, KLEENE)


def classical_by_recurrence(n_max: int) -> SequenceTable:
    return counts_by_recurrence(n_max, CLASSICAL)
