"""Bracketed implication chains and their truth tables.

A formula here is one parenthesization of ``p1 => p2 => ... => pn``,
i.e. a full binary tree whose leaves carry the variable positions 1..n.
Truth values are plain ints: 0 (false), 1 (true), 2 (unknown).  The
three-valued implication restricts to classical material implication
on {0, 1}, so both semantics share one outcome table.

Everything in this module counts exactly, with Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

FALSE = 0
TRUE = 1
UNKNOWN = 2

# Outcome of ``a => b``, indexed [antecedent][consequent].
_IMPLIES_TABLE = (
    (1, 1, 1),  # antecedent 0: implication holds whatever the consequent
    (0, 1, 2),  # antecedent 1: implication takes the consequent's value
    (2, 1, 2),  # antecedent 2: true consequent rescues, otherwise unknown
)


class BudgetError(Exception):
    """Raised when a brute-force enumeration would exceed its budget."""


@dataclass(frozen=True)
class Semantics:
    """A truth-value domain: classical {0,1} or three-valued {0,1,2}."""

    name: str
    radix: int
    values: tuple[int, ...]
    # Default max n for brute force.  Every subtree's bit-planes over all
    # radix**n valuations are kept for one call, about radix**n / 8 bytes
    # per memoized plane, so the budget bounds memory.
    brute_budget: int

    def __str__(self) -> str:
        return self.name


KLEENE = Semantics("kleene", 3, (0, 1, 2), brute_budget=8)
CLASSICAL = Semantics("classical", 2, (0, 1), brute_budget=10)


def semantics_from_radix(radix: int) -> Semantics:
    if radix == 2:
        return CLASSICAL
    if radix == 3:
        return KLEENE
    raise ValueError(f"radix must be 2 or 3, got {radix}")


def _check_value(v: int, sem: Semantics) -> None:
    if v not in sem.values:
        raise ValueError(f"truth value {v!r} is not legal in {sem.name} semantics")


def implies(a: int, b: int, sem: Semantics = KLEENE) -> int:
    """Value of ``a => b`` under the given semantics."""
    _check_value(a, sem)
    _check_value(b, sem)
    return _IMPLIES_TABLE[a][b]


@dataclass(frozen=True)
class Leaf:
    """A variable occurrence; ``index`` is its 1-based position."""

    index: int


@dataclass(frozen=True)
class Node:
    """An implication ``left => right``."""

    left: "Bracketing"
    right: "Bracketing"


Bracketing = Union[Leaf, Node]


def leaf_count(tree: Bracketing) -> int:
    if isinstance(tree, Leaf):
        return 1
    return leaf_count(tree.left) + leaf_count(tree.right)


def first_leaf_index(tree: Bracketing) -> int:
    while isinstance(tree, Node):
        tree = tree.left
    return tree.index


def format_formula(tree: Bracketing) -> str:
    """Fully parenthesized ASCII rendering, e.g. ``((p1=>p2)=>p3)``."""
    if isinstance(tree, Leaf):
        return f"p{tree.index}"
    return f"({format_formula(tree.left)}=>{format_formula(tree.right)})"


def catalan(n: int) -> int:
    """Number of bracketings of an n-variable chain: binom(2n-2, n-1)/n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.comb(2 * n - 2, n - 1) // n


def enumerate_bracketings(n: int) -> tuple[Bracketing, ...]:
    """All bracketings on n variables, in canonical order.

    Order: by root split k = size of the left subtree, ascending, then
    recursively by the left subtree's position, then the right's.  The
    result is deterministic, so trees are addressable by index.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _bracketings(1, n)


@lru_cache(maxsize=None)
def _bracketings(start: int, size: int) -> tuple[Bracketing, ...]:
    if size == 1:
        return (Leaf(start),)
    out = []
    for k in range(1, size):
        for left in _bracketings(start, k):
            for right in _bracketings(start + k, size - k):
                out.append(Node(left, right))
    return tuple(out)


def bracketing_at(n: int, index: int) -> Bracketing:
    """The tree ``enumerate_bracketings(n)[index]``, built without the others.

    In the canonical order, root split k is a block of catalan(k) *
    catalan(n-k) trees, left position major, so the position within the
    block splits by divmod into the left and right subtrees' positions
    (Catalan unranking, Knuth TAOCP 4A 7.2.1.6).  O(n^2) steps; nothing
    is cached.
    """
    total = catalan(n)
    if not 0 <= index < total:
        raise ValueError(
            f"tree index {index} out of range; n={n} has {total} "
            f"bracketings, valid indices 0..{total - 1}"
        )
    return _unrank(1, n, index)


def _unrank(start: int, size: int, index: int) -> Bracketing:
    if size == 1:
        return Leaf(start)
    k = 1
    while index >= (block := catalan(k) * catalan(size - k)):
        index -= block
        k += 1
    left, right = divmod(index, catalan(size - k))
    return Node(_unrank(start, k, left), _unrank(start + k, size - k, right))


def evaluate(tree: Bracketing, valuation: Sequence[int], sem: Semantics = KLEENE) -> int:
    """Evaluate ``tree`` under ``valuation`` (position i -> value of p_{i+1})."""
    if leaf_count(tree) != len(valuation):
        raise ValueError(
            f"valuation has {len(valuation)} entries but the formula has "
            f"{leaf_count(tree)} variables"
        )
    for v in valuation:
        _check_value(v, sem)
    return _eval(tree, valuation, first_leaf_index(tree))


def _eval(tree: Bracketing, valuation: Sequence[int], base: int) -> int:
    if isinstance(tree, Leaf):
        return valuation[tree.index - base]
    return _IMPLIES_TABLE[_eval(tree.left, valuation, base)][
        _eval(tree.right, valuation, base)
    ]


def truth_column(tree: Bracketing, sem: Semantics = KLEENE) -> bytes:
    """The tree's value under every valuation of its variables, in
    `iter_valuations` order: byte k is the value `evaluate` gives
    valuation number k.

    The left subtree's variables are the more significant digits, so a
    node's column is, for each value ``a`` of the left column in turn,
    the right column mapped through row ``a`` of the implication table.
    The rows are read from `_IMPLIES_TABLE` on every call.
    """
    rows = [bytes(row).ljust(256, b"\0") for row in _IMPLIES_TABLE]
    return _column(tree, sem, rows)


def _column(tree: Bracketing, sem: Semantics, rows: list[bytes]) -> bytes:
    if isinstance(tree, Leaf):
        return bytes(sem.values)
    right = _column(tree.right, sem, rows)
    mapped = [right.translate(row) for row in rows]
    return b"".join([mapped[a] for a in _column(tree.left, sem, rows)])


@dataclass(frozen=True)
class CountVector:
    """Exact entry tallies of all truth tables at one n.

    ``t``/``f``/``u`` count the entries with value true/false/unknown;
    ``g`` is the grand total (``u`` is 0 in classical semantics, where
    the counts are conventionally called r and s).
    """

    n: int
    t: int
    f: int
    u: int
    g: int

    def __post_init__(self) -> None:
        if self.t + self.f + self.u != self.g:
            raise ValueError(
                f"inconsistent counts at n={self.n}: "
                f"{self.t}+{self.f}+{self.u} != {self.g}"
            )

    @property
    def r(self) -> int:
        """Classical alias for the true-entry count."""
        return self.t

    @property
    def s(self) -> int:
        """Classical alias for the false-entry count."""
        return self.f


# --- brute-force path ------------------------------------------------------
#
# The reference semantics is `evaluate`; tests assert this path agrees
# with it entry by entry.  Each subtree's truth table over all radix**n
# valuations of the whole chain is held as bit-planes: one Python int per
# truth value, whose bit k is set when valuation number k (in
# `iter_valuations` order) gives that value.  A node's plane for value c
# is the OR, over the table pairs (a, b) with a => b = c, of
# left[a] & right[b], so one big-int operation evaluates a whole column
# of valuations (Biham's bit-slicing, FSE 1997).  Every one of the
# catalan(n) * radix**n entries is still evaluated; the pairs are read
# from `_IMPLIES_TABLE` on every call, and nothing here is shared with
# the recurrence or the closed forms.


def _leaf_planes(index: int, n: int, sem: Semantics) -> list[int]:
    """Planes of variable ``index`` (1-based) over all valuations of n.

    Variable i holds value v on runs of radix**(n-i) bits at offset
    v * run, repeated with period radix**(n-i+1): one block times a
    repunit with that period.
    """
    run = sem.radix ** (n - index)
    period = run * sem.radix
    repunit = ((1 << (period * sem.radix ** (index - 1))) - 1) // ((1 << period) - 1)
    planes = [0, 0, 0]
    for v in sem.values:
        planes[v] = repunit * (((1 << run) - 1) << (v * run))
    return planes


class _PlaneEvaluator:
    """Bit-planes of the trees of one n, for the duration of one call.

    Subtree planes are memoized by ``id()``: `_bracketings` hands out the
    same subtree objects to every tree that contains them, and the trees
    of `enumerate_bracketings(n)` keep them alive (so no id is reused)
    while the evaluator lives.  Roots are evaluated through `combine`
    and not stored, since no other tree shares them.
    """

    def __init__(self, n: int, sem: Semantics) -> None:
        self.n = n
        self.sem = sem
        self.kernel = [
            (a, b, _IMPLIES_TABLE[a][b]) for a in sem.values for b in sem.values
        ]
        self._memo: dict[int, list[int]] = {}

    def combine(self, left: list[int], right: list[int]) -> list[int]:
        out = [0, 0, 0]
        for a, b, c in self.kernel:
            out[c] |= left[a] & right[b]
        return out

    def planes(self, tree: Bracketing) -> list[int]:
        found = self._memo.get(id(tree))
        if found is None:
            if isinstance(tree, Leaf):
                found = _leaf_planes(tree.index, self.n, self.sem)
            else:
                found = self.combine(self.planes(tree.left), self.planes(tree.right))
            self._memo[id(tree)] = found
        return found


def _check_budget(n: int, sem: Semantics, budget: int | None) -> None:
    limit = sem.brute_budget if budget is None else budget
    if n > limit:
        raise BudgetError(
            f"n={n} exceeds the brute-force budget ({limit}) for {sem.name} "
            f"semantics; raise the budget or use the tree_counts path"
        )


def brute_counts(n: int, sem: Semantics = KLEENE, budget: int | None = None) -> CountVector:
    """Tally outcomes over every (bracketing, valuation) pair at n.

    This is the ground-truth path: it actually evaluates all
    catalan(n) * radix**n table entries.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_budget(n, sem, budget)
    evaluator = _PlaneEvaluator(n, sem)
    tally = [0, 0, 0]
    for tree in enumerate_bracketings(n):
        if isinstance(tree, Leaf):
            root = evaluator.planes(tree)
        else:
            root = evaluator.combine(
                evaluator.planes(tree.left), evaluator.planes(tree.right)
            )
        for value, plane in enumerate(root):
            tally[value] += plane.bit_count()
    return CountVector(n=n, t=tally[1], f=tally[0], u=tally[2], g=sum(tally))


def tree_counts(tree: Bracketing, sem: Semantics = KLEENE) -> tuple[int, int, int]:
    """(true, false, unknown) tallies for a single tree, without iterating
    valuations: leaf tallies are all-ones, and an implication node combines
    its children's tallies through the outcome table.
    """
    counts = _dp_counts(tree, sem)
    return counts[1], counts[0], counts[2]


def _dp_counts(tree: Bracketing, sem: Semantics) -> list[int]:
    if isinstance(tree, Leaf):
        counts = [0, 0, 0]
        for v in sem.values:
            counts[v] = 1
        return counts
    left = _dp_counts(tree.left, sem)
    right = _dp_counts(tree.right, sem)
    out = [0, 0, 0]
    for a in sem.values:
        if not left[a]:
            continue
        row = _IMPLIES_TABLE[a]
        for b in sem.values:
            out[row[b]] += left[a] * right[b]
    return out


def color_class_counts(
    n: int, sem: Semantics = KLEENE, budget: int | None = None
) -> dict[tuple[int, int], int]:
    """Classify every (tree, valuation) entry at n by the pair

        (value of the root's left subformula, value of the root's right).

    In classical semantics the four classes are exactly the convolution
    decomposition of the total count.  Left and right subtrees read
    disjoint variables, so per tree the tally of a pair class factors
    into (left outcomes) x (right outcomes).  Each entry is still
    classified individually: the class (a, b) of a tree is the bit count
    of ``left[a] & right[b]`` over the bit-planes of its two root
    subtrees, which hold every valuation of the whole chain.
    """
    if n < 2:
        raise ValueError(f"color classes need a root split, so n >= 2 (got {n})")
    _check_budget(n, sem, budget)
    evaluator = _PlaneEvaluator(n, sem)
    classes = {(a, b): 0 for a in sem.values for b in sem.values}
    for tree in enumerate_bracketings(n):
        left = evaluator.planes(tree.left)
        right = evaluator.planes(tree.right)
        for a, b in classes:
            classes[(a, b)] += (left[a] & right[b]).bit_count()
    return classes


def iter_valuations(n: int, sem: Semantics = KLEENE) -> Iterator[tuple[int, ...]]:
    """Valuations in table-row order: p1 most significant, digits 0,1,2."""
    return itertools.product(sem.values, repeat=n)
