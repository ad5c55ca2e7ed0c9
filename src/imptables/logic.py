"""Bracketed implication chains and their truth tables.

A formula here is one parenthesization of ``p1 => p2 => ... => pn``,
i.e. a full binary tree whose leaves carry the variable positions 1..n.
Truth values are plain ints: 0 (false), 1 (true), 2 (unknown).  The
three-valued implication restricts to classical material implication
on {0, 1}, so both semantics share one outcome table.

Everything in this module counts exactly, with Python integers.
"""

import itertools
import math
import operator
from collections.abc import Callable, Iterator, Sequence

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


class _Record:
    """Base of the library's frozen value records.

    A subclass names its fields in ``__slots__``, in order.  They are set
    once, by position or keyword; after that the record refuses
    assignment and deletion.  It equals only records of its own class
    with equal fields, hashes as the tuple of its fields, prints as
    ``Name(field=value, ...)``, copies and pickles by reconstruction, and
    matches class patterns positionally.  This is what a frozen
    dataclass provides, without importing `dataclasses` (and `inspect`)
    or generating code at import, which a short CLI call would pay for.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = fields = cls.__slots__
        get = operator.attrgetter(*fields)
        # The fields as a tuple, read in C: eq and hash run on every set or
        # dict lookup.
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self.__slots__
        if len(args) + len(kwargs) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        for field in fields[len(args) :]:
            if field not in kwargs:
                raise TypeError(f"{type(self).__name__} takes the fields {fields}")
            object.__setattr__(self, field, kwargs[field])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, field: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {field!r} of a frozen record")

    def __delattr__(self, field: str) -> None:
        raise AttributeError(f"cannot delete field {field!r} of a frozen record")

    def __reduce__(self) -> tuple:
        return (type(self), self._astuple(self))


class Semantics(_Record):
    """A truth-value domain: classical {0,1} or three-valued {0,1,2}."""

    __slots__ = ("name", "radix", "values", "brute_budget")
    name: str
    radix: int
    values: tuple[int, ...]
    # Default max n for brute force.  The bit-planes over all radix**n
    # valuations of every bracketing of every shorter run of variables are
    # kept for one call, about radix**n / 8 bytes per plane, so the budget
    # bounds memory.
    brute_budget: int

    def __str__(self) -> str:
        return self.name


KLEENE = Semantics("kleene", 3, (0, 1, 2), brute_budget=8)
CLASSICAL = Semantics("classical", 2, (0, 1), brute_budget=10)


def semantics_from_radix(radix: int) -> Semantics:
    # An int only: 2.0 == 2, but a float (or a bool) is no radix.
    if type(radix) is not int or radix not in (2, 3):
        raise ValueError(f"radix must be 2 or 3, got {radix!r}")
    return CLASSICAL if radix == 2 else KLEENE


def _check_semantics(sem: object) -> None:
    """Reject a ``sem`` that is not a `Semantics` (a name such as "kleene"
    is not one): the one check of the library entry points that take it."""
    if not isinstance(sem, Semantics):
        raise TypeError(f"sem must be a Semantics (KLEENE or CLASSICAL), got {sem!r}")


def _check_value(v: int, sem: Semantics) -> None:
    if v not in sem.values:
        raise ValueError(f"truth value {v!r} is not legal in {sem.name} semantics")


def implies(a: int, b: int, sem: Semantics = KLEENE) -> int:
    """Value of ``a => b`` under the given semantics."""
    _check_semantics(sem)
    _check_value(a, sem)
    _check_value(b, sem)
    return _IMPLIES_TABLE[a][b]


class Leaf(_Record):
    """A variable occurrence; ``index`` is its 1-based position."""

    __slots__ = ("index",)
    index: int


class Node(_Record):
    """An implication ``left => right``."""

    __slots__ = ("left", "right")
    left: "Bracketing"
    right: "Bracketing"


Bracketing = Leaf | Node


def _not_a_tree(tree: object) -> TypeError:
    """The error of a tree recursion that reaches neither a Leaf nor a Node."""
    return TypeError(f"tree must be a Leaf or Node, got {tree!r}")


def leaf_count(tree: Bracketing) -> int:
    if isinstance(tree, Leaf):
        return 1
    if not isinstance(tree, Node):
        raise _not_a_tree(tree)
    return leaf_count(tree.left) + leaf_count(tree.right)


def first_leaf_index(tree: Bracketing) -> int:
    while isinstance(tree, Node):
        tree = tree.left
    return tree.index


def format_formula(tree: Bracketing) -> str:
    """Fully parenthesized ASCII rendering, e.g. ``((p1=>p2)=>p3)``."""
    if isinstance(tree, Leaf):
        return f"p{tree.index}"
    if not isinstance(tree, Node):
        raise _not_a_tree(tree)
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
    return tuple(_bracketings(n, Leaf, Node))


def _bracketings(
    n: int,
    leaf: Callable[[int], object],
    node: Callable[[object, object], object],
    root: Callable[[object, object], object] | None = None,
) -> Iterator[object]:
    """Every bracketing of ``p1 => ... => pn``, in canonical order.

    ``leaf(i)`` stands for variable i and ``node(left, right)`` for an
    implication.  The bracketings of each shorter run of variables are
    built once, bottom-up, into a dict keyed by ``(start, size)`` that
    lives only for this call, so subtrees are shared within the call and
    nothing outlives it.  The bracketings of the whole chain are yielded
    as ``root(left, right)`` (default ``node``), or ``leaf(1)`` when
    n = 1, and are not kept.
    """
    if n == 1:
        yield leaf(1)
        return
    root = root or node
    runs = {(start, 1): [leaf(start)] for start in range(1, n + 1)}
    for size in range(2, n):
        for start in range(1, n - size + 2):
            runs[start, size] = [
                node(left, right)
                for k in range(1, size)
                for left in runs[start, k]
                for right in runs[start + k, size - k]
            ]
    for k in range(1, n):
        for left in runs[1, k]:
            for right in runs[1 + k, n - k]:
                yield root(left, right)


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
    _check_semantics(sem)
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
    The rows are read from `_IMPLIES_TABLE` on every call.  The pieces
    are joined in blocks of `_JOIN_BLOCK` left values, then the blocks
    are joined: one join holds a buffer per piece, about 80 bytes each,
    so a left-nested tree would otherwise cost far more memory than its
    rows.
    """
    rows = [bytes(row).ljust(256, b"\0") for row in _IMPLIES_TABLE]
    return _column(tree, sem, rows)


_JOIN_BLOCK = 4096


def _column(tree: Bracketing, sem: Semantics, rows: list[bytes]) -> bytes:
    if isinstance(tree, Leaf):
        return bytes(sem.values)
    if not isinstance(tree, Node):
        raise _not_a_tree(tree)
    right = _column(tree.right, sem, rows)
    mapped = [right.translate(row) for row in rows]
    left = _column(tree.left, sem, rows)
    blocks = [
        b"".join([mapped[a] for a in left[start : start + _JOIN_BLOCK]])
        for start in range(0, len(left), _JOIN_BLOCK)
    ]
    return b"".join(blocks)


class CountVector(_Record):
    """Exact entry tallies of all truth tables at one n.

    ``t``/``f``/``u`` count the entries with value true/false/unknown;
    ``g`` is the grand total (``u`` is 0 in classical semantics, where
    the counts are conventionally called r and s).
    """

    __slots__ = ("n", "t", "f", "u", "g")
    n: int
    t: int
    f: int
    u: int
    g: int

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
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
# with it entry by entry.  No tree objects are built: `_bracketings`
# runs over bit-planes instead.  A formula's truth table over all
# radix**n valuations of the whole chain is held as one Python int per
# truth value, whose bit k is set when valuation number k (in
# `iter_valuations` order) gives that value.  A node's plane for value c
# is the OR, over the table pairs (a, b) with a => b = c, of
# left[a] & right[b], so one big-int operation evaluates a whole column
# of valuations (Biham's bit-slicing, FSE 1997).  Each bracketing of each
# shorter run of variables has its planes built once, bottom-up, and
# dropped when the call ends; every one of the catalan(n) * radix**n
# entries is still evaluated at the roots.  The pairs are read from
# `_IMPLIES_TABLE` on every call, and nothing here is shared with the
# recurrence or the closed forms.


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


def _plane_bracketings(
    n: int, sem: Semantics, root: Callable[[object, object], object] | None = None
) -> Iterator[object]:
    """`_bracketings` of n over bit-planes, in canonical order: each
    bracketing's planes, or ``root(left planes, right planes)``.
    """
    kernel = [(a, b, _IMPLIES_TABLE[a][b]) for a in sem.values for b in sem.values]

    def combine(left: list[int], right: list[int]) -> list[int]:
        out = [0, 0, 0]
        for a, b, c in kernel:
            out[c] |= left[a] & right[b]
        return out

    return _bracketings(n, lambda index: _leaf_planes(index, n, sem), combine, root)


def _check_budget(n: int, sem: Semantics, budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    limit = sem.brute_budget if budget is None else budget
    if n > limit:
        raise BudgetError(
            f"n={n} exceeds the brute-force budget ({limit}) for {sem.name} "
            f"semantics; raise the budget, or count with counts_by_recurrence or closed_form"
        )


def brute_counts(n: int, sem: Semantics = KLEENE, budget: int | None = None) -> CountVector:
    """Tally outcomes over every (bracketing, valuation) pair at n.

    This is the ground-truth path: it actually evaluates all
    catalan(n) * radix**n table entries.
    """
    _check_semantics(sem)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_budget(n, sem, budget)
    tally = [0, 0, 0]
    for planes in _plane_bracketings(n, sem):
        for value, plane in enumerate(planes):
            tally[value] += plane.bit_count()
    return CountVector(n=n, t=tally[1], f=tally[0], u=tally[2], g=sum(tally))


def tree_counts(tree: Bracketing, sem: Semantics = KLEENE) -> tuple[int, int, int]:
    """(true, false, unknown) tallies for a single tree, without iterating
    valuations: leaf tallies are all-ones, and an implication node combines
    its children's tallies through the outcome table.
    """
    _check_semantics(sem)
    counts = _dp_counts(tree, sem)
    return counts[1], counts[0], counts[2]


def _dp_counts(tree: Bracketing, sem: Semantics) -> list[int]:
    if isinstance(tree, Leaf):
        counts = [0, 0, 0]
        for v in sem.values:
            counts[v] = 1
        return counts
    if not isinstance(tree, Node):
        raise _not_a_tree(tree)
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
    _check_semantics(sem)
    if n < 2:
        raise ValueError(f"color classes need a root split, so n >= 2 (got {n})")
    _check_budget(n, sem, budget)
    classes = {(a, b): 0 for a in sem.values for b in sem.values}
    for left, right in _plane_bracketings(n, sem, root=lambda *pair: pair):
        for a, b in classes:
            classes[(a, b)] += (left[a] & right[b]).bit_count()
    return classes


def iter_valuations(n: int, sem: Semantics = KLEENE) -> Iterator[tuple[int, ...]]:
    """Valuations in table-row order: p1 most significant, digits 0,1,2."""
    _check_semantics(sem)
    return itertools.product(sem.values, repeat=n)
