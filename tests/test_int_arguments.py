"""One rule for every integer argument of the library and the CLI.

A size, an order, a budget, a power, an index or a truth value must be an
`int` (a `bool` is not one), or the call raises `TypeError` naming the
argument; below its floor it raises `ValueError` naming it.  Every case
is drawn small or rejected before any work, so no call counts anything.
"""

import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from imptables.cli import _setting
from imptables.logic import (
    KLEENE,
    Leaf,
    Node,
    bracketing_at,
    brute_counts,
    catalan,
    color_class_counts,
    enumerate_bracketings,
    evaluate,
    implies,
    iter_valuations,
)
from imptables.monoid import Realizer, default_sample, run_all, verify_power_identities
from imptables.recurrences import counts_by_recurrence, kleene_by_recurrence
from imptables.series import PowerSeries, closed_form

# label: (the name an error gives the argument, its floor or None, the call
# that passes the value as that argument).  A floor is the least legal int;
# the sites that check only the type keep their own range text, which
# still names the argument below the floor listed here.  A floor of None
# means no floor, or a range check of the site's own that raises something
# other than ValueError (`coefficient` and `truncate` raise IndexError).
SITES = {
    "catalan n": ("n", 1, catalan),
    "enumerate_bracketings n": ("n", 1, enumerate_bracketings),
    "brute_counts n": ("n", 1, lambda v: brute_counts(v, KLEENE)),
    "brute_counts budget": ("budget", 0, lambda v: brute_counts(2, KLEENE, budget=v)),
    "color_class_counts n": ("n", 2, lambda v: color_class_counts(v, KLEENE)),
    "color_class_counts budget": ("budget", 0, lambda v: color_class_counts(2, KLEENE, budget=v)),
    "iter_valuations n": ("n", 0, iter_valuations),
    "bracketing_at index": ("index", 0, lambda v: bracketing_at(3, v)),
    "implies truth value": ("truth value", 0, lambda v: implies(v, 0)),
    "evaluate truth value": ("truth value", 0, lambda v: evaluate(Node(Leaf(1), Leaf(2)), (1, v))),
    "closed_form order": ("order", 1, lambda v: closed_form("t", v)),
    "PowerSeries.x order": ("order", 1, PowerSeries.x),
    "PowerSeries.constant order": ("order", 0, lambda v: PowerSeries.constant(1, v)),
    "PowerSeries.identity order": ("order", 0, PowerSeries.identity),
    "PowerSeries.zero order": ("order", 0, PowerSeries.zero),
    "PowerSeries.coefficient n": ("n", None, lambda v: PowerSeries([1, 2, 3]).coefficient(v)),
    "PowerSeries.truncate order": ("order", None, lambda v: PowerSeries([1, 2, 3]).truncate(v)),
    "PowerSeries ** exponent": ("exponent", 0, lambda v: PowerSeries([1, 2, 3]) ** v),
    "counts_by_recurrence n_max": ("n_max", 1, lambda v: counts_by_recurrence(v, KLEENE)),
    "SequenceTable.row n": ("n", 1, lambda v: kleene_by_recurrence(3).row(v)),
    "Realizer order": ("order", 2, lambda v: Realizer("kleene", v)),
    "Realizer.power k": ("k", 0, lambda v: Realizer("kleene", 2).power("t", v)),
    "run_all k_max": ("k_max", 2, lambda v: run_all(order=2, k_max=v)),
    "verify_power_identities k_max": (
        "k_max", 2, lambda v: verify_power_identities(Realizer("kleene", 2), v)
    ),
    "run_all tamper index": ("tamper index", 0, lambda v: run_all(order=2, tamper=("t", v, 1))),
    "run_all tamper delta": ("tamper delta", None, lambda v: run_all(order=2, tamper=("t", 0, v))),
    "run_all seed": ("seed", None, lambda v: run_all(order=2, seed=v)),
    "default_sample seed": ("seed", None, lambda v: default_sample("kleene", seed=v)),
    "cli setting": ("--n", 1, lambda v: _setting("--n", v, floor=1)),
}

# An int draw is an offset below the floor; anything else is the value.
BAD = st.one_of(
    st.booleans(),
    st.floats(min_value=-3, max_value=3),
    st.text(max_size=2),
    st.integers(min_value=-5, max_value=-1),
)


@pytest.mark.parametrize("site", SITES)
@settings(max_examples=40, derandomize=True, deadline=None)
@example(True)
@example(2.0)
@example("3")
@example(-1)
@given(BAD)
def test_integer_argument_rule(site, bad):
    name, floor, call = SITES[site]
    if type(bad) is int:
        assume(floor is not None)
        value = floor + bad
        with pytest.raises(ValueError) as raised:
            call(value)
        assert re.search(rf"(^|\W){re.escape(name)}\W", str(raised.value)), str(raised.value)
    else:
        with pytest.raises(TypeError) as raised:
            call(bad)
        assert str(raised.value) == f"{name} must be an int, got {bad!r}"
