"""Truth tables of bracketed implication chains.

Exact entry counts over all bracketings in classical and three-valued
logic, computed three independent ways (brute force, convolution
recurrence, closed-form series expansion), plus coefficientwise
verification of the algebraic structure the count series generate.

The public names below are loaded on first access (PEP 562), so
``import imptables`` and the command line import only the modules they
use.
"""

import importlib

__version__ = "0.1.0"

# The public names each submodule defines; `__all__` lists them all.
_NAMES_BY_MODULE = {
    "logic": (
        "CLASSICAL FALSE KLEENE TRUE UNKNOWN Bracketing BudgetError CountVector "
        "Leaf Node Semantics brute_counts catalan color_class_counts "
        "enumerate_bracketings evaluate format_formula implies iter_valuations "
        "leaf_count semantics_from_radix tree_counts"
    ),
    "monoid": (
        "MonoidElement Realizer VerificationReport Witness default_sample run_all "
        "verify_associativity verify_bound verify_commutativity verify_ideal_samples "
        "verify_partitions verify_power_identities verify_substitution_bounds"
    ),
    "recurrences": (
        "SequenceTable classical_by_recurrence counts_by_recurrence kleene_by_recurrence"
    ),
    "series": (
        "CLASSICAL_SERIES KLEENE_SERIES SERIES_NAMES ConsistencyError PowerSeries "
        "closed_form series_description"
    ),
}
_MODULE_OF = {
    name: module for module, names in _NAMES_BY_MODULE.items() for name in names.split()
}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str) -> object:
    """A public name, imported from its module on first use and then kept
    in the package namespace.  A submodule name imports the submodule,
    so ``imptables.logic`` works after a bare ``import imptables``."""
    if name in _NAMES_BY_MODULE:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def _check_int(name: str, value: object, floor: int | None = None, why: str = "") -> None:
    """The one rule of every integer argument (a size, an order, a budget,
    a power, an index, a truth value): ``value`` must be an `int`, and a
    `bool`, which would pass for 0 or 1, is not one; with a ``floor``, it
    must also be at least that (``why`` says why the floor is there).
    Here, not in a submodule, because every module already loads the
    package, and `logic` and `series` must not import each other."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if floor is not None and value < floor:
        raise ValueError(f"{name} must be at least {floor}{why}, got {value}")
