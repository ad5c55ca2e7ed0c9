"""Coefficientwise verification of the count-series monoid structure.

The objects checked here are products of the count generating functions:
powers of t, f, u (three-valued) or r, s (classical) multiplied together,
with the constant series 1 as identity.  Elements are represented
symbolically as exponent vectors over the generators; `Realizer` turns a
vector into an exact truncated series by multiplying out memoized
generator powers, and forms each ordered product of two elements once:
commutativity compares the products in both orders, and associativity
reuses the sampled pair's product for its left-nested side.

Every claim is one lazy stream of cases fed to one call of one runner,
`_check`, which compares exact rational coefficients up to a truncation
order and reports the first failing index with both sides as a witness.
A claim states its relation, its witness context and its failure detail
once, the last two as `str.format` templates; a case carries only its
two coefficient sequences and the fields those templates name (the
elements it multiplies, say, or, where the cases of one claim differ in
wording, the case's own `context` and `failed` text).  `_check` alone
states which indices a relation checks.  Only a failing case is
formatted.
A deliberate tamper hook can corrupt one coefficient of one generator so
the pipeline's failure path can be exercised end to end.

Identities checked for the three-valued generators, with g the total
series and x the coefficient shift:

    3*u^k  = u^(k-1) - x*u^(k-2)
    f^k    = 2*f^(k-1)*u - f^(k-1) + x*f^(k-2)
    t^k    = (2/3)*t^(k-1)*g^2 - (2/3)*t^(k-1)*g*f + t^(k-1)*f^2 + x*t^(k-1)

The t identity works because the quadratic combination
(2/3)*g^2 - (2/3)*g*f + f^2 expands to exactly t - x, which the test
suite pins separately; multiplying by t^(k-1) and adding back x*t^(k-1)
reconstructs t^k.
"""

import itertools
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import reduce
from operator import add, eq, mul

from . import _check_int
from .logic import CLASSICAL, _Record, color_class_counts
from .series import CLASSICAL_SERIES, KLEENE_SERIES, SERIES_VALUES, PowerSeries, closed_form

# Every series a realizer expands, by logic: the generators (the series
# that count one truth value) and the total (the one that counts none).
SERIES = {"kleene": KLEENE_SERIES, "classical": CLASSICAL_SERIES}
GENERATORS = {logic: tuple(values) for logic, values in SERIES_VALUES.items()}
TOTALS = {logic: n for logic, names in SERIES.items() for n in names if n not in GENERATORS[logic]}

Tamper = tuple[str, int, int]

# `run_all`'s defaults, which the monoid command takes too.
DEFAULT_ORDER = 40
DEFAULT_K_MAX = 6
DEFAULT_SEED = 0

# The fixed sample sizes and caps of the claims, read by `default_sample`
# (SAMPLE_*), `verify_partitions` (COLOR_N_MAX), `verify_ideal_samples`
# (IDEAL_POWER_CAP) and `verify_substitution_bounds` (SUBSTITUTION_*).
SAMPLE_DEGREE_CAP = 5
SAMPLE_RANDOM_COUNT = 100
SAMPLE_EXPONENT_CAP = 8
COLOR_N_MAX = 6
IDEAL_POWER_CAP = 3
SUBSTITUTION_EXTRA_CAP = 3
SUBSTITUTION_POWER_CAP = 3


def _generators(logic: str) -> tuple[str, ...]:
    """The generators of ``logic``, which must be one of GENERATORS."""
    if logic not in GENERATORS:
        raise ValueError(f"logic must be 'kleene' or 'classical', got {logic!r}")
    return GENERATORS[logic]


class MonoidElement(_Record):
    """A formal product of generator powers, as an exponent vector.

    `exponents` lines up with GENERATORS[logic]; the all-zero vector is
    the identity element.  Multiplication adds exponents.
    """

    __slots__ = ("logic", "exponents")
    logic: str
    exponents: tuple[int, ...]

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        names, exponents = _generators(self.logic), self.exponents
        # Only a tuple of ints can key the realizer's memos and index its powers.
        if not isinstance(exponents, tuple) or not set(map(type, exponents)) <= {int}:
            raise ValueError(f"exponents must be a tuple of ints, got {exponents!r}")
        if len(exponents) != len(names):
            raise ValueError(
                f"{self.logic} elements need {len(names)} exponents, got {len(exponents)}"
            )
        if any(e < 0 for e in exponents):
            raise ValueError(f"exponents must be nonnegative, got {exponents}")

    @classmethod
    def identity(cls, logic: str) -> "MonoidElement":
        return cls(logic, (0,) * len(_generators(logic)))

    @classmethod
    def from_powers(cls, logic: str, **powers: int) -> "MonoidElement":
        names = _generators(logic)
        unknown = set(powers) - set(names)
        if unknown:
            raise ValueError(f"unknown generators for {logic}: {sorted(unknown)}")
        return cls(logic, tuple(powers.get(name, 0) for name in names))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_identity(self) -> bool:
        return self.degree == 0

    def __mul__(self, other: "MonoidElement") -> "MonoidElement":
        if not isinstance(other, MonoidElement):
            return NotImplemented
        if other.logic != self.logic:
            raise ValueError(f"cannot mix {self.logic} and {other.logic} elements")
        return MonoidElement(
            self.logic, tuple(a + b for a, b in zip(self.exponents, other.exponents))
        )

    def __str__(self) -> str:
        if self.is_identity:
            return "1"
        parts = []
        for name, e in zip(GENERATORS[self.logic], self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)


class Witness(_Record):
    """First failing coefficient of a check: index and both exact values."""

    __slots__ = ("n", "lhs", "rhs", "context")
    n: int
    lhs: "int | Fraction"
    rhs: "int | Fraction"
    context: str


class VerificationReport(_Record):
    """One claim's verdict up to ``order``, with the first failure if any."""

    __slots__ = ("claim", "detail", "order", "verified", "witness")
    claim: str
    detail: str
    order: int
    verified: bool
    witness: Witness | None

    def __init__(
        self,
        claim: str,
        detail: str,
        order: int,
        verified: bool,
        witness: Witness | None = None,
    ) -> None:
        super().__init__(claim, detail, order, verified, witness)

    def summary_line(self) -> str:
        status = "PASS" if self.verified else "FAIL"
        line = f"{status} {self.claim} (order {self.order}): {self.detail}"
        if self.witness is not None:
            w = self.witness
            line += f"; first failure at n={w.n}: {w.lhs} vs {w.rhs} [{w.context}]"
        return line


def _check_tamper(tamper: Tamper | None, names: Sequence[str], order: int, owner: str) -> None:
    """Reject a tamper whose target is not one of ``names`` (described as
    ``owner``), whose index or delta is not an int, whose index lies outside
    0..order, or whose delta is 0 (a negative control that changes nothing
    cannot fail)."""
    if tamper is not None:
        name, index, delta = tamper
        if name not in names:
            raise ValueError(f"tamper target {name!r} is not {owner}")
        _check_int("tamper index", index)
        if not 0 <= index <= order:
            raise ValueError(f"tamper index {index} outside orders 0..{order}")
        _check_int("tamper delta", delta)
        if delta == 0:
            raise ValueError(f"tamper delta must be nonzero, got {delta}")


class Realizer:
    """Expands monoid elements into exact truncated power series.

    Generator and total series come from the closed forms; integer
    powers of each are memoized, as are fully realized elements and
    ordered products of two elements, for as long as the realizer lives.
    The optional `tamper` triple (name, index, delta) adds a nonzero delta
    to one coefficient of one named series, for negative-control runs.
    """

    def __init__(self, logic: str, order: int, tamper: Tamper | None = None):
        _generators(logic)
        _check_int("order", order, 2, " to check anything")
        self.logic = logic
        self.order = order
        names = SERIES[logic]
        _check_tamper(tamper, names, order, f"a {logic} series (have {sorted(names)})")
        series = {name: closed_form(name, order) for name in names}
        if tamper is not None:
            name, index, delta = tamper
            coeffs = list(series[name].coeffs)
            coeffs[index] += delta
            series[name] = PowerSeries(coeffs)
        self._powers: dict[str, list[PowerSeries]] = {
            name: [PowerSeries.identity(order), s] for name, s in series.items()
        }
        self._realized: dict[tuple[int, ...], PowerSeries] = {}
        self._products: dict[tuple[tuple[int, ...], tuple[int, ...]], PowerSeries] = {}

    def _memo(self, name: str) -> list[PowerSeries]:
        """The powers of ``name`` formed so far, from the 0th."""
        try:
            return self._powers[name]
        except KeyError:
            raise ValueError(
                f"unknown series {name!r}: not a {self.logic} series "
                f"(have {sorted(self._powers)})"
            ) from None

    def series(self, name: str) -> PowerSeries:
        return self._memo(name)[1]

    def total(self) -> PowerSeries:
        return self.series(TOTALS[self.logic])

    def power(self, name: str, k: int) -> PowerSeries:
        _check_int("k", k, 0)
        memo = self._memo(name)
        while len(memo) <= k:
            memo.append(memo[-1] * memo[1])
        return memo[k]

    def realize(self, element: MonoidElement) -> PowerSeries:
        if element.logic != self.logic:
            raise ValueError(
                f"cannot realize a {element.logic} element with a {self.logic} realizer"
            )
        cached = self._realized.get(element.exponents)
        if cached is not None:
            return cached
        powers = [
            self.power(name, e)
            for name, e in zip(GENERATORS[self.logic], element.exponents)
            if e
        ]
        result = reduce(mul, powers) if powers else PowerSeries.identity(self.order)
        self._realized[element.exponents] = result
        return result

    def product(self, a: MonoidElement, b: MonoidElement) -> PowerSeries:
        """realize(a) * realize(b), formed once per ordered pair.

        The key keeps the order: commutativity compares product(a, b)
        with product(b, a), which must be two separately formed series.
        """
        key = (a.exponents, b.exponents)
        cached = self._products.get(key)
        if cached is None:
            cached = self._products[key] = self.realize(a) * self.realize(b)
        return cached


# --- sampling ----------------------------------------------------------------


def default_sample(logic: str, seed: int = 0) -> tuple[MonoidElement, ...]:
    """Every exponent vector of total degree <= SAMPLE_DEGREE_CAP (identity
    included), then SAMPLE_RANDOM_COUNT seeded random vectors with each
    exponent <= SAMPLE_EXPONENT_CAP.  Deterministic for a given int seed;
    any other seed raises TypeError, as no CLI call could reproduce it.
    """
    _check_int("seed", seed)
    names = _generators(logic)
    width = len(names)
    elements = [
        MonoidElement(logic, exps)
        for exps in itertools.product(range(SAMPLE_DEGREE_CAP + 1), repeat=width)
        if sum(exps) <= SAMPLE_DEGREE_CAP
    ]
    rng = random.Random(seed)
    for _ in range(SAMPLE_RANDOM_COUNT):
        exponents = tuple(rng.randint(0, SAMPLE_EXPONENT_CAP) for _ in range(width))
        elements.append(MonoidElement(logic, exponents))
    return tuple(elements)


def _pairs(samples: Sequence[MonoidElement]) -> list[tuple[MonoidElement, MonoidElement]]:
    rotated = list(samples[1:]) + list(samples[:1])
    return list(zip(samples, rotated))


def _triples(
    samples: Sequence[MonoidElement],
) -> list[tuple[MonoidElement, MonoidElement, MonoidElement]]:
    k = len(samples)
    return [(samples[i], samples[(i + 1) % k], samples[(i + 7) % k]) for i in range(k)]


# --- checkers ----------------------------------------------------------------

# One case of a claim: two coefficient sequences, between which the claim's
# relation must hold at the indices `_check` states for that relation, and the
# fields that the claim's witness context and failure detail name.  Every claim
# is one stream of cases into one `_check` call, which states its relation and
# both `str.format` templates once; the context's "{n}" stands for the failing
# index and the detail's "{count}" for the cases run so far.  Where cases differ
# in wording, a field carries the case's own text: each power identity's
# `identity`, and each partition's `context` and `failed`, which its templates
# "{context}" and "{failed}" print whole.  Only a failing case is formatted, so
# a passing claim never turns an element into text.  Claims yield their cases
# lazily, so work stops at the first failure: no case's sides are formed before
# the case before it has held.
Case = tuple[Sequence, Sequence, dict[str, object]]


def _below_total(c, g) -> bool:
    """A nonnegative integer strictly below the total's coefficient."""
    return c.denominator == 1 and 0 <= c < g


def _dominated(lhs, rhs) -> bool:
    """At most rhs, and strictly below it wherever rhs is nonzero."""
    return lhs < rhs or lhs == rhs == 0


def _check(
    realizer: Realizer, claim: str, cases: Iterable[Case],
    context: str, failed: str, passed: str, holds: Callable[[object, object], bool] = eq,
) -> VerificationReport:
    """Run the `Case`s in turn; the first index where the relation `holds`
    fails ends the claim with both values as the witness.  The report is
    labelled ``claim[logic]`` at the realizer's order.  `context` and
    `failed` template the witness context and the failure detail; `passed`
    is the detail when every case holds ("{count}" is the number of cases).

    `eq` is checked on the whole truncation, 0 <= n <= order; the bound
    relations for 2 <= n <= order, as their claims state.  Under `eq`
    a case first compares its two sides whole (``lhs == rhs``, one call
    into C) and walks its indices only when they differ, so the witness is
    the same.  The other relations walk every case: a prescan of them
    costs more than it saves.
    """
    claim, order = f"{claim}[{realizer.logic}]", realizer.order
    first = 0 if holds is eq else 2
    count = 0
    for count, (lhs, rhs, fields) in enumerate(cases, 1):
        if holds is eq and lhs == rhs:
            continue
        for n in range(first, order + 1):
            if not holds(lhs[n], rhs[n]):
                witness = Witness(n, lhs[n], rhs[n], context.format(n=n, **fields))
                return VerificationReport(
                    claim, failed.format(count=count, **fields), order, False, witness
                )
    return VerificationReport(claim, passed.format(count=count), order, True)


def verify_commutativity(
    realizer: Realizer, pairs: Iterable[tuple[MonoidElement, MonoidElement]]
) -> VerificationReport:
    """realize(a)*realize(b) equals realize(b)*realize(a), coefficientwise."""
    cases = (
        (realizer.product(a, b).coeffs, realizer.product(b, a).coeffs, {"a": a, "b": b})
        for a, b in pairs
    )
    return _check(
        realizer,
        "commutativity",
        cases,
        "({a})*({b}) vs ({b})*({a})",
        "product order changed a result among {count} pairs",
        "{count} sampled pairs multiply identically in both orders",
    )


def verify_associativity(
    realizer: Realizer,
    triples: Iterable[tuple[MonoidElement, MonoidElement, MonoidElement]],
) -> VerificationReport:
    """(a*b)*c equals a*(b*c) on realized series, coefficientwise.

    The inner products come from `Realizer.product`, so a triple that
    starts with a pair already checked for commutativity reuses its a*b.
    """
    cases = (
        (
            (realizer.product(a, b) * realizer.realize(c)).coeffs,
            (realizer.realize(a) * realizer.product(b, c)).coeffs,
            {"a": a, "b": b, "c": c},
        )
        for a, b, c in triples
    )
    return _check(
        realizer,
        "associativity",
        cases,
        "(({a})*({b}))*({c}) vs ({a})*(({b})*({c}))",
        "association order changed a result among {count} triples",
        "{count} sampled triples associate identically",
    )


def verify_bound(
    realizer: Realizer, elements: Iterable[MonoidElement]
) -> VerificationReport:
    """Every nonidentity element's coefficients are nonnegative integers
    strictly below the total series, for 2 <= n <= order.

    The identity is out of scope (its x^0 coefficient is 1) and raises
    ValueError if passed.
    """
    total = realizer.total().coeffs

    def cases() -> Iterator[Case]:
        for e in elements:
            if e.is_identity:
                raise ValueError("the bound claim excludes the identity element")
            yield realizer.realize(e).coeffs, total, {"e": e}

    return _check(
        realizer,
        "bound",
        cases(),
        "[x^{n}]({e}) vs total",
        "a coefficient of {e} escapes [0, total) among {count} elements",
        "{count} nonidentity elements stay strictly below the total "
        f"series for 2 <= n <= {realizer.order}",
        _below_total,
    )


def verify_power_identities(realizer: Realizer, k_max: int) -> VerificationReport:
    """The three generator-power identities for 2 <= k <= k_max.

    Three-valued only: the identities relate u, f, t and the total g.
    Each case names its identity, with j = k - 1 and i = k - 2, and an
    identity's sides are formed only once the identity before it held.
    """
    if realizer.logic != "kleene":
        raise ValueError("power identities are stated for the three-valued generators")
    _check_int("k_max", k_max, 2)
    f, g, u = realizer.series("f"), realizer.series("g"), realizer.series("u")
    power = realizer.power

    def identities(k: int) -> Iterator[tuple[str, PowerSeries, PowerSeries]]:
        j, i = k - 1, k - 2
        yield f"3u^{k} vs u^{j} - x*u^{i}", 3 * power("u", k), power("u", j) - power("u", i).shift()
        fj = power("f", j)
        f_rhs = 2 * (fj * u) - fj + power("f", i).shift()
        yield f"f^{k} vs 2f^{j}u - f^{j} + x*f^{i}", power("f", k), f_rhs
        tj = power("t", j)
        t_rhs = (2 * (tj * power("g", 2)) - 2 * (tj * g * f)) / 3 + tj * power("f", 2) + tj.shift()
        yield f"t^{k} vs (2/3)t^{j}g^2 - (2/3)t^{j}gf + t^{j}f^2 + x*t^{j}", power("t", k), t_rhs

    cases = (
        (lhs.coeffs, rhs.coeffs, {"k": k, "identity": identity})
        for k in range(2, k_max + 1)
        for identity, lhs, rhs in identities(k)
    )
    return _check(
        realizer,
        "power-identities",
        cases,
        "{identity}",
        "an identity broke at k={k}",
        f"u, f and t power identities hold exactly for 2 <= k <= {k_max}",
    )


def verify_partitions(realizer: Realizer) -> VerificationReport:
    """The count series partition the total, and the root-split color
    classes partition the classical total.

    Both logics: the generators sum to the total (t + f + u = g, r + s =
    g2).  Three-valued: g = 3u.  Classical: the four pairwise convolutions
    of r and s sum to g2^2, g2^2 matches g2 from n = 2 on, and the
    convolutions match the brute-force color classification for
    2 <= n <= COLOR_N_MAX.  The cases differ in wording, so each carries
    its own context and failure text; only the pass text depends on the
    logic.
    """
    logic = realizer.logic
    names, total = GENERATORS[logic], TOTALS[logic]
    g = realizer.total().coeffs
    color_n = min(COLOR_N_MAX, realizer.order)

    def cases() -> Iterator[Case]:
        side = " + ".join(names)
        yield reduce(add, map(realizer.series, names)).coeffs, g, {
            "context": f"{side} vs {total}",
            "failed": f"{side} missed {total}",
        }
        if logic == "kleene":
            u3 = (3 * realizer.series("u")).coeffs
            yield u3, g, {"context": "3u vs g", "failed": "3u missed g"}
            return
        # Keyed by the truth values of the root's (left, right) subformulas,
        # as the color classes are: rr, rs, sr, ss.
        values = SERIES_VALUES[logic]
        quadrants = {
            (values[a], values[b]): realizer.series(a) * realizer.series(b)
            for a in values
            for b in values
        }
        square = realizer.power(total, 2).coeffs
        yield reduce(add, quadrants.values()).coeffs, square, {
            "context": "rr + rs + sr + ss vs g2^2",
            "failed": "the four convolutions missed g2^2",
        }
        # g2^2 need match g2 only from n = 2 on: below that g2 stands in.
        yield g[:2] + square[2:], g, {
            "context": "g2^2 vs g2",
            "failed": "g2^2 diverged from g2 at n >= 2",
        }
        for n in range(2, color_n + 1):
            classes = color_class_counts(n, CLASSICAL)
            for key, series in quadrants.items():
                # The convolution with brute force's count in place of its x^n.
                counted = list(series.coeffs)
                counted[n] = classes[key]
                yield tuple(counted), series.coeffs, {
                    "context": f"color class {key} at n={n}",
                    "failed": "brute-force color classes disagreed with the convolutions",
                }

    passed = (
        "t + f + u = g and g = 3u coefficientwise"
        if logic == "kleene"
        else "r + s = g2, the four convolutions sum to g2^2, g2^2 matches g2 "
        f"for n >= 2, and color classes agree for 2 <= n <= {color_n}"
    )
    return _check(realizer, "partitions", cases(), "{context}", "{failed}", passed)


def verify_ideal_samples(
    realizer: Realizer, elements: Iterable[MonoidElement]
) -> VerificationReport:
    """Products of a pure generator power with sampled elements keep the
    strict bound, witnessing that multiples of a generator stay inside
    the bounded set.
    """
    total = realizer.total().coeffs
    elements = tuple(elements)
    powers = [
        MonoidElement.from_powers(realizer.logic, **{name: k})
        for name in GENERATORS[realizer.logic]
        for k in range(1, IDEAL_POWER_CAP + 1)
    ]
    cases = (
        (realizer.realize(p * a).coeffs, total, {"p": p, "a": a})
        for p in powers
        for a in elements
    )
    return _check(
        realizer,
        "ideal-containment",
        cases,
        "[x^{n}](({p})*({a})) vs total",
        "a generator multiple escaped the bound among {count} products",
        f"{{count}} products of generator powers (up to {IDEAL_POWER_CAP}) with sampled "
        "elements stay strictly below the total",
        _below_total,
    )


def verify_substitution_bounds(realizer: Realizer) -> VerificationReport:
    """Domination patterns between mixed and pure generator powers.

    For 0 <= a <= SUBSTITUTION_EXTRA_CAP, 1 <= k <= SUBSTITUTION_POWER_CAP
    and 2 <= n <= order:

        [x^n](u^a * (u*f)^k) <= [x^n]u^k
        [x^n](u^a * (u*t)^k) <= [x^n]t^k
        [x^n](f^a * (f*t)^k) <= [x^n]t^k

    each strict whenever the right side is nonzero.  Three-valued only.
    """
    if realizer.logic != "kleene":
        raise ValueError("substitution bounds are stated for the three-valued generators")
    families = (
        ("u", "f", "u", "[x^n](u^a*(u*f)^k) vs [x^n]u^k"),
        ("u", "t", "t", "[x^n](u^a*(u*t)^k) vs [x^n]t^k"),
        ("f", "t", "t", "[x^n](f^a*(f*t)^k) vs [x^n]t^k"),
    )
    cases = (
        (
            realizer.realize(
                MonoidElement.from_powers("kleene", **{extra_name: a + k, partner: k})
            ).coeffs,
            realizer.power(target, k).coeffs,
            {"pattern": pattern, "a": a, "k": k},
        )
        for extra_name, partner, target, pattern in families
        for a in range(SUBSTITUTION_EXTRA_CAP + 1)
        for k in range(1, SUBSTITUTION_POWER_CAP + 1)
    )
    return _check(
        realizer,
        "substitution-bounds",
        cases,
        "{pattern} with a={a}, k={k}",
        "a domination pattern broke (a={a}, k={k})",
        "{count} sampled (a, k) choices dominate as required, strictly "
        "wherever the pure power is nonzero",
        _dominated,
    )


# --- the whole suite ---------------------------------------------------------


def run_all(
    order: int = DEFAULT_ORDER,
    k_max: int = DEFAULT_K_MAX,
    seed: int = DEFAULT_SEED,
    tamper: Tamper | None = None,
) -> list[VerificationReport]:
    """Run every verification suite for both logics and collect reports.

    A tamper triple applies to whichever logic owns the named series;
    the other logic runs clean.  A tamper that names no series of
    either logic, an index outside 0..order, a zero delta, or k_max
    below 2 raises ValueError, and an index, delta, seed or k_max that
    is not an int raises TypeError, before anything is expanded.
    """
    _check_tamper(tamper, KLEENE_SERIES + CLASSICAL_SERIES, order, "a series of either logic")
    _check_int("seed", seed)
    _check_int("k_max", k_max, 2)
    reports: list[VerificationReport] = []
    for logic, names in SERIES.items():
        local_tamper = tamper if tamper is not None and tamper[0] in names else None
        realizer = Realizer(logic, order, tamper=local_tamper)
        samples = default_sample(logic, seed=seed)
        nonidentity = [e for e in samples if not e.is_identity]
        reports.append(verify_commutativity(realizer, _pairs(samples)))
        reports.append(verify_associativity(realizer, _triples(samples)))
        reports.append(verify_bound(realizer, nonidentity))
        reports.append(verify_partitions(realizer))
        if logic == "kleene":
            reports.append(verify_power_identities(realizer, k_max))
            reports.append(verify_ideal_samples(realizer, samples[:20]))
            reports.append(verify_substitution_bounds(realizer))
    return reports
