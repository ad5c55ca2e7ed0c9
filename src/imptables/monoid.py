"""Coefficientwise verification of the count-series monoid structure.

The objects checked here are products of the count generating functions:
powers of t, f, u (three-valued) or r, s (classical) multiplied together,
with the constant series 1 as identity.  Elements are represented
symbolically as exponent vectors over the generators; `Realizer` turns a
vector into an exact truncated series by multiplying out memoized
generator powers, and forms each ordered product of two elements once:
commutativity compares the products in both orders, and associativity
reuses the sampled pair's product for its left-nested side.

Every checker yields its cases to one runner, `_check`, which compares
exact rational coefficients up to a truncation order and reports the
first failing index with both sides as a witness.  A case names its
witness context and failure detail as `str.format` templates with the
elements they mention; only a failing case is formatted.
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
from operator import eq, mul

from .logic import CLASSICAL, _Record, color_class_counts
from .series import CLASSICAL_SERIES, KLEENE_SERIES, PowerSeries, closed_form

# Every series a realizer expands, by logic: the generators, then the total.
SERIES = {"kleene": KLEENE_SERIES, "classical": CLASSICAL_SERIES}
GENERATORS = {logic: names[:-1] for logic, names in SERIES.items()}
TOTALS = {logic: names[-1] for logic, names in SERIES.items()}

Tamper = tuple[str, int, int]

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
        if self.logic not in GENERATORS:
            raise ValueError(f"logic must be 'kleene' or 'classical', got {self.logic!r}")
        names = GENERATORS[self.logic]
        if len(self.exponents) != len(names):
            raise ValueError(
                f"{self.logic} elements need {len(names)} exponents, "
                f"got {len(self.exponents)}"
            )
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"exponents must be nonnegative, got {self.exponents}")

    @classmethod
    def identity(cls, logic: str) -> "MonoidElement":
        return cls(logic, (0,) * len(GENERATORS[logic]))

    @classmethod
    def from_powers(cls, logic: str, **powers: int) -> "MonoidElement":
        names = GENERATORS[logic]
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
    ``owner``), whose index lies outside 0..order, or whose delta is 0 (a
    negative control that changes nothing cannot fail)."""
    if tamper is not None:
        name, index, delta = tamper
        if name not in names:
            raise ValueError(f"tamper target {name!r} is not {owner}")
        if not 0 <= index <= order:
            raise ValueError(f"tamper index {index} outside orders 0..{order}")
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
        if logic not in GENERATORS:
            raise ValueError(f"logic must be 'kleene' or 'classical', got {logic!r}")
        if order < 2:
            raise ValueError(f"order must be at least 2 to check anything, got {order}")
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

    def series(self, name: str) -> PowerSeries:
        return self._powers[name][1]

    def total(self) -> PowerSeries:
        return self.series(TOTALS[self.logic])

    def power(self, name: str, k: int) -> PowerSeries:
        if k < 0:
            raise ValueError(f"powers must be nonnegative, got {k}")
        memo = self._powers[name]
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
    exponent <= SAMPLE_EXPONENT_CAP.  Deterministic for a given seed.
    """
    names = GENERATORS[logic]
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

# One case of a claim: two coefficient sequences, the relation that must hold
# between them at every index in `ns`, the witness context and the failure
# detail as `str.format` templates, and the fields those templates name.  The
# context's "{n}" stands for the failing index and the detail's "{count}" for
# the cases run so far.  Only a failing case is formatted, so a passing claim
# never turns an element into text.  Claims yield their cases lazily, so work
# stops at the first failure.
Case = tuple[
    Sequence,
    Sequence,
    Callable[[object, object], bool],
    Iterable[int],
    str,
    str,
    dict[str, object],
]


def _below_total(c, g) -> bool:
    """A nonnegative integer strictly below the total's coefficient."""
    return c.denominator == 1 and 0 <= c < g


def _dominated(lhs, rhs) -> bool:
    """At most rhs, and strictly below it wherever rhs is nonzero."""
    return lhs < rhs or lhs == rhs == 0


def _check(
    claim: str, order: int, cases: Iterable[Case], passed: str
) -> VerificationReport:
    """Run the cases in turn; the first index where a relation fails ends
    the claim with both values as the witness.  `passed` is the detail
    reported when every case holds ("{count}" is the number of cases).
    """
    count = 0
    for lhs, rhs, holds, ns, context, failed, fields in cases:
        count += 1
        for n in ns:
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
    every_n = range(realizer.order + 1)
    cases = (
        (
            realizer.product(a, b).coeffs,
            realizer.product(b, a).coeffs,
            eq,
            every_n,
            "({a})*({b}) vs ({b})*({a})",
            "product order changed a result among {count} pairs",
            {"a": a, "b": b},
        )
        for a, b in pairs
    )
    return _check(
        f"commutativity[{realizer.logic}]",
        realizer.order,
        cases,
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
    every_n = range(realizer.order + 1)
    cases = (
        (
            (realizer.product(a, b) * realizer.realize(c)).coeffs,
            (realizer.realize(a) * realizer.product(b, c)).coeffs,
            eq,
            every_n,
            "(({a})*({b}))*({c}) vs ({a})*(({b})*({c}))",
            "association order changed a result among {count} triples",
            {"a": a, "b": b, "c": c},
        )
        for a, b, c in triples
    )
    return _check(
        f"associativity[{realizer.logic}]",
        realizer.order,
        cases,
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
    order = realizer.order
    total = realizer.total().coeffs
    above_one = range(2, order + 1)

    def cases() -> Iterator[Case]:
        for e in elements:
            if e.is_identity:
                raise ValueError("the bound claim excludes the identity element")
            yield (
                realizer.realize(e).coeffs,
                total,
                _below_total,
                above_one,
                "[x^{n}]({e}) vs total",
                "a coefficient of {e} escapes [0, total) among {count} elements",
                {"e": e},
            )

    return _check(
        f"bound[{realizer.logic}]",
        order,
        cases(),
        "{count} nonidentity elements stay strictly below the total "
        f"series for 2 <= n <= {order}",
    )


def verify_power_identities(realizer: Realizer, k_max: int) -> VerificationReport:
    """The three generator-power identities for 2 <= k <= k_max.

    Three-valued only: the identities relate u, f, t and the total g.
    """
    if realizer.logic != "kleene":
        raise ValueError("power identities are stated for the three-valued generators")
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    every_n = range(realizer.order + 1)
    f, g = realizer.series("f"), realizer.series("g")
    power = realizer.power

    def cases() -> Iterator[Case]:
        for k in range(2, k_max + 1):
            broke = f"an identity broke at k={k}"
            yield (
                (3 * power("u", k)).coeffs,
                (power("u", k - 1) - power("u", k - 2).shift()).coeffs,
                eq,
                every_n,
                f"3u^{k} vs u^{k - 1} - x*u^{k - 2}",
                broke,
                {},
            )
            fk1 = power("f", k - 1)
            yield (
                power("f", k).coeffs,
                (2 * (fk1 * realizer.series("u")) - fk1 + power("f", k - 2).shift()).coeffs,
                eq,
                every_n,
                f"f^{k} vs 2f^{k - 1}u - f^{k - 1} + x*f^{k - 2}",
                broke,
                {},
            )
            tk1 = power("t", k - 1)
            t_rhs = (
                (2 * (tk1 * power("g", 2)) - 2 * (tk1 * g * f)) / 3
                + tk1 * power("f", 2)
                + tk1.shift()
            )
            yield (
                power("t", k).coeffs,
                t_rhs.coeffs,
                eq,
                every_n,
                f"t^{k} vs (2/3)t^{k - 1}g^2 - (2/3)t^{k - 1}gf + t^{k - 1}f^2 + x*t^{k - 1}",
                broke,
                {},
            )

    return _check(
        "power-identities[kleene]",
        realizer.order,
        cases(),
        f"u, f and t power identities hold exactly for 2 <= k <= {k_max}",
    )


def verify_partitions(realizer: Realizer) -> VerificationReport:
    """The count series partition the total, and the root-split color
    classes partition the classical total.

    Three-valued: t + f + u = g and g = 3u.  Classical: r + s = g2, the
    four pairwise convolutions of r and s sum to g2^2, g2^2 matches g2
    from n = 2 on, and the convolutions match the brute-force color
    classification for 2 <= n <= COLOR_N_MAX.
    """
    order = realizer.order
    claim = f"partitions[{realizer.logic}]"
    every_n = range(order + 1)

    if realizer.logic == "kleene":
        t, f, u = (realizer.series(name) for name in ("t", "f", "u"))
        g = realizer.total().coeffs
        cases = [
            ((t + f + u).coeffs, g, eq, every_n, "t + f + u vs g", "t + f + u missed g", {}),
            ((3 * u).coeffs, g, eq, every_n, "3u vs g", "3u missed g", {}),
        ]
        return _check(claim, order, cases, "t + f + u = g and g = 3u coefficientwise")

    r, s = realizer.series("r"), realizer.series("s")
    g2 = realizer.total().coeffs
    color_n = min(COLOR_N_MAX, order)

    def classical_cases() -> Iterator[Case]:
        yield (r + s).coeffs, g2, eq, every_n, "r + s vs g2", "r + s missed g2", {}
        quadrants = {
            (1, 1): r * r,
            (1, 0): r * s,
            (0, 1): s * r,
            (0, 0): s * s,
        }
        square = realizer.power("g2", 2).coeffs
        four_sum = quadrants[1, 1] + quadrants[1, 0] + quadrants[0, 1] + quadrants[0, 0]
        yield (
            four_sum.coeffs,
            square,
            eq,
            every_n,
            "rr + rs + sr + ss vs g2^2",
            "the four convolutions missed g2^2",
            {},
        )
        yield (
            square,
            g2,
            eq,
            range(2, order + 1),
            "g2^2 vs g2",
            "g2^2 diverged from g2 at n >= 2",
            {},
        )
        for n in range(2, color_n + 1):
            classes = color_class_counts(n, CLASSICAL)
            for key, series in quadrants.items():
                yield (
                    {n: classes[key]},
                    series.coeffs,
                    eq,
                    (n,),
                    f"color class {key} at n={n}",
                    "brute-force color classes disagreed with the convolutions",
                    {},
                )

    return _check(
        claim,
        order,
        classical_cases(),
        "r + s = g2, the four convolutions sum to g2^2, g2^2 matches g2 "
        f"for n >= 2, and color classes agree for 2 <= n <= {color_n}",
    )


def verify_ideal_samples(
    realizer: Realizer, elements: Iterable[MonoidElement]
) -> VerificationReport:
    """Products of a pure generator power with sampled elements keep the
    strict bound, witnessing that multiples of a generator stay inside
    the bounded set.
    """
    total = realizer.total().coeffs
    above_one = range(2, realizer.order + 1)
    elements = tuple(elements)
    powers = [
        MonoidElement.from_powers(realizer.logic, **{name: k})
        for name in GENERATORS[realizer.logic]
        for k in range(1, IDEAL_POWER_CAP + 1)
    ]
    cases = (
        (
            realizer.realize(p * a).coeffs,
            total,
            _below_total,
            above_one,
            "[x^{n}](({p})*({a})) vs total",
            "a generator multiple escaped the bound among {count} products",
            {"p": p, "a": a},
        )
        for p in powers
        for a in elements
    )
    return _check(
        f"ideal-containment[{realizer.logic}]",
        realizer.order,
        cases,
        f"{{count}} products of generator powers (up to {IDEAL_POWER_CAP}) with sampled "
        "elements stay strictly below the total",
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
    above_one = range(2, realizer.order + 1)
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
            _dominated,
            above_one,
            f"{pattern} with a={a}, k={k}",
            f"a domination pattern broke (a={a}, k={k})",
            {},
        )
        for extra_name, partner, target, pattern in families
        for a in range(SUBSTITUTION_EXTRA_CAP + 1)
        for k in range(1, SUBSTITUTION_POWER_CAP + 1)
    )
    return _check(
        "substitution-bounds[kleene]",
        realizer.order,
        cases,
        "{count} sampled (a, k) choices dominate as required, strictly "
        "wherever the pure power is nonzero",
    )


# --- the whole suite ---------------------------------------------------------


def run_all(
    order: int = 40,
    k_max: int = 6,
    seed: int = 0,
    tamper: Tamper | None = None,
) -> list[VerificationReport]:
    """Run every verification suite for both logics and collect reports.

    A tamper triple applies to whichever logic owns the named series;
    the other logic runs clean.  A tamper that names no series of
    either logic, an index outside 0..order, a zero delta, or k_max
    below 2 raises ValueError before anything is expanded.
    """
    _check_tamper(tamper, KLEENE_SERIES + CLASSICAL_SERIES, order, "a series of either logic")
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
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
