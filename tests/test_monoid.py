import re
from fractions import Fraction
from operator import eq

import pytest
from hypothesis import given, settings, strategies as st

from imptables.logic import color_class_counts
from imptables.monoid import (
    GENERATORS,
    TOTALS,
    MonoidElement,
    Realizer,
    Witness,
    _check,
    _dominated,
    default_sample,
    run_all,
    verify_associativity,
    verify_bound,
    verify_commutativity,
    verify_ideal_samples,
    verify_partitions,
    verify_power_identities,
    verify_substitution_bounds,
)
from imptables.series import PowerSeries, closed_form


def elements(logic, max_exponent=4):
    width = len(GENERATORS[logic])
    return st.tuples(
        *[st.integers(min_value=0, max_value=max_exponent)] * width
    ).map(lambda exps: MonoidElement(logic, exps))


class FixedRealizer:
    """Stands in for a Realizer: every element and every generator power
    realizes to one given series, so a claim's relation can be fed
    values no real series produces."""

    logic = "kleene"

    def __init__(self, series, total=None):
        self.order = series.order
        self.series = series
        self.total_series = total

    def realize(self, element):
        return self.series

    def power(self, name, k):
        return self.series

    def total(self):
        return self.total_series


@pytest.fixture
def asymmetric_product(monkeypatch):
    """Series products that drop the a[0]*b[m] term: a*b and b*a differ
    whenever one factor has a nonzero constant term, as the identity does."""

    def product(a, b):
        n = min(a.order, b.order)
        return PowerSeries(
            sum(a.coeffs[k] * b.coeffs[m - k] for k in range(1, m + 1)) for m in range(n + 1)
        )

    monkeypatch.setattr(PowerSeries, "__mul__", product)


def skew_products(monkeypatch, index):
    """Series products exact except at x^index, where a*b gains a's own
    coefficient: a*b and b*a, or (a*b)*c and a*(b*c), can then differ at
    that index and nowhere below it."""
    plain = PowerSeries.__mul__

    def skewed(a, b):
        coeffs = list(plain(a, b).coeffs)
        coeffs[index] += a.coeffs[index]
        return PowerSeries(coeffs)

    monkeypatch.setattr(PowerSeries, "__mul__", skewed)


def bend_closed_forms(monkeypatch, index, **deltas):
    """The realizers' closed forms, each named one shifted by its delta at x^index."""

    def expand(name, order):
        series = closed_form(name, order)
        if name not in deltas:
            return series
        coeffs = list(series.coeffs)
        coeffs[index] += deltas[name]
        return PowerSeries(coeffs)

    monkeypatch.setattr("imptables.monoid.closed_form", expand)


@pytest.fixture(scope="module")
def kleene_realizer():
    return Realizer("kleene", 20)


@pytest.fixture(scope="module")
def classical_realizer():
    return Realizer("classical", 20)


class TestMonoidElement:
    def test_identity(self):
        i = MonoidElement.identity("kleene")
        assert i.is_identity and i.degree == 0
        assert str(i) == "1"

    def test_from_powers(self):
        e = MonoidElement.from_powers("kleene", t=2, u=1)
        assert e.exponents == (2, 0, 1)
        assert str(e) == "t^2*u"
        with pytest.raises(ValueError):
            MonoidElement.from_powers("kleene", r=1)

    def test_multiplication_adds_exponents(self):
        a = MonoidElement.from_powers("classical", r=1, s=2)
        b = MonoidElement.from_powers("classical", s=1)
        assert (a * b).exponents == (1, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            MonoidElement("kleene", (1, 2))
        with pytest.raises(ValueError):
            MonoidElement("kleene", (1, -1, 0))
        with pytest.raises(ValueError):
            MonoidElement("bogus", (1,))
        kleene = MonoidElement.from_powers("kleene", t=1)
        classical = MonoidElement.from_powers("classical", r=1)
        # Both orders: classical * kleene has as many exponents as a classical
        # element, so only the logic check rejects it.
        for a, b in ((kleene, classical), (classical, kleene)):
            with pytest.raises(ValueError, match=f"^cannot mix {a.logic} and {b.logic} elements$"):
                a * b

    def test_times_a_non_element_is_a_type_error(self):
        with pytest.raises(TypeError):
            MonoidElement.identity("kleene") * 3

    @pytest.mark.parametrize(
        "exponents",
        [[1, 0, 0], (1.5, 0, 0), (1, "0", 0), (Fraction(1), 0, 0), 3],
        ids=["list", "float", "str", "fraction", "int"],
    )
    def test_exponents_must_be_a_tuple_of_ints(self, exponents):
        # A list cannot key the realizer's memos and a float cannot index
        # its powers, so neither is built at all.
        message = f"exponents must be a tuple of ints, got {exponents!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MonoidElement("kleene", exponents)

    @given(elements("kleene"), elements("kleene"), elements("kleene"))
    def test_exponent_monoid_laws(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        identity = MonoidElement.identity("kleene")
        assert a * identity == a


class TestRealizer:
    def test_generators_and_totals(self):
        assert GENERATORS == {"kleene": ("t", "f", "u"), "classical": ("r", "s")}
        assert TOTALS == {"kleene": "g", "classical": "g2"}

    def test_identity_realizes_to_one(self, kleene_realizer):
        series = kleene_realizer.realize(MonoidElement.identity("kleene"))
        assert series == PowerSeries.identity(20)

    def test_uf_prefix(self, kleene_realizer):
        series = kleene_realizer.realize(MonoidElement.from_powers("kleene", u=1, f=1))
        assert tuple(series.coeffs[:4]) == (0, 0, 1, 4)

    def test_t_squared_prefix(self, kleene_realizer):
        series = kleene_realizer.realize(MonoidElement.from_powers("kleene", t=2))
        assert tuple(series.coeffs[:4]) == (0, 0, 1, 10)

    def test_realize_is_cached(self, kleene_realizer):
        e = MonoidElement.from_powers("kleene", t=1, f=1)
        assert kleene_realizer.realize(e) is kleene_realizer.realize(e)

    def test_single_generator_realizes_to_its_power(self):
        realizer = Realizer("kleene", 10)
        t3 = MonoidElement.from_powers("kleene", t=3)
        assert realizer.realize(t3) is realizer.power("t", 3)

    def test_product_is_formed_once_per_ordered_pair(self):
        realizer = Realizer("kleene", 10)
        a = MonoidElement.from_powers("kleene", t=1, u=2)
        b = MonoidElement.from_powers("kleene", f=1)
        ab = realizer.product(a, b)
        assert ab is realizer.product(a, b)
        assert ab is not realizer.product(b, a)
        assert ab == realizer.realize(a) * realizer.realize(b)

    def test_logic_mismatch(self, kleene_realizer):
        with pytest.raises(ValueError):
            kleene_realizer.realize(MonoidElement.from_powers("classical", r=1))

    def test_generator_powers(self, kleene_realizer):
        u = kleene_realizer.series("u")
        assert kleene_realizer.power("u", 0) == PowerSeries.identity(20)
        assert kleene_realizer.power("u", 3) == u * u * u

    def test_order_floor(self):
        with pytest.raises(ValueError):
            Realizer("kleene", 1)

    def test_negative_power_rejected(self, kleene_realizer):
        with pytest.raises(ValueError, match=r"^k must be at least 0, got -1$"):
            kleene_realizer.power("t", -1)

    def test_order_must_be_an_int(self):
        with pytest.raises(TypeError, match="^order must be an int, got 2.5$"):
            Realizer("kleene", 2.5)

    @pytest.mark.parametrize(
        "call, name",
        [(lambda r: r.series("x"), "x"), (lambda r: r.power("r", 2), "r")],
        ids=["series", "power"],
    )
    def test_unknown_series_is_a_value_error(self, kleene_realizer, call, name):
        message = rf"^unknown series '{name}': not a kleene series \(have \['f', 'g', 't', 'u'\]\)$"
        with pytest.raises(ValueError, match=message):
            call(kleene_realizer)

    @pytest.mark.parametrize("k", [2.0, True], ids=["float", "bool"])
    def test_power_must_be_an_int(self, kleene_realizer, k):
        with pytest.raises(TypeError, match=f"^k must be an int, got {k}$"):
            kleene_realizer.power("t", k)

    def test_logic_rule_shared_with_elements(self):
        message = "^logic must be 'kleene' or 'classical', got 'boolean'$"
        for build in (lambda: Realizer("boolean", 8), lambda: MonoidElement("boolean", (1,))):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MonoidElement.identity("boolean"),
            lambda: MonoidElement.from_powers("boolean", t=1),
            lambda: default_sample("boolean"),
        ],
        ids=["identity", "from_powers", "default_sample"],
    )
    def test_logic_rule_shared_with_the_other_entry_points(self, build):
        message = "^logic must be 'kleene' or 'classical', got 'boolean'$"
        with pytest.raises(ValueError, match=message):
            build()

    @settings(max_examples=25)
    @given(elements("kleene", max_exponent=3), elements("kleene", max_exponent=3))
    def test_realize_is_a_morphism(self, a, b):
        realizer = Realizer("kleene", 10)
        assert realizer.realize(a * b) == realizer.realize(a) * realizer.realize(b)

    def test_tamper_validation(self):
        with pytest.raises(ValueError):
            Realizer("kleene", 10, tamper=("r", 1, 1))
        with pytest.raises(ValueError):
            Realizer("kleene", 10, tamper=("t", 11, 1))

    @pytest.mark.parametrize("tamper", [("t", 99, 1), ("x", 0, 1)])
    def test_tamper_rejected_before_any_expansion(self, monkeypatch, tamper):
        def expand(name, order):
            raise AssertionError("closed_form called before the tamper was checked")

        monkeypatch.setattr("imptables.monoid.closed_form", expand)
        with pytest.raises(ValueError, match="tamper"):
            Realizer("kleene", 10, tamper=tamper)

    def test_zero_delta_rejected_before_any_expansion(self, monkeypatch):
        # A tamper that shifts nothing is a negative control that cannot fail.
        def expand(name, order):
            raise AssertionError("closed_form called before the tamper was checked")

        monkeypatch.setattr("imptables.monoid.closed_form", expand)
        for run in (
            lambda: Realizer("kleene", 8, tamper=("t", 3, 0)),
            lambda: run_all(order=8, k_max=2, tamper=("s", 3, 0)),
        ):
            with pytest.raises(ValueError, match="^tamper delta must be nonzero, got 0$"):
                run()

    def test_tamper_shifts_one_coefficient(self):
        clean = Realizer("kleene", 10)
        bent = Realizer("kleene", 10, tamper=("t", 3, 5))
        assert bent.series("t").coefficient(3) == clean.series("t").coefficient(3) + 5
        assert bent.series("t").coefficient(4) == clean.series("t").coefficient(4)


class TestCommutativityAndAssociativity:
    def test_curated_pairs(self, kleene_realizer):
        t = MonoidElement.from_powers("kleene", t=1)
        f = MonoidElement.from_powers("kleene", f=1)
        u2 = MonoidElement.from_powers("kleene", u=2)
        t3f = MonoidElement.from_powers("kleene", t=3, f=1)
        i = MonoidElement.identity("kleene")
        report = verify_commutativity(
            kleene_realizer, [(t, f), (u2, t3f), (i, t3f)]
        )
        assert report.verified and report.witness is None

    def test_no_pairs_is_zero_pairs(self, kleene_realizer):
        report = verify_commutativity(kleene_realizer, [])
        assert report.verified
        assert report.detail == "0 sampled pairs multiply identically in both orders"

    def test_identity_pair_realizes_to_partner(self, kleene_realizer):
        a = MonoidElement.from_powers("kleene", u=2, t=1)
        i = MonoidElement.identity("kleene")
        assert kleene_realizer.realize(i) * kleene_realizer.realize(
            a
        ) == kleene_realizer.realize(a)

    def test_curated_triples(self, kleene_realizer):
        t = MonoidElement.from_powers("kleene", t=1)
        f = MonoidElement.from_powers("kleene", f=1)
        u = MonoidElement.from_powers("kleene", u=1)
        u2 = MonoidElement.from_powers("kleene", u=2)
        t3 = MonoidElement.from_powers("kleene", t=3)
        i = MonoidElement.identity("kleene")
        report = verify_associativity(
            kleene_realizer, [(t, f, u), (u2, f, t3), (i, i, t)]
        )
        assert report.verified

    def test_commutativity_can_fail_through_the_memo(self, asymmetric_product):
        t = MonoidElement.from_powers("kleene", t=1)
        f = MonoidElement.from_powers("kleene", f=1)
        i = MonoidElement.identity("kleene")
        report = verify_commutativity(Realizer("kleene", 8), [(t, f), (i, t)])
        assert not report.verified
        assert report.summary_line() == (
            "FAIL commutativity[kleene] (order 8): product order changed a result among 2 pairs;"
            " first failure at n=1: 0 vs 1 [(1)*(t) vs (t)*(1)]"
        )

    def test_associativity_can_fail_through_the_memo(self, asymmetric_product):
        t = MonoidElement.from_powers("kleene", t=1)
        f = MonoidElement.from_powers("kleene", f=1)
        u = MonoidElement.from_powers("kleene", u=1)
        i = MonoidElement.identity("kleene")
        report = verify_associativity(Realizer("kleene", 8), [(t, f, u), (t, i, i)])
        assert not report.verified
        assert report.summary_line() == (
            "FAIL associativity[kleene] (order 8): association order changed a result among"
            " 2 triples; first failure at n=1: 1 vs 0 [((t)*(1))*(1) vs (t)*((1)*(1))]"
        )

    def test_commutativity_checks_the_top_coefficient(self, monkeypatch):
        realizer = Realizer("kleene", 8)
        skew_products(monkeypatch, 8)
        t = MonoidElement.from_powers("kleene", t=1)
        f = MonoidElement.from_powers("kleene", f=1)
        report = verify_commutativity(realizer, [(t, f)])
        assert not report.verified
        assert report.witness.n == 8
        assert report.witness.context == "(t)*(f) vs (f)*(t)"

    def test_commutativity_checks_the_constant_coefficient(self, monkeypatch):
        # Skewed at x^0, 1*t gains the identity's 1 and t*1 gains t's 0.
        realizer = Realizer("kleene", 8)
        skew_products(monkeypatch, 0)
        t = MonoidElement.from_powers("kleene", t=1)
        i = MonoidElement.identity("kleene")
        report = verify_commutativity(realizer, [(i, t)])
        assert report.witness == Witness(0, 1, 0, "(1)*(t) vs (t)*(1)")

    def test_associativity_checks_the_top_coefficient(self, monkeypatch):
        # Skewed at x^order, (t*f)*u exceeds t*(f*u) by [x^8](t*f), since
        # t and u have no constant term: the sides differ at n = order alone.
        realizer = Realizer("kleene", 8)
        skew_products(monkeypatch, 8)
        t, f, u = (MonoidElement.from_powers("kleene", **{name: 1}) for name in "tfu")
        report = verify_associativity(realizer, [(t, f, u)])
        assert not report.verified
        assert report.witness.n == 8
        assert report.witness.context == "((t)*(f))*(u) vs (t)*((f)*(u))"

    def test_associativity_checks_the_constant_coefficient(self, monkeypatch):
        # Skewed at x^0, (1*t)*1 gains 1 twice and 1*(t*1) once.
        realizer = Realizer("kleene", 8)
        skew_products(monkeypatch, 0)
        t = MonoidElement.from_powers("kleene", t=1)
        i = MonoidElement.identity("kleene")
        report = verify_associativity(realizer, [(i, t, i)])
        assert report.witness == Witness(0, 2, 1, "((1)*(t))*(1) vs (1)*((t)*(1))")

    def test_classical_sampled(self, classical_realizer):
        # The 21 grid vectors and the first 10 seeded ones.
        samples = default_sample("classical", seed=3)[:31]
        pairs = list(zip(samples, reversed(samples)))
        assert verify_commutativity(classical_realizer, pairs).verified


class TestBound:
    def test_single_generators(self, kleene_realizer):
        t = MonoidElement.from_powers("kleene", t=1)
        report = verify_bound(kleene_realizer, [t])
        assert report.verified
        # spot value behind the claim: t3 = 30 < g3 = 54
        assert kleene_realizer.realize(t).coefficient(3) == 30
        assert kleene_realizer.total().coefficient(3) == 54

    def test_high_valuation_element(self, kleene_realizer):
        e = MonoidElement.from_powers("kleene", u=3, f=2)
        assert verify_bound(kleene_realizer, [e]).verified

    def test_identity_out_of_scope(self, kleene_realizer):
        with pytest.raises(ValueError):
            verify_bound(kleene_realizer, [MonoidElement.identity("kleene")])

    def test_tampered_bound_fails(self):
        # push t3 above g3 = 54
        bent = Realizer("kleene", 10, tamper=("t", 3, 30))
        report = verify_bound(bent, [MonoidElement.from_powers("kleene", t=1)])
        assert not report.verified
        assert report.summary_line() == (
            "FAIL bound[kleene] (order 10): a coefficient of t escapes [0, total) among"
            " 1 elements; first failure at n=3: 60 vs 54 [[x^3](t) vs total]"
        )

    def test_bound_checks_the_top_coefficient(self):
        # t pushed onto the total at x^order and nowhere else.
        g8 = closed_form("g", 8).coefficient(8)
        bent = Realizer("kleene", 8, tamper=("t", 8, g8 - closed_form("t", 8).coefficient(8)))
        report = verify_bound(bent, [MonoidElement.from_powers("kleene", t=1)])
        assert report.witness == Witness(8, g8, g8, "[x^8](t) vs total")

    def test_fractional_coefficient_escapes_the_bound(self):
        # A tamper shifts by an integer, so only a stand-in can show that
        # the claim tests integrality as well as the range.
        total = PowerSeries([1, 3, 9, 54])
        t = MonoidElement.from_powers("kleene", t=1)
        integral = FixedRealizer(PowerSeries([0, 1, 5, 30]), total)
        assert verify_bound(integral, [t]).verified
        fractional = FixedRealizer(PowerSeries([0, 1, Fraction(11, 2), 30]), total)
        report = verify_bound(fractional, [t])
        assert not report.verified
        assert (report.witness.n, report.witness.lhs) == (2, Fraction(11, 2))


class TestPowerIdentities:
    def test_holds_to_k6(self):
        realizer = Realizer("kleene", 30)
        report = verify_power_identities(realizer, 6)
        assert report.verified

    def test_requires_kleene(self, classical_realizer):
        message = "^power identities are stated for the three-valued generators$"
        with pytest.raises(ValueError, match=message):
            verify_power_identities(classical_realizer, 3)

    def test_requires_k_at_least_two(self, kleene_realizer):
        with pytest.raises(ValueError):
            verify_power_identities(kleene_realizer, 1)

    def test_quadratic_combination_equals_t_minus_x(self):
        # (2/3)g^2 - (2/3)gf + f^2 = t - x exactly; this is why the t-power
        # identity carries the x*t^(k-1) term.
        order = 30
        t = closed_form("t", order)
        f = closed_form("f", order)
        g = closed_form("g", order)
        combo = Fraction(2, 3) * (g * g) - Fraction(2, 3) * (g * f) + f * f
        x = PowerSeries.x(order)
        assert combo == t - x
        assert combo != t
        assert combo.coefficient(1) == 0 and t.coefficient(1) == 1

    def test_tampered_identity_fails(self):
        bent = Realizer("kleene", 12, tamper=("u", 4, 1))
        report = verify_power_identities(bent, 3)
        assert not report.verified
        assert report.witness is not None

    def test_identity_broken_at_the_constant_term(self):
        # u given the constant term 1: 3u^2 starts at 3 and u - x at 1.
        bent = Realizer("kleene", 8, tamper=("u", 0, 1))
        report = verify_power_identities(bent, 2)
        assert report.witness == Witness(0, 3, 1, "3u^2 vs u^1 - x*u^0")

    def test_identity_broken_at_the_top_only(self):
        # f shifted at x^order alone: every power of f and every term of
        # the t identity lose the shift past the truncation, so only the
        # f identity's right side sees it, and only at n = order.
        bent = Realizer("kleene", 8, tamper=("f", 8, 1))
        report = verify_power_identities(bent, 3)
        assert not report.verified
        assert report.witness == Witness(8, 64613, 64612, "f^2 vs 2f^1u - f^1 + x*f^0")

    def test_sides_formed_only_after_the_identity_before_holds(self, monkeypatch):
        # u bent at x^3 leaves 3u^2 there (u has no constant term) but moves
        # u - x, so the u identity fails at k = 2.  By then the only series
        # product formed is u^2: none for k = 2's f or t identity.
        bend_closed_forms(monkeypatch, 3, u=1)
        realizer = Realizer("kleene", 8)
        u, products = realizer.series("u"), []
        plain = PowerSeries.__mul__

        def counted(a, b):
            if isinstance(b, PowerSeries):
                products.append((a, b))
            return plain(a, b)

        monkeypatch.setattr(PowerSeries, "__mul__", counted)
        report = verify_power_identities(realizer, 3)
        assert report.summary_line() == (
            "FAIL power-identities[kleene] (order 8): an identity broke at k=2;"
            " first failure at n=3: 18 vs 19 [3u^2 vs u^1 - x*u^0]"
        )
        assert products == [(u, u)]


class TestPartitions:
    def test_kleene(self, kleene_realizer):
        report = verify_partitions(kleene_realizer)
        assert report.verified

    def test_classical(self, classical_realizer):
        report = verify_partitions(classical_realizer)
        assert report.verified

    def test_tampered_kleene_partition_fails(self):
        bent = Realizer("kleene", 12, tamper=("t", 3, 1))
        report = verify_partitions(bent)
        assert not report.verified
        assert report.witness.n == 3
        assert report.witness.lhs == 55
        assert report.witness.rhs == 54

    def test_three_u_checked_against_the_total(self, monkeypatch):
        # u up and t down at x^3 keep t + f + u = g, so only 3u misses g.
        bend_closed_forms(monkeypatch, 3, u=1, t=-1)
        report = verify_partitions(Realizer("kleene", 8))
        assert report.summary_line() == (
            "FAIL partitions[kleene] (order 8): 3u missed g;"
            " first failure at n=3: 57 vs 54 [3u vs g]"
        )

    def test_tampered_classical_partition_fails(self):
        bent = Realizer("classical", 12, tamper=("g2", 5, -2))
        report = verify_partitions(bent)
        assert not report.verified
        assert report.witness.n == 5

    def test_four_convolutions_checked_against_the_square(self, monkeypatch):
        # Skewed at x^3, each of the four convolutions gains its left
        # factor's [x^3] (2*g2_3 in all) and g2*g2 gains g2_3 once; r + s
        # is a sum, not a product, so it still matches g2.
        realizer = Realizer("classical", 8)
        skew_products(monkeypatch, 3)
        report = verify_partitions(realizer)
        assert report.summary_line() == (
            "FAIL partitions[classical] (order 8): the four convolutions missed g2^2;"
            " first failure at n=3: 48 vs 32 [rr + rs + sr + ss vs g2^2]"
        )

    @pytest.mark.parametrize("index", [2, 8])
    def test_square_checked_against_the_total_at_both_ends(self, monkeypatch, index):
        # r and g2 shifted together keep r + s = g2 and the four
        # convolutions equal to g2^2, whose x^index coefficient does not
        # see the shift (g2 has no constant term), so g2^2 first misses
        # g2 at the shifted index.
        bend_closed_forms(monkeypatch, index, r=1, g2=1)
        report = verify_partitions(Realizer("classical", 8))
        assert not report.verified
        values = {2: "4 vs 5", 8: "109824 vs 109825"}[index]
        assert report.summary_line() == (
            "FAIL partitions[classical] (order 8): g2^2 diverged from g2 at n >= 2;"
            f" first failure at n={index}: {values} [g2^2 vs g2]"
        )

    @pytest.mark.parametrize("bent_n", [2, 6])
    def test_color_classes_checked_at_both_ends(self, monkeypatch, bent_n):
        def classes(n, sem):
            counts = color_class_counts(n, sem)
            if n == bent_n:
                counts[1, 1] += 1
            return counts

        monkeypatch.setattr("imptables.monoid.color_class_counts", classes)
        report = verify_partitions(Realizer("classical", 8))
        assert not report.verified
        values = {2: "2 vs 1", 6: "1199 vs 1198"}[bent_n]
        assert report.summary_line() == (
            "FAIL partitions[classical] (order 8): brute-force color classes disagreed with"
            f" the convolutions; first failure at n={bent_n}: {values}"
            f" [color class (1, 1) at n={bent_n}]"
        )


class TestIdealAndSubstitution:
    def test_ideal_samples(self, kleene_realizer):
        samples = (
            MonoidElement.identity("kleene"),
            MonoidElement.from_powers("kleene", u=1, f=1),
            MonoidElement.from_powers("kleene", t=2, u=2),
        )
        report = verify_ideal_samples(kleene_realizer, samples)
        assert report.verified

    @pytest.mark.parametrize(
        "coeffs, n", [((0, 1, 9, 30), 2), ((0, 1, 5, 54), 3)], ids=["n=2", "n=order"]
    )
    def test_ideal_samples_checked_at_both_ends(self, coeffs, n):
        # Every product realizes to coeffs, which reach the total only at n.
        realizer = FixedRealizer(PowerSeries(coeffs), PowerSeries([1, 3, 9, 54]))
        report = verify_ideal_samples(realizer, [MonoidElement.identity("kleene")])
        assert not report.verified
        assert report.summary_line() == (
            "FAIL ideal-containment[kleene] (order 3): a generator multiple escaped the bound"
            f" among 1 products; first failure at n={n}: {coeffs[n]} vs {coeffs[n]}"
            f" [[x^{n}]((t)*(1)) vs total]"
        )

    def test_substitution_bounds(self, kleene_realizer):
        report = verify_substitution_bounds(kleene_realizer)
        assert report.verified

    def test_equality_is_allowed_only_at_zero(self):
        # Each mixed power realizes to the same series as the pure power
        # it is compared with: equal zeros hold, an equal nonzero breaks.
        assert verify_substitution_bounds(FixedRealizer(PowerSeries([1, 0, 0, 0]))).verified
        report = verify_substitution_bounds(FixedRealizer(PowerSeries([1, 0, 0, 7])))
        assert not report.verified
        assert report.summary_line() == (
            "FAIL substitution-bounds[kleene] (order 3): a domination pattern broke"
            " (a=0, k=1); first failure at n=3: 7 vs 7"
            " [[x^n](u^a*(u*f)^k) vs [x^n]u^k with a=0, k=1]"
        )

    def test_domination_checked_from_n_two(self):
        # As above, with the equal nonzero pair at the first index checked.
        report = verify_substitution_bounds(FixedRealizer(PowerSeries([1, 0, 7, 0])))
        assert (report.witness.n, report.witness.lhs, report.witness.rhs) == (2, 7, 7)

    def test_substitution_requires_kleene(self, classical_realizer):
        message = "^substitution bounds are stated for the three-valued generators$"
        with pytest.raises(ValueError, match=message):
            verify_substitution_bounds(classical_realizer)


class CountedReads(tuple):
    """A coefficient tuple that counts the coefficients read one by one."""

    reads = 0

    def __getitem__(self, n):
        self.reads += 1
        return super().__getitem__(n)


def run_check(*cases, holds=eq):
    """`_check` over ``cases`` at order 3, each witness context "at {n}"."""
    realizer = FixedRealizer(PowerSeries([0] * 4))
    return _check(realizer, "claim", cases, "at {n}", "failed", "passed", holds)


class TestCheck:
    def test_eq_case_differing_only_at_its_last_index(self):
        same, last = (0, 1, 2, 3), (0, 1, 2, 4)
        report = run_check((same, same, {}), (same, last, {}))
        assert report.summary_line() == (
            "FAIL claim[kleene] (order 3): failed; first failure at n=3: 3 vs 4 [at 3]"
        )

    def test_equal_eq_case_reads_no_coefficient(self):
        lhs = CountedReads((0, 1, 2, 3))
        assert run_check((lhs, (0, 1, 2, 3), {})).verified
        assert lhs.reads == 0

    def test_other_relations_walk_equal_sides(self):
        # Equal sides hold under eq but not under domination, which is
        # checked from n = 2, where 2 == 2 is nonzero.
        same = (0, 1, 2, 3)
        report = run_check((same, same, {}), holds=_dominated)
        assert report.witness == Witness(2, 2, 2, "at 2")


class TestSampling:
    def test_sizes(self):
        kleene = default_sample("kleene", seed=0)
        classical = default_sample("classical", seed=0)
        # 56 vectors of degree <= 5 over three generators, 21 over two
        assert len(kleene) == 56 + 100
        assert len(classical) == 21 + 100
        assert all(e.degree <= 5 for e in kleene[:56])
        assert all(max(e.exponents) <= 8 for e in kleene[56:])

    def test_deterministic(self):
        assert default_sample("kleene", seed=7) == default_sample("kleene", seed=7)
        assert default_sample("kleene", seed=7) != default_sample("kleene", seed=8)


class TestRunAll:
    def test_clean_run(self):
        reports = run_all(order=12, k_max=3, seed=0)
        assert len(reports) == 11
        assert all(r.verified for r in reports)
        assert all(r.witness is None for r in reports)

    def test_calls_every_claim_through_the_module(self, monkeypatch):
        # The benchmark's tracer times each claim by rebinding these names.
        import imptables.monoid as monoid

        called = []
        for name in dir(monoid):
            if name.startswith("verify_"):
                claim = getattr(monoid, name)

                def spy(*args, _name=name, _claim=claim, **kwargs):
                    called.append(_name)
                    return _claim(*args, **kwargs)

                monkeypatch.setattr(monoid, name, spy)
        run_all(order=4, k_max=2)
        assert set(called) == {
            "verify_commutativity",
            "verify_associativity",
            "verify_bound",
            "verify_partitions",
            "verify_power_identities",
            "verify_ideal_samples",
            "verify_substitution_bounds",
        }

    def test_work_is_pinned(self, monkeypatch):
        # Each sampled pair's product is formed once and shared with
        # associativity, no product is by the identity, and a passing
        # claim formats no element.  Forming every product afresh from
        # the identity took 2,271 products and 3,678 element formats here.
        calls = {"mul": 0, "str": 0}
        plain_mul, plain_str = PowerSeries.__mul__, MonoidElement.__str__

        def counted_mul(a, b):
            calls["mul"] += 1
            return plain_mul(a, b)

        def counted_str(element):
            calls["str"] += 1
            return plain_str(element)

        monkeypatch.setattr(PowerSeries, "__mul__", counted_mul)
        monkeypatch.setattr(MonoidElement, "__str__", counted_str)
        assert all(r.verified for r in run_all(order=8, seed=0))
        assert calls["mul"] <= 1734
        assert calls["str"] == 0

    @pytest.mark.parametrize("tamper", [("x", 0, 1), ("i", 0, 1)])
    def test_tamper_naming_no_series_rejected_before_any_expansion(self, monkeypatch, tamper):
        def expand(name, order):
            raise AssertionError("closed_form called before the tamper was checked")

        monkeypatch.setattr("imptables.monoid.closed_form", expand)
        with pytest.raises(ValueError, match="tamper"):
            run_all(order=6, k_max=2, tamper=tamper)

    @pytest.mark.parametrize("tamper", [("s", 99, 1), ("s", 9, 1), ("t", -1, 1)])
    def test_tamper_index_out_of_range_rejected_before_any_expansion(self, monkeypatch, tamper):
        # s is classical: left to its Realizer, the index would be rejected
        # only after the whole Kleene suite had run.
        calls = []

        def expand(name, order):
            calls.append(name)
            return closed_form(name, order)

        monkeypatch.setattr("imptables.monoid.closed_form", expand)
        with pytest.raises(ValueError, match=f"tamper index {tamper[1]} outside orders 0..8"):
            run_all(order=8, k_max=2, tamper=tamper)
        assert calls == []

    @pytest.mark.parametrize("tamper", [("t", 0, 1), ("t", 8, 1), ("s", 8, 1)])
    def test_tamper_at_either_end_of_the_range_is_applied(self, tamper):
        # 0 and the order itself are both inside the range: the coefficient
        # is shifted and the owning logic's partition claim sees it.
        logic = "kleene" if tamper[0] == "t" else "classical"
        reports = {r.claim: r for r in run_all(order=8, k_max=2, tamper=tamper)}
        assert not reports[f"partitions[{logic}]"].verified
        assert reports[f"partitions[{logic}]"].witness.n == tamper[1]

    def test_k_max_below_two_rejected_before_any_expansion(self, monkeypatch):
        # Left to verify_power_identities, k_max would be rejected only
        # after the first four Kleene claims had run.
        calls = []

        def expand(name, order):
            calls.append(name)
            return closed_form(name, order)

        monkeypatch.setattr("imptables.monoid.closed_form", expand)
        with pytest.raises(ValueError, match="k_max must be at least 2, got 1"):
            run_all(order=20, k_max=1)
        assert calls == []

    def test_seed_rejected_before_any_expansion(self, monkeypatch):
        # Left to default_sample, the seed would be rejected only after
        # the Kleene Realizer had expanded its series.
        calls = []

        def expand(name, order):
            calls.append(name)
            return closed_form(name, order)

        monkeypatch.setattr("imptables.monoid.closed_form", expand)
        with pytest.raises(TypeError, match="^seed must be an int, got 2.5$"):
            run_all(order=20, seed=2.5)
        assert calls == []

    def test_tamper_hits_only_owning_logic(self):
        reports = run_all(order=12, k_max=3, seed=0, tamper=("t", 3, 1))
        failed = [r for r in reports if not r.verified]
        assert failed
        assert all("kleene" in r.claim for r in failed)
        assert all(r.verified for r in reports if "classical" in r.claim)

    def test_summary_lines(self):
        reports = run_all(order=8, k_max=2, seed=0, tamper=("s", 2, 1))
        lines = [r.summary_line() for r in reports]
        assert any(line.startswith("PASS ") for line in lines)
        failing = [line for line in lines if line.startswith("FAIL ")]
        assert failing and "first failure at n=" in failing[0]
