import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import imptables.series as series_module
from imptables.cli import main
from imptables.logic import CLASSICAL, KLEENE, catalan
from imptables.series import (
    CLASSICAL_SERIES,
    KLEENE_SERIES,
    SERIES_NAMES,
    SERIES_VALUES,
    ConsistencyError,
    PowerSeries,
    _divide,
    _radicals,
    closed_form,
    series_description,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


def series_strategy(max_order=8):
    return st.lists(rationals, min_size=1, max_size=max_order + 1).map(PowerSeries)


# plain ints and Fractions, integral ones included, in one coefficient list
mixed_coefficients = st.lists(
    st.one_of(st.integers(min_value=-10, max_value=10), rationals),
    min_size=1,
    max_size=9,
)


@st.composite
def padded_factors(draw):
    """Two coefficient lists of unequal orders, each with 0 to order + 2
    leading zeros (int and Fraction) in front of a nonzero coefficient;
    a factor with more than order leading zeros is all zero."""
    p = draw(st.integers(min_value=0, max_value=8))
    q = draw(st.integers(min_value=0, max_value=8).filter(lambda q: q != p))
    factors = []
    for order in (p, q):
        lead = draw(st.lists(st.sampled_from([0, Fraction(0)]), max_size=order + 2))
        first = draw(rationals.filter(bool))
        rest = draw(st.lists(rationals, min_size=order, max_size=order))
        factors.append((lead + [first] + rest)[: order + 1])
    return factors


def fraction_product(a, b):
    """Reference Cauchy product over Fraction only, truncated to the shorter."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    n = min(len(a), len(b))
    return [sum((a[k] * b[m - k] for k in range(m + 1)), Fraction(0)) for m in range(n)]


def fraction_sqrt(a, root0):
    """Reference series square root over Fraction only, given the root of a[0]."""
    a = [Fraction(c) for c in a]
    ys = [Fraction(root0)]
    for n in range(1, len(a)):
        acc = a[n] - sum((ys[k] * ys[n - k] for k in range(1, n)), Fraction(0))
        ys.append(acc / (2 * ys[0]))
    return ys


def assert_normal_form(series):
    """Integral coefficients are stored as int, all others as Fraction."""
    for c in series.coeffs:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


@pytest.fixture
def formed(monkeypatch):
    """The (x, y) of every coefficient product `PowerSeries.__mul__` forms."""
    formed = []

    def counted_mul(x, y):
        formed.append((x, y))
        return x * y

    monkeypatch.setattr(series_module, "mul", counted_mul)
    return formed


def binomial_sqrt_coefficient(n, scale):
    """[x^n] of (1 + scale*x)^(1/2) via the generalized binomial theorem."""
    half = Fraction(1, 2)
    coeff = Fraction(1)
    for i in range(n):
        coeff *= (half - i) / (i + 1)
    return coeff * Fraction(scale) ** n


class TestConstruction:
    def test_orders(self):
        s = PowerSeries([1, 2, 3])
        assert s.order == 2
        assert s.coefficient(0) == 1
        assert s.coefficient(2) == 3

    def test_operands_that_are_not_series_or_scalars(self):
        s = PowerSeries([1, 2, 3])
        assert s == PowerSeries([1, 2, 3])
        assert s != PowerSeries([1, 2, 4])
        assert (s == (1, 2, 3)) is False
        # Each operator declines what it cannot take, so Python names both types.
        for operation, other in ((operator.add, 1), (operator.sub, 1), (operator.truediv, "2")):
            with pytest.raises(TypeError, match=f"'PowerSeries' and '{type(other).__name__}'$"):
                operation(s, other)
        assert s / Fraction(1, 2) == PowerSeries([2, 4, 6])
        assert Fraction(1, 2) * s == PowerSeries([Fraction(1, 2), 1, Fraction(3, 2)])

        class Operand:
            def __rmul__(self, other):
                return "the operand's product"

        # __mul__ declines too, so the other operand's __rmul__ answers.
        assert s * Operand() == "the operand's product"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries([])

    @pytest.mark.parametrize(
        "value, shown", [(0.1, "0.1"), ("a", "'a'"), (True, "True")], ids=["float", "str", "bool"]
    )
    def test_coefficients_must_be_int_or_fraction(self, value, shown):
        with pytest.raises(TypeError, match=f"^coefficients must be int or Fraction, got {shown}$"):
            PowerSeries([1, value])

    @pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize(
        "value, shown", [(0.1, "0.1"), ("a", "'a'"), (True, "True")], ids=["float", "str", "bool"]
    )
    def test_a_bad_coefficient_is_caught_in_any_position(self, position, value, shown):
        coeffs = [1, 2, 3]
        coeffs[position] = value
        with pytest.raises(TypeError, match=f"^coefficients must be int or Fraction, got {shown}$"):
            PowerSeries(coeffs)

    @pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
    def test_an_integral_fraction_becomes_an_int_in_any_position(self, position):
        coeffs = [1, 2, 3]
        coeffs[position] = Fraction(4, 2)
        series = PowerSeries(coeffs)
        assert series.coeffs[position] == 2
        assert type(series.coeffs[position]) is int

    def test_plain_int_coefficients_are_checked_in_one_pass(self, monkeypatch):
        # Only a series with a coefficient that is not a plain int takes
        # the per-coefficient `_exact` call, and then for every coefficient.
        seen, plain_exact = [], series_module._exact

        def counted_exact(c):
            seen.append(c)
            return plain_exact(c)

        monkeypatch.setattr(series_module, "_exact", counted_exact)
        assert PowerSeries(range(5)).coeffs == (0, 1, 2, 3, 4)
        assert PowerSeries.zero(3).coeffs == (0, 0, 0, 0)
        assert seen == []
        assert PowerSeries([1, Fraction(1, 2), 3]).coeffs == (1, Fraction(1, 2), 3)
        assert seen == [1, Fraction(1, 2), 3]

    def test_builders(self):
        assert PowerSeries.identity(3).coeffs == (1, 0, 0, 0)
        assert PowerSeries.zero(2).coeffs == (0, 0, 0)
        assert PowerSeries.x(3).coeffs == (0, 1, 0, 0)
        assert PowerSeries.constant(7, 2).coeffs == (7, 0, 0)

    def test_builders_at_order_zero(self):
        assert PowerSeries.constant(7, 0).coeffs == (7,)
        assert PowerSeries.identity(0).coeffs == (1,)
        assert PowerSeries.zero(0).coeffs == (0,)

    def test_coefficient_beyond_order_is_an_error(self):
        s = PowerSeries([1, 2])
        with pytest.raises(IndexError):
            s.coefficient(2)
        with pytest.raises(IndexError):
            s.coefficient(-1)

    def test_truncate(self):
        s = PowerSeries([1, 2, 3, 4])
        assert s.truncate(1).coeffs == (1, 2)
        assert s.truncate(0).coeffs == (1,)
        with pytest.raises(IndexError):
            s.truncate(9)

    @pytest.mark.parametrize("value", [True, 2.0], ids=["bool", "float"])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("order", lambda v: PowerSeries([1, 2, 3]).truncate(v)),
            ("n", lambda v: PowerSeries([1, 2, 3]).coefficient(v)),
            ("order", lambda v: PowerSeries.constant(7, v)),
            ("order", PowerSeries.x),
        ],
        ids=["truncate", "coefficient", "constant", "x"],
    )
    def test_order_and_index_must_be_ints(self, name, call, value):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got {value!r}$"):
            call(value)

    def test_repr_shows_eight_coefficients_then_a_tail(self):
        assert repr(closed_form("t", 7)) == (
            "PowerSeries([0, 1, 5, 30, 229, 1938, 17530, 165852], order=7)"
        )
        assert repr(closed_form("t", 8)) == (
            "PowerSeries([0, 1, 5, 30, 229, 1938, 17530, 165852, ...], order=8)"
        )


class TestSqrt:
    def test_binomial_oracle_1_minus_12x(self):
        base = PowerSeries([1, -12] + [0] * 19)
        root = base.sqrt()
        assert root.coeffs[:4] == (1, -6, -18, -108)
        for n in range(21):
            assert root.coefficient(n) == binomial_sqrt_coefficient(n, -12)

    def test_binomial_oracle_1_minus_8x(self):
        base = PowerSeries([1, -8] + [0] * 10)
        root = base.sqrt()
        assert root.coeffs[:6] == (1, -4, -8, -32, -160, -896)
        for n in range(11):
            assert root.coefficient(n) == binomial_sqrt_coefficient(n, -8)

    def test_constant_square(self):
        assert PowerSeries.constant(9, 3).sqrt().coeffs == (3, 0, 0, 0)

    def test_nested_radical_constant_term(self):
        order = 6
        one = PowerSeries.identity(order)
        x = PowerSeries.x(order)
        inner = (one - 12 * x).sqrt()
        outer = (5 * one + 24 * x + 4 * inner).sqrt()
        assert outer.coefficient(0) == 3

    def test_rational_constant_terms(self):
        s = PowerSeries([Fraction(9, 4), 1, 1]).sqrt()
        assert s.coefficient(0) == Fraction(3, 2)
        assert (s * s).coeffs == (Fraction(9, 4), 1, 1)

    def test_error_cases(self):
        with pytest.raises(ValueError):
            PowerSeries([2, 1]).sqrt()
        with pytest.raises(ValueError):
            PowerSeries([-1, 1]).sqrt()
        with pytest.raises(ValueError):
            PowerSeries([0, 1]).sqrt()
        # A square numerator over a denominator that is not a square.
        with pytest.raises(ValueError, match="^1/2 is not the square of a rational$"):
            PowerSeries([Fraction(1, 2), 1]).sqrt()

    def test_non_integral_root_stays_exact(self):
        root = PowerSeries([1, 1]).sqrt()
        assert root.coeffs == (1, Fraction(1, 2))
        assert type(root.coefficient(1)) is Fraction
        longer = PowerSeries([1, 1, 0, 0, 0]).sqrt()
        for n in range(5):
            assert longer.coefficient(n) == binomial_sqrt_coefficient(n, 1)
        assert_normal_form(longer)

    @given(
        mixed_coefficients,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=4),
    )
    def test_matches_fraction_reference(self, body, num, den):
        root0 = Fraction(num, den)
        coeffs = [root0 * root0] + body[1:]
        root = PowerSeries(coeffs).sqrt()
        assert root.coeffs == tuple(fraction_sqrt(coeffs, root0))
        assert_normal_form(root)

    @given(series_strategy(6), st.integers(min_value=1, max_value=5))
    def test_round_trip(self, body, constant):
        coeffs = (Fraction(constant * constant),) + body.coeffs[1:]
        series = PowerSeries(coeffs)
        root = series.sqrt()
        assert root * root == series
        assert root.coefficient(0) == constant


class TestArithmetic:
    def test_add_truncates_to_min_order(self):
        a = PowerSeries([1, 1, 1, 1])
        b = PowerSeries([1, 2])
        assert (a + b).coeffs == (2, 3)
        assert (a - b).coeffs == (0, -1)

    def test_identity_laws(self):
        a = PowerSeries([3, 1, 4, 1, 5])
        one = PowerSeries.identity(4)
        zero = PowerSeries.zero(4)
        assert a + zero == a
        assert one * a == a
        assert a * one == a

    def test_scale_and_shift(self):
        a = PowerSeries([1, 2, 3])
        assert a.scale(3).coeffs == (3, 6, 9)
        assert (2 * a).coeffs == (2, 4, 6)
        assert (a / 2).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
        assert a.shift().coeffs == (0, 1, 2)
        assert PowerSeries.identity(3).shift().coeffs == (0, 1, 0, 0)

    def test_mul_oracle_values(self):
        r = closed_form("r", 4)
        assert (r * r).coefficient(4) == 33
        t = closed_form("t", 2)
        f = closed_form("f", 2)
        assert (t * f).coefficient(2) == 1

    def test_pow(self):
        x = PowerSeries.x(5)
        assert (x**3).coeffs == (0, 0, 0, 1, 0, 0)
        a = PowerSeries([1, 1, 0, 0])
        assert (a**2).coeffs == (1, 2, 1, 0)
        assert (a**0) == PowerSeries.identity(3)
        with pytest.raises(ValueError):
            a ** (-1)

    def test_mul_forms_only_products_above_both_valuations(self, monkeypatch):
        formed = []

        def counted_mul(x, y):
            formed.append((x, y))
            return x * y

        monkeypatch.setattr(series_module, "mul", counted_mul)
        a = PowerSeries([0] * 4 + list(range(1, 18)))
        b = PowerSeries([0] * 6 + [Fraction(k, 3) for k in range(1, 16)])
        assert a.order == b.order == 20
        product = a * b
        assert product.coeffs == tuple(fraction_product(a.coeffs, b.coeffs))
        # x^m for m = 10..20 sums m - 9 products: 1 + 2 + ... + 11.
        assert len(formed) == 66
        formed.clear()
        late = PowerSeries([0] * 17 + [1] * 4)
        assert (a * late).coeffs == (0,) * 21
        assert (late * b).coeffs == (0,) * 21
        assert formed == []

    def test_mul_at_valuation_sum_n_forms_one_product(self, formed):
        a = PowerSeries([0, 0, 3, 9, 9])
        b = PowerSeries([0, 0, Fraction(5, 2), 7, 7, 7])
        for x, y in ((a, b), (b, a)):
            formed.clear()
            assert (x * y).coeffs == (0, 0, 0, 0, Fraction(15, 2))
            assert len(formed) == 1

    def test_mul_past_valuation_sum_n_is_zero_without_products(self, formed):
        a = PowerSeries([0, 1, 2, 3])
        # va + vb = n + 1: b's first nonzero coefficient is its last, and
        # an all-zero factor, of a's order or shorter, has valuation n + 1.
        for b in (PowerSeries([0, 0, 0, 4]), PowerSeries.zero(3), PowerSeries.zero(2)):
            for product in (a * b, b * a):
                assert product.coeffs == (0,) * (b.order + 1)
                assert set(map(type, product.coeffs)) == {int}
        assert formed == []

    @given(series_strategy(), series_strategy())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(series_strategy(5), series_strategy(5), series_strategy(5))
    def test_mul_associates(self, a, b, c):
        n = min(a.order, b.order, c.order)
        assert ((a * b) * c).truncate(n) == (a * (b * c)).truncate(n)

    @given(mixed_coefficients, mixed_coefficients)
    def test_mul_matches_fraction_reference(self, a, b):
        product = PowerSeries(a) * PowerSeries(b)
        assert product.coeffs == tuple(fraction_product(a, b))
        assert_normal_form(product)

    @given(padded_factors())
    @example([[0, Fraction(0), 0], [Fraction(1, 2), -3, 4, 5, 6]])
    @example([[Fraction(0), 0, 0, 0, 0, 7, Fraction(1, 3)], [2, -1, Fraction(5, 2)]])
    @example([[0, 0, Fraction(-1, 2), 3], [0, 5, 0, 0, 0, 2]])
    def test_mul_with_leading_zeros_matches_fraction_reference(self, factors):
        a, b = factors
        for x, y in ((a, b), (b, a)):
            product = PowerSeries(x) * PowerSeries(y)
            assert product.coeffs == tuple(fraction_product(x, y))
            assert_normal_form(product)

    @pytest.mark.parametrize("long_first", [True, False])
    def test_mul_of_unequal_orders_matches_fraction_reference(self, long_first):
        # The hypothesis draws stay at 9 coefficients; here one factor is
        # much longer than the other, in either position.
        long = [Fraction((-1) ** k * (k + 1), k % 3 + 1) for k in range(21)]
        short = [3, -2, Fraction(1, 2), 0, Fraction(-7, 3), 5]
        a, b = (long, short) if long_first else (short, long)
        product = PowerSeries(a) * PowerSeries(b)
        assert product.order == 5
        assert product.coeffs == tuple(fraction_product(a, b))
        assert_normal_form(product)

    @given(series_strategy(5), series_strategy(5), series_strategy(5))
    def test_mul_distributes(self, a, b, c):
        n = min(a.order, b.order, c.order)
        assert (a * (b + c)).truncate(n) == (a * b + a * c).truncate(n)

    @pytest.mark.parametrize(
        "c", [-7, -6, 0, 5, 6, 10**40 + 3, -(10**40) * 6, Fraction(-7, 3), Fraction(9, 4)]
    )
    @pytest.mark.parametrize("d", [-4, -2, 1, 2, 3, 6, Fraction(3, 2), Fraction(-1, 3)])
    def test_divide_matches_fraction_reference(self, c, d):
        expected = Fraction(c) / Fraction(d)
        quotient = _divide(c, d)
        assert quotient == expected
        assert type(quotient) is (int if expected.denominator == 1 else Fraction)

    @given(mixed_coefficients, st.one_of(st.integers(-12, 12), rationals).filter(bool))
    def test_truediv_matches_fraction_reference(self, coeffs, divisor):
        quotient = PowerSeries(coeffs) / divisor
        assert quotient.coeffs == tuple(Fraction(c) / Fraction(divisor) for c in coeffs)
        assert_normal_form(quotient)

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_division_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError):
            PowerSeries([1, Fraction(1, 2)]) / zero
        with pytest.raises(ZeroDivisionError):
            _divide(3, zero)


class TestVocabulary:
    @pytest.mark.parametrize("sem, names", [(KLEENE, KLEENE_SERIES), (CLASSICAL, CLASSICAL_SERIES)])
    def test_each_value_has_one_series_and_one_total_remains(self, sem, names):
        vocabulary = SERIES_VALUES[sem.name]
        assert sorted(vocabulary.values()) == sorted(sem.values)
        assert set(vocabulary) < set(names)
        assert len(set(names) - set(vocabulary)) == 1


class TestClosedForms:
    def test_small_prefixes(self):
        assert closed_form("g", 3).coeffs == (0, 3, 9, 54)
        assert closed_form("u", 3).coeffs == (0, 1, 3, 18)
        assert closed_form("f", 3).coeffs == (0, 1, 1, 6)
        assert closed_form("s", 3).coeffs == (0, 1, 1, 4)
        assert closed_form("t", 3).coefficient(3) == 30
        assert closed_form("i", 4).coeffs == (1, 0, 0, 0, 0)

    def test_r4(self):
        # brute force, the recurrence, and this expansion all give 61
        # (total 80 minus s4 = 19)
        assert closed_form("r", 4).coefficient(4) == 61

    @pytest.mark.parametrize("constant, term", [(10, 1), (16, 2)])
    def test_constant_term_checked(self, monkeypatch, capsys, constant, term):
        # With t's constant 4 raised, t = (c - s - w)/6 starts at
        # (c - 1 - 3)/6 and every other coefficient stays a count (t_1 = 1).
        row = series_module._COUNT_SERIES["t"]
        monkeypatch.setitem(series_module._COUNT_SERIES, "t", (*row[:3], (constant, -1, -1, 6)))
        message = f"count series 't' has constant term {term}, expected 0"
        with pytest.raises(ConsistencyError, match=f"^{message}$"):
            closed_form("t", 3)
        assert main(["series", "t"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_negative_coefficient_checked(self, monkeypatch):
        # The row of -t: every coefficient an integer, the first nonzero -1.
        row = series_module._COUNT_SERIES["t"]
        monkeypatch.setitem(series_module._COUNT_SERIES, "t", (*row[:3], (-4, 1, 1, 6)))
        message = "count series 't' has coefficient -1 at x^1; counts must be nonnegative integers"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            closed_form("t", 3)

    def test_g_is_three_u(self):
        order = 50
        assert closed_form("g", order) == closed_form("u", order).scale(3)

    def test_kleene_partition(self):
        order = 50
        t, f, u, g = (closed_form(k, order) for k in KLEENE_SERIES)
        assert t + f + u == g

    def test_classical_partition(self):
        order = 50
        r, s, g2 = (closed_form(k, order) for k in CLASSICAL_SERIES)
        assert r + s == g2
        for n in range(1, order + 1):
            assert g2.coefficient(n) == 2**n * catalan(n)

    def test_kleene_total_is_radix_scaled_catalan(self):
        g = closed_form("g", 30)
        for n in range(1, 31):
            assert g.coefficient(n) == 3**n * catalan(n)

    def test_count_series_are_nonnegative_integers(self):
        for name in KLEENE_SERIES + CLASSICAL_SERIES:
            coeffs = closed_form(name, 50).integer_coefficients()
            assert coeffs[0] == 0
            assert all(c >= 0 for c in coeffs)

    def test_count_series_coefficients_are_plain_ints(self):
        for name in SERIES_NAMES:
            series = closed_form(name, 50)
            assert all(type(c) is int for c in series.coeffs), name

    def test_radicals_are_integral_to_order_300(self):
        # s = sqrt(1-12x), w = sqrt(5+24x+4s), s2 = sqrt(1-8x), w2 = sqrt(2+2s2+8x)
        radicals = _radicals("kleene", 300) + _radicals("classical", 300)
        for radical in radicals:
            assert radical.order == 300
            assert all(type(c) is int for c in radical.coeffs)
        s, w, s2, w2 = radicals
        one, x = PowerSeries.identity(300), PowerSeries.x(300)
        assert s * s == one - 12 * x
        assert w * w == 5 * one + 24 * x + 4 * s
        assert s2 * s2 == one - 8 * x
        assert w2 * w2 == 2 * one + 2 * s2 + 8 * x

    def test_radicals_built_once_per_order(self):
        _radicals.cache_clear()
        for name in KLEENE_SERIES + CLASSICAL_SERIES:
            closed_form(name, 20)
        info = _radicals.cache_info()
        assert (info.misses, info.hits) == (2, len(KLEENE_SERIES + CLASSICAL_SERIES) - 2)
        assert info.maxsize is not None and info.maxsize <= 8

    @pytest.mark.parametrize("logic, a", [("kleene", 12), ("classical", 8)])
    def test_s_is_the_binomial_series_in_ints(self, logic, a):
        s, _ = _radicals(logic, 60)
        for n in range(61):
            assert s.coefficient(n) == binomial_sqrt_coefficient(n, -a)
        assert all(type(c) is int for c in s.coeffs)

    @pytest.mark.parametrize("logic", ["kleene", "classical"])
    def test_w_recurrence_matches_the_square_root_to_order_400(self, logic):
        a, b, c, d = series_module._RADICALS[logic]
        s, w = _radicals(logic, 400)
        one, x = PowerSeries.identity(400), PowerSeries.x(400)
        assert w.coeffs == (b * one + c * x + d * s).sqrt().coeffs
        assert all(type(c) is int for c in w.coeffs)

    @pytest.mark.parametrize("logic", ["kleene", "classical"])
    def test_one_sqrt_per_logic_and_order(self, monkeypatch, logic):
        # s comes from its binomial series and w past its first r + 1 terms
        # from its P-recurrence: one square root, of order at most r.
        calls = []
        sqrt = PowerSeries.sqrt

        def counted(self):
            calls.append(self.order)
            return sqrt(self)

        monkeypatch.setattr(PowerSeries, "sqrt", counted)
        _radicals.cache_clear()
        _radicals(logic, 40)
        r = len(series_module._W_RECURRENCE[logic]) - 1
        assert len(calls) == 1 and calls[0] <= r

    def test_self_similarity(self):
        # the total series satisfy G^2 = G - radix*x in both logics
        order = 40
        g = closed_form("g", order)
        x = PowerSeries.x(order)
        assert g * g == g - 3 * x
        g2 = closed_form("g2", order)
        assert g2 * g2 == g2 - 2 * x

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            closed_form("q", 5)
        with pytest.raises(ValueError):
            closed_form("t", 0)

    @pytest.mark.parametrize("order", [2.5, True], ids=["float", "bool"])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(TypeError, match=f"^order must be an int, got {order}$"):
            closed_form("t", order)

    def test_description_of_a_non_name_is_a_type_error(self):
        with pytest.raises(TypeError, match="^name must be a str, got 3$"):
            series_description(3)

    def test_description_checks_the_name_as_closed_form_does(self):
        with pytest.raises(ValueError) as by_description:
            series_description("q")
        with pytest.raises(ValueError) as by_closed_form:
            closed_form("q", 3)
        assert str(by_description.value) == str(by_closed_form.value)
        assert str(by_description.value).startswith("unknown series 'q'; choose from t, f,")
        assert series_description("T") == "true entries, three-valued"

    def test_descriptions_exist(self):
        assert (KLEENE_SERIES, CLASSICAL_SERIES) == (("t", "f", "u", "g"), ("r", "s", "g2"))
        assert [(name, series_description(name.upper())) for name in SERIES_NAMES] == [
            ("t", "true entries, three-valued"),
            ("f", "false entries, three-valued"),
            ("u", "unknown entries, three-valued"),
            ("g", "all entries, three-valued"),
            ("r", "true entries, classical"),
            ("s", "false entries, classical"),
            ("g2", "all entries, classical"),
            ("i", "multiplicative identity"),
        ]


class TestIntegerExtraction:
    def test_fractional_coefficient_rejected(self):
        s = PowerSeries([0, Fraction(1, 2)])
        with pytest.raises(ConsistencyError):
            s.integer_coefficients()

    def test_integral_series_converts(self):
        assert PowerSeries([0, 1, 3]).integer_coefficients() == (0, 1, 3)
