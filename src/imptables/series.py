"""Truncated formal power series over exact rationals.

Coefficients are `int` when integral, else `Fraction`; nothing ever
rounds.  A series carries its truncation order explicitly, and every
binary operation truncates to the smaller participating order rather
than padding, so precision loss is always visible in the result's order.
A product forms only the coefficient products above both factors'
valuations (the index of each one's first nonzero coefficient): the
count series have no constant term, so t^i f^j u^k starts at x^(i+j+k)
and the zeros below it cost nothing.

The module is the one place that says which truth value each count
series counts (`SERIES_VALUES`): t, f, u count the entries of value 1
(true), 0 (false) and 2 (unknown), r and s the classical 1 and 0, and
g, g2 all entries.  The CLI and `monoid` read that vocabulary from
here.  It is a label, not a count: brute force and the recurrence
import nothing from this module, so the three routes stay independent.

The module also builds the closed forms of the count series.  Writing
s = sqrt(1-12x) and w = sqrt(5+24x+4s), the three-valued counts are

    u: (1 - s)/6        f: (-2 - s + w)/6      t: (4 - s - w)/6
    g: (1 - s)/2   (total; g = 3u)

and with s2 = sqrt(1-8x), w2 = sqrt(2+2*s2+8x) the classical counts are

    s: (-1 - s2 + w2)/4     r: (3 - s2 - w2)/4     g2: (1 - s2)/2.

Count series must expand to nonnegative integers (asserted at construction).
The four radicals are integral too, and every division on the way (the square
roots' 2*y0, the closed forms' 6, 4 and 2) is exact integer division whenever
the quotient is whole, so building them forms no `Fraction` at all.

`fractions` is imported only when a value turns out non-integral, by
`_fraction`: a call that forms only integers (every count series does)
loads neither it nor the `decimal` and `numbers` modules it imports.
"""

import functools
import math
from collections.abc import Iterable
from operator import mul

# A string, as `Fraction` is not imported here (see the module docstring).
Scalar = "int | Fraction"


class ConsistencyError(Exception):
    """A count series expanded to something non-integral or negative.

    This signals a transcription bug in the closed forms, not bad input.
    """


def _fraction() -> type:
    """The `Fraction` class, importing `fractions` on first use."""
    from fractions import Fraction

    return Fraction


def _rational_sqrt(q: Scalar) -> Scalar:
    """Exact positive square root of a positive rational, or ValueError."""
    if q <= 0:
        raise ValueError(f"series sqrt needs a positive constant term, got {q}")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{q} is not the square of a rational")
    return _divide(rn, rd)


def _exact(c: Scalar) -> Scalar:
    """`c` as an `int` when it is integral, else as a `Fraction`; TypeError
    for anything but an `int` or a `Fraction`, so a float never rounds in."""
    if type(c) is int:
        return c
    if not isinstance(c, _fraction()):
        raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
    return c.numerator if c.denominator == 1 else c


def _divide(c: Scalar, d: Scalar) -> Scalar:
    """``c / d`` exactly: the `int` quotient when ``d`` divides ``c``, else
    a `Fraction`.  A whole quotient costs one `divmod`, not the gcd that
    normalising a `Fraction` takes; ZeroDivisionError when ``d`` is 0."""
    q, r = divmod(c, d)
    return q if r == 0 else _fraction()(c) / d


def _is_scalar(value: object) -> bool:
    """An `int` or a `Fraction`: an `int` is told apart first, without
    `fractions` and the ABC check that a `Fraction` test goes through."""
    return isinstance(value, int) or isinstance(value, _fraction())


def _valuation(coeffs: tuple[Scalar, ...], n: int) -> int:
    """Index of the first nonzero coefficient among ``coeffs[0..n]``; n + 1 if none."""
    for i in range(n + 1):
        if coeffs[i]:
            return i
    return n + 1


class PowerSeries:
    """A series c0 + ... + cN*x**N: `int` coefficients when integral, else `Fraction`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        cs = tuple(map(_exact, coeffs))
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "PowerSeries":
        return cls([value] + [0] * order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The multiplicative identity: 1 + 0x + 0x^2 + ..."""
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.constant(0, order)

    @classmethod
    def x(cls, order: int) -> "PowerSeries":
        if order < 1:
            raise ValueError("order must be at least 1 to hold an x term")
        return cls([0, 1] + [0] * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> Scalar:
        """The x**n coefficient: `int` when integral, else `Fraction`; IndexError past N."""
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient {n} requested but only orders 0..{self.order} are tracked"
            )
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if not 0 <= order <= self.order:
            raise IndexError(
                f"cannot truncate to order {order}; tracked orders are 0..{self.order}"
            )
        return PowerSeries(self.coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(-c for c in self.coeffs)

    def scale(self, factor: Scalar) -> "PowerSeries":
        """Multiply every coefficient by a scalar; the order is preserved."""
        return PowerSeries(factor * c for c in self.coeffs)

    def __truediv__(self, divisor: Scalar) -> "PowerSeries":
        """Divide every coefficient exactly by a scalar; the order is preserved."""
        if not _is_scalar(divisor):
            return NotImplemented
        return PowerSeries(_divide(c, divisor) for c in self.coeffs)

    def shift(self) -> "PowerSeries":
        """Multiply by x: prepend a zero, keep the order (top term drops)."""
        return PowerSeries((0,) + self.coeffs[:-1])

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        """The Cauchy product, truncated to the smaller order n.

        With va and vb the indices of the factors' first nonzero
        coefficients within 0..n, the first va + vb coefficients are 0
        and the x**m one sums a_k b_{m-k} for va <= k <= m - vb only: a
        product forms no coefficient product below either valuation.
        """
        if not isinstance(other, PowerSeries):
            return self.scale(other) if _is_scalar(other) else NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        va, vb = _valuation(a, n), _valuation(b, n)
        head, rb = a[va:], b[vb : n - va + 1][::-1]
        zeros = [0] * min(va + vb, n + 1)
        return PowerSeries(
            zeros + [sum(map(mul, head, rb[n - m :])) for m in range(va + vb, n + 1)]
        )

    # A scalar on the left scales, as on the right; two series never get here.
    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PowerSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers are defined for nonnegative integers")
        if exponent == 0:
            return PowerSeries.identity(self.order)
        return functools.reduce(mul, [self] * exponent)

    def sqrt(self) -> "PowerSeries":
        """The series y with y*y == self up to the truncation order.

        Needs a constant term that is the square of a nonzero rational;
        y's constant term is the nonnegative root, and for n >= 1

            y_n = (a_n - 2 sum_{1<=k<n/2} y_k y_{n-k} - [n even] y_{n/2}^2) / (2 y_0),

        the inner sum of y*y with each symmetric pair of products formed once,
        and the division exact: an `int` whenever 2 y_0 divides the numerator.
        """
        a = self.coeffs
        y0 = _rational_sqrt(a[0])
        ys = [y0]
        for n in range(1, self.order + 1):
            half = (n + 1) // 2
            acc = 2 * sum(map(mul, ys[1:half], ys[n - 1 : n - half : -1]))
            if n % 2 == 0:
                acc += ys[half] * ys[half]
            ys.append(_divide(a[n] - acc, 2 * y0))
        return PowerSeries(ys)

    def integer_coefficients(self) -> tuple[int, ...]:
        """Coefficients as plain ints; ConsistencyError if any is not one."""
        for n, c in enumerate(self.coeffs):
            if type(c) is not int:
                raise ConsistencyError(f"coefficient of x^{n} is non-integral: {c}")
        return self.coeffs

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{shown}{tail}], order={self.order})"


# --- closed forms of the count series ---------------------------------------

# The radicals of each logic, s = sqrt(1 - a*x) and w = sqrt(b + c*x + d*s),
# as (a, b, c, d).
_RADICALS = {"kleene": (12, 5, 24, 4), "classical": (8, 2, 8, 2)}

# One row per count series: its logic, the truth value whose entries it
# counts (None for the total), its description, and (c, cs, cw, d) for its
# closed form (c + cs*s + cw*w) / d over that logic's radicals.
_COUNT_SERIES = {
    "t": ("kleene", 1, "true entries, three-valued", (4, -1, -1, 6)),
    "f": ("kleene", 0, "false entries, three-valued", (-2, -1, 1, 6)),
    "u": ("kleene", 2, "unknown entries, three-valued", (1, -1, 0, 6)),
    "g": ("kleene", None, "all entries, three-valued", (1, -1, 0, 2)),
    "r": ("classical", 1, "true entries, classical", (3, -1, -1, 4)),
    "s": ("classical", 0, "false entries, classical", (-1, -1, 1, 4)),
    "g2": ("classical", None, "all entries, classical", (1, -1, 0, 2)),
}
KLEENE_SERIES = tuple(name for name, row in _COUNT_SERIES.items() if row[0] == "kleene")
CLASSICAL_SERIES = tuple(name for name, row in _COUNT_SERIES.items() if row[0] == "classical")
SERIES_NAMES = (*_COUNT_SERIES, "i")
# The vocabulary of the count series: by logic (a `Semantics.name`), each
# series that counts one truth value, in display order, as {name: value}.
SERIES_VALUES = {
    logic: {n: v for n, (of, v, *_) in _COUNT_SERIES.items() if of == logic and v is not None}
    for logic in _RADICALS
}


def _series_key(name: str) -> str:
    """The lower-cased ``name``, checked against SERIES_NAMES: the one check
    of a series name, for `closed_form` and `series_description` alike."""
    if not isinstance(name, str):
        raise TypeError(f"name must be a str, got {name!r}")
    key = name.lower()
    if key not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}; choose from {', '.join(SERIES_NAMES)}")
    return key


def _check_order(order: int) -> None:
    """Reject an ``order`` that is not an int: a float, or a bool, which would
    pass for 0 or 1.  The one type check of a truncation order, for
    `closed_form` and `monoid.Realizer` alike."""
    if type(order) is not int:
        raise TypeError(f"order must be an int, got {order!r}")


@functools.lru_cache(maxsize=8)
def _radicals(logic: str, order: int) -> tuple[PowerSeries, PowerSeries]:
    a, b, c, d = _RADICALS[logic]
    one = PowerSeries.identity(order)
    x = PowerSeries.x(order)
    s = (one - a * x).sqrt()
    w = (b * one + c * x + d * s).sqrt()
    return s, w


def closed_form(name: str, order: int) -> PowerSeries:
    """Expand a named count series exactly to the given order.

    Names: t, f, u, g (three-valued), r, s, g2 (classical), i (identity).
    Count series are checked to have integer coefficients, no constant
    term, and no negative entries; a violation raises ConsistencyError.
    """
    key = _series_key(name)
    _check_order(order)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if key == "i":
        return PowerSeries.identity(order)
    logic, _, _, (c, cs, cw, d) = _COUNT_SERIES[key]
    s, w = _radicals(logic, order)
    series = (PowerSeries.constant(c, order) + cs * s + cw * w) / d
    _assert_count_series(series, key)
    return series


def _assert_count_series(series: PowerSeries, name: str) -> None:
    if series.coeffs[0] != 0:
        raise ConsistencyError(
            f"count series {name!r} has constant term {series.coeffs[0]}, expected 0"
        )
    for n, c in enumerate(series.coeffs):
        if c.denominator != 1 or c < 0:
            raise ConsistencyError(
                f"count series {name!r} has coefficient {c} at x^{n}; "
                f"counts must be nonnegative integers"
            )


def series_description(name: str) -> str:
    key = _series_key(name)
    return "multiplicative identity" if key == "i" else _COUNT_SERIES[key][2]
