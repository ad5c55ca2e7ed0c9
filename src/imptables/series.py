"""Truncated formal power series over exact rationals.

Coefficients are `int` when integral, else `Fraction`; nothing ever
rounds.  A series carries its truncation order explicitly, and every
binary operation truncates to the smaller participating order rather
than padding, so precision loss is always visible in the result's order.
A product forms only the coefficient products above both factors'
valuations (the index of each one's first nonzero coefficient): the
count series have no constant term, so t^i f^j u^k starts at x^(i+j+k)
and the zeros below it cost nothing.

The module also builds the closed forms of the truth-table count
series.  Writing s = sqrt(1-12x) and w = sqrt(5+24x+4s), the
three-valued counts are

    u: (1 - s)/6        f: (-2 - s + w)/6      t: (4 - s - w)/6
    g: (1 - s)/2   (total; g = 3u)

and with s2 = sqrt(1-8x), w2 = sqrt(2+2*s2+8x) the classical counts are

    s: (-1 - s2 + w2)/4     r: (3 - s2 - w2)/4     g2: (1 - s2)/2.

Count series must expand to nonnegative integers (asserted at construction).
The four radicals are integral too, and every division on the way (the square
roots' 2*y0, the closed forms' 6, 4 and 2) is exact integer division whenever
the quotient is whole, so building them forms no `Fraction` at all.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class ConsistencyError(Exception):
    """A count series expanded to something non-integral or negative.

    This signals a transcription bug in the closed forms, not bad input.
    """


def _rational_sqrt(q: Scalar) -> Fraction:
    """Exact positive square root of a positive rational, or ValueError."""
    if q <= 0:
        raise ValueError(f"series sqrt needs a positive constant term, got {q}")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError(f"{q} is not the square of a rational")
    return Fraction(rn, rd)


def _exact(c: Scalar) -> Scalar:
    """`c` as an `int` when it is integral, else as a `Fraction`."""
    if type(c) is int:
        return c
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


def _divide(c: Scalar, d: Scalar) -> Scalar:
    """``c / d`` exactly: the `int` quotient when ``d`` divides ``c``, else
    a `Fraction`.  A whole quotient costs one `divmod`, not the gcd that
    normalising a `Fraction` takes; ZeroDivisionError when ``d`` is 0."""
    q, r = divmod(c, d)
    return q if r == 0 else _exact(Fraction(c) / d)


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

    def __rmul__(self, factor: Scalar) -> "PowerSeries":
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __truediv__(self, divisor: Scalar) -> "PowerSeries":
        """Divide every coefficient exactly by a scalar; the order is preserved."""
        if isinstance(divisor, (int, Fraction)):
            return PowerSeries(_divide(c, divisor) for c in self.coeffs)
        return NotImplemented

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
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        va, vb = _valuation(a, n), _valuation(b, n)
        head, rb = a[va:], b[vb : n - va + 1][::-1]
        zeros = [0] * min(va + vb, n + 1)
        return PowerSeries(
            zeros + [sum(map(mul, head, rb[n - m :])) for m in range(va + vb, n + 1)]
        )

    def __pow__(self, exponent: int) -> "PowerSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers are defined for nonnegative integers")
        if exponent == 0:
            return PowerSeries.identity(self.order)
        result = self
        for _ in range(exponent - 1):
            result = result * self
        return result

    def sqrt(self) -> "PowerSeries":
        """The series y with y*y == self up to the truncation order.

        Needs a constant term that is the square of a nonzero rational;
        y's constant term is the nonnegative root, and for n >= 1

            y_n = (a_n - 2 sum_{1<=k<n/2} y_k y_{n-k} - [n even] y_{n/2}^2) / (2 y_0),

        the inner sum of y*y with each symmetric pair of products formed once,
        and the division exact: an `int` whenever 2 y_0 divides the numerator.
        """
        a = self.coeffs
        y0 = _exact(_rational_sqrt(a[0]))
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

SERIES_NAMES = ("t", "f", "u", "g", "r", "s", "g2", "i")

KLEENE_SERIES = ("t", "f", "u", "g")
CLASSICAL_SERIES = ("r", "s", "g2")

_DESCRIPTIONS = {
    "t": "true entries, three-valued",
    "f": "false entries, three-valued",
    "u": "unknown entries, three-valued",
    "g": "all entries, three-valued",
    "r": "true entries, classical",
    "s": "false entries, classical",
    "g2": "all entries, classical",
    "i": "multiplicative identity",
}


@functools.lru_cache(maxsize=4)
def _kleene_radicals(order: int) -> tuple[PowerSeries, PowerSeries]:
    one = PowerSeries.identity(order)
    x = PowerSeries.x(order)
    s = (one - 12 * x).sqrt()
    w = (5 * one + 24 * x + 4 * s).sqrt()
    return s, w


@functools.lru_cache(maxsize=4)
def _classical_radicals(order: int) -> tuple[PowerSeries, PowerSeries]:
    one = PowerSeries.identity(order)
    x = PowerSeries.x(order)
    s2 = (one - 8 * x).sqrt()
    w2 = (2 * one + 2 * s2 + 8 * x).sqrt()
    return s2, w2


def closed_form(name: str, order: int) -> PowerSeries:
    """Expand a named count series exactly to the given order.

    Names: t, f, u, g (three-valued), r, s, g2 (classical), i (identity).
    Count series are checked to have integer coefficients, no constant
    term, and no negative entries; a violation raises ConsistencyError.
    """
    key = name.lower()
    if key not in SERIES_NAMES:
        raise ValueError(f"unknown series {name!r}; choose from {', '.join(SERIES_NAMES)}")
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    one = PowerSeries.identity(order)
    if key == "i":
        return one
    if key in KLEENE_SERIES:
        s, w = _kleene_radicals(order)
        if key == "u":
            series = (one - s) / 6
        elif key == "f":
            series = (-2 * one - s + w) / 6
        elif key == "t":
            series = (4 * one - s - w) / 6
        else:  # g
            series = (one - s) / 2
    else:
        s2, w2 = _classical_radicals(order)
        if key == "s":
            series = (-1 * one - s2 + w2) / 4
        elif key == "r":
            series = (3 * one - s2 - w2) / 4
        else:  # g2
            series = (one - s2) / 2
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
    return _DESCRIPTIONS[name.lower()]
