"""Property tests: the 12-digit decimal renderings are correctly rounded.

sqrt_decimal and fourth_root_decimal are compared with a reference that
decides the rounding in integers (math.isqrt, twice for the fourth root),
for n up to 10^400 and for n next to a 12-digit half-way point, where a
root taken to a fixed precision and rounded again can go the wrong way.
"""

from decimal import Decimal
from fractions import Fraction
from math import floor, isqrt

import pytest

from cyclosvp.idealsvp import fourth_root_decimal, sqrt_decimal

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

EXAMPLES = settings(max_examples=300, deadline=1000, database=None)


def _floor_root(x: int, k: int) -> int:
    return isqrt(x) if k == 2 else isqrt(isqrt(x))


def _reference(n: int, k: int) -> Decimal:
    """n**(1/k) correctly rounded half-even to 12 significant digits."""
    e = len(str(_floor_root(n, k))) - 12
    m = _floor_root(n * 10 ** (-k * e), k) if e <= 0 else _floor_root(n // 10 ** (k * e), k)
    # n**(1/k) against the half-way point (m + 1/2) 10^e, in integers
    half, target = (2 * m + 1) ** k, 2**k * n
    if e >= 0:
        half *= 10 ** (k * e)
    else:
        target *= 10 ** (-k * e)
    if target > half or (target == half and m % 2):
        m += 1
    return Decimal(m).scaleb(e)


@st.composite
def _near_half_way(draw, k):
    """An integer within a few units of h^k, h a 12-digit half-way point."""
    m = draw(st.integers(10**11, 10**12 - 1))
    e = draw(st.integers(-11, 388 // k - 12))
    h = Fraction(2 * m + 1, 2) * Fraction(10) ** e
    return max(1, floor(h**k) + draw(st.integers(-3, 3)))


def _radicands(k):
    return st.one_of(st.integers(1, 10**400), _near_half_way(k))


def _check(rendered: str, n: int, k: int):
    value = Decimal(rendered)
    assert len(value.as_tuple().digits) <= 12, rendered
    assert value == _reference(n, k), (n, rendered)


def test_reference_on_known_values():
    assert _reference(44, 2) == Decimal("6.63324958071")
    assert _reference(2848, 4) == Decimal("7.30524854173")
    assert _reference(10**30, 2) == Decimal(10**15)
    assert _reference(10**4, 4) == 10


@EXAMPLES
@given(_radicands(2))
def test_sqrt_decimal_is_correctly_rounded(n):
    _check(sqrt_decimal(n), n, 2)


@EXAMPLES
@given(_radicands(4))
def test_fourth_root_decimal_is_correctly_rounded(n):
    _check(fourth_root_decimal(n), n, 4)
