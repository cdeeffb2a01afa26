"""Exact scalar layer: cyclotomics, Bernoulli numbers, power series."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex.scalars import (
    Cyclotomic,
    PowerSeries,
    bernoulli,
    cyclotomic_polynomial,
    demote,
    genus_series,
    power_residues,
    rational_to_string,
    root_of_unity_sum,
    scalar_to_json,
)

from oracles import (
    a_hat_series_oracle,
    bernoulli_oracle,
    cyclotomic_product,
    cyclotomic_residue,
    series_compose,
    series_mul,
    todd_series_oracle,
)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and field elements


@pytest.mark.parametrize(
    "order,expected",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomial(order, expected):
    assert cyclotomic_polynomial(order) == tuple(Fraction(c) for c in expected)


def test_cyclotomic_polynomial_degree_is_euler_phi():
    for n in range(1, 30):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == phi


def test_zeta2_is_minus_one():
    zeta = Cyclotomic.root_of_unity(2)
    assert zeta + 1 == 0
    assert zeta == Fraction(-1)


def test_zeta4_squares_to_minus_one():
    zeta = Cyclotomic.root_of_unity(4)
    assert zeta * zeta == -1
    assert not (zeta * zeta).is_zero()


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 8, 12])
def test_root_of_unity_power_sum_vanishes(order):
    total = sum((Cyclotomic.root_of_unity(order, k) for k in range(order)),
                Cyclotomic.from_rational(0, order))
    assert total == 0


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8])
def test_root_of_unity_has_exact_order(order):
    zeta = Cyclotomic.root_of_unity(order)
    power = Cyclotomic.from_rational(1, order)
    for k in range(1, order + 1):
        power = power * zeta
        assert (power == 1) == (k == order)


def test_mixed_order_arithmetic_raises():
    z4 = Cyclotomic.root_of_unity(4)
    z6 = Cyclotomic.root_of_unity(6)
    for combine in (
        lambda: z4 * z6,
        lambda: z4 + z6,
        lambda: z4 - z6,
        lambda: z4 == z6,
        lambda: z4 * Cyclotomic.from_rational(1),
    ):
        with pytest.raises(ValueError, match="orders differ"):
            combine()


def test_rational_round_trip():
    value = Cyclotomic.from_rational(Fraction(-7, 3), 12)
    assert value.is_rational()
    assert value.to_rational() == Fraction(-7, 3)
    assert demote(value) == Fraction(-7, 3)
    assert demote(Cyclotomic.root_of_unity(4)) == Cyclotomic.root_of_unity(4)


def test_scalar_serialization():
    assert scalar_to_json(Fraction(-1, 8)) == "-1/8"
    assert scalar_to_json(Fraction(3)) == "3"
    assert scalar_to_json(Cyclotomic.root_of_unity(3)) == {
        "order": 3,
        "coefficients": ["0", "1"],
    }
    # rational-valued cyclotomics demote on output
    assert scalar_to_json(Cyclotomic.root_of_unity(2)) == "-1"


def _small_cyclotomics(order):
    coeff = st.integers(-4, 4).map(Fraction)
    deg = len(cyclotomic_polynomial(order)) - 1
    return st.lists(coeff, min_size=deg, max_size=deg).map(
        lambda cs: Cyclotomic(order, cs)
    )


@settings(max_examples=60, deadline=None)
@given(
    data=st.tuples(
        st.sampled_from([3, 4, 6, 8]),
        st.integers(0, 10**6),
    ).flatmap(
        lambda pair: st.tuples(
            _small_cyclotomics(pair[0]),
            _small_cyclotomics(pair[0]),
            _small_cyclotomics(pair[0]),
        )
    )
)
def test_cyclotomic_field_axioms(data):
    a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


def _assert_cyclotomic_lowest_terms(value):
    assert value.denominator > 0
    assert len(value.numerators) == len(cyclotomic_polynomial(value.order)) - 1
    assert math.gcd(value.denominator, *value.numerators) == 1
    if value.is_zero():
        assert value.denominator == 1
    if value.is_rational():
        assert hash(value) == hash(value.to_rational())


_vectors = st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=14)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 36), a=_vectors, b=_vectors)
def test_integer_cyclotomic_arithmetic_matches_long_division(order, a, b):
    modulus = list(cyclotomic_polynomial(order))
    x, y = Cyclotomic(order, a), Cyclotomic(order, b)
    total = [p + q for p, q in itertools.zip_longest(a, b, fillvalue=Fraction(0))]
    cases = [
        (x, cyclotomic_residue(a, modulus)),
        (x * y, cyclotomic_product(a, b, modulus)),
        (x + y, cyclotomic_residue(total, modulus)),
        (x * Fraction(-4, 6), [c * Fraction(-2, 3) for c in cyclotomic_residue(a, modulus)]),
        (x - x, [Fraction(0)] * (len(modulus) - 1)),
    ]
    for value, expected in cases:
        assert list(value.coeffs) == expected
        _assert_cyclotomic_lowest_terms(value)
    assert x * y == y * x and hash(x * y) == hash(y * x)


def _remainder_by_long_division(k: int, modulus: list[int]) -> list[int]:
    """t^k mod a monic integer polynomial, one leading term at a time."""
    rem = [0] * k + [1]
    deg = len(modulus) - 1
    for top in range(k, deg - 1, -1):
        lead = rem[top]
        if lead:
            for j, m in enumerate(modulus):
                rem[top - deg + j] -= lead * m
    return (rem + [0] * deg)[:deg]


@pytest.mark.parametrize("order", range(1, 37))
def test_power_residues_match_long_division(order):
    modulus = [int(c) for c in cyclotomic_polynomial(order)]
    rows = power_residues(order)
    assert len(rows) == order
    for k, row in enumerate(rows):
        assert list(row) == _remainder_by_long_division(k, modulus)


@settings(max_examples=150, deadline=None)
@given(
    data=st.integers(1, 36).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.dictionaries(
                st.integers(0, 2 * n),
                st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                max_size=6,
            ),
        )
    )
)
def test_root_of_unity_sum_matches_field_arithmetic(data):
    order, weights = data
    expected = Cyclotomic.from_rational(0, order)
    for k, w in weights.items():
        expected = expected + Cyclotomic.root_of_unity(order, k) * w
    value = root_of_unity_sum(order, weights)
    assert value == expected
    assert isinstance(value, Fraction) == expected.is_rational()


@pytest.mark.parametrize("order", range(1, 37))
def test_root_of_unity_sum_rational_values_are_fractions(order):
    every_root = root_of_unity_sum(order, {k: Fraction(3, 2) for k in range(order)})
    assert every_root == (Fraction(3, 2) if order == 1 else 0)
    assert type(every_root) is Fraction
    if order % 2 == 0:
        value = root_of_unity_sum(order, {0: Fraction(1), order // 2: Fraction(1, 3)})
        assert value == Fraction(2, 3) and type(value) is Fraction
    if order > 2:
        assert isinstance(root_of_unity_sum(order, {1: Fraction(1)}), Cyclotomic)


def test_rational_field_axioms_sample():
    values = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
    for a in values:
        for b in values:
            assert a + b == b + a
            assert a * b == b * a
            if b != 0:
                assert (a / b) * b == a


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_satisfies_defining_recurrence():
    for n in range(1, 31):
        total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


def test_bernoulli_matches_generating_series_oracle():
    for n in range(0, 17):
        assert bernoulli(n) == bernoulli_oracle(n)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


# ---------------------------------------------------------------------------
# power series


def test_series_basic_arithmetic():
    x = PowerSeries.identity(4)
    p = (1 + x) ** 3
    assert p.coeffs == (1, 3, 3, 1, 0)
    assert (p - 3 * x).coeffs == (1, 0, 3, 1, 0)


def test_series_truncation_is_respected():
    x = PowerSeries.identity(2)
    assert ((1 + x) * (1 + x)).coeffs == (1, 2, 1)
    assert (x * x * x).coeffs == (0, 0, 0)
    assert (x.truncate(5) ** 3).coeffs == (0, 0, 0, 1, 0, 0)


def test_series_inverse_is_exact():
    x = PowerSeries.identity(6)
    geom = (1 - x).inverse()
    assert all(c == 1 for c in geom.coeffs)
    assert ((1 + 2 * x + x * x) * (1 + 2 * x + x * x).inverse()).coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_series_inverse_requires_unit():
    with pytest.raises(ZeroDivisionError):
        PowerSeries.identity(3).inverse()


def test_series_exp_log_round_trip():
    x = PowerSeries.identity(8)
    series = 2 * x + 3 * x**2 - x**5
    assert series.exp().log() == series
    unit = 1 + x - x**3
    assert unit.log().exp() == unit


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.integers(-3, 3).map(Fraction), min_size=13, max_size=13),
    b=st.lists(st.integers(-3, 3).map(Fraction), min_size=13, max_size=13),
)
def test_series_multiplication_matches_convolution_oracle(a, b):
    order = 12
    left = PowerSeries(a, order)
    right = PowerSeries(b, order)
    assert list((left * right).coeffs) == series_mul(a, b, order)


@settings(max_examples=30, deadline=None)
@given(
    outer=st.lists(st.integers(-3, 3).map(Fraction), min_size=13, max_size=13),
    inner=st.lists(st.integers(-2, 2).map(Fraction), min_size=12, max_size=12),
)
def test_series_composition_matches_oracle(outer, inner):
    order = 12
    inner_coeffs = [Fraction(0)] + inner
    result = PowerSeries(outer, order).compose(PowerSeries(inner_coeffs, order))
    assert list(result.coeffs) == series_compose(outer, inner_coeffs, order)


def test_composition_requires_zero_constant_term():
    x = PowerSeries.identity(3)
    with pytest.raises(ValueError):
        (1 + x).compose(1 + x)


# ---------------------------------------------------------------------------
# genus series


def test_a_hat_series_frozen_values():
    series = genus_series("a_hat", 4)
    assert series.coeffs == (1, 0, Fraction(-1, 24), 0, Fraction(7, 5760))


def test_todd_series_frozen_values():
    series = genus_series("todd", 4)
    assert series.coeffs == (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720))


def test_genus_series_order_zero_is_one():
    assert genus_series("a_hat", 0).coeffs == (1,)
    assert genus_series("todd", 0).coeffs == (1,)


def test_a_hat_series_is_even():
    series = genus_series("a_hat", 20)
    assert all(series.coeffs[k] == 0 for k in range(1, 21, 2))


def test_genus_series_against_division_oracle():
    assert list(genus_series("a_hat", 12).coeffs) == a_hat_series_oracle(12)
    assert list(genus_series("todd", 12).coeffs) == todd_series_oracle(12)


def test_genus_series_against_bernoulli_closed_forms():
    # a_hat: coefficient of x^(2n) is (2^(1-2n) - 1) B_(2n) / (2n)!
    series = genus_series("a_hat", 12)
    for n in range(1, 7):
        expected = (Fraction(2) ** (1 - 2 * n) - 1) * bernoulli(2 * n) / math.factorial(2 * n)
        assert series.coeffs[2 * n] == expected
    # todd: coefficient of x^n is (-1)^n B_n / n!
    series = genus_series("todd", 12)
    for n in range(0, 13):
        assert series.coeffs[n] == (-1) ** n * bernoulli(n) / math.factorial(n)


def test_unknown_genus_kind_rejected():
    with pytest.raises(ValueError):
        genus_series("l_genus", 4)


def test_rational_to_string():
    assert rational_to_string(Fraction(-1, 8)) == "-1/8"
    assert rational_to_string(Fraction(4, 2)) == "2"


# ---------------------------------------------------------------------------
# sympy as a differential oracle (optional)


def test_genus_series_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    order = 16
    closed_forms = {
        "a_hat": (x / 2) / sympy.sinh(x / 2),
        "todd": x / (1 - sympy.exp(-x)),
    }
    for kind, expression in closed_forms.items():
        expansion = sympy.series(expression, x, 0, order + 1).removeO()
        expected = [Fraction(str(expansion.coeff(x, k))) for k in range(order + 1)]
        assert list(genus_series(kind, order).coeffs) == expected


def test_bernoulli_against_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy takes B_1 = +1/2; here B_1 = -1/2, and B_n^- = (-1)^n B_n^+
    for n in range(31):
        assert bernoulli(n) == (-1) ** n * Fraction(str(sympy.bernoulli(n)))
