"""Exact scalar layer: cyclotomics, Bernoulli numbers, the a-hat series."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracindex.scalars import (
    Cyclotomic,
    a_hat_log_series,
    a_hat_series,
    bernoulli,
    cyclotomic_polynomial,
    demote,
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
    series_mul,
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
    assert cyclotomic_polynomial(order) == expected


def test_cyclotomic_polynomial_degree_is_euler_phi():
    for n in range(1, 30):
        phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert len(cyclotomic_polynomial(n)) - 1 == phi


@pytest.mark.parametrize("order", [*range(1, 121), 840, 960, 997, 1000])
def test_cyclotomic_polynomial_against_sympy(order):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    expected = sympy.Poly(sympy.cyclotomic_poly(order, t), t).all_coeffs()[::-1]
    value = cyclotomic_polynomial(order)
    assert value == tuple(int(c) for c in expected)
    assert all(type(c) is int for c in value)


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
    # each coefficient is its numerator over the denominator in lowest terms
    assert scalar_to_json(Cyclotomic(12, [2, 3, 0, -4], 6)) == {
        "order": 12,
        "coefficients": ["1/3", "1/2", "0", "-2/3"],
    }


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


_entries = st.one_of(st.integers(-60, 60), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=80, deadline=None)
@given(order=st.integers(1, 36), data=st.data())
def test_cyclotomic_constructor_matches_long_division(order, data):
    # ints, Fractions and a mix of both; exactly deg(Phi_N) entries (no
    # fold), fewer, and over-long inputs; an explicit denominator
    modulus = list(cyclotomic_polynomial(order))
    deg = len(modulus) - 1
    length = data.draw(st.sampled_from([0, deg, deg + 1, 2 * deg + 3]) | st.integers(0, 24))
    coeffs = data.draw(st.lists(_entries, min_size=length, max_size=length))
    denominator = data.draw(st.integers(1, 12))
    value = Cyclotomic(order, coeffs, denominator)
    assert list(value.coeffs) == [c / denominator for c in cyclotomic_residue(coeffs, modulus)]
    _assert_cyclotomic_lowest_terms(value)
    for zero in ([], [0] * length, [Fraction(0)] * length):
        value = Cyclotomic(order, zero, denominator)
        assert value.is_zero() and value.denominator == 1
        assert value.numerators == (0,) * deg


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
            st.dictionaries(st.integers(0, 2 * n), st.integers(-9, 9), max_size=6),
        )
    ),
    denominator=st.integers(1, 12),
)
def test_root_of_unity_sum_matches_field_arithmetic(data, denominator):
    # integer weights over a positive denominator are the engine's form
    order, weights = data
    expected = Cyclotomic.from_rational(0, order)
    for k, w in weights.items():
        expected = expected + Cyclotomic.root_of_unity(order, k) * w
    expected = expected * Fraction(1, denominator)
    value = root_of_unity_sum(order, weights, denominator)
    assert value == expected
    assert isinstance(value, Fraction) == expected.is_rational()


@pytest.mark.parametrize("order", range(1, 37))
def test_root_of_unity_sum_rational_values_are_fractions(order):
    every_root = root_of_unity_sum(order, {k: 3 for k in range(order)}, 2)
    assert every_root == (Fraction(3, 2) if order == 1 else 0)
    assert type(every_root) is Fraction
    if order % 2 == 0:
        value = root_of_unity_sum(order, {0: 3, order // 2: 1}, 3)
        assert value == Fraction(2, 3) and type(value) is Fraction
    if order > 2:
        assert isinstance(root_of_unity_sum(order, {1: 1}, 1), Cyclotomic)


@settings(max_examples=100, deadline=None)
@given(
    order=st.sampled_from([1, 2]),
    weights=st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6),
    denominator=st.integers(1, 9),
)
def test_root_of_unity_sum_over_q_is_the_sum_over_power_residue_rows(order, weights, denominator):
    """zeta = +-1 at orders 1 and 2: the signed sum equals the weights times
    the one-entry rows of `power_residues`, and it is a Fraction."""
    rows = power_residues(order)
    value = root_of_unity_sum(order, weights, denominator)
    assert value == Fraction(sum(w * rows[k % order][0] for k, w in weights.items()), denominator)
    assert type(value) is Fraction


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
# the a-hat series and its log


def test_a_hat_series_frozen_values():
    assert a_hat_series(4) == (1, 0, Fraction(-1, 24), 0, Fraction(7, 5760))
    assert a_hat_log_series(4) == (0, 0, Fraction(-1, 24), 0, Fraction(1, 2880))


def test_genus_series_order_zero_is_one():
    assert a_hat_series(0) == (1,)
    assert a_hat_log_series(0) == (0,)
    for series in (a_hat_series, a_hat_log_series):
        with pytest.raises(ValueError):
            series(-1)


def test_a_hat_series_is_even():
    for series in (a_hat_series(20), a_hat_log_series(20)):
        assert len(series) == 21
        assert all(series[k] == 0 for k in range(1, 21, 2))


def test_series_truncation_is_respected():
    # the series of order n is the order-20 series cut after x^n
    full, full_log = a_hat_series(20), a_hat_log_series(20)
    for order in range(21):
        assert a_hat_series(order) == full[: order + 1]
        assert a_hat_log_series(order) == full_log[: order + 1]


def test_series_inverse_is_exact():
    # (x/2)/sinh(x/2) times sinh(x/2)/(x/2) = sum_k x^2k / (4^k (2k+1)!) is 1
    order = 20
    sinh_form = [
        Fraction(1, 4 ** (n // 2) * math.factorial(n + 1)) if n % 2 == 0 else Fraction(0)
        for n in range(order + 1)
    ]
    assert series_mul(list(a_hat_series(order)), sinh_form, order) == [1] + [0] * order


def test_genus_series_against_division_oracle():
    for order in range(21):
        assert list(a_hat_series(order)) == a_hat_series_oracle(order)


def test_a_hat_series_log_closed_form():
    # l = log f exactly when l(0) = 0 and f' = f l', through x^20
    order = 20
    f, log_f = a_hat_series(order), a_hat_log_series(order)
    assert log_f[0] == 0
    f_prime = [k * f[k] for k in range(1, order + 1)]
    log_prime = [k * log_f[k] for k in range(1, order + 1)]
    assert series_mul(list(f), log_prime, order - 1) == f_prime


def test_rational_to_string():
    assert rational_to_string(Fraction(-1, 8)) == "-1/8"
    assert rational_to_string(Fraction(4, 2)) == "2"


# ---------------------------------------------------------------------------
# sympy as a differential oracle (optional)


def test_genus_series_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    order = 16
    a_hat_form = (x / 2) / sympy.sinh(x / 2)
    for expression, series in (
        (a_hat_form, a_hat_series(order)),
        (sympy.log(a_hat_form), a_hat_log_series(order)),
    ):
        expansion = sympy.series(expression, x, 0, order + 1).removeO()
        expected = [Fraction(str(expansion.coeff(x, k))) for k in range(order + 1)]
        assert list(series) == expected


def test_bernoulli_against_sympy():
    sympy = pytest.importorskip("sympy")
    # sympy takes B_1 = +1/2; here B_1 = -1/2, and B_n^- = (-1)^n B_n^+
    for n in range(31):
        assert bernoulli(n) == (-1) ** n * Fraction(str(sympy.bernoulli(n)))
