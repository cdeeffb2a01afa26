"""Exact scalar layer: cyclotomics, Bernoulli numbers, the a-hat series."""

from __future__ import annotations

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
    galois_conjugate,
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
    root_sum_oracle,
    scalar_coefficients,
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
    square = cyclotomic_product(list(zeta.numerators), list(zeta.numerators), [1, 0, 1])
    assert square == [-1, 0]
    assert Cyclotomic.root_of_unity(4, 2) == -1
    assert not Cyclotomic.root_of_unity(4, 2).is_zero()


def test_cyclotomic_has_no_product_of_two_elements_and_no_hash():
    zeta = Cyclotomic.root_of_unity(4)
    for operation in (lambda: zeta * zeta, lambda: zeta * Cyclotomic(4, [1]), lambda: hash(zeta)):
        with pytest.raises(TypeError):
            operation()


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 8, 12])
def test_root_of_unity_power_sum_vanishes(order):
    assert sum(Cyclotomic.root_of_unity(order, k) for k in range(order)) == 0
    assert root_sum_oracle(order, {k: 1 for k in range(order)}) == [0] * (
        len(cyclotomic_polynomial(order)) - 1
    )


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8])
def test_root_of_unity_has_exact_order(order):
    # zeta^k by repeated long-division products, against row k of the table
    modulus = list(cyclotomic_polynomial(order))
    zeta = list(Cyclotomic.root_of_unity(order).numerators)
    one = root_sum_oracle(order, {0: 1})
    power = one
    for k in range(1, order + 1):
        power = cyclotomic_product(power, zeta, modulus)
        assert power == list(Cyclotomic.root_of_unity(order, k).numerators)
        assert (power == one) == (k == order)


def test_mixed_order_arithmetic_raises():
    z4 = Cyclotomic.root_of_unity(4)
    z6 = Cyclotomic.root_of_unity(6)
    for combine in (lambda: z4 + z6, lambda: z4 - z6, lambda: z4 == z6):
        with pytest.raises(ValueError, match="orders differ"):
            combine()


def test_rational_round_trip():
    value = Cyclotomic(12, [-7], 3)
    assert value.is_rational()
    assert value == Fraction(-7, 3)
    assert demote(value) == Fraction(-7, 3) and type(demote(value)) is Fraction
    assert Fraction(1, 3) + value == -2 and value + 2 == Fraction(-1, 3)
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


def _coefficients(value) -> list[Fraction]:
    return [Fraction(n, value.denominator) for n in value.numerators]


def _small_cyclotomics(order):
    deg = len(cyclotomic_polynomial(order)) - 1
    return st.builds(
        Cyclotomic,
        st.just(order),
        st.lists(st.integers(-4, 4), max_size=deg),
        st.integers(1, 6),
    )


_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(
    data=st.sampled_from([3, 4, 6, 8]).flatmap(
        lambda order: st.tuples(*[_small_cyclotomics(order)] * 3)
    ),
    p=_rationals,
    q=_rationals,
)
def test_cyclotomic_field_axioms(data, p, q):
    # the additive group and scaling by rationals on Cyclotomic; the
    # product of two elements exists only in the long-division oracle
    a, b, c = data
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + (-a) == 0 and a - b == -(b - a)
    assert (a + b) * p == a * p + b * p
    assert a * (p + q) == a * p + a * q
    assert (a * p) * q == a * (p * q) and p * a == a * p
    modulus = list(cyclotomic_polynomial(a.order))
    x, y, z = (_coefficients(v) for v in data)
    assert cyclotomic_product(cyclotomic_product(x, y, modulus), z, modulus) == cyclotomic_product(
        x, cyclotomic_product(y, z, modulus), modulus
    )
    assert cyclotomic_product(x, y, modulus) == cyclotomic_product(y, x, modulus)


def _assert_cyclotomic_lowest_terms(value):
    assert value.denominator > 0
    assert len(value.numerators) == len(cyclotomic_polynomial(value.order)) - 1
    assert math.gcd(value.denominator, *value.numerators) == 1
    if value.is_zero():
        assert value.denominator == 1


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 36), data=st.data())
def test_integer_cyclotomic_arithmetic_matches_long_division(order, data):
    x, y = data.draw(_small_cyclotomics(order)), data.draw(_small_cyclotomics(order))
    q = data.draw(_rationals)
    a, b = _coefficients(x), _coefficients(y)
    cases = [
        (x + y, [p + r for p, r in zip(a, b)]),
        (x - y, [p - r for p, r in zip(a, b)]),
        (-x, [-p for p in a]),
        (x * Fraction(-4, 6), [p * Fraction(-2, 3) for p in a]),
        (q * x, [q * p for p in a]),
        (x + q, [a[0] + q] + a[1:]),
        (q + x - y, [q + a[0] - b[0]] + [p - r for p, r in zip(a[1:], b[1:])]),
        (x - x, [Fraction(0)] * len(a)),
    ]
    for value, expected in cases:
        assert _coefficients(value) == expected
        _assert_cyclotomic_lowest_terms(value)


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 24), data=st.data())
def test_package_results_are_values_the_constructor_accepts(order, data):
    # sums, differences, rational multiples, root-of-unity sums and Galois
    # conjugates skip the constructor's checks; each must still be int
    # numerators, deg(Phi_N) of them, over a denominator >= 1 in lowest
    # terms, field by field the element the validated constructor builds
    x, y = data.draw(_small_cyclotomics(order)), data.draw(_small_cyclotomics(order))
    q = data.draw(_rationals)
    weights = data.draw(st.dictionaries(st.integers(0, 2 * order), _entries, max_size=6))
    denominator = data.draw(st.integers(1, 12))
    unit = data.draw(st.sampled_from([a for a in range(1, order + 1) if math.gcd(a, order) == 1]))
    values = [
        x + y,
        x - y,
        -x,
        x * q,
        q * x,
        x + q,
        root_of_unity_sum(order, weights, denominator),
        galois_conjugate(x, unit),
    ]
    for value in values:
        if isinstance(value, Fraction):
            continue  # a rational sum is returned as a Fraction
        assert all(type(c) is int for c in value.numerators)
        assert type(value.denominator) is int
        _assert_cyclotomic_lowest_terms(value)
        validated = Cyclotomic(order, list(value.numerators), value.denominator)
        fields = (value.order, value.numerators, value.denominator)
        assert (validated.order, validated.numerators, validated.denominator) == fields


_entries = st.integers(-60, 60)


@settings(max_examples=80, deadline=None)
@given(order=st.integers(1, 36), data=st.data())
def test_cyclotomic_constructor_matches_long_division(order, data):
    # int numerators: exactly deg(Phi_N) of them and fewer, which are
    # padded; an explicit denominator; the value is the residue of their
    # polynomial, in lowest terms
    modulus = list(cyclotomic_polynomial(order))
    deg = len(modulus) - 1
    length = data.draw(st.sampled_from([0, deg]) | st.integers(0, deg))
    coeffs = data.draw(st.lists(_entries, min_size=length, max_size=length))
    denominator = data.draw(st.integers(1, 12))
    value = Cyclotomic(order, coeffs, denominator)
    assert _coefficients(value) == [c / denominator for c in cyclotomic_residue(coeffs, modulus)]
    _assert_cyclotomic_lowest_terms(value)
    for zero in ([], [0] * length):
        value = Cyclotomic(order, zero, denominator)
        assert value.is_zero() and value.denominator == 1
        assert value.numerators == (0,) * deg


@pytest.mark.parametrize("denominator", [0, -2, Fraction(1, 2), 2.0, True, "3"])
def test_cyclotomic_refuses_a_denominator_that_is_not_a_positive_int(denominator):
    # a negative one gave -1/2 - t/2 two unequal spellings, one shown as "1/-2"
    with pytest.raises(ValueError, match="denominator must be an int >= 1"):
        Cyclotomic(4, [1, 1], denominator)


@pytest.mark.parametrize("numerator", [0.5, Fraction(1, 2), Fraction(2), True, "1", None])
def test_cyclotomic_refuses_a_numerator_that_is_not_an_int(numerator):
    with pytest.raises(TypeError, match="numerators must be ints"):
        Cyclotomic(4, [1, numerator])


@pytest.mark.parametrize("order", [1, 2, 4, 6, 12])
def test_cyclotomic_refuses_more_numerators_than_the_degree(order):
    deg = len(cyclotomic_polynomial(order)) - 1
    Cyclotomic(order, [1] * deg)
    with pytest.raises(ValueError, match=f"at most {deg} numerators"):
        Cyclotomic(order, [1] * (deg + 1))


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
    # integer weights over a positive denominator are the engine's form;
    # exponents up to 2N reduce by long division, not by the table
    order, weights = data
    expected = [c / denominator for c in root_sum_oracle(order, weights)]
    value = root_of_unity_sum(order, weights, denominator)
    assert scalar_coefficients(value, order) == expected
    assert isinstance(value, Fraction) == (not any(expected[1:]))


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
