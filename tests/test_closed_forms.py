"""Riemann-Roch closed forms, with expected values from Fraction and
math.comb arithmetic alone.

On CP^n the a-hat class times e^(t x) is the Todd class times
e^((t - (n+1)/2) x), so its integral is the Euler characteristic of
O(t - (n+1)/2): the binomial polynomial C(t + (n-1)/2, n).  The moment of
the projective Dirac distribution at L^k, L with image x, is therefore
k! [t^k] C(t + (n-1)/2, n) at the identity, and its negative at the
nontrivial element of the center; with image a*x it scales by a^k.  The
expected values use no root of unity, so at the center Z/2 they check
the sign the engine reads from `power_residues`.  On CP^a x CP^b the
a-hat class is the product of the factors' classes, so with L1 -> x and
L2 -> y the moment at L1^i L2^j is i! j! [s^i] C(s + (a-1)/2, a) times
[t^j] C(t + (b-1)/2, b).  On (CP^1)^k the a-hat class is 1 and the only
nonzero integral of a power of L = sum c_i x_i is the top one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from fracindex.scenarios import parse_scenario, run


_IMAGE_SCALES = [Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-1, 3)]
_COEFFICIENTS = [Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(5), Fraction(-1, 3), Fraction(7)]


def _binomial_polynomial(shift: Fraction, n: int) -> list[Fraction]:
    """The coefficients in t of C(t + shift, n), lowest degree first."""
    coeffs = [Fraction(1)]
    for j in range(n):
        root = shift - j  # multiply by (t + shift - j)
        coeffs = [root * a + b for a, b in zip([*coeffs, 0], [0, *coeffs])]
    return [c / math.perm(n) for c in coeffs]


def _cpn_document(n: int, generators: list[dict]) -> str:
    chern = [f"{math.comb(n + 1, i)}*x^{i}" for i in range(1, n + 1)]
    return json.dumps({
        "name": f"cp{n}",
        "manifold": {
            "dimension": 2 * n,
            "generators": [["x", 2]],
            "relations": [[f"x^{n + 1}", "0"]],
            "fundamental": [f"x^{n}", "1"],
        },
        "bundles": [
            {"name": "TR", "rank": n + 1, "chern_roots": ["x"] * (n + 1), "tangent": True},
            {"name": "TC", "rank": n + 1, "chern": chern},
        ],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": generators,
        },
        "tasks": [
            {"op": "projective_dirac", "max_degree": n},
            {"op": "projective_dirac", "max_degree": n, "tangent": "TC"},
        ],
    })


@pytest.mark.parametrize("n", [*range(1, 9), 12, 16, 24])
def test_projective_dirac_moments_on_cpn_are_binomial_coefficients(n):
    polynomial = _binomial_polynomial(Fraction(n - 1, 2), n)
    for a in _IMAGE_SCALES:  # L with image a*x: the moment at L^k scales by a^k
        expected = {(k,): a**k * math.perm(k) * polynomial[k] for k in range(n + 1)}
        generators = [{"name": "L", "s_degree": 1, "image": f"({a})*x"}]
        # genus by roots, then by Chern classes
        for result in run(parse_scenario(_cpn_document(n, generators))):
            tables = result.payload.tables
            assert tables[(0,)].values == expected
            assert tables[(1,)].values == {key: -value for key, value in expected.items()}


@pytest.mark.parametrize(
    "n,c1,c2",
    [
        (4, Fraction(3, 2), Fraction(-2)),
        (8, Fraction(-1, 3), Fraction(5)),
        (16, Fraction(2), Fraction(-7, 4)),
    ],
)
def test_projective_dirac_moments_of_two_quadratic_generators_vanish_past_the_dimension(n, c1, c2):
    # P1^a P2^b has image c1^a c2^b x^(2(a+b)), the moment of L^(2(a+b)) scaled
    # by c1^a c2^b, which is exactly 0 once 2(a+b) > n: most keys have a zero image
    polynomial = _binomial_polynomial(Fraction(n - 1, 2), n)
    keys = [(a, total - a) for total in range(n + 1) for a in range(total, -1, -1)]
    expected = {
        (a, b): c1**a * c2**b * math.perm(2 * (a + b)) * polynomial[2 * (a + b)]
        if 2 * (a + b) <= n else Fraction(0)
        for a, b in keys
    }
    generators = [
        {"name": "P1", "s_degree": 2, "image": f"({c1})*x^2"},
        {"name": "P2", "s_degree": 2, "image": f"({c2})*x^2"},
    ]
    # genus by roots, then by Chern classes
    for result in run(parse_scenario(_cpn_document(n, generators))):
        tables = result.payload.tables
        assert list(tables[(0,)].values) == keys
        assert tables[(0,)].values == expected
        assert tables[(1,)].values == {key: -value for key, value in expected.items()}


def _product_document(a: int, b: int) -> str:
    """CP^a x CP^b with L1 -> x and L2 -> y, the tangent data by the roots
    x (a+1 times) and y (b+1 times), and by the Chern classes of
    (1+x)^(a+1) (1+y)^(b+1)."""
    def term(p: int, q: int) -> str:
        powers = [f"{name}^{e}" for name, e in (("x", p), ("y", q)) if e]
        return "*".join([str(math.comb(a + 1, p) * math.comb(b + 1, q)), *powers])

    chern = [
        " + ".join(term(p, i - p) for p in range(max(0, i - b), min(a, i) + 1))
        for i in range(1, a + b + 1)
    ]
    return json.dumps({
        "name": f"cp{a}xcp{b}",
        "manifold": {
            "dimension": 2 * (a + b),
            "generators": [["x", 2], ["y", 2]],
            "relations": [[f"x^{a + 1}", "0"], [f"y^{b + 1}", "0"]],
            "fundamental": [f"x^{a}*y^{b}", "1"],
        },
        "bundles": [
            {"name": "TR", "rank": a + b + 2, "chern_roots": ["x"] * (a + 1) + ["y"] * (b + 1),
             "tangent": True},
            {"name": "TC", "rank": a + b + 2, "chern": chern},
        ],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": [
                {"name": "L1", "s_degree": 1, "image": "x"},
                {"name": "L2", "s_degree": 1, "image": "y"},
            ],
        },
        "tasks": [
            {"op": "projective_dirac", "max_degree": a + b},
            {"op": "projective_dirac", "max_degree": a + b, "tangent": "TC"},
        ],
    })


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 3), (3, 4)])
def test_projective_dirac_moments_on_a_product_of_two_projective_spaces(a, b):
    s_poly = _binomial_polynomial(Fraction(a - 1, 2), a)
    t_poly = _binomial_polynomial(Fraction(b - 1, 2), b)
    expected = {
        (i, j): math.perm(i) * math.perm(j) * s_poly[i] * t_poly[j] if i <= a and j <= b
        else Fraction(0)
        for total in range(a + b + 1) for i in range(total + 1) for j in [total - i]
    }
    # genus by roots, then by Chern classes
    for result in run(parse_scenario(_product_document(a, b))):
        tables = result.payload.tables
        assert tables[(0,)].values == expected
        assert tables[(1,)].values == {key: -value for key, value in expected.items()}


@pytest.mark.parametrize("k", range(1, 7))
def test_line_moments_on_a_product_of_cp1_are_the_top_monomial(k):
    names = [f"x{i}" for i in range(1, k + 1)]
    coefficients = _COEFFICIENTS[:k]
    document = json.dumps({
        "name": f"cp1^{k}",
        "manifold": {
            "dimension": 2 * k,
            "generators": [[name, 2] for name in names],
            "relations": [[f"{name}^2", "0"] for name in names],
            "fundamental": ["*".join(names), "1"],
        },
        "bundles": [
            {"name": "T", "rank": k, "chern_roots": [f"2*{name}" for name in names], "tangent": True}
        ],
        "group": {
            "cyclic_orders": [],
            "invariant_generators": [{
                "name": "L",
                "s_degree": 1,
                "image": " + ".join(f"({c})*{name}" for c, name in zip(coefficients, names)),
            }],
        },
        "symbol": [{"character": [], "class": "1"}],
        "tasks": [{"op": "moments", "gamma": [], "max_degree": k}],
    })
    (result,) = run(parse_scenario(document))
    expected = {(j,): Fraction(0) for j in range(k)}
    expected[(k,)] = math.perm(k) * math.prod(coefficients)
    assert result.payload.values == expected
