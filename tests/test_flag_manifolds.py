"""Complete flag manifolds Fl(n): models whose relations have nonzero,
multi-term right sides, checked by closed forms through whole documents.

The Euler characteristic is n!, the integral of the product of the tangent
roots; Fl(n) has a-hat genus 0, so the projective Dirac distribution has
mass 0 at both elements of its Z/2 center.  The Dirac documents declare
one invariant generator of s_degree 2 and one of s_degree 1, so some
moment keys vanish by degree on these models.  Their machine output is
pinned by digest.  Borel-Weil-Bott gives the pairing of the Todd class
with the line bundle of weight lambda as the Weyl dimension at -lambda.
The rewrite reaches monomials that many products share, and each is
normalised once, so an Fl(6) solve takes well under a second.  On Fl(4),
one term of each multi-term product-table entry is corrupted in turn, and
the number of corruptions the route compare catches is pinned.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from fracindex.engine import dirac_problem
from fracindex.scenarios import emit, parse_scenario, run

from oracles import caught_corruptions, flag_manifold, flag_roots, genus_root_by_root

FLAG_DIRAC_DIGESTS = {
    3: "7b64ad5df64794d7eac32571c3090d0c31903e765e0532f9d95ab1d51f0ff267",
    4: "001a471cf0f945da9cb17fb88a869918e6f0d65ae48a7ca6444d7eacb79268a3",
    5: "c5c59ba87f54670cbd5052bfffb56e98b12ecb324f9a3aaee3e80d8149ef81db",
    6: "11edf94c2556d36bc8a004bd71daacc25675e596a2cf5e8ddf6e4925b954d97f",
}


def _dirac_document(n: int) -> dict:
    return {
        "name": f"flag{n}_dirac",
        "manifold": flag_manifold(n),
        "bundles": [
            {"name": "TM", "rank": n * (n - 1) // 2, "chern_roots": flag_roots(n), "tangent": True}
        ],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": [
                {"name": "P", "s_degree": 2, "image": "x1^2"},
                {"name": "L", "s_degree": 1, "image": "x2 - 2*x3"},
            ],
        },
        "tasks": [{"op": "projective_dirac"}],
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_manifold_euler_characteristic_is_n_factorial(n):
    # no tangent data: the fractional index at the identity is the integral
    # of the symbol class, here the product of the tangent roots
    euler = "*".join(f"({root})" for root in flag_roots(n))
    document = {
        "name": f"flag{n}_euler",
        "manifold": flag_manifold(n),
        "group": {"cyclic_orders": []},
        "symbol": [{"character": [], "class": euler}],
        "tasks": [{"op": "fractional_index", "gamma": []}],
    }
    (result,) = run(parse_scenario(json.dumps(document)))
    assert result.payload == math.factorial(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_flag_manifold_projective_dirac_has_mass_zero(n):
    scenario = parse_scenario(json.dumps(_dirac_document(n)))
    model = scenario.model
    assert any(rhs for _, rhs in model.relations.values())
    results = run(scenario)
    (result,) = results
    tables = result.payload.tables
    assert list(tables) == [(0,), (1,)]
    assert [table.mass() for table in tables.values()] == [0, 0]
    # P^a L^b has weighted degree 4a + 2b: above the dimension it vanishes
    dead = [key for key in tables[(0,)].values if 4 * key[0] + 2 * key[1] > model.dimension]
    assert dead and all(table.values[key] == 0 for table in tables.values() for key in dead)
    text = emit(results, "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == FLAG_DIRAC_DIGESTS[n]


@pytest.mark.parametrize("n", [3, 4])
def test_flag_manifold_pairings_are_weyl_dimensions(n):
    # the index of the Dolbeault operator twisted by the line bundle of
    # weight lambda is, by Borel-Weil-Bott, the dimension of the irreducible
    # representation of highest weight mu = -lambda (Bott, Ann. of Math. 66,
    # 1957): prod_{i<j} (mu_i - mu_j + j - i) / (j - i), an integer; every
    # lambda in [-2, 2]^n, 625 pairings on Fl(4)
    rank = n * (n - 1) // 2
    document = {
        "name": f"flag{n}_borel_weil",
        "manifold": flag_manifold(n),
        "bundles": [{"name": "TM", "rank": rank, "chern_roots": flag_roots(n), "tangent": True}],
        "group": {
            "cyclic_orders": [],
            "weight_kind": "torus",
            "weight_system": [
                {"weight": [int(i == j) for j in range(n)], "line_class": f"x{i + 1}"}
                for i in range(n)
            ],
        },
    }
    tangent = parse_scenario(json.dumps(document)).bundles["TM"]
    todd = genus_root_by_root("todd", tangent).to_expression()
    labels = list(itertools.product(range(-2, 3), repeat=n))
    document["symbol"] = [{"character": [], "class": todd}]
    document["tasks"] = [{"op": "atiyah_pairing", "lambda": list(label)} for label in labels]
    scenario = parse_scenario(json.dumps(document))
    assert scenario.problem().a_hat_squared == scenario.model.one()  # Fl(n) has a-hat 1
    for result, label in zip(run(scenario), labels, strict=True):
        weyl = math.prod(
            Fraction(label[j] - label[i] + j - i, j - i) for i in range(n) for j in range(i + 1, n)
        )
        assert weyl.denominator == 1 and result.payload == weyl


def test_flag6_projective_dirac_normalises_each_monomial_once():
    # an Fl(6) solve asks for about 47,000 normal forms whose rewrites pass
    # through shared monomials; unless each of those is normalised once,
    # they take 12.8 million one-step rewrites, about 100 s
    start = time.perf_counter()
    scenario = parse_scenario(json.dumps(_dirac_document(6)))
    results = run(scenario)
    (result,) = results
    assert time.perf_counter() - start < 5
    assert [table.mass() for table in result.payload.tables.values()] == [0, 0]
    text = emit(results, "machine")
    assert hashlib.sha256(text.encode()).hexdigest() == FLAG_DIRAC_DIGESTS[6]


def test_an_acyclic_flag_manifold_document_parses_without_the_cycle_search():
    # each rule of Fl(7) brings in only later generators, so the generator
    # graph proves termination; a search over the C(28, 7) monomials up to
    # the dimension would take most of a minute
    start = time.perf_counter()
    scenario = parse_scenario(json.dumps(_dirac_document(7)))
    assert time.perf_counter() - start < 1
    assert scenario.model.dimension == 42 and len(scenario.bundles["TM"].roots) == 21


def _flag4_center_document() -> dict:
    """Fl(4) with the Dirac document's generators over Z/6 x Z/4, one
    six-term component per character, seeded, and one full_distribution.
    Fl(4) has a-hat 1, so the tangent data are a bundle E with roots x1..x4,
    x1 + x2 and x3 - x4 instead: its a-hat square has four terms, and the
    routes multiply it with different monomials."""
    rng = random.Random(4)
    terms = ["x1", "x2*x3", "x2*x3^2", "x1*x2*x3", "x2*x3^2*x4^3"]

    def coefficient():
        return f"{rng.choice((1, -1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"

    document = _dirac_document(4)
    document["name"] = "flag4_center"
    roots = ["x1", "x2", "x3", "x4", "x1 + x2", "x3 - x4"]
    document["bundles"] = [{"name": "E", "rank": 6, "chern_roots": roots, "tangent": True}]
    document["group"]["cyclic_orders"] = [6, 4]
    document["symbol"] = [
        {
            "character": [a, b],
            "class": " + ".join([coefficient(), *[f"{coefficient()}*{t}" for t in terms]])
            .replace("+ -", "- "),
        }
        for a in range(6)
        for b in range(4)
    ]
    document["tasks"] = [{"op": "full_distribution"}]
    return document


def _caught_multi_term_corruptions(problem):
    """Fill the product table for every ordered pair of basis monomials
    within the dimension, then double the first coefficient of each entry
    of several terms in turn (`caught_corruptions`): (basis monomials,
    entries, how many raise InternalConsistencyError)."""
    model = problem.model
    basis = []
    for mono in model.monomials_up_to(model.dimension):
        form = model.normal_form(mono)
        if form == (1, ((model._index.get(mono), 1),)):
            basis.append(model._index[mono])
    entries, monomials = [], model._monomials
    for i in basis:
        row = model._products.setdefault(i, {})
        for j in basis:
            if model._degrees[i] + model._degrees[j] <= model.dimension:
                if j not in row:
                    row[j] = model.normal_form(tuple(map(sum, zip(monomials[i], monomials[j]))))
                if row[j] and len(row[j][1]) > 1:
                    entries.append((row, j))

    def first_doubled(entry):
        d, ((m, n), *rest) = entry
        return d, ((m, 2 * n), *rest)

    return len(basis), len(entries), caught_corruptions(problem, entries, first_doubled)


def test_flag4_multi_term_corruptions_are_caught():
    # Fl(4): 24 basis monomials and 45 multi-term entries among their
    # products.  With a-hat 1, both routes read products of the top degree
    # only, each a multiple of the fundamental monomial, after the shared
    # generator images: the Dirac document catches none of the 45.  With
    # the four-term a-hat square of E, the direct route multiplies it by the
    # image monomials and the recombined route by the symbol's terms: 3 of
    # the 45 are caught there
    scenario = parse_scenario(json.dumps(_dirac_document(4)))
    problem = dirac_problem(scenario.model, scenario.bundles["TM"], scenario.generators)
    assert _caught_multi_term_corruptions(problem) == (24, 45, 0)
    problem = parse_scenario(json.dumps(_flag4_center_document())).problem()
    assert len(problem.symbol.components) == 24
    assert _caught_multi_term_corruptions(problem) == (24, 45, 3)
