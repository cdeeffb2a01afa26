"""Complete flag manifolds Fl(n): models whose relations have nonzero,
multi-term right sides, checked by closed forms through whole documents.

The Euler characteristic is n!, the integral of the product of the tangent
roots; Fl(n) has a-hat genus 0, so the projective Dirac distribution has
mass 0 at both elements of its Z/2 center.  The Dirac documents declare
one invariant generator of s_degree 2 and one of s_degree 1, so some
moment keys vanish by degree on these models.  Their machine output is
pinned by digest.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from fracindex.scenarios import emit, parse_scenario, run

from oracles import flag_manifold, flag_roots

FLAG_DIRAC_DIGESTS = {
    3: "7b64ad5df64794d7eac32571c3090d0c31903e765e0532f9d95ab1d51f0ff267",
    4: "001a471cf0f945da9cb17fb88a869918e6f0d65ae48a7ca6444d7eacb79268a3",
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


@pytest.mark.parametrize("n", [3, 4])
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


@pytest.mark.parametrize("n", [3, 4])
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
