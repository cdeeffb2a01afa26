"""Seeded scenario documents for the three benchmark workloads, and the
checks each workload's output must pass besides its recorded digest.

A seed changes only rational coefficients.  Every numerator and
denominator is drawn from 1..9 (with a random sign), so no coefficient is
zero, no symbol component cancels, and every seed has the same document
shape and, up to the size of small integers, the same cost.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from typing import Callable, Sequence

from fracindex import characteristic, scenarios

WORKLOADS = ("dirac_cp16", "product_cp1x8", "center_z6z4")

CP16 = 16
CP1_FACTORS = 8
CP6 = 6
CENTER_ORDERS = (6, 4)
CENTER_MONOMIALS = ["1", "x", "x^3", f"x^{CP6}"]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))


def _expression(rng: random.Random, monomials: list[str]) -> str:
    """A seeded rational combination of the given monomials ("1" is the
    unit), in the scenario expression grammar."""
    out = ""
    for mono in monomials:
        coeff = _rational(rng)
        term = str(abs(coeff)) if mono == "1" else f"{abs(coeff)}*{mono}"
        if not out:
            out = term if coeff > 0 else "-" + term
        else:
            out += (" + " if coeff > 0 else " - ") + term
    return out


def _projective_manifold(n: int) -> dict:
    return {
        "dimension": 2 * n,
        "generators": [["x", 2]],
        "relations": [[f"x^{n + 1}", "0"]],
        "fundamental": [f"x^{n}", "1"],
    }


def dirac_cp16(rng: random.Random) -> dict:
    """CP^16 with Z/2 center and two degree-2 invariant generators; the
    same tangent bundle is declared by Chern roots and by Chern classes,
    and one projective_dirac task runs on each, so both genus routes run."""
    roots = ["x"] * (CP16 + 1)
    chern = [f"{math.comb(CP16 + 1, k)}*x^{k}" for k in range(1, CP16 + 1)]
    return {
        "name": "dirac_cp16",
        "manifold": _projective_manifold(CP16),
        "bundles": [
            {"name": "TM", "rank": CP16 + 1, "chern_roots": roots, "tangent": True},
            {"name": "TMc", "rank": CP16 + 1, "chern": chern},
        ],
        "group": {
            "cyclic_orders": [2],
            "invariant_generators": [
                {"name": "P1", "s_degree": 2, "image": _expression(rng, ["x^2"])},
                {"name": "P2", "s_degree": 2, "image": _expression(rng, ["x^2"])},
            ],
        },
        "tasks": [
            {"op": "projective_dirac", "tangent": "TM"},
            {"op": "projective_dirac", "tangent": "TMc"},
        ],
    }


def product_cp1x8(rng: random.Random) -> dict:
    """(CP^1)^8 with x_i^2 = 0 and a two-component symbol over Z/2; the
    model's validation dominates, the two fractional indices are cheap."""
    names = [f"x{i}" for i in range(1, CP1_FACTORS + 1)]
    top = "*".join(names)
    return {
        "name": "product_cp1x8",
        "manifold": {
            "dimension": 2 * CP1_FACTORS,
            "generators": [[n, 2] for n in names],
            "relations": [[f"{n}^2", "0"] for n in names],
            "fundamental": [top, "1"],
        },
        "group": {"cyclic_orders": [2]},
        "symbol": [
            {
                "character": [0],
                "class": _expression(rng, ["1", "x1*x2", top]),
            },
            {"character": [1], "class": _expression(rng, ["x3", top])},
        ],
        "tasks": [
            {"op": "fractional_index", "gamma": [0]},
            {"op": "fractional_index", "gamma": [1]},
        ],
    }


def center_z6z4(rng: random.Random) -> dict:
    """CP^6 over Z/6 x Z/4: one four-term symbol component per character,
    one invariant generator and one full_distribution, so brackets are
    genuine 12th roots of unity."""
    symbol = []
    for a in range(CENTER_ORDERS[0]):
        for b in range(CENTER_ORDERS[1]):
            symbol.append({"character": [a, b], "class": _expression(rng, CENTER_MONOMIALS)})
    return {
        "name": "center_z6z4",
        "manifold": _projective_manifold(CP6),
        "bundles": [{"name": "TM", "rank": CP6 + 1, "chern_roots": ["x"] * (CP6 + 1), "tangent": True}],
        "group": {
            "cyclic_orders": list(CENTER_ORDERS),
            "invariant_generators": [{"name": "L", "s_degree": 1, "image": _expression(rng, ["x"])}],
        },
        "symbol": symbol,
        "tasks": [{"op": "full_distribution"}],
    }


_GENERATORS = {"dirac_cp16": dirac_cp16, "product_cp1x8": product_cp1x8, "center_z6z4": center_z6z4}


def document(workload: str, seed: int) -> dict:
    """The scenario document of a workload at a seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def shape(doc: dict) -> dict:
    """What a seed must not change: generators, relations, bundles, group,
    invariant generators, symbol characters and the task list."""
    group = doc["group"]
    return {
        "generators": doc["manifold"]["generators"],
        "relations": doc["manifold"]["relations"],
        "bundles": [(b["name"], b["rank"]) for b in doc.get("bundles", [])],
        "group": group["cyclic_orders"],
        "invariant_generators": [
            (g["name"], g["s_degree"]) for g in group.get("invariant_generators", [])
        ],
        "components": [c["character"] for c in doc.get("symbol", [])],
        "tasks": doc["tasks"],
    }


# ---------------------------------------------------------------------------
# checks that do not rely on the recorded digest

Check = Callable[[Sequence[scenarios.TaskResult]], list]


def _check_dirac(doc: dict) -> Check:
    def check(results):
        problems = []
        roots, chern = (r.payload for r in results)
        identity, central = roots.tables[(0,)], roots.tables[(1,)]
        if central.values != {k: -v for k, v in identity.values.items()}:
            problems.append("dirac_cp16: gamma=1 table is not minus the gamma=0 table")
        if roots != chern:
            problems.append("dirac_cp16: Chern-root and Chern-class routes differ")
        return problems

    return check


def _top_coefficient(expression: str, top: str) -> Fraction:
    match = re.search(r"(-?)\s*(\d+(?:/\d+)?)\*" + re.escape(top) + "$", expression)
    return Fraction(match.group(2)) * (-1 if match.group(1) else 1)


def _check_product(doc: dict) -> Check:
    # The a-hat square is 1 without tangent data, so the index at gamma is
    # the top coefficient of u_0 plus (-1)^gamma times that of u_1.
    top = doc["manifold"]["fundamental"][0]
    u0, u1 = (_top_coefficient(c["class"], top) for c in doc["symbol"])
    expected = [u0 + u1, u0 - u1]

    def check(results):
        values = [r.payload for r in results]
        if values != expected:
            return [f"product_cp1x8: fractional indices {values}, expected {expected}"]
        return []

    return check


def _check_center(doc: dict) -> Check:
    # Character orthogonality: summed over the group, the tables keep only
    # the trivial character, |G| * int(a_hat^2 * u_0 * L^k), computed here
    # with class arithmetic alone, without the engine or any bracket.
    scenario = scenarios.parse_scenario(json.dumps(doc))
    genus = characteristic.a_hat(scenario.tangent_bundle())
    base = genus * genus * scenario.symbol.components[(0, 0)]
    image = scenario.generators[0].image
    order = math.prod(CENTER_ORDERS)
    expected = {(k,): order * (base * image**k).integrate() for k in range(CP6 + 1)}

    def check(results):
        (distribution,) = (r.payload for r in results)
        totals = {key: Fraction(0) for key in expected}
        for table in distribution.tables.values():
            if table.values.keys() != expected.keys():
                return ["center_z6z4: unexpected moment keys"]
            for key, value in table.values.items():
                totals[key] = totals[key] + value
        if totals != expected:
            return ["center_z6z4: tables summed over the group miss |G| times the u_0 table"]
        return []

    return check


_CHECKS = {"dirac_cp16": _check_dirac, "product_cp1x8": _check_product, "center_z6z4": _check_center}


def make_check(workload: str, doc: dict) -> Check:
    """An output check for the workload's document that is independent of
    the recorded digest; the returned function lists the problems found."""
    return _CHECKS[workload](doc)
