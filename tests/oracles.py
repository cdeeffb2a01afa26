"""Hand-rolled reference arithmetic used as independent oracles.

Everything here works on plain coefficient lists and stays deliberately
separate from the package's PowerSeries / CohClass code paths, so that
agreement between the two is a real cross-check.
"""

from __future__ import annotations

import math
from fractions import Fraction


def series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        for j, bj in enumerate(b[: order + 1 - i]):
            out[i + j] += ai * bj
    return out


def series_div(num: list[Fraction], den: list[Fraction], order: int) -> list[Fraction]:
    """Long division of truncated series; den[0] must be nonzero."""
    num = list(num[: order + 1]) + [Fraction(0)] * (order + 1 - len(num))
    den = list(den[: order + 1]) + [Fraction(0)] * (order + 1 - len(den))
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = num[k]
        for j in range(1, k + 1):
            acc -= den[j] * out[k - j]
        out[k] = acc / den[0]
    return out


def series_compose(outer: list[Fraction], inner: list[Fraction], order: int) -> list[Fraction]:
    """outer(inner(x)) truncated; inner[0] must be zero."""
    assert not inner or inner[0] == 0
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for k, c in enumerate(outer[: order + 1]):
        for i, p in enumerate(power):
            out[i] += c * p
        power = series_mul(power, inner, order)
    return out


def a_hat_series_oracle(order: int) -> list[Fraction]:
    """(x/2)/sinh(x/2) by brute-force division of the sinh expansion."""
    den = [Fraction(0)] * (order + 1)
    for k in range(0, order // 2 + 1):
        den[2 * k] = Fraction(1, 4**k * math.factorial(2 * k + 1))
    return series_div([Fraction(1)], den, order)


def todd_series_oracle(order: int) -> list[Fraction]:
    """x/(1 - e^(-x)) by brute-force division of the exponential expansion."""
    den = [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)]
    return series_div([Fraction(1)], den, order)


def bernoulli_oracle(n: int) -> Fraction:
    """B_n extracted from the series x/(e^x - 1), convention B_1 = -1/2."""
    den = [Fraction(1, math.factorial(k + 1)) for k in range(n + 1)]
    series = series_div([Fraction(1)], den, n)
    return series[n] * math.factorial(n)


# -- truncated one-generator polynomial ring Q[x]/(x^(n+1)) ------------------
# enough to model CP^n integration independently of the package


def cpn_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    """Product in Q[x]/(x^(n+1)): coefficient lists of length n+1."""
    return series_mul(a, b, n)


def cpn_integral(a: list[Fraction], n: int) -> Fraction:
    """Coefficient of x^n, the fundamental class pairing for CP^n."""
    return a[n] if len(a) > n else Fraction(0)


def evaluate_series_at_x(series: list[Fraction], n: int) -> list[Fraction]:
    """Evaluate a one-variable series at the degree-2 generator of CP^n."""
    out = [Fraction(0)] * (n + 1)
    for k, c in enumerate(series[: n + 1]):
        out[k] += c
    return out


# -- exhaustive rewrite-system validation -------------------------------------
# The original model validator: normal-form every raw monomial of degree up
# to the dimension with a first-hit strategy and a step cap, then compare
# every way of starting the reduction.  It works on plain declarations
# (dimension, generator degrees, {index: (power, {monomial: coeff})}).


def _oracle_monomials(degrees: list[int], dimension: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for degree in degrees:
        out = [m + (e,) for m in out for e in range(dimension // degree + 1)]
    return [m for m in out if sum(e * d for e, d in zip(m, degrees)) <= dimension]


def _oracle_successors(mono, relations, index):
    power, rhs = relations[index]
    rest = list(mono)
    rest[index] -= power
    return {tuple(a + b for a, b in zip(rest, rmono)): coeff for rmono, coeff in rhs.items()}


def exhaustive_normal_forms(
    dimension: int, degrees: list[int], relations: dict, step_cap: int = 100_000
) -> dict:
    """Every monomial of degree <= dimension mapped to its normal form, or
    ModelError mentioning "terminate" (more than step_cap rewrites in one
    normal form) or "not confluent"."""
    from fracindex.cohomology import ModelError

    def degree(mono):
        return sum(e * d for e, d in zip(mono, degrees))

    def hits(mono):
        return [i for i, (power, _) in sorted(relations.items()) if mono[i] >= power]

    def normal_form(mono):
        pending = {mono: Fraction(1)}
        done: dict = {}
        steps = 0
        while pending:
            current, coeff = pending.popitem()
            if degree(current) > dimension:
                continue
            applicable = hits(current)
            if not applicable:
                done[current] = done.get(current, Fraction(0)) + coeff
                continue
            steps += 1
            if steps > step_cap:
                raise ModelError(f"rewrite system does not terminate on {mono}")
            for rmono, rcoeff in _oracle_successors(current, relations, applicable[0]).items():
                pending[rmono] = pending.get(rmono, Fraction(0)) + coeff * rcoeff
        return {m: c for m, c in done.items() if c != 0}

    monomials = _oracle_monomials(degrees, dimension)
    forms = {mono: normal_form(mono) for mono in monomials}
    for mono in monomials:
        results = []
        for i in hits(mono):
            acc: dict = {}
            for rmono, rcoeff in _oracle_successors(mono, relations, i).items():
                if degree(rmono) <= dimension:
                    for nmono, ncoeff in forms[rmono].items():
                        acc[nmono] = acc.get(nmono, Fraction(0)) + rcoeff * ncoeff
            results.append({m: c for m, c in acc.items() if c != 0})
        if any(r != results[0] for r in results[1:]):
            raise ModelError(f"relation set is not confluent at {mono}")
    return forms


def has_rewrite_cycle(dimension: int, degrees: list[int], relations: dict) -> bool:
    """Whether the one-step rewrite graph on all monomials of degree <=
    dimension (every applicable relation, every nonzero term) has a cycle:
    peel off monomials whose successors are all peeled until none is left
    or none can go."""
    graph = {}
    for mono in _oracle_monomials(degrees, dimension):
        graph[mono] = {
            rmono
            for i, (power, _) in relations.items()
            if mono[i] >= power
            for rmono, coeff in _oracle_successors(mono, relations, i).items()
            if coeff != 0
        }
    remaining = set(graph)
    while True:
        sinks = {m for m in remaining if not graph[m] & remaining}
        if not sinks:
            return bool(remaining)
        remaining -= sinks


# -- genera one root at a time -------------------------------------------------
# The original root loop: one series evaluation and one product per root,
# repeats included.  The one-root series come from the list oracles above,
# not from PowerSeries.


def _series_at(coeffs: list[Fraction], root):
    out = root.model.zero()
    power = root.model.one()
    for c in coeffs:
        out = out + power * c
        power = power * root
    return out


def genus_root_by_root(kind: str, bundle):
    """The class of a root-presented bundle, walking every root in turn:
    the product of the one-root series for "a_hat" and "todd", the total
    Chern class prod (1 + root) for "chern", and sum e^root for
    "chern_character"."""
    model = bundle.model
    order = model.dimension // 2
    if kind == "chern_character":
        exp = [Fraction(1, math.factorial(k)) for k in range(order + 1)]
        out = model.zero()
        for root in bundle.roots:
            out = out + _series_at(exp, root)
        return out
    if kind == "a_hat":
        coeffs = a_hat_series_oracle(order)
    elif kind == "todd":
        coeffs = todd_series_oracle(order)
    else:
        coeffs = [Fraction(1), Fraction(1)]
    out = model.one()
    for root in bundle.roots:
        out = out * _series_at(coeffs, root)
    return out


# -- Fraction-dict class arithmetic --------------------------------------------
# The class layer as it was before integer numerators: coefficients are
# Fractions in plain dicts keyed by exponent tuples, every product term is
# summed raw and then normal-formed monomial by monomial with a first-hit
# worklist.  A model is a plain declaration (dimension, generator degrees,
# {index: (power, {monomial: coeff})}, fundamental monomial, orientation).


def _oracle_degree(degrees, mono) -> int:
    return sum(e * d for e, d in zip(mono, degrees))


def _oracle_add_into(table: dict, key, delta) -> None:
    value = table.get(key, Fraction(0)) + delta
    if value == 0:
        table.pop(key, None)
    else:
        table[key] = value


def oracle_normal_form(decl, mono) -> dict:
    """The normal form of one raw monomial; the model must be valid."""
    dimension, degrees, relations = decl[:3]
    pending = {tuple(mono): Fraction(1)}
    done: dict = {}
    while pending:
        current, coeff = pending.popitem()
        if _oracle_degree(degrees, current) > dimension:
            continue
        hits = [i for i, (power, _) in sorted(relations.items()) if current[i] >= power]
        if not hits:
            _oracle_add_into(done, current, coeff)
            continue
        for rmono, rcoeff in _oracle_successors(current, relations, hits[0]).items():
            _oracle_add_into(pending, rmono, coeff * rcoeff)
    return done


def oracle_reduce(decl, terms: dict) -> dict:
    """A Fraction-dict class: the raw terms in normal form."""
    out: dict = {}
    for mono, coeff in terms.items():
        if coeff:
            for nmono, ncoeff in oracle_normal_form(decl, mono).items():
                _oracle_add_into(out, nmono, Fraction(coeff) * ncoeff)
    return out


def oracle_add(decl, a: dict, b: dict) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        _oracle_add_into(out, mono, coeff)
    return out


def oracle_mul(decl, a: dict, b: dict) -> dict:
    raw: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            raw[mono] = raw.get(mono, Fraction(0)) + c1 * c2
    return oracle_reduce(decl, raw)


def oracle_pow(decl, a: dict, n: int) -> dict:
    unit = tuple(0 for _ in decl[1])
    out = {unit: Fraction(1)}
    for _ in range(n):
        out = oracle_mul(decl, out, a)
    return out


def oracle_inverse(decl, a: dict) -> dict:
    """1/a by the geometric series in the nilpotent part; a needs a
    nonzero constant term."""
    unit = tuple(0 for _ in decl[1])
    c0 = a[unit]
    nil = {m: -c / c0 for m, c in a.items() if m != unit}
    out = {unit: Fraction(1)}
    power = {unit: Fraction(1)}
    while True:
        power = oracle_mul(decl, power, nil)
        if not power:
            return {m: c / c0 for m, c in out.items()}
        out = oracle_add(decl, out, power)


def oracle_integrate(decl, a: dict) -> Fraction:
    fundamental, orientation = decl[3], decl[4]
    return a.get(tuple(fundamental), Fraction(0)) * orientation


# -- cyclotomic residues by long division ----------------------------------------


def cyclotomic_residue(poly: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """poly modulo a monic modulus by Fraction long division, padded to
    deg(modulus) coefficients."""
    rem = [Fraction(c) for c in poly]
    deg = len(modulus) - 1
    for top in range(len(rem) - 1, deg - 1, -1):
        lead = rem[top]
        if lead:
            for j, m in enumerate(modulus):
                rem[top - deg + j] -= lead * m
    return (rem + [Fraction(0)] * deg)[:deg]


def cyclotomic_product(a: list[Fraction], b: list[Fraction], modulus: list[Fraction]) -> list:
    product = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return cyclotomic_residue(product, modulus)
