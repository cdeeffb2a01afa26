"""Hand-rolled reference arithmetic used as independent oracles.

Most of this works on plain coefficient lists (truncated series by long
division, their product and their log; cyclotomic values reduced modulo
Phi_N by long division, never read from `power_residues`) and stays
deliberately separate from the package's closed-form series, residue
table and CohClass code paths, so that agreement between the two is a
real cross-check.  The Todd class, the
Chern character and the Pontryagin classes of a complex bundle are built
from the package's class arithmetic instead: no scenario task computes
them, and the tests use them as known characteristic classes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from fracindex.characteristic import BundleData
from fracindex.cohomology import _MAX_POWER_BITS, ExpressionError, ManifoldModel, build_model
from fracindex.cohomology import monomial_name, parse_expression
from fracindex.engine import IndexDistribution, MomentTable
from fracindex.scalars import cyclotomic_polynomial, scalar_to_json


# -- models and tangent data through the public declarations -------------------


def projective_model(**factors: int) -> ManifoldModel:
    """The product of the projective spaces CP^n named by the keywords, as
    declaration text: a degree-2 generator per factor with its (n+1)-st
    power zero, and the product of the n-th powers as fundamental class.
    No keyword gives the point."""
    return build_model(
        2 * sum(factors.values()),
        [(name, 2) for name in factors],
        [(f"{name}^{n + 1}", "0") for name, n in factors.items()],
        ("*".join(f"{name}^{n}" for name, n in factors.items()) or "1", 1),
    )


def projective_tangent(model: ManifoldModel) -> BundleData:
    """Tangent data of such a product, Euler-sequence style: n+1 roots
    equal to the generator of each CP^n factor."""
    roots = [
        parse_expression(name, model)
        for name, n in zip(model.names, model._monomials[model._fundamental])
        for _ in range(n + 1)
    ]
    return BundleData("T", len(roots), roots=roots, model=model)


def _flag_monomial(exponents: Counter) -> str:
    return "*".join(f"x{j}" if e == 1 else f"x{j}^{e}" for j, e in sorted(exponents.items()))


def flag_manifold(n: int) -> dict:
    """The `manifold` block of the complete flag manifold Fl(n) = U(n)/T:
    generators x1..xn of degree 2 and, for k = 1..n, the relation
    h_k(x_k, ..., x_n) = 0 written as x_k^k -> x_k^k - h_k, h_k the complete
    homogeneous polynomial.  These are the lex Groebner basis of the ideal
    of symmetric polynomials, with pure-power leading terms, so the basis
    has n! monomials; rule k brings in only x_j with j > k, so the system
    terminates.  Fundamental monomial x2*x3^2*...*xn^(n-1), orientation 1
    (Fulton, Young Tableaux, ch. 10)."""
    relations = []
    for k in range(1, n + 1):
        lead = Counter({k: k})
        rest = [
            Counter(c)
            for c in itertools.combinations_with_replacement(range(k, n + 1), k)
            if Counter(c) != lead
        ]
        rhs = "-" + " - ".join(map(_flag_monomial, rest)) if rest else "0"
        relations.append([_flag_monomial(lead), rhs])
    return {
        "dimension": n * (n - 1),
        "generators": [[f"x{j}", 2] for j in range(1, n + 1)],
        "relations": relations,
        "fundamental": [_flag_monomial(Counter({j: j - 1 for j in range(2, n + 1)})), "1"],
    }


def flag_roots(n: int) -> list[str]:
    """The tangent Chern roots of Fl(n), x_j - x_i for i < j, as text."""
    return [f"x{j} - x{i}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]


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


def series_log(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """log of a truncated series with constant term 1, from l' = f'/f:
    k l_k = k f_k - sum_{0<j<k} j l_j f_(k-j)."""
    if coeffs[0] != 1:
        raise ValueError("log requires constant term 1")
    f = [Fraction(c) for c in coeffs[: order + 1]] + [Fraction(0)] * (order + 1 - len(coeffs))
    out = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        acc = k * f[k]
        for j in range(1, k):
            acc -= j * out[j] * f[k - j]
        out[k] = acc / k
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
# not from the package's closed forms.


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


def chern_classes(bundle, count: int) -> list:
    """c_1..c_count of a root-presented bundle, read off the total Chern
    class taken root by root."""
    total = genus_root_by_root("chern", bundle)
    return [total.degree_part(2 * k) for k in range(1, count + 1)]


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


def oracle_newton_power_sums(decl, chern: list, max_k: int) -> list:
    """s_1..s_max_k from Fraction-dict classes c_1, c_2, ... by Newton's
    identities s_k = sum_(i<k) (-1)^(i-1) c_i s_(k-i) + (-1)^(k-1) k c_k,
    with c_i zero past the list."""
    sums: list = []
    for k in range(1, max_k + 1):
        acc: dict = {}
        for i in range(1, k + 1):
            c = chern[i - 1] if i <= len(chern) else {}
            term = {m: k * v for m, v in c.items()} if i == k else oracle_mul(decl, c, sums[k - i - 1])
            acc = oracle_add(decl, acc, {m: (-1) ** (i - 1) * v for m, v in term.items()})
        sums.append(acc)
    return sums


def oracle_integrate(decl, a: dict) -> Fraction:
    fundamental, orientation = decl[3], decl[4]
    return a.get(tuple(fundamental), Fraction(0)) * orientation


def declaration(model: ManifoldModel) -> tuple:
    """A model's plain declaration, read from its declared fields and the
    fundamental monomial its constructor interns: neither its product
    table nor its normal forms."""
    degrees = [degree for _, degree in model.generators]
    fundamental = model._monomials[model._fundamental]
    return model.dimension, degrees, model.relations, fundamental, model.orientation


def oracle_product(model: ManifoldModel, a: dict, b: dict) -> dict:
    """The product of two Fraction-dict classes on raw exponent tuples of a
    model: every pair of raw monomials is multiplied, and the sum is
    reduced by the declared relations with a first-hit worklist, with no
    product table and no index."""
    return oracle_mul(declaration(model), a, b)


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


def root_sum_oracle(order: int, weights) -> list[Fraction]:
    """sum_k weights[k] * t^k for exponents k >= 0, reduced modulo Phi_order
    by long division: zeta_order^k is never read from a residue table."""
    poly = [Fraction(0)] * (max(weights, default=0) + 1)
    for k, w in weights.items():
        poly[k] += w
    return cyclotomic_residue(poly, list(cyclotomic_polynomial(order)))


def scalar_coefficients(value, order: int) -> list[Fraction]:
    """An emitted scalar as deg(Phi_order) coefficients: a Cyclotomic's
    numerators each over its denominator, a Fraction as the constant
    term."""
    if isinstance(value, Fraction):
        return [value] + [Fraction(0)] * (len(cyclotomic_polynomial(order)) - 2)
    assert value.order == order
    return [Fraction(n, value.denominator) for n in value.numerators]


# -- characteristic classes no task computes -----------------------------------


def pontryagin_from_chern(chern, max_k: int) -> list:
    """Pontryagin classes of the underlying real bundle of a complex bundle:
    p_k = e_k(roots^2), computed from s_(2k)(roots) by the inverse Newton
    identities.  For example p_1 = c_1^2 - 2 c_2."""
    from fracindex.characteristic import newton_power_sums

    if not chern:
        raise ValueError("need at least one Chern class (possibly zero) to fix the model")
    model = chern[0].model
    square_sums = newton_power_sums(chern, 2 * max_k)[1::2]  # s_2, s_4, ...
    out: list = []
    for k in range(1, max_k + 1):
        acc = model.zero()
        for i in range(1, k + 1):
            prev = out[k - i - 1] if i < k else model.one()
            acc = acc + prev * square_sums[i - 1] * ((-1) ** (i - 1))
        out.append(acc * Fraction(1, k))
    return out


def _genus_from_power_sums(coeffs, power_sums, model):
    """exp(sum_k log(series)_k s_k): the multiplicative-sequence expansion
    driven by the log of the one-root series."""
    log_series = series_log(coeffs, len(power_sums))
    acc = model.zero()
    for k, cls in enumerate(power_sums, start=1):
        if log_series[k] != 0 and not cls.is_zero():
            acc = acc + cls * log_series[k]
    return acc.exponential()


def todd_class(bundle):
    """The Todd class: product of x/(1-e^(-x)) over the Chern roots, or the
    equivalent power-sum expansion when only Chern classes are given."""
    from fracindex.characteristic import BundleError, newton_power_sums
    from fracindex.cohomology import evaluate_series

    model = bundle.model
    order = model.dimension // 2
    if bundle.roots is not None:
        series = todd_series_oracle(order)
        out = model.one()
        for root, multiplicity in Counter(bundle.roots).items():
            out = out * evaluate_series(series, root) ** multiplicity
        return out
    if bundle.chern is not None:
        if order == 0:
            return model.one()
        sums = newton_power_sums(bundle.chern, order)
        return _genus_from_power_sums(todd_series_oracle(order), sums, model)
    raise BundleError(f"bundle {bundle.name!r} needs roots or Chern data for the Todd class")


def chern_character(bundle):
    """rank + sum over roots of (e^root - 1), equivalently
    rank + sum_k s_k/k! from the Chern classes."""
    from fracindex.characteristic import BundleError, newton_power_sums

    model = bundle.model
    if bundle.roots is not None:
        out = model.zero()
        for root, multiplicity in Counter(bundle.roots).items():
            out = out + root.exponential() * multiplicity
        return out
    if bundle.chern is not None:
        order = model.dimension // 2
        sums = newton_power_sums(bundle.chern, order) if order else []
        out = model.one() * Fraction(bundle.rank)
        for k, cls in enumerate(sums, start=1):
            out = out + cls * Fraction(1, math.factorial(k))
        return out
    raise BundleError(f"bundle {bundle.name!r} needs roots or Chern data for the Chern character")


# -- brackets and fractional indices ---------------------------------------------


def bracket_exponent_by_reduction(group, character, element) -> int:
    """The duality pairing as an exponent mod the group exponent N, with
    both tuples reduced modulo the cyclic orders first."""
    chi = [k % order for k, order in zip(character, group.cyclic_orders)]
    g = [e % order for e, order in zip(element, group.cyclic_orders)]
    n = group.exponent
    return sum(k * e * (n // order) for k, e, order in zip(chi, g, group.cyclic_orders)) % n


def moment_oracle(problem, gamma, key=()) -> list[Fraction]:
    """The moment at gamma against the generator monomial `key`, as
    coefficients: sum over characters of zeta^k * int(a_hat^2 u_chi image),
    k from `bracket_exponent_by_reduction`, summed by `root_sum_oracle`, so
    no root of unity is read from `scalars`.  The empty key pairs the
    distribution with a unit bump: the fractional index."""
    image = problem.model.one()
    for gen, e in zip(problem.generators, key):
        image = image * gen.image**e
    group = problem.group
    weights: dict[int, Fraction] = {}
    for chi, u_chi in problem.symbol.components.items():
        k = bracket_exponent_by_reduction(group, chi, gamma)
        weights[k] = weights.get(k, 0) + (problem.a_hat_squared * u_chi * image).integrate()
    return root_sum_oracle(group.exponent, weights)


# -- the recursive-descent expression parser over Fraction dicts -----------------
# The parser as it was before integer numerators: a per-character tokenizer
# into token objects, Fraction-dict terms, products term by term and every
# power by repeated squaring.  Same grammar, degree bound and messages as
# `cohomology.parse_terms`, which must agree with it (zero coefficients
# aside) except on a digit that int() rejects, such as "²", which this
# tokenizer reads into a number, and on nesting past `_MAX_NESTING`.


class _OracleToken:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos


def _oracle_tokenize(text: str) -> list[_OracleToken]:
    tokens: list[_OracleToken] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_OracleToken("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_OracleToken("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_OracleToken(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    tokens.append(_OracleToken("end", "", len(text)))
    return tokens


class _OracleParser:
    def __init__(self, text: str, generators, max_degree: int, truncate: bool) -> None:
        self.text = text
        self.names = [name for name, _ in generators]
        self.degrees = [degree for _, degree in generators]
        self.max_degree = max_degree
        self.truncate = truncate
        self.tokens = _oracle_tokenize(text)
        self.pos = 0

    def _within_bound(self, mono) -> bool:
        degree = sum(e * d for e, d in zip(mono, self.degrees))
        if degree <= self.max_degree:
            return True
        if self.truncate:
            return False
        raise ExpressionError(
            f"term {monomial_name(self.names, mono)} of degree {degree} exceeds the degree "
            f"bound {self.max_degree} in {self.text!r}"
        )

    def peek(self) -> _OracleToken:
        return self.tokens[self.pos]

    def _int(self, token: _OracleToken) -> int:
        try:
            return int(token.text)
        except ValueError:
            raise ExpressionError(
                f"number of {len(token.text)} digits at position {token.pos} is too long"
            ) from None

    def take(self, kind: str | None = None) -> _OracleToken:
        token = self.tokens[self.pos]
        if kind is not None and token.kind != kind:
            raise ExpressionError(
                f"expected {kind} at position {token.pos} in {self.text!r}, got {token.text!r}"
            )
        self.pos += 1
        return token

    def parse(self) -> dict:
        result = self.expr()
        trailing = self.peek()
        if trailing.kind != "end":
            raise ExpressionError(
                f"unexpected {trailing.text!r} at position {trailing.pos} in {self.text!r}"
            )
        return result

    def expr(self) -> dict:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = {m: -c for m, c in acc.items()}
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.term()
            for mono, coeff in rhs.items():
                _oracle_add_into(acc, mono, coeff if op == "+" else -coeff)
        return acc

    def term(self) -> dict:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = self._multiply(acc, self.factor())
        return acc

    def _multiply(self, a, b) -> dict:
        out: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                mono = tuple(x + y for x, y in zip(m1, m2))
                if self._within_bound(mono):
                    value = out[mono] = c1 * c2 + out.get(mono, 0)
                    if not value:
                        del out[mono]
        return out

    def factor(self) -> dict:
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            exponent_token = self.take("number")
            exponent = self._int(exponent_token)
            if exponent < 1:
                raise ExpressionError(
                    f"exponent must be a positive integer at position {exponent_token.pos}"
                )
            constant = base.get((0,) * len(self.names), Fraction(0))
            bits = max(abs(constant.numerator), constant.denominator).bit_length()
            if bits > 1 and exponent * bits > _MAX_POWER_BITS:
                raise ExpressionError(
                    f"exponent {exponent} at position {exponent_token.pos} is too large "
                    f"for the constant term {constant}"
                )
            out = {(0,) * len(self.names): Fraction(1)}
            while exponent:
                if exponent & 1:
                    out = self._multiply(out, base)
                exponent >>= 1
                if exponent:
                    base = self._multiply(base, base)
            return out
        return base

    def atom(self) -> dict:
        token = self.peek()
        unit = (0,) * len(self.names)
        if token.kind == "number":
            self.take()
            value = Fraction(self._int(token))
            if self.peek().kind == "/":
                self.take()
                den_token = self.take("number")
                den = self._int(den_token)
                if den == 0:
                    raise ExpressionError(f"zero denominator at position {den_token.pos}")
                value /= den
            return {unit: value}
        if token.kind == "name":
            self.take()
            if token.text not in self.names:
                raise ExpressionError(f"unknown generator {token.text!r} at position {token.pos}")
            index = self.names.index(token.text)
            mono = tuple(1 if i == index else 0 for i in range(len(self.names)))
            return {mono: Fraction(1)} if self._within_bound(mono) else {}
        if token.kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ExpressionError(f"unexpected {token.text!r} at position {token.pos} in {self.text!r}")


def parse_terms_oracle(text: str, generators, max_degree: int, truncate: bool) -> dict:
    """Raw Fraction terms of an expression, by the recursive-descent parser;
    a bare 0 may leave a zero entry."""
    return _OracleParser(text, generators, max_degree, truncate).parse()


# -- machine output as JSON objects ----------------------------------------------


def payload_to_json(payload):
    """A task result as the "result" object of the machine format, built as
    nested dicts and lists for json.dumps: a table's gamma and its named
    moments, a distribution's tables, or a scalar's {"value"}."""
    if isinstance(payload, MomentTable):
        return {
            "gamma": list(payload.gamma),
            "moments": [
                [monomial_name(payload.generator_names, key), scalar_to_json(value)]
                for key, value in payload.values.items()
            ],
        }
    if isinstance(payload, IndexDistribution):
        return {"distribution": [payload_to_json(table) for table in payload.tables.values()]}
    return {"value": scalar_to_json(payload)}
