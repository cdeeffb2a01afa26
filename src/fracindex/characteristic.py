"""Characteristic classes from Chern-root or Pontryagin data.

Bundles are declared by formal degree-2 Chern roots, by Chern classes, or
(for real bundles) by Pontryagin classes.  The a-hat genus is evaluated
either root by root, from the one-root series (x/2)/sinh(x/2), or as the
exponential of its log series paired with Newton power sums.  Both series
come from their own Bernoulli closed form in `scalars`, so the two routes
agree exactly only when both closed forms are right.

The root route works on the distinct roots with their multiplicities: a
genus is the product of f(root)^count and the total Chern class the
product of (1 + root)^count.  CP^n has n+1 equal tangent roots, so the
one-root series is evaluated once.  Series, powers and Newton power sums
run on integer numerators, one class per result (`cohomology`).

The a-hat series is even, so its power-sum route needs only the power sums
of the squared roots, and s_k(roots^2) = s_2k(roots): from Chern classes
they are the even-indexed Newton power sums, with no detour through the
Pontryagin classes; declared Pontryagin classes give them directly.

A bundle's a-hat class and its square are computed once and kept on the
(immutable) bundle, so every problem built from the same bundle shares
them.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from fracindex.cohomology import CohClass, ManifoldModel, class_sum, evaluate_series
from fracindex.cohomology import _class, _lowest, _sum, _times
from fracindex.scalars import Frozen, a_hat_log_series, a_hat_series


class BundleError(ValueError):
    """Bundle data is missing or inconsistent."""


class BundleData(Frozen):
    """A vector bundle presented through characteristic-class data.

    Exactly the data needed by the genus and character computations:
    `roots` (formal degree-2 classes, one per unit of rank), or `chern`
    classes c_1..c_r, or `pontryagin` classes p_1..p_k, every one on
    `model`.  A trivial rank-r bundle is presented by r zero roots.  The
    scenario parser holds the rank nonnegative, one root per unit of rank,
    roots of degree 2, c_i of degree 2i and p_i of degree 4i, and declared
    Chern classes equal to the elementary symmetric functions of declared
    roots, and passes each declared list as a tuple.  Its own constructor
    takes the classes and `model` by keyword and starts the a-hat caches.
    """

    __slots__ = (
        "name", "rank", "roots", "chern", "pontryagin", "model", "_a_hat", "_a_hat_squared"
    )

    def __init__(
        self,
        name: str,
        rank: int,
        roots: Sequence[CohClass] | None = None,
        chern: Sequence[CohClass] | None = None,
        pontryagin: Sequence[CohClass] | None = None,
        *,
        model: ManifoldModel,
    ) -> None:
        super().__init__(name, rank, roots, chern, pontryagin, model, None, None)

    def __repr__(self):
        return f"BundleData({self.name!r}, rank={self.rank})"


def _elementary_symmetric(
    model: ManifoldModel, roots: Sequence[CohClass], count: int
) -> list[CohClass]:
    # e_k via the product of (1 + root); degrees separate the e_k
    total = model.one()
    for root, multiplicity in Counter(roots).items():
        total = total * (root + 1) ** multiplicity
    return [total.degree_part(2 * k) for k in range(1, count + 1)]


def newton_power_sums(chern: Sequence[CohClass], max_k: int) -> list[CohClass]:
    """Power sums s_1..s_max_k of the Chern roots from the Chern classes,
    via Newton's identities s_k = c_1 s_(k-1) - c_2 s_(k-2) + ... -+ k c_k,
    on integer numerators, with a class only for each result.  At least one
    class is given, to fix the model: `_compute_a_hat` returns the unit
    class before it would pass none."""
    model = chern[0].model
    # signed[i] is (-1)^i c_(i+1); c_i is zero beyond the given classes
    signed = [
        ({m: -v if i % 2 else v for m, v in c.numerators.items()}, c.denominator)
        for i, c in enumerate(chern)
    ]
    sums: list[tuple[dict, int]] = []
    for k in range(1, max_k + 1):
        parts = [_times(model, *signed[i], *sums[k - i - 2]) for i in range(min(k - 1, len(signed)))]
        parts += [({m: v * k for m, v in num.items()}, den) for num, den in signed[k - 1 : k]]
        sums.append(_lowest(*_sum(parts)))
    return [_class(model, *s) for s in sums]


def _genus_from_roots(bundle: BundleData) -> CohClass:
    model = bundle.model
    series = a_hat_series(model.dimension // 2)
    out = model.one()
    for root, multiplicity in Counter(bundle.roots).items():
        out = out * evaluate_series(series, root) ** multiplicity
    return out


def a_hat(bundle: BundleData) -> CohClass:
    """The multiplicative genus with one-root series (x/2)/sinh(x/2).

    Uses the roots when available, otherwise the Pontryagin classes, or
    else the Chern classes; the routes agree because the series is even and
    s_k(roots^2) = s_2k(roots).  The class is computed on the first call
    and kept on the bundle.
    """
    if bundle._a_hat is None:
        object.__setattr__(bundle, "_a_hat", _compute_a_hat(bundle))
    return bundle._a_hat


def a_hat_squared(bundle: BundleData) -> CohClass:
    """The square of the a-hat class, the tangent factor of every index
    integrand; computed on the first call and kept on the bundle."""
    if bundle._a_hat_squared is None:
        genus = a_hat(bundle)
        object.__setattr__(bundle, "_a_hat_squared", genus * genus)
    return bundle._a_hat_squared


def _compute_a_hat(bundle: BundleData) -> CohClass:
    """The a-hat class by the root route, else by the power-sum route from
    Pontryagin or Chern classes.  A bundle with none of the three raises
    BundleError.  No document reaches that raise (the parser refuses such
    a bundle as tangent data), but it stays: `a_hat` takes any BundleData,
    which may be built without data and would otherwise fail on an unbound
    name, and the test oracles' Todd and Chern-character helpers raise the
    same class for the same missing data."""
    model = bundle.model
    if bundle.roots is not None:
        return _genus_from_roots(bundle)
    max_p = model.dimension // 4
    # power sums s_k(roots^2), k = 1..max_p
    if bundle.pontryagin is not None:
        if not bundle.pontryagin or max_p == 0:
            return model.one()
        square_sums = newton_power_sums(bundle.pontryagin, max_p)
    elif bundle.chern is not None:
        if not bundle.chern or max_p == 0:
            return model.one()
        square_sums = newton_power_sums(bundle.chern, 2 * max_p)[1::2]
    else:
        raise BundleError(
            f"bundle {bundle.name!r} needs roots, Chern or Pontryagin data for the a-hat genus"
        )
    log_series = a_hat_log_series(model.dimension // 2)
    # even series: only the even log coefficients appear
    terms = [cls * log_series[2 * k] for k, cls in enumerate(square_sums, start=1)]
    return class_sum(terms).exponential()

