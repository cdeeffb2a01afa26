"""Characteristic classes from Chern-root or Pontryagin data.

Bundles are declared by formal degree-2 Chern roots, by Chern classes, or
(for real bundles) by Pontryagin classes.  Multiplicative genera are
evaluated either root by root or through the log of the one-root series
and Newton power sums, and the two routes agree exactly.

The root route works on the distinct roots with their multiplicities: a
genus is the product of f(root)^count, computed by repeated squaring, the
Chern character the sum of count * e^root, and the total Chern class the
product of (1 + root)^count.  The tangent roots of CP^n are n+1 copies of
one class, so the one-root series is evaluated once.

The a-hat series is even, so its power-sum route needs only the power sums
of the squared roots, and s_k(roots^2) = s_2k(roots): from Chern classes
they are the even-indexed Newton power sums, with no detour through the
Pontryagin classes; declared Pontryagin classes give them directly.

A bundle's a-hat class and its square are computed once and kept on the
(immutable) bundle, so every problem built from the same bundle shares
them.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from fracindex.cohomology import CohClass, ManifoldModel, scalar_class
from fracindex.scalars import PowerSeries, genus_series


class BundleError(ValueError):
    """Bundle data is missing or inconsistent."""


class BundleData:
    """A vector bundle presented through characteristic-class data.

    Exactly the data needed by the genus and character computations:
    `roots` (each homogeneous of degree 2, one per unit of rank), or
    `chern` classes c_1..c_r, or `pontryagin` classes p_1..p_k.  When both
    roots and Chern classes are declared they must agree.  A trivial rank-r
    bundle is presented by r zero roots.
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
        model: ManifoldModel | None = None,
    ) -> None:
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "roots", tuple(roots) if roots is not None else None)
        object.__setattr__(self, "chern", tuple(chern) if chern is not None else None)
        object.__setattr__(
            self, "pontryagin", tuple(pontryagin) if pontryagin is not None else None
        )
        if model is None:
            for group in (self.roots, self.chern, self.pontryagin):
                if group:
                    model = group[0].model
                    break
        if model is None:
            raise BundleError(
                f"bundle {name!r}: cannot infer the manifold model; pass model= explicitly"
            )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "_a_hat", None)
        object.__setattr__(self, "_a_hat_squared", None)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("BundleData is immutable")

    def _validate(self) -> None:
        if self.rank < 0:
            raise BundleError(f"bundle {self.name!r} has negative rank")
        for group in (self.roots, self.chern, self.pontryagin):
            if group:
                for cls in group:
                    if cls.model is not self.model:
                        raise BundleError(
                            f"bundle {self.name!r} mixes classes from different models"
                        )
        if self.roots is not None:
            if len(self.roots) != self.rank:
                raise BundleError(
                    f"bundle {self.name!r}: {len(self.roots)} roots for rank {self.rank}"
                )
            for root in self.roots:
                if not root.is_homogeneous(2):
                    raise BundleError(f"bundle {self.name!r}: roots must be homogeneous of degree 2")
        if self.chern is not None:
            for i, cls in enumerate(self.chern, start=1):
                if not cls.is_homogeneous(2 * i):
                    raise BundleError(
                        f"bundle {self.name!r}: c_{i} must be homogeneous of degree {2 * i}"
                    )
        if self.pontryagin is not None:
            for i, cls in enumerate(self.pontryagin, start=1):
                if not cls.is_homogeneous(4 * i):
                    raise BundleError(
                        f"bundle {self.name!r}: p_{i} must be homogeneous of degree {4 * i}"
                    )
        if self.roots is not None and self.chern is not None:
            elementary = _elementary_symmetric(self.model, self.roots, len(self.chern))
            for i, declared in enumerate(self.chern):
                if elementary[i] != declared:
                    raise BundleError(
                        f"bundle {self.name!r}: declared c_{i + 1} disagrees with the roots"
                    )

    def chern_classes(self, count: int) -> list[CohClass]:
        """c_1..c_count, from declared Chern classes or from the roots."""
        if self.chern is not None:
            model = self.model
            out = list(self.chern[:count])
            while len(out) < count:
                out.append(model.zero())
            return out
        if self.roots is not None:
            return _elementary_symmetric(self.model, self.roots, count)
        raise BundleError(f"bundle {self.name!r} has no Chern data")

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


def evaluate_series(series: PowerSeries, cls: CohClass) -> CohClass:
    """Plug a class with zero constant term into a truncated one-variable
    series; the sum is finite by nilpotency."""
    if cls.constant_term() != 0:
        raise ValueError("series evaluation requires a class with zero constant term")
    out = scalar_class(cls.model, series[0])
    power = cls.model.one()
    for k in range(1, series.order + 1):
        power = power * cls
        if power.is_zero():
            break
        if series[k] != 0:
            out = out + power * series[k]
    return out


def newton_power_sums(chern: Sequence[CohClass], max_k: int) -> list[CohClass]:
    """Power sums s_1..s_max_k of the Chern roots from the Chern classes,
    via Newton's identities s_k = c_1 s_(k-1) - c_2 s_(k-2) + ... -+ k c_k."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    if not chern:
        raise ValueError("need at least one Chern class (possibly zero) to fix the model")
    model = chern[0].model

    def c(i: int) -> CohClass:
        return chern[i - 1] if 1 <= i <= len(chern) else model.zero()

    sums: list[CohClass] = []
    for k in range(1, max_k + 1):
        acc = model.zero()
        for i in range(1, k):
            acc = acc + c(i) * sums[k - i - 1] * ((-1) ** (i - 1))
        acc = acc + c(k) * ((-1) ** (k - 1) * k)
        sums.append(acc)
    return sums


def pontryagin_from_chern(chern: Sequence[CohClass], max_k: int) -> list[CohClass]:
    """Pontryagin classes of the underlying real bundle of a complex bundle:
    p_k = e_k(roots^2), computed from s_(2k)(roots) by the inverse Newton
    identities.  For example p_1 = c_1^2 - 2 c_2."""
    if not chern:
        raise ValueError("need at least one Chern class (possibly zero) to fix the model")
    model = chern[0].model
    square_sums = newton_power_sums(chern, 2 * max_k)[1::2]  # s_2, s_4, ...
    out: list[CohClass] = []
    for k in range(1, max_k + 1):
        acc = model.zero()
        for i in range(1, k + 1):
            prev = out[k - i - 1] if i < k else model.one()
            acc = acc + prev * square_sums[i - 1] * ((-1) ** (i - 1))
        out.append(acc * Fraction(1, k))
    return out


def _genus_from_roots(kind: str, bundle: BundleData) -> CohClass:
    model = bundle.model
    series = genus_series(kind, model.dimension // 2)
    out = model.one()
    for root, multiplicity in Counter(bundle.roots).items():
        out = out * evaluate_series(series, root) ** multiplicity
    return out


def _genus_from_power_sums(series: PowerSeries, power_sums: Sequence[CohClass], model) -> CohClass:
    """exp(sum_k log(series)_k s_k): the multiplicative-sequence expansion
    driven by the log of the one-root series."""
    log_series = series.log()
    acc = model.zero()
    for k, cls in enumerate(power_sums, start=1):
        if log_series[k] != 0 and not cls.is_zero():
            acc = acc + cls * log_series[k]
    return acc.exponential()


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
    model = bundle.model
    if bundle.roots is not None:
        return _genus_from_roots("a_hat", bundle)
    max_p = model.dimension // 4
    # power sums s_k(roots^2), k = 1..max_p
    if bundle.pontryagin is not None:
        if not bundle.pontryagin or max_p == 0:
            return model.one()
        square_sums = newton_power_sums(bundle.pontryagin, max_p)
    elif bundle.chern is not None:
        if max_p == 0:
            return model.one()
        square_sums = newton_power_sums(bundle.chern, 2 * max_p)[1::2]
    else:
        raise BundleError(
            f"bundle {bundle.name!r} needs roots, Chern or Pontryagin data for the a-hat genus"
        )
    log_series = genus_series("a_hat", model.dimension // 2).log()
    # even series: only the even log coefficients appear
    acc = model.zero()
    for k, cls in enumerate(square_sums, start=1):
        if log_series[2 * k] != 0:
            acc = acc + cls * log_series[2 * k]
    return acc.exponential()


def todd_class(bundle: BundleData) -> CohClass:
    """The Todd class: product of x/(1-e^(-x)) over the Chern roots, or the
    equivalent power-sum expansion when only Chern classes are given."""
    model = bundle.model
    if bundle.roots is not None:
        return _genus_from_roots("todd", bundle)
    if bundle.chern is not None:
        order = model.dimension // 2
        if order == 0:
            return model.one()
        series = genus_series("todd", order)
        sums = newton_power_sums(bundle.chern, order)
        return _genus_from_power_sums(series, sums, model)
    raise BundleError(f"bundle {bundle.name!r} needs roots or Chern data for the Todd class")


def chern_character(bundle: BundleData) -> CohClass:
    """rank + sum over roots of (e^root - 1), equivalently
    rank + sum_k s_k/k! from the Chern classes."""
    model = bundle.model
    if bundle.roots is not None:
        out = scalar_class(model, Fraction(0))
        for root, multiplicity in Counter(bundle.roots).items():
            out = out + root.exponential() * multiplicity
        return out
    if bundle.chern is not None:
        order = model.dimension // 2
        sums = newton_power_sums(bundle.chern, order) if order else []
        out = scalar_class(model, Fraction(bundle.rank))
        for k, cls in enumerate(sums, start=1):
            out = out + cls * Fraction(1, math.factorial(k))
        return out
    raise BundleError(f"bundle {bundle.name!r} needs roots or Chern data for the Chern character")


def direct_sum(name: str, *bundles: BundleData) -> BundleData:
    """Whitney sum of root-presented bundles on a common model."""
    roots: list[CohClass] = []
    for bundle in bundles:
        if bundle.roots is None:
            raise BundleError("direct_sum needs root-presented bundles")
        roots.extend(bundle.roots)
    return BundleData(name, sum(b.rank for b in bundles), roots=roots)


def tensor_line(name: str, a: BundleData, b: BundleData) -> BundleData:
    """Tensor product of two line bundles: the roots add."""
    if a.rank != 1 or b.rank != 1 or a.roots is None or b.roots is None:
        raise BundleError("tensor_line expects root-presented line bundles")
    return BundleData(name, 1, roots=[a.roots[0] + b.roots[0]])


# ---------------------------------------------------------------------------
# stock tangent data


def projective_tangent_bundle(model: ManifoldModel, name: str = "x") -> BundleData:
    """Tangent data of complex projective space under the Euler-sequence
    convention: n+1 formal roots all equal to the hyperplane generator.
    The extra trivial root is harmless for genera and never integrated."""
    n = model.dimension // 2
    if n == 0:
        return BundleData("T(point)", 0, roots=[], model=model)
    root = model.generator_class(name)
    return BundleData(f"T({name})", n + 1, roots=[root] * (n + 1))
