"""Two-component Bernoulli mixtures S = I*X + (1-I)*Y with P(I = 1) = q.

The mixture CDF is the convex combination q*F + (1-q)*G.  For a pair of
exact piecewise components the mixture is itself piecewise, so direct
inversion of the CDF stays exact; for parametric pairs the leftmost
crossing of the level p is bracketed and bisected in floating point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .distributions import (
    DomainError,
    Distribution,
    ExtendedReal,
    Piecewise,
    RealLike,
    as_fraction,
)

__all__ = [
    "MixtureSpec",
    "mixture_cdf",
    "mixture_cdf_left_limit",
    "merged_distribution",
    "direct_quantile",
    "numeric_quantile",
    "bisect_float",
    "sample",
    "DIRECT_BISECTION_TOL",
]

#: Width of the bracketing interval at which parametric direct inversion stops.
DIRECT_BISECTION_TOL = 1e-12

_ZERO = Fraction(0)
_FIRST = itemgetter(0)


@dataclass(frozen=True)
class MixtureSpec:
    """Mixing weight q plus the two component distributions.

    For a piecewise pair the exact merged distribution is built once, on the
    first read of ``merged``, and reused by every later direct inversion and
    level choice on the same spec.  It is not a field, so ``==`` and
    ``hash`` still compare only ``q``, ``x`` and ``y``.
    """

    q: Fraction
    x: Distribution
    y: Distribution

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        if not 0 <= self.q <= 1:
            raise DomainError(f"mixing weight must lie in [0, 1], got {self.q}")

    @property
    def is_exact(self) -> bool:
        """True when both components are exact piecewise distributions."""
        return self.x.is_exact and self.y.is_exact

    @property
    def lone(self) -> Distribution | None:
        """The component that answers alone: X at q = 1, Y at q = 0, else None."""
        return self.x if self.q == 1 else self.y if self.q == 0 else None

    @cached_property
    def merged(self) -> Piecewise:
        """``merged_distribution(self)``, built on first use and then reused."""
        return merged_distribution(self)

    def swapped(self) -> "MixtureSpec":
        """The same mixture with the component roles exchanged."""
        return MixtureSpec(1 - self.q, self.y, self.x)


def mixture_cdf(m: MixtureSpec, x: RealLike) -> ExtendedReal:
    """q*F(x) + (1-q)*G(x); exact when both components are piecewise."""
    return m.q * m.x.cdf(x) + (1 - m.q) * m.y.cdf(x)


def mixture_cdf_left_limit(m: MixtureSpec, x: RealLike) -> ExtendedReal:
    return m.q * m.x.cdf_left_limit(x) + (1 - m.q) * m.y.cdf_left_limit(x)


def merged_distribution(m: MixtureSpec) -> Piecewise:
    """The mixture of two piecewise components as a single exact ``Piecewise``.

    Coincident atoms merge into one atom with the scaled masses summed, and
    overlapping segments are split on each other's endpoints so the result
    satisfies the disjoint-interior invariant.

    Each component's atoms and segment endpoints are already sorted, so the
    result comes from linear merges of those sorted runs, with no sort and
    no set: with n and m features this costs O(n+m).  Between consecutive
    endpoints at most one segment of each component is active, because a
    component's segments have disjoint interiors.  The result is rebuilt on
    every call; ``MixtureSpec.merged`` keeps one.
    """
    if not m.is_exact:
        raise ValueError("merged_distribution needs two piecewise components")
    if m.lone is not None:
        return Piecewise(m.lone.atoms, m.lone.segments)
    weighted = ((m.q, m.x), (1 - m.q, m.y))

    atoms: list[tuple[Fraction, Fraction]] = []
    runs = ([(loc, weight * mass) for loc, mass in comp.atoms] for weight, comp in weighted)
    for loc, mass in heapq.merge(*runs, key=_FIRST):
        if atoms and atoms[-1][0] == loc:
            atoms[-1] = (loc, atoms[-1][1] + mass)
        else:
            atoms.append((loc, mass))

    # Every segment end as (x, side, that side's density from x on), in x
    # order per side.  heapq.merge is stable, so where one segment ends and
    # the next begins, the next one's density is read last.  Only a step to
    # a new x closes a segment, so a cut that repeats adds none.
    steps = []
    for side, (weight, comp) in enumerate(weighted):
        run = []
        for left, right, rise in comp.segments:
            run += ((left, side, weight * rise / (right - left)), (right, side, _ZERO))
        steps.append(run)
    segments = []
    active = [_ZERO, _ZERO]
    lo, density = None, _ZERO
    for at, side, step in heapq.merge(*steps, key=_FIRST):
        if density and at != lo:
            segments.append((lo, at, density * (at - lo)))
        active[side] = step
        lo = at
        x_density, y_density = active
        density = x_density + y_density if x_density and y_density else x_density or y_density
    return Piecewise(atoms, segments)


def _checked_level(m: MixtureSpec, p: RealLike) -> Fraction:
    """p as a ``Fraction`` in (0, 1) that the components answering it resolve.

    A level that rounds to 0 or 1 as a float needs them piecewise: the lone
    one at q in {0, 1}, both otherwise.
    """
    p = as_fraction(p)
    if not 0 < p < 1:
        raise DomainError(f"level must lie strictly in (0, 1), got {p}")
    if float(p) in (0.0, 1.0) and not (m if m.lone is None else m.lone).is_exact:
        raise DomainError(
            f"level {p} rounds to {float(p)} at float resolution; "
            "only piecewise components resolve it"
        )
    return p


def direct_quantile(m: MixtureSpec, p: RealLike) -> ExtendedReal:
    """inf {x : mixture_cdf(m, x) >= p} by direct inversion of the mixture CDF.

    Exact for piecewise pairs (via the memoised ``m.merged``); for every
    other pair the leftmost crossing is found by ``numeric_quantile``.
    """
    p = _checked_level(m, p)
    if m.lone is not None:
        return m.lone.quantile(p)
    if m.is_exact:
        return m.merged.quantile(p)
    return numeric_quantile(m, p)


def numeric_quantile(m: MixtureSpec, p: RealLike) -> float:
    """Smallest x with F_S(x) >= p by monotone bracketing and bisection.

    Works for any component pair (the CDFs only need to be evaluable), at
    float precision ``DIRECT_BISECTION_TOL``; the exact merged route is
    preferable whenever both components are piecewise.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"numeric inversion needs 0 < p < 1, got {p}")
    q = float(m.q)

    def reached(x: float) -> bool:
        return q * float(m.x.cdf(x)) + (1.0 - q) * float(m.y.cdf(x)) >= p

    qx = float(m.x.quantile(p))
    qy = float(m.y.quantile(p))
    lo, hi = min(qx, qy), max(qx, qy)
    # F_S(hi) >= q*p + (1-q)*p = p, and below lo both CDFs fall short of p,
    # so the crossing lies in [lo, hi].
    if reached(lo):
        return lo
    return bisect_float(reached, lo, hi, DIRECT_BISECTION_TOL)[1]


def bisect_float(pred, lo: float, hi: float, width: float) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` around the flip of a monotone ``pred``.

    ``pred`` must be false at ``lo`` and true at ``hi``; both stay so.  Stops
    once the bracket is no wider than ``width`` or its midpoint rounds onto
    an end, whichever comes first.
    """
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _draws(m: MixtureSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sample``'s indicator mask and its X and Y draws, before they are
    scattered into draw order."""
    import numpy as np

    g_ind, g_x, g_y = np.random.default_rng(seed).spawn(3)
    take_x = g_ind.random(n) < float(m.q)
    n_x = int(take_x.sum())
    x_draws = m.x.sample(n_x, g_x) if n_x else np.empty(0)
    y_draws = m.y.sample(n - n_x, g_y) if n - n_x else np.empty(0)
    return take_x, x_draws, y_draws


def sample(m: MixtureSpec, n: int, seed: int) -> np.ndarray:
    """n draws of S: the indicator I ~ Bernoulli(q) picks X or Y per draw.

    The seed fixes three independent substreams (indicator, X, Y), so equal
    seeds reproduce the output exactly.
    """
    if n < 0:
        raise DomainError(f"sample count must be nonnegative, got {n}")
    import numpy as np

    take_x, x_draws, y_draws = _draws(m, n, seed)
    out = np.empty(n, dtype=float)
    out[take_x] = x_draws
    out[~take_x] = y_draws
    return out
