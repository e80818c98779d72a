"""Two-component Bernoulli mixtures S = I*X + (1-I)*Y with P(I = 1) = q.

The mixture CDF is the convex combination q*F + (1-q)*G.  For a pair of
exact piecewise components the mixture is itself piecewise, so direct
inversion of the CDF stays exact: it bisects the mixture's quantile pieces,
walked once from the components' own.  For parametric pairs the leftmost
crossing of the level p is bracketed and bisected in floating point.
"""

from __future__ import annotations

import bisect
import heapq
from array import array
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
    _find_cut,
    _float_key,
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
_LEV_HI = itemgetter(1)


@dataclass(frozen=True)
class MixtureSpec:
    """Mixing weight q plus the two component distributions.

    For a piecewise pair the quantile pieces of the mixture CDF are walked
    once, on the first read of ``pieces``, and reused by every later direct
    inversion and level choice on the same spec.  They are not a field, so
    ``==`` and ``hash`` still compare only ``q``, ``x`` and ``y``.
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
    def pieces(self) -> tuple[tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...], array]:
        """The mixture CDF's quantile pieces and a float copy of their top levels.

        Each piece ``(lev_lo, lev_hi, x_left, x_right)`` is one affine stretch
        of the inverse of q*F + (1-q)*G, an atom when x_left == x_right; the
        floats are the ``_find_cut`` cuts of the ``lev_hi`` column.  Walked on
        first use (``_walk_pieces``) and then reused.
        """
        if not self.is_exact:
            raise ValueError("the mixture's quantile pieces need two piecewise components")
        pieces = tuple(_walk_pieces(self))
        return pieces, array("d", [_float_key(lev_hi) for _, lev_hi, _, _ in pieces])

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

    Read from ``m.pieces``, which the query paths use directly: each constant
    piece is an atom, and consecutive stretches join into one segment unless
    the x they share ends a segment of either component.  Kept because
    ``perfbench``'s tracer names it.
    """
    if not m.is_exact:
        raise ValueError("merged_distribution needs two piecewise components")
    if m.lone is not None:
        return Piecewise(m.lone.atoms, m.lone.segments)
    ends = {end for comp in (m.x, m.y) for left, right, _ in comp.segments for end in (left, right)}
    atoms, segments = [], []
    for lev_lo, lev_hi, x_left, x_right in m.pieces[0]:
        if x_left == x_right:
            atoms.append((x_left, lev_hi - lev_lo))
        elif segments and segments[-1][1] == x_left and x_left not in ends:
            left, _, rise = segments[-1]
            segments[-1] = (left, x_right, rise + (lev_hi - lev_lo))
        else:
            segments.append((x_left, x_right, lev_hi - lev_lo))
    return Piecewise(atoms, segments)


def _walk_pieces(m: MixtureSpec):
    """The quantile pieces of q*F + (1-q)*G, from one walk over the components' own.

    Yields ``(lev_lo, lev_hi, x_left, x_right)`` in level order, the pieces
    of the inverse of the mixture CDF q*F + (1-q)*G.  Each component piece
    becomes events ``(x, side, value)``, merged by x: a segment piece
    sets its side's density ``weight / slope`` at its left end and clears it
    at its right end, and an atom piece (side None) adds the mass
    ``weight * (lev_hi - lev_lo)`` at its point.  Only a move to a new x
    closes the atom pending at the old one and then the stretch from it, so
    coincident atoms of both sides become one piece.  Within a side a piece
    ending at x precedes the one starting there, so the densities are those
    right of x once every event at x is read.  A side of weight 0 is left out.
    """
    runs = []
    for side, (weight, comp) in enumerate(((m.q, m.x), (1 - m.q, m.y))):
        if not weight:
            continue
        run = []
        for piece in comp.quantile_pieces():
            if piece.slope:
                run += ((piece.x_left, side, weight / piece.slope), (piece.x_right, side, _ZERO))
            else:
                run.append((piece.x_left, None, weight * (piece.lev_hi - piece.lev_lo)))
        runs.append(run)
    active = [_ZERO, _ZERO]
    cum = mass = density = _ZERO
    at = None
    for x, side, value in heapq.merge(*runs, key=_FIRST):
        if x != at:
            if mass:
                top = cum + mass
                yield cum, top, at, at
                cum, mass = top, _ZERO
            if density:
                top = cum + density * (x - at)
                yield cum, top, at, x
                cum = top
            at = x
        if side is None:
            mass = mass + value if mass else value
        else:
            active[side] = value
            x_density, y_density = active
            density = x_density + y_density if x_density and y_density else x_density or y_density
    if mass:
        yield cum, cum + mass, at, at


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

    Exact for piecewise pairs: the level is bisected in the memoised
    quantile pieces ``m.pieces``.  For every other pair the leftmost
    crossing is found by ``numeric_quantile``.
    """
    p = _checked_level(m, p)
    if m.lone is not None:
        return m.lone.quantile(p)
    if not m.is_exact:
        return numeric_quantile(m, p)
    pieces, cuts = m.pieces
    lev_lo, lev_hi, x_left, x_right = pieces[
        _find_cut(pieces, cuts, _LEV_HI, p, bisect.bisect_left)
    ]
    if x_left == x_right:
        return x_left
    return x_left + (p - lev_lo) * (x_right - x_left) / (lev_hi - lev_lo)


def numeric_quantile(m: MixtureSpec, p: RealLike) -> float:
    """Smallest x with F_S(x) >= p by monotone bracketing and bisection.

    Works for any component pair (the CDFs only need to be evaluable), at
    float precision ``DIRECT_BISECTION_TOL``; ``direct_quantile``'s exact
    route over ``MixtureSpec.pieces`` is preferable whenever both components
    are piecewise.
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
