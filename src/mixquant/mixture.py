"""Two-component Bernoulli mixtures S = I*X + (1-I)*Y with P(I = 1) = q.

The mixture CDF is the convex combination q*F + (1-q)*G.  For a pair of
exact piecewise components the mixture is itself piecewise, so direct
inversion of the CDF stays exact: it bisects the mixture's quantile pieces,
walked once from the components' own.  For parametric pairs the leftmost
crossing of the level p is bracketed and narrowed in floating point.
"""

from __future__ import annotations

import bisect
import math
import struct
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .distributions import (
    DomainError,
    Distribution,
    ExtendedReal,
    Piecewise,
    QuantilePiece,
    RealLike,
    _LEV_HI,
    _find_cut,
    _quotient,
    _ratio_sum,
    _sweep,
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
]


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
    def pieces(self) -> tuple[tuple[QuantilePiece, ...], array]:
        """The mixture CDF's quantile pieces and a float copy of their top levels.

        Each ``QuantilePiece`` is one affine stretch of the inverse of
        q*F + (1-q)*G, an atom when x_left == x_right, as a component's; the
        floats are the ``_find_cut`` cuts of the ``lev_hi`` column.  Walked on
        first use (``_walk_pieces``) and then reused.
        """
        if not self.is_exact:
            raise ValueError("the mixture's quantile pieces need two piecewise components")
        return _walk_pieces(self)

    def swapped(self) -> "MixtureSpec":
        """The same mixture with the component roles exchanged."""
        return MixtureSpec(1 - self.q, self.y, self.x)


def mixture_cdf(m: MixtureSpec, x: RealLike) -> ExtendedReal:
    """q*F(x) + (1-q)*G(x); exact when both components are piecewise."""
    return _mix_levels(m.q, m.x.cdf(x), m.y.cdf(x))


def mixture_cdf_left_limit(m: MixtureSpec, x: RealLike) -> ExtendedReal:
    return _mix_levels(m.q, m.x.cdf_left_limit(x), m.y.cdf_left_limit(x))


def _mix_levels(q: Fraction, f: ExtendedReal, g: ExtendedReal) -> ExtendedReal:
    """q*f + (1-q)*g: one reduced ``Fraction`` when f and g are exact, else
    in float arithmetic as written (a float f or g makes the sum a float)."""
    if isinstance(f, float) or isinstance(g, float):
        return q * f + (1 - q) * g
    qn, qd = q.numerator, q.denominator
    fn, fd, gn, gd = f.numerator, f.denominator, g.numerator, g.denominator
    return _ratio_sum(0, 1, qn * fn * gd + (qd - qn) * gn * fd, qd * fd * gd)[0]


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


def _walk_pieces(m: MixtureSpec) -> tuple[tuple, array]:
    """``MixtureSpec.pieces``, swept from the components' own pieces.

    The ``QuantilePiece``s of q*F + (1-q)*G in level order, and the floats
    of their ``lev_hi``.  Each component piece becomes ``_sweep`` events of
    its side: a segment piece sets the side's density, ``weight`` times the
    one its build stored (``_densities``), at its left end and clears it at
    its right end, and an atom piece adds the mass ``weight * (lev_hi -
    lev_lo)`` at its point, both as unreduced integer pairs.  A side of
    weight 0 has no events.
    """
    events = []
    for side, (weight, comp) in enumerate(((m.q, m.x), (1 - m.q, m.y))):
        wn, wd = weight.numerator, weight.denominator
        if not wn:
            continue
        # Built pieces that meet share one object (``_sweep`` hands its x on),
        # so a segment piece's clear event waits for the next piece: a
        # stretch starting at that object replaces it, and an atom there
        # lends it its float.
        end = None
        for (lev_lo, lev_hi, x_left, x_right), f_left, density in zip(
            comp._pieces, comp._x_lefts, comp._densities
        ):
            if end is not None and not (density is not None and end is x_left):
                en, ed = end.numerator, end.denominator
                f_end = f_left if end is x_left else _quotient(en, ed)
                events.append((f_end, end, en, ed, side, None))
            if density is not None:
                value = (wn * density[0], wd * density[1])
                events.append((f_left, x_left, x_left.numerator, x_left.denominator, side, value))
                end = x_right
            else:
                hd, ld = lev_hi.denominator, lev_lo.denominator
                mass = (wn * (lev_hi.numerator * ld - lev_lo.numerator * hd), wd * hd * ld)
                events.append((f_left, x_left, x_left.numerator, x_left.denominator, None, mass))
                end = None
        if end is not None:
            en, ed = end.numerator, end.denominator
            events.append((_quotient(en, ed), end, en, ed, side, None))
    pieces, _, _, cuts = _sweep(events)
    return tuple(pieces), cuts


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


def _finite_quantile(s_p: ExtendedReal, p: Fraction) -> ExtendedReal:
    """s_p, unless it is +inf: the quantile at a level below 1 is finite, so
    a float route that answers +inf could not place it in the float range."""
    if s_p == math.inf:
        raise DomainError(f"the quantile at level {p} lies past the float range")
    return s_p


def direct_quantile(m: MixtureSpec, p: RealLike) -> ExtendedReal:
    """inf {x : mixture_cdf(m, x) >= p} by direct inversion of the mixture CDF.

    Exact for piecewise pairs: the level is bisected in the memoised
    quantile pieces ``m.pieces``.  For every other pair the leftmost
    crossing is found by ``numeric_quantile``.  An answer of +inf, from it
    or from a lone component, is a ``DomainError`` naming the float range.
    """
    p = _checked_level(m, p)
    if m.lone is not None:
        return _finite_quantile(m.lone.quantile(p), p)
    if not m.is_exact:
        return _finite_quantile(numeric_quantile(m, p), p)
    pieces, cuts = m.pieces
    return pieces[_find_cut(pieces, cuts, _LEV_HI, p, bisect.bisect_left)].value_at(p)


def numeric_quantile(m: MixtureSpec, p: RealLike) -> float:
    """Smallest float x with F_S(x) >= p, in float arithmetic, by a bracketed search.

    Works for any component pair (the CDFs only need to be evaluable).  The
    crossing is bracketed by the component quantiles at p and narrowed by
    ``bisect_float``, which probes the lower one first, to adjacent floats,
    so the answer reaches p and the float below it does not.  A parametric
    quantile past the float range is the end +-inf; a piecewise one has no
    float to end the bracket and raises ``DomainError``, even where the
    crossing is a float, because the float CDFs cannot place it.  The exact
    route of ``direct_quantile`` over ``MixtureSpec.pieces`` is preferable
    whenever both components are piecewise.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"numeric inversion needs 0 < p < 1, got {p}")
    q = float(m.q)
    r = 1.0 - q
    x_cdf, y_cdf = m.x.cdf, m.y.cdf

    def gap(x: float) -> float:
        # For floats a >= b exactly when a - b >= 0 (gradual underflow), so
        # the gap's sign is the float predicate F_S(x) >= p.
        return q * float(x_cdf(x)) + r * float(y_cdf(x)) - p

    qx, qy = m.x.quantile(p), m.y.quantile(p)
    ends = [end for end in (qx, qy) if isinstance(end, Fraction)]
    if any(math.isinf(_quotient(*end.as_integer_ratio())) for end in ends):
        raise DomainError(f"a piecewise bracket end at level {p} has no float")
    # F_S >= q*p + (1-q)*p = p at the larger, and below the smaller both
    # CDFs fall short of p, so the crossing lies between them.
    return bisect_float(gap, float(min(qx, qy)), float(max(qx, qy)))[1]


#: ITP constants (Oliveira and Takahashi, "An enhancement of the bisection
#: method average performance preserving minmax optimality", ACM TOMS 47(1),
#: 2020), in float ranks: a probe is truncated toward the rank midpoint by
#: ``w*w // (_ITP_KAPPA * w0) + 1`` and projected into a radius that leaves
#: ``_ITP_N0`` probes of slack over plain halving.
_ITP_KAPPA = 20
_ITP_N0 = 1


def bisect_float(probe, lo: float, hi: float) -> tuple[float, float]:
    """Shrink ``[lo, hi]`` to adjacent floats around the flip of a monotone predicate.

    ``probe(x)`` returns the predicate, which must be true at ``hi``.  The
    first probe reads ``lo``, once: where it holds the result is ``(lo, lo)``.
    Otherwise the ends stay false and true, ``hi`` is never probed, and each
    later probe lies in the ranks of the floats between the ends, not in
    their values, so any bracket, even ``(-inf, inf)``, closes.  A probe may
    instead return a float gap whose ``gap >= 0`` is exactly the predicate;
    the gap only places the next probe.

    A predicate then halves the ranks: at most ``n_half = ceil(log2(w0))``
    probes, where ``w0`` is the ends' rank distance.  Gaps drive the ITP
    method: the regula falsi point in value space, mapped to a rank,
    truncated toward the rank midpoint and projected into the radius
    ``2**(n_half + _ITP_N0 - j - 1) - ceil(w/2)`` around it at probe ``j``
    and rank width ``w``, which keeps the worst case at ``n_half + _ITP_N0
    <= 65`` probes after ``lo``'s.  The probe halves until a probe has
    replaced ``hi``, whose gap is unknown, and wherever a gap is not finite.
    """
    lo_rank, hi_rank = _rank(lo), _rank(hi)
    w0 = hi_rank - lo_rank
    n_max = (w0 - 1).bit_length() + _ITP_N0
    # nan until a gap replaces the end, and for good with a boolean probe.
    lo_gap = hi_gap = math.nan
    j = -1  # the pass that probes lo
    while (w := hi_rank - lo_rank) > 1 or j < 0:
        mid_rank = (lo_rank + hi_rank) // 2
        rank = lo_rank if j < 0 else mid_rank
        if -math.inf < lo_gap < 0.0 <= hi_gap < math.inf:
            # The regula falsi point, in value space and mapped to a rank.
            x = lo + lo_gap / (lo_gap - hi_gap) * (hi - lo)
            if math.isfinite(x):
                rank = min(max(_rank(x), lo_rank), hi_rank)
                # Truncated toward the midpoint, then projected into the radius.
                sigma = 1 if rank <= mid_rank else -1
                delta = w * w // (_ITP_KAPPA * w0) + 1
                rank = rank + sigma * delta if delta <= abs(mid_rank - rank) else mid_rank
                radius = (1 << (n_max - j - 1)) - (w + 1) // 2
                if abs(rank - mid_rank) > radius:
                    rank = mid_rank - sigma * radius
        x = _float_of_rank(rank)
        answer = probe(x)
        j += 1
        gap, holds = (answer, answer >= 0.0) if isinstance(answer, float) else (math.nan, answer)
        if holds:
            hi, hi_rank, hi_gap = x, rank, gap
        else:
            lo, lo_rank, lo_gap = x, rank, gap
    return lo, hi


def _rank(x: float) -> int:
    """x's place in float order: its bits as a signed 64-bit integer, with
    the magnitude bits of negatives flipped so that they count down.

    -0.0 and 0.0 get the adjacent ranks -1 and 0 (IEEE 754 totalOrder).
    """
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits ^ 0x7FFF_FFFF_FFFF_FFFF if bits < 0 else bits


def _float_of_rank(rank: int) -> float:
    """The float whose ``_rank`` is ``rank``."""
    bits = rank ^ 0x7FFF_FFFF_FFFF_FFFF if rank < 0 else rank
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _draws(m: MixtureSpec, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sample``'s indicator mask and its X and Y draws, before they are
    scattered into draw order."""
    import numpy as np

    g_ind, g_x, g_y = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)]
    take_x = g_ind.random(n) < float(m.q)
    n_x = int(np.count_nonzero(take_x))
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
