"""Mixture quantiles through an optimal split of the level p.

Writing the target level as p = q*alpha + (1-q)*beta, the mixture quantile
at p equals

    s_p = max{ Qx(alpha*), Qy(beta*) },

where alpha* is the infimum of the alpha in the feasible range whose split
satisfies the ordering Qx(alpha) >= Qy(beta(alpha)), and beta* is the
matching beta.  The ordering predicate is monotone in alpha (Qx rises while
Qy(beta(alpha)) falls), so for piecewise pairs the infimum is found exactly
by bisecting the level cuts of both generalized inverses down to one cell
where both are affine, and for parametric components by float bisection.

When the ordering holds nowhere on the feasible range the split clamps to
the upper end alpha_max; the reported solution is flagged and the max
formula still returns the correct quantile.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .distributions import (
    LEVEL_ROUNDING,
    DomainError,
    ExtendedReal,
    Piecewise,
    QuantilePiece,
    RealLike,
    as_fraction,
    close,
)
from .mixture import MixtureSpec, _checked_level, bisect_float, mixture_cdf

__all__ = [
    "QuantileSolution",
    "BISECTION_WIDTH",
    "feasible_alpha_range",
    "ordering_predicate",
    "split_quantile",
]

#: Bisection stops once the bracket on alpha is narrower than this.
BISECTION_WIDTH = 1e-14
#: Most float steps up that a float route's ``s_p`` takes to reach p.
_MAX_ULP_STEPS = 4


@dataclass(frozen=True, slots=True)
class QuantileSolution:
    """Mixture quantile with the split that produced it.

    ``x_attains``/``y_attains`` record which component quantile reaches the
    max; ``clamped`` marks instances where the ordering held nowhere and the
    split fell back to the top of the feasible range.
    """

    s_p: ExtendedReal
    alpha_star: Fraction | float
    beta_star: Fraction | float
    x_attains: bool
    y_attains: bool
    clamped: bool


def feasible_alpha_range(q: RealLike, p: RealLike) -> tuple[Fraction, Fraction]:
    """Closed range of alpha with both alpha and beta(alpha) inside [0, 1]."""
    q = as_fraction(q)
    p = as_fraction(p)
    if not 0 < q < 1:
        raise DomainError(f"mixing weight must lie strictly in (0, 1), got {q}")
    if not 0 < p < 1:
        raise DomainError(f"level must lie strictly in (0, 1), got {p}")
    alpha_min = max(Fraction(0), (p - (1 - q)) / q)
    alpha_max = min(Fraction(1), p / q)
    return alpha_min, alpha_max


def _beta_of(q, p, alpha):
    """The partner level (p - q*alpha)/(1-q), clamped to [0, 1].

    Exact arguments give an exact level and float arguments a float one.
    The clamp only acts on float alphas, which can land an epsilon outside
    the feasible range; on ties ``min`` and ``max`` return their first
    argument, so exact feasible levels pass through unchanged.
    """
    beta = (p - q * alpha) / (1 - q)
    return min(max(beta, 0), 1)


def _holds(m: MixtureSpec, q, p, alpha) -> bool:
    """The ordering Qx(alpha) >= Qy(beta(alpha)), in the arithmetic of q and p."""
    return m.x.quantile(alpha) >= m.y.quantile(_beta_of(q, p, alpha))


def ordering_predicate(m: MixtureSpec, p: RealLike, alpha: RealLike) -> bool:
    """Whether Qx(alpha) >= Qy(beta) for the split beta = (p - q*alpha)/(1-q).

    Levels of 0 send the corresponding quantile to -inf, so the predicate
    holds trivially at beta = 0 and fails at alpha = 0 unless beta hits 0 too.
    """
    p = as_fraction(p)
    alpha_min, alpha_max = feasible_alpha_range(m.q, p)
    alpha = as_fraction(alpha)
    if not alpha_min <= alpha <= alpha_max:
        raise DomainError(
            f"alpha must lie in the feasible range [{alpha_min}, {alpha_max}], got {alpha}"
        )
    return _holds(m, m.q, p, alpha)


def split_quantile(m: MixtureSpec, p: RealLike) -> QuantileSolution:
    """Mixture quantile via the optimal split; exact for piecewise pairs.

    Degenerate weights bypass the split: q = 1 returns the X quantile with
    alpha* = p and q = 0 the Y quantile with beta* = p.  A level that rounds
    to 0 or 1 as a float is rejected unless each component that answers it
    is piecewise.
    """
    p = _checked_level(m, p)
    if m.lone is not None:
        # Flags from q, not from ``lone``: X and Y may be the same object.
        return QuantileSolution(m.lone.quantile(p), p, p, m.q == 1, m.q == 0, False)

    alpha, beta, clamped = _solve_split(m, p)
    qx = m.x.quantile(alpha)
    qy = m.y.quantile(beta)
    s_p = max(qx, qy)
    # An absolute bound: a true gap short of s_p is no rounding, at any scale.
    x_attains = close(qx, s_p, m.is_exact, relative=False)
    y_attains = close(qy, s_p, m.is_exact, relative=False)
    if not m.is_exact:
        s_p = _reach_level(m, p, s_p)
    return QuantileSolution(s_p, alpha, beta, x_attains, y_attains, clamped)


def _reach_level(m: MixtureSpec, p: Fraction, s_p: ExtendedReal) -> ExtendedReal:
    """A float route's ``s_p``, stepped up float by float while F_S(s_p) < p.

    The float bisection can end one float short of the crossing; at most
    ``_MAX_ULP_STEPS`` steps mend that.  F_S may fall short of p by
    ``LEVEL_ROUNDING``, and a non-finite ``s_p`` is left as it is.
    """
    for _ in range(_MAX_ULP_STEPS):
        if not math.isfinite(s_p) or mixture_cdf(m, s_p) >= p - LEVEL_ROUNDING:
            break
        s_p = math.nextafter(s_p, math.inf)
    return s_p


def _solve_split(m: MixtureSpec, p: Fraction):
    """Returns (alpha*, beta*, clamped) for 0 < q < 1."""
    q = m.q
    alpha_min, alpha_max = feasible_alpha_range(q, p)
    holds = partial(_holds, m, q, p)
    if holds(alpha_min):
        return alpha_min, _beta_of(q, p, alpha_min), False
    if not holds(alpha_max):
        # Ordering holds nowhere on the feasible range: clamp to the top.
        return alpha_max, _beta_of(q, p, alpha_max), True
    # From here on the predicate is false at alpha_min and true at alpha_max.
    if m.is_exact:
        alpha = _solve_split_exact(m, p, alpha_min, alpha_max)
        return alpha, _beta_of(q, p, alpha), False
    alpha = _solve_split_numeric(m, p, alpha_min, alpha_max)
    return float(alpha), float(_beta_of(q, p, alpha)), False


# -- exact path ----------------------------------------------------------------


def _flip_piece(d: Piecewise, lo: Fraction, hi: Fraction, flipped) -> QuantilePiece:
    """The piece of ``d`` whose level range holds the flip of ``flipped`` inside (lo, hi).

    Bisects the pieces whose top level cut lies strictly inside (lo, hi) for
    the first one on which ``flipped`` holds; when it holds on none, the
    answer is the piece reaching hi.
    """
    pieces = d.quantile_pieces()
    start, stop = d._levels_inside(lo, hi)
    return pieces[bisect.bisect_left(pieces, True, start, stop, key=flipped)]


def _solve_split_exact(m: MixtureSpec, p: Fraction, a_lo: Fraction, a_hi: Fraction):
    """Infimum of the ordering set, given it fails at a_lo and holds at a_hi.

    Narrows the bracket to one X piece around the flip, then to one Y piece
    inside that, mapped to alpha; what remains is one cell on which both
    inverses are affine.  At a cut c = piece.lev_hi the piece's own inverse
    is piece.x_right, so each probe evaluates only the other side.
    """
    q = m.q

    # alpha = (p - (1-q)c)/q is the alpha whose partner level is c; it falls
    # as the Y cut c rises, so along rising Y cuts the ordering runs true,
    # then false.
    def alpha_of(cut: Fraction) -> Fraction:
        return (p - (1 - q) * cut) / q

    px = _flip_piece(
        m.x, a_lo, a_hi,
        lambda piece: piece.x_right >= m.y.quantile(_beta_of(q, p, piece.lev_hi)),
    )
    # The flip lies in px's level range, and in py's mapped to alpha, so
    # each clips the bracket to that range.
    a_lo, a_hi = max(a_lo, px.lev_lo), min(a_hi, px.lev_hi)
    py = _flip_piece(
        m.y, _beta_of(q, p, a_hi), _beta_of(q, p, a_lo),
        lambda piece: m.x.quantile(alpha_of(piece.lev_hi)) < piece.x_right,
    )
    a_lo, a_hi = max(a_lo, alpha_of(py.lev_hi)), min(a_hi, alpha_of(py.lev_lo))
    return _refine_cell(q, p, px, py, a_lo, a_hi)


def _refine_cell(
    q: Fraction, p: Fraction, px: QuantilePiece, py: QuantilePiece, a_lo: Fraction, a_hi: Fraction
) -> Fraction:
    """Infimum of the ordering set inside the cell (a_lo, a_hi].

    On the open cell Qx follows ``px`` and Qy(beta) follows ``py``, so the
    difference d(alpha) = Qx(alpha) - Qy(beta(alpha)) is affine and
    nondecreasing; the infimum is a_lo when d >= 0 throughout, the interior
    root when d crosses zero inside, and a_hi otherwise (where the predicate
    holds by the jump).
    """

    def d(alpha: Fraction) -> Fraction:
        return px.value_at(alpha) - py.value_at(_beta_of(q, p, alpha))

    d_lo = d(a_lo)
    if d_lo >= 0:
        return a_lo
    d_hi = d(a_hi)
    if d_hi > 0:
        return a_lo - d_lo * (a_hi - a_lo) / (d_hi - d_lo)
    return a_hi


# -- numeric path ----------------------------------------------------------------


def _solve_split_numeric(m: MixtureSpec, p: Fraction, a_lo: Fraction, a_hi: Fraction):
    """Float bisection for alpha*, given the ordering fails at a_lo and holds at a_hi.

    The probes see q and p as floats, so each one runs in float arithmetic.
    """
    holds = partial(_holds, m, float(m.q), float(p))

    def objective(alpha) -> ExtendedReal:
        return max(m.x.quantile(alpha), m.y.quantile(_beta_of(m.q, p, alpha)))

    lo, hi = bisect_float(holds, float(a_lo), float(a_hi), BISECTION_WIDTH)
    # An end the bisection never moved is an end of the feasible range, where
    # beta may be exactly 0 or 1.  Rounding alpha to a float there can move
    # beta off the jump of Qy at that level, so such an end is judged exactly.
    lo = a_lo if lo == float(a_lo) else lo
    hi = a_hi if hi == float(a_hi) else hi
    # Every feasible alpha has F_S(max{Qx(alpha), Qy(beta(alpha))}) >= p, so
    # the bracket end with the smaller max gives the better quantile.  It is
    # lo when the infimum is not attained, e.g. where Qx jumps up from -inf
    # at level 0 and the bracket never leaves it.
    return lo if objective(lo) < objective(hi) else hi
