"""One-dimensional distributions with exact generalized inverses.

Two families live here.  ``Piecewise`` represents a finite mix of point
masses (atoms) and uniform linear stretches (segments) with all arithmetic
done in ``fractions.Fraction``, so every query below is decided exactly.
The parametric classes (``Uniform``, ``Normal``, ``Exponential``,
``LogNormal``) work in floating point and answer the structural queries
(continuity, left flatness) from family metadata instead of numerics.

The generalized inverse follows the convention

    quantile(p) = inf {x : F(x) >= p},   inf(empty) = +inf,  inf(R) = -inf,

so ``quantile(0)`` is ``-inf`` for every distribution and ``quantile(1)``
is the essential supremum when finite and ``+inf`` otherwise.
"""

from __future__ import annotations

import bisect
import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, itemgetter
from statistics import NormalDist
from typing import Iterable, NamedTuple, Sequence, Union

__all__ = [
    "NEG_INF",
    "POS_INF",
    "ExtendedReal",
    "RealLike",
    "DomainError",
    "as_fraction",
    "FLOAT_TOL",
    "LEVEL_ROUNDING",
    "leq",
    "close",
    "QuantilePiece",
    "Distribution",
    "Piecewise",
    "Parametric",
    "Uniform",
    "Normal",
    "Exponential",
    "LogNormal",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

# Exact values are Fractions; infinities (and every parametric value) are
# floats.  Fraction/float comparisons are exact in Python, so mixing the two
# keeps the extended order total.
ExtendedReal = Union[Fraction, float]
RealLike = Union[int, float, str, Fraction]


class DomainError(ValueError):
    """A probability level or argument lies outside its allowed range."""


def as_fraction(value: RealLike) -> Fraction:
    """Coerce to an exact rational; floats convert by their binary value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"cannot coerce non-finite value {value!r} to a rational")
    return Fraction(value)


#: Float tolerance, absolute below magnitude 1 and relative above it: levels
#: keep an absolute bound and positions are judged at their own scale.
FLOAT_TOL = 1e-9
#: Tolerance of float level sums only rounding moves: q*alpha + (1-q)*beta = p.
LEVEL_ROUNDING = 1e-12


def leq(a: ExtendedReal, b: ExtendedReal, exact: bool, tol=FLOAT_TOL, relative=True) -> bool:
    """a <= b: exactly when ``exact``, else up to ``tol`` as in ``close``."""
    if a <= b:
        return True
    return not exact and close(a, b, exact, tol, relative)


def close(a: ExtendedReal, b: ExtendedReal, exact: bool, tol=FLOAT_TOL, relative=True) -> bool:
    """a == b: exactly when ``exact``, else within ``tol`` (relative beyond 1 if ``relative``)."""
    if a == b:
        return True
    if exact:
        return False
    try:
        return math.isclose(a, b, rel_tol=tol if relative else 0.0, abs_tol=tol)
    except OverflowError:
        return False


class QuantilePiece(NamedTuple):
    """One stretch of a generalized inverse, as a named tuple.

    Maps levels in ``(lev_lo, lev_hi]`` affinely onto ``[x_left, x_right]``
    with ``slope = (x_right - x_left)/(lev_hi - lev_lo)``.  Atoms appear as
    constant pieces with ``x_left == x_right`` and slope 0.  Being a tuple,
    a piece is immutable and hashable and unpacks in field order.
    """

    lev_lo: Fraction
    lev_hi: Fraction
    x_left: Fraction
    x_right: Fraction
    slope: Fraction

    def value_at(self, p: Fraction) -> Fraction:
        if not self.slope:
            return self.x_left
        return self.x_left + (p - self.lev_lo) * self.slope


_ZERO = Fraction(0)
_X_LEFT = attrgetter("x_left")
_LEV_HI = attrgetter("lev_hi")
# Sort key of rows ``(float key, exact value, ...)``: the exact value is read
# only where the floats tie, and the sort is stable, as by the exact value.
_FLOAT_THEN_EXACT = itemgetter(0, 1)


def _float_key(value: Fraction) -> float:
    """The correctly rounded float of ``value``, or +-inf beyond the float range."""
    try:
        # What float(value) computes, without its two int() calls.
        return value.numerator / value.denominator
    except OverflowError:
        # Compare, do not convert: converting ``value`` again would raise.
        return POS_INF if value > 0 else NEG_INF


def _level_sum(cum: Fraction, num: int, den: int) -> tuple[Fraction, float]:
    """``cum + num/den`` for ``0 <= cum`` and ``0 < num, den``, summed on integers.

    Returns the sum as one reduced ``Fraction`` and its correctly rounded
    float (``int / int`` rounds correctly, reduced or not), +inf beyond the
    float range.  ``_sweep`` keeps each addend as an unreduced integer pair
    and stores only these, so each stored level costs one ``gcd`` (the
    constructor's) instead of several ``Fraction`` operations.
    """
    d = cum.denominator
    n, d = cum.numerator * den + num * d, d * den
    level = Fraction(n, d)
    try:
        return level, n / d
    except OverflowError:
        return level, POS_INF


def _sweep(runs):
    """The quantile pieces of a law given as events: atoms plus densities.

    ``runs`` holds two lists of events ``(float x, x, side, value)``, each
    in exact order of x; every value is an unreduced integer pair
    ``(num, den)`` or None.  An event of side None adds the mass ``value``
    at x.  One of side 0 or 1 sets that side's density right of x to
    ``value``, None where the side has none; a position's density is the
    sum of the sides'.  One stable sort orders the events by the float of
    x, reading the exact x only where floats tie.  Within a run a
    stretch ending at x precedes one starting there, so the densities are
    those right of x once every event at x is read.  Only a move to a new
    x, read from the floats and, where they tie, from the exact x, closes
    the atom pending at the old one and then the stretch from it.  So at a
    shared x the stretch ending there comes first, then the atom, then the
    stretch starting there, and coincident atoms become one piece.

    Returns four columns in level order: the pieces ``(lev_lo, lev_hi,
    x_left, x_right)``, each one's density pair (None for an atom), and
    float copies of ``x_left`` and ``lev_hi``.  Densities and masses are
    summed as pairs (``_pair_sum``), and ``_level_sum`` makes each level.
    """
    events = runs[0] + runs[1]
    events.sort(key=_FLOAT_THEN_EXACT)
    # A last event at nan, a float unequal to every other, closes the last atom.
    events.append((math.nan, _ZERO, None, None))
    pieces, densities, x_lefts, lev_his = [], [], array("d"), array("d")
    active = [None, None]
    cum = _ZERO
    mass = f_at = at = None
    for f_x, x, side, value in events:
        if f_x != f_at or x is not at and x != at:
            if mass is not None:
                top, f_top = _level_sum(cum, *mass)
                pieces.append((cum, top, at, at))
                densities.append(None)
                x_lefts.append(f_at)
                lev_his.append(f_top)
                cum, mass = top, None
            xn, xd = x.numerator, x.denominator
            x_density, y_density = active
            density = (
                x_density if y_density is None
                else y_density if x_density is None
                else _pair_sum(x_density, y_density)
            )
            if density is not None:
                # The stretch from at to x rises density * (x - at).
                dn, dd = density
                top, f_top = _level_sum(cum, dn * (xn * ad - an * xd), dd * xd * ad)
                pieces.append((cum, top, at, x))
                densities.append(density)
                x_lefts.append(f_at)
                lev_his.append(f_top)
                cum = top
            f_at, at, an, ad = f_x, x, xn, xd
        if side is None:
            mass = value if mass is None else _pair_sum(mass, value)
        else:
            active[side] = value
    return pieces, densities, x_lefts, lev_his


def _pair_sum(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b on unreduced integer pairs (num, den)."""
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _find_cut(pieces, cuts: array, key, value: Fraction, find) -> int:
    """``find(pieces, value, key=key)``, decided on the float copies ``cuts``.

    ``cuts[i]`` is ``_float_key(key(pieces[i]))``.  Rounding is monotone, so
    a cut whose float lies below (above) the float of ``value`` lies below
    (above) ``value`` itself; only the run of cuts whose floats equal it is
    searched exactly, with ``find`` (``bisect.bisect_left`` or
    ``bisect.bisect_right``).
    """
    f = _float_key(value)
    i = bisect.bisect_left(cuts, f)
    if i == len(cuts) or cuts[i] != f:
        return i
    return find(pieces, value, i, bisect.bisect_right(cuts, f, i), key=key)


class Distribution:
    """Interface shared by the exact piecewise class and parametric families."""

    #: True when cdf/quantile work in exact rational arithmetic.
    is_exact: bool = False

    def cdf(self, x: RealLike) -> ExtendedReal:
        raise NotImplementedError

    def cdf_left_limit(self, x: RealLike) -> ExtendedReal:
        raise NotImplementedError

    def quantile(self, p: RealLike) -> ExtendedReal:
        raise NotImplementedError

    def is_continuous_at(self, x: RealLike) -> bool:
        raise NotImplementedError

    def flat_left_of(self, x: RealLike) -> tuple[bool, ExtendedReal | None]:
        """Whether some z < x has F(z) = F(x-); returns a witness z when true."""
        raise NotImplementedError

    def support_bounds(self) -> tuple[ExtendedReal, ExtendedReal]:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class Piecewise(Distribution):
    """Finite mixture of atoms and uniform segments, exact end to end.

    Parameters
    ----------
    atoms:
        Iterable of ``(location, mass)`` pairs, all masses positive and the
        locations distinct.
    segments:
        Iterable of ``(left, right, rise)`` triples describing a linear CDF
        climb of ``rise`` over ``[left, right]``; interiors must be pairwise
        disjoint (touching endpoints are fine, and an atom may sit anywhere,
        including inside a segment).

    The atom masses plus segment rises must sum to exactly 1.

    The affine pieces of the generalized inverse (``quantile_pieces()``) are
    the one stored layout: the CDF, its left limits, left flatness, atoms and
    the support are all read from them.  The checked atoms and segments
    become events of one sweep (``_sweep``), the one that also builds a
    mixture's pieces from its components' (``mixture._walk_pieces``).  Float
    copies of the two sorted cut columns, ``lev_hi`` and ``x_left``, let
    every bisection decide in float and compare ``Fraction`` keys only where
    the floats tie (``_find_cut``).  The build sorts and checks the same way,
    on the floats of the positions, which then fill ``_x_lefts``.
    """

    is_exact = True

    __slots__ = ("atoms", "segments", "_pieces", "_lev_his", "_x_lefts")

    def __init__(
        self,
        atoms: Iterable[tuple[RealLike, RealLike]] = (),
        segments: Iterable[tuple[RealLike, RealLike, RealLike]] = (),
    ) -> None:
        # Rows lead with the float of each position they are ordered by, so
        # sorting and every order check below decide in float and compare
        # ``Fraction``s only where the floats tie (``_float_key`` is monotone).
        atom_rows = []
        for loc, mass in atoms:
            loc = as_fraction(loc)
            atom_rows.append((_float_key(loc), loc, as_fraction(mass)))
        atom_rows.sort(key=_FLOAT_THEN_EXACT)
        seg_rows = []
        right = f_right = None
        for left, end, rise in segments:
            # The parser hands a shared end over as one object, whose float
            # the previous row holds.
            left = as_fraction(left)
            f_left = f_right if left is right else _float_key(left)
            right = as_fraction(end)
            f_right = _float_key(right)
            seg_rows.append((f_left, left, f_right, right, as_fraction(rise)))
        seg_rows.sort(key=_FLOAT_THEN_EXACT)
        self.atoms = tuple([(loc, mass) for _, loc, mass in atom_rows])
        self.segments = tuple([(left, right, rise) for _, left, _, right, rise in seg_rows])
        # The checked rows become ``_sweep``'s two runs.  A segment sets the
        # density rise/(right - left) at its left end and clears it at its
        # right end, where the set of a segment starting there replaces the
        # clear; an atom adds its mass.
        seg_run = []
        right = f_right = None
        for f_left, left, f_end, end, rise in seg_rows:
            if not (f_left < f_end or f_left == f_end and left < end):
                raise ValueError(f"segment [{left}, {end}] must have left < right")
            if rise.numerator <= 0:
                raise ValueError(f"segment rise over [{left}, {end}] must be positive")
            if right is left or f_right == f_left and right == left:
                seg_run.pop()
            elif right is not None and (f_right > f_left or f_right == f_left and right > left):
                raise ValueError("segment interiors must be pairwise disjoint")
            f_right, right = f_end, end
            xn, xd, rn, rd = left.numerator, left.denominator, end.numerator, end.denominator
            density = (rise.numerator * rd * xd, rise.denominator * (rn * xd - xn * rd))
            seg_run += ((f_left, left, 0, density), (f_end, end, 0, None))
        atom_run = []
        loc = f_loc = None
        for f_at, at, mass in atom_rows:
            if mass.numerator <= 0:
                raise ValueError(f"atom mass at {at} must be positive, got {mass}")
            if f_at == f_loc and at == loc:
                raise ValueError(f"duplicate atom location {at}")
            f_loc, loc = f_at, at
            atom_run.append((f_at, at, None, (mass.numerator, mass.denominator)))
        pieces, densities, self._x_lefts, self._lev_his = _sweep((seg_run, atom_run))
        total = pieces[-1][1] if pieces else _ZERO
        if total != 1:
            raise ValueError(f"atom masses plus segment rises must equal 1, got {total}")
        # A segment's slope is 1/density.  ``QuantilePiece(...)`` calls
        # ``tuple.__new__``; calling it here saves a Python frame per piece.
        self._pieces = tuple(
            [
                tuple.__new__(QuantilePiece, (lo, hi, a, b, Fraction(d[1], d[0]) if d else _ZERO))
                for (lo, hi, a, b), d in zip(pieces, densities)
            ]
        )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def point_mass(cls, location: RealLike) -> "Piecewise":
        """Unit mass at a single point."""
        return cls(atoms=[(location, 1)])

    @classmethod
    def uniform(cls, left: RealLike, right: RealLike) -> "Piecewise":
        """Uniform mass on ``[left, right]`` as a single exact segment."""
        return cls(segments=[(left, right, 1)])

    @classmethod
    def empirical(cls, points: Sequence[RealLike]) -> "Piecewise":
        """Equal atoms at the given points (duplicates merge their mass)."""
        if len(points) == 0:
            raise ValueError("empirical distribution needs at least one point")
        share = Fraction(1, len(points))
        masses: dict[Fraction, Fraction] = {}
        for pt in points:
            loc = as_fraction(pt)
            masses[loc] = masses.get(loc, Fraction(0)) + share
        return cls(atoms=masses.items())

    # -- queries ---------------------------------------------------------------

    def _level_at(self, x: Fraction, find) -> Fraction:
        """The level at x of the last piece that ``find`` places at or before x."""
        j = _find_cut(self._pieces, self._x_lefts, _X_LEFT, x, find) - 1
        if j < 0:
            return _ZERO
        piece = self._pieces[j]
        if x >= piece.x_right:
            return piece.lev_hi
        return piece.lev_lo + (x - piece.x_left) / piece.slope

    def cdf(self, x: RealLike) -> Fraction:
        # bisect_right keeps the pieces starting at x: F(x) counts an atom there.
        return self._level_at(as_fraction(x), bisect.bisect_right)

    def cdf_left_limit(self, x: RealLike) -> Fraction:
        return self._level_at(as_fraction(x), bisect.bisect_left)

    def quantile(self, p: RealLike) -> ExtendedReal:
        p = as_fraction(p)
        if p < 0 or p > 1:
            raise DomainError(f"quantile level must lie in [0, 1], got {p}")
        if p == 0:
            return NEG_INF
        j = _find_cut(self._pieces, self._lev_his, _LEV_HI, p, bisect.bisect_left)
        return self._pieces[j].value_at(p)

    def _levels_inside(self, lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """Index range of the pieces whose top level cut lies strictly inside (lo, hi)."""
        pieces, cuts = self._pieces, self._lev_his
        start = _find_cut(pieces, cuts, _LEV_HI, lo, bisect.bisect_right)
        return start, _find_cut(pieces, cuts, _LEV_HI, hi, bisect.bisect_left)

    def is_continuous_at(self, x: RealLike) -> bool:
        x = as_fraction(x)
        # An atom at x is the first piece starting at or after x, and the
        # only such piece that also ends at x.
        j = _find_cut(self._pieces, self._x_lefts, _X_LEFT, x, bisect.bisect_left)
        return j == len(self._pieces) or self._pieces[j].x_right != x

    def flat_left_of(self, x: RealLike) -> tuple[bool, Fraction | None]:
        x = as_fraction(x)
        # The last piece starting below x covers x exactly when it is a
        # segment reaching x; otherwise the CDF is flat on (x_right, x).
        j = _find_cut(self._pieces, self._x_lefts, _X_LEFT, x, bisect.bisect_left) - 1
        if j < 0:
            return True, x - 1
        piece = self._pieces[j]
        if piece.slope and x <= piece.x_right:
            return False, None
        return True, (piece.x_right + x) / 2

    def support_bounds(self) -> tuple[Fraction, Fraction]:
        return self._pieces[0].x_left, self._pieces[-1].x_right

    def quantile_pieces(self) -> tuple[QuantilePiece, ...]:
        """The affine stretches of the generalized inverse, in level order."""
        return self._pieces

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        import numpy as np

        # A support end or width past the float range has no float draws; a
        # DomainError, as in the grid oracle.
        lo, hi = self.support_bounds()
        if not all(math.isfinite(_float_key(v)) for v in (lo, hi, hi - lo)):
            raise DomainError("piecewise sample support exceeds the float range")
        weights = np.array(
            [float(piece.lev_hi - piece.lev_lo) for piece in self._pieces]
        )
        weights /= weights.sum()
        widths = np.array(
            [float(piece.x_right - piece.x_left) for piece in self._pieces]
        )
        idx = rng.choice(len(self._pieces), size=n, p=weights)
        # In place, so at most one n-sized temporary lives beside idx and out.
        out = rng.random(n)
        out *= widths[idx]
        out += np.asarray(self._x_lefts)[idx]
        return out

    def __repr__(self) -> str:
        parts = []
        if self.atoms:
            parts.append(f"atoms={[(str(a), str(m)) for a, m in self.atoms]}")
        if self.segments:
            parts.append(
                f"segments={[(str(l), str(r), str(h)) for l, r, h in self.segments]}"
            )
        return f"Piecewise({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Piecewise):
            return NotImplemented
        return self.atoms == other.atoms and self.segments == other.segments

    def __hash__(self) -> int:
        return hash((self.atoms, self.segments))


class Parametric(Distribution):
    """Continuous parametric family; strictly increasing inside its support.

    Structural queries are answered from the support bounds: the CDF is flat
    to the left of x exactly when x sits at or below the lower support bound
    or strictly above the upper one.
    """

    is_exact = False

    def _cdf(self, x: float) -> float:
        raise NotImplementedError

    def _quantile_inner(self, p: float) -> float:
        raise NotImplementedError

    def cdf(self, x: RealLike) -> float:
        return self._cdf(float(x))

    def cdf_left_limit(self, x: RealLike) -> float:
        return self._cdf(float(x))

    def quantile(self, p: RealLike) -> float:
        p = float(p)
        if p < 0.0 or p > 1.0:
            raise DomainError(f"quantile level must lie in [0, 1], got {p}")
        if p == 0.0:
            return NEG_INF
        if p == 1.0:
            return float(self.support_bounds()[1])
        return self._quantile_inner(p)

    def is_continuous_at(self, x: RealLike) -> bool:
        return True

    def flat_left_of(self, x: RealLike) -> tuple[bool, float | None]:
        lo, hi = self.support_bounds()
        x = float(x)
        if x <= lo:
            return True, x - 1.0
        if x > hi:
            return True, (hi + x) / 2.0
        return False, None


@dataclass(frozen=True)
class Uniform(Parametric):
    a: float
    b: float

    def __post_init__(self) -> None:
        if not NEG_INF < self.a < self.b < POS_INF:
            raise ValueError(f"uniform needs finite a < b, got [{self.a}, {self.b}]")
        if self.b - self.a == POS_INF:
            raise ValueError(
                f"uniform needs a finite width b - a, got [{self.a}, {self.b}]"
            )

    def _cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def _quantile_inner(self, p: float) -> float:
        return self.a + (self.b - self.a) * p

    def support_bounds(self) -> tuple[float, float]:
        return self.a, self.b

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=n)


_STD_NORMAL = NormalDist()


def _std_normal_cdf(z: float) -> float:
    # erfc keeps full relative precision in the lower tail, unlike 1 + erf.
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@dataclass(frozen=True)
class Normal(Parametric):
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and 0 < self.sigma < POS_INF):
            raise ValueError(
                f"normal needs finite mu and finite sigma > 0, "
                f"got mu={self.mu}, sigma={self.sigma}"
            )

    def _cdf(self, x: float) -> float:
        return _std_normal_cdf((x - self.mu) / self.sigma)

    def _quantile_inner(self, p: float) -> float:
        value = self.mu + self.sigma * _STD_NORMAL.inv_cdf(p)
        if math.isinf(value):
            raise DomainError(f"normal quantile at level {p} exceeds the float range")
        return value

    def support_bounds(self) -> tuple[float, float]:
        return NEG_INF, POS_INF

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(self.mu, self.sigma, size=n)


@dataclass(frozen=True)
class Exponential(Parametric):
    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < POS_INF:
            raise ValueError(f"exponential needs finite rate > 0, got {self.rate}")
        if 1.0 / self.rate == POS_INF:
            raise ValueError(
                f"exponential needs a finite scale 1/rate, got rate={self.rate}"
            )

    def _cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def _quantile_inner(self, p: float) -> float:
        return -math.log1p(-p) / self.rate

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, POS_INF

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=n)


@dataclass(frozen=True)
class LogNormal(Parametric):
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and 0 < self.sigma < POS_INF):
            raise ValueError(
                f"lognormal needs finite mu and finite sigma > 0, "
                f"got mu={self.mu}, sigma={self.sigma}"
            )

    def _cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return _std_normal_cdf((math.log(x) - self.mu) / self.sigma)

    def _quantile_inner(self, p: float) -> float:
        try:
            return math.exp(self.mu + self.sigma * _STD_NORMAL.inv_cdf(p))
        except OverflowError:
            raise DomainError(f"lognormal quantile at level {p} exceeds the float range") from None

    def support_bounds(self) -> tuple[float, float]:
        return 0.0, POS_INF

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)
