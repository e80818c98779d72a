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

    Maps levels in ``(lev_lo, lev_hi]`` affinely onto ``[x_left, x_right]``.
    Atoms appear as constant pieces with ``x_left == x_right``; ``_sweep``,
    which builds the pieces of a ``Piecewise`` and of a mixture, stores an
    atom's point as one object twice.
    The rate of a segment piece is not stored here: ``value_at`` forms the
    affine map from the four ends.  Being a tuple, a piece is immutable and
    hashable and unpacks in field order.
    """

    lev_lo: Fraction
    lev_hi: Fraction
    x_left: Fraction
    x_right: Fraction

    def value_at(self, p: Fraction) -> Fraction:
        """x_left + (p - lev_lo)*(x_right - x_left)/(lev_hi - lev_lo), on integers."""
        lev_lo, lev_hi, x_left, x_right = self
        if x_left is x_right:
            return x_left
        return _affine_at(p, lev_lo, lev_hi, x_left, x_right)


def _affine_at(
    t: Fraction, t_lo: Fraction, t_hi: Fraction, v_lo: Fraction, v_hi: Fraction
) -> Fraction:
    """v_lo + (t - t_lo)*(v_hi - v_lo)/(t_hi - t_lo) for t_lo < t_hi, summed on integers.

    The one affine map of a segment piece, either way: ``value_at`` maps a
    level to a position, and ``Piecewise._level_at`` a position to a level.
    """
    tn, td = t.as_integer_ratio()
    an, ad = t_lo.as_integer_ratio()
    bn, bd = t_hi.as_integer_ratio()
    ln, ld = v_lo.as_integer_ratio()
    rn, rd = v_hi.as_integer_ratio()
    num = (tn * ad - an * td) * (rn * ld - ln * rd) * bd
    return _ratio_sum(ln, ld, num, td * rd * ld * (bn * ad - an * bd))[0]


_ZERO = Fraction(0)
_X_LEFT = attrgetter("x_left")
_LEV_HI = attrgetter("lev_hi")
# Sort key of rows ``(float key, exact value, ...)``: the exact value is read
# only where the floats tie, and the sort is stable, as by the exact value.
_FLOAT_THEN_EXACT = itemgetter(0, 1)


def _ratio_sum(n: int, d: int, num: int, den: int) -> tuple[Fraction, int, int]:
    """``n/d + num/den``, summed on integers, as one reduced ``Fraction``.

    The domain is ``d > 0`` and ``den > 0``; ``n`` and ``num`` may have
    either sign or be 0.  Returns the ``Fraction`` and its reduced pair
    ``(n, d)``, so a caller summing on (``_sweep``'s running level) carries
    the pair instead of reading the ``Fraction``'s properties back.  Every
    exact value the ``curve`` path computes (a stored level, a CDF value
    inside a stretch, a mixture level, a grid point, a point of the
    mixture's inverse) is made here from integers, where ``Fraction``
    arithmetic would build a ``Fraction`` per operation.
    """
    level = Fraction(n * den + num * d, d * den)
    n, d = level.as_integer_ratio()
    return level, n, d


def _quotient(n: int, d: int) -> float:
    """The correctly rounded float of ``n/d`` for ``d > 0``, +-inf beyond the float range."""
    try:
        return n / d
    except OverflowError:
        return POS_INF if n > 0 else NEG_INF


#: The event that ends ``_sweep``'s events: at nan, a float unequal to every
#: other, it closes the last atom.
_END = (math.nan, _ZERO, 0, 1, None, None)


def _sweep(events: list):
    """The quantile pieces of a law given as events: atoms plus densities.

    ``events`` holds events ``(float x, x, xn, xd, side, value)``, with
    ``(xn, xd)`` the reduced integer pair of x, in runs, each in exact order
    of x, as ``_sweep_events`` emits them; every value is an unreduced
    integer pair ``(num, den)`` or None.  An event of side None adds the
    mass ``value`` at x.  One of side 0 or 1 sets that side's density right
    of x to ``value``, None where the side has none; a side has at most one
    such event at an x, and a position's density is the sum of the sides'.
    One stable sort, in place, orders the events by the float of x, reading
    the exact x only where floats tie; it merges the runs.  Only a move to a
    new x, read from the floats and, where they tie, from the exact x,
    closes the atom pending at the old one and then the stretch from it.  So
    at a shared x the stretch ending there comes first, then the atom, then
    the stretch starting there, and coincident atoms become one piece.

    Returns three columns in level order: the ``QuantilePiece``s and float
    copies of their ``x_left`` and ``lev_hi``.  An atom's piece holds its
    point as one object twice; pieces that meet share the object of their
    common x.  Densities and masses are summed as pairs (``_pair_sum``); the
    running level is a reduced pair, and ``_ratio_sum`` makes each level
    from it.
    """
    events.sort(key=_FLOAT_THEN_EXACT)
    events.append(_END)
    pieces, x_lefts, lev_his = [], array("d"), array("d")
    # What ``QuantilePiece(...)`` calls, without its Python frame per piece.
    new_piece = tuple.__new__
    cum, cn, cd = _ZERO, 0, 1
    mass = f_at = at = x_density = y_density = None
    for f_x, x, xn, xd, side, value in events:
        if f_x != f_at or x is not at and x != at:
            if mass is not None:
                top, cn, cd = _ratio_sum(cn, cd, *mass)
                pieces.append(new_piece(QuantilePiece, (cum, top, at, at)))
                x_lefts.append(f_at)
                lev_his.append(_quotient(cn, cd))
                cum, mass = top, None
            density = (
                x_density if y_density is None
                else y_density if x_density is None
                else _pair_sum(x_density, y_density)
            )
            if density is not None:
                # The stretch from at to x rises density * (x - at).
                dn, dd = density
                top, cn, cd = _ratio_sum(cn, cd, dn * (xn * ad - an * xd), dd * xd * ad)
                pieces.append(new_piece(QuantilePiece, (cum, top, at, x)))
                x_lefts.append(f_at)
                lev_his.append(_quotient(cn, cd))
                cum = top
            f_at, at, an, ad = f_x, x, xn, xd
        if side is None:
            mass = value if mass is None else _pair_sum(mass, value)
        elif side:
            y_density = value
        else:
            x_density = value
    return pieces, x_lefts, lev_his


def _read_rows(atoms: Iterable, segments: Iterable) -> tuple[list, list]:
    """Rows of atoms and segments that lead with the float of each position.

    An atom row is ``(float loc, loc, mass, ln, ld)`` and a segment row
    ``(float left, left, float right, right, rise, ln, ld, rn, rd)``, with
    ``(ln, ld)`` and ``(rn, rd)`` the integer pairs of the positions, each
    read once.  Sorting the rows and every order check on them decide in
    float and compare ``Fraction``s only where the floats tie (rounding is
    monotone).  The rows keep the input's order.
    """
    atom_rows = []
    for loc, mass in atoms:
        loc = as_fraction(loc)
        ln, ld = loc.numerator, loc.denominator
        atom_rows.append((_quotient(ln, ld), loc, as_fraction(mass), ln, ld))
    seg_rows = []
    right = f_right = None
    for left, end, rise in segments:
        # The parser hands a shared end over as one object, and a build
        # stores it so; the previous row holds its float and pair.
        left = as_fraction(left)
        if left is not right:
            ln, ld = left.numerator, left.denominator
            f_left = _quotient(ln, ld)
        else:
            f_left, ln, ld = f_right, rn, rd
        right = as_fraction(end)
        rn, rd = right.numerator, right.denominator
        f_right = _quotient(rn, rd)
        seg_rows.append((f_left, left, f_right, right, as_fraction(rise), ln, ld, rn, rd))
    return atom_rows, seg_rows


def _sweep_events(atom_rows: list, seg_rows: list, side: int, wn: int, wd: int) -> list:
    """The ``_sweep`` events of one side's sorted rows, at weight ``wn/wd``.

    The one translation of atoms and segments into events, for the build of
    a ``Piecewise`` (side 0, weight 1) and for a mixture's walk
    (``mixture._walk_pieces``: side 0 weighted q, side 1 weighted 1-q).  It
    checks the rows on the way.  A segment run, then an atom run: a segment
    sets its side's density ``weight * rise/(right - left)`` at its left end
    and clears it at its right end, where the set of a segment starting
    there replaces the clear; an atom adds ``weight`` times its mass.
    """
    events = []
    right = f_right = None
    for f_left, left, f_end, end, rise, ln, ld, rn, rd in seg_rows:
        if not (f_left < f_end or f_left == f_end and left < end):
            raise ValueError(f"segment [{left}, {end}] must have left < right")
        hn, hd = rise.numerator, rise.denominator
        if hn <= 0:
            raise ValueError(f"segment rise over [{left}, {end}] must be positive")
        if right is left or f_right == f_left and right == left:
            events.pop()
        elif right is not None and (f_right > f_left or f_right == f_left and right > left):
            raise ValueError("segment interiors must be pairwise disjoint")
        f_right, right = f_end, end
        density = (wn * hn * rd * ld, wd * hd * (rn * ld - ln * rd))
        events += ((f_left, left, ln, ld, side, density), (f_end, end, rn, rd, side, None))
    loc = f_loc = None
    for f_at, at, mass, ln, ld in atom_rows:
        mn, md = mass.numerator, mass.denominator
        if mn <= 0:
            raise ValueError(f"atom mass at {at} must be positive, got {mass}")
        if f_at == f_loc and at == loc:
            raise ValueError(f"duplicate atom location {at}")
        f_loc, loc = f_at, at
        events.append((f_at, at, ln, ld, None, (wn * mn, wd * md)))
    return events


def _pair_sum(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a + b on unreduced integer pairs (num, den)."""
    return a[0] * b[1] + b[0] * a[1], a[1] * b[1]


def _find_cut(pieces, cuts: array, key, value: Fraction, find) -> int:
    """``find(pieces, value, key=key)``, decided on the float copies ``cuts``.

    ``cuts[i]`` is the float of ``key(pieces[i])`` (``_quotient``).  Rounding
    is monotone, so a cut whose float lies below (above) the float of
    ``value`` lies below (above) ``value`` itself; only the run of cuts whose
    floats equal it is searched exactly, with ``find`` (``bisect.bisect_left``
    or ``bisect.bisect_right``).
    """
    f = _quotient(*value.as_integer_ratio())
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
    the support are all read from them.  The atoms and segments are read into
    rows (``_read_rows``), sorted, checked and turned into events
    (``_sweep_events``) and swept (``_sweep``), by the same code that builds a
    mixture's pieces from its components' stored ``atoms`` and ``segments``
    (``mixture._walk_pieces``).  Float copies of the two sorted cut columns,
    ``lev_hi`` and ``x_left``, let every bisection decide in float and compare
    ``Fraction`` keys only where the floats tie (``_find_cut``).  The build
    sorts and checks the same way, on the floats of the positions, which then
    fill ``_x_lefts``.  No rate is stored: the CDF inside a segment and the
    inverse both form their affine map from the piece's ends (``_affine_at``).
    """

    is_exact = True

    __slots__ = ("atoms", "segments", "_pieces", "_lev_his", "_x_lefts")

    def __init__(
        self,
        atoms: Iterable[tuple[RealLike, RealLike]] = (),
        segments: Iterable[tuple[RealLike, RealLike, RealLike]] = (),
    ) -> None:
        atom_rows, seg_rows = _read_rows(atoms, segments)
        atom_rows.sort(key=_FLOAT_THEN_EXACT)
        seg_rows.sort(key=_FLOAT_THEN_EXACT)
        self.atoms = tuple([(row[1], row[2]) for row in atom_rows])
        self.segments = tuple([(row[1], row[3], row[4]) for row in seg_rows])
        pieces, self._x_lefts, self._lev_his = _sweep(_sweep_events(atom_rows, seg_rows, 0, 1, 1))
        total = pieces[-1].lev_hi if pieces else _ZERO
        if total != 1:
            raise ValueError(f"atom masses plus segment rises must equal 1, got {total}")
        self._pieces = tuple(pieces)

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
        lev_lo, lev_hi, x_left, x_right = self._pieces[j]
        if x >= x_right:
            return lev_hi
        # Inside a segment: the piece's affine map, from positions to levels.
        return _affine_at(x, x_left, x_right, lev_lo, lev_hi)

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

    def is_continuous_at(self, x: RealLike) -> bool:
        x = as_fraction(x)
        # An atom at x is the first piece starting at or after x, and the
        # only such piece that also ends at x.
        j = _find_cut(self._pieces, self._x_lefts, _X_LEFT, x, bisect.bisect_left)
        return j == len(self._pieces) or self._pieces[j].x_right != x

    def flat_left_of(self, x: RealLike) -> tuple[bool, Fraction | None]:
        x = as_fraction(x)
        # The last piece starting below x covers x exactly when it is a
        # segment reaching x; otherwise the CDF is flat on (x_right, x).  An
        # atom's piece holds its point as one object twice (``_sweep``).
        j = _find_cut(self._pieces, self._x_lefts, _X_LEFT, x, bisect.bisect_left) - 1
        if j < 0:
            return True, x - 1
        _, _, x_left, x_right = self._pieces[j]
        if x_left is not x_right and x <= x_right:
            return False, None
        return True, (x_right + x) / 2

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
        if not all(math.isfinite(_quotient(*v.as_integer_ratio())) for v in (lo, hi, hi - lo)):
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


def _float_arg(x: RealLike) -> float:
    """x as the float a parametric family computes on.

    A float passes as it is, +-inf included, and NaN, which no CDF places,
    raises ``DomainError`` as ``Piecewise`` does.  An exact x past the float
    range has no float and raises ``DomainError``: saturating to +-inf
    would misplace it, since a law may still be far from 0 or 1 there.
    """
    if isinstance(x, float):
        if math.isnan(x):
            raise DomainError("parametric argument must not be NaN")
        return x
    x = as_fraction(x)
    f = _quotient(*x.as_integer_ratio())
    if math.isinf(f):
        raise DomainError("parametric argument lies past the float range (about +-1.8e308)")
    return f


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
        return self._cdf(_float_arg(x))

    def cdf_left_limit(self, x: RealLike) -> float:
        return self._cdf(_float_arg(x))

    def quantile(self, p: RealLike) -> float:
        p = float(p)
        if not 0.0 <= p <= 1.0:
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
        x = _float_arg(x)
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
