"""Naive second-path implementations used as oracles by the unit tests.

Everything here recomputes piecewise CDF/quantile facts from the raw atom
and segment lists by direct scanning, sharing no code with the package's
precomputed-piece machinery, and parses exact numbers by the plain
two-regex rule.  Slow and obvious on purpose.
"""

import re
from fractions import Fraction

NEG_INF = float("-inf")

def ref_cdf(d, x):
    """P(X <= x) summed feature by feature."""
    x = Fraction(x) if not isinstance(x, Fraction) else x
    total = Fraction(0)
    for loc, mass in d.atoms:
        if loc <= x:
            total += mass
    for left, right, rise in d.segments:
        if x >= right:
            total += rise
        elif x > left:
            total += rise * (x - left) / (right - left)
    return total


def ref_cdf_left(d, x):
    """lim_{z -> x-} P(X <= z): the CDF minus any atom sitting at x."""
    x = Fraction(x) if not isinstance(x, Fraction) else x
    value = ref_cdf(d, x)
    for loc, mass in d.atoms:
        if loc == x:
            value -= mass
    return value


def breakpoints(d):
    pts = {loc for loc, _ in d.atoms}
    pts |= {left for left, _, _ in d.segments}
    pts |= {right for _, right, _ in d.segments}
    return sorted(pts)


def ref_quantile(d, p):
    """inf {x : ref_cdf(x) >= p} by scanning breakpoints left to right."""
    p = Fraction(p) if not isinstance(p, Fraction) else p
    if p == 0:
        return NEG_INF
    pts = breakpoints(d)
    for a, b in zip(pts, pts[1:]):
        if ref_cdf(d, a) >= p:
            return a
        left_at_b = ref_cdf_left(d, b)
        if left_at_b >= p:
            base = ref_cdf(d, a)
            slope = (left_at_b - base) / (b - a)
            return a + (p - base) / slope
    return pts[-1]


def ref_flat_left_of(d, x):
    """Whether the CDF is flat just left of x, with a witness, by scanning.

    Not flat when a segment has left < x <= right.  Otherwise the witness is
    the midpoint between x and the nearest feature end below it, or x - 1
    when there is none.
    """
    x = Fraction(x) if not isinstance(x, Fraction) else x
    nearest = None
    for left, right, _ in d.segments:
        if left < x <= right:
            return False, None
        if right < x and (nearest is None or right > nearest):
            nearest = right
    for loc, _ in d.atoms:
        if loc < x and (nearest is None or loc > nearest):
            nearest = loc
    return True, (x - 1 if nearest is None else (nearest + x) / 2)


def ref_merged(m):
    """The merged mixture's ``(atoms, segments)`` tuples, quadratically.

    Every interval between consecutive segment endpoints sums the scaled
    rise of each segment of either component that covers it.
    """
    if m.q == 1:
        return m.x.atoms, m.x.segments
    if m.q == 0:
        return m.y.atoms, m.y.segments
    atoms = {}
    for weight, comp in ((m.q, m.x), (1 - m.q, m.y)):
        for loc, mass in comp.atoms:
            atoms[loc] = atoms.get(loc, Fraction(0)) + weight * mass
    scaled = [
        (left, right, weight * rise)
        for weight, comp in ((m.q, m.x), (1 - m.q, m.y))
        for left, right, rise in comp.segments
    ]
    cuts = sorted({e for left, right, _ in scaled for e in (left, right)})
    segments = []
    for lo, hi in zip(cuts, cuts[1:]):
        rise = sum(
            (h * (hi - lo) / (r - l) for l, r, h in scaled if l <= lo and hi <= r),
            Fraction(0),
        )
        if rise:
            segments.append((lo, hi, rise))
    return tuple(sorted(atoms.items())), tuple(segments)


def ref_solve_split(m, p):
    """``(alpha*, beta*, clamped)`` for an exact pair by a sorted candidate grid.

    Every level where either generalized inverse changes its affine stretch,
    Y's mapped to alpha, goes into one sorted grid; a binary search finds the
    first candidate where the ordering holds, and the cell just below it is
    solved as a line.  Needs 0 < q < 1 and 0 < p < 1.
    """
    q = m.q
    alpha_min = max(Fraction(0), (p - (1 - q)) / q)
    alpha_max = min(Fraction(1), p / q)

    def beta_of(alpha):
        return (p - q * alpha) / (1 - q)

    def holds(alpha):
        return m.x.quantile(alpha) >= m.y.quantile(beta_of(alpha))

    candidates = {alpha_min, alpha_max}
    for cut in [Fraction(0)] + [piece.lev_hi for piece in m.x.quantile_pieces()]:
        if alpha_min <= cut <= alpha_max:
            candidates.add(cut)
    for cut in [Fraction(0)] + [piece.lev_hi for piece in m.y.quantile_pieces()]:
        alpha = (p - (1 - q) * cut) / q
        if alpha_min <= alpha <= alpha_max:
            candidates.add(alpha)
    grid = sorted(candidates)

    lo, hi = 0, len(grid)
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    if lo == len(grid):
        return alpha_max, beta_of(alpha_max), True
    if lo == 0:
        return grid[0], beta_of(grid[0]), False

    a_lo, a_hi = grid[lo - 1], grid[lo]
    mid = (a_lo + a_hi) / 2
    x_int, x_slope = _affine(_piece_containing(m.x, mid))
    y_int, y_slope = _affine(_piece_containing(m.y, beta_of(mid)))
    # Qx(alpha) - Qy(beta(alpha)) = d_int + d_slope*alpha on the cell
    d_int = x_int - y_int - y_slope * p / (1 - q)
    d_slope = x_slope + y_slope * q / (1 - q)
    if d_int + d_slope * a_lo >= 0:
        alpha = a_lo
    elif d_slope > 0 and -d_int / d_slope < a_hi:
        alpha = -d_int / d_slope
    else:
        alpha = a_hi
    return alpha, beta_of(alpha), False


def _piece_containing(d, level):
    for piece in d.quantile_pieces():
        if piece.lev_lo < level <= piece.lev_hi:
            return piece
    raise ValueError(f"no piece contains level {level}")


def _affine(piece):
    """Intercept and slope of the piece's level-to-value line."""
    if piece.x_left == piece.x_right:
        return piece.x_left, Fraction(0)
    slope = (piece.x_right - piece.x_left) / (piece.lev_hi - piece.lev_lo)
    return piece.x_left - slope * piece.lev_lo, slope


_REF_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$", re.ASCII)
_REF_RATIO_RE = re.compile(r"^[+-]?\d+/\d+$", re.ASCII)


def ref_parse_exact_number(value, where="number"):
    """The exact-number rule of mixture documents, written the slow way.

    A string is stripped and must match a plain decimal or an "n/d" ratio
    in ASCII digits; ``Fraction`` then parses all of it.  Rejections raise
    ``ValueError`` with the package's message.
    """
    if isinstance(value, bool):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"{where}: raw JSON floats are not exact; write the number as a decimal string"
        )
    if isinstance(value, str):
        text = value.strip()
        if _REF_DECIMAL_RE.match(text) or _REF_RATIO_RE.match(text):
            try:
                return Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{where}: cannot parse {value!r}: {exc}") from None
        raise ValueError(
            f"{where}: {value!r} is not a plain decimal or n/d ratio "
            "(scientific notation is rejected)"
        )
    raise ValueError(f"{where}: expected a number, got {type(value).__name__}")
