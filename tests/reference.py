"""Naive second-path implementations used as oracles by the unit tests.

Everything here recomputes piecewise CDF/quantile facts from the raw atom
and segment lists by direct scanning, sharing no code with the package's
precomputed-piece machinery.  Slow and obvious on purpose.
"""

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
