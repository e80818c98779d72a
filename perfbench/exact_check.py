"""Exact acceptance check for a mixture quantile.

The check shares no code with mixquant's split solver or its merge: it reads
the components' ``atoms`` and ``segments`` tuples and evaluates the mixture
CDF ``F_S = q*F + (1-q)*G`` feature by feature in rational arithmetic.  It
accepts ``s`` as the quantile at level ``p`` only if

1. ``F_S(s) >= p``;
2. ``F_S(s-) <= p``;
3. ``F_S(z) < p`` at the midpoint ``z`` between ``s`` and the nearest
   component breakpoint below ``s`` (``z = s - 1`` when there is none).

``F_S`` is affine between breakpoints, so (2) and (3) together put
``F_S < p`` on the whole open stretch below ``s``, and with (1) that makes
``s = inf {x : F_S(x) >= p}``.

Run ``python3 perfbench/exact_check.py`` for the self-test.
"""

from __future__ import annotations

from fractions import Fraction


def component_cdf(comp, x: Fraction, left_limit: bool = False) -> Fraction:
    """F(x), or F(x-) with ``left_limit``, summed over every atom and segment."""
    total = Fraction(0)
    for loc, mass in comp.atoms:
        if loc < x or (loc == x and not left_limit):
            total += mass
    for left, right, rise in comp.segments:
        if x >= right:
            total += rise
        elif x > left:
            total += rise * (x - left) / (right - left)
    return total


def mixture_cdf(q: Fraction, x_comp, y_comp, x: Fraction, left_limit: bool = False) -> Fraction:
    return q * component_cdf(x_comp, x, left_limit) + (1 - q) * component_cdf(
        y_comp, x, left_limit
    )


def _breakpoints(comp):
    for loc, _ in comp.atoms:
        yield loc
    for left, right, _ in comp.segments:
        yield left
        yield right


def quantile_violation(q, x_comp, y_comp, p, s) -> str | None:
    """None when ``s`` is exactly the mixture quantile at ``p``, else the failed condition."""
    if not isinstance(s, Fraction):
        return f"s = {s!r} is not an exact rational"
    if mixture_cdf(q, x_comp, y_comp, s) < p:
        return "F_S(s) < p"
    if mixture_cdf(q, x_comp, y_comp, s, left_limit=True) > p:
        return "F_S(s-) > p"
    below = [b for comp in (x_comp, y_comp) for b in _breakpoints(comp) if b < s]
    z = s - 1 if not below else (max(below) + s) / 2
    if mixture_cdf(q, x_comp, y_comp, z) >= p:
        return f"F_S({z}) >= p below s"
    return None


class _Component:
    """Bare atoms/segments holder, so the self-test needs no mixquant import."""

    def __init__(self, atoms=(), segments=()):
        self.atoms = tuple((Fraction(a), Fraction(m)) for a, m in atoms)
        self.segments = tuple((Fraction(l), Fraction(r), Fraction(h)) for l, r, h in segments)


def self_test() -> None:
    """Raises AssertionError unless the check accepts true quantiles and rejects
    a plateau's right end and answers shifted by 1/10^9."""
    half, quarter, shift = Fraction(1, 2), Fraction(1, 4), Fraction(1, 10**9)
    # X rises on [0, 1], stays flat on [1, 2], rises again on [2, 3]; Y has an
    # atom at 5 and a segment [6, 7].  With q = 1/2, F_S = 1/4 on [1, 2].
    x = _Component(segments=[(0, 1, half), (2, 3, half)])
    y = _Component(atoms=[(5, half)], segments=[(6, 7, half)])
    cases = [
        (quarter, Fraction(1)),  # left end of the plateau
        (Fraction(1, 8), half),  # interior of a rising stretch
        (Fraction(5, 8), Fraction(5)),  # inside the jump at the atom
        (Fraction(3, 4), Fraction(5)),  # top of the jump, flat right after
    ]
    for p, s in cases:
        assert quantile_violation(half, x, y, p, s) is None, (p, s)
        assert quantile_violation(half, x, y, p, s + shift) is not None, (p, s, "+")
        assert quantile_violation(half, x, y, p, s - shift) is not None, (p, s, "-")
    assert quantile_violation(half, x, y, quarter, Fraction(2)) is not None, "plateau right end"
    assert quantile_violation(half, x, y, quarter, Fraction(3, 2)) is not None, "plateau inside"
    assert quantile_violation(half, x, y, quarter, 1.0) is not None, "float answer"


if __name__ == "__main__":
    self_test()
    print("exact_check self-test passed")
