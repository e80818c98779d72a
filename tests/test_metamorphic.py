"""Metamorphic checks: answers that must move exactly with the input.

An increasing affine map x -> a*x + b of both components maps the mixture
quantile the same way and leaves every level alone, so the split's alpha*,
beta*, flags and case-table cell stay equal.  On piecewise pairs all of it
is exact.  On float pairs a power of two c scales every intermediate of the
Uniform, Normal and Exponential formulas exactly, so both float routes'
answers scale bitwise.  Neither check reads the solver's or direct
inversion's code: each compares one route with itself.

Reflecting both components, x -> -x, turns the quantile at 1 - p into minus
the upper quantile Q+_S(p) = inf {x : F_S(x) > p}, which differs from the
quantile exactly where F_S is flat at level p.  That checks the case
table's "flat to the left" convention from the other side.
"""

from fractions import Fraction as F

import pytest

from mixquant.classify import classify
from mixquant.distributions import Exponential, LogNormal, Normal, Piecewise, Uniform
from mixquant.mixture import MixtureSpec, direct_quantile
from mixquant.split import split_quantile
from mixquant.verification import P_GRID, InstanceGenConfig, generate_instance

from test_parametric_sweep import CASES, SEEDS, _split_row
from test_split import _wide_pair

#: (a, b) of the exact maps x -> a*x + b, a > 0, scales of 10**+-30 included.
AFFINE_MAPS = ((F(3), F(-7, 2)), (F(2, 7), F(5)), (F(10**30), F(-1, 3)), (F(1, 10**30), F(10**30)))
#: Exponents k of the float scales 2**k, clear of overflow and subnormals.
POWERS = (-20, -3, 1, 7, 30)


def _affine(d: Piecewise, a: F, b: F) -> Piecewise:
    return Piecewise(
        [(a * x + b, mass) for x, mass in d.atoms],
        [(a * left + b, a * right + b, rise) for left, right, rise in d.segments],
    )


def _split_and_cell(m, p):
    sol = split_quantile(m, p)
    return sol, classify(m, p, sol).label


def _assert_moves_with_the_map(m: MixtureSpec, levels) -> int:
    """Checks every map at every level; returns the number of checks."""
    base = [_split_and_cell(m, p) for p in levels]
    checks = 0
    for a, b in AFFINE_MAPS:
        mapped = MixtureSpec(m.q, _affine(m.x, a, b), _affine(m.y, a, b))
        for p, (sol, label) in zip(levels, base):
            got, got_label = _split_and_cell(mapped, p)
            assert got.s_p == a * sol.s_p + b, (m, p, a, b)
            assert (got.alpha_star, got.beta_star) == (sol.alpha_star, sol.beta_star)
            assert (got.x_attains, got.y_attains, got.clamped) == (
                sol.x_attains, sol.y_attains, sol.clamped
            )
            assert got_label == label, (m, p, a, b)
            checks += 1
    return checks


def test_exact_answers_move_with_affine_maps_on_generated_instances():
    cfg = InstanceGenConfig(seed=12)
    checks = 0
    for index in range(30):
        m, _ = generate_instance(cfg, index)
        for mm in (m, m.swapped()):
            checks += _assert_moves_with_the_map(mm, P_GRID)
    assert checks == 30 * 2 * len(P_GRID) * len(AFFINE_MAPS)


def test_exact_answers_move_with_affine_maps_on_a_wide_pair():
    m = _wide_pair()
    for mm in (m, m.swapped()):
        _assert_moves_with_the_map(mm, P_GRID)


def _reflected(d: Piecewise) -> Piecewise:
    return Piecewise(
        [(-x, mass) for x, mass in d.atoms],
        [(-right, -left, rise) for left, right, rise in d.segments],
    )


def _upper_quantile(m: MixtureSpec, p: F) -> F:
    """Q+_S(p): the first quantile piece that climbs past p, read at p."""
    pieces, _ = m.pieces
    return next(piece for piece in pieces if piece.lev_hi > p).value_at(p)


def _assert_reflects(m: MixtureSpec, levels) -> int:
    """Checks both routes at every level; returns the number of levels where
    the upper quantile is not the quantile."""
    reflected = MixtureSpec(m.q, _reflected(m.x), _reflected(m.y))
    plateaus = 0
    for p in levels:
        upper = _upper_quantile(m, p)
        assert split_quantile(reflected, 1 - p).s_p == -upper, (m, p)
        assert direct_quantile(reflected, 1 - p) == -upper, (m, p)
        plateaus += upper != direct_quantile(m, p)
    return plateaus


def test_reflection_turns_the_quantile_into_the_upper_quantile():
    cfg = InstanceGenConfig(seed=13)
    plateaus = 0
    for index in range(150):
        m, level = generate_instance(cfg, index)
        for mm in (m, m.swapped()):
            plateaus += _assert_reflects(mm, (*P_GRID, level))
    # The generator aims levels at plateau edges, where the check bites
    # (226 of the 6,000 checks).
    assert plateaus >= 150


def _scaled(d, c: float):
    if isinstance(d, Uniform):
        return Uniform(c * d.a, c * d.b)
    if isinstance(d, Normal):
        return Normal(c * d.mu, c * d.sigma)
    return Exponential(d.rate / c)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_answers_scale_bitwise_with_powers_of_two(seed):
    cases = [
        (m, p) for m, p in CASES[seed]
        if not isinstance(m.x, LogNormal) and not isinstance(m.y, LogNormal)
    ]
    assert len(cases) == 1120
    for i, (m, p) in enumerate(cases):
        s_direct = direct_quantile(m, p)
        s_split, alpha, beta = _split_row(m, p)
        # Two powers per case, in turn, so each one meets every sweep cell.
        for k in (POWERS[i % len(POWERS)], POWERS[(i + 2) % len(POWERS)]):
            c = 2.0**k
            mapped = MixtureSpec(m.q, _scaled(m.x, c), _scaled(m.y, c))
            assert direct_quantile(mapped, p).hex() == (c * s_direct).hex(), (m, p, k)
            got, got_alpha, got_beta = _split_row(mapped, p)
            assert got.hex() == (c * s_split).hex(), (m, p, k)
            assert (got_alpha, got_beta) == (alpha, beta), (m, p, k)
