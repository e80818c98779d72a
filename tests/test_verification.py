"""Oracles, instance generation, and the cross-check harness."""

import dataclasses
import hashlib
import json
import math
import statistics
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from mixquant import verification
from mixquant.classify import CaseLabel
from mixquant.distributions import (
    FLOAT_TOL,
    DomainError,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    Uniform,
)
from mixquant.mixture import MixtureSpec, numeric_quantile
from mixquant.serialization import exact_number_to_string, serialize_mixture
from mixquant.split import QuantileSolution
from mixquant.verification import (
    GridOracleConfig,
    InstanceGenConfig,
    cross_check,
    generate_instance,
    grid_oracle_quantile,
    monte_carlo_quantile,
    run_suite,
)

# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def test_grid_oracle_on_two_point_masses():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    cfg = GridOracleConfig(-1.0, 2.0, 3001)
    val = grid_oracle_quantile(m, F(1, 4), cfg)
    assert abs(val - 0.0) <= cfg.step


def test_grid_oracle_on_shifted_uniforms():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    cfg = GridOracleConfig(-1.0, 3.0, 4001)
    val = grid_oracle_quantile(m, F(1, 4), cfg)
    assert abs(val - 0.5) <= cfg.step


def test_grid_oracle_on_identical_point_masses():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(3), Piecewise.point_mass(3))
    cfg = GridOracleConfig(2.0, 4.0, 2001)
    val = grid_oracle_quantile(m, F(1, 2), cfg)
    assert abs(val - 3.0) <= cfg.step


def test_grid_oracle_reaches_a_level_exactly_at_its_slack():
    # F_S is exactly 3/4 - FLOAT_TOL in float on the grid point 0, so p = 3/4
    # is reached there, and the next float up only at 1.
    slack = 0.75 - FLOAT_TOL
    x = Piecewise([(0, F(slack)), (1, 1 - F(slack))])
    m = MixtureSpec(F(1, 2), x, x)
    cfg = GridOracleConfig(-1.0, 1.0, 3)
    above = math.nextafter(0.75, 1.0)
    assert above - FLOAT_TOL > slack
    assert grid_oracle_quantile(m, F(3, 4), cfg) == 0.0
    assert grid_oracle_quantile(m, above, cfg) == 1.0


def test_grid_oracle_raises_when_level_is_out_of_reach():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    with pytest.raises(ArithmeticError):
        grid_oracle_quantile(m, F(3, 4), GridOracleConfig(-1.0, 0.5, 101))


def test_grid_oracle_rejects_endpoint_levels():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    cfg = GridOracleConfig(-1.0, 2.0, 101)
    with pytest.raises(DomainError):
        grid_oracle_quantile(m, 0, cfg)
    with pytest.raises(DomainError):
        grid_oracle_quantile(m, 1, cfg)


@pytest.mark.parametrize(
    "x, y",
    [
        (Uniform(0.0, 2.0), Exponential(1.5)),
        (LogNormal(0.0, 0.5), Uniform(1.0, 3.0)),
        (Exponential(0.5), LogNormal(1.0, 1.0)),
    ],
    ids=["uniform-exponential", "lognormal-uniform", "exponential-lognormal"],
)
def test_grid_oracle_on_float_families_is_within_one_step(x, y):
    m = MixtureSpec(F(1, 3), x, y)
    cfg = GridOracleConfig.from_mixture(m, steps=20_001)
    for p in (F(1, 10), F(1, 2), F(9, 10)):
        assert abs(grid_oracle_quantile(m, p, cfg) - numeric_quantile(m, p)) <= cfg.step


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridOracleConfig(1.0, 1.0, 100)
    with pytest.raises(ValueError):
        GridOracleConfig(0.0, 1.0, 1)


def test_grid_config_rejects_a_zero_or_infinite_step():
    # Over [0, 5e-324] in 3 steps the step rounds to 0, where the grid's
    # points no longer follow from it; a span beyond the float range makes
    # it infinite.
    with pytest.raises(ValueError, match="positive and finite"):
        GridOracleConfig(0.0, 5e-324, 3)
    with pytest.raises(ValueError, match="positive and finite"):
        GridOracleConfig(-1.5e308, 1.5e308, 101)


def test_grid_config_from_mixture_rejects_a_hull_wider_than_the_float_range():
    m = MixtureSpec(F(1, 2), Uniform(-1.5e308, -1e308), Uniform(1e308, 1.5e308))
    for mm in (m, m.swapped()):
        with pytest.raises(DomainError, match="float range"):
            GridOracleConfig.from_mixture(mm, steps=10_001)


def test_grid_config_from_mixture_pads_the_support_hull():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    cfg = GridOracleConfig.from_mixture(m, steps=100)
    assert cfg.lo == -1.0 and cfg.hi == 3.0 and cfg.steps == 100


@pytest.mark.parametrize(
    "x, y",
    [
        (Piecewise.point_mass(10**300), Piecewise.point_mass(10**300)),
        (Piecewise.point_mass(10**16), Piecewise.point_mass(10**16 + 4)),
        (Piecewise.point_mass(-(10**300)), Piecewise.uniform(10**300, 2 * 10**300)),
    ],
)
def test_grid_config_from_mixture_pads_by_a_float_step_beyond_2_53(x, y):
    # A one-unit pad is absorbed at these magnitudes: the hull of the first
    # pair stayed [1e300, 1e300] and raised "grid needs lo < hi".
    m = MixtureSpec(F(1, 2), x, y)
    for mm in (m, m.swapped()):
        cfg = GridOracleConfig.from_mixture(mm, steps=10_001)
        assert cfg.lo < float(min(x.support_bounds()[0], y.support_bounds()[0]))
        assert cfg.hi > float(max(x.support_bounds()[1], y.support_bounds()[1]))
        for p in (F(1, 4), F(1, 2), F(3, 4)):
            assert cross_check(mm, p, cfg).failures == (), p


def test_grid_config_from_mixture_handles_unbounded_support():
    m = MixtureSpec(F(1, 2), Normal(0, 1), Normal(1, 1))
    cfg = GridOracleConfig.from_mixture(m, steps=100)
    assert cfg.lo < -5.0 and cfg.hi > 6.0


def test_grid_config_from_mixture_rejects_a_support_beyond_the_float_range():
    # The exact routes answer this mixture (s_p = 1 at p = 3/4), but no
    # float grid reaches the atom at -10**400.
    far = Piecewise(atoms=[(-(10**400), F(1, 2))], segments=[(0, 1, F(1, 2))])
    m = MixtureSpec(F(1, 2), far, Piecewise.uniform(0, 2))
    for mm in (m, m.swapped()):
        with pytest.raises(DomainError, match="float range"):
            GridOracleConfig.from_mixture(mm, steps=100)
        report = cross_check(mm, F(3, 4))
        assert report.passed and report.s_p == 1


@pytest.mark.parametrize(
    "m, message",
    [
        # An atom with no float: its float() raised OverflowError.
        (
            MixtureSpec(
                F(1, 2),
                Piecewise.uniform(0, 1),
                Piecewise([(-(10**400), F(1, 4))], [(0, 1, F(3, 4))]),
            ),
            "position",
        ),
        # Float ends, but a float width of inf: the ramp read 0 at every
        # point, so the grid answered 1.01 where s_p is 1/2.
        (
            MixtureSpec(F(1, 2), Piecewise.uniform(-(10**308), 10**308), Piecewise.uniform(0, 1)),
            "width",
        ),
    ],
    ids=["atom", "segment"],
)
def test_grid_oracle_rejects_a_caller_grid_over_a_feature_past_the_float_range(m, message):
    # A caller's grid skips from_mixture's hull check, so the grid CDF
    # itself names the float range, and cross_check raises it rather than
    # reporting a false grid failure.
    cfg = GridOracleConfig(-1.0, 2.0, 101)
    for mm in (m, m.swapped()):
        with pytest.raises(DomainError, match=f"{message} exceeds the float range"):
            grid_oracle_quantile(mm, F(1, 2), cfg)
        with pytest.raises(DomainError, match="float range"):
            cross_check(mm, F(1, 2), cfg)
        assert cross_check(mm, F(1, 2)).passed


def _dense_cdf_grid(d, xs):
    """A piecewise CDF with every feature evaluated on every grid point."""
    out = np.zeros_like(xs)
    for loc, mass in d.atoms:
        out += float(mass) * (xs >= float(loc))
    for left, right, rise in d.segments:
        left_f, right_f = float(left), float(right)
        out += float(rise) * np.clip((xs - left_f) / (right_f - left_f), 0.0, 1.0)
    return out


def _feature_indices(m, xs):
    """Both grid ends, every 37th point, and the points on and beside each
    atom and segment end of either piecewise component: where a feature's
    share of the CDF changes form."""
    last = len(xs) - 1
    wanted = {0, last, *range(0, last, 37)}
    for comp in (m.x, m.y):
        ends = [loc for loc, _ in comp.atoms]
        ends += [end for left, right, _ in comp.segments for end in (left, right)]
        for end in ends:
            k = int(np.searchsorted(xs, float(end)))
            wanted |= {k - 1, k, k + 1}
    return [i for i in sorted(wanted) if 0 <= i <= last]


def _assert_grid_cdf_is_dense(m, xs, dense, indices):
    # Each component's scalar grid CDF equals the dense reference bit for bit
    # at every point of ``indices``.
    for comp, expected in zip((m.x, m.y), dense):
        cdf = verification._grid_cdf(comp)
        values = np.array([cdf(x) for x in xs[indices].tolist()])
        assert values.tobytes() == expected[indices].tobytes()


def _assert_sliced_grid_is_dense(m, cfg, levels):
    # Component CDFs bitwise equal to the dense ones where features begin and
    # end, and the same grid answer (or the same refusal) at every level.
    xs = np.linspace(cfg.lo, cfg.hi, cfg.steps)
    dense = [_dense_cdf_grid(comp, xs) for comp in (m.x, m.y)]
    _assert_grid_cdf_is_dense(m, xs, dense, _feature_indices(m, xs))
    q = float(m.q)
    fs = q * dense[0] + (1.0 - q) * dense[1]
    for p in levels:
        hits = fs >= float(p) - FLOAT_TOL
        if hits.any():
            assert grid_oracle_quantile(m, p, cfg) == float(xs[int(np.argmax(hits))])
        else:
            with pytest.raises(ArithmeticError):
                grid_oracle_quantile(m, p, cfg)


@pytest.mark.parametrize("seed", [0, 1, 7919])
def test_sliced_grid_cdf_equals_the_dense_scan_on_generated_instances(seed):
    cfg = InstanceGenConfig(seed=seed)
    for index in range(300):
        m, p = generate_instance(cfg, index)
        grid = GridOracleConfig.from_mixture(m, steps=10_001)
        _assert_sliced_grid_is_dense(m, grid, [p, F(1, 3), F(19, 20)])


def test_sliced_grid_cdf_equals_the_dense_scan_on_a_wide_component():
    # 200 adjacent unit segments with an atom on every third segment end,
    # against the same shape offset by 1/3.
    def wide(offset):
        atoms = [(k + offset, 1) for k in range(0, 201, 3)]
        segments = [(k + offset, k + 1 + offset, 2) for k in range(200)]
        total = len(atoms) + 2 * len(segments)
        return Piecewise(
            [(loc, F(w, total)) for loc, w in atoms],
            [(left, right, F(w, total)) for left, right, w in segments],
        )

    m = MixtureSpec(F(1, 3), wide(0), wide(F(1, 3)))
    levels = [F(k, 97) for k in range(1, 97)]
    _assert_sliced_grid_is_dense(m, GridOracleConfig.from_mixture(m, steps=10_001), levels)
    # A grid whose points fall on every segment end of the first component.
    _assert_sliced_grid_is_dense(m, GridOracleConfig(-1.0, 201.0, 203), levels)


def test_sliced_grid_cdf_equals_the_dense_scan_on_grid_points_and_outside_the_grid():
    cfg = GridOracleConfig(-1.0, 2.0, 301)
    xs = np.linspace(cfg.lo, cfg.hi, cfg.steps)
    on = [F(float(xs[j])) for j in (0, 7, 100, 150, 151, 300)]
    # Atoms and segment ends exactly on grid points, including both grid ends.
    on_grid = Piecewise(
        [(on[0], F(1, 8)), (on[2], F(1, 8)), (on[5], F(1, 8))],
        [(on[1], on[2], F(1, 4)), (on[3], on[4], F(1, 8)), (on[4], on[5], F(1, 4))],
    )
    # Features wholly below, wholly above and straddling each end of the grid.
    outside = Piecewise(
        [(-3, F(1, 8)), (5, F(1, 8)), (F(-1, 2), F(1, 8))],
        [(-4, -2, F(1, 8)), (-2, F(1, 2), F(1, 4)), (F(3, 2), 4, F(1, 8)), (6, 7, F(1, 8))],
    )
    levels = [F(k, 20) for k in range(1, 20)]
    for m in (
        MixtureSpec(F(1, 2), on_grid, outside),
        MixtureSpec(F(1, 4), outside, on_grid),
        MixtureSpec(F(3, 5), outside, outside),
    ):
        _assert_sliced_grid_is_dense(m, cfg, levels)


def test_grid_points_are_the_linspace_points():
    # The scalar point map at both ends, beside them and at sampled indices.
    rng, picks = np.random.default_rng(20), np.random.default_rng(21)
    for _ in range(500):
        scale = 10.0 ** rng.uniform(-8, 10)
        lo = float(rng.uniform(-2, 2)) * scale
        hi = lo + float(rng.uniform(0.01, 3)) * scale
        cfg = GridOracleConfig(lo, hi, int(rng.integers(2, 12_346)))
        dense = np.linspace(cfg.lo, cfg.hi, cfg.steps)
        ends = {0, 1, cfg.steps - 2, cfg.steps - 1}
        idx = sorted(ends | set(picks.integers(cfg.steps, size=40).tolist()))
        points = np.array([cfg.point(i) for i in idx])
        assert points.tobytes() == dense[idx].tobytes(), cfg


_STD_NORMAL = statistics.NormalDist()


def _dense_family_cdf(d, xs):
    """A component's CDF on every point of ``xs``: normal ones in the erf
    form, exponential and lognormal ones through ``math.expm1`` and
    ``math.log`` (numpy's can differ by an ulp), one element at a time."""
    if isinstance(d, Piecewise):
        return _dense_cdf_grid(d, xs)
    if isinstance(d, Uniform):
        return np.clip((xs - d.a) / (d.b - d.a), 0.0, 1.0)
    if isinstance(d, Normal):
        return np.array([_STD_NORMAL.cdf(z) for z in ((xs - d.mu) / d.sigma).tolist()])
    if isinstance(d, Exponential):
        return np.array([-math.expm1(-d.rate * x) if x > 0.0 else 0.0 for x in xs.tolist()])
    assert isinstance(d, LogNormal)
    return np.array(
        [
            _STD_NORMAL.cdf((math.log(x) - d.mu) / d.sigma) if x > 0.0 else 0.0
            for x in xs.tolist()
        ]
    )


def _assert_bisection_is_the_full_scan(m, cfg, levels):
    # Every component's grid CDF equals the dense reference bit for bit at
    # every grid point, and at each level the grid oracle returns the full
    # scan's first reaching point, or refuses as the scan does.  Returns the
    # index each level hit.
    xs = np.linspace(cfg.lo, cfg.hi, cfg.steps)
    dense = [_dense_family_cdf(comp, xs) for comp in (m.x, m.y)]
    _assert_grid_cdf_is_dense(m, xs, dense, list(range(cfg.steps)))
    q = float(m.q)
    fs = q * dense[0] + (1.0 - q) * dense[1]
    found = []
    for p in levels:
        hits = fs >= float(p) - FLOAT_TOL
        if hits.any():
            found.append(int(np.argmax(hits)))
            assert grid_oracle_quantile(m, p, cfg) == float(xs[found[-1]]), (cfg, p)
        else:
            found.append(None)
            with pytest.raises(ArithmeticError):
                grid_oracle_quantile(m, p, cfg)
    return fs, found


#: One of each parametric family, all strictly increasing on [0.05, 3.5].
_FAMILIES = {
    "uniform": Uniform(0.0, 5.0),
    "normal": Normal(2.0, 0.75),
    "exponential": Exponential(0.7),
    "lognormal": LogNormal(0.2, 0.8),
}
_FAMILY_PAIRS = [
    ("uniform", "normal"),
    ("normal", "exponential"),
    ("exponential", "lognormal"),
    ("lognormal", "uniform"),
    ("normal", "lognormal"),
    ("uniform", "exponential"),
    ("normal", "normal"),
]


def _target_indices(steps):
    """Grid indices where the first reaching point is put: both ends and
    beside them, on and beside the bisection's first probe, and a spread of
    points between."""
    stride, last, half = math.isqrt(steps), steps - 1, steps // 2
    final = stride * ((last - 1) // stride)
    middle = stride * (last // stride // 2)
    wanted = {0, 1, stride, stride + 1, middle, middle + 1, half - 1, half, half + 1}
    wanted |= {final + 1, (final + last) // 2, last - 1, last}
    return sorted(i for i in wanted if 0 <= i <= last)


@pytest.mark.parametrize("steps", [2, 3, 10, 101, 1000, 10_001, 12_345])
@pytest.mark.parametrize("x, y", _FAMILY_PAIRS, ids=["-".join(pair) for pair in _FAMILY_PAIRS])
def test_two_pass_grid_scan_equals_the_full_scan(x, y, steps):
    m = MixtureSpec(F(2, 5), _FAMILIES[x], _FAMILIES[y])
    cfg = GridOracleConfig(0.05, 3.5, steps)
    fs, _ = _assert_bisection_is_the_full_scan(m, cfg, [F(k, 97) for k in range(1, 97)])
    # Levels halfway between neighbouring grid CDF values put the first
    # reaching point on each target index; index 0 takes a level at or below
    # the slack, and a level above the last value is reached nowhere.
    targets = _target_indices(steps)
    levels = [
        5e-10 if i == 0 else 0.5 * (fs[i - 1] + fs[i]) + FLOAT_TOL for i in targets
    ] + [0.5 * (fs[-1] + 1.0)]
    _, found = _assert_bisection_is_the_full_scan(m, cfg, levels)
    assert found == targets + [None]


def test_two_pass_grid_scan_equals_the_full_scan_on_a_piecewise_step_pair():
    # Plateaus make many grid points share a CDF value: the first reaching
    # point is the plateau's left end, wherever the bisection probes it.
    m = MixtureSpec(
        F(1, 3),
        Piecewise([(F(1, 3), F(1, 4)), (2, F(1, 4))], [(F(1, 2), 1, F(1, 2))]),
        Normal(3.0, 0.2),
    )
    levels = [F(k, 97) for k in range(1, 97)]
    for steps in (2, 3, 10, 101, 10_001, 12_345):
        _assert_bisection_is_the_full_scan(m, GridOracleConfig(0.0, 4.0, steps), levels)


@pytest.mark.parametrize("steps", [2, 3, 10, 101, 10_001, 12_345])
def test_grid_oracle_evaluates_each_cdf_at_most_bit_length_times(monkeypatch, steps):
    counts = []
    grid_cdf = VERIFICATION._grid_cdf

    def counted(d):
        cdf, count = grid_cdf(d), [0]
        counts.append(count)

        def probe(x):
            count[0] += 1
            return cdf(x)

        return probe

    monkeypatch.setattr(VERIFICATION, "_grid_cdf", counted)
    pairs = (
        MixtureSpec(
            F(1, 3), Piecewise([(F(1, 3), F(1, 2))], [(F(1, 2), 1, F(1, 2))]), Normal(3.0, 0.2)
        ),
        MixtureSpec(F(3, 5), Exponential(0.7), LogNormal(0.2, 0.8)),
    )
    # Levels reached at the first point, inside, and nowhere on the grid.
    levels = [5e-10, *(F(k, 13) for k in range(1, 13)), 1 - 1e-12]
    for m in pairs:
        cfg = GridOracleConfig(0.0, 4.0, steps)
        for p in levels:
            try:
                grid_oracle_quantile(m, p, cfg)
            except ArithmeticError:
                pass
            x_count, y_count = counts[-2:]
            assert 1 <= x_count[0] == y_count[0] <= steps.bit_length(), (m, p)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------


def test_monte_carlo_degenerate_weight_is_exact():
    m = MixtureSpec(1, Piecewise.point_mass(3), Piecewise.uniform(0, 1))
    assert monte_carlo_quantile(m, F(1, 2), 10_000, seed=7) == 3.0


def test_monte_carlo_on_identical_uniforms():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(0, 1))
    val = monte_carlo_quantile(m, F(1, 2), 1_000_000, seed=11)
    assert abs(val - 0.5) < 0.002


def test_monte_carlo_lands_on_the_atom():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    assert monte_carlo_quantile(m, F(1, 4), 1_000_000, seed=3) == 0.0


def test_monte_carlo_is_seed_deterministic():
    m = MixtureSpec(F(1, 3), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    a = monte_carlo_quantile(m, F(3, 5), 50_000, seed=21)
    b = monte_carlo_quantile(m, F(3, 5), 50_000, seed=21)
    assert a == b


def test_monte_carlo_validation():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    with pytest.raises(DomainError):
        monte_carlo_quantile(m, 0, 100, seed=1)
    with pytest.raises(DomainError):
        monte_carlo_quantile(m, F(1, 2), 0, seed=1)


def test_monte_carlo_answers_follow_the_order_statistic_law():
    # The answer is the k-th smallest of n draws of S, k = ceil(n*p), so
    # P(answer <= t) = P(Binomial(n, F_S(t)) >= k) exactly.  Over 8,000
    # seeds the empirical CDF of the answers stays within the DKW band
    # sqrt(ln(2/1e-6) / (2 * 8000)) = 0.030 of that law at every t, except
    # with probability 1e-6; it reads 0.011.  This reads the law, not seeded
    # values.  Rank k - 1 reads 0.060, rank k + 1 0.052, a fixed X count
    # round(n*q) 0.039 and binomial(n, 1 - q) 0.98, all outside the band
    # (at 2,000 seeds, with a band of 0.060, rank k + 1 and the fixed count
    # passed).  X and Y drawn from two generators seeded alike reads 0.018
    # and passes: the layout test in test_mixture.py pins that.
    m = MixtureSpec(F(1, 3), Uniform(0.0, 1.0), Uniform(0.5, 1.5))
    n, runs, k = 200, 8_000, 100
    answers = np.array([monte_carlo_quantile(m, F(1, 2), n, seed) for seed in range(runs)])

    def law(t):
        f = min(max(t, 0.0), 1.0) / 3 + 2 * min(max(t - 0.5, 0.0), 1.0) / 3
        return sum(math.comb(n, j) * f**j * (1 - f) ** (n - j) for j in range(k, n + 1))

    band = math.sqrt(math.log(2 / 1e-6) / (2 * runs))
    gap = max(abs(np.count_nonzero(answers <= t) / runs - law(t)) for t in np.linspace(0.5, 1.2, 60))
    assert gap < band, (gap, band)


# ---------------------------------------------------------------------------
# instance generator
# ---------------------------------------------------------------------------


def test_generate_instance_is_deterministic():
    cfg = InstanceGenConfig(seed=42)
    for index in (0, 1, 17, 93):
        m1, p1 = generate_instance(cfg, index)
        m2, p2 = generate_instance(cfg, index)
        assert (m1.q, p1) == (m2.q, p2)
        assert m1.x.atoms == m2.x.atoms and m1.x.segments == m2.x.segments
        assert m1.y.atoms == m2.y.atoms and m1.y.segments == m2.y.segments


def test_generated_instances_are_stable_across_versions():
    # The first instances at a seed, as mixture documents plus levels; any
    # change to what the generator draws or builds moves these digests.
    pinned = {
        (20240811, 200): "1ef6dd376f43b0eb50db1dd83d67d1a560908a9095bdf1535bec073a4c3c55a6",
        (7919, 2000): "19439b7483683e098bbeb29cc3391f4aa9478640a13126105e6295fdc7535519",
    }
    for (seed, count), expected in pinned.items():
        digest = hashlib.sha256()
        cfg = InstanceGenConfig(seed=seed)
        for index in range(count):
            m, p = generate_instance(cfg, index)
            doc = [serialize_mixture(m), exact_number_to_string(p)]
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == expected, f"seed {seed}, {count} instances"


def test_generated_levels_and_weights_stay_in_range():
    cfg = InstanceGenConfig(seed=99)
    for index in range(100):
        m, p = generate_instance(cfg, index)
        assert 0 < p < 1
        assert 0 < m.q < 1


def test_generate_and_cross_check_share_one_walk(walk_counter, merge_counter):
    cfg = InstanceGenConfig(seed=5)
    for index in range(40):
        m, p = generate_instance(cfg, index)
        assert cross_check(m, p).passed
        assert walk_counter == [m], f"instance {index}"
        walk_counter.clear()
    assert merge_counter == []


# ---------------------------------------------------------------------------
# cross-check harness
# ---------------------------------------------------------------------------


def test_cross_check_passes_on_shifted_uniforms():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    report = cross_check(m, F(1, 4), GridOracleConfig.from_mixture(m, steps=4001))
    assert report.passed
    assert report.cell_id == "1b"
    assert report.exact_match is True
    assert report.grid_ok is True
    assert report.s_p == F(1, 2)


def test_cross_check_passes_on_a_clamped_instance():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.uniform(0, 1))
    report = cross_check(m, F(3, 5))
    assert report.passed
    assert report.cell_id == "2a"
    assert report.solution.clamped


def test_cross_check_on_a_parametric_pair():
    m = MixtureSpec(F(3, 10), Normal(0, 1), Normal(1, 1))
    report = cross_check(m, F(9, 10))
    assert report.passed
    assert report.cell_id == "1a"
    assert report.deviation is not None and report.deviation <= 1e-9


def test_cross_check_on_a_mixed_pair_uses_the_grid():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Normal(2, 1))
    report = cross_check(m, F(3, 4), GridOracleConfig.from_mixture(m, steps=20_001))
    assert report.passed
    assert report.cell_id is None and report.classification is None
    assert report.grid_ok is True


def test_cross_check_captures_the_contradiction_instead_of_raising(monkeypatch):
    # Both components put 1/2 at 0 and 1/2 at 3; a solver answer of s_p = 3
    # for p = 1/4 lands in (4d) with F_S(s_p-) = 1/2 above p.
    def wrong_split(m, p):
        return QuantileSolution(F(3), F(1, 4), F(1, 4), True, True, False)

    monkeypatch.setattr(verification, "split_quantile", wrong_split)
    d = Piecewise(atoms=[(0, F(1, 2)), (3, F(1, 2))])
    m = MixtureSpec(F(1, 2), d, d)
    report = cross_check(m, F(1, 4))
    assert not report.passed
    assert any(f.startswith("classification:") for f in report.failures)
    assert report.relations_ok is False


# Each test below patches one wrong answer into the verification module and
# checks that ``cross_check`` flags it.  ``mixquant.classify`` names the
# function on the package, so the modules are reached through sys.modules.
VERIFICATION = sys.modules["mixquant.verification"]
SHIFTED = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))


def assert_flagged(report, message):
    assert not report.passed
    assert any(message in failure for failure in report.failures), report.failures
    assert message in report.summary_line()


def test_cross_check_flags_a_split_direct_deviation_on_a_float_pair(monkeypatch):
    direct = VERIFICATION.direct_quantile
    monkeypatch.setattr(VERIFICATION, "direct_quantile", lambda m, p: direct(m, p) + 1.0)
    report = cross_check(MixtureSpec(F(3, 10), Normal(0, 1), Normal(1, 1)), F(9, 10))
    assert report.exact_match is None
    assert report.deviation == pytest.approx(1.0)
    assert_flagged(report, "split/direct deviation 1.000e+00")


def test_cross_check_flags_a_grid_answer_off_the_quantile(monkeypatch):
    grid = VERIFICATION.grid_oracle_quantile
    monkeypatch.setattr(
        VERIFICATION, "grid_oracle_quantile", lambda m, p, cfg: grid(m, p, cfg) + 0.25
    )
    report = cross_check(SHIFTED, F(1, 4), GridOracleConfig.from_mixture(SHIFTED, steps=4001))
    assert report.grid_ok is False
    assert_flagged(report, "grid 0.75")


def test_cross_check_flags_failed_cell_relations(monkeypatch):
    # s_p = 1/2 is right, but the split (1/4, 1/4) is not the one at F(s_p).
    wrong = QuantileSolution(F(1, 2), F(1, 4), F(1, 4), True, False, False)
    monkeypatch.setattr(VERIFICATION, "split_quantile", lambda m, p: wrong)
    report = cross_check(SHIFTED, F(1, 4))
    assert report.relations_ok is False
    assert_flagged(report, "cell 1b relations: ['alpha_star = F(s_p)'")


def test_cross_check_flags_a_broken_split_identity(monkeypatch):
    split = VERIFICATION.split_quantile

    def wrong_split(m, p):
        solution = split(m, p)
        return dataclasses.replace(solution, beta_star=solution.beta_star + F(1, 8))

    monkeypatch.setattr(VERIFICATION, "split_quantile", wrong_split)
    report = cross_check(SHIFTED, F(1, 4))
    assert report.split_identity_ok is False
    assert_flagged(report, "split identity 5/16 != 1/4")


def test_cross_check_flags_a_swapped_quantile_that_differs(monkeypatch):
    split = VERIFICATION.split_quantile

    def wrong_on_swap(m, p):
        solution = split(m, p)
        return solution if m is SHIFTED else dataclasses.replace(solution, s_p=solution.s_p + 1)

    monkeypatch.setattr(VERIFICATION, "split_quantile", wrong_on_swap)
    report = cross_check(SHIFTED, F(1, 4))
    assert report.swap_ok is False
    assert_flagged(report, "swapped quantile 3/2 != 1/2")


def test_cross_check_flags_a_contradiction_on_the_swapped_side(monkeypatch):
    # The swapped spec gets the (4d) answer s_p = 3 for p = 1/4, whose
    # F_S(s_p-) = 1/2 lies above p; the spec itself is solved correctly.
    d = Piecewise(atoms=[(0, F(1, 2)), (3, F(1, 2))])
    m = MixtureSpec(F(1, 2), d, d)
    split = VERIFICATION.split_quantile
    wrong = QuantileSolution(F(3), F(1, 4), F(1, 4), True, True, False)
    monkeypatch.setattr(
        VERIFICATION, "split_quantile", lambda spec, p: split(spec, p) if spec is m else wrong
    )
    report = cross_check(m, F(1, 4))
    assert report.relations_ok is True
    assert report.transpose_ok is False
    assert_flagged(report, "swapped classification: ")


def test_cross_check_flags_a_swapped_cell_that_is_not_the_transpose(monkeypatch):
    classify = VERIFICATION.classify

    def wrong_on_swap(m, p, solution):
        report = classify(m, p, solution)
        if m is not SHIFTED:
            report.label = CaseLabel(1, "a")
        return report

    monkeypatch.setattr(VERIFICATION, "classify", wrong_on_swap)
    report = cross_check(SHIFTED, F(1, 4))
    assert report.transpose_ok is False
    assert_flagged(report, "swapped cell 1a is not the transpose of 1b")


# A one-ULP miss: one float step below the quantile, F_S falls short of p by
# 3e-12, inside FLOAT_TOL but beyond LEVEL_ROUNDING.
ULP_MISS = MixtureSpec(
    F(3, 4),
    Normal(240533.4791686431, 0.8569060529958514),
    Normal(240530.81545801306, 1.594316653774451),
)


def test_cross_check_flags_an_answer_one_float_below_the_quantile(monkeypatch):
    split, direct = VERIFICATION.split_quantile, VERIFICATION.direct_quantile

    def one_float_below(m, p):
        s_p = math.nextafter(direct(m, p), -math.inf)
        return dataclasses.replace(split(m, p), s_p=s_p)

    monkeypatch.setattr(VERIFICATION, "split_quantile", one_float_below)
    report = cross_check(ULP_MISS, F(61, 100))
    assert report.sandwich_ok is False
    assert_flagged(report, "sandwich ")


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
def test_cross_check_judges_float_positions_at_their_scale(swap):
    # Near 1e8 one float step is 1.5e-8, wider than an absolute 1e-9.
    m = MixtureSpec(F(1, 4), Normal(1e8, 1e3), Normal(1e8 + 500, 2e3))
    report = cross_check(m.swapped() if swap else m, F(3, 10))
    assert report.failures == ()


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
def test_cross_check_keeps_a_true_gap_at_large_scale(swap):
    # One component stops 0.75 short of s_p = 1e9 + 0.75: the strict relation
    # holds, since a gap is no rounding however small it is against |s_p|.
    m = MixtureSpec(F(1, 2), Uniform(0, 1e9), Uniform(1e9 + 0.25, 1e9 + 1.25))
    report = cross_check(m.swapped() if swap else m, F(3, 4))
    assert report.failures == ()
    assert report.cell_id == ("1b" if swap else "2a")


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 10: beta* = 1 - 2**-53, the float nearest 1, puts Qy(beta*) at "
    "8.21 while s_p is 1.6e308, so float levels cannot place the normal side and "
    "the cell 1a relation s_p = Qy(beta*) (Qx(alpha*) swapped) is judged false",
)
@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
def test_cross_check_passes_with_a_parametric_quantile_past_the_float_range(swap):
    m = MixtureSpec(F(1, 2), Exponential(1e-308), Normal(0, 1))
    report = cross_check(m.swapped() if swap else m, F(9, 10))
    assert report.failures == ()


def test_check_report_round_trips_to_dict():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    report = cross_check(m, F(1, 4))
    d = report.to_dict()
    assert d["cell"] == "1b" and d["failures"] == []
    assert "ok" in report.summary_line(3) and "[00003]" in report.summary_line(3)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------


def test_run_suite_smoke():
    result = run_suite(InstanceGenConfig(seed=20240811), count=60)
    assert result.passed
    assert result.count == 60
    assert sum(result.census.values()) == 60
    assert len(result.lines) == 60


def test_run_suite_parallel_merge_is_deterministic():
    cfg = InstanceGenConfig(seed=20240811)
    serial = run_suite(cfg, count=40, jobs=1)
    parallel = run_suite(cfg, count=40, jobs=2)
    assert serial.lines == parallel.lines
    assert serial.census == parallel.census


def test_run_suite_starts_at_most_one_worker_per_chunk(monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        """Records ``max_workers`` and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = InstanceGenConfig(seed=20240811)
    cases = [(100, 8, 2), (64, 4, 1), (65, 2, 2), (129, 3, 3), (129, 2, 2)]
    for count, jobs, _ in cases:
        result = run_suite(cfg, count=count, jobs=jobs)
        assert result.count == len(result.lines) == count
    assert sizes == [workers for _, _, workers in cases]
    assert result.lines == run_suite(cfg, count=129, jobs=1).lines
    assert len(sizes) == len(cases)


def test_run_suite_rejects_nonpositive_count():
    with pytest.raises(DomainError):
        run_suite(InstanceGenConfig(seed=1), count=0)
