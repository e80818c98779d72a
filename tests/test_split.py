"""The optimal split: feasible range, ordering predicate, and the quantile."""

import math
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixquant.classify import classify
from mixquant.distributions import (
    LEVEL_ROUNDING,
    DomainError,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    Uniform,
    close,
)
from mixquant.mixture import MixtureSpec, direct_quantile, merged_distribution, mixture_cdf
from mixquant.split import (
    _MAX_ULP_STEPS,
    _reach_level,
    _solve_split,
    feasible_alpha_range,
    ordering_predicate,
    split_quantile,
)
from mixquant.verification import GridOracleConfig, InstanceGenConfig, cross_check, generate_instance

from reference import ref_solve_split
from test_distributions import levels, piecewise_dists

# ---------------------------------------------------------------------------
# feasible range of the x-side level
# ---------------------------------------------------------------------------


def test_feasible_range_examples():
    assert feasible_alpha_range(F(9, 10), F(1, 2)) == (F(4, 9), F(5, 9))
    assert feasible_alpha_range(F(1, 2), F(1, 4)) == (F(0), F(1, 2))
    assert feasible_alpha_range(F(1, 2), F(3, 4)) == (F(1, 2), F(1))


def test_feasible_range_is_closed_and_consistent():
    for q in (F(1, 5), F(1, 3), F(1, 2), F(7, 8)):
        for p in (F(1, 10), F(1, 2), F(9, 10)):
            lo, hi = feasible_alpha_range(q, p)
            assert 0 <= lo <= hi <= 1
            # both endpoints keep the partner level inside [0, 1]
            for alpha in (lo, hi):
                beta = (p - q * alpha) / (1 - q)
                assert 0 <= beta <= 1


def test_feasible_range_rejects_degenerate_arguments():
    with pytest.raises(DomainError):
        feasible_alpha_range(0, F(1, 2))
    with pytest.raises(DomainError):
        feasible_alpha_range(1, F(1, 2))
    with pytest.raises(DomainError):
        feasible_alpha_range(F(1, 2), 0)
    with pytest.raises(DomainError):
        feasible_alpha_range(F(1, 2), 1)


# ---------------------------------------------------------------------------
# levels that round to 0 or 1 as floats
# ---------------------------------------------------------------------------

#: Exact levels in (0, 1) whose float is 1.0 and 0.0.
BELOW_ONE = 1 - F(1, 10**20)
ABOVE_ZERO = F(1, 10**400)


@pytest.mark.parametrize("p", [BELOW_ONE, ABOVE_ZERO], ids=["below-one", "above-zero"])
@pytest.mark.parametrize("q", [F(3, 10), F(0), F(1)])
@pytest.mark.parametrize(
    "x, y",
    [
        (Normal(0, 1), Normal(1, 1)),
        (Uniform(0, 1), Uniform(2, 3)),
    ],
    ids=["normal", "uniform"],
)
def test_float_route_rejects_levels_below_float_resolution(x, y, q, p):
    assert float(p) in (0.0, 1.0)
    for m in (MixtureSpec(q, x, y), MixtureSpec(q, y, x)):
        # Handed a solution, classify must still refuse the level itself.
        solved = partial(classify, solution=split_quantile(m, F(1, 2)))
        for route in (split_quantile, direct_quantile, solved):
            with pytest.raises(DomainError, match="float resolution"):
                route(m, p)


@pytest.mark.parametrize("p", [BELOW_ONE, ABOVE_ZERO], ids=["below-one", "above-zero"])
def test_mixed_pairs_reject_levels_below_float_resolution_unless_only_piecewise_answers(p):
    exact, approx = Piecewise.uniform(0, 1), Normal(0, 1)
    # The float component takes part: both at 0 < q < 1, alone at q in {0, 1}.
    for m in (
        MixtureSpec(F(3, 10), exact, approx),
        MixtureSpec(F(3, 10), approx, exact),
        MixtureSpec(F(1), approx, exact),
        MixtureSpec(F(0), exact, approx),
    ):
        for route in (split_quantile, direct_quantile):
            with pytest.raises(DomainError, match="only piecewise components resolve it"):
                route(m, p)
    # The piecewise component answers alone, exactly: Q(p) = p on [0, 1].
    for m in (MixtureSpec(F(1), exact, approx), MixtureSpec(F(0), approx, exact)):
        assert split_quantile(m, p).s_p == p
        assert direct_quantile(m, p) == p


def test_exact_pairs_answer_exactly_at_levels_below_float_resolution():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(2, 3))
    # Half the mass on each unit interval: S = 2p below 1/2, 2p + 1 above.
    for pair in (m, m.swapped()):
        assert split_quantile(pair, ABOVE_ZERO).s_p == 2 * ABOVE_ZERO
        assert split_quantile(pair, BELOW_ONE).s_p == 2 * BELOW_ONE + 1
        for p in (ABOVE_ZERO, BELOW_ONE):
            assert split_quantile(pair, p).s_p == direct_quantile(pair, p)


def test_lognormal_quantile_beyond_the_float_range_is_a_domain_error():
    far = LogNormal(800, 1)
    with pytest.raises(DomainError, match="float range"):
        far.quantile(F(1, 2))
    assert LogNormal(700, 3).quantile(F(99, 100)) == 1.0891745033605007e307
    for m in (MixtureSpec(F(1, 2), far, Normal(0, 1)), MixtureSpec(1, far, Normal(0, 1))):
        for route in (split_quantile, direct_quantile):
            with pytest.raises(DomainError, match="float range"):
                route(m, F(1, 2))


def test_normal_quantile_beyond_the_float_range_is_a_domain_error():
    # mu + sigma*z overflows to +-inf without raising; both routes must refuse.
    high, low = Normal(1e308, 1e308), Normal(-1e308, 1e308)
    for far, p in ((high, F(99, 100)), (low, F(1, 100))):
        with pytest.raises(DomainError, match="float range"):
            far.quantile(p)
        for m in (MixtureSpec(F(1, 2), far, Normal(0, 1)), MixtureSpec(1, far, Normal(0, 1))):
            for route in (split_quantile, direct_quantile):
                with pytest.raises(DomainError, match="float range"):
                    route(m, p)
    assert high.quantile(F(1, 2)) == 1e308 and high.cdf(1e308) == 0.5


@pytest.mark.parametrize("x", [Piecewise.uniform(0, 1), Uniform(0, 1)], ids=["mixed", "parametric"])
def test_an_infinite_answer_below_level_one_is_a_domain_error(x):
    # The family answers +inf at 999/1000 without raising, and the float
    # mixture CDF reaches only about 0.83 at the largest float; the true
    # quantile is finite but past the float range, so both routes refuse it.
    far = Exponential(6e-309)
    assert far.quantile(F(999, 1000)) == math.inf
    for m in (
        MixtureSpec(F(1, 2), x, far),
        MixtureSpec(F(1, 2), far, x),
        MixtureSpec(1, far, x),
        MixtureSpec(0, x, far),
    ):
        for route in (split_quantile, direct_quantile):
            with pytest.raises(DomainError, match="float range"):
                route(m, F(999, 1000))
        if m.lone is None:
            # Inside the float range the pair answers as before.
            assert split_quantile(m, F(1, 4)).s_p == direct_quantile(m, F(1, 4)) == 0.5


# ---------------------------------------------------------------------------
# the ordering predicate
# ---------------------------------------------------------------------------


def test_predicate_flip_on_two_point_masses():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    p = F(1, 4)
    assert not ordering_predicate(m, p, F(0))
    assert not ordering_predicate(m, p, F(1, 4))
    assert ordering_predicate(m, p, F(1, 2))  # partner level hits 0, Qy = -inf


def test_predicate_rejects_alpha_outside_feasible_range():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    with pytest.raises(DomainError):
        ordering_predicate(m, F(1, 4), F(3, 4))


# ---------------------------------------------------------------------------
# frozen split solutions
# ---------------------------------------------------------------------------


def test_split_two_point_masses():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    sol = split_quantile(m, F(1, 4))
    assert (sol.s_p, sol.alpha_star, sol.beta_star) == (0, F(1, 2), 0)
    assert sol.x_attains and not sol.y_attains and not sol.clamped


def test_split_shifted_uniforms():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    sol = split_quantile(m, F(1, 4))
    assert (sol.s_p, sol.alpha_star, sol.beta_star) == (F(1, 2), F(1, 2), 0)
    assert sol.x_attains and not sol.y_attains


def test_split_clamps_when_predicate_never_holds():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.uniform(0, 1))
    sol = split_quantile(m, F(3, 5))
    assert (sol.s_p, sol.alpha_star, sol.beta_star) == (F(1, 5), 1, F(1, 5))
    assert sol.clamped and sol.y_attains and not sol.x_attains
    assert sol.s_p == direct_quantile(m, F(3, 5))


def test_split_interior_crossing_of_identical_uniforms():
    # the flip sits strictly inside a level cell, not on a breakpoint image
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(0, 1))
    sol = split_quantile(m, F(1, 2))
    assert (sol.s_p, sol.alpha_star, sol.beta_star) == (F(1, 2), F(1, 2), F(1, 2))
    assert sol.x_attains and sol.y_attains


def test_split_infimum_not_attained():
    x = Piecewise.empirical([0, 2])
    y = Piecewise.point_mass(1)
    m = MixtureSpec(F(1, 2), x, y)
    sol = split_quantile(m, F(1, 2))
    assert (sol.s_p, sol.alpha_star, sol.beta_star) == (1, F(1, 2), F(1, 2))
    assert not sol.x_attains and sol.y_attains
    # just above the infimum the predicate holds, at it it does not
    assert not ordering_predicate(m, F(1, 2), F(1, 2))
    assert ordering_predicate(m, F(1, 2), F(1, 2) + F(1, 100))


def test_split_keeps_a_true_gap_at_large_scale():
    # Qx(1) = 1e9 falls 0.75 short of s_p: within FLOAT_TOL * |s_p|, yet a gap.
    m = MixtureSpec(F(1, 2), Uniform(0, 1e9), Uniform(1e9 + 0.25, 1e9 + 1.25))
    sol = split_quantile(m, F(3, 4))
    assert sol.s_p == 1e9 + 0.75 and sol.x_attains is False and sol.y_attains
    sol = split_quantile(m.swapped(), F(3, 4))
    assert sol.x_attains and sol.y_attains is False


def test_split_degenerate_weights():
    x = Piecewise.uniform(0, 1)
    y = Piecewise.point_mass(9)
    sol = split_quantile(MixtureSpec(1, x, y), F(1, 4))
    assert (sol.s_p, sol.alpha_star, sol.beta_star) == (F(1, 4), F(1, 4), F(1, 4))
    assert sol.x_attains and not sol.y_attains and not sol.clamped
    sol = split_quantile(MixtureSpec(0, x, y), F(1, 4))
    assert sol.s_p == 9 and sol.y_attains


_SHARED = Piecewise.uniform(0, 1)


@pytest.mark.parametrize("p", [F(1, 3), F(1, 2), F(9, 10)])
@pytest.mark.parametrize("q", [F(0), F(1)])
@pytest.mark.parametrize(
    "x, y",
    [
        (Piecewise([(0, F(1, 4)), (2, F(1, 4))], [(0, 1, F(1, 2))]), Piecewise.point_mass(5)),
        (Normal(0, 1), Exponential(2)),
        (Piecewise.uniform(0, 1), Normal(3, 1)),
        # One object on both sides: only q tells which side answers.
        (_SHARED, _SHARED),
    ],
    ids=["exact", "parametric", "mixed", "shared"],
)
def test_a_lone_component_answers_every_route(x, y, q, p):
    assert MixtureSpec(F(1, 2), x, y).lone is None
    for m in (MixtureSpec(q, x, y), MixtureSpec(q, y, x)):
        lone = m.lone
        assert lone is (m.x if q == 1 else m.y)
        sol = split_quantile(m, p)
        assert sol.s_p == lone.quantile(p)
        assert (sol.alpha_star, sol.beta_star) == (p, p)
        assert (sol.x_attains, sol.y_attains, sol.clamped) == (q == 1, q == 0, False)
        assert direct_quantile(m, p) == sol.s_p
        if m.is_exact:
            assert merged_distribution(m) == lone
        with pytest.raises(DomainError, match="0 < q < 1"):
            classify(m, p)
        report = cross_check(m, p)
        assert report.passed, report.failures
        assert report.direct_value is None and report.classification is None


def test_split_rejects_endpoint_levels():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    with pytest.raises(DomainError):
        split_quantile(m, 0)
    with pytest.raises(DomainError):
        split_quantile(m, 1)


# ---------------------------------------------------------------------------
# randomized agreement with direct inversion
# ---------------------------------------------------------------------------


def test_split_equals_direct_on_random_instances():
    cfg = InstanceGenConfig(seed=777)
    for index in range(300):
        m, p = generate_instance(cfg, index)
        sol = split_quantile(m, p)
        assert sol.s_p == direct_quantile(m, p), f"instance {index}"
        recombined = m.q * sol.alpha_star + (1 - m.q) * sol.beta_star
        assert recombined == p, f"instance {index}"


def test_predicate_is_monotone_around_the_split_level():
    cfg = InstanceGenConfig(seed=778)
    for index in range(60):
        m, p = generate_instance(cfg, index)
        sol = split_quantile(m, p)
        if sol.clamped:
            continue
        lo, hi = feasible_alpha_range(m.q, p)
        a = sol.alpha_star
        for k in range(1, 4):
            below = lo + (a - lo) * F(k, 5)
            if below < a:
                assert not ordering_predicate(m, p, below), f"instance {index}"
            above = a + (hi - a) * F(k, 5)
            if above > a:
                assert ordering_predicate(m, p, above), f"instance {index}"


# ---------------------------------------------------------------------------
# the exact solver against the candidate-grid reference
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    piecewise_dists(),
    piecewise_dists(),
    st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(4, 5)]),
    levels.filter(lambda p: p < 1),
)
def test_exact_split_equals_reference_on_random_pairs(x, y, q, p):
    for m in (MixtureSpec(q, x, y), MixtureSpec(1 - q, y, x)):
        assert _solve_split(m, p) == ref_solve_split(m, p)


def test_exact_split_equals_reference_on_generated_instances():
    cfg = InstanceGenConfig(seed=31)
    for index in range(500):
        m, p = generate_instance(cfg, index)
        for mm in (m, m.swapped()):
            assert _solve_split(mm, p) == ref_solve_split(mm, p), f"instance {index}"


def _wide_pair() -> MixtureSpec:
    rng = np.random.default_rng(5)

    def adjacent(start, n):
        # n touching unit segments, plus an atom on every tenth segment end
        weights = [int(w) for w in rng.integers(1, 9, size=n + n // 10)]
        total = sum(weights)
        return Piecewise(
            [(start + 10 * k, F(w, total)) for k, w in enumerate(weights[n:])],
            [(start + k, start + k + 1, F(w, total)) for k, w in enumerate(weights[:n])],
        )

    return MixtureSpec(F(2, 5), adjacent(F(0), 100), adjacent(F(1, 3), 100))


def test_exact_split_equals_reference_on_a_wide_pair():
    m = _wide_pair()
    for k in range(1, 21):
        p = F(k, 21)
        for mm in (m, m.swapped()):
            assert _solve_split(mm, p) == ref_solve_split(mm, p), f"level {p}"


def test_exact_split_probes_one_quantile_per_cut(monkeypatch):
    # Two calls for each of the two early-exit checks, then one per bisected
    # cut on each side: at a cut the piece's own inverse is its stored right
    # end, and the final cell's pieces come from the bisections.
    calls = []
    real = Piecewise.quantile

    def counting(self, level):
        calls.append(level)
        return real(self, level)

    monkeypatch.setattr(Piecewise, "quantile", counting)
    m = _wide_pair()
    for mm in (m, m.swapped()):
        bound = 4 + sum(len(d.quantile_pieces()).bit_length() for d in (mm.x, mm.y))
        assert bound == 18
        for k in range(1, 21):
            calls.clear()
            _solve_split(mm, F(k, 21))
            assert len(calls) <= bound, f"level {F(k, 21)}: {len(calls)} quantile calls"


# ---------------------------------------------------------------------------
# parametric components
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m, want",
    [
        (MixtureSpec(F(1, 2), Exponential(1), Uniform(-5, -4)), -4.0),
        (MixtureSpec(F(1, 2), Uniform(2, 3), Uniform(0, 1)), 1.0),
    ],
)
def test_numeric_split_when_the_infimum_is_not_attained(m, want):
    # Qx jumps up from -inf at level 0, so the ordering holds on all of
    # (0, alpha_max] but not at 0; s_p comes from the bottom of the bracket.
    for mm in (m, m.swapped()):
        assert split_quantile(mm, F(1, 2)).s_p == want
        assert cross_check(mm, F(1, 2)).failures == ()


def test_numeric_split_judges_an_unmoved_bracket_end_exactly():
    # With Y above X and p < q, alpha* = p/q, where beta is exactly 0 and
    # Qy(0) = -inf.  The float image of p/q can put beta an epsilon above 0,
    # where Qy is Y's support floor 2, so s_p = 2 unless that end is exact.
    for q in (F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(2, 3), F(3, 4)):
        for k in range(1, 100):
            p = F(k, 100)
            if p < q:
                m = MixtureSpec(q, Uniform(0, 1), Uniform(2, 3))
                for mm in (m, m.swapped()):
                    assert abs(split_quantile(mm, p).s_p - float(p / q)) <= 1e-9


@pytest.mark.parametrize(
    "x, y",
    [
        (
            Uniform(0.0034301843057587796, 0.004672723056097741),
            Uniform(0.001756781384810812, 0.0034301843057587796),
        ),
        (
            Uniform(3955147271.087907, 4524474193.557625),
            Uniform(4524474193.557625, 6220638261.450662),
        ),
    ],
)
def test_numeric_split_on_touching_uniforms_passes_cross_check(x, y):
    # At q = p = 1/2 the quantile is the touching point and alpha* is an end
    # of the feasible range, 0 or 1.  The float bracket end next to it ties
    # with it on max{Qx, Qy}, but reports alpha* and beta* a rounding off
    # the exact levels, which the cell relations reject; the exact end wins.
    m = MixtureSpec(F(1, 2), x, y)
    for mm in (m, m.swapped()):
        assert cross_check(mm, F(1, 2)).failures == ()


def _pw(atoms, segments):
    return Piecewise(
        [tuple(map(F, a)) for a in atoms], [tuple(map(F, s)) for s in segments]
    )


def test_mixed_split_keeps_an_exact_end_exact():
    # F_S(0-) = 0.044 and F_S(0) = 0.144, so s_p = 0, reached at the exact
    # end alpha = 1/5 where X's atom at 0 is used up.  Converted to a float,
    # that end lies just above the atom and Qx jumps to 5/4.
    m = MixtureSpec(
        F(1, 2),
        _pw([("0", "1/5")], [("5/4", "2", "2/5"), ("2", "11/4", "2/5")]),
        Normal(2.0009366731385736, 1.4825307706491733),
    )
    p = F(1, 10)
    for mm in (m, m.swapped()):
        assert split_quantile(mm, p).s_p == 0
        grid = GridOracleConfig.from_mixture(mm, 10_001)
        assert cross_check(mm, p, grid).failures == ()


def test_mixed_split_answers_an_atom_past_the_float_range_exactly():
    # F_S stays below 3/4 on [0, 10**400), where Phi < 1, and reaches 1 at
    # the atom: s_p is 10**400, which has no float.
    m = MixtureSpec(F(1, 2), _pw([("0", "1/2"), (str(10**400), "1/2")], []), Normal(0, 1))
    for p in (F(3, 4), F(9, 10)):
        for mm in (m, m.swapped()):
            s_p = split_quantile(mm, p).s_p
            assert isinstance(s_p, F) and s_p == 10**400


def test_mixed_split_judges_the_ordering_exactly_where_floats_tie():
    # Qx is an atom c a hair below 1 and Qy(beta) = 2*beta.  At alpha = 1/2
    # float(c) - Qy = 1.0 - 1.0 is 0, yet Qx < Qy exactly, so the ordering
    # fails there and first holds one float up, where Qy < c and s_p = c.
    # Judging the ordering by that rounded difference would answer 1.0.
    c = 1 - F(1, 10**30)
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(c), Uniform(0.0, 2.0))
    sol = split_quantile(m, F(1, 2))
    assert sol.s_p == c and sol.alpha_star == math.nextafter(0.5, 1.0)
    assert split_quantile(m.swapped(), F(1, 2)).s_p == c


def test_mixed_split_reports_the_crossing_not_a_far_end():
    # s_p = 0 is reached from every alpha in [0, 1], but only alpha* = 1/2
    # splits p between the atom and the Normal's median; the far ends 0 and
    # 1 tie on max{Qx, Qy} and fail the bracketing.
    m = MixtureSpec(F(1, 2), Normal(0, 1), Piecewise.point_mass(0))
    for mm in (m, m.swapped()):
        sol = split_quantile(mm, F(1, 2))
        assert sol.s_p == 0
        assert close(sol.alpha_star, F(1, 2), False)
        assert close(sol.beta_star, F(1, 2), False)
        assert cross_check(mm, F(1, 2)).failures == ()


@pytest.mark.parametrize(
    "m, p, want",
    [
        (
            MixtureSpec(
                F(1, 4),
                Uniform(-1, 1.5),
                _pw([("-1/2", "3/13"), ("0", "2/13"), ("3/2", "4/13")], [("2", "5/2", "4/13")]),
            ),
            F(9, 52),
            -0.5,
        ),
        (
            MixtureSpec(
                F(3, 4),
                Exponential(2.141229009376601),
                _pw([("-1/2", "2/5"), ("0", "3/10"), ("3/2", "1/5")], [("1", "3/2", "1/10")]),
            ),
            F(1, 10),
            -0.5,
        ),
        (
            MixtureSpec(F(1, 4), _pw([("-2", "2/5"), ("-3/2", "3/5")], []), Uniform(-1, 1.5)),
            F(1, 10),
            -2.0,
        ),
        (
            MixtureSpec(
                F(1, 4),
                _pw([("-2", "1/5"), ("11/4", "2/5")], [("2", "11/4", "2/5")]),
                Uniform(-1, 1.5),
            ),
            F(4, 5),
            1.5,
        ),
        (
            MixtureSpec(
                F(1, 4),
                Uniform(-1, 1.5),
                _pw(
                    [("-1/2", "2/7"), ("0", "1/7"), ("3/2", "1/7")],
                    [("0", "1", "1/7"), ("9/4", "3", "2/7")],
                ),
            ),
            F(11, 14),
            1.5,
        ),
        (
            MixtureSpec(
                F(1, 2),
                Exponential(1.473566029807344),
                _pw([("1/2", "1/5")], [("-7/4", "-1", "1/5"), ("1/4", "1", "3/5")]),
            ),
            F(1, 10),
            -1.0,
        ),
    ],
    ids=["394", "748", "1147", "1207", "1245", "1250"],
)
def test_mixed_split_matches_the_grid_on_census_pairs(m, p, want):
    # Pairs of the tier-1 mixed sweep (ids are its indices) whose quantile
    # sits on a piecewise atom or segment end.  ``want`` is a 100,001-step
    # grid oracle's answer, rounded to the generator's lattice.
    for mm in (m, m.swapped()):
        assert close(split_quantile(mm, p).s_p, want, False)
        assert cross_check(mm, p).failures == ()


def test_split_on_normal_pair_agrees_with_direct_inversion():
    m = MixtureSpec(F(3, 10), Normal(0, 1), Normal(1, 1))
    sol = split_quantile(m, F(1, 2))
    assert abs(sol.s_p - direct_quantile(m, F(1, 2))) <= 1e-9
    # strictly increasing components split with equal component quantiles
    assert abs(m.x.quantile(sol.alpha_star) - m.y.quantile(sol.beta_star)) <= 1e-9


def test_numeric_split_stops_before_beta_rounds_to_one():
    # Bisected down to adjacent floats, this split once rounded beta(alpha*)
    # to 1.0, where Qy is +inf, and s_p came out inf: the reported beta was
    # exact while the probe's float beta stayed below 1.
    m = MixtureSpec(
        F(1, 3), Normal(2962547.835112346, 47797870.0225252), Normal(0, 6386450.517567269)
    )
    for mm in (m, m.swapped()):
        s_p = split_quantile(mm, F(19, 20)).s_p
        assert math.isfinite(s_p)
        assert close(s_p, direct_quantile(mm, F(19, 20)), False)


def _first_float_reaching(m, p, s):
    """Whether float F_S reaches p up to rounding at s and not one float below."""
    return mixture_cdf(m, s) >= p - LEVEL_ROUNDING > mixture_cdf(m, math.nextafter(s, -math.inf))


def test_numeric_split_steps_up_onto_the_level():
    # The float bisection ends one float below the crossing here, where
    # F_S(s_p) < p; s_p is stepped up to the first float reaching p.
    m = MixtureSpec(
        F(3, 4),
        Normal(240533.4791686431, 0.8569060529958514),
        Normal(240530.81545801306, 1.594316653774451),
    )
    p = F(61, 100)
    for mm in (m, m.swapped()):
        assert _first_float_reaching(mm, p, split_quantile(mm, p).s_p)


def test_numeric_split_judges_attainment_before_the_step():
    # At |s_p| near 3.4e9 one float step is about 4.8e-7, beyond the 1e-9
    # attainment bound, yet both component quantiles meet the unstepped max.
    m = MixtureSpec(
        F(3, 4),
        Normal(3432809240.595879, 1.39341248858327),
        Normal(3432809243.8744884, 0.7696928901624054),
    )
    p = F(19, 25)
    sol = split_quantile(m, p)
    assert _first_float_reaching(m, p, sol.s_p)
    assert sol.x_attains and sol.y_attains


def test_numeric_split_steps_a_bounded_number_of_floats():
    m = MixtureSpec(F(1, 2), Normal(0, 1), Normal(1, 2))
    p = F(1, 2)
    # F_S(-1) is about 0.16, far short of p: the step-up gives up at its cap.
    stepped = -1.0
    for _ in range(_MAX_ULP_STEPS):
        stepped = math.nextafter(stepped, math.inf)
    assert _reach_level(m, p, -1.0) == stepped
    for end in (-math.inf, math.inf):
        assert _reach_level(m, p, end) == end


def test_split_on_uniform_pair_matches_exact_twin():
    exact = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    approx = MixtureSpec(F(1, 2), Uniform(0, 1), Uniform(1, 2))
    for p in (F(1, 10), F(1, 4), F(1, 2), F(9, 10)):
        want = split_quantile(exact, p).s_p
        got = split_quantile(approx, p).s_p
        assert abs(got - want) <= 1e-9
