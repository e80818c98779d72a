"""Distribution layer: exact piecewise CDFs/quantiles and parametric families."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mixquant.distributions import (
    LEVEL_ROUNDING,
    NEG_INF,
    POS_INF,
    DomainError,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    QuantilePiece,
    Uniform,
    as_fraction,
    close,
    leq,
)
from mixquant.mixture import MixtureSpec, sample

from reference import (
    _affine,
    breakpoints,
    ref_cdf,
    ref_cdf_left,
    ref_flat_left_of,
    ref_quantile,
)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def piecewise_dists(draw):
    """Small random piecewise distributions on an eighth-integer lattice."""
    n_atoms = draw(st.integers(0, 3))
    n_segs = draw(st.integers(0 if n_atoms else 1, 2))
    atom_locs = draw(
        st.lists(st.integers(-24, 24), min_size=n_atoms, max_size=n_atoms, unique=True)
    )
    cells = draw(st.lists(st.integers(-3, 2), min_size=n_segs, max_size=n_segs, unique=True))
    weights = draw(
        st.lists(st.integers(1, 5), min_size=n_atoms + n_segs, max_size=n_atoms + n_segs)
    )
    total = sum(weights)
    atoms = [(F(k, 8), F(w, total)) for k, w in zip(atom_locs, weights)]
    segments = [
        (F(c), F(c) + 1, F(w, total)) for c, w in zip(cells, weights[n_atoms:])
    ]
    return Piecewise(atoms, segments)


levels = st.fractions(min_value=F(1, 500), max_value=1, max_denominator=500)
points = st.fractions(min_value=-6, max_value=6, max_denominator=64)

#: Scales of ``rational_piecewise_dists``: a wrong width or slope factor in
#: an integer formula shows at 10**+-30 even where it cancels at scale 1.
RATIONAL_SCALES = (F(1), F(10**30), F(1, 10**30))


@st.composite
def rational_piecewise_dists(draw):
    """Small random piecewise laws off any lattice.

    Positions are rationals of coprime numerator and denominator (up to
    97), some negative, times a scale from ``RATIONAL_SCALES``.  Segments
    join consecutive positions, so their widths vary and chosen neighbours
    touch; atoms sit strictly inside segments, on their ends, or apart.
    Masses are drawn weights over their total.
    """
    scale = draw(st.sampled_from(RATIONAL_SCALES))
    cuts = draw(
        st.lists(
            st.fractions(min_value=-40, max_value=40, max_denominator=97),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    cuts = sorted(c * scale for c in cuts)
    spans = list(zip(cuts, cuts[1:]))
    chosen = draw(st.lists(st.sampled_from(spans), max_size=3, unique=True))
    # Candidate atom sites: every cut, and a point strictly inside each span.
    share = st.fractions(F(1, 50), F(49, 50), max_denominator=50)
    inside = [a + (b - a) * draw(share) for a, b in spans]
    n_min = 0 if chosen else 1
    sites = draw(st.lists(st.sampled_from(cuts + inside), min_size=n_min, max_size=3, unique=True))
    n = len(sites) + len(chosen)
    weights = draw(st.lists(st.integers(1, 13), min_size=n, max_size=n))
    total = sum(weights)
    atoms = [(site, F(w, total)) for site, w in zip(sites, weights)]
    segments = [(a, b, F(w, total)) for (a, b), w in zip(sorted(chosen), weights[len(sites):])]
    return Piecewise(atoms, segments)


#: A law past the float range: positions near 10**400, an atom on a segment's
#: left end, one on a shared end, one strictly inside a segment, and
#: segments of widths 4*10**400/3 and 10**400/3 + 1.
FAR = 10**400
FAR_LAW = Piecewise(
    atoms=[(-FAR, F(1, 7)), (F(FAR, 3), F(2, 11)), (F(2 * FAR, 3), F(1, 13))],
    segments=[(-FAR, F(FAR, 3), F(3, 7)), (F(FAR, 3), F(2 * FAR, 3) + 1, F(170, 1001))],
)


# ---------------------------------------------------------------------------
# frozen examples
# ---------------------------------------------------------------------------


def test_point_mass_cdf_and_quantile():
    d = Piecewise.point_mass(3)
    assert d.cdf(F(29, 10)) == 0
    assert d.cdf(3) == 1
    assert d.cdf_left_limit(3) == 0
    assert d.quantile(F(1, 2)) == 3
    assert d.quantile(1) == 3
    assert d.quantile(0) == NEG_INF


def test_uniform_segment_cdf_and_quantile():
    d = Piecewise.uniform(0, 1)
    assert d.cdf(F(1, 4)) == F(1, 4)
    assert d.quantile(F(1, 2)) == F(1, 2)
    assert d.quantile(1) == 1
    assert d.is_continuous_at(F(1, 2))


def test_empirical_merges_duplicates():
    d = Piecewise.empirical([1, 2, 2, 3])
    assert d.atoms == ((F(1), F(1, 4)), (F(2), F(1, 2)), (F(3), F(1, 4)))
    assert d.quantile(F(1, 4)) == 1
    assert d.quantile(F(1, 4) + F(1, 100)) == 2
    assert d.quantile(F(3, 4)) == 2
    assert d.quantile(F(3, 4) + F(1, 100)) == 3


def test_empirical_takes_numpy_arrays():
    assert Piecewise.empirical(np.array([1.0, 2.0, 2.0])).atoms == (
        Piecewise.empirical([1.0, 2.0, 2.0]).atoms
    )
    draws = sample(MixtureSpec(F(1, 3), Piecewise.uniform(0, 1), Normal(5, 1)), 50, seed=3)
    got = Piecewise.empirical(draws)
    want = Piecewise.empirical(draws.tolist())
    assert (got.atoms, got.quantile_pieces()) == (want.atoms, want.quantile_pieces())
    with pytest.raises(ValueError, match="at least one point"):
        Piecewise.empirical(np.array([]))


def test_quantile_levels_walk_the_pieces():
    d = Piecewise(
        atoms=[(0, F(1, 2))],
        segments=[(1, 2, F(1, 2))],
    )
    assert d.quantile(F(1, 4)) == 0
    assert d.quantile(F(1, 2)) == 0
    assert d.quantile(F(3, 4)) == F(3, 2)
    assert d.quantile(1) == 2


def test_quantile_piece_contract():
    d = Piecewise(atoms=[(0, F(1, 2))], segments=[(1, 3, F(1, 2))])
    atom, stretch = d.quantile_pieces()
    assert isinstance(atom, QuantilePiece)
    with pytest.raises(AttributeError):
        atom.x_left = F(5)
    assert hash(stretch) == hash(QuantilePiece(*stretch))
    assert len({atom, stretch, QuantilePiece(*atom)}) == 2
    assert QuantilePiece._fields == ("lev_lo", "lev_hi", "x_left", "x_right")
    lev_lo, lev_hi, x_left, x_right = stretch
    assert (lev_lo, lev_hi, x_left, x_right) == (F(1, 2), 1, 1, 3)
    assert atom.x_left is atom.x_right
    assert [atom.value_at(p) for p in (F(1, 4), F(1, 2))] == [0, 0]
    assert [stretch.value_at(p) for p in (F(5, 8), F(3, 4), 1)] == [F(3, 2), 2, 3]
    # Equal but distinct atom ends take the affine map, which is constant.
    twin = QuantilePiece(F(0), F(1, 2), F(0), F(0))
    assert [twin.value_at(p) for p in (F(1, 4), F(1, 2))] == [0, 0]
    assert [d.quantile(p) for p in (F(1, 4), F(1, 2), F(5, 8), F(3, 4), 1)] == [0, 0, F(3, 2), 2, 3]


def test_flatness_witnesses():
    d = Piecewise(atoms=[(0, F(1, 2))], segments=[(1, 2, F(1, 2))])
    flat, witness = d.flat_left_of(1)
    assert flat and witness is not None and witness < 1
    assert d.cdf(witness) == d.cdf_left_limit(1)
    flat, witness = d.flat_left_of(0)
    assert flat and witness < 0 and d.cdf(witness) == 0
    flat, witness = d.flat_left_of(F(3, 2))
    assert not flat and witness is None


@settings(max_examples=200, deadline=None)
@given(piecewise_dists(), points, st.data())
def test_flat_left_of_matches_reference(d, x, data):
    for t in (x, data.draw(st.sampled_from(breakpoints(d)))):
        assert d.flat_left_of(t) == ref_flat_left_of(d, t)


def test_continuity_detection():
    d = Piecewise(atoms=[(0, F(1, 2))], segments=[(0, 1, F(1, 2))])
    assert not d.is_continuous_at(0)
    assert d.is_continuous_at(F(1, 2))
    assert d.is_continuous_at(-5)


def test_support_bounds():
    d = Piecewise(atoms=[(-2, F(1, 3))], segments=[(0, 4, F(2, 3))])
    assert d.support_bounds() == (-2, 4)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_rejects_bad_geometry():
    with pytest.raises(ValueError, match="must equal 1, got 1/2"):
        Piecewise(atoms=[(0, F(1, 2))])  # total mass 1/2
    with pytest.raises(ValueError, match="atom mass at 0 must be positive, got 0"):
        Piecewise(atoms=[(0, 0), (1, 1)])  # zero mass
    with pytest.raises(ValueError, match="duplicate atom location 0"):
        Piecewise(atoms=[(0, F(1, 2)), (0, F(1, 2))])  # duplicate location
    with pytest.raises(ValueError, match=r"segment \[1, 1\] must have left < right"):
        Piecewise(segments=[(1, 1, 1)])  # empty interval
    with pytest.raises(ValueError, match=r"segment rise over \[0, 1\] must be positive"):
        Piecewise(segments=[(0, 1, 0), (1, 2, 1)])  # zero rise
    with pytest.raises(ValueError, match="segment interiors must be pairwise disjoint"):
        Piecewise(segments=[(0, 2, F(1, 2)), (1, 3, F(1, 2))])  # overlap
    with pytest.raises(ValueError, match="cannot coerce non-finite value nan"):
        as_fraction(float("nan"))
    with pytest.raises(ValueError, match="cannot coerce non-finite value inf"):
        as_fraction(float("inf"))


def test_quantile_rejects_out_of_range_levels():
    d = Piecewise.point_mass(0)
    with pytest.raises(DomainError):
        d.quantile(F(3, 2))
    with pytest.raises(DomainError):
        d.quantile(-1)


# ---------------------------------------------------------------------------
# agreement with the naive reference implementation
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(piecewise_dists(), points)
def test_cdf_matches_reference(d, x):
    assert d.cdf(x) == ref_cdf(d, x)
    assert d.cdf_left_limit(x) == ref_cdf_left(d, x)


@settings(max_examples=150, deadline=None)
@given(piecewise_dists(), points, st.data())
def test_continuity_and_support_match_reference(d, x, data):
    pts = breakpoints(d)
    assert d.support_bounds() == (pts[0], pts[-1])
    for t in (x, data.draw(st.sampled_from(pts))):
        assert d.is_continuous_at(t) == (ref_cdf(d, t) == ref_cdf_left(d, t))


def assert_value_at_matches_affine(pieces):
    """Each piece is a ``QuantilePiece`` whose ``value_at`` equals the
    reference line through its ends (``_affine``) at its two level ends and
    their midpoint."""
    for piece in pieces:
        assert type(piece) is QuantilePiece, piece
        intercept, slope = _affine(piece)
        for p in (piece.lev_lo, (piece.lev_lo + piece.lev_hi) / 2, piece.lev_hi):
            assert piece.value_at(p) == intercept + slope * p, (piece, p)


@settings(max_examples=150, deadline=None)
@given(st.one_of(piecewise_dists(), rational_piecewise_dists()))
def test_piece_slopes_match_their_ends(d):
    assert_value_at_matches_affine(d.quantile_pieces())


def test_piece_slopes_match_their_ends_past_the_float_range():
    assert_value_at_matches_affine(FAR_LAW.quantile_pieces())


def probe_points(d, share=F(1, 3)):
    """Breakpoints of ``d``, a point ``share`` of the way into each gap
    between them, and one point beyond each end."""
    pts = breakpoints(d)
    inner = [a + (b - a) * share for a, b in zip(pts, pts[1:])]
    width = pts[-1] - pts[0] or abs(pts[0]) or 1
    return pts + inner + [pts[0] - width, pts[-1] + width / 7]


def _assert_cdf_and_slopes_match_reference(d, xs):
    for x in xs:
        assert d.cdf(x) == ref_cdf(d, x), x
        assert d.cdf_left_limit(x) == ref_cdf_left(d, x), x
    # A segment piece inverts the CDF's left limit on (x_left, x_right].
    for piece in d.quantile_pieces():
        if piece.x_left != piece.x_right:
            for x in ((piece.x_left + piece.x_right) / 2, piece.x_right):
                assert piece.value_at(ref_cdf_left(d, x)) == x, (piece, x)


@settings(max_examples=150, deadline=None)
@given(rational_piecewise_dists(), st.fractions(F(1, 97), F(96, 97), max_denominator=97))
def test_cdf_and_slopes_match_reference_off_the_lattice(d, share):
    _assert_cdf_and_slopes_match_reference(d, probe_points(d, share))


def test_cdf_and_slopes_match_reference_past_the_float_range():
    _assert_cdf_and_slopes_match_reference(FAR_LAW, probe_points(FAR_LAW))


@settings(max_examples=150, deadline=None)
@given(piecewise_dists(), levels)
def test_quantile_matches_reference(d, p):
    assert d.quantile(p) == ref_quantile(d, p)


@settings(max_examples=200, deadline=None)
@given(piecewise_dists(), levels, points)
def test_galois_adjunction(d, p, x):
    # The defining property of the generalized inverse.
    assert (d.quantile(p) <= x) == (p <= d.cdf(x))


@settings(max_examples=100, deadline=None)
@given(piecewise_dists())
def test_quantile_is_left_continuous_and_monotone(d):
    pieces = d.quantile_pieces()
    assert pieces[0].lev_lo == 0 and pieces[-1].lev_hi == 1
    prev_hi = None
    for piece in pieces:
        mid = (piece.lev_lo + piece.lev_hi) / 2
        assert piece.x_left <= d.quantile(mid) <= piece.x_right
        # left continuity: the boundary level belongs to the piece below it
        assert d.quantile(piece.lev_hi) == piece.x_right
        if prev_hi is not None:
            assert piece.lev_lo == prev_hi
        prev_hi = piece.lev_hi
    grid = sorted({F(k, 13) for k in range(1, 13)})
    values = [d.quantile(p) for p in grid]
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# parametric families
# ---------------------------------------------------------------------------


def test_uniform_family_closed_form():
    d = Uniform(2, 5)
    assert d.cdf(1) == 0.0
    assert d.cdf(5) == 1.0
    assert d.cdf(3.5) == pytest.approx(0.5)
    assert d.quantile(0.5) == pytest.approx(3.5)
    assert d.quantile(0) == NEG_INF
    assert d.quantile(1) == 5
    assert d.support_bounds() == (2, 5)


def test_normal_family_matches_scipy():
    d = Normal(1, 2)
    xs = np.linspace(-6, 8, 29)
    assert np.allclose([d.cdf(x) for x in xs], stats.norm.cdf(xs, 1, 2))
    ps = np.linspace(0.01, 0.99, 21)
    assert np.allclose([d.quantile(p) for p in ps], stats.norm.ppf(ps, 1, 2))
    assert d.quantile(0) == NEG_INF
    assert d.quantile(1) == POS_INF
    assert d.is_continuous_at(0.3)
    assert d.flat_left_of(0.3) == (False, None)


def test_exponential_family_matches_scipy():
    d = Exponential(rate=0.5)
    xs = np.linspace(0, 12, 25)
    assert np.allclose([d.cdf(x) for x in xs], stats.expon.cdf(xs, scale=2))
    ps = np.linspace(0.01, 0.99, 21)
    assert np.allclose([d.quantile(p) for p in ps], stats.expon.ppf(ps, scale=2))
    assert d.cdf(-1) == 0.0
    flat, witness = d.flat_left_of(0)
    assert flat and witness < 0


def test_lognormal_family_matches_scipy():
    d = LogNormal(0.25, 0.75)
    xs = np.linspace(0.05, 9, 25)
    ref = stats.lognorm.cdf(xs, 0.75, scale=np.exp(0.25))
    assert np.allclose([d.cdf(x) for x in xs], ref)
    ps = np.linspace(0.01, 0.99, 21)
    ref_q = stats.lognorm.ppf(ps, 0.75, scale=np.exp(0.25))
    assert np.allclose([d.quantile(p) for p in ps], ref_q)


#: Valid parameters of each family, for tests that spoil one of them.
FAMILY_PARAMS = {
    Uniform: {"a": 0.0, "b": 1.0},
    Normal: {"mu": 0.0, "sigma": 1.0},
    Exponential: {"rate": 1.0},
    LogNormal: {"mu": 0.0, "sigma": 1.0},
}


def spoiled_parameters():
    """(family, parameters) with each parameter in turn set to +inf, -inf and
    NaN, then finite parameters whose derived scale is not finite: the width
    b - a of a uniform and the mean 1/rate of an exponential."""
    for cls, params in FAMILY_PARAMS.items():
        for name in params:
            for bad in (math.inf, -math.inf, math.nan):
                yield pytest.param(cls, {**params, name: bad}, id=f"{cls.__name__}-{name}-{bad}")
    yield pytest.param(Uniform, {"a": -1e308, "b": 1e308}, id="Uniform-width")
    yield pytest.param(Exponential, {"rate": 1e-310}, id="Exponential-scale")


@pytest.mark.parametrize("cls, params", spoiled_parameters())
def test_families_reject_non_finite_parameters(cls, params):
    with pytest.raises(ValueError, match="finite"):
        cls(**params)


def test_largest_finite_scales_are_accepted():
    # Just inside the bounds, quantile and CDF stay finite.
    d = Uniform(-8e307, 8e307)
    assert d.quantile(0.5) == 0.0 and d.cdf(0.0) == 0.5
    assert math.isfinite(Exponential(1e-308).quantile(0.5))


def test_parametric_quantile_rejects_levels_outside_the_unit_interval():
    for d in (Uniform(0, 1), Normal(0, 1), Exponential(2.0), LogNormal(0, 1)):
        for p in (-0.25, 1.5, F(-1, 10), F(11, 10)):
            with pytest.raises(DomainError, match="quantile level must lie in"):
                d.quantile(p)


@pytest.mark.parametrize(
    "d", [Uniform(0, 1), Normal(0, 1), Exponential(1e-308), LogNormal(1e5, 1)], ids=repr
)
def test_parametric_arguments_past_the_float_range_are_a_domain_error(d):
    # No float stands for them, and saturating to +-inf would misplace them:
    # Exponential(1e-308) has F near 0.86 at 2*10**308, LogNormal(1e5, 1) F = 0
    # at 10**400.
    for x in (10**400, -(10**400), F(2 * 10**308), F(-(10**401), 3)):
        for query in (d.cdf, d.cdf_left_limit, d.flat_left_of):
            with pytest.raises(DomainError, match="float range"):
                query(x)
    # Just inside the range, and a float infinity, the queries still answer.
    big = F(int(1.7e308))
    assert d.cdf(big) == d.cdf(1.7e308) and d.cdf(math.inf) == 1.0
    assert d.flat_left_of(-big) == d.flat_left_of(-1.7e308)


def test_parametric_flatness_outside_support():
    d = Uniform(0, 1)
    flat, witness = d.flat_left_of(0)
    assert flat and witness < 0
    flat, witness = d.flat_left_of(1.5)
    assert flat and 1 < witness < 1.5
    assert d.flat_left_of(0.5) == (False, None)


# ---------------------------------------------------------------------------
# float comparators
# ---------------------------------------------------------------------------


def test_float_levels_keep_an_absolute_bound():
    assert not leq(0.5 + 2e-9, 0.5, False)
    assert leq(0.5 + 5e-10, 0.5, False)
    assert close(0.3, 0.3 + 5e-10, False)
    assert not close(0.3, 0.3 + 2e-9, False)


def test_float_positions_are_judged_at_their_scale():
    # One float step at 1e9 is 1.2e-7, so an absolute 1e-9 would demand
    # bit-equality there; the bound is relative beyond magnitude 1.
    assert close(1e9, 1e9 + 0.5, False)
    assert not close(1e9, 1e9 + 2.0, False)
    assert close(-1e9 - 0.5, -1e9, False)


def test_an_absolute_bound_keeps_a_gap_at_any_scale():
    assert not close(1e9, 1e9 + 0.5, False, relative=False)
    assert not leq(1e9 + 0.5, 1e9, False, relative=False)
    assert close(0.3, 0.3 + 5e-10, False, relative=False)
    assert leq(1.5 + 5e-10, 1.5, False, relative=False)


def test_leq_is_one_sided():
    assert leq(-1e9, 1.0, False) and leq(1e9, 1e9 + 2.0, False)
    assert leq(1e9 + 0.5, 1e9, False)
    assert not leq(1e9 + 2.0, 1e9, False)
    assert not leq(1.0, -1e9, False)


def test_exact_comparisons_use_no_tolerance():
    tiny = F(1, 10**30)
    assert not leq(F(1, 2) + tiny, F(1, 2), True)
    assert not close(F(1, 3), F(1, 3) + tiny, True)
    assert not close(F(10**9), F(10**9) + F(1, 2), True)
    assert leq(F(1, 2), F(1, 2) + tiny, True) and close(F(1, 3), F(1, 3), True)


def test_the_bound_is_a_parameter():
    assert close(0.5, 0.5 + 5e-13, False, LEVEL_ROUNDING)
    assert not close(0.5, 0.5 + 1e-11, False, LEVEL_ROUNDING)
    assert not leq(0.5 + 1e-11, 0.5, False, LEVEL_ROUNDING)
    assert leq(0.5 + 1e-11, 0.5, False)


def test_values_beyond_the_float_range_are_not_close():
    far = F(10**400)
    assert not close(far, 1e308, False) and not close(1e308, far, False)
    assert not leq(far, 1.0, False)
    assert leq(1.0, far, False) and close(far, far, False)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_is_seed_deterministic():
    d = Piecewise(atoms=[(0, F(1, 3))], segments=[(1, 2, F(2, 3))])
    a = d.sample(500, np.random.default_rng(7))
    b = d.sample(500, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_piecewise_sampling_respects_support():
    d = Piecewise(atoms=[(0, F(1, 3))], segments=[(1, 2, F(2, 3))])
    draws = d.sample(2000, np.random.default_rng(11))
    on_atom = draws == 0
    in_segment = (draws >= 1) & (draws <= 2)
    assert np.all(on_atom | in_segment)
    assert 0.2 < on_atom.mean() < 0.5


def test_piecewise_sampling_past_the_float_range_is_a_domain_error():
    # An atom, a segment end or a support width past the float range.
    far = 10**400
    for d in (
        Piecewise(atoms=[(0, F(1, 2)), (far, F(1, 2))]),
        Piecewise(atoms=[(-far, F(1, 2))], segments=[(0, 1, F(1, 2))]),
        Piecewise(segments=[(0, far, F(1))]),
        Piecewise(segments=[(-1.5e308, 1.5e308, F(1))]),
    ):
        with pytest.raises(DomainError, match="float range"):
            d.sample(10, np.random.default_rng(1))


def test_parametric_sampling_matches_family():
    draws = Uniform(3, 4).sample(1000, np.random.default_rng(3))
    assert np.all((draws >= 3) & (draws <= 4))
    draws = Exponential(2.0).sample(1000, np.random.default_rng(3))
    assert np.all(draws >= 0)
