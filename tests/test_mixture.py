"""Mixture CDF assembly, exact merging, and direct quantile inversion."""

import ast
import glob
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixquant.distributions import (
    DomainError,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    Uniform,
)
from mixquant.mixture import (
    MixtureSpec,
    bisect_float,
    direct_quantile,
    merged_distribution,
    mixture_cdf,
    mixture_cdf_left_limit,
    numeric_quantile,
    sample,
)
from mixquant.serialization import serialize_mixture
from mixquant.verification import InstanceGenConfig, generate_instance, monte_carlo_quantile

from reference import breakpoints, ref_cdf, ref_cdf_left, ref_merged, ref_quantile
from test_cli import _adjacent_units
from test_distributions import (
    FAR_LAW,
    assert_value_at_matches_affine,
    levels,
    piecewise_dists,
    points,
    rational_piecewise_dists,
)
from test_float_filter import FIXTURES

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_import_leaves_out_scipy_and_mixture_leaves_out_split():
    # The package never imports scipy; direct inversion stays independent
    # of the split solver.
    out = subprocess.run(
        [sys.executable, "-c", "import mixquant, sys; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
    with open(os.path.join(SRC, "mixquant", "mixture.py")) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported if name and name.split(".")[-1] == "split"}


#: Modules that only sampling, the grid and Monte Carlo oracles, the instance
#: generator and ``verify --jobs`` need; the exact path must not load them.
HEAVY = ("numpy", "scipy", "concurrent.futures")


def _in_fresh_interpreter(code: str) -> tuple[list, list]:
    """Run ``code`` in a fresh interpreter: the literals it printed, one per
    line, and the ``HEAVY`` modules loaded once it finished."""
    probe = f"{code}\nimport sys\nprint([m for m in {HEAVY!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    *printed, heavy = map(ast.literal_eval, out.stdout.splitlines())
    return printed, heavy


def test_import_loads_no_numpy_scipy_or_process_pool():
    assert _in_fresh_interpreter("import mixquant, mixquant.cli") == ([], [])


def test_grid_oracle_on_normal_and_lognormal_pairs_loads_no_scipy():
    # Nor numpy: the grid oracle evaluates scalar CDFs at the points it probes.
    code = """
from fractions import Fraction
from mixquant import LogNormal, MixtureSpec, Normal, Piecewise, Uniform
from mixquant.verification import GridOracleConfig, grid_oracle_quantile
for m in (
    MixtureSpec(Fraction(1, 3), Normal(0.0, 1.0), Normal(2.0, 0.5)),
    MixtureSpec(Fraction(1, 2), LogNormal(0.0, 1.0), Uniform(0.5, 2.0)),
    MixtureSpec(Fraction(1, 4), Piecewise.uniform(0, 1), Piecewise([(2, 1)])),
):
    print(grid_oracle_quantile(m, Fraction(1, 2), GridOracleConfig.from_mixture(m, 10_001)))
"""
    printed, heavy = _in_fresh_interpreter(code)
    assert len(printed) == 3 and all(math.isfinite(x) for x in printed)
    assert heavy == []


def test_exact_cli_commands_load_no_numpy(tmp_path):
    docs = {
        "exact": MixtureSpec(
            F(1, 3),
            Piecewise([(0, F(1, 2))], [(1, 2, F(1, 2))]),
            Piecewise.uniform(F(1, 2), 3),
        ),
        "parametric": MixtureSpec(F(1, 2), Normal(0.0, 1.0), Exponential(2.0)),
    }
    specs = []
    for name, m in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize_mixture(m)))
        specs.append(str(path))
    out = str(tmp_path / "curve.csv")
    code = f"""
import contextlib, io
from mixquant.cli import main
codes = []
for spec in {specs!r}:
    for fmt in ("text", "machine"):
        for argv in (
            ["quantile", "--spec", spec, "--p", "1/2"],
            ["classify", "--spec", spec, "--p", "1/2"],
            ["curve", "--spec", spec, "--from", "-1", "--to", "3", "--steps", "5", "--out", {out!r}],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(main(["--format", fmt, *argv]))
print(codes)
"""
    # Every command succeeds, and none of them needed numpy.
    assert _in_fresh_interpreter(code) == ([[0] * 12], [])


def _import_time_imports(tree: ast.Module):
    """Modules named by the import statements that run when the module loads.

    Function bodies run only when called, so they are skipped; class bodies
    and module-level ``if``/``try`` blocks run at import and are searched.
    """
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_numpy_scipy_or_process_pool_at_load():
    packages = {name.split(".")[0] for name in HEAVY}
    found = {}
    for path in sorted(glob.glob(os.path.join(SRC, "mixquant", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            names = list(_import_time_imports(ast.parse(handle.read())))
        assert names, path  # the walk reaches every module's own imports
        heavy = [name for name in names if name.split(".")[0] in packages]
        if heavy:
            found[os.path.basename(path)] = heavy
    assert found == {}


def test_mixing_weight_is_validated_and_exact():
    d = Piecewise.point_mass(0)
    m = MixtureSpec(F(1, 3), d, d)
    assert isinstance(m.q, F) and m.q == F(1, 3)
    with pytest.raises(DomainError):
        MixtureSpec(F(3, 2), d, d)
    with pytest.raises(DomainError):
        MixtureSpec(-1, d, d)


def test_swapped_reverses_roles():
    m = MixtureSpec(F(1, 4), Piecewise.point_mass(0), Piecewise.point_mass(1))
    s = m.swapped()
    assert s.q == F(3, 4) and s.x is m.y and s.y is m.x


def test_exactness_flags():
    pm = Piecewise.point_mass(0)
    assert MixtureSpec(F(1, 2), pm, pm).is_exact
    assert not MixtureSpec(F(1, 2), Normal(0, 1), Uniform(0, 1)).is_exact
    assert not MixtureSpec(F(1, 2), pm, Normal(0, 1)).is_exact


# ---------------------------------------------------------------------------
# merged distribution vs. the convex-combination definition
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(piecewise_dists(), piecewise_dists(), st.sampled_from([F(1, 4), F(1, 3), F(1, 2), F(4, 5)]), points)
def test_merged_distribution_matches_weighted_sum(x, y, q, t):
    m = MixtureSpec(q, x, y)
    merged = merged_distribution(m)
    expected = q * ref_cdf(x, t) + (1 - q) * ref_cdf(y, t)
    assert merged.cdf(t) == expected
    assert mixture_cdf(m, t) == expected


def test_merged_handles_coincident_features():
    x = Piecewise(atoms=[(0, F(1, 2))], segments=[(0, 2, F(1, 2))])
    y = Piecewise(atoms=[(0, F(1, 4))], segments=[(1, 3, F(3, 4))])
    m = MixtureSpec(F(1, 2), x, y)
    merged = merged_distribution(m)
    assert merged.cdf(0) == F(3, 8)
    assert merged.cdf(2) == F(3, 8) + F(1, 4) + F(3, 16)
    assert merged.cdf(3) == 1
    # atom masses add across components
    assert dict(merged.atoms)[F(0)] == F(1, 2) * F(1, 2) + F(1, 2) * F(1, 4)
    for x, y, q, want in JOIN_CASES:
        for mm in (MixtureSpec(q, x, y), MixtureSpec(1 - q, y, x)):
            merged = merged_distribution(mm)
            assert (merged.atoms, merged.segments) == want, mm
            assert want == ref_merged(mm), mm


_ATOM_INSIDE = Piecewise(atoms=[(1, F(1, 2))], segments=[(0, 2, F(1, 2))])

#: ``(x, y, q, (atoms, segments))``: where stretches of the mixture meet at an
#: x, they stay one segment unless a segment of either component ends there.
JOIN_CASES = [
    # A Y atom strictly inside an X segment: one segment.
    (Piecewise.uniform(0, 2), Piecewise.point_mass(1), F(1, 2), (((1, F(1, 2)),), ((0, 2, F(1, 2)),))),
    # Two touching X segments of equal density, a Y atom at the touch: two.
    (
        Piecewise(segments=[(0, 1, F(1, 2)), (1, 2, F(1, 2))]),
        Piecewise.point_mass(1),
        F(1, 2),
        (((1, F(1, 2)),), ((0, 1, F(1, 4)), (1, 2, F(1, 4)))),
    ),
    # Y segment ends inside an X segment, one where Y's density does not
    # change: split at each.
    (
        Piecewise.uniform(0, 4),
        Piecewise(segments=[(1, 2, F(1, 2)), (2, 3, F(1, 2))]),
        F(1, 2),
        ((), ((0, 1, F(1, 8)), (1, 2, F(3, 8)), (2, 3, F(3, 8)), (3, 4, F(1, 8)))),
    ),
    # A lone component with an interior atom where the other's segment ends.
    (_ATOM_INSIDE, Piecewise.uniform(1, 3), F(1), (_ATOM_INSIDE.atoms, _ATOM_INSIDE.segments)),
]


Q_GRID = [F(0), F(1, 4), F(1, 3), F(1, 2), F(4, 5), F(1)]


@settings(max_examples=200, deadline=None)
@given(piecewise_dists(), piecewise_dists(), st.sampled_from(Q_GRID))
def test_merged_distribution_equals_reference_merge(x, y, q):
    m = MixtureSpec(q, x, y)
    merged = merged_distribution(m)
    assert (merged.atoms, merged.segments) == ref_merged(m)


def test_merged_distribution_equals_reference_merge_on_generated_instances():
    cfg = InstanceGenConfig(seed=2024)
    for index in range(500):
        m, _ = generate_instance(cfg, index)
        merged = merged_distribution(m)
        assert (merged.atoms, merged.segments) == ref_merged(m), f"instance {index}"


def test_memoised_pieces_leave_equality_and_hash_alone(walk_counter):
    x, y = Piecewise.uniform(0, 2), Piecewise.empirical([1, 3])
    m = MixtureSpec(F(1, 3), x, y)
    twin = MixtureSpec(F(1, 3), x, y)
    assert m.pieces is m.pieces
    # Equal with one memo filled, and with both.
    assert m == twin and hash(m) == hash(twin)
    assert m.pieces == twin.pieces
    assert m == twin and hash(m) == hash(twin)
    assert [id(walked) for walked in walk_counter] == [id(m), id(twin)]


def test_merged_requires_piecewise_pair():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Normal(0, 1))
    with pytest.raises(ValueError):
        merged_distribution(m)
    with pytest.raises(ValueError):
        m.pieces


# ---------------------------------------------------------------------------
# the walked quantile pieces vs. the reference merge
# ---------------------------------------------------------------------------


def _reference_merge(m):
    """``ref_merged``'s tuples as the ``atoms``/``segments`` ``ref_quantile`` reads."""
    atoms, segments = ref_merged(m)
    return SimpleNamespace(atoms=atoms, segments=segments)


def _reference_pieces(d):
    """The quantile pieces ``(lev_lo, lev_hi, x_left, x_right)`` of ``d``, read
    from ``ref_cdf`` and ``ref_cdf_left`` at its breakpoints: at each point
    its atom, where the CDF jumps, then the stretch to the next point, where
    the CDF rises before it."""
    pieces = []
    pts = breakpoints(d)
    for a, b in zip(pts, pts[1:] + [None]):
        lev_lo, lev_hi = ref_cdf_left(d, a), ref_cdf(d, a)
        if lev_hi > lev_lo:
            pieces.append((lev_lo, lev_hi, a, a))
        if b is not None and ref_cdf_left(d, b) > lev_hi:
            pieces.append((lev_hi, ref_cdf_left(d, b), a, b))
    return tuple(pieces)


def _wide_pairs():
    """Adjacent unit segments with atoms on segment ends, Y offset by 1/3 or
    sharing X's ends (where atoms of both sides can coincide)."""
    rng = random.Random(15)
    pairs = []
    for features, offset, q in ((20, F(1, 3), F(2, 5)), (40, F(0), F(1, 3)), (30, F(0), F(3, 4))):
        x, _ = _adjacent_units(rng, features, F(0))
        y, _ = _adjacent_units(rng, features, offset)
        pairs.append(
            MixtureSpec(q, Piecewise(x.atoms, x.segments), Piecewise(y.atoms, y.segments))
        )
    return pairs


WALK_CASES = {
    "generated": lambda: [
        generate_instance(InstanceGenConfig(seed=seed), index)[0]
        for seed in (0, 1, 7919)
        for index in range(150)
    ],
    "wide": _wide_pairs,
    "coincident": lambda: [
        MixtureSpec(
            q,
            Piecewise(atoms=[(0, F(1, 2))], segments=[(0, 2, F(1, 2))]),
            Piecewise(atoms=[(0, F(1, 4))], segments=[(1, 3, F(3, 4))]),
        )
        for q in (F(1, 2), F(1))
    ],
    "float-filter": lambda: [
        MixtureSpec(F(2, 5), make_x(), make_y())
        for make_x, make_y in itertools.product(FIXTURES.values(), repeat=2)
    ],
    # Masses over 7, 11 and 13; segments of non-unit width with non-dyadic
    # and negative ends; atoms strictly inside segments, on shared ends and
    # at one point of both sides; X's first two levels sum 1/6 + 1/3 = 1/2.
    "coprime": lambda: [
        MixtureSpec(
            F(2, 7),
            Piecewise(
                atoms=[(F(-2, 3), F(1, 3)), (F(-1, 7), F(1, 7)), (F(5, 6), F(1, 11))],
                segments=[
                    (F(-7, 3), F(-2, 3), F(1, 6)),
                    (F(-2, 3), F(5, 6), F(3, 13)),
                    (F(5, 6), F(17, 7), F(71, 2002)),
                ],
            ),
            Piecewise(
                atoms=[(F(-1, 7), F(2, 11)), (F(1, 3), F(1, 6)), (F(9, 5), F(4, 13))],
                segments=[(F(-11, 5), F(-1, 7), F(1, 3)), (F(-1, 7), F(9, 5), F(3, 286))],
            ),
        )
    ],
}


@pytest.mark.parametrize("name", WALK_CASES)
def test_walked_pieces_equal_the_merged_pieces(name):
    for m in WALK_CASES[name]():
        for mm in (m, m.swapped()):
            reference = _reference_merge(mm)
            pieces, cuts = mm.pieces
            assert pieces == _reference_pieces(reference), mm
            assert_value_at_matches_affine(pieces)
            # Each component's built levels are its CDF at the piece ends,
            # the left limit where the level stops short of an atom there.
            for comp in (mm.x, mm.y):
                for lev_lo, lev_hi, x_left, x_right in comp.quantile_pieces():
                    segment = x_left != x_right
                    low, high = (ref_cdf, ref_cdf_left) if segment else (ref_cdf_left, ref_cdf)
                    assert (lev_lo, lev_hi) == (low(comp, x_left), high(comp, x_right)), comp
            assert list(cuts) == [float(lev_hi) for _, lev_hi, _, _ in pieces]
            probes = {lev_hi for _, lev_hi, _, _ in pieces[:-1]}
            probes |= {(lev_lo + lev_hi) / 2 for lev_lo, lev_hi, _, _ in pieces}
            for p in sorted(probes):
                assert direct_quantile(mm, p) == ref_quantile(reference, p), (mm, p)


# ---------------------------------------------------------------------------
# direct inversion
# ---------------------------------------------------------------------------


def test_direct_quantile_frozen_examples():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    assert direct_quantile(m, F(1, 4)) == 0
    assert direct_quantile(m, F(3, 4)) == 1
    m2 = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    assert direct_quantile(m2, F(1, 4)) == F(1, 2)


def test_direct_quantile_degenerate_weights_pass_through():
    x = Piecewise.uniform(0, 1)
    y = Piecewise.point_mass(5)
    assert direct_quantile(MixtureSpec(1, x, y), F(1, 2)) == F(1, 2)
    assert direct_quantile(MixtureSpec(0, x, y), F(1, 2)) == 5


def test_direct_quantile_rejects_endpoint_levels():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    with pytest.raises(DomainError):
        direct_quantile(m, 0)
    with pytest.raises(DomainError):
        direct_quantile(m, 1)


def test_direct_quantile_equals_numeric_on_a_mixed_pair():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Normal(0, 1))
    for p in (F(1, 10), F(1, 2), F(9, 10)):
        assert direct_quantile(m, p) == numeric_quantile(m, p)
        assert direct_quantile(m.swapped(), p) == numeric_quantile(m.swapped(), p)


@settings(max_examples=100, deadline=None)
@given(piecewise_dists(), piecewise_dists(), st.sampled_from([F(1, 4), F(1, 2), F(2, 3)]), levels)
def test_direct_quantile_matches_reference_merge(x, y, q, p):
    if p == 1:
        p = F(999, 1000)
    m = MixtureSpec(q, x, y)
    assert direct_quantile(m, p) == ref_quantile(_reference_merge(m), p)


def _assert_direct_quantile_matches_reference_merge(m, levels=()):
    """Direct inversion equals ``ref_quantile`` of the reference merge at
    every top level but the last, every piece's midpoint and ``levels``, in
    both orientations."""
    for mm in (m, m.swapped()):
        reference = _reference_merge(mm)
        pieces, _ = mm.pieces
        probes = {lev_hi for _, lev_hi, _, _ in pieces[:-1]} | set(levels)
        probes |= {(lev_lo + lev_hi) / 2 for lev_lo, lev_hi, _, _ in pieces}
        for p in sorted(probes):
            assert direct_quantile(mm, p) == ref_quantile(reference, p), (mm, p)


@settings(max_examples=100, deadline=None)
@given(
    rational_piecewise_dists(),
    rational_piecewise_dists(),
    st.sampled_from([F(2, 7), F(1, 3), F(9, 11)]),
    st.fractions(F(1, 997), F(996, 997), max_denominator=997),
)
def test_direct_quantile_matches_reference_merge_off_the_lattice(x, y, q, p):
    _assert_direct_quantile_matches_reference_merge(MixtureSpec(q, x, y), [p])


def test_direct_quantile_matches_reference_merge_past_the_float_range():
    near = Piecewise(atoms=[(F(-1, 3), F(1, 2))], segments=[(F(-2, 7), F(5, 3), F(1, 2))])
    for other in (near, FAR_LAW):
        _assert_direct_quantile_matches_reference_merge(MixtureSpec(F(2, 7), FAR_LAW, other))


def test_numeric_quantile_on_parametric_pair():
    m = MixtureSpec(F(1, 2), Normal(0, 1), Normal(0, 1))
    # mixing a distribution with itself reproduces the component quantile
    assert numeric_quantile(m, F(3, 10)) == pytest.approx(
        Normal(0, 1).quantile(0.3), abs=1e-9
    )
    shifted = MixtureSpec(F(1, 2), Uniform(0, 1), Uniform(1, 2))
    assert numeric_quantile(shifted, F(1, 4)) == pytest.approx(0.5, abs=1e-9)


def test_numeric_quantile_returns_the_lower_bracket_end_once_reached():
    # Qx(1/2) = 0 and Qy(1/2) = 1, and F_S(0) = 5/8 already reaches p: the
    # answer is the lower end of [min(Qx, Qy), max(Qx, Qy)].
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Uniform(-1, 3))
    assert direct_quantile(m, F(1, 2)) == 0.0
    assert numeric_quantile(m.swapped(), F(1, 2)) == 0.0


def test_numeric_quantile_rejects_a_piecewise_bracket_end_past_the_float_range():
    # Qx(p) is the atom at 10**400 from p = 1/2 on.  A search up to inf would
    # answer where Phi rounds to 1 (about 8.29) at p = 3/4, far below the true
    # quantile 10**400.  At p = 3/5 the quantile is a float near 0.25, but
    # the bracket end has no float either.
    from mixquant.verification import cross_check

    m = MixtureSpec(F(1, 2), Piecewise([(0, F(1, 2)), (10**400, F(1, 2))], []), Normal(0, 1))
    for p in (F(3, 5), F(3, 4), F(9, 10)):
        for mm in (m, m.swapped()):
            for route in (direct_quantile, numeric_quantile, cross_check):
                with pytest.raises(DomainError, match="bracket end"):
                    route(mm, p)
    assert direct_quantile(m, F(1, 2)) == 0.0


def test_numeric_quantile_searches_up_to_a_parametric_quantile_of_inf():
    # Qx(9/10) = -log1p(-0.9)/1e-308 overflows to inf; the crossing is the
    # float near 1.6e308 where F_S first reaches 9/10.
    from mixquant.verification import cross_check

    m = MixtureSpec(F(1, 2), Exponential(1e-308), Normal(0, 1))
    assert m.x.quantile(F(9, 10)) == math.inf
    for mm in (m, m.swapped()):
        assert direct_quantile(mm, F(9, 10)) == float.fromhex("0x1.ca6214ff8ff41p+1023")
        report = cross_check(mm, F(9, 10))
        # The cell relation s_p = Q(beta*) fails here (beta* rounds to
        # 1 - 2**-53, whose normal quantile is about 8.21); the split and
        # direct inversion agree.
        assert [f for f in report.failures if not f.startswith("cell 1a relations")] == []


def test_numeric_quantile_stops_at_adjacent_floats_far_from_zero():
    # Near 1e9 one float step is about 1.2e-7; the bracket still ends as two
    # adjacent floats.
    m = MixtureSpec(F(1, 2), Normal(1e9, 1.0), Normal(1e9 + 1.0, 2.0))
    s = numeric_quantile(m, F(3, 10))

    def mixture_cdf_float(x):
        return 0.5 * m.x.cdf(x) + 0.5 * m.y.cdf(x)

    assert 1e9 - 2.0 < s < 1e9 + 1.0
    assert mixture_cdf_float(s) >= 0.3
    assert mixture_cdf_float(math.nextafter(s, -math.inf)) < 0.3


STOP_WIDTH_PAIRS = [
    (F(1, 2), Normal(0, 1), Normal(1, 2)),
    (F(1, 3), Normal(-2, 0.5), Exponential(1.5)),
    (F(3, 4), Exponential(0.5), Uniform(-1, 3)),
    (F(2, 5), LogNormal(0, 1), Uniform(0.5, 2)),
    (F(1, 4), LogNormal(0.5, 0.25), Normal(2, 1)),
    (F(3, 5), Uniform(0, 1), Uniform(0.5, 4)),
]


@pytest.mark.parametrize("q, x, y", STOP_WIDTH_PAIRS)
def test_numeric_quantile_stops_at_its_bisection_width(q, x, y):
    # The bracket ends at adjacent floats around the crossing, so one float
    # below the answer the mixture still falls short of p.
    m = MixtureSpec(q, x, y)

    def reached(t, p):
        return float(q) * x.cdf(t) + (1 - float(q)) * y.cdf(t) >= p

    for k in range(1, 20):
        p = k / 20
        s = numeric_quantile(m, F(k, 20))
        assert reached(s, p), (k, s)
        assert not reached(math.nextafter(s, -math.inf), p), (k, s)


def _gaps(flip):
    """Gaps whose ``gap >= 0`` is the predicate ``x >= flip``, some built to
    mislead the interpolation.  Where the predicate fails a nan gap is
    allowed, since ``nan >= 0`` is false."""

    def linear(x):
        return 0.0 if x == flip else x - flip

    def capped(x):
        return math.copysign(1e300, linear(x)) if abs(linear(x)) > 1.0 else linear(x)

    def non_finite(x):
        odd = hash(x) % 2
        if x >= flip:
            return math.inf if odd else 2.0
        return math.nan if odd else -math.inf

    return {
        "linear": linear,
        "step": lambda x: 1.0 if x >= flip else -1.0,
        "huge below": lambda x: 1e-300 if x >= flip else -1e300,
        "huge above": lambda x: 1e300 if x >= flip else -1e-300,
        "huge tails": capped,
        "non-finite": non_finite,
    }


_BRACKETS = pytest.mark.parametrize(
    "lo, hi",
    [(-math.inf, math.inf), (-1.5e308, 1.5e308), (5e-324, 1.0), (-1.0, -0.0)],
)


def _assert_closes_at_flip(probe, lo, hi, flip, max_probes, label):
    # lo is probed first and once, hi never, and ``max_probes`` bounds the
    # probes between them.
    probes = []

    def recorded(x):
        probes.append(x)
        return probe(x)

    got_lo, got_hi = bisect_float(recorded, lo, hi)
    assert probes[0] == lo and lo not in probes[1:] and hi not in probes, (flip, label)
    if flip == lo:
        assert (got_lo, got_hi) == (lo, lo) and len(probes) == 1, (flip, label)
        return
    assert got_hi == flip and math.nextafter(got_lo, math.inf) == got_hi, (flip, label)
    assert got_lo < flip and lo <= got_lo, (flip, label)
    assert len(probes) - 1 <= max_probes, (flip, label)


def _flips(lo, hi):
    # At lo itself, just above it, inside, and at hi itself; at (-1.0, -0.0)
    # the flip at 0 leaves hi = -0.0 and lo the negative float next to it.
    inside = 0.5 * lo + 0.5 * hi if math.isfinite(hi - lo) else 1.0
    return (lo, math.nextafter(lo, math.inf), inside, hi)


@_BRACKETS
def test_bisect_float_ends_at_adjacent_floats_within_64_probes(lo, hi):
    # After lo, a predicate halves the ranks.
    for flip in _flips(lo, hi):
        _assert_closes_at_flip(lambda x: x >= flip, lo, hi, flip, 64, "predicate")


@_BRACKETS
def test_bisect_float_gaps_end_at_adjacent_floats_within_65_probes(lo, hi):
    # Gaps drive ITP, whose worst case is 64 + n0 = 65 probes after lo's on
    # these brackets, however the gaps mislead it.
    for flip in _flips(lo, hi):
        for kind, gap in _gaps(flip).items():
            _assert_closes_at_flip(gap, lo, hi, flip, 65, kind)


def test_gaps_and_halving_end_on_the_same_floats_on_the_parametric_sweep():
    # numeric_quantile's bracket and gap F_S(x) - p, rebuilt here.
    from test_parametric_sweep import CASES

    bisected = 0
    for m, p in CASES[1] + CASES[7919]:
        q, p = float(m.q), float(p)
        lo, hi = sorted((float(m.x.quantile(p)), float(m.y.quantile(p))))

        def gap(x):
            return q * m.x.cdf(x) + (1.0 - q) * m.y.cdf(x) - p

        if gap(lo) >= 0.0:
            continue
        bisected += 1
        assert bisect_float(gap, lo, hi) == bisect_float(lambda x: gap(x) >= 0.0, lo, hi), (m, p)
    assert bisected > 2000


def test_direct_route_probes_at_most_15_times_per_call_on_the_parametric_sweep(monkeypatch):
    # Halving took 55 probes per call here; the gaps, seeded by the low
    # end's, take about 14.6.
    from mixquant.distributions import Parametric
    from test_parametric_sweep import CASES

    cases = CASES[1] + CASES[7919]
    cdf = Parametric.cdf
    calls = []

    def counted(self, x):
        calls.append(x)
        return cdf(self, x)

    monkeypatch.setattr(Parametric, "cdf", counted)
    for m, p in cases:
        direct_quantile(m, p)
    # Each probe reads both components' CDFs once.
    assert len(calls) / 2 <= 15 * len(cases)


def test_float_bisection_midpoint_stays_finite_at_the_float_range_edge():
    # Both routes bisect a bracket of ends near -1.5e308 and 1.5e308, where
    # 0.5 * (lo + hi) overflows to -inf and stopped the bisection on a wrong
    # answer (-7.5e307 at p = 1/4, 1.375e308 at p = 3/4).
    from mixquant.split import split_quantile

    m = MixtureSpec(F(1, 2), Uniform(-1.5e308, -1e308), Uniform(1e308, 1.5e308))
    for p, expected in ((F(1, 4), -1.25e308), (F(3, 4), 1.25e308)):
        for mm in (m, m.swapped()):
            assert direct_quantile(mm, p) == expected
            assert split_quantile(mm, p).s_p == expected


# ---------------------------------------------------------------------------
# left limits and sampling
# ---------------------------------------------------------------------------


def test_left_limit_subtracts_shared_jump():
    m = MixtureSpec(
        F(1, 3), Piecewise.point_mass(0), Piecewise.empirical([0, 1])
    )
    assert mixture_cdf(m, 0) == F(1, 3) + F(2, 3) * F(1, 2)
    assert mixture_cdf_left_limit(m, 0) == 0


def test_sampling_is_deterministic_and_mixes():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    a = sample(m, 1000, seed=42)
    b = sample(m, 1000, seed=42)
    assert np.array_equal(a, b)
    share = (a == 0).mean()
    assert 0.4 < share < 0.6
    assert set(np.unique(a)) <= {0.0, 1.0}


def test_sampling_degenerate_weights():
    m = MixtureSpec(1, Piecewise.point_mass(2), Piecewise.point_mass(9))
    assert np.all(sample(m, 100, seed=1) == 2.0)


#: A parametric, a piecewise and a mixed component pair.
SAMPLING_PAIRS = {
    "parametric": (Normal(0.0, 1.0), Exponential(2.0)),
    "piecewise": (
        Piecewise([(0, F(1, 2))], [(1, 3, F(1, 2))]),
        Piecewise.uniform(-1, 2),
    ),
    "mixed": (Piecewise([(1, F(1, 4)), (2, F(3, 4))], []), Uniform(-1.0, 4.0)),
}


@pytest.mark.parametrize(
    "kind, q, digest",
    [
        ("parametric", F(1, 3), "d4e97bc4d90c3407e6d1fcf7be58f619d6cdd39a036e65742f0da7e3cdebdc0e"),
        ("piecewise", F(1, 2), "b713bd79087850f7b0a36022a001039e72303be2c62c01605855ce44ee5af266"),
        ("mixed", F(3, 4), "df5782d1b36966839bc5a55ca187e35b195305a1b53ea425e2569cb2e1cbf5de"),
    ],
)
def test_sample_output_is_pinned(kind, q, digest):
    # The sha256 of the draws' bytes: any change to which substream draws
    # what, or to where a draw lands in the output, moves it.  The digests
    # also pin numpy's Generator streams, so a numpy upgrade may move them.
    m = MixtureSpec(q, *SAMPLING_PAIRS[kind])
    assert hashlib.sha256(sample(m, 20_000, seed=7).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("q", [F(0), F(1, 3), F(1)])
@pytest.mark.parametrize("kind", SAMPLING_PAIRS)
def test_monte_carlo_is_the_order_statistic_of_sample(kind, q):
    m = MixtureSpec(q, *SAMPLING_PAIRS[kind])
    n = 20_000
    ordered = np.sort(sample(m, n, seed=5))
    for p in (F(1, 100), F(1, 2), F(99, 100)):
        assert monte_carlo_quantile(m, p, n, seed=5) == ordered[math.ceil(n * p) - 1]


@pytest.mark.parametrize(
    "x, y",
    [
        (Normal(0.0, 1.0), Exponential(2.0)),
        (Uniform(-1.0, 2.0), LogNormal(0.0, 1.0)),
        (Normal(1e9, 3.0), Uniform(0.0, 1e-6)),
        SAMPLING_PAIRS["piecewise"],
        SAMPLING_PAIRS["mixed"],
    ],
    ids=["normal-exponential", "uniform-lognormal", "normal-uniform", "piecewise", "mixed"],
)
def test_monte_carlo_selects_among_its_draws_in_place(x, y):
    # The draws (8n bytes), the concatenation that is selected in place
    # (8n) and the indicator mask (n) stay under 2.5 * 8n; a second copy for
    # the selection would take the peak past 3 * 8n.  A piecewise side's
    # ``sample`` also holds its piece indexes and one gathered column while
    # it scales its draws in place: 2.75 * 8n.
    import tracemalloc

    n = 20_000
    bound = 2.75 if x.is_exact or y.is_exact else 2.5
    for q in (F(1, 4), F(1, 2), F(3, 4)):
        m = MixtureSpec(q, x, y)
        monte_carlo_quantile(m, F(1, 2), n, seed=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            monte_carlo_quantile(m, F(1, 2), n, seed=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n, (q, peak / (8 * n))
