"""Mixture CDF assembly, exact merging, and direct quantile inversion."""

import ast
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixquant.distributions import DomainError, Normal, Piecewise, Uniform
from mixquant.mixture import (
    MixtureSpec,
    direct_quantile,
    merged_distribution,
    mixture_cdf,
    mixture_cdf_left_limit,
    numeric_quantile,
    sample,
)
from mixquant.verification import InstanceGenConfig, generate_instance

from reference import ref_cdf, ref_merged, ref_quantile
from test_distributions import levels, piecewise_dists, points

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_import_leaves_out_scipy_and_mixture_leaves_out_split():
    # scipy only backs the vectorized grid oracle, which imports it on use;
    # direct inversion stays independent of the split solver.
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


def test_memoised_merge_leaves_equality_and_hash_alone():
    x, y = Piecewise.uniform(0, 2), Piecewise.empirical([1, 3])
    m = MixtureSpec(F(1, 3), x, y)
    twin = MixtureSpec(F(1, 3), x, y)
    assert m.merged is m.merged
    assert m.merged == merged_distribution(twin)
    assert m == twin and hash(m) == hash(twin)


def test_merged_requires_piecewise_pair():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Normal(0, 1))
    with pytest.raises(ValueError):
        merged_distribution(m)


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
    assert direct_quantile(m, p) == ref_quantile(merged_distribution(m), p)


def test_numeric_quantile_on_parametric_pair():
    m = MixtureSpec(F(1, 2), Normal(0, 1), Normal(0, 1))
    # mixing a distribution with itself reproduces the component quantile
    assert numeric_quantile(m, F(3, 10)) == pytest.approx(
        Normal(0, 1).quantile(0.3), abs=1e-9
    )
    shifted = MixtureSpec(F(1, 2), Uniform(0, 1), Uniform(1, 2))
    assert numeric_quantile(shifted, F(1, 4)) == pytest.approx(0.5, abs=1e-9)


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
