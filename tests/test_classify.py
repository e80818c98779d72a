"""Case-table classification: cells, sub-cases, relations, transposition."""

import itertools
from collections import Counter
from fractions import Fraction as F

import pytest

from mixquant.classify import (
    _CELL_RELATIONS,
    SUBCASE_EQ,
    CaseLabel,
    ClassificationReport,
    InternalContradictionError,
    classify,
    verify_cell_relations,
)
from mixquant.distributions import DomainError, Normal, Piecewise, Uniform
from mixquant.mixture import MixtureSpec
from mixquant.split import split_quantile
from mixquant.verification import InstanceGenConfig, cross_check, generate_instance

# ---------------------------------------------------------------------------
# frozen cells
# ---------------------------------------------------------------------------


def test_shifted_uniforms_classify_1b():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    report = classify(m, F(1, 4))
    assert report.label.cell == "1b"
    assert report.label.subcase is None
    assert report.f_flat_witness is None
    assert report.g_flat_witness is not None and report.g_flat_witness < F(1, 2)
    assert report.relations_ok


def test_two_point_masses_classify_4b():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    report = classify(m, F(1, 4))
    assert report.label.cell == "4b"
    assert report.f_flat_witness < 0
    assert report.g_flat_witness < 0
    texts = {c.relation: c.holds for c in report.relations_checked}
    assert texts["beta_star = G(s_p)"]
    assert texts["s_p = Qx(alpha_star)"]
    assert texts["s_p > Qy(beta_star)"]  # 0 > Qy(0) = -inf
    assert report.relations_ok


def test_atom_against_uniform_classifies_2a():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.uniform(0, 1))
    report = classify(m, F(3, 5))
    assert report.label.cell == "2a"
    texts = {c.relation: c.holds for c in report.relations_checked}
    assert texts["alpha_star = F(s_p)"]
    assert texts["s_p = Qy(beta_star)"]
    assert texts["s_p > Qx(alpha_star)"]
    assert report.relations_ok


def test_normal_pair_classifies_1a():
    m = MixtureSpec(F(3, 10), Normal(0, 1), Normal(1, 1))
    report = classify(m, F(9, 10))
    assert report.label.cell == "1a"
    assert report.label.subcase is None
    assert report.relations_ok


def test_subcase_splits_on_the_left_limit():
    # shared atom at 1 where X runs a segment into it and Y is flat
    x = Piecewise(atoms=[(1, F(1, 2))], segments=[(0, 1, F(1, 2))])
    y = Piecewise(atoms=[(-1, F(1, 2)), (1, F(1, 2))])
    m = MixtureSpec(F(1, 2), x, y)
    # F_S(1-) = 1/2: hitting it exactly gives the "=" branch of (3d)
    eq = classify(m, F(1, 2))
    assert eq.label.cell == "3d" and eq.label.subcase == "F_S(sp-)=p"
    lt = classify(m, F(3, 4))
    assert lt.label.cell == "3d" and lt.label.subcase == "F_S(sp-)<p"


# ---------------------------------------------------------------------------
# the conditional relation in (3d)/(4c) below the left limit
# ---------------------------------------------------------------------------


def test_4c_with_split_level_on_the_jump_bottom():
    # both components jump at 1/2; X is flat on the left, Y runs a segment in.
    # the line of feasible splits rides Y's jump all the way down, so the
    # x-side level lands exactly on F(s_p-) and X does not attain s_p.
    x = Piecewise(
        atoms=[(F(1, 2), F(3, 8))],
        segments=[(-1, 0, F(3, 8)), (F(9, 4), 3, F(1, 4))],
    )
    y = Piecewise(
        atoms=[(-2, F(3, 7)), (F(1, 2), F(2, 7))],
        segments=[(F(1, 4), F(3, 4), F(1, 7)), (2, F(5, 2), F(1, 7))],
    )
    m = MixtureSpec(F(1, 3), x, y)
    p = F(3, 5)
    sol = split_quantile(m, p)
    assert sol.s_p == F(1, 2)
    assert sol.alpha_star == m.x.cdf_left_limit(sol.s_p)  # bottom of X's jump
    assert not sol.x_attains and sol.y_attains
    report = classify(m, p, sol)
    assert report.label.cell == "4c"
    assert report.label.subcase == "F_S(sp-)<p"
    texts = {c.relation: c.holds for c in report.relations_checked}
    assert texts["s_p = Qy(beta_star)"]
    assert texts["s_p > Qx(alpha_star) [alpha_star = F(s_p-)]"]
    assert report.relations_ok


def test_4c_with_split_level_inside_the_jump():
    # same cell but Y keeps mass above s_p, pinning the x-side level
    # strictly inside X's jump, so X attains
    x = Piecewise(atoms=[(1, F(1, 2)), (-3, F(1, 2))])
    y = Piecewise(atoms=[(1, F(1, 4))], segments=[(0, 1, F(1, 4)), (2, 3, F(1, 2))])
    m = MixtureSpec(F(1, 2), x, y)
    p = F(5, 8)
    sol = split_quantile(m, p)
    report = classify(m, p, sol)
    assert report.label.cell == "4c"
    assert report.label.subcase == "F_S(sp-)<p"
    texts = {c.relation: c.holds for c in report.relations_checked}
    assert texts["s_p = Qy(beta_star)"]
    assert texts["s_p = Qx(alpha_star) [alpha_star > F(s_p-)]"]
    assert report.relations_ok


# ---------------------------------------------------------------------------
# (4d): both CDFs jump off a plateau at s_p
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "y",
    [Piecewise.point_mass(0), Piecewise(atoms=[(0, F(1, 2)), (3, F(1, 2))])],
    ids=["same-point-mass", "shared-lowest-atom"],
)
def test_shared_atom_on_two_plateaus_classifies_4d_below_the_left_limit(y):
    # F_S is constant on [z, 0) for any z < 0, so F_S(0-) = F_S(z) < p: only
    # the "<" sub-case exists, and X's level sits on the bottom of its jump
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), y)
    report = classify(m, F(1, 4))
    assert report.label.cell_id == "4d/F_S(sp-)<p"
    assert report.s_p == 0
    texts = {c.relation: c.holds for c in report.relations_checked}
    assert texts["s_p > Qx(alpha_star) [alpha_star = F(s_p-)]"]
    assert texts["s_p = Qy(beta_star) [beta_star > G(s_p-)]"]
    assert report.relations_ok


# ---------------------------------------------------------------------------
# infeasible-label tripwire
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label", [CaseLabel(2, "b"), CaseLabel(4, "d", SUBCASE_EQ)], ids=["2b", "4d-eq"]
)
def test_infeasible_labels_raise_a_contradiction(label):
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
    sol = split_quantile(m, F(1, 4))
    report = ClassificationReport(label, sol.s_p, None, None)
    with pytest.raises(InternalContradictionError, match=r"cannot occur; instance q=1/2, p=1/4"):
        verify_cell_relations(report, sol, m, F(1, 4))


# ---------------------------------------------------------------------------
# exhaustive small scope
# ---------------------------------------------------------------------------


def _lattice_distributions():
    """Every equal-weight mix of atoms at 0, 1, 2 and unit segments [0,1], [1,2]."""
    features = [("atom", 0), ("atom", 1), ("atom", 2), ("segment", 0), ("segment", 1)]
    dists = []
    for chosen in itertools.chain.from_iterable(
        itertools.combinations(features, k) for k in range(1, len(features) + 1)
    ):
        w = F(1, len(chosen))
        dists.append(
            Piecewise(
                [(x, w) for kind, x in chosen if kind == "atom"],
                [(x, x + 1, w) for kind, x in chosen if kind == "segment"],
            )
        )
    return dists


def test_every_small_lattice_pair_cross_checks_and_fills_every_label():
    # Small-scope hypothesis: all 961 ordered pairs of the 31 lattice
    # distributions at q = 1/3, at every inner cut level of the mixture CDF
    # and every jump midpoint -- 4,927 instances.
    dists = _lattice_distributions()
    assert len(dists) == 31
    census = Counter()
    failures = []
    for x, y in itertools.product(dists, repeat=2):
        m = MixtureSpec(F(1, 3), x, y)
        pieces, _ = m.pieces
        levels = {lev_hi for _, lev_hi, _, _ in pieces[:-1]} | {
            (lev_lo + lev_hi) / 2
            for lev_lo, lev_hi, x_left, x_right in pieces
            if x_left == x_right
        }
        for p in sorted(levels):
            report = cross_check(m, p)
            census[report.cell_id] += 1
            if not report.passed:
                failures.append((m, p, report.failures))
    assert sum(census.values()) == 4927
    assert not failures, f"{len(failures)} failures, first {failures[0]}"
    feasible = {
        f"{f}{g}" + (f"/{sub}" if sub else "")
        for f, g, sub in _CELL_RELATIONS
    }
    assert len(feasible) == 19
    assert set(census) == feasible


# ---------------------------------------------------------------------------
# label mechanics and preconditions
# ---------------------------------------------------------------------------


def test_label_transposition_mapping():
    label = CaseLabel(2, "c", None)
    assert label.transposed() == CaseLabel(3, "b", None)
    branched = CaseLabel(3, "d", "F_S(sp-)=p")
    assert branched.transposed() == CaseLabel(4, "c", "F_S(sp-)=p")
    assert branched.cell_id == "3d/F_S(sp-)=p"


def test_classify_rejects_degenerate_weights_and_levels():
    d = Piecewise.point_mass(0)
    with pytest.raises(DomainError):
        classify(MixtureSpec(1, d, d), F(1, 2))
    m = MixtureSpec(F(1, 2), d, Piecewise.point_mass(1))
    with pytest.raises(DomainError):
        classify(m, 0)


def test_classify_rejects_mixed_component_kinds():
    m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Normal(0, 1))
    with pytest.raises(DomainError):
        classify(m, F(1, 2))


def test_relation_list_matches_report_cell():
    m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
    report = classify(m, F(1, 4))
    sol = split_quantile(m, F(1, 4))
    rechecked = verify_cell_relations(report, sol, m, F(1, 4))
    assert [c.relation for c in rechecked] == [
        c.relation for c in report.relations_checked
    ]
    assert all(c.holds for c in rechecked)


# ---------------------------------------------------------------------------
# randomized transposition property
# ---------------------------------------------------------------------------


def test_swap_transposes_the_cell_on_random_instances():
    cfg = InstanceGenConfig(seed=555)
    for index in range(200):
        m, p = generate_instance(cfg, index)
        if not 0 < m.q < 1:
            continue
        report = classify(m, p)
        swapped = classify(m.swapped(), p)
        assert swapped.label == report.label.transposed(), f"instance {index}"
        assert swapped.s_p == report.s_p, f"instance {index}"


def test_relations_hold_on_random_instances():
    cfg = InstanceGenConfig(seed=556)
    for index in range(200):
        m, p = generate_instance(cfg, index)
        report = classify(m, p)
        assert report.relations_ok, (
            f"instance {index}: "
            f"{[(c.relation, c.holds) for c in report.relations_checked]}"
        )
