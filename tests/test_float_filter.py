"""The float filter on ``Piecewise``'s bisections: ties and out-of-range cuts.

Every bisection over the stored pieces first compares float copies of the
cuts and compares ``Fraction`` keys only inside the run of cuts whose floats
equal the probe's.  These tests place cuts less than one float step apart
and cuts beyond the float range, and check every query and the exact split
against the naive reference.
"""

import ast
import bisect
import math
import os
import random
from fractions import Fraction as F

import pytest

from mixquant.classify import classify
from mixquant.distributions import Piecewise
from mixquant.mixture import MixtureSpec
from mixquant.split import _solve_split

from reference import (
    breakpoints,
    ref_cdf,
    ref_cdf_left,
    ref_flat_left_of,
    ref_quantile,
    ref_solve_split,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "mixquant")

TINY_X = F(1, 10**30)
TINY_P = F(1, 10**40)
FAR = F(10**400)


def _ties() -> Piecewise:
    """Atoms at 1 and 1 + 10**-30, a segment from the second, level cuts 1/3 and 1/3 + 10**-40."""
    return Piecewise(
        atoms=[(0, F(1, 3)), (1, TINY_P), (1 + TINY_X, F(1, 6))],
        segments=[(1 + TINY_X, 1 + 2 * TINY_X, F(1, 6)), (2, 3, F(1, 3) - TINY_P)],
    )


def _far() -> Piecewise:
    """Atoms and segment ends at +-10**400, around a unit segment at 0.

    The atom at 1.5e308 lies inside the float range, below cuts beyond it.
    """
    return Piecewise(
        atoms=[(-FAR, F(1, 4)), (15 * 10**307, F(1, 16)), (FAR, F(1, 16))],
        segments=[(-10 * FAR, -FAR, F(1, 4)), (0, 1, F(1, 8)), (FAR, FAR + 1, F(1, 4))],
    )


def _shifted(d: Piecewise, by: F) -> Piecewise:
    return Piecewise(
        [(loc + by, mass) for loc, mass in d.atoms],
        [(left + by, right + by, rise) for left, right, rise in d.segments],
    )


FIXTURES = {
    "ties": _ties,
    "far": _far,
    "far-ties": lambda: _shifted(_far(), TINY_X),
}


# ---------------------------------------------------------------------------
# the build's order checks where positions share a float
# ---------------------------------------------------------------------------

ABOVE_ONE = 1 + TINY_X
BELOW_ONE = 1 - TINY_X


def _spans(d: Piecewise) -> list:
    """Each piece's ``(x_left, x_right)``, after checking ``_x_lefts`` against them."""
    pieces = d.quantile_pieces()
    assert list(d._x_lefts) == [float(piece.x_left) for piece in pieces]
    return [(piece.x_left, piece.x_right) for piece in pieces]


def test_build_accepts_a_segment_within_one_float():
    assert _spans(Piecewise(segments=[(1, ABOVE_ONE, 1)])) == [(1, ABOVE_ONE)]


def test_build_rejects_a_reversed_segment_within_one_float():
    with pytest.raises(ValueError, match=r"segment \[.*\] must have left < right"):
        Piecewise(segments=[(ABOVE_ONE, 1, 1)])


def test_build_rejects_segments_overlapping_within_one_float():
    with pytest.raises(ValueError, match="segment interiors must be pairwise disjoint"):
        Piecewise(segments=[(0, ABOVE_ONE, F(1, 2)), (1, 2, F(1, 2))])


@pytest.mark.parametrize("gap", [0, TINY_X], ids=["touching", "gap-within-one-float"])
def test_build_accepts_segments_meeting_within_one_float(gap):
    d = Piecewise(segments=[(0, 1, F(1, 2)), (1 + gap, 2, F(1, 2))])
    assert _spans(d) == [(0, 1), (1 + gap, 2)]


def test_build_keeps_atoms_within_one_float():
    d = Piecewise(atoms=[(1, F(1, 2)), (ABOVE_ONE, F(1, 2))])
    assert _spans(d) == [(1, 1), (ABOVE_ONE, ABOVE_ONE)]


def test_build_rejects_duplicate_atoms():
    with pytest.raises(ValueError, match="duplicate atom location 1"):
        Piecewise(atoms=[(1, F(1, 2)), (1, F(1, 2))])


def test_atom_within_one_float_inside_a_segment_end_splits_it():
    d = Piecewise(atoms=[(BELOW_ONE, F(1, 2))], segments=[(0, 1, F(1, 2))])
    assert _spans(d) == [(0, BELOW_ONE), (BELOW_ONE, BELOW_ONE), (BELOW_ONE, 1)]
    d = Piecewise(atoms=[(ABOVE_ONE, F(1, 2))], segments=[(1, 2, F(1, 2))])
    assert _spans(d) == [(1, ABOVE_ONE), (ABOVE_ONE, ABOVE_ONE), (ABOVE_ONE, 2)]


def test_atom_on_a_segment_end_does_not_split_it():
    d = Piecewise(atoms=[(1, F(1, 2))], segments=[(0, 1, F(1, 2))])
    assert _spans(d) == [(0, 1), (1, 1)]
    d = Piecewise(atoms=[(1, F(1, 2))], segments=[(1, 2, F(1, 2))])
    assert _spans(d) == [(1, 1), (1, 2)]
    # Nor does one within one float outside the end: the runs' floats tie,
    # and the exact positions order the atom and the segment.
    d = Piecewise(atoms=[(BELOW_ONE, F(1, 2))], segments=[(1, 2, F(1, 2))])
    assert _spans(d) == [(BELOW_ONE, BELOW_ONE), (1, 2)]
    d = Piecewise(atoms=[(ABOVE_ONE, F(1, 2))], segments=[(0, 1, F(1, 2))])
    assert _spans(d) == [(0, 1), (ABOVE_ONE, ABOVE_ONE)]


def _far_grid() -> Piecewise:
    """Atoms on ``_far``'s breakpoints and segments between them: the
    positions beyond the float range share the floats +-inf."""
    pts = breakpoints(_far())
    share = F(1, 2 * len(pts) - 1)
    return Piecewise([(pt, share) for pt in pts], [(a, b, share) for a, b in zip(pts, pts[1:])])


@pytest.mark.parametrize("make", [_ties, _far_grid], ids=["ties", "far-grid"])
def test_unsorted_rows_come_out_in_exact_order(make):
    d = make()
    for order in (reversed, lambda rows: random.Random(5).sample(rows, len(rows))):
        e = Piecewise(order(d.atoms), order(d.segments))
        assert e.atoms == tuple(sorted(d.atoms)) == d.atoms
        assert e.segments == tuple(sorted(d.segments)) == d.segments
        assert e.quantile_pieces() == d.quantile_pieces()
        assert list(e._x_lefts) == list(d._x_lefts)


def _x_probes(d: Piecewise) -> list:
    pts = breakpoints(d)
    probes = set(pts)
    for a, b in zip(pts, pts[1:]):
        probes.add((a + b) / 2)
    for pt in pts:
        probes |= {pt - TINY_X, pt + TINY_X / 2, pt + TINY_X}
    # Beyond the float range on both sides, between and past the far cuts.
    for far in (F(10**309), FAR / 2, FAR * 20, FAR + F(1, 2)):
        probes |= {far, -far}
    return sorted(probes)


def _levels(d: Piecewise) -> list:
    cuts = {piece.lev_hi for piece in d.quantile_pieces()}
    levels = set(cuts) | {F(k, 60) for k in range(1, 61)}
    for cut in cuts:
        levels |= {cut - TINY_P / 2, min(cut + TINY_P / 2, F(1))}
    # The float of 1/3 itself, which ties with the cuts at 1/3 and just above.
    levels.add(F(float(F(1, 3))))
    return sorted(levels)


@pytest.mark.parametrize("make", FIXTURES.values(), ids=FIXTURES.keys())
def test_every_query_matches_reference_at_ties_and_out_of_range_cuts(make):
    d = make()
    pts = breakpoints(d)
    assert d.support_bounds() == (pts[0], pts[-1])
    for x in _x_probes(d):
        assert d.cdf(x) == ref_cdf(d, x), x
        assert d.cdf_left_limit(x) == ref_cdf_left(d, x), x
        assert d.flat_left_of(x) == ref_flat_left_of(d, x), x
        assert d.is_continuous_at(x) == (ref_cdf(d, x) == ref_cdf_left(d, x)), x
    for p in _levels(d):
        assert d.quantile(p) == ref_quantile(d, p), p


def _near_ties() -> Piecewise:
    """Cut levels and breakpoints less than one float step from those of ``_ties``."""
    return Piecewise(
        atoms=[(TINY_X, F(1, 3) + TINY_P), (1, F(1, 6)), (2 + TINY_X, F(1, 6))],
        segments=[(1 + 2 * TINY_X, 2, F(1, 3) - TINY_P)],
    )


PAIRS = {
    "ties/near-ties": lambda: MixtureSpec(F(1, 2), _ties(), _near_ties()),
    "atoms/near-atoms": lambda: MixtureSpec(
        F(1, 3),
        Piecewise(atoms=[(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))]),
        Piecewise(atoms=[(0, F(1, 3) + TINY_P), (1 + TINY_X, F(1, 3)), (2, F(1, 3) - TINY_P)]),
    ),
    "far/far-ties": lambda: MixtureSpec(F(1, 2), _far(), _shifted(_far(), TINY_X)),
    "ties/far": lambda: MixtureSpec(F(2, 5), _ties(), _far()),
}


def _split_levels(m: MixtureSpec) -> list:
    cuts_x = [piece.lev_hi for piece in m.x.quantile_pieces()]
    cuts_y = [piece.lev_hi for piece in m.y.quantile_pieces()]
    levels = set(cuts_x) | set(cuts_y) | {F(k, 60) for k in range(1, 60)}
    levels |= {lev_hi for _, lev_hi, _, _ in m.pieces[0]}
    # Levels whose feasible range or mapped cuts land on the cuts themselves.
    levels |= {m.q * a + (1 - m.q) * b for a in cuts_x for b in cuts_y}
    return sorted(p for p in levels if 0 < p < 1)


@pytest.mark.parametrize("make", PAIRS.values(), ids=PAIRS.keys())
def test_exact_split_with_colliding_cuts_matches_reference(make):
    m = make()
    for mm in (m, m.swapped()):
        for p in _split_levels(mm):
            assert _solve_split(mm, p) == ref_solve_split(mm, p), p
            assert classify(mm, p).relations_ok, p


# ---------------------------------------------------------------------------
# the filter itself
# ---------------------------------------------------------------------------


@pytest.fixture
def exact_steps(monkeypatch):
    """The probes of every keyed bisection: the exact step of ``_find_cut``."""
    probes = []
    for name in ("bisect_left", "bisect_right"):
        real = getattr(bisect, name)

        def counting(*args, real=real, **kwargs):
            if "key" in kwargs:
                probes.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(bisect, name, counting)
    return probes


def test_quantile_decides_in_float_where_the_cuts_differ(exact_steps):
    points = sorted(F(k, 7) for k in random.Random(3).sample(range(10**6), 4000))
    d = Piecewise.empirical(points)
    for k in range(1, 1001):
        p = F(k, 1001)
        # The k/1001-th quantile of 4000 equal atoms is the ceil(4000p)-th point.
        assert d.quantile(p) == points[math.ceil(4000 * p) - 1]
    assert exact_steps == []


def test_quantile_resolves_float_ties_exactly(exact_steps):
    d = _ties()
    for p in _levels(d):
        assert d.quantile(p) == ref_quantile(d, p), p
    assert F(1, 3) + TINY_P in exact_steps


_CUT_ATTRS = {"lev_hi", "x_left"}


def _is_cut_key(node: ast.expr) -> bool:
    """Whether a ``key=`` argument reads a stored cut column of the pieces."""
    if isinstance(node, ast.Name):
        return node.id in {"_LEV_HI", "_X_LEFT"}
    if isinstance(node, ast.Call):
        return any(
            isinstance(arg, ast.Constant) and arg.value in _CUT_ATTRS for arg in node.args
        )
    if isinstance(node, ast.Lambda):
        return isinstance(node.body, ast.Attribute) and node.body.attr in _CUT_ATTRS
    return False


def _cut_bisections(tree: ast.Module) -> list:
    """Lines of the bisect calls keyed on a cut column outside ``_find_cut``."""
    helper = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "_find_cut"
        for node in ast.walk(func)
    }
    return [
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and id(call) not in helper
        and (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "bisect"
            or isinstance(call.func, ast.Name)
            and call.func.id in {"bisect_left", "bisect_right"}
        )
        and any(kw.arg == "key" and _is_cut_key(kw.value) for kw in call.keywords)
    ]


def test_cut_columns_are_bisected_only_by_the_filter():
    # The check catches the bisections the filter replaced.
    for old in (
        "bisect.bisect_left(pieces, p, key=_LEV_HI)",
        "bisect.bisect_right(pieces, x, key=attrgetter('x_left'))",
        "bisect_left(pieces, x, key=lambda piece: piece.x_left)",
    ):
        assert _cut_bisections(ast.parse(old)) == [1]
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=name)
            found += [(name, line) for line in _cut_bisections(tree)]
    assert found == []
