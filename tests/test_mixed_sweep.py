"""The float split swept across mixed piecewise/parametric pairs.

Each pair takes the X of a generated piecewise instance (seed 3) and a
parametric family drawn here: a Normal or an Exponential, whose unbounded
tails meet the piecewise atoms and plateaus, or the Uniform(-1, 1.5) that
overlaps the generator's lattice.  The weight is drawn from {1/4, 1/4, 1/4,
1/2, 3/4}, the sides come in random order, and the level is the instance's.
The pairs are rebuilt here, as ``test_parametric_sweep`` rebuilds its own.

Every pair must pass ``cross_check`` without a grid, and the split must
agree with direct inversion up to ``FLOAT_TOL``.
"""

import random
from fractions import Fraction as F

import pytest

from mixquant.distributions import Exponential, Normal, Uniform, close
from mixquant.mixture import MixtureSpec, direct_quantile
from mixquant.verification import InstanceGenConfig, cross_check, generate_instance

COUNT = 1500
#: A plateau level: float F_S(0) rounds up to p exactly, while the true F_S
#: falls short of p until 1/4, so the two orientations land on different
#: ends of the flat stretch and the swap check fails.
PLATEAU = 1390


def mixed_cases():
    rnd = random.Random(5)
    cases = []
    for i in range(COUNT):
        m0, p = generate_instance(InstanceGenConfig(seed=3), i)
        k = rnd.randrange(3)
        if k == 0:
            y = Normal(rnd.uniform(-3, 3), rnd.uniform(0.2, 2))
        elif k == 1:
            y = Exponential(rnd.uniform(0.3, 3))
        else:
            y = Uniform(-1, 1.5)
        q = rnd.choice([F(1, 4), F(1, 4), F(1, 4), F(1, 2), F(3, 4)])
        m = MixtureSpec(q, m0.x, y) if rnd.random() < 0.5 else MixtureSpec(q, y, m0.x)
        cases.append((m, p))
    return cases


CASES = mixed_cases()


def problems(m, p):
    """What the checks hold against the split of ``m`` at ``p``."""
    report = cross_check(m, p)
    found = list(report.failures)
    direct = direct_quantile(m, p)
    if not close(report.s_p, direct, False):
        found.append(f"split {report.s_p} != direct {direct}")
    return found


@pytest.mark.parametrize(
    "indices",
    [
        pytest.param([i for i in range(COUNT) if i != PLATEAU], id="census"),
        pytest.param(
            [PLATEAU],
            id="plateau",
            marks=pytest.mark.xfail(
                strict=True,
                reason="a plateau level that float F_S reaches early; ROADMAP item 10",
            ),
        ),
    ],
)
def test_mixed_pairs_pass_cross_check_and_match_direct_inversion(indices):
    misses = [(i, why) for i in indices for why in [problems(*CASES[i])] if why]
    assert misses == []
