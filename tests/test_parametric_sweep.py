"""The float route swept across parametric geometries and scales.

The pairs are drawn the way ``perfbench``'s ``parametric`` workload draws
them (Uniform/Uniform and Exponential/Uniform in four support geometries,
two Normal/Normal geometries and LogNormal/Exponential, at scales 1e-6 to
1e9, 8 pairs per cell), at seeds 1 and 7919, each pair with its swap.  They
are rebuilt here, not imported, so the tests never load the harness.

Both float routes are judged against CDFs written here from the textbook
formulas: an answer ``s`` must reach p up to ``LEVEL_ROUNDING``, and the
mixture must fall short of p at twice the position tolerance below ``s``.
Every Uniform pair is also compared with its exact ``Piecewise.uniform``
twin.  The direct route bisects to adjacent floats, so its answer is the
first float at which the components' own float CDFs reach p.  Each route's
answers at each seed are pinned bit for bit by a digest.
"""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest

from mixquant.distributions import (
    LEVEL_ROUNDING,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    Uniform,
)
from mixquant.mixture import MixtureSpec, direct_quantile
from mixquant.split import split_quantile

SEEDS = (1, 7919)
SCALES = tuple(10.0**k for k in (-6, -3, 0, 3, 5, 7, 9))
PER_CELL = 8
Q_GRID = (F(1, 4), F(1, 3), F(1, 2), F(3, 5), F(3, 4))


def _uniform_pair(rng, geometry, s):
    a = s * rng.uniform(-4, 4)
    b = a + s * rng.uniform(0.5, 2)
    w = b - a
    if geometry == "disjoint":
        c = b + s * rng.uniform(0.1, 2)
        d = c + s * rng.uniform(0.5, 2)
    elif geometry == "touching":
        c, d = b, b + s * rng.uniform(0.5, 2)
    elif geometry == "nested":
        c = a + w * rng.uniform(0.1, 0.4)
        d = c + w * rng.uniform(0.1, 0.5)
    else:
        c = a + w * rng.uniform(0.2, 0.8)
        d = b + s * rng.uniform(0.2, 1)
    return Uniform(a, b), Uniform(c, d)


def _exponential_uniform(rng, geometry, s):
    e = Exponential(1 / (s * rng.uniform(0.5, 2)))
    if geometry == "disjoint":
        hi = -s * rng.uniform(0.5, 3)
        return e, Uniform(hi - s * rng.uniform(0.5, 2), hi)
    if geometry == "touching":
        return e, Uniform(-s * rng.uniform(0.5, 2), 0.0)
    if geometry == "nested":
        lo = s * rng.uniform(0, 1)
        return e, Uniform(lo, lo + s * rng.uniform(0.5, 2))
    return e, Uniform(-s * rng.uniform(0.5, 2), s * rng.uniform(0.5, 2))


def _normal_pair(rng, geometry, s):
    if geometry == "shifted":
        mu = s * rng.uniform(1, 4)
        sigma = rng.uniform(0.5, 2)
        return Normal(mu, sigma), Normal(mu + sigma * rng.uniform(0.5, 3), sigma * rng.uniform(0.5, 2))
    sigma = s * rng.uniform(0.5, 2)
    return Normal(0.0, sigma), Normal(s * rng.uniform(-1, 1), sigma * rng.uniform(2, 10))


def _lognormal_exponential(rng, geometry, s):
    return (
        LogNormal(math.log(s) + rng.uniform(-1, 1), rng.uniform(0.3, 3)),
        Exponential(1 / (s * rng.uniform(0.5, 2))),
    )


GEOMETRIES = ("disjoint", "touching", "nested", "overlapping")
MAKERS = (
    [(_uniform_pair, g) for g in GEOMETRIES]
    + [(_exponential_uniform, g) for g in GEOMETRIES]
    + [(_normal_pair, g) for g in ("shifted", "scaled")]
    + [(_lognormal_exponential, "overlapping")]
)


def sweep_cases(seed):
    """``(m, p)`` for every pair of the seed's sweep and for its swap."""
    rng = random.Random(seed)
    cases = []
    for make, geometry in MAKERS:
        for scale in SCALES:
            for _ in range(PER_CELL):
                x, y = make(rng, geometry, scale)
                if rng.random() < 0.5:
                    x, y = y, x
                m = MixtureSpec(rng.choice(Q_GRID), x, y)
                p = F(rng.randint(1, 99), 100)
                cases += [(m, p), (m.swapped(), p)]
    return cases


CASES = {seed: sweep_cases(seed) for seed in SEEDS}


def float_cdf(d, x):
    if isinstance(d, Uniform):
        return 0.0 if x <= d.a else 1.0 if x >= d.b else (x - d.a) / (d.b - d.a)
    if isinstance(d, Normal):
        return 0.5 * math.erfc(-(x - d.mu) / (d.sigma * math.sqrt(2.0)))
    if isinstance(d, Exponential):
        return 0.0 if x <= 0.0 else -math.expm1(-d.rate * x)
    if x <= 0.0:
        return 0.0
    return 0.5 * math.erfc(-(math.log(x) - d.mu) / (d.sigma * math.sqrt(2.0)))


def float_mixture_cdf(m, x):
    q = float(m.q)
    return q * float_cdf(m.x, x) + (1.0 - q) * float_cdf(m.y, x)


def position_tolerance(s):
    """How far a float answer may sit from the quantile at ``|s|``."""
    return 1e-12 + 1e-9 * abs(s)


def violation(m, p, s):
    """Why ``s`` is not the float quantile of ``m`` at ``p``, or None."""
    if not isinstance(s, float) or not math.isfinite(s):
        return f"{s!r} is not a finite float"
    p = float(p)
    if float_mixture_cdf(m, s) < p - LEVEL_ROUNDING:
        return f"F_S({s!r}) < p"
    below = s - 2 * position_tolerance(s)
    if float_mixture_cdf(m, below) >= p:
        return f"F_S({below!r}) >= p"
    return None


def answers_digest(rows):
    """sha256 of answer rows, one line each: floats by ``float.hex``, exact
    values by ``str``."""
    h = hashlib.sha256()
    for row in rows:
        h.update((" ".join(v.hex() if isinstance(v, float) else str(v) for v in row) + "\n").encode())
    return h.hexdigest()


def _split_row(m, p):
    sol = split_quantile(m, p)
    return sol.s_p, sol.alpha_star, sol.beta_star


#: Each route's answer row per case; the first entry is the quantile.
ROUTES = {"direct": lambda m, p: (direct_quantile(m, p),), "split": _split_row}

#: ``answers_digest`` of every route's rows at every seed.
DIGESTS = {
    (1, "direct"): "8d6c5b5969dfd1a0c0be8432550a593560a0ee264a48b489d2c34ecbb484caf0",
    (1, "split"): "d0d12f822045a4c059c28b42a3c2eb95cc6beb9dfed0092c8986d701133accf6",
    (7919, "direct"): "2dc5cfb42aa68e6df68cf0f7ee290e4b6d889b1944d7123c7fa794631579f586",
    (7919, "split"): "50399aefabf079597e742d0e9ae22ac6d90721523a075346d40a024f3b149a56",
}


def test_the_sweep_covers_every_cell():
    for seed in SEEDS:
        assert len(CASES[seed]) == 2 * len(MAKERS) * len(SCALES) * PER_CELL == 1232


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("seed", SEEDS)
def test_float_routes_reach_the_level_and_not_earlier(seed, route):
    rows = [ROUTES[route](m, p) for m, p in CASES[seed]]
    misses = [
        (m, p, s, why)
        for (m, p), (s, *_) in zip(CASES[seed], rows)
        for why in [violation(m, p, s)]
        if why is not None
    ]
    assert misses == []
    assert answers_digest(rows) == DIGESTS[seed, route]


@pytest.mark.parametrize("seed", SEEDS)
def test_direct_answers_are_the_first_float_reaching_the_level(seed):
    def reached(m, x, p):
        q = float(m.q)
        return q * m.x.cdf(x) + (1.0 - q) * m.y.cdf(x) >= p

    late = [
        (m, p, s)
        for m, p in CASES[seed]
        for s in [direct_quantile(m, p)]
        if not (reached(m, s, float(p)) and not reached(m, math.nextafter(s, -math.inf), float(p)))
    ]
    assert late == []


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_pairs_match_their_exact_twins(seed):
    misses = []
    compared = 0
    for m, p in CASES[seed]:
        if not (isinstance(m.x, Uniform) and isinstance(m.y, Uniform)):
            continue
        twin = MixtureSpec(
            m.q, *(Piecewise.uniform(F(d.a), F(d.b)) for d in (m.x, m.y))
        )
        want = float(direct_quantile(twin, p))
        for s in (direct_quantile(m, p), split_quantile(m, p).s_p):
            compared += 1
            if not abs(s - want) <= position_tolerance(s):
                misses.append((m, p, s, want))
    assert compared == 2 * 448
    assert misses == []
