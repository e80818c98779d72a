"""The four workloads: inputs made from a seed, one timed operation, its check.

Each workload builds its inputs in ``__init__`` (this is what ``setup_s``
times), hands out the items of pass ``k`` from ``pass_items``, runs one item
in ``run`` (the timed operation), turns the result into a checkable output
in ``collect`` (untimed), and judges that output in ``check`` after the
timed phase.  Sizes are fixed per workload; the seed only moves positions,
weights, levels and parameters, so run time depends on the seed only
through those draws.
The package is only called through its public names, looked up on the
package at call time so that the tracer's proxies see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import mixquant as mq
import mixquant.cli

from exact_check import component_cdf, mixture_cdf, quantile_violation

Q_GRID = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4))


class Workload:
    """What the worker calls; see the module docstring for the protocol."""

    #: Percentile reported as ``op_ms_tail``: the highest of 50/75/90/95/99
    #: with at least 10 samples beyond it at this commit's rate, but at most
    #: 95, because about 1% of short operations are hit by an interruption
    #: of the machine and p99 then measures those interruptions.
    TAIL_PERCENTILE: float

    def pass_items(self, k: int):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def collect(self, item, out):
        return out

    def check(self, item, out) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError

    def references_ok(self) -> bool:
        """Whether every reference answer the checks relied on was itself exact."""
        return True


class Components:
    """Atoms and segments as the benchmark generated them, for the exact check."""

    def __init__(self, atoms, segments):
        self.atoms = tuple(atoms)
        self.segments = tuple(segments)

    def piecewise(self):
        return mq.Piecewise(self.atoms, self.segments)


def _weights(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 4) for _ in range(n)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def adjacent_segments(rng: random.Random, n_seg: int, n_atoms: int, offset: Fraction) -> Components:
    """``n_seg`` adjacent unit segments starting at ``offset``, plus atoms on
    distinct segment endpoints."""
    ends = rng.sample(range(n_seg + 1), n_atoms)
    w = _weights(rng, n_seg + n_atoms)
    segments = [(offset + i, offset + i + 1, w[i]) for i in range(n_seg)]
    atoms = [(offset + e, w[n_seg + j]) for j, e in enumerate(ends)]
    return Components(atoms, segments)


def empirical_points(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randrange(10 * n * 1000), 1000) for _ in range(n)]


def empirical_components(points) -> Components:
    """Equal atoms at the points, duplicates merged, as ``Piecewise.empirical``
    is documented to build them."""
    share = Fraction(1, len(points))
    mass: dict = {}
    for pt in points:
        mass[pt] = mass.get(pt, 0) + share
    return Components(sorted(mass.items()), ())


def atoms_on_endpoints(rng: random.Random, n_feat: int, x_side: bool) -> Components:
    """Unit segments on a lattice with gaps, and atoms on their endpoints.

    X puts its atoms on right ends, where X is rising, so an atom shared with
    Y never sits on a plateau of both components (a geometry the case table
    excludes).  Y puts atoms on either end.
    """
    n_seg = (2 * n_feat) // 3
    n_atoms = n_feat - n_seg
    cells = sorted(rng.sample(range(2 * n_seg), n_seg))
    ends = sorted({c + 1 for c in cells} if x_side else {c + d for c in cells for d in (0, 1)})
    w = _weights(rng, n_seg + n_atoms)
    segments = [(Fraction(c), Fraction(c + 1), w[i]) for i, c in enumerate(cells)]
    atoms = [(Fraction(e), w[n_seg + j]) for j, e in enumerate(rng.sample(ends, n_atoms))]
    return Components(atoms, segments)


class Sweep(Workload):
    """``generate_instance`` + grid config + ``cross_check``: one ``verify`` task.

    Every pass runs instances ``0 .. POOL-1`` of the seed's generator, so the
    per-op call counts of a traced run do not depend on how many passes fit.
    """

    POOL = 1000
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int, workdir: str):
        self.cfg = mq.InstanceGenConfig(seed=seed)

    def pass_items(self, k: int):
        return range(self.POOL)

    def run(self, index: int):
        m, p = mq.generate_instance(self.cfg, index)
        grid = mq.GridOracleConfig.from_mixture(m, steps=10_001)
        return mq.cross_check(m, p, grid).failures

    def check(self, index, failures):
        return "; ".join(failures) or None


class WideQuantile(Workload):
    """``classify(m, p)`` (which runs ``split_quantile``) on wide mixtures."""

    SEGMENTS = (100, 400, 1000)
    EMPIRICAL = (1000, 4000)
    ENDPOINT_ATOMS = (100, 200)
    LEVELS = 8
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        specs = []
        for n in self.SEGMENTS:
            x = adjacent_segments(rng, n, 0, Fraction(0))
            y = adjacent_segments(rng, n, 0, Fraction(1, 3))
            specs.append((x, y, x.piecewise(), y.piecewise()))
        for n in self.EMPIRICAL:
            pts_x, pts_y = empirical_points(rng, n), empirical_points(rng, n)
            px, py = mq.Piecewise.empirical(pts_x), mq.Piecewise.empirical(pts_y)
            specs.append((empirical_components(pts_x), empirical_components(pts_y), px, py))
        for n in self.ENDPOINT_ATOMS:
            x = atoms_on_endpoints(rng, n, True)
            y = atoms_on_endpoints(rng, n, False)
            specs.append((x, y, x.piecewise(), y.piecewise()))
        self.cases = []
        self.items = []
        for i, (x, y, px, py) in enumerate(specs):
            m = mq.MixtureSpec(Q_GRID[i % len(Q_GRID)], px, py)
            self.cases.append((m, x, y))
            for p in self._levels(m, x, y):
                self.items.append((i, p))
        rng.shuffle(self.items)
        self._verdicts = {}

    def _levels(self, m, x, y):
        """Half a uniform grid, half mixture CDF values and left limits at
        evenly ranked component breakpoints, from the component CDFs (no
        merge), so that jumps and plateau edges are hit."""
        half = self.LEVELS // 2
        levels = [Fraction(j, half + 1) for j in range(1, half + 1)]
        breaks = sorted({loc for loc, _ in x.atoms + y.atoms} | {
            e for l, r, _ in x.segments + y.segments for e in (l, r)
        })
        for k in range(1, half + 1):
            index = (2 * k - 1) * len(breaks) // (2 * half)
            while len(levels) < half + k:
                b = breaks[index]
                index += 1
                if k % 2:
                    lev = m.q * m.x.cdf(b) + (1 - m.q) * m.y.cdf(b)
                else:
                    lev = m.q * m.x.cdf_left_limit(b) + (1 - m.q) * m.y.cdf_left_limit(b)
                if 0 < lev < 1 and lev not in levels:
                    levels.append(lev)
        return levels

    def pass_items(self, k: int):
        return self.items

    def run(self, item):
        case, p = item
        report = mq.classify(self.cases[case][0], p)
        return report.s_p, report.relations_ok

    def check(self, item, out):
        key = (item, out)
        if key not in self._verdicts:
            case, p = item
            m, x, y = self.cases[case]
            s_p, relations_ok = out
            self._verdicts[key] = quantile_violation(m.q, x, y, p, s_p) or (
                None if relations_ok else "cell relations failed"
            )
        return self._verdicts[key]


class WideInvert(Workload):
    """``mixquant curve`` through ``mixquant.cli.main`` on wide mixture documents."""

    #: (features of X, features of Y, rows) of each document.  The sizes
    #: form a ladder of costs with no wide gap, because the cost of one
    #: document also moves by up to half with the seed's draws: a median
    #: that sat in a gap between two sizes would jump between them.
    DOCS = (
        (50, 50, 8), (60, 60, 8), (70, 70, 8), (80, 80, 8),
        (90, 90, 8), (100, 100, 8), (110, 110, 8), (120, 120, 8),
        (120, 60, 8), (60, 120, 8), (150, 50, 8), (50, 150, 8),
        (200, 50, 8), (50, 200, 8), (130, 50, 8), (90, 60, 8),
        (60, 90, 8), (160, 80, 8),
        (60, 60, 12), (80, 80, 12), (100, 100, 12),
        (50, 50, 16), (60, 60, 16), (70, 70, 16), (80, 80, 16),
        (55, 55, 20), (50, 50, 24), (60, 60, 24), (50, 50, 32), (55, 55, 32),
    )
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.docs = []
        self.out_path = os.path.join(workdir, "curve.csv")
        for j, (n_x, n_y, rows) in enumerate(self.DOCS):
            x = adjacent_segments(rng, n_x - n_x // 10, n_x // 10, Fraction(0))
            y = adjacent_segments(rng, n_y - n_y // 10, n_y // 10, Fraction(1, 3))
            m = mq.MixtureSpec(Q_GRID[j % len(Q_GRID)], x.piecewise(), y.piecewise())
            path = os.path.join(workdir, f"doc{j}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(mq.serialize_mixture(m), handle)
            argv = [
                "curve", "--spec", path, "--from", "-1", "--to", str(max(n_x, n_y) + 1),
                "--steps", str(rows), "--out", self.out_path,
            ]
            self.docs.append((argv, m.q, x, y, rows))
        self.order = list(range(len(self.docs)))
        rng.shuffle(self.order)
        self._verdicts = {}

    def pass_items(self, k: int):
        return self.order

    def run(self, j: int):
        with contextlib.redirect_stdout(io.StringIO()):
            return mixquant.cli.main(self.docs[j][0])

    def collect(self, j, code):
        if code != 0:
            return code, ""
        with open(self.out_path, encoding="utf-8") as handle:
            return code, handle.read()

    def check(self, j, out):
        key = (j, out)
        if key not in self._verdicts:
            self._verdicts[key] = self._check_table(j, *out)
        return self._verdicts[key]

    def _check_table(self, j, code, text):
        if code != 0:
            return f"exit code {code}"
        _, q, x, y, rows = self.docs[j]
        lines = text.split("\n")
        if len(lines) != 2 * rows + 4 or lines[0] != "x,F,G,FS" or lines[rows + 2] != "p,Qx,Qy,QS":
            return "unexpected table layout"
        one = Fraction(1)
        for line in lines[1 : rows + 1]:
            xv, f, g, fs = (Fraction(v) for v in line.split(","))
            if (f, g, fs) != (component_cdf(x, xv), component_cdf(y, xv), mixture_cdf(q, x, y, xv)):
                return f"CDF row {line}"
        for k, line in enumerate(lines[rows + 3 : 2 * rows + 3], start=1):
            p, qx, qy, qs = (Fraction(v) for v in line.split(","))
            if p != Fraction(k, rows + 1):
                return f"level row {line}"
            bad = (
                quantile_violation(q, x, y, p, qs)
                or quantile_violation(one, x, x, p, qx)
                or quantile_violation(one, y, y, p, qy)
            )
            if bad:
                return f"quantile row {line}: {bad}"
        return None


class Parametric(Workload):
    """The float route on parametric pairs across scales and support geometries:
    ``direct_quantile`` (bisection), ``grid_oracle_quantile`` on a 10,001-step
    grid and a 20,000-draw ``monte_carlo_quantile``.

    ``split_quantile`` and ``cross_check`` are left out: on these pairs about
    half of them fail at this commit (the numeric split route and its absolute
    tolerances), and a workload must not fail operations.
    """

    SCALES = tuple(10.0**k for k in (-6, -3, 0, 3, 5, 7, 9))
    GEOMETRIES = ("disjoint", "touching", "nested", "overlapping")
    PER_CELL = 8
    MC_DRAWS = 20_000
    GRID_STEPS = 10_001
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.items = []
        self.twins = {}
        makers = [("uniform-uniform", g, _uniform_pair) for g in self.GEOMETRIES]
        makers += [("exponential-uniform", g, _exponential_uniform) for g in self.GEOMETRIES]
        makers += [("normal-normal", g, _normal_pair) for g in ("shifted", "scaled")]
        makers += [("lognormal-exponential", "overlapping", _lognormal_exponential)]
        for kind, geometry, make in makers:
            for scale in self.SCALES:
                for _ in range(self.PER_CELL):
                    x, y = make(rng, geometry, scale)
                    if rng.random() < 0.5:
                        x, y = y, x
                    m = mq.MixtureSpec(rng.choice(Q_GRID), x, y)
                    p = Fraction(rng.randint(1, 99), 100)
                    index = len(self.items)
                    self.items.append((m, p, seed * 1_000_003 + index))
                    if kind == "uniform-uniform":
                        self.twins[index] = _uniform_twin(m)
        self.order = list(range(len(self.items)))
        rng.shuffle(self.order)
        self._references = {}

    def pass_items(self, k: int):
        return self.order

    def run(self, index: int):
        m, p, mc_seed = self.items[index]
        grid = mq.GridOracleConfig.from_mixture(m, self.GRID_STEPS)
        return (
            mq.direct_quantile(m, p),
            mq.grid_oracle_quantile(m, p, grid),
            grid.step,
            mq.monte_carlo_quantile(m, p, self.MC_DRAWS, mc_seed),
        )

    def check(self, index, out):
        m, p, _ = self.items[index]
        s, g, step, mc = out
        return (
            float_quantile_violation(m, p, s)
            or self._twin_violation(index, s)
            or float_grid_violation(m, p, g, step)
            or float_monte_carlo_violation(m, p, mc, self.MC_DRAWS)
        )

    def _twin_violation(self, index, s):
        if index not in self.twins:
            return None
        reference = self.reference(index)
        if reference is None:
            return "the exact twin's quantile fails the exact check"
        if not abs(s - float(reference)) <= position_tolerance(s):
            return f"direct {s!r} vs exact twin {reference}"
        return None

    def reference(self, index: int):
        """The exact twin's quantile, accepted by the exact check (else None)."""
        if index not in self._references:
            twin, x, y = self.twins[index]
            p = self.items[index][1]
            s = mq.split_quantile(twin, p).s_p
            self._references[index] = None if quantile_violation(twin.q, x, y, p, s) else s
        return self._references[index]

    def references_ok(self) -> bool:
        return all(self.reference(index) is not None for index in self.twins)


#: ``numeric_quantile`` documents its answer as a bisection bracket of this
#: absolute width (``DIRECT_BISECTION_TOL``); below it lies float resolution.
BISECTION_WIDTH = 1e-12
#: Level slack of the grid oracle (``GRID_FLOAT_SLACK``), as documented.
GRID_LEVEL_SLACK = 1e-9
#: Level slack for rounding differences between two float CDF formulas.
LEVEL_ROUNDING = 1e-12


def float_cdf(d, x: float) -> float:
    """CDF of a Uniform/Normal/Exponential/LogNormal from its parameters,
    written here from the textbook formulas (no mixquant code)."""
    kind = type(d).__name__
    if kind == "Uniform":
        return 0.0 if x <= d.a else 1.0 if x >= d.b else (x - d.a) / (d.b - d.a)
    if kind == "Normal":
        return 0.5 * math.erfc(-(x - d.mu) / (d.sigma * math.sqrt(2.0)))
    if kind == "Exponential":
        return 0.0 if x <= 0.0 else -math.expm1(-d.rate * x)
    if kind == "LogNormal":
        return 0.0 if x <= 0.0 else 0.5 * math.erfc(-(math.log(x) - d.mu) / (d.sigma * math.sqrt(2.0)))
    raise TypeError(f"no float CDF for {kind}")


def float_mixture_cdf(m, x: float) -> float:
    q = float(m.q)
    return q * float_cdf(m.x, x) + (1.0 - q) * float_cdf(m.y, x)


def position_tolerance(s: float) -> float:
    """How far a correct float answer may sit from the true quantile: the
    bisection width plus a relative 1e-9 for float rounding at ``|s|``."""
    return BISECTION_WIDTH + 1e-9 * abs(s)


def float_quantile_violation(m, p, s) -> str | None:
    """None when ``s`` is the mixture quantile at ``p`` up to
    ``position_tolerance``: ``F_S(s) >= p``, and ``F_S < p`` at twice that
    distance below ``s`` (which rejects the right end of a plateau)."""
    p = float(p)
    if not isinstance(s, float) or not math.isfinite(s):
        return f"direct answer {s!r} is not a finite float"
    if float_mixture_cdf(m, s) < p - LEVEL_ROUNDING:
        return f"direct {s!r}: F_S(s) < p"
    below = s - 2 * position_tolerance(s)
    if float_mixture_cdf(m, below) >= p:
        return f"direct {s!r}: F_S({below!r}) >= p below s"
    return None


def float_grid_violation(m, p, g, step) -> str | None:
    """None when ``g`` is a grid point that reaches ``p`` within the grid's
    level slack while the point one step below does not reach ``p``."""
    p = float(p)
    if float_mixture_cdf(m, g) < p - GRID_LEVEL_SLACK - LEVEL_ROUNDING:
        return f"grid {g!r}: F_S(g) < p"
    if float_mixture_cdf(m, g - step) >= p:
        return f"grid {g!r}: F_S(g - step) >= p"
    return None


def float_monte_carlo_violation(m, p, value, draws: int) -> str | None:
    """None when ``F_S(value)`` lies within ``eps`` of ``p``.  By the
    Dvoretzky-Kiefer-Wolfowitz inequality a correct sampler misses this with
    probability at most ``2 exp(-2 n eps^2)``, 2.3e-7 at n = 20,000."""
    eps = 0.02 + 1.0 / draws
    level = float_mixture_cdf(m, value)
    if not abs(level - float(p)) <= eps:
        return f"Monte Carlo {value!r}: F_S = {level:.6f}, p = {float(p)}"
    return None


def _uniform_twin(m):
    comps = [Components((), [(Fraction(d.a), Fraction(d.b), Fraction(1))]) for d in (m.x, m.y)]
    return mq.MixtureSpec(m.q, comps[0].piecewise(), comps[1].piecewise()), comps[0], comps[1]


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
    return mq.Uniform(a, b), mq.Uniform(c, d)


def _exponential_uniform(rng, geometry, s):
    e = mq.Exponential(1 / (s * rng.uniform(0.5, 2)))
    if geometry == "disjoint":
        hi = -s * rng.uniform(0.5, 3)
        return e, mq.Uniform(hi - s * rng.uniform(0.5, 2), hi)
    if geometry == "touching":
        return e, mq.Uniform(-s * rng.uniform(0.5, 2), 0.0)
    if geometry == "nested":
        lo = s * rng.uniform(0, 1)
        return e, mq.Uniform(lo, lo + s * rng.uniform(0.5, 2))
    return e, mq.Uniform(-s * rng.uniform(0.5, 2), s * rng.uniform(0.5, 2))


def _normal_pair(rng, geometry, s):
    if geometry == "shifted":
        mu = s * rng.uniform(1, 4)
        sigma = rng.uniform(0.5, 2)
        return mq.Normal(mu, sigma), mq.Normal(mu + sigma * rng.uniform(0.5, 3), sigma * rng.uniform(0.5, 2))
    sigma = s * rng.uniform(0.5, 2)
    return mq.Normal(0.0, sigma), mq.Normal(s * rng.uniform(-1, 1), sigma * rng.uniform(2, 10))


def _lognormal_exponential(rng, geometry, s):
    return (
        mq.LogNormal(math.log(s) + rng.uniform(-1, 1), rng.uniform(0.3, 3)),
        mq.Exponential(1 / (s * rng.uniform(0.5, 2))),
    )


def float_self_test() -> None:
    """Raises AssertionError unless the float check accepts true quantiles and
    rejects a plateau's right end and answers shifted by 1e-6."""
    # F_S rises on [0, 1], is flat at 1/2 on [1, 2] and rises on [2, 3].
    m = mq.MixtureSpec(Fraction(1, 2), mq.Uniform(0.0, 1.0), mq.Uniform(2.0, 3.0))
    for p, s in ((Fraction(1, 2), 1.0), (Fraction(1, 4), 0.5), (Fraction(3, 4), 2.5)):
        assert float_quantile_violation(m, p, s) is None, (p, s)
        assert float_quantile_violation(m, p, s + 1e-13) is None, (p, s, "rounding")
        assert float_quantile_violation(m, p, s + 1e-6) is not None, (p, s, "+")
        assert float_quantile_violation(m, p, s - 1e-6) is not None, (p, s, "-")
    half = Fraction(1, 2)
    assert float_quantile_violation(m, half, 2.0) is not None, "plateau right end"
    assert float_quantile_violation(m, half, 1.5) is not None, "plateau inside"
    assert float_grid_violation(m, half, 1.0, 0.01) is None
    assert float_grid_violation(m, half, 1.01, 0.01) is not None, "one step late"
    assert float_grid_violation(m, half, 0.99, 0.01) is not None, "one step early"
    assert float_monte_carlo_violation(m, half, 1.5, 20_000) is None
    assert float_monte_carlo_violation(m, half, 0.9, 20_000) is not None, "level 0.45"


WORKLOADS = {
    "sweep": Sweep,
    "wide_quantile": WideQuantile,
    "wide_invert": WideInvert,
    "parametric": Parametric,
}
