"""Independent oracles and randomized cross-checking for mixture quantiles.

Three oracles answer the same question by different routes: direct CDF
inversion (exact for piecewise pairs), a grid search of the mixture CDF
evaluated by an independent scalar code path (a bisection over the grid
indices), and a Monte Carlo order statistic.  ``cross_check`` runs an
instance through the split construction and every applicable oracle,
classifies it, verifies the cell relations, and checks the structural
invariants (sandwich, split identity, bracketing, swap symmetry).

``generate_instance`` produces deterministic piecewise instances from a
(seed, index) pair, deliberately biased toward shared breakpoints, atoms on
segment boundaries, and levels hitting the mixture CDF's plateau edges so
that every feasible cell of the case table shows up in bulk runs.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from .classify import ClassificationReport, InternalContradictionError, classify
from .distributions import (
    FLOAT_TOL,
    LEVEL_ROUNDING,
    DomainError,
    Distribution,
    ExtendedReal,
    Exponential,
    LogNormal,
    Normal,
    Piecewise,
    Uniform,
    as_fraction,
    close,
    leq,
)
from .mixture import (
    MixtureSpec,
    _mix_levels,
    direct_quantile,
    mixture_cdf,
    mixture_cdf_left_limit,
)
from .split import QuantileSolution, split_quantile

__all__ = [
    "GridOracleConfig",
    "InstanceGenConfig",
    "CheckReport",
    "SuiteResult",
    "grid_oracle_quantile",
    "monte_carlo_quantile",
    "generate_instance",
    "cross_check",
    "run_suite",
]

@dataclass(frozen=True, slots=True)
class GridOracleConfig:
    """Uniform evaluation grid for the scan oracle: point ``i`` is
    ``i * step + lo`` and the last point is ``hi``, as ``np.linspace`` has
    them."""

    lo: float
    hi: float
    steps: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if self.steps < 2:
            raise ValueError(f"grid needs at least 2 steps, got {self.steps}")
        if not 0.0 < self.step < math.inf:
            raise ValueError(
                f"grid step over [{self.lo}, {self.hi}] in {self.steps} steps "
                f"must be positive and finite, got {self.step}"
            )

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.steps - 1)

    def point(self, i: int) -> float:
        """Grid point ``i``, for ``0 <= i < steps``."""
        return self.hi if i == self.steps - 1 else i * self.step + self.lo

    @classmethod
    def from_mixture(cls, m: MixtureSpec, steps: int) -> "GridOracleConfig":
        """Support hull of both components, padded one unit on each side.

        From 2**53 up, where a float step is wider than one unit, the pad is
        one float step at the hull's largest magnitude instead.  Unbounded
        supports fall back to extreme component quantiles; an exact bound
        beyond the float range, or a hull wider than it, is a ``DomainError``.
        """
        los, his = [], []
        for comp in (m.x, m.y):
            try:
                lo, hi = map(float, comp.support_bounds())
            except OverflowError:
                raise DomainError("grid oracle support bound exceeds the float range") from None
            los.append(lo if math.isfinite(lo) else float(comp.quantile(1e-7)))
            his.append(hi if math.isfinite(hi) else float(comp.quantile(1 - 1e-7)))
        lo, hi = min(los), max(his)
        pad = max(1.0, math.ulp(max(abs(lo), abs(hi))))
        lo, hi = lo - pad, hi + pad
        if hi - lo == math.inf:
            raise DomainError(f"grid oracle hull [{lo}, {hi}] is wider than the float range")
        return cls(lo, hi, steps)


def _erf_normal(z: float) -> float:
    """Standard normal CDF in the erf form, ``statistics.NormalDist().cdf``'s;
    the solver's ``_std_normal_cdf`` uses the erfc form instead."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _grid_cdf(d: Distribution) -> Callable[[float], float]:
    """The CDF of ``d`` at a float point, written from its atoms and segments
    or its parameters: independent of the solver and of the class's own query
    path.  A piecewise CDF adds its atoms, then its segments, each feature's
    float share at the point in stored order.  A position or segment width
    past the float range has no float share, so it is a ``DomainError``, as
    in ``GridOracleConfig.from_mixture``: a width of inf would read every
    point of its ramp as 0."""
    if isinstance(d, Piecewise):
        try:
            atoms = [(float(loc), float(mass)) for loc, mass in d.atoms]
            segments = [tuple(map(float, segment)) for segment in d.segments]
        except OverflowError:
            raise DomainError("grid oracle: a piecewise position exceeds the float range") from None
        if any(right - left == math.inf for left, right, _ in segments):
            raise DomainError("grid oracle: a piecewise segment width exceeds the float range")

        def piecewise(x: float) -> float:
            out = 0.0
            for loc, mass in atoms:
                if x >= loc:
                    out += mass
            for left, right, rise in segments:
                if x >= right:
                    out += rise
                elif x > left:
                    out += rise * ((x - left) / (right - left))
            return out

        return piecewise
    if isinstance(d, Uniform):
        a, width = d.a, d.b - d.a
        return lambda x: min(max((x - a) / width, 0.0), 1.0)
    if isinstance(d, Normal):
        mu, sigma = d.mu, d.sigma
        return lambda x: _erf_normal((x - mu) / sigma)
    if isinstance(d, Exponential):
        rate = d.rate
        return lambda x: -math.expm1(-rate * x) if x > 0.0 else 0.0
    if isinstance(d, LogNormal):
        mu, sigma = d.mu, d.sigma
        return lambda x: _erf_normal((math.log(x) - mu) / sigma) if x > 0.0 else 0.0
    raise ValueError(f"no grid CDF for distribution type {type(d).__name__}")


def grid_oracle_quantile(m: MixtureSpec, p, cfg: GridOracleConfig) -> float:
    """Smallest grid point whose mixture CDF reaches p.

    Sits within one grid step above the true quantile whenever the grid
    covers it.  Raises if no grid point reaches the level.

    The grid CDF is nondecreasing along the grid: each component's is, and
    float rounding keeps a sum of nondecreasing terms nondecreasing.  So a
    bisection over the grid indices finds the same point as a scan of all
    ``steps``, evaluating each component's CDF at most ``steps.bit_length()``
    times: 14 times on 10,001 steps.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"grid oracle needs 0 < p < 1, got {p}")
    q = float(m.q)
    r = 1.0 - q
    f, g = _grid_cdf(m.x), _grid_cdf(m.y)
    level = p - FLOAT_TOL

    def reaches(i: int) -> bool:
        x = cfg.point(i)
        return q * f(x) + r * g(x) >= level

    i = bisect.bisect_left(range(cfg.steps), True, key=reaches)
    if i == cfg.steps:
        raise ArithmeticError(
            f"mixture CDF never reaches {p} on [{cfg.lo}, {cfg.hi}]"
        )
    return cfg.point(i)


def monte_carlo_quantile(m: MixtureSpec, p, n: int, seed: int) -> float:
    """Order statistic of rank ceil(n*p) among n seeded draws of the mixture.

    Of n draws of S, the number taken from X is Binomial(n, q), so the count
    is one binomial draw in place of n indicators (numpy's BTPE sampler
    where n*min(q, 1 - q) > 30, inversion below that).  One generator,
    ``default_rng(seed)``, gives in turn the X count n_x, then n_x values of
    X, then n - n_x values of Y; a side with no draws is never asked to
    sample.  Each block reads the stream on from where the one before
    stopped, a stopping time of an iid stream, so the blocks are independent
    and the result has the law of the order statistic of ``sample``'s n
    draws, though not its seeded values.  An order statistic ignores draw
    order, so the draws are neither scattered nor shuffled.
    """
    p = as_fraction(p)
    if not 0 < p < 1:
        raise DomainError(f"Monte Carlo oracle needs 0 < p < 1, got {p}")
    if n < 1:
        raise DomainError(f"sample size must be positive, got {n}")
    import numpy as np

    rank = math.ceil(n * p)
    rng = np.random.default_rng(seed)
    n_x = int(rng.binomial(n, float(m.q)))
    x_draws = m.x.sample(n_x, rng) if n_x else np.empty(0)
    y_draws = m.y.sample(n - n_x, rng) if n - n_x else np.empty(0)
    # The concatenation is selected in place, with no second copy.
    values = np.concatenate((x_draws, y_draws))
    values.partition(rank - 1)
    return float(values[rank - 1])


# -- randomized instances --------------------------------------------------------


#: Feature caps and level grids of the instance generator.
MAX_ATOMS = 3
MAX_SEGMENTS = 2
Q_GRID = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 5), Fraction(3, 4))
P_GRID = tuple(Fraction(k, 20) for k in range(1, 20))
#: The generator's atom lattice, the half-integers -2..3, in eighths.
_HALF_LATTICE = tuple(range(-16, 25, 4))


@dataclass(frozen=True)
class InstanceGenConfig:
    """The seed of the deterministic piecewise instance generator."""

    seed: int = 0


def _random_component(rng: np.random.Generator) -> Piecewise:
    """One piecewise distribution over a half-integer lattice.

    Positions are worked out as integers in eighths and become ``Fraction``s
    only once chosen.  Segments occupy distinct unit cells so interiors never
    overlap; their widths are even in eighths, so midpoints are whole eighths
    too.  Atoms favor segment endpoints and midpoints, which is what
    produces the jump-with-mass-below and jump-inside-plateau geometries.
    """
    cells = [int(c) - 2 for c in rng.permutation(5)]
    n_seg = int(rng.integers(0, MAX_SEGMENTS + 1))
    segments: list[tuple[int, int]] = []
    for i in range(n_seg):
        base = 8 * cells[i]
        shift = 2 if rng.random() < 0.3 else 0
        width = (4, 6, 8)[int(rng.integers(0, 3))]
        width = min(width, 8 - shift)
        segments.append((base + shift, base + shift + width))

    candidates = set(_HALF_LATTICE)
    for left, right in segments:
        candidates |= {left, right, (left + right) // 2}
    ordered = sorted(candidates)
    lo_atoms = 1 if n_seg == 0 else 0
    n_atoms = int(rng.integers(lo_atoms, MAX_ATOMS + 1))
    picks = rng.choice(len(ordered), size=min(n_atoms, len(ordered)), replace=False)
    atoms = [Fraction(ordered[int(i)], 8) for i in picks]

    return _weighted_piecewise(
        rng, atoms, [(Fraction(left, 8), Fraction(right, 8)) for left, right in segments]
    )


def _weighted_piecewise(
    rng: np.random.Generator,
    atoms: list[Fraction],
    segments: list[tuple[Fraction, Fraction]],
) -> Piecewise:
    """Atoms and segments with random integer weights 1-4, normalised to mass 1."""
    weights = [int(w) for w in rng.integers(1, 5, size=len(atoms) + len(segments))]
    total = sum(weights)
    return Piecewise(
        [(loc, Fraction(w, total)) for loc, w in zip(atoms, weights)],
        [
            (left, right, Fraction(w, total))
            for (left, right), w in zip(segments, weights[len(atoms):])
        ],
    )


def _choose_level(rng: np.random.Generator, m: MixtureSpec) -> Fraction:
    """A level in (0, 1), biased toward the mixture CDF's own critical levels."""
    pieces, _ = m.pieces
    # Piece levels rise strictly from 0 to 1, so the inner cuts are the top
    # levels of all pieces but the last.
    boundary = [lev_hi for _, lev_hi, _, _ in pieces[:-1]]
    jumps = [(lev_lo, lev_hi) for lev_lo, lev_hi, x_left, x_right in pieces if x_left == x_right]
    roll = rng.random()
    if roll < 0.40 and boundary:
        return boundary[int(rng.integers(len(boundary)))]
    if roll < 0.62 and jumps:
        lev_lo, lev_hi = jumps[int(rng.integers(len(jumps)))]
        return (lev_lo + lev_hi) / 2
    return P_GRID[int(rng.integers(len(P_GRID)))]


def _coordinated_pair(
    rng: np.random.Generator,
) -> tuple[Piecewise, Piecewise, Fraction]:
    """A pair sharing one atom location t, with controlled left geometry.

    At least one component gets a segment running into t, so the joint jump
    at t lands in (3c), (3d) or (4c).  Pairs like this are what populate the
    cells where both CDFs jump at the quantile; the caller aims p at the
    joint jump to land there.
    """
    t = Fraction(int(rng.integers(-2, 3)))
    if rng.random() < 0.5:
        t += Fraction(1, 2)
    pattern = int(rng.integers(0, 3))

    def build(abuts: bool) -> Piecewise:
        atoms = [t]
        segments = []
        if abuts:
            segments.append((t - 1, t))
        elif rng.random() < 0.6:
            atoms.append(t - Fraction(3, 2))
        if rng.random() < 0.5:
            atoms.append(t + Fraction(1, 2) + Fraction(int(rng.integers(0, 2)), 2))
        if rng.random() < 0.35:
            segments.append((t + 1, t + 2))
        return _weighted_piecewise(rng, atoms, segments)

    return build(pattern in (0, 2)), build(pattern in (1, 2)), t


def generate_instance(cfg: InstanceGenConfig, index: int) -> tuple[MixtureSpec, Fraction]:
    """Deterministic piecewise instance number ``index`` under ``cfg``.

    Each index draws from an independent substream of (seed, index), so
    instances are reproducible individually and order-independent.  Every
    draw is kept: each geometry the two components can form has a cell.
    """
    import numpy as np

    rng = np.random.default_rng([cfg.seed, index])
    if rng.random() < 0.18:
        x, y, t = _coordinated_pair(rng)
        q = Q_GRID[int(rng.integers(len(Q_GRID)))]
        m = MixtureSpec(q, x, y)
        lo = mixture_cdf_left_limit(m, t)
        hi = mixture_cdf(m, t)
        if rng.random() < 0.5 and lo > 0:
            return m, lo
        return m, lo + (hi - lo) * Fraction(int(rng.integers(1, 8)), 8)
    x = _random_component(rng)
    y = _random_component(rng)
    q = Q_GRID[int(rng.integers(len(Q_GRID)))]
    m = MixtureSpec(q, x, y)
    return m, _choose_level(rng, m)


# -- cross-checking --------------------------------------------------------------


@dataclass(slots=True)
class CheckReport:
    """Everything one instance revealed, with per-invariant outcomes."""

    s_p: ExtendedReal
    solution: QuantileSolution
    cell_id: str | None
    direct_value: ExtendedReal | None
    exact_match: bool | None
    deviation: float | None
    grid_value: float | None
    grid_ok: bool | None
    classification: ClassificationReport | None
    relations_ok: bool | None
    sandwich_ok: bool
    split_identity_ok: bool
    bracketing_ok: bool
    swap_ok: bool
    transpose_ok: bool | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self, index: int | None = None) -> str:
        head = "" if index is None else f"[{index:05d}] "
        cell = self.cell_id or "-"
        status = "ok" if self.passed else "FAIL: " + "; ".join(self.failures)
        return f"{head}cell={cell} s_p={self.s_p} {status}"

    def to_dict(self) -> dict:
        return {
            "cell": self.cell_id,
            "s_p": str(self.s_p),
            "alpha_star": str(self.solution.alpha_star),
            "beta_star": str(self.solution.beta_star),
            "clamped": self.solution.clamped,
            "direct": None if self.direct_value is None else str(self.direct_value),
            "exact_match": self.exact_match,
            "deviation": self.deviation,
            "grid": self.grid_value,
            "grid_ok": self.grid_ok,
            "relations_ok": self.relations_ok,
            "sandwich_ok": self.sandwich_ok,
            "split_identity_ok": self.split_identity_ok,
            "bracketing_ok": self.bracketing_ok,
            "swap_ok": self.swap_ok,
            "transpose_ok": self.transpose_ok,
            "failures": list(self.failures),
        }


def cross_check(
    m: MixtureSpec, p, grid_cfg: GridOracleConfig | None = None
) -> CheckReport:
    """Run one instance through the split path, oracles, and all invariants.

    The grid oracle runs only when ``grid_cfg`` is given (it is by far the
    most expensive check).  Mixed piecewise/parametric pairs skip
    classification.  At q in {0, 1}, where one component answers alone,
    direct inversion, classification and the bracketing are skipped.  A
    ``DomainError`` of a route is raised, not reported: direct inversion
    raises one on a mixed pair whose piecewise quantile at p has no float.
    Float verdicts use ``leq``/``close``, with ``LEVEL_ROUNDING``
    for the level sums only rounding moves: the split identity and p <= F_S(s_p).
    """
    p = as_fraction(p)
    failures: list[str] = []
    sol = split_quantile(m, p)
    s_p = sol.s_p
    exact = m.is_exact
    two_sided = m.lone is None and m.x.is_exact == m.y.is_exact

    # Dual route: direct CDF inversion.
    direct_value = exact_match = deviation = None
    if m.lone is None:
        direct_value = direct_quantile(m, p)
        if exact:
            exact_match = s_p == direct_value
            if not exact_match:
                failures.append(f"split {s_p} != direct {direct_value}")
        else:
            deviation = abs(float(s_p) - float(direct_value))
            if not close(s_p, direct_value, exact):
                failures.append(f"split/direct deviation {deviation:.3e}")

    # Grid oracle.
    grid_value = grid_ok = None
    if grid_cfg is not None:
        grid_value = grid_oracle_quantile(m, p, grid_cfg)
        # The grid is a float oracle, so it is judged in float on every pair.
        s = float(s_p)
        grid_ok = leq(s, grid_value, False) and leq(grid_value, s + grid_cfg.step, False)
        if not grid_ok:
            failures.append(f"grid {grid_value} vs s_p {s_p} (step {grid_cfg.step:.3g})")

    # Classification and cell relations.
    classification = None
    relations_ok = None
    if two_sided:
        try:
            classification = classify(m, p, sol)
        except InternalContradictionError as exc:
            relations_ok = False
            failures.append(f"classification: {exc}")
        else:
            relations_ok = classification.relations_ok
            if not relations_ok:
                bad = [c.relation for c in classification.relations_checked if not c.holds]
                failures.append(f"cell {classification.label.cell_id} relations: {bad}")

    # Sandwich: F_S(s_p-) <= p <= F_S(s_p), formed as ``mixture_cdf`` forms it
    # from the four component CDF values that the bracketing below reads too.
    fx_left, fx_right = m.x.cdf_left_limit(s_p), m.x.cdf(s_p)
    gy_left, gy_right = m.y.cdf_left_limit(s_p), m.y.cdf(s_p)
    left = _mix_levels(m.q, fx_left, gy_left)
    right = _mix_levels(m.q, fx_right, gy_right)
    sandwich_ok = leq(left, p, exact) and leq(p, right, exact, LEVEL_ROUNDING)
    if not sandwich_ok:
        failures.append(f"sandwich {left} <= {p} <= {right} violated")

    # Split identity: q*alpha + (1-q)*beta = p.
    recombined = m.q * sol.alpha_star + (1 - m.q) * sol.beta_star
    split_identity_ok = close(recombined, p, exact, LEVEL_ROUNDING)
    if not split_identity_ok:
        failures.append(f"split identity {recombined} != {p}")

    # Bracketing of the split levels by the component CDFs at s_p.
    if m.lone is None:
        bracketing_ok = (
            leq(fx_left, sol.alpha_star, exact)
            and leq(sol.alpha_star, fx_right, exact)
            and leq(gy_left, sol.beta_star, exact)
            and leq(sol.beta_star, gy_right, exact)
        )
        if not bracketing_ok:
            failures.append(
                f"bracketing alpha*={sol.alpha_star} in [{fx_left}, {fx_right}], "
                f"beta*={sol.beta_star} in [{gy_left}, {gy_right}] violated"
            )
    else:
        bracketing_ok = True

    # Swap symmetry: the mixture with roles exchanged has the same quantile,
    # and its classification is the transposed cell.
    swapped = m.swapped()
    swapped_sol = split_quantile(swapped, p)
    swap_ok = close(swapped_sol.s_p, s_p, exact)
    if not swap_ok:
        failures.append(f"swapped quantile {swapped_sol.s_p} != {s_p}")
    transpose_ok = None
    if classification is not None:
        try:
            swapped_report = classify(swapped, p, swapped_sol)
        except InternalContradictionError as exc:
            transpose_ok = False
            failures.append(f"swapped classification: {exc}")
        else:
            transpose_ok = swapped_report.label == classification.label.transposed()
            if not transpose_ok:
                failures.append(
                    f"swapped cell {swapped_report.label.cell_id} is not the transpose "
                    f"of {classification.label.cell_id}"
                )

    return CheckReport(
        s_p=s_p,
        solution=sol,
        cell_id=None if classification is None else classification.label.cell_id,
        direct_value=direct_value,
        exact_match=exact_match,
        deviation=deviation,
        grid_value=grid_value,
        grid_ok=grid_ok,
        classification=classification,
        relations_ok=relations_ok,
        sandwich_ok=sandwich_ok,
        split_identity_ok=split_identity_ok,
        bracketing_ok=bracketing_ok,
        swap_ok=swap_ok,
        transpose_ok=transpose_ok,
        failures=tuple(failures),
    )


# -- bulk runs --------------------------------------------------------------------


@dataclass(slots=True)
class SuiteResult:
    """Outcome of a randomized verification run."""

    count: int
    census: Counter
    failures: list[tuple[int, tuple[str, ...]]]
    lines: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


#: Grid points of the scan oracle in every ``run_suite`` check.
_SUITE_GRID_STEPS = 10_001
#: Instances per task sent to a ``run_suite`` worker.
_SUITE_CHUNK = 64


def _suite_task(
    cfg: InstanceGenConfig, index: int
) -> tuple[int, str | None, tuple[str, ...], str]:
    m, p = generate_instance(cfg, index)
    report = cross_check(m, p, GridOracleConfig.from_mixture(m, steps=_SUITE_GRID_STEPS))
    return index, report.cell_id, report.failures, report.summary_line(index)


def run_suite(cfg: InstanceGenConfig, count: int, jobs: int = 1) -> SuiteResult:
    """Cross-check ``count`` generated instances, reported in index order.

    ``jobs > 1`` runs them in a process pool of at most ``jobs`` workers and
    never more than one per chunk of ``_SUITE_CHUNK`` instances, since the
    pool starts all its workers at once whether or not they get a chunk.
    """
    if count < 1:
        raise DomainError(f"instance count must be positive, got {count}")
    task = partial(_suite_task, cfg)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(jobs, -(-count // _SUITE_CHUNK))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(task, range(count), chunksize=_SUITE_CHUNK))
    else:
        rows = list(map(task, range(count)))
    census: Counter = Counter()
    failures = []
    lines = []
    for index, cell_id, fails, line in rows:
        census[cell_id or "-"] += 1
        if fails:
            failures.append((index, fails))
        lines.append(line)
    return SuiteResult(count=count, census=census, failures=failures, lines=lines)
