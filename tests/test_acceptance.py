"""Acceptance gate: one criterion per test, one printed pass/fail line each.

The 10,000-instance randomized sweep is shared by the criteria that consume
it (exactness, census, relations, identities, swap invariance); it runs once
per session.
"""

import itertools
import json
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from scipy import stats

from mixquant.classify import BRANCHING_CELLS, SUBCASE_EQ, SUBCASE_LT, classify
from mixquant.cli import main
from mixquant.distributions import Exponential, LogNormal, Normal
from mixquant.mixture import MixtureSpec, numeric_quantile
from mixquant.serialization import parse_mixture, serialize_mixture
from mixquant.split import split_quantile
from mixquant.verification import (
    InstanceGenConfig,
    cross_check,
    generate_instance,
    monte_carlo_quantile,
)

SWEEP_SEED = 20240811
SWEEP_COUNT = 10_000

# Every cell but (2b), each branching cell split in two, less (4d)/=: 19.
IMPOSSIBLE_BUCKETS = {"2b", f"4d/{SUBCASE_EQ}"}
FEASIBLE_BUCKETS = sorted(
    {
        f"{i}{letter}" + (f"/{sub}" if sub else "")
        for i in (1, 2, 3, 4)
        for letter in "abcd"
        for sub in (
            (SUBCASE_LT, SUBCASE_EQ) if (i, letter) in BRANCHING_CELLS else (None,)
        )
    }
    - IMPOSSIBLE_BUCKETS
)


def announce(criterion: int, ok: bool, detail: str) -> str:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def sweep():
    cfg = InstanceGenConfig(seed=SWEEP_SEED)
    start = time.perf_counter()
    reports = []
    for index in range(SWEEP_COUNT):
        m, p = generate_instance(cfg, index)
        reports.append(cross_check(m, p))
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_1_split_equals_direct_exactly(sweep):
    reports, elapsed = sweep
    exact = sum(1 for r in reports if r.exact_match is True)
    ok = exact == SWEEP_COUNT and elapsed < 60.0
    line = announce(1, ok, f"{exact}/{SWEEP_COUNT} exact rational matches, {elapsed:.1f}s")
    assert ok, line


def test_criterion_2_cell_census_covers_every_feasible_cell(sweep):
    reports, _ = sweep
    census = Counter(r.cell_id for r in reports)
    impossible = [c for c in census if c in IMPOSSIBLE_BUCKETS]
    short = {b: census.get(b, 0) for b in FEASIBLE_BUCKETS if census.get(b, 0) < 50}
    ok = not impossible and not short and len(census) == len(FEASIBLE_BUCKETS)
    full = len(FEASIBLE_BUCKETS) - len(short)
    detail = (
        f"{full}/{len(FEASIBLE_BUCKETS)} buckets with >= 50 hits, "
        f"min {min(census.values())}, impossible cells {len(impossible)}"
    )
    if short:
        detail += f", short buckets {short}"
    line = announce(2, ok, detail)
    assert ok, line


def test_criterion_3_cell_relations_hold_exactly(sweep):
    reports, _ = sweep
    bad = [i for i, r in enumerate(reports) if r.relations_ok is not True]
    line = announce(
        3, not bad, f"{SWEEP_COUNT - len(bad)}/{SWEEP_COUNT} with all relations exact"
    )
    assert not bad, line


def test_criterion_4_sandwich_and_split_identities(sweep):
    reports, _ = sweep
    bad = [
        i
        for i, r in enumerate(reports)
        if not (r.sandwich_ok and r.split_identity_ok and r.bracketing_ok)
    ]
    line = announce(
        4,
        not bad,
        f"{SWEEP_COUNT - len(bad)}/{SWEEP_COUNT} satisfy sandwich, "
        "level recombination, and level bracketing",
    )
    assert not bad, line


def test_criterion_5_galois_adjunction_on_random_distributions():
    cfg = InstanceGenConfig(seed=1001)
    dists = []
    for index in range(500):
        m, _ = generate_instance(cfg, index)
        dists.extend((m.x, m.y))
    levels = [F(i, 11) for i in range(1, 11)]
    violations = 0
    for d in dists:
        lo, hi = d.support_bounds()
        span = hi - lo + 2
        xs = [lo - 1 + span * F(j, 9) for j in range(10)]
        for x, p in itertools.product(xs, levels):
            if (d.quantile(p) <= x) != (p <= d.cdf(x)):
                violations += 1
    ok = violations == 0
    line = announce(
        5, ok, f"{len(dists)} distributions x 100 points, {violations} violations"
    )
    assert ok, line


def test_criterion_6_smooth_pairs_agree_and_classify_1a():
    pairs = (
        [(Normal(0, 1), Normal(mu, sig)) for mu in (0.5, 1.0, 2.0) for sig in (0.5, 1.5)]
        + [
            (Normal(2, 0.5), LogNormal(mu, sig))
            for mu in (0.0, 0.25)
            for sig in (0.5, 0.75)
        ]
        + [(Exponential(rate), Normal(3, 1)) for rate in (0.5, 1.0)]
    )
    grid = [
        (q, p)
        for q in (F(1, 4), F(1, 2), F(3, 4))
        for p in (F(3, 10), F(1, 2), F(7, 10))
    ]
    cases = list(itertools.product(pairs, grid))[:100]
    assert len(cases) == 100
    worst_eq = worst_inv = 0.0
    cells = set()
    for (x, y), (q, p) in cases:
        m = MixtureSpec(q, x, y)
        sol = split_quantile(m, p)
        worst_eq = max(worst_eq, abs(float(x.quantile(sol.alpha_star)) - float(y.quantile(sol.beta_star))))
        worst_inv = max(worst_inv, abs(float(sol.s_p) - float(numeric_quantile(m, p))))
        cells.add(classify(m, p, sol).label.cell_id)
    ok = worst_eq <= 1e-9 and worst_inv <= 1e-9 and cells == {"1a"}
    line = announce(
        6,
        ok,
        f"100 smooth mixtures, max |Qx(a*)-Qy(b*)| {worst_eq:.2e}, "
        f"max split-vs-bisection {worst_inv:.2e}, cells {sorted(cells)}",
    )
    assert ok, line


def test_criterion_7_monte_carlo_consistency():
    n = 1_000_000
    combos = [
        (mu2, q, p)
        for mu2 in (0.5, 1.0, 1.5, 2.5, 3.5)
        for q in (F(1, 4), F(3, 5))
        for p in (F(3, 10), F(7, 10))
    ]
    assert len(combos) == 20
    start = time.perf_counter()
    hits = 0
    for seed, (mu2, q, p) in enumerate(combos, start=1):
        m = MixtureSpec(q, Normal(0, 1), Normal(mu2, 1.25))
        s_p = float(split_quantile(m, p).s_p)
        density = float(q) * stats.norm.pdf(s_p, 0, 1) + (1 - float(q)) * stats.norm.pdf(
            s_p, mu2, 1.25
        )
        band = 4.0 * ((float(p) * (1 - float(p)) / n) ** 0.5) / density
        empirical = monte_carlo_quantile(m, p, n, seed=seed)
        if abs(empirical - s_p) <= band:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 19 and elapsed < 120.0
    line = announce(7, ok, f"{hits}/20 inside the 4-sigma band, {elapsed:.1f}s")
    assert ok, line


def test_criterion_8_swap_invariance_and_transposition(sweep):
    reports, _ = sweep
    bad = [i for i, r in enumerate(reports) if not (r.swap_ok and r.transpose_ok)]
    line = announce(
        8,
        not bad,
        f"{SWEEP_COUNT - len(bad)}/{SWEEP_COUNT} swap-invariant with transposed cells",
    )
    assert not bad, line


def test_criterion_9_cli_determinism_and_round_trip(tmp_path, capsys):
    # 100-file parse/serialize corpus, exact rational round-trips
    cfg = InstanceGenConfig(seed=909)
    round_trips = 0
    for index in range(100):
        m, _ = generate_instance(cfg, index)
        path = tmp_path / f"spec_{index:03d}.json"
        path.write_text(json.dumps(serialize_mixture(m)), encoding="utf-8")
        back = parse_mixture(json.loads(path.read_text(encoding="utf-8")))
        if (
            back.q == m.q
            and back.x.atoms == m.x.atoms
            and back.x.segments == m.x.segments
            and back.y.atoms == m.y.atoms
            and back.y.segments == m.y.segments
        ):
            round_trips += 1

    # byte-identical CLI output across repeated fixed-seed invocations
    spec = str(tmp_path / "spec_000.json")
    curve_out = str(tmp_path / "curve.csv")
    invocations = [
        ["quantile", "--spec", spec, "--p", "0.35"],
        ["--format", "machine", "quantile", "--spec", spec, "--p", "0.35"],
        ["classify", "--spec", spec, "--p", "0.35"],
        ["--format", "machine", "verify", "--count", "10", "--seed", "5"],
        [
            "curve", "--spec", spec, "--from", "-2", "--to", "3",
            "--steps", "11", "--out", curve_out,
        ],
    ]
    deterministic = True
    for argv in invocations:
        assert main(argv) == 0
        first = capsys.readouterr().out
        first_file = (tmp_path / "curve.csv").read_bytes() if "curve" in argv else b""
        assert main(argv) == 0
        second = capsys.readouterr().out
        second_file = (tmp_path / "curve.csv").read_bytes() if "curve" in argv else b""
        if first != second or first_file != second_file:
            deterministic = False
    ok = round_trips == 100 and deterministic
    line = announce(
        9,
        ok,
        f"{round_trips}/100 exact round-trips, "
        f"{len(invocations)} invocations byte-identical on rerun",
    )
    assert ok, line
