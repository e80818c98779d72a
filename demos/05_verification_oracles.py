"""Independent oracles and the randomized cross-check harness.

Three routes to the same quantile never share code with the split solver:
direct inversion of the mixture CDF (exact), a grid scan of the mixture CDF
(within one grid step), and a seeded Monte Carlo order statistic (within a
CLT band).  cross_check runs one instance through all applicable routes and
every structural invariant; run_suite does that for a generated population
and reports a census of case-table cells.
"""

from fractions import Fraction as F

from mixquant import (
    GridOracleConfig,
    InstanceGenConfig,
    MixtureSpec,
    Piecewise,
    cross_check,
    generate_instance,
    grid_oracle_quantile,
    monte_carlo_quantile,
    run_suite,
    split_quantile,
)

m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))
p = F(1, 4)
s_p = split_quantile(m, p).s_p

cfg = GridOracleConfig.from_mixture(m, steps=40_001)
g = grid_oracle_quantile(m, p, cfg)
print(f"grid oracle:        {g:.6f}  (true {s_p}, step {cfg.step:.2e})")
assert abs(g - float(s_p)) <= cfg.step

mc = monte_carlo_quantile(m, p, 200_000, seed=99)
print(f"Monte Carlo oracle: {mc:.6f}  (200k seeded draws)")
assert abs(mc - float(s_p)) < 0.01

print()
print("cross_check bundles the routes with the structural invariants")
report = cross_check(m, p, cfg)
print(f"  {report.summary_line()}")
for key, value in report.to_dict().items():
    print(f"  {key}: {value}")
assert report.passed

print()
print("the generator covers every feasible cell; instance 0 of seed 7:")
mm, pp = generate_instance(InstanceGenConfig(seed=7), 0)
print(f"  q = {mm.q}, p = {pp}")
print(f"  X atoms {mm.x.atoms} segments {mm.x.segments}")
print(f"  Y atoms {mm.y.atoms} segments {mm.y.segments}")

print()
print("run_suite over 300 instances")
result = run_suite(InstanceGenConfig(seed=7), count=300)
print(f"  failures: {len(result.failures)}")
for cell in sorted(result.census):
    print(f"  {cell:>16} {result.census[cell]}")
assert result.passed
