"""The split solver: s_p = max{Qx(alpha*), Qy(beta*)}.

Any level p can be split across the components as p = q*alpha + (1-q)*beta.
Feasible splits keep both sub-levels in [0, 1]; among them there is an
extremal one at which the larger of the two component quantiles equals the
mixture quantile.  The solver finds it as the infimum of a monotone
predicate over the feasible alpha range, entirely in rational arithmetic
for piecewise components.
"""

from fractions import Fraction as F

from mixquant import (
    MixtureSpec,
    Piecewise,
    direct_quantile,
    feasible_alpha_range,
    ordering_predicate,
    split_quantile,
)

m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1))
p = F(1, 4)

lo, hi = feasible_alpha_range(m.q, p)
print(f"feasible alpha range for q = {m.q}, p = {p}: [{lo}, {hi}]")

print("the ordering predicate Qx(alpha) >= Qy(beta(alpha)) flips once:")
for alpha in (F(0), F(1, 4), F(1, 2)):
    print(f"  alpha = {alpha}: {ordering_predicate(m, p, alpha)}")

sol = split_quantile(m, p)
print()
print(f"solution: {sol}")
assert sol.s_p == 0 and sol.alpha_star == F(1, 2) and sol.beta_star == 0
assert m.q * sol.alpha_star + (1 - m.q) * sol.beta_star == p
assert sol.s_p == direct_quantile(m, p)

print()
print("clamping: when no feasible alpha satisfies the predicate, the")
print("solver pins alpha* to the top of the range")
clamped = split_quantile(
    MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.uniform(0, 1)),
    F(3, 5),
)
print(f"  {clamped}")
assert clamped.clamped and clamped.alpha_star == 1
assert clamped.s_p == F(1, 5)

print()
print("the infimum need not be attained by the x side: here the predicate")
print("fails at alpha* itself yet the max formula still gives s_p")
edge = MixtureSpec(
    F(1, 2),
    Piecewise(atoms=[(0, F(1, 2)), (2, F(1, 2))]),
    Piecewise.point_mass(1),
)
esol = split_quantile(edge, F(1, 2))
print(f"  {esol}")
assert not esol.x_attains and esol.y_attains
assert not ordering_predicate(edge, F(1, 2), esol.alpha_star)
assert esol.s_p == direct_quantile(edge, F(1, 2)) == 1

print()
print("300 random piecewise instances: split route == direct route, exactly")
from mixquant import InstanceGenConfig, generate_instance

cfg = InstanceGenConfig(seed=33)
for index in range(300):
    mm, pp = generate_instance(cfg, index)
    assert split_quantile(mm, pp).s_p == direct_quantile(mm, pp)
print("  all 300 agree")
