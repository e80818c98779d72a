"""Two-component mixtures and direct CDF inversion.

S equals X with probability q and Y with probability 1 - q, so its CDF is
the convex combination q*F + (1-q)*G.  For exact piecewise components the
mixture CDF is itself piecewise: one walk over the components' quantile
pieces gives the mixture's own, and direct inversion bisects those.  That
direct route is the reference the split solver is checked against.
"""

from fractions import Fraction as F

from mixquant import (
    MixtureSpec,
    Normal,
    Piecewise,
    direct_quantile,
    mixture_cdf,
    mixture_cdf_left_limit,
    numeric_quantile,
    sample,
)

m = MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2))

print("mixture CDF of half U(0,1), half U(1,2)")
for x in (0, F(1, 2), 1, F(3, 2), 2):
    print(f"  F_S({x}) = {mixture_cdf(m, x)}")

print()
print("direct quantiles by inverting the mixture CDF")
for p in (F(1, 10), F(1, 4), F(1, 2), F(9, 10)):
    print(f"  Q_S({p}) = {direct_quantile(m, p)}")
assert direct_quantile(m, F(1, 4)) == F(1, 2)

# mixing adds masses feature by feature; coincident atoms combine into one
# quantile piece (lev_lo, lev_hi, x_left, x_right) with x_left == x_right
sharing = MixtureSpec(
    F(1, 2),
    Piecewise(atoms=[(0, 1)]),
    Piecewise(atoms=[(0, F(1, 4)), (1, F(3, 4))]),
)
pieces, _ = sharing.pieces
print()
print(f"quantile pieces when both components charge 0: {[tuple(map(str, piece)) for piece in pieces]}")
# the atom at 0 holds 1/2 * 1 + 1/2 * 1/4 = 5/8 of the mass, the atom at 1 the rest
assert pieces == ((0, F(5, 8), 0, 0), (F(5, 8), 1, 1, 1))

# a shared atom also shows up in the left limit
assert mixture_cdf(sharing, 0) - mixture_cdf_left_limit(sharing, 0) == F(5, 8)

print()
print("parametric pairs invert by bisection instead")
normals = MixtureSpec(F(3, 10), Normal(0, 1), Normal(1, 1))
v = numeric_quantile(normals, F(1, 2))
print(f"  median of 0.3 N(0,1) + 0.7 N(1,1): {v:.9f}")
assert abs(mixture_cdf(normals, v) - F(1, 2)) < 1e-9

print()
print("seeded sampling draws the Bernoulli flag and the chosen component")
draws = sample(m, 8, seed=2024)
print(f"  8 draws: {[round(x, 3) for x in draws.tolist()]}")
assert (draws == sample(m, 8, seed=2024)).all()
