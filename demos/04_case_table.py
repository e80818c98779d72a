"""The sixteen-cell case table of CDF behaviors at the quantile.

At s_p each component CDF is either continuous or jumping, and either flat
or rising just to the left.  That yields cases 1-4 for X crossed with a-d
for Y.  Each of the fifteen feasible cells asserts exact relations between
the split levels and the CDF values at s_p; cell (2b) cannot occur, and the
classifier treats hitting it as an internal contradiction.
"""

from fractions import Fraction as F

from mixquant import MixtureSpec, Piecewise, classify


def show(title, m, p):
    report = classify(m, p)
    print(f"{title}: cell {report.label.cell_id}, s_p = {report.s_p}")
    for check in report.relations_checked:
        print(f"    {check.relation}: {'ok' if check.holds else 'FAIL'}")
    return report


r = show(
    "both uniform",
    MixtureSpec(F(1, 2), Piecewise.uniform(0, 1), Piecewise.uniform(1, 2)),
    F(1, 4),
)
assert r.label.cell_id == "1b" and r.relations_ok

r = show(
    "atom against uniform",
    MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.uniform(0, 1)),
    F(3, 5),
)
assert r.label.cell_id == "2a"

r = show(
    "two point masses",
    MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.point_mass(1)),
    F(1, 4),
)
assert r.label.cell_id == "4b"

print()
print("five cells branch on whether F_S(s_p-) reaches p")
x = Piecewise(atoms=[(1, F(1, 2))], segments=[(0, 1, F(1, 2))])
y = Piecewise(atoms=[(-1, F(1, 2)), (1, F(1, 2))])
m = MixtureSpec(F(1, 2), x, y)
assert classify(m, F(1, 2)).label.cell_id == "3d/F_S(sp-)=p"
assert classify(m, F(3, 4)).label.cell_id == "3d/F_S(sp-)<p"
print("  same pair, p = 1/2 vs 3/4:", "3d/F_S(sp-)=p", "then", "3d/F_S(sp-)<p")

print()
print("when both components jump at s_p and one is flat on the left, that")
print("side's relation depends on where its split level lands in the jump")
r = show(
    "level on the jump bottom",
    MixtureSpec(
        F(1, 3),
        Piecewise(
            atoms=[(F(1, 2), F(3, 8))],
            segments=[(-1, 0, F(3, 8)), (F(9, 4), 3, F(1, 4))],
        ),
        Piecewise(
            atoms=[(-2, F(3, 7)), (F(1, 2), F(2, 7))],
            segments=[(F(1, 4), F(3, 4), F(1, 7)), (2, F(5, 2), F(1, 7))],
        ),
    ),
    F(3, 5),
)
assert r.relations_ok

print()
print("swapping the components transposes the cell (1<->a, ..., 4<->d)")
m = MixtureSpec(F(1, 2), Piecewise.point_mass(0), Piecewise.uniform(0, 1))
a = classify(m, F(3, 5))
b = classify(m.swapped(), F(3, 5))
print(f"  {a.label.cell_id} <-> {b.label.cell_id}")
assert b.label == a.label.transposed()

print()
print("both CDFs jumping off a plateau at a shared atom: only F_S(s_p-) < p")
r = show(
    "shared lowest atom",
    MixtureSpec(
        F(1, 2),
        Piecewise.point_mass(0),
        Piecewise(atoms=[(0, F(1, 2)), (3, F(1, 2))]),
    ),
    F(1, 4),
)
assert r.label.cell_id == "4d/F_S(sp-)<p" and r.relations_ok
