"""
An infinite example in the exact rational plane
================================================

The plane becomes a groupoid over the line: an arrow (x1, x2) runs from
x1 + 2*x2 to x1 + x2, and coordinatewise addition is compatible with the
partial composition.  Everything is computed with Fractions, so equality
below means equality, not closeness.
"""

from fractions import Fraction as F

from groupoids import NotComposable, Vec2, aff_eval, aff_parallelograms, aff_product, aff_verify

x = Vec2(F(1), F(1))
print("x =", x)
print("source:", aff_eval("alpha", x), " target:", aff_eval("beta", x))
print("unit at 5:", aff_eval("eps", F(5)), " inverse of x:", aff_eval("inv", x))

y = Vec2(F(0), F(1))
print(f"\n{x} . {y} =", aff_product(x, y))
try:
    aff_product(x, x)
except NotComposable as exc:
    print("x . x refused:", exc)

# every map is affine, so each axiom and compatibility law holds on all of
# Q iff it holds at the ten points of an affine basis of its parameters
report = aff_verify()
print("\nlaws decided at an affine basis, violations:", len(report.violations))

# composition triangles close into parallelograms with slope -1/2 sides
qa = aff_parallelograms("A", (F(1), F(0), F(1)))
print("\nfamily A at (1, 0, 1):")
for label, point in zip(qa.labels, qa.points):
    print(f"  {label} = {point}")
print("  diagonal midpoints:", qa.midpoint_13, qa.midpoint_24)
print("  slopes:", qa.slopes, " squared lengths:", qa.squared_lengths)

# and so do the unit/inverse quadrilaterals
qb = aff_parallelograms("B", (F(1), F(1)))
print("\nfamily B at (1, 1): midpoints", qb.midpoint_13, qb.midpoint_24)

# the degenerate boundary: scale zero collapses everything to a point
qd = aff_parallelograms("B", (F(1), F(0)))
print("family B at (1, 0): degenerate =", qd.degenerate,
      " parallelogram =", qd.is_parallelogram)
