"""An exactly-decided groupoid structure on the rational plane over the line.

Arrows are points (x1, x2); objects are scalars.  Source is x1 + 2*x2, target
is x1 + x2, the unit embeds u as (u, 0), inversion is (x1 + 3*x2, -x2), and
(x1, x2).(y1, y2) = (x1 - 2*y2, x2 + y2) whenever x2 = -x1 + y1 + 2*y2.

Everything runs on Fraction, and every map of the model is affine, so
aff_verify decides each law over all of Q at the ten points of an affine
basis of its parameters.  The groupoid is compatible with componentwise
addition, and composable quadruples trace out parallelograms whose sides
have slope -1/2; aff_parallelograms reports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .report import NotComposable, ReportBuilder, ValidationReport

__all__ = [
    "Vec2",
    "src",
    "tgt",
    "unit",
    "inverse",
    "aff_eval",
    "aff_product",
    "QuadReport",
    "aff_verify",
    "aff_parallelograms",
]


@dataclass(frozen=True)
class Vec2:
    """A point of the plane with exact rational coordinates."""

    x1: Fraction
    x2: Fraction

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x1 + other.x1, self.x2 + other.x2)

    def __str__(self) -> str:
        return f"({self.x1}, {self.x2})"


def src(p: Vec2) -> Fraction:
    return p.x1 + 2 * p.x2


def tgt(p: Vec2) -> Fraction:
    return p.x1 + p.x2


def unit(u: Fraction) -> Vec2:
    return Vec2(Fraction(u), Fraction(0))


def inverse(p: Vec2) -> Vec2:
    return Vec2(p.x1 + 3 * p.x2, -p.x2)


def aff_eval(fn: str, value):
    """Dispatch by name: 'alpha' | 'beta' (point -> scalar), 'eps' | 'inv'."""
    table = {"alpha": src, "beta": tgt, "eps": unit, "inv": inverse}
    if fn not in table:
        raise ValueError("fn must be one of alpha, beta, eps, inv")
    return table[fn](value)


def aff_product(x: Vec2, y: Vec2) -> Vec2:
    """The partial product; composability means x2 = -x1 + y1 + 2*y2 exactly."""
    lhs = x.x2
    rhs = -x.x1 + y.x1 + 2 * y.x2
    if lhs != rhs:
        raise NotComposable(
            f"{x} and {y} do not compose: x2 = {lhs} but -x1 + y1 + 2*y2 = {rhs}"
        )
    return Vec2(x.x1 - 2 * y.x2, x.x2 + y.x2)


def _compose_after(x: Vec2, free: Fraction) -> Vec2:
    """The unique y with second coordinate ``free`` such that x.y is defined."""
    return Vec2(x.x1 + x.x2 - 2 * free, free)


_PARAMETERS = ("x1", "x2", "y2", "w2", "z1", "z2", "t2", "u", "v")


def _check_laws(rb: ReportBuilder, tag: str, params) -> None:
    """Check every law at one value of the nine parameters, naming the point
    ``tag`` first in each witness.  (x, y), (y, w) and (z, t) compose, and u
    and v are scalars."""
    x1, x2, y2, w2, z1, z2, t2, u, v = params

    def hit(rule: str, detail: str, *points) -> None:
        rb.violation(rule, (tag, *[str(p) for p in points]), detail)

    x = Vec2(x1, x2)
    y = _compose_after(x, y2)
    w = _compose_after(y, w2)
    z = Vec2(z1, z2)
    t = _compose_after(z, t2)
    try:
        xy = aff_product(x, y)
        if aff_product(xy, w) != aff_product(x, aff_product(y, w)):
            hit("G1-assoc", "associativity fails", x, y, w)
        if src(xy) != src(x):
            hit("G1-source", "source of product is not the first source", x, y)
        if tgt(xy) != tgt(y):
            hit("G1-target", "target of product is not the second target", x, y)
        if aff_product(unit(src(x)), x) != x:
            hit("G2-left-unit", "left unit law fails", x)
        if aff_product(x, unit(tgt(x))) != x:
            hit("G2-right-unit", "right unit law fails", x)
        if aff_product(inverse(x), x) != unit(tgt(x)):
            hit("G3-left-inverse", "left inverse law fails", x)
        if aff_product(x, inverse(x)) != unit(src(x)):
            hit("G3-right-inverse", "right inverse law fails", x)
        zt = aff_product(z, t)
        lhs = xy + zt
        rhs = aff_product(x + z, y + t)
        if lhs != rhs:
            hit("interchange", f"(x.y)+(z.t) = {lhs} but (x+z).(y+t) = {rhs}", x, y, z, t)
        if unit(tgt(x)) + xy != x + y:
            hit("parallelogram-A", "unit(tgt x) + x.y is not x + y", x, y)
    except NotComposable as exc:
        hit("composability", f"unexpected: {exc}", x, y, w, z, t)

    if src(inverse(x)) != tgt(x) or tgt(inverse(x)) != src(x):
        hit("inverse-endpoints", "inversion does not swap endpoints", x)
    if inverse(inverse(x)) != x:
        hit("inversion-involution", "double inversion is not the identity", x)
    if inverse(unit(u)) != unit(u):
        hit("unit-self-inverse", "unit arrow is not fixed by inversion", unit(u))
    if src(unit(u)) != u or tgt(unit(u)) != u:
        hit("unit-section", "unit arrow is not a loop at its scalar", unit(u))
    if unit(src(x)) + unit(tgt(x)) != x + inverse(x):
        hit("parallelogram-B", "unit(src x) + unit(tgt x) is not x + inverse(x)", x)

    if src(x + z) != src(x) + src(z):
        hit("source-additive", "source is not additive", x, z)
    if tgt(x + z) != tgt(x) + tgt(z):
        hit("target-additive", "target is not additive", x, z)
    if inverse(x + z) != inverse(x) + inverse(z):
        hit("inversion-additive", "inversion is not additive", x, z)
    if unit(u + v) != unit(u) + unit(v):
        hit("unit-additive", "unit is not additive", unit(u), unit(v))
    if x + z != z + x:
        hit("addition-commutes", "addition is not commutative", x, z)


def aff_verify() -> ValidationReport:
    """Decide every law of the model over all of Q, at ten points.

    The laws are the groupoid axioms, the inversion and unit identities,
    additivity of the four structure maps, commutativity of addition, the
    interchange law and the midpoint identity of each parallelogram family
    (parallelogram-A and parallelogram-B, see aff_parallelograms).  Each is
    an equation between two maps of the nine rational parameters x1, x2, y2,
    w2, z1, z2, t2, u and v, which give x = (x1, x2), y = _compose_after(x,
    y2), w = _compose_after(y, w2), z = (z1, z2), t = _compose_after(z, t2)
    and the scalars u and v.  Three facts make ten evaluations decide it:

    - The parametrization reaches every case.  (x, y) composes iff
      y1 = x1 + x2 - 2*y2, so _compose_after(x, y2) runs over every arrow
      after x as y2 runs over Q.  So (x, y), (x, y, w) and (x, y), (z, t)
      run over every composable pair, every composable triple and every
      pair of composable pairs.
    - Every map involved is affine.  src, tgt, unit, inverse, aff_product
      on a composable pair, _compose_after and + have coordinates of the
      form c0 + c1*p1 + ... + c9*p9, and so has every composite of them.
    - Two affine maps agree everywhere iff they agree at 0 and at each unit
      vector, since f(p) = f(0) + sum of p_i * (f(e_i) - f(0)).

    So each law holds everywhere iff it holds at 0 and at the nine unit
    vectors.  That every product taken composes is itself such a law
    (composability), so while it holds the laws past it are checked at all
    ten points.  The first entry of a violation's witness names the point
    where the law fails: "0", or the parameter whose unit vector it is.
    """
    rb = ReportBuilder()
    zero = (Fraction(0),) * len(_PARAMETERS)
    _check_laws(rb, "0", zero)
    for i, name in enumerate(_PARAMETERS):
        _check_laws(rb, name, zero[:i] + (Fraction(1),) + zero[i + 1:])
    return rb.build()


@dataclass(frozen=True)
class QuadReport:
    """Four labelled points, their diagonal midpoints, and the verdict.

    ``slopes`` and ``squared_lengths`` describe the two slanted sides named in
    ``side_labels``; both are None for a degenerate quadrilateral.
    """

    kind: str
    labels: tuple[str, str, str, str]
    points: tuple[Vec2, Vec2, Vec2, Vec2]
    midpoint_13: Vec2
    midpoint_24: Vec2
    side_labels: tuple[str, str]
    slopes: tuple[Fraction, Fraction] | None
    squared_lengths: tuple[Fraction, Fraction] | None
    degenerate: bool

    @property
    def is_parallelogram(self) -> bool:
        return not self.degenerate and self.midpoint_13 == self.midpoint_24

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "points": {l: str(p) for l, p in zip(self.labels, self.points)},
            "diagonal_midpoints": [str(self.midpoint_13), str(self.midpoint_24)],
            "side_labels": list(self.side_labels),
            "slopes": None if self.slopes is None else [str(s) for s in self.slopes],
            "squared_lengths": None
            if self.squared_lengths is None
            else [str(s) for s in self.squared_lengths],
            "degenerate": self.degenerate,
            "parallelogram": self.is_parallelogram,
        }


def _midpoint(p: Vec2, q: Vec2) -> Vec2:
    return Vec2((p.x1 + q.x1) / 2, (p.x2 + q.x2) / 2)


def aff_parallelograms(kind: str, params) -> QuadReport:
    """Build one of the two parallelogram families.

    Kind A takes (a, b, c) and uses the composable pair x = (a, -a+b+2c),
    y = (b, c): the corners are unit(tgt(x)), x, x.y, y, degenerate iff c = 0.
    Kind B takes a single point (x1, x2) and uses unit(src(x)), x,
    unit(tgt(x)), inverse(x), degenerate iff x2 = 0.

    The quadrilateral is a parallelogram iff the diagonal midpoints coincide,
    that is iff the first and third corners sum to the second and fourth:
    the laws parallelogram-A and parallelogram-B, which aff_verify decides
    for every parameter.  Each slanted side is the vector (-2*s, s) or its
    negative, for the scale s = c of kind A and s = x2 of kind B, so when
    not degenerate both have slope -1/2 and squared length 5*s**2.
    """
    if kind == "A":
        a, b, c = (Fraction(p) for p in params)
        x = Vec2(a, -a + b + 2 * c)
        y = Vec2(b, c)
        labels = ("A1", "A2", "A3", "A4")
        points = (unit(tgt(x)), x, aff_product(x, y), y)
        sides = ("A1A4", "A2A3")
        side_pairs = ((points[0], points[3]), (points[1], points[2]))
        degenerate = c == 0
    elif kind == "B":
        x1, x2 = (Fraction(p) for p in params)
        x = Vec2(x1, x2)
        labels = ("B1", "B2", "B3", "B4")
        points = (unit(src(x)), x, unit(tgt(x)), inverse(x))
        sides = ("B1B2", "B3B4")
        side_pairs = ((points[0], points[1]), (points[2], points[3]))
        degenerate = x2 == 0
    else:
        raise ValueError("kind must be 'A' or 'B'")

    mid13 = _midpoint(points[0], points[2])
    mid24 = _midpoint(points[1], points[3])
    slopes = sq_lengths = None
    if not degenerate:
        deltas = [(q.x1 - p.x1, q.x2 - p.x2) for p, q in side_pairs]
        slopes = tuple(d2 / d1 for d1, d2 in deltas)
        sq_lengths = tuple(d1**2 + d2**2 for d1, d2 in deltas)
    return QuadReport(
        kind=kind,
        labels=labels,
        points=points,
        midpoint_13=mid13,
        midpoint_24=mid24,
        side_labels=sides,
        slopes=slopes,
        squared_lengths=sq_lengths,
        degenerate=degenerate,
    )
