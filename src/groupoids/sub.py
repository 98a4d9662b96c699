"""Substructures of group-groupoids: subgroupoids, fibers, isotropy, anchor.

Candidates are validated, never auto-completed: a checker receives the exact
subset the caller proposes and reports what is missing from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import group_pair_groupoid
from .core import FiniteGroupoid, Morphism
from .grouptable import GroupTable, pair_token
from .overlay import GroupGroupoid, unit_isotropy_report, validate_gg_morphism
from .report import (
    InternalCheckFailed,
    NotSubset,
    ReportBuilder,
    ValidationReport,
)

__all__ = [
    "SubStructure",
    "check_subgroupoid",
    "check_group_subgroupoid",
    "isotropy_bundle",
    "unit_fiber_subgroups",
    "anchor_morphism",
]


@dataclass(frozen=True)
class SubStructure:
    """A candidate sub-pair: chosen arrows over chosen objects."""

    arrows: frozenset[str]
    objects: frozenset[str]


def check_subgroupoid(g: FiniteGroupoid, s: SubStructure) -> ValidationReport:
    """Is s a subgroupoid of g?  Nonempty, full source/target image, closed.

    The subsets must be subsets of g's token sets; anything else is a
    NotSubset error, not a violation.
    """
    if not s.arrows <= g.arrows:
        raise NotSubset("candidate arrows are not a subset of the groupoid's arrows")
    if not s.objects <= g.objects:
        raise NotSubset("candidate objects are not a subset of the groupoid's objects")
    rb = ReportBuilder()
    if not s.arrows:
        rb.violation("nonempty-arrows", (), "arrow subset is empty")
    if not s.objects:
        rb.violation("nonempty-objects", (), "object subset is empty")
    src_image = {g.src[x] for x in s.arrows}
    tgt_image = {g.tgt[x] for x in s.arrows}
    for rule, image in (("source-image", src_image), ("target-image", tgt_image)):
        for u in sorted(image - s.objects):
            rb.violation(rule, (u,), "an arrow's endpoint falls outside the object subset")
        for u in sorted(s.objects - image):
            rb.violation(rule, (u,), "object is not an endpoint of any chosen arrow")
    for x in sorted(s.arrows):
        for y in g.fibers.get(("source", g.tgt[x]), ()):
            z = g.prod.get((x, y))
            if y in s.arrows and z is not None and z not in s.arrows:
                rb.violation("product-closed", (x, y), f"product {z} escapes the subset")
        if g.inv[x] not in s.arrows:
            rb.violation("inverse-closed", (x,), f"inverse {g.inv[x]} escapes the subset")
    return rb.build()


def _subgroup_violations(
    rb: ReportBuilder, table: GroupTable, subset: frozenset[str], prefix: str
) -> None:
    # nonempty is reported by the groupoid-level check; a nonempty subset
    # closed under op and inverse automatically contains the identity
    for x in sorted(subset):
        for y in sorted(subset):
            z = table.op[(x, y)]
            if z not in subset:
                rb.violation(f"{prefix}-op-closed", (x, y), f"sum {z} escapes the subset")
        if table.inverse[x] not in subset:
            rb.violation(
                f"{prefix}-inverse-closed",
                (x,),
                f"negation {table.inverse[x]} escapes the subset",
            )


def check_group_subgroupoid(gg: GroupGroupoid, s: SubStructure) -> ValidationReport:
    """Subgroupoid of the base whose arrow and object sets are also subgroups."""
    rb = ReportBuilder()
    rb.absorb(check_subgroupoid(gg.base, s))
    _subgroup_violations(rb, gg.arrow_group, s.arrows, "arrow-subgroup")
    _subgroup_violations(rb, gg.object_group, s.objects, "object-subgroup")
    return rb.build()


def isotropy_bundle(gg: GroupGroupoid) -> SubStructure:
    """All loops over all objects, verified to be a group-subgroupoid.

    Expects a group-groupoid that passes def32 (check_group_groupoid in mode
    def32).  It checks only that consequence: src and tgt are additive, so
    the loops are closed under addition and negation.  Input that fails
    def32 elsewhere, such as the interchange law, may pass it.
    """
    g = gg.base
    bundle = SubStructure(
        arrows=frozenset(x for x in g.arrows if g.src[x] == g.tgt[x]),
        objects=g.objects,
    )
    check_group_subgroupoid(gg, bundle).require(
        InternalCheckFailed, "invalid group-groupoid: isotropy bundle is not a group-subgroupoid"
    )
    return bundle


def unit_fiber_subgroups(
    gg: GroupGroupoid,
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The three distinguished subsets over the identity object.

    Returns (source fiber, target fiber, loops).  Expects a group-groupoid
    that passes def32, and checks these consequences of it: the fibers are
    subgroups of the arrow group, the kernels of the additive src and tgt,
    and the loops form a group-subgroupoid whose product and inversion agree
    with the ambient addition and negation, by the interchange law
    (Eckmann-Hilton).
    """
    g = gg.base
    A = gg.arrow_group
    e0 = gg.object_group.identity
    src_fiber = frozenset(g.fibers.get(("source", e0), ()))
    tgt_fiber = frozenset(g.fibers.get(("target", e0), ()))
    loops = src_fiber & tgt_fiber
    rb = ReportBuilder()
    _subgroup_violations(rb, A, src_fiber, "source-fiber")
    _subgroup_violations(rb, A, tgt_fiber, "target-fiber")
    rb.absorb(
        check_group_subgroupoid(gg, SubStructure(loops, frozenset({e0}))),
        prefix="unit-isotropy:",
    )
    rb.absorb(unit_isotropy_report(gg, "unit-isotropy-product", "unit-isotropy-inverse"))
    rb.build().require(
        InternalCheckFailed, "invalid group-groupoid: unit fibers are not subgroups"
    )
    return src_fiber, tgt_fiber, loops


def anchor_morphism(gg: GroupGroupoid) -> Morphism:
    """The map x -> (src(x)|tgt(x)) into the pair structure on the object group.

    Expects a group-groupoid that passes def32, and checks this consequence
    of it before returning: the anchor is a group-groupoid morphism
    (validate_gg_morphism), since src and tgt are additive and the product
    of the pair structure only asks that endpoints match.
    """
    target = group_pair_groupoid(gg.object_group)
    g = gg.base
    m = Morphism(
        source=g,
        target=target.base,
        f={x: pair_token(g.src[x], g.tgt[x]) for x in g.arrows},
        f0={u: u for u in g.objects},
    )
    validate_gg_morphism(m, gg, target).require(
        InternalCheckFailed, "invalid group-groupoid: anchor is not a morphism"
    )
    return m
