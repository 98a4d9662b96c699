"""Group-groupoids: a groupoid whose arrows and objects also carry group laws.

The compatibility between the two layers can be decided two independent ways:

* mode ``def31``: build the doubled groupoid and a one-point groupoid and ask,
  with the generic morphism validator, whether addition, the identity element
  and negation are groupoid morphisms;
* mode ``def32``: check by direct enumeration that source, target, unit and
  inversion respect addition, plus the interchange law
  (x.y) + (z.t) = (x+z).(y+t).

The two procedures provably agree on every input, including broken ones, and
mode ``both`` runs them side by side and treats disagreement as a fatal bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteGroupoid,
    Morphism,
    check_wellformed,
    validate_groupoid,
    validate_morphism,
)
from .grouptable import (
    GroupTable,
    check_table_wellformed,
    closure_report,
    noncommuting_pair,
    pair_token,
    validate_group,
)
from .report import (
    DomainMismatch,
    InternalCheckFailed,
    MalformedStructure,
    ReportBuilder,
    ValidationReport,
)

__all__ = [
    "GroupGroupoid",
    "MODES",
    "check_wellformed_gg",
    "structural_report",
    "check_interchange",
    "check_group_groupoid",
    "check_derived_identities",
    "reconstruct_from_group",
    "validate_gg_morphism",
]

MODES = ("def31", "def32", "both")

# every law past closure composes products further, which a value outside the
# element set leaves undefined; those laws are skipped with this note
_OUTSIDE_CARRIER = "a group table has a product outside its element set"


@dataclass(frozen=True)
class GroupGroupoid:
    """A groupoid plus group tables on its arrow and object sets.

    The tables must be defined on exactly the arrow/object token sets; the
    compatibility laws are check_group_groupoid's business.
    """

    base: FiniteGroupoid
    arrow_group: GroupTable
    object_group: GroupTable


def check_wellformed_gg(gg: GroupGroupoid) -> None:
    check_wellformed(gg.base)
    check_table_wellformed(gg.arrow_group)
    check_table_wellformed(gg.object_group)
    if gg.arrow_group.elements != gg.base.arrows:
        raise MalformedStructure("arrow group must be defined on exactly the arrow set")
    if gg.object_group.elements != gg.base.objects:
        raise MalformedStructure("object group must be defined on exactly the object set")


def structural_report(
    gg: GroupGroupoid, *, allow_nonsurjective: bool = False
) -> ValidationReport:
    """Groupoid axioms on the base plus group axioms on both tables."""
    check_wellformed_gg(gg)
    rb = ReportBuilder()
    rb.absorb(
        validate_groupoid(gg.base, allow_nonsurjective=allow_nonsurjective),
        prefix="base:",
    )
    rb.absorb(validate_group(gg.arrow_group), prefix="arrow-group:")
    rb.absorb(validate_group(gg.object_group), prefix="object-group:")
    return rb.build()


def check_interchange(gg: GroupGroupoid) -> ValidationReport:
    """Exhaustive interchange law over all pairs of stored composable pairs."""
    check_wellformed_gg(gg)
    g = gg.base
    add = gg.arrow_group.op
    rb = ReportBuilder()
    pairs = [p for p in g.composable_pairs() if p in g.prod]
    for x, y in pairs:
        for z, t in pairs:
            xz = add[(x, z)]
            yt = add[(y, t)]
            combined = g.prod.get((xz, yt))
            if combined is None:
                rb.violation(
                    "interchange", (x, y, z, t), f"({xz},{yt}) is not composable"
                )
                continue
            lhs = add[(g.prod[(x, y)], g.prod[(z, t)])]
            if lhs != combined:
                rb.violation(
                    "interchange",
                    (x, y, z, t),
                    f"(x.y)+(z.t) = {lhs} but (x+z).(y+t) = {combined}",
                )
    return rb.build()


def _closed(rb: ReportBuilder, rule: str, **tables: GroupTable) -> bool:
    """Report the tables' closure violations; True if none, else rule is skipped."""
    for name, table in tables.items():
        rb.absorb(closure_report(table), prefix=f"{name}-group:")
    if not rb.clean:
        rb.note(rule, "skipped", _OUTSIDE_CARRIER)
    return rb.clean


def _additivity_report(gg: GroupGroupoid) -> ValidationReport:
    """source/target/inversion/unit must each be a group homomorphism."""
    g = gg.base
    add = gg.arrow_group.op
    add0 = gg.object_group.op
    rb = ReportBuilder()
    arrows = sorted(g.arrows)
    for x in arrows:
        for y in arrows:
            s = add[(x, y)]
            if g.src[s] != add0[(g.src[x], g.src[y])]:
                rb.violation(
                    "source-additive",
                    (x, y),
                    f"src({x}+{y}) = {g.src[s]} but src({x})+src({y}) = "
                    f"{add0[(g.src[x], g.src[y])]}",
                )
            if g.tgt[s] != add0[(g.tgt[x], g.tgt[y])]:
                rb.violation(
                    "target-additive",
                    (x, y),
                    f"tgt({x}+{y}) = {g.tgt[s]} but tgt({x})+tgt({y}) = "
                    f"{add0[(g.tgt[x], g.tgt[y])]}",
                )
            if g.inv[s] != add[(g.inv[x], g.inv[y])]:
                rb.violation(
                    "inversion-additive",
                    (x, y),
                    f"inv({x}+{y}) = {g.inv[s]} but inv({x})+inv({y}) = "
                    f"{add[(g.inv[x], g.inv[y])]}",
                )
    for u in sorted(g.objects):
        for v in sorted(g.objects):
            lhs = g.unit[add0[(u, v)]]
            rhs = add[(g.unit[u], g.unit[v])]
            if lhs != rhs:
                rb.violation(
                    "unit-additive",
                    (u, v),
                    f"unit({u}+{v}) = {lhs} but unit({u})+unit({v}) = {rhs}",
                )
    return rb.build()


def _morphism_based_report(gg: GroupGroupoid) -> ValidationReport:
    # imported here: construct builds on this module, so a top-level import
    # would be circular
    from .construct import direct_product_groupoids, null_groupoid

    g = gg.base
    doubled = direct_product_groupoids(g, g, validate=False)
    point = "*"
    one_point = null_groupoid([point])

    arrows = sorted(g.arrows)
    objects = sorted(g.objects)
    addition = Morphism(
        source=doubled,
        target=g,
        f={
            pair_token(x, y): gg.arrow_group.op[(x, y)]
            for x in arrows
            for y in arrows
        },
        f0={
            pair_token(u, v): gg.object_group.op[(u, v)]
            for u in objects
            for v in objects
        },
    )
    identity = Morphism(
        source=one_point,
        target=g,
        f={point: gg.arrow_group.identity},
        f0={point: gg.object_group.identity},
    )
    negation = Morphism(
        source=g,
        target=g,
        f=dict(gg.arrow_group.inverse),
        f0=dict(gg.object_group.inverse),
    )
    rb = ReportBuilder()
    rb.absorb(validate_morphism(addition), prefix="add-map:")
    rb.absorb(validate_morphism(identity), prefix="identity-map:")
    rb.absorb(validate_morphism(negation), prefix="negation-map:")
    return rb.build()


def check_group_groupoid(gg: GroupGroupoid, mode: str = "both") -> ValidationReport:
    """Decide whether the group layers are compatible with the groupoid.

    Both decision procedures include the structural report (base groupoid
    axioms plus group axioms) in their verdict.  In mode 'both' the two
    verdicts are compared and a mismatch raises InternalCheckFailed, since the
    procedures are provably equivalent.  When a group table has a product
    outside its element set, both procedures are skipped and fail.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}")
    common = structural_report(gg)
    closed = closure_report(gg.arrow_group).valid and closure_report(gg.object_group).valid
    rb = ReportBuilder()
    rb.absorb(common)
    sections = {
        "def31": (_morphism_based_report,),
        "def32": (_additivity_report, check_interchange),
    }
    verdicts: dict[str, bool] = {}
    for name in sections if mode == "both" else (mode,):
        if not closed:
            rb.note(name, "skipped", _OUTSIDE_CARRIER)
            verdicts[name] = False
            continue
        reports = [section(gg) for section in sections[name]]
        verdicts[name] = common.valid and all(r.valid for r in reports)
        for report in reports:
            rb.absorb(report, prefix=f"{name}:")
    for name in sorted(verdicts):
        rb.note(name, "info", "verdict pass" if verdicts[name] else "verdict fail")
    if mode == "both" and verdicts["def31"] != verdicts["def32"]:
        raise InternalCheckFailed(
            "the two decision procedures disagree: "
            f"def31={'pass' if verdicts['def31'] else 'fail'} "
            f"def32={'pass' if verdicts['def32'] else 'fail'}"
        )
    return rb.build()


def check_derived_identities(gg: GroupGroupoid) -> ValidationReport:
    """Exhaustively verify the identities a valid group-groupoid must satisfy.

    Additivity of the four structure maps, compatibility of negation with the
    partial product, endpoints and units of the group identity and of negated
    elements, negation being an antihomomorphic involution (plain distribution
    is checked only when both groups are commutative, otherwise reported
    not-applicable with a witness), neutrality and translation laws on the
    unit fibers, and the unit-object isotropy group agreeing with addition.
    A product outside its group's element set is reported as closure only.
    """
    check_wellformed_gg(gg)
    g = gg.base
    A = gg.arrow_group
    O = gg.object_group
    e = A.identity
    e0 = O.identity
    rb = ReportBuilder()
    if not _closed(rb, "derived-identities", arrow=A, object=O):
        return rb.build()
    arrows = sorted(g.arrows)
    objects = sorted(g.objects)
    rb.absorb(_additivity_report(gg))

    stored = [p for p in g.composable_pairs() if p in g.prod]
    for x, y in stored:
        lhs = g.prod.get((A.inverse[x], A.inverse[y]))
        rhs = A.inverse[g.prod[(x, y)]]
        if lhs is None or lhs != rhs:
            rb.violation(
                "negation-product-compat",
                (x, y),
                f"(-{x}).(-{y}) = {lhs} but -({x}.{y}) = {rhs}",
            )

    if g.src[e] != e0 or g.tgt[e] != e0:
        rb.violation(
            "identity-arrow-endpoints",
            (e,),
            f"identity arrow has endpoints ({g.src[e]},{g.tgt[e]}), expected ({e0},{e0})",
        )
    if g.unit[e0] != e:
        rb.violation("unit-of-identity", (e0,), f"unit({e0}) = {g.unit[e0]}, expected {e}")
    if g.inv[e] != e:
        rb.violation("inversion-fixes-identity", (e,), f"inv({e}) = {g.inv[e]}")

    for x in arrows:
        nx = A.inverse[x]
        if g.src[nx] != O.inverse[g.src[x]]:
            rb.violation(
                "source-of-negation", (x,), f"src(-{x}) = {g.src[nx]}, expected -src({x})"
            )
        if g.tgt[nx] != O.inverse[g.tgt[x]]:
            rb.violation(
                "target-of-negation", (x,), f"tgt(-{x}) = {g.tgt[nx]}, expected -tgt({x})"
            )
        if g.inv[nx] != A.inverse[g.inv[x]]:
            rb.violation(
                "inversion-of-negation",
                (x,),
                f"inv(-{x}) = {g.inv[nx]} but -inv({x}) = {A.inverse[g.inv[x]]}",
            )
        if A.inverse[nx] != x:
            rb.violation("negation-involution", (x,), f"-(-{x}) = {A.inverse[nx]}")

    for u in objects:
        if g.unit[O.inverse[u]] != A.inverse[g.unit[u]]:
            rb.violation(
                "unit-of-negation",
                (u,),
                f"unit(-{u}) = {g.unit[O.inverse[u]]} but -unit({u}) = "
                f"{A.inverse[g.unit[u]]}",
            )

    for x in arrows:
        for y in arrows:
            if A.inverse[A.op[(x, y)]] != A.op[(A.inverse[y], A.inverse[x])]:
                rb.violation(
                    "negation-antidistributes",
                    (x, y),
                    f"-({x}+{y}) != (-{y})+(-{x})",
                )

    witness = noncommuting_pair(A) or noncommuting_pair(O)
    if witness is not None:
        which = "arrow group" if noncommuting_pair(A) else "object group"
        rb.note(
            "negation-distributes",
            "not-applicable",
            f"{which} is not commutative (witness {witness[0]},{witness[1]})",
        )
    else:
        for x in arrows:
            for y in arrows:
                if A.inverse[A.op[(x, y)]] != A.op[(A.inverse[x], A.inverse[y])]:
                    rb.violation(
                        "negation-distributes",
                        (x, y),
                        f"-({x}+{y}) != (-{x})+(-{y})",
                    )

    src_fiber = g.fibers.get(("source", e0), ())
    tgt_fiber = g.fibers.get(("target", e0), ())
    for y in src_fiber:
        if g.prod.get((e, y)) != y:
            rb.violation("identity-left-neutral", (y,), f"{e}.{y} = {g.prod.get((e, y))}")
    for x in tgt_fiber:
        if g.prod.get((x, e)) != x:
            rb.violation("identity-right-neutral", (x,), f"{x}.{e} = {g.prod.get((x, e))}")

    for x, y in stored:
        xy = g.prod[(x, y)]
        for t in src_fiber:
            lhs = g.prod.get((x, A.op[(y, t)]))
            if lhs is None or lhs != A.op[(xy, t)]:
                rb.violation(
                    "shift-by-source-fiber",
                    (x, y, t),
                    f"x.(y+t) = {lhs} but (x.y)+t = {A.op[(xy, t)]}",
                )
        for z in tgt_fiber:
            lhs = g.prod.get((A.op[(x, z)], y))
            if lhs is None or lhs != A.op[(xy, z)]:
                rb.violation(
                    "shift-by-target-fiber",
                    (x, y, z),
                    f"(x+z).y = {lhs} but (x.y)+z = {A.op[(xy, z)]}",
                )

    loops = [x for x in src_fiber if g.tgt[x] == e0]
    for x in loops:
        for y in loops:
            if g.prod.get((x, y)) != A.op[(x, y)]:
                rb.violation(
                    "isotropy-product-is-addition",
                    (x, y),
                    f"{x}.{y} = {g.prod.get((x, y))} but {x}+{y} = {A.op[(x, y)]}",
                )
        if g.inv[x] != A.inverse[x]:
            rb.violation(
                "isotropy-inverse-is-negation",
                (x,),
                f"inv({x}) = {g.inv[x]} but -{x} = {A.inverse[x]}",
            )
    return rb.build()


def reconstruct_from_group(gg: GroupGroupoid) -> ValidationReport:
    """Recompute the partial product and the inversion from the group layer.

    For every stored composable pair, x.y must equal x + (-unit(tgt(x))) + y,
    and for every arrow, inv(x) must equal unit(src(x)) + (-x) + unit(tgt(x));
    both comparisons are exact token equality.  A product outside the arrow
    group's element set is reported as closure only.
    """
    check_wellformed_gg(gg)
    g = gg.base
    A = gg.arrow_group
    rb = ReportBuilder()
    if not _closed(rb, "reconstruction", arrow=A):
        return rb.build()
    for x, y in g.composable_pairs():
        stored = g.prod.get((x, y))
        rebuilt = A.mul(x, A.inverse[g.unit[g.tgt[x]]], y)
        if stored != rebuilt:
            rb.violation(
                "product-reconstruction",
                (x, y),
                f"stored {stored if stored is not None else 'nothing'}, recomputed {rebuilt}",
            )
    for x in sorted(g.arrows):
        rebuilt = A.mul(g.unit[g.src[x]], A.inverse[x], g.unit[g.tgt[x]])
        if g.inv[x] != rebuilt:
            rb.violation(
                "inverse-reconstruction",
                (x,),
                f"stored {g.inv[x]}, recomputed {rebuilt}",
            )
    return rb.build()


def validate_gg_morphism(
    m: Morphism, a: GroupGroupoid, b: GroupGroupoid
) -> ValidationReport:
    """A group-groupoid morphism: groupoid morphism whose maps are also additive.

    A product outside the source's element sets is reported as closure, and
    additivity is then skipped.
    """
    if m.source != a.base or m.target != b.base:
        raise DomainMismatch("morphism endpoints are not the bases of the given structures")
    rb = ReportBuilder()
    closed = _closed(rb, "additivity", arrow=a.arrow_group, object=a.object_group)
    rb.absorb(validate_morphism(m))
    if not closed:
        return rb.build()
    for x in sorted(a.base.arrows):
        for y in sorted(a.base.arrows):
            lhs = m.f[a.arrow_group.op[(x, y)]]
            rhs = b.arrow_group.op[(m.f[x], m.f[y])]
            if lhs != rhs:
                rb.violation(
                    "f-additive", (x, y), f"f({x}+{y}) = {lhs} but f({x})+f({y}) = {rhs}"
                )
    for u in sorted(a.base.objects):
        for v in sorted(a.base.objects):
            lhs = m.f0[a.object_group.op[(u, v)]]
            rhs = b.object_group.op[(m.f0[u], m.f0[v])]
            if lhs != rhs:
                rb.violation(
                    "f0-additive", (u, v), f"f0({u}+{v}) = {lhs} but f0({u})+f0({v}) = {rhs}"
                )
    return rb.build()
