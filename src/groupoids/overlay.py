"""Group-groupoids: a groupoid whose arrows and objects also carry group laws.

The compatibility between the two layers can be decided two independent ways:

* mode ``def31``: build the doubled groupoid and a one-point groupoid and ask,
  with the generic morphism validator, whether addition, the identity element
  and negation are groupoid morphisms;
* mode ``def32``: check by direct enumeration that source, target, unit and
  inversion respect addition, plus the interchange law
  (x.y) + (z.t) = (x+z).(y+t); on an otherwise valid structure an exact
  certificate may accept interchange first, and anything else enumerates.

The two procedures provably agree on every input, including broken ones, and
mode ``both`` runs them side by side and treats disagreement as a fatal bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteGroupoid,
    Morphism,
    _loops,
    check_wellformed,
    validate_groupoid,
    validate_morphism,
)
from .grouptable import (
    GroupTable,
    additivity_report,
    check_table_wellformed,
    closure_gate,
    closure_report,
    noncommuting_pair,
    pair_token,
    skip_past_closure,
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
    "unit_isotropy_report",
    "reconstruct_from_group",
    "validate_gg_morphism",
]

MODES = ("def31", "def32", "both")


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


def _structure_maps(gg: GroupGroupoid) -> tuple:
    """Source, target, inversion and unit as (word, name, map, domain, codomain)."""
    g = gg.base
    A, O = gg.arrow_group, gg.object_group
    return (
        ("source", "src", g.src, A, O),
        ("target", "tgt", g.tgt, A, O),
        ("inversion", "inv", g.inv, A, A),
        ("unit", "unit", g.unit, O, A),
    )


def _additivity_report(gg: GroupGroupoid) -> ValidationReport:
    """Each of the four structure maps must be a group homomorphism."""
    rb = ReportBuilder()
    for word, name, h, dom, cod in _structure_maps(gg):
        rb.absorb(additivity_report(f"{word}-additive", name, h, dom, cod))
    return rb.build()


def _interchange_certificate(gg: GroupGroupoid) -> bool:
    """True only if the interchange law holds; assumes the structural report
    and the additivity report are both clean.

    Theorem (the cat^1-group / crossed-module correspondence; Brown & Spencer
    1976, Loday 1982): given those, interchange holds if x.y equals
    x - unit(tgt x) + y on every composable pair and every element of
    ker src commutes with every element of ker tgt.  Proof: for composable
    (x, y) and (z, t) with b = tgt x and d = tgt z, (x+z, y+t) is composable
    because src and tgt are additive, and the formula with unit(b+d) =
    unit(b) + unit(d) turns interchange into a + c == c + a for
    a = -unit(b) + y in ker src and c = z - unit(d) in ker tgt.

    False proves nothing; the caller then runs check_interchange.  Costs one
    step per composable pair plus |ker src| * |ker tgt|.
    """
    g = gg.base
    A = gg.arrow_group
    add, neg = A.op, A.inverse
    for x, y in g.composable_pairs():
        if g.prod[(x, y)] != add[(add[(x, neg[g.unit[g.tgt[x]]])], y)]:
            return False
    e0 = gg.object_group.identity
    ker_tgt = g.fibers.get(("target", e0), ())
    return all(
        add[(a, c)] == add[(c, a)]
        for a in g.fibers.get(("source", e0), ())
        for c in ker_tgt
    )


def _def32_report(gg: GroupGroupoid, structure_valid: bool) -> ValidationReport:
    """Additivity of the four structure maps, then interchange: accepted by
    _interchange_certificate when everything else is clean, else enumerated."""
    additivity = _additivity_report(gg)
    if structure_valid and additivity.valid and _interchange_certificate(gg):
        return additivity
    rb = ReportBuilder()
    rb.absorb(additivity)
    rb.absorb(check_interchange(gg))
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
        "def31": lambda: _morphism_based_report(gg),
        "def32": lambda: _def32_report(gg, common.valid),
    }
    verdicts: dict[str, bool] = {}
    for name in sections if mode == "both" else (mode,):
        if not closed:
            skip_past_closure(rb, name)
            verdicts[name] = False
            continue
        report = sections[name]()
        verdicts[name] = common.valid and report.valid
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

    The four structure maps (_structure_maps) respecting addition and
    negation, compatibility of negation with the partial product, endpoints
    and unit of the group identity, negation being an antihomomorphic
    involution (plain distribution is checked only when both groups are
    commutative, otherwise reported not-applicable with a witness),
    neutrality and translation laws on the unit fibers, and the unit-object
    isotropy group agreeing with addition.
    A product outside its group's element set is reported as closure only.
    """
    check_wellformed_gg(gg)
    g = gg.base
    A = gg.arrow_group
    O = gg.object_group
    e = A.identity
    e0 = O.identity
    neg = A.inverse
    rb = ReportBuilder()
    if not closure_gate(rb, "derived-identities", {"arrow-group:": A, "object-group:": O}):
        return rb.build()
    rb.absorb(_additivity_report(gg))

    stored = [p for p in g.composable_pairs() if p in g.prod]
    for x, y in stored:
        lhs = g.prod.get((neg[x], neg[y]))
        rhs = neg[g.prod[(x, y)]]
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

    for word, name, h, dom, cod in _structure_maps(gg):
        for x, nx in dom.inverse.items():
            lhs, rhs = h[nx], cod.inverse[h[x]]
            if lhs != rhs:
                msg = f"{name}(-{x}) = {lhs} but -{name}({x}) = {rhs}"
                rb.violation(f"{word}-of-negation", (x,), msg)
    for x, nx in neg.items():
        if neg[nx] != x:
            rb.violation("negation-involution", (x,), f"-(-{x}) = {neg[nx]}")

    witness, which = noncommuting_pair(A), "arrow group"
    if witness is None:
        witness, which = noncommuting_pair(O), "object group"
    if witness is not None:
        rb.note(
            "negation-distributes",
            "not-applicable",
            f"{which} is not commutative (witness {witness[0]},{witness[1]})",
        )
    for (x, y), s in A.op.items():
        ns, nx, ny = neg[s], neg[x], neg[y]
        if ns != A.op[(ny, nx)]:
            rb.violation("negation-antidistributes", (x, y), f"-({x}+{y}) != (-{y})+(-{x})")
        if witness is None and ns != A.op[(nx, ny)]:
            rb.violation("negation-distributes", (x, y), f"-({x}+{y}) != (-{x})+(-{y})")

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

    rb.absorb(unit_isotropy_report(
        gg, "isotropy-product-is-addition", "isotropy-inverse-is-negation"
    ))
    return rb.build()


def unit_isotropy_report(
    gg: GroupGroupoid, product_rule: str, inverse_rule: str
) -> ValidationReport:
    """The loops at the identity object compose by addition and invert by negation."""
    g = gg.base
    A = gg.arrow_group
    rb = ReportBuilder()
    loops = _loops(g, gg.object_group.identity)
    for x in loops:
        for y in loops:
            product, total = g.prod.get((x, y)), A.op[(x, y)]
            if product != total:
                rb.violation(product_rule, (x, y), f"{x}.{y} = {product} but {x}+{y} = {total}")
        if g.inv[x] != A.inverse[x]:
            rb.violation(inverse_rule, (x,), f"inv({x}) = {g.inv[x]} but -{x} = {A.inverse[x]}")
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
    if not closure_gate(rb, "reconstruction", {"arrow-group:": A}):
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

    Both structures must be well formed (MalformedStructure otherwise).  A
    product outside the source's element sets is reported as closure, and
    additivity is then skipped.
    """
    if m.source != a.base or m.target != b.base:
        raise DomainMismatch("morphism endpoints are not the bases of the given structures")
    check_wellformed_gg(a)
    check_wellformed_gg(b)
    A, O = a.arrow_group, a.object_group
    rb = ReportBuilder()
    closed = closure_gate(rb, "additivity", {"arrow-group:": A, "object-group:": O})
    rb.absorb(validate_morphism(m))
    if closed:
        rb.absorb(additivity_report("f-additive", "f", m.f, A, b.arrow_group))
        rb.absorb(additivity_report("f0-additive", "f0", m.f0, O, b.object_group))
    return rb.build()
