"""Explicit finite groupoids: axiom validation and the identities they force.

A groupoid here is a pair of token sets (objects, arrows) with tabulated
source/target/unit/inverse maps and a partial product stored only on the
composable pairs.  Everything is checked by exhaustion and reported with
witnesses; nothing is inferred or repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .grouptable import GroupTable, find_isomorphism, validate_group
from .report import (
    DomainMismatch,
    InternalCheckFailed,
    MalformedStructure,
    MalformedTable,
    ReportBuilder,
    UnknownArrow,
    UnknownObject,
    ValidationReport,
)

__all__ = [
    "FiniteGroupoid",
    "Morphism",
    "ISO_SEARCH_CAP",
    "check_wellformed",
    "is_identifier",
    "validate_groupoid",
    "composable",
    "fiber",
    "isotropy_group",
    "is_transitive",
    "conjugation_iso",
    "structure_identities",
    "validate_morphism",
]

# brute-force isomorphism search gives up above this group order
ISO_SEARCH_CAP = 12


@dataclass(frozen=True)
class FiniteGroupoid:
    """A groupoid with explicitly tabulated structure maps.

    ``prod`` is partial: its keys should be exactly the composable pairs,
    i.e. those (x, y) with tgt[x] == src[y].  Whether they actually are is
    validate_groupoid's business, not a construction-time requirement.
    """

    objects: frozenset[str]
    arrows: frozenset[str]
    src: Mapping[str, str]
    tgt: Mapping[str, str]
    unit: Mapping[str, str]
    inv: Mapping[str, str]
    prod: Mapping[tuple[str, str], str]

    def __post_init__(self) -> None:
        # not functools.cached_property: a write through the instance __dict__
        # slows every later attribute read on CPython 3.11 by about a third
        object.__setattr__(self, "_fibers", None)

    @property
    def fibers(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(side, u) -> the sorted arrows whose source (side 'source') or target
        (side 'target') is u; a key with no arrows is absent.

        Built on first use, in one pass over the sorted arrows.  The structure
        maps must not be mutated after the first check has read this index.
        """
        if self._fibers is None:
            index: dict[tuple[str, str], list[str]] = {}
            for x in sorted(self.arrows):
                index.setdefault(("source", self.src[x]), []).append(x)
                index.setdefault(("target", self.tgt[x]), []).append(x)
            object.__setattr__(self, "_fibers", {k: tuple(v) for k, v in index.items()})
        return self._fibers

    def composable_pairs(self) -> Iterator[tuple[str, str]]:
        """All (x, y) with tgt[x] == src[y], in sorted order.

        The y for a given x are by definition the source fiber of tgt[x], which
        the index holds sorted, so this costs one step per composable pair.
        """
        fibers = self.fibers
        for x in sorted(self.arrows):
            for y in fibers.get(("source", self.tgt[x]), ()):
                yield (x, y)


def is_identifier(tok: str) -> bool:
    """Non-empty, with no whitespace, '#', '=' or '.': writable to a structure file."""
    return tok.split() == [tok] and "#" not in tok and "=" not in tok and "." not in tok


def check_wellformed(g: FiniteGroupoid) -> None:
    """Raise MalformedStructure unless every map is total and hits declared tokens."""
    for tok in sorted(g.objects | g.arrows):
        if not is_identifier(tok):
            raise MalformedStructure(f"bad identifier {tok!r}")
    for name, mapping in (("src", g.src), ("tgt", g.tgt), ("inv", g.inv)):
        if set(mapping) != set(g.arrows):
            raise MalformedStructure(f"{name} must be total on the arrow set")
    if not set(g.src.values()) <= g.objects:
        raise MalformedStructure("src has a value outside the object set")
    if not set(g.tgt.values()) <= g.objects:
        raise MalformedStructure("tgt has a value outside the object set")
    if not set(g.inv.values()) <= g.arrows:
        raise MalformedStructure("inv has a value outside the arrow set")
    if set(g.unit) != set(g.objects):
        raise MalformedStructure("unit must be total on the object set")
    if not set(g.unit.values()) <= g.arrows:
        raise MalformedStructure("unit has a value outside the arrow set")
    for (x, y), z in g.prod.items():
        if x not in g.arrows or y not in g.arrows or z not in g.arrows:
            raise MalformedStructure(f"prod entry ({x},{y})={z} uses an undeclared arrow")


def validate_groupoid(
    g: FiniteGroupoid, *, allow_nonsurjective: bool = False
) -> ValidationReport:
    """Exhaustive check of the groupoid axioms.

    Covers: the product is stored on exactly the composable pairs; source and
    target of a product come from its factors; associativity; unit laws;
    inverse laws; surjectivity of source and target; injectivity of the unit
    map.  With allow_nonsurjective the surjectivity failures downgrade to
    warning notes.
    """
    check_wellformed(g)
    rb = ReportBuilder()
    arrows = sorted(g.arrows)
    objects = sorted(g.objects)
    comp = set(g.composable_pairs())
    stored = set(g.prod)

    for pair in sorted(comp - stored):
        rb.violation("domain-missing", pair, "composable pair has no product entry")
    for pair in sorted(stored - comp):
        rb.violation("domain-extra", pair, "product entry on a non-composable pair")

    defined = sorted(comp & stored)
    for x, y in defined:
        z = g.prod[(x, y)]
        if g.src[z] != g.src[x]:
            rb.violation(
                "G1-source", (x, y), f"source of product is {g.src[z]}, expected {g.src[x]}"
            )
        if g.tgt[z] != g.tgt[y]:
            rb.violation(
                "G1-target", (x, y), f"target of product is {g.tgt[z]}, expected {g.tgt[y]}"
            )

    for x, y in defined:
        xy = g.prod[(x, y)]
        for z in g.fibers.get(("source", g.tgt[y]), ()):
            yz = g.prod.get((y, z))
            left = g.prod.get((xy, z))
            right = g.prod.get((x, yz)) if yz is not None else None
            if left is None or right is None:
                continue  # explained by domain / endpoint violations already
            if left != right:
                rb.violation(
                    "G1-assoc",
                    (x, y, z),
                    f"({x}.{y}).{z} = {left} but {x}.({y}.{z}) = {right}",
                )

    unit_owner: dict[str, str] = {}
    for u in objects:
        e = g.unit[u]
        if g.src[e] != u or g.tgt[e] != u:
            rb.violation(
                "unit-endpoints",
                (u, e),
                f"unit arrow has endpoints ({g.src[e]},{g.tgt[e]}), expected ({u},{u})",
            )
        if e in unit_owner:
            rb.violation(
                "unit-injective", (unit_owner[e], u, e), "two objects share a unit arrow"
            )
        else:
            unit_owner[e] = u

    for x in arrows:
        e = g.unit[g.src[x]]
        got = g.prod.get((e, x))
        if got != x:
            rb.violation(
                "G2-left-unit",
                (x,),
                f"unit({g.src[x]}).{x} = {got if got is not None else 'undefined'}",
            )
        e = g.unit[g.tgt[x]]
        got = g.prod.get((x, e))
        if got != x:
            rb.violation(
                "G2-right-unit",
                (x,),
                f"{x}.unit({g.tgt[x]}) = {got if got is not None else 'undefined'}",
            )

    for x in arrows:
        xi = g.inv[x]
        got = g.prod.get((xi, x))
        want = g.unit[g.tgt[x]]
        if got != want:
            rb.violation(
                "G3-left-inverse",
                (x,),
                f"inv({x}).{x} = {got if got is not None else 'undefined'}, expected {want}",
            )
        got = g.prod.get((x, xi))
        want = g.unit[g.src[x]]
        if got != want:
            rb.violation(
                "G3-right-inverse",
                (x,),
                f"{x}.inv({x}) = {got if got is not None else 'undefined'}, expected {want}",
            )

    for rule, mapping in (("source-surjective", g.src), ("target-surjective", g.tgt)):
        for u in sorted(g.objects - set(mapping.values())):
            if allow_nonsurjective:
                rb.note(rule, "warning", f"no arrow has {rule.split('-')[0]} {u}")
            else:
                rb.violation(rule, (u,), f"no arrow has {rule.split('-')[0]} {u}")

    return rb.build()


def composable(g: FiniteGroupoid, x: str, y: str) -> bool:
    """True iff x then y can be composed (target of x is source of y)."""
    for a in (x, y):
        if a not in g.arrows:
            raise UnknownArrow(f"unknown arrow '{a}'")
    return g.tgt[x] == g.src[y]


def fiber(g: FiniteGroupoid, side: str, u: str) -> frozenset[str]:
    """All arrows whose source (side='source') or target (side='target') is u."""
    if side not in ("source", "target"):
        raise ValueError("side must be 'source' or 'target'")
    if u not in g.objects:
        raise UnknownObject(f"unknown object '{u}'")
    return frozenset(g.fibers.get((side, u), ()))


def _loops(g: FiniteGroupoid, u: str) -> list[str]:
    """The sorted arrows from u to u."""
    return [x for x in g.fibers.get(("source", u), ()) if g.tgt[x] == u]


def isotropy_group(g: FiniteGroupoid, u: str) -> GroupTable:
    """The loops at u with the restricted product, packaged as a group table.

    The result is verified with validate_group before it is returned; a
    failure means the input groupoid was not valid in the first place.
    """
    if u not in g.objects:
        raise UnknownObject(f"unknown object '{u}'")
    loops = _loops(g, u)
    op = {}
    for x in loops:
        for y in loops:
            z = g.prod.get((x, y))
            if z is None:
                raise InternalCheckFailed(
                    f"no product stored for loops ({x},{y}) at {u}; the groupoid is not valid"
                )
            op[(x, y)] = z
    table = GroupTable(
        frozenset(loops), op, g.unit[u], {x: g.inv[x] for x in loops}
    )
    try:
        report = validate_group(table)
    except MalformedTable as exc:
        raise InternalCheckFailed(f"isotropy at {u} is not a group: {exc}") from exc
    report.require(InternalCheckFailed, f"isotropy at {u} is not a group")
    return table


def is_transitive(g: FiniteGroupoid) -> bool:
    """True iff every ordered pair of objects is connected by some arrow."""
    anchor = {(g.src[x], g.tgt[x]) for x in g.arrows}
    return len(anchor) == len(g.objects) ** 2


def conjugation_iso(g: FiniteGroupoid, x: str) -> dict[str, str]:
    """The isomorphism z -> inv(x).z.x from the isotropy at src(x) to the one at tgt(x).

    Verified to be a product-preserving bijection before being returned.
    """
    if x not in g.arrows:
        raise UnknownArrow(f"unknown arrow '{x}'")
    u, v = g.src[x], g.tgt[x]
    xi = g.inv[x]
    dom = _loops(g, u)
    cod = set(_loops(g, v))
    phi: dict[str, str] = {}
    for z in dom:
        step = g.prod.get((xi, z))
        out = g.prod.get((step, x)) if step is not None else None
        if out is None:
            raise InternalCheckFailed(
                f"cannot conjugate {z} along {x}; the groupoid is not valid"
            )
        phi[z] = out
    if len(set(phi.values())) != len(dom) or set(phi.values()) != cod:
        raise InternalCheckFailed(
            f"conjugation along {x} is not a bijection between the isotropy groups"
        )
    for z in dom:
        for w in dom:
            zw = g.prod.get((z, w))
            if zw is None or phi.get(zw) != g.prod.get((phi[z], phi[w])):
                raise InternalCheckFailed(
                    f"conjugation along {x} does not preserve products (witness {z},{w})"
                )
    return phi


def structure_identities(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustively verify the identities every valid groupoid must satisfy.

    Endpoints of products and inverses, unit arrows being idempotent
    self-inverse loops, inversion being an involution that swaps endpoints,
    and products inverting contravariantly.  For a transitive groupoid whose
    isotropy groups have order at most ISO_SEARCH_CAP, also checks that they
    are pairwise isomorphic (by brute-force search, independent of
    conjugation); above the cap that check is skipped with a note.  An
    isotropy that is not a group is reported at its object instead, and the
    comparison is then skipped.

    Expects a groupoid that already passed validate_groupoid; on broken input
    the product lookups may be undefined, which is reported rather than raised.
    """
    check_wellformed(g)
    rb = ReportBuilder()
    arrows = sorted(g.arrows)
    objects = sorted(g.objects)

    for x, y in g.composable_pairs():
        z = g.prod.get((x, y))
        if z is None:
            rb.violation("product-undefined", (x, y), "no product stored")
            continue
        if g.src[z] != g.src[x]:
            rb.violation("product-source", (x, y), f"source of {z} is not {g.src[x]}")
        if g.tgt[z] != g.tgt[y]:
            rb.violation("product-target", (x, y), f"target of {z} is not {g.tgt[y]}")
        want = g.prod.get((g.inv[y], g.inv[x]))
        if want is None or g.inv[z] != want:
            rb.violation(
                "product-inverse-reversal",
                (x, y),
                f"inv({x}.{y}) = {g.inv[z]} but inv({y}).inv({x}) = {want}",
            )

    for x in arrows:
        xi = g.inv[x]
        if g.src[xi] != g.tgt[x] or g.tgt[xi] != g.src[x]:
            rb.violation(
                "inverse-endpoints",
                (x,),
                f"inv({x}) has endpoints ({g.src[xi]},{g.tgt[xi]}), "
                f"expected ({g.tgt[x]},{g.src[x]})",
            )
        if g.inv[xi] != x:
            rb.violation("inversion-involution", (x,), f"inv(inv({x})) = {g.inv[xi]}")

    for u in objects:
        e = g.unit[u]
        if g.src[e] != u or g.tgt[e] != u:
            rb.violation("unit-section", (u,), f"unit({u}) is not a loop at {u}")
        if g.prod.get((e, e)) != e:
            rb.violation("unit-idempotent", (u,), f"unit({u}).unit({u}) != unit({u})")
        if g.inv[e] != e:
            rb.violation("unit-self-inverse", (u,), f"inv(unit({u})) = {g.inv[e]}")

    if not is_transitive(g):
        rb.note("isotropy-isomorphic", "not-applicable", "groupoid is not transitive")
        return rb.build()
    tables = {}
    for u in objects:
        try:
            tables[u] = isotropy_group(g, u)
        except InternalCheckFailed as exc:
            rb.violation("isotropy-isomorphic", (u,), str(exc))
    if len(tables) < len(objects):
        return rb.build()
    biggest = max(len(t.elements) for t in tables.values())
    if biggest > ISO_SEARCH_CAP:
        rb.note(
            "isotropy-isomorphic",
            "skipped",
            f"isotropy order {biggest} exceeds the search cap {ISO_SEARCH_CAP}",
        )
        return rb.build()
    base = objects[0]
    for u in objects[1:]:
        if find_isomorphism(tables[base], tables[u]) is None:
            rb.violation("isotropy-isomorphic", (base, u), "isotropy groups are not isomorphic")
    return rb.build()


@dataclass(frozen=True)
class Morphism:
    """A map of groupoids: arrow map f plus object map f0."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    f: Mapping[str, str]
    f0: Mapping[str, str]


def validate_morphism(m: Morphism) -> ValidationReport:
    """Check the two defining conditions of a groupoid morphism by exhaustion.

    M1: f commutes with source and target through f0.
    M2: f maps each stored product to the product of the images (the image
    pair must itself be composable).

    Afterwards the unit and inverse compatibilities are checked as well; they
    are consequences of M1+M2 for valid groupoids, so when the M-checks are
    clean a failure is flagged as an internal inconsistency.
    """
    s, t = m.source, m.target
    if set(m.f) != set(s.arrows):
        raise DomainMismatch("arrow map must be total on the source arrows")
    if not set(m.f.values()) <= t.arrows:
        raise DomainMismatch("arrow map has values outside the target arrows")
    if set(m.f0) != set(s.objects):
        raise DomainMismatch("object map must be total on the source objects")
    if not set(m.f0.values()) <= t.objects:
        raise DomainMismatch("object map has values outside the target objects")

    rb = ReportBuilder()
    for x in sorted(s.arrows):
        fx = m.f[x]
        if t.src[fx] != m.f0[s.src[x]]:
            rb.violation(
                "M1-source",
                (x,),
                f"src(f({x})) = {t.src[fx]} but f0(src({x})) = {m.f0[s.src[x]]}",
            )
        if t.tgt[fx] != m.f0[s.tgt[x]]:
            rb.violation(
                "M1-target",
                (x,),
                f"tgt(f({x})) = {t.tgt[fx]} but f0(tgt({x})) = {m.f0[s.tgt[x]]}",
            )
    for x, y in s.composable_pairs():
        xy = s.prod.get((x, y))
        image = t.prod.get((m.f[x], m.f[y]))
        if image is None:
            rb.violation(
                "M2-product", (x, y), f"images ({m.f[x]},{m.f[y]}) are not composable"
            )
        elif xy is not None and m.f[xy] != image:
            rb.violation(
                "M2-product", (x, y), f"f({x}.{y}) = {m.f[xy]} but f({x}).f({y}) = {image}"
            )

    clean = rb.clean
    tag = "internal inconsistency: " if clean else ""
    for u in sorted(s.objects):
        lhs = m.f[s.unit[u]]
        rhs = t.unit[m.f0[u]]
        if lhs != rhs:
            rb.violation(
                "unit-compatibility",
                (u,),
                f"{tag}f(unit({u})) = {lhs} but unit(f0({u})) = {rhs}",
            )
    for x in sorted(s.arrows):
        lhs = m.f[s.inv[x]]
        rhs = t.inv[m.f[x]]
        if lhs != rhs:
            rb.violation(
                "inverse-compatibility",
                (x,),
                f"{tag}f(inv({x})) = {lhs} but inv(f({x})) = {rhs}",
            )
    return rb.build()
