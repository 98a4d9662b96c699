"""Explicit finite groupoids: axiom validation and the identities they force.

A groupoid here is a pair of token sets (objects, arrows) with tabulated
source/target/unit/inverse maps and a partial product stored only on the
composable pairs.  Everything is checked by exhaustion, unless Light's test,
the associativity loop run on a generating set through the fork of the
generator certificates (grouptable._on_generators), proves associativity
first, and reported with witnesses; nothing is inferred or repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian
from typing import Iterator, Mapping, NamedTuple

from .grouptable import (
    GroupTable, _associativity, _generating_set, _unchecked, find_isomorphism, is_identifier,
    pair_token_table, validate_group,
)
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


@dataclass(frozen=True)
class FiniteGroupoid:
    """A groupoid with explicitly tabulated structure maps.

    Built well formed or not at all: construction runs check_wellformed, so
    every map is total and hits declared identifiers, and the maps must not
    be mutated afterwards.  ``prod`` is partial: its keys should be exactly
    the composable pairs, i.e. those (x, y) with tgt[x] == src[y].  Whether
    they actually are is validate_groupoid's business.
    """

    objects: frozenset[str]
    arrows: frozenset[str]
    src: Mapping[str, str]
    tgt: Mapping[str, str]
    unit: Mapping[str, str]
    inv: Mapping[str, str]
    prod: Mapping[tuple[str, str], str]

    # set by `fibers` and _integer_view; not functools.cached_property: a write through the
    # instance __dict__ slows every later attribute read on CPython 3.11 by about a third
    _fibers = None
    _view = None

    def __post_init__(self) -> None:
        check_wellformed(self)

    @property
    def fibers(self) -> dict[tuple[str, str], tuple[str, ...]]:
        """(side, u) -> the sorted arrows whose source (side 'source') or target
        (side 'target') is u; a key with no arrows is absent.

        Built on first use, in one pass over the sorted arrows.
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


class _IntegerView(NamedTuple):
    """A groupoid numbered in sorted token order: arrow i is arrows[i] and
    object u is objects[u]; src, tgt and inv per arrow and unit per object,
    as numbers; prod[i][j], the number of arrows[i].arrows[j] or -1 where no
    product is stored, with a -1 pad ending each row, so that a product with
    a missing factor reads -1 too; starts[u] and ends[u], the arrows with
    source u and with target u, sorted; and every composable pair as
    (x, y, x.y or -1), sorted."""

    arrows: list[str]
    objects: list[str]
    src: list[int]
    tgt: list[int]
    inv: list[int]
    unit: list[int]
    prod: list[list[int]]
    starts: list[list[int]]
    ends: list[list[int]]
    pairs: list[tuple[int, int, int]]


def _integer_view(g: FiniteGroupoid) -> _IntegerView:
    """The groupoid's one integer view, built on first use and cached on it:
    A*(A+1) product slots for A arrows, plus one tuple per composable pair."""
    if g._view is None:
        arrows, objects = sorted(g.arrows), sorted(g.objects)
        number = {x: i for i, x in enumerate(arrows)}
        place = {u: i for i, u in enumerate(objects)}
        src = [place[g.src[x]] for x in arrows]
        tgt = [place[g.tgt[x]] for x in arrows]
        prod = [[-1] * (len(arrows) + 1) for _ in arrows]
        for (x, y), xy in g.prod.items():
            prod[number[x]][number[y]] = number[xy]
        starts, ends = [[] for _ in objects], [[] for _ in objects]
        for x, (u, v) in enumerate(zip(src, tgt)):
            starts[u].append(x)
            ends[v].append(x)
        pairs = [(x, y, row[y]) for x, row in enumerate(prod) for y in starts[tgt[x]]]
        object.__setattr__(g, "_view", _IntegerView(
            arrows, objects, src, tgt, [number[g.inv[x]] for x in arrows],
            [number[g.unit[u]] for u in objects], prod, starts, ends, pairs,
        ))
    return g._view


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


def _null(objects: frozenset[str]) -> FiniteGroupoid:
    ident = {u: u for u in objects}
    return FiniteGroupoid(
        objects=objects,
        arrows=objects,
        src=dict(ident),
        tgt=dict(ident),
        unit=dict(ident),
        inv=dict(ident),
        prod={(u, u): u for u in objects},
    )


def _single_unit(table: GroupTable) -> FiniteGroupoid:
    """The one-object groupoid of a table, which must be closed: it is then well
    formed, since table elements are identifiers, and is built unchecked."""
    e = table.identity
    const = {x: e for x in table.elements}
    return _unchecked(
        FiniteGroupoid,
        objects=frozenset({e}),
        arrows=table.elements,
        src=const,
        tgt=dict(const),
        unit={e: e},
        inv=dict(table.inverse),
        prod=dict(table.op),
    )


def _pair(objects: frozenset[str]) -> FiniteGroupoid:
    tok = pair_token_table(objects, objects)
    arrows = [(tok[x][y], x, y) for x, y in cartesian(objects, objects)]
    return FiniteGroupoid(
        objects=objects,
        arrows=frozenset(a for a, _, _ in arrows),
        src={a: x for a, x, _ in arrows},
        tgt={a: y for a, _, y in arrows},
        unit={x: tok[x][x] for x in objects},
        inv={a: tok[y][x] for a, x, y in arrows},
        prod={
            (tok[x][y], tok[y][z]): tok[x][z]
            for x, y, z in cartesian(objects, objects, objects)
        },
    )


def _product(g: FiniteGroupoid, k: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise structure on pair tokens; pairs compose iff both components do.

    The factors need not be valid: direct_product_groups multiplies the
    one-object groupoids of closed tables that it does not check to be
    groups.  Pair tokens of identifiers are identifiers, so the
    result is well formed and is built unchecked; _null and _pair take caller
    tokens, which may not be identifiers, and are checked.
    """
    tok = pair_token_table(g.objects | g.arrows, k.objects | k.arrows)
    src = {}
    tgt = {}
    inv = {}
    unit = {}
    for x in g.arrows:
        row, src_row, tgt_row, inv_row = tok[x], tok[g.src[x]], tok[g.tgt[x]], tok[g.inv[x]]
        for y in k.arrows:
            a = row[y]
            src[a] = src_row[k.src[y]]
            tgt[a] = tgt_row[k.tgt[y]]
            inv[a] = inv_row[k.inv[y]]
    for u in g.objects:
        row, unit_row = tok[u], tok[g.unit[u]]
        for v in k.objects:
            unit[row[v]] = unit_row[k.unit[v]]
    prod = {}
    for (x1, x2), xz in g.prod.items():
        row1, row2, row_z = tok[x1], tok[x2], tok[xz]
        for (y1, y2), yz in k.prod.items():
            prod[(row1[y1], row2[y2])] = row_z[yz]
    return _unchecked(
        FiniteGroupoid,
        objects=frozenset(unit),
        arrows=frozenset(src),
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=prod,
    )


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustive check of the groupoid axioms, on the integer view
    (_integer_view).

    Covers: the product is stored on exactly the composable pairs; source and
    target of a product come from its factors; associativity; unit laws;
    inverse laws; surjectivity of source and target; injectivity of the
    unit map.  Theorem: an object u that no arrow has as source (or target)
    also fails unit-endpoints at (u, unit(u)), since the unit axiom asks for
    the arrow unit(u): u -> u.  So a surjectivity violation never decides a
    verdict alone.

    Associativity (G1-assoc) is the loop that validate_group runs
    (grouptable._associativity), per middle s: u -> v a row per x entering
    u, over the z leaving v.  Light's test needs the product stored on
    exactly the composable pairs, with the source of its first factor and
    the target of its second (domain-*, G1-source and G1-target clean); only
    then does the loop get a generating set of the arrows (_generating_set),
    on which the test may accept.  If, besides, no two arrows share a source
    (a null groupoid), that alone proves associativity and no row is read:
    x.y has the source of x, so it is x, with the target of y; so
    (x.y).z = x.z = x = x.y = x.(y.z).
    """
    rb = ReportBuilder()
    arrows, objects, src, tgt, inv, unit, prod, starts, ends, pairs = _integer_view(g)

    defined, endpoints = 0, True
    for x, y, xy in pairs:
        pair = (arrows[x], arrows[y])
        if xy == -1:
            rb.violation("domain-missing", pair, "composable pair has no product entry")
            continue
        defined += 1
        if src[xy] != src[x]:
            endpoints = False
            rb.violation("G1-source", pair,
                         f"source of product is {objects[src[xy]]}, expected {objects[src[x]]}")
        if tgt[xy] != tgt[y]:
            endpoints = False
            rb.violation("G1-target", pair,
                         f"target of product is {objects[tgt[xy]]}, expected {objects[tgt[y]]}")
    if defined != len(g.prod):  # some stored pair is not composable
        for pair in sorted(p for p in g.prod if g.tgt[p[0]] != g.src[p[1]]):
            rb.violation("domain-extra", pair, "product entry on a non-composable pair")

    # a missing product is explained by domain / endpoint violations already
    clean = endpoints and defined == len(pairs) == len(g.prod)
    if not clean or len(set(src)) < len(src):  # a clean null groupoid is associative
        generators = clean and _generating_set(prod, src, tgt, range(len(src)), set(unit))
        _associativity(rb, "G1-assoc", arrows, prod, generators, lambda y: ends[src[y]],
                       lambda y: starts[tgt[y]])

    unit_owner: dict[int, int] = {}
    for u, e in enumerate(unit):
        if src[e] != u or tgt[e] != u:
            ends = f"({objects[src[e]]},{objects[tgt[e]]}), expected ({objects[u]},{objects[u]})"
            rb.violation("unit-endpoints", (objects[u], arrows[e]),
                         f"unit arrow has endpoints {ends}")
        if e in unit_owner:
            rb.violation("unit-injective", (objects[unit_owner[e]], objects[u], arrows[e]),
                         "two objects share a unit arrow")
        else:
            unit_owner[e] = u

    for x, (u, v, xi) in enumerate(zip(src, tgt, inv)):
        for rule, (a, b), want, text in (
            ("G2-left-unit", (unit[u], x), x, "unit({u}).{x} = {got}"),
            ("G2-right-unit", (x, unit[v]), x, "{x}.unit({v}) = {got}"),
            ("G3-left-inverse", (xi, x), unit[v], "inv({x}).{x} = {got}, expected {want}"),
            ("G3-right-inverse", (x, xi), unit[u], "{x}.inv({x}) = {got}, expected {want}"),
        ):
            got = prod[a][b]
            if got != want:
                got = "undefined" if got == -1 else arrows[got]
                rb.violation(rule, (arrows[x],), text.format(
                    u=objects[u], v=objects[v], x=arrows[x], got=got, want=arrows[want]))

    for rule, ends in (("source-surjective", src), ("target-surjective", tgt)):
        for u in sorted(set(range(len(objects))).difference(ends)):
            rb.violation(rule, (objects[u],), f"no arrow has {rule.split('-')[0]} {objects[u]}")

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
    try:
        table = GroupTable(frozenset(loops), op, g.unit[u], {x: g.inv[x] for x in loops})
    except MalformedTable as exc:
        raise InternalCheckFailed(f"isotropy at {u} is not a group: {exc}") from exc
    validate_group(table).require(InternalCheckFailed, f"isotropy at {u} is not a group")
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

    Endpoints of inverses, unit arrows being idempotent and self-inverse,
    inversion being an involution that swaps endpoints, and products
    inverting contravariantly; validate_groupoid's rules, such as a product
    being stored with the right endpoints, are not restated.  For a
    transitive groupoid, also checks that the isotropy groups are pairwise
    isomorphic, by find_isomorphism's search over generator images, which
    never uses conjugation.  An isotropy that is not a group is reported at its object
    instead, and the comparison is then skipped.

    Read off the integer view that validate_groupoid builds (_integer_view),
    tokens only naming witnesses; the isotropy comparison goes through the
    public helpers is_transitive and isotropy_group.  Expects a groupoid
    that already passed validate_groupoid; on broken input it reports what
    it can read and never raises.
    """
    rb = ReportBuilder()
    arrows, objects, src, tgt, inv, unit, prod, _, _, pairs = _integer_view(g)
    names = [*arrows, None]  # an unstored product, -1, prints None

    for x, y, z in pairs:
        if z == -1:  # not stored: inv[-1] would silently read the last arrow's
            continue
        a, b = arrows[x], arrows[y]
        want = prod[inv[y]][inv[x]]
        if inv[z] != want:
            rb.violation("product-inverse-reversal", (a, b),
                         f"inv({a}.{b}) = {arrows[inv[z]]} but inv({b}).inv({a}) = {names[want]}")

    for x, (a, u, v, xi) in enumerate(zip(arrows, src, tgt, inv)):
        if src[xi] != v or tgt[xi] != u:
            ends = f"({objects[src[xi]]},{objects[tgt[xi]]}), expected ({objects[v]},{objects[u]})"
            rb.violation("inverse-endpoints", (a,), f"inv({a}) has endpoints {ends}")
        if inv[xi] != x:
            rb.violation("inversion-involution", (a,), f"inv(inv({a})) = {arrows[inv[xi]]}")

    for name, e in zip(objects, unit):
        if prod[e][e] != e:
            rb.violation("unit-idempotent", (name,), f"unit({name}).unit({name}) != unit({name})")
        if inv[e] != e:
            rb.violation("unit-self-inverse", (name,), f"inv(unit({name})) = {arrows[inv[e]]}")

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
    base = objects[0]
    for u in objects[1:]:
        if find_isomorphism(tables[base], tables[u]) is None:
            rb.violation("isotropy-isomorphic", (base, u), "isotropy groups are not isomorphic")
    return rb.build()


@dataclass(frozen=True)
class Morphism:
    """A map of groupoids: arrow map f plus object map f0, total on the source
    and into the target (DomainMismatch at construction otherwise)."""

    source: FiniteGroupoid
    target: FiniteGroupoid
    f: Mapping[str, str]
    f0: Mapping[str, str]

    def __post_init__(self) -> None:
        s, t = self.source, self.target
        if set(self.f) != set(s.arrows):
            raise DomainMismatch("arrow map must be total on the source arrows")
        if not set(self.f.values()) <= t.arrows:
            raise DomainMismatch("arrow map has values outside the target arrows")
        if set(self.f0) != set(s.objects):
            raise DomainMismatch("object map must be total on the source objects")
        if not set(self.f0.values()) <= t.objects:
            raise DomainMismatch("object map has values outside the target objects")


def validate_morphism(m: Morphism) -> ValidationReport:
    """Check the two defining conditions of a groupoid morphism by exhaustion.

    M1: f commutes with source and target through f0.
    M2: f maps each stored product to the product of the images (the image
    pair must itself be composable).

    Afterwards the unit and inverse compatibilities are checked as well.  They
    follow from M1+M2 only when both groupoids are valid, which this function
    does not check, so a failure is reported like any other violation.
    """
    s, t = m.source, m.target
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

    for u in sorted(s.objects):
        lhs = m.f[s.unit[u]]
        rhs = t.unit[m.f0[u]]
        if lhs != rhs:
            rb.violation(
                "unit-compatibility",
                (u,),
                f"f(unit({u})) = {lhs} but unit(f0({u})) = {rhs}",
            )
    for x in sorted(s.arrows):
        lhs = m.f[s.inv[x]]
        rhs = t.inv[m.f[x]]
        if lhs != rhs:
            rb.violation(
                "inverse-compatibility",
                (x,),
                f"f(inv({x})) = {lhs} but inv(f({x})) = {rhs}",
            )
    return rb.build()
