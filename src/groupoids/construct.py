"""The standard constructions: null, single-unit, pair, and direct products.

Constructors check their output with validate_groupoid (groupoids) or
check_group_groupoid in mode def32 (group-groupoids); tests cross-check def31.
"""

from __future__ import annotations

from itertools import product as cartesian
from typing import Iterable

from .core import FiniteGroupoid, Morphism, validate_groupoid
from .grouptable import (
    GroupTable,
    direct_product_groups,
    noncommuting_pair,
    pair_token,
    trivial_group,
    validate_group,
)
from .overlay import GroupGroupoid, check_group_groupoid, validate_gg_morphism
from .report import (
    EmptySet,
    InternalCheckFailed,
    InvalidGroup,
    InvalidInput,
    MalformedTable,
    NonCommutativeGroup,
)

__all__ = [
    "null_groupoid",
    "group_as_single_unit_groupoid",
    "pair_groupoid",
    "direct_product_groupoids",
    "null_group_groupoid",
    "single_unit_group_groupoid",
    "group_pair_groupoid",
    "direct_product_group_groupoids",
]


def _verified(g: FiniteGroupoid) -> FiniteGroupoid:
    validate_groupoid(g).require(
        InternalCheckFailed, "constructor produced an invalid groupoid"
    )
    return g


def _verified_gg(gg: GroupGroupoid) -> GroupGroupoid:
    check_group_groupoid(gg, mode="def32").require(
        InternalCheckFailed, "constructor produced an invalid group-groupoid"
    )
    return gg


def _require_group(table: GroupTable) -> None:
    try:
        report = validate_group(table)
    except MalformedTable as exc:
        raise InvalidGroup(str(exc)) from exc
    report.require(InvalidGroup, "not a group")


def null_groupoid(objs: Iterable[str]) -> FiniteGroupoid:
    """Only unit arrows: every object is its own arrow and composes with itself."""
    objects = frozenset(objs)
    if not objects:
        raise EmptySet("null groupoid needs at least one object")
    ident = {u: u for u in objects}
    return _verified(
        FiniteGroupoid(
            objects=objects,
            arrows=objects,
            src=dict(ident),
            tgt=dict(ident),
            unit=dict(ident),
            inv=dict(ident),
            prod={(u, u): u for u in objects},
        )
    )


def group_as_single_unit_groupoid(table: GroupTable) -> FiniteGroupoid:
    """One object (the group identity); arrows are the elements, product is the op."""
    _require_group(table)
    e = table.identity
    const = {x: e for x in table.elements}
    return _verified(
        FiniteGroupoid(
            objects=frozenset({e}),
            arrows=table.elements,
            src=const,
            tgt=dict(const),
            unit={e: e},
            inv=dict(table.inverse),
            prod=dict(table.op),
        )
    )


def pair_groupoid(objs: Iterable[str]) -> FiniteGroupoid:
    """One arrow (x|y) for every ordered pair of objects; (x|y).(y|z) = (x|z)."""
    objects = frozenset(objs)
    if not objects:
        raise EmptySet("pair groupoid needs at least one object")
    src = {}
    tgt = {}
    inv = {}
    for x, y in cartesian(objects, objects):
        a = pair_token(x, y)
        src[a] = x
        tgt[a] = y
        inv[a] = pair_token(y, x)
    prod = {
        (pair_token(x, y), pair_token(y, z)): pair_token(x, z)
        for x, y, z in cartesian(objects, objects, objects)
    }
    return _verified(
        FiniteGroupoid(
            objects=objects,
            arrows=frozenset(src),
            src=src,
            tgt=tgt,
            unit={x: pair_token(x, x) for x in objects},
            inv=inv,
            prod=prod,
        )
    )


def direct_product_groupoids(
    g: FiniteGroupoid, k: FiniteGroupoid, validate: bool = True
) -> FiniteGroupoid:
    """Componentwise structure on pair tokens; pairs compose iff both components do.

    With validate=False neither the factors nor the output are validated;
    that path exists so decision procedures can build the product of a
    not-yet-trusted structure without tripping over its own brokenness.
    """
    if validate:
        for part in (g, k):
            if not validate_groupoid(part).valid:
                raise InvalidInput("direct product factors must be valid groupoids")
    src = {}
    tgt = {}
    inv = {}
    unit = {}
    for x in g.arrows:
        for y in k.arrows:
            a = pair_token(x, y)
            src[a] = pair_token(g.src[x], k.src[y])
            tgt[a] = pair_token(g.tgt[x], k.tgt[y])
            inv[a] = pair_token(g.inv[x], k.inv[y])
    for u in g.objects:
        for v in k.objects:
            unit[pair_token(u, v)] = pair_token(g.unit[u], k.unit[v])
    prod = {}
    for (x1, x2), xz in g.prod.items():
        for (y1, y2), yz in k.prod.items():
            prod[(pair_token(x1, y1), pair_token(x2, y2))] = pair_token(xz, yz)
    out = FiniteGroupoid(
        objects=frozenset(unit),
        arrows=frozenset(src),
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=prod,
    )
    return _verified(out) if validate else out


def null_group_groupoid(table: GroupTable) -> GroupGroupoid:
    """Null groupoid on the elements, with the group acting on arrows and objects alike."""
    _require_group(table)
    return _verified_gg(
        GroupGroupoid(
            base=null_groupoid(table.elements),
            arrow_group=table,
            object_group=table,
        )
    )


def single_unit_group_groupoid(table: GroupTable) -> GroupGroupoid:
    """Single-unit groupoid of a commutative group, with the group on the arrows.

    Commutativity is required: for a non-commutative table the interchange law
    already fails, and the witness pair is reported in the error.
    """
    base = group_as_single_unit_groupoid(table)
    witness = noncommuting_pair(table)
    if witness is not None:
        raise NonCommutativeGroup(
            f"group is not commutative: {witness[0]}+{witness[1]} != "
            f"{witness[1]}+{witness[0]}",
            witness,
        )
    return _verified_gg(
        GroupGroupoid(
            base=base,
            arrow_group=table,
            object_group=trivial_group(table.identity),
        )
    )


def group_pair_groupoid(table: GroupTable) -> GroupGroupoid:
    """Pair groupoid on the elements with componentwise addition on the arrows."""
    _require_group(table)
    return _verified_gg(
        GroupGroupoid(
            base=pair_groupoid(table.elements),
            arrow_group=direct_product_groups(table, table),
            object_group=table,
        )
    )


def direct_product_group_groupoids(
    a: GroupGroupoid, b: GroupGroupoid
) -> tuple[GroupGroupoid, Morphism, Morphism]:
    """Componentwise product plus the two projections, all verified.

    Returns (product, projection onto a, projection onto b); each projection
    passes validate_gg_morphism.
    """
    for part in (a, b):
        if not check_group_groupoid(part, mode="def32").valid:
            raise InvalidInput("direct product factors must be valid group-groupoids")
    base = direct_product_groupoids(a.base, b.base, validate=False)
    product = GroupGroupoid(
        base=base,
        arrow_group=direct_product_groups(a.arrow_group, b.arrow_group),
        object_group=direct_product_groups(a.object_group, b.object_group),
    )
    _verified_gg(product)
    left = Morphism(
        source=base,
        target=a.base,
        f={pair_token(x, y): x for x in a.base.arrows for y in b.base.arrows},
        f0={pair_token(u, v): u for u in a.base.objects for v in b.base.objects},
    )
    right = Morphism(
        source=base,
        target=b.base,
        f={pair_token(x, y): y for x in a.base.arrows for y in b.base.arrows},
        f0={pair_token(u, v): v for u in a.base.objects for v in b.base.objects},
    )
    for m, factor in ((left, a), (right, b)):
        validate_gg_morphism(m, product, factor).require(
            InternalCheckFailed, "projection is not a morphism"
        )
    return product, left, right
