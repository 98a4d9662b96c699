"""The standard constructions: null, single-unit, pair, and direct products.

Each shape has one unchecked builder (_null, _single_unit, _pair, _product).
A public constructor checks its inputs, builds, and checks only the structure
it returns, once: validate_groupoid for a groupoid, check_group_groupoid in
mode def32 (which validates the base) for a group-groupoid.  Tests
cross-check def31.
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
    pair_token_table,
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


def null_groupoid(objs: Iterable[str]) -> FiniteGroupoid:
    """Only unit arrows: every object is its own arrow and composes with itself."""
    objects = frozenset(objs)
    if not objects:
        raise EmptySet("null groupoid needs at least one object")
    return _verified(_null(objects))


def _single_unit(table: GroupTable) -> FiniteGroupoid:
    e = table.identity
    const = {x: e for x in table.elements}
    return FiniteGroupoid(
        objects=frozenset({e}),
        arrows=table.elements,
        src=const,
        tgt=dict(const),
        unit={e: e},
        inv=dict(table.inverse),
        prod=dict(table.op),
    )


def group_as_single_unit_groupoid(table: GroupTable) -> FiniteGroupoid:
    """One object (the group identity); arrows are the elements, product is the op."""
    _require_group(table)
    return _verified(_single_unit(table))


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


def pair_groupoid(objs: Iterable[str]) -> FiniteGroupoid:
    """One arrow (x|y) for every ordered pair of objects; (x|y).(y|z) = (x|z)."""
    objects = frozenset(objs)
    if not objects:
        raise EmptySet("pair groupoid needs at least one object")
    return _verified(_pair(objects))


def _product(g: FiniteGroupoid, k: FiniteGroupoid) -> FiniteGroupoid:
    """Componentwise structure on pair tokens; pairs compose iff both components do.

    The factors must be well formed (core.check_wellformed), not valid: def31
    builds the product of a structure it has yet to decide.
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
    return FiniteGroupoid(
        objects=frozenset(unit),
        arrows=frozenset(src),
        src=src,
        tgt=tgt,
        unit=unit,
        inv=inv,
        prod=prod,
    )


def direct_product_groupoids(g: FiniteGroupoid, k: FiniteGroupoid) -> FiniteGroupoid:
    """The componentwise product of two valid groupoids (InvalidInput otherwise)."""
    for part in (g, k):
        if not validate_groupoid(part).valid:
            raise InvalidInput("direct product factors must be valid groupoids")
    return _verified(_product(g, k))


def null_group_groupoid(table: GroupTable) -> GroupGroupoid:
    """Null groupoid on the elements, with the group acting on arrows and objects alike."""
    _require_group(table)
    return _verified_gg(
        GroupGroupoid(
            base=_null(table.elements),
            arrow_group=table,
            object_group=table,
        )
    )


def single_unit_group_groupoid(table: GroupTable) -> GroupGroupoid:
    """Single-unit groupoid of a commutative group, with the group on the arrows.

    Commutativity is required: for a non-commutative table the interchange law
    already fails, and the witness pair is reported in the error.
    """
    _require_group(table)
    witness = noncommuting_pair(table)
    if witness is not None:
        raise NonCommutativeGroup(
            f"group is not commutative: {witness[0]}+{witness[1]} != "
            f"{witness[1]}+{witness[0]}",
            witness,
        )
    return _verified_gg(
        GroupGroupoid(
            base=_single_unit(table),
            arrow_group=table,
            object_group=trivial_group(table.identity),
        )
    )


def group_pair_groupoid(table: GroupTable) -> GroupGroupoid:
    """Pair groupoid on the elements with componentwise addition on the arrows."""
    _require_group(table)
    return _verified_gg(
        GroupGroupoid(
            base=_pair(table.elements),
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
    base = _product(a.base, b.base)
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
