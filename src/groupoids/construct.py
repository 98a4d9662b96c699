"""The standard constructions: null, single-unit, pair, and direct products.

Each shape has one builder in core (_null, _single_unit, _pair, _product).
A public constructor gates its inputs and returns what its builder makes: a
group-groupoid constructor refuses a non-group input table with InvalidGroup,
and a product refuses an invalid factor with InvalidInput.  No constructor
checks what it built; the theorem in its docstring makes it valid, and the
tests check every constructor's output in both definitions.  A group is its
one-object groupoid, so every product is _product's.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    FiniteGroupoid, Morphism, _null, _pair, _product, _single_unit, validate_groupoid,
)
from .grouptable import (
    GroupTable,
    _unchecked,
    closure_report,
    noncommuting_pair,
    pair_token,
    trivial_group,
    validate_group,
)
from .overlay import GroupGroupoid, check_group_groupoid
from .report import EmptySet, InvalidGroup, InvalidInput, NonCommutativeGroup

__all__ = [
    "null_groupoid",
    "group_as_single_unit_groupoid",
    "pair_groupoid",
    "direct_product_groupoids",
    "direct_product_groups",
    "null_group_groupoid",
    "single_unit_group_groupoid",
    "group_pair_groupoid",
    "direct_product_group_groupoids",
]


def null_groupoid(objs: Iterable[str]) -> FiniteGroupoid:
    """Only unit arrows: every object is its own arrow and composes with itself.
    Valid by definition: the one product per object is u.u = u."""
    objects = frozenset(objs)
    if not objects:
        raise EmptySet("null groupoid needs at least one object")
    return _null(objects)


def group_as_single_unit_groupoid(table: GroupTable) -> FiniteGroupoid:
    """One object (the group identity); arrows are the elements, product is the op.
    Valid by definition: its groupoid laws are the group laws the gate checks."""
    validate_group(table).require(InvalidGroup, "not a group")
    return _single_unit(table)


def pair_groupoid(objs: Iterable[str]) -> FiniteGroupoid:
    """One arrow (x|y) for every ordered pair of objects; (x|y).(y|z) = (x|z).
    Valid by definition: (x|x) is the unit at x and (y|x) the inverse of (x|y)."""
    objects = frozenset(objs)
    if not objects:
        raise EmptySet("pair groupoid needs at least one object")
    return _pair(objects)


def direct_product_groupoids(g: FiniteGroupoid, k: FiniteGroupoid) -> FiniteGroupoid:
    """The componentwise product of two valid groupoids (InvalidInput otherwise),
    valid because each law's instance in it is a pair of instances, one per factor."""
    for part in (g, k):
        if not validate_groupoid(part).valid:
            raise InvalidInput("direct product factors must be valid groupoids")
    return _product(g, k)


def direct_product_groups(a: GroupTable, b: GroupTable) -> GroupTable:
    """The product of the two one-object groupoids, read back as a table
    (InvalidInput for a factor with a product outside its elements).  Closed,
    well-formed factors give a well-formed table, so it is built unchecked;
    the group laws of group factors hold in it componentwise."""
    for part in (a, b):
        closure_report(part).require(InvalidInput, "direct product factors must be closed")
    g = _product(_single_unit(a), _single_unit(b))
    (e,) = g.unit.values()
    return _unchecked(GroupTable, elements=g.arrows, op=g.prod, identity=e, inverse=g.inv)


def null_group_groupoid(table: GroupTable) -> GroupGroupoid:
    """Null groupoid on the elements, with the group acting on arrows and objects alike.
    Valid by definition: source, target and unit are identities, and interchange
    reads u+v = u+v."""
    validate_group(table).require(InvalidGroup, "not a group")
    return GroupGroupoid(base=_null(table.elements), arrow_group=table, object_group=table)


def single_unit_group_groupoid(table: GroupTable) -> GroupGroupoid:
    """Single-unit groupoid of a commutative group, with the group on the arrows.

    Commutativity is required: for a non-commutative table the interchange law
    already fails, and the witness pair is reported in the error.  For an
    abelian one, interchange reads x+y+z+t = x+z+y+t (Eckmann–Hilton).
    """
    validate_group(table).require(InvalidGroup, "not a group")
    witness = noncommuting_pair(table)
    if witness is not None:
        raise NonCommutativeGroup(
            f"group is not commutative: {witness[0]}+{witness[1]} != "
            f"{witness[1]}+{witness[0]}",
            witness,
        )
    return GroupGroupoid(
        base=_single_unit(table),
        arrow_group=table,
        object_group=trivial_group(table.identity),
    )


def group_pair_groupoid(table: GroupTable) -> GroupGroupoid:
    """Pair groupoid on the elements with componentwise addition on the arrows.
    Valid for every group, abelian or not: source, target and unit are
    homomorphisms, and componentwise addition preserves (u|v).(v|w) = (u|w)."""
    validate_group(table).require(InvalidGroup, "not a group")
    return GroupGroupoid(
        base=_pair(table.elements),
        arrow_group=direct_product_groups(table, table),
        object_group=table,
    )


def direct_product_group_groupoids(
    a: GroupGroupoid, b: GroupGroupoid
) -> tuple[GroupGroupoid, Morphism, Morphism]:
    """Componentwise product plus the two projections.

    Returns (product, projection onto a, projection onto b) for two valid
    group-groupoids (InvalidInput otherwise).  Base, groups and laws are
    componentwise, so the product is valid and each projection is a morphism.
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
    return product, left, right
