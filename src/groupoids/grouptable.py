"""Finite groups as explicit Cayley tables, checked exhaustively.

Elements are opaque string tokens.  Nothing here is clever: every law is
verified by brute enumeration, which is the point of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product as cartesian
from typing import Mapping

from .report import (
    DomainMismatch,
    EmptySet,
    MalformedTable,
    ReportBuilder,
    ValidationReport,
)

__all__ = [
    "GroupTable",
    "pair_token",
    "check_table_wellformed",
    "closure_report",
    "validate_group",
    "is_group_hom",
    "noncommuting_pair",
    "is_commutative",
    "element_order",
    "find_isomorphism",
    "trivial_group",
    "cyclic_group",
    "symmetric_group",
    "direct_product_groups",
]


def pair_token(left: str, right: str) -> str:
    """Deterministic identifier for an ordered pair; every product construction uses it."""
    return f"({left}|{right})"


@dataclass(frozen=True)
class GroupTable:
    """A finite group: elements, total binary operation, identity, inverse map."""

    elements: frozenset[str]
    op: Mapping[tuple[str, str], str]
    identity: str
    inverse: Mapping[str, str]

    def mul(self, first: str, *rest: str) -> str:
        """Left-to-right product of one or more elements."""
        out = first
        for x in rest:
            out = self.op[(out, x)]
        return out


def check_table_wellformed(table: GroupTable) -> None:
    """Raise MalformedTable unless op/inverse are total over the declared elements.

    A value of ``op`` outside the element set is left alone here: that is a
    closure violation for validate_group to report, not a structural error.
    """
    elements = table.elements
    if not elements:
        raise MalformedTable("a group table needs at least its identity element")
    if table.identity not in elements:
        raise MalformedTable(f"identity '{table.identity}' is not a declared element")
    expected = {(x, y) for x in elements for y in elements}
    if set(table.op) != expected:
        raise MalformedTable("op must be keyed by exactly all ordered element pairs")
    if set(table.inverse) != set(elements):
        raise MalformedTable("inverse must be keyed by exactly the elements")
    dangling = sorted(set(table.inverse.values()) - elements)
    if dangling:
        raise MalformedTable(f"inverse value '{dangling[0]}' is not a declared element")


def closure_report(table: GroupTable) -> ValidationReport:
    """One closure violation per product that is not a declared element."""
    rb = ReportBuilder()
    if not table.elements.issuperset(table.op.values()):
        for (x, y), z in table.op.items():
            if z not in table.elements:
                rb.violation("closure", (x, y, z), "product is not a declared element")
    return rb.build()


def validate_group(table: GroupTable) -> ValidationReport:
    """Exhaustive group-axiom check: closure, associativity, identity and inverse laws."""
    check_table_wellformed(table)
    rb = ReportBuilder()
    elems = sorted(table.elements)
    op = table.op
    e = table.identity
    rb.absorb(closure_report(table))
    for x, y, z in cartesian(elems, elems, elems):
        xy, yz = op[(x, y)], op[(y, z)]
        if xy not in table.elements or yz not in table.elements:
            continue  # already reported as closure violations
        if op[(xy, z)] != op[(x, yz)]:
            rb.violation(
                "associativity",
                (x, y, z),
                f"({x}.{y}).{z} = {op[(xy, z)]} but {x}.({y}.{z}) = {op[(x, yz)]}",
            )
    for x in elems:
        if op[(e, x)] != x:
            rb.violation("left-identity", (x,), f"{e}.{x} = {op[(e, x)]}")
        if op[(x, e)] != x:
            rb.violation("right-identity", (x,), f"{x}.{e} = {op[(x, e)]}")
        xb = table.inverse[x]
        if op[(xb, x)] != e:
            rb.violation("left-inverse", (x,), f"{xb}.{x} = {op[(xb, x)]}, expected {e}")
        if op[(x, xb)] != e:
            rb.violation("right-inverse", (x,), f"{x}.{xb} = {op[(x, xb)]}, expected {e}")
    return rb.build()


def is_group_hom(f: Mapping[str, str], dom: GroupTable, cod: GroupTable) -> bool:
    """True iff f respects the two operations everywhere.  Both tables must be groups."""
    if set(f) != set(dom.elements):
        raise DomainMismatch("map must be total on the domain elements")
    if not set(f.values()) <= set(cod.elements):
        raise DomainMismatch("map has values outside the codomain elements")
    return all(
        f[dom.op[(x, y)]] == cod.op[(f[x], f[y])]
        for x, y in cartesian(sorted(dom.elements), repeat=2)
    )


def noncommuting_pair(table: GroupTable) -> tuple[str, str] | None:
    """Lexicographically first pair with x.y != y.x, or None for a commutative table."""
    for x, y in cartesian(sorted(table.elements), repeat=2):
        if table.op[(x, y)] != table.op[(y, x)]:
            return (x, y)
    return None


def is_commutative(table: GroupTable) -> bool:
    return noncommuting_pair(table) is None


def element_order(table: GroupTable, x: str) -> int:
    """Order of x.  Bounded by the table size, so it terminates on broken tables too."""
    y = x
    n = 1
    while y != table.identity:
        y = table.op[(y, x)]
        n += 1
        if n > len(table.elements):
            return n  # impossible in a group; sentinel for broken input
    return n


def find_isomorphism(a: GroupTable, b: GroupTable) -> dict[str, str] | None:
    """Backtracking isomorphism search, pruned by element orders.

    Meant for small tables (isotropy groups); cost grows factorially with the
    order, so callers cap the size before asking.
    """
    if len(a.elements) != len(b.elements):
        return None
    elems_a = sorted(a.elements)
    order_a = {x: element_order(a, x) for x in elems_a}
    order_b = {y: element_order(b, y) for y in sorted(b.elements)}
    if sorted(order_a.values()) != sorted(order_b.values()):
        return None

    todo = [x for x in elems_a if x != a.identity]
    phi: dict[str, str] = {a.identity: b.identity}
    used: set[str] = {b.identity}

    def consistent(x: str, y: str) -> bool:
        # products with already-assigned elements must agree where known
        for p, q in list(phi.items()):
            px = a.op[(p, x)]
            if px in phi and phi[px] != b.op[(q, y)]:
                return False
            xp = a.op[(x, p)]
            if xp in phi and phi[xp] != b.op[(y, q)]:
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(todo):
            return all(
                phi[a.op[(x, y)]] == b.op[(phi[x], phi[y])]
                for x in elems_a
                for y in elems_a
            )
        x = todo[i]
        for y in sorted(order_b):
            if y in used or order_b[y] != order_a[x]:
                continue
            if not consistent(x, y):
                continue
            phi[x] = y
            used.add(y)
            if extend(i + 1):
                return True
            del phi[x]
            used.discard(y)
        return False

    return dict(phi) if extend(0) else None


def trivial_group(token: str = "e") -> GroupTable:
    return GroupTable(frozenset({token}), {(token, token): token}, token, {token: token})


def cyclic_group(n: int) -> GroupTable:
    """Integers mod n under addition; tokens are the decimal representatives."""
    if n < 1:
        raise EmptySet("cyclic group needs n >= 1")
    toks = [str(i) for i in range(n)]
    op = {(toks[i], toks[j]): toks[(i + j) % n] for i in range(n) for j in range(n)}
    inverse = {toks[i]: toks[(-i) % n] for i in range(n)}
    return GroupTable(frozenset(toks), op, toks[0], inverse)


def symmetric_group(n: int) -> GroupTable:
    """All permutations of 0..n-1 in one-line notation; x.y applies x first, then y."""
    if n < 1:
        raise EmptySet("symmetric group needs n >= 1")
    if n > 9:
        raise ValueError("one-line tokens only support n <= 9")
    perms = sorted(permutations(range(n)))
    tok = {p: "".join(str(i) for i in p) for p in perms}
    op = {}
    for p in perms:
        for q in perms:
            op[(tok[p], tok[q])] = tok[tuple(q[p[i]] for i in range(n))]
    inverse = {}
    for p in perms:
        pi = [0] * n
        for i, v in enumerate(p):
            pi[v] = i
        inverse[tok[p]] = tok[tuple(pi)]
    return GroupTable(frozenset(tok.values()), op, tok[tuple(range(n))], inverse)


def direct_product_groups(a: GroupTable, b: GroupTable) -> GroupTable:
    """Componentwise operation on pair tokens."""
    op = {}
    inverse = {}
    for x1 in a.elements:
        for y1 in b.elements:
            left = pair_token(x1, y1)
            inverse[left] = pair_token(a.inverse[x1], b.inverse[y1])
            for x2 in a.elements:
                for y2 in b.elements:
                    op[(left, pair_token(x2, y2))] = pair_token(
                        a.op[(x1, x2)], b.op[(y1, y2)]
                    )
    elements = frozenset(pair_token(x, y) for x in a.elements for y in b.elements)
    return GroupTable(elements, op, pair_token(a.identity, b.identity), inverse)
