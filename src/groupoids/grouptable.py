"""Finite groups as explicit Cayley tables, checked exactly.

Elements are opaque string tokens.  Every law is decided by brute
enumeration, which is the point of the package; the one shortcut, Light's
associativity test, may only accept, and any failure of it runs the full
enumeration, so reports are the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product as cartesian
from typing import Iterable, Mapping

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
    "pair_token_table",
    "check_table_wellformed",
    "closure_report",
    "skip_past_closure",
    "closure_gate",
    "additivity_report",
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


def pair_token_table(left: Iterable[str], right: Iterable[str]) -> dict[str, dict[str, str]]:
    """table[x][y] == pair_token(x, y), each string made once for every product entry."""
    right = tuple(right)
    return {x: {y: pair_token(x, y) for y in right} for x in left}


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
    # m*m distinct keys, each a pair of elements, are exactly all m*m pairs
    if len(table.op) != len(elements) ** 2 or not all(
        isinstance(k, tuple) and len(k) == 2 and k[0] in elements and k[1] in elements
        for k in table.op
    ):
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


def skip_past_closure(rb: ReportBuilder, rule: str) -> None:
    """Note rule as skipped: it would compose a product outside the element set."""
    rb.note(rule, "skipped", "a group table has a product outside its element set")


def closure_gate(rb: ReportBuilder, rule: str, tables: Mapping[str, GroupTable]) -> bool:
    """Report each table's closure violations under its prefix; if any, skip rule."""
    closed = True
    for prefix, table in tables.items():
        report = closure_report(table)
        rb.absorb(report, prefix=prefix)
        closed = closed and report.valid
    if not closed:
        skip_past_closure(rb, rule)
    return closed


def additivity_report(
    rule: str, name: str, h: Mapping[str, str], dom: GroupTable, cod: GroupTable
) -> ValidationReport:
    """One violation of rule per pair with h(x+y) != h(x)+h(y); dom must be closed."""
    rb = ReportBuilder()
    for (x, y), s in dom.op.items():
        lhs, rhs = h[s], cod.op[(h[x], h[y])]
        if lhs != rhs:
            msg = f"{name}({x}+{y}) = {lhs} but {name}({x})+{name}({y}) = {rhs}"
            rb.violation(rule, (x, y), msg)
    return rb.build()


def _associativity_certificate(table: GroupTable) -> bool:
    """Light's test: True only if the closed table is associative.

    Theorem (Light's test; Clifford & Preston 1961, vol. I): if S generates the
    table's magma and (x+s)+y == x+(s+y) for all x, y and every s in S, the
    operation is associative.  Proof: the set T of such s is closed under
    the product, since for a, b in T
    (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y) = x+(a+(b+y)) = x+((a+b)+y),
    so T holds the whole magma generated by S.

    S is grown greedily over the sorted elements; its span is closed under
    right addition of the generators, so every element of it is a product
    of generators.  In a group each new generator at least doubles the span
    (the old span is a subgroup, the new one a union of its cosets), so a
    smaller step proves the table is not a group and the test gives up, as
    it does on any failed check: False proves nothing, and the caller then
    enumerates every triple.  |S| <= log2(m) + 1, so the check costs m^2 |S|
    lookups.  The table must be closed.
    """
    elems = sorted(table.elements)
    index = {x: i for i, x in enumerate(elems)}
    rows = [[index[table.op[(x, y)]] for y in elems] for x in elems]
    generators: list[int] = []
    span: set[int] = set()
    for g in range(len(elems)):
        if g in span:
            continue
        generators.append(g)
        before, span, todo = len(span), set(generators), list(generators)
        while todo:
            row = rows[todo.pop()]
            for s in generators:
                if row[s] not in span:
                    span.add(row[s])
                    todo.append(row[s])
        if len(span) < 2 * before:
            return False
    for s in generators:
        s_row = rows[s]
        # the row of x+s against x+(s+y), over every y at once
        for row in rows:
            if rows[row[s]] != list(map(row.__getitem__, s_row)):
                return False
    return True


def validate_group(table: GroupTable) -> ValidationReport:
    """Group-axiom check: closure, associativity, identity and inverse laws.

    A product outside the element set is reported as closure, and
    associativity, which would compose it further, is then skipped.
    Associativity is enumerated over all triples unless Light's test
    (_associativity_certificate) proves it first.
    """
    check_table_wellformed(table)
    rb = ReportBuilder()
    elems = sorted(table.elements)
    op = table.op
    e = table.identity
    if closure_gate(rb, "associativity", {"": table}) and not _associativity_certificate(table):
        for x, y, z in cartesian(elems, elems, elems):
            xy, yz = op[(x, y)], op[(y, z)]
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
    return additivity_report("hom", "f", f, dom, cod).valid


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
    def tokens(t: GroupTable) -> frozenset[str]:
        # any table is accepted here, so its values may lie outside its elements
        return t.elements.union(t.op.values(), t.inverse.values(), (t.identity,))

    tok = pair_token_table(tokens(a), tokens(b))
    op = {}
    inverse = {}
    for x1 in a.elements:
        row1 = tok[x1]
        for y1 in b.elements:
            left = row1[y1]
            inverse[left] = tok[a.inverse[x1]][b.inverse[y1]]
            for x2 in a.elements:
                row2 = tok[x2]
                row12 = tok[a.op[(x1, x2)]]
                for y2 in b.elements:
                    op[(left, row2[y2])] = row12[b.op[(y1, y2)]]
    elements = frozenset(tok[x][y] for x in a.elements for y in b.elements)
    return GroupTable(elements, op, tok[a.identity][b.identity], inverse)
