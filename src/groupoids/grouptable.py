"""Finite groups as explicit Cayley tables, checked exactly.

Elements are opaque string tokens.  Every law is decided by enumeration
over the table's integer view (_rows), a row at a time in C.  Two laws
closed under the operation are first checked on a greedy generating set
(_generating_set): associativity by Light's test and additivity of a map by
the homomorphism lemma.  Such a certificate may only accept, and when it
refuses the full enumeration runs, so reports are the same either way.
Isomorphism is decided from the images of a generating set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from collections import defaultdict
from itertools import compress, count, permutations, product as cartesian, repeat
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .report import (
    DomainMismatch,
    EmptySet,
    MalformedTable,
    ReportBuilder,
    ValidationReport,
)

__all__ = [
    "GroupTable",
    "is_identifier",
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
]


_ATOMS = re.compile(r"[^()|]+")


def is_identifier(tok: str) -> bool:
    """Writable to a structure file: non-empty, with no whitespace, '#', '=' or
    '.', and of the form T ::= atom | (T|T), where an atom has none of '(', '|'
    and ')'.  Pair tokens of identifiers are then identifiers, and pair_token
    is injective on identifiers."""
    if tok.split() != [tok] or "#" in tok or "=" in tok or "." in tok:
        return False
    if "(" not in tok and "|" not in tok and ")" not in tok:
        return True
    # with each atom written a, an innermost pair is (a|a) and becomes a term
    term = _ATOMS.sub("a", tok)
    while "(a|a)" in term:
        term = term.replace("(a|a)", "a")
    return term == "a"


def pair_token(left: str, right: str) -> str:
    """Deterministic identifier for an ordered pair; every product construction uses it."""
    return f"({left}|{right})"


def pair_token_table(left: Iterable[str], right: Iterable[str]) -> dict[str, dict[str, str]]:
    """table[x][y] == pair_token(x, y), each string made once for every product entry."""
    right = tuple(right)
    return {x: {y: pair_token(x, y) for y in right} for x in left}


def _unchecked(cls, **values):
    """The frozen dataclass cls built without its shape check, for a value well
    formed by its construction: sets the fields in declaration order, as
    __init__ does, and never writes through __dict__."""
    obj = cls.__new__(cls)
    for field in fields(cls):
        object.__setattr__(obj, field.name, values[field.name])
    return obj


@dataclass(frozen=True)
class GroupTable:
    """A finite group: elements, total binary operation, identity, inverse map.

    Construction runs check_table_wellformed; the maps must not be mutated
    afterwards.  Whether the group laws hold is validate_group's business.
    """

    elements: frozenset[str]
    op: Mapping[tuple[str, str], str]
    identity: str
    inverse: Mapping[str, str]

    # set by _rows and _associative_generators; class attributes, not fields, as
    # FiniteGroupoid._fibers
    _view = None
    _certified = None

    def __post_init__(self) -> None:
        check_table_wellformed(self)

    def mul(self, first: str, *rest: str) -> str:
        """Left-to-right product of one or more elements."""
        out = first
        for x in rest:
            out = self.op[(out, x)]
        return out


def check_table_wellformed(table: GroupTable) -> None:
    """Raise MalformedTable unless op/inverse are total over declared identifiers.

    A value of ``op`` outside the element set is left alone here: that is a
    closure violation for validate_group to report, not a structural error.
    """
    elements = table.elements
    if not elements:
        raise MalformedTable("a group table needs at least its identity element")
    bad = sorted(tok for tok in elements if not is_identifier(tok))
    if bad:
        raise MalformedTable(f"bad identifier {bad[0]!r}")
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


class _TableView(NamedTuple):
    """A table numbered in sorted token order: element i is elements[i],
    number[elements[i]] == i; rows[i][j], the number of
    elements[i]+elements[j] or None for a product outside the elements;
    inverse[i], the number of -elements[i]; identity, the identity's number."""

    elements: list[str]
    number: dict[str, int]
    rows: list[list]
    inverse: list[int]
    identity: int


def _rows(table: GroupTable) -> _TableView:
    """The table's integer view, built on first use and cached on it."""
    if table._view is None:
        elems = sorted(table.elements)
        number = {x: i for i, x in enumerate(elems)}
        get = table.op.__getitem__
        rows = [list(map(number.get, map(get, zip(repeat(x), elems)))) for x in elems]
        inverse = [number[table.inverse[x]] for x in elems]
        object.__setattr__(table, "_view", _TableView(elems, number, rows, inverse,
                                                      number[table.identity]))
    return table._view


def _mismatches(lhs: Iterable, rhs: Iterable) -> Iterator[int]:
    """The positions where two equally long rows differ."""
    return compress(count(), map(ne, lhs, rhs))


def _generating_set(rows: list[list], src: list[int], tgt: list[int], wanted: Iterable[int],
                    units: set[int]) -> list[int]:
    """A greedy set S such that every member of wanted is a composable word
    s1.s2...sk in S, under the product of these index rows; x.y is
    composable iff tgt[x] == src[y] (a table: every src and tgt 0), and must
    be stored, with the target of y.

    Over wanted, units last, each member not yet in the span becomes a
    generator; the span holds S and is closed under right composition with
    every generator.  Each arrow joins it once and meets the generators
    leaving its target, each new generator the span entering its source:
    O(A |S|) steps.  In a group the span of non-identity generators is a
    subgroup, which each new one at least doubles (a union of cosets), so
    |S| <= log2(m), or S is the identity alone: |S| <= log2(m) + 1.
    """
    generators: list[int] = []
    span: set[int] = set()
    leaving: dict[int, list[int]] = defaultdict(list)  # object -> generators with that source
    entering: dict[int, list[int]] = defaultdict(list)  # object -> span members with that target
    for g in sorted(wanted, key=units.__contains__):
        if g in span:
            continue
        generators.append(g)
        leaving[src[g]].append(g)
        todo = [g, *map(itemgetter(g), map(rows.__getitem__, entering[src[g]]))]
        while todo:
            w = todo.pop()
            if w not in span:
                span.add(w)
                entering[tgt[w]].append(w)
                todo += map(rows[w].__getitem__, leaving[tgt[w]])
    return generators


def _light_test(rows: list[list], generators: Iterable[int], before: Callable[[int], Iterable],
                after: Callable[[int], list | None]) -> bool:
    """Light's test: True only if the partial product of these index rows is
    associative, given generators of every arrow (_generating_set).
    before(s) gives the x and after(s) the z that compose with s (None:
    every z, whole rows).

    Theorem (Light's test; Clifford & Preston 1961, vol. I): if every stored
    product has the source of its first factor and the target of its
    second, and (x.s).z == x.(s.z) for every generator s and all x, z that
    compose with it, the product is associative.  Proof: such s are closed
    under composition, as for two of them a, b with a.b stored,
    (x.(a.b)).z = ((x.a).b).z = (x.a).(b.z) = x.(a.(b.z)) = x.((a.b).z),
    each product stored by the endpoint rule; so every word in the
    generators, which is every arrow, is one.  A group is its one-object
    groupoid: validate_group and validate_groupoid both run this.

    False proves nothing: the caller then enumerates every triple.  Costs a
    row of the z per generator s and x in before(s), read in C, never more
    rows than the enumeration's one per composable pair.
    """
    for s in generators:
        zs, sz = after(s), rows[s]  # s.z per z
        if zs is not None:
            sz = list(map(sz.__getitem__, zs))
        for x in before(s):
            left = rows[rows[x][s]]  # (x.s).z per z
            if zs is not None:
                left = list(map(left.__getitem__, zs))
            if left != list(map(rows[x].__getitem__, sz)):
                return False
    return True


def _associative_generators(table: GroupTable) -> tuple[int, ...]:
    """A generating set of the table (_generating_set) if Light's test proves
    it closed and associative, else (): decided once and cached on the table,
    for validate_group and the certificates that need an associative table."""
    if table._certified is None:
        view = _rows(table)
        rows, every = view.rows, range(len(view.rows))
        one = [0] * len(rows)  # a table is a one-object groupoid
        generators = (table.elements.issuperset(table.op.values())  # closed
                      and _generating_set(rows, one, one, every, {view.identity}))
        certified = generators and _light_test(rows, generators, lambda s: every, lambda s: None)
        object.__setattr__(table, "_certified", tuple(generators) if certified else ())
    return table._certified


def _additive_on_generators(image: list[int], dom: GroupTable, cod: GroupTable) -> bool:
    """True only if the map h that image lists, on the numbers of the two
    table views, is additive: h(x+y) == h(x)+h(y) for all x, y.

    Theorem (the homomorphism lemma): if both tables are associative and
    h(x+s) == h(x)+h(s) for every x and every s in a set S that generates
    dom, h is additive.  Proof: such s are closed under +, as for two of
    them a, b, h(x+(a+b)) = h((x+a)+b) = h(x+a)+h(b) = (h(x)+h(a))+h(b) =
    h(x)+(h(a)+h(b)) = h(x)+h(a+b).  Light's test (_associative_generators)
    proves both tables closed and associative and gives S.

    False proves nothing: the caller then enumerates every pair
    (_nonadditive).  Costs a column of m per generator, read in C.
    """
    generators = _associative_generators(dom)
    if not generators or not _associative_generators(cod):
        return False
    rows, cod_rows = _rows(dom).rows, _rows(cod).rows
    return all(
        list(map(image.__getitem__, map(itemgetter(s), rows)))  # h(x+s) over x
        == list(map(itemgetter(image[s]), map(cod_rows.__getitem__, image)))  # h(x)+h(s)
        for s in generators
    )


def _nonadditive(image: list[int], dom: GroupTable, cod: GroupTable
                 ) -> Iterator[tuple[int, int, int, int]]:
    """(x, y, h(x+y), h(x)+h(y)) wherever the two differ, in order, for the
    map h that image lists on the numbers of the two table views; dom must be
    closed, and a sum outside cod is None.  Per x, a row of each, read in C:
    the enumeration behind _additive_on_generators."""
    rows, cod_rows = _rows(dom).rows, _rows(cod).rows
    for x, row in enumerate(rows):
        images = list(map(image.__getitem__, row))
        sums = list(map(cod_rows[image[x]].__getitem__, image))
        for y in _mismatches(images, sums):
            yield x, y, images[y], sums[y]


def additivity_report(
    rule: str, name: str, h: Mapping[str, str], dom: GroupTable, cod: GroupTable
) -> ValidationReport:
    """One violation of rule per pair with h(x+y) != h(x)+h(y); dom must be
    closed.  Accepted by the homomorphism certificate (_additive_on_generators)
    or enumerated row by row on the integer views (_nonadditive)."""
    (elems, _, rows, *_), (_, number, *_) = _rows(dom), _rows(cod)
    image = [number[h[x]] for x in elems]
    rb = ReportBuilder()
    if not _additive_on_generators(image, dom, cod):
        for i, j, _, _ in _nonadditive(image, dom, cod):
            x, y, s = elems[i], elems[j], elems[rows[i][j]]
            msg = f"{name}({x}+{y}) = {h[s]} but {name}({x})+{name}({y}) = {cod.op[(h[x], h[y])]}"
            rb.violation(rule, (x, y), msg)
    return rb.build()


def _regrouped(rows: list[list], x: int, y: int, zs: list | None = None) -> tuple[list, list]:
    """(x.y).z and x.(y.z) for the z in zs, or for every z (whole rows), as two
    lists read in C: they are equal iff x, y associate with each such z."""
    if zs is None:
        return rows[rows[x][y]], list(map(rows[x].__getitem__, rows[y]))
    return (list(map(rows[rows[x][y]].__getitem__, zs)),
            list(map(rows[x].__getitem__, map(rows[y].__getitem__, zs))))


def _associativity(rb: ReportBuilder, rule: str, names: list[str], rows: list[list],
                   pairs: Iterable, after: Callable[[int], list] | None = None) -> None:
    """Report (x.y).z != x.(y.z) under rule for every (x, y) in pairs, whose
    product is stored, and every z in after(y) (every z if after is None),
    skipping a missing product (-1): the one associativity loop, run by
    validate_group and validate_groupoid on their integer views.  Per pair
    both sides are lists read in C (_regrouped), and only their differing
    positions reach Python, which is no shortcut: equal lists hold no violation."""
    for x, y in pairs:
        zs = None if after is None else after(y)
        left, right = _regrouped(rows, x, y, zs)
        if left != right:
            for j in _mismatches(left, right):
                if left[j] != -1 and right[j] != -1:
                    x_, y_, z_ = names[x], names[y], names[j if zs is None else zs[j]]
                    rb.violation(rule, (x_, y_, z_), f"({x_}.{y_}).{z_} = {names[left[j]]} "
                                 f"but {x_}.({y_}.{z_}) = {names[right[j]]}")


def validate_group(table: GroupTable) -> ValidationReport:
    """Group-axiom check: closure, associativity, identity and inverse laws.

    A product outside the element set is reported as closure, and
    associativity, which would compose it further, is then skipped.
    Associativity is enumerated on the integer view, m^2 rows compared in C,
    by the loop that validate_groupoid runs for G1-assoc (_associativity),
    unless Light's test proves it first (_associative_generators).
    """
    rb = ReportBuilder()
    elems, _, rows, *_ = _rows(table)
    op = table.op
    e = table.identity
    if closure_gate(rb, "associativity", {"": table}) and not _associative_generators(table):
        every = range(len(elems))
        _associativity(rb, "associativity", elems, rows, cartesian(every, every))
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
        y = table.op.get((y, x))
        n += 1
        if n > len(table.elements):
            return n  # impossible in a group; sentinel for broken input
    return n


def find_isomorphism(a: GroupTable, b: GroupTable) -> dict[str, str] | None:
    """An isomorphism from a to b, or None if there is none.  Both must be groups.

    Theorem: for any map phi, the s with phi(x+s) == phi(x)+phi(s) for all x
    are closed under +, as phi(x+(s+t)) = phi(x+s)+phi(t) =
    phi(x)+phi(s)+phi(t) = phi(x)+phi(s+t).  So a map obeying the rule on a
    generating set is a homomorphism, fixed by the generators' images.  The
    search chooses the image of each member of a's greedy generating set S
    (_generating_set) in turn, among b's elements of the same order,
    spreads phi(x+s) = phi(x)+phi(s) from the identity, and drops a branch
    once phi is not a well-defined injection: at most m^(log2 m + 1)
    candidates, as |S| <= log2(m) + 1, each spread in m |S| steps (Miller
    1978).  The map returned is checked on all m^2 products.
    """
    if len(a.elements) != len(b.elements):
        return None
    order_a = {x: element_order(a, x) for x in a.elements}
    order_b = {y: element_order(b, y) for y in b.elements}
    if sorted(order_a.values()) != sorted(order_b.values()):
        return None
    (elems_a, _, rows_a, _, e_a), (elems_b, _, rows_b, _, e_b) = _rows(a), _rows(b)
    one = [0] * len(rows_a)  # a table is a one-object groupoid
    generators = _generating_set(rows_a, one, one, range(len(rows_a)), {e_a})
    if len(generators) > len(elems_a).bit_length():  # more than a group needs
        generators = []  # a is not a group: phi stays short
    choices = [[j for j, y in enumerate(elems_b) if order_b[y] == order_a[elems_a[g]]]
               for g in generators]

    def search(images: list[int]) -> dict[int, int] | None:
        # phi on the span of the generators imaged so far, then the next image
        phi, reached, used = {e_a: e_b}, [e_a], {e_b}
        for x in reached:
            for s, t in zip(generators, images):
                xs, y = rows_a[x][s], rows_b[phi[x]][t]
                if xs not in phi and y not in used:
                    phi[xs] = y
                    used.add(y)
                    reached.append(xs)
                elif phi.get(xs) != y:
                    return None
        if len(images) == len(generators):
            return phi
        return next(filter(None, (search(images + [t]) for t in choices[len(images)])), None)

    f = {elems_a[i]: elems_b[j] for i, j in (search([]) or {}).items()}
    return f if len(f) == len(elems_a) and is_group_hom(f, a, b) else None


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

