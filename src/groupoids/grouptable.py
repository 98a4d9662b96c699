"""Finite groups as explicit Cayley tables, checked exactly.

Elements are opaque string tokens.  Every law is decided by enumeration
over the table's integer view (_rows), a row at a time in C.  Two laws are
first decided by their own loop run on a greedy generating set
(_generating_set): associativity (_unassociated) by Light's test and
additivity of a map (_nonadditive) by the homomorphism lemma.  Each is
decided by one test (_certifies), in the one fork of the generator
certificates (_on_generators): a certificate may only accept, and when it
refuses the same loop runs on every element, so reports are the same
either way.  Isomorphism is decided
from the images of a generating set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from collections import defaultdict
from functools import partial
from itertools import compress, count, permutations, product as cartesian, repeat
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .report import (
    DomainMismatch,
    EmptySet,
    InvalidGroup,
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


def _table_generators(view: _TableView, wanted: Iterable[int]) -> list[int]:
    """A generating set (_generating_set) of the members of wanted, on a
    table's integer view: a table is a one-object groupoid."""
    one = [0] * len(view.rows)
    return _generating_set(view.rows, one, one, wanted, {view.identity})


def _certifies(loop: Callable[[Iterable[int]], Iterator], generators: Iterable[int]) -> bool:
    """True when generators is not empty and loop(generators) yields nothing:
    the one test of the generator certificates.  loop is a law's own loop
    (_unassociated, _nonadditive, overlay._unshifted), whose docstring
    states the theorem that makes its run on a generating set
    (_generating_set) a proof, and when; the law hands over a generating
    set only then, and otherwise none.  A certificate may only accept."""
    return bool(generators) and next(loop(generators), None) is None


def _on_generators(loop: Callable[[Iterable[int]], Iterator], generators: Iterable[int],
                   every: Iterable[int]) -> Iterator:
    """What loop(every) yields, or nothing when the certificate on generators
    accepts (_certifies): the one fork of the generator certificates.  When
    it refuses, the loop runs on every member, so findings are the same
    either way."""
    return iter(()) if _certifies(loop, generators) else loop(every)


def _unassociated(rows: list[list], middles: Iterable[int], before: Callable[[int], Iterable],
                  after: Callable[[int], list] | None = None
                  ) -> Iterator[tuple[int, int, list | None, list, list]]:
    """(x, y, zs, (x.y).z per z, x.(y.z) per z) for each middle y and each x
    in before(y) with x.y stored, wherever the two rows differ, over the z
    in zs = after(y) (None: every z, whole rows): the one associativity
    loop.  Per middle the row of y.z is read once, then per x both sides
    are lists read in C.  _associativity runs it through the fork
    (_on_generators), Light's test on a generating set and every middle
    when that refuses; _associative_generators runs Light's test alone
    (_certifies) for a table's cached verdict.

    Theorem (Light's test; Clifford & Preston 1961, vol. I): if every stored
    product has the source of its first factor and the target of its
    second, and the loop yields nothing on middles that generate every
    arrow (_generating_set), the product is associative.  Proof: the s with
    (x.s).z == x.(s.z) for all x, z that compose with s are closed under
    composition, as for two of them a, b with a.b stored,
    (x.(a.b)).z = ((x.a).b).z = (x.a).(b.z) = x.(a.(b.z)) = x.((a.b).z),
    each product stored by the endpoint rule; so every word in the
    generators, which is every arrow, is one.
    """
    for y in middles:
        zs = None if after is None else after(y)
        yz = rows[y] if zs is None else list(map(rows[y].__getitem__, zs))
        for x in before(y):
            xy = rows[x][y]
            if xy == -1:
                continue
            left = rows[xy] if zs is None else list(map(rows[xy].__getitem__, zs))
            right = list(map(rows[x].__getitem__, yz))
            if left != right:
                yield x, y, zs, left, right


def _associative_generators(table: GroupTable) -> tuple[int, ...]:
    """A generating set of the table (_table_generators) if it is closed and
    Light's test, the associativity loop (_unassociated) on that set, proves
    it associative (_certifies), else (): decided once and cached on the
    table.  A table's product is total, so the test applies to every closed
    table."""
    if table._certified is None:
        view = _rows(table)
        every = range(len(view.rows))
        generators = (table.elements.issuperset(table.op.values())  # closed
                      and _table_generators(view, every))
        loop = partial(_unassociated, view.rows, before=lambda y: every)
        certified = _certifies(loop, generators)
        object.__setattr__(table, "_certified", tuple(generators) if certified else ())
    return table._certified


def _nonadditive(image: list[int], dom: GroupTable, cod: GroupTable
                 ) -> Iterator[tuple[int, int, int, int]]:
    """(x, y, h(x+y), h(x)+h(y)) wherever the two differ, in order, for
    every x and y, for the map h that image lists on the numbers of the two
    table views; dom must be closed, and a sum outside cod is None.  Per x,
    a row of each, read in C: the one additivity loop, run through the fork
    (_on_generators) on the generating set of dom that Light's test gave
    (_associative_generators) when both tables pass that test, else on
    every x.  A generator costs a row of each table.

    Theorem (the homomorphism lemma): if both tables are associative and
    the loop finds h(s+y) == h(s)+h(y) for every s in a set S that
    generates dom and every y, h is additive.  Proof: such s are closed
    under +, as for two of them a, b, h((a+b)+y) = h(a+(b+y)) =
    h(a)+(h(b)+h(y)) = (h(a)+h(b))+h(y) = h(a+b)+h(y), the last step by the
    rule for a at y = b.  Light's test (_associative_generators) proves both
    tables closed and associative and gives S.
    """
    rows, cod_rows = _rows(dom).rows, _rows(cod).rows

    def loop(xs: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
        for x in xs:
            images = list(map(image.__getitem__, rows[x]))
            sums = list(map(cod_rows[image[x]].__getitem__, image))
            if images != sums:
                for y in _mismatches(images, sums):
                    yield x, y, images[y], sums[y]

    generators = _associative_generators(dom)
    certified = generators and _associative_generators(cod)  # cod decided only if dom passes
    return _on_generators(loop, generators if certified else (), range(len(rows)))


def additivity_report(
    rule: str, name: str, h: Mapping[str, str], dom: GroupTable, cod: GroupTable
) -> ValidationReport:
    """One violation of rule per pair with h(x+y) != h(x)+h(y); dom must be
    closed.  Read row by row on the integer views by the additivity loop
    (_nonadditive), which the homomorphism certificate may accept first."""
    (elems, _, rows, *_), (_, number, *_) = _rows(dom), _rows(cod)
    image = [number[h[x]] for x in elems]
    rb = ReportBuilder()
    for i, j, _, _ in _nonadditive(image, dom, cod):
        x, y, s = elems[i], elems[j], elems[rows[i][j]]
        msg = f"{name}({x}+{y}) = {h[s]} but {name}({x})+{name}({y}) = {cod.op[(h[x], h[y])]}"
        rb.violation(rule, (x, y), msg)
    return rb.build()


def _associativity(rb: ReportBuilder, rule: str, names: list[str], rows: list[list],
                   generators: Iterable[int], before: Callable[[int], Iterable],
                   after: Callable[[int], list] | None = None) -> None:
    """Report (x.y).z != x.(y.z) under rule for every middle y, x in before(y)
    with x.y stored and z in after(y) (every z if after is None), skipping a
    product that is not stored (-1): the associativity loop (_unassociated)
    through the fork (_on_generators), Light's test on generators and every
    middle when it refuses or generators is empty, as validate_group and
    validate_groupoid run it.  Light's theorem needs every stored product
    to have the source of its first factor and the target of its second,
    so a caller hands over generators only then.  Only rows that differ
    reach Python, which is no shortcut: equal rows hold no violation."""
    loop = partial(_unassociated, rows, before=before, after=after)
    for x, y, zs, left, right in _on_generators(loop, generators, range(len(rows))):
        for j in _mismatches(left, right):
            if left[j] != -1 and right[j] != -1:
                x_, y_, z_ = names[x], names[y], names[j if zs is None else zs[j]]
                rb.violation(rule, (x_, y_, z_), f"({x_}.{y_}).{z_} = {names[left[j]]} "
                             f"but {x_}.({y_}.{z_}) = {names[right[j]]}")


def validate_group(table: GroupTable) -> ValidationReport:
    """Group-axiom check: closure, associativity, identity and inverse laws.

    A product outside the element set is reported as closure, and
    associativity, which would compose it further, is then skipped.
    Associativity is read off the table's cached verdict
    (_associative_generators), which Light's test decides; when it refuses,
    the loop that validate_groupoid runs for G1-assoc (_associativity)
    enumerates every middle on the integer view, m^2 rows compared in C.
    """
    rb = ReportBuilder()
    elems, _, rows, *_ = _rows(table)
    op = table.op
    e = table.identity
    if closure_gate(rb, "associativity", {"": table}) and not _associative_generators(table):
        every = range(len(elems))
        _associativity(rb, "associativity", elems, rows, (), lambda y: every)
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


def _require_closed(*tables: GroupTable) -> None:
    """Raise InvalidGroup, naming the first closure violation, unless every
    table is closed: a product outside the elements has no number to map."""
    for table in tables:
        closure_report(table).require(InvalidGroup, "not a group")


def is_group_hom(f: Mapping[str, str], dom: GroupTable, cod: GroupTable) -> bool:
    """True iff f respects the two operations everywhere.  Both tables must be
    groups; one with a product outside its elements raises InvalidGroup."""
    _require_closed(dom, cod)
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
    """An isomorphism from a to b, or None if there is none.  Both must be
    groups; one with a product outside its elements raises InvalidGroup.

    Theorem: for any map phi, the s with phi(x+s) == phi(x)+phi(s) for all x
    are closed under +, as phi(x+(s+t)) = phi(x+s)+phi(t) =
    phi(x)+phi(s)+phi(t) = phi(x)+phi(s+t).  So a map obeying the rule on a
    generating set is a homomorphism, fixed by the generators' images.  The
    search chooses the image of each member of a's greedy generating set S
    (_table_generators) in turn, among b's elements of the same order,
    spreads phi(x+s) = phi(x)+phi(s) from the identity, and drops a branch
    once phi is not a well-defined injection: at most m^(log2 m + 1)
    candidates, as |S| <= log2(m) + 1, each spread in m |S| steps (Miller
    1978).  The map returned is checked on all m^2 products.
    """
    _require_closed(a, b)
    if len(a.elements) != len(b.elements):
        return None
    order_a = {x: element_order(a, x) for x in a.elements}
    order_b = {y: element_order(b, y) for y in b.elements}
    if sorted(order_a.values()) != sorted(order_b.values()):
        return None
    (elems_a, _, rows_a, _, e_a), (elems_b, _, rows_b, _, e_b) = _rows(a), _rows(b)
    generators = _table_generators(_rows(a), range(len(rows_a)))
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

