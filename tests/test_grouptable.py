import math
import random
import re
from functools import reduce
from itertools import permutations, product

import pytest

from groupoids import (
    EmptySet,
    GroupTable,
    InvalidGroup,
    MalformedTable,
    cyclic_group,
    direct_product_groups,
    element_order,
    find_isomorphism,
    is_commutative,
    is_group_hom,
    noncommuting_pair,
    pair_token,
    symmetric_group,
    trivial_group,
    validate_group,
    validate_groupoid,
)
from conftest import sums
from groupoids.core import _single_unit
from groupoids.grouptable import (
    _associative_generators, _rows, _table_generators, additivity_report, is_identifier,
)


def test_pair_token():
    assert pair_token("a", "b") == "(a|b)"
    # pair tokens of identifiers are identifiers, distinct for distinct pairs
    atoms = ["a", "b", "0", "t0001"]
    terms = atoms + [pair_token(x, y) for x in atoms for y in atoms]
    pairs = {pair_token(x, y): (x, y) for x in terms for y in terms}
    assert len(pairs) == len(terms) ** 2
    assert all(is_identifier(tok) for tok in pairs)


def test_trivial_group():
    t = trivial_group()
    assert t.elements == frozenset({"e"})
    assert validate_group(t).valid


def test_cyclic_group_table():
    z4 = cyclic_group(4)
    assert sorted(z4.elements) == ["0", "1", "2", "3"]
    assert z4.identity == "0"
    assert z4.mul("1", "3") == "0"
    assert z4.mul("3", "3") == "2"
    assert z4.inverse["1"] == "3"
    assert validate_group(z4).valid


def test_mul_chains():
    z4 = cyclic_group(4)
    assert z4.mul("1", "1", "1", "1") == "0"
    assert z4.mul("2") == "2"


def test_symmetric_group_composition_order():
    # one-line notation; mul(p, q) applies p first, then q
    s3 = symmetric_group(3)
    assert len(s3.elements) == 6
    assert s3.identity == "012"
    assert s3.mul("021", "102") == "120"
    assert s3.mul("102", "021") == "201"
    assert validate_group(s3).valid


def test_symmetric_group_size_cap():
    with pytest.raises(ValueError):
        symmetric_group(10)


def test_commutativity_witness():
    s3 = symmetric_group(3)
    assert not is_commutative(s3)
    assert noncommuting_pair(s3) == ("021", "102")
    assert is_commutative(cyclic_group(5))
    assert noncommuting_pair(cyclic_group(5)) is None


def test_element_order():
    z4 = cyclic_group(4)
    assert element_order(z4, "0") == 1
    assert element_order(z4, "1") == 4
    assert element_order(z4, "2") == 2
    z3 = cyclic_group(3)
    broken = GroupTable(z3.elements, {**z3.op, ("1", "1"): "zz"}, z3.identity, z3.inverse)
    assert element_order(broken, "1") == len(z3.elements) + 1  # the broken-table sentinel


def test_direct_product():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    p = direct_product_groups(z2, z3)
    assert len(p.elements) == 6
    assert p.identity == "(0|0)"
    assert p.mul("(1|2)", "(1|1)") == "(0|0)"
    assert validate_group(p).valid


def test_is_group_hom():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    mod2 = {"0": "0", "1": "1", "2": "0", "3": "1"}
    assert is_group_hom(mod2, z4, z2)
    collapse = {x: "0" for x in z4.elements}
    assert is_group_hom(collapse, z4, z2)
    swap = {"0": "1", "1": "0", "2": "0", "3": "1"}
    assert not is_group_hom(swap, z4, z2)


def table_of(elements, mul) -> GroupTable:
    """The group of mul on tuples, each written as the string of its entries."""
    tok = {x: "".join(map(str, x)) for x in elements}
    identity = next(x for x in elements if all(mul(x, y) == y for y in elements))
    return GroupTable(
        frozenset(tok.values()),
        {(tok[x], tok[y]): tok[mul(x, y)] for x in elements for y in elements},
        tok[identity],
        {tok[x]: tok[y] for x in elements for y in elements if mul(x, y) == identity},
    )


def heisenberg3() -> GroupTable:
    """Upper unitriangular 3x3 matrices mod 3: exponent 3 like Z_3^3, not abelian."""
    def mul(x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)
    return table_of(list(product(range(3), repeat=3)), mul)


def quaternion8() -> GroupTable:
    """Q_8 as (sign, unit) pairs with i.j = k, j.k = i, k.i = j."""
    cycle = "ijk"

    def mul(x, y):
        (s, u), (t, v) = x, y
        if u == "1" or v == "1":
            return (s * t, v if u == "1" else u)
        if u == v:
            return (-s * t, "1")
        w = next(c for c in cycle if c not in (u, v))
        return (s * t * (1 if cycle.index(v) == (cycle.index(u) + 1) % 3 else -1), w)
    return table_of([(s, u) for s in (1, -1) for u in "1ijk"], mul)


def relabelled(table: GroupTable, seed: int) -> GroupTable:
    """The same group on the tokens t0, t1, ..., assigned by a seeded shuffle."""
    elems = sorted(table.elements)
    names = [f"t{i}" for i in range(len(elems))]
    random.Random(seed).shuffle(names)
    r = dict(zip(elems, names))
    return GroupTable(
        frozenset(names),
        {(r[x], r[y]): r[z] for (x, y), z in table.op.items()},
        r[table.identity],
        {r[x]: r[y] for x, y in table.inverse.items()},
    )


def brute_force_isomorphic(a: GroupTable, b: GroupTable) -> bool:
    """The reference: some bijection of the elements respects the operations."""
    elems = sorted(a.elements)
    return len(a.elements) == len(b.elements) and any(
        is_group_hom(dict(zip(elems, image)), a, b) for image in permutations(sorted(b.elements))
    )


Z = cyclic_group
SMALL_GROUPS = {  # the package's groups and their products, up to order 6
    "1": trivial_group(), "Z1": Z(1), "Z2": Z(2), "S2": symmetric_group(2), "Z3": Z(3),
    "Z4": Z(4), "Z2xZ2": direct_product_groups(Z(2), Z(2)), "Z5": Z(5), "Z6": Z(6),
    "S3": symmetric_group(3), "Z2xZ3": direct_product_groups(Z(2), Z(3)),
    "Z3xZ2": direct_product_groups(Z(3), Z(2)),
}
CLASS = {"1": "1", "Z1": "1", "S2": "Z2", "Z2xZ3": "Z6", "Z3xZ2": "Z6"}
SMALL_PAIRS = [
    (x, y) for x, a in SMALL_GROUPS.items() for y, b in SMALL_GROUPS.items()
    if len(a.elements) == len(b.elements)
]
LARGER_GROUPS = {
    "S4": symmetric_group(4),
    "Z2^6": reduce(direct_product_groups, [Z(2)] * 6),
    "S3xS3": direct_product_groups(symmetric_group(3), symmetric_group(3)),
    "Heis3": heisenberg3(),
    "Z3^3": reduce(direct_product_groups, [Z(3)] * 3),
    "Z4xZ4": direct_product_groups(Z(4), Z(4)),
    "Z2xQ8": direct_product_groups(Z(2), quaternion8()),
}
HARD_PAIRS = [("Z3^3", "Heis3"), ("Z4xZ4", "Z2xQ8")]  # equal order statistics


@pytest.mark.parametrize(
    "a, b",
    [pytest.param(SMALL_GROUPS[x], SMALL_GROUPS[y], id=f"{x}-{y}")
     for x, y in SMALL_PAIRS if CLASS.get(x, x) == CLASS.get(y, y)]
    + [pytest.param(g, relabelled(g, seed), id=f"{x}-relabelled-{seed}")
       for x, g in LARGER_GROUPS.items() if x in ("S4", "Z2^6", "S3xS3", "Heis3")
       for seed in (1, 2)],
)
def test_find_isomorphism_positive(a, b):
    f = find_isomorphism(a, b)
    assert f is not None
    assert is_group_hom(f, a, b)
    assert sorted(f.values()) == sorted(b.elements)
    if len(a.elements) <= 6:
        assert brute_force_isomorphic(a, b)


@pytest.mark.parametrize(
    "a, b",
    [pytest.param(SMALL_GROUPS[x], SMALL_GROUPS[y], id=f"{x}-{y}")
     for x, y in SMALL_PAIRS if CLASS.get(x, x) != CLASS.get(y, y)]
    + [pytest.param(Z(4), Z(3), id="Z4-Z3")]
    + [pytest.param(LARGER_GROUPS[x], LARGER_GROUPS[y], id=f"{x}-{y}")
       for pair in HARD_PAIRS for x, y in (pair, pair[::-1])],
)
def test_find_isomorphism_negative(a, b):
    assert validate_group(a).valid and validate_group(b).valid
    assert find_isomorphism(a, b) is None
    if len(a.elements) <= 6:
        assert not brute_force_isomorphic(a, b)
    else:  # equal order statistics: the search over generator images decides
        orders = [sorted(element_order(t, x) for x in t.elements) for t in (a, b)]
        assert orders[0] == orders[1]


def test_validate_group_catches_broken_entry():
    z3 = cyclic_group(3)
    op = dict(z3.op)
    op[("1", "1")] = "1"  # clobbers the Latin-square property
    report = validate_group(GroupTable(z3.elements, op, z3.identity, z3.inverse))
    assert not report.valid
    assert "associativity" in report.rules()


def test_product_outside_the_elements_skips_associativity():
    z3 = cyclic_group(3)
    op = {**z3.op, ("0", "2"): "zz"}
    report = validate_group(GroupTable(z3.elements, op, z3.identity, z3.inverse))
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("closure", ("0", "2", "zz")),
        ("left-identity", ("2",)),
    ]
    assert [(n.rule, n.status, n.message) for n in report.notes] == [
        ("associativity", "skipped", "a group table has a product outside its element set")
    ]


def test_validate_group_catches_bad_inverse():
    z3 = cyclic_group(3)
    inverse = dict(z3.inverse)
    inverse["1"] = "1"
    report = validate_group(GroupTable(z3.elements, z3.op, z3.identity, inverse))
    assert not report.valid


def test_wellformedness_errors():
    z2 = cyclic_group(2)
    with pytest.raises(MalformedTable):
        validate_group(GroupTable(frozenset(), {}, "0", {}))
    with pytest.raises(MalformedTable):
        validate_group(GroupTable(z2.elements, z2.op, "7", z2.inverse))
    with pytest.raises(MalformedTable):
        validate_group(GroupTable(z2.elements, z2.op, "0", {"0": "0", "1": "9"}))
    # op keys: a missing pair, an extra pair, and a pair replaced by one
    # outside the elements, by a str or by a 3-tuple
    op = dict(z2.op)
    del op[("1", "1")]
    for bad_op in (op, {**z2.op, ("1", "9"): "0"}, {**op, ("1", "9"): "0"},
                   {**op, "11": "0"}, {**op, ("1", "1", "1"): "0"}):
        with pytest.raises(MalformedTable, match="op must be keyed by exactly all ordered"):
            validate_group(GroupTable(z2.elements, bad_op, "0", z2.inverse))


def test_hom_domain_checks():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    from groupoids import DomainMismatch

    with pytest.raises(DomainMismatch):
        is_group_hom({"0": "0"}, z4, z2)  # not total
    with pytest.raises(DomainMismatch):
        is_group_hom({x: "7" for x in z4.elements}, z4, z2)  # lands outside


def test_cyclic_group_rejects_nonpositive():
    with pytest.raises(EmptySet):
        cyclic_group(0)


def test_light_test_rejects_a_closed_nonassociative_table(nonassociative_table):
    t = nonassociative_table
    assert _associative_generators(t) == ()
    elems = sorted(t.elements)
    expected = sorted(
        (x, y, z)
        for x in elems for y in elems for z in elems
        if t.op[(t.op[(x, y)], z)] != t.op[(x, t.op[(y, z)])]
    )
    report = validate_group(t)
    assert report.rules() == ("associativity",)
    assert [v.witness for v in report.violations] == expected
    assert ("1", "1", "3") in expected


@pytest.mark.parametrize("tok", ["a b", "a.b", "a=b", "a#b"])
def test_a_table_element_must_be_an_identifier(tok):
    with pytest.raises(MalformedTable, match=re.escape(f"bad identifier {tok!r}")):
        GroupTable(frozenset({tok}), {(tok, tok): tok}, tok, {tok: tok})


def _tables_up_to(order: int) -> list[GroupTable]:
    """The tables the package builds up to the given order: trivial, cyclic,
    symmetric, and direct products of two or three non-trivial ones."""
    base = [trivial_group(), *map(cyclic_group, range(1, order + 1))]
    base += [symmetric_group(n) for n in range(1, 4)]
    factors = [t for t in base if len(t.elements) > 1]
    pairs = [direct_product_groups(a, b) for a in factors for b in factors
             if len(a.elements) * len(b.elements) <= order]
    triples = [direct_product_groups(a, b) for a in pairs for b in factors
               if len(a.elements) * len(b.elements) <= order]
    return base + pairs + triples


def _closed_mutants(table: GroupTable, rng: random.Random, count: int) -> list[GroupTable]:
    """Tables with one op entry moved to another element."""
    out = []
    for _ in range(count):
        key = rng.choice(sorted(table.op))
        value = rng.choice(sorted(table.elements - {table.op[key]}))
        out.append(GroupTable(table.elements, {**table.op, key: value}, table.identity,
                              table.inverse))
    return out


def test_a_group_is_its_one_object_groupoid():
    # validate_group's associativity is validate_groupoid's G1-assoc on the
    # one-object groupoid: same witnesses, same messages
    rng = random.Random(0)
    tables = _tables_up_to(8)
    tables += [m for t in tables if len(t.elements) > 1 for m in _closed_mutants(t, rng, 3)]
    broken = 0
    for table in tables:
        group = [(v.witness, v.message) for v in validate_group(table).violations
                 if v.rule == "associativity"]
        groupoid = [(v.witness, v.message)
                    for v in validate_groupoid(_single_unit(table)).violations
                    if v.rule == "G1-assoc"]
        assert group == groupoid
        broken += bool(group)
    assert broken > len(tables) // 4, broken


def test_a_generating_set_of_a_group_has_at_most_log2_m_plus_one_members():
    for table in _tables_up_to(24):
        view = _rows(table)
        m = len(view.rows)
        generators = _table_generators(view, range(m))
        assert len(generators) <= math.log2(m) + 1, (sorted(table.elements), generators)
        assert sums(view.rows, generators) == set(range(m))
        if m > 1:  # the identity is a sum of any generator, so it is never one
            assert view.identity not in generators


def test_the_homomorphism_certificate_refuses_a_map_additive_on_all_but_one_pair(
        certificate_runs):
    # h(1) = 1 in Z_3: h(1+1) = h(0) = 0 but h(1)+h(1) = 2, and every pair with 0 holds
    z2, z3 = cyclic_group(2), cyclic_group(3)
    h = {"0": "0", "1": "1"}
    report = additivity_report("hom", "h", h, z2, z3)
    assert [v.witness for v in report.violations] == [("1", "1")]
    # Light's test accepts both tables, then the additivity loop, handed
    # Z_2's generator 1, finds (1, 1) there and runs on every element
    assert [run.accepted for run in certificate_runs] == [True, True, False]
    assert certificate_runs[-1].generators == list(_associative_generators(z2)) == [1]
    assert not is_group_hom(h, z2, z3)


@pytest.mark.parametrize("call", [
    lambda z3, bad: is_group_hom({x: x for x in z3.elements}, bad, z3),
    lambda z3, bad: is_group_hom({x: x for x in z3.elements}, z3, bad),
    lambda z3, bad: find_isomorphism(bad, bad),
    lambda z3, bad: find_isomorphism(z3, bad),
], ids=["hom-domain", "hom-codomain", "iso-both", "iso-second"])
def test_a_table_with_a_product_outside_its_elements_is_refused_as_no_group(call):
    # both must be groups; the product has no element number to map or spread
    z3 = cyclic_group(3)
    bad = GroupTable(z3.elements, {**z3.op, ("1", "1"): "zz"}, "0", z3.inverse)
    with pytest.raises(InvalidGroup, match=re.escape("not a group: closure at 1,1,zz")):
        call(z3, bad)
