import re

import pytest

from groupoids import (
    EmptySet,
    GroupTable,
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
)
from groupoids.grouptable import is_identifier


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


def test_find_isomorphism_positive():
    z6 = cyclic_group(6)
    p = direct_product_groups(cyclic_group(2), cyclic_group(3))
    f = find_isomorphism(z6, p)
    assert f is not None
    assert is_group_hom(f, z6, p)
    assert len(set(f.values())) == 6


def test_find_isomorphism_negative():
    z4 = cyclic_group(4)
    klein = direct_product_groups(cyclic_group(2), cyclic_group(2))
    assert find_isomorphism(z4, klein) is None
    assert find_isomorphism(z4, cyclic_group(3)) is None


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
    from groupoids.grouptable import _associativity_certificate

    t = nonassociative_table
    assert not _associativity_certificate(t)
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
