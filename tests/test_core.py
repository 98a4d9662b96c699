import re

import pytest

import groupoids.core as core
from conftest import build_corpus
from groupoids import (
    FiniteGroupoid,
    InternalCheckFailed,
    MalformedStructure,
    Morphism,
    UnknownArrow,
    UnknownObject,
    composable,
    conjugation_iso,
    cyclic_group,
    direct_product_groupoids,
    fiber,
    group_as_single_unit_groupoid,
    is_transitive,
    isotropy_group,
    null_groupoid,
    pair_groupoid,
    structure_identities,
    symmetric_group,
    validate_groupoid,
    validate_morphism,
)


def rebuild(g, **overrides):
    fields = dict(
        objects=g.objects, arrows=g.arrows, src=dict(g.src), tgt=dict(g.tgt),
        unit=dict(g.unit), inv=dict(g.inv), prod=dict(g.prod),
    )
    fields.update(overrides)
    return FiniteGroupoid(**fields)


def test_pair_groupoid_shape():
    g = pair_groupoid(["a", "b", "c"])
    assert len(g.arrows) == 9
    assert g.prod[("(a|b)", "(b|c)")] == "(a|c)"
    assert g.inv["(a|b)"] == "(b|a)"
    assert g.unit["a"] == "(a|a)"
    assert validate_groupoid(g).valid


def test_null_groupoid_shape():
    g = null_groupoid(["u", "v"])
    assert g.arrows == frozenset({"u", "v"})
    assert g.prod == {("u", "u"): "u", ("v", "v"): "v"}
    assert validate_groupoid(g).valid


def test_composable():
    g = pair_groupoid(["a", "b", "c"])
    assert composable(g, "(a|b)", "(b|c)")
    assert not composable(g, "(a|b)", "(a|b)")
    with pytest.raises(UnknownArrow):
        composable(g, "(a|b)", "nope")


def test_fiber():
    g = pair_groupoid(["a", "b"])
    assert fiber(g, "source", "a") == frozenset({"(a|a)", "(a|b)"})
    assert fiber(g, "target", "b") == frozenset({"(a|b)", "(b|b)"})
    with pytest.raises(UnknownObject):
        fiber(g, "source", "z")
    with pytest.raises(ValueError):
        fiber(g, "sideways", "a")


def test_transitivity():
    assert is_transitive(pair_groupoid(["a", "b", "c"]))
    assert not is_transitive(null_groupoid(["u", "v"]))
    assert is_transitive(null_groupoid(["u"]))


def test_isotropy_of_pair_groupoid_is_trivial():
    g = pair_groupoid(["a", "b"])
    t = isotropy_group(g, "a")
    assert t.elements == frozenset({"(a|a)"})
    assert t.identity == "(a|a)"


def test_isotropy_of_single_unit_groupoid_is_the_group():
    s3 = symmetric_group(3)
    g = group_as_single_unit_groupoid(s3)
    t = isotropy_group(g, s3.identity)
    assert t.elements == s3.elements
    assert t.op == s3.op
    assert t.inverse == s3.inverse


def test_isotropy_on_broken_products_is_loud():
    g = null_groupoid(["u"])
    broken = rebuild(g, prod={})
    with pytest.raises(InternalCheckFailed):
        isotropy_group(broken, "u")


def test_conjugation_moves_isotropy():
    g = pair_groupoid(["a", "b"])
    conj = conjugation_iso(g, "(a|b)")
    assert conj == {"(a|a)": "(b|b)"}


def test_conjugation_in_single_unit_s3():
    g = group_as_single_unit_groupoid(symmetric_group(3))
    conj = conjugation_iso(g, "021")
    assert conj["102"] == "210"
    assert conj["012"] == "012"


def _transitive_groupoids():
    s3 = group_as_single_unit_groupoid(symmetric_group(3))
    return {
        "pair(a,b,c)": pair_groupoid(["a", "b", "c"]),
        "single-unit S_3": s3,
        "group-pair Z_3": build_corpus()["group_pair(Z3)"].base,
        "pair(u,v) x single-unit S_3": direct_product_groupoids(pair_groupoid(["u", "v"]), s3),
    }


@pytest.mark.parametrize("name", sorted(_transitive_groupoids()))
def test_conjugation_along_every_arrow_matches_brute_force(name):
    g = _transitive_groupoids()[name]
    for x in sorted(g.arrows):
        u, v = g.src[x], g.tgt[x]
        at_u = [z for z in g.arrows if g.src[z] == u == g.tgt[z]]
        at_v = [z for z in g.arrows if g.src[z] == v == g.tgt[z]]
        reference = {z: g.prod[(g.prod[(g.inv[x], z)], x)] for z in at_u}
        assert sorted(reference.values()) == sorted(at_v)  # a bijection
        for z in at_u:
            for w in at_u:
                assert reference[g.prod[(z, w)]] == g.prod[(reference[z], reference[w])]
        assert conjugation_iso(g, x) == reference


def _pair_uv_s3():
    return _transitive_groupoids()["pair(u,v) x single-unit S_3"]


def test_conjugation_refuses_a_missing_product():
    g = _pair_uv_s3()
    prod = dict(g.prod)
    del prod[("((v|u)|021)", "((u|u)|102)")]
    with pytest.raises(InternalCheckFailed) as info:
        conjugation_iso(rebuild(g, prod=prod), "((u|v)|021)")
    assert str(info.value) == (
        "cannot conjugate ((u|u)|102) along ((u|v)|021); the groupoid is not valid")


def test_conjugation_refuses_a_map_that_is_not_a_bijection():
    g = _pair_uv_s3()
    # inv(x).z for z = ((u|u)|102) is ((v|u)|120); send it on to the image of the identity
    prod = {**g.prod, ("((v|u)|120)", "((u|v)|021)"): "((v|v)|012)"}
    with pytest.raises(InternalCheckFailed) as info:
        conjugation_iso(rebuild(g, prod=prod), "((u|v)|021)")
    assert str(info.value) == (
        "conjugation along ((u|v)|021) is not a bijection between the isotropy groups")


def test_conjugation_refuses_a_map_that_does_not_preserve_products():
    g = _pair_uv_s3()
    # a product of two loops at u, which conjugation along x never reads
    prod = {**g.prod, ("((u|u)|102)", "((u|u)|120)"): "((u|u)|012)"}
    with pytest.raises(InternalCheckFailed) as info:
        conjugation_iso(rebuild(g, prod=prod), "((u|v)|021)")
    assert str(info.value) == ("conjugation along ((u|v)|021) does not preserve products"
                               " (witness ((u|u)|102),((u|u)|120))")


def test_validate_catches_clobbered_product():
    g = pair_groupoid(["a", "b"])
    prod = dict(g.prod)
    prod[("(a|b)", "(b|a)")] = "(a|b)"
    report = validate_groupoid(rebuild(g, prod=prod))
    assert not report.valid
    assert "G1-target" in report.rules()


def test_validate_names_a_unit_that_is_not_neutral_on_the_left():
    g = group_as_single_unit_groupoid(cyclic_group(3))
    report = validate_groupoid(rebuild(g, prod={**g.prod, ("0", "1"): "2"}))
    first = report.by_rule("G2-left-unit")[0]
    assert (first.witness, first.message) == (("1",), "unit(0).1 = 2")


def test_validate_catches_missing_product_entry():
    g = pair_groupoid(["a", "b"])
    prod = dict(g.prod)
    del prod[("(a|b)", "(b|a)")]
    report = validate_groupoid(rebuild(g, prod=prod))
    assert not report.valid
    assert "domain-missing" in report.rules()


def test_validate_catches_stray_product_entry():
    g = null_groupoid(["u", "v"])
    prod = dict(g.prod)
    prod[("u", "v")] = "u"  # not a composable pair
    report = validate_groupoid(rebuild(g, prod=prod))
    assert not report.valid
    assert "domain-extra" in report.rules()


def test_validate_catches_shared_unit():
    g = FiniteGroupoid(
        objects=frozenset({"u", "v"}),
        arrows=frozenset({"x"}),
        src={"x": "u"},
        tgt={"x": "u"},
        unit={"u": "x", "v": "x"},
        inv={"x": "x"},
        prod={("x", "x"): "x"},
    )
    report = validate_groupoid(g)
    assert not report.valid
    assert "unit-injective" in report.rules()
    assert "unit-endpoints" in report.rules()


def test_nonsurjective_endpoints_reported_with_their_unit():
    g = FiniteGroupoid(
        objects=frozenset({"u", "v"}),
        arrows=frozenset({"x"}),
        src={"x": "u"},
        tgt={"x": "u"},
        unit={"u": "x", "v": "x"},
        inv={"x": "x"},
        prod={("x", "x"): "x"},
    )
    report = validate_groupoid(g)
    assert ("v",) in {v.witness for v in report.by_rule("source-surjective")}
    # unit(v) = x is not v -> v, so the unit law fails wherever surjectivity does
    assert ("v", "x") in {v.witness for v in report.by_rule("unit-endpoints")}


def test_wellformedness_is_an_error_not_a_report():
    g = pair_groupoid(["a", "b"])
    src = dict(g.src)
    del src["(a|b)"]
    with pytest.raises(MalformedStructure):
        validate_groupoid(rebuild(g, src=src))
    with pytest.raises(MalformedStructure):
        validate_groupoid(rebuild(g, tgt={**g.tgt, "(a|b)": "zzz"}))


@pytest.mark.parametrize(
    "bad", ["", "a b", "a#b", "a=b", "a.b", "a|b", "(a|b", "(a)", "x(a|b)", "(a|b)(c|d)"]
)
def test_identifiers_follow_the_file_format_rule(bad):
    g = null_groupoid(["u"])
    with pytest.raises(MalformedStructure, match="bad identifier"):
        rebuild(g, objects=frozenset({bad}), unit={bad: "u"}, src={"u": bad}, tgt={"u": bad})


def test_structure_identities_on_valid_inputs():
    report = structure_identities(pair_groupoid(["a", "b", "c"]))
    assert report.valid
    # transitive with tiny isotropy: the isomorphism check runs, no note
    assert not any(n.rule == "isotropy-isomorphic" for n in report.notes)


def pair_times_group(group):
    return direct_product_groupoids(pair_groupoid(["u", "v"]), group_as_single_unit_groupoid(group))


def test_structure_identities_compares_isotropy_of_every_order():
    for group in (symmetric_group(4), cyclic_group(13)):
        report = structure_identities(pair_times_group(group))
        assert report.valid
        assert not any(n.rule == "isotropy-isomorphic" for n in report.notes)


def test_structure_identities_reports_nonisomorphic_isotropy():
    g = pair_times_group(cyclic_group(4))
    # the loops at (v|0) become the Klein group: x+y is the xor of the digits
    loop = {d: f"((v|v)|{d})" for d in "0123"}
    klein = {(loop[x], loop[y]): loop[str(int(x) ^ int(y))] for x in loop for y in loop}
    broken = rebuild(g, prod={**g.prod, **klein}, inv={**g.inv, **{x: x for x in loop.values()}})
    found = structure_identities(broken).by_rule("isotropy-isomorphic")
    assert [(v.witness, v.message) for v in found] == [
        (("(u|0)", "(v|0)"), "isotropy groups are not isomorphic")
    ]


def test_structure_identities_isotropy_note_when_intransitive():
    report = structure_identities(null_groupoid(["u", "v"]))
    assert report.valid
    assert any(
        n.rule == "isotropy-isomorphic" and n.status == "not-applicable"
        for n in report.notes
    )


def test_structure_identities_reports_an_isotropy_that_is_not_a_group():
    g = group_as_single_unit_groupoid(cyclic_group(4))
    broken = rebuild(g, inv={**g.inv, "1": "1"})
    report = structure_identities(broken)
    found = report.by_rule("isotropy-isomorphic")
    assert [(v.witness, v.message) for v in found] == [
        (("0",), "isotropy at 0 is not a group: left-inverse at 1")
    ]
    assert not any(n.rule == "isotropy-isomorphic" for n in report.notes)


# structure_identities expects input that passed validate_groupoid, where
# none of these rules can fire; each is reached here on input that did not
def _identities_of_broken_z3(rule, **overrides):
    g = group_as_single_unit_groupoid(cyclic_group(3))
    broken = rebuild(g, **{k: {**getattr(g, k), **v} for k, v in overrides.items()})
    assert not validate_groupoid(broken).valid
    return [(v.witness, v.message) for v in structure_identities(broken).by_rule(rule)]


def test_structure_identities_reports_a_product_that_does_not_invert_contravariantly():
    assert _identities_of_broken_z3("product-inverse-reversal", prod={("1", "1"): "0"}) == [
        (("1", "1"), "inv(1.1) = 0 but inv(1).inv(1) = 1"),
        (("2", "2"), "inv(2.2) = 2 but inv(2).inv(2) = 0"),
    ]


def test_structure_identities_reports_an_inversion_that_is_not_an_involution():
    assert _identities_of_broken_z3("inversion-involution", inv={"1": "1"}) == [
        (("2",), "inv(inv(2)) = 1")
    ]


def test_structure_identities_reports_a_unit_that_is_not_idempotent():
    assert _identities_of_broken_z3("unit-idempotent", prod={("0", "0"): "1"}) == [
        (("0",), "unit(0).unit(0) != unit(0)")
    ]


def test_identity_morphism_is_valid():
    g = pair_groupoid(["a", "b"])
    m = Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects})
    assert validate_morphism(m).valid


def test_relabeling_morphism_is_valid():
    g = pair_groupoid(["a", "b"])
    swap = {"a": "b", "b": "a"}
    f = {f"({x}|{y})": f"({swap[x]}|{swap[y]})" for x in "ab" for y in "ab"}
    m = Morphism(g, g, f, swap)
    assert validate_morphism(m).valid


def test_arrow_reversal_is_not_a_morphism():
    g = pair_groupoid(["a", "b"])
    f = {"(a|a)": "(a|a)", "(b|b)": "(b|b)", "(a|b)": "(b|a)", "(b|a)": "(a|b)"}
    m = Morphism(g, g, f, {"a": "b", "b": "a"})
    report = validate_morphism(m)
    assert not report.valid
    assert "M2-product" in report.rules()


def test_morphism_totality_is_an_error():
    from groupoids import DomainMismatch

    g = pair_groupoid(["a", "b"])
    with pytest.raises(DomainMismatch):
        validate_morphism(Morphism(g, g, {"(a|a)": "(a|a)"}, {"a": "a", "b": "b"}))


PAIR01 = pair_groupoid(["0", "1"])
IDENTITY_F = {x: x for x in PAIR01.arrows}
IDENTITY_F0 = {"0": "0", "1": "1"}


@pytest.mark.parametrize("f, f0, message", [
    ({"(0|0)": "(0|0)"}, IDENTITY_F0, "arrow map must be total on the source arrows"),
    ({**IDENTITY_F, "(0|1)": "zz"}, IDENTITY_F0, "arrow map has values outside the target arrows"),
    (IDENTITY_F, {"0": "0"}, "object map must be total on the source objects"),
    (IDENTITY_F, {"0": "0", "1": "zz"}, "object map has values outside the target objects"),
], ids=["partial-f", "f-outside", "partial-f0", "f0-outside"])
def test_a_morphism_is_total_when_it_is_built(f, f0, message):
    from groupoids import DomainMismatch

    with pytest.raises(DomainMismatch, match=re.escape(message)):
        Morphism(PAIR01, PAIR01, f, f0)


def test_collapse_morphism_to_null_point():
    g = pair_groupoid(["a", "b"])
    pt = null_groupoid(["*"])
    m = Morphism(g, pt, {x: "*" for x in g.arrows}, {u: "*" for u in g.objects})
    assert validate_morphism(m).valid


def _generators(g: FiniteGroupoid) -> list[str]:
    view = core._integer_view(g)
    numbers = core._generating_set(view.prod, view.src, view.tgt, range(len(view.arrows)),
                                   set(view.unit))
    return [view.arrows[s] for s in numbers]


def _words(g: FiniteGroupoid, generators: list[str]) -> set[str]:
    """Every composable word in the generators, by a closure over the token maps."""
    reached, todo = set(generators), list(generators)
    while todo:
        w = todo.pop()
        for s in generators:
            if g.tgt[w] == g.src[s] and g.prod[(w, s)] not in reached:
                reached.add(g.prod[(w, s)])
                todo.append(g.prod[(w, s)])
    return reached


GENERATED = [
    pair_groupoid(["a", "b", "c", "d"]),
    null_groupoid(["a", "b", "c"]),
    group_as_single_unit_groupoid(symmetric_group(3)),
    direct_product_groupoids(pair_groupoid(["a", "b", "c"]),
                             group_as_single_unit_groupoid(cyclic_group(6))),
    direct_product_groupoids(null_groupoid(["a", "b"]),
                             group_as_single_unit_groupoid(symmetric_group(3))),
]


@pytest.mark.parametrize("g", GENERATED + [gg.base for gg in build_corpus().values()])
def test_every_arrow_is_a_composable_word_in_the_generating_set(g):
    generators = _generators(g)
    assert _words(g, generators) == set(g.arrows)
    # Light's test reads one row per generator s and arrow entering its source,
    # the enumeration one per composable pair: never more
    entering = {u: sum(g.tgt[x] == u for x in g.arrows) for u in g.objects}
    assert sum(entering[g.src[s]] for s in generators) <= len(list(g.composable_pairs()))


def test_a_pair_groupoid_is_generated_by_the_arrows_in_and_out_of_one_object():
    # greedy in sorted order: (a|b), (a|c), (a|d), then (b|a), (c|a), (d|a),
    # each reaching its object's unit through an arrow that already entered it
    assert _generators(pair_groupoid(["a", "b", "c", "d"])) == [
        "(a|b)", "(a|c)", "(a|d)", "(b|a)", "(c|a)", "(d|a)",
    ]


class _CountingRows(list):
    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("g", GENERATED)
def test_the_generating_set_costs_a_row_read_per_arrow_and_generator(g):
    view = core._integer_view(g)
    rows = _CountingRows(view.prod)
    _CountingRows.reads = 0
    generators = core._generating_set(rows, view.src, view.tgt, range(len(view.arrows)),
                                      set(view.unit))
    # each arrow read once per generator leaving its target, and the arrows
    # entering a generator's source once more when it joins
    assert _CountingRows.reads <= 2 * len(view.arrows) * len(generators)


def test_light_test_refuses_a_nonassociative_single_unit_groupoid(nonassociative_table):
    g = core._single_unit(nonassociative_table)
    assert not core._associative_groupoid(g)
    report = validate_groupoid(g)
    assert report.rules() == ("G1-assoc",)
    t = nonassociative_table
    elems = sorted(t.elements)
    assert [v.witness for v in report.violations] == sorted(
        (x, y, z) for x in elems for y in elems for z in elems
        if t.op[(t.op[(x, y)], z)] != t.op[(x, t.op[(y, z)])]
    )


def test_a_null_groupoid_is_associative_without_a_row_read(monkeypatch):
    # no two arrows share a source, so the endpoint rules force x.y = x
    def read(*args):
        raise AssertionError("a null groupoid read a row for G1-assoc")

    for name in ("_associativity", "_generating_set", "_unassociated"):
        monkeypatch.setattr(core, name, read)
    assert validate_groupoid(null_groupoid([str(i) for i in range(24)])).valid
