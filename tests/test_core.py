import pytest

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


def test_validate_catches_clobbered_product():
    g = pair_groupoid(["a", "b"])
    prod = dict(g.prod)
    prod[("(a|b)", "(b|a)")] = "(a|b)"
    report = validate_groupoid(rebuild(g, prod=prod))
    assert not report.valid
    assert "G1-target" in report.rules()


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


def test_nonsurjective_endpoints_reported_or_tolerated():
    g = FiniteGroupoid(
        objects=frozenset({"u", "v"}),
        arrows=frozenset({"x"}),
        src={"x": "u"},
        tgt={"x": "u"},
        unit={"u": "x", "v": "x"},
        inv={"x": "x"},
        prod={("x", "x"): "x"},
    )
    strict = validate_groupoid(g)
    assert "source-surjective" in strict.rules()
    relaxed = validate_groupoid(g, allow_nonsurjective=True)
    assert "source-surjective" not in relaxed.rules()
    assert any(n.rule == "source-surjective" and n.status == "warning"
               for n in relaxed.notes)


def test_wellformedness_is_an_error_not_a_report():
    g = pair_groupoid(["a", "b"])
    src = dict(g.src)
    del src["(a|b)"]
    with pytest.raises(MalformedStructure):
        validate_groupoid(rebuild(g, src=src))
    with pytest.raises(MalformedStructure):
        validate_groupoid(rebuild(g, tgt={**g.tgt, "(a|b)": "zzz"}))


@pytest.mark.parametrize("bad", ["", "a b", "a#b", "a=b", "a.b"])
def test_identifiers_follow_the_file_format_rule(bad):
    g = null_groupoid(["u"])
    renamed = rebuild(g, objects=frozenset({bad}), unit={bad: "u"}, src={"u": bad},
                      tgt={"u": bad})
    with pytest.raises(MalformedStructure, match="bad identifier"):
        validate_groupoid(renamed)


def test_structure_identities_on_valid_inputs():
    report = structure_identities(pair_groupoid(["a", "b", "c"]))
    assert report.valid
    # transitive with tiny isotropy: the isomorphism check runs, no note
    assert not any(n.rule == "isotropy-isomorphic" for n in report.notes)


def test_structure_identities_isotropy_cap():
    g = group_as_single_unit_groupoid(cyclic_group(13))  # order above ISO_SEARCH_CAP
    capped = structure_identities(g)
    assert capped.valid
    assert any(
        n.rule == "isotropy-isomorphic" and n.status == "skipped"
        for n in capped.notes
    )


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


def test_collapse_morphism_to_null_point():
    g = pair_groupoid(["a", "b"])
    pt = null_groupoid(["*"])
    m = Morphism(g, pt, {x: "*" for x in g.arrows}, {u: "*" for u in g.objects})
    assert validate_morphism(m).valid
