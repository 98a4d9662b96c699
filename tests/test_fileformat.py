import pytest

from groupoids import (
    DuplicateDeclaration,
    FiniteGroupoid,
    GroupTable,
    InvalidInput,
    MalformedStructure,
    MalformedTable,
    Morphism,
    MorphismSpec,
    StructureSyntaxError,
    UnknownIdentifier,
    cyclic_group,
    emit_structure_file,
    group_pair_groupoid,
    load_morphism,
    load_structure_file,
    null_groupoid,
    pair_groupoid,
    parse_structure_file,
    symmetric_group,
    validate_groupoid,
)
from groupoids.cli import run_command

MINIMAL = """\
kind: groupoid
objects: u
arrows: u
source: u=u
target: u=u
unit: u=u
inverse: u=u
product: u.u=u
"""


def test_minimal_null_groupoid_file():
    sf = parse_structure_file(MINIMAL)
    assert sf.kind == "groupoid"
    assert len(sf.structure.arrows) == 1
    assert validate_groupoid(sf.structure).valid


def test_comments_and_blank_lines():
    text = "# a structure\n\nkind: groupoid  # the kind\n" + MINIMAL.split("\n", 1)[1]
    assert parse_structure_file(text).structure == parse_structure_file(MINIMAL).structure


def test_round_trip_groupoid():
    g = pair_groupoid(["a", "b", "c"])
    text = emit_structure_file(g)
    assert parse_structure_file(text).structure == g
    assert emit_structure_file(parse_structure_file(text).structure) == text


def test_round_trip_group_groupoid():
    gg = group_pair_groupoid(cyclic_group(2))
    sf = parse_structure_file(emit_structure_file(gg))
    assert sf.kind == "group_groupoid"
    assert sf.structure == gg


def test_round_trip_group():
    s3 = symmetric_group(3)
    sf = parse_structure_file(emit_structure_file(s3))
    assert sf.kind == "group"
    assert sf.structure == s3


def test_round_trip_morphism():
    g = null_groupoid(["u"])
    m = Morphism(g, g, {"u": "u"}, {"u": "u"})
    text = emit_structure_file(m, from_path="a.gpd", to_path="b.gpd")
    sf = parse_structure_file(text)
    assert sf.kind == "morphism"
    assert sf.structure.from_path == "a.gpd"
    assert sf.structure.f == {"u": "u"}


def line_of(exc_type, text):
    with pytest.raises(exc_type) as info:
        parse_structure_file(text)
    return info.value.line


def test_kind_must_come_first():
    assert line_of(StructureSyntaxError, "objects: u\nkind: groupoid\n") == 1
    assert line_of(StructureSyntaxError, "# only a comment\n") == 1
    assert line_of(StructureSyntaxError, "kind: monoid\n") == 1
    assert line_of(DuplicateDeclaration, "kind: group\nkind: group\n") == 2


def test_unknown_section_for_kind():
    text = "kind: group\nelements: e\nop: e.e=e\nid: e\ninv: e=e\nunit: e=e\n"
    assert line_of(StructureSyntaxError, text) == 6


def test_undeclared_identifier_in_product():
    text = MINIMAL.replace("product: u.u=u", "product: u.y=u")
    assert line_of(UnknownIdentifier, text) == 8


def test_duplicate_declaration_and_entry():
    assert line_of(DuplicateDeclaration,
                   "kind: groupoid\nobjects: u u\narrows: u\n") == 2
    dup = MINIMAL + "source: u=u\n"
    assert line_of(DuplicateDeclaration, dup) == 9


def test_malformed_entry_syntax():
    assert line_of(StructureSyntaxError,
                   "kind: groupoid\nobjects: u\narrows: x\nsource: x==u\n") == 4
    assert line_of(StructureSyntaxError, "kind: groupoid\njust some words\n") == 2
    assert line_of(StructureSyntaxError,
                   MINIMAL.replace("product: u.u=u", "product: u=u")) == 8


def test_missing_required_sections():
    with pytest.raises(StructureSyntaxError):
        parse_structure_file("kind: groupoid\narrows: x\n")
    with pytest.raises(StructureSyntaxError):
        parse_structure_file("kind: group\nelements: e\nop: e.e=e\ninv: e=e\n")


def test_single_valued_sections_cannot_repeat():
    gg_text = emit_structure_file(group_pair_groupoid(cyclic_group(2)))
    with pytest.raises(DuplicateDeclaration, match="section 'arrow_group_id' given twice"):
        parse_structure_file(gg_text + "arrow_group_id: (0|0)\n")
    group = "kind: group\nelements: e f\nop: e.e=e e.f=f f.e=f f.f=e\ninv: e=e f=f\n"
    with pytest.raises(StructureSyntaxError, match="line 5: section 'id' takes one identifier"):
        parse_structure_file(group + "id: e f\n")
    assert line_of(DuplicateDeclaration, group + "id: e\nid: f\n") == 6


def test_a_bar_outside_a_pair_token_is_not_an_identifier():
    def named(tok):
        return MINIMAL.replace("u=u", f"{tok}={tok}").replace("u.u", f"{tok}.{tok}").replace(
            ": u", f": {tok}")

    with pytest.raises(StructureSyntaxError, match=r"line 2: bad identifier 'a\|b'"):
        parse_structure_file(named("a|b"))
    assert parse_structure_file(named("(a|b)")).structure.arrows == {"(a|b)"}


def test_a_parse_error_wins_over_a_shape_error():
    # source lacks an entry (a shape error) and arrow_group_op names an
    # undeclared token (a parse error, in a later section)
    text = emit_structure_file(group_pair_groupoid(cyclic_group(2)))
    text = text.replace("source: (0|0)=0 (0|1)=0", "source: (0|0)=0")
    text = text.replace("arrow_group_op: (0|0).(0|0)=(0|0)", "arrow_group_op: (0|0).(0|0)=zz")
    assert "source: (0|0)=0 (1|0)=1" in text and "=zz" in text.splitlines()[9]
    with pytest.raises(UnknownIdentifier, match="line 10: unknown identifier 'zz'"):
        parse_structure_file(text)


def test_emit_rejects_unwritable_tokens():
    g = null_groupoid(["u"])
    with pytest.raises(MalformedTable, match="bad identifier 'a.b'"):
        GroupTable(frozenset({"a.b"}), {("a.b", "a.b"): "a.b"}, "a.b", {"a.b": "a.b"})
    with pytest.raises(InvalidInput, match="identifier 'a.b' cannot be written"):
        emit_structure_file(MorphismSpec("g.gpd", "g.gpd", {"a.b": "u"}, {"u": "u"}))
    # the first bad token in sorted order of f's entries, then of f0's
    spec = MorphismSpec("g.gpd", "g.gpd", {"u": "x=y", "t t": "u"}, {"a.b": "u"})
    with pytest.raises(InvalidInput, match="identifier 't t' cannot be written"):
        emit_structure_file(spec)
    with pytest.raises(MalformedStructure, match="bad identifier 'a.b'"):
        FiniteGroupoid(
            objects=frozenset({"a.b"}), arrows=frozenset({"a.b"}),
            src={"a.b": "a.b"}, tgt={"a.b": "a.b"}, unit={"a.b": "a.b"},
            inv={"a.b": "a.b"}, prod={("a.b", "a.b"): "a.b"},
        )
    with pytest.raises(InvalidInput):
        emit_structure_file(Morphism(g, g, {"u": "u"}, {"u": "u"}))  # no paths
    with pytest.raises(InvalidInput):
        emit_structure_file("not a structure")


def test_load_morphism_resolves_relative_paths(tmp_path):
    g = pair_groupoid(["a", "b"])
    (tmp_path / "g.gpd").write_text(emit_structure_file(g), encoding="utf-8")
    m = Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects})
    (tmp_path / "m.gpd").write_text(
        emit_structure_file(m, from_path="g.gpd", to_path="g.gpd"), encoding="utf-8"
    )
    loaded, src_sf, tgt_sf = load_morphism(str(tmp_path / "m.gpd"))
    assert loaded.f == m.f
    assert src_sf.structure == g
    assert tgt_sf.structure == g


def test_load_morphism_rejects_group_endpoints(tmp_path):
    (tmp_path / "z2.gpd").write_text(
        emit_structure_file(cyclic_group(2)), encoding="utf-8"
    )
    (tmp_path / "m.gpd").write_text(
        "kind: morphism\nfrom: z2.gpd\nto: z2.gpd\nf: 0=0 1=1\nf0: 0=0 1=1\n",
        encoding="utf-8",
    )
    with pytest.raises(InvalidInput):
        load_morphism(str(tmp_path / "m.gpd"))


def test_load_structure_file(tmp_path):
    path = tmp_path / "g.gpd"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_structure_file(str(path)).structure == parse_structure_file(MINIMAL).structure


def test_emit_refuses_a_table_it_could_not_read_back():
    z3 = cyclic_group(3)
    open_z3 = GroupTable(z3.elements, {**z3.op, ("0", "2"): "zz"}, z3.identity, z3.inverse)
    with pytest.raises(InvalidInput, match="closure at 0,2,zz"):
        emit_structure_file(open_z3)


def test_every_corpus_structure_reads_back_as_itself(corpus, s3_control, klein_control):
    for gg in [*corpus.values(), s3_control, klein_control]:
        for value in (gg, gg.base, gg.arrow_group, gg.object_group):
            assert parse_structure_file(emit_structure_file(value)).structure == value


@pytest.mark.parametrize(
    "path",
    ["", "p.gpd # copy", "p#.gpd", "a\nb.gpd", "a\r\nb.gpd", "a\u2028b.gpd", " p.gpd",
     "p.gpd ", "p.gpd\n"],
)
def test_emit_refuses_a_path_that_would_not_read_back(path):
    g = null_groupoid(["u"])
    m = Morphism(g, g, {"u": "u"}, {"u": "u"})
    for structure, paths in (
        (m, dict(from_path=path, to_path="g.gpd")),
        (m, dict(from_path="g.gpd", to_path=path)),
        (MorphismSpec(path, "g.gpd", {"u": "u"}, {"u": "u"}), {}),
        (MorphismSpec("g.gpd", path, {"u": "u"}, {"u": "u"}), {}),
    ):
        with pytest.raises(InvalidInput, match="cannot be written to a morphism file"):
            emit_structure_file(structure, **paths)


def test_a_path_with_an_inner_space_reads_back(tmp_path):
    g = pair_groupoid(["a", "b"])
    (tmp_path / "my g.gpd").write_text(emit_structure_file(g), encoding="utf-8")
    m = Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects})
    text = emit_structure_file(m, from_path="my g.gpd", to_path="my g.gpd")
    spec = parse_structure_file(text).structure
    assert (spec.from_path, spec.to_path) == ("my g.gpd", "my g.gpd")
    assert emit_structure_file(spec) == text
    (tmp_path / "m.gpd").write_text(text, encoding="utf-8")
    loaded, src_sf, _ = load_morphism(str(tmp_path / "m.gpd"))
    assert loaded.f == m.f and src_sf.structure == g


def test_an_empty_path_is_a_syntax_error_at_its_line(tmp_path, capsys):
    text = "kind: morphism\nfrom:\nto: g.gpd\nf: u=u\nf0: u=u\n"
    assert line_of(StructureSyntaxError, text) == 2
    assert line_of(StructureSyntaxError, "kind: morphism\nfrom: g.gpd\nto:  # none\n") == 3
    path = tmp_path / "m.gpd"
    path.write_text(text, encoding="utf-8")
    assert run_command(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2: section 'from' needs a path" in err
    assert "Is a directory" not in err
