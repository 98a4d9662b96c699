import random
import re
from dataclasses import fields
from unittest import mock

import pytest

from groupoids import (
    DuplicateDeclaration,
    FiniteGroupoid,
    GroupGroupoid,
    GroupoidError,
    GroupTable,
    InvalidInput,
    MalformedStructure,
    MalformedTable,
    Morphism,
    MorphismSpec,
    StructureSyntaxError,
    UnknownIdentifier,
    cyclic_group,
    direct_product_group_groupoids,
    direct_product_groups,
    emit_structure_file,
    group_pair_groupoid,
    load_morphism,
    load_structure_file,
    null_group_groupoid,
    null_groupoid,
    pair_groupoid,
    parse_structure_file,
    single_unit_group_groupoid,
    symmetric_group,
    validate_groupoid,
)
from groupoids import fileformat
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


def test_an_identity_section_names_its_own_line():
    group = emit_structure_file(cyclic_group(3))
    assert group.splitlines()[5] == "id: 0"
    with pytest.raises(StructureSyntaxError, match=r"^line 6: bad identifier 'a\.b'$"):
        parse_structure_file(group.replace("id: 0", "id: a.b"))
    with pytest.raises(UnknownIdentifier, match="^line 6: unknown identifier 'zz' in id$"):
        parse_structure_file(group.replace("id: 0", "id: zz"))
    gg = emit_structure_file(group_pair_groupoid(cyclic_group(2))).splitlines()
    for section in ("arrow_group_id", "object_group_id"):
        line = next(i for i, text in enumerate(gg, start=1) if text.startswith(section))
        text = "\n".join(f"{section}: zz" if i == line else text
                         for i, text in enumerate(gg, start=1))
        with pytest.raises(UnknownIdentifier, match=f"^line {line}: unknown identifier 'zz'"
                                                    f" in {section}$"):
            parse_structure_file(text)


def test_a_bar_outside_a_pair_token_is_not_an_identifier():
    def named(tok):
        return MINIMAL.replace("u=u", f"{tok}={tok}").replace("u.u", f"{tok}.{tok}").replace(
            ": u", f": {tok}")

    with pytest.raises(StructureSyntaxError, match=r"line 2: bad identifier 'a\|b'"):
        parse_structure_file(named("a|b"))
    assert parse_structure_file(named("(a|b)")).structure.arrows == {"(a|b)"}


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_break_only_where_open_breaks_them(char):
    # str.splitlines() also breaks at these characters; open() does not, so an
    # error after one must name the line an editor shows
    lines = emit_structure_file(cyclic_group(3)).splitlines()
    assert lines[3] == "op: 1.1=2 1.2=0 2.0=2 2.1=0"
    lines[3] = lines[3].replace("1.1=2", "1.1=zz")
    lines.insert(1, f"# see page 2{char}")
    for newline in ("\n", "\r\n", "\r"):
        with pytest.raises(UnknownIdentifier, match="^line 5: unknown identifier 'zz' in op$"):
            parse_structure_file(newline.join(lines) + newline)
    # inside a line the character is whitespace, as str.split() takes it
    text = emit_structure_file(cyclic_group(3))
    spaced = text.replace("op: 1.1=2 1.2=0", f"op: 1.1=2{char}1.2=0{char}")
    assert repr(parse_structure_file(spaced)) == repr(parse_structure_file(text))


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


def relabelled(gg: GroupGroupoid, seed: int) -> GroupGroupoid:
    """An isomorphic copy with every token renamed by one seeded bijection,
    built by the checked constructors."""
    g = gg.base
    toks = sorted(g.objects | g.arrows)
    names = [f"t{i:04d}" for i in range(len(toks))]
    random.Random(seed).shuffle(names)
    r = dict(zip(toks, names))

    def table(t: GroupTable) -> GroupTable:
        return GroupTable(frozenset(r[x] for x in t.elements),
                          {(r[x], r[y]): r[z] for (x, y), z in t.op.items()},
                          r[t.identity], {r[x]: r[y] for x, y in t.inverse.items()})

    base = FiniteGroupoid(
        objects=frozenset(r[u] for u in g.objects), arrows=frozenset(r[x] for x in g.arrows),
        src={r[x]: r[u] for x, u in g.src.items()}, tgt={r[x]: r[u] for x, u in g.tgt.items()},
        unit={r[u]: r[x] for u, x in g.unit.items()}, inv={r[x]: r[y] for x, y in g.inv.items()},
        prod={(r[x], r[y]): r[z] for (x, y), z in g.prod.items()},
    )
    return GroupGroupoid(base, table(gg.arrow_group), table(gg.object_group))


def dense_loop_structures() -> list[GroupGroupoid]:
    """The valid inputs of the benchmark's dense-loops workload: single-unit and
    null group-groupoids and two direct products."""
    z2 = cyclic_group(2)
    z2_4 = direct_product_groups(direct_product_groups(z2, z2), direct_product_groups(z2, z2))
    return [
        single_unit_group_groupoid(cyclic_group(24)),
        single_unit_group_groupoid(z2_4),
        null_group_groupoid(symmetric_group(3)),
        null_group_groupoid(symmetric_group(4)),
        null_group_groupoid(cyclic_group(12)),
        direct_product_group_groupoids(group_pair_groupoid(z2),
                                       null_group_groupoid(symmetric_group(3)))[0],
        direct_product_group_groupoids(single_unit_group_groupoid(cyclic_group(4)),
                                       group_pair_groupoid(cyclic_group(3)))[0],
    ]


def loop_parse(text: str):
    """parse_structure_file with every section left to its per-entry loop and
    every value built by its checked constructor: the reference the bulk
    passes and the unchecked builds must agree with."""
    with mock.patch.multiple(fileformat, _bulk_pairs=lambda lines, domain: ({}, 0),
                             _bulk_mapping=lambda lines, keys, values: ({}, 0),
                             _built=lambda cls, total, **values: cls(**values)):
        return parse_structure_file(text)


def test_every_corpus_structure_reads_back_as_itself(corpus, s3_control, klein_control):
    # the parser builds unchecked what the constructors build checked: equal
    # fields, the reference parse's repr (so its insertion orders), no view yet
    dense = [relabelled(gg, seed) for seed, gg in enumerate(dense_loop_structures())]
    for gg in [*corpus.values(), s3_control, klein_control, *dense]:
        for value in (gg, gg.base, gg.arrow_group, gg.object_group):
            text = emit_structure_file(value)
            parsed = parse_structure_file(text).structure
            assert parsed == value
            assert repr(parsed) == repr(loop_parse(text).structure)
            parts = [(parsed, value)]
            if isinstance(value, GroupGroupoid):
                parts = [(parsed.base, value.base), (parsed.arrow_group, value.arrow_group),
                         (parsed.object_group, value.object_group)]
            for part, made in parts:
                assert all(getattr(part, f.name) == getattr(made, f.name) for f in fields(made))
                assert part._view is None


def corpus_bases() -> list[str]:
    """Emitted files of all four kinds, small enough to corrupt by the thousand."""
    g = pair_groupoid(["a", "b"])
    morphism = Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects})
    return [
        emit_structure_file(cyclic_group(3)),
        emit_structure_file(g),
        emit_structure_file(group_pair_groupoid(cyclic_group(2))),
        emit_structure_file(morphism, from_path="g.gpd", to_path="g.gpd"),
    ]


def single_character_edit(text: str, rng: random.Random) -> str:
    i = rng.randrange(len(text) + 1)
    char = rng.choice(".=.=#: \n\t\f\u2028()|0123abz")
    how = rng.choice(("delete", "insert", "replace"))
    if how == "insert":
        return text[:i] + char + text[i:]
    return text[:i] + (char if how == "replace" else "") + text[i + 1:]


def entry_edit(text: str, rng: random.Random) -> str:
    """One token-level edit of an entry of a map or table section."""
    lines = text.split("\n")
    i = rng.choice([i for i, line in enumerate(lines) if "=" in line])
    name, _, payload = lines[i].partition(": ")
    toks = payload.split()
    j = rng.randrange(len(toks))
    tok = toks[j]
    parts = re.split("[.=]", tok)
    how = rng.choice(("swap", "shift", "undeclared", "repeat", "rekey", "delete"))
    if how == "swap":  # x.y=z as x=y.z, key=value as key.value
        toks[j] = f"{parts[0]}={parts[1]}.{parts[2]}" if len(parts) == 3 else ".".join(parts)
    elif how == "shift" and len(toks) > 1:  # a.b=c d.e=f as a.b.c d=e=f
        j = min(j, len(toks) - 2)
        toks[j : j + 2] = [".".join(toks[j].rsplit("=", 1)), "=".join(toks[j + 1].split(".", 1))]
    elif how == "undeclared":
        parts[rng.randrange(len(parts))] = "zz"
        toks[j] = f"{parts[0]}.{parts[1]}={parts[2]}" if len(parts) == 3 else "=".join(parts)
    elif how == "repeat":
        toks.insert(rng.randrange(len(toks) + 1), tok)
    elif how == "rekey":  # the same key with another value
        toks.append(tok.rsplit("=", 1)[0] + "=" + rng.choice(parts))
    else:
        del toks[j]
    lines[i] = f"{name}: " + " ".join(toks)
    return "\n".join(lines)


def outcome(parse, text: str):
    try:
        sf = parse(text)
    except GroupoidError as exc:
        return type(exc), str(exc)
    return sf.kind, repr(sf.structure)


@pytest.mark.parametrize("slice_lines", [fileformat._SLICE, 1])
def test_the_bulk_passes_agree_with_the_per_entry_loops(slice_lines):
    # a seeded corpus of corrupted files: the parse gives the loops' exception
    # and message or a structure of the same repr, and a section the bulk pass
    # refuses is one the loop refuses too
    rng = random.Random(slice_lines)
    inputs = [edit(base, rng) for base in corpus_bases()
              for edit in [single_character_edit] * 1000 + [entry_edit] * 300]
    returned = []

    def recording(loop):
        def run(entries, *sets_what_and_seed):
            out = loop(entries, *sets_what_and_seed)
            if sets_what_and_seed[0] is not None:  # not a morphism's f or f0
                returned.append(sets_what_and_seed)
            return out
        return run

    outcomes = set()
    with mock.patch.object(fileformat, "_SLICE", slice_lines):
        for text in inputs:
            want = outcome(loop_parse, text)
            with mock.patch.multiple(fileformat, _mapping=recording(fileformat._mapping),
                                     _pair_mapping=recording(fileformat._pair_mapping)):
                assert outcome(parse_structure_file, text) == want, text
            outcomes.add(want[0])
    assert returned == []
    assert {StructureSyntaxError, UnknownIdentifier, DuplicateDeclaration, MalformedTable,
            MalformedStructure, "group", "groupoid", "group_groupoid", "morphism"} <= outcomes


def test_the_loop_resumes_at_the_refused_run_when_no_key_repeats_before_it():
    # group-pair Z_3 has 21 arrow_group_op lines, six runs of 4: an undeclared
    # value in the last line leaves the loop one line to read, while a repeat
    # in the first run sends it back to the section's first line
    lines = emit_structure_file(group_pair_groupoid(cyclic_group(3))).split("\n")
    section = [i for i, line in enumerate(lines) if line.startswith("arrow_group_op:")]
    assert len(section) == 21
    last = lines[:]
    last[section[-1]] = re.sub("=[^=]*$", "=zz", lines[section[-1]])
    repeated = last[:]
    repeated[section[1]] += " " + lines[section[0]].split()[1]
    read = []
    loop = fileformat._pair_mapping

    def counting(entries, *args):
        def seen():
            for lineno, tok in entries:
                read.append(lineno)
                yield lineno, tok
        return loop(seen(), *args)

    for edited, read_lines in ((last, [section[-1]]), (repeated, section[:2])):
        text = "\n".join(edited)
        read.clear()
        with mock.patch.multiple(fileformat, _SLICE=4, _pair_mapping=counting):
            got = outcome(parse_structure_file, text)
        assert got == outcome(loop_parse, text)
        assert sorted(set(read)) == [i + 1 for i in read_lines]
    assert got[1] == f"line {section[1] + 1}: arrow_group_op entry for ((0|0),(0|0)) given twice"
    assert outcome(parse_structure_file, "\n".join(last))[1] == (
        f"line {section[-1] + 1}: unknown identifier 'zz' in arrow_group_op")


@pytest.mark.parametrize("section, entry, error, message", [
    ("op", "2.2=1", MalformedTable, "op must be keyed by exactly all ordered element pairs"),
    ("inv", "2=1", MalformedTable, "inverse must be keyed by exactly the elements"),
    ("unit", "1=(1|1)", MalformedStructure, "unit must be total on the object set"),
])
def test_a_file_complete_but_for_one_entry_names_the_gap(section, entry, error, message):
    value = cyclic_group(3) if section in ("op", "inv") else group_pair_groupoid(cyclic_group(3))
    lines = emit_structure_file(value).splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith(f"{section}:") and f" {entry}" in f" {line} ")
    lines[i] = re.sub(f" {re.escape(entry)}(?= |$)", "", lines[i])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_structure_file("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "path",
    ["", "p.gpd # copy", "p#.gpd", "a\nb.gpd", "a\r\nb.gpd", "a\rb.gpd", " p.gpd",
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


def _assert_the_path_reads_back(tmp_path, path):
    g = pair_groupoid(["a", "b"])
    m = Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects})
    (tmp_path / path).write_text(emit_structure_file(g), encoding="utf-8")
    text = emit_structure_file(m, from_path=path, to_path=path)
    spec = parse_structure_file(text).structure
    assert (spec.from_path, spec.to_path) == (path, path)
    assert emit_structure_file(spec) == text
    (tmp_path / "m.gpd").write_text(text, encoding="utf-8")
    loaded, src_sf, _ = load_morphism(str(tmp_path / "m.gpd"))
    assert loaded.f == m.f and src_sf.structure == g


def test_a_path_with_an_inner_space_reads_back(tmp_path):
    _assert_the_path_reads_back(tmp_path, "my g.gpd")


@pytest.mark.parametrize("path", ["a\u2028b.gpd", "a\fb.gpd", "a\x85b.gpd"])
def test_a_path_holding_a_splitlines_break_reads_back(tmp_path, path):
    # a break of str.splitlines() that open() keeps inside its line
    _assert_the_path_reads_back(tmp_path, path)


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
