import json
import subprocess
import sys
from dataclasses import replace

import pytest

from groupoids import (
    Morphism,
    cyclic_group,
    direct_product_groups,
    emit_structure_file,
    group_pair_groupoid,
    parse_structure_file,
)
from groupoids.cli import run_command

from conftest import s3_single_unit_control


@pytest.fixture()
def pair_z2_file(tmp_path):
    path = tmp_path / "pairZ2.gpd"
    path.write_text(emit_structure_file(group_pair_groupoid(cyclic_group(2))),
                    encoding="utf-8")
    return str(path)


@pytest.fixture()
def s3_control_file(tmp_path):
    path = tmp_path / "s3-single-unit.gpd"
    path.write_text(emit_structure_file(s3_single_unit_control()), encoding="utf-8")
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "broken.gpd"
    path.write_text("kind: groupoid\nobjects: u\narrows: x\nsource: x=q\n",
                    encoding="utf-8")
    return str(path)


def test_validate_valid_file(pair_z2_file, capsys):
    assert run_command(["validate", pair_z2_file]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_check_negative_control(s3_control_file, capsys):
    assert run_command(["check", s3_control_file, "--mode", "both"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "interchange" in out
    assert "012, 021, 102, 012" in out  # a concrete witness quadruple


def test_def31_reports_a_broken_inverse_as_a_plain_violation(tmp_path, capsys):
    # the unit and inverse laws of a morphism follow from M1+M2 only on valid
    # groupoids, and def31 runs on a base that is not
    gg = group_pair_groupoid(cyclic_group(2))
    path = tmp_path / "bad-inverse.gpd"
    base = replace(gg.base, inv={**gg.base.inv, "(0|1)": "(0|0)"})
    path.write_text(emit_structure_file(replace(gg, base=base)), encoding="utf-8")
    assert run_command(["check", str(path), "--mode", "def31"]) == 1
    out = capsys.readouterr().out
    assert "base:G3-left-inverse" in out
    assert ("def31:add-map:inverse-compatibility: 6 violation(s)\n"
            "  at (((0|1)|(1|0))): f(inv(((0|1)|(1|0)))) = (0|1)"
            " but inv(f(((0|1)|(1|0)))) = (1|1)\n") in out


def test_parse_error_exit_code(broken_file, capsys):
    assert run_command(["validate", broken_file]) == 2
    assert "line 4" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert run_command(["validate", str(tmp_path / "nope.gpd")]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run_command(["frobnicate"]) == 2
    assert run_command([]) == 2


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0


def test_wrong_kind_for_subcommand(tmp_path, capsys):
    path = tmp_path / "z2.gpd"
    path.write_text(emit_structure_file(cyclic_group(2)), encoding="utf-8")
    assert run_command(["check", str(path)]) == 2
    assert "expected a group_groupoid" in capsys.readouterr().err


def test_identities_and_reconstruct(pair_z2_file, s3_control_file, capsys):
    assert run_command(["identities", pair_z2_file]) == 0
    assert run_command(["reconstruct", pair_z2_file]) == 0
    # the gate rejects structures that fail the compatibility check
    assert run_command(["identities", s3_control_file]) == 1
    assert run_command(["reconstruct", s3_control_file]) == 1


@pytest.mark.parametrize("command", [["isotropy", "--bundle"], ["anchor"]])
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_bundle_and_anchor_refuse_a_structure_that_fails_def32(command, fmt, s3_control_file,
                                                               capsys):
    # single-unit S_3: the loops are all six arrows and form a group-subgroupoid,
    # but interchange fails, so def32's report is printed instead of a bundle
    assert run_command(["check", s3_control_file, "--mode", "def32", "--format", fmt]) == 1
    expected = capsys.readouterr().out
    assert run_command([command[0], s3_control_file, *command[1:], "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


def test_construct_emits_parseable_files(tmp_path, capsys):
    assert run_command(["construct", "pair", "--objects", "a", "b"]) == 0
    sf = parse_structure_file(capsys.readouterr().out)
    assert sf.kind == "groupoid" and len(sf.structure.arrows) == 4

    assert run_command(["construct", "group-pair", "--group", "cyclic:3"]) == 0
    assert parse_structure_file(capsys.readouterr().out).kind == "group_groupoid"

    assert run_command(["construct", "null", "--group", "cyclic:2*cyclic:2"]) == 0
    sf = parse_structure_file(capsys.readouterr().out)
    assert len(sf.structure.base.arrows) == 4

    assert run_command(["construct", "group", "--group", "symmetric:3"]) == 0
    assert parse_structure_file(capsys.readouterr().out).kind == "group"

    out_path = tmp_path / "out.gpd"
    assert run_command(["construct", "single-unit", "--group", "cyclic:4",
                        "--output", str(out_path)]) == 0
    assert parse_structure_file(out_path.read_text()).kind == "group_groupoid"


def test_construct_product(tmp_path, capsys):
    a = tmp_path / "a.gpd"
    b = tmp_path / "b.gpd"
    for path, spec in ((a, "cyclic:2"), (b, "cyclic:3")):
        assert run_command(["construct", "group-pair", "--group", spec,
                            "--output", str(path)]) == 0
    assert run_command(["construct", "product", str(a), str(b)]) == 0
    sf = parse_structure_file(capsys.readouterr().out)
    assert len(sf.structure.base.arrows) == 36

    good = tmp_path / "good.gpd"
    broken = tmp_path / "broken.gpd"
    assert run_command(["construct", "pair", "--objects", "u", "v",
                        "--output", str(good)]) == 0
    g = parse_structure_file(good.read_text()).structure
    broken.write_text(emit_structure_file(replace(g, inv={**g.inv, "(u|v)": "(u|u)"})))
    assert run_command(["construct", "product", str(good), str(broken)]) == 2
    assert "factors must be valid groupoids" in capsys.readouterr().err


@pytest.fixture()
def files(tmp_path):
    """Paths to a pair groupoid on a, b, a null groupoid on u, v, the groups
    Z_2 and Z_3, and an identity morphism file of group-pair Z_2."""
    paths = {name: str(tmp_path / name)
             for name in ("pair.gpd", "null.gpd", "z2.grp", "z3.grp", "pairZ2.gpd", "id.mor")}
    for name, argv in (("pair.gpd", ["pair", "--objects", "a", "b"]),
                       ("null.gpd", ["null", "--objects", "u", "v"]),
                       ("z2.grp", ["group", "--group", "cyclic:2"]),
                       ("z3.grp", ["group", "--group", "cyclic:3"]),
                       ("pairZ2.gpd", ["group-pair", "--group", "cyclic:2"])):
        assert run_command(["construct", *argv, "--output", paths[name]]) == 0
    g = group_pair_groupoid(cyclic_group(2)).base
    identity = Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects})
    with open(paths["id.mor"], "w", encoding="utf-8") as handle:
        handle.write(emit_structure_file(identity, from_path="pairZ2.gpd", to_path="pairZ2.gpd"))
    return paths


def _ran(capsys, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    code = run_command(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", ["pair.gpd", "z2.grp"])
def test_validate_a_groupoid_file_and_a_group_file(name, files, capsys):
    assert _ran(capsys, "validate", files[name]) == (0, "PASS\n", "")


def test_identities_on_a_groupoid_file(files, capsys):
    # the groupoid branch of the gate: validate_groupoid, then structure_identities
    assert _ran(capsys, "identities", files["null.gpd"]) == (
        0, "PASS\nnote isotropy-isomorphic [not-applicable]: groupoid is not transitive\n", "")


def test_construct_null_from_objects(capsys):
    assert _ran(capsys, "construct", "null", "--objects", "u", "v") == (0, (
        "kind: groupoid\nobjects: u v\narrows: u v\nsource: u=u v=v\ntarget: u=u v=v\n"
        "unit: u=u v=v\ninverse: u=u v=v\nproduct: u.u=u v.v=v\n"), "")


@pytest.mark.parametrize("argv, message", [
    (["null", "--objects", "u", "--group", "cyclic:2"],
     "construct null takes --objects or --group, not both"),
    (["null"], "construct null needs --objects or --group"),
    (["single-unit"], "construct single-unit needs --group"),
], ids=["null-both", "null-neither", "single-unit-no-group"])
def test_construct_usage_errors(argv, message, capsys):
    assert _ran(capsys, "construct", *argv) == (2, "", f"error: {message}\n")


def test_construct_product_of_two_group_files(files, capsys):
    product = emit_structure_file(direct_product_groups(cyclic_group(2), cyclic_group(3)))
    assert _ran(capsys, "construct", "product", files["z2.grp"], files["z3.grp"]) == (
        0, product, "")


@pytest.mark.parametrize("left, right, message", [
    ("pair.gpd", "z2.grp", "cannot multiply kind groupoid by kind group"),
    ("id.mor", "id.mor", "construct product takes groupoid, group_groupoid or group files"),
], ids=["two-kinds", "two-morphisms"])
def test_construct_product_refuses_its_files(left, right, message, files, capsys):
    assert _ran(capsys, "construct", "product", files[left], files[right]) == (
        2, "", f"error: {message}\n")


def test_sub_on_a_groupoid_file(files, capsys):
    assert _ran(capsys, "sub", files["pair.gpd"], "--arrows", "(a|b)", "--objects", "a") == (
        1, "FAIL\ninverse-closed: 1 violation(s)\n  at ((a|b)): inverse (b|a) escapes the subset\n"
        "target-image: 2 violation(s)\n  at (a): object is not an endpoint of any chosen arrow\n"
        "  at (b): an arrow's endpoint falls outside the object subset\n", "")


def test_isotropy_bundle_in_machine_format(files, capsys):
    out = json.dumps({"arrows": ["(0|0)", "(1|1)"], "objects": ["0", "1"]}, indent=2) + "\n"
    assert _ran(capsys, "isotropy", files["pairZ2.gpd"], "--bundle", "--format", "machine") == (
        0, out, "")


def test_affine_quad_in_machine_format(capsys):
    quad = {
        "degenerate": False,
        "diagonal_midpoints": ["(5/2, 0)", "(5/2, 0)"],
        "kind": "B",
        "parallelogram": True,
        "points": {"B1": "(3, 0)", "B2": "(1, 1)", "B3": "(2, 0)", "B4": "(4, -1)"},
        "side_labels": ["B1B2", "B3B4"],
        "slopes": ["-1/2", "-1/2"],
        "squared_lengths": ["5", "5"],
    }
    out = json.dumps(quad, indent=2) + "\n"
    assert _ran(capsys, "affine", "quad", "--kind", "B", "--params", "1", "1",
                "--format", "machine") == (0, out, "")


def test_the_trivial_spec(capsys):
    assert _ran(capsys, "construct", "group", "--group", "trivial") == (
        0, "kind: group\nelements: e\nop: e.e=e\nid: e\ninv: e=e\n", "")


def test_cyclic_zero_is_a_bad_spec(capsys):
    assert _ran(capsys, "construct", "group", "--group", "cyclic:0") == (
        2, "", "error: bad group spec 'cyclic:0'\n")


def test_construct_rejects_noncommutative_single_unit(capsys):
    assert run_command(["construct", "single-unit", "--group", "symmetric:3"]) == 1
    assert "commut" in capsys.readouterr().err


def test_construct_bad_specs(capsys):
    assert run_command(["construct", "group", "--group", "dihedral:4"]) == 2
    assert run_command(["construct", "group", "--group", "cyclic:zero"]) == 2
    assert run_command(["construct", "group", "--group", "symmetric:5"]) == 2
    assert run_command(["construct", "pair"]) == 2
    assert run_command(["construct", "product", "one-file-only"]) == 2
    # construct emits a structure file, not a report, so it takes no --format
    assert run_command(["construct", "pair", "--objects", "a", "--format", "text"]) == 2


def test_sub_exit_codes(pair_z2_file, capsys):
    assert run_command(["sub", pair_z2_file,
                        "--arrows", "(0|0)", "(1|1)", "--objects", "0", "1"]) == 0
    assert run_command(["sub", pair_z2_file,
                        "--arrows", "(0|1)", "--objects", "0", "1"]) == 1
    assert run_command(["sub", pair_z2_file,
                        "--arrows", "zz", "--objects", "0"]) == 2


def test_isotropy_object_and_bundle(pair_z2_file, capsys):
    assert run_command(["isotropy", pair_z2_file, "--object", "0"]) == 0
    sf = parse_structure_file(capsys.readouterr().out)
    assert sf.kind == "group" and sf.structure.elements == frozenset({"(0|0)"})

    assert run_command(["isotropy", pair_z2_file, "--bundle"]) == 0
    out = capsys.readouterr().out
    assert "arrows: (0|0) (1|1)" in out

    assert run_command(["isotropy", pair_z2_file, "--object", "7"]) == 2


@pytest.mark.parametrize("argv", [["sub"], ["isotropy", "--bundle"],
                                  ["isotropy", "--object", "0"]],
                         ids=["sub", "isotropy-bundle", "isotropy-object"])
def test_a_file_lacking_a_source_entry_is_a_usage_error(argv, tmp_path, capsys):
    text = emit_structure_file(group_pair_groupoid(cyclic_group(2)))
    path = tmp_path / "no-source.gpd"
    path.write_text(text.replace("source: (0|0)=0 (0|1)=0", "source: (0|0)=0"),
                    encoding="utf-8")
    assert run_command([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr().err == "error: src must be total on the arrow set\n"


def test_isotropy_bundle_needs_group_structure(tmp_path, capsys):
    path = tmp_path / "plain.gpd"
    run_command(["construct", "pair", "--objects", "a", "b", "--output", str(path)])
    capsys.readouterr()
    assert run_command(["isotropy", str(path), "--bundle"]) == 2


def test_morphism_and_anchor(pair_z2_file, tmp_path, capsys):
    gg = group_pair_groupoid(cyclic_group(2))
    g = gg.base
    m_path = tmp_path / "idmor.gpd"
    body = emit_structure_file(
        Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects}),
        from_path="pairZ2.gpd", to_path="pairZ2.gpd",
    )
    m_path.write_text(body, encoding="utf-8")
    assert run_command(["morphism", str(m_path)]) == 0
    assert run_command(["validate", str(m_path)]) == 0
    capsys.readouterr()
    assert run_command(["anchor", pair_z2_file]) == 0
    assert capsys.readouterr().out == "PASS\n"
    assert run_command(["anchor", pair_z2_file, "--format", "machine"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "notes": [],\n  "valid": true,\n  "violations": []\n}\n'
    )


@pytest.mark.parametrize("command", ["morphism", "validate"])
def test_a_partial_morphism_file_is_a_usage_error(command, pair_z2_file, tmp_path, capsys):
    m_path = tmp_path / "partial.gpd"
    m_path.write_text("kind: morphism\nfrom: pairZ2.gpd\nto: pairZ2.gpd\n"
                      "f: (0|0)=(0|0)\nf0: 0=0 1=1\n", encoding="utf-8")
    assert run_command([command, str(m_path)]) == 2
    assert capsys.readouterr().err == "error: arrow map must be total on the source arrows\n"


def test_affine_subcommands(capsys):
    assert run_command(["affine", "verify"]) == 0
    assert capsys.readouterr().out == "PASS\n"
    # the decision takes no samples and no seed; the flags are accepted and ignored
    assert run_command(["affine", "verify", "--samples", "25", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "PASS\n"
    assert run_command(["affine", "quad", "--kind", "A",
                        "--params", "1", "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "(1/2, 1)" in out and "-1/2" in out
    assert run_command(["affine", "quad", "--kind", "B", "--params", "1", "1"]) == 0
    capsys.readouterr()
    assert run_command(["affine", "quad", "--kind", "A", "--params", "1"]) == 2
    assert run_command(["affine", "quad", "--kind", "B",
                        "--params", "1", "x"]) == 2
    assert run_command(["affine", "verify", "--samples", "0"]) == 0
    assert "--samples" not in capsys.readouterr().out
    assert run_command(["affine", "verify", "--help"]) == 0
    assert "--samples" not in capsys.readouterr().out


def test_machine_format_mirrors_report(s3_control_file, capsys):
    assert run_command(["check", s3_control_file, "--format", "machine"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert set(payload) == {"valid", "violations", "notes"}
    assert all(set(v) == {"rule", "witness", "message"}
               for v in payload["violations"])


def test_reports_are_byte_identical(s3_control_file, capsys):
    run_command(["check", s3_control_file])
    first = capsys.readouterr()
    run_command(["check", s3_control_file])
    second = capsys.readouterr()
    assert first.out == second.out


def test_module_entry_point(pair_z2_file):
    done = subprocess.run(
        [sys.executable, "-m", "groupoids", "validate", pair_z2_file],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert done.stdout == "PASS\n"


def test_check_mode_choices_are_overlay_modes(capsys):
    # cli spells the choices itself so that building the parser loads no checker
    from groupoids import cli, overlay

    assert cli._MODES == overlay.MODES
    assert run_command(["check", "--help"]) == 0
    assert "--mode {" + ",".join(overlay.MODES) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["morphism", "validate"])
@pytest.mark.parametrize("ends, parses", [(("pairZ2.gpd", "pairZ2.gpd"), 2),
                                          (("pairZ2.gpd", "plainZ2.gpd"), 3)],
                         ids=["same-file", "two-files"])
def test_each_file_of_a_morphism_is_parsed_once(command, ends, parses, pair_z2_file, tmp_path,
                                                monkeypatch, capsys):
    from groupoids import fileformat

    # pair_z2_file has written pairZ2.gpd into tmp_path
    g = group_pair_groupoid(cyclic_group(2)).base
    (tmp_path / "plainZ2.gpd").write_text(emit_structure_file(g), encoding="utf-8")
    path = tmp_path / "idmor.gpd"
    path.write_text(emit_structure_file(
        Morphism(g, g, {x: x for x in g.arrows}, {u: u for u in g.objects}),
        from_path=ends[0], to_path=ends[1],
    ), encoding="utf-8")
    calls = []
    parse = fileformat.parse_structure_file
    monkeypatch.setattr(fileformat, "parse_structure_file",
                        lambda text: calls.append(1) or parse(text))
    assert run_command([command, str(path)]) == 0
    assert capsys.readouterr().out == "PASS\n"
    assert len(calls) == parses


def _loaded_modules(argv, code=0) -> set[str]:
    """The modules a fresh ``python -m groupoids`` process imports for argv,
    which must exit with code."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "groupoids", *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr[-500:]
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["check", "--help"], 0),
                                        (["frobnicate"], 2)],
                         ids=["help", "check-help", "usage-error"])
def test_help_and_usage_errors_load_no_checker(argv, code):
    loaded = _loaded_modules(argv, code)
    assert {m for m in loaded if m.startswith("groupoids")} == {"groupoids", "groupoids.cli"}


@pytest.mark.parametrize("argv", [["affine", "verify"],
                                  ["affine", "quad", "--kind", "B", "--params", "1", "1/2"]],
                         ids=["verify", "quad"])
def test_the_affine_commands_load_only_report_and_affine(argv):
    loaded = _loaded_modules(argv)
    assert {m for m in loaded if m.startswith("groupoids")} == {
        "groupoids", "groupoids.cli", "groupoids.report", "groupoids.affine"}


@pytest.mark.parametrize("argv", [["validate"], ["check"], ["identities"], ["reconstruct"]],
                         ids=lambda argv: argv[0])
def test_the_file_checks_skip_affine_construct_and_sub(argv, pair_z2_file):
    loaded = _loaded_modules([*argv, pair_z2_file])
    assert "groupoids.fileformat" in loaded
    assert not loaded & {"groupoids.affine", "groupoids.construct", "groupoids.sub",
                         "fractions"}


@pytest.mark.parametrize("argv", [["anchor"], ["isotropy", "--bundle"]],
                         ids=["anchor", "isotropy-bundle"])
def test_the_anchor_and_the_bundle_skip_affine_and_construct(argv, pair_z2_file):
    # the anchor builds its pair groupoid target from core, not from construct
    loaded = _loaded_modules([argv[0], pair_z2_file, *argv[1:]])
    assert "groupoids.sub" in loaded
    assert not loaded & {"groupoids.affine", "groupoids.construct", "fractions"}
