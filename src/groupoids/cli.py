"""Command-line front end.

Every subcommand reads structure files, runs the matching validator or
constructor, and prints a report.  Exit codes: 0 when the report is clean,
1 when a check found violations, 2 on parse or usage errors.  Output is
deterministic: identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import groupby

from . import affine
from .construct import (
    direct_product_group_groupoids,
    direct_product_groupoids,
    direct_product_groups,
    group_pair_groupoid,
    null_group_groupoid,
    null_groupoid,
    pair_groupoid,
    single_unit_group_groupoid,
)
from .core import (
    isotropy_group,
    structure_identities,
    validate_groupoid,
    validate_morphism,
)
from .fileformat import (
    StructureFile,
    emit_structure_file,
    load_morphism,
    load_structure_file,
)
from .grouptable import (
    GroupTable,
    cyclic_group,
    symmetric_group,
    trivial_group,
    validate_group,
)
from .overlay import (
    MODES,
    GroupGroupoid,
    check_derived_identities,
    check_group_groupoid,
    reconstruct_from_group,
    structural_report,
    validate_gg_morphism,
)
from .report import (
    GroupoidError,
    InternalCheckFailed,
    InvalidInput,
    NonCommutativeGroup,
    ValidationReport,
)
from .sub import SubStructure, anchor_morphism, check_group_subgroupoid, check_subgroupoid, isotropy_bundle

__all__ = ["run_command", "main"]

_MAX_SHOWN = 5  # per rule, in text reports


def _render_report(report: ValidationReport, fmt: str) -> str:
    if fmt == "machine":
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    lines = ["PASS" if report.valid else "FAIL"]
    for rule, group in groupby(report.violations, key=lambda v: v.rule):
        found = list(group)
        lines.append(f"{rule}: {len(found)} violation(s)")
        for v in found[:_MAX_SHOWN]:
            lines.append(f"  at ({', '.join(v.witness)}): {v.message}")
        if len(found) > _MAX_SHOWN:
            lines.append(f"  ... and {len(found) - _MAX_SHOWN} more")
    for note in report.notes:
        lines.append(f"note {note.rule} [{note.status}]: {note.message}")
    return "\n".join(lines)


def _finish(report: ValidationReport, fmt: str) -> int:
    print(_render_report(report, fmt))
    return 0 if report.valid else 1


def _group_from_spec(spec: str) -> GroupTable:
    """trivial | cyclic:N | symmetric:N, joined by '*' for direct products."""
    factors = []
    for part in spec.split("*"):
        name, _, arg = part.partition(":")
        if name == "trivial" and not arg:
            factors.append(trivial_group())
        elif name == "cyclic":
            n = _positive_int(arg, part)
            factors.append(cyclic_group(n))
        elif name == "symmetric":
            n = _positive_int(arg, part)
            if n > 4:
                raise InvalidInput(f"symmetric:{n} is too large for table output")
            factors.append(symmetric_group(n))
        else:
            raise InvalidInput(f"unknown group spec {part!r}")
    table = factors[0]
    for other in factors[1:]:
        table = direct_product_groups(table, other)
    return table


def _positive_int(text: str, where: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise InvalidInput(f"bad group spec {where!r}") from None
    if n < 1:
        raise InvalidInput(f"bad group spec {where!r}")
    return n


def _want(sf: StructureFile, *kinds: str) -> None:
    if sf.kind not in kinds:
        raise InvalidInput(f"expected a {' or '.join(kinds)} file, got kind {sf.kind}")


# ---------------------------------------------------------------- handlers


def _cmd_validate(args) -> int:
    sf = load_structure_file(args.file)
    if sf.kind == "groupoid":
        report = validate_groupoid(sf.structure)
    elif sf.kind == "group_groupoid":
        report = structural_report(sf.structure)
    elif sf.kind == "group":
        report = validate_group(sf.structure)
    else:
        return _cmd_morphism(args)
    return _finish(report, args.format)


def _cmd_check(args) -> int:
    sf = load_structure_file(args.file)
    _want(sf, "group_groupoid")
    return _finish(check_group_groupoid(sf.structure, mode=args.mode), args.format)


def _gate(sf: StructureFile) -> ValidationReport:
    """validate_groupoid for a groupoid, check_group_groupoid in mode def32
    for a group-groupoid."""
    if sf.kind == "groupoid":
        return validate_groupoid(sf.structure)
    return check_group_groupoid(sf.structure, mode="def32")


def _cmd_gated(args) -> int:
    """Print args.checks[kind](structure) once the structure passes _gate,
    else its failing report."""
    sf = load_structure_file(args.file)
    _want(sf, *args.checks)
    gate = _gate(sf)
    return _finish(args.checks[sf.kind](sf.structure) if gate.valid else gate, args.format)


def _emit_out(structure, args) -> int:
    text = emit_structure_file(structure)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_construct(args) -> int:
    what = args.what
    if what == "pair":
        if not args.objects:
            raise InvalidInput("construct pair needs --objects")
        return _emit_out(pair_groupoid(args.objects), args)
    if what == "null":
        if args.objects and args.group:
            raise InvalidInput("construct null takes --objects or --group, not both")
        if args.objects:
            return _emit_out(null_groupoid(args.objects), args)
        if args.group:
            return _emit_out(null_group_groupoid(_group_from_spec(args.group)), args)
        raise InvalidInput("construct null needs --objects or --group")
    if what in ("group", "single-unit", "group-pair"):
        if not args.group:
            raise InvalidInput(f"construct {what} needs --group")
        table = _group_from_spec(args.group)
        if what == "group":
            return _emit_out(table, args)
        if what == "single-unit":
            return _emit_out(single_unit_group_groupoid(table), args)
        return _emit_out(group_pair_groupoid(table), args)
    # what == "product"
    if len(args.files) != 2:
        raise InvalidInput("construct product needs exactly two FILE arguments")
    left, right = (load_structure_file(p) for p in args.files)
    if left.kind != right.kind:
        raise InvalidInput(f"cannot multiply kind {left.kind} by kind {right.kind}")
    if left.kind == "groupoid":
        return _emit_out(direct_product_groupoids(left.structure, right.structure), args)
    if left.kind == "group_groupoid":
        product, _, _ = direct_product_group_groupoids(left.structure, right.structure)
        return _emit_out(product, args)
    if left.kind == "group":
        return _emit_out(direct_product_groups(left.structure, right.structure), args)
    raise InvalidInput("construct product takes groupoid, group_groupoid or group files")


def _cmd_sub(args) -> int:
    sf = load_structure_file(args.file)
    _want(sf, "groupoid", "group_groupoid")
    s = SubStructure(arrows=frozenset(args.arrows), objects=frozenset(args.objects))
    if sf.kind == "groupoid":
        return _finish(check_subgroupoid(sf.structure, s), args.format)
    return _finish(check_group_subgroupoid(sf.structure, s), args.format)


def _cmd_isotropy(args) -> int:
    sf = load_structure_file(args.file)
    _want(sf, "groupoid", "group_groupoid")
    if args.bundle:
        _want(sf, "group_groupoid")
        gate = _gate(sf)
        if not gate.valid:
            return _finish(gate, args.format)
        s = isotropy_bundle(sf.structure)
        if args.format == "machine":
            print(json.dumps(
                {"arrows": sorted(s.arrows), "objects": sorted(s.objects)},
                indent=2, sort_keys=True,
            ))
        else:
            print("objects: " + " ".join(sorted(s.objects)))
            print("arrows: " + " ".join(sorted(s.arrows)))
        return 0
    base = sf.structure if sf.kind == "groupoid" else sf.structure.base
    table = isotropy_group(base, args.object)
    sys.stdout.write(emit_structure_file(table))
    return 0


def _cmd_morphism(args) -> int:
    m, src_sf, tgt_sf = load_morphism(args.file)
    if src_sf.kind == "group_groupoid" and tgt_sf.kind == "group_groupoid":
        report = validate_gg_morphism(m, src_sf.structure, tgt_sf.structure)
    else:
        report = validate_morphism(m)
    return _finish(report, args.format)


def _anchor_report(gg: GroupGroupoid) -> ValidationReport:
    anchor_morphism(gg)  # raises unless the anchor passes validate_gg_morphism
    return ValidationReport()


def _cmd_affine_verify(args) -> int:
    return _finish(affine.aff_verify(), args.format)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"bad rational number {text!r}") from None


def _cmd_affine_quad(args) -> int:
    wanted = 3 if args.kind == "A" else 2
    if len(args.params) != wanted:
        raise InvalidInput(f"kind {args.kind} takes {wanted} --params values")
    quad = affine.aff_parallelograms(args.kind, tuple(_fraction(p) for p in args.params))
    if args.format == "machine":
        print(json.dumps(quad.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"kind {quad.kind}: " + ("parallelogram" if quad.is_parallelogram else "degenerate"))
    for label, point in zip(quad.labels, quad.points):
        print(f"  {label} = {point}")
    print(f"  diagonal midpoints: {quad.midpoint_13} and {quad.midpoint_24}")
    if not quad.degenerate:
        for label, slope, sq in zip(quad.side_labels, quad.slopes, quad.squared_lengths):
            print(f"  side {label}: slope {slope}, squared length {sq}")
    return 0


# ------------------------------------------------------------------ parser


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "machine"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="Validate, construct and explore finite groupoids "
        "and their compatible group structures.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="axioms of a structure file")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_validate)

    p = subs.add_parser("check", help="group-compatibility of a group_groupoid file")
    p.add_argument("file")
    p.add_argument("--mode", choices=MODES, default="both")
    _add_format(p)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser("identities", help="consequence identities of a valid structure")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_gated, checks={
        "groupoid": structure_identities, "group_groupoid": check_derived_identities,
    })

    p = subs.add_parser("reconstruct", help="recompute product and inverse from the group")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_gated, checks={"group_groupoid": reconstruct_from_group})

    p = subs.add_parser("construct", help="build a structure and emit its file")
    p.add_argument("what", choices=("pair", "null", "group", "single-unit",
                                    "group-pair", "product"))
    p.add_argument("files", nargs="*", metavar="FILE",
                   help="two input files, for 'product' only")
    p.add_argument("--objects", nargs="+", default=[])
    p.add_argument("--group", help="trivial | cyclic:N | symmetric:N, '*'-joined")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(handler=_cmd_construct)

    p = subs.add_parser("sub", help="test a candidate substructure")
    p.add_argument("file")
    p.add_argument("--arrows", nargs="*", default=[])
    p.add_argument("--objects", nargs="*", default=[])
    _add_format(p)
    p.set_defaults(handler=_cmd_sub)

    p = subs.add_parser("isotropy", help="isotropy group at an object, or the bundle")
    p.add_argument("file")
    where = p.add_mutually_exclusive_group(required=True)
    where.add_argument("--object")
    where.add_argument("--bundle", action="store_true")
    _add_format(p)
    p.set_defaults(handler=_cmd_isotropy)

    p = subs.add_parser("morphism", help="validate a morphism file")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_morphism)

    p = subs.add_parser("anchor", help="validate the source-target morphism")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(handler=_cmd_gated, checks={"group_groupoid": _anchor_report})

    p = subs.add_parser("affine", help="the affine-plane model over the rationals")
    affine_subs = p.add_subparsers(dest="affine_command", required=True)

    q = affine_subs.add_parser("verify", help="decide every law at an affine basis")
    # accepted and ignored: the decision has no samples and no seed
    q.add_argument("--samples", type=int, help=argparse.SUPPRESS)
    q.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    _add_format(q)
    q.set_defaults(handler=_cmd_affine_verify)

    q = affine_subs.add_parser("quad", help="the two parallelogram families")
    q.add_argument("--kind", choices=("A", "B"), required=True)
    q.add_argument("--params", nargs="+", required=True,
                   help="3 rationals for kind A, 2 for kind B")
    _add_format(q)
    q.set_defaults(handler=_cmd_affine_quad)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; keep both
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (NonCommutativeGroup, InternalCheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GroupoidError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
