"""The line-oriented structure-file format: parse, emit, load.

A file is a sequence of ``section: entries`` lines; ``#`` starts a comment and
blank lines are ignored.  The first declaration must be ``kind:`` (groupoid,
group_groupoid, group or morphism).  Declarations list whitespace-separated
tokens; maps list ``key=value`` entries and the product/op tables list
``x.y=z`` entries.  A section may be continued over any number of lines.

Identifiers may not contain whitespace, '#', '=' or '.', and '(', '|' and ')'
only as a pair token (x|y) of two identifiers.  Every identifier an
entry references must be declared in the same file, except in morphism files,
whose maps refer to the two endpoint files named by ``from:`` and ``to:``.
Each of those takes the rest of its line as a path, which must be non-empty
and hold no '#'; the emitter refuses a path that would not read back.

Parsing is strict and every error carries its 1-based line number.  Emitting
is canonical (sorted entries, fixed wrapping), so parse(emit(s)) == s.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

from .core import FiniteGroupoid, Morphism
from .grouptable import GroupTable, closure_report, is_identifier
from .overlay import GroupGroupoid
from .report import GroupoidError, InvalidInput

__all__ = [
    "ParseError",
    "StructureSyntaxError",
    "DuplicateDeclaration",
    "UnknownIdentifier",
    "MorphismSpec",
    "StructureFile",
    "parse_structure_file",
    "emit_structure_file",
    "load_structure_file",
    "load_morphism",
]

_GROUPOID_SECTIONS = (
    "objects",
    "arrows",
    "source",
    "target",
    "unit",
    "inverse",
    "product",
)
_GG_SECTIONS = _GROUPOID_SECTIONS + (
    "arrow_group_op",
    "arrow_group_id",
    "arrow_group_inv",
    "object_group_op",
    "object_group_id",
    "object_group_inv",
)
SECTIONS = {
    "groupoid": _GROUPOID_SECTIONS,
    "group_groupoid": _GG_SECTIONS,
    "group": ("elements", "op", "id", "inv"),
    "morphism": ("from", "to", "f", "f0"),
}

# sections whose payload is a single path, taken verbatim to end of line
_PATH_SECTIONS = ("from", "to")


class ParseError(GroupoidError):
    """A problem in a structure file, located by 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class StructureSyntaxError(ParseError):
    pass


class DuplicateDeclaration(ParseError):
    pass


class UnknownIdentifier(ParseError):
    pass


@dataclass(frozen=True)
class MorphismSpec:
    """An unresolved morphism: maps plus the two file paths they refer to."""

    from_path: str
    to_path: str
    f: Mapping[str, str]
    f0: Mapping[str, str]


@dataclass(frozen=True)
class StructureFile:
    kind: str
    structure: FiniteGroupoid | GroupTable | GroupGroupoid | MorphismSpec


def _check_identifier(tok: str, line: int) -> str:
    if not is_identifier(tok):
        raise StructureSyntaxError(f"bad identifier {tok!r}", line)
    return tok


def _scan(text: str):
    """Yield (line, section, payload) with comments and blanks stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise StructureSyntaxError("expected 'section: entries'", lineno)
        name, _, payload = line.partition(":")
        yield lineno, name.strip(), payload.strip()


def _declarations(entries, what: str) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    for lineno, tok in entries:
        _check_identifier(tok, lineno)
        if tok in seen:
            raise DuplicateDeclaration(f"{what} '{tok}' declared twice", lineno)
        seen.add(tok)
        out.append(tok)
    return out


def _mapping(
    entries, keys: set[str] | None, values: set[str] | None, what: str
) -> dict[str, str]:
    """Parse key=value entries; a side without a declared set takes any identifier."""
    out: dict[str, str] = {}
    for lineno, tok in entries:
        if tok.count("=") != 1:
            raise StructureSyntaxError(f"expected 'key=value' in {what}, got {tok!r}", lineno)
        k, v = tok.split("=")
        for part, declared in ((k, keys), (v, values)):
            if declared is None:
                _check_identifier(part, lineno)
            elif part not in declared:
                raise UnknownIdentifier(f"unknown identifier '{part}' in {what}", lineno)
        if k in out:
            raise DuplicateDeclaration(f"{what} entry for '{k}' given twice", lineno)
        out[k] = v
    return out


def _pair_mapping(entries, domain: set[str], what: str) -> dict[tuple[str, str], str]:
    out: dict[tuple[str, str], str] = {}
    for lineno, tok in entries:
        if tok.count("=") != 1:
            raise StructureSyntaxError(f"expected 'x.y=z' in {what}, got {tok!r}", lineno)
        key, v = tok.split("=")
        if key.count(".") != 1:
            raise StructureSyntaxError(f"expected 'x.y=z' in {what}, got {tok!r}", lineno)
        x, y = key.split(".")
        for part in (x, y, v):
            if part not in domain:
                raise UnknownIdentifier(f"unknown identifier '{part}' in {what}", lineno)
        if (x, y) in out:
            raise DuplicateDeclaration(f"{what} entry for ({x},{y}) given twice", lineno)
        out[(x, y)] = v
    return out


def _single(entries, kind_line: int, what: str) -> tuple[int, str]:
    """The one (line, entry) of a single-valued section."""
    if not entries:
        raise StructureSyntaxError(f"missing section '{what}'", kind_line)
    if len(entries) > 1 and entries[1][0] == entries[0][0]:
        raise StructureSyntaxError(f"section '{what}' takes one identifier", entries[0][0])
    if len(entries) > 1:
        raise DuplicateDeclaration(f"section '{what}' given twice", entries[1][0])
    return entries[0]


def parse_structure_file(text: str) -> StructureFile:
    """Parse one structure file; raises a ParseError subclass on any defect."""
    kind: str | None = None
    kind_line = 1
    sections: dict[str, list[tuple[int, str]]] = {}
    for lineno, name, payload in _scan(text):
        if name == "kind":
            if kind is not None:
                raise DuplicateDeclaration("kind declared twice", lineno)
            if payload not in SECTIONS:
                raise StructureSyntaxError(f"unknown kind '{payload}'", lineno)
            kind = payload
            kind_line = lineno
            continue
        if kind is None:
            raise StructureSyntaxError("the first declaration must be 'kind:'", lineno)
        if name not in SECTIONS[kind]:
            raise StructureSyntaxError(f"unknown section '{name}' for kind {kind}", lineno)
        bucket = sections.setdefault(name, [])
        if name in _PATH_SECTIONS:
            if not payload:
                raise StructureSyntaxError(f"section '{name}' needs a path", lineno)
            bucket.append((lineno, payload))
        else:
            bucket.extend((lineno, tok) for tok in payload.split())
    if kind is None:
        raise StructureSyntaxError("missing 'kind:' declaration", 1)

    def need(name: str) -> list[tuple[int, str]]:
        entries = sections.get(name, [])
        if not entries and name in ("objects", "arrows", "elements"):
            raise StructureSyntaxError(f"section '{name}' is missing or empty", kind_line)
        return entries

    # parse every section before constructing: a ParseError beats a shape error
    def table_fields(prefix: str, elements: set[str]) -> dict:
        op = _pair_mapping(need(prefix + "op"), elements, prefix + "op")
        line, identity = _single(sections.get(prefix + "id", []), kind_line, prefix + "id")
        if _check_identifier(identity, line) not in elements:
            raise UnknownIdentifier(f"unknown identifier '{identity}' in {prefix}id", line)
        return dict(
            elements=frozenset(elements),
            op=op,
            identity=identity,
            inverse=_mapping(need(prefix + "inv"), elements, elements, prefix + "inv"),
        )

    if kind in ("groupoid", "group_groupoid"):
        objects = set(_declarations(need("objects"), "object"))
        arrows = set(_declarations(need("arrows"), "arrow"))
        base = dict(
            objects=frozenset(objects),
            arrows=frozenset(arrows),
            src=_mapping(need("source"), arrows, objects, "source"),
            tgt=_mapping(need("target"), arrows, objects, "target"),
            unit=_mapping(need("unit"), objects, arrows, "unit"),
            inv=_mapping(need("inverse"), arrows, arrows, "inverse"),
            prod=_pair_mapping(need("product"), arrows, "product"),
        )
        if kind == "groupoid":
            return StructureFile(kind, FiniteGroupoid(**base))
        tables = (table_fields("arrow_group_", arrows), table_fields("object_group_", objects))
        gg = GroupGroupoid(FiniteGroupoid(**base), *(GroupTable(**t) for t in tables))
        return StructureFile(kind, gg)

    if kind == "group":
        elements = set(_declarations(need("elements"), "element"))
        return StructureFile(kind, GroupTable(**table_fields("", elements)))

    # morphism: map entries cannot be resolved until the endpoints are loaded
    spec = MorphismSpec(
        from_path=_single(sections.get("from", []), kind_line, "from")[1],
        to_path=_single(sections.get("to", []), kind_line, "to")[1],
        f=_mapping(sections.get("f", []), None, None, "f"),
        f0=_mapping(sections.get("f0", []), None, None, "f0"),
    )
    return StructureFile(kind, spec)


def _wrap(name: str, entries: list[str], per_line: int) -> list[str]:
    lines = []
    for i in range(0, len(entries), per_line):
        lines.append(f"{name}: " + " ".join(entries[i : i + per_line]))
    return lines


def _emit_map(name: str, mapping: Mapping[str, str], per_line: int = 6) -> list[str]:
    return _wrap(name, [f"{k}={v}" for k, v in sorted(mapping.items())], per_line)


def _emit_pairs(
    name: str, mapping: Mapping[tuple[str, str], str], per_line: int = 4
) -> list[str]:
    entries = [f"{x}.{y}={v}" for (x, y), v in sorted(mapping.items())]
    return _wrap(name, entries, per_line)


def _emit_groupoid_sections(g: FiniteGroupoid) -> list[str]:
    lines = _wrap("objects", sorted(g.objects), 12)
    lines += _wrap("arrows", sorted(g.arrows), 12)
    lines += _emit_map("source", g.src)
    lines += _emit_map("target", g.tgt)
    lines += _emit_map("unit", g.unit)
    lines += _emit_map("inverse", g.inv)
    lines += _emit_pairs("product", g.prod)
    return lines


def _emit_table_sections(prefix: str, table: GroupTable) -> list[str]:
    closure_report(table).require(InvalidInput, "cannot write a table that is not closed")
    lines = _emit_pairs(prefix + "op", table.op)
    lines.append(f"{prefix}id: {table.identity}")
    return lines + _emit_map(prefix + "inv", table.inverse)


def emit_structure_file(
    structure, *, from_path: str | None = None, to_path: str | None = None
) -> str:
    """Canonical text for a structure; inverse of parse_structure_file."""
    if isinstance(structure, FiniteGroupoid):
        lines = ["kind: groupoid"] + _emit_groupoid_sections(structure)
    elif isinstance(structure, GroupGroupoid):
        lines = ["kind: group_groupoid"] + _emit_groupoid_sections(structure.base)
        lines += _emit_table_sections("arrow_group_", structure.arrow_group)
        lines += _emit_table_sections("object_group_", structure.object_group)
    elif isinstance(structure, GroupTable):
        lines = ["kind: group"]
        lines += _wrap("elements", sorted(structure.elements), 12)
        lines += _emit_table_sections("", structure)
    elif isinstance(structure, (Morphism, MorphismSpec)):
        if isinstance(structure, Morphism):
            if from_path is None or to_path is None:
                raise InvalidInput("emitting a morphism needs from_path and to_path")
        else:
            from_path = structure.from_path
            to_path = structure.to_path
            # structures hold only identifiers by construction; a caller's spec
            # may hold anything
            bad = [tok for m in (structure.f, structure.f0) for item in sorted(m.items())
                   for tok in item if not is_identifier(tok)]
            if bad:
                raise InvalidInput(f"identifier {bad[0]!r} cannot be written to a structure file")
        for path in (from_path, to_path):
            # the parser strips comments and surrounding whitespace and reads one line
            if "#" in path or path != path.strip() or len(path.splitlines()) != 1:
                raise InvalidInput(f"path {path!r} cannot be written to a morphism file")
        lines = ["kind: morphism", f"from: {from_path}", f"to: {to_path}"]
        lines += _emit_map("f", structure.f)
        lines += _emit_map("f0", structure.f0)
    else:
        raise InvalidInput(f"cannot emit {type(structure).__name__} as a structure file")
    return "\n".join(lines) + "\n"


def load_structure_file(path: str) -> StructureFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_structure_file(handle.read())


def load_morphism(path: str) -> tuple[Morphism, StructureFile, StructureFile]:
    """Load a morphism file and both endpoint files (paths relative to it)."""
    sf = load_structure_file(path)
    if sf.kind != "morphism":
        raise InvalidInput(f"{path} is not a morphism file")
    spec = sf.structure
    base_dir = os.path.dirname(os.path.abspath(path))
    source = load_structure_file(os.path.join(base_dir, spec.from_path))
    target = load_structure_file(os.path.join(base_dir, spec.to_path))
    endpoints = []
    for end, which in ((source, "from"), (target, "to")):
        if end.kind == "groupoid":
            endpoints.append(end.structure)
        elif end.kind == "group_groupoid":
            endpoints.append(end.structure.base)
        else:
            raise InvalidInput(f"'{which}' endpoint must be a groupoid or group_groupoid")
    m = Morphism(
        source=endpoints[0], target=endpoints[1], f=dict(spec.f), f0=dict(spec.f0)
    )
    return m, source, target
