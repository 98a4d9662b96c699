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

Parsing is strict and every error carries its 1-based line number.  Lines
break at '\\n', '\\r\\n' and '\\r' only, as open() reads a file; a form feed,
'\\x85' or '\\u2028' is whitespace inside its line.  Emitting is canonical
(sorted entries, fixed wrapping), so parse(emit(s)) == s.

A map or table section over declared sets (all but a morphism's f and f0)
is accepted in bulk: a few C-level passes over the text of each run of its
lines check the shape of every entry and that every part is declared, build
the dict, and a count shows that no key repeats.  Only a section the bulk
pass refuses meets the per-entry loop, which accepts exactly what the bulk
pass does and so only names the line of the first error.  Once every section
has parsed, whether each map is total is a count: the structure is built
without its constructor's walk, which runs only when a count fails, to name
what is missing.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Mapping

from .core import FiniteGroupoid, Morphism
from .grouptable import GroupTable, _unchecked, closure_report, is_identifier
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
    """Yield (line, section, payload) with comments and blanks stripped.

    Lines break at '\\n', '\\r\\n' and '\\r' only, as open() reads a file; the
    other breaks of str.splitlines() (form feed, '\\x85', '\\u2028', ...) are
    whitespace inside a line, so every error names the line an editor shows.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    bodies = map(str.strip, map(itemgetter(0), map(str.partition, text.split("\n"), repeat("#"))))
    for lineno, line in enumerate(bodies, start=1):
        if not line:
            continue
        name, colon, payload = line.partition(":")
        if not colon:
            raise StructureSyntaxError("expected 'section: entries'", lineno)
        yield lineno, name.strip(), payload.strip()


def _entries(lines):
    """The (line, token) entries of a section's (line, payload) lines, one at a time."""
    return ((lineno, tok) for lineno, payload in lines for tok in payload.split())


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


# lines a bulk pass takes at once, 4,096 to 6,144 emitted entries, so that its
# text and part lists stay small beside the dict it builds
_SLICE = 1024

# entries joined by single spaces, each key=value or x.y=z with every part
# non-empty and free of ' ', '.' and '=': each entry ends at the next separator,
# so the match is one pass over the text, and a failed one backtracks linearly
_PART = "[^ .=]+"
_MAP_ENTRY = f"{_PART}={_PART}"
_PAIR_ENTRY = f"{_PART}\\.{_PART}={_PART}"
_MAP_ENTRIES = re.compile(f"(?:{_MAP_ENTRY}(?: {_MAP_ENTRY})*)?")
_PAIR_ENTRIES = re.compile(f"(?:{_PAIR_ENTRY}(?: {_PAIR_ENTRY})*)?")


def _slices(lines):
    """The entries of each run of up to _SLICE lines of a section, joined by single
    spaces."""
    for start in range(0, len(lines), _SLICE):
        yield " ".join(" ".join([payload for _, payload in lines[start : start + _SLICE]]).split())


def _bulk_mapping(lines, keys: set[str], values: set[str]) -> dict[str, str] | None:
    """_mapping's dict for declared keys and values, or None where it would raise.

    Declared identifiers hold no whitespace, '.' or '=', so the loop accepts an
    entry exactly when it has _MAP_ENTRIES's shape, its key is a declared key
    and its value a declared value, and no earlier entry has its key.  The
    shape makes the parts alternate key and value, and as many keys as entries
    means none repeats: every check of the loop, made by C-level passes.
    """
    out: dict[str, str] = {}
    count = 0
    for text in _slices(lines):
        if not _MAP_ENTRIES.fullmatch(text):
            return None
        parts = text.replace("=", " ").split()
        ks, vs = parts[0::2], parts[1::2]
        if not (keys.issuperset(ks) and values.issuperset(vs)):
            return None
        out.update(zip(ks, vs))
        count += len(ks)
    return out if len(out) == count else None


def _bulk_pairs(lines, domain: set[str]) -> dict[tuple[str, str], str] | None:
    """_pair_mapping's dict, or None where it would raise: as _bulk_mapping, with
    _PAIR_ENTRIES's shape and the parts running x, y, z."""
    out: dict[tuple[str, str], str] = {}
    count = 0
    for text in _slices(lines):
        if not _PAIR_ENTRIES.fullmatch(text):
            return None
        parts = text.replace(".", " ").replace("=", " ").split()
        if not domain.issuperset(parts):
            return None
        zs = parts[2::3]
        out.update(zip(zip(parts[0::3], parts[1::3]), zs))
        count += len(zs)
    return out if len(out) == count else None


def _map_section(lines, keys: set[str], values: set[str], what: str) -> dict[str, str]:
    """A key=value section accepted in bulk; only a refused one meets the per-entry
    loop, which raises at the line of its first defect."""
    out = _bulk_mapping(lines, keys, values)
    return out if out is not None else _mapping(_entries(lines), keys, values, what)


def _pair_section(lines, domain: set[str], what: str) -> dict[tuple[str, str], str]:
    """An x.y=z section accepted in bulk, as _map_section."""
    out = _bulk_pairs(lines, domain)
    return out if out is not None else _pair_mapping(_entries(lines), domain, what)


def _single(entries, kind_line: int, what: str) -> tuple[int, str]:
    """The one (line, entry) of a single-valued section."""
    if not entries:
        raise StructureSyntaxError(f"missing section '{what}'", kind_line)
    if len(entries) > 1 and entries[1][0] == entries[0][0]:
        raise StructureSyntaxError(f"section '{what}' takes one identifier", entries[0][0])
    if len(entries) > 1:
        raise DuplicateDeclaration(f"section '{what}' given twice", entries[1][0])
    return entries[0]


def _built(cls, total: bool, **values):
    """cls of values, unchecked when the counts prove it well formed; otherwise by
    its constructor, whose check names what is missing."""
    return _unchecked(cls, **values) if total else cls(**values)


def parse_structure_file(text: str) -> StructureFile:
    """Parse one structure file; raises a ParseError subclass on any defect.

    Every section parses before any value is built, so a ParseError wins over a
    shape error.  Once parsed, every declared token is an identifier, every key
    and value of a map lies in its declared set, and no key repeats.  A map
    whose n keys lie in a set K without repeats is total on K exactly when
    n == |K|.  So the shape checks of FiniteGroupoid and GroupTable reduce to
    counts: |src| == |tgt| == |inv| == |A| and |unit| == |O|; |op| == m**2 and
    |inverse| == m.  When the counts hold the value is built unchecked; when
    one fails, the checked constructor raises its own message.
    """
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
        if name in _PATH_SECTIONS and not payload:
            raise StructureSyntaxError(f"section '{name}' needs a path", lineno)
        sections.setdefault(name, []).append((lineno, payload))
    if kind is None:
        raise StructureSyntaxError("missing 'kind:' declaration", 1)

    def lines(name: str) -> list[tuple[int, str]]:
        return sections.get(name, [])

    def declared(name: str, what: str) -> set[str]:
        tokens = _declarations(_entries(lines(name)), what)
        if not tokens:
            raise StructureSyntaxError(f"section '{name}' is missing or empty", kind_line)
        return set(tokens)

    # parse every section before constructing: a ParseError beats a shape error
    def table_fields(prefix: str, elements: set[str]) -> dict:
        op = _pair_section(lines(prefix + "op"), elements, prefix + "op")
        line, identity = _single(list(_entries(lines(prefix + "id"))), kind_line, prefix + "id")
        if _check_identifier(identity, line) not in elements:
            raise UnknownIdentifier(f"unknown identifier '{identity}' in {prefix}id", line)
        return dict(
            elements=frozenset(elements),
            op=op,
            identity=identity,
            inverse=_map_section(lines(prefix + "inv"), elements, elements, prefix + "inv"),
        )

    def table(fields: dict) -> GroupTable:
        m = len(fields["elements"])
        total = len(fields["op"]) == m * m and len(fields["inverse"]) == m
        return _built(GroupTable, total, **fields)

    def groupoid(fields: dict) -> FiniteGroupoid:
        a = len(fields["arrows"])
        total = (len(fields["src"]) == len(fields["tgt"]) == len(fields["inv"]) == a
                 and len(fields["unit"]) == len(fields["objects"]))
        return _built(FiniteGroupoid, total, **fields)

    if kind in ("groupoid", "group_groupoid"):
        objects = declared("objects", "object")
        arrows = declared("arrows", "arrow")
        base = dict(
            objects=frozenset(objects),
            arrows=frozenset(arrows),
            src=_map_section(lines("source"), arrows, objects, "source"),
            tgt=_map_section(lines("target"), arrows, objects, "target"),
            unit=_map_section(lines("unit"), objects, arrows, "unit"),
            inv=_map_section(lines("inverse"), arrows, arrows, "inverse"),
            prod=_pair_section(lines("product"), arrows, "product"),
        )
        if kind == "groupoid":
            return StructureFile(kind, groupoid(base))
        tables = (table_fields("arrow_group_", arrows), table_fields("object_group_", objects))
        return StructureFile(kind, GroupGroupoid(groupoid(base), *map(table, tables)))

    if kind == "group":
        elements = declared("elements", "element")
        return StructureFile(kind, table(table_fields("", elements)))

    # morphism: map entries cannot be resolved until the endpoints are loaded
    spec = MorphismSpec(
        from_path=_single(lines("from"), kind_line, "from")[1],
        to_path=_single(lines("to"), kind_line, "to")[1],
        f=_mapping(_entries(lines("f")), None, None, "f"),
        f0=_mapping(_entries(lines("f0")), None, None, "f0"),
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
