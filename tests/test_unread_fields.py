"""Every field and property of a haarcp record has a reader.

A dataclass or NamedTuple field, a name in a class's __slots__, or a
property, that no code reads is work done for nothing: something computes
it, and nothing looks at it.  The check is a small ast pass, like the
one for private helpers: a field or property counts as read when some
attribute access (an Attribute node in Load context) in src/haarcp or
tests/ spells its name.  A read inside the class's own methods counts,
as `self.kind` does in CorpusEntry.group().  Names are matched by name
only, across all files, so a field also passes when an unrelated
attribute elsewhere is spelled the same way.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "haarcp"
TESTS = ROOT / "tests"

_PROPERTIES = {"property", "cached_property"}


def _name(node: ast.expr) -> str | None:
    """The last part of a dotted name, or of the function a decorator calls."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _slots(stmt: ast.stmt) -> list[str]:
    """The names a `__slots__ = (...)` statement declares, else none."""
    if (isinstance(stmt, ast.Assign)
            and [_name(t) for t in stmt.targets] == ["__slots__"]):
        return [e.value for e in ast.walk(stmt.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)]
    return []


def record_members(source: str) -> list[tuple[str, str]]:
    """(class, member) for each field of a dataclass or NamedTuple, each name
    in a class's __slots__, and each property of any class, defined in the
    source."""
    members = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        record = ("dataclass" in map(_name, cls.decorator_list)
                  or "NamedTuple" in map(_name, cls.bases))
        for stmt in cls.body:
            members += [(cls.name, slot) for slot in _slots(stmt)]
            if record and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                members.append((cls.name, stmt.target.id))
            elif (isinstance(stmt, ast.FunctionDef)
                  and _PROPERTIES & set(map(_name, stmt.decorator_list))):
                members.append((cls.name, stmt.name))
    return members


def unread_members(sources: dict[str, str], readers: list[str]) -> list[str]:
    """module:Class.member for each record member whose name no attribute
    load in the sources or the readers spells."""
    read = {node.attr for text in [*sources.values(), *readers]
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}:{cls}.{member}"
            for module, source in sorted(sources.items())
            for cls, member in record_members(source) if member not in read]


def test_checker_flags_an_unread_field():
    sources = {
        "a.py": ("from dataclasses import dataclass\nfrom typing import NamedTuple\n\n"
                 "@dataclass(frozen=True)\nclass Report:\n    value: int\n    planted: int\n\n"
                 "    @property\n    def doubled(self):\n        return 2 * self.value\n\n"
                 "    @property\n    def unused(self):\n        return 0\n\n"
                 "class Entry(NamedTuple):\n    kind: str\n    n: int\n\n"
                 "    def group(self):\n        return self.kind, self.n\n\n"
                 "class Table:\n    __slots__ = ('rows', 'stale')\n\n"
                 "    def width(self):\n        return len(self.rows)\n"),
        "b.py": ("class Plain:\n    note: str\n\ndef f(r, e, t):\n    r.planted = 1\n"
                 "    t.stale = 0\n    return e.group()\n"),
    }
    readers = ["def test(r):\n    assert r.doubled == 2\n"]
    assert unread_members(sources, readers) == [
        "a.py:Report.planted", "a.py:Report.unused", "a.py:Table.stale"]


def test_no_unread_fields():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    readers = [p.read_text(encoding="utf-8") for p in TESTS.glob("*.py")]
    assert unread_members(sources, readers) == []
