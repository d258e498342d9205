"""Every private module-level function or class in haarcp is used in haarcp.

A helper the package no longer calls is dead code, even when a test still
reaches it.  The check is a small ast pass: a module-level `def _name` or
`class _name` counts as used when some Name or Attribute node in src/haarcp,
outside that definition itself, reads the same name.  Names are matched
package-wide and by name only, so a helper also passes when another module
reads an unrelated name spelled the same way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"


def unreferenced_helpers(sources: dict[str, str]) -> list[str]:
    """module:name for each private top-level def or class whose name is read
    nowhere in the package but inside its own definition."""
    defined, used = [], set()
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            own = None
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and top.name.startswith("_") and not top.name.startswith("__")):
                defined.append((module, top.name))
                own = top.name
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:  # a recursive call is no use
                    used.add(name)
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_checker_flags_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    pass\n\nclass _Shape:\n    pass\n",
        "b.py": "from . import a\nfrom .a import _Shape\n\nx = a._used() or _Shape\n",
        "c.py": "def _loop(n):\n    return _loop(n - 1) if n else 0\n",
    }
    assert unreferenced_helpers(sources) == ["a.py:_dead", "c.py:_loop"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_helpers(sources) == []
