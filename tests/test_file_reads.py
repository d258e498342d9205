"""Exactly one function in haarcp reads a file: specfmt.read_spec.

Every operand, on the command line or inside a spec, goes through that
reader, so a missing file, a file that is not UTF-8 and an error inside a
file are each reported one way.  The check is a small ast pass, like the
one for private helpers: a call of `open`, or of an attribute named
`open`, `read_text` or `read_bytes`, is a read, and the module-level
definition that holds it is a reader (`<module>` for a read outside any).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"

READS = {"open", "read_text", "read_bytes"}


def readers(sources: dict[str, str]) -> list[str]:
    """module:name for each top-level definition that reads a file."""
    found = set()
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = (f.id if isinstance(f, ast.Name)
                            else f.attr if isinstance(f, ast.Attribute) else None)
                    if name in READS:
                        found.add(f"{module}:{owner}")
    return sorted(found)


def test_checker_flags_a_second_reader():
    sources = {
        "a.py": "def read_spec(p):\n    return p.read_bytes()\n",
        "b.py": "def _load(p):\n    with open(p) as fh:\n        return fh.read()\n",
        "c.py": "from pathlib import Path\nTEXT = Path('x').read_text()\n",
        "d.py": "class Spec:\n    def lines(self):\n        return self.path.open().readlines()\n",
        "e.py": "def exists(p):\n    return p.exists() and p.is_file()\n",
    }
    assert readers(sources) == ["a.py:read_spec", "b.py:_load", "c.py:<module>", "d.py:Spec"]


def test_one_reader():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert readers(sources) == ["specfmt.py:read_spec"]
