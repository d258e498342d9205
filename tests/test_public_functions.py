"""Every public module-level function in haarcp has a reader.

A public function that the package never calls, that haarcp/__init__.py
does not export, and that the benchmark does not name is dead code, even
when a test still calls it.  The check is a small ast pass, like the one
for private helpers: a function counts as called when some Name or
Attribute node in src/haarcp, outside its own definition, reads its name.
It counts as pinned when BENCHMARK.json or a file of perfbench/ spells
"module.function".  `main` and the `cmd_*` verbs are dispatched by name,
so they always count as used.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "haarcp"


def exported_names(init_source: str) -> set[str]:
    """The names that `from .module import ...` lines bring into the package."""
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse(init_source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def pinned_names(texts: list[str]) -> set[str]:
    """Every "a.b" that two adjacent parts of a dotted name spell in the texts."""
    pinned = set()
    for text in texts:
        for chain in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", text):
            parts = chain.split(".")
            pinned.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
    return pinned


def unused_public_functions(sources: dict[str, str], exported: set[str],
                            pinned: set[str]) -> list[str]:
    """module:name for each public top-level function that nothing reads."""
    defined, used = [], set()
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            own = None
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not top.name.startswith("_")):
                defined.append((module, top.name))
                own = top.name
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:  # a recursive call is no use
                    used.add(name)
    return [f"{module}:{name}" for module, name in defined
            if name not in used | exported and name != "main" and not name.startswith("cmd_")
            and f"{module.removesuffix('.py')}.{name}" not in pinned]


def test_checker_flags_an_unused_function():
    sources = {
        "a.py": ("def called():\n    pass\n\ndef dead():\n    pass\n\n"
                 "def exported():\n    pass\n\ndef timed():\n    pass\n"),
        "b.py": "from . import a\n\nx = a.called()\n\ndef loop(n):\n    return loop(n - 1)\n",
        "cli.py": "def main():\n    pass\n\ndef cmd_cp(args):\n    pass\n",
    }
    exported = exported_names("from .a import (\n    exported,\n)\n")
    pinned = pinned_names(['{"name": "a.timed.self_s"}', "b.dead = None"])
    assert exported == {"exported"}
    assert {"a.timed", "timed.self_s", "b.dead"} <= pinned
    assert unused_public_functions(sources, exported, pinned) == ["a.py:dead", "b.py:loop"]


def test_no_unused_public_functions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    exported = exported_names(sources["__init__.py"])
    bench = [ROOT / "BENCHMARK.json", *sorted((ROOT / "perfbench").glob("*.py"))]
    pinned = pinned_names([p.read_text(encoding="utf-8") for p in bench])
    assert unused_public_functions(sources, exported, pinned) == []
