"""No haarcp error is swallowed on its way to cli.main.

An engine error is an answer the engine could not give, and cli.main turns
each one into exit 2 with its message.  A handler that catches it and goes
on, say by returning None or a note, hides that from the caller.  So an
`except` clause in src/haarcp that names HaarcpError, or a class that
errors.py derives from it, must end by raising, as specfmt's re-raise
with the file's path in front does.  cli.main is the one place where such
an error stops.  The check is a small ast pass, like the one for file
reads; the owner of a handler is the module-level definition that holds
it (`<module>` for a handler outside any).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"

STOPS_HERE = {"cli.py:main"}


def error_names(errors_source: str) -> set[str]:
    """HaarcpError and every class errors.py derives from it, directly or not."""
    names = {"HaarcpError"}
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in names for b in node.bases
        ):
            names.add(node.name)
    return names


def _caught(handler: ast.ExceptHandler) -> set[str]:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr
            for t in types if isinstance(t, (ast.Name, ast.Attribute))}


def swallowers(errors_source: str, sources: dict[str, str]) -> list[str]:
    """module:owner for each handler of a haarcp error that does not end by
    raising, outside cli.main."""
    errors = error_names(errors_source)
    found = set()
    for module, source in sorted(sources.items()):
        for top in ast.parse(source).body:
            owner = (top.name if isinstance(
                top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.ExceptHandler) and _caught(node) & errors
                        and not isinstance(node.body[-1], ast.Raise)):
                    found.add(f"{module}:{owner}")
    return sorted(found - STOPS_HERE)


def test_checker_flags_a_swallowed_error():
    errors = ("class HaarcpError(Exception): pass\n"
              "class SearchBudgetExceeded(HaarcpError): pass\n")
    sources = {
        "a.py": ("def find(G):\n    try:\n        return search(G)\n"
                 "    except SearchBudgetExceeded:\n        return None\n"),
        "b.py": ("try:\n    X = load()\nexcept (KeyError, errors.HaarcpError):\n"
                 "    X = None\n"),
        "cli.py": ("def main(argv):\n    try:\n        return run(argv)\n"
                   "    except (HaarcpError, ValueError) as exc:\n        print(exc)\n"
                   "        return 2\n\n\n"
                   "def cmd_x(args):\n    try:\n        return run(args)\n"
                   "    except HaarcpError:\n        return 2\n"),
        "specfmt.py": ("def read(p):\n    try:\n        return parse(p)\n"
                       "    except (HaarcpError, ValueError) as exc:\n"
                       "        raise type(exc)(f'{p}: {exc}') from exc\n"),
        "c.py": ("def number(s):\n    try:\n        return int(s)\n"
                 "    except ValueError:\n        return 0\n"),
    }
    assert swallowers(errors, sources) == ["a.py:find", "b.py:<module>", "cli.py:cmd_x"]


def test_no_error_swallowed():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert swallowers(sources["errors.py"], sources) == []
