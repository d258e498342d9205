"""Every name a haarcp or test module imports is referenced in that module.

No linter is a dependency of the project, so this is a small one: each
haarcp module (the package's __init__, which imports only to re-export,
aside) and each module under tests/ is parsed with ast, and an imported
name counts as used when some Name node in the module reads it, an
attribute access on it included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "haarcp"
TESTS = ROOT / "tests"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import Any, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Any"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "module", sorted(p.relative_to(TESTS).as_posix() for p in TESTS.rglob("*.py"))
)
def test_no_unused_imports_in_tests(module):
    assert unused_imports((TESTS / module).read_text(encoding="utf-8")) == []
