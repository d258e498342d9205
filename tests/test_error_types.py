"""Every error type that errors.py defines is raised somewhere in haarcp.

An error class that nothing raises still reads as a promise: a caller may
catch it and expect it.  So each subclass of HaarcpError in errors.py must
be the exception of some raise statement in a haarcp module, found with
ast as ``raise Name(...)``, ``raise Name`` or ``raise module.Name(...)``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "haarcp"


def error_types(source: str) -> set[str]:
    """Classes of a module that derive from HaarcpError, directly or not."""
    names = {"HaarcpError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in names for b in node.bases
        ):
            names.add(node.name)
    return names - {"HaarcpError"}


def raised_names(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_checker_finds_types_and_raises():
    errors = (
        "class HaarcpError(Exception): pass\n"
        "class A(HaarcpError): pass\n"
        "class B(A): pass\n"
        "class C(ValueError): pass\n"
    )
    assert error_types(errors) == {"A", "B"}
    module = "def f(x):\n    if x:\n        raise A('no')\n    raise errors.B\n"
    assert raised_names(module) == {"A", "B"}
    assert raised_names("try:\n    f()\nexcept B:\n    raise\n") == set()


RAISED = set().union(*(raised_names(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")))


@pytest.mark.parametrize("name", sorted(error_types((SRC / "errors.py").read_text(encoding="utf-8"))))
def test_error_type_is_raised(name):
    assert name in RAISED
