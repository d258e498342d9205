"""The built-in group corpus and name resolution."""

from __future__ import annotations

import functools
import math

from . import builders
from .errors import ClosureExceedsCap
from .groups import DEFAULT_CLOSURE_CAP, FiniteGroup, direct_product


@functools.lru_cache(maxsize=None)
def _named(kind: str, n: int = 0) -> FiniteGroup:
    if kind == "trivial":
        return builders.trivial()
    if kind == "cyclic":
        return builders.cyclic(n)
    if kind == "dihedral":
        return builders.dihedral(n)
    if kind == "symmetric":
        return builders.symmetric(n)
    if kind == "alternating":
        return builders.alternating(n)
    if kind == "klein4":
        return builders.klein4()
    if kind == "quaternion8":
        return builders.quaternion8()
    if kind == "sl25":
        return builders.sl25()
    if kind == "es27exp3":
        return builders.extraspecial27_exponent3()
    if kind == "es27exp9":
        return builders.extraspecial27_exponent9()
    raise KeyError(kind)


_SHORT = {
    "1": ("trivial", 0),
    "v4": ("klein4", 0),
    "klein4": ("klein4", 0),
    "q8": ("quaternion8", 0),
    "quaternion8": ("quaternion8", 0),
    "sl25": ("sl25", 0),
    "sl(2,5)": ("sl25", 0),
    "es27+": ("es27exp3", 0),
    "es27exp3": ("es27exp3", 0),
    "es27-": ("es27exp9", 0),
    "es27exp9": ("es27exp9", 0),
    "trivial": ("trivial", 0),
}

_PARAM = {
    "c": "cyclic", "cyclic": "cyclic",
    "d": "dihedral", "dihedral": "dihedral",
    "s": "symmetric", "symmetric": "symmetric",
    "a": "alternating", "alternating": "alternating",
}


_FIXED_ORDER = {
    "trivial": 1, "klein4": 4, "quaternion8": 8, "sl25": 120, "es27exp3": 27, "es27exp9": 27,
}


def _exceeds(kind: str, n: int, cap: int) -> bool:
    """Whether _named(kind, n) has order above cap, decided without building it."""
    if kind in _FIXED_ORDER:
        return _FIXED_ORDER[kind] > cap
    if kind == "cyclic":
        return n > cap
    if kind == "dihedral":
        return 2 * n > cap
    # n! = 2 * 3 * ... * n for symmetric, n!/2 = 3 * ... * n for alternating
    order = 1
    for k in range(2 if kind == "symmetric" else 3, n + 1):
        order *= k
        if order > cap:
            return True
    return False


def builtin_group(name: str, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup | None:
    """Resolve a builtin name like "alternating 5", "a5", "dihedral 4", "q8".

    Dihedral n is the symmetry group of the n-gon, order 2n.  Returns None
    for names the corpus does not know (the CLI then tries the filesystem).
    Raises ClosureExceedsCap, before building anything, when the group's
    order is above cap.
    """
    text = " ".join(name.lower().split())
    parts = text.split()
    if text in _SHORT:
        kind, n = _SHORT[text]
    elif len(parts) == 2 and parts[0] in _PARAM and parts[1].isdigit():
        kind, n = _PARAM[parts[0]], int(parts[1])
    else:
        head = text.rstrip("0123456789")
        tail = text[len(head):]
        if len(parts) != 1 or head not in _PARAM or not tail.isdigit():
            return None
        kind, n = _PARAM[head], int(tail)
    if _exceeds(kind, n, cap):
        raise ClosureExceedsCap(f"builtin group {text!r} has order above cap {cap}")
    return _named(kind, n)


def builtin_corpus(max_order: int = 64) -> list[tuple[str, FiniteGroup]]:
    """Every builtin group of order <= max_order, as (name, group) pairs."""
    entries: list[tuple[str, FiniteGroup]] = [("trivial", _named("trivial"))]
    entries += [(f"cyclic {n}", _named("cyclic", n)) for n in range(2, max_order + 1)]
    entries.append(("klein4", _named("klein4")))
    entries += [
        (f"dihedral {n}", _named("dihedral", n)) for n in range(3, max_order // 2 + 1)
    ]
    if max_order >= 8:
        entries.append(("quaternion8", _named("quaternion8")))
    for n in range(3, 6):
        if math.factorial(n) <= max_order:
            entries.append((f"symmetric {n}", _named("symmetric", n)))
    for n in range(4, 7):
        if math.factorial(n) // 2 <= max_order:
            entries.append((f"alternating {n}", _named("alternating", n)))
    if max_order >= 27:
        entries.append(("es27exp3", _named("es27exp3")))
        entries.append(("es27exp9", _named("es27exp9")))
    if max_order >= 120:
        entries.append(("sl25", _named("sl25")))
    return entries


def classification_corpus() -> list[tuple[str, FiniteGroup]]:
    """The builtin corpus up to order 64 plus the classification landmarks."""
    a5 = _named("alternating", 5)
    entries = builtin_corpus(64)
    entries += [
        ("symmetric 5", _named("symmetric", 5)),
        ("sl25", _named("sl25")),
        ("alternating 5 x cyclic 2", direct_product(a5, _named("cyclic", 2))),
        ("alternating 5 x cyclic 6", direct_product(a5, _named("cyclic", 6))),
    ]
    return entries
