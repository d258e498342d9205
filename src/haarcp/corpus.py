"""The built-in group corpus and name resolution."""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

from . import builders
from .groups import FiniteGroup, check_order

_HUGE = 2**64  # above any table's order: a larger order is not worked out


def _product_from(k: int):
    """n -> k * (k + 1) * ... * n, or None once the product passes _HUGE."""
    def order(n: int) -> int | None:
        out = 1
        for j in range(k, n + 1):
            out *= j
            if out > _HUGE:
                return None
        return out
    return order


def _fixed(make, order: int):
    """A kind without a parameter; its n is always 0."""
    return lambda n: make(), lambda n: order, (0, 0)


# kind -> (constructor of n, order of n, the n the corpus takes), in corpus
# order.  The order is None when it passes _HUGE.  The corpus takes n from
# first to last, or while the order allows when last is None: every order
# grows with n, and n <= order for those kinds.
_KINDS = {
    "trivial": _fixed(builders.trivial, 1),
    "cyclic": (builders.cyclic, lambda n: n, (2, None)),
    "klein4": _fixed(builders.klein4, 4),
    "dihedral": (builders.dihedral, lambda n: 2 * n, (3, None)),
    "quaternion8": _fixed(builders.quaternion8, 8),
    "symmetric": (builders.symmetric, _product_from(2), (3, 5)),  # n!
    "alternating": (builders.alternating, _product_from(3), (4, 6)),  # n!/2
    "es27exp3": _fixed(builders.extraspecial27_exponent3, 27),
    "es27exp9": _fixed(builders.extraspecial27_exponent9, 27),
    "sl25": _fixed(builders.sl25, 120),
}


@functools.lru_cache(maxsize=None)
def _named(kind: str, n: int) -> FiniteGroup:
    """The builtin group kind(n); n is 0 for the kinds without a parameter.
    Always called with both arguments, so each group has one cache key."""
    return _KINDS[kind][0](n)


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


def builtin_name(name: str) -> tuple[str, int] | None:
    """The (kind, n) a builtin name like "alternating 5", "a5", "dihedral 4"
    or "q8" stands for, or None for names the corpus does not know.
    Nothing is built."""
    text = " ".join(name.lower().split())
    parts = text.split()
    if text in _SHORT:
        return _SHORT[text]
    if len(parts) == 2 and parts[0] in _PARAM and parts[1].isascii() and parts[1].isdigit():
        return _PARAM[parts[0]], int(parts[1])
    head = text.rstrip("0123456789")
    tail = text[len(head):]
    if len(parts) != 1 or head not in _PARAM or not tail.isdigit():
        return None
    return _PARAM[head], int(tail)


def builtin_group(name: str) -> FiniteGroup | None:
    """Resolve a builtin name (see builtin_name).

    Dihedral n is the symmetry group of the n-gon, order 2n.  Returns None
    for names the corpus does not know (the CLI then tries the filesystem).
    The group's order goes to check_order before anything is built.
    """
    found = builtin_name(name)
    if found is None:
        return None
    kind, n = found
    order = _KINDS[kind][1](n)
    text = " ".join(name.lower().split())
    if order is None:
        check_order(_HUGE, f"builtin group {text!r} of order above {_HUGE}")
    check_order(order, f"builtin group {text!r}")
    return _named(kind, n)


class CorpusEntry(NamedTuple):
    """A builtin group by corpus name and order; group() builds it (once per
    process, as builtin_group does)."""

    name: str
    order: int
    kind: str
    n: int

    def group(self) -> FiniteGroup:
        return _named(self.kind, self.n)


def builtin_entries(max_order: int = 64) -> Iterator[CorpusEntry]:
    """Every builtin group of order <= max_order, in corpus order, none built.
    Entries are yielded one at a time: a reader that keeps few holds few."""
    for kind, (_make, order_of, (first, last)) in _KINDS.items():
        for n in range(first, (max_order if last is None else last) + 1):
            order = order_of(n)
            if order > max_order:
                break
            yield CorpusEntry(f"{kind} {n}" if n else kind, order, kind, n)


def builtin_corpus(max_order: int = 64) -> list[tuple[str, FiniteGroup]]:
    """Every builtin group of order <= max_order, as (name, group) pairs."""
    return [(e.name, e.group()) for e in builtin_entries(max_order)]
