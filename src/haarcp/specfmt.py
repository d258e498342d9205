"""Parsers for the line-oriented group and model spec formats.

Group files use exactly one of: perm lines, one table block, or one
product line and nothing else.
    perm (1 2 3)(4 5)        generators in disjoint-cycle notation
    table n                  followed by n rows of n indices
    product fileA fileB      direct product of two specs
    # comment

Model files, each directive at most once (matrix at most once per element):
    torus_rank d
    acting_group <file or builtin name>
    matrix <element-index> <d*d integers row-major>
    extra_factor <file or builtin name>

A file operand of product, acting_group or extra_factor is read relative
to the directory of the spec that names it.  Every number is an ASCII
integer, -?[0-9]+, and a line of numbers is ASCII throughout.

Every operand, on the command line or in a spec, is read by read_spec,
and an error in a spec file is raised again with the file's path in front.
"""

from __future__ import annotations

import re
from pathlib import Path

from . import corpus
from .compact import CompactModel, build_model
from .cp import _ints
from .errors import HaarcpError, ParseError
from .groups import (
    FiniteGroup,
    Perm,
    check_order,
    close_generators,
    direct_product,
    make_group,
    verify_axioms,
)

_GROUP_DIRECTIVES = ("perm", "table", "product")
_MODEL_DIRECTIVES = ("torus_rank", "acting_group", "matrix", "extra_factor")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, line: int | None = None) -> list[tuple[int, ...]]:
    """Disjoint cycles on 1-based points, e.g. "(1 2 3)(4 5)"."""
    stripped = text.replace(" ", "")
    if stripped != "()" and ("(" not in text or ")" not in text):
        raise ParseError(f"malformed cycle notation: {text!r}", line)
    rebuilt = "".join(f"({c})" for c in _CYCLE_RE.findall(text)).replace(" ", "")
    if rebuilt != stripped:
        raise ParseError(f"malformed cycle notation: {text!r}", line)
    cycles, seen = [], set()
    for body in _CYCLE_RE.findall(text):
        if not body.strip():
            continue
        try:
            pts = _ints(body)
        except ValueError:
            raise ParseError(f"non-integer point in cycle: {body!r}", line)
        if any(p < 1 for p in pts) or len(set(pts)) != len(pts):
            raise ParseError(f"invalid cycle points: {body!r}", line)
        shared = seen.intersection(pts)
        if shared:
            raise ParseError(f"point {min(shared)} in two cycles: {text!r}", line)
        seen.update(pts)
        cycles.append(pts)
    return cycles


def _perm_from_cycles(cycles: list[tuple[int, ...]], ids: Perm) -> Perm:
    """The permutation of ids, the points 0..d-1, that cycles name; its
    points are the objects of ids."""
    mapping = list(ids)
    for cyc in cycles:
        for i, p in enumerate(cyc):
            mapping[p - 1] = ids[cyc[(i + 1) % len(cyc)] - 1]
    return tuple(mapping)


def _directives(lines: list[str]):
    """(line number, stripped line) for each line that is not blank or a comment."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _split_directive(line: str) -> tuple[str, str]:
    """(directive, operands) of a stripped line, split at its first whitespace."""
    verb, *rest = line.split(None, 1)
    return verb, rest[0] if rest else ""


def read_spec(
    operand: str | Path,
    kind: str | None = None,
    relative_to: Path | None = None,
) -> FiniteGroup | CompactModel:
    """The group or model an operand names: a builtin group first, else a
    spec file, read once as the kind its first directive names (the kind
    asked for, else a model, when that directive names neither).  kind
    "group" or "model" rejects the other kind.  A relative file name is read
    against relative_to when given, else the working directory.

    The operands of a product spec are read by the same loop, not by a call
    per level, so a chain of products nested to any depth takes no more
    Python frames than one.  A nested product spec whose resolved path is
    already open is a cycle.  Paths are resolved only once a product spec
    is nested, not for the outermost one alone: a resolve costs some 17 us,
    as much as reading a small spec.  An error raised while reading a file
    is raised again, with its type, after the file's path and the paths of
    the product specs that led to it, outermost first."""
    products: list[tuple[Path, list[str], list[FiniteGroup]]] = []  # open, outermost first
    resolved: dict[Path, None] = {}  # their resolved paths, in order, once one is nested
    reading = None  # the spec whose lines are being read
    try:
        while True:
            group = None
            if kind == "model":  # a builtin group is rejected unbuilt
                if corpus.builtin_name(str(operand)) is not None:
                    raise ParseError(f"{operand}: expected a model spec, got a builtin group")
            else:
                group = corpus.builtin_group(str(operand))
            if group is None:
                path = Path(operand)
                if relative_to is not None:  # an absolute operand stays as it is
                    path = relative_to / path
                if not path.exists():
                    raise ParseError(f"not a builtin group and not a file: {str(operand)!r}")
                try:
                    data = path.read_bytes()
                    lines = data.decode("utf-8").splitlines()
                except OSError as exc:
                    raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
                except UnicodeDecodeError as exc:
                    line = data.count(b"\n", 0, exc.start) + 1
                    raise ParseError(f"{path}: line {line}: not UTF-8 text") from None
                first = next((_split_directive(line)[0] for _, line in _directives(lines)), None)
                found = ("group" if first in _GROUP_DIRECTIVES
                         else "model" if first in _MODEL_DIRECTIVES else kind or "model")
                if kind not in (None, found):
                    raise ParseError(f"{path}: expected a {kind} spec, got a {found} spec")
                reading = path
                if found == "model":
                    return _model_from_lines(path, lines)
                group = _group_from_lines(path, lines)
                if isinstance(group, tuple):  # a product line: its operands are read next
                    factors, lineno = group
                    if products:
                        if not resolved:
                            resolved[products[0][0].resolve()] = None
                        here = path.resolve()
                        if here in resolved:
                            raise ParseError(f"product cycle through {path.name}", lineno)
                        resolved[here] = None
                    products.append((path, factors, []))
                    group = None
                reading = None
            while group is not None:  # a group read: it is an operand of the innermost product
                if not products:
                    return group
                _, factors, groups = products[-1]
                groups.append(group)
                group = None
                if len(groups) == 2:
                    group = direct_product(*groups)
                    products.pop()
                    if resolved:
                        resolved.popitem()
            path, factors, groups = products[-1]
            operand, kind, relative_to = factors[len(groups)], "group", path.parent
    except (HaarcpError, ValueError) as exc:
        trail = [spec for spec, _, _ in products] + ([reading] if reading else [])
        if not trail:
            raise
        raise type(exc)(": ".join(map(str, [*trail, exc]))) from exc


def parse_group_file(operand: str | Path) -> FiniteGroup:
    """The group a builtin name or a group spec file names."""
    return read_spec(operand, "group")


def parse_model_file(path: str | Path) -> CompactModel:
    return read_spec(path, "model")


def _group_from_lines(path: Path, lines: list[str]) -> FiniteGroup | tuple[list[str], int]:
    """The group a spec's lines describe, or for a product line its two
    operands and its line number, which read_spec reads next."""
    kind: str | None = None  # the first directive; a spec uses only that kind
    perm_cycles: list[list[tuple[int, ...]]] = []
    table: list[tuple[int, ...]] | None = None
    loose: set[int] = set()  # rows read by _ints, whose entries are not yet range-checked
    expect_rows = 0
    for lineno, line in _directives(lines):
        if expect_rows:
            try:  # a row of bare indices 0..n-1, by one dict lookup per token
                if not line.isascii():
                    raise KeyError(line)
                row = tuple(map(entry, line.split()))
            except KeyError:
                try:
                    row = _ints(line)
                except ValueError:
                    raise ParseError(f"bad table row: {line!r}", lineno)
                loose.add(len(table))
            table.append(row)
            expect_rows -= 1
            continue
        verb, rest = _split_directive(line)
        if verb not in _GROUP_DIRECTIVES:
            raise ParseError(f"unknown directive {verb!r}", lineno)
        if kind is not None and not kind == verb == "perm":
            raise ParseError(
                f"{verb} line after {kind}: use one product line, one table, or perm lines",
                lineno)
        kind = verb
        if verb == "perm":
            perm_cycles.append(parse_cycles(rest, lineno))
        elif verb == "table":
            if not (rest.isascii() and rest.isdigit()):
                raise ParseError(f"table needs a size: {line!r}", lineno)
            expect_rows = int(rest)
            check_order(expect_rows, f"table {expect_rows}")  # before any row is read
            table = []
            # as in built tables, every row refers to the same n index objects
            ids = tuple(range(expect_rows))
            entry = dict(zip(map(str, ids), ids)).__getitem__
        else:
            factors = rest.split()
            if len(factors) != 2:
                raise ParseError("product needs exactly two operands", lineno)
            product_line = lineno
    if kind == "product":
        return factors, product_line
    if expect_rows:
        raise ParseError(f"table ended early, {expect_rows} rows missing")
    if table is not None:
        n = len(table)
        for i, row in enumerate(table):  # the one shape check: make_group trusts it
            if len(row) != n:
                raise ParseError(f"bad Cayley table: row {i} has length {len(row)}, expected {n}")
            if i in loose:
                if min(row) < 0 or max(row) >= n:
                    v = next(v for v in row if not 0 <= v < n)
                    raise ParseError(f"bad Cayley table: table entry {v} out of range 0..{n - 1}")
                table[i] = tuple(map(ids.__getitem__, row))
        try:
            G = make_group(table, name=path.stem)
        except ValueError as exc:
            raise ParseError(f"bad Cayley table: {exc}")
        if not verify_axioms(G):
            raise ParseError("bad Cayley table: multiplication is not associative")
        return G
    if not perm_cycles:
        raise ParseError("no generators and no table in group spec")
    degree = max((p for cyc in perm_cycles for c in cyc for p in c), default=1)
    # the closure holds the identity and each perm, a row of degree points,
    # and the points they share; checked before any is built, and
    # close_generators checks the rest
    check_order(len(perm_cycles) + 1, f"perm point {degree}", degree, points=True)
    ids = tuple(range(degree))
    perms = [_perm_from_cycles(cyc, ids) for cyc in perm_cycles]
    del ids  # the closure makes its identity of the perms' points
    return close_generators(perms, name=path.stem)


def _model_from_lines(path: Path, lines: list[str]) -> CompactModel:
    rank: int | None = None
    acting: FiniteGroup | None = None
    extra: FiniteGroup | None = None
    matrices: dict[int, list[list[int]]] = {}
    seen: set[str] = set()
    for lineno, line in _directives(lines):
        verb, rest = _split_directive(line)
        if verb in seen and verb != "matrix":
            raise ParseError(f"second {verb} line", lineno)
        seen.add(verb)
        if verb == "torus_rank":
            try:
                (rank,) = _ints(rest)
            except ValueError:
                raise ParseError(f"bad torus rank: {rest!r}", lineno)
            if rank > 0:  # an action matrix is d rows of d entries; checked before any is built
                check_order(rank, f"torus rank {rank}", rank)
        elif verb == "acting_group":
            acting = read_spec(rest, "group", path.parent)
        elif verb == "extra_factor":
            extra = read_spec(rest, "group", path.parent)
        elif verb == "matrix":
            if rank is None:
                raise ParseError("matrix line before torus_rank", lineno)
            try:
                vals = _ints(rest)
            except ValueError:
                raise ParseError(f"bad matrix line: {line!r}", lineno)
            if len(vals) != 1 + rank * rank:
                raise ParseError(
                    f"matrix needs element index plus {rank * rank} entries", lineno
                )
            g = vals[0]
            if g in matrices:
                raise ParseError(f"second matrix for element {g}", lineno)
            matrices[g] = [
                vals[1 + i * rank: 1 + (i + 1) * rank] for i in range(rank)
            ]
        else:
            raise ParseError(f"unknown directive {verb!r}", lineno)
    if rank is None:
        raise ParseError("model spec is missing torus_rank")
    if acting is None:
        raise ParseError("model spec is missing acting_group")
    return build_model(rank, acting, matrices, extra, name=path.stem)
