"""Seeded inputs for the benchmark's four workloads.

Each workload writes the spec files it needs into a directory and returns
its jobs: one haarcp argv each, with a check of the output against an
independent reference (see reference.py).  The seed changes generators,
labels, spellings, factor orders and matrices.  The amount of work and
the job order stay the same for every seed: random permutation specs are
kept by fixed quotas of closure orders, and the heavy inputs are fixed.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    argv: list[str]
    check: Check


class Specs:
    """Writes numbered spec files into one directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.root / f"f{self.count:03d}-{stem}"
        path.write_text(text, encoding="utf-8")
        return str(path)


# -- output checks -----------------------------------------------------------


def expect(lines: list[str], rc: int = 0) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != rc:
            return f"exit {code}, expected {rc}"
        got = out.splitlines()
        if got != lines:
            return f"output {got[:3]!r} differs from reference {lines[:3]!r}"
        return None
    return check


def group_check(verb: str, facts: dict) -> Check:
    x = ref.fmt(facts["cp"])
    if verb == "cp":
        return expect([f"pair-count:    {x}", f"class-count:   {x}",
                       f"coset-formula: {x}", "PASS agreement"])
    if verb == "classify":
        v = ref.verdict(facts)
        return expect([f"cp = {x}", f"verdict: {v}"], rc=1 if v == "THEOREM VIOLATION" else 0)
    z, n = facts["center"], facts["order"]

    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or len(lines) != 2:
            return f"exit {code}, {len(lines)} lines"
        if lines[0] != f"center order {z} of group order {n}":
            return f"{lines[0]!r}, reference center order {z} of {n}"
        members = {int(t) for t in lines[1].split()}
        if len(members) != z or not all(0 <= m < n for m in members):
            return "center members are not |Z| distinct element indices"
        return None
    return check


def group_jobs(verbs, spec: list[str], facts: dict) -> list[Job]:
    return [Job([verb, *spec], group_check(verb, facts)) for verb in verbs]


# -- spec text ---------------------------------------------------------------


def cycles(p: tuple[int, ...]) -> str:
    """Disjoint-cycle notation on 1-based points for a 0-based permutation."""
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1))
            j = p[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out)


def table_text(T) -> str:
    return f"table {len(T)}\n" + "\n".join(" ".join(map(str, row)) for row in T) + "\n"


def relabelled_table(rng: random.Random, kind: str, n: int = 0) -> list[list[int]]:
    T = ref.named_table(kind, n)
    sigma = list(range(len(T)))
    rng.shuffle(sigma)
    return ref.relabel(T, sigma)


def random_perm_specs(rng: random.Random, degree: int, quota: dict[int, int]):
    """Two-generator permutation sets, kept while their closure order has quota left."""
    need = dict(quota)
    found = []
    ident = tuple(range(degree))
    for _ in range(200000):
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(2)]
        if ident in gens or gens[0] == gens[1]:
            continue
        order = len(ref.perm_closure(gens))
        if need.get(order, 0) > 0:
            need[order] -= 1
            found.append(gens)
            if not any(need.values()):
                return found
    raise RuntimeError(f"quota {quota} not met on degree {degree}")


def perm_spec(specs: Specs, gens) -> tuple[list[str], dict]:
    path = specs.write("perm.group", "".join(f"perm {cycles(g)}\n" for g in gens))
    return [path], ref.perm_group_facts(gens)


# -- census ------------------------------------------------------------------

_SHORT = {"cyclic": "c", "dihedral": "d", "symmetric": "s", "alternating": "a"}
_ALIASES = {
    "trivial": ["trivial", "1"], "klein4": ["klein4", "v4"],
    "quaternion8": ["quaternion8", "q8"], "es27exp3": ["es27exp3", "es27+"],
    "es27exp9": ["es27exp9", "es27-"], "sl25": ["sl25", "sl(2,5)"],
}


def spellings(kind: str, n: int = 0) -> list[str]:
    if kind in _SHORT:
        return [f"{kind} {n}", f"{_SHORT[kind]}{n}"]
    return _ALIASES[kind]


def corpus_64() -> list[tuple[str, str, int]]:
    """(census name, family, parameter) of every builtin group of order <= 64."""
    rows = [("trivial", "trivial", 0)]
    rows += [(f"cyclic {n}", "cyclic", n) for n in range(2, 65)]
    rows.append(("klein4", "klein4", 0))
    rows += [(f"dihedral {n}", "dihedral", n) for n in range(3, 33)]
    rows += [("quaternion8", "quaternion8", 0), ("symmetric 3", "symmetric", 3),
             ("symmetric 4", "symmetric", 4), ("alternating 4", "alternating", 4),
             ("alternating 5", "alternating", 5), ("es27exp3", "es27exp3", 0),
             ("es27exp9", "es27exp9", 0)]
    return rows


def scan_check() -> Check:
    expected = []
    for name, kind, n in corpus_64():
        f = ref.named_facts(kind, n)
        expected.append("|".join([name, str(f["order"]), ref.fmt(f["cp"]),
                                  str(int(f["solvable"])), ref.verdict(f)]))
    expected.sort()

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        got = sorted(out.splitlines())
        if got != expected:
            diff = sorted(set(got) ^ set(expected))[:3]
            return f"scan rows differ from reference: {diff!r}"
        return None
    return check


def census(rng: random.Random, specs: Specs) -> list[Job]:
    """Per-call overhead on many small tables, plus the classification landmarks."""
    jobs: list[Job] = []
    for _name, kind, n in corpus_64():
        f = ref.named_facts(kind, n)
        for verb in ("cp", "classify"):
            jobs += group_jobs([verb], rng.choice(spellings(kind, n)).split(), f)
    a5 = ref.named_facts("alternating", 5)
    for kind, n in (("symmetric", 5), ("sl25", 0)):
        jobs += group_jobs(("cp", "classify"), rng.choice(spellings(kind, n)).split(),
                           ref.named_facts(kind, n))
    for m in (2, 6):
        path = specs.write(f"a5xc{m}.group", f"product a5 c{m}\n")
        jobs += group_jobs(("cp", "classify"), [path],
                           ref.product_facts(a5, ref.named_facts("cyclic", m)))
    jobs.append(Job(["scan", "--machine"], scan_check()))
    quotas = {3: {6: 3, 3: 1}, 4: {24: 3, 12: 2, 8: 2, 4: 1}, 5: {120: 3, 60: 2, 20: 2, 10: 1}}
    for degree, quota in quotas.items():
        for gens in random_perm_specs(rng, degree, quota):
            jobs += group_jobs(("cp", "classify"), *perm_spec(specs, gens))
    for kind, n in (("dihedral", 5), ("quaternion8", 0), ("alternating", 4), ("es27exp9", 0)):
        path = specs.write("table.group", table_text(relabelled_table(rng, kind, n)))
        jobs += group_jobs(("cp", "classify"), [path], ref.named_facts(kind, n))
    return jobs


# -- big tables --------------------------------------------------------------


def big_tables(rng: random.Random, specs: Specs) -> list[Job]:
    """Closure, products and the O(n^2) kernels on tables of order 360 to 1440.

    S6 is named as a builtin first, so the first job pays the S6 build and
    the later S6 x C2 product reuses the cached table, as it would in one
    process of the haarcp command.
    """
    s6 = ref.named_facts("symmetric", 6)
    jobs = group_jobs(("cp", "classify"), ["s6"], s6)
    path = specs.write("s6xc2.group", "product s6 c2\n")
    jobs += group_jobs(("cp",), [path], ref.product_facts(s6, ref.named_facts("cyclic", 2)))
    (gens720,) = random_perm_specs(rng, 6, {720: 1})
    jobs += group_jobs(("classify",), *perm_spec(specs, gens720))
    (gens360,) = random_perm_specs(rng, 6, {360: 1})
    jobs += group_jobs(("cp", "center"), *perm_spec(specs, gens360))
    path = specs.write("a5xc6.group", "product a5 c6\n")
    jobs += group_jobs(("cp", "classify", "center"), [path], ref.product_facts(
        ref.named_facts("alternating", 5), ref.named_facts("cyclic", 6)))
    path = specs.write("a6.group", table_text(relabelled_table(rng, "alternating", 6)))
    jobs += group_jobs(("cp", "classify"), [path], ref.named_facts("alternating", 6))
    return jobs


# -- isoclinism --------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def invariants(kind: str, n: int, m: int, swap: bool) -> dict:
    T = ref.named_table(kind, n)
    if m > 1:
        C = ref.named_table("cyclic", m)
        T = ref.product_table(C, T) if swap else ref.product_table(T, C)
    return ref.table_invariants(T)


class Factored:
    """G x C_m (or C_m x G when swapped) for a named group G, as a CLI operand."""

    def __init__(self, kind: str, n: int, m: int = 1, swap: bool = False):
        self.key = (kind, n, m, swap)
        base = spellings(kind, n)[-1]
        self.operand = base if m == 1 else None
        self.text = f"product c{m} {base}\n" if swap else f"product {base} c{m}\n"

    def cli(self, specs: Specs) -> str:
        if self.operand is None:
            self.operand = specs.write("f.group", self.text)
        return self.operand

    @property
    def invariants(self) -> dict:
        return invariants(*self.key)


def _iso_class(inv: dict) -> tuple:
    """Invariants that isoclinic groups share: |G/Z|, |G'| and cp."""
    return len(inv["pre"]), len(inv["D"]), inv["cp"]


def witness_check(g: Factored, stem: bool, h: Factored | None = None) -> Check:
    """stem: "stem: NAME (order N)" plus a witness F -> NAME; else a witness g -> h."""
    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or not lines:
            return f"exit {code}, {len(lines)} lines"
        target = h
        if stem:
            m = re.fullmatch(r"stem: (\S+) \(order (\d+)\)", lines[0])
            if m is None:
                return f"no stem group printed: {lines[0]!r}"
            try:
                target = Factored(*ref.parse_name(m.group(1)))
            except KeyError:
                return f"unknown stem group name {m.group(1)!r}"
            if len(target.invariants["T"]) != int(m.group(2)):
                return "stem group order mismatch"
            if not ref.is_stem(target.invariants):
                return f"{m.group(1)} is not a stem group"
            lines = lines[1:]
        if _iso_class(target.invariants) != _iso_class(g.invariants):
            return "isoclinism invariants of the printed group differ"
        try:
            alpha, beta = ref.parse_witness(lines)
        except (ValueError, KeyError) as exc:
            return f"unparseable witness: {exc}"
        return ref.witness_error(g.invariants, target.invariants, alpha, beta)
    return check


def isoclinism(rng: random.Random, specs: Specs) -> list[Job]:
    """Stem search and isoclinism witness search with their re-checked witnesses.

    The groups are fixed, so every seed does the same work; the seed picks
    the factor order of each product and the order of each pair, which
    renumbers the elements and so changes every witness printed.
    """
    def F(kind: str, n: int, m: int = 1) -> Factored:
        return Factored(kind, n, m, swap=rng.random() < 0.5)

    def pair(a: Factored, b: Factored) -> tuple[Factored, Factored]:
        return (a, b) if rng.random() < 0.5 else (b, a)

    stems = [F("dihedral", 4, 2), F("quaternion8", 0, 3), F("symmetric", 3, 4),
             F("dihedral", 5, 3), F("alternating", 4, 2), F("symmetric", 4, 2),
             F("es27exp3", 0, 2), F("es27exp9", 0, 2), F("alternating", 5, 6),
             F("cyclic", 20)]
    jobs = [Job(["stem", f.cli(specs)], witness_check(f, stem=True)) for f in stems]
    isoclinic = [
        pair(F("dihedral", 4, 2), F("quaternion8", 0, 3)),
        pair(F("es27exp3", 0, 2), F("es27exp9", 0)),
        pair(F("symmetric", 3, 2), F("dihedral", 3, 3)),
        pair(F("dihedral", 6), F("symmetric", 3, 2)),
        pair(F("alternating", 4, 2), F("alternating", 4, 3)),
        pair(F("alternating", 5, 2), F("alternating", 5, 3)),
        pair(F("dihedral", 5, 2), F("dihedral", 10)),
        pair(F("dihedral", 4, 3), F("dihedral", 4, 2)),
    ]
    not_isoclinic = [
        pair(F("alternating", 4), F("dihedral", 12)),
        pair(F("dihedral", 4, 3), F("symmetric", 3, 2)),
        pair(F("es27exp3", 0, 2), F("dihedral", 4, 3)),
        pair(F("alternating", 5, 2), F("symmetric", 5)),
        pair(F("quaternion8", 0, 2), F("dihedral", 8)),
        pair(F("symmetric", 4), F("alternating", 4, 2)),
    ]
    for a, b in isoclinic:
        jobs.append(Job(["isoclinic", a.cli(specs), b.cli(specs)],
                        witness_check(a, stem=False, h=b)))
    for a, b in not_isoclinic:
        if _iso_class(a.invariants) == _iso_class(b.invariants):
            raise RuntimeError(f"{a.key} and {b.key} are not provably non-isoclinic")
        jobs.append(Job(["isoclinic", a.cli(specs), b.cli(specs)], expect(["none"])))
    return jobs


# -- compact models ----------------------------------------------------------

ROT90 = ((0, -1), (1, 0))
# The actions of haarcp's standard model battery: label, torus rank, acting
# group (family, parameter), generator matrices by element index.
BATTERY_ACTIONS = [
    ("o2", 1, ("cyclic", 2), {1: ((-1,),)}),
    ("t2-sign", 2, ("cyclic", 2), {1: ((-1, 0), (0, -1))}),
    ("t2-swap", 2, ("cyclic", 2), {1: ((0, 1), (1, 0))}),
    ("t2-c3", 2, ("cyclic", 3), {1: ((0, -1), (1, -1))}),
    ("t2-c4", 2, ("cyclic", 4), {1: ROT90}),
    ("t2-s3", 2, ("symmetric", 3), {2: ((0, 1), (1, 0)), 3: ((0, -1), (1, -1))}),
    ("t2-d4", 2, ("dihedral", 4), {1: ROT90, 4: ((1, 0), (0, -1))}),
    ("t3-sign", 3, ("cyclic", 2), {1: ((-1, 0, 0), (0, -1, 0), (0, 0, -1))}),
    ("t3-c4", 3, ("cyclic", 4), {1: ((0, -1, 0), (1, 0, 0), (0, 0, 1))}),
    ("finite-c2", 0, ("cyclic", 2), {}),
    ("trivial-s3", 2, ("symmetric", 3), {}),
]
BATTERY_FACTORS = [("trivial", 0), ("cyclic", 2), ("symmetric", 3), ("quaternion8", 0),
                   ("alternating", 5)]
# Seeded actions: rank, block sizes k1, k2 of two signed cycles, multipliers
# of the cyclic orders (a multiplier of 2 leaves a kernel), finite factor.
SEEDED_ACTIONS = [
    (3, 2, 1, 2, 1, ("cyclic", 2)),
    (4, 3, 1, 1, 2, ("symmetric", 3)),
    (5, 2, 2, 2, 1, ("quaternion8", 0)),
    (6, 3, 2, 1, 2, ("cyclic", 2)),
    (7, 4, 2, 1, 1, ("dihedral", 4)),
    (8, 3, 3, 1, 1, ("symmetric", 3)),
]
MC_SAMPLES = 1_000_000


def _signed_cycle(rng: random.Random, d: int, coords: list[int], sign: int):
    """Matrix sending e_c[i] to +-e_c[i+1] along coords, with sign product `sign`."""
    signs = [rng.choice((1, -1)) for _ in coords]
    if math.prod(signs) != sign:
        signs[0] = -signs[0]
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for c in coords:
        m[c][c] = 0
    for i, c in enumerate(coords):
        m[coords[(i + 1) % len(coords)]][c] = signs[i]
    order = len(coords) * (1 if sign == 1 else 2)
    return tuple(tuple(r) for r in m), order


def _unimodular(rng: random.Random, d: int):
    """A random unimodular matrix and its inverse, from d row operations."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    V = [row[:] for row in U]
    for _ in range(d):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        for k in range(d):
            U[i][k] += s * U[j][k]
        for k in range(d):
            V[k][j] -= s * V[k][i]
    return tuple(map(tuple, U)), tuple(map(tuple, V))


def _power(m, k):
    out = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
    for _ in range(k):
        out = ref.matmul(out, m)
    return out


def _cycle(start: int, length: int, degree: int) -> tuple[int, ...]:
    """The permutation cycling points start..start+length-1 on 0..degree-1."""
    p = list(range(degree))
    for i in range(length):
        p[start + i] = start + (i + 1) % length
    return tuple(p)


def model_text(rank: int, acting: str, mats: dict, factor: str) -> str:
    lines = [f"torus_rank {rank}", f"acting_group {acting}"]
    lines += [f"matrix {g} " + " ".join(str(v) for row in m for v in row)
              for g, m in mats.items()]
    lines.append(f"extra_factor {factor}")
    return "\n".join(lines) + "\n"


def model_jobs(path: str, facts: dict, L_order: int, mc_seed: int | None) -> list[Job]:
    x = ref.fmt(facts["cp"])
    t2 = [f"PASS cp = {x}"]
    if facts["cp"] > Fraction(1, 4):
        t2.append(f"note: cp = {x} > 1/4: FC index must be 1")
    else:
        t2.append(f"note: cp = {x} <= 1/4: nothing asserted")
        if facts["cp"] == Fraction(1, 4) and facts["kernel"] < facts["order"]:
            t2.append("note: sharpness: cp exactly 1/4 with infinite derived subgroup")
    fc = [f"action kernel size {facts['kernel']} of |Q| = {facts['order']}",
          f"FC index {facts['order'] // facts['kernel']}",
          f"finite shadow order {facts['kernel'] * L_order}"]
    jobs = [Job(["verify-t1", path], t1_check(facts)),
            Job(["verify-t2", path], expect(t2)),
            Job(["fc", path], expect(fc))]
    if mc_seed is not None:
        jobs.append(Job(["mc", "--samples", str(MC_SAMPLES), "--seed", str(mc_seed), path],
                        mc_check(facts["cp"])))
    return jobs


def t1_check(facts: dict) -> Check:
    x = ref.fmt(facts["cp"])

    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or not lines:
            return f"exit {code}"
        if lines[0] != f"PASS cp equality: direct {x} vs reduced {x}":
            return f"{lines[0]!r}, reference cp {x}"
        for line in lines[1:]:
            m = re.fullmatch(r"PASS stem clause: (\S+)", line)
            if m:
                try:
                    stem_cp = ref.named_facts(*ref.parse_name(m.group(1)))["cp"]
                except KeyError:
                    return f"unknown stem group {m.group(1)!r}"
                if stem_cp != facts["shadow_cp"]:
                    return f"stem {m.group(1)} has cp {stem_cp}, shadow {facts['shadow_cp']}"
            elif not line.startswith("note: "):
                return f"unexpected line {line!r}"
        return None
    return check


def mc_check(exact: Fraction) -> Check:
    def check(code: int, out: str) -> str | None:
        lines = out.splitlines()
        m = re.fullmatch(r"estimate (\S+) \+- (\S+) \((\d+) samples\)", lines[0]) if lines else None
        if code != 0 or m is None or lines[1:] != [f"exact {ref.fmt(exact)}"]:
            return f"exit {code}, output {lines!r}"
        sigma = (float(exact) * (1 - float(exact)) / MC_SAMPLES) ** 0.5
        if abs(float(m.group(1)) - float(exact)) > 5 * sigma + 1e-6:
            return f"estimate {m.group(1)} is more than 5 sigma from {ref.fmt(exact)}"
        return None
    return check


def models(rng: random.Random, specs: Specs) -> list[Job]:
    """Model parsing, FC-centers, both cp routes, the stem clause and Monte Carlo."""
    jobs: list[Job] = []
    mc_models = {("t2-c4", "trivial"), ("o2", "alternating")}
    for label, rank, (qk, qn), mats in BATTERY_ACTIONS:
        for fk, fn in BATTERY_FACTORS:
            L = ref.named_facts(fk, fn)
            facts = ref.model_facts(ref.named_table(qk, qn), mats, rank, L["order"], L["cp"])
            acting = rng.choice(spellings(qk, qn)).replace(" ", "")
            factor = rng.choice(spellings(fk, fn)).replace(" ", "")
            path = specs.write(f"{label}.model", model_text(rank, acting, mats, factor))
            seed = rng.randrange(2**32) if (label, fk) in mc_models else None
            jobs += model_jobs(path, facts, L["order"], seed)
    for i, (rank, k1, k2, m1, m2, (fk, fn)) in enumerate(SEEDED_ACTIONS):
        coords = rng.sample(range(rank), k1 + k2)
        p1, o1 = _signed_cycle(rng, rank, coords[:k1], -1)
        p2, o2 = _signed_cycle(rng, rank, coords[k1:], 1 if k2 > 1 else -1)
        a, b = o1 * m1, o2 * m2
        U, V = _unimodular(rng, rank)
        g1, g2 = (ref.matmul(ref.matmul(U, p), V) for p in (p1, p2))
        if _power(g1, a) != _power(g1, 0) or _power(g2, b) != _power(g2, 0):
            raise RuntimeError("seeded action is not a homomorphism")
        # C_a x C_b: generator 1 cycles points 1..a, generator 2 points a+1..a+b
        acting = specs.write("q.group", f"perm {cycles(_cycle(0, a, a + b))}\n"
                             f"perm {cycles(_cycle(a, b, a + b))}\n")
        L = ref.named_facts(fk, fn)
        # C_a x C_b in the reference's numbering: x = (1, 0) is b, y = (0, 1) is 1
        Q = ref.product_table(ref.named_table("cyclic", a), ref.named_table("cyclic", b))
        facts = ref.model_facts(Q, {b: g1, 1: g2}, rank, L["order"], L["cp"])
        path = specs.write(f"seeded-t{rank}.model",
                           model_text(rank, Path(acting).name, {1: g1, 2: g2},
                                      spellings(fk, fn)[-1].replace(" ", "")))
        jobs += model_jobs(path, facts, L["order"], rng.randrange(2**32) if i == 1 else None)
    return jobs


WORKLOADS = {
    "census": census,
    "big-tables": big_tables,
    "isoclinism": isoclinism,
    "models": models,
}
