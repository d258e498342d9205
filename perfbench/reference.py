"""Independent reference values for checking haarcp's outputs.

Nothing here imports haarcp.  Values come from closed forms, from sympy's
permutation groups, or from small Cayley-table routines written for the
benchmark.  The table builders follow the element numbering of haarcp's
named constructors, because printed witnesses name elements by index and
that numbering is part of the program's output.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache

SOLVABILITY_THRESHOLD = Fraction(3, 40)

# -- closed forms ------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts <= largest, parts in descending order."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    return tuple(
        (k,) + rest
        for k in range(min(n, largest), 0, -1)
        for rest in partitions(n - k, k)
    )


def classes_alternating(n: int) -> int:
    """k(A_n): even cycle types, doubled when the parts are distinct and odd."""
    k = 0
    for lam in partitions(n):
        if (n - len(lam)) % 2:
            continue
        split = len(set(lam)) == len(lam) and all(p % 2 for p in lam)
        k += 2 if split and n > 1 else 1
    return k


def cp_dihedral(n: int) -> Fraction:
    """cp of the dihedral group of order 2n."""
    if n <= 2:
        return Fraction(1)
    return Fraction(n + 3, 4 * n) if n % 2 else Fraction(n + 6, 4 * n)


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def named_facts(kind: str, n: int = 0) -> dict:
    """Order, cp, center order, solvability and A5-times-abelian of a named group."""
    if kind in ("trivial", "cyclic", "klein4"):
        order = {"trivial": 1, "klein4": 4}.get(kind, n)
        return _facts(order, Fraction(1), order, True, False)
    if kind == "dihedral":
        return _facts(2 * n, cp_dihedral(n), 2 * n if n <= 2 else 2 - n % 2, True, False)
    if kind == "quaternion8":
        return _facts(8, Fraction(5, 8), 2, True, False)
    if kind in ("es27exp3", "es27exp9"):
        return _facts(27, Fraction(11, 27), 3, True, False)
    if kind == "sl25":
        return _facts(120, Fraction(9, 120), 2, False, False)
    if kind == "symmetric":
        order = _factorial(n)
        return _facts(order, Fraction(len(partitions(n)), order), 2 if n == 2 else 1,
                      n <= 4, False)
    if kind == "alternating":
        order = max(_factorial(n) // 2, 1)
        return _facts(order, Fraction(classes_alternating(n), order),
                      order if n <= 3 else 1, n <= 4, n == 5)
    raise KeyError(kind)


def _facts(order, cp, center, solvable, a5_x_abelian) -> dict:
    return {"order": order, "cp": cp, "center": center, "solvable": solvable,
            "a5_x_abelian": a5_x_abelian}


def product_facts(a: dict, b: dict) -> dict:
    """cp, center and order are multiplicative over direct products."""
    a5ab = (a["a5_x_abelian"] and b["cp"] == 1) or (b["a5_x_abelian"] and a["cp"] == 1)
    return _facts(a["order"] * b["order"], a["cp"] * b["cp"], a["center"] * b["center"],
                  a["solvable"] and b["solvable"], a5ab)


# haarcp group names ("D4", "Q8", "ES27+", "1", ...) and CLI short names.
_NAME_RE = re.compile(r"^([cdsaCDSA])(\d+)$")
_FIXED = {
    "1": ("trivial", 0), "trivial": ("trivial", 0), "v4": ("klein4", 0),
    "klein4": ("klein4", 0), "q8": ("quaternion8", 0),
    "quaternion8": ("quaternion8", 0), "sl25": ("sl25", 0),
    "sl(2,5)": ("sl25", 0), "es27+": ("es27exp3", 0), "es27exp3": ("es27exp3", 0),
    "es27-": ("es27exp9", 0), "es27exp9": ("es27exp9", 0),
}
_FAMILY = {"c": "cyclic", "d": "dihedral", "s": "symmetric", "a": "alternating"}


def parse_name(name: str) -> tuple[str, int]:
    """("dihedral", 4) for "D4", "d4" or "dihedral 4"."""
    text = " ".join(name.lower().split())
    if text in _FIXED:
        return _FIXED[text]
    parts = text.split()
    if len(parts) == 2 and parts[1].isdigit():
        for fam in _FAMILY.values():
            if parts[0] == fam:
                return fam, int(parts[1])
    m = _NAME_RE.match(text)
    if m:
        return _FAMILY[m.group(1).lower()], int(m.group(2))
    raise KeyError(name)


def verdict(facts: dict) -> str:
    """The 3/40 trichotomy verdict haarcp's classify prints."""
    if facts["cp"] == 1:
        return "Abelian"
    if facts["solvable"]:
        return "SolvableNonabelian"
    if facts["a5_x_abelian"]:
        return "A5TimesAbelian"
    if facts["cp"] <= SOLVABILITY_THRESHOLD:
        return "NonsolvableBelowThreshold"
    return "THEOREM VIOLATION"


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- sympy permutation groups ------------------------------------------------


def perm_group_facts(perms: list[tuple[int, ...]]) -> dict:
    """Order, cp, center order, solvability and A5 x abelian test via sympy."""
    from sympy.combinatorics import Permutation, PermutationGroup

    G = PermutationGroup([Permutation(list(p)) for p in perms])
    order = int(G.order())
    cp = Fraction(len(G.conjugacy_classes()), order)
    z = int(G.center().order())
    solvable = bool(G.is_solvable)
    a5ab = False
    if not solvable:
        D = G.derived_subgroup()
        a5ab = int(D.order()) == 60 and z * 60 == order and D.is_perfect
    return _facts(order, cp, z, solvable, a5ab)


# -- Cayley tables in haarcp's element numbering ------------------------------


def _table(elems, mul) -> list[list[int]]:
    index = {e: i for i, e in enumerate(elems)}
    return [[index[mul(a, b)] for b in elems] for a in elems]


def _compose(p, q):
    return tuple(q[i] for i in p)


def _even(p) -> bool:
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


_Q8 = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


@lru_cache(maxsize=None)
def named_table(kind: str, n: int = 0) -> tuple[tuple[int, ...], ...]:
    if kind == "trivial":
        t = [[0]]
    elif kind == "cyclic":
        t = [[(a + b) % n for b in range(n)] for a in range(n)]
    elif kind == "klein4":
        t = [[a ^ b for b in range(4)] for a in range(4)]
    elif kind == "dihedral":
        def mul(x, y):
            if x[1] == 0:
                return ((x[0] + y[0]) % n, y[1])
            return ((x[0] - y[0]) % n, 1 - y[1])
        t = _table([(r, s) for s in (0, 1) for r in range(n)], mul)
    elif kind == "symmetric":
        t = _table(sorted(itertools.permutations(range(n))), _compose)
    elif kind == "alternating":
        t = _table(sorted(p for p in itertools.permutations(range(n)) if _even(p)),
                   _compose)
    elif kind == "quaternion8":
        def mul(x, y):
            s, a = _Q8[(x[1], y[1])]
            return (x[0] * y[0] * s, a)
        t = _table([(s, a) for s in (1, -1) for a in "1ijk"], mul)
    elif kind == "es27exp3":
        t = _table(list(itertools.product(range(3), repeat=3)),
                   lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3,
                                 (x[2] + y[2] + x[0] * y[1]) % 3))
    elif kind == "es27exp9":
        t = _table([(a, b) for a in range(9) for b in range(3)],
                   lambda u, v: ((u[0] + v[0] * pow(4, u[1], 9)) % 9, (u[1] + v[1]) % 3))
    else:
        raise KeyError(kind)
    return tuple(tuple(r) for r in t)


def product_table(A, B) -> tuple[tuple[int, ...], ...]:
    """Direct product on pairs (a, b) -> a*|B| + b, haarcp's numbering."""
    m = len(B)
    return tuple(
        tuple(A[a1][a2] * m + B[b1][b2] for a2 in range(len(A)) for b2 in range(m))
        for a1 in range(len(A)) for b1 in range(m)
    )


def relabel(T, sigma: list[int]) -> list[list[int]]:
    """The table of the same group with element x renamed sigma[x]."""
    n = len(T)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[T[a][b]]
    return out


def perm_closure(perms: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Elements of the group the permutations generate, identity first."""
    ident = tuple(range(len(perms[0])))
    elems, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in perms:
                y = _compose(x, g)
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems


# -- isoclinism witnesses ----------------------------------------------------


def _inverse(T) -> tuple[int, list[int]]:
    n = len(T)
    e = next(i for i in range(n) if all(T[i][g] == g for g in range(n)))
    inv = [0] * n
    for g in range(n):
        inv[g] = next(h for h in range(n) if T[g][h] == e)
    return e, inv


def table_invariants(T) -> dict:
    """Center, central-quotient numbering and derived subgroup of a table."""
    n = len(T)
    e, inv = _inverse(T)
    Z = [z for z in range(n) if all(T[z][g] == T[g][z] for g in range(n))]
    proj = [-1] * n
    pre: list[int] = []
    for g in range(n):
        if proj[g] < 0:
            for z in Z:
                proj[T[g][z]] = len(pre)
            pre.append(g)

    def comm(x, y):
        return T[T[T[inv[x]][inv[y]]][x]][y]

    # G' is generated by commutators of coset representatives of G/Z
    gens = {comm(pre[a], pre[b]) for a in range(len(pre)) for b in range(len(pre))}
    D, frontier = {e}, [e]
    while frontier:
        frontier = list({T[x][g] for x in frontier for g in gens} - D)
        D.update(frontier)
    pairs = sum(1 for a in range(n) for b in range(n) if T[a][b] == T[b][a])
    return {"T": T, "Z": set(Z), "proj": proj, "pre": pre, "D": D, "comm": comm,
            "cp": Fraction(pairs, n * n)}


def is_stem(inv: dict) -> bool:
    return inv["Z"] <= inv["D"]


def parse_witness(lines: list[str]) -> tuple[list[int], dict[int, int]]:
    """(alpha, beta) from the "quotient-map" / "derived-map" blocks."""
    i = lines.index("quotient-map")
    j = lines.index("derived-map")
    alpha_pairs = [tuple(int(v) for v in ln.split(" -> ")) for ln in lines[i + 1:j]]
    beta = dict(tuple(int(v) for v in ln.split(" -> ")) for ln in lines[j + 1:])
    alpha = [b for a, b in sorted(alpha_pairs)]
    if [a for a, _ in sorted(alpha_pairs)] != list(range(len(alpha))):
        raise ValueError("quotient map is not indexed 0..k-1")
    return alpha, beta


def witness_error(g: dict, h: dict, alpha: list[int], beta: dict[int, int]) -> str | None:
    """None if (alpha, beta) is an isoclinism from g to h, else the reason."""
    k = len(g["pre"])
    if len(h["pre"]) != k or sorted(alpha) != list(range(k)):
        return "quotient map is not a bijection of the central quotients"
    Tg, Th = g["T"], h["T"]
    gp, hp = g["pre"], h["pre"]
    for a in range(k):
        for b in range(k):
            if alpha[g["proj"][Tg[gp[a]][gp[b]]]] != h["proj"][Th[hp[alpha[a]]][hp[alpha[b]]]]:
                return "quotient map is not a homomorphism"
    if set(beta) != g["D"] or set(beta.values()) != h["D"] or len(beta) != len(h["D"]):
        return "derived map is not a bijection of the derived subgroups"
    for a in beta:
        for b in beta:
            if beta[Tg[a][b]] != Th[beta[a]][beta[b]]:
                return "derived map is not a homomorphism"
    for a in range(k):
        for b in range(k):
            if beta[g["comm"](gp[a], gp[b])] != h["comm"](hp[alpha[a]], hp[alpha[b]]):
                return "commutator square does not commute"
    return None


# -- compact models ----------------------------------------------------------


def matmul(a, b):
    d = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
                 for i in range(d))


def model_facts(Q, generator_matrices: dict, rank: int, L_order: int,
                L_cp: Fraction) -> dict:
    """cp, action kernel and FC data of (T^rank x| Q) x L.

    Two elements commute on a set of positive measure only when both act
    trivially on the torus, so cp = cp(L) * #{commuting pairs in K} / |Q|^2
    with K the kernel of the action.
    """
    n = len(Q)
    e = next(i for i in range(n) if all(Q[i][g] == g for g in range(n)))
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    action = {e: ident}
    if generator_matrices:
        frontier = [e]
        while frontier:
            nxt = []
            for q in frontier:
                for g, m in generator_matrices.items():
                    r = Q[q][g]
                    if r not in action:
                        action[r] = matmul(action[q], m)
                        nxt.append(r)
            frontier = nxt
    else:
        action = {q: ident for q in range(n)}
    kernel = [q for q in range(n) if action[q] == ident]
    pairs = sum(1 for a in kernel for b in kernel if Q[a][b] == Q[b][a])
    return {
        "cp": L_cp * Fraction(pairs, n * n),
        "order": n,
        "kernel": len(kernel),
        "shadow_order": len(kernel) * L_order,
        "shadow_cp": L_cp * Fraction(pairs, len(kernel) ** 2),
    }
