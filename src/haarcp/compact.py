"""Finite-by-torus compact groups: (T^d x| Q) x L with Q acting by integer matrices.

The commuting probability of such a model is exactly computable.  Two
independent routes are exposed:

  * cp_semianalytic: decompose the commuting-pair measure over the finite
    parts and evaluate the torus contribution exactly.  Two elements
    (a, q) and (b, r) of T^d x| Q commute iff qr = rq and
    (I - M_r) a = (I - M_q) b on the torus; the solution set carries Haar
    measure 1 when both matrices vanish and 0 otherwise (a nonzero integer
    matrix maps the torus onto a positive-dimensional subtorus, so the
    constraint cuts a proper closed subgroup of measure 0).  Hence
    cp = cp(L) * #{(q, r) in K^2 : qr = rq} / |Q|^2 with K the action kernel.

  * cp_theorem1: reduce to the finite shadow K x L of the FC-center and
    divide by the square of its index |Q : K|.

Their exact agreement on every model is the machine-checkable content of
the coset-reduction theorem for this family.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .builders import trivial
from .errors import NotAHomomorphism, NotUnimodular, RankMismatch, ZeroSamples
from .groups import FiniteGroup, Subgroup, _grow, direct_product, subgroup_as_group
from .cp import _symmetric_entries, cp_pair_count

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


def mat_det(a: Matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    Bareiss (Math. Comp. 22, 1968): step k replaces each entry below and to
    the right of the pivot by (a_ij * a_kk - a_ik * a_kj) / previous pivot,
    a division that is always exact, so the work stays in the integers and
    takes O(d^3) operations.  A zero pivot is swapped for a nonzero entry
    further down its column (flipping the sign); if there is none, the
    matrix is singular.
    """
    m = [list(row) for row in a]
    d = len(m)
    if d == 0:
        return 1
    sign, prev = 1, 1
    for k in range(d - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, d):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


class CompactModel(NamedTuple):
    """(T^torus_rank x| acting_group) x extra_factor, with the full action table."""

    torus_rank: int
    acting_group: FiniteGroup
    action: tuple[Matrix, ...]  # one matrix per element of acting_group
    extra_factor: FiniteGroup
    name: str = "model"


class FcDescription(NamedTuple):
    """FC-center T^d x K x L of a model, given by the action kernel K."""

    kernel: tuple[int, ...]  # element indices of Q with M_q = I
    index: int  # |Q : K|


def build_model(
    torus_rank: int,
    acting_group: FiniteGroup,
    generator_matrices: Mapping[int, Sequence[Sequence[int]]] | None = None,
    extra_factor: FiniteGroup | None = None,
    name: str = "model",
) -> CompactModel:
    """Validate and complete a model description.

    Matrices may be given for a generating set only; the rest of the action
    is filled in by multiplying along the Cayley table, and the homomorphism
    law is checked on every generator edge of that walk.  An empty matrix
    map means the trivial action.
    """
    Q = acting_group
    L = extra_factor if extra_factor is not None else trivial()
    d = torus_rank
    if d < 0:
        raise RankMismatch("torus rank must be >= 0")
    ident = identity_matrix(d)

    given: dict[int, Matrix] = {}
    for g, raw in (generator_matrices or {}).items():
        if not 0 <= g < Q.order:
            raise RankMismatch(f"generator index {g} out of range for |Q| = {Q.order}")
        m = tuple(tuple(int(v) for v in row) for row in raw)
        if len(m) != d or any(len(row) != d for row in m):
            raise RankMismatch(f"matrix for element {g} is not {d}x{d}")
        det = mat_det(m)
        if det not in (1, -1):
            raise NotUnimodular(f"matrix for element {g} has determinant {det}")
        given[g] = m

    if Q.identity in given and given[Q.identity] != ident:
        raise NotAHomomorphism("identity element must act by the identity matrix")
    gens = [g for g in given if g != Q.identity]
    if not gens:
        # no matrices given: trivial action on every element
        return CompactModel(d, Q, (ident,) * Q.order, L, name=name)
    # The closure walk of Q from the identity crosses every edge q -> q*g,
    # and each crossing sets or checks M(q*g) = M(q) M(g).  That proves the
    # homomorphism law: by induction on the length of a word w in the
    # generators, M(q w g) = M(q w) M(g) = M(q) M(w) M(g) = M(q) M(w g),
    # and every element of the finite group Q is such a word.
    action: dict[int, Matrix] = {Q.identity: ident}

    def step(q: int, g: int) -> int:
        r = Q.mul(q, g)
        m = mat_mul(action[q], given[g])
        if action.setdefault(r, m) != m:
            raise NotAHomomorphism(f"conflicting matrices reached for element {r}")
        return r

    _grow([Q.identity], {Q.identity: 0}, gens, step, 0)
    if len(action) < Q.order:
        raise NotAHomomorphism("matrix-bearing elements do not generate the acting group")
    full = tuple(action[q] for q in range(Q.order))
    return CompactModel(d, Q, full, L, name=name)


def fc_center(model: CompactModel) -> FcDescription:
    """Elements with finite conjugacy class: T^d x K x L, K the action kernel.

    The class of (a, q, l) sweeps (a + (I - M_q) b, q', l') over torus
    elements b, which is finite iff (I - M_q) kills the torus, i.e. M_q = I.
    No table is built here; finite_shadow builds K x L.
    """
    Q = model.acting_group
    ident = identity_matrix(model.torus_rank)
    kernel = tuple(q for q in range(Q.order) if model.action[q] == ident)
    return FcDescription(kernel, Q.order // len(kernel))


def finite_shadow(model: CompactModel, fc: FcDescription) -> FiniteGroup:
    """K x L: the FC-center without its torus, which is central."""
    # the kernel of a homomorphism is a subgroup; build_model checked the law
    kgrp, _ = subgroup_as_group(Subgroup(model.acting_group, fc.kernel))
    return direct_product(kgrp, model.extra_factor)


def cp_semianalytic(model: CompactModel) -> Fraction:
    """Exact cp by direct measure decomposition; independent of cp_theorem1."""
    Q = model.acting_group
    ident = identity_matrix(model.torus_rank)
    kernel = [q for q in range(Q.order) if model.action[q] == ident]
    surviving = _symmetric_entries(Q.mul_table, kernel)
    return cp_pair_count(model.extra_factor) * Fraction(surviving, Q.order**2)


def cp_theorem1(shadow: FiniteGroup, index: int) -> Fraction:
    """cp(shadow) / index^2, for the finite_shadow of a model and its FC index.

    An infinite FC-index (where the convention 1/inf = 0 would apply) cannot
    occur in this family: the index always divides |Q|.
    """
    return cp_pair_count(shadow) / (index**2)


# -- Monte Carlo -----------------------------------------------------------

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_M1 = 0xBF58476D1CE4E5B9
_SM_M2 = 0x94D049BB133111EB
_SM_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64_stream(seed: int, count: int, first: int = 1, step: int = 1,
                      at=None, out=None, scratch=None):
    """Words first + k * step of the splitmix64 stream for `seed`, k = 0..count-1.

    Returns `count` words as a uint64 array; the defaults give words
    1..count.  Counter-based, so any word is computed directly: word i
    mixes seed + i * golden-gamma.  Same seed gives the same stream
    everywhere.  `at`, a uint64 array of `count` counters, replaces
    0..count-1 by its own values of k.  `out` and `scratch`, uint64 arrays
    of `count` words, are written in place of fresh ones; the words land
    in `out`, which may be `at` itself.
    """
    import numpy as np

    k = np.arange(count, dtype=np.uint64) if at is None else at
    z = np.empty(count, dtype=np.uint64) if out is None else out
    t = np.empty(count, dtype=np.uint64) if scratch is None else scratch
    with np.errstate(over="ignore"):
        np.multiply(k, np.uint64(step * _SM_GAMMA & _SM_MASK), out=z)
        z += np.uint64((seed + first * _SM_GAMMA) & _SM_MASK)
        for shift, mul in ((30, _SM_M1), (27, _SM_M2), (31, None)):
            np.right_shift(z, np.uint64(shift), out=t)
            z ^= t
            if mul is not None:
                z *= np.uint64(mul)
    return z


class MonteCarloEstimate(NamedTuple):
    estimate: float
    stderr: float
    samples: int
    hits: int


# Samples per Monte Carlo block: memory is O(MC_BLOCK) whatever the sample count.
MC_BLOCK = 1 << 16


def cp_monte_carlo(model: CompactModel, samples: int, seed: int) -> MonteCarloEstimate:
    """Estimate cp by sampling Haar pairs; deterministic for a fixed seed.

    Stream layout: each of the two elements of a pair owns d + 2 consecutive
    words, d torus coordinates, then the Q index, then the L index, so pair
    i starts at word 1 + i * 2(d + 2).  A pair commutes iff the Q parts
    commute, both act trivially on the torus, and the L parts commute; the
    torus coordinates never decide a hit (a continuous sample never lands
    on the measure-zero commuting sets).  So per block of MC_BLOCK pairs
    only the two Q index words of every pair are computed, and the two L
    index words only of the pairs whose Q part hits, each by its position
    in the layout.  The hit count, hence the estimate, is the same as
    drawing the whole layout, and memory is three block buffers and the
    block's counters, whatever `samples` is.
    """
    if samples < 1:
        raise ZeroSamples("need at least one sample")
    if not 0 <= seed <= _SM_MASK:  # the stream reads the seed mod 2^64
        raise ValueError(f"seed must be in 0..{_SM_MASK}, got {seed}")
    import numpy as np

    Q = model.acting_group
    L = model.extra_factor
    d = model.torus_rank
    ident = identity_matrix(d)
    nq, nl = Q.order, L.order

    in_kernel = [model.action[q] == ident for q in range(nq)]
    # flat pair tables: entry a * n + b is pair (a, b)
    q_hit = np.array(
        [in_kernel[a] and in_kernel[b] and Q.commutes(a, b)
         for a in range(nq) for b in range(nq)],
        dtype=bool,
    )
    l_comm = np.array(
        [L.commutes(a, b) for a in range(nl) for b in range(nl)], dtype=bool
    )

    counters = np.arange(MC_BLOCK, dtype=np.uint64)
    words, scratch, index = (np.empty(MC_BLOCK, dtype=np.uint64) for _ in range(3))
    stride = 2 * (d + 2)

    def draw(first, at, out, order):
        """Words first + k * stride for k in `at`, reduced mod `order`, in `out`."""
        count = len(at)
        w = splitmix64_stream(seed, count, first, stride, at, out, scratch[:count])
        t = np.floor_divide(w, order, out=scratch[:count])
        t *= order
        w -= t
        return w

    hits = 0
    for start in range(0, samples, MC_BLOCK):
        n = min(MC_BLOCK, samples - start)
        first = 1 + start * stride
        k = counters[:n]
        # q0 * |Q| + q1 for every pair of the block
        pair = np.multiply(draw(first + d, k, words[:n], nq), nq, out=index[:n])
        pair += draw(first + 2 * d + 2, k, words[:n], nq)
        q_ok = q_hit[pair.view(np.intp)]
        m = int(np.count_nonzero(q_ok))
        if not m:
            continue
        # l0 * |L| + l1, only for the pairs whose Q part hits
        at = np.compress(q_ok, k, out=index[:m])
        pair = np.multiply(draw(first + d + 1, at, words[:m], nl), nl, out=words[:m])
        pair += draw(first + 2 * d + 3, at, at, nl)
        hits += int(np.count_nonzero(l_comm[pair.view(np.intp)]))
    p = hits / samples
    stderr = (p * (1.0 - p) / samples) ** 0.5
    return MonteCarloEstimate(p, stderr, samples, hits)


# -- standard test battery -------------------------------------------------

ROT90 = ((0, -1), (1, 0))


def standard_model_battery() -> list[CompactModel]:
    """Curated models covering every action/factor combination the theorems need.

    Cartesian product of a fixed action list (trivial, sign, swap, rotation
    and reflection actions of C2, C3, C4, S3, D4 on tori of rank <= 3) with
    the finite factors {1, C2, S3, Q8, A5}.
    """
    from . import builders

    c2, c3, c4 = builders.cyclic(2), builders.cyclic(3), builders.cyclic(4)
    s3, d4 = builders.symmetric(3), builders.dihedral(4)
    # (label, torus rank, acting group, generator matrices)
    actions = [
        ("o2", 1, c2, {1: ((-1,),)}),
        ("t2-sign", 2, c2, {1: ((-1, 0), (0, -1))}),
        ("t2-swap", 2, c2, {1: ((0, 1), (1, 0))}),
        ("t2-c3", 2, c3, {1: ((0, -1), (1, -1))}),
        ("t2-c4", 2, c4, {1: ROT90}),
        ("t2-s3", 2, s3, {2: ((0, 1), (1, 0)), 3: ((0, -1), (1, -1))}),
        ("t2-d4", 2, d4, {1: ROT90, 4: ((1, 0), (0, -1))}),
        ("t3-sign", 3, c2, {1: ((-1, 0, 0), (0, -1, 0), (0, 0, -1))}),
        ("t3-c4", 3, c4, {1: ((0, -1, 0), (1, 0, 0), (0, 0, 1))}),
        ("finite-c2", 0, c2, {}),
        ("trivial-s3", 2, s3, {}),
    ]
    factors = [
        ("1", builders.trivial()),
        ("c2", c2),
        ("s3", builders.symmetric(3)),
        ("q8", builders.quaternion8()),
        ("a5", builders.alternating(5)),
    ]
    models = []
    for alabel, d, Q, mats in actions:
        for flabel, L in factors:
            models.append(
                build_model(d, Q, mats, L, name=f"{alabel} x {flabel}")
            )
    return models
