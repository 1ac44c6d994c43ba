"""Deterministic fixture builders for tests and the command-line generator.

Every random object here is valid by construction and passes its own
validator before being returned (``InternalConsistencyError`` otherwise),
so a fixture that reaches a test is already a certified instance.  The
generic recipe is: build a retract plus an acyclic cone in block form,
where every identity is visible by inspection, then conjugate by random
filtered unimodular automorphisms to hide the block structure.
Conjugation preserves all identities and the side conditions exactly,
and filtered automorphisms with filtered inverses preserve every weight
bound.  Each automorphism is 1 plus a map that is strictly triangular with
the basis ordered by descending weight, so its inverse comes by
back-substitution, without matrix products: it is solved from the entries
of u drawn, as they were drawn.  Conjugation is block by block, one matrix
product per factor of each nonzero block, with no graded map built in
between.

Seeds map to fixtures through ``random.Random`` only; the same seed
always yields the same fixture, bit for bit.
"""

from __future__ import annotations

import random

from .chaincore import ChainComplex, GradedMap, compose, hom_differential
from .exactlin import IntMatrix, _closed
from .sdr_bpl import (InternalConsistencyError, Perturbation, SdrData, _hom_space, _refuse, _tower_rhs,
                      tower_generators, validate_perturbation, validate_sdr)
from .she_obstruction import HeData, extend_to_she, he_from_sdr, modify_homotopy_h, tower_assignment, validate_he


def build_complex(degree_lo, ranks, weights, diffs, max_weight) -> ChainComplex:
    """Tuple-free convenience constructor; ``diffs`` maps degree n to the
    rows of the block d: n -> n-1, missing blocks are zero."""
    ranks = tuple(ranks)
    width = len(ranks)
    weight_rows = tuple(tuple(w) for w in weights)
    blocks = []
    for t in range(1, width):
        n = degree_lo + t
        if n in diffs:
            flat: list[int] = []
            for row in diffs[n]:
                flat.extend(int(x) for x in row)
            if len(flat) != ranks[t - 1] * ranks[t]:
                raise ValueError(f"differential rows at degree {n} do not match the ranks")
            blocks.append(IntMatrix(ranks[t - 1], ranks[t], tuple(flat)))
        else:
            blocks.append(IntMatrix.zeros(ranks[t - 1], ranks[t]))
    return ChainComplex(degree_lo, degree_lo + width - 1, ranks, weight_rows, tuple(blocks), max_weight)


def _certified(obj, validator):
    """``obj`` once its validator passes; a fixture that fails its own
    check is a fault here, reported as one even under ``python -O``."""
    _refuse(validator(obj), f"fixture fails {validator.__name__}: ", InternalConsistencyError)
    return obj


def zero_complex(max_weight: int = 0) -> ChainComplex:
    return ChainComplex(0, 0, (0,), ((),), (), max_weight)


def interval_complex() -> ChainComplex:
    """Two generators, one differential entry: the chain complex of an edge."""
    return build_complex(0, (1, 1), ((0,), (0,)), {1: [[1]]}, 0)


def _weight_order(weights) -> list[int]:
    """The basis indices by descending weight, ties by index: in this order
    every filtered map raising the weight is strictly upper triangular."""
    return sorted(range(len(weights)), key=lambda i: (-weights[i], i))


def _unipotent_inverse(nu: IntMatrix, weights) -> IntMatrix:
    """(1 + nu)^-1 for a square nu that is strictly upper triangular with its
    basis, of these weights, in ``_weight_order``, by ``_back_substituted``.
    A nu with a nonzero on or below the diagonal in that order is refused."""
    r = nu.rows
    order = _weight_order(weights)
    position = [0] * r
    for a, i in enumerate(order):
        position[i] = a
    nu_rows = [[(j, v) for j, v in enumerate(nu.row(i)) if v] for i in range(r)]
    for a in reversed(range(r)):
        i = order[a]
        for j, _ in nu_rows[i]:
            if position[j] <= a:
                raise AssertionError(f"nu[{i}][{j}] is on or below the diagonal in the weight order, "
                                     "so 1 + nu is not unitriangular")
    return _back_substituted(order, nu_rows)


def _back_substituted(order: list[int], nu_rows) -> IntMatrix:
    """(1 + nu)^-1, nu given by the nonzeros (j, v) of each row i, every j
    after i in ``order``.

    (1 + nu) x = 1 gives row i of x as e_i minus nu[i][j] times row j, over
    the j after i in that order, so back-substitution from the last row needs
    no matrix product, and reads only the nonzeros of nu and of the rows
    already solved."""
    r = len(order)
    flat = [0] * (r * r)
    # the nonzeros (column, value) of each solved row
    solved: list[list[tuple[int, int]]] = [[]] * r
    for i in reversed(order):
        base = i * r
        flat[base + i] = 1
        for j, v in nu_rows[i]:
            for k, x in solved[j]:
                flat[base + k] -= v * x
        solved[i] = [(k, x) for k, x in enumerate(flat[base:base + r]) if x]
    return _closed(r, r, tuple(flat))


def _unitriangular_automorphism(rng: random.Random, c: ChainComplex) -> tuple[GradedMap, GradedMap]:
    """A random filtered automorphism u = 1 + (strictly triangular part)
    together with its inverse, both of filtration shift >= 0.

    Within each degree the basis is ordered by descending weight, so every
    strictly upper entry in that order automatically respects the
    filtration.  Each entry is recorded as it is drawn: u's entries are
    written from them, and u^-1 is back-substituted over them alone.
    """
    blocks: list[tuple[int, IntMatrix]] = []
    inverse_blocks: list[tuple[int, IntMatrix]] = []
    for n in c.degrees():
        r = c.rank_at(n)
        if r == 0:
            continue
        order = _weight_order(c.weights[n - c.degree_lo])
        flat = [0] * (r * r)
        flat[::r + 1] = [1] * r
        # the drawn nonzeros (column, value) of each row of u - 1
        drawn: list[list[tuple[int, int]]] = [[] for _ in range(r)]
        for a in range(r):
            i = order[a]
            for b in range(a + 1, r):
                if rng.random() < 0.5:
                    j, v = order[b], rng.choice((-2, -1, 1, 2))
                    flat[i * r + j] = v
                    drawn[i].append((j, v))
        blocks.append((n, _closed(r, r, tuple(flat))))
        inverse_blocks.append((n, _back_substituted(order, drawn)))
    return GradedMap(c, c, 0, tuple(blocks)), GradedMap(c, c, 0, tuple(inverse_blocks))


def _random_filtered_map(rng: random.Random, src: ChainComplex, tgt: ChainComplex,
                         degree: int, min_shift: int) -> GradedMap:
    """A random map of the given degree raising the filtration by at least
    min_shift: block by block and row by row, each entry that may be
    nonzero is, with probability 1/2, one of -2, -1, 1, 2."""
    blocks: dict[int, IntMatrix] = {}
    for n in src.degrees():
        rs, rt = src.rank_at(n), tgt.rank_at(n + degree)
        if rs == 0 or rt == 0:
            continue
        rows = [[0] * rs for _ in range(rt)]
        for i in range(rt):
            for j in range(rs):
                if tgt.weight_at(n + degree, i) - src.weight_at(n, j) >= min_shift and rng.random() < 0.5:
                    rows[i][j] = rng.choice((-2, -1, 1, 2))
        blocks[n] = IntMatrix.from_rows(rows)
    return GradedMap.from_blocks(src, tgt, degree, blocks)


def _random_matched_differential(rng: random.Random, degree_lo: int, ranks, weights):
    """A square-zero differential given by a partial matching that never
    reuses a target as a source."""
    width = len(ranks)
    diffs: dict[int, list[list[int]]] = {}
    targets_used: dict[int, set[int]] = {degree_lo + t: set() for t in range(width)}
    for t in range(width - 1, 0, -1):
        n = degree_lo + t
        rows = [[0] * ranks[t] for _ in range(ranks[t - 1])]
        free_below = [i for i in range(ranks[t - 1])]
        for j in range(ranks[t]):
            if j in targets_used[n] or not free_below or rng.random() < 0.4:
                continue
            candidates = [i for i in free_below if weights[t - 1][i] >= weights[t][j]]
            if not candidates:
                continue
            i = rng.choice(candidates)
            rows[i][j] = rng.choice((-1, 1))
            free_below.remove(i)
            targets_used[n - 1].add(i)
        diffs[n] = rows
    return diffs


def _random_core(rng: random.Random, total_rank: int, width: int, max_weight: int) -> ChainComplex:
    """A random filtered complex to retract onto."""
    ranks = [0] * width
    for _ in range(total_rank):
        ranks[rng.randrange(width)] += 1
    weights = [[rng.randint(0, max_weight) for _ in range(r)] for r in ranks]
    diffs = _random_matched_differential(rng, 0, ranks, weights)
    return build_complex(0, ranks, weights, diffs, max_weight)


def _coned_sdr(core: ChainComplex, rng: random.Random, pairs: int, max_weight: int) -> SdrData:
    """The core plus ``pairs`` two-term acyclic summands d(b) = a with
    contracting homotopy H(a) = -b, retracted onto the core by the block
    maps; HH = HG = FH = 0 hold on the nose.  Draws index, weight, then
    sign for each pair."""
    width = len(core.ranks)
    weights = [list(w) for w in core.weights]
    # the nonzeros (row, column, value) of d out of degree n and of H out of degree k
    d_nz = {n: [(i, j, v) for i, row in enumerate(core.d_block(n).to_rows()) for j, v in enumerate(row) if v]
            for n in range(1, width)}
    h_nz: dict[int, list[tuple[int, int, int]]] = {}
    for _ in range(pairs):
        k = rng.randrange(width - 1)
        # d and the contracting homotopy run in opposite directions, so a
        # cone pair is filtered only with equal weights
        w = rng.randint(0, max_weight)
        ia, ib = len(weights[k]), len(weights[k + 1])
        weights[k].append(w)
        weights[k + 1].append(w)
        sign = rng.choice((-1, 1))
        d_nz[k + 1].append((ia, ib, sign))
        h_nz.setdefault(k, []).append((ib, ia, -sign))

    def block(rows: int, cols: int, nz) -> IntMatrix:
        flat = [0] * (rows * cols)
        for i, j, v in nz:
            flat[i * cols + j] = v
        return IntMatrix(rows, cols, tuple(flat))

    ranks = tuple(len(w) for w in weights)
    big = ChainComplex(0, width - 1, ranks, tuple(map(tuple, weights)),
                       tuple(block(ranks[n - 1], ranks[n], d_nz[n]) for n in range(1, width)), max_weight)
    core_rank, big_rank = core.rank_at, big.rank_at
    # the core's basis comes first in the big one
    units = {n: [(i, i, 1) for i in range(core_rank(n))] for n in core.degrees()}
    f = GradedMap.from_blocks(big, core, 0, {n: block(core_rank(n), big_rank(n), u) for n, u in units.items()})
    g = GradedMap.from_blocks(core, big, 0, {n: block(big_rank(n), core_rank(n), u) for n, u in units.items()})
    h = GradedMap.from_blocks(big, big, 1, {k: block(big_rank(k + 1), big_rank(k), nz) for k, nz in h_nz.items()})
    return SdrData(big, core, f, g, h)


def _conjugated(rng: random.Random, M: ChainComplex, N: ChainComplex, maps) -> list:
    """M, N and ``maps`` conjugated by random filtered automorphisms u of M
    and v of N, drawn in that order: d becomes u d u^-1 on M and v d v^-1
    on N, and each map t f s^-1 for its source end s and target end t.

    Block by block: the differential out of degree n becomes u_n-1 (d_n
    u_n^-1), and the block of f at source degree n becomes t_n+deg (f_n
    s_n^-1).  A zero block stays zero, so only nonzero blocks are
    multiplied, and every block of the result is nonzero.

    ``maps`` are the components of f_0, g_0, f_1 (and g_1), so each map's
    ends are the roles that generator's colours give it, never looked up
    by complex: M and N may be equal complexes with different automorphisms.
    """
    ends = []
    for c in (M, N):
        u, u_inv = (dict(a.blocks) for a in _unitriangular_automorphism(rng, c))
        diffs = tuple(d if d.is_zero() else u[n - 1] @ (d @ u_inv[n]) for n, d in enumerate(c.diffs, c.degree_lo + 1))
        ends.append((u, u_inv, ChainComplex(c.degree_lo, c.degree_hi, c.ranks, c.weights, diffs, c.max_weight)))
    out = [end[2] for end in ends]
    for z, f in zip(tower_generators(0), maps):
        (_, s_inv, src), (t, _, tgt) = _hom_space(z, *ends)
        blocks = {n: t[n + f.degree] @ (m @ s_inv[n]) for n, m in f.blocks}
        out.append(GradedMap.from_blocks(src, tgt, f.degree, blocks))
    return out


def cone_retract_sdr(seed: int, core_rank: int = 3, cone_pairs: int = 2, max_weight: int | None = None) -> SdrData:
    """A random SDR with side conditions: core ⊕ acyclic cone, conjugated.

    The big complex is the core plus ``cone_pairs`` two-term acyclic
    summands (``_coned_sdr``).  HH = HG = FH = 0 hold on the nose and
    survive the conjugation.
    """
    rng = random.Random(seed)
    if max_weight is None:
        max_weight = rng.randint(1, 6)
    width = rng.randint(2, 4)
    core = _random_core(rng, core_rank, width, max_weight)
    cone = _coned_sdr(core, rng, cone_pairs, max_weight)
    return _certified(SdrData(*_conjugated(rng, cone.M, core, (cone.F, cone.G, cone.H))), validate_sdr)


def weight_raising_perturbation(seed: int, c: ChainComplex) -> Perturbation:
    """delta = w^-1 d w - d for a random strictly weight-raising w = 1 + nu.

    Strict raising makes nu strictly triangular with the basis ordered by
    descending weight, so the inverse comes by back-substitution and
    (d + delta)^2 = 0 holds by conjugation.
    """
    nu = _random_filtered_map(random.Random(seed), c, c, 0, 1)
    inv = GradedMap.from_blocks(c, c, 0, {n: _unipotent_inverse(nu.block_at(n), c.weights[n - c.degree_lo])
                                          for n in c.degrees()})
    w = GradedMap.identity(c) + nu
    d = c.differential_map()
    delta = compose(inv, compose(d, w)) - d
    return _certified(Perturbation(c, delta), validate_perturbation)


def sdr_fixture(seed: int) -> tuple[SdrData, Perturbation]:
    """One seeded SDR-with-side-conditions plus a shift-1 perturbation of
    its big complex; total ranks stay at most 8."""
    rng = random.Random(seed)
    core_rank = rng.randint(1, 4)
    cone_pairs = rng.randint(1, 2)
    s = cone_retract_sdr(seed * 7919 + 1, core_rank, cone_pairs)
    p = weight_raising_perturbation(seed * 6271 + 2, s.M)
    return s, p


def he_fixture(seed: int) -> HeData:
    """A random homotopy equivalence with vanishing obstruction classes.

    Built as a shared core with acyclic cones on both sides (so the
    obstruction cycles are exactly zero), then twisted by hom-complex
    boundaries, which moves the cycles without moving their classes, and
    finally conjugated.
    """
    rng = random.Random(seed)
    max_weight = rng.randint(1, 6)
    width = rng.randint(3, 4)
    core = _random_core(rng, rng.randint(2, 5), width, max_weight)

    def coned(side_seed: int) -> SdrData:
        side_rng = random.Random(side_seed)
        return _coned_sdr(core, side_rng, side_rng.randint(0, 2), max_weight)

    m_side = coned(seed * 31 + 11)
    n_side = coned(seed * 31 + 12)
    M, N = m_side.M, n_side.M
    # F: M -> N through the core; G back; H, L the cone homotopies
    F = compose(n_side.G, m_side.F)
    G = compose(m_side.G, n_side.F)
    H = m_side.H
    L = n_side.H

    # retry until the boundary twist actually moves the obstruction cycles;
    # some shapes admit no effective degree-2 maps, so give up after a few
    for _ in range(8):
        t_m = _random_filtered_map(rng, M, M, 2, 0)
        t_n = _random_filtered_map(rng, N, N, 2, 0)
        moved = compose(F, hom_differential(t_m)) - compose(hom_differential(t_n), F)
        if not moved.is_zero():
            break
    H = H + hom_differential(t_m)
    L = L + hom_differential(t_n)

    return _certified(HeData(*_conjugated(rng, M, N, (F, G, H, L))), validate_he)


def _tower_lifts(seeds=range(40), index_cap: int = 3) -> list[tuple]:
    """(source, target, degree, right-hand side) of every tower component
    of index 2 and up of ``he_fixture(seed)`` for each seed, repaired by
    ``modify_homotopy_h`` and extended to ``index_cap``.  Each right-hand
    side is read on the final tower, so each has a lift; some are zero and
    some are not."""
    out = []
    for seed in seeds:
        he = modify_homotopy_h(he_fixture(seed))
        assign = tower_assignment(extend_to_she(he, index_cap))
        out.extend((*_hom_space(z, he.M, he.N), z.degree, _tower_rhs(z, assign, he.M, he.N))
                   for z in tower_generators(index_cap)[4:])
    return out


def obstructed_he_fixture() -> HeData:
    """Zero differential, H = 0, L the degree shift: the obstruction
    cycles are -L and L, and with D = 0 their classes cannot vanish."""
    c = build_complex(0, (1, 1), ((0,), (0,)), {}, 0)
    one = GradedMap.identity(c)
    ell = GradedMap.from_blocks(c, c, 1, {0: IntMatrix.from_rows([[1]])})
    return _certified(HeData(c, c, one, one, GradedMap.zero(c, c, 1), ell), validate_he)


def recalibration_he_fixture() -> HeData:
    """Zero differential with H = L a two-step shift, so H H != 0 and the
    first odd extension step needs the joint correction system."""
    c = build_complex(0, (1, 1, 1), ((0,), (0,), (0,)), {}, 0)
    one = GradedMap.identity(c)
    shift = GradedMap.from_blocks(
        c, c, 1, {0: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[1]])}
    )
    return _certified(HeData(c, c, one, one, shift, shift), validate_he)


def layered_she_fixture() -> tuple[HeData, Perturbation]:
    """The recalibration shape enlarged by a weighted pair, with a shift-1
    perturbation that genuinely threads through the homotopies."""
    c = build_complex(0, (2, 2, 1), ((0, 1), (0, 1), (0,)), {}, 1)
    one = GradedMap.identity(c)
    # basis: degree 0 = (u, q), degree 1 = (v, p), degree 2 = (w)
    h = GradedMap.from_blocks(
        c, c, 1,
        {0: IntMatrix.from_rows([[1, 0], [0, 1]]), 1: IntMatrix.from_rows([[1, 0]])},
    )
    he = _certified(HeData(c, c, one, one, h, h), validate_he)
    delta = GradedMap.from_blocks(c, c, -1, {1: IntMatrix.from_rows([[0, 0], [1, 0]])})
    return he, _certified(Perturbation(c, delta), validate_perturbation)


def fixture_generate(seed: int, ranks: tuple[int, int] = (2, 1), filtration: int = 2):
    """Deterministic document set for the command line: one SDR with a
    perturbation of its big complex, and one homotopy equivalence with a
    perturbation of its own big complex (the two live on different
    complexes, so each workflow gets a delta that composes with it).

    ``ranks`` is (core rank, cone pairs); all-zero ranks produce the empty
    complex everywhere, which is still a valid document set.  A negative
    size raises ``ValueError``.
    """
    core_rank, cone_pairs = ranks
    for name, size in (("core rank", core_rank), ("number of cone pairs", cone_pairs),
                       ("filtration", filtration)):
        if size < 0:
            raise ValueError(f"{name} must be nonnegative, got {size}")
    if core_rank == 0 and cone_pairs == 0:
        c = zero_complex(filtration)
        zid = GradedMap.identity(c)
        s = SdrData(c, c, zid, zid, GradedMap.zero(c, c, 1))
        p = Perturbation(c, GradedMap.zero(c, c, -1))
        return {"sdr": s, "perturbation": p, "he": he_from_sdr(s), "he_perturbation": p}
    s = cone_retract_sdr(seed * 104729 + 3, core_rank, cone_pairs, max_weight=filtration)
    he = he_fixture(seed * 104729 + 5)

    # a zero delta is valid but seeds a trivial demo; retry a few sub-seeds
    # for a nonzero one (some complexes genuinely admit none, then keep zero)
    def delta_for(c, base_seed: int) -> Perturbation:
        p = weight_raising_perturbation(base_seed, c)
        for t in range(1, 8):
            if not p.delta.is_zero():
                break
            p = weight_raising_perturbation(base_seed + 7919 * t, c)
        return p

    p = delta_for(s.M, seed * 104729 + 4)
    q = delta_for(he.M, seed * 104729 + 6)
    return {"sdr": s, "perturbation": p, "he": he, "he_perturbation": q}
