"""Deterministic fixture builders for tests and the command-line generator.

Every random object here is valid by construction and asserts its own
validator before being returned, so a fixture that reaches a test is
already a certified instance.  The generic recipe is: build a retract
plus an acyclic cone in block form, where every identity is visible by
inspection, then conjugate by random filtered unimodular automorphisms
to hide the block structure.  Conjugation preserves all identities and
the side conditions exactly, and filtered automorphisms with filtered
inverses preserve every weight bound.

Seeds map to fixtures through ``random.Random`` only; the same seed
always yields the same fixture, bit for bit.
"""

from __future__ import annotations

import random

from .chaincore import (
    ChainComplex,
    GradedMap,
    complex_with_differential,
    compose,
    hom_differential,
    rebase,
)
from .exactlin import IntMatrix
from .sdr_bpl import Perturbation, SdrData, validate_perturbation, validate_sdr
from .she_obstruction import HeData, validate_he


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


def zero_complex(max_weight: int = 0) -> ChainComplex:
    return ChainComplex(0, 0, (0,), ((),), (), max_weight)


def interval_complex() -> ChainComplex:
    """Two generators, one differential entry: the chain complex of an edge."""
    return build_complex(0, (1, 1), ((0,), (0,)), {1: [[1]]}, 0)


def _unitriangular_automorphism(rng: random.Random, c: ChainComplex) -> tuple[GradedMap, GradedMap]:
    """A random filtered automorphism u = 1 + (strictly triangular part)
    together with its inverse, both of filtration shift >= 0.

    Within each degree the basis is ordered by descending weight, so every
    strictly upper entry in that order automatically respects the
    filtration; triangularity makes u - 1 nilpotent, which gives an exact
    integer inverse by the finite geometric series.
    """
    blocks: dict[int, IntMatrix] = {}
    inverse_blocks: dict[int, IntMatrix] = {}
    for n in c.degrees():
        r = c.rank_at(n)
        if r == 0:
            continue
        order = sorted(range(r), key=lambda i: (-c.weight_at(n, i), i))
        rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for a in range(r):
            for b in range(a + 1, r):
                if rng.random() < 0.5:
                    rows[order[a]][order[b]] = rng.choice((-2, -1, 1, 2))
        u = IntMatrix.from_rows(rows)
        nu = u - IntMatrix.identity(r)
        inv = IntMatrix.identity(r)
        power = nu
        sign = -1
        while not power.is_zero():
            inv = inv + power.scale(sign)
            power = power @ nu
            sign = -sign
        blocks[n] = u
        inverse_blocks[n] = inv
    u_map = GradedMap.from_blocks(c, c, 0, blocks)
    u_inv = GradedMap.from_blocks(c, c, 0, inverse_blocks)
    return u_map, u_inv


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
    ranks = list(core.ranks)
    weights = [list(w) for w in core.weights]
    diffs = {n: [list(row) for row in core.d_block(n).to_rows()] for n in range(1, width)}
    cone_slots: list[tuple[int, int, int, int]] = []  # (deg of a, idx a, idx b, sign)
    for _ in range(pairs):
        k = rng.randrange(width - 1)
        # d and the contracting homotopy run in opposite directions, so a
        # cone pair is filtered only with equal weights
        w_a = w_b = rng.randint(0, max_weight)
        ia = ranks[k]
        ib = ranks[k + 1]
        ranks[k] += 1
        ranks[k + 1] += 1
        weights[k].append(w_a)
        weights[k + 1].append(w_b)
        sign = rng.choice((-1, 1))
        cone_slots.append((k, ia, ib, sign))
    # re-shape the differential blocks for the enlarged ranks
    for n in range(1, width):
        rows = diffs.get(n, [])
        full = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                full[i][j] = v
        diffs[n] = full
    for k, ia, ib, sign in cone_slots:
        diffs[k + 1][ia][ib] = sign
    big = build_complex(0, ranks, weights, diffs, max_weight)

    f_blocks: dict[int, IntMatrix] = {}
    g_blocks: dict[int, IntMatrix] = {}
    h_blocks: dict[int, IntMatrix] = {}
    for n in core.degrees():
        rc = core.rank_at(n)
        rb = big.rank_at(n)
        f_rows = [[1 if i == j else 0 for j in range(rb)] for i in range(rc)]
        g_rows = [[1 if i == j else 0 for j in range(rc)] for i in range(rb)]
        f_blocks[n] = IntMatrix.from_rows(f_rows) if rc and rb else IntMatrix.zeros(rc, rb)
        g_blocks[n] = IntMatrix.from_rows(g_rows) if rc and rb else IntMatrix.zeros(rb, rc)
    for k, ia, ib, sign in cone_slots:
        h = h_blocks.get(k)
        rows = [list(r) for r in h.to_rows()] if h else [[0] * big.rank_at(k) for _ in range(big.rank_at(k + 1))]
        rows[ib][ia] = -sign
        h_blocks[k] = IntMatrix.from_rows(rows)
    return SdrData(
        big,
        core,
        GradedMap.from_blocks(big, core, 0, f_blocks),
        GradedMap.from_blocks(core, big, 0, g_blocks),
        GradedMap.from_blocks(big, big, 1, h_blocks),
    )


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
    big = cone.M

    u, u_inv = _unitriangular_automorphism(rng, big)
    v, v_inv = _unitriangular_automorphism(rng, core)
    d_big = compose(u, compose(big.differential_map(), u_inv))
    d_core = compose(v, compose(core.differential_map(), v_inv))
    big2 = complex_with_differential(big, d_big)
    core2 = complex_with_differential(core, d_core)
    s = SdrData(
        big2,
        core2,
        rebase(compose(v, compose(cone.F, u_inv)), big2, core2),
        rebase(compose(u, compose(cone.G, v_inv)), core2, big2),
        rebase(compose(u, compose(cone.H, u_inv)), big2, big2),
    )
    problems = validate_sdr(s)
    assert not problems, problems
    return s


def weight_raising_perturbation(seed: int, c: ChainComplex) -> Perturbation:
    """delta = w^-1 d w - d for a random strictly weight-raising w = 1 + nu.

    Strict raising makes nu nilpotent (weights are bounded), so the inverse
    is a finite series and (d + delta)^2 = 0 holds by conjugation.
    """
    rng = random.Random(seed)
    nu_blocks: dict[int, IntMatrix] = {}
    for n in c.degrees():
        r = c.rank_at(n)
        if r == 0:
            continue
        rows = [[0] * r for _ in range(r)]
        any_entry = False
        for i in range(r):
            for j in range(r):
                if c.weight_at(n, i) > c.weight_at(n, j) and rng.random() < 0.5:
                    rows[i][j] = rng.choice((-2, -1, 1, 2))
                    any_entry = True
        if any_entry:
            nu_blocks[n] = IntMatrix.from_rows(rows)
    nu = GradedMap.from_blocks(c, c, 0, nu_blocks)
    inv = GradedMap.identity(c)
    power = nu
    guard = 0
    while not power.is_zero():
        inv = inv + (power if guard % 2 else -power)
        power = compose(power, nu)
        guard += 1
        if guard > c.max_weight + 2:
            raise AssertionError("weight-raising map failed to nilpotate")
    w = GradedMap.identity(c) + nu
    d = c.differential_map()
    delta = compose(inv, compose(d, w)) - d
    p = Perturbation(c, delta)
    problems = validate_perturbation(p)
    assert not problems, problems
    return p


def sdr_fixture(seed: int) -> tuple[SdrData, Perturbation]:
    """One seeded SDR-with-side-conditions plus a shift-1 perturbation of
    its big complex; total ranks stay at most 8."""
    rng = random.Random(seed)
    core_rank = rng.randint(1, 4)
    cone_pairs = rng.randint(1, 2)
    s = cone_retract_sdr(seed * 7919 + 1, core_rank, cone_pairs)
    p = weight_raising_perturbation(seed * 6271 + 2, s.M)
    return s, p


def _hom_twist(rng: random.Random, src: ChainComplex, tgt: ChainComplex) -> GradedMap:
    """A random degree-2 filtered map, used to push homotopies off the
    block-diagonal shape by a boundary."""
    blocks: dict[int, IntMatrix] = {}
    for n in src.degrees():
        rs = src.rank_at(n)
        rt = tgt.rank_at(n + 2)
        if rs == 0 or rt == 0:
            continue
        rows = [[0] * rs for _ in range(rt)]
        hit = False
        for i in range(rt):
            for j in range(rs):
                if tgt.weight_at(n + 2, i) >= src.weight_at(n, j) and rng.random() < 0.5:
                    rows[i][j] = rng.choice((-2, -1, 1, 2))
                    hit = True
        if hit:
            blocks[n] = IntMatrix.from_rows(rows)
    return GradedMap.from_blocks(src, tgt, 2, blocks)


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
        t_m = _hom_twist(rng, M, M)
        t_n = _hom_twist(rng, N, N)
        moved = compose(F, hom_differential(t_m)) - compose(hom_differential(t_n), F)
        if not moved.is_zero():
            break
    H = H + hom_differential(t_m)
    L = L + hom_differential(t_n)

    u, u_inv = _unitriangular_automorphism(rng, M)
    v, v_inv = _unitriangular_automorphism(rng, N)
    d_m = compose(u, compose(M.differential_map(), u_inv))
    d_n = compose(v, compose(N.differential_map(), v_inv))
    M2 = complex_with_differential(M, d_m)
    N2 = complex_with_differential(N, d_n)
    he = HeData(
        M2,
        N2,
        rebase(compose(v, compose(F, u_inv)), M2, N2),
        rebase(compose(u, compose(G, v_inv)), N2, M2),
        rebase(compose(u, compose(H, u_inv)), M2, M2),
        rebase(compose(v, compose(L, v_inv)), N2, N2),
    )
    problems = validate_he(he)
    assert not problems, problems
    return he


def obstructed_he_fixture() -> HeData:
    """Zero differential, H = 0, L the degree shift: the obstruction
    cycles are -L and L, and with D = 0 their classes cannot vanish."""
    c = build_complex(0, (1, 1), ((0,), (0,)), {}, 0)
    one = GradedMap.identity(c)
    ell = GradedMap.from_blocks(c, c, 1, {0: IntMatrix.from_rows([[1]])})
    he = HeData(c, c, one, one, GradedMap.zero(c, c, 1), ell)
    assert not validate_he(he)
    return he


def recalibration_he_fixture() -> HeData:
    """Zero differential with H = L a two-step shift, so H H != 0 and the
    first odd extension step needs the joint correction system."""
    c = build_complex(0, (1, 1, 1), ((0,), (0,), (0,)), {}, 0)
    one = GradedMap.identity(c)
    shift = GradedMap.from_blocks(
        c, c, 1, {0: IntMatrix.from_rows([[1]]), 1: IntMatrix.from_rows([[1]])}
    )
    he = HeData(c, c, one, one, shift, shift)
    assert not validate_he(he)
    return he


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
    he = HeData(c, c, one, one, h, h)
    assert not validate_he(he)
    delta = GradedMap.from_blocks(c, c, -1, {1: IntMatrix.from_rows([[0, 0], [1, 0]])})
    p = Perturbation(c, delta)
    assert not validate_perturbation(p)
    return he, p


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
        zero_h = GradedMap.zero(c, c, 1)
        s = SdrData(c, c, zid, zid, zero_h)
        p = Perturbation(c, GradedMap.zero(c, c, -1))
        he = HeData(c, c, zid, zid, zero_h, zero_h)
        return {"sdr": s, "perturbation": p, "he": he, "he_perturbation": p}
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
