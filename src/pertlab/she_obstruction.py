"""Homotopy equivalences, integral obstruction classes, and their extension
to strong homotopy equivalence towers.

A two-sided homotopy equivalence stores F: M -> N, G: N -> M and homotopies
H on M, L on N with

    D(H) = G F - 1_M,      D(L) = F G - 1_N.

Such data is almost never a retract on the nose; the defect is measured by
the two degree +1 cycles

    o_M = F H - L F,       o_N = G L - H G.

Whether these are boundaries in the integer hom complex is a finite
decision (one linear solve each), and the two classes vanish together.
When they vanish the equivalence extends to a tower of higher components

    F_0, F_2, F_4, ...   (degrees 0, 2, 4, ...; M -> N)
    G_0, G_2, G_4, ...   (N -> M)
    H_1, H_3, H_5, ...   (M -> M)
    L_1, L_3, L_5, ...   (N -> N)

whose defining identities express each D(component) through compositions
of lower ones.  Those identities are not restated here: they are the
generator differential table of ``operad_sym``, evaluated with F_2i, H_2j+1
as f_2i, f_2j+1 and G_2i, L_2j+1 as g_2i, g_2j+1.  ``extend_to_she``
constructs the tower degree by degree, falling back on a joint integer
system that corrects the previous component by a cycle whenever the
direct lift fails over Z.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chaincore import (
    ChainComplex,
    GradedMap,
    compose,
    hom_basis,
    hom_complex,
    hom_differential,
    left_compose_matrix,
    map_to_vec,
    right_compose_matrix,
    validate_complex,
    vec_to_map,
)
from .exactlin import IntMatrix, solve_integer
from .operad_sym import Generator, Word, gen, generator_diff
from .sdr_bpl import InternalConsistencyError, SdrData, _expect_map


class ObstructionError(ValueError):
    """The obstruction classes block the requested construction."""


@dataclass(frozen=True, slots=True)
class HeData:
    """A two-sided homotopy equivalence with chosen homotopies."""

    M: ChainComplex
    N: ChainComplex
    F: GradedMap
    G: GradedMap
    H: GradedMap
    L: GradedMap


@dataclass(frozen=True, slots=True)
class SheData:
    """A truncated strong homotopy equivalence tower.

    ``index_cap = c`` means the even families carry components of degree
    0, 2, ..., 2c and the odd families 1, 3, ..., 2c + 1; every identity
    whose inputs fit under the cap is required to hold.
    """

    M: ChainComplex
    N: ChainComplex
    index_cap: int
    F_even: tuple[GradedMap, ...]
    G_even: tuple[GradedMap, ...]
    H_odd: tuple[GradedMap, ...]
    L_odd: tuple[GradedMap, ...]


@dataclass(frozen=True, slots=True)
class ObstructionPair:
    """Both obstruction cycles with their boundary decisions.

    A witness is a degree +2 map whose D equals the cycle; it is None
    exactly when the class does not vanish.
    """

    cycle_m: GradedMap
    cycle_n: GradedMap
    class_m_vanishes: bool
    class_n_vanishes: bool
    witness_m: GradedMap | None
    witness_n: GradedMap | None


def validate_he(he: HeData) -> list[str]:
    problems = [f"M: {p}" for p in validate_complex(he.M)]
    problems += [f"N: {p}" for p in validate_complex(he.N)]
    ok = _expect_map(problems, he.F, "F", he.M, he.N, 0)
    ok &= _expect_map(problems, he.G, "G", he.N, he.M, 0)
    ok &= _expect_map(problems, he.H, "H", he.M, he.M, 1)
    ok &= _expect_map(problems, he.L, "L", he.N, he.N, 1)
    if not ok or problems:
        return problems
    if not hom_differential(he.F).is_zero():
        problems.append("F is not a chain map")
    if not hom_differential(he.G).is_zero():
        problems.append("G is not a chain map")
    if hom_differential(he.H) != compose(he.G, he.F) - GradedMap.identity(he.M):
        problems.append("d H + H d != G F - 1 on M")
    if hom_differential(he.L) != compose(he.F, he.G) - GradedMap.identity(he.N):
        problems.append("d L + L d != F G - 1 on N")
    return problems


def he_from_sdr(s: SdrData) -> HeData:
    """A retract is an equivalence whose big-side defect homotopy is zero."""
    return HeData(s.M, s.N, s.F, s.G, s.H, GradedMap.zero(s.N, s.N, 1))


def she_from_he(he: HeData) -> SheData:
    return SheData(he.M, he.N, 0, (he.F,), (he.G,), (he.H,), (he.L,))


def he_from_she(s: SheData) -> HeData:
    return HeData(s.M, s.N, s.F_even[0], s.G_even[0], s.H_odd[0], s.L_odd[0])


def evaluate_words(
    terms: tuple[tuple[Word, int], ...], assign: dict[Generator, GradedMap],
    M: ChainComplex, N: ChainComplex,
) -> GradedMap | None:
    """Z-linear evaluation of (word, coefficient) pairs: a word becomes the
    composite of its factor images (rightmost applied first), an identity
    word the identity map of its color's complex (B on M, W on N).

    None when there are no terms; unassigned generators are an error.
    """
    total: GradedMap | None = None
    for w, c in terms:
        if w.is_identity:
            img = GradedMap.identity(M if w.id_color == "B" else N)
        else:
            img = None
            for z in reversed(w.factors):
                if z not in assign:
                    raise ValueError(f"generator {z.token} is not assigned in this action")
                img = assign[z] if img is None else compose(assign[z], img)
        part = img.scale(c)
        total = part if total is None else total + part
    return total


def tower_assignment(F, G, H, L) -> dict[Generator, GradedMap]:
    """Tower components as operad generators: F_even[i] -> f_2i,
    H_odd[j] -> f_2j+1, G_even[i] -> g_2i, L_odd[j] -> g_2j+1."""
    assign: dict[Generator, GradedMap] = {}
    for fam, even, odd in (("f", F, H), ("g", G, L)):
        for i, x in enumerate(even):
            assign[gen(fam, 2 * i)] = x
        for j, x in enumerate(odd):
            assign[gen(fam, 2 * j + 1)] = x
    return assign


def _tower_rhs(z: Generator, assign: dict[Generator, GradedMap],
               M: ChainComplex, N: ChainComplex) -> GradedMap:
    """Required D-value of the component assigned to z: the generator's
    differential table from operad_sym, evaluated under the assignment."""
    value = evaluate_words(generator_diff(z), assign, M, N)
    if value is None:
        return GradedMap.zero(M if z.src == "B" else N, M if z.dst == "B" else N, z.degree - 1)
    return value


def validate_she(s: SheData) -> list[str]:
    problems = [f"M: {p}" for p in validate_complex(s.M)]
    problems += [f"N: {p}" for p in validate_complex(s.N)]
    if s.index_cap < 0:
        problems.append("index_cap must be nonnegative")
        return problems
    want = s.index_cap + 1
    for fam, name in ((s.F_even, "F_even"), (s.G_even, "G_even"),
                      (s.H_odd, "H_odd"), (s.L_odd, "L_odd")):
        if len(fam) != want:
            problems.append(f"{name} has {len(fam)} components, expected {want}")
    if problems:
        return problems
    ok = True
    for m in range(want):
        ok &= _expect_map(problems, s.F_even[m], f"F_even[{m}]", s.M, s.N, 2 * m)
        ok &= _expect_map(problems, s.G_even[m], f"G_even[{m}]", s.N, s.M, 2 * m)
        ok &= _expect_map(problems, s.H_odd[m], f"H_odd[{m}]", s.M, s.M, 2 * m + 1)
        ok &= _expect_map(problems, s.L_odd[m], f"L_odd[{m}]", s.N, s.N, 2 * m + 1)
    if not ok or problems:
        return problems
    assign = tower_assignment(s.F_even, s.G_even, s.H_odd, s.L_odd)
    for m in range(want):
        for name, z in (("F_even", gen("f", 2 * m)), ("G_even", gen("g", 2 * m)),
                        ("H_odd", gen("f", 2 * m + 1)), ("L_odd", gen("g", 2 * m + 1))):
            if hom_differential(assign[z]) != _tower_rhs(z, assign, s.M, s.N):
                problems.append(f"tower identity fails for {name}[{m}]")
    return problems


def _filtered_hom(src: ChainComplex, tgt: ChainComplex, k: int):
    """The degree-k elementary maps that do not lower the filtration, plus
    their positions in the full enumeration of ``hom_basis``."""
    full = hom_basis(src, tgt, k)
    keep = [c for c, (deg, i, j) in enumerate(full)
            if tgt.weight_at(deg + k, j) >= src.weight_at(deg, i)]
    return tuple(full[c] for c in keep), keep


def _column_select(mat: IntMatrix, keep: list[int]) -> IntMatrix:
    flat = tuple(mat.entry(r, c) for r in range(mat.rows) for c in keep)
    return IntMatrix(mat.rows, len(keep), flat)


def _hom_solve(src: ChainComplex, tgt: ChainComplex, k: int, rhs: GradedMap) -> GradedMap | None:
    """Canonical degree-k map x with D(x) = rhs, or None over the integers.

    Unknowns range over the filtered sub-lattice only: an unfiltered
    solution would poison the filtration bound of every component built
    from it, so solvability is decided where the answer has to live.
    """
    sl = hom_complex(src, tgt, k)
    basis, keep = _filtered_hom(src, tgt, k)
    b = map_to_vec(rhs, hom_basis(src, tgt, k - 1))
    x = solve_integer(_column_select(sl.differential_matrix, keep), b)
    if x is None:
        return None
    return vec_to_map(src, tgt, k, basis, x)


def obstruction_cycles(he: HeData) -> ObstructionPair:
    """Both obstruction cycles and the integral decision for each class."""
    report = validate_he(he)
    if report:
        raise ValueError("invalid homotopy equivalence: " + "; ".join(report))
    o_m = compose(he.F, he.H) - compose(he.L, he.F)
    o_n = compose(he.G, he.L) - compose(he.H, he.G)
    if not hom_differential(o_m).is_zero() or not hom_differential(o_n).is_zero():
        raise InternalConsistencyError("obstruction cycles are not cycles")
    w_m = _hom_solve(he.M, he.N, 2, o_m)
    w_n = _hom_solve(he.N, he.M, 2, o_n)
    return ObstructionPair(o_m, o_n, w_m is not None, w_n is not None, w_m, w_n)


def obstruction_classes_linked(he: HeData) -> bool:
    """The shared vanishing verdict of both classes.

    The two classes are homologous images of each other, so they vanish
    together; disagreement on actual data is a consistency failure, not a
    mathematical possibility.
    """
    pair = obstruction_cycles(he)
    if pair.class_m_vanishes != pair.class_n_vanishes:
        raise InternalConsistencyError("obstruction classes disagree about vanishing")
    return pair.class_m_vanishes


def modify_homotopy_h(he: HeData) -> HeData:
    """Replace H by H - G(FH - LF); the result's obstruction classes vanish."""
    o_m = compose(he.F, he.H) - compose(he.L, he.F)
    return HeData(he.M, he.N, he.F, he.G, he.H - compose(he.G, o_m), he.L)


def modify_homotopy_l(he: HeData) -> HeData:
    """Replace L by L - F(GL - HG); the result's obstruction classes vanish."""
    o_n = compose(he.G, he.L) - compose(he.H, he.G)
    return HeData(he.M, he.N, he.F, he.G, he.H, he.L - compose(he.F, o_n))


def modification_witnesses(he: HeData, which: str = "h") -> tuple[HeData, ObstructionPair]:
    """Modified equivalence plus closed-form witnesses for its obstructions.

    The witnesses are explicit compositions in the original data, verified
    exactly against the modified cycles before returning; they certify that
    the repair works over the integers, with no solver involved.
    """
    if which == "h":
        he2 = modify_homotopy_h(he)
        o_m = compose(he.F, he.H) - compose(he.L, he.F)
        w_m = -compose(he.L, o_m)
        w_n = (compose(compose(he.H, he.H), he.G)
               + compose(he.G, compose(he.L, he.L))
               - compose(he.H, compose(he.G, he.L)))
    elif which == "l":
        he2 = modify_homotopy_l(he)
        o_n = compose(he.G, he.L) - compose(he.H, he.G)
        w_n = -compose(he.H, o_n)
        w_m = (compose(compose(he.L, he.L), he.F)
               + compose(he.F, compose(he.H, he.H))
               - compose(he.L, compose(he.F, he.H)))
    else:
        raise ValueError(f"which must be 'h' or 'l', got {which!r}")
    o_m2 = compose(he2.F, he2.H) - compose(he2.L, he2.F)
    o_n2 = compose(he2.G, he2.L) - compose(he2.H, he2.G)
    if hom_differential(w_m) != o_m2 or hom_differential(w_n) != o_n2:
        raise InternalConsistencyError("closed-form modification witnesses failed to verify")
    return he2, ObstructionPair(o_m2, o_n2, True, True, w_m, w_n)


def trivial_extension(he: HeData, index_cap: int = 1) -> SheData | None:
    """Zero-padded tower, available only when every defect vanishes on the
    nose: both obstruction cycles are the zero map and H H = L L = 0.
    Returns None when the data does not qualify."""
    o_m = compose(he.F, he.H) - compose(he.L, he.F)
    o_n = compose(he.G, he.L) - compose(he.H, he.G)
    if not (o_m.is_zero() and o_n.is_zero()):
        return None
    if not (compose(he.H, he.H).is_zero() and compose(he.L, he.L).is_zero()):
        return None
    f = [he.F] + [GradedMap.zero(he.M, he.N, 2 * m) for m in range(1, index_cap + 1)]
    g = [he.G] + [GradedMap.zero(he.N, he.M, 2 * m) for m in range(1, index_cap + 1)]
    h = [he.H] + [GradedMap.zero(he.M, he.M, 2 * m + 1) for m in range(1, index_cap + 1)]
    ll = [he.L] + [GradedMap.zero(he.N, he.N, 2 * m + 1) for m in range(1, index_cap + 1)]
    out = SheData(he.M, he.N, index_cap, tuple(f), tuple(g), tuple(h), tuple(ll))
    report = validate_she(out)
    if report:
        raise InternalConsistencyError("zero-padded tower fails its identities: " + "; ".join(report))
    return out


def _solve_block_system(
    columns: list[tuple[ChainComplex, ChainComplex, int, tuple]],
    equations: list[tuple[int, dict[int, IntMatrix], tuple[int, ...]]],
) -> list[GradedMap] | None:
    """Solve one stacked integer system over several hom spaces at once.

    ``columns`` names the unknown blocks as (source, target, hom degree,
    basis); ``equations`` are (row count, {column index: coefficient
    matrix}, rhs).
    """
    bases = [b for _, _, _, b in columns]
    widths = [len(b) for b in bases]
    cols_total = sum(widths)
    rows_total = sum(e[0] for e in equations)
    flat = [0] * (rows_total * cols_total)
    rhs_all: list[int] = []
    r0 = 0
    for row_dim, blocks, rhs in equations:
        if len(rhs) != row_dim:
            raise ValueError("equation right-hand side has wrong length")
        c0 = 0
        for ci, w in enumerate(widths):
            mat = blocks.get(ci)
            if mat is not None:
                if (mat.rows, mat.cols) != (row_dim, w):
                    raise ValueError("coefficient block has wrong shape")
                for i in range(row_dim):
                    row = mat.row(i)
                    base = (r0 + i) * cols_total + c0
                    for j in range(w):
                        if row[j]:
                            flat[base + j] = row[j]
            c0 += w
        rhs_all.extend(rhs)
        r0 += row_dim
    sol = solve_integer(IntMatrix(rows_total, cols_total, tuple(flat)), tuple(rhs_all))
    if sol is None:
        return None
    out: list[GradedMap] = []
    c0 = 0
    for (s, t, k, basis), w in zip(columns, widths):
        out.append(vec_to_map(s, t, k, basis, tuple(sol[c0:c0 + w])))
        c0 += w
    return out


def _recalibrate_even(he: HeData, m: int, rhs_f: GradedMap, rhs_g: GradedMap):
    """Joint lift at even index 2m: find x, y together with cycle
    corrections phi to H_{2m-1} and psi to L_{2m-1} making both lifts
    integrally solvable.  Unknowns range over the filtered sub-lattices;
    equation rows stay in the full enumeration."""
    M, N, F0, G0 = he.M, he.N, he.F, he.G
    k = 2 * m
    fb_x, keep_x = _filtered_hom(M, N, k)
    fb_y, keep_y = _filtered_hom(N, M, k)
    fb_phi, keep_phi = _filtered_hom(M, M, k - 1)
    fb_psi, keep_psi = _filtered_hom(N, N, k - 1)
    columns = [(M, N, k, fb_x), (N, M, k, fb_y),
               (M, M, k - 1, fb_phi), (N, N, k - 1, fb_psi)]
    b_x = hom_basis(M, N, k - 1)
    b_y = hom_basis(N, M, k - 1)
    b_phi_rows = hom_basis(M, N, k - 1)
    b_psi_rows = hom_basis(N, M, k - 1)
    eq1 = (
        len(b_x),
        {
            0: _column_select(hom_complex(M, N, k).differential_matrix, keep_x),
            2: -left_compose_matrix(F0, M, k - 1, fb_phi, b_phi_rows),
            3: right_compose_matrix(F0, N, k - 1, fb_psi, b_phi_rows),
        },
        map_to_vec(rhs_f, b_x),
    )
    eq2 = (
        len(b_y),
        {
            1: _column_select(hom_complex(N, M, k).differential_matrix, keep_y),
            2: right_compose_matrix(G0, M, k - 1, fb_phi, b_psi_rows),
            3: -left_compose_matrix(G0, N, k - 1, fb_psi, b_psi_rows),
        },
        map_to_vec(rhs_g, b_y),
    )
    eq3_rows = len(hom_basis(M, M, k - 2))
    eq4_rows = len(hom_basis(N, N, k - 2))
    eq3 = (eq3_rows,
           {2: _column_select(hom_complex(M, M, k - 1).differential_matrix, keep_phi)},
           (0,) * eq3_rows)
    eq4 = (eq4_rows,
           {3: _column_select(hom_complex(N, N, k - 1).differential_matrix, keep_psi)},
           (0,) * eq4_rows)
    return _solve_block_system(columns, [eq1, eq2, eq3, eq4])


def _recalibrate_odd(he: HeData, m: int, rhs_h: GradedMap, rhs_l: GradedMap):
    """Joint lift at odd index 2m+1 with cycle corrections phi to F_{2m}
    and psi to G_{2m}.  Same filtered-column convention as the even case."""
    M, N, F0, G0 = he.M, he.N, he.F, he.G
    k = 2 * m + 1
    fb_x, keep_x = _filtered_hom(M, M, k)
    fb_y, keep_y = _filtered_hom(N, N, k)
    fb_phi, keep_phi = _filtered_hom(M, N, k - 1)
    fb_psi, keep_psi = _filtered_hom(N, M, k - 1)
    columns = [(M, M, k, fb_x), (N, N, k, fb_y),
               (M, N, k - 1, fb_phi), (N, M, k - 1, fb_psi)]
    b_x = hom_basis(M, M, k - 1)
    b_y = hom_basis(N, N, k - 1)
    eq1 = (
        len(b_x),
        {
            0: _column_select(hom_complex(M, M, k).differential_matrix, keep_x),
            2: -left_compose_matrix(G0, M, k - 1, fb_phi, b_x),
            3: -right_compose_matrix(F0, M, k - 1, fb_psi, b_x),
        },
        map_to_vec(rhs_h, b_x),
    )
    eq2 = (
        len(b_y),
        {
            1: _column_select(hom_complex(N, N, k).differential_matrix, keep_y),
            2: -right_compose_matrix(G0, N, k - 1, fb_phi, b_y),
            3: -left_compose_matrix(F0, N, k - 1, fb_psi, b_y),
        },
        map_to_vec(rhs_l, b_y),
    )
    eq3_rows = len(hom_basis(M, N, k - 2))
    eq4_rows = len(hom_basis(N, M, k - 2))
    eq3 = (eq3_rows,
           {2: _column_select(hom_complex(M, N, k - 1).differential_matrix, keep_phi)},
           (0,) * eq3_rows)
    eq4 = (eq4_rows,
           {3: _column_select(hom_complex(N, M, k - 1).differential_matrix, keep_psi)},
           (0,) * eq4_rows)
    return _solve_block_system(columns, [eq1, eq2, eq3, eq4])


def extend_to_she(he: HeData, index_cap: int) -> SheData:
    """Extend an equivalence to a tower with the stated cap.

    Requires the obstruction classes to vanish when index_cap >= 1
    (ObstructionError otherwise); with that settled, the base components
    F, G, H, L are kept as given and every higher component is produced by
    a canonical integer lift.  When a direct lift fails, the previous
    component is corrected by a cycle found jointly with the lift; the
    joint system is always solvable in exact arithmetic, so its failure
    raises InternalConsistencyError rather than returning partial data.
    """
    if index_cap < 0:
        raise ValueError("index_cap must be nonnegative")
    report = validate_he(he)
    if report:
        raise ValueError("invalid homotopy equivalence: " + "; ".join(report))
    if index_cap == 0:
        return she_from_he(he)
    pair = obstruction_cycles(he)
    if not (pair.class_m_vanishes and pair.class_n_vanishes):
        raise ObstructionError(
            "extension obstructed: the obstruction classes do not vanish; "
            "repair the homotopies first (modify_homotopy_h or modify_homotopy_l)"
        )
    f = [he.F]
    g = [he.G]
    h = [he.H]
    ll = [he.L]
    for n in range(2, 2 * index_cap + 2):
        assign = tower_assignment(f, g, h, ll)
        if n % 2 == 0:
            m = n // 2
            rhs_f = _tower_rhs(gen("f", n), assign, he.M, he.N)
            rhs_g = _tower_rhs(gen("g", n), assign, he.M, he.N)
            x = _hom_solve(he.M, he.N, n, rhs_f)
            y = _hom_solve(he.N, he.M, n, rhs_g)
            if x is None or y is None:
                got = _recalibrate_even(he, m, rhs_f, rhs_g)
                if got is None:
                    raise InternalConsistencyError(
                        f"joint correction system unsolvable at even index {n}"
                    )
                x, y, phi, psi = got
                h[m - 1] = h[m - 1] + phi
                ll[m - 1] = ll[m - 1] + psi
            f.append(x)
            g.append(y)
        else:
            m = (n - 1) // 2
            rhs_h = _tower_rhs(gen("f", n), assign, he.M, he.N)
            rhs_l = _tower_rhs(gen("g", n), assign, he.M, he.N)
            x = _hom_solve(he.M, he.M, n, rhs_h)
            y = _hom_solve(he.N, he.N, n, rhs_l)
            if x is None or y is None:
                got = _recalibrate_odd(he, m, rhs_h, rhs_l)
                if got is None:
                    raise InternalConsistencyError(
                        f"joint correction system unsolvable at odd index {n}"
                    )
                x, y, phi, psi = got
                f[m] = f[m] + phi
                g[m] = g[m] + psi
            h.append(x)
            ll.append(y)
    out = SheData(he.M, he.N, index_cap, tuple(f), tuple(g), tuple(h), tuple(ll))
    report = validate_she(out)
    if report:
        raise InternalConsistencyError("extension fails its identities: " + "; ".join(report))
    return out
