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
as f_2i, f_2j+1 and G_2i, L_2j+1 as g_2i, g_2j+1 (this parity layout of
``SheData`` is stated here only, in ``_LAYOUT``; other modules go through
``tower_assignment``, ``she_from_assignment`` or ``_LAYOUT``).  The
obstruction cycles are the table's index-2 right-hand sides.
``extend_to_she`` constructs the tower one index at a time, by the same
step from index 2 on (``_lift_step``: the right-hand sides of f_n and g_n
and their direct lifts).  At index 2 it is the obstruction decision, which
``obstruction_cycles`` runs alone.  From index 3 on, when a direct lift
fails over Z, one integer system solves for both lifts together with
cycle corrections of the previous components.  Its blocks, D and the
couplings read from the same table, and D on the filtered maps of a
direct lift are all placed by one routine, ``chaincore._place_composites``.

Every tower identity is evaluated by ``sdr_bpl._check_components``, which
``validate_he`` and ``validate_she`` share with ``validate_sdr`` (a retract
is the cap-0 tower with L = 0) and ``ipl_pipeline.OperadAction``.
Constructors check their output, public entry points check their input,
and the private core ``_extend`` trusts its caller, so a pipeline checks
each object once and evaluates each obstruction cycle once.  Callers hand
``_extend`` an equivalence they have checked (``extend_to_she`` and
``trivial_extension`` their input; ``ipl_pipeline.solve_pp`` its
repair, through ``_require_valid_repair``), and ``_extend`` checks only
the components it builds, index 2 and up.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice

from .chaincore import (
    ChainComplex,
    GradedMap,
    _d_equals,
    _d_parts,
    _place_composites,
    compose,
    hom_basis,
    hom_complex,
    map_to_vec,
    vec_to_map,
)
from .exactlin import _closed, solve_integer
from .operad_sym import Generator, gen, generator_diff
from .sdr_bpl import (_HE_FAILURES, _HE_NAMES, InternalConsistencyError, SdrData, _check_components,
                      _complex_problems, _hom_space, _refuse, _tower_rhs, tower_generators)


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
    exactly when the class does not vanish, so the verdicts are read from it.
    """

    cycle_m: GradedMap
    cycle_n: GradedMap
    witness_m: GradedMap | None
    witness_n: GradedMap | None

    @property
    def class_m_vanishes(self) -> bool:
        return self.witness_m is not None

    @property
    def class_n_vanishes(self) -> bool:
        return self.witness_n is not None


def he_from_sdr(s: SdrData) -> HeData:
    """A retract is an equivalence whose big-side defect homotopy is zero."""
    return HeData(s.M, s.N, s.F, s.G, s.H, GradedMap.zero(s.N, s.N, 1))


def she_from_he(he: HeData) -> SheData:
    return SheData(he.M, he.N, 0, (he.F,), (he.G,), (he.H,), (he.L,))


def he_from_she(s: SheData) -> HeData:
    return HeData(s.M, s.N, s.F_even[0], s.G_even[0], s.H_odd[0], s.L_odd[0])


# The parity layout of SheData, stated here only: generator family and
# index parity -> field, so F_even[i] is f_2i, H_odd[j] is f_2j+1,
# G_even[i] is g_2i and L_odd[j] is g_2j+1.
_LAYOUT = {("f", 0): "F_even", ("g", 0): "G_even", ("f", 1): "H_odd", ("g", 1): "L_odd"}


def component_name(z: Generator) -> str:
    """The SheData entry holding z's component, e.g. H_odd[1] for f_3."""
    return f"{_LAYOUT[z.family, z.index % 2]}[{z.index // 2}]"


def tower_assignment(s: SheData) -> dict[Generator, GradedMap]:
    """Tower components as operad generators, in ``tower_generators`` order."""
    return {z: getattr(s, _LAYOUT[z.family, z.index % 2])[z.index // 2]
            for z in tower_generators(s.index_cap)}


def she_from_assignment(M: ChainComplex, N: ChainComplex, index_cap: int,
                        assign: dict[Generator, GradedMap]) -> SheData:
    """The inverse of ``tower_assignment``: pack the components of
    f_0, g_0, ..., f_2c+1, g_2c+1 into a tower of cap c."""
    fields = {name: tuple(assign[gen(fam, 2 * m + parity)] for m in range(index_cap + 1))
              for (fam, parity), name in _LAYOUT.items()}
    return SheData(M, N, index_cap, **fields)


def _obstruction_cycle(he: HeData, family: str) -> GradedMap:
    """o_M = F H - L F (family "f") or o_N = G L - H G (family "g"): the
    table's right-hand side for that family's index-2 generator."""
    return _tower_rhs(gen(family, 2), tower_assignment(she_from_he(he)), he.M, he.N)


def validate_he(he: HeData) -> list[str]:
    problems = _complex_problems(he.M, he.N)
    _check_components(problems, tower_assignment(she_from_he(he)), he.M, he.N,
                      _HE_NAMES.get, _HE_FAILURES.get)
    return problems


def validate_she(s: SheData) -> list[str]:
    problems = _complex_problems(s.M, s.N)
    if s.index_cap < 0:
        problems.append("index_cap must be nonnegative")
        return problems
    want = s.index_cap + 1
    for name in _LAYOUT.values():
        have = len(getattr(s, name))
        if have != want:
            problems.append(f"{name} has {have} components, expected {want}")
    if problems:
        return problems
    _check_components(problems, tower_assignment(s), s.M, s.N, component_name, _identity_failure)
    return problems


def _identity_failure(z: Generator) -> str:
    return f"tower identity fails for {component_name(z)}"


def _filtered_basis(src: ChainComplex, tgt: ChainComplex, k: int) -> tuple[tuple[int, int, int], ...]:
    """The degree-k basis maps src -> tgt that keep the filtration, in ``hom_basis`` order."""
    return tuple((deg, i, j) for deg, i, j in hom_basis(src, tgt, k)
                 if tgt.weights[deg + k - tgt.degree_lo][j] >= src.weights[deg - src.degree_lo][i])


def _hom_solve(src: ChainComplex, tgt: ChainComplex, k: int, rhs: GradedMap) -> GradedMap | None:
    """Canonical degree-k map x with D(x) = rhs, or None over the integers.

    Unknowns range over the filtered sub-lattice only: an unfiltered
    solution would poison the filtration bound of every component built
    from it, so solvability is decided where the answer has to live.

    A zero ``rhs`` returns the zero map with no matrix built: the
    canonical solution of A x = 0 is x = 0 (U 0 = 0, y = 0, V 0 = 0),
    and the zero map keeps the filtration.  A nonzero one with no filtered
    unknowns has no lift, and returns None with no matrix built either.
    """
    if rhs.is_zero():
        return GradedMap.zero(src, tgt, k)
    basis = _filtered_basis(src, tgt, k)
    if not basis:
        return None
    d = hom_complex(src, tgt, k, basis).differential_matrix
    x = solve_integer(d, map_to_vec(rhs, hom_basis(src, tgt, k - 1)))
    if x is None:
        return None
    return vec_to_map(src, tgt, k, basis, x)


def _lift_step(assign: dict[Generator, GradedMap], n: int, M: ChainComplex, N: ChainComplex):
    """The right-hand sides of f_n and g_n, read from ``assign``, and their
    direct lifts, None where one fails over the integers.  At n = 2 these
    are the obstruction cycles and their witnesses; a lift proves its
    right-hand side a cycle, so the cycles are checked only when one fails."""
    tops = (gen("f", n), gen("g", n))
    rhs = {z: _tower_rhs(z, assign, M, N) for z in tops}
    lifts = [_hom_solve(*_hom_space(z, M, N), n, rhs[z]) for z in tops]
    if n == 2 and None in lifts and not all(_d_equals(o, GradedMap.zero(o.source, o.target, o.degree - 1))
                                            for o in rhs.values()):
        raise InternalConsistencyError("obstruction cycles are not cycles")
    return rhs, lifts


def _require_valid(he: HeData) -> None:
    _refuse(validate_he(he), "invalid homotopy equivalence: ")


def _require_valid_repair(he: HeData, repaired: HeData) -> None:
    """Check ``repaired``, built from the checked ``he`` on the same
    complexes, where it can differ from it: the identities whose component,
    or a component their right-hand side reads, the repair replaced.  The
    others hold on the same objects already, so nothing is checked when the
    repair replaced nothing.  A failure is a consistency error."""
    old, new = tower_assignment(she_from_he(he)), tower_assignment(she_from_he(repaired))
    replaced = {z for z in new if new[z] is not old[z]}
    stale = [z for z in new if replaced & {z}.union(*(w.factors for w, _ in generator_diff(z)))]
    problems: list[str] = []
    _check_components(problems, new, he.M, he.N, _HE_NAMES.get, _HE_FAILURES.get, stale)
    _refuse(problems, "repaired homotopy equivalence fails its identities: ", InternalConsistencyError)


def obstruction_cycles(he: HeData) -> ObstructionPair:
    """Both obstruction cycles and the integral decision for each class."""
    _require_valid(he)
    rhs, lifts = _lift_step(tower_assignment(she_from_he(he)), 2, he.M, he.N)
    return ObstructionPair(*rhs.values(), *lifts)


def modify_homotopy_h(he: HeData) -> HeData:
    """Replace H by H - G(FH - LF); the result's obstruction classes vanish."""
    o_m = _obstruction_cycle(he, "f")
    return HeData(he.M, he.N, he.F, he.G, he.H - compose(he.G, o_m), he.L)


def modify_homotopy_l(he: HeData) -> HeData:
    """Replace L by L - F(GL - HG); the result's obstruction classes vanish."""
    return _mirror(modify_homotopy_h(_mirror(he)))


def _mirror(he: HeData) -> HeData:
    """The same equivalence read from N to M: F and G swap, H and L swap, so
    each obstruction cycle of the mirror is the other cycle of ``he``."""
    return HeData(he.N, he.M, he.G, he.F, he.L, he.H)


def modification_witnesses(he: HeData, which: str = "h") -> tuple[HeData, ObstructionPair]:
    """Modified equivalence plus closed-form witnesses for its obstructions.

    The witnesses are explicit compositions in the original data, verified
    exactly against the modified cycles (``chaincore._d_equals``) before
    returning; they certify that the repair works over the integers, with
    no solver involved.  The input is checked once, as given, so an invalid
    one is refused in the terms of its own maps; the "l" repair is the "h"
    repair of the mirror, mirrored back.
    """
    if which not in ("h", "l"):
        raise ValueError(f"which must be 'h' or 'l', got {which!r}")
    _require_valid(he)
    he1 = _mirror(he) if which == "l" else he
    he2 = modify_homotopy_h(he1)
    w_m = -compose(he1.L, _obstruction_cycle(he1, "f"))
    w_n = (compose(compose(he1.H, he1.H), he1.G)
           + compose(he1.G, compose(he1.L, he1.L))
           - compose(he1.H, compose(he1.G, he1.L)))
    o_m2, o_n2 = _obstruction_cycle(he2, "f"), _obstruction_cycle(he2, "g")
    if not (_d_equals(w_m, o_m2) and _d_equals(w_n, o_n2)):
        raise InternalConsistencyError("closed-form modification witnesses failed to verify")
    if which == "l":
        return _mirror(he2), ObstructionPair(o_n2, o_m2, w_n, w_m)
    return he2, ObstructionPair(o_m2, o_n2, w_m, w_n)


def trivial_extension(he: HeData, index_cap: int = 1) -> SheData | None:
    """Zero-padded tower, available only when every defect vanishes on the
    nose: both obstruction cycles are the zero map and H H = L L = 0.
    Then every right-hand side is zero, and ``_extend`` lifts each by the
    zero map, with no system built or solved (``_hom_solve``).
    The input is checked first, once: an invalid one is refused, as by
    ``extend_to_she``.  Returns None when valid data does not qualify."""
    if index_cap < 0:
        raise ValueError("index_cap must be nonnegative")
    _require_valid(he)
    if not (_obstruction_cycle(he, "f").is_zero() and _obstruction_cycle(he, "g").is_zero()
            and compose(he.H, he.H).is_zero() and compose(he.L, he.L).is_zero()):
        return None
    # both cycles are zero, so the lifts at index 2 exist and no advice is read
    return _extend(he, index_cap, "")


def _joint_system(assign: dict[Generator, GradedMap], n: int,
                  rhs: dict[Generator, GradedMap]):
    """The joint lift at index n as one integer system (matrix, right-hand
    side, column blocks), read from the generator differential table.

    Unknowns, in this order: the lifts of f_n and g_n, with D(x) = rhs, and
    corrections c of f_n-1 and g_n-1, which must be cycles; a column block
    is (source, target, hom degree, filtered basis).  Diagonal blocks are D.
    Adding c to the index-(n-1) factor of a term (a b, k) of d z adds
    k a o c or k c o b to D(x_z), so c's block in z's rows is minus that.
    """
    M, N = assign[gen("f", 0)].source, assign[gen("f", 0)].target
    tops, lows = (gen("f", n), gen("g", n)), (gen("f", n - 1), gen("g", n - 1))
    columns = [(src, tgt, z.degree, _filtered_basis(src, tgt, z.degree))
               for z in tops + lows for src, tgt in [_hom_space(z, M, N)]]
    col0 = list(accumulate((len(basis) for *_, basis in columns), initial=0))
    row0 = list(accumulate((len(hom_basis(src, tgt, k - 1)) for src, tgt, k, _ in columns), initial=0))
    width = col0[-1]
    flat = [0] * (row0[-1] * width)
    for u, block in enumerate(columns):
        _place_composites(flat, width, row0[u], col0[u], *block, *_d_parts(*block[:3]))
    for t, z in enumerate(tops):
        for w, k in generator_diff(z):
            for pos, y in enumerate(w.factors):
                if y in lows:
                    part, u = ((-k, assign[w.factors[1 - pos]]),), 2 + lows.index(y)
                    _place_composites(flat, width, row0[t], col0[u], *columns[u],
                                      *((part, ()) if pos else ((), part)))
    b = [v for z in tops for v in map_to_vec(rhs[z], hom_basis(*_hom_space(z, M, N), n - 1))]
    return _closed(row0[-1], width, tuple(flat)), tuple(b) + (0,) * (row0[-1] - len(b)), columns


def _recalibrate(assign: dict[Generator, GradedMap], n: int,
                 rhs: dict[Generator, GradedMap]) -> list[GradedMap]:
    """Joint step at index n: the lifts of f_n and g_n, found together with
    cycle corrections of f_n-1 and g_n-1, which are added to ``assign``.

    The system is solvable whenever the tower extends, so failure raises
    InternalConsistencyError rather than returning partial data.
    """
    matrix, b, columns = _joint_system(assign, n, rhs)
    sol = solve_integer(matrix, b)
    if sol is None:
        raise InternalConsistencyError(f"joint correction system unsolvable at index {n}")
    rest = iter(sol)
    x, y, phi, psi = (vec_to_map(*block, tuple(islice(rest, len(block[3])))) for block in columns)
    assign[gen("f", n - 1)] += phi
    assign[gen("g", n - 1)] += psi
    return [x, y]


def extend_to_she(he: HeData, index_cap: int) -> SheData:
    """Extend an equivalence to a tower with the stated cap.

    The base components F, G, H, L are kept as given and every higher
    component is produced by a canonical integer lift, index by index
    (``_extend``).  The first step, at index 2, decides the obstruction
    classes: the right-hand sides of f_2 and g_2 are the obstruction
    cycles, so their lifts exist exactly when the classes vanish, and
    ObstructionError is raised when they do not (never at cap 0, which
    builds no index 2).  No joint step, which would correct the base H and
    L, is ever taken there.  From index 3 on, when a direct lift of f_n or
    g_n fails, the index-(n-1) components are corrected by cycles found
    jointly with the lifts (``_recalibrate``).

    So a lower cap gives a prefix up to a cycle: the cap-c tower equals the
    cap-c' tower (c' > c) of the same equivalence below index 2c + 1, and
    at the top pair f_2c+1, g_2c+1 the two differ by a cycle (D of the
    difference is 0), which the joint step at index 2c + 2 may add.
    """
    if index_cap < 0:
        raise ValueError("index_cap must be nonnegative")
    _require_valid(he)
    return _extend(he, index_cap, "repair the homotopies first (modify_homotopy_h or modify_homotopy_l)")


def _extend(he: HeData, index_cap: int, advice: str) -> SheData:
    """``extend_to_she`` on an equivalence its caller has checked: one
    ``_lift_step`` for each index n from 2 to 2 cap + 1.

    A failed lift at n = 2 is the obstruction, refused with the caller's
    ``advice``; from n = 3 on it goes to ``_recalibrate``.  Only the
    components it builds are checked, those of index >= 2 (the f_n-1,
    g_n-1 a joint step corrects among them): the base components are the
    checked input, unchanged.  Each right-hand side reads the final
    assignment, so a correction is seen by every identity above it.

    Each right-hand side is evaluated once.  The check reuses the
    right-hand sides of every step that took no joint correction: the one
    at index n reads only components of index below n, and a joint step at
    n corrects only f_n-1 and g_n-1, so each kept value is the value on
    the final assignment, and is checked as the same defect as the others
    (``chaincore._d_equals``).  The right-hand sides of a step that ran a
    joint correction were read before it, so they are not kept, and the
    check evaluates them again on the corrected assignment.
    """
    assign = tower_assignment(she_from_he(he))
    kept: dict[Generator, GradedMap] = {}
    for n in range(2, 2 * index_cap + 2):
        rhs, lifts = _lift_step(assign, n, he.M, he.N)
        if None in lifts:
            if n == 2:
                raise ObstructionError(f"extension obstructed: the obstruction classes do not vanish; {advice}")
            lifts = _recalibrate(assign, n, rhs)
        else:
            kept.update(rhs)
        assign.update(zip(rhs, lifts))
    problems: list[str] = []
    _check_components(problems, assign, he.M, he.N, component_name, _identity_failure,
                      tower_generators(index_cap)[4:], rhs=kept)
    _refuse(problems, "extension fails its identities: ", InternalConsistencyError)
    return she_from_assignment(he.M, he.N, index_cap, assign)
