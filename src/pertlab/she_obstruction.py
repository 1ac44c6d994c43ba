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
``SheData`` is known to this module only; everything else goes through
``tower_assignment`` and ``she_from_assignment``).  The obstruction cycles
are the table's index-2 right-hand sides.  ``extend_to_she`` constructs
the tower one index at a time, the same step for every index.  When the
direct lift fails over Z, it assembles one integer system that solves for
both lifts together with cycle corrections of the previous components;
that system's coupling entries are read from the same table.

Every tower identity is evaluated by ``_check_components``, which
``validate_he``, ``validate_she`` and ``ipl_pipeline.OperadAction`` share.
Constructors check their output (``_checked``), public entry points check
their input, and the private cores (``_extend``, ``_decide_obstructions``,
``_zero_padded``) trust their caller, so a pipeline checks each object
once and evaluates each obstruction cycle once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import itemgetter

from .chaincore import (
    ChainComplex,
    GradedMap,
    compose,
    hom_basis,
    hom_complex,
    hom_differential,
    map_to_vec,
    validate_complex,
    vec_to_map,
)
from .exactlin import _closed, solve_integer
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


def he_from_sdr(s: SdrData) -> HeData:
    """A retract is an equivalence whose big-side defect homotopy is zero."""
    return HeData(s.M, s.N, s.F, s.G, s.H, GradedMap.zero(s.N, s.N, 1))


def she_from_he(he: HeData) -> SheData:
    return SheData(he.M, he.N, 0, (he.F,), (he.G,), (he.H,), (he.L,))


def he_from_she(s: SheData) -> HeData:
    return HeData(s.M, s.N, s.F_even[0], s.G_even[0], s.H_odd[0], s.L_odd[0])


# The parity layout of SheData, known to this module only: generator family
# and index parity -> field, so F_even[i] is f_2i, H_odd[j] is f_2j+1,
# G_even[i] is g_2i and L_odd[j] is g_2j+1.
_LAYOUT = {("f", 0): "F_even", ("g", 0): "G_even", ("f", 1): "H_odd", ("g", 1): "L_odd"}


def tower_generators(index_cap: int) -> tuple[Generator, ...]:
    """The generators a tower of this cap assigns, index by index:
    f_0, g_0, f_1, g_1, ..., f_2c+1, g_2c+1."""
    return tuple(gen(fam, n) for n in range(2 * index_cap + 2) for fam in ("f", "g"))


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


def _checked(out: SheData, what: str, source: HeData | None = None) -> SheData:
    """A constructed tower, once its identities hold.  Failure is a
    consistency error, unless the ``source`` it was built from is invalid."""
    report = validate_she(out)
    if report:
        if source is not None:
            _require_valid(source)
        raise InternalConsistencyError(f"{what} fails its identities: " + "; ".join(report))
    return out


def _hom_space(z: Generator, M: ChainComplex, N: ChainComplex) -> tuple[ChainComplex, ChainComplex]:
    """Source and target of z's component: colour B is M, colour W is N."""
    return (M if z.src == "B" else N), (M if z.dst == "B" else N)


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


def _tower_rhs(z: Generator, assign: dict[Generator, GradedMap],
               M: ChainComplex, N: ChainComplex) -> GradedMap:
    """Required D-value of the component assigned to z: the generator's
    differential table from operad_sym, evaluated under the assignment."""
    value = evaluate_words(generator_diff(z), assign, M, N)
    if value is None:
        return GradedMap.zero(*_hom_space(z, M, N), z.degree - 1)
    return value


def _obstruction_cycle(he: HeData, family: str) -> GradedMap:
    """o_M = F H - L F (family "f") or o_N = G L - H G (family "g"): the
    table's right-hand side for that family's index-2 generator."""
    return _tower_rhs(gen(family, 2), tower_assignment(she_from_he(he)), he.M, he.N)


def _obstruction_cycles(he: HeData) -> tuple[GradedMap, GradedMap]:
    return _obstruction_cycle(he, "f"), _obstruction_cycle(he, "g")


def _check_components(problems: list[str], assign: dict[Generator, GradedMap],
                      M: ChainComplex, N: ChainComplex, name, failure) -> None:
    """Report each component that runs between the wrong complexes, has the
    wrong degree or lowers the filtration (under ``name(z)``); if none
    does, report each that fails its tower identity (as ``failure(z)``)."""
    ok = True
    for z, f in assign.items():
        ok &= _expect_map(problems, f, name(z), *_hom_space(z, M, N), z.degree)
    if not ok or problems:
        return
    for z, f in assign.items():
        if hom_differential(f) != _tower_rhs(z, assign, M, N):
            problems.append(failure(z))


# An equivalence is a tower of cap 0: F, G, H, L are f_0, g_0, f_1, g_1.
_HE_NAMES = dict(zip(tower_generators(0), "FGHL"))
_HE_FAILURES = dict(zip(tower_generators(0), (
    "F is not a chain map", "G is not a chain map",
    "d H + H d != G F - 1 on M", "d L + L d != F G - 1 on N",
)))


def validate_he(he: HeData) -> list[str]:
    problems = [f"M: {p}" for p in validate_complex(he.M)]
    problems += [f"N: {p}" for p in validate_complex(he.N)]
    _check_components(problems, tower_assignment(she_from_he(he)), he.M, he.N,
                      _HE_NAMES.get, _HE_FAILURES.get)
    return problems


def validate_she(s: SheData) -> list[str]:
    problems = [f"M: {p}" for p in validate_complex(s.M)]
    problems += [f"N: {p}" for p in validate_complex(s.N)]
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
    _check_components(problems, tower_assignment(s), s.M, s.N, component_name,
                      lambda z: f"tower identity fails for {component_name(z)}")
    return problems


def _filtered_differential(src: ChainComplex, tgt: ChainComplex, k: int):
    """D restricted to the degree-k maps that do not lower the filtration:
    their basis (a sub-enumeration of ``hom_basis``) and D's matrix from it
    into the full degree-(k-1) enumeration."""
    sl = hom_complex(src, tgt, k)
    keep = [c for c, (deg, i, j) in enumerate(sl.basis)
            if tgt.weight_at(deg + k, j) >= src.weight_at(deg, i)]
    d = sl.differential_matrix
    if len(keep) == len(sl.basis):
        return sl.basis, d
    # itemgetter of fewer than two indices does not return a tuple
    pick = itemgetter(*keep) if len(keep) > 1 else lambda row: tuple(row[c] for c in keep)
    flat = tuple(chain.from_iterable(map(pick, map(d.row, range(d.rows)))))
    return pick(sl.basis), _closed(d.rows, len(keep), flat)


def _hom_solve(src: ChainComplex, tgt: ChainComplex, k: int, rhs: GradedMap) -> GradedMap | None:
    """Canonical degree-k map x with D(x) = rhs, or None over the integers.

    Unknowns range over the filtered sub-lattice only: an unfiltered
    solution would poison the filtration bound of every component built
    from it, so solvability is decided where the answer has to live.
    """
    basis, d = _filtered_differential(src, tgt, k)
    x = solve_integer(d, map_to_vec(rhs, hom_basis(src, tgt, k - 1)))
    if x is None:
        return None
    return vec_to_map(src, tgt, k, basis, x)


def _require_valid(he: HeData) -> None:
    report = validate_he(he)
    if report:
        raise ValueError("invalid homotopy equivalence: " + "; ".join(report))


def _decide_obstructions(he: HeData, o_m: GradedMap, o_n: GradedMap) -> ObstructionPair:
    """``obstruction_cycles`` on an equivalence already validated, given
    its two cycles."""
    if not hom_differential(o_m).is_zero() or not hom_differential(o_n).is_zero():
        raise InternalConsistencyError("obstruction cycles are not cycles")
    w_m = _hom_solve(he.M, he.N, 2, o_m)
    w_n = _hom_solve(he.N, he.M, 2, o_n)
    return ObstructionPair(o_m, o_n, w_m is not None, w_n is not None, w_m, w_n)


def _require_vanishing(he: HeData, o_m: GradedMap, o_n: GradedMap, advice: str) -> ObstructionPair:
    """``_decide_obstructions``, refusing (with ``advice``) unless both
    classes vanish."""
    pair = _decide_obstructions(he, o_m, o_n)
    if not (pair.class_m_vanishes and pair.class_n_vanishes):
        raise ObstructionError(f"extension obstructed: the obstruction classes do not vanish; {advice}")
    return pair


def obstruction_cycles(he: HeData) -> ObstructionPair:
    """Both obstruction cycles and the integral decision for each class."""
    _require_valid(he)
    return _decide_obstructions(he, *_obstruction_cycles(he))


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
    exactly against the modified cycles before returning; they certify that
    the repair works over the integers, with no solver involved.
    """
    if which == "l":
        he2, p = modification_witnesses(_mirror(he), "h")
        return _mirror(he2), ObstructionPair(p.cycle_n, p.cycle_m, True, True, p.witness_n, p.witness_m)
    if which != "h":
        raise ValueError(f"which must be 'h' or 'l', got {which!r}")
    he2 = modify_homotopy_h(he)
    w_m = -compose(he.L, _obstruction_cycle(he, "f"))
    w_n = (compose(compose(he.H, he.H), he.G)
           + compose(he.G, compose(he.L, he.L))
           - compose(he.H, compose(he.G, he.L)))
    o_m2, o_n2 = _obstruction_cycle(he2, "f"), _obstruction_cycle(he2, "g")
    if hom_differential(w_m) != o_m2 or hom_differential(w_n) != o_n2:
        raise InternalConsistencyError("closed-form modification witnesses failed to verify")
    return he2, ObstructionPair(o_m2, o_n2, True, True, w_m, w_n)


def trivial_extension(he: HeData, index_cap: int = 1) -> SheData | None:
    """Zero-padded tower, available only when every defect vanishes on the
    nose: both obstruction cycles are the zero map and H H = L L = 0.
    Returns None when the data does not qualify."""
    if not (_obstruction_cycle(he, "f").is_zero() and _obstruction_cycle(he, "g").is_zero()):
        return None
    return _zero_padded(he, index_cap)


def _zero_padded(he: HeData, index_cap: int) -> SheData | None:
    """``trivial_extension`` once both obstruction cycles are known to be
    the zero map."""
    if not (compose(he.H, he.H).is_zero() and compose(he.L, he.L).is_zero()):
        return None
    assign = tower_assignment(she_from_he(he))
    for z in tower_generators(index_cap)[4:]:
        assign[z] = GradedMap.zero(*_hom_space(z, he.M, he.N), z.degree)
    # the padding is sound on valid input, so a failure blames the input first
    return _checked(she_from_assignment(he.M, he.N, index_cap, assign), "zero-padded tower", he)


def _joint_system(assign: dict[Generator, GradedMap], n: int,
                  rhs: dict[Generator, GradedMap]):
    """The joint lift at index n as one integer system (matrix, right-hand
    side, column blocks), read from the generator differential table.

    Unknowns, in this order: the lifts of f_n and g_n, which must satisfy
    D(x) = rhs, and corrections c of f_n-1 and g_n-1, which must be cycles;
    a column block is (source, target, hom degree, filtered basis), and the
    diagonal blocks are ``_filtered_differential``.  Adding c to the
    index-(n-1) factor of a term (a b, k) of d z changes the required
    D(x_z) by k a c or k c b, the other factor having index 0; moved to the
    left, that is -k times the nonzeros of that factor's blocks, in the
    rows of z's ``hom_basis(..., n - 1)`` enumeration.
    """
    f0 = assign[gen("f", 0)]
    M, N = f0.source, f0.target
    tops, lows = (gen("f", n), gen("g", n)), (gen("f", n - 1), gen("g", n - 1))
    columns, diagonal = [], []
    for z in tops + lows:
        src, tgt = _hom_space(z, M, N)
        basis, d = _filtered_differential(src, tgt, z.degree)
        columns.append((src, tgt, z.degree, basis))
        diagonal.append(d)
    col0 = list(accumulate([len(basis) for *_, basis in columns], initial=0))
    rows: list[list[int]] = []
    for t, d in enumerate(diagonal):
        for r in range(d.rows):
            rows.append([0] * col0[-1])
            rows[-1][col0[t]:col0[t + 1]] = d.row(r)
    b: list[int] = []
    for z in tops:
        hom = hom_basis(*_hom_space(z, M, N), n - 1)
        at = {e: len(b) + r for r, e in enumerate(hom)}
        b += map_to_vec(rhs[z], hom)
        for w, k in generator_diff(z):
            for pos, y in enumerate(w.factors):
                if y not in lows:
                    continue
                u = 2 + lows.index(y)
                blocks = dict(assign[w.factors[1 - pos]].blocks)
                for c, (deg, i, j) in enumerate(columns[u][3], col0[u]):
                    # a c takes column j of a's block to (deg, i, .), c b
                    # takes row i of b's block to (deg, ., j)
                    a = blocks.get(deg + n - 1 if pos else deg)
                    if a is None:
                        continue
                    for x, v in enumerate(a.entries[j::a.cols] if pos else a.row(i)):
                        if v:
                            rows[at[(deg, i, x) if pos else (deg, x, j)]][c] -= k * v
    b += [0] * (len(rows) - len(b))
    return _closed(len(rows), col0[-1], tuple(chain.from_iterable(rows))), tuple(b), columns


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

    Requires the obstruction classes to vanish when index_cap >= 1
    (ObstructionError otherwise); with that settled, the base components
    F, G, H, L are kept as given and every higher component is produced by
    a canonical integer lift.  At index 2 the lifts are the obstruction
    witnesses themselves: the right-hand sides of f_2 and g_2 are the
    obstruction cycles, so their lifts exist exactly when the classes
    vanish, and no joint step (which would correct the base H and L) is
    ever needed there.  From index 3 on, when a direct lift of f_n or g_n
    fails, the index-(n-1) components are corrected by cycles found
    jointly with the lifts (``_recalibrate``).
    """
    if index_cap < 0:
        raise ValueError("index_cap must be nonnegative")
    _require_valid(he)
    if index_cap == 0:
        return she_from_he(he)
    advice = "repair the homotopies first (modify_homotopy_h or modify_homotopy_l)"
    return _extend(he, index_cap, _require_vanishing(he, *_obstruction_cycles(he), advice))


def _extend(he: HeData, index_cap: int, pair: ObstructionPair) -> SheData:
    """``extend_to_she`` at cap >= 1 on a valid equivalence whose
    obstruction classes ``pair`` decided to vanish; checks only its output."""
    assign = tower_assignment(she_from_he(he))
    assign[gen("f", 2)], assign[gen("g", 2)] = pair.witness_m, pair.witness_n
    for n in range(3, 2 * index_cap + 2):
        tops = (gen("f", n), gen("g", n))
        rhs = {z: _tower_rhs(z, assign, he.M, he.N) for z in tops}
        lifts = [_hom_solve(*_hom_space(z, he.M, he.N), n, rhs[z]) for z in tops]
        if None in lifts:
            lifts = _recalibrate(assign, n, rhs)
        assign.update(zip(tops, lifts))
    return _checked(she_from_assignment(he.M, he.N, index_cap, assign), "extension")
