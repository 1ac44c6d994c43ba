import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab import ipl_pipeline, sdr_bpl, she_obstruction
from pertlab.chaincore import (
    GradedMap,
    _place_composites,
    compose,
    filtration_shift,
    hom_basis,
    hom_complex,
    hom_differential,
    map_to_vec,
    vec_to_map,
)
from pertlab.fixtures import (
    build_complex,
    _coned_sdr,
    _conjugated,
    _random_core,
    _random_filtered_map,
    _tower_lifts,
    cone_retract_sdr,
    he_fixture,
    layered_she_fixture,
    obstructed_he_fixture,
    recalibration_he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.she_obstruction import (
    HeData,
    ObstructionError,
    ObstructionPair,
    SheData,
    extend_to_she,
    he_from_sdr,
    he_from_she,
    modification_witnesses,
    modify_homotopy_h,
    modify_homotopy_l,
    obstruction_cycles,
    she_from_assignment,
    she_from_he,
    trivial_extension,
    tower_assignment,
    validate_he,
    validate_she,
    _filtered_basis,
    _hom_solve,
    _hom_space,
    _joint_system,
    _obstruction_cycle,
    _recalibrate,
    _tower_rhs,
)
from pertlab.exactlin import IntMatrix, solve_integer
from pertlab.ipl_pipeline import solve_pp
from pertlab.operad_sym import gen
from pertlab.sdr_bpl import InternalConsistencyError, tower_generators


def test_he_fixtures_validate():
    for seed in range(8):
        assert validate_he(he_fixture(seed)) == []


def test_validate_he_catches_wrong_defect():
    he = he_fixture(0)
    bad = HeData(he.M, he.N, he.F, he.G, he.H + he.H, he.L)
    assert validate_he(bad) == ["d H + H d != G F - 1 on M"]


def test_obstructed_fixture_has_nonvanishing_linked_classes():
    he = obstructed_he_fixture()
    assert validate_he(he) == []
    pair = obstruction_cycles(he)
    assert not pair.cycle_m.is_zero() and not pair.cycle_n.is_zero()
    assert not pair.class_m_vanishes and not pair.class_n_vanishes
    assert pair.witness_m is None and pair.witness_n is None


def torsion_obstructed_he(scale: int = 1) -> HeData:
    """C + C[1] with C = Z --2--> Z, F = G = 1, H = 0 and L the signed shift
    times ``scale``: the obstruction classes have order 2, so they vanish
    at scale 2 and not at scale 1, though over Q they vanish at both."""
    c = build_complex(0, (1, 2, 1), ((0,), (0, 0), (0,)), {1: [[2, 0]], 2: [[0], [2]]}, 0)
    one = GradedMap.identity(c)
    ell = GradedMap.from_blocks(c, c, 1, {0: IntMatrix.from_rows([[0], [scale]]),
                                          1: IntMatrix.from_rows([[-scale, 0]])})
    return HeData(c, c, one, one, GradedMap.zero(c, c, 1), ell)


def _rank_over_q(rows: list[list[int]]) -> int:
    """Rank over the rationals, by elimination in ``Fraction``s."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_torsion_obstruction_is_refused_over_z():
    he = torsion_obstructed_he()
    assert validate_he(he) == []
    pair = obstruction_cycles(he)
    assert not pair.class_m_vanishes and not pair.class_n_vanishes
    with pytest.raises(ObstructionError, match="extension obstructed"):
        extend_to_she(he, 1)


def test_doubled_torsion_obstruction_vanishes():
    he = torsion_obstructed_he(2)
    assert validate_he(he) == []
    pair = obstruction_cycles(he)
    assert pair.class_m_vanishes and pair.class_n_vanishes
    assert validate_she(extend_to_she(he, 1)) == []


def test_torsion_obstruction_vanishes_over_q():
    # o_M is a boundary over Q (appending it keeps D's rank) but not over Z
    he = torsion_obstructed_he()
    o_m = _obstruction_cycle(he, "f")
    d = hom_complex(he.M, he.M, 2, _filtered_basis(he.M, he.M, 2)).differential_matrix
    rhs = map_to_vec(o_m, hom_basis(he.M, he.M, 1))
    assert any(rhs)
    with_rhs = [[*row, v] for row, v in zip(d.to_rows(), rhs)]
    assert _rank_over_q(with_rhs) == _rank_over_q(d.to_rows()) > 0
    assert solve_integer(d, rhs) is None


def test_modify_h_kills_both_cycles_on_the_nose():
    he = modify_homotopy_h(obstructed_he_fixture())
    assert validate_he(he) == []
    pair = obstruction_cycles(he)
    assert pair.cycle_m.is_zero() and pair.cycle_n.is_zero()
    assert pair.class_m_vanishes and pair.class_n_vanishes


def test_modify_l_kills_both_cycles_on_the_nose():
    he = modify_homotopy_l(obstructed_he_fixture())
    assert validate_he(he) == []
    pair = obstruction_cycles(he)
    assert pair.cycle_m.is_zero() and pair.cycle_n.is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["h", "l"]))
def test_modification_witnesses_verify_on_random_fixtures(seed, which):
    he = he_fixture(seed)
    he2, pair = modification_witnesses(he, which)
    assert validate_he(he2) == []
    assert pair.class_m_vanishes and pair.class_n_vanishes
    # D(witness) = cycle, rechecked here rather than trusted
    assert hom_differential(pair.witness_m) == pair.cycle_m
    assert hom_differential(pair.witness_n) == pair.cycle_n


def ref_modification_witnesses_l(he):
    """The "l" repair written out: L - F o_N and its two witnesses."""
    o_n = _obstruction_cycle(he, "g")
    he2 = HeData(he.M, he.N, he.F, he.G, he.H, he.L - compose(he.F, o_n))
    w_n = -compose(he.H, o_n)
    w_m = (compose(compose(he.L, he.L), he.F)
           + compose(he.F, compose(he.H, he.H))
           - compose(he.L, compose(he.F, he.H)))
    return he2, ObstructionPair(_obstruction_cycle(he2, "f"), _obstruction_cycle(he2, "g"), w_m, w_n)


def test_l_repair_is_the_mirrored_h_repair():
    for he in [*map(he_fixture, range(40)), obstructed_he_fixture(), recalibration_he_fixture()]:
        want_he, want_pair = ref_modification_witnesses_l(he)
        assert modify_homotopy_l(he) == want_he
        assert modification_witnesses(he, "l") == (want_he, want_pair)


def test_modification_witnesses_rejects_unknown_flavor():
    with pytest.raises(ValueError, match="must be 'h' or 'l'"):
        modification_witnesses(he_fixture(0), "x")


def test_retract_embeds_as_equivalence_with_trivial_extension():
    s = cone_retract_sdr(3)
    he = he_from_sdr(s)
    assert validate_he(he) == []
    tower = trivial_extension(he, index_cap=2)
    assert tower is not None
    assert tower.index_cap == 2
    assert validate_she(tower) == []
    assert all(f.is_zero() for f in tower.F_even[1:])
    assert he_from_she(tower) == he


@pytest.mark.parametrize("he", [he_from_sdr(cone_retract_sdr(3)), obstructed_he_fixture()])
def test_negative_index_cap_is_the_callers_mistake(he):
    # refused before any other work: the obstructed equivalence would
    # otherwise give None (trivial) or ObstructionError (extend)
    for build in (trivial_extension, extend_to_she):
        with pytest.raises(ValueError, match="^index_cap must be nonnegative$"):
            build(he, -1)


def test_trivial_extension_requires_vanishing_on_the_nose():
    assert trivial_extension(obstructed_he_fixture()) is None
    # this seed's twist leaves a nonzero obstruction cycle behind
    he = he_fixture(6)
    assert not obstruction_cycles(he).cycle_m.is_zero()
    assert trivial_extension(he) is None


def test_trivial_extension_reports_invalid_input():
    # zero homotopies leave every defect zero, so the data qualifies, and
    # only the extension's input check sees that d H != G F - 1
    s, _ = sdr_fixture(0)
    he = HeData(s.M, s.N, s.F, s.G, GradedMap.zero(s.M, s.M, 1), GradedMap.zero(s.N, s.N, 1))
    with pytest.raises(ValueError, match="^invalid homotopy equivalence: d H"):
        trivial_extension(he)


def ref_trivial_extension(he, index_cap):
    """The zero padding written out: the base components, then the zero map
    for every higher generator, once every defect vanishes on the nose."""
    if not (_obstruction_cycle(he, "f").is_zero() and _obstruction_cycle(he, "g").is_zero()
            and compose(he.H, he.H).is_zero() and compose(he.L, he.L).is_zero()):
        return None
    assign = tower_assignment(she_from_he(he))
    for z in tower_generators(index_cap)[4:]:
        assign[z] = GradedMap.zero(*_hom_space(z, he.M, he.N), z.degree)
    tower = she_from_assignment(he.M, he.N, index_cap, assign)
    assert validate_she(tower) == []
    return tower


@pytest.mark.parametrize("kind", ["retract", "repaired", "obstructed"])
def test_trivial_extension_is_the_zero_padding(kind):
    # the extension lifts every zero right-hand side by the zero map, so on
    # data that qualifies it builds the padding, and on the rest it is None
    inputs = {
        "retract": [he_from_sdr(cone_retract_sdr(seed)) for seed in range(4)],
        "repaired": [modify_homotopy_h(he_fixture(seed)) for seed in range(12)],
        "obstructed": [obstructed_he_fixture()],
    }[kind]
    answers = []
    for he in inputs:
        for cap in range(4):
            want = ref_trivial_extension(he, cap)
            assert trivial_extension(he, cap) == want
            answers.append(want is not None)
    assert sorted(set(answers)) == {"retract": [True], "repaired": [False, True],
                                    "obstructed": [False]}[kind]


def test_cap_zero_never_decides_the_obstruction_classes():
    he = obstructed_he_fixture()
    assert extend_to_she(he, 0) == she_from_he(he)


def test_obstruction_cycles_that_are_not_cycles_are_a_consistency_error(monkeypatch):
    he = he_fixture(0)
    real = she_obstruction._tower_rhs
    basis = hom_basis(he.M, he.N, 1)
    units = (vec_to_map(he.M, he.N, 1, basis, tuple(int(i == c) for i in range(len(basis))))
             for c in range(len(basis)))
    not_a_cycle = next(m for m in units if not hom_differential(m).is_zero())

    def rhs(z, assign, M, N):
        value = real(z, assign, M, N)
        return value + not_a_cycle if z == gen("f", 2) else value

    monkeypatch.setattr(she_obstruction, "_tower_rhs", rhs)
    with pytest.raises(InternalConsistencyError, match="^obstruction cycles are not cycles$"):
        obstruction_cycles(he)
    with pytest.raises(InternalConsistencyError, match="^obstruction cycles are not cycles$"):
        extend_to_she(he, 1)


def test_she_round_trip_cap_zero():
    he = he_fixture(2)
    tower = she_from_he(he)
    assert tower.index_cap == 0
    assert validate_she(tower) == []
    assert he_from_she(tower) == he


def test_extend_to_she_small_caps():
    for seed in range(6):
        he = he_fixture(seed)
        for cap in (0, 1, 3):
            tower = extend_to_she(he, cap)
            assert tower.index_cap == cap
            assert validate_she(tower) == []
            assert he_from_she(tower) == he


def test_extend_to_she_blocked_by_obstruction():
    with pytest.raises(ObstructionError, match="extension obstructed"):
        extend_to_she(obstructed_he_fixture(), 1)


def test_extend_after_repair_succeeds():
    he = modify_homotopy_h(obstructed_he_fixture())
    tower = extend_to_she(he, 2)
    assert validate_she(tower) == []


def test_extension_components_preserve_the_filtration():
    # seed 879 once produced an F_even[1] with shift -1 when the lift was
    # solved over the full hom lattice instead of the filtered one
    he = he_fixture(879)
    tower = extend_to_she(he, 2)
    assert validate_she(tower) == []
    for fam in (tower.F_even, tower.G_even, tower.H_odd, tower.L_odd):
        for comp in fam:
            assert filtration_shift(comp) >= 0


def test_layered_fixture_is_a_genuine_tower_seed():
    he, p = layered_she_fixture()
    assert validate_he(he) == []
    tower = extend_to_she(he, 1)
    assert validate_she(tower) == []
    assert p.base == he.M


def test_validate_she_reports_the_failing_component():
    tower = extend_to_she(he_fixture(6), 1)
    assert not hom_differential(tower.F_even[1]).is_zero()
    bad = SheData(
        tower.M, tower.N, 1,
        (tower.F_even[0], tower.F_even[1] + tower.F_even[1]),
        tower.G_even, tower.H_odd, tower.L_odd,
    )
    problems = validate_she(bad)
    assert problems == [
        "tower identity fails for F_even[1]",
        "tower identity fails for H_odd[1]",
    ]


def test_validate_she_checks_component_counts():
    he = he_fixture(0)
    bad = SheData(he.M, he.N, 1, (he.F,), (he.G,), (he.H,), (he.L,))
    problems = validate_she(bad)
    assert "F_even has 1 components, expected 2" in problems
    bad = SheData(he.M, he.N, -1, (), (), (), ())
    assert validate_she(bad) == ["index_cap must be nonnegative"]


def test_obstruction_cycles_on_retract_vanish():
    s, _ = sdr_fixture(7)
    pair = obstruction_cycles(he_from_sdr(s))
    # the side conditions make the big-side cycle vanish on the nose
    assert pair.cycle_m.is_zero()
    assert pair.class_m_vanishes and pair.class_n_vanishes


# --- the joint step -------------------------------------------------------


def _filtered_hom(src, tgt, k):
    full = hom_basis(src, tgt, k)
    keep = [c for c, (deg, i, j) in enumerate(full)
            if tgt.weight_at(deg + k, j) >= src.weight_at(deg, i)]
    return tuple(full[c] for c in keep), keep


def _column_select(mat, keep):
    return IntMatrix(mat.rows, len(keep), tuple(mat.entry(r, c) for r in range(mat.rows) for c in keep))


def _composite_matrix(apply, src, tgt, k, basis_in, basis_out):
    """Matrix of f |-> apply(f) on the degree-k maps src -> tgt spanned by
    basis_in, in basis_out coordinates: column c is apply of basis map c."""
    units = [tuple(int(t == c) for t in range(len(basis_in))) for c in range(len(basis_in))]
    cols = [map_to_vec(apply(vec_to_map(src, tgt, k, basis_in, e)), basis_out) for e in units]
    return IntMatrix(len(basis_out), len(cols), tuple(col[r] for r in range(len(basis_out)) for col in cols))


def _left(u, m, k, basis_in, basis_out):
    return _composite_matrix(lambda f: compose(u, f), m, u.source, k, basis_in, basis_out)


def _right(u, n, k, basis_in, basis_out):
    return _composite_matrix(lambda f: compose(f, u), u.target, n, k, basis_in, basis_out)


# Factors for the placement routine, by name: self-maps of M or N of a
# given degree (which can stand on either side, together), and F, G.
def _factors(x):
    M, N = x.M, x.N
    L = x.L if isinstance(x, HeData) else GradedMap.zero(N, N, 1)
    return {"dM": M.differential_map(), "dN": N.differential_map(), "H": x.H, "L": L,
            "GF": compose(x.G, x.F), "FG": compose(x.F, x.G), "F": x.F, "G": x.G}


# (source, target, left factors, right factors) of e |-> sum c a e + sum c e b
_PLACEMENTS = [
    ("M", "N", ["dN"], ["dM"]), ("M", "N", ["L"], ["H"]), ("N", "M", ["GF"], ["FG"]),
    ("M", "M", ["dM", "dM"], ["dM"]), ("N", "N", ["L"], ["L", "L"]),
    ("M", "M", ["F"], []), ("N", "N", ["G"], []), ("M", "M", [], ["G"]), ("N", "M", [], ["F"]),
    ("N", "M", [], ["FG", "FG"]), ("M", "N", ["FG"], []),
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["sdr", "he"]), st.integers(0, 40), st.integers(-1, 3), st.sampled_from(_PLACEMENTS),
       st.booleans(), st.data())
def test_place_composites_matches_the_compose_reference(kind, seed, k, placement, filtered, data):
    x = sdr_fixture(seed)[0] if kind == "sdr" else he_fixture(seed)
    names, parts = _factors(x), {"M": x.M, "N": x.N}
    src, tgt = parts[placement[0]], parts[placement[1]]
    coef = st.sampled_from([-3, -2, -1, 1, 2, 3])
    left = tuple((data.draw(coef), names[a]) for a in placement[2])
    right = tuple((data.draw(coef), names[b]) for b in placement[3])
    basis = _filtered_hom(src, tgt, k)[0] if filtered else hom_basis(src, tgt, k)
    row_src = src if left else right[0][1].source
    row_tgt, row_k = (left[0][1].target, k + left[0][1].degree) if left else (tgt, k + right[0][1].degree)
    rows = hom_basis(row_src, row_tgt, row_k)

    def apply(e):
        out = GradedMap.zero(row_src, row_tgt, row_k)
        for c, a in left:
            out = out + compose(a, e).scale(c)
        for c, b in right:
            out = out + compose(e, b).scale(c)
        return out

    want = _composite_matrix(apply, src, tgt, k, basis, rows)
    # placed at an offset into a larger matrix that already holds entries
    r0, c0 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    width, height = c0 + want.cols + 2, r0 + want.rows + 1
    before = [(p * 7) % 5 - 2 for p in range(width * height)]
    flat = list(before)
    _place_composites(flat, width, r0, c0, src, tgt, k, basis, left, right)
    added = [a - b for a, b in zip(flat, before)]
    assert all(type(v) is int for v in flat)
    inside = {(r0 + r) * width + c0 + c for r in range(want.rows) for c in range(want.cols)}
    assert all(added[p] == 0 for p in range(len(flat)) if p not in inside)
    assert tuple(added[(r0 + r) * width + c0 + c] for r in range(want.rows) for c in range(want.cols)) == want.entries


def _assembled(columns, equations):
    """The stacked system of block equations (row count, {column block:
    matrix}, rhs), as (matrix, right-hand side, column blocks)."""
    widths = [len(basis) for *_, basis in columns]
    flat, b = [], []
    for row_dim, blocks, rhs in equations:
        for r in range(row_dim):
            for ci, w in enumerate(widths):
                flat += blocks[ci].row(r) if ci in blocks else (0,) * w
        b += rhs
    return IntMatrix(len(b), sum(widths), tuple(flat)), tuple(b), columns


def _old_even_system(he, m, rhs_f, rhs_g):
    """Reference: the hand-written block system of the even joint step at
    index 2m, correcting H_{2m-1} by phi and L_{2m-1} by psi."""
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
    eq1 = (len(b_x), {
        0: _column_select(hom_complex(M, N, k).differential_matrix, keep_x),
        2: -_left(F0, M, k - 1, fb_phi, b_x),
        3: _right(F0, N, k - 1, fb_psi, b_x),
    }, map_to_vec(rhs_f, b_x))
    eq2 = (len(b_y), {
        1: _column_select(hom_complex(N, M, k).differential_matrix, keep_y),
        2: _right(G0, M, k - 1, fb_phi, b_y),
        3: -_left(G0, N, k - 1, fb_psi, b_y),
    }, map_to_vec(rhs_g, b_y))
    eq3_rows = len(hom_basis(M, M, k - 2))
    eq4_rows = len(hom_basis(N, N, k - 2))
    eq3 = (eq3_rows, {2: _column_select(hom_complex(M, M, k - 1).differential_matrix, keep_phi)},
           (0,) * eq3_rows)
    eq4 = (eq4_rows, {3: _column_select(hom_complex(N, N, k - 1).differential_matrix, keep_psi)},
           (0,) * eq4_rows)
    return _assembled(columns, [eq1, eq2, eq3, eq4])


def _old_odd_system(he, m, rhs_h, rhs_l):
    """Reference: the hand-written block system of the odd joint step at
    index 2m+1, correcting F_{2m} by phi and G_{2m} by psi."""
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
    eq1 = (len(b_x), {
        0: _column_select(hom_complex(M, M, k).differential_matrix, keep_x),
        2: -_left(G0, M, k - 1, fb_phi, b_x),
        3: -_right(F0, M, k - 1, fb_psi, b_x),
    }, map_to_vec(rhs_h, b_x))
    eq2 = (len(b_y), {
        1: _column_select(hom_complex(N, N, k).differential_matrix, keep_y),
        2: -_right(G0, N, k - 1, fb_phi, b_y),
        3: -_left(F0, N, k - 1, fb_psi, b_y),
    }, map_to_vec(rhs_l, b_y))
    eq3_rows = len(hom_basis(M, N, k - 2))
    eq4_rows = len(hom_basis(N, M, k - 2))
    eq3 = (eq3_rows, {2: _column_select(hom_complex(M, N, k - 1).differential_matrix, keep_phi)},
           (0,) * eq3_rows)
    eq4 = (eq4_rows, {3: _column_select(hom_complex(N, M, k - 1).differential_matrix, keep_psi)},
           (0,) * eq4_rows)
    return _assembled(columns, [eq1, eq2, eq3, eq4])


def _tower_below(he, n):
    """A valid tower's components of index < n, as the extension has them
    before its step n, plus the right-hand sides of f_n and g_n."""
    assign = tower_assignment(extend_to_she(he, (n - 2) // 2))
    for z in (gen("f", n - 1), gen("g", n - 1)) if n % 2 else ():
        lift = _hom_solve(*_hom_space(z, he.M, he.N), n - 1, _tower_rhs(z, assign, he.M, he.N))
        assert lift is not None
        assign[z] = lift
    rhs = {z: _tower_rhs(z, assign, he.M, he.N) for z in (gen("f", n), gen("g", n))}
    return assign, rhs


def test_joint_system_matches_the_hand_written_blocks():
    cases = 0
    fixtures = [he_fixture(seed) for seed in range(30)]
    for he in fixtures + [recalibration_he_fixture(), layered_she_fixture()[0]]:
        tower = extend_to_she(he, 3)
        full = tower_assignment(tower)
        for n in range(2, 8):
            assign = {z: f for z, f in full.items() if z.index < n}
            rhs = {z: _tower_rhs(z, assign, he.M, he.N) for z in (gen("f", n), gen("g", n))}
            f, g = rhs[gen("f", n)], rhs[gen("g", n)]
            old = _old_even_system(he, n // 2, f, g) if n % 2 == 0 else _old_odd_system(he, n // 2, f, g)
            assert _joint_system(assign, n, rhs) == old
            cases += 1
    assert cases == 192


def _deep_he(seed):
    """The deep-tower recipe: ``he_fixture`` at core rank 24 over 12 degrees,
    8 cone pairs per side and max weight 4, repaired by ``modify_homotopy_h``."""
    rng = random.Random(seed)
    core = _random_core(rng, 24, 12, 4)
    m_side, n_side = (_coned_sdr(core, random.Random(seed * 31 + side), 8, 4) for side in (11, 12))
    M, N = m_side.M, n_side.M
    F, G = compose(n_side.G, m_side.F), compose(m_side.G, n_side.F)
    for _ in range(8):
        t_m, t_n = _random_filtered_map(rng, M, M, 2, 0), _random_filtered_map(rng, N, N, 2, 0)
        if not (compose(F, hom_differential(t_m)) - compose(hom_differential(t_n), F)).is_zero():
            break
    he = HeData(*_conjugated(rng, M, N, (F, G, m_side.H + hom_differential(t_m), n_side.H + hom_differential(t_n))))
    assert validate_he(he) == []
    return modify_homotopy_h(he)


@pytest.mark.slow
def test_joint_system_matches_the_hand_written_blocks_on_deep_towers(monkeypatch):
    fired = _spy_on_joint_steps(monkeypatch)
    largest = 0
    for seed in (0, 1):
        he = _deep_he(seed)
        full = tower_assignment(extend_to_she(he, 5))
        for n in range(2, 12):
            assign = {z: f for z, f in full.items() if z.index < n}
            rhs = {z: _tower_rhs(z, assign, he.M, he.N) for z in (gen("f", n), gen("g", n))}
            f, g = rhs[gen("f", n)], rhs[gen("g", n)]
            old = _old_even_system(he, n // 2, f, g) if n % 2 == 0 else _old_odd_system(he, n // 2, f, g)
            got = _joint_system(assign, n, rhs)
            assert got == old
            largest = max(largest, got[0].rows)
    # the joint step fired on these towers, and their systems have hundreds of rows
    assert fired and largest >= 300


def _spy_on_joint_steps(monkeypatch):
    fired = []
    real = she_obstruction._recalibrate

    def spy(assign, n, rhs):
        fired.append(n)
        return real(assign, n, rhs)

    monkeypatch.setattr(she_obstruction, "_recalibrate", spy)
    return fired


def test_recalibration_fixture_needs_the_joint_solver(monkeypatch):
    he = recalibration_he_fixture()
    assert validate_he(he) == []
    pair = obstruction_cycles(he)
    assert pair.class_m_vanishes and pair.class_n_vanishes
    fired = _spy_on_joint_steps(monkeypatch)
    tower = extend_to_she(he, 2)
    assert validate_she(tower) == []
    # the odd step at index 3 needs the joint system, nothing else does
    assert fired == [3]


def test_he_fixture_70_needs_the_even_joint_step(monkeypatch):
    fired = _spy_on_joint_steps(monkeypatch)
    tower = extend_to_she(he_fixture(70), 2)
    assert validate_she(tower) == []
    assert fired == [4]


def _check_joint_step(he, n):
    """Run the joint step at index n on a valid tower below n: D(x) must
    equal the right-hand side plus the coupling terms of the corrections,
    and the corrections must be cycles.  Returns whether it corrected."""
    assign, rhs = _tower_below(he, n)
    before = dict(assign)
    x, y = _recalibrate(assign, n, rhs)
    f_low, g_low = gen("f", n - 1), gen("g", n - 1)
    phi = assign[f_low] - before[f_low]
    psi = assign[g_low] - before[g_low]
    assert hom_differential(phi).is_zero() and hom_differential(psi).is_zero()
    if n % 2 == 0:
        # d f_n = f_0 f_n-1 - g_n-1 f_0 + ...,  d g_n = g_0 g_n-1 - f_n-1 g_0 + ...
        assert hom_differential(x) == rhs[gen("f", n)] + compose(he.F, phi) - compose(psi, he.F)
        assert hom_differential(y) == rhs[gen("g", n)] + compose(he.G, psi) - compose(phi, he.G)
    else:
        # d f_n = g_0 f_n-1 + g_n-1 f_0 + ...,  d g_n = f_0 g_n-1 + f_n-1 g_0 + ...
        assert hom_differential(x) == rhs[gen("f", n)] + compose(he.G, phi) + compose(psi, he.F)
        assert hom_differential(y) == rhs[gen("g", n)] + compose(he.F, psi) + compose(phi, he.G)
    # the corrected assignment satisfies the table at index n, below n - 1
    # nothing moved
    assert hom_differential(x) == _tower_rhs(gen("f", n), assign, he.M, he.N)
    assert hom_differential(y) == _tower_rhs(gen("g", n), assign, he.M, he.N)
    assert all(assign[z] == f for z, f in before.items() if z.index < n - 1)
    return not (phi.is_zero() and psi.is_zero())


@pytest.mark.parametrize("seed", [70, 103, 164])
def test_even_joint_step_corrects_where_the_direct_lift_fails(seed):
    # these are the seeds below 200 whose cap-3 extension fires the even step
    assert _check_joint_step(he_fixture(seed), 4)


def test_odd_joint_step_corrects_where_the_direct_lift_fails():
    assert _check_joint_step(recalibration_he_fixture(), 3)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 40), st.sampled_from([4, 6]))
def test_even_joint_step_holds_where_the_direct_lift_succeeds(seed, n):
    _check_joint_step(he_fixture(seed), n)


# --- the witnesses and the single checks ----------------------------------


def _assert_index_two_lifts_are_the_witnesses(he, cap, fired):
    """F_2 and G_2 are the obstruction witnesses, unless the joint step at
    index 3 corrected them, and then only by cycles."""
    pair = obstruction_cycles(he)
    fired.clear()
    tower = extend_to_she(he, cap)
    phi = tower.F_even[1] - pair.witness_m
    psi = tower.G_even[1] - pair.witness_n
    if 3 in fired:
        assert hom_differential(phi).is_zero() and hom_differential(psi).is_zero()
        assert not (phi.is_zero() and psi.is_zero())
    else:
        assert phi.is_zero() and psi.is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_index_two_lifts_are_the_obstruction_witnesses(seed, cap):
    with pytest.MonkeyPatch.context() as monkeypatch:
        fired = _spy_on_joint_steps(monkeypatch)
        _assert_index_two_lifts_are_the_witnesses(he_fixture(seed), cap, fired)


def test_index_two_lifts_are_the_witnesses_after_repair(monkeypatch):
    fired = _spy_on_joint_steps(monkeypatch)
    for he in [he_fixture(seed) for seed in (0, 49, 125)] + [
        modify_homotopy_h(obstructed_he_fixture()), modify_homotopy_l(obstructed_he_fixture()),
    ]:
        _assert_index_two_lifts_are_the_witnesses(he, 2, fired)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_extension_validates_once_and_solves_index_two_once(monkeypatch):
    validations = _count_calls(monkeypatch, she_obstruction, "validate_he")
    solves = _count_calls(monkeypatch, she_obstruction, "_hom_solve")
    extend_to_she(he_fixture(3), 1)
    assert len(validations) == 1
    # two for the obstruction witnesses (which are f_2, g_2), two at index 3
    assert len(solves) == 4


# --- the extension checks what it builds ----------------------------------


def _non_cycle(src, tgt, k):
    """A filtered degree-k basis map whose D is not zero."""
    sl = hom_complex(src, tgt, k, _filtered_basis(src, tgt, k))
    basis, d = sl.basis, sl.differential_matrix
    c = next(c for c in range(d.cols) if any(d.entries[c::d.cols]))
    return vec_to_map(src, tgt, k, basis, tuple(int(i == c) for i in range(d.cols)))


@pytest.mark.parametrize("family, name", [("f", "H_odd[1]"), ("g", "L_odd[1]")])
def test_extension_refuses_a_built_component_off_by_a_non_cycle(monkeypatch, family, name):
    # seed 12: M != N, both span four degrees, and both lifts at index 3 are direct
    he = he_fixture(12)
    src, tgt = _hom_space(gen(family, 3), he.M, he.N)
    off = _non_cycle(src, tgt, 3)
    real = she_obstruction._hom_solve

    def solve(s, t, k, rhs):
        x = real(s, t, k, rhs)
        return x + off if (s, t, k) == (src, tgt, 3) else x

    monkeypatch.setattr(she_obstruction, "_hom_solve", solve)
    with pytest.raises(InternalConsistencyError,
                       match=f"^extension fails its identities: tower identity fails for {re.escape(name)}$"):
        extend_to_she(he, 1)


def _corrupt_corrections(monkeypatch, off):
    """Let each joint step add ``off`` to the f_n-1 it corrects."""
    real = she_obstruction._recalibrate

    def recalibrate(assign, n, rhs):
        lifts = real(assign, n, rhs)
        assign[gen("f", n - 1)] += off
        return lifts

    monkeypatch.setattr(she_obstruction, "_recalibrate", recalibrate)


def test_extension_refuses_a_corrected_component_off_by_a_non_cycle(monkeypatch):
    # seed 58: the joint step at index 3 corrects f_2 and g_2
    he = he_fixture(58)
    fired = _spy_on_joint_steps(monkeypatch)
    _corrupt_corrections(monkeypatch, _non_cycle(he.M, he.N, 2))
    with pytest.raises(InternalConsistencyError,
                       match=r"^extension fails its identities: tower identity fails for F_even\[1\]"):
        extend_to_she(he, 1)
    assert fired == [3]


def test_extension_reads_the_corrected_component_on_the_recalibration_fixture(monkeypatch):
    # its differential is zero, so every map is a cycle and f_2's own identity
    # survives any change; the identities of f_3 and g_3 read f_2 and do not
    he = recalibration_he_fixture()
    fired = _spy_on_joint_steps(monkeypatch)
    _corrupt_corrections(monkeypatch, GradedMap.from_blocks(he.M, he.N, 2, {0: IntMatrix.from_rows([[1]])}))
    with pytest.raises(InternalConsistencyError) as refused:
        extend_to_she(he, 1)
    assert fired == [3]
    assert str(refused.value) == ("extension fails its identities: tower identity fails for H_odd[1]; "
                                  "tower identity fails for L_odd[1]")


def test_extension_refuses_an_invalid_equivalence_before_solving(monkeypatch):
    def refuse(*args):
        raise AssertionError("a lift was solved before the input was checked")

    monkeypatch.setattr(she_obstruction, "_hom_solve", refuse)
    he = he_fixture(0)
    bad = HeData(he.M, he.N, he.F, he.G, he.H + he.H, he.L)
    with pytest.raises(ValueError, match="^invalid homotopy equivalence: d H"):
        extend_to_she(bad, 1)


def _spy_on_identity_checks(monkeypatch):
    """The (generator, component) pairs the tower checks are handed, in
    order; the components are kept, so they are compared by identity."""
    checked = []
    real = sdr_bpl._check_components

    def spy(problems, assign, M, N, name, failure, check=None, *args, **kwargs):
        checked.extend((z, assign[z]) for z in (assign if check is None else check))
        return real(problems, assign, M, N, name, failure, check, *args, **kwargs)

    for module in (sdr_bpl, she_obstruction, ipl_pipeline):
        monkeypatch.setattr(module, "_check_components", spy)
    return checked


def _times_checked(checked, tower):
    """How often each identity of ``tower`` was checked on its own component."""
    return [sum(1 for y, f in checked if y == z and f is g) for z, g in tower_assignment(tower).items()]


def test_extension_checks_each_identity_once(monkeypatch):
    he = he_fixture(7)
    checked = _spy_on_identity_checks(monkeypatch)
    tower = extend_to_she(he, 1)
    # the input check covers the four base identities, the output check the rest
    assert _times_checked(checked, tower) == [1] * 8
    assert len(checked) == 8


@pytest.mark.parametrize("strategy", ["modify_h", "as_is"])
def test_solve_pp_checks_each_tower_identity_once(monkeypatch, strategy):
    he = he_fixture(7)
    if strategy == "as_is":
        he = modify_homotopy_h(he)
    p = weight_raising_perturbation(8, he.M)
    towers = []
    real = ipl_pipeline._extend

    def extend(*args):
        towers.append(real(*args))
        return towers[-1]

    monkeypatch.setattr(ipl_pipeline, "_extend", extend)
    checked = _spy_on_identity_checks(monkeypatch)
    solve_pp(he, p, strategy)
    # under modify_h the repair replaced H alone, so only D(H) = G F - 1 is
    # checked again; under as_is the input is the repair
    assert _times_checked(checked, towers[0]) == [1] * 8


def filtered_differential_by_slicing(m, n, k):
    """The whole hom-complex matrix, then the columns whose basis map does
    not lower the filtration, read cell by cell."""
    sl = hom_complex(m, n, k)
    keep = [c for c, (deg, i, j) in enumerate(sl.basis)
            if n.weight_at(deg + k, j) >= m.weight_at(deg, i)]
    d = sl.differential_matrix
    flat = tuple(d.entry(r, c) for r in range(d.rows) for c in keep)
    return tuple(sl.basis[c] for c in keep), IntMatrix(d.rows, len(keep), flat)


def test_filtered_differential_keeps_the_filtered_columns():
    # the fixtures reach every case of the selection: an empty hom space,
    # and of a nonempty one all columns kept, none, exactly one, and some
    seen = set()
    for seed in range(41):
        for x in (sdr_fixture(seed)[0], he_fixture(seed)):
            for m, n in ((x.M, x.N), (x.N, x.M), (x.M, x.M)):
                for k in range(-1, 5):
                    want_basis, want = filtered_differential_by_slicing(m, n, k)
                    sl = hom_complex(m, n, k, _filtered_basis(m, n, k))
                    basis, got = sl.basis, sl.differential_matrix
                    assert basis == want_basis
                    assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries)
                    full, kept = len(hom_basis(m, n, k)), len(basis)
                    seen.add("empty space" if not full else "all" if kept == full
                             else ("none", "one")[kept] if kept < 2 else "some")
    assert seen == {"empty space", "all", "none", "one", "some"}


# --- a zero right-hand side lifts to zero -----------------------------------


def ref_hom_solve(src, tgt, k, rhs):
    """The lift with no shortcut: the filtered differential is built and
    solved whatever the right-hand side."""
    sl = hom_complex(src, tgt, k, _filtered_basis(src, tgt, k))
    basis, d = sl.basis, sl.differential_matrix
    x = solve_integer(d, map_to_vec(rhs, hom_basis(src, tgt, k - 1)))
    return None if x is None else vec_to_map(src, tgt, k, basis, x)


def test_a_zero_right_hand_side_lifts_to_the_canonical_lift():
    for seed in range(41):
        for x in (sdr_fixture(seed)[0], he_fixture(seed)):
            for src, tgt in ((x.M, x.N), (x.N, x.M), (x.M, x.M), (x.N, x.N)):
                for k in range(1, 6):
                    zero = GradedMap.zero(src, tgt, k - 1)
                    assert _hom_solve(src, tgt, k, zero) == ref_hom_solve(src, tgt, k, zero)


def test_tower_right_hand_sides_lift_as_without_the_shortcut():
    # the right-hand sides of every component of index 2 and up of the
    # repaired towers, read on the final tower
    kinds = set()
    for src, tgt, k, rhs in _tower_lifts():
        lift = _hom_solve(src, tgt, k, rhs)
        assert lift == ref_hom_solve(src, tgt, k, rhs)
        assert lift is not None and hom_differential(lift) == rhs
        kinds.add(rhs.is_zero())
    # the draws hold both kinds
    assert kinds == {False, True}


def test_a_zero_right_hand_side_builds_and_solves_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a zero right-hand side reached the solver")

    monkeypatch.setattr(she_obstruction, "hom_complex", refuse)
    monkeypatch.setattr(she_obstruction, "solve_integer", refuse)
    he = he_fixture(3)
    for src, tgt in ((he.M, he.N), (he.N, he.M), (he.M, he.M), (he.N, he.N)):
        for k in range(1, 6):
            assert _hom_solve(src, tgt, k, GradedMap.zero(src, tgt, k - 1)) == GradedMap.zero(src, tgt, k)
    # every right-hand side of a trivial extension is zero
    assert trivial_extension(he_from_sdr(cone_retract_sdr(3)), 3) is not None


def test_a_nonzero_right_hand_side_with_no_filtered_unknowns_has_no_lift(monkeypatch):
    # each unit map of degree k - 1 where no degree-k map keeps the
    # filtration: the reference solves over a matrix with no columns
    cases = []
    for seed in range(20):
        for x in (sdr_fixture(seed)[0], he_fixture(seed)):
            for src, tgt in ((x.M, x.N), (x.N, x.M), (x.M, x.M), (x.N, x.N)):
                for k in range(1, 6):
                    lower = hom_basis(src, tgt, k - 1)
                    if lower and not _filtered_basis(src, tgt, k):
                        rhs = vec_to_map(src, tgt, k - 1, lower, (1,) + (0,) * (len(lower) - 1))
                        assert ref_hom_solve(src, tgt, k, rhs) is None
                        cases.append((src, tgt, k, rhs))
    assert len(cases) >= 10

    def refuse(*args):
        raise AssertionError("a lift with no unknowns reached the solver")

    monkeypatch.setattr(she_obstruction, "hom_complex", refuse)
    monkeypatch.setattr(she_obstruction, "solve_integer", refuse)
    for case in cases:
        assert _hom_solve(*case) is None
