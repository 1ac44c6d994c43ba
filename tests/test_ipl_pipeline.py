import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab import ipl_pipeline, she_obstruction
from pertlab.chaincore import ChainComplex, GradedMap, compose
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import (
    fixture_generate,
    he_fixture,
    layered_she_fixture,
    obstructed_he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.ipl_pipeline import (
    OperadAction,
    action_from_she,
    evaluate,
    ipl_perturb,
    solve_pp,
)
from pertlab.operad_sym import XBAR, gen, parse_element, single, word
from pertlab.sdr_bpl import Perturbation, bpl_transfer
from pertlab.she_obstruction import (
    HeData,
    ObstructionError,
    extend_to_she,
    he_from_sdr,
    modify_homotopy_h,
    she_from_he,
    tower_assignment,
    tower_generators,
    trivial_extension,
    validate_he,
    validate_she,
)


def layered_action():
    he, p = layered_she_fixture()
    tower = extend_to_she(he, 2)
    return tower, p, action_from_she(tower, p)


def test_action_evaluates_assigned_generators():
    tower, p, act = layered_action()
    assert evaluate(single("dif_riso", word(gen("f"))), act) == tower.F_even[0]
    assert evaluate(single("dif_riso", word(gen("xb"))), act) == p.delta
    # identity word acts as the identity map of its color
    assert evaluate(parse_element("1B", "dif_riso"), act) == GradedMap.identity(tower.M)


def test_action_evaluates_composites_linearly():
    tower, p, act = layered_action()
    got = evaluate(parse_element("f1 xb f1 - 2 f1", "dif_riso"), act)
    h, d = tower.H_odd[0], p.delta
    assert got == compose(h, compose(d, h)) - h.scale(2)


def test_action_rejects_the_zero_element():
    _, _, act = layered_action()
    with pytest.raises(ValueError, match="cannot evaluate the zero element"):
        evaluate(parse_element("0", "dif_riso"), act)


def test_action_rejects_unassigned_generators():
    _, _, act = layered_action()
    with pytest.raises(ValueError, match="generator f6 is not assigned"):
        evaluate(single("dif_riso", word(gen("f", 6))), act)


def test_action_checks_intertwining():
    he = he_fixture(6)
    p = weight_raising_perturbation(1, he.M)
    tower = extend_to_she(he, 1)
    # seed 6 has a nonzero obstruction cycle, so D(F_even[1]) != 0 and the
    # zero map cannot satisfy f2's identity
    forged = dataclasses.replace(tower, F_even=(tower.F_even[0], GradedMap.zero(he.M, he.N, 2)))
    for entry in (ipl_perturb, action_from_she):
        with pytest.raises(ValueError, match=r"tower identity fails for F_even\[1\]"):
            entry(forged, p)
    with pytest.raises(ValueError, match="assignment of f2 does not intertwine"):
        OperadAction(he.M, he.N, {XBAR: p.delta, **tower_assignment(forged)})


def test_action_from_she_checks_each_identity_once(monkeypatch):
    he = he_fixture(3)
    tower = extend_to_she(he, 1)
    p = weight_raising_perturbation(4, he.M)
    seen = []
    real = she_obstruction._tower_rhs

    def counted(z, *args):
        seen.append(z)
        return real(z, *args)

    monkeypatch.setattr(she_obstruction, "_tower_rhs", counted)
    act = action_from_she(tower, p)
    # the tower check evaluates f0 ... g3 once each; xb's identity is the
    # perturbation check's (d + delta)^2 = 0
    assert seen == list(tower_generators(1))
    monkeypatch.undo()
    assert act == OperadAction(he.M, he.N, {XBAR: p.delta, **tower_assignment(tower)})


def test_action_refuses_filtration_lowering_maps():
    # with zero differential every map is a chain map, so f0's identity holds
    c = ChainComplex(0, 0, (2,), ((0, 1),), (), 1)
    lowering = GradedMap.from_blocks(c, c, 0, {0: IntMatrix.from_rows([[0, 1], [0, 0]])})
    with pytest.raises(ValueError, match=r"assignment of f0 does not preserve the filtration \(shift -1\)"):
        OperadAction(c, c, {gen("f", 0): lowering})


def test_ipl_rejects_cap_zero_towers():
    he, p = layered_she_fixture()
    with pytest.raises(ValueError, match="cannot absorb a perturbation"):
        ipl_perturb(she_from_he(he), p)


def test_ipl_zero_delta_changes_nothing():
    he, _ = layered_she_fixture()
    tower = extend_to_she(he, 2)
    p = Perturbation(tower.M, GradedMap.zero(tower.M, tower.M, -1))
    out = ipl_perturb(tower, p)
    assert out.she.index_cap == 1
    assert out.d_n_tilde == out.she.N.differential_map()
    for i in (0, 1):
        assert out.she.F_even[i].blocks == tower.F_even[i].blocks
        assert out.she.H_odd[i].blocks == tower.H_odd[i].blocks


def test_ipl_layered_produces_nonzero_corrections():
    he, p = layered_she_fixture()
    tower = extend_to_she(he, 2)
    out = ipl_perturb(tower, p)
    assert validate_she(out.she) == []
    # the homotopy must genuinely change, not just get rebased
    assert out.she.H_odd[0].blocks != tower.H_odd[0].blocks
    assert out.d_n_tilde.blocks != tower.N.differential_map().blocks
    assert out.provenance.max_fweight == tower.M.max_weight + 1


def test_ipl_agrees_with_direct_transfer_on_retracts():
    for seed in range(10):
        s, p = sdr_fixture(seed)
        tower = trivial_extension(he_from_sdr(s), 1)
        assert tower is not None
        out = ipl_perturb(tower, p)
        direct = bpl_transfer(s, p)
        assert out.d_n_tilde == direct.N.differential_map()
        assert out.she.F_even[0] == direct.F
        assert out.she.G_even[0] == direct.G
        assert out.she.H_odd[0] == direct.H
        # a retract's small-side defect homotopy stays zero
        assert out.she.L_odd[0].is_zero()


def test_solve_pp_repairs_then_transfers():
    he, p = layered_she_fixture()
    for strategy in ("modify_h", "modify_l"):
        sol = solve_pp(he, p, strategy)
        assert sol.m_perturbed.d_block(1) == p.base.d_block(1) + p.delta.block_at(1)
        assert all(v >= 1 for v in sol.shifts.values())


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["modify_h", "modify_l"]))
def test_solve_pp_property_over_fixtures(seed, strategy):
    he = he_fixture(seed)
    p = weight_raising_perturbation(seed + 1, he.M)
    sol = solve_pp(he, p, strategy)
    assert set(sol.shifts) == {"F", "G", "H", "L"}
    assert all(v >= 1 for v in sol.shifts.values())
    assert sol.n_perturbed.max_weight == he.N.max_weight


def test_solve_pp_as_is_requires_vanishing_classes():
    he = obstructed_he_fixture()
    p = Perturbation(he.M, GradedMap.zero(he.M, he.M, -1))
    with pytest.raises(ObstructionError, match="use a homotopy-repair strategy"):
        solve_pp(he, p, "as_is")
    # after repair the same data goes through
    sol = solve_pp(he, p, "modify_h")
    assert sol.h_tilde.blocks == he.L.blocks


def test_solve_pp_rejects_unknown_strategy():
    he, p = layered_she_fixture()
    with pytest.raises(ValueError, match="unknown strategy"):
        solve_pp(he, p, "improvise")


def test_solve_pp_reference_is_the_repaired_quadruple():
    he = he_fixture(12)
    p = weight_raising_perturbation(3, he.M)
    sol = solve_pp(he, p, "modify_h")
    assert sol.reference == modify_homotopy_h(he)


def test_solve_pp_between_equal_complexes():
    # both sides of this equivalence are the same complex, so only explicit
    # endpoints can tell the perturbed M from the perturbed N
    docs = fixture_generate(1985322996)
    he, p = docs["he"], docs["he_perturbation"]
    assert he.M == he.N and not p.delta.is_zero()
    for strategy in ("modify_h", "modify_l"):
        sol = solve_pp(he, p, strategy)
        quad = HeData(sol.m_perturbed, sol.n_perturbed,
                      sol.f_tilde, sol.g_tilde, sol.h_tilde, sol.l_tilde)
        assert validate_he(quad) == []


def test_solve_pp_validates_the_input_once(monkeypatch):
    # the perturbation core's validate_she checks the perturbed cap-0 tower, whose
    # identities are those of the output quadruple, so it is not revalidated
    calls = []
    real = validate_he

    def counted(he):
        calls.append(he)
        return real(he)

    monkeypatch.setattr(ipl_pipeline, "validate_he", counted)
    monkeypatch.setattr(she_obstruction, "validate_he", counted)
    s, p = sdr_fixture(2)
    he = he_from_sdr(s)
    assert trivial_extension(modify_homotopy_h(he), 1) is not None
    solve_pp(he, p, "modify_h")
    assert calls == [he]
    # the extension trusts the repaired input: its output check covers it
    calls.clear()
    he = he_fixture(7)
    assert trivial_extension(modify_homotopy_h(he), 1) is None
    solve_pp(he, weight_raising_perturbation(8, he.M), "modify_h")
    assert calls == [he]
    # as_is decides the obstruction classes without validating again
    calls.clear()
    he = he_from_sdr(sdr_fixture(2)[0])
    solve_pp(he, p, "as_is")
    assert calls == [he]


@pytest.mark.parametrize("seed, strategy, most", [
    (3, "modify_h", 19), (7, "modify_h", 21), (7, "as_is", 20),
])
def test_solve_pp_checks_each_identity_once(monkeypatch, seed, strategy, most):
    # the input is checked once, then each constructed tower once: the
    # cap-1 tower by its constructor, the cap-0 output by the perturbation
    he = he_fixture(seed)
    if strategy == "as_is":
        he = modify_homotopy_h(he)
    p = weight_raising_perturbation(seed + 1, he.M)
    seen = {"validate_he": [], "validate_she": [], "_tower_rhs": [], "action": []}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            seen[name].append(args[0])
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    for module in (ipl_pipeline, she_obstruction):
        spy(module, "validate_he")
        spy(module, "validate_she")
    spy(she_obstruction, "_tower_rhs")
    monkeypatch.setattr(OperadAction, "__post_init__", lambda act: seen["action"].append(act))
    solve_pp(he, p, strategy)
    assert seen["validate_he"] == [he]
    assert [s.index_cap for s in seen["validate_she"]] == [1, 0]
    assert seen["action"] == []
    assert len(seen["_tower_rhs"]) <= most


@pytest.mark.parametrize("strategy", ["modify_h", "as_is"])
def test_solve_pp_checks_the_perturbation_before_extending(monkeypatch, strategy):
    def refuse(*args):
        raise AssertionError("the tower was built before the perturbation was checked")

    for module, name in ((ipl_pipeline, "_zero_padded"), (ipl_pipeline, "_extend"),
                         (she_obstruction, "trivial_extension"), (she_obstruction, "extend_to_she"),
                         (she_obstruction, "_extend")):
        monkeypatch.setattr(module, name, refuse)
    he = he_fixture(7)
    elsewhere = weight_raising_perturbation(1, he_fixture(4).M)
    with pytest.raises(ValueError, match="^perturbation lives on a different complex than the tower$"):
        solve_pp(he, elsewhere, strategy)
    # two filtration-raising unit maps whose composite survives
    square = GradedMap.from_blocks(he.M, he.M, -1, {
        1: IntMatrix.from_rows([[1, 0], [0, 0], [0, 0], [0, 0]]),
        2: IntMatrix.from_rows([[1, 0, 0], [0, 0, 0]]),
    })
    with pytest.raises(ValueError, match=r"^\(d \+ delta\)\^2 != 0$"):
        solve_pp(he, Perturbation(he.M, square), strategy)
