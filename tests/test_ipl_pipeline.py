import dataclasses
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab import ipl_pipeline, sdr_bpl, she_obstruction
from pertlab.chaincore import (
    ChainComplex,
    GradedMap,
    complex_with_differential,
    compose,
    filtration_shift,
    rebase,
)
from pertlab.cli_io import serialize_document
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import (
    build_complex,
    cone_retract_sdr,
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
from pertlab.operad_sym import (XBAR, YBAR, TruncationCaps, gen, parse_element, retraction_r, single,
                                truncate_fweight, word)
from pertlab.sdr_bpl import (InternalConsistencyError, Perturbation, _hom_space, _kernels, _transfer, bpl_transfer,
                             evaluate_words)
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


def test_action_rejects_terms_in_different_hom_groups():
    # f0 maps M to N and g0 maps N to M, and here M and N differ
    he = he_fixture(0)
    act = action_from_she(extend_to_she(he, 1), weight_raising_perturbation(0, he.M))
    with pytest.raises(ValueError, match="^maps live in different hom groups$"):
        evaluate(parse_element("f0 + g0", "dif_riso"), act)


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
    real = sdr_bpl._tower_rhs

    def counted(z, *args):
        seen.append(z)
        return real(z, *args)

    monkeypatch.setattr(sdr_bpl, "_tower_rhs", counted)
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
    # the band is the spread of the weights the complexes carry
    weights = [w for c in (tower.M, tower.N) for row in c.weights for w in row]
    assert out.provenance.max_fweight == max(weights) - min(weights) + 1


def _without_max_weight(doc):
    if isinstance(doc, dict):
        return {k: _without_max_weight(v) for k, v in doc.items() if k != "max_weight"}
    return [_without_max_weight(v) for v in doc] if isinstance(doc, list) else doc


def test_ipl_band_ignores_a_declared_filtration_length_the_weights_do_not_use():
    # the interval complex, all weights 0, with F = G = 1 and H = L = 0,
    # extended to cap 1 and perturbed by zero; a band read from the
    # declared max_weight made this take seconds at 128 and overflow the
    # recursion limit at 10^6
    def perturbed(max_weight, weight=0):
        c = build_complex(0, (1, 1), ((weight,), (weight,)), {1: [[1]]}, max_weight)
        one, zero = GradedMap.identity(c), GradedMap.zero(c, c, 1)
        tower = extend_to_she(HeData(c, c, one, one, zero, zero), 1)
        return ipl_perturb(tower, Perturbation(c, GradedMap.zero(c, c, -1)))

    start = time.perf_counter()
    big = perturbed(10**6)
    assert time.perf_counter() - start < 2
    small = perturbed(1)
    assert big.provenance == small.provenance and big.provenance.max_fweight == 1
    assert big.d_n_tilde.blocks == small.d_n_tilde.blocks
    docs = [json.loads(serialize_document(out.she)) for out in (big, small)]
    assert docs[0] != docs[1]
    assert _without_max_weight(docs[0]) == _without_max_weight(docs[1])
    # the spread, not the largest weight: all weights 3 still give band 0
    assert perturbed(10**6, 3).provenance == small.provenance


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


# --- the concrete transfer against the symbolic retraction ------------------


def symbolic_transfer(assign, gens, M, N, band):
    """The perturbed d_N and components of ``gens`` by the symbolic path:
    the retraction of yb and of each barred generator at one fweight band
    past ``band``, evaluated word by word; that last band must evaluate to
    zero."""
    caps = TruncationCaps(max_fweight=band + 1)

    def series(z, base):
        e = retraction_r(single("riso_tilde", word(z)), caps)
        lo = truncate_fweight(e, band)
        leak = evaluate_words((e - lo).terms, assign, M, N)
        assert leak is None or leak.is_zero()
        value = evaluate_words(lo.terms, assign, M, N)
        return base if value is None else base + value

    parts = {z: series(gen(z.family + "b", z.index), assign[z]) for z in gens}
    return series(YBAR, N.differential_map()), parts


def _symbolic_cases():
    for cap in (1, 2, 3):
        for seed in range(30):
            she = extend_to_she(modify_homotopy_h(he_fixture(seed)), cap)
            yield she, weight_raising_perturbation(seed, she.M)
    he, p = layered_she_fixture()
    for cap in (1, 2, 3, 4):
        yield extend_to_she(he, cap), p


def test_ipl_transfer_matches_the_symbolic_retraction():
    moved = 0
    for she, p in _symbolic_cases():
        out = ipl_perturb(she, p)
        assign = {XBAR: p.delta, **tower_assignment(she)}
        weights = [w for c in (she.M, she.N) for row in c.weights for w in row]
        d_n, parts = symbolic_transfer(assign, tower_generators(she.index_cap - 1), she.M, she.N,
                                       max(weights) - min(weights))
        assert out.d_n_tilde.blocks == d_n.blocks
        got = tower_assignment(out.she)
        assert {z: f.blocks for z, f in got.items()} == {z: f.blocks for z, f in parts.items()}
        moved += d_n != she.N.differential_map() or any(f != assign[z] for z, f in parts.items())
    # about half the cases move a component or d_N, so not only zeros are compared
    assert moved >= 40


def _random_filtered_map(rng, src, tgt, degree, raise_by):
    """Random nonzero small entries wherever the target weight is at least
    the source weight plus ``raise_by``, and zeros elsewhere."""
    blocks = {}
    for n in src.degrees():
        sw, rows = src.weights[n - src.degree_lo], tgt.rank_at(n + degree)
        if rows and sw:
            tw = tgt.weights[n + degree - tgt.degree_lo]
            blocks[n] = IntMatrix.from_rows([[rng.choice((-1, 1, 2)) if tw[i] - sw[j] >= raise_by else 0
                                              for j in range(len(sw))] for i in range(rows)])
    return GradedMap.from_blocks(src, tgt, degree, blocks)


def _random_graded_module(rng):
    """Degrees 0 to 9 of rank 1 or 2, weights 0 to 3, zero differential."""
    ranks = [rng.randint(1, 2) for _ in range(10)]
    return build_complex(0, ranks, [[rng.randint(0, 3) for _ in range(r)] for r in ranks], {}, 3)


def test_transfer_matches_the_symbolic_retraction_on_random_maps():
    # the rule is an identity of the operads, so it holds for any maps of
    # the right degrees and filtrations; unlike the fixture towers, on which
    # every kernel above Z_-1 vanishes, these reach nonzero Z_1, Z_3 and Z_5
    reached = {}
    for seed in range(30):
        rng = random.Random(seed)
        cap = 1 + seed % 3
        M, N = _random_graded_module(rng), _random_graded_module(rng)
        assign = {XBAR: _random_filtered_map(rng, M, M, -1, 1)}
        for z in tower_generators(cap):
            assign[z] = _random_filtered_map(rng, *_hom_space(z, M, N), z.degree, 0)
        gens = tower_generators(cap - 1)
        m_new, n_new, parts = _transfer(assign, gens, N)
        d_n, want = symbolic_transfer(assign, gens, M, N, 3)
        assert n_new.differential_map().blocks == d_n.blocks, seed
        assert m_new.differential_map().blocks == assign[XBAR].blocks, seed
        for z in gens:
            assert parts[z].blocks == want[z].blocks, (seed, z.token)
        for s, kernel in enumerate(_kernels(assign, 2 * cap - 1)):
            reached[s] = reached.get(s, 0) + (not kernel.is_zero())
    # every kernel Z_1, Z_3, Z_5 the caps reach is nonzero on some seed
    assert all(reached[s] for s in (1, 2, 3)), reached


def _interval_tower(top_weight):
    """The interval complex with weight ``top_weight`` in degree 0 and 0 in
    degree 1, with F = G = 1 and H = L = 0, extended to cap 1, and the
    perturbation delta = [[1]] out of degree 1, which raises the filtration
    by the whole spread."""
    c = build_complex(0, (1, 1), ((top_weight,), (0,)), {1: [[1]]}, top_weight)
    one, zero = GradedMap.identity(c), GradedMap.zero(c, c, 1)
    tower = extend_to_she(HeData(c, c, one, one, zero, zero), 1)
    return tower, Perturbation(c, GradedMap.from_blocks(c, c, -1, {1: IntMatrix.from_rows([[1]])}))


def test_ipl_perturb_returns_at_a_weight_spread_of_2000():
    # the symbolic series recursed once per fweight band and overflowed here
    tower, p = _interval_tower(2000)
    start = time.perf_counter()
    out = ipl_perturb(tower, p)
    assert time.perf_counter() - start < 1
    assert out.d_n_tilde.block_at(1) == IntMatrix.from_rows([[2]])
    assert out.provenance.max_fweight == 2001


def test_ipl_perturb_at_cap_3_and_spread_31_takes_under_a_second():
    # the symbolic series grows polynomially in the spread: 20 s here
    s = cone_retract_sdr(2, 4, 3, max_weight=32)
    tower = extend_to_she(he_from_sdr(s), 3)
    p = weight_raising_perturbation(2, s.M)
    assert not p.delta.is_zero()
    start = time.perf_counter()
    out = ipl_perturb(tower, p)
    assert time.perf_counter() - start < 1
    assert out.provenance.max_fweight == 32
    assert validate_she(out.she) == []


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


def _forget(f: GradedMap) -> GradedMap:
    """The same blocks over zero-differential complexes, so maps over the
    perturbed and the unperturbed complexes become comparable."""
    return rebase(f, *(complex_with_differential(c, GradedMap.zero(c, c, -1))
                       for c in (f.source, f.target)))


@pytest.mark.parametrize("strategy", ["modify_h", "modify_l"])
def test_solve_pp_shifts_are_those_of_the_differences(strategy):
    for seed in range(8):
        he = he_fixture(seed)
        sol = solve_pp(he, weight_raising_perturbation(seed + 1, he.M), strategy)
        tilde = {"F": sol.f_tilde, "G": sol.g_tilde, "H": sol.h_tilde, "L": sol.l_tilde}
        assert sol.shifts == {k: filtration_shift(_forget(f) - _forget(getattr(sol.reference, k)))
                              for k, f in tilde.items()}


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
    calls, repairs = [], []
    real = validate_he
    real_repair = she_obstruction._require_valid_repair

    def counted(he):
        calls.append(he)
        return real(he)

    def repair_checked(he, repaired):
        repairs.append((he, repaired))
        return real_repair(he, repaired)

    monkeypatch.setattr(ipl_pipeline, "validate_he", counted)
    monkeypatch.setattr(she_obstruction, "validate_he", counted)
    monkeypatch.setattr(ipl_pipeline, "_require_valid_repair", repair_checked)
    # the cap-1 tower is built by the extension alone, whether or not the
    # zero padding would qualify (it does on the retract, not on he_fixture(7));
    # it checks only what it builds, so the repair is checked before it,
    # where it differs from the checked input
    s, p = sdr_fixture(2)
    he7 = he_fixture(7)
    assert trivial_extension(modify_homotopy_h(he_from_sdr(s)), 1) is not None
    assert trivial_extension(modify_homotopy_h(he7), 1) is None
    for he, p in ((he_from_sdr(s), p), (he7, weight_raising_perturbation(8, he7.M))):
        calls.clear()
        repairs.clear()
        solve_pp(he, p, "modify_h")
        assert calls == [he]
        assert [(a, b is not a) for a, b in repairs] == [(he, True)]
        # as_is decides the obstruction classes without validating again,
        # and its repair is the input itself
        calls.clear()
        repairs.clear()
        he = modify_homotopy_h(he)
        solve_pp(he, p, "as_is")
        assert calls == [he] and repairs == [(he, he)]


@pytest.mark.parametrize("field, report", [
    ("H", "d H + H d != G F - 1 on M"),
    # doubling F keeps it a chain map, but breaks both identities that read it
    ("F", "d H + H d != G F - 1 on M; d L + L d != F G - 1 on N"),
], ids=["H", "F"])
def test_solve_pp_refuses_a_repair_that_breaks_an_identity(monkeypatch, field, report):
    # a broken repair is caught before the extension, as the library's
    # failure, not the caller's
    he = he_fixture(7)

    def broken(he):
        return dataclasses.replace(he, **{field: getattr(he, field).scale(2)})

    def refuse(*args):
        raise AssertionError("the extension ran on an unchecked repair")

    monkeypatch.setitem(ipl_pipeline._REPAIRS, "modify_h", broken)
    monkeypatch.setattr(ipl_pipeline, "_extend", refuse)
    with pytest.raises(InternalConsistencyError) as refused:
        solve_pp(he, weight_raising_perturbation(8, he.M), "modify_h")
    assert str(refused.value) == "repaired homotopy equivalence fails its identities: " + report


@pytest.mark.parametrize("seed, strategy, most, towers", [
    (3, "modify_h", 19, [0]), (7, "modify_h", 18, [0]), (7, "as_is", 16, [0]),
], ids=["3-modify_h-19", "7-modify_h-18", "7-as_is-16"])
def test_solve_pp_checks_each_identity_once(monkeypatch, seed, strategy, most, towers):
    # the input is checked once, then each constructed tower once: the
    # cap-1 tower by the extension, only in the components it builds, after
    # the repair is checked where it differs from the input; the cap-0
    # output by the perturbation, through validate_she
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
    # the tower check calls sdr_bpl's _tower_rhs, the extension she_obstruction's
    spy(sdr_bpl, "_tower_rhs")
    spy(she_obstruction, "_tower_rhs")
    monkeypatch.setattr(OperadAction, "__post_init__", lambda act: seen["action"].append(act))
    solve_pp(he, p, strategy)
    assert seen["validate_he"] == [he]
    assert [s.index_cap for s in seen["validate_she"]] == towers
    assert seen["action"] == []
    assert len(seen["_tower_rhs"]) <= most


@pytest.mark.parametrize("strategy", ["modify_h", "as_is"])
def test_solve_pp_checks_the_perturbation_before_extending(monkeypatch, strategy):
    def refuse(*args):
        raise AssertionError("the tower was built before the perturbation was checked")

    for module, name in ((ipl_pipeline, "_extend"), (she_obstruction, "trivial_extension"),
                         (she_obstruction, "extend_to_she"), (she_obstruction, "_extend")):
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
