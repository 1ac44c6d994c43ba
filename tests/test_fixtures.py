import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab import fixtures
from pertlab.chaincore import GradedMap, complex_with_differential, compose, filtration_shift, rebase, validate_complex
from pertlab.cli import main
from pertlab.cli_io import serialize_bundle, serialize_document
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import (
    build_complex,
    cone_retract_sdr,
    fixture_generate,
    he_fixture,
    interval_complex,
    layered_she_fixture,
    obstructed_he_fixture,
    recalibration_he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
    zero_complex,
)
from pertlab.sdr_bpl import (InternalConsistencyError, _hom_space, check_side_conditions, tower_generators,
                             validate_perturbation, validate_sdr)
from pertlab.she_obstruction import obstruction_cycles, validate_he


def test_same_seed_same_fixture():
    for seed in (0, 1, 17, 4096):
        assert sdr_fixture(seed) == sdr_fixture(seed)
        assert he_fixture(seed) == he_fixture(seed)
    assert sdr_fixture(0) != sdr_fixture(1)


def test_cone_retract_sdr_is_a_deformation_retract():
    for seed in range(6):
        s = cone_retract_sdr(seed)
        assert validate_sdr(s) == []
        assert check_side_conditions(s).all
        # F G = 1 on the small side holds on the nose, not just up to homotopy
        assert compose(s.F, s.G) == GradedMap.identity(s.N)


def test_fixture_self_check_is_not_an_assert(monkeypatch, capsys):
    # an assert would vanish under python -O, together with the check it makes
    def validate_sdr(s):
        return ["F G != 1 on N"]

    monkeypatch.setattr(fixtures, "validate_sdr", validate_sdr)
    with pytest.raises(InternalConsistencyError, match=r"^fixture fails validate_sdr: F G != 1 on N$"):
        cone_retract_sdr(1)
    assert main(["fixture", "--seed", "0"]) == 5
    assert "InternalConsistencyError" in capsys.readouterr().err


def test_sdr_fixture_perturbation_is_admissible():
    for seed in range(8):
        s, p = sdr_fixture(seed)
        assert p.base == s.M
        assert validate_perturbation(p) == []
        assert filtration_shift(p.delta) >= 1


def test_weight_raising_perturbation_respects_filtration():
    s, _ = sdr_fixture(3)
    for seed in range(5):
        p = weight_raising_perturbation(seed, s.M)
        assert validate_perturbation(p) == []


def test_he_fixture_population_has_visible_obstruction_cycles():
    # the interesting seeds carry a nonzero obstruction cycle whose class
    # still vanishes; a population where every cycle is zero would make the
    # witness checks vacuous
    nonzero = 0
    for seed in range(10):
        he = he_fixture(seed)
        assert validate_he(he) == []
        pair = obstruction_cycles(he)
        assert pair.class_m_vanishes and pair.class_n_vanishes
        if not pair.cycle_m.is_zero():
            nonzero += 1
    assert nonzero >= 1


def test_obstructed_fixture_shape():
    he = obstructed_he_fixture()
    assert all(m.is_zero() for m in he.M.diffs)
    assert he.H.is_zero()
    assert not he.L.is_zero()
    pair = obstruction_cycles(he)
    assert not (pair.class_m_vanishes or pair.class_n_vanishes)


def test_recalibration_fixture_has_nonsquare_zero_homotopy():
    he = recalibration_he_fixture()
    assert not compose(he.H, he.H).is_zero()


def test_layered_fixture_threads_the_homotopy():
    he, p = layered_she_fixture()
    assert p.base == he.M
    assert not compose(he.H, compose(p.delta, he.H)).is_zero()


def test_fixture_generate_zero_ranks():
    docs = fixture_generate(0, ranks=(0, 0))
    assert docs["sdr"].M.total_rank() == 0
    assert validate_sdr(docs["sdr"]) == []
    assert validate_perturbation(docs["perturbation"]) == []
    assert validate_he(docs["he"]) == []
    serialize_bundle(docs)


def test_fixture_generate_deltas_compose_with_their_documents():
    docs = fixture_generate(2)
    assert docs["perturbation"].base == docs["sdr"].M
    assert docs["he_perturbation"].base == docs["he"].M
    assert validate_perturbation(docs["he_perturbation"]) == []


def test_fixture_generate_respects_filtration_cap():
    docs = fixture_generate(5, ranks=(2, 2), filtration=3)
    assert docs["sdr"].M.max_weight == 3
    assert validate_sdr(docs["sdr"]) == []


def test_small_complex_builders():
    z = zero_complex(2)
    assert z.total_rank() == 0 and z.max_weight == 2
    i = interval_complex()
    assert validate_complex(i) == []
    assert i.total_rank() == 2 and i.d_block(1).to_rows() == [[1]]


def test_build_complex_infers_top_degree():
    c = build_complex(0, (1, 2), ((0,), (0, 1)), {1: [[1, 0]]}, 1)
    assert (c.degree_lo, c.degree_hi) == (0, 1)
    assert validate_complex(c) == []
    with pytest.raises(ValueError):
        build_complex(0, (1,), ((0,), (0,)), {}, 0)
    with pytest.raises(ValueError, match="^differential rows at degree 1 do not match the ranks$"):
        build_complex(0, (1, 1), ((0,), (0,)), {1: [[1, 2]]}, 0)


def test_fixtures_are_pinned_by_digest():
    # a sha256 over serialized fixtures of seeds 0-39: cone_retract_sdr at
    # the tower_extend benchmark's shapes, a weight-raising perturbation of
    # the largest, he_fixture and fixture_generate; any change to a draw,
    # an inverse or a conjugation moves it
    digest = hashlib.sha256()
    for seed in range(40):
        for c in range(10, 18):
            s = cone_retract_sdr(seed, c, c // 2, 4)
            digest.update(serialize_document(s).encode())
        digest.update(serialize_document(weight_raising_perturbation(seed, s.M)).encode())
        digest.update(serialize_document(he_fixture(seed)).encode())
        digest.update(serialize_bundle(fixture_generate(seed)).encode())
    assert digest.hexdigest() == "100afa3abb5e209ecdb77a816f260d1b281dab6a21648d178e59476008bacf41"


def power_series_inverse(nu):
    """(1 + nu)^-1 = 1 - nu + nu^2 - ... for a nilpotent square nu, which
    has nu^r = 0 at size r."""
    inv, power = IntMatrix.identity(nu.rows), nu
    for k in range(1, nu.rows + 1):
        inv, power = inv + power.scale((-1) ** k), power @ nu
    assert power.is_zero()
    return inv


@st.composite
def weighted_triangular(draw):
    """Weights of one basis and a nu strictly upper triangular in
    ``_weight_order``: ties in weight included, as in the automorphisms."""
    r = draw(st.integers(0, 7))
    weights = draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
    order = fixtures._weight_order(weights)
    rows = [[0] * r for _ in range(r)]
    for a in range(r):
        for b in range(a + 1, r):
            rows[order[a]][order[b]] = draw(st.sampled_from((0, 0, -2, -1, 1, 2, 2**40)))
    return weights, IntMatrix(r, r, tuple(x for row in rows for x in row))


@settings(max_examples=200)
@given(weighted_triangular())
def test_unipotent_inverse_equals_the_power_series(case):
    weights, nu = case
    inv = fixtures._unipotent_inverse(nu, weights)
    assert inv == power_series_inverse(nu)
    u, one = IntMatrix.identity(nu.rows) + nu, IntMatrix.identity(nu.rows)
    assert u @ inv == one and inv @ u == one


@pytest.mark.parametrize("weights, rows", [
    ((0, 1), [[0, 1], [0, 0]]),  # lowers the weight: the heavier basis vector comes first
    ((0, 0), [[0, 0], [1, 0]]),  # nilpotent, but below the diagonal in the tie order
    ((2,), [[1]]),  # on the diagonal
])
def test_unipotent_inverse_refuses_an_entry_below_the_weight_order(weights, rows):
    # each case has one nonzero, the entry the refusal names
    (i, j), = [(i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    with pytest.raises(AssertionError) as refused:
        fixtures._unipotent_inverse(IntMatrix.from_rows(rows), weights)
    assert str(refused.value) == (f"nu[{i}][{j}] is on or below the diagonal in the weight order, "
                                  "so 1 + nu is not unitriangular")


# --- the automorphisms and the conjugation against the graded-map forms ------


def reference_automorphism(rng, c):
    """u = 1 + (strictly upper in the weight order) from dense rows, drawn
    as ``_unitriangular_automorphism`` draws, and u^-1 as a power series."""
    blocks, inverse_blocks = {}, {}
    for n in c.degrees():
        r = c.rank_at(n)
        if r == 0:
            continue
        order = fixtures._weight_order(c.weights[n - c.degree_lo])
        rows = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        for a in range(r):
            for b in range(a + 1, r):
                if rng.random() < 0.5:
                    rows[order[a]][order[b]] = rng.choice((-2, -1, 1, 2))
        blocks[n] = IntMatrix.from_rows(rows)
        inverse_blocks[n] = power_series_inverse(blocks[n] - IntMatrix.identity(r))
    return GradedMap.from_blocks(c, c, 0, blocks), GradedMap.from_blocks(c, c, 0, inverse_blocks)


def reference_conjugated(rng, M, N, maps):
    """``_conjugated`` by composites of graded maps: u d u^-1 on M and on N,
    and t f s^-1 for each map, rebased onto the conjugated complexes."""
    ends = []
    for c in (M, N):
        u, u_inv = reference_automorphism(rng, c)
        ends.append((u, u_inv, complex_with_differential(c, compose(u, compose(c.differential_map(), u_inv)))))
    out = [end[2] for end in ends]
    for z, f in zip(tower_generators(0), maps):
        (_, s_inv, src), (t, _, tgt) = _hom_space(z, *ends)
        out.append(rebase(compose(t, compose(f, s_inv)), src, tgt))
    return out


@st.composite
def filtered_complexes(draw):
    """A complex with a random matched differential: up to four degrees,
    zero ranks included, and few weights, so that ties are common."""
    width = draw(st.integers(1, 4))
    degree_lo = draw(st.integers(-1, 1))
    ranks = draw(st.lists(st.integers(0, 5), min_size=width, max_size=width))
    weights = [draw(st.lists(st.integers(0, 2), min_size=r, max_size=r)) for r in ranks]
    diffs = fixtures._random_matched_differential(random.Random(draw(st.integers(0, 2**16))), degree_lo, ranks, weights)
    return build_complex(degree_lo, ranks, weights, diffs, 2)


@settings(max_examples=150, deadline=None)
@given(filtered_complexes(), filtered_complexes(), st.booleans(), st.integers(0, 2**32), st.integers(1, 4))
def test_conjugation_equals_the_graded_map_reference(M, N, same, seed, count):
    # equal complexes with different automorphisms, as in he_fixture's cores
    N = M if same else N
    rng = random.Random(seed)
    for c in (M, N):
        got_rng, ref_rng = random.Random(seed), random.Random(seed)
        u, u_inv = fixtures._unitriangular_automorphism(got_rng, c)
        assert (u, u_inv) == reference_automorphism(ref_rng, c)
        assert got_rng.getstate() == ref_rng.getstate()
        for n in c.degrees():
            one = IntMatrix.identity(c.rank_at(n))
            assert u.block_at(n) @ u_inv.block_at(n) == one and u_inv.block_at(n) @ u.block_at(n) == one
    # arbitrary maps of the ends and degrees of f_0, g_0, f_1, g_1
    maps = [fixtures._random_filtered_map(rng, *_hom_space(z, M, N), z.degree, 0)
            for z in tower_generators(0)[:count]]
    state = rng.getstate()
    got = fixtures._conjugated(rng, M, N, maps)
    ref_rng = random.Random()
    ref_rng.setstate(state)
    assert got == reference_conjugated(ref_rng, M, N, maps)
    # the same draws, so whatever is drawn next is the same too
    assert rng.getstate() == ref_rng.getstate()
