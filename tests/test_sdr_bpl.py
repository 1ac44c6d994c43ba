import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pertlab.chaincore import GradedMap, compose, filtration_shift, hom_differential
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import (
    build_complex,
    cone_retract_sdr,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.sdr_bpl import (
    Perturbation,
    SdrData,
    SideConditionError,
    bpl_transfer,
    check_side_conditions,
    geometric_kernel,
    perturbed_complex,
    validate_perturbation,
    validate_sdr,
)
from pertlab.ipl_pipeline import solve_pp
from pertlab.she_obstruction import he_from_sdr, validate_he


def lazy_retract():
    """A valid retract that violates two of the three side conditions.

    Both complexes carry zero differential, so any degree 1 self-map is a
    valid contracting homotopy for the identity equivalence.
    """
    m = build_complex(0, (2, 1), ((1, 0), (0,)), {1: [[0], [0]]}, max_weight=1)
    ident = GradedMap.identity(m)
    h = GradedMap.from_blocks(m, m, 1, {0: IntMatrix.from_rows([[0, 1]])})
    return SdrData(m, m, ident, ident, h)


def lazy_perturbation():
    m = lazy_retract().M
    delta = GradedMap.from_blocks(m, m, -1, {1: IntMatrix.from_rows([[1], [0]])})
    return Perturbation(m, delta)


def test_cone_fixtures_are_valid_with_side_conditions():
    for seed in range(10):
        s = cone_retract_sdr(seed)
        assert validate_sdr(s) == []
        assert check_side_conditions(s).all


def test_validate_sdr_catches_broken_identity():
    s = cone_retract_sdr(1)
    bad = SdrData(s.M, s.N, s.F, s.G, s.H + s.H)
    assert "d H + H d != G F - 1 on M" in validate_sdr(bad)
    bad = SdrData(s.M, s.N, s.F, s.G, GradedMap.zero(s.M, s.M, 0))
    assert validate_sdr(bad) == ["H has degree 0, expected 1"]


def test_lazy_retract_is_valid_but_fails_side_conditions():
    s = lazy_retract()
    assert validate_sdr(s) == []
    side = check_side_conditions(s)
    assert side.hh_zero and not side.hg_zero and not side.fh_zero
    assert not side.all


def test_perturbation_validation():
    p = lazy_perturbation()
    assert validate_perturbation(p) == []
    flat = Perturbation(p.base, GradedMap.from_blocks(
        p.base, p.base, -1, {1: IntMatrix.from_rows([[0], [1]])}))
    assert validate_perturbation(flat) == [
        "delta has filtration shift 0, expected >= 1"
    ]


def test_perturbed_complex_carries_new_differential():
    p = lazy_perturbation()
    c = perturbed_complex(p)
    assert c.d_block(1) == IntMatrix.from_rows([[1], [0]])
    assert c.ranks == p.base.ranks and c.weights == p.base.weights


def test_geometric_kernel_self_consistency():
    for seed in range(8):
        s, p = sdr_fixture(seed)
        k = geometric_kernel(p, s.H)
        # K is the fixed point of the recursion K = delta + delta H K
        assert k == p.delta + compose(compose(p.delta, s.H), k)


def test_geometric_kernel_rejects_flat_delta():
    s = lazy_retract()
    flat = GradedMap.from_blocks(s.M, s.M, -1, {1: IntMatrix.from_rows([[0], [1]])})
    with pytest.raises(ValueError, match="geometric series would not terminate"):
        geometric_kernel(Perturbation(s.M, flat), s.H)


def shift_of_difference(a: GradedMap, b: GradedMap) -> int:
    """Filtration shift of a - b, ignoring that they join different complexes."""
    src, tgt = a.source, a.target
    best = max(src.max_weight, tgt.max_weight) + 1
    for n in src.degrees():
        d = a.block_at(n) - b.block_at(n)
        for i in range(d.rows):
            for j in range(d.cols):
                if d.entry(i, j):
                    best = min(best, tgt.weight_at(n + a.degree, i) - src.weight_at(n, j))
    return best


def test_bpl_transfer_identities_and_perturbation_property():
    for seed in range(12):
        s, p = sdr_fixture(seed)
        out = bpl_transfer(s, p)
        assert validate_sdr(out) == []
        assert out.M == perturbed_complex(p)
        assert shift_of_difference(out.F, s.F) >= 1
        assert shift_of_difference(out.G, s.G) >= 1
        assert shift_of_difference(out.H, s.H) >= 1
        assert shift_of_difference(out.N.differential_map(),
                                   s.N.differential_map()) >= 1


def test_bpl_transfer_zero_delta_is_identity():
    s = cone_retract_sdr(2)
    p = Perturbation(s.M, GradedMap.zero(s.M, s.M, -1))
    out = bpl_transfer(s, p)
    assert (out.F, out.G, out.H) == (s.F, s.G, s.H)
    assert out.N.diffs == s.N.diffs


def test_bpl_transfer_requires_side_conditions():
    with pytest.raises(SideConditionError, match="HH=0 True, HG=0 False, FH=0 False"):
        bpl_transfer(lazy_retract(), lazy_perturbation())


def test_bpl_transfer_rejects_foreign_perturbation():
    s = cone_retract_sdr(0)
    with pytest.raises(ValueError, match="does not live on the retract's big complex"):
        bpl_transfer(s, lazy_perturbation())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_bpl_transfer_property_over_seeds(seed):
    s, p = sdr_fixture(seed)
    out = bpl_transfer(s, p)
    assert validate_sdr(out) == []
    assert check_side_conditions(s).all


def crude_perturb(he, p: Perturbation):
    """Perturb a plain homotopy equivalence, keeping only (d'_N, F', G').

    Runs the full equivalence-perturbation pipeline with its default
    homotopy repair strategy and discards the transferred homotopies.
    """
    sol = solve_pp(he, p, strategy="modify_h")
    return sol.d_n_tilde, sol.f_tilde, sol.g_tilde


def test_crude_perturb_matches_transfer_on_a_retract():
    s, p = sdr_fixture(4)
    he = he_from_sdr(s)
    assert validate_he(he) == []
    d_n, f, g = crude_perturb(he, p)
    full = bpl_transfer(s, p)
    assert d_n == full.N.differential_map()
    assert f == full.F and g == full.G
