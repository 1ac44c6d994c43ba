"""End-to-end acceptance checks, one criterion per test.

Every check is exact: integer equality of matrices, byte equality of
rendered text, or literal truth of a validator verdict.  There are no
tolerances anywhere.  Each test prints a single summary line

    ACCEPTANCE <n> PASS|FAIL <description>

so a plain ``pytest tests/test_acceptance.py -s`` doubles as the
acceptance report.  The summary lines hold no measured quantities, so two
runs of the same code print them byte for byte; the timed criteria print
their elapsed seconds on a separate ``TIMING <n> <seconds>s`` line.
"""

from __future__ import annotations

import pathlib
import time
from functools import lru_cache

import pytest

from pertlab.chaincore import GradedMap, hom_differential
from pertlab.exactlin import AbelianGroupInvariants, IntMatrix, homology_at
from pertlab.fixtures import (
    build_complex,
    he_fixture,
    obstructed_he_fixture,
    sdr_fixture,
    weight_raising_perturbation,
)
from pertlab.ipl_pipeline import ipl_perturb, solve_pp
from pertlab.operad_sym import (
    TruncationCaps,
    bounded_boundary_search,
    diff,
    gen,
    kernel_Z,
    parse_element,
    render_element,
    render_generator_diff,
    render_retraction_line,
    verify_identity_suite,
)
from pertlab.sdr_bpl import bpl_transfer, perturbed_complex, validate_sdr
from pertlab.she_obstruction import (
    HeData,
    ObstructionError,
    extend_to_she,
    he_from_sdr,
    modification_witnesses,
    modify_homotopy_h,
    modify_homotopy_l,
    obstruction_cycles,
    trivial_extension,
    validate_he,
    validate_she,
)

from tests.test_sdr_bpl import shift_of_difference

GOLDENS = pathlib.Path(__file__).parent / "goldens"


def _criterion(n: int, desc: str, check) -> None:
    ok, detail = False, ""
    try:
        detail = check() or ""
        ok = True
    finally:
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'} {desc}{detail}")


@lru_cache(maxsize=1)
def transfer_family():
    """The shared fixture family for the transfer criteria: 100 seeded
    retracts, each with an admissible random perturbation."""
    return tuple(sdr_fixture(seed) for seed in range(100))


def test_acceptance_1_operad_identity_suite():
    def check():
        caps = TruncationCaps(max_index=4, max_length=5, max_fweight=3, max_degree=8)
        t0 = time.monotonic()
        checks = verify_identity_suite(caps)
        dt = time.monotonic() - t0
        print(f"TIMING 1 {dt:.2f}s")
        assert len(checks) == 10
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
        assert dt < 60.0
        return f" ({len(checks)} checks)"

    _criterion(1, "identity suite exact at caps (4,5,3,8)", check)


def test_acceptance_2_rendered_tables_match_goldens():
    def check():
        plain = "".join(
            render_generator_diff(gen(fam, i)) + "\n"
            for i in (2, 3, 4) for fam in ("f", "g")
        )
        extended = "".join(
            render_generator_diff(z) + "\n"
            for z in [gen("xb"), gen("yb")]
            + [gen(fam, i) for i in (0, 1, 2) for fam in ("fb", "gb")]
        )
        caps = TruncationCaps(max_index=4, max_length=5, max_fweight=4, max_degree=8)
        kernels = "".join(
            f"Z{r} = " + render_element(kernel_Z(r, caps)) + "\n" for r in (-1, 1, 3)
        )
        retraction = "".join(
            render_retraction_line(z) + "\n"
            for z in [gen("yb")] + [gen(fam, i) for i in range(4) for fam in ("fb", "gb")]
        )
        expected = {
            "diff_riso.txt": plain,
            "diff_riso_tilde.txt": extended,
            "kernels.txt": kernels,
            "retraction.txt": retraction,
        }
        for name, text in expected.items():
            assert (GOLDENS / name).read_bytes() == text.encode("ascii"), name
        return f" ({len(expected)} files)"

    _criterion(2, "rendered tables byte-match the goldens", check)


def test_acceptance_3_transfer_on_seeded_fixtures():
    def check():
        t0 = time.monotonic()
        for s, p in transfer_family():
            out = bpl_transfer(s, p)
            assert validate_sdr(out) == []
            assert out.M == perturbed_complex(p)
            assert shift_of_difference(
                out.N.differential_map(), s.N.differential_map()) >= 1
            assert shift_of_difference(out.F, s.F) >= 1
            assert shift_of_difference(out.G, s.G) >= 1
            assert shift_of_difference(out.H, s.H) >= 1
        dt = time.monotonic() - t0
        print(f"TIMING 3 {dt:.2f}s")
        assert dt < 30.0
        return " (100 fixtures)"

    _criterion(3, "transferred retract identities exact, outputs shift >= 1", check)


def test_acceptance_4_operadic_transfer_equals_direct_transfer():
    def check():
        for s, p in transfer_family():
            tower = trivial_extension(he_from_sdr(s), 1)
            assert tower is not None
            out = ipl_perturb(tower, p)
            direct = bpl_transfer(s, p)
            assert out.d_n_tilde == direct.N.differential_map()
            assert out.she.F_even[0] == direct.F
            assert out.she.G_even[0] == direct.G
            assert out.she.H_odd[0] == direct.H
            assert out.she.L_odd[0].is_zero()
        return " (100 fixtures, matrix for matrix)"

    _criterion(4, "operadic perturbation reproduces the direct transfer", check)


def test_acceptance_5_obstruction_detection_and_witnesses():
    def check():
        flat = obstructed_he_fixture()
        pair = obstruction_cycles(flat)
        assert not pair.class_m_vanishes and not pair.class_n_vanishes
        assert pair.class_m_vanishes == pair.class_n_vanishes
        repaired = modify_homotopy_h(flat)
        after = obstruction_cycles(repaired)
        assert after.cycle_m.is_zero() and after.cycle_n.is_zero()

        nonzero = 0
        for seed in range(20):
            he = he_fixture(seed)
            if not obstruction_cycles(he).cycle_m.is_zero():
                nonzero += 1
            for which in ("h", "l"):
                _, wit = modification_witnesses(he, which)
                assert wit.witness_m is not None and wit.witness_n is not None
                assert hom_differential(wit.witness_m) == wit.cycle_m
                assert hom_differential(wit.witness_n) == wit.cycle_n
        assert nonzero >= 1
        return f" (40 witness pairs, {nonzero}/20 fixtures with nonzero cycles)"

    _criterion(5, "flat fixture obstructed; repair zeroes cycles; witnesses verify", check)


def test_acceptance_6_extension_at_cap_three():
    def check():
        for seed in range(20):
            he = he_fixture(seed)
            pair = obstruction_cycles(he)
            assert pair.class_m_vanishes and pair.class_n_vanishes
            tower = extend_to_she(he, 3)
            assert validate_she(tower) == []
        flat = obstructed_he_fixture()
        with pytest.raises(ObstructionError, match="extension obstructed"):
            extend_to_she(flat, 1)
        zero = GradedMap.zero(flat.M, flat.M, -1)
        from pertlab.sdr_bpl import Perturbation

        with pytest.raises(ObstructionError, match="extension obstructed"):
            solve_pp(flat, Perturbation(flat.M, zero), "as_is")
        return " (20 towers at cap 3)"

    _criterion(6, "towers extend where classes vanish; obstructed input refused", check)


def test_acceptance_7_perturbed_quadruples_track_repaired_reference():
    def check():
        references = {"modify_h": modify_homotopy_h, "modify_l": modify_homotopy_l}
        for seed in range(50):
            he = he_fixture(seed)
            p = weight_raising_perturbation(seed + 1, he.M)
            for strategy, repair in references.items():
                sol = solve_pp(he, p, strategy)
                ref = repair(he)
                assert sol.reference == ref
                quad = HeData(sol.m_perturbed, sol.n_perturbed,
                              sol.f_tilde, sol.g_tilde, sol.h_tilde, sol.l_tilde)
                assert validate_he(quad) == []
                assert sol.m_perturbed == perturbed_complex(p)
                assert shift_of_difference(sol.f_tilde, ref.F) >= 1
                assert shift_of_difference(sol.g_tilde, ref.G) >= 1
                assert shift_of_difference(sol.h_tilde, ref.H) >= 1
                assert shift_of_difference(sol.l_tilde, ref.L) >= 1
        return " (50 fixtures, both repairs)"

    _criterion(7, "perturbed quadruples exact, shift >= 1 from the repaired reference", check)


def test_acceptance_8_bounded_negative_certificates():
    def check():
        fake = parse_element("f0 f1 - g1 f0", "rfake")
        assert diff(fake).is_zero()
        assert bounded_boundary_search(
            fake, TruncationCaps(max_index=1, max_length=4, max_fweight=0, max_degree=8)
        ) is None

        crossing = parse_element(
            "f0 xb f1 g0 - f0 xb g0 g1 + f0 f1 xb g0 - g1 f0 xb g0", "dif_rfake"
        )
        assert bounded_boundary_search(crossing, TruncationCaps(), modulo_fweight=1) is None
        return " (length <= 4, then default caps modulo higher fweight)"

    _criterion(8, "neither candidate cycle bounds within its search window", check)


def test_acceptance_9_truncated_power_complex_is_acyclic_inside():
    def check():
        # degree -k carries the k-th power of the dot generator; the
        # boundary coefficients are read off the symbolic engine, not typed in
        def power_coeff(k: int) -> int:
            if k == 0:
                return 0
            e = parse_element(" ".join(["xb"] * k), "dif")
            [(target, _)] = parse_element(" ".join(["xb"] * (k + 1)), "dif").terms
            return diff(e).coefficient(target)

        lo, hi = -8, 0
        diffs = {n: [[power_coeff(-n)]] for n in range(lo + 1, hi + 1)}
        c = build_complex(lo, (1,) * (hi - lo + 1), ((0,),) * (hi - lo + 1), diffs, 0)
        assert all(c.d_block(n) @ c.d_block(n + 1) == IntMatrix.zeros(1, 1)
                   for n in range(lo + 1, hi))
        for n in range(-6, 0):
            h = homology_at(d_in=c.d_block(n + 1), d_out=c.d_block(n))
            assert h == AbelianGroupInvariants(0, ()), (n, str(h))
        return " (degrees -1..-6 trivial)"

    _criterion(9, "truncated power complex has no inner homology", check)
