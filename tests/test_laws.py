"""Laws of the transfer that hold whatever the canonical choices.

Transitivity: perturbing by delta1 and then by delta2 gives what one
perturbation by delta1 + delta2 gives, for both perturbation lemmas.
Naturality: conjugating a tower and its perturbation by filtered
automorphisms of the two complexes commutes with the ideal perturbation
lemma.  Prefixes: a lower-cap extension agrees with a higher-cap one
below its top pair, and differs there by a cycle.  Neither side of a law
depends on a canonical choice the other makes, so the laws hold for any
correct transfer and stay valid when canonical outputs or the order of
evaluation change.

Hypothesis draws the fixture seeds and the seeds of the perturbations
and automorphisms.  Most draws are trivial in some way (a zero
perturbation, nothing moved), so each law also runs, as explicit
examples, draws known to exercise what it is about, and asserts on them
that they do.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pertlab.chaincore import complex_with_differential, compose, hom_differential, rebase
from pertlab.fixtures import _unitriangular_automorphism, he_fixture, sdr_fixture, weight_raising_perturbation
from pertlab.ipl_pipeline import ipl_perturb
from pertlab.sdr_bpl import Perturbation, _hom_space, bpl_transfer
from pertlab.she_obstruction import (extend_to_she, he_from_she, modify_homotopy_h, she_from_assignment,
                                     tower_assignment)

SEEDS = st.integers(0, 2**32 - 1)


def _law(cases, *strategies):
    """Draw the law's arguments from ``strategies``, and run ``cases``, the
    draws known to be non-trivial, every time."""
    def wrap(test):
        for case in cases:
            test = example(*case)(test)
        return settings(max_examples=200, deadline=None)(given(*strategies)(test))
    return wrap


def _second(seed: int, p1: Perturbation, m_tilde):
    """delta2, drawn on the once-perturbed complex, and delta1 + delta2 on
    the original one."""
    p2 = weight_raising_perturbation(seed, m_tilde)
    return p2, Perturbation(p1.base, p1.delta + rebase(p2.delta, p1.base, p1.base))


# among sdr_fixture seeds 0-199, only 50, 63, 68 and 110 move d_N
_MOVES_D_N = ((50, 550), (63, 563), (68, 570), (110, 610))


@_law(_MOVES_D_N, SEEDS, SEEDS)
def test_bpl_transfers_compose(seed, second):
    s, p1 = sdr_fixture(seed)
    once = bpl_transfer(s, p1)
    p2, total = _second(second, p1, once.M)
    twice, direct = bpl_transfer(once, p2), bpl_transfer(s, total)
    assert (twice.F, twice.G, twice.H) == (direct.F, direct.G, direct.H)
    assert twice.N.differential_map() == direct.N.differential_map()
    if (seed, second) in _MOVES_D_N:
        assert not (p1.delta.is_zero() or p2.delta.is_zero())
        assert once.N.differential_map() != s.N.differential_map()


# he_fixture seeds whose two perturbations are both nonzero
_BOTH_NONZERO = ((1, 501), (4, 504), (7, 507), (29, 529))


@_law(_BOTH_NONZERO, SEEDS, SEEDS)
def test_ipl_perturbations_compose(seed, second):
    she = extend_to_she(modify_homotopy_h(he_fixture(seed)), 2)
    p1 = weight_raising_perturbation(seed, she.M)
    once = ipl_perturb(she, p1)
    p2, total = _second(second, p1, once.she.M)
    twice, direct = ipl_perturb(once.she, p2), ipl_perturb(she, total)
    # the cap-0 part of each: F, G, H and L, over the same complexes
    assert he_from_she(twice.she) == he_from_she(direct.she)
    assert twice.d_n_tilde == direct.d_n_tilde
    if (seed, second) in _BOTH_NONZERO:
        assert not (p1.delta.is_zero() or p2.delta.is_zero())


def _conjugated(she, autos):
    """The tower t f s^-1 for the automorphisms s, t of each component's
    ends, over M and N with their differentials conjugated; ``autos`` are
    (u, u^-1) for M and for N, moved onto the tower's complexes."""
    ends = []
    for c, (u, u_inv) in zip((she.M, she.N), autos):
        u, u_inv = rebase(u, c, c), rebase(u_inv, c, c)
        ends.append((u, u_inv, complex_with_differential(c, compose(u, compose(c.differential_map(), u_inv)))))
    assign = {}
    for z, f in tower_assignment(she).items():
        (_, s_inv, src), (t, _, tgt) = _hom_space(z, *ends)
        assign[z] = rebase(compose(t, compose(f, s_inv)), src, tgt)
    return she_from_assignment(ends[0][2], ends[1][2], she.index_cap, assign)


# he_fixture seeds, perturbation seeds and automorphism seeds where delta
# moves a component of the tower and the conjugation moves the tower; on
# seed 23 the kernel Z_-1 also has a nonzero summand past delta
_MOVED = ((1, 1, 1001), (4, 4, 1004), (9, 9, 1009), (16, 16, 1016), (23, 23, 1023))


@_law(_MOVED, SEEDS, SEEDS, SEEDS)
def test_ipl_perturbation_commutes_with_conjugation(seed, perturbation, automorphisms):
    she = extend_to_she(modify_homotopy_h(he_fixture(seed)), 1)
    p = weight_raising_perturbation(perturbation, she.M)
    rng = random.Random(automorphisms)
    autos = [_unitriangular_automorphism(rng, c) for c in (she.M, she.N)]
    moved = _conjugated(she, autos)
    u, u_inv = (rebase(a, moved.M, moved.M) for a in autos[0])
    out = ipl_perturb(she, p)
    delta = compose(u, compose(rebase(p.delta, moved.M, moved.M), u_inv))
    got = ipl_perturb(moved, Perturbation(moved.M, delta))
    want = _conjugated(out.she, autos)
    assert got.she == want
    assert got.d_n_tilde == want.N.differential_map()
    if (seed, perturbation, automorphisms) in _MOVED:
        before, after = he_from_she(she), he_from_she(out.she)
        assert not p.delta.is_zero() and moved != she
        assert any(rebase(getattr(after, k), getattr(before, k).source, getattr(before, k).target)
                   != getattr(before, k) for k in "FGHL")


# a cap-c tower has components up to index 2c + 1; the joint step at
# index 2c + 2 of a higher-cap extension may correct its top pair, and only
# by a cycle.  Of seeds 0-199 only 103 and 164 have such a correction (of
# f3, at index 4)
_TOP_CORRECTED = ((103,), (164,))


@_law(_TOP_CORRECTED, SEEDS)
def test_lower_cap_extensions_are_prefixes_up_to_a_cycle_at_the_top(seed):
    he = modify_homotopy_h(he_fixture(seed))
    towers = {c: tower_assignment(extend_to_she(he, c)) for c in (1, 2, 3)}
    differ = 0
    for c, higher in ((1, 2), (1, 3), (2, 3)):
        for z, f in towers[c].items():
            if z.index < 2 * c + 1:
                assert f == towers[higher][z], (c, higher, z.token)
            else:
                assert hom_differential(f - towers[higher][z]).is_zero(), (c, higher, z.token)
                differ += f != towers[higher][z]
    if (seed,) in _TOP_CORRECTED:
        assert differ > 0
