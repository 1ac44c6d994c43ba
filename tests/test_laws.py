"""Transitivity laws of the two perturbation lemmas.

Perturbing by delta1 and then by delta2 gives what one perturbation by
delta1 + delta2 gives.  Neither side depends on a canonical choice the
other makes, so the laws hold for any correct transfer and stay valid
when canonical outputs or the order of evaluation change.
"""

from pertlab.chaincore import rebase
from pertlab.fixtures import he_fixture, sdr_fixture, weight_raising_perturbation
from pertlab.ipl_pipeline import ipl_perturb
from pertlab.sdr_bpl import Perturbation, bpl_transfer
from pertlab.she_obstruction import extend_to_she, he_from_she, modify_homotopy_h

SEEDS = range(30)


def _second(seed: int, p1: Perturbation, m_tilde):
    """delta2, drawn on the once-perturbed complex, and delta1 + delta2 on
    the original one."""
    p2 = weight_raising_perturbation(seed + 500, m_tilde)
    return p2, Perturbation(p1.base, p1.delta + rebase(p2.delta, p1.base, p1.base))


def test_bpl_transfers_compose():
    nontrivial = 0
    for seed in SEEDS:
        s, p1 = sdr_fixture(seed)
        once = bpl_transfer(s, p1)
        p2, total = _second(seed, p1, once.M)
        twice, direct = bpl_transfer(once, p2), bpl_transfer(s, total)
        assert (twice.F, twice.G, twice.H) == (direct.F, direct.G, direct.H), seed
        assert twice.N.differential_map() == direct.N.differential_map(), seed
        nontrivial += not (p1.delta.is_zero() or p2.delta.is_zero())
    assert nontrivial > 0


def test_ipl_perturbations_compose():
    nontrivial = 0
    for seed in SEEDS:
        she = extend_to_she(modify_homotopy_h(he_fixture(seed)), 2)
        p1 = weight_raising_perturbation(seed, she.M)
        once = ipl_perturb(she, p1)
        p2, total = _second(seed, p1, once.she.M)
        twice, direct = ipl_perturb(once.she, p2), ipl_perturb(she, total)
        # the cap-0 part of each: F, G, H and L, over the same complexes
        assert he_from_she(twice.she) == he_from_she(direct.she), seed
        assert twice.d_n_tilde == direct.d_n_tilde, seed
        nontrivial += not (p1.delta.is_zero() or p2.delta.is_zero())
    assert nontrivial > 0
