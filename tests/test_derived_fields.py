"""Derived fields stay out of the values they are kept on.

A complex keeps the nonzero blocks of its differential in ``_dblocks``.
The pairs it holds are not part of its value, and no output of the
library may hold a cycle through ``dataclasses.fields``: the benchmark's
``coeff_bits`` walks outputs field by field, and a map kept on its own
complex would send that walk round forever.
"""

import dataclasses

import pytest

from pertlab import chaincore
from pertlab.chaincore import _d_parts, hom_differential
from pertlab.fixtures import he_fixture, layered_she_fixture, sdr_fixture
from pertlab.ipl_pipeline import solve_pp
from pertlab.sdr_bpl import bpl_transfer
from pertlab.she_obstruction import extend_to_she, modify_homotopy_h

MAX_DEPTH = 64


def field_walk_depth(obj, depth=0):
    """The depth of the deepest value reached from ``obj`` through dataclass
    fields, tuples, lists and dict values, as ``coeff_bits`` walks (dict
    values besides); a walk past ``MAX_DEPTH`` levels is a cycle."""
    if depth > MAX_DEPTH:
        raise AssertionError(f"the field walk passed depth {MAX_DEPTH}: a cycle")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = list(obj.values())
    else:
        return depth
    return max((field_walk_depth(x, depth + 1) for x in children), default=depth)


@pytest.fixture(scope="module")
def outputs():
    """A complex, a map, a retract, its transfer, an equivalence, an
    extended tower and a solve_pp solution, with every complex's blocks
    cached first."""
    he = modify_homotopy_h(he_fixture(3))
    s, p = sdr_fixture(2)
    she = extend_to_she(he, 2)
    sol = solve_pp(*layered_she_fixture(), "modify_h")
    for c in (he.M, he.N, s.M, s.N, she.M, she.N, sol.m_perturbed, sol.n_perturbed):
        c.differential_map()
    return {"complex": he.M, "map": hom_differential(he.H), "sdr": s, "transferred sdr": bpl_transfer(s, p),
            "he": he, "tower": she, "pp solution": sol}


@pytest.mark.parametrize("name", ["complex", "map", "sdr", "transferred sdr", "he", "tower", "pp solution"])
def test_no_output_has_a_cycle_through_its_fields(outputs, name):
    assert 0 < field_walk_depth(outputs[name]) < MAX_DEPTH


def test_the_walk_refuses_a_map_kept_on_its_own_complex():
    c = dataclasses.replace(he_fixture(0).M)
    object.__setattr__(c, "_dblocks", c.differential_map())
    with pytest.raises(AssertionError, match="a cycle"):
        field_walk_depth(c)


def test_cached_blocks_are_not_part_of_the_value():
    c = dataclasses.replace(he_fixture(0).M)
    assert c._dblocks is None
    before = (hash(c), repr(c))
    blocks = c.differential_map().blocks
    assert c._dblocks is blocks
    fresh = dataclasses.replace(c)
    assert fresh._dblocks is None
    assert fresh == c and (hash(c), repr(c)) == (hash(fresh), repr(fresh)) == before
    assert "_dblocks" not in repr(c)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(c, _dblocks=())


def test_differential_blocks_are_built_once_per_complex(monkeypatch):
    c = dataclasses.replace(he_fixture(0).M)
    scans = []
    real = chaincore._nonzero_rows
    monkeypatch.setattr(chaincore, "_nonzero_rows", lambda m: scans.append(m) or real(m))
    blocks = c.differential_map().blocks
    assert len(scans) == len(c.diffs)
    assert blocks == tuple((n, d) for n, d in enumerate(c.diffs, c.degree_lo + 1) if not d.is_zero())
    assert c.differential_map().blocks is blocks
    (left,), (right,) = _d_parts(c, c, 1)
    assert left[1].blocks is right[1].blocks is blocks
    assert len(scans) == len(c.diffs)
