"""The benchmark tracer on a tower extension that still solves.

``perfbench/tests`` checks the tracer on the extension of a retract, whose
right-hand sides are all zero and so lift with no solve.  Here the same
checks run on a repaired equivalence whose f_2 and g_2 are nonzero, so the
solver and the hom complex are reached, their calls counted, and every
importing module patched and restored.
"""

from pathlib import Path

from pertlab import exactlin, she_obstruction
from pertlab.fixtures import he_fixture
from pertlab.operad_sym import gen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_counts_the_solves_of_a_nonzero_tower_and_restores(monkeypatch):
    # the benchmark's modules import each other from their own directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    he = she_obstruction.modify_homotopy_h(he_fixture(7))
    original = exactlin.solve_integer
    with Tracer() as tracer:
        assert she_obstruction.solve_integer is not original
        assert she_obstruction.solve_integer is exactlin.solve_integer
        tracer.begin_op(0)
        she = she_obstruction.extend_to_she(he, 1)
        tracer.end_op()
    assert she_obstruction.solve_integer is original and exactlin.solve_integer is original
    assign = she_obstruction.tower_assignment(she)
    assert not assign[gen("f", 2)].is_zero() and not assign[gen("g", 2)].is_zero()
    m = tracer.metrics()
    assert m["she_obstruction.extend_calls"] == 1
    assert m["exactlin.solve_calls"] >= 1 and m["chaincore.hom_complex_calls"] >= 1
    extend = tracer.names.index("she_obstruction.extend")
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == [extend]
    assert all(s[4] == 0 and s[1] <= s[2] for s in tracer.spans)
    # self times never exceed the root's duration
    assert sum(v for k, v in m.items() if k.endswith("_s")) * 1e9 <= roots[0][2] - roots[0][1]
