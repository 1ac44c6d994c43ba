"""Time the Smith elimination on the baseline matrices, one line per case.

The cases are the degree-1 hom-complex differentials Hom(M, M) of
`cone_retract_sdr(5, c, c // 2, 4)` for c = 12, 16, 20 (164x129, 266x214
and 438x350), and a seeded sparse 40x40 matrix with entries from
{-1, 0, 0, 0, 1, 2}.  (The 60x60 sparse case is left out: one cold
elimination of it takes tens of seconds.)  Each case prints its shape,
rank, the largest bit length of an entry of U or V, and the cold times of
`solve_integer` (on a consistent right-hand side, checked) and of
`cokernel_invariants`; "cold" means the elimination cache is emptied
before each timed call.  Each hom-complex case also prints the time of one
`hom_complex` build of its matrix (the `chaincore` layer's own number;
`hom_complex` keeps no cache, so every build is cold).

A last line covers the matrices a tower lift eliminates: the filtered
differentials of degree k = 2, 3 between the two sides (M and N, either
way and each to itself) of `cone_retract_sdr(5, c, c // 2, 4)` for
c = 10..17.  It prints the total time to build all of them with
`hom_complex` on the filtered basis (`_filtered_basis`), the `chaincore`
number of the tower path, and the total of their cold
`cokernel_invariants` times, each the best of five passes.

A tower-lift line covers the right-hand sides of the towers of
`he_fixture` seeds 0..39, repaired by `modify_homotopy_h` and extended to
cap 3: those of every component of index 2 and up, read on the final
tower (`fixtures._tower_lifts`, which the tests enumerate too).  A zero one lifts to the zero map with no system built, and the
`tower_extend` workload of `perfbench` meets only zero ones, so this line
is where the Smith work of a nonzero lift stays timed.  It prints how many
are zero and nonzero and the total cold `_hom_solve` time of all of them,
and checks that every lift x exists and satisfies D x = b.

    PYTHONPATH=src python3 scripts/run_snf_cases.py
"""

from __future__ import annotations

import itertools
import os
import platform
import random
import sys
import time

from pertlab import exactlin
from pertlab.chaincore import hom_complex, hom_differential
from pertlab.exactlin import IntMatrix
from pertlab.fixtures import _tower_lifts, cone_retract_sdr
from pertlab.she_obstruction import _filtered_basis, _hom_solve


def cases() -> list[tuple[str, IntMatrix, float | None]]:
    """(name, matrix, seconds its hom_complex build took, or None)."""
    out = []
    for c in (12, 16, 20):
        s = cone_retract_sdr(5, c, c // 2, 4)
        t0 = time.perf_counter()
        a = hom_complex(s.M, s.M, 1).differential_matrix
        out.append((f"hom(M,M)_1 c={c}", a, time.perf_counter() - t0))
    rng = random.Random(0)
    out.append(("sparse seed 0", IntMatrix(40, 40, tuple(rng.choice((-1, 0, 0, 0, 1, 2)) for _ in range(1600))), None))
    return out


def cold(fn, *args) -> tuple[object, float]:
    exactlin._eliminate.cache_clear()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def filtered_cases() -> list[tuple]:
    """The (source, target, k) of every filtered differential a tower lift eliminates."""
    out = []
    for c in range(10, 18):
        s = cone_retract_sdr(5, c, c // 2, 4)
        for (src, tgt), k in itertools.product(itertools.product((s.M, s.N), repeat=2), (2, 3)):
            out.append((src, tgt, k))
    return out


def build_s(args: list[tuple]) -> float:
    """Seconds to build the filtered differential of every (source, target, k) in ``args``."""
    t0 = time.perf_counter()
    for src, tgt, k in args:
        hom_complex(src, tgt, k, _filtered_basis(src, tgt, k))
    return time.perf_counter() - t0


def main() -> int:
    print(f"python={platform.python_version()} nproc={os.cpu_count()}")
    print(f"{'case':20s} {'shape':>8s} {'rank':>5s} {'bits':>7s} {'hom_s':>7s} {'solve_s':>8s} {'cokernel_s':>10s}")
    ok = True
    rng = random.Random(1)
    for name, a, t_hom in cases():
        b = a.apply(tuple(rng.randint(-3, 3) for _ in range(a.cols)))
        x, t_solve = cold(exactlin.solve_integer, a, b)
        ok = ok and x is not None and a.apply(x) == b
        _, t_coker = cold(exactlin.cokernel_invariants, a)
        dec = exactlin.smith_normal_form(a)
        bits = max(abs(e).bit_length() for e in dec.U.entries + dec.V.entries)
        hom = "-" if t_hom is None else f"{t_hom:.3f}"
        print(f"{name:20s} {a.rows:>3d}x{a.cols:<4d} {dec.rank:5d} {bits:7d} {hom:>7s} {t_solve:8.3f} {t_coker:10.3f}")
    args = filtered_cases()
    mats = [hom_complex(src, tgt, k, _filtered_basis(src, tgt, k)).differential_matrix for src, tgt, k in args]
    build = min(build_s(args) for _ in range(5))
    total = min(sum(cold(exactlin.cokernel_invariants, a)[1] for a in mats) for _ in range(5))
    nonzeros = sum(map(bool, itertools.chain.from_iterable(a.entries for a in mats)))
    cells = sum(len(a.entries) for a in mats)
    print(f"filtered D_k, k=2,3, c=10..17: {len(mats)} matrices, up to {max(a.rows for a in mats)}"
          f"x{max(a.cols for a in mats)}, {nonzeros} of {cells} entries nonzero, "
          f"build_s total {build:.4f}, cold cokernel_s total {total:.3f}")
    lifts = _tower_lifts()
    t_lift = 0.0
    for src, tgt, k, rhs in lifts:
        x, t = cold(_hom_solve, src, tgt, k, rhs)
        t_lift += t
        ok = ok and x is not None and hom_differential(x) == rhs
    nonzero = sum(not rhs.is_zero() for *_, rhs in lifts)
    print(f"tower lifts, he_fixture 0..39 cap 3: {len(lifts) - nonzero} zero and {nonzero} nonzero "
          f"right-hand sides, cold solve_s total {t_lift:.4f}")
    print("solutions verified" if ok else "A x != b on some case")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
