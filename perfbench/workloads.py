"""The benchmark's four workloads: seeded inputs, ops and output checks.

Each ``build_<workload>(rng, tiny)`` makes a run's whole input set from a
``random.Random`` and returns its ops; ``input_rng`` derives that
generator from the workload seed alone, so every repetition of a run
measures the same inputs.
An op is one call into the public API (or one document job on
``docs_pipeline``); its ``check`` returns a list of problems, empty when
the output is correct, and its ``canonical`` gives the bytes hashed into
the repetition's output digest.
``tiny`` shrinks every input to smoke-test size for the benchmark's tests.

The checks run outside the timed region.  Besides the library's own
validators they include arithmetic that does not go through ``exactlin``:
A x == b for every solve, and for full-rank cokernel ops the product of
the invariant factors against |det A| by fraction-free elimination.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable

# Ops call through the module objects, never through names imported here,
# so that the traced pass, which swaps the functions in pertlab's modules,
# sees every call.
from pertlab import cli_io, exactlin, fixtures, ipl_pipeline, operad_sym, sdr_bpl, she_obstruction
from pertlab.exactlin import IntMatrix
from pertlab.she_obstruction import HeData

WORKLOADS = ("docs_pipeline", "tower_extend", "snf_sparse", "identity_suite")


def input_rng(seed: int) -> random.Random:
    """The generator of the input set of workload seed ``seed``."""
    return random.Random(seed)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    canonical: Callable[[object], bytes]


def coeff_bits(obj) -> int:
    """Largest bit length of any integer inside an output object."""
    if type(obj) is int:
        return abs(obj).bit_length()
    if isinstance(obj, IntMatrix):
        return max(max(obj.entries), -min(obj.entries)).bit_length() if obj.entries else 0
    if dataclasses.is_dataclass(obj):
        return max((coeff_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)), default=0)
    if isinstance(obj, (tuple, list)):
        return max((coeff_bits(x) for x in obj), default=0)
    return 0


# ---------------------------------------------------------------------------
# docs_pipeline: parse -> library call -> serialize, as the CLI does


def _doc_job(docs: tuple[str, str], call, wrap) -> Callable[[], object]:
    def job():
        a, b = (cli_io.parse_document(t) for t in docs)
        obj = wrap(call(a, b))
        return obj, cli_io.serialize_document(obj)
    return job


def _quad(sol) -> HeData:
    # the document the CLI "pp" command writes
    return HeData(sol.m_perturbed, sol.n_perturbed, sol.f_tilde, sol.g_tilde, sol.h_tilde, sol.l_tilde)


def _doc_bytes(out) -> bytes:
    return out[1].encode()


def _check_doc(validator) -> Callable[[object], list[str]]:
    def check(out) -> list[str]:
        obj, text = out
        problems = list(validator(obj))
        if cli_io.parse_document(text) != obj:
            problems.append("parse(serialize(x)) != x")
        return problems
    return check


def build_docs_pipeline(rng: random.Random, tiny: bool = False) -> list[Op]:
    """One fixture bundle per bundle seed; the SDR side cycles through core
    ranks 2..24 with half as many cone pairs, so bpl_transfer carries a
    real share next to the two solve_pp strategies.

    Every bundle is kept.  solve_pp can raise InternalConsistencyError on
    an equivalence between two equal complexes under a nonzero
    perturbation (ipl_perturb's rebase cannot tell the perturbed big side
    from the small one); such a bundle's two solve_pp jobs count as
    failed.  Of seeds 1..40 only seed 9 draws one that fails.
    ``tests/test_perfbench.py`` reproduces the defect as a strict xfail."""
    count, sizes = (2, (1,)) if tiny else (60, range(1, 13))
    ops: list[Op] = []
    for i in range(count):
        k = sizes[i % len(sizes)]
        bundle = fixtures.fixture_generate(rng.randrange(2**31), (2 * k, k), 2)
        sdr_docs = (cli_io.serialize_document(bundle["sdr"]),
                    cli_io.serialize_document(bundle["perturbation"]))
        he_docs = (cli_io.serialize_document(bundle["he"]),
                   cli_io.serialize_document(bundle["he_perturbation"]))
        ops.append(Op("bpl", _doc_job(sdr_docs, lambda s, p: sdr_bpl.bpl_transfer(s, p), lambda s: s),
                      _check_doc(sdr_bpl.validate_sdr), _doc_bytes))
        for strategy in ("modify_h", "modify_l"):
            call = lambda he, p, st=strategy: ipl_pipeline.solve_pp(he, p, strategy=st)  # noqa: E731
            ops.append(Op(f"pp_{strategy}", _doc_job(he_docs, call, _quad),
                          _check_doc(she_obstruction.validate_he), _doc_bytes))
    return ops


# ---------------------------------------------------------------------------
# tower_extend: hom complexes and cold SNF, no operad work


def build_tower_extend(rng: random.Random, tiny: bool = False) -> list[Op]:
    """A ladder of core ranks 10..17, six retracts per rung: three spanning
    three degrees and three spanning four.  The number of degrees moves the
    cost of a retract several-fold (two degrees leave the degree-2 and -3
    hom spaces empty), so the widths are fixed per rung and the seed picks
    retracts that have them."""
    rungs = [(4, 2), (5, 3)] if tiny else [(c, w) for c in range(10, 18) for w in (3, 4) for _ in range(3)]
    ops: list[Op] = []
    for c, width in rungs:
        while True:
            s = fixtures.cone_retract_sdr(rng.randrange(2**31), c, c // 2, 4)
            if len(s.M.ranks) == width:
                break
        he = she_obstruction.he_from_sdr(s)
        ops.append(Op("extend", lambda he=he: she_obstruction.extend_to_she(he, 1),
                      she_obstruction.validate_she,
                      lambda she: cli_io.serialize_document(she).encode()))
    return ops


# ---------------------------------------------------------------------------
# snf_sparse: exactlin alone, every matrix distinct


def matvec(rows: list[list[int]], x) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in rows)


def bareiss_rank_det(rows: list[list[int]]) -> tuple[int, int]:
    """Rank and, when square of full rank, the determinant, by fraction-free
    (Bareiss) elimination with row pivoting; det is 0 when rank is short."""
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    sign, prev, rank = 1, 1, 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][col]
        for r in range(rank + 1, n_rows):
            rr, pr = m[r], m[rank]
            f = rr[col]
            for c in range(col + 1, n_cols):
                rr[c] = (p * rr[c] - f * pr[c]) // prev
            rr[col] = 0
        prev = p
        rank += 1
    det = sign * m[n_rows - 1][n_cols - 1] if rank == n_rows == n_cols else 0
    return rank, det


def _check_cokernel(rows: list[list[int]]):
    def check(inv) -> list[str]:
        rank, det = bareiss_rank_det(rows)
        problems = []
        if inv.free_rank != len(rows) - rank:
            problems.append(f"free rank {inv.free_rank}, elimination gives {len(rows) - rank}")
        if any(t < 2 for t in inv.torsion) or any(b % a for a, b in zip(inv.torsion, inv.torsion[1:])):
            problems.append("torsion is not a divisor chain of factors >= 2")
        if rank == len(rows):
            prod = 1
            for t in inv.torsion:
                prod *= t
            if prod != abs(det):
                problems.append(f"product of invariant factors {prod} != |det| {abs(det)}")
        return problems
    return check


def _check_solve(rows: list[list[int]], b: tuple[int, ...]):
    def check(x) -> list[str]:
        if x is None:
            return ["no solution returned for a consistent system"]
        return [] if matvec(rows, x) == b else ["A x != b"]
    return check


def build_snf_sparse(rng: random.Random, tiny: bool = False) -> list[Op]:
    """Distinct sparse square matrices, each size 24..30 equally often,
    entries from {-1,0,0,0,1,2}; ops alternate between cokernel invariants
    (diagonal only) and an integer solve against a right-hand side in the
    image.

    Sizes stop at 30: from 33 up, about one matrix in thirty takes seconds
    (one 36x36 took 13 s), so a seed's total would hinge on whether
    it drew one.  Coefficient growth still shows: transforms reach tens of
    thousands of bits."""
    count, lo, hi = (4, 5, 7) if tiny else (200, 24, 30)
    ops: list[Op] = []
    for i in range(count):
        n = lo + i % (hi - lo + 1)
        rows = [[rng.choice((-1, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)]
        a = IntMatrix.from_rows(rows)
        if i % 2 == 0:
            ops.append(Op("cokernel", lambda a=a: exactlin.cokernel_invariants(a), _check_cokernel(rows),
                          lambda inv: repr((inv.free_rank, inv.torsion)).encode()))
        else:
            b = matvec(rows, [rng.randint(-3, 3) for _ in range(n)])
            ops.append(Op("solve", lambda a=a, b=b: exactlin.solve_integer(a, b), _check_solve(rows, b),
                          lambda x: repr(x).encode()))
    return ops


# ---------------------------------------------------------------------------
# identity_suite: operad_sym alone


SUITE_CAPS = operad_sym.TruncationCaps(5, 5, 3, 10)


def build_identity_suite(rng: random.Random, tiny: bool = False) -> list[Op]:
    """One identity-suite verification; the suite takes no random input,
    so the seed changes nothing here."""
    caps = operad_sym.TruncationCaps(2, 3, 2, 4) if tiny else SUITE_CAPS

    def check(report) -> list[str]:
        return [] if operad_sym.all_passed(report) else [f"{c.name}: {c.detail}" for c in report if not c.passed]

    return [Op("suite", lambda: operad_sym.verify_identity_suite(caps), check,
               lambda report: repr([(c.name, c.passed, c.detail) for c in report]).encode())]


BUILDERS = {name: globals()[f"build_{name}"] for name in WORKLOADS}
