"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object with the repetition's figures.
The process builds the seed's inputs, runs every op in a closed loop with
one caller (the next op starts when the previous one returns), checks each
output outside the timed region, and reports op latencies (wall clock and
process CPU time), set-up time, peak RSS, the largest output coefficient,
the output digest and the machine's speed sampled between ops.  With
``--trace 1`` the calls into pertlab are traced and the per-layer figures
are added; the spans go to the file named by ``--spans``.

    python3 perfbench/worker.py --workload snf_sparse --seed 1 --trace 0 \\
        --t0-ns <time.monotonic_ns() of the parent just before the spawn>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The speed probe: a fixed pure-Python task that never calls pertlab
# (integer elimination on a fixed 14x14 matrix, then dict and tuple churn,
# the kind of work pertlab's operations do).  It runs after set-up and
# after each op, outside the timed region, for about REF_SHARE of the time
# just measured, so its mean duration is the machine's speed averaged over
# the repetition.  run.py rescales the repetition's times by it.
REF_SHARE = 0.1
_rng = random.Random(5)
REF_ROWS = [[_rng.choice((-1, 0, 0, 1, 2)) for _ in range(14)] for _ in range(14)]


def reference_task() -> None:
    m = [list(r) for r in REF_ROWS]
    prev = 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, len(m)) if m[r][k]), None)
            if swap is None:
                continue
            m[k], m[swap] = m[swap], m[k]
        p = m[k][k]
        for r in range(k + 1, len(m)):
            f = m[r][k]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], m[k])]
        prev = p
    d: dict[tuple[int, ...], int] = {}
    for i in range(1500):
        key = (i % 37, i % 11, i)
        d[key] = d.get(key[:2], 0) + i
    sorted(d)


class SpeedProbe:
    """Runs the reference task and keeps the count and total of its runs."""

    def __init__(self) -> None:
        self.ns = 0
        self.count = 0

    def sample(self, busy_ns: int) -> None:
        """Run the reference task at least once and for REF_SHARE of ``busy_ns``."""
        spent = 0
        while True:
            start = time.perf_counter_ns()
            reference_task()
            spent += time.perf_counter_ns() - start
            self.count += 1
            if spent >= REF_SHARE * busy_ns:
                break
        self.ns += spent


def import_pertlab() -> None:
    """Import pertlab from this checkout's source tree, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import pertlab

    if Path(pertlab.__file__).resolve().parent != SRC / "pertlab":
        raise ImportError(f"pertlab imported from {pertlab.__file__}, not from {SRC}")


def run_ops(ops, tracer=None, probe: SpeedProbe | None = None) -> dict:
    """Run every op once and check it; return latencies and outcomes."""
    from workloads import coeff_bits

    latencies_ns: list[int] = []
    cpu_ns = 0
    failures: list[str] = []
    digest = hashlib.sha256()
    bits = 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        cpu_start = time.process_time_ns()
        start = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as e:  # an op that raises is a failed op, not a crash
            out = e
        latencies_ns.append(time.perf_counter_ns() - start)
        cpu_ns += time.process_time_ns() - cpu_start
        if tracer is not None:
            tracer.end_op()
        if probe is not None:
            probe.sample(latencies_ns[-1])
        if isinstance(out, Exception):
            failures.append(f"op {i} ({op.kind}) raised {type(out).__name__}: {out}")
            continue
        try:
            problems = op.check(out)
        except Exception as e:  # a check that raises on a wrong output fails the op
            problems = [f"check raised {type(e).__name__}: {e}"]
        if problems:
            failures.append(f"op {i} ({op.kind}): {'; '.join(problems)}")
        digest.update(op.canonical(out))
        bits = max(bits, coeff_bits(out))
    return {
        "latencies_ns": latencies_ns,
        "wall_s": sum(latencies_ns) / 1e9,
        "cpu_s": cpu_ns / 1e9,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:10],
        "digest": digest.hexdigest(),
        "max_coeff_bits": bits,
    }


def run_rep(workload: str, seed: int, trace: bool, t0_ns: int | None = None,
            spans_path: str | None = None, tiny: bool = False) -> dict:
    """Build the seed's inputs, run the ops (traced or not) and collect
    figures.

    ``t0_ns`` is the parent's ``monotonic_ns`` at process spawn; set-up
    time runs from there to inputs ready.  Without it, from this call."""
    if t0_ns is None:
        t0_ns = time.monotonic_ns()
    import_pertlab()
    from workloads import BUILDERS, input_rng

    ops = BUILDERS[workload](input_rng(seed), tiny)
    setup_ns = time.monotonic_ns() - t0_ns
    probe = SpeedProbe()
    probe.sample(setup_ns)
    if trace:
        from tracer import Tracer

        with Tracer() as tracer:
            result = run_ops(ops, tracer, probe)
        result["layers"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    else:
        result = run_ops(ops, probe=probe)
    result["setup_s"] = setup_ns / 1e9
    result["ref_task_s"] = probe.ns / probe.count / 1e9
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0-ns", type=int)
    ap.add_argument("--spans", help="file for the traced pass's spans (JSON)")
    args = ap.parse_args()
    result = run_rep(args.workload, args.seed, bool(args.trace), args.t0_ns, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
