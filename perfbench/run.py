"""The pertlab benchmark: one workload (or all), timed or traced.

    python3 perfbench/run.py --workload tower_extend --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  Each repetition is a fresh process
(``worker.py``) that imports pertlab from ``src/``, builds the seed's
input set and runs every op on it once, so process-level caches start
empty at every repetition and stay warm across its ops.  The run starts
repetitions one after the other until ``--seconds`` have passed; every
repetition measures the same inputs.

Each repetition also times a fixed reference task between its ops (see
``worker.SpeedProbe``).  Its times are rescaled to the nominal speed at
which that task takes ``REF_NOMINAL_S``: a shared machine whose speed
drifts moves the reference task and the workload alike, and the ratio
stays put.

``--trace 0`` reports the end-to-end metrics: medians over repetitions of
the rescaled set-up and wall times and of peak RSS, with the measured
times, CPU time, op latencies and more in the readable report.
``--trace 1`` runs each repetition untraced and then traced, and reports
the per-layer metrics of the traced passes (medians), plus
``trace_overhead_s``, the traced wall time minus the untraced one; every
pass of a run must produce the same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report with provenance, extra figures and digests.
A JSON record of the run is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("docs_pipeline", "tower_extend", "snf_sparse", "identity_suite")
RUN_LIMIT_S = 170  # every run must end within 180 s
P90_MIN_BEYOND = 10  # report a p90 only with this many samples above it
REF_NOMINAL_S = 0.001  # the reference task's time at the nominal speed


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def spawn(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """One repetition in a fresh process; its JSON result.  The hash seed
    follows the workload seed, so set and dict order, and with them the
    work done, are the same in every repetition of a run."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} repetition did not finish within the run's time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: int, traced: bool) -> list[tuple[dict, dict | None]]:
    """Untraced repetitions, each paired with a traced one when ``traced``,
    started until ``seconds`` have passed or the run limit comes near."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps: list[tuple[dict, dict | None]] = []
    while True:
        t = time.monotonic()
        plain = spawn(workload, seed, False, deadline)
        reps.append((plain, spawn(workload, seed, True, deadline) if traced else None))
        now = time.monotonic()
        if now - start >= seconds or now + (now - t) >= deadline:
            return reps


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(workload: str, seed: int, reps: list[tuple[dict, dict | None]]) -> dict:
    """Fold repetitions into the run's figures and its correctness verdict."""
    plain = [p for p, _ in reps]
    traced = [t for _, t in reps if t is not None]
    lat_ms = sorted(x / 1e6 for p in plain for x in p["latencies_ns"])
    p90 = percentile(lat_ms, 90)
    beyond = sum(1 for x in lat_ms if x > p90)
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    problems = [f for r in plain + traced for f in r["failures"]]
    if len({r["digest"] for r in plain + traced}) > 1:
        problems.append("repetitions of the run, traced or not, gave different outputs")

    def median(key: str, rescaled: bool = False) -> float:
        return statistics.median(r[key] * (REF_NOMINAL_S / r["ref_task_s"] if rescaled else 1) for r in plain)

    # wall_s is a ratio of means, not a median of per-repetition ratios: a
    # single op of seconds (identity_suite) runs between two samples of the
    # reference task, and averaging over the whole run evens that out.
    wall_s = statistics.fmean(r["wall_s"] for r in plain) * REF_NOMINAL_S / statistics.fmean(
        r["ref_task_s"] for r in plain)
    end_to_end = {
        "setup_s": (median("setup_s", True), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MiB"),
    }
    notes = {"setup_s": "at nominal speed", "wall_s": "at nominal speed",
             "op_p90_ms": f"{len(lat_ms)} samples, {beyond} beyond",
             "ops_failed_ratio": f"{failed}/{attempted}"}
    extra = {
        "setup_measured_s": (median("setup_s"), "s"),
        "wall_measured_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "ref_task_ms": (median("ref_task_s") * 1e3, "ms"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
        "max_coeff_bits": (plain[0]["max_coeff_bits"], "bits"),
    }
    if beyond < P90_MIN_BEYOND:
        del extra["op_p90_ms"]
        notes["op_p90_ms"] = (f"not reported: {len(lat_ms)} samples, {beyond} beyond "
                              f"the 90th percentile (needs {P90_MIN_BEYOND})")
    layers = {}
    if traced:
        for name, unit in metric_units().items():
            layers[name] = (statistics.median(t["layers"][name] for t in traced), unit)
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in reps)
        layers["trace_overhead_s"] = (overhead, "s")
    return {
        "workload": workload,
        "seed": seed,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "repetition_wall_s": [r["wall_s"] for r in plain],
        "repetition_setup_s": [r["setup_s"] for r in plain],
        "repetition_ref_task_s": [r["ref_task_s"] for r in plain],
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "digest": plain[0]["digest"],
        "end_to_end": end_to_end,
        "extra": extra,
        "notes": notes,
        "layers": layers,
    }


def reference_digest(workload: str, seed: int) -> str | None:
    path = HERE / "reference_digests.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def report(s: dict, provenance: dict) -> None:
    """The readable lines: provenance, every metric by name with its unit."""
    print(f"== {s['workload']} seed={s['seed']} repetitions={s['repetitions']} "
          f"traced={s['traced_repetitions']} python={provenance['python']} "
          f"nproc={provenance['nproc']} commit={provenance['commit']}")
    figures = {**s["end_to_end"], **s["extra"]}
    for name, (value, unit) in figures.items():
        note = f" ({s['notes'][name]})" if name in s["notes"] else ""
        print(f"  {name:<18} {value:.6g} {unit}{note}")
    for name, note in s["notes"].items():
        if name not in figures:
            print(f"  {name:<18} {note}")
    ref = reference_digest(s["workload"], s["seed"])
    verdict = "no reference" if ref is None else ("same as reference" if ref == s["digest"] else "CHANGED from reference")
    print(f"  {'digest':<18} sha256:{s['digest']} ({verdict})")
    for line in s["problems"]:
        print(f"  problem: {line}")
    if s["layers"]:
        print("  per-layer (traced pass, medians):")
        for name, (value, unit) in s["layers"].items():
            print(f"    {name:<40} {value:.6g} {unit}")


def result_line(summaries: list[dict], traced: bool, prefixed: bool) -> dict:
    """The closing JSON object: the end-to-end metrics of an untraced run
    or the per-layer metrics of a traced one, each with its unit; names
    carry a "<workload>." prefix when several workloads ran."""
    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}." if prefixed else ""
        for name, (value, unit) in (s["layers"] if traced else s["end_to_end"]).items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "pertlab" / "__init__.py").is_file():
        fail(f"no pertlab source tree at {ROOT / 'src'}; run from a pertlab checkout")
    OUT.mkdir(exist_ok=True)
    provenance = {
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for w in workloads:
        s = summarize(w, args.seed, repetitions(w, args.seed, args.seconds, bool(args.trace)))
        report(s, provenance)
        summaries.append(s)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "runs": summaries}, indent=2) + "\n")
    print(json.dumps(result_line(summaries, bool(args.trace), prefixed=args.workload == "all")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
