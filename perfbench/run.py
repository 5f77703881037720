"""Cold-process benchmark of the qfcodes cross-checked pipeline.

    python3 perfbench/run.py --workload presets|towers|exhaustive-wd
        --seed N --seconds S --trace 0|1

Run from the repository root (any directory holding ``src/qfcodes`` and
``perfbench``).  Each pass runs every job of the workload once in a fresh
worker process (``python3 -m perfbench.worker``), so the cached towers, GHW
engines and form tables start cold, as for each ``qfcodes`` invocation.
Passes run one at a time, single-threaded, as a closed loop: at least
``MIN_PASSES``, then more while the next one should end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as medians
over the passes.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics as medians over the traced passes;
``trace.overhead_s`` is the traced minus the untraced median wall time.

Standard output ends with one JSON line: ``correct``, ``attempted`` and
``failed`` (jobs, over all passes) and ``metrics``.  The full record, with
the failures, the seed and the environment, goes to
``perfbench/out/result-<workload>-seed<seed>-trace<t>.json``; traced passes
write their spans next to it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 3  # per kind of pass: untraced, or traced
WORKER_TIMEOUT_S = 150
# numpy and its BLAS stay on one thread; hashing is fixed across passes
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, trace: int, spans: Path | None = None) -> dict:
    """One worker process: one cold pass of ``workload``; its parsed result."""
    cmd = [
        sys.executable,
        "-m",
        "perfbench.worker",
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **WORKER_ENV}
    cmd += ["--spawned-at", repr(_now())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise WorkerError(f"worker printed no result: {proc.stdout[-500:]!r}") from e


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """All passes of one run, and the metrics they give."""
    untraced, traced, durations = [], [], []
    start = _now()
    # start another pass (or traced pair) only if it should end in time
    while len(untraced) < MIN_PASSES or (
        _now() - start + statistics.median(durations) <= seconds
    ):
        begun = _now()
        untraced.append(run_pass(workload, seed, 0))
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{len(traced)}.jsonl"
            traced.append(run_pass(workload, seed, 1, spans))
        durations.append(_now() - begun)
    passes = untraced + traced
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    if trace:
        for key in traced[0]["layers"]:
            metrics[key] = statistics.median(p["layers"][key] for p in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - metrics["wall_s"]
        )
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed_jobs"] for p in passes)
    metrics["failed_frac"] = failed / attempted
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {**passes[0]["env"], "nproc": len(os.sched_getaffinity(0))},
        "passes": {"untraced": untraced, "traced": traced},
        "attempted": attempted,
        "failed": failed,
        "failures": [f for p in passes for f in p["failures"]],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qfcodes" / "__init__.py").is_file():
        print(f"perfbench: no qfcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    values = record["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["env"]
    runs = len(record["passes"]["untraced"]) + len(record["passes"]["traced"])
    print(
        f"perfbench {args.workload} seed={args.seed} passes={runs} nproc={env['nproc']} "
        f"python={env['python']} numpy={env['numpy']}"
    )
    for key, m in metrics.items():
        print(f"  {key:<26} {m['value']:.6g} {m['unit']}")
    print(
        f"  {'failed_frac':<26} {values['failed_frac']:.6g} "
        f"({record['failed']}/{record['attempted']} jobs)"
    )
    for f in record["failures"]:
        print(f"  FAILED {f['job']}: {f['reason']}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
