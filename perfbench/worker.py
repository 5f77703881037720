"""One cold pass of a workload, in a fresh process started by ``run.py``.

    python3 -m perfbench.worker --workload NAME --seed N --trace 0|1
        --spawned-at T --spans FILE

``T`` is the ``CLOCK_MONOTONIC`` reading just before the process was
started, so ``setup_s`` covers interpreter start-up and the import of
``qfcodes`` and ``qfcodes.cli``.  The pass runs every job of the workload once,
in order, and prints one JSON object on standard output.
"""

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench.worker")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import qfcodes
    import qfcodes.cli  # noqa: F401

    setup_s = _now() - args.spawned_at
    if Path(qfcodes.__file__).resolve().parent != SRC / "qfcodes":
        print(f"perfbench: qfcodes imported from {qfcodes.__file__}, not {SRC}", file=sys.stderr)
        return 1

    import numpy

    from perfbench import tracing, workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    job_list = workloads.jobs(args.workload, args.seed)
    failures = []
    start = time.perf_counter()
    for job in job_list:
        with tracer.job(job.id) if tracer is not None else contextlib.nullcontext():
            reasons = _run(job)
        failures += [{"job": job.id, "reason": r} for r in reasons]
    wall_s = time.perf_counter() - start

    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": len(job_list),
        "failed_jobs": len({f["job"] for f in failures}),
        "failures": failures,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, wall_s)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


def _run(job) -> list[str]:
    try:
        return job.run()
    except Exception as e:  # a wrong outcome, recorded against the job
        return [f"unexpected {type(e).__name__}: {e}"]


if __name__ == "__main__":
    sys.exit(main())
