"""polycode benchmark: one closed-loop client driving the library in process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run_large --seed 1 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates traced and
untraced jobs and prints the per-layer metrics, named `<module>.<function>`,
and writes the spans to `perfbench/out/trace_<workload>.jsonl`. The last line
of standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it is the full result record,
including the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_JOBS = 100        # so that at least ten jobs lie beyond p90
SETUP_REPEATS = 3     # setup_s is the median of this many set-ups


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def environment(workload, seed, jobs, q):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "jobs_per_run": jobs, "q": q,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def measure(work, seed, seconds, tracer=None):
    """Run jobs in a closed loop for `seconds` (and at least MIN_JOBS jobs,
    ending on a multiple of the workload's cycle). With a tracer, odd jobs are
    traced and even jobs are not."""
    import numpy as np

    times = {False: [], True: []}
    failures = {}
    trials = 0
    index = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or index < MIN_JOBS or index % work.cycle:
        inputs = work.make_inputs(np.random.default_rng([seed, index]), index)
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        if traced:
            tracer.install(index)
        try:
            try:
                output, elapsed = work.run_job(inputs)
            finally:
                if traced:
                    tracer.uninstall()
            kind = work.check(inputs, output)
            times[traced].append(elapsed)
            trials += work.trials_per_job
        except Exception as exc:  # a job that raises is a failed job; keep running
            kind = f"exception_{type(exc).__name__}"
        if kind is not None:
            failures[kind] = failures.get(kind, 0) + 1
        index += 1
    return {"jobs": index, "times": times, "trials": trials, "failures": failures}


def setup(work, seed):
    """Median of SETUP_REPEATS set-ups: build the field and schemes, then run
    one untimed warm-up job (its inputs and oracle check are not counted)."""
    import numpy as np

    costs = []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup()
        built = time.perf_counter() - t0
        # Job indices never reach 2**32, so warm-up inputs are never measured ones.
        inputs = work.make_inputs(np.random.default_rng([seed, 2**32 + i]), 0)
        _out, elapsed = work.run_job(inputs)
        costs.append(built + elapsed)
    return statistics.median(costs)


def end_to_end(res, setup_s):
    """The metrics BENCHMARK.json bounds. The median job time and the mean
    throughput are left to `summary`: on a shared 2-core host they follow the
    mix of fast and slow host phases within a run, and vary between runs by
    more than any allowed bound, while p90 stays steady."""
    times = res["times"][False]
    ok = res["jobs"] - sum(res["failures"].values())
    return {
        "setup_s": (setup_s, "s"),
        "job_p90_s": (percentile(times, 90), "s"),
        "ok_share": (ok / res["jobs"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def summary(res):
    """Untraced job statistics printed in every result record."""
    times = res["times"][False]
    return {
        "jobs": res["jobs"],
        "job_p50_s": statistics.median(times),
        "job_p90_s": percentile(times, 90),
        "trials_per_s": res["trials"] / sum(times),
        "fail_share": sum(res["failures"].values()) / res["jobs"],
    }


def per_layer(res, tracer, work):
    import workloads

    traced = res["times"][True]
    untraced = res["times"][False]
    jobs = len(traced)
    totals = tracer.layer_totals()
    counters = tracer.counters
    out = {}
    for name in spans.span_names(tracer.targets, workloads.SCHEME_NAMES):
        calls, self_ns = totals.get(name, (0, 0))
        out[f"{name}.calls"] = (calls / jobs, "calls/job")
        out[f"{name}.self_s"] = (self_ns / 1e9 / jobs, "s/job")
    shares = counters.get("schemes.shares_encoded", 0)
    products = totals.get("schemes.worker_compute", (0, 0))[0]
    decodable = totals.get("schemes.decodable", (0, 0))[0]
    out.update({
        "matrixcore.transpose_mul.macs": (counters.get("matrixcore.transpose_mul.macs", 0) / jobs, "MAC_computed"),
        "matrixcore.transpose_mul.bytes": (counters.get("matrixcore.transpose_mul.bytes", 0) / jobs, "B_computed"),
        "schemes.products_per_share": (products / shares if shares else 0.0, "ratio"),
        "schemes.decodable.calls_per_trial": (decodable / (jobs * work.trials_per_job), "calls/trial"),
        "field.bw_decode.entries": (counters.get("field.bw_decode.entries", 0) / jobs, "entries/job"),
        "cluster.responders": (counters.get("cluster.responders", 0) / jobs, "workers/job"),
        "cluster.bytes_received": (counters.get("cluster.bytes_received", 0) / jobs, "B/job"),
    })
    covered = tracer.covered_ns_by_job()
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    out.update({
        "trace.job_p50_s": (traced_p50, "s"),
        "trace.untraced_job_p50_s": (untraced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.layers_s_per_job": (statistics.median(covered.values()) / 1e9, "s/job"),
        "trace.spans_per_job": (len(tracer.spans) / jobs, "spans/job"),
        "trace.missing_targets": (len(tracer.missing), "count"),
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "polycode" / "__init__.py").is_file():
        print(f"error: polycode sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import polycode  # noqa: F401  (import time is part of set-up)
    import_s = time.perf_counter() - t0
    if Path(polycode.__file__).resolve().parent != SRC / "polycode":
        print(f"error: imported polycode from {polycode.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    work = workloads.WORKLOADS.get(args.workload)
    if work is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup_s = import_s + setup(work, args.seed)
    tracer = spans.Tracer() if args.trace else None
    res = measure(work, args.seed, args.seconds, tracer)
    if tracer is None:
        metrics = end_to_end(res, setup_s)
    else:
        metrics = per_layer(res, tracer, work)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace_{args.workload}.jsonl")

    failed = sum(res["failures"].values())
    record = {
        "environment": environment(args.workload, args.seed, res["jobs"], workloads.Q),
        "trace": bool(args.trace),
        "failures": res["failures"],
        "summary": summary(res),
        "missing_targets": tracer.missing if tracer else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"result": record}))
    print(json.dumps({
        "correct": workloads.verdict(res["failures"]),
        "attempted": res["jobs"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
