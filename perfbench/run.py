"""walkqec benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced for ``--seconds``
seconds; ``--trace 1`` runs a fixed op set untraced and then traced, and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
report (environment, input digest, workload-named metrics, spans) goes
to ``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

# One Python thread per workload; BLAS/OpenMP pools are capped at one
# thread, at or below nproc, so a run's timings do not depend on how the
# library splits small products.
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("campaign", "gates_six", "identities")


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "python_threads": 1,
        "state_vector": {"amplitudes": workload.layout.dim,
                         "bytes": workload.layout.dim * 16},
    }


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile (failed ops are +inf, so they miss any limit)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int):
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def measure_setup(workload_name: str) -> list:
    """Import plus warm-up, each in a fresh interpreter; seconds per sample."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(probe), workload_name],
                              capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_ops(op, inputs, *, seconds=None, block=1, tracer=None):
    """Closed loop over ``inputs`` (cycled).  With ``seconds``, stops at the
    first multiple of ``block`` ops after that long; else after one pass.
    Returns per-op records and the loop's wall time."""
    records = []
    start = perf_counter()
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            ok, score, outputs, core = op(inp)
            error = None
        except Exception:  # a crashing op is a failed op, not a crashed benchmark
            ok, score, outputs, core = False, None, None, float("inf")
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        records.append({"ok": bool(ok), "score": score, "outputs": outputs,
                        "latency": t1 - t0 if ok else float("inf"),
                        "core": core if ok else float("inf"), "error": error})
        i += 1
        if seconds is None and i == len(inputs):
            break
        if seconds is not None and t1 - start >= seconds and i % block == 0:
            break
    return records, perf_counter() - start


def _report_failures(records) -> None:
    for i, r in enumerate(records):
        if not r["ok"]:
            sys.stderr.write(f"op {i} failed (score {r['score']}):\n{r['error'] or ''}\n")


def _score_summary(name: str, records) -> dict:
    scores = [r["score"] for r in records if r["score"] is not None]
    if not scores:
        return {}
    if name == "campaign":
        return {"min_fidelity": min(scores)}
    return {"max_deviation": max(scores)}


def untraced(workload, seed: int, seconds: int) -> tuple:
    import workloads

    setup = measure_setup(workload.name)
    workloads.warm_up(workload)
    inputs = workloads.make_inputs(workload, seed, workload.pool)
    records, wall = run_ops(workloads.OPS[workload.name], inputs, seconds=seconds,
                           block=workload.block)
    _report_failures(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    good = [r for r in records if r["ok"]]
    lat_ms = [1e3 * r["latency"] for r in records]
    core_ms = [1e3 * r["core"] for r in records]
    metrics = {
        "ops_per_s": (len(good) / wall, "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "core_p50_ms": (statistics.median(core_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    named = {alias: metrics[metric][0] * scale for alias, metric, scale in workload.named}
    tail = tail_percentile(len(lat_ms))
    if tail is not None:
        named[f"{workload.op_name}_p{tail:g}_ms"] = percentile(lat_ms, tail)
    detail = {
        "ops": len(records), "ops_ok": len(good), "wall_s": wall,
        "inputs_generated": len(inputs),
        "input_digest": workloads.digest(inputs),
        "ops_digest": workloads.digest([inputs[i % len(inputs)] for i in range(len(records))]),
        "latencies_ms": lat_ms,
        "setup_samples_s": setup,
        "workload_metrics": named,
        **_score_summary(workload.name, records),
    }
    return records, metrics, detail


def traced(workload, seed: int, count=None) -> tuple:
    """Run ``count`` ops (default: the workload's fixed traced set) untraced,
    then the same ops traced.  Returns records, metrics, detail, tracer."""
    import workloads
    from tracing import TRACED, Tracer

    workloads.warm_up(workload)
    inputs = workloads.make_inputs(workload, seed, count or workload.traced_ops)
    op = workloads.OPS[workload.name]
    plain, plain_wall = run_ops(op, inputs)
    tracer = Tracer()
    with tracer.installed():
        seen, traced_wall = run_ops(op, inputs, tracer=tracer)
    records = plain + seen
    _report_failures(records)
    plain_out = workloads.digest([r["outputs"] for r in plain])
    traced_out = workloads.digest([r["outputs"] for r in seen])

    metrics = {}
    times = tracer.self_times()
    for module, fname in TRACED:
        name = f"{module}.{fname}"
        calls, self_s = times.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (1e3 * self_s, "ms")
    counters = tracer.counters()
    metrics["engine.bytes_computed"] = (counters["engine.bytes_computed"], "B")
    for key in ("step_applications", "branches_out"):
        metrics[f"programs.{key}"] = (counters[f"programs.{key}"], "count")
    metrics["programs.branch_yield"] = (counters["programs.branch_yield"], "ratio")
    metrics["codec.readout_terms"] = (counters["codec.readout_terms"], "terms/readout")
    overhead = traced_wall - plain_wall
    metrics["trace.overhead_pct"] = (100.0 * overhead / plain_wall, "%")
    detail = {
        "traced_ops": len(inputs),
        "input_digest": workloads.digest(inputs),
        "counters": counters,
        "counters_digest": workloads.digest(sorted(counters.items())),
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "trace_overhead_s": overhead,
        "outputs_identical": plain_out == traced_out,
        "outputs_digest": traced_out,
        "spans": len(tracer.spans),
        **_score_summary(workload.name, records),
    }
    return records, metrics, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "walkqec" / "__init__.py").is_file():
        sys.stderr.write(f"walkqec sources not found under {SRC}; run from a full checkout\n")
        return 2
    os.environ.update(THREAD_CAPS)
    os.environ.pop("WALKQEC_OUT_DIR", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import walkqec
    import workloads

    if Path(walkqec.__file__).resolve().parent != SRC / "walkqec":
        sys.stderr.write(f"imported walkqec from {walkqec.__file__}, not from {SRC}\n")
        return 2

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        records, metrics, detail, tracer = traced(workload, args.seed)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
        correct = detail["outputs_identical"]
    else:
        records, metrics, detail = untraced(workload, args.seed, args.seconds)
        correct = True
    failed = sum(not r["ok"] for r in records)
    correct = correct and failed == 0
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(workload),
              "correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                          for k, (v, u) in metrics.items()},
              **detail}
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for key in ("environment", "workload_metrics", "counters"):
        if key in report:
            print(f"{key}: {json.dumps(report[key], sort_keys=True)}")
    for key in sorted(detail):
        if key not in ("workload_metrics", "counters", "latencies_ms"):
            print(f"{key}: {json.dumps(detail[key])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": report["metrics"]}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
