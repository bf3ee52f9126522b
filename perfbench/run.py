#!/usr/bin/env python3
"""Benchmark of the polywave pipeline, driven from outside the package.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

One process runs one workload as a closed loop with a single client: each op
starts when the previous one has finished.  The timed phase goes through
whole cycles of the workload's distinct inputs; it does not start a cycle
that it expects to end after ``--seconds`` (it always runs at least one).
Set-up (import, input generation, pre-screen and warm-up) is timed apart
from the ops; everything after the imports is repeated ``SETUP_REPEATS``
times and the median is reported.  A host-speed probe (``hostspeed.py``)
runs a fixed reference kernel every few tenths of a second through the
imports, set-up and the timed phase, and the end-to-end times are reported
at its nominal speed; the raw times are kept in the detailed report.
Outputs are checked after the timed phase.  ``failed`` counts every failed
op (an exception, a non-zero exit code or a failed check); ``correct`` is
false when an op returned a wrong output, that is, when a check failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every op
twice in a row, once plain and once with every layer wrapped by
``tracer.Tracer``, and prints the per-layer metrics (per op) and the
tracing overhead.  Spans and a detailed report (host, input digest,
failure reasons, tail latency) go to ``.perfbench_out/`` in the repository
root; the last line of standard output is the result as one JSON object.

BLAS runs single-threaded and ``POLYWAVE_THREADS`` is left unset, so the
package uses its default of one thread.
"""

import os
import sys

# Fix the thread settings before numpy is loaded.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARIABLES:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("POLYWAVE_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402  (numpy is loaded lazily)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = Path(".perfbench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("certify", "surface", "screen", "crosscheck")
RUN_TIMEOUT_S = 900

END_TO_END = {
    "norm_latency_p50_s": "s",
    "norm_ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# (metric, unit, how it is formed from the traced pass)
PER_LAYER = (
    ("nonres.check.calls", "count", "calls", "nonres.check"),
    ("nonres.check.self_s", "s", "self", "nonres.check"),
    ("nonres.check.admitted_ratio", "ratio", "admitted", "nonres.check"),
    ("bloch.series.calls", "count", "calls", "bloch.series"),
    ("bloch.series.self_s", "s", "self", "bloch.series"),
    ("bloch.chain.passes", "count", "counter", "bloch.chain.passes"),
    ("bloch.chain.nodes", "count", "counter", "bloch.chain.nodes"),
    ("bloch.oracle.calls", "count", "calls", "bloch.oracle"),
    ("bloch.oracle.self_s", "s", "self", "bloch.oracle"),
    ("bloch.oracle.dim_max", "count", "max", "bloch.oracle.dim_max"),
    ("lattice.multiply.calls", "count", "calls", "lattice.multiply"),
    ("lattice.multiply.self_s", "s", "self", "lattice.multiply"),
    ("lattice.multiply.pairs", "count", "counter", "lattice.multiply.pairs"),
    ("fixedpoint.iterate.self_s", "s", "self", "fixedpoint.iterate"),
    ("fixedpoint.steps", "count", "counter", "fixedpoint.steps"),
    ("fixedpoint.residual.self_s", "s", "self", "fixedpoint.residual"),
    ("galerkin.newton.self_s", "s", "self", "galerkin.newton"),
    ("galerkin.newton.steps", "count", "counter", "galerkin.newton.steps"),
    ("galerkin.newton.support", "count", "support", "galerkin.newton"),
    ("iso.kappa.self_s", "s", "self", "iso.kappa"),
    ("iso.root_evals", "count", "counter", "iso.root_evals"),
    ("cli.self_s", "s", "self", "cli"),
    ("cli.bytes_written", "B", "counter", "cli.bytes_written"),
    ("trace.op_s", "s", "op", None),
    ("trace.overhead_frac", "ratio", "overhead", None),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    return parser.parse_args(argv)


def host_info(np, scipy, polywave):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "polywave": polywave.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARIABLES},
        "POLYWAVE_THREADS": os.environ.get("POLYWAVE_THREADS", "unset (default 1)"),
    }


def run_one(workload, inp, index, work, tracer=None):
    """One op, timed; a failure is recorded, not raised."""
    from workloads import failure_record

    out = work / f"op{index}"
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result, error = workload.op(inp, out), None
        else:
            result, error = tracer.run_op(index, workload.op, inp, out), None
    except Exception as exc:  # a failed op is recorded, not fatal
        result, error = None, failure_record(exc, "op")
    return {"op": index, "input": inp, "latency": time.perf_counter() - t0,
            "result": result, "error": error}


def last_unit(start, unit_start, seconds):
    """True when another unit of work as long as the one just ended would
    finish after ``seconds``."""
    now = time.perf_counter()
    return now - start + (now - unit_start) > seconds


def timed_pass(workload, inputs, work, seconds, speed):
    """Untraced ops over whole cycles of the distinct inputs, for at most
    about ``seconds`` (at least one cycle), with the host-speed probe
    ``speed`` running.  Whole cycles keep the mix of inputs, and so the
    median, independent of how many ops fit.  Each record's latency is the
    op's own time, without the probes; ``norm_latency`` is that time at
    nominal host speed.  Returns (records, seconds of the ops alone)."""
    records = []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        for inp in inputs:
            before = speed.mark()
            rec = run_one(workload, inp, len(records), work)
            rec["latency"], rec["norm_latency"] = speed.normalise(
                before, speed.mark(), rec["latency"])
            records.append(rec)
        if last_unit(start, unit_start, seconds):
            break
    return records, sum(rec["latency"] for rec in records)


def paired_pass(workload, inputs, work, seconds, tracer):
    """Every input twice in a row, untraced and traced, in alternating order,
    over whole cycles of the distinct inputs for at most about ``seconds``
    (at least one cycle).  Whole cycles keep per-op counts independent of
    how many cycles fit.  Returns (untraced records, traced records)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        for inp in inputs:
            index = len(plain) + len(traced)
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for offset, with_trace in enumerate(order):
                if not with_trace:
                    plain.append(run_one(workload, inp, index + offset, work))
                    continue
                tracer.install()
                try:
                    traced.append(run_one(workload, inp, index + offset, work, tracer))
                finally:
                    tracer.uninstall()
        if last_unit(start, unit_start, seconds):
            break
    return plain, traced


def check_outputs(workload, records):
    from workloads import failure_record

    for rec in records:
        if rec["error"] is None:
            try:
                workload.check(rec["input"], rec["result"])
            except Exception as exc:  # any error while checking fails the op
                rec["error"] = failure_record(exc, "check")


def tail_latency(latencies):
    """Highest percentile with at least ten samples beyond it (None below 11)."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def failure_summary(records):
    failed = [rec for rec in records if rec["error"] is not None]
    classes = {}
    for rec in failed:
        classes[rec["error"]["class"]] = classes.get(rec["error"]["class"], 0) + 1
    return {
        "attempted": len(records),
        "failed": len(failed),
        "wrong_outputs": sum(1 for rec in failed if rec["error"]["stage"] == "check"),
        "fail_frac": len(failed) / len(records),
        "holes": sum(1 for rec in failed if rec["error"]["hole"]),
        "failure_classes": classes,
        "failures": [dict(rec["error"], op=rec["op"]) for rec in failed[:20]],
    }


def layer_metrics(tracer, traced, plain):
    """Per-layer metrics of the traced ops; ``plain`` are the same ops untraced."""
    ops = len(traced)
    traced_s = sum(rec["latency"] for rec in traced)
    plain_s = sum(rec["latency"] for rec in plain)
    calls, self_s = tracer.self_times()
    counters = tracer.counters
    metrics = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "calls":
            value = calls[key] / ops
        elif kind == "self":
            value = self_s[key] / ops
        elif kind == "counter":
            value = counters[key] / ops
        elif kind == "max":
            value = counters[key]
        elif kind == "admitted":
            value = counters["nonres.check.admitted"] / calls[key] if calls[key] else 0.0
        elif kind == "support":
            value = counters["galerkin.newton.support_sum"] / calls[key] if calls[key] else 0.0
        elif kind == "op":
            value = traced_s / ops
        else:
            value = traced_s / plain_s - 1.0
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def run_workload(args):
    os.chdir(ROOT)
    # Importing is interpreter work; the probe runs through it.
    import_speed = HostSpeed("python")
    started = time.perf_counter()
    import_speed.start()
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import numpy as np
        import scipy
        import polywave
        import workloads
        from tracer import Tracer
    except ImportError as exc:
        print(f"perfbench: cannot import polywave from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    finally:
        import_speed.stop()
    import_s, import_norm = import_speed.normalise(
        (0, 0.0), import_speed.mark(), time.perf_counter() - started)
    if Path(polywave.__file__).resolve().parent != ROOT / "src" / "polywave":
        print(f"perfbench: polywave imported from {polywave.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    speed = HostSpeed(workload.reference)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    tracer = Tracer()
    setup_times, setup_norm = [], []
    try:
        speed.start()
        for _ in range(SETUP_REPEATS):
            before = speed.mark()
            t0 = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            inputs = workload.inputs(args.seed, args.size)
            input_digest = workloads.digest(inputs)
            workload.prepare(inputs, work)
            own, norm = speed.normalise(before, speed.mark(), time.perf_counter() - t0)
            setup_times.append(own)
            setup_norm.append(norm)
        if args.trace:
            speed.stop()
            plain, traced = paired_pass(workload, inputs, work, args.seconds, tracer)
            records = plain + traced
        else:
            records, busy = timed_pass(workload, inputs, work, args.seconds, speed)
        speed.stop()
        check_outputs(workload, records)
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)

    latencies = [rec["latency"] for rec in records]
    norm_latencies, raw = [], {}
    if args.trace:
        metrics = layer_metrics(tracer, traced, plain)
    else:
        norm_latencies = [rec["norm_latency"] for rec in records]
        passed = sum(1 for rec in records if rec["error"] is None)
        # A failed op has no latency to speak of; it counts in fail_frac
        # and is missing from ops_per_s.
        passed_norm = [rec["norm_latency"] for rec in records
                       if rec["error"] is None] or norm_latencies
        values = {
            "norm_latency_p50_s": statistics.median(passed_norm),
            "norm_ops_per_s": passed / sum(norm_latencies),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_norm + statistics.median(setup_norm),
        }
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
        raw = {
            "latency_p50_s": statistics.median(
                [rec["latency"] for rec in records if rec["error"] is None] or latencies),
            "ops_per_s": passed / busy,
            "setup_s": import_s + statistics.median(setup_times),
        }

    summary = failure_summary(records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "host": host_info(np, scipy, polywave),
        "input_digest": input_digest,
        "distinct_inputs": len(inputs),
        "ops": len(records),
        "import_s": import_s,
        "import_probe_s": import_speed.samples,
        "setup_repeats_s": setup_times,
        "latency_tail_s": tail_latency(latencies),
        "latencies_s": latencies,
        "norm_latencies_s": norm_latencies,
        "host_speed": {"kernel": speed.kind, "nominal_s": speed.nominal,
                       "samples_s": speed.samples},
        "raw": raw,
        "metrics": metrics,
    } | summary
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{tag}-spans.json").write_text(json.dumps(tracer.spans_json()) + "\n")
    print(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": summary["wrong_outputs"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so set-up and memory stay its own."""
    combined = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        print(f"{name}: {result['attempted']} ops, {result['failed']} failed")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
            combined[f"{name}.{metric}"] = entry
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
