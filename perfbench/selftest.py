#!/usr/bin/env python3
"""Quick self-test of the benchmark at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that

* every workload prints, with ``--trace 0`` and ``--trace 1``, exactly the
  metrics that ``BENCHMARK.json`` names, each with its unit, and that no op
  fails at this commit;
* a deliberately corrupted output is counted as a failed op: a solution
  whose psi has one coefficient perturbed before ``verify`` reads it, and a
  screen report compared with a reference margin that is off by 1e-6;
* one seed produces identical inputs twice, and another seed other inputs;
* the host-speed probe runs while an op works, and its time is taken out
  of the op's time.

Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
import polywave.cli  # noqa: E402
import workloads  # noqa: E402
from hostspeed import PERIOD_S, HostSpeed  # noqa: E402


def expect(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def check_printed_metrics(spec):
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", "3", "--seconds", "1", "--trace", str(trace),
                    "--size", "tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            expect(proc.returncode == 0, f"{name} trace {trace} exits 0 ({proc.stderr[-300:]})")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{name} trace {trace} result has exactly the four keys")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == expected[trace],
                   f"{name} trace {trace} prints every named metric with its unit")
            expect(all(isinstance(v["value"], float) and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{name} trace {trace} metric values are finite numbers")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace {trace} has no failed op")


def run_ops(workload, inputs, work):
    records = [run.run_one(workload, inp, i, work) for i, inp in enumerate(inputs)]
    run.check_outputs(workload, records)
    return run.failure_summary(records)


def perturb_psi(argv):
    """Run the CLI, then perturb one psi coefficient of a fresh solution."""
    code = original_main(argv)
    if argv[0] == "fixed-point" and code == 0:
        path = Path(argv[argv.index("--out") + 1]) / "solution.json"
        doc = json.loads(path.read_text())
        key = next(k for k in sorted(doc["psi"]) if set(k) - {"0", ","})
        doc["psi"][key][0] += 1e-6
        path.write_text(json.dumps(doc))
    return code


original_main = polywave.cli.main


def check_corruption_counted(work):
    certify = workloads.Certify()
    inputs = certify.inputs(3, "tiny")
    certify.prepare(inputs, work)
    polywave.cli.main = perturb_psi
    try:
        summary = run_ops(certify, inputs, work / "corrupt")
    finally:
        polywave.cli.main = original_main
    expect(summary["failed"] == 1 and summary["fail_frac"] == 1.0
           and summary["wrong_outputs"] == 1,
           f"perturbed psi counts as a failed op and a wrong output ({summary['failures']})")

    screen = workloads.Screen()
    inp = screen.inputs(3, "tiny")[0]
    wrong = dict(inp, margins=[inp["margins"][0] * (1 + 1e-6)] + inp["margins"][1:])
    summary = run_ops(screen, [inp, wrong], work)
    expect(summary["failed"] == 1 and summary["failures"][0]["class"] == "CheckFailed",
           "a wrong screen margin counts as one failed op of two")


def check_seeded_inputs():
    for name, cls in workloads.WORKLOADS.items():
        first = workloads.digest(cls().inputs(5, "tiny"))
        again = workloads.digest(cls().inputs(5, "tiny"))
        expect(first == again, f"{name}: one seed gives identical inputs twice")
        if name != "crosscheck":    # one stored desk point, whatever the seed
            other = workloads.digest(cls().inputs(6, "tiny"))
            expect(first != other, f"{name}: another seed gives other inputs")


def check_host_probe():
    for kind in ("python", "numpy"):
        speed = HostSpeed(kind)
        speed.start()
        try:
            before = speed.mark()
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * PERIOD_S:
                sum(i * i for i in range(1000))
            elapsed = time.perf_counter() - t0
            after = speed.mark()
        finally:
            speed.stop()
        own, norm = speed.normalise(before, after, elapsed)
        expect(after[0] - before[0] >= 3, f"{kind} probe runs while an op works")
        expect(0 < own < elapsed and math.isclose(elapsed - own, after[1] - before[1]),
               f"{kind} probe time is taken out of the op's time")
        expect(norm > 0 and math.isfinite(norm), f"{kind} normalised time is finite")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    work = run.OUT_DIR / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        check_seeded_inputs()
        check_host_probe()
        check_corruption_counted(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_printed_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
