#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload surface --seeds 1-10

Each seed runs in its own process, one after another.  For every metric the
report gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread ``(Q3 - Q1) / median``; with ``--trace 0`` the spread is set
against the metric's bound in ``BENCHMARK.json``.  The raw values go to
``.perfbench_out/spread-<workload>-trace<t>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()))

    report = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        report[name] = {"values": vals, "median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name) if args.trace == 0 else None
        verdict = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
        print(f"{name:32s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}{verdict}")
    out = ROOT / ".perfbench_out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "seconds": seconds, "metrics": report},
                              indent=1) + "\n")


if __name__ == "__main__":
    main()
