#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarize medians and spreads.

    python3 hbbench/baseline.py --out hbbench/baseline.json

For every workload: ``--trace 0`` runs at seeds 1..``--runs`` (seed 1 is the
default seed) and at the held-out seed, then ``--trace 1`` runs at seed 1
and at the held-out seed, each in a fresh process started with the command
in ``BENCHMARK.json``. The summary gives, per end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
NOTES = ("unscaled:", "unscaled_over_scaled:", "yardstick_ms:", "latency_samples:")


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    # the yardstick notes show whether a change moved the yardstick itself
    notes = [line.strip() for line in lines if line.lstrip().startswith(NOTES)]
    return {"seed": seed, "env": env, "notes": notes, **result}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--held-out", type=int, default=97)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    doc = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for w in args.workload or [x["name"] for x in BENCHMARK["workloads"]]:
        runs = [run(w, seed, 0) for seed in range(1, args.runs + 1)]
        held_out = run(w, args.held_out, 0)
        traced = [run(w, 1, 1), run(w, args.held_out, 1)]
        doc.setdefault("env", runs[0]["env"])
        end_to_end = {
            m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
            for m in BENCHMARK["end_to_end"]
        }
        doc["workloads"][w] = {
            "all_correct": all(r["correct"] for r in runs + [held_out] + traced),
            "failed": sum(r["failed"] for r in runs + [held_out] + traced),
            "attempted": sum(r["attempted"] for r in runs + [held_out] + traced),
            "end_to_end": end_to_end,
            "notes": {f"seed {r['seed']}": r["notes"] for r in runs},
            "held_out_seed": {"seed": args.held_out,
                              **{k: v["value"] for k, v in held_out["metrics"].items()}},
            "per_layer": {f"seed {r['seed']}": {k: v["value"] for k, v in r["metrics"].items()}
                          for r in traced},
        }
        spreads = ", ".join(f"{m} {s['spread']:.3f}" for m, s in end_to_end.items())
        print(f"{w}: spreads {spreads}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
