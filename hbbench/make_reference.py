#!/usr/bin/env python3
"""Regenerate the stored correctness references under ``reference/``.

For each workload this records:

* ``table`` (sweep workloads): the CSV header, the text of every RNG-free
  row, the sha256 of the CSV written at ``BYTE_SEED`` with ``BYTE_TRIALS``
  trials, and for every random row the mean, per-draw standard deviation,
  largest deviation from the mean and number of draws of each checked
  column over ``--table-draws`` single-trial CLI runs at distinct seeds.
* ``cell``: the same four numbers per user for the ``trial_metrics``
  fields on the workload's latency cell, over ``--cell-draws`` draws.

The Theorem 3 gap bound is counted only on the draws where it applies (the
CSV leaves it empty, ``trial_metrics`` clears ``gap_ub_applicable``); a value
seen on fewer than two draws is stored as null and not tested.

Run from the repository root:  python3 hbbench/make_reference.py
Rerun only at a deliberate change of the program's random stream or
results, and say so where the change is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import hbnoma  # noqa: E402
from check import CELL_MASKS, parse_table  # noqa: E402
from workloads import WORKLOADS, cell_config, run_cli  # noqa: E402

BYTE_SEED = 1234
BYTE_TRIALS = 2  # trials of the CSV compared byte for byte; a run's first, untimed rep
REF_SEED = 2**40  # far from every seed a run derives (those are below 2**31)
RNG_FREE_SYSTEMS = ("b0", "fd", "oma")
CELL_FIELDS = ("rate_exact", "rate_lb_thm1", "rate_lb_thm2", "rate_gap", "gap_ub_thm3", "rho")

TABLE_FORMATS = {
    # per-user table (write_table_csv); the system label follows "<id>:"
    "fig4c": dict(
        key_columns=["scenario_id", "sweep_value", "cluster", "user"],
        stat_columns=[
            "rate_exact", "rate_lb_thm1", "rate_lb_thm2", "rate_gap", "gap_ub_thm3", "rho_mean",
        ],
        weight_column="trials",
        system=lambda row: row["scenario_id"].rpartition(":")[2],
    ),
    # condensed sum-rate table (write_sum_rate_csv)
    "fig5": dict(
        key_columns=["snr_db", "system"],
        stat_columns=["sum_rate_bps_hz"],
        weight_column=None,
        system=lambda row: row["system"],
    ),
}


def _stats(arr: np.ndarray) -> list[list[float] | None]:
    """Per column of a (draws, values) array: mean, sd, largest |x - mean| and draws.

    NaN marks a draw where the value is absent; it is left out.
    """
    out = []
    for col in arr.T:
        col = col[~np.isnan(col)]
        if col.size < 2:
            out.append(None)
            continue
        mean = col.mean()
        stats = (mean, col.std(ddof=1), np.abs(col - mean).max())
        out.append([float(f"{x:.10g}") for x in stats] + [int(col.size)])
    return out


def table_reference(workload, draws: int, work: Path) -> dict:
    fmt = TABLE_FORMATS[workload.preset]
    out = str(work / f"reference_{workload.name}.csv")

    code, _ = run_cli(workload, out, BYTE_SEED, BYTE_TRIALS)
    if code != 0:
        raise SystemExit(f"{workload.name}: CLI exited {code}")
    text = Path(out).read_text(encoding="utf-8")
    header, rows = parse_table(text, fmt["key_columns"])
    value_columns = [c for c in header if c not in fmt["key_columns"]]
    exact = {
        key: [row[c] for c in value_columns]
        for key, row in rows.items()
        if fmt["system"](row) in RNG_FREE_SYSTEMS
    }
    random_keys = [key for key in rows if key not in exact]

    samples = {key: [] for key in random_keys}
    for k in range(draws):
        code, _ = run_cli(workload, out, REF_SEED + k, 1)
        if code != 0:
            raise SystemExit(f"{workload.name}: CLI exited {code} at reference draw {k}")
        _, draw_rows = parse_table(Path(out).read_text(encoding="utf-8"), fmt["key_columns"])
        for key, ref_values in exact.items():
            if [draw_rows[key][c] for c in value_columns] != ref_values:
                raise SystemExit(f"{workload.name}: row {key} depends on the seed")
        for key in random_keys:
            row = draw_rows[key]
            samples[key].append([float(row[c] or "nan") for c in fmt["stat_columns"]])

    random = {key: _stats(np.array(samples[key])) for key in random_keys}
    return {
        "header": header,
        "key_columns": fmt["key_columns"],
        "weight_column": fmt["weight_column"],
        "n_ref": draws,
        "byte_seed": BYTE_SEED,
        "byte_trials": BYTE_TRIALS,
        "byte_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "exact_columns": value_columns,
        "exact": exact,
        "stat_columns": fmt["stat_columns"],
        "random": random,
    }


def cell_reference(workload, draws: int) -> dict:
    cfg, snr_db = cell_config(workload)
    values = {f: [] for f in CELL_FIELDS}
    labels = None
    for t in range(draws):
        tm = hbnoma.trial_metrics(cfg, seed=REF_SEED, trial=t, snr_db=snr_db)
        labels = [[int(c), int(u)] for c, u in zip(tm.cluster, tm.user)]
        for f in CELL_FIELDS:
            v = np.asarray(getattr(tm, f), dtype=float)
            if f in CELL_MASKS:
                v = np.where(getattr(tm, CELL_MASKS[f]), v, np.nan)
            values[f].append(v)
    fields = {}
    for f in CELL_FIELDS:
        fields[f] = _stats(np.array(values[f]))
    return {"users": labels, "n_ref": draws, "snr_db": snr_db, "fields": fields}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--table-draws", type=int, default=1000)
    parser.add_argument("--cell-draws", type=int, default=3000)
    args = parser.parse_args(argv)
    (HERE / "reference").mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        doc = {
            "workload": name,
            "made_with": {"hbnoma": hbnoma.__version__, "numpy": np.__version__},
            "cell": cell_reference(workload, args.cell_draws),
        }
        if workload.sweep:
            work = HERE.parent / ".bench_work"
            work.mkdir(exist_ok=True)
            doc["table"] = table_reference(workload, args.table_draws, work)
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
