#!/usr/bin/env python3
"""Compare two per-user result tables written by `hbnoma run` or `hbnoma figure`.

    python3 scripts/compare_tables.py OLD.csv NEW.csv

Rows are matched on (scenario_id, sweep_name, sweep_value, cluster, user).
RNG-free rows (one trial, stderr 0) must match in every column to 1e-12
relative, magnitudes below 1 counting as 1, and empty cells must stay empty.
A random row gives z = |rate_exact change| / sqrt(se_old^2 + se_new^2), and
its empty cells must stay empty too. The script prints, per system, the rows
compared, the RNG-free mismatches, the largest z and the count with z > 4,
then, per system with random rows, the largest relative change of each value
column over them (on the same scale as above). It exits 1 on any mismatch,
any z > 4, any random cell that is empty in one table only, or differing row
sets, and 0 otherwise. Use it to check a deliberate change of the random
stream (the means must move by no more than their stderrs say) or of the
numerics (the changes must stay at rounding level).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

EXACT_RTOL = 1e-12
Z_LIMIT = 4.0
KEY = ("scenario_id", "sweep_name", "sweep_value", "cluster", "user")


def read_table(path: str) -> dict[tuple[str, ...], dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {tuple(row[k] for k in KEY): row for row in csv.DictReader(fh)}


def change(old: str, new: str) -> float:
    """|new - old| / max(|old|, 1); 0 for two empty cells, inf when one is empty."""
    if old == "" or new == "":
        return 0.0 if old == new else math.inf
    x, y = float(old), float(new)
    return 0.0 if x == y else abs(x - y) / max(abs(x), 1.0)


def same_cell(old: str, new: str) -> bool:
    return change(old, new) <= EXACT_RTOL


def z_score(old: dict[str, str], new: dict[str, str]) -> float:
    diff = abs(float(new["rate_exact"]) - float(old["rate_exact"]))
    scale = math.hypot(float(old["stderr"]), float(new["stderr"]))
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / scale


def compare(old_rows, new_rows) -> tuple[dict[str, dict], list[str]]:
    """Per-system summary and the list of problems found."""
    problems = []
    if old_rows.keys() != new_rows.keys():
        missing = sorted(old_rows.keys() - new_rows.keys())[:3]
        extra = sorted(new_rows.keys() - old_rows.keys())[:3]
        problems.append(f"row sets differ: missing {missing}, unexpected {extra}")
    summary: dict[str, dict] = {}
    for key in sorted(old_rows.keys() & new_rows.keys()):
        old, new = old_rows[key], new_rows[key]
        stats = summary.setdefault(
            key[0], {"rows": 0, "exact": 0, "mismatch": 0, "max_z": 0.0, "over": 0}
        )
        stats["rows"] += 1
        if old["trials"] == "1" and float(old["stderr"]) == 0.0:
            stats["exact"] += 1
            bad = [col for col in old if col not in KEY and not same_cell(old[col], new[col])]
            if bad:
                stats["mismatch"] += 1
                problems.append(f"{'|'.join(key)}: RNG-free row differs in {', '.join(bad)}")
            continue
        moved = stats.setdefault("moved", {})
        for col in (col for col in old if col not in KEY):
            moved[col] = max(moved.get(col, 0.0), change(old[col], new[col]))
            if (old[col] == "") != (new[col] == ""):
                problems.append(f"{'|'.join(key)}: {col} is empty in one table only")
        z = z_score(old, new)
        stats["max_z"] = max(stats["max_z"], z)
        if z > Z_LIMIT:
            stats["over"] += 1
            problems.append(f"{'|'.join(key)}: rate_exact moved by z = {z:.2f}")
    return summary, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="table from the reference version")
    parser.add_argument("new", help="table from the version under test")
    args = parser.parse_args(argv)
    summary, problems = compare(read_table(args.old), read_table(args.new))
    header = ("rows", "rng-free", "mismatch", "max z", "z>4")
    print(f"{'system':24s} " + " ".join(f"{h:>8s}" for h in header))
    for system, s in summary.items():
        print(
            f"{system:24s} {s['rows']:8d} {s['exact']:8d} {s['mismatch']:8d} "
            f"{s['max_z']:8.2f} {s['over']:8d}"
        )
    moved = {system: s["moved"] for system, s in summary.items() if "moved" in s}
    if moved:
        columns = list(next(iter(moved.values())))
        print("largest relative change over the random rows")
        print(f"{'system':24s} " + " ".join(f"{c:>12s}" for c in columns))
        for system, cols in moved.items():
            print(f"{system:24s} " + " ".join(f"{cols[c]:12.1e}" for c in columns))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
