#!/usr/bin/env python3
"""Regenerate all figure tables through the CLI.

Writes one CSV (plus its .manifest.json) per preset into the output
directory. Default trial counts match the presets (10^4); pass --trials for
a fast smoke run, e.g. `python3 scripts/make_figures.py --trials 500`.
Each preset's line gives its seconds and the minor page faults of its run
(the ru_minflt delta of this process: pages it touched for the first time,
which also depends on the presets run before it). A last line gives the
process's peak resident set size (ru_maxrss), which counts the buffers and
caches that outlive a run.
"""

import argparse
import pathlib
import resource
import sys
import time

from hbnoma.cli import main as cli_main
from hbnoma.montecarlo import PRESETS


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out", help="directory for the CSV tables")
    parser.add_argument("--only", nargs="*", choices=PRESETS, help="subset of figures")
    parser.add_argument("--trials", type=int, help="override preset trial counts")
    parser.add_argument("--seed", type=int, help="override preset seeds")
    parser.add_argument("--workers", type=int, default=1)
    ns = parser.parse_args(argv)

    out_dir = pathlib.Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ns.only or PRESETS:
        args = ["figure", name, "--out", str(out_dir / f"{name}.csv")]
        if ns.trials is not None:
            args += ["--trials", str(ns.trials)]
        if ns.seed is not None:
            args += ["--seed", str(ns.seed)]
        args += ["--workers", str(ns.workers)]
        t0, faults = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        code = cli_main(args)
        if code != 0:
            print(f"{name}: failed with exit code {code}", file=sys.stderr)
            return code
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(f"{name}: wrote {out_dir / (name + '.csv')} in {time.perf_counter() - t0:.1f}s, "
              f"{faults} minor page faults")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"peak RSS {peak_kib / 1024:.1f} MiB (ru_maxrss)")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
