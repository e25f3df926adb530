#!/usr/bin/env python3
"""Regenerate all figure tables through the CLI.

Writes one CSV (plus its .manifest.json) per preset into the output
directory. Default trial counts match the presets (10^4); pass --trials for
a fast smoke run, e.g. `python3 scripts/make_figures.py --trials 500`.
"""

import argparse
import pathlib
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
        t0 = time.perf_counter()
        code = cli_main(args)
        if code != 0:
            print(f"{name}: failed with exit code {code}", file=sys.stderr)
            return code
        print(f"{name}: wrote {out_dir / (name + '.csv')} in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
