#!/usr/bin/env python3
"""Time two source trees of hbnoma against each other in one process.

    python3 scripts/ab_time.py OLD_SRC NEW_SRC [REPS [WORKLOAD ...]]

OLD_SRC and NEW_SRC are directories holding an `hbnoma` package, such as
the `src` of two checkouts (`git archive` one into a scratch directory).
The package imports itself only relatively, so each tree's `hbnoma` is
copied into a temporary directory under a name of its own and both load
side by side. Each rep times, on each side, one CLI run shaped like a
benchmark workload and a batch of library calls:

- `size_sweep`: `hbnoma figure fig4c --trials 20 --workers 1`;
- `snr_sweep`: `hbnoma figure fig5 --trials 60 --workers 1`;
- `single_draw`: 100 `trial_metrics` calls on the fig4a layout at b = 3,
  15 dB.

Workload names after REPS time those workloads alone (default: all three).
The sides alternate which goes first from rep to rep, and both use the same
seed in a rep, so a slow stretch of a noisy host falls on both. For each
workload it prints each side's median milliseconds per rep and the median,
first and third quartile of the per-rep ratios old / new (above 1: the new
tree is faster). REPS defaults to 20. Like the benchmark, it runs BLAS on
one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

CALLS = 100  # trial_metrics calls per single_draw rep


def _load(src: str, name: str, root: Path):
    """The hbnoma package of src, imported as `name` from a copy under root."""
    shutil.copytree(Path(src) / "hbnoma", root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name), importlib.import_module(f"{name}.cli")


def _workloads(pkg, cli, out: str):
    """name -> fn(seed) running one rep of that workload on pkg."""

    def figure(name, trials):
        def rep(seed):
            argv = ["figure", name, "--out", out, "--trials", str(trials),
                    "--seed", str(seed), "--workers", "1"]
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{pkg.__name__}: hbnoma {' '.join(argv)} failed")
        return rep

    cell = dataclasses.replace(pkg.preset("fig4a").scenario, misalign_deg=3.0)

    def single(seed):
        for trial in range(CALLS):
            pkg.trial_metrics(cell, seed, trial, snr_db=15.0)

    return {"size_sweep": figure("fig4c", 20), "snr_sweep": figure("fig5", 60), "single_draw": single}


WORKLOADS = ("size_sweep", "snr_sweep", "single_draw")


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 of values (all three the value itself for one value)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    names = argv[3:] or list(WORKLOADS)
    if len(argv) < 2 or not set(names) <= set(WORKLOADS):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print(f"workloads: {' '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    reps = int(argv[2]) if len(argv) > 2 else 20
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sys.path.insert(0, tmp)
        try:
            sides = [
                _workloads(*_load(src, f"hbnoma_{tag}", root), str(root / f"{tag}.csv"))
                for src, tag in zip(argv[:2], ("old", "new"))
            ]
            sides = [{name: side[name] for name in names} for side in sides]
            for side in sides:  # warm both up: imports, layout caches
                for rep in side.values():
                    rep(0)
            times = {name: ([], []) for name in sides[0]}
            for r in range(reps):
                for name in times:
                    for s in (0, 1) if r % 2 == 0 else (1, 0):
                        start = time.perf_counter()
                        sides[s][name](r + 1)
                        times[name][s].append(time.perf_counter() - start)
        finally:
            sys.path.remove(tmp)
    print(f"{'workload':<12} {'old_ms':>9} {'new_ms':>9} {'old/new':>8} {'q1':>7} {'q3':>7}"
          f"  ({reps} paired reps)")
    for name, (old, new) in times.items():
        q1, ratio, q3 = _quartiles([a / b for a, b in zip(old, new)])
        print(f"{name:<12} {1e3 * statistics.median(old):9.2f} "
              f"{1e3 * statistics.median(new):9.2f} {ratio:8.3f} {q1:7.3f} {q3:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
