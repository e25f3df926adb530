"""The three benchmark workloads and their fixed input sizes.

Each workload has a *throughput* path and a *latency* path:

* ``size_sweep`` and ``snr_sweep`` run a figure preset through the ``hbnoma``
  CLI entry point, called in-process, at a reduced trial count; one such
  CLI run is a *rep*. Their latency path calls ``trial_metrics`` on one
  representative random cell of the same preset.
* ``single_draw`` is the library path: ``trial_metrics`` once per draw on
  the fig4a layout. Its throughput and latency come from the same calls.

A draw is one trial of one random cell, or the single evaluation of an
RNG-free ``b=0`` cell; draws a run excludes still count as attempted.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, replace

import hbnoma
from hbnoma import ClusterSpec, cli


CELL_SNR_DB = 15.0


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str  # figure preset behind both paths
    trials: int  # --trials of one CLI rep; 0 means no CLI path (single_draw)
    cell_b: float  # misalignment of the latency cell, degrees
    cell_size: int | None  # observed-cluster size of the latency cell, if resized

    @property
    def sweep(self) -> bool:
        return self.trials > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("size_sweep", "fig4c", trials=20, cell_b=3.0, cell_size=20),
        Workload("snr_sweep", "fig5", trials=60, cell_b=2.0, cell_size=None),
        Workload("single_draw", "fig4a", trials=0, cell_b=3.0, cell_size=None),
    )
}


def cell_config(workload: Workload):
    """(ScenarioConfig, snr_db) of the workload's latency cell, built through the public API."""
    spec = hbnoma.preset(workload.preset)
    cfg = spec.scenario
    if workload.cell_size is not None:
        clusters = list(cfg.clusters)
        idx = spec.observe_cluster - 1
        gains = tuple(float(-k) for k in range(workload.cell_size))
        clusters[idx] = ClusterSpec(aod_deg=clusters[idx].aod_deg, gains_db=gains)
        cfg = replace(cfg, clusters=tuple(clusters))
    return replace(cfg, misalign_deg=workload.cell_b), CELL_SNR_DB


def draws_per_rep(workload: Workload, trials: int | None = None) -> int:
    """Draws in one CLI rep: one per RNG-free b=0 cell, `trials` per random cell."""
    trials = workload.trials if trials is None else trials
    spec = hbnoma.preset(workload.preset)
    grid = spec.misalign_grid if spec.misalign_grid is not None else (spec.scenario.misalign_deg,)
    tasks = 1 if spec.sweep_name == "snr_db" else len(spec.sweep_values)
    return sum(tasks * (1 if b == 0.0 else trials) for b in grid)


def excluded_draws(manifest: dict) -> int:
    """Excluded draws of one CLI rep, from its manifest.

    An SNR sweep shares each draw across its sweep values, so its per-value
    cells repeat one count; other sweeps have one draw set per value.
    """
    cells = [c for c in manifest["cells"] if c["system"] not in ("fd", "oma")]
    if manifest["config"]["sweep"]["name"] == "snr_db":
        per_system = {}
        for c in cells:
            per_system[c["system"]] = c["excluded"]
        return sum(per_system.values())
    return sum(c["excluded"] for c in cells)


def run_cli(
    workload: Workload, out: str, seed: int, trials: int | None = None
) -> tuple[int, tuple[float, float]]:
    """One CLI rep in-process: (exit code, (start, end) perf_counter). Its stdout is dropped."""
    trials = workload.trials if trials is None else trials
    argv = ["figure", workload.preset, "--out", out, "--trials", str(trials),
            "--seed", str(seed), "--workers", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)  # looked up per call, so a traced wrapper is seen
        end = time.perf_counter()
    return code, (start, end)


def rep_seed(run_seed: int, rep: int) -> int:
    """Seed of one rep (or of one run's latency calls) derived from the run seed."""
    return (int(run_seed) * 1_000_003 + rep) % (2**31)
