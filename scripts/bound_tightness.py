#!/usr/bin/env python3
"""Print exact rates next to their analytic bounds for one small layout.

Library-API walkthrough: two clusters, three users, averaged over a few
hundred misaligned draws per SNR, evaluated as one block_metrics call each. Columns are the per-user exact rate, the
two lower bounds, and the aligned-minus-misaligned gap with its upper bound.
"""

import argparse

import numpy as np

from hbnoma import ClusterSpec, ScenarioConfig, block_metrics


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--misalign-deg", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=7)
    ns = parser.parse_args(argv)

    cfg = ScenarioConfig(
        clusters=(
            ClusterSpec(aod_deg=12.0, gains_db=(0.0, -3.0)),
            ClusterSpec(aod_deg=55.0, gains_db=(0.0,)),
        ),
        misalign_deg=ns.misalign_deg,
    )
    print(f"{'snr_db':>6} {'user':>6} {'exact':>8} {'lb1':>8} {'lb2':>8} {'gap':>8} {'gap_ub':>8}")
    for snr_db in (0.0, 10.0, 20.0, 30.0):
        block = block_metrics(cfg, seed=ns.seed, trials=range(ns.trials), snr_db=snr_db)
        cols = np.stack(
            [block.rate_exact, block.rate_lb_thm1, block.rate_lb_thm2, block.rate_gap,
             np.where(block.gap_ub_applicable, block.gap_ub_thm3, np.nan)]
        )
        mean = cols.mean(axis=1)
        for i, (c, u) in enumerate(zip(block.cluster, block.user)):
            ub = f"{mean[4, i]:8.3f}" if np.isfinite(mean[4, i]) else "     n/a"
            print(
                f"{snr_db:6.0f} U_{c},{u}".ljust(14)
                + f"{mean[0, i]:8.3f} {mean[1, i]:8.3f} {mean[2, i]:8.3f} {mean[3, i]:8.3f} {ub}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
