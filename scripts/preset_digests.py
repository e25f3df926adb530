#!/usr/bin/env python3
"""Print a SHA-256 digest of every table the figure presets write.

Runs each preset in-process through the CLI into a temporary directory and
prints one `name sha256` line per written CSV and one per manifest `cells`
block (trials and exclusions per cell; the rest of a manifest holds wall
time). fig5's `figure` command writes the sum-rate CSV; its per-user table,
with the fd and oma rows, is written from the dumped config as `fig5-table`.
Two checkouts wrote the same bytes when their outputs do not differ:

    python3 scripts/preset_digests.py --trials 20 --seed 1 > new.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hbnoma.cli import main as cli_main
from hbnoma.montecarlo import PRESETS


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"hbnoma {' '.join(argv)} exited {code}")


def digests(trials: int, seed: int, workers: int) -> list[tuple[str, str]]:
    """(name, sha256) of each preset's CSV and manifest cells, in PRESETS order."""
    common = ["--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name, ["figure", name]) for name in PRESETS]
        config = str(Path(tmp) / "fig5.json")
        _cli(["figure", "fig5", "--dump-config", config])
        runs.append(("fig5-table", ["run", "--config", config]))
        for name, argv in runs:
            csv_path = str(Path(tmp) / f"{name}.csv")
            _cli(argv + ["--out", csv_path] + common)
            manifest = json.loads(Path(csv_path + ".manifest.json").read_text(encoding="utf-8"))
            out.append((f"{name}.csv", _sha(Path(csv_path).read_bytes())))
            out.append((f"{name}.cells", _sha(json.dumps(manifest["cells"]).encode("utf-8"))))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, required=True, help="trials per random cell")
    parser.add_argument("--seed", type=int, required=True, help="seed of every preset")
    parser.add_argument("--workers", type=int, default=1, help="worker count (default 1)")
    ns = parser.parse_args(argv)
    for name, digest in digests(ns.trials, ns.seed, ns.workers):
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
