#!/usr/bin/env python3
"""hbnoma benchmark: draws per second and per-draw latency on three workloads.

Run from the repository root:

    python3 hbbench/run.py --workload size_sweep --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another, each in a
child process of its own so that each reports its own peak memory.
``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same work untraced and then traced, and reports
per-module call counts and self times from the traced pass. Every
output is checked against ``reference/<workload>.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory for the definitions.
"""

import os

# one BLAS/OpenMP thread, set before anything imports numpy; fresh processes
# started for the set-up measurement inherit it
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

Span = tuple[float, float]  # perf_counter at the start and the end of a timed operation

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_EVERY = 4.0  # seconds of a run between set-up measurements (fresh processes)
LATENCY_MIN_CALLS = 1000  # the p99 then has at least ten samples beyond it
LATENCY_CAP = 3  # a run stops at this multiple of --seconds even if short of that
SINGLE_BLOCK = 20  # single_draw calls per throughput unit
CALLS_PER_UNIT_TIME = 0.5  # sweeps: time on latency calls per unit of time on CLI reps
TRACE_UNTRACED_SHARE = 0.4  # of --seconds, on the untraced pass of a traced run
LATENCY_STREAM = 10**6  # rep index whose seed keys a run's trial_metrics calls

END_TO_END = (
    ("setup_s", "s"),
    ("draws_per_s", "1/s"),
    ("draw_ms_p50", "ms"),
    ("draw_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)
LAYERS = ("channel", "beamforming", "bounds", "noma", "numerics", "montecarlo", "cli")
FUNCTIONS = (
    "channel.synthesize_scenario",
    "channel.collinearity_sum",
    "beamforming.effective_channel",
    "bounds.misalignment_factor",
    "numerics.gram_max_eigen",
    "numerics.hermitian_inverse",
    "noma.fully_digital_rates",
    "noma.oma_rate",
    "cli.write_table_csv",
    "cli.write_sum_rate_csv",
    "cli.write_manifest",
)


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for m in LAYERS:
        names += [
            (f"{m}.calls_per_draw", "calls/draw"),
            (f"{m}.self_ms_per_draw", "ms/draw"),
            (f"{m}.share", "fraction"),
        ]
    for f in FUNCTIONS:
        names += [(f"{f}.calls_per_draw", "calls/draw"), (f"{f}.self_ms_per_draw", "ms/draw")]
    return names + [("montecarlo.excluded_frac", "fraction"), ("trace_overhead", "ratio")]


class Run:
    """One workload's operations, their checks and their timings."""

    def __init__(self, workload, seed: int):
        import hbnoma
        from check import CellCheck, TableCheck
        from workloads import cell_config, draws_per_rep

        self.hbnoma = hbnoma
        self.excludable = (
            hbnoma.SingularMatrix,
            hbnoma.DegenerateScenario,
            hbnoma.DegenerateSubspace,
        )
        self.workload = workload
        self.seed = seed
        ref = json.loads((HERE / "reference" / f"{workload.name}.json").read_text("utf-8"))
        self.ref = ref
        self.table_check = TableCheck(ref["table"]) if workload.sweep else None
        self.cell_check = CellCheck(ref["cell"])
        # built once here: these call into hbnoma, which a traced pass would record
        self.cell, self.snr_db = cell_config(workload)
        self.rep_draws = draws_per_rep(workload) if workload.sweep else 0
        self.out = str(WORK / f"{workload.name}.csv")
        self.attempted = 0
        self.failed = 0
        self.draws = 0
        self.excluded = 0
        self.byte_identical = 0
        self.byte_compared = 0
        self.problems: list[str] = []
        self.pooling = True  # off while repeating draws already pooled

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:5])

    def rep(self, seed: int, trials: int | None = None) -> Span | None:
        """One CLI rep; its timed span, or None if it raised or failed its check."""
        from workloads import draws_per_rep, excluded_draws, run_cli

        w = self.workload
        trials = w.trials if trials is None else trials
        self.attempted += 1
        try:
            code, span = run_cli(w, self.out, seed, trials)
        except Exception:  # an operation that raised is a failed operation
            self._fail([traceback.format_exc()])
            return None
        if code != 0:
            self._fail([f"CLI exited {code} at seed {seed}"])
            return None
        text = Path(self.out).read_text(encoding="utf-8")
        manifest = json.loads(Path(self.out + ".manifest.json").read_text(encoding="utf-8"))
        table = self.ref["table"]
        if seed == table["byte_seed"] and trials == table["byte_trials"]:
            self.byte_compared += 1
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            self.byte_identical += digest == table["byte_sha256"]
        # draws_per_rep calls into hbnoma, which a traced pass would record
        self.draws += self.rep_draws if trials == w.trials else draws_per_rep(w, trials)
        self.excluded += excluded_draws(manifest)
        problems = self.table_check.add(text, trials, pool=self.pooling)
        if problems:
            self._fail(problems)
            return None
        return span

    def call(self, seed: int, trial: int) -> Span | None:
        """One trial_metrics draw on the latency cell; its timed span, or None on failure."""
        self.attempted += 1
        self.draws += 1
        start = time.perf_counter()
        try:
            tm = self.hbnoma.trial_metrics(self.cell, seed=seed, trial=trial, snr_db=self.snr_db)
        except self.excludable:
            self.excluded += 1
            return start, time.perf_counter()
        except Exception:
            self._fail([traceback.format_exc()])
            return None
        span = start, time.perf_counter()
        problems = self.cell_check.add(tm, pool=self.pooling)
        if problems:
            self._fail(problems)
            return None
        return span

    def finish(self) -> bool:
        """Pooled test of the random cells; a failure fails every operation of the run."""
        problems = self.cell_check.finish()
        if self.table_check is not None:
            problems += self.table_check.finish()
        if problems:
            self.problems.extend(problems[:10])
            self.failed = self.attempted
        return self.failed == 0

    def tested_cells(self) -> int:
        n = self.cell_check.pool.tested()
        if self.table_check is not None:
            n += self.table_check.pool.tested()
        return n

    # -- units of work -------------------------------------------------------

    def warm_up(self) -> None:
        """Untimed first operations: caches fill, and the CSV is compared byte for byte."""
        if self.workload.sweep:
            table = self.ref["table"]
            self.rep(table["byte_seed"], table["byte_trials"])
        self.call(self.call_seed, 10 * LATENCY_STREAM)

    @property
    def call_seed(self) -> int:
        from workloads import rep_seed

        return rep_seed(self.seed, LATENCY_STREAM)

    def unit(self, index: int) -> tuple[list[Span], int] | None:
        """One throughput unit: (timed spans, draws), None on failure.

        A unit is one CLI rep for a sweep workload and a block of
        SINGLE_BLOCK trial_metrics calls, one span each, for single_draw.
        """
        from workloads import rep_seed

        if self.workload.sweep:
            span = self.rep(rep_seed(self.seed, index))
            return None if span is None else ([span], self.rep_draws)
        spans = []
        for k in range(SINGLE_BLOCK):
            span = self.call(self.call_seed, index * SINGLE_BLOCK + k)
            if span is None:
                return None
            spans.append(span)
        return spans, SINGLE_BLOCK


def setup_command(workload) -> list[str]:
    """A fresh process that imports hbnoma and hbnoma.cli and builds the workload's spec."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); "
        f"import hbnoma, hbnoma.cli; hbnoma.preset({workload.preset!r})"
    )
    return [sys.executable, "-c", code]


def time_setup(cmd: list[str]) -> Span:
    start = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT)
    return start, time.perf_counter()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1] if len(values) >= 2 else float("nan")


def _keep_going(start: float, seconds: float, latency_samples: int) -> bool:
    """Measure for `seconds`, longer (up to a cap) until the p99 has its samples."""
    elapsed = time.perf_counter() - start
    if elapsed < seconds:
        return True
    return latency_samples < LATENCY_MIN_CALLS and elapsed < LATENCY_CAP * seconds


def _ratio(raw: float, scaled: float) -> float:
    return raw / scaled if scaled else float("nan")


def run_untraced(run: Run, seconds: float) -> dict:
    """End-to-end metrics of one workload."""
    from yardstick import REF_S, Speed

    cmd = setup_command(run.workload)
    time_setup(cmd)  # untimed: byte-compiles, fills the page cache
    run.warm_up()
    # timed spans: set-up processes, throughput units (spans, draws), latency calls
    setup, units, latencies = [], [], []
    # sweep workloads interleave CLI reps and latency calls, so both see the
    # whole run; the CLI reps get most of it
    unit_time = call_time = 0.0
    index = trial = 0
    with Speed() as speed:
        start = time.perf_counter()
        while _keep_going(start, seconds, len(latencies)):
            t0 = time.perf_counter()
            if t0 - start >= SETUP_EVERY * len(setup):
                # set-up samples spread over the run see the same machine as the draws
                setup.append(time_setup(cmd))
                continue
            if not run.workload.sweep or unit_time * CALLS_PER_UNIT_TIME <= call_time:
                unit = run.unit(index)
                index += 1
                unit_time += time.perf_counter() - t0
                if unit is not None:
                    units.append(unit)
                    if not run.workload.sweep:
                        latencies += unit[0]
            else:
                span = run.call(run.call_seed, trial)
                trial += 1
                call_time += time.perf_counter() - t0
                if span is not None:
                    latencies.append(span)
        span_s = time.perf_counter() - start
    ok = run.finish()

    def timed(scale):
        """The timed metrics over the whole run; `scale(span)` gives a span's seconds."""
        latency_s = [scale(s) for s in latencies]
        unit_s = sum(scale(s) for spans, _ in units for s in spans)
        return {
            "setup_s": _median([scale(s) for s in setup]),
            "draws_per_s": sum(d for _, d in units) / unit_s if units else float("nan"),
            "draw_ms_p50": 1e3 * _percentile(latency_s, 50),
            "draw_ms_p95": 1e3 * _percentile(latency_s, 95),
        }

    raw = timed(lambda s: speed.net(*s))
    metrics = timed(lambda s: speed.net(*s) * speed.factor(*s))
    latency_s = [speed.net(*s) * speed.factor(*s) for s in latencies]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total_draws = sum(d for _, d in units)
    return {
        "ok": ok,
        "metrics": metrics,
        "notes": {
            "unscaled": {m: round(v, 6) for m, v in raw.items()},
            # a change that moved the yardstick itself would show in these two
            "unscaled_over_scaled": {m: round(_ratio(v, metrics[m]), 4) for m, v in raw.items()},
            "yardstick_ms": f"{1e3 * statistics.mean(speed.samples):.4f} mean of "
            f"{len(speed.samples)} samples, {sum(speed.samples) / span_s:.4f} of the run "
            f"(REF_S {1e3 * REF_S:.4f})",
            "setup_processes": len(setup),
            "throughput_units": len(units),
            "throughput_draws": total_draws,
            "latency_samples": len(latencies),
            "draw_ms_p99": f"{1e3 * _percentile(latency_s, 99):.6g} ms",
        },
    }


def run_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics: the same units untraced, then traced."""
    from tracer import Tracer, summarize
    from yardstick import Speed

    run.warm_up()
    speed_untraced, speed_traced = Speed(), Speed()
    start = time.perf_counter()
    untraced = []
    while time.perf_counter() - start < TRACE_UNTRACED_SHARE * seconds:
        speed_untraced.maybe_sample()
        untraced.append(run.unit(len(untraced)))
    draws_before, excluded_before = run.draws, run.excluded
    run.pooling = False  # the traced pass repeats the untraced draws
    traced = []
    with Tracer() as tracer:
        for index in range(len(untraced)):
            speed_traced.maybe_sample()
            traced.append(run.unit(index))
    installed = tracer.installed_names()
    f = speed_traced.factor()
    ok = run.finish()
    draws = run.draws - draws_before
    excluded = run.excluded - excluded_before
    wall_untraced = sum(t1 - t0 for u in untraced if u is not None for t0, t1 in u[0])
    wall_traced = sum(t1 - t0 for u in traced if u is not None for t0, t1 in u[0])

    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"trace_{run.workload.name}.npz"))
    summary = summarize(tracer)
    metrics = {}
    for m in LAYERS:
        mod = summary["modules"].get(m, {"calls": 0, "self_s": 0.0})
        metrics[f"{m}.calls_per_draw"] = mod["calls"] / draws
        metrics[f"{m}.self_ms_per_draw"] = 1e3 * mod["self_s"] * f / draws
        metrics[f"{m}.share"] = mod["self_s"] / wall_traced
    for name in FUNCTIONS:
        fun = summary["functions"].get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls_per_draw"] = fun["calls"] / draws
        metrics[f"{name}.self_ms_per_draw"] = 1e3 * fun["self_s"] * f / draws
    metrics["montecarlo.excluded_frac"] = excluded / draws
    metrics["trace_overhead"] = (wall_traced * f) / (wall_untraced * speed_untraced.factor())
    covered = sum(m["self_s"] for m in summary["modules"].values())
    other = sorted(set(summary["modules"]) - set(LAYERS))
    return {
        "ok": ok,
        "metrics": metrics,
        "notes": {
            "traced_units": len(traced),
            "traced_draws": draws,
            "spans": len(tracer.fn_ids),
            "self_time_coverage": covered / wall_traced,
            "wrappers_installed": f"{len(installed)}: {', '.join(installed)}",
            "modules_outside_layers": other,
            "missing_functions": [name for name in FUNCTIONS if name not in installed],
            "speed_factor": f"{f:.4f} over {len(speed_traced.samples)} yardstick samples",
        },
    }


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    run = Run(WORKLOADS[name], seed)
    result = run_traced(run, seconds) if trace else run_untraced(run, seconds)
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        problems=run.problems,
        byte_identical=f"{run.byte_identical}/{run.byte_compared}",
        random_cells_tested=run.tested_cells(),
    )
    return result


def report(name: str, result: dict, units: dict) -> None:
    print(f"== {name}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:44s} {value:14.6g} {units[metric]}")
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"  {'failed_frac':44s} {failed_frac:14.6g} fraction "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"  byte-identical CSVs: {result['byte_identical']}; "
          f"random cells tested: {result['random_cells_tested']}")
    for key, value in result["notes"].items():
        print(f"  {key}: {value}")
    for problem in result["problems"][:10]:
        print(f"  problem: {problem}", file=sys.stderr)


def run_children(names: list[str], args) -> int:
    """`--workload all`: each workload in a child process, its result lines merged.

    A process's peak memory never goes down, so one process per workload
    is what lets each report its own.
    """
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="size_sweep, snr_sweep, single_draw, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hbnoma" / "__init__.py").is_file():
        print(f"error: no hbnoma sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2
    if len(names) > 1:
        return run_children(names, args)
    name = names[0]
    WORK.mkdir(exist_ok=True)
    units = dict(per_layer_names() if args.trace else END_TO_END)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    result = run_workload(name, args.seed, args.seconds, bool(args.trace))
    report(name, result, units)
    print(json.dumps({
        "correct": result["ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
