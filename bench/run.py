"""Benchmark of cavityshift: three workloads, each driving
``cavityshift.cli.main`` in-process, closed loop, with one caller.

    python3 bench/run.py --workload mc_study --seed 1 --seconds 10 --trace 0

A round is the workload's whole job (see ``WORKLOADS``).  Rounds repeat
with identical inputs until ``--seconds`` have passed, and at least one
runs; every later round must write byte-identical files to the first.
The first round's files are then checked against computations that use
no package code (``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``job_s`` (median round
time in reference seconds: the round's wall time scaled by the host's
speed over it, as ``speed.SpeedMeter`` samples it in this process; the
wall-time median is printed beside it), ``setup_s`` (median wall time
over fresh processes of start-up to the first timed operation: imports,
inputs, warm-up) and ``peak_rss_mib``.
``--trace 1`` alternates untraced and traced rounds and reports
per-layer metrics of the traced ones; spans go to ``bench/results/``.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Modules that import numpy (checks, layers, speed, cavityshift) are
# imported inside functions, after cap_blas_threads() has set the thread caps.

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / ".runs"
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5

#: Reference experiment of the acceptance suite: the model's design
#: anchors, sigma_R frozen at the 0.1 mK calibration, and 10 fields in
#: [50, 250] G with 200 temperature points.
REFERENCE_MODEL = {"t_c": 1.5, "alpha": 0.6 / 150.0 ** 2, "delta_inf": 0.2,
                   "h_v": 50.0, "cond_scale": 1.0}
REFERENCE_SIGMA_R = 0.0751
REFERENCE_FIELDS = [50.0 + i * 200.0 / 9.0 for i in range(10)]
REFERENCE_SEED = 1


def config_dict(seed: int, *, model=None, sigma_r=REFERENCE_SIGMA_R,
                fields=REFERENCE_FIELDS, repetitions=1) -> dict:
    return {"model": dict(model or REFERENCE_MODEL),
            "instrument": {"resistance_noise": sigma_r},
            "plan": {"fields": list(fields), "n_points": 200, "repetitions": repetitions},
            "seed": seed}


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


class CommandFailed(Exception):
    pass


def call_cli(argv: list[str]) -> None:
    """Run one CLI command in-process, its printing kept off the terminal;
    raise CommandFailed when it exits non-zero or raises."""
    from cavityshift import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            raise CommandFailed(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
    if code != 0:
        raise CommandFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")


# --- workloads ---------------------------------------------------------------

class McStudy:
    """Criterion 5 without calibrating: a signal study and a null-model
    study (delta_inf = 0) of TRIALS trials each at the reference sigma_R."""

    TRIALS = 500

    def __init__(self, seed: int, work: Path):
        self.models = {"signal": REFERENCE_MODEL,
                       "null": {**REFERENCE_MODEL, "delta_inf": 0.0}}
        self.configs = {name: write_config(work / f"{name}.json", config_dict(seed, model=m))
                        for name, m in self.models.items()}

    def commands(self, out: Path) -> list[list[str]]:
        return [["sensitivity", "--config", cfg, "--trials", str(self.TRIALS),
                 "--out", str(out / name)]
                for name, cfg in self.configs.items()]

    def check(self, out: Path) -> list[str]:
        import checks

        failures = []
        reports = {}
        for name in ("signal", "null"):
            reports[name] = json.loads((out / name / "sensitivity.json").read_text())
            _, header, rows = checks.read_table(out / name / "contrast.csv")
            failures += checks.check_contrast(self.models[name], header, rows)
        failures += checks.check_signal_study(reports["signal"])
        failures += checks.check_null_study(reports["null"])
        return failures

    def rates(self, times: list[list[float]]) -> dict[str, tuple[float, str]]:
        round_s = statistics.median(sum(t) for t in times)
        return {"mc_trials_per_s": (2 * self.TRIALS / round_s, "trials/s")}


class Calibration:
    """calibrate_noise at 5% tolerance, 200 trials per evaluation, to the
    reference 0.1 mK target and to a target that doubles the bracket."""

    TOLERANCE = 0.05
    TRIALS = 200
    REFERENCE_TARGET = 0.1
    #: delta_n(sigma_R) is close to 1.353 * sigma_R here, so 0.127 mK lies
    #: above the first probe for every seed: the search doubles the bracket,
    #: re-evaluates the old end and bisects twice, whatever the seed.
    SEARCH_TARGET = 0.127

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.config = write_config(work / "calibration.json", config_dict(seed))
        # The 0.1 mK search path depends on where delta_n(0.0751) falls in
        # the tolerance band, which varies with the seed (5 to 8
        # evaluations over seeds 1-16); the reference seed keeps that cost
        # fixed.  The second target uses the workload seed.
        self.targets = ((self.REFERENCE_TARGET, REFERENCE_SEED), (self.SEARCH_TARGET, seed))

    def commands(self, out: Path) -> list[list[str]]:
        return [["calibrate", "--config", self.config, "--seed", str(seed),
                 "--target", repr(target), "--tolerance", repr(self.TOLERANCE),
                 "--trials", str(self.TRIALS), "--out", str(out / f"target-{target}")]
                for target, seed in self.targets]

    def check(self, out: Path) -> list[str]:
        import checks

        failures = []
        for target, seed in self.targets:
            sigma = json.loads((out / f"target-{target}" / "calibration.json")
                               .read_text())["sigma_r_ohm"]
            probe = self.work / f"verify-{target}"
            probe.mkdir()
            cfg = write_config(probe / "config.json", config_dict(seed, sigma_r=sigma))
            call_cli(["sensitivity", "--config", cfg, "--trials", str(self.TRIALS),
                      "--out", str(probe)])
            delta_n = json.loads((probe / "sensitivity.json").read_text())["delta_n_mK"]
            failures += checks.check_calibration(target, self.TOLERANCE, delta_n)
        return failures

    def rates(self, times: list[list[float]]) -> dict[str, tuple[float, str]]:
        return {f"calibration_s[{target}]": (statistics.median(t[i] for t in times), "s")
                for i, (target, _) in enumerate(self.targets)}


class CliFiles:
    """model-curve on a dense grid, simulate of a many-curve dataset,
    analyze of that dataset, each writing into the round's directory."""

    FIELD_STEP = 0.05
    MODEL_ROWS = 5001
    DATA_FIELDS = [50.0 + i * 200.0 / 39.0 for i in range(40)]
    REPETITIONS = 5

    def __init__(self, seed: int, work: Path):
        import numpy as np

        # the seed shifts the model grid by a fraction of a step
        self.min_field = float(np.random.default_rng(seed).uniform(0.0, self.FIELD_STEP))
        self.max_field = self.min_field + (self.MODEL_ROWS - 1) * self.FIELD_STEP
        self.data = config_dict(seed, fields=self.DATA_FIELDS, repetitions=self.REPETITIONS)
        self.config = write_config(work / "dataset.json", self.data)
        self.curves = 2 * len(self.DATA_FIELDS) * self.REPETITIONS

    def commands(self, out: Path) -> list[list[str]]:
        return [
            ["model-curve", "--config", self.config, "--out", str(out / "model"),
             "--min-field", repr(self.min_field), "--max-field", repr(self.max_field),
             "--step", repr(self.FIELD_STEP)],
            ["simulate", "--config", self.config, "--out", str(out / "run")],
            ["analyze", str(out / "run" / "run.json"), "--out", str(out / "analysis")],
        ]

    def check(self, out: Path) -> list[str]:
        import numpy as np

        import checks
        from cavityshift.config import run_config_from_dict
        from cavityshift.protocol import run_paired_experiment

        model = self.data["model"]
        fields = self.min_field + np.arange(self.MODEL_ROWS) * self.FIELD_STEP
        _, header, rows = checks.read_table(out / "model" / "model_curves.csv")
        failures = checks.check_model_curves(model, fields, header, rows)

        config = run_config_from_dict(self.data)
        memory = [{"field": c.field, "kind": c.kind, "repetition": c.repetition,
                   "temperatures": c.temperatures, "resistances": c.resistances}
                  for c in run_paired_experiment(config.model, config.instrument, config.plan)]
        failures += checks.check_round_trip(checks.read_run_files(out / "run"), memory)

        analysis = json.loads((out / "analysis" / "analysis.json").read_text())
        if analysis["fit_failures"] != 0 or analysis["n_curves"] != self.curves:
            failures.append(f"analysis.json: {analysis['fit_failures']} failed fits of "
                            f"{analysis['n_curves']} curves, expected 0 of {self.curves}")
        tables = {}
        for kind in ("film", "cavity"):
            _, header, rows = checks.read_table(out / "analysis" / f"delta_curve_{kind}.csv")
            tables[kind] = (header, rows)
        failures += checks.check_delta_pulls(model, np.array(self.DATA_FIELDS), tables)
        return failures

    def rates(self, times: list[list[float]]) -> dict[str, tuple[float, str]]:
        model_s, simulate_s, analyze_s = (statistics.median(t[i] for t in times)
                                          for i in range(3))
        return {"model_rows_per_s": (self.MODEL_ROWS / model_s, "rows/s"),
                "simulate_curves_per_s": (self.curves / simulate_s, "curves/s"),
                "analyze_curves_per_s": (self.curves / analyze_s, "curves/s")}


WORKLOADS = {"mc_study": McStudy, "calibration": Calibration, "cli_files": CliFiles}


# --- running -----------------------------------------------------------------

def cap_blas_threads() -> None:
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cores)


def import_package() -> None:
    """Import cavityshift from this checkout's src/, never from elsewhere."""
    if not (SRC_DIR / "cavityshift" / "__init__.py").is_file():
        raise ImportError(f"no cavityshift sources under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import cavityshift

    if Path(cavityshift.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"cavityshift imported from {cavityshift.__file__}, not {SRC_DIR}")


def warm_up(work: Path) -> None:
    """First calls of the hot paths: a paired trial and a small CLI run."""
    from cavityshift.analysis import analyze_dataset
    from cavityshift.config import run_config_from_dict
    from cavityshift.protocol import run_paired_experiment

    config = run_config_from_dict(config_dict(REFERENCE_SEED))
    analyze_dataset(run_paired_experiment(config.model, config.instrument, config.plan))
    call_cli(["model-curve", "--out", str(work / "warm-up"), "--max-field", "10"])


def same_files(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        (a / rel).read_bytes() == (b / rel).read_bytes() for rel in files_a)


class Runner:
    """Runs rounds of one workload and keeps the tallies."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0

    def round(self) -> tuple[float, list[float]]:
        """One round; returns its wall time and per-command wall times."""
        out = self.work / f"round{self.rounds}"
        times = []
        start = time.perf_counter()
        for argv in self.workload.commands(out):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                call_cli(argv)
            except CommandFailed as exc:
                self.failed += 1
                self.errors.append(str(exc))
            times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        if self.rounds > 0:
            if not same_files(self.work / "round0", out):
                self.errors.append(f"round {self.rounds} wrote different files from round 0")
            shutil.rmtree(out)
        self.rounds += 1
        return wall, times

    def rounds_for(self, seconds: float, meter) -> tuple[list[float], list[float],
                                                      list[list[float]]]:
        """Rounds until ``seconds`` have passed; returns each round's wall
        time, its reference time (wall time times the host's speed over
        the round) and its per-command wall times."""
        from speed import relative_speed

        walls, refs, times = [], [], []
        start = time.perf_counter()
        while True:
            meter.take()
            wall, per_command = self.round()
            walls.append(wall)
            refs.append(wall * relative_speed(meter.take()))
            times.append(per_command)
            if time.perf_counter() - start >= seconds:
                return walls, refs, times


def measure_setup(args) -> float:
    """Median wall time of fresh processes that set up and warm up only.

    It is not scaled by host speed: set-up is imports and file reads more
    than computation.  Over 40 probes that each sampled the speed kernel
    themselves, the wall time moved with that speed by an elasticity of
    only 0.17, so scaling by it added spread rather than removing it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: waiting with one polls every 50 ms, which quantizes the sample
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    cap_blas_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        warm_up(work)
        if args.setup_only:
            return 0
        return run(args, Runner(workload, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, runner: Runner) -> int:
    from speed import SpeedMeter

    if args.trace:
        metrics = traced_run(args, runner)
    else:
        with SpeedMeter() as meter:
            walls, refs, times = runner.rounds_for(args.seconds, meter)
        for name, (value, unit) in runner.workload.rates(times).items():
            print(f"{name} {value:.6g} {unit} (wall)")
        print(f"job_wall_s {statistics.median(walls):.6g} s over {len(walls)} rounds")
        metrics = {
            "job_s": (statistics.median(refs), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (measure_setup(args), "s"),
        }
    failures = list(runner.errors)
    try:
        failures += runner.workload.check(runner.work / "round0")
    except (OSError, KeyError, ValueError, CommandFailed) as exc:
        failures.append(f"outputs could not be checked: {type(exc).__name__}: {exc}")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_run(args, runner: Runner) -> dict:
    """Alternate untraced and traced rounds; the untraced ones are the
    baseline of the tracing overhead."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(runner.round()[0])
        layers.install(tracer)
        try:
            traced.append(runner.round()[0])
        finally:
            tracer.unpatch()
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics, extra = layers.layer_metrics(tracer, traced, 100.0 * overhead)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(RESULTS_DIR / f"spans-{stem}.json.gz")
    (RESULTS_DIR / f"layers-{stem}.json").write_text(json.dumps(
        {"rounds": len(traced), "metrics": {k: v for k, (v, _) in metrics.items()},
         "workload_specific": extra}, indent=2, sort_keys=True) + "\n")
    for name, value in extra.items():
        if value is not None:
            print(f"{name} {value:.6g}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
