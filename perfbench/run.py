"""Benchmark of ``iterlearn simulate`` and ``iterlearn check``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload drift_sim --seed 1 --seconds 20 --trace 0

The run makes its experiment from ``--seed``, times whole rounds of the
workload's command in this process for ``--seconds`` seconds, launches
fresh interpreters to time set-up, checks every round against the
oracles in ``oracles.py``, and prints one JSON object as the last line
of standard output.  ``--trace 1`` reports the per-layer figures
instead of the end-to-end ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

WORKLOADS = {
    # the paper's example: the per-iteration engine does almost all the work
    "drift_sim": {"command": "simulate", "horizon": 20, "seeds": 8, "iterations": 2000},
    # 100-wide steps, few iterations, 300-dimensional condition reports
    "wide_sim": {"command": "simulate", "horizon": 100, "seeds": 8, "iterations": 500},
    # no learning loop: condition reports and a certificate search of 18 verifies
    "wide_check": {"command": "check", "horizon": 100, "seeds": 4, "eta": 0.05},
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "setup.modules_loaded": "count",
    "cli.load_experiment.s": "s",
    "learner.run.s": "s",
    "learner.run.calls": "count",
    "learner.run.us_per_iter": "us",
    "plant.generate_N.s": "s",
    "plant.generate_N.calls": "count",
    "observer.eso_step.s": "s",
    "observer.eso_step.calls": "count",
    "learner.write_trace_csv.s": "s",
    "learner.csv_mb": "MB",
    "svgplot.write_convergence_svg.s": "s",
    "svgplot.points": "count",
    "cli.simulation_config.s": "s",
    "cli.simulation_config.calls": "count",
    "plant.lift_ilc.s": "s",
    "plant.lift_ilc.calls": "count",
    "cli.plant_for.calls": "count",
    "cli.condition_reports.s": "s",
    "cli.condition_reports.calls": "count",
    "stability.check_condition.s": "s",
    "stability.check_condition.calls": "count",
    "matanalysis.spectral_radius.s": "s",
    "matanalysis.spectral_radius.calls": "count",
    "matanalysis.spectral_radius.max_dim": "count",
    "stability.lmi_search.s": "s",
    "stability.lmi_verify.s": "s",
    "stability.lmi_verify.calls": "count",
    "stability.lmi_search.found_per_verify": "ratio",
    "matanalysis.is_negative_definite.s": "s",
    "matanalysis.is_negative_definite.calls": "count",
    "stability.save_certificate.s": "s",
    "trace.overhead_s": "s",
}

#: fresh-interpreter launches timed per run, after one untimed launch that
#: writes the bytecode caches
SETUP_LAUNCHES = 7


def pin_environment() -> None:
    """One BLAS thread; the simulate thread pool left as shipped.

    OpenBLAS starts its own pool when numpy is imported; on a small shared
    machine that pool adds set-up CPU and spreads the timings, so it is
    pinned here, before anything imports numpy, and in every child.
    ``ITERLEARN_THREADS`` is removed so the program's default is measured.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("ITERLEARN_THREADS", None)
    paths = [str(SRC), str(BENCH_DIR)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def time_setup(config: Path) -> list[dict]:
    """Launch fresh interpreters until the config is loaded; one dict each."""
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), str(config)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        if i > 0:
            launches.append(dict(json.loads(line), setup_s=elapsed))
    return launches


def run_round(check, config: Path, out: Path) -> tuple[float, float, object]:
    """One command in this process: wall time, CPU time, collected outputs."""
    from iterlearn import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argv = check.argv(config, out)
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        code = cli.main(argv)
    except Exception:  # a crashed round is a failed round, not a dead benchmark
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if code != 0:
        print(f"perfbench: round exited with {code}", file=sys.stderr)
        return wall, cpu, None
    return wall, cpu, check.collect(out)


def run_rounds(check, config: Path, run_dir: Path, until: float, records: list):
    """Whole rounds until ``until``; the first round ever keeps its outputs."""
    walls, cpus = [], []
    while True:
        out = run_dir / ("out0" if not records else "out")
        wall, cpu, record = run_round(check, config, out)
        walls.append(wall)
        cpus.append(cpu)
        records.append(record)
        if record is None or time.perf_counter() >= until:
            return walls, cpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "iterlearn" / "cli.py").is_file():
        print(f"perfbench: no iterlearn sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = bench(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def bench(args, run_dir: Path) -> dict:
    import checks
    import tracing

    spec = WORKLOADS[args.workload]
    config, seeds = checks.make_experiment(spec, args.seed, run_dir / "inputs")
    check = checks.CHECKS[spec["command"]](spec, seeds)
    launches = time_setup(config)

    start = time.perf_counter()
    records: list = []
    if args.trace:
        plain_walls, _ = run_rounds(check, config, run_dir, start + args.seconds / 2, records)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            walls, _ = run_rounds(check, config, run_dir, start + args.seconds, records)
        finally:
            tracer.remove()
    else:
        walls, cpus = run_rounds(check, config, run_dir, start + args.seconds, records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, problems = check.evaluate(records, run_dir / "out0")
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        values = tracing.layer_metrics(tracer, len(walls))
        values["setup.import_s"] = statistics.median(l["import_s"] for l in launches)
        values["setup.modules_loaded"] = statistics.median(
            l["modules_loaded"] for l in launches
        )
        values["cli.load_experiment.s"] = statistics.median(
            l["load_experiment_s"] for l in launches
        )
        values["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain_walls)
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(l["setup_s"] for l in launches),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
