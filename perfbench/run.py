#!/usr/bin/env python3
"""Benchmark of the ``vactrap`` CLI.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout; the CLI runs from ``src/`` with
no install.  Each timed sample spawns the workload's commands
(``python -m vactrap.cli ...``), one child process each, and takes wall
time from spawn to exit and CPU time and peak RSS of that child alone
from ``os.wait4``.  Samples repeat until ``--seconds`` have passed, and
each timing is the median over the run's samples: a sample lasts about
a second, so a burst of contention on the shared host moves a few
samples, not the median.  Timings are then scaled to a reference host
speed by a calibration program spawned after each sample.
Children get one BLAS/OpenMP thread, so with ``--threads 2`` a run uses
at most two cores.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced sample and one traced sample (see ``traced_child.py``) and
prints the per-layer metrics.  Outputs are checked by ``gate.py``
outside the timed region.  The last line of standard output is a JSON
object with ``correct``, ``attempted`` (rows), ``failed`` (rows) and
``metrics``; the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import layer_metrics
from workloads import WORKLOADS

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SAMPLE_POINTS = 4
# The host's speed drifts by up to half over minutes, the same for every
# child started in that stretch, so raw timings of one code in two runs
# minutes apart differ by more than any bound.  Timings are therefore
# given at a reference host speed: times CALIBRATION_REF_S over the
# run's median spawn-to-exit time of CALIBRATION, a fixed program that
# does the kinds of work vactrap does (import numpy, Gauss-Legendre
# rules, array trigonometry, a Python loop) and none of its code.  The
# reference is about that median on the 2-vCPU box; it only sets the
# scale.
CALIBRATION = ("import numpy as np\n"
               "for n in (100, 200, 300):\n"
               "    np.polynomial.legendre.leggauss(n)\n"
               "x = np.linspace(0.0, 50.0, 100_000)\n"
               "for _ in range(6):\n"
               "    float(np.sum(np.cos(x) * np.exp(-1e-3 * x)))\n"
               "total = 0.0\n"
               "for i in range(200_000):\n"
               "    total += i * 0.5\n")
CALIBRATION_REF_S = 0.25
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "rows_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer units by the last part of the name; the rest are seconds.
LAYER_UNITS = {"rule_builds": "count", "rule_lookups": "count",
               "integrate_calls": "count", "nodes": "count",
               "output_bytes": "B", "rule_hit_ratio": "ratio",
               "refine_ratio": "ratio", "gradient_ratio": "ratio",
               "worker_busy_frac": "ratio", "ns_per_node": "ns"}
# Spawn to "package imported and config parsed", read off the shared
# monotonic clock that time.perf_counter uses on Linux.
PROBE = ("import sys, time\nimport vactrap.cli\n"
         "from vactrap.config import load_config\n"
         "load_config(sys.argv[1])\nprint(time.perf_counter())\n")


@dataclass
class Child:
    start: float
    wall: float
    cpu: float
    rss_mb: float
    status: int
    stdout: str
    stderr: str


@dataclass
class Sample:
    children: list[Child]
    outputs: list[str]

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)

    @property
    def ok(self) -> bool:
        return all(c.status == 0 for c in self.children)


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], work: Path) -> Child:
    """Run one child to exit; its resources come from wait4 on its pid."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=out,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(start, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, proc.returncode,
                 out_path.read_text(), err_path.read_text())


def run_sample(case, work: Path, traced: bool = False,
               sample_path: Path | None = None) -> Sample:
    children, outputs = [], []
    for index, args in enumerate(case.workload.commands):
        out = work / f"out{index}"
        out.unlink(missing_ok=True)
        cli = [*args, "--config", "case.ini", "--out", out.name]
        if traced:
            last = index == len(case.workload.commands) - 1
            argv = [sys.executable, str(HERE / "traced_child.py"),
                    f"spans{index}.json",
                    str(sample_path if last else work / "nosample.json"),
                    "--", *cli]
        else:
            argv = [sys.executable, "-m", "vactrap.cli", *cli]
        children.append(spawn(argv, work))
        outputs.append(out.read_text() if out.exists() else "")
    return Sample(children, outputs)


def measure_setup(work: Path) -> float:
    """Time from spawn until the package is imported and the config is
    parsed, in a child that does nothing else."""
    child = spawn([sys.executable, "-c", PROBE, "case.ini"], work)
    if child.status != 0:
        raise RuntimeError(f"setup probe failed: {child.stderr}")
    return float(child.stdout) - child.start


def calibrate(work: Path) -> float:
    """Spawn-to-exit time of one CALIBRATION child."""
    child = spawn([sys.executable, "-c", CALIBRATION], work)
    if child.status != 0:
        raise RuntimeError(f"calibration failed: {child.stderr}")
    return child.wall


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **THREAD_ENV}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    case = WORKLOADS[name].case(seed)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "case.ini").write_text(case.config_text())
        print(f"# workload {name} seed {seed} seconds {seconds} "
              f"trace {int(trace)}")
        print(f"# env {json.dumps(environment())}")
        if trace:
            return _traced_run(case, work)
        return _timed_run(case, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _gate(case, work: Path, samples: list[Sample]) -> tuple[list[str],
                                                            "gate.GateResult"]:
    """Check exit codes, byte-identical repeats, the oracles and, for a
    threaded scan, byte-identity with a serial run."""
    import gate

    errors = []
    first = samples[0]
    for sample in samples:
        for child in sample.children:
            if child.status != 0:
                errors.append(f"exit code {child.status}: "
                              f"{child.stderr.strip()[-500:]}")
        if sample.outputs != first.outputs:
            errors.append("output differs between repeated samples")
    result = gate.check(case, first.outputs)
    errors += result.errors
    if case.workload.threads > 1:
        serial = []
        for args in case.workload.commands:
            args = list(args)
            args[args.index("--threads") + 1] = "1"
            out = work / "serial.out"
            spawn([sys.executable, "-m", "vactrap.cli", *args, "--config",
                   "case.ini", "--out", out.name], work)
            serial.append(out.read_text() if out.exists() else "")
        if serial != first.outputs:
            errors.append("output differs from the --threads 1 run")
    return sorted(set(errors)), result


def _report(case, samples, errors, result, metrics, units) -> dict:
    rows = sum(case.rows_per_command())
    attempted = rows * len(samples)
    for name, value in metrics.items():
        print(f"{name:28s} {value:.6g} {units[name]}")
    print(f"{'failed_row_frac':28s} {0 if not errors else 1} "
          f"({0 if not errors else attempted}/{attempted} rows)")
    print(f"{'oracle_max_rel_err':28s} {result.max_rel_err:.3g}")
    print(f"{'monte_carlo_max_z':28s} {result.max_z:.3g}")
    for error in errors:
        print(f"# FAILED: {error}")
    return {"correct": not errors, "attempted": attempted,
            "failed": attempted if errors else 0,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def _timed_run(case, work: Path, seconds: float) -> dict:
    measure_setup(work)  # untimed warm-ups of the probe,
    calibrate(work)  # the calibration
    run_sample(case, work)  # and the whole workload
    # The host's speed changes in steps that last ten seconds or so.  A
    # set-up probe and a calibration after each sample see the same
    # states as the samples, and the medians are taken over the run.
    samples, setups, calibrations = [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        samples.append(run_sample(case, work))
        setups.append(measure_setup(work))
        calibrations.append(calibrate(work))
        if not samples[-1].ok:
            break
    errors, result = _gate(case, work, samples)
    walls = [s.wall for s in samples]
    calibration = statistics.median(calibrations)
    scale = CALIBRATION_REF_S / calibration
    print(f"# calibration {calibration:.6g} s (median of "
          f"{len(calibrations)}); timings scaled by {scale:.6g}")
    print(f"# unscaled: wall_s {statistics.median(walls):.6g} s, cpu_s "
          f"{statistics.median(s.cpu for s in samples):.6g} s, setup_s "
          f"{statistics.median(setups):.6g} s")
    wall_s = statistics.median(walls) * scale
    # A run holds ten to twenty samples, too few for a high percentile
    # with ten samples beyond it, so p90 is printed, not a bounded metric.
    print(f"# {len(samples)} samples, unscaled wall s: "
          f"{' '.join(f'{w:.3f}' for w in walls)}")
    print(f"{'wall_s_p90':28s} {percentile(walls, 0.9) * scale:.6g} s "
          f"(nearest rank, {len(samples)} samples)")
    metrics = {
        "wall_s": wall_s,
        "cpu_s": statistics.median(s.cpu for s in samples) * scale,
        "rows_per_s": sum(case.rows_per_command()) / wall_s,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    return _report(case, samples, errors, result, metrics, END_TO_END_UNITS)


def traced_sample(case, work: Path) -> tuple[Sample, list, dict, list[str]]:
    """One traced sample in ``work`` (which holds case.ini): the sample,
    the spans of all its children and the summed sample timings."""
    sample_path = work / "sample.json"
    sample_path.write_text(json.dumps({
        "config": "case.ini",
        "positions": case.sample_positions(SAMPLE_POINTS)}))
    (work / "nosample.json").write_text(
        json.dumps({"config": "case.ini", "positions": []}))
    traced = run_sample(case, work, traced=True, sample_path=sample_path)
    spans, sample_s, errors = [], {}, []
    for index in range(len(case.workload.commands)):
        path = work / f"spans{index}.json"
        if not path.exists():
            errors.append(f"traced child {index} wrote no spans")
            continue
        data = json.loads(path.read_text())
        offset = index << 32  # span ids are per process
        for s in data["spans"]:
            s[0] += offset
            if s[4] is not None:
                s[4] += offset
            spans.append(s)
        for key, value in data["sample_s"].items():
            sample_s[key] = sample_s.get(key, 0.0) + value
    return traced, spans, sample_s, errors


def _traced_run(case, work: Path) -> dict:
    # Untraced samples on both sides of the traced one, so a cold first
    # start does not land on one side of the overhead.
    plain = [run_sample(case, work)]
    traced, spans, sample_s, errors = traced_sample(case, work)
    plain.append(run_sample(case, work))
    gate_errors, result = _gate(case, work, [*plain, traced])
    errors += gate_errors
    complete = len(sample_s) == 3 and sample_s["plain"] > 0.0
    metrics = layer_metrics(spans, sample_s) if complete else {}
    metrics.update({
        "cli.output_bytes": sum(len(o.encode()) for o in traced.outputs),
        "trace.wall_s": traced.wall,
        "trace.overhead_s":
            traced.wall - statistics.mean(s.wall for s in plain),
    })
    units = {k: LAYER_UNITS.get(k.rsplit(".", 1)[1], "s") for k in metrics}
    return _report(case, [*plain, traced], errors, result, metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vactrap" / "cli.py").is_file():
        print(f"perfbench: no vactrap sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
