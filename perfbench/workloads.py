"""The benchmark's workloads and the inputs each seed gives them.

Every workload drives the ``vactrap`` CLI with one config file that the
benchmark writes; the program sees nothing else.  The spatial scans
keep the CLI's default range but have fewer points, so that one sample
lasts about a second and a run holds many.  Seed 0 is the unjittered
config.  Any other seed moves the inputs inside the
same regime: the detuning by up to +-0.05 linewidths and the scan's
half-width by up to ``range_jitter``, half a step of the CLI's default
grid.  That offset is below a step of the thinned grids too, and it is
kept small because the largest node counts grow with the half-width:
a larger offset would add to the spread of the timings across seeds.  The scan stays symmetric, so the
kr = 0 row that the correctness gate compares with the closed forms is
always there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DETUNING_JITTER = 0.05  # linewidths
TOLERANCE = 1e-9  # the CLI's default doubling tolerance


@dataclass(frozen=True)
class Workload:
    """One CLI case.  ``commands`` run in order, one child process each;
    together they are one timed sample."""

    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    half_width: float
    n_points: int
    detuning: float
    range_jitter: float
    scan_type: str | None = None
    pi_e: float | None = None

    @property
    def threads(self) -> int:
        args = self.commands[0]
        return int(args[args.index("--threads") + 1]) if "--threads" in args else 1

    def case(self, seed: int) -> "Case":
        detuning, half_width = self.detuning, self.half_width
        if seed != 0:
            rng = random.Random(f"{self.name}/{seed}")
            detuning += rng.uniform(-DETUNING_JITTER, DETUNING_JITTER)
            half_width += rng.uniform(-1.0, 1.0) * self.range_jitter
        return Case(self, seed, detuning, half_width)


@dataclass(frozen=True)
class Case:
    """A workload's inputs for one seed."""

    workload: Workload
    seed: int
    detuning: float
    half_width: float

    def config_text(self) -> str:
        w = self.workload
        lines = ["[detuning]", f"linewidths = {self.detuning!r}"]
        if w.pi_e is not None:
            lines += ["[drive]", f"pi_e = {w.pi_e!r}"]
        lines += ["[scan]"]
        if w.scan_type is not None:
            lines += [f"type = {w.scan_type}"]
        lines += [f"start = {-self.half_width!r}", f"stop = {self.half_width!r}",
                  f"n_points = {w.n_points}"]
        return "\n".join(lines) + "\n"

    def rows_per_command(self) -> list[int]:
        """Output rows of each command (checks, for ``validate``)."""
        counts = []
        for args in self.workload.commands:
            if args[0] == "validate":
                counts.append(VALIDATE_CHECKS)
            elif args[0] == "plane":
                counts.append(self.workload.n_points ** 2)
            else:
                counts.append(self.workload.n_points)
        return counts

    def sample_positions(self, count: int) -> list[tuple[float, float, float]]:
        """Seeded scan points, used to time the refinement and gradient
        paths of the quadrature on this workload's own positions."""
        rng = random.Random(f"{self.workload.name}/{self.seed}/sample")
        n = self.workload.n_points
        coords = [-self.half_width + 2.0 * self.half_width * i / (n - 1)
                  for i in range(n)]
        command = self.workload.commands[-1][0]
        points = []
        for _ in range(count):
            a, b = rng.choice(coords), rng.choice(coords)
            if command == "center":
                points.append((0.0, 0.0, 0.0))
            elif command == "axial":
                points.append((0.0, 0.0, a))
            elif command == "plane":
                points.append((b, 0.0, a))
            else:
                points.append((a, 0.0, 0.0))
        return points


# The checks `vactrap validate` reports (run_validation_suite).
VALIDATE_CHECKS = 8

WORKLOADS = {w.name: w for w in (
    Workload(
        "axial_scan",
        "on-axis 1-D fast path, 41 points over +-100/k: quadrature rule "
        "building is almost all of the time, the kernel and scan engine "
        "little",
        (("axial",),), 100.0, 41, 0.0, 0.25),
    Workload(
        "transverse_trap",
        "21 off-axis points over +-50/k with the force: the 2-D kernel, the "
        "analytic gradient and the doubling check do most of the work",
        (("force",),), 50.0, 21, -0.5, 0.25, scan_type="transverse",
        pi_e=0.05),
    Workload(
        "plane_map",
        "15x15 small rows over +-20/k on two threads without gradient: the "
        "only case where scan orchestration and the thread pool carry "
        "weight",
        (("plane", "--threads", "2"),), 20.0, 15, 0.0, 0.5),
    Workload(
        "oracle_suite",
        "validate then center --quadrature: closed forms, Monte Carlo, "
        "Richardson differences and the kr = 0 quadrature path",
        (("validate", "--seed", "0"), ("center", "--quadrature")), 3.0,
        241, 0.0, 0.0125),
)}
