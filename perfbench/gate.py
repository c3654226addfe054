"""Correctness gate: checks one run's CLI outputs against independent
oracles.  It runs outside the timed region.

Checks, by workload:

* every table: the expected number of finite rows, and each row equal
  to its mirror row under kr -> -kr (gamma and shift even, force odd);
* spatial scans: the kr = 0 row equals ``center_gamma``/``center_shift``
  within the run's tolerance, and seeded rows match
  ``monte_carlo_reference`` within a few standard errors;
* ``transverse_trap``: seeded forces match ``richardson_gradient``;
* ``oracle_suite``: ``validate`` passes every check, and every
  ``center --quadrature`` row equals the closed forms.

The ``plane_map`` comparison with a ``--threads 1`` run is made by the
caller, which owns the child processes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np
from vactrap.cavity import (Detuning, DipoleOrientation, center_gamma,
                            center_shift)
from vactrap.config import parse_config
from vactrap.quadrature import monte_carlo_reference
from vactrap.validation import richardson_gradient

from workloads import TOLERANCE, VALIDATE_CHECKS, Case

PARITY_TOLERANCE = 1e-8  # mirrored rows may sit on grids one node apart
MC_SAMPLES = 200_000
MC_ROWS = 3
MC_MAX_Z = 5.0
RICHARDSON_ROWS = 2
RICHARDSON_TOLERANCE = 1e-4  # as in `vactrap validate`


@dataclass
class GateResult:
    errors: list[str] = field(default_factory=list)
    max_rel_err: float = 0.0  # deterministic oracles only
    max_z: float = 0.0  # Monte-Carlo rows

    @property
    def ok(self) -> bool:
        return not self.errors

    def relative(self, what: str, got, want, tolerance: float) -> None:
        got, want = np.asarray(got, float), np.asarray(want, float)
        err = float(np.max(np.abs(got - want)
                           / np.maximum(1.0, np.abs(want))))
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= tolerance:
            self.errors.append(f"{what}: relative error {err:.3e} "
                               f"> {tolerance:g}")


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.strip().split("\n")
    columns = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return columns, rows.reshape(len(lines) - 1, len(columns))


def check(case: Case, outputs: list[str]) -> GateResult:
    """Check the outputs of one sample, one text per command."""
    result = GateResult()
    for args, text, rows in zip(case.workload.commands, outputs,
                                case.rows_per_command()):
        try:
            if args[0] == "validate":
                _check_validate(result, text)
            else:
                _check_table(result, case, args[0], text, rows)
        except (ValueError, KeyError, IndexError) as err:
            result.errors.append(f"{args[0]}: unreadable output ({err})")
    return result


def _check_validate(result: GateResult, text: str) -> None:
    report = json.loads(text)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if not report["passed"] or failed:
        result.errors.append(f"validate: failed checks {failed}")
    if len(report["checks"]) != VALIDATE_CHECKS:
        result.errors.append(f"validate: {len(report['checks'])} checks, "
                             f"expected {VALIDATE_CHECKS}")


def _check_table(result: GateResult, case: Case, command: str, text: str,
                 n_rows: int) -> None:
    columns, rows = parse_csv(text)
    if rows.shape[0] != n_rows or not np.all(np.isfinite(rows)):
        result.errors.append(f"{command}: {rows.shape[0]} rows, expected "
                             f"{n_rows} finite ones")
        return
    run = parse_config(case.config_text())
    _check_parity(result, command, columns, rows)
    rng = random.Random(f"{case.workload.name}/{case.seed}/gate")
    if command == "center":
        _check_center(result, run, columns, rows)
        for index in rng.sample(range(len(rows)), MC_ROWS):
            row = dict(zip(columns, rows[index]))
            _check_monte_carlo(result, run, DipoleOrientation.parallel(),
                               [0.0, 0.0, 0.0], row["detuning_linewidths"],
                               row["gamma_parallel"], row["shift_parallel"],
                               seed=rng.randrange(2**32))
        return
    n_coords = 2 if command == "plane" else 1
    origin = rows[len(rows) // 2]
    if np.max(np.abs(origin[:n_coords])) > 1e-9:
        result.errors.append(f"{command}: middle row is not at kr = 0")
        return
    _check_origin(result, case, run, command, columns, origin)
    for index in rng.sample(range(len(rows)), MC_ROWS):
        _check_monte_carlo(result, run, run.orientation,
                           _position(columns, rows[index]),
                           run.detuning.linewidths,
                           *_gamma_shift(case, columns, rows[index]),
                           seed=rng.randrange(2**32))
    if command == "force":
        far = [i for i in range(len(rows)) if abs(rows[i][0]) >= 2.0]
        for index in rng.sample(far, RICHARDSON_ROWS):
            _check_richardson(result, case, run, columns, rows[index])


def _position(columns, row) -> list[float]:
    """(kx, ky, kz) of a spatial row."""
    values = dict(zip(columns, row))
    return [values.get("kx", 0.0), 0.0, values.get("kz", 0.0)]


def _gamma_shift(case: Case, columns, row):
    """(gamma, shift) of a row; force tables give the shift through the
    potential, pi_e * shift, and carry no gamma."""
    values = dict(zip(columns, row))
    if "shift_ratio" in values:
        return values["gamma_ratio"], values["shift_ratio"]
    return None, values["potential"] / case.workload.pi_e


def _check_parity(result: GateResult, command: str, columns, rows) -> None:
    mirror = rows[::-1]
    odd = [c.startswith("force") or c in ("kx", "kz", "detuning_linewidths")
           or c.startswith("shift") and command == "center" for c in columns]
    sign = np.where(odd, -1.0, 1.0)
    diff = np.abs(rows - sign * mirror) / np.maximum(1.0, np.abs(rows))
    worst = float(np.max(diff))
    if not worst <= PARITY_TOLERANCE:
        row = int(np.argmax(np.max(diff, axis=1)))
        result.errors.append(f"{command}: row {row} differs from its mirror "
                             f"row by {worst:.3e}")


def _check_origin(result, case, run, command, columns, origin) -> None:
    phi0 = run.detuning.phase(run.cavity.rho)
    gamma, shift = _gamma_shift(case, columns, origin)
    result.relative(f"{command} kr = 0 shift", shift,
                    center_shift(run.orientation, run.cavity, phi0), TOLERANCE)
    if gamma is not None:
        result.relative(f"{command} kr = 0 gamma", gamma,
                        center_gamma(run.orientation, run.cavity, phi0),
                        TOLERANCE)


def _check_monte_carlo(result, run, orientation, position, linewidths,
                       gamma, shift, seed) -> None:
    """One row against the seeded uniform-sphere sampler; ``gamma`` is
    None where the table has no damping column."""
    phi0 = Detuning(float(linewidths)).phase(run.cavity.rho)
    mc, (se_gamma, se_shift) = monte_carlo_reference(
        position, orientation, run.cavity, phi0, MC_SAMPLES, seed)
    pairs = [(shift, mc.shift_ratio, se_shift)]
    if gamma is not None:
        pairs.append((gamma, mc.gamma_ratio, se_gamma))
    for got, want, se in pairs:
        z = abs(got - want) / max(se, 1e-12)
        result.max_z = max(result.max_z, z)
        if not z <= MC_MAX_Z:
            result.errors.append(f"row at kr = {position}, {linewidths} "
                                 f"linewidths: {z:.1f} standard errors from "
                                 f"Monte Carlo")


def _check_richardson(result, case, run, columns, row) -> None:
    values = dict(zip(columns, row))
    analytic = -np.array([values["force_x"], values["force_y"],
                          values["force_z"]]) / case.workload.pi_e
    oracle = richardson_gradient(_position(columns, row), run.orientation,
                                 run.cavity, run.detuning)
    err = float(np.linalg.norm(analytic - oracle)
                / max(float(np.linalg.norm(analytic)), 1e-12))
    result.max_rel_err = max(result.max_rel_err, err)
    if not err <= RICHARDSON_TOLERANCE:
        result.errors.append(f"force at kx = {values['kx']}: {err:.3e} from "
                             f"the Richardson gradient")


def _check_center(result: GateResult, run, columns, rows) -> None:
    phases = np.array([Detuning(float(d)).phase(run.cavity.rho)
                       for d in rows[:, 0]])
    values = dict(zip(columns, rows.T))
    for kind in ("parallel", "perpendicular"):
        orientation = getattr(DipoleOrientation, kind)()
        result.relative(f"center gamma_{kind}", values[f"gamma_{kind}"],
                        center_gamma(orientation, run.cavity, phases),
                        TOLERANCE)
        result.relative(f"center shift_{kind}", values[f"shift_{kind}"],
                        center_shift(orientation, run.cavity, phases),
                        TOLERANCE)
