"""Physical outputs: responses on grids, forces, traps.

The vacuum-induced force on a weakly excited atom is the negative
gradient of the level shift scaled by the excited-state population,
and the trapping potential is the shift so scaled:

    F = -pi_e grad(shift_ratio)       [hbar k Gamma_vac]
    U = +pi_e shift_ratio             [hbar Gamma_vac]

so the potential is zero far from the cavity's influence where the shift
vanishes.  ``response_at(..., with_gradient=True)`` gives the gradient,
differentiated analytically under the integral.

A scan is a table of columns from start to finish.  Its points come as
arrays (coordinates, phases, positions) in output row order; the scan
plans them (``quadrature.plan_blocks``: every position checked, its rung
of the node ladder chosen, every rule built in one sweep), makes one
``integrate_sphere`` call per block of points on one rung and copies the
block's arrays into whole-scan columns at the block's rows.  The force,
the potential and a weak drive's population then come from one array
formula each, shared with the one-point functions.  Worker threads share
the blocks; a row's bits do not depend on its block, so the table is
bit-identical for any --threads value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityConfig, Detuning, DipoleOrientation, Response
from .quadrature import ConvergenceError, integrate_sphere, plan_blocks

DEFAULT_TOLERANCE = 1e-9

# Each scan axis and the coordinate columns its rows start with.
_AXIS_COLUMNS = {
    "detuning": ("detuning_linewidths",),
    "axial": ("kz",),
    "transverse": ("kx",),
    "plane": ("kz", "kx"),
}
# The components of kr that those columns set on a spatial axis.
_KR_AXES = {"axial": [2], "transverse": [0], "plane": [2, 0]}

# Most worker threads a scan may use.  Blocks hold the interpreter lock
# for much of their time, so threads beyond the cores buy nothing, and a
# slip of the keyboard should not start thousands of them.
MAX_THREADS = 64

# Weak-excitation treatment is only trusted up to this population.
MAX_WEAK_POPULATION = 0.1


class WeakExcitationError(ValueError):
    """Computed excited-state population is outside the weak-drive
    regime; carries the offending value."""

    def __init__(self, population: float):
        super().__init__(
            f"excited-state population {population:.4f} exceeds the "
            f"weak-excitation limit {MAX_WEAK_POPULATION}"
        )
        self.population = population


@dataclass(frozen=True, eq=False)
class ForceResult:
    """Force (hbar k Gamma_vac), potential (hbar Gamma_vac) and the
    excited-state population used to scale them."""

    force: np.ndarray
    potential: float
    excited_population: float


def response_at(position, orientation: DipoleOrientation,
                config: CavityConfig, detuning: Detuning,
                tolerance: float | None = DEFAULT_TOLERANCE,
                with_gradient: bool = False) -> Response:
    """Damping and shift ratios at one point, by sphere quadrature.

    The angular grid is sized automatically from the position; with a
    tolerance the doubling check runs and non-convergence raises.  With
    ``with_gradient`` the response carries d(shift)/d(kr), computed by
    differentiating the integrand analytically (chain rule through the
    standing-wave factors and the aberration phase) and integrating with
    the same quadrature rule, which is far quieter than
    finite-differencing the oscillatory quadrature.
    """
    return integrate_sphere(position, orientation, config,
                            detuning.phase(config.rho), tolerance=tolerance,
                            with_gradient=with_gradient)


def _population(rabi, laser_detuning, gamma, shift):
    """Weak-drive excited population (rabi/2)^2 / ((laser_detuning -
    shift)^2 + (gamma/2)^2), at one point or per row.  Squares are
    written as products, so a row gets the same bits either way."""
    half_rabi, half_gamma = rabi / 2.0, gamma / 2.0
    delta = laser_detuning - shift
    return half_rabi * half_rabi / (delta * delta + half_gamma * half_gamma)


def _check_drive(pi_e=None, weak_drive=None) -> None:
    """Reject a drive given both ways, a pi_e outside [0, 1/2] and a weak
    drive (rabi, laser_detuning) that is not finite."""
    if pi_e is not None and weak_drive is not None:
        raise ValueError("give either pi_e or weak_drive, not both")
    if pi_e is not None and not 0.0 <= pi_e <= 0.5:
        raise ValueError(f"pi_e must lie in [0, 1/2], got {pi_e}")
    if weak_drive is not None and not all(map(math.isfinite, weak_drive)):
        raise ValueError("weak drive (rabi, laser_detuning) must be finite, "
                         f"got {tuple(weak_drive)}")


def excited_population(rabi: float, laser_detuning: float,
                       response: Response) -> float:
    """Steady-state excited population of a weakly driven two-level atom.

    All rates in units of the free-space damping rate, using the local
    cavity-modified shift and damping (see ``_population``).  Raises
    ValueError for a non-finite drive and WeakExcitationError where the
    population is not at most MAX_WEAK_POPULATION, as there the linear
    treatment breaks down.
    """
    _check_drive(weak_drive=(rabi, laser_detuning))
    pi_e = _population(rabi, laser_detuning, response.gamma_ratio,
                       response.shift_ratio)
    if not pi_e <= MAX_WEAK_POPULATION:
        raise WeakExcitationError(pi_e)
    return pi_e


def _force(pi_e, grad, shift):
    """Force F = -pi_e grad(shift) and potential U = pi_e shift, at one
    point or per row (pi_e one value or one per row)."""
    pi_e = np.asarray(pi_e, dtype=float)
    return -pi_e[..., None] * grad, pi_e * shift


def force_at(position, orientation: DipoleOrientation, config: CavityConfig,
             detuning: Detuning, pi_e: float,
             tolerance: float | None = DEFAULT_TOLERANCE) -> ForceResult:
    """Vacuum-induced force and trapping potential at one point for a
    given constant excited-state population."""
    _check_drive(pi_e)
    resp = response_at(position, orientation, config, detuning,
                       tolerance=tolerance, with_gradient=True)
    force, potential = _force(pi_e, resp.shift_gradient, resp.shift_ratio)
    return ForceResult(force, float(potential), excited_population=pi_e)


@dataclass(frozen=True)
class ScanSpec:
    """One scan axis plus everything held fixed along it.

    axis 'detuning' sweeps the detuning in linewidths at the cavity
    center; 'axial'/'transverse' sweep kz/kx along the cavity axis or
    the x axis at the fixed detuning; 'plane' sweeps kz and kx over the
    same range, n_points per axis, in the y = 0 plane.
    """

    axis: str
    start: float
    stop: float
    n_points: int
    config: CavityConfig
    orientation: DipoleOrientation
    detuning: Detuning = Detuning(0.0)

    def __post_init__(self):
        if self.axis not in _AXIS_COLUMNS:
            raise ValueError(f"unknown scan axis {self.axis!r}")
        if not self.start < self.stop:
            raise ValueError("scan requires start < stop")
        if self.n_points < 2:
            raise ValueError("scan requires n_points >= 2")

    def coordinates(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


@dataclass
class ScanResult:
    """Scan table, one row per point in coordinate order, plus per-row
    trouble flags."""

    columns: tuple[str, ...]
    values: np.ndarray  # (rows, columns)
    non_converged: list[int] = field(default_factory=list)
    weak_excitation: list[int] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def _scan_points(spec: ScanSpec):
    """Coordinates (N, c), phi0 (N,) and kr (N, 3) of every scan point, in
    output row order.  The phase is computed once per scan, or per point
    on the detuning axis; positions are checked where they are planned."""
    c = spec.coordinates()
    rho = spec.config.rho
    if spec.axis == "detuning":
        phi0 = np.array([Detuning(float(v)).phase(rho) for v in c])
        return c[:, None], phi0, np.zeros((len(c), 3))
    coords = (np.column_stack([np.repeat(c, len(c)), np.tile(c, len(c))])
              if spec.axis == "plane" else c[:, None])
    kr = np.zeros((len(coords), 3))
    kr[:, _KR_AXES[spec.axis]] = coords
    return coords, np.full(len(coords), spec.detuning.phase(rho)), kr


def run_scan(spec: ScanSpec, tolerance: float | None = DEFAULT_TOLERANCE,
             n_workers: int = 1, pi_e: float | None = None,
             weak_drive: tuple[float, float] | None = None) -> ScanResult:
    """Evaluate the response (and optionally the force) on a scan grid.

    ``pi_e`` gives a constant excited population; ``weak_drive`` =
    (rabi, laser_detuning) computes it self-consistently per point from
    the local damping and shift.  Rows whose quadrature fails the
    doubling check keep the refined estimate and are listed in
    ``non_converged``; rows outside the weak-excitation regime are listed
    in ``weak_excitation``.  Worker count never changes the numbers.
    """
    if not 1 <= n_workers <= MAX_THREADS:
        raise ValueError(f"n_workers must be at least 1 and at most "
                         f"{MAX_THREADS}, got {n_workers}")
    _check_drive(pi_e, weak_drive)
    with_force = pi_e is not None or weak_drive is not None

    columns = _AXIS_COLUMNS[spec.axis] + ("gamma_ratio", "shift_ratio")
    if with_force:
        columns = columns + ("force_x", "force_y", "force_z", "potential")

    coords, phi0, kr = _scan_points(spec)
    blocks = plan_blocks(kr, spec.config, doubled=tolerance is not None)
    gamma, shift = np.empty((2, len(kr)))
    grad = np.empty(kr.shape)
    converged = np.ones(len(kr), dtype=bool)

    def evaluate(block):
        grid, rows = block
        try:
            resp = integrate_sphere(
                kr[rows], spec.orientation, spec.config, phi0[rows],
                grid=grid, tolerance=tolerance, with_gradient=with_force)
        except ConvergenceError as err:
            resp = err.estimate
            converged[np.asarray(rows)[err.rows]] = False
        gamma[rows], shift[rows] = resp.gamma_ratio, resp.shift_ratio
        if with_force:
            grad[rows] = resp.shift_gradient

    n_workers = min(n_workers, len(blocks))
    if n_workers == 1:
        for block in blocks:
            evaluate(block)
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(evaluate, blocks))

    values, weak = [coords, gamma, shift], []
    if with_force:
        if weak_drive is not None:
            pi_e = _population(*weak_drive, gamma, shift)
            weak = np.flatnonzero(~(pi_e <= MAX_WEAK_POPULATION)).tolist()
        values += _force(pi_e, grad, shift)
    return ScanResult(columns, np.column_stack(values),
                      np.flatnonzero(~converged).tolist(), weak)


def trap_minimum(result: ScanResult) -> dict | None:
    """Deepest point of the potential column of a force scan: the trap
    depth (relative to the far-field zero) and where it sits."""
    if "potential" not in result.columns:
        return None
    potential = result.column("potential")
    idx = int(np.argmin(potential))
    n_coords = result.columns.index("gamma_ratio")
    return {
        "potential_min": float(potential[idx]),
        "coordinates": [float(c) for c in result.values[idx, :n_coords]],
        "row": idx,
    }
