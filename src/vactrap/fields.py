"""Physical outputs: responses on grids, forces, traps.

The vacuum-induced force on a weakly excited atom is the negative
gradient of the level shift scaled by the excited-state population,
and the trapping potential is the shift so scaled:

    F = -pi_e grad(shift_ratio)       [hbar k Gamma_vac]
    U = +pi_e shift_ratio             [hbar Gamma_vac]

so the potential is zero far from the cavity's influence where the shift
vanishes.  ``response_at(..., with_gradient=True)`` gives the gradient,
differentiated analytically under the integral.  A scan first plans
every point (``quadrature.plan_blocks``: its position checked, its rung
of the node ladder chosen, every rule built in one sweep), then makes one
``integrate_sphere`` call per block of points on one rung.  Worker
threads share the blocks; a row's bits do not depend on its block, and
rows are assembled in coordinate order, so output is bit-identical for
any --threads value.
"""

from __future__ import annotations

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


def excited_population(rabi: float, laser_detuning: float,
                       response: Response) -> float:
    """Steady-state excited population of a weakly driven two-level atom.

    All rates in units of the free-space damping rate: pi_e =
    (rabi/2)^2 / ((laser_detuning - shift)^2 + (gamma/2)^2), using the
    local cavity-modified shift and damping.  Raises WeakExcitationError
    above MAX_WEAK_POPULATION, where the linear treatment breaks down.
    """
    half_rabi = rabi / 2.0
    delta = laser_detuning - response.shift_ratio
    pi_e = half_rabi**2 / (delta**2 + (response.gamma_ratio / 2.0) ** 2)
    if pi_e > MAX_WEAK_POPULATION:
        raise WeakExcitationError(pi_e)
    return pi_e


def _force(resp: Response, pi_e: float) -> tuple[np.ndarray, float]:
    """Force F = -pi_e grad(shift) and potential U = pi_e shift."""
    return -pi_e * resp.shift_gradient, pi_e * resp.shift_ratio


def force_at(position, orientation: DipoleOrientation, config: CavityConfig,
             detuning: Detuning, pi_e: float,
             tolerance: float | None = DEFAULT_TOLERANCE) -> ForceResult:
    """Vacuum-induced force and trapping potential at one point for a
    given constant excited-state population."""
    if not 0.0 <= pi_e <= 0.5:
        raise ValueError(f"pi_e must lie in [0, 1/2], got {pi_e}")
    resp = response_at(position, orientation, config, detuning,
                       tolerance=tolerance, with_gradient=True)
    return ForceResult(*_force(resp, pi_e), excited_population=pi_e)


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
    """Ordered scan table plus per-row trouble flags."""

    columns: tuple[str, ...]
    rows: list[tuple[float, ...]]
    non_converged: list[int] = field(default_factory=list)
    weak_excitation: list[int] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


def _scan_points(spec: ScanSpec):
    """(coordinate tuple, phi0, kr) for every scan point, in output row
    order.  The phase is computed once per scan, or per point on the
    detuning axis; positions are checked where they are integrated."""
    coords = [float(c) for c in spec.coordinates()]
    rho = spec.config.rho
    if spec.axis == "detuning":
        return [((c,), Detuning(c).phase(rho), (0.0, 0.0, 0.0))
                for c in coords]
    phi0 = spec.detuning.phase(rho)
    if spec.axis == "axial":
        return [((c,), phi0, (0.0, 0.0, c)) for c in coords]
    if spec.axis == "transverse":
        return [((c,), phi0, (c, 0.0, 0.0)) for c in coords]
    return [((z, x), phi0, (x, 0.0, z)) for z in coords for x in coords]


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
    if n_workers > MAX_THREADS:
        raise ValueError(f"n_workers must be at most {MAX_THREADS}, "
                         f"got {n_workers}")
    if pi_e is not None and weak_drive is not None:
        raise ValueError("give either pi_e or weak_drive, not both")
    if pi_e is not None and not 0.0 <= pi_e <= 0.5:
        raise ValueError(f"pi_e must lie in [0, 1/2], got {pi_e}")
    with_force = pi_e is not None or weak_drive is not None

    columns = _AXIS_COLUMNS[spec.axis] + ("gamma_ratio", "shift_ratio")
    if with_force:
        columns = columns + ("force_x", "force_y", "force_z", "potential")

    points = _scan_points(spec)
    kr = np.array([p[2] for p in points])
    phi0 = np.array([p[1] for p in points])
    blocks = plan_blocks(kr, spec.config, doubled=tolerance is not None)

    def evaluate(block):
        grid, rows = block
        failed = ()
        try:
            block_resp = integrate_sphere(
                kr[rows], spec.orientation, spec.config, phi0[rows],
                grid=grid, tolerance=tolerance, with_gradient=with_force)
        except ConvergenceError as err:
            block_resp, failed = err.estimate, err.rows
        grad = block_resp.shift_gradient
        evaluated = []
        for j, idx in enumerate(rows):
            resp = Response(float(block_resp.gamma_ratio[j]),
                            float(block_resp.shift_ratio[j]),
                            None if grad is None else grad[j])
            values = points[idx][0] + (resp.gamma_ratio, resp.shift_ratio)
            weak_ok = True
            if with_force:
                if weak_drive is not None:
                    try:
                        point_pi_e = excited_population(weak_drive[0],
                                                        weak_drive[1], resp)
                    except WeakExcitationError as err:
                        point_pi_e = err.population
                        weak_ok = False
                else:
                    point_pi_e = pi_e
                f, potential = _force(resp, point_pi_e)
                values = values + (float(f[0]), float(f[1]), float(f[2]),
                                   potential)
            evaluated.append((idx, values, j not in failed, weak_ok))
        return evaluated

    n_workers = min(n_workers, len(blocks))
    if n_workers <= 1:
        evaluated = [evaluate(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            evaluated = list(pool.map(evaluate, blocks))

    result = ScanResult(columns=columns, rows=[])
    for idx, values, converged, weak_ok in sorted(
            row for block in evaluated for row in block):
        result.rows.append(values)
        if not converged:
            result.non_converged.append(idx)
        if not weak_ok:
            result.weak_excitation.append(idx)
    return result


def trap_minimum(result: ScanResult) -> dict | None:
    """Deepest point of the potential column of a force scan: the trap
    depth (relative to the far-field zero) and where it sits."""
    if "potential" not in result.columns:
        return None
    potential = result.column("potential")
    idx = int(np.argmin(potential))
    n_coords = result.columns.index("gamma_ratio")
    coords = result.rows[idx][:n_coords]
    return {
        "potential_min": float(potential[idx]),
        "coordinates": [float(c) for c in coords],
        "row": idx,
    }
