"""Physical outputs: responses on grids, forces, traps.

The vacuum-induced force on a weakly excited atom is the negative
gradient of the level shift scaled by the excited-state population,
and the trapping potential is the shift so scaled:

    F = -pi_e grad(shift_ratio)       [hbar k Gamma_vac]
    U = +pi_e shift_ratio             [hbar Gamma_vac]

so the potential is zero far from the cavity's influence where the shift
vanishes.  ``response_at(..., with_gradient=True)`` gives the gradient,
differentiated analytically under the integral.

A scan is a table of columns from start to finish.  ``ScanSpec``
checks what no other owner checks: a known axis, finite ends, their
order and the point count (``_check_span`` and ``_check_points``, which
the config shares, the first also with the command line) and both scan
caps, which bound the rows laid out.  Its points come as arrays
(coordinates, phases, positions) in output row order, and ``run_scan``
passes them all to one ``integrate_sphere`` call, which admits the block
by ``cavity._admit``, as every position is admitted: a row beyond the
supported region is refused there, and a block beyond the warning radius
warns once.  It then sizes each row by its own radius, farthest first,
so a scan above the polar node cap is refused at its farthest row before
any kernel pass; it splits the block into its kernel passes, and a row's
bits do not depend on its pass.  The force, the potential and a weak
drive's population then come from one array formula each, shared with
the one-point functions.  The scan runs on the calling thread.
"""

from __future__ import annotations

import math

import numpy as np

from .cavity import (CavityConfig, Detuning, DipoleOrientation, Position,
                     Response, _Frozen, _Record, detuning_to_phase)
from .quadrature import ConvergenceError, integrate_sphere

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

# Largest worker count that ``run_scan`` and the CLI's --threads accept.
# Both are kept for compatibility and have no effect: a second thread
# made scans slower, as numpy holds the interpreter lock for much of a
# block's work, so every scan runs on the calling thread.
MAX_THREADS = 64

# The scan caps, about 25 times the default scans, so that a mistyped
# size is refused before its rows are laid out (10,001 plane points once
# ran out of memory there): points per axis, 25 times the 400 steps of
# the default axial scan plus one, which binds line scans; and rows, 25
# times the 1,681 of the default 41 x 41 plane, which binds plane scans
# at n_points <= 205.
MAX_SCAN_POINTS = 10_001
MAX_SCAN_ROWS = 42_025

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


class ForceResult(_Frozen):
    """Force (hbar k Gamma_vac), potential (hbar Gamma_vac) and the
    excited-state population used to scale them."""

    _fields = ("force", "potential", "excited_population")
    # compared and hashed by identity, as ``Response``
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, force: np.ndarray, potential: float,
                 excited_population: float):
        self._set(force=force, potential=potential,
                  excited_population=excited_population)


def response_at(position, orientation: DipoleOrientation,
                config: CavityConfig, detuning: Detuning,
                tolerance: float | None = DEFAULT_TOLERANCE,
                with_gradient: bool = False) -> Response:
    """Damping and shift ratios at one point, by sphere quadrature.

    The point is admitted by ``Position.of``, so a block or any shape
    but (3,) raises ValueError.  The angular grid is sized automatically
    from the position; with a tolerance the doubling check runs and
    non-convergence raises.  With ``with_gradient`` the response carries
    d(shift)/d(kr), computed by differentiating the integrand
    analytically (chain rule through the standing-wave factors and the
    aberration phase) and integrating with the same quadrature rule,
    which is far quieter than finite-differencing the oscillatory
    quadrature.
    """
    return integrate_sphere(Position.of(position), orientation, config,
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
    drive that is not a finite pair (rabi, laser_detuning): the one drive
    check of the library and the config."""
    if pi_e is not None and weak_drive is not None:
        raise ValueError("pi_e and a weak drive (rabi, laser_detuning) are "
                         "mutually exclusive")
    if pi_e is not None and not 0.0 <= pi_e <= 0.5:
        raise ValueError(f"pi_e must lie in [0, 1/2], got {pi_e}")
    if weak_drive is not None and len(weak_drive) != 2:
        raise ValueError("weak drive must be a pair (rabi, laser_detuning), "
                         f"got {tuple(weak_drive)}")
    if weak_drive is not None and not all(map(math.isfinite, weak_drive)):
        raise ValueError("weak drive (rabi, laser_detuning) must be finite, "
                         f"got {tuple(weak_drive)}")


def _check_span(start, stop) -> None:
    """Reject a scan whose start is not below its stop: the one order
    check of ``ScanSpec``, the config and the command line."""
    if not start < stop:
        raise ValueError("scan start must be below stop")


def _check_points(n_points) -> None:
    """Reject a scan point count that is not an integer from 2 to
    MAX_SCAN_POINTS: the one count check of ``ScanSpec`` and the
    config."""
    if not (isinstance(n_points, (int, np.integer))
            and 2 <= n_points <= MAX_SCAN_POINTS):
        raise ValueError(f"scan requires an integer n_points >= 2 and <= "
                         f"{MAX_SCAN_POINTS}, got {n_points!r}")


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


class ScanSpec(_Frozen):
    """One scan axis plus everything held fixed along it.

    axis 'detuning' sweeps the detuning in linewidths at the cavity
    center; 'axial'/'transverse' sweep kz/kx along the cavity axis or
    the x axis at the fixed detuning; 'plane' sweeps kz and kx over the
    same range, n_points per axis, in the y = 0 plane.  A start or stop
    that is not finite, a start not below stop, an n_points that is not
    an integer from 2 to MAX_SCAN_POINTS and a plane of more than
    MAX_SCAN_ROWS rows are refused here, before any point is laid out.
    Its positions are admitted, and its rows sized, by ``run_scan``'s
    ``integrate_sphere`` call: a scan that reaches beyond the supported
    region, or needs more polar nodes than the cap, is refused there,
    before any kernel pass.
    """

    _fields = ("axis", "start", "stop", "n_points", "config", "orientation",
               "detuning")

    def __init__(self, axis: str, start: float, stop: float, n_points: int,
                 config: CavityConfig, orientation: DipoleOrientation,
                 detuning: Detuning = Detuning(0.0)):
        self._set(axis=axis, start=start, stop=stop, n_points=n_points,
                  config=config, orientation=orientation, detuning=detuning)
        if self.axis not in _AXIS_COLUMNS:
            raise ValueError(f"unknown scan axis {self.axis!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"scan start and stop must be finite, got "
                             f"{self.start} and {self.stop}")
        _check_span(self.start, self.stop)
        _check_points(self.n_points)
        # a line scan's rows are its points, which are below the row cap
        if self.axis == "plane" and self.n_points ** 2 > MAX_SCAN_ROWS:
            raise ValueError(f"plane scan of {self.n_points ** 2} rows is "
                             f"above the cap of {MAX_SCAN_ROWS} rows")

    def coordinates(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_points)


class ScanResult(_Record):
    """Scan table, one row per point in coordinate order, plus per-row
    trouble flags (new empty lists where not given)."""

    _fields = ("columns", "values", "non_converged", "weak_excitation")

    def __init__(self, columns: tuple[str, ...],
                 values: np.ndarray,  # (rows, columns)
                 non_converged: list[int] | None = None,
                 weak_excitation: list[int] | None = None):
        self.columns = columns
        self.values = values
        self.non_converged = [] if non_converged is None else non_converged
        self.weak_excitation = ([] if weak_excitation is None
                                else weak_excitation)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


def _scan_points(spec: ScanSpec):
    """Coordinates (N, c), phi0 (N,) and kr (N, 3) of every scan point, in
    output row order.  The phase is computed once per scan, or per point
    on the detuning axis; ``integrate_sphere`` admits the positions."""
    c = spec.coordinates()
    rho = spec.config.rho
    if spec.axis == "detuning":
        return c[:, None], detuning_to_phase(c, rho), np.zeros((len(c), 3))
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
    in ``weak_excitation``.  The whole scan is one ``integrate_sphere``
    call, which sizes each row by its own radius, on the calling thread:
    ``n_workers`` is accepted for compatibility, checked to lie in
    [1, MAX_THREADS], and has no effect.
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
    failed = []
    try:
        resp = integrate_sphere(kr, spec.orientation, spec.config, phi0,
                                tolerance=tolerance, with_gradient=with_force)
    except ConvergenceError as err:
        resp, failed = err.estimate, err.rows

    values, weak = [coords, resp.gamma_ratio, resp.shift_ratio], []
    if with_force:
        if weak_drive is not None:
            pi_e = _population(*weak_drive, resp.gamma_ratio, resp.shift_ratio)
            weak = np.flatnonzero(~(pi_e <= MAX_WEAK_POPULATION)).tolist()
        values += _force(pi_e, resp.shift_gradient, resp.shift_ratio)
    return ScanResult(columns, np.column_stack(values), failed, weak)


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
