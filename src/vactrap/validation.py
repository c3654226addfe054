"""Self-checking oracle suite behind the ``validate`` subcommand.

Every check pits one computation path against an independent one:
closed forms against the sphere quadrature, its zonal rule against the
2-D reference rule, the x, y and z dipoles against the isotropic average
through the zonal rule, the quadrature against Monte-Carlo sampling, the
analytic gradient against Richardson finite differences, and the center
brackets against their period-average sum rules.  A failure here means
the numerics cannot be trusted for the given configuration.

The 2-D reference rule is this module's own code: Fejer's first rule in
cos(theta), whose nodes and weights are closed forms that share no code
with the production rule, times a uniform azimuth rule.
``integrate_sphere`` never runs it.  It passes its nodes to the
production kernel, ``quadrature._integrate_once``, so its check tests
the zonal rule, not the integrand; the closed forms and Monte Carlo test
that.  Its nodes do not depend on the dipole, so each kernel pass serves
all three, and a point's passes are blocks of at most BLOCK_NODES nodes,
so the size of its grid does not set the memory of ``validate``.

Each check hands ``integrate_sphere`` its positions as one block per
dipole orientation (the parity pairs, a point and its turns about the
axis, the points of the rule, Monte-Carlo and gradient checks, the
Richardson stencil); a row's bits do not depend on its block, so each
is the call at that position alone.  Every seeded point and Monte-Carlo
sample is a draw of ``_stream``, addressed by its index.

The oracles' own machinery lives here, not in ``quadrature``, which is
the production engine alone: ``AngularGrid``, the node counts of the
reference rule, and ``monte_carlo_reference``, the seeded uniform-sphere
sampler, with its counter-based stream.  No scan loads this module.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    Position,
    Response,
    _Frozen,
    _Record,
    _admit,
    _half_width,
    aperture_weights,
    cap_brackets,
    center_gamma,
    center_shift,
    effective_theta,
    ray_phase,
)
from .fields import DEFAULT_TOLERANCE
from .quadrature import (
    BLOCK_NODES,
    ConvergenceError,
    integrate_sphere,
    polar_node_count,
)
from .quadrature import _check_polar_count, _integrate_once

_ORIENTATIONS = (
    DipoleOrientation.parallel(),
    DipoleOrientation.perpendicular(),
    DipoleOrientation.isotropic(),
)
# The dipoles along x, y and z.
_AXES = (
    DipoleOrientation.perpendicular(),
    DipoleOrientation.fixed((0.0, 1.0, 0.0)),
    DipoleOrientation.parallel(),
)
# The points of the rule checks: the center, two on the axis, one on
# the x axis and one off every axis.
_RULE_POINTS = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.7], [0.0, 0.0, -21.0],
                         [3.7, 0.0, 0.0], [-12.0, 5.0, 16.0]])

# Largest relative gap, floored at 1 in absolute terms, between the
# center's closed forms and its quadrature.
CLOSED_FORM_TOLERANCE = 1e-6
# Samples of each Monte-Carlo estimate.
MONTE_CARLO_SAMPLES = 200_000
# Richardson's larger step h, in 1/k; the smaller is h/2.
RICHARDSON_STEP = 1e-3
# Most nodes, n_polar x n_azimuth, of the 2-D reference rule at one rule
# point: nine times the 462,144 that (-12, 5, 16) takes at rho = 0.995,
# kR = 1e3, where a ring sweeps 41.5 linewidths.  At rho = 0.9999 with
# that kR it would take 1,026,836,608 nodes and minutes of work; a point
# above the cap is skipped, and the check fails, naming it.
MAX_REFERENCE_NODES = 4_194_304

# Samples that one chunk of ``monte_carlo_reference`` draws and
# evaluates: its arrays, and so its memory, have at most this length
# whatever n_samples is.  16,384 doubles are exactly glibc's default
# 128 KiB mmap threshold; 8,192 keeps every temporary below it, at half
# the memory and no measurable cost in time on 200,000 samples.
SAMPLE_CHUNK = 8192


class CheckResult(_Record):
    """One check's name, verdict and figures (a new empty dict where not
    given)."""

    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: dict | None = None):
        self.name = name
        self.passed = passed
        self.detail = {} if detail is None else detail


def _check(name: str):
    """Decorator of a check that returns (passed, detail): the check then
    returns its CheckResult under ``name``.  A ConvergenceError inside it
    fails the check, its detail the error with its rows and its change in
    (gamma, shift), and the other checks still run.  So does a ValueError,
    its detail the error alone: the configuration and detuning were
    admitted before any check ran, so it refuses a point of the check's
    own, as the polar node cap refuses one that needs more nodes."""
    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            try:
                passed, detail = body(*args, **kwargs)
            except ConvergenceError as err:
                passed, detail = False, {
                    "error": str(err), "rows": err.rows,
                    "change": [np.asarray(c).tolist() for c in err.change]}
            except ValueError as err:
                passed, detail = False, {"error": str(err)}
            return CheckResult(name, passed, detail)
        return check
    return decorate


def _bounded(figure: str, worst: float, tolerance: float):
    """(passed, detail) of a check whose worst ``figure`` must stay below
    ``tolerance``: the verdict and the report read the one bound."""
    return worst < tolerance, {figure: worst, "tolerance": tolerance}


def azimuth_node_floor(kr_perp: float) -> int:
    """Minimum uniform azimuth nodes, scaled by the transverse offset."""
    return max(16, math.ceil(4.0 * (kr_perp + 1.0)))


class AngularGrid(_Frozen):
    """Node counts: nodes per panel of the zonal rule's composite
    Gauss-Legendre rule (and Fejer nodes in cos(theta) for the 2-D
    reference rule), and uniform azimuth nodes of the 2-D rule.
    n_polar is admitted by the engine's one count rule, the check that
    ``integrate_sphere`` makes of a grid too: an integer, whole 32-node
    sub-panels, from 32 to the doubled cap.  n_azimuth is an integer of
    at least 1.  ``integrate_sphere`` reads n_polar only; n_azimuth is
    read by the reference rule here and by the benchmark's traced child,
    which counts nodes with it.  Where the cap ends is not part of the
    grid; the integrator reads it from the cavity configuration."""

    _fields = ("n_polar", "n_azimuth")

    def __init__(self, n_polar: int, n_azimuth: int):
        _check_polar_count(n_polar)
        if not isinstance(n_azimuth, (int, np.integer)) or n_azimuth < 1:
            raise ValueError(f"n_azimuth={n_azimuth} is not an integer of "
                             "at least 1")
        self._set(n_polar=n_polar, n_azimuth=n_azimuth)

    @classmethod
    def for_position(cls, kr, config: CavityConfig) -> "AngularGrid":
        """Default grid for a position (3,), or for the farthest row of a
        block (P, 3), and mirrors: ``polar_node_count`` nodes per polar
        panel, and for the 2-D reference rule the azimuth floor plus a
        margin of 16 (the periodic rule needs ~16 modes beyond the
        integrand's band edge before its spectral tail dies), or 32
        per linewidth 2 delta (``cavity._half_width``) that a cap ring's
        phase sweeps in half a turn, <= k_perp (|kz| + k_perp) / kR, if
        more: 16 k_perp (|kz| + k_perp) / (kR delta).  The position or
        block is admitted as ``integrate_sphere`` admits it: a bad shape
        or row raises ValueError, and a block beyond the warning radius
        warns once."""
        kr, radii = _admit(kr)
        far = np.argmax(radii)
        k_perp, kz = math.hypot(*kr[far, :2]), abs(kr[far, 2])
        sweep = (16.0 * k_perp * (kz + k_perp)
                 / (config.k_r_mirror * _half_width(config.rho)))
        return cls(polar_node_count(float(radii[far]), config),
                   max(azimuth_node_floor(k_perp) + 16, math.ceil(sweep)))


def _pol_weight(orientation: DipoleOrientation, ox, oy, oz):
    d = orientation.unit_vector
    if d is None:
        return np.ones_like(oz)  # isotropic: weight is identically 1
    cos = ox * d[0] + oy * d[1] + oz * d[2]
    return 1.5 * (1.0 - cos * cos)


def monte_carlo_reference(kr, orientation: DipoleOrientation,
                          config: CavityConfig, phi0: float,
                          n_samples: int, seed: int
                          ) -> tuple[Response, tuple[float, float]]:
    """Uniform-on-sphere Monte-Carlo estimate of both integrals.

    Returns the mean Response and the standard error of each component.
    Deterministic for a fixed seed; intended as an independent oracle for
    integrate_sphere, not for production use.

    Sample j takes draws 2j and 2j + 1 of ``_stream(seed)`` for cos(theta)
    and azimuth, and chunks of SAMPLE_CHUNK samples address their draws
    by index, so memory does not grow with n_samples.  In a chunk, only
    the cap samples, selected by cos(theta) alone, get an azimuth and go
    straight to ``cap_brackets``.  A band sample counts its polarization
    weight to gamma and 0 to the shift, and gets an azimuth only when the
    dipole has a direction: the isotropic weight is 1.  Each part of a
    chunk is pooled into running moments (``_pool``).
    """
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 10_000):
        raise ValueError(f"n_samples must be an integer of at least 10^4, "
                         f"got {n_samples!r}")
    kr = Position.of(kr).vec
    kx, ky, kz = (float(k) for k in kr)
    kr_sq = float(kr @ kr)
    cos_theta = math.cos(effective_theta(config))
    isotropic = orientation.unit_vector is None
    draw = _stream(seed)
    gamma = shift = (0, 0.0, 0.0)
    for start in range(0, n_samples, SAMPLE_CHUNK):
        j = np.arange(start, min(start + SAMPLE_CHUNK, n_samples),
                      dtype=np.uint64)
        z = 2.0 * draw(2 * j) - 1.0
        in_cap = np.abs(z) >= cos_theta
        cap = np.flatnonzero(in_cap)
        ox, oy, oz, w = _weighted_directions(
            z.take(cap), draw(2 * j.take(cap) + 1), orientation)
        u = ox * kx + oy * ky + oz * kz
        phi = ray_phase(phi0, kr_sq, u, config.k_r_mirror)
        g, s, _, _ = cap_brackets(config.rho, phi, u)
        n_band = len(j) - len(u)
        if isotropic:
            band = (n_band, 1.0, 0.0)
        else:
            rest = np.flatnonzero(~in_cap)
            band = _moments(_weighted_directions(
                z.take(rest), draw(2 * j.take(rest) + 1), orientation)[3])
        gamma = _pool(_pool(gamma, _moments(w * g)), band)
        shift = _pool(_pool(shift, _moments(w * s)), (n_band, 0.0, 0.0))

    def error(moments):
        n, _, squares = moments
        return math.sqrt(squares / (n - 1)) / math.sqrt(n)

    return Response(gamma[1], shift[1]), (error(gamma), error(shift))


def _mix64(x):
    """SplitMix64's output hash (Steele, Lea & Flood, OOPSLA 2014) of each
    word of the numpy uint64 array x."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB
    return x ^ (x >> 31)


def _stream(seed):
    """The SplitMix64 stream of ``seed``, an integer >= 0 of any size, as
    a function of an index array: draw i, uniform on [0, 1), is
    (mix64(key + (i + 1) 0x9E3779B97F4A7C15) >> 11) 2^-53 in uint64
    arithmetic, a hash of i with no state to advance.  The key folds the
    seed's 64-bit words from the top, key -> mix64(key) ^ word: it is the
    seed itself below 2^64."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = np.zeros(1, dtype=np.uint64)
    for shift in range((seed.bit_length() - 1) & -64, -1, -64):
        key = _mix64(key) ^ ((seed >> shift) & (2**64 - 1))

    def draws(index):
        x = np.asarray(index, dtype=np.uint64) + 1
        x = _mix64(x * 0x9E3779B97F4A7C15 + key) >> 11
        return x.view(np.int64) * 2.0 ** -53  # exact, as x < 2^53
    return draws


def _weighted_directions(z, a, orientation: DipoleOrientation):
    """(ox, oy, oz, w): the unit directions of the samples cos(theta) = z
    and azimuth 2 pi a, and their polarization weights."""
    s = np.sqrt(1.0 - z * z)  # z = 2 d - 1 is in [-1, 1), so z * z <= 1
    az = 2.0 * math.pi * a
    ox, oy = s * np.cos(az), s * np.sin(az)
    return ox, oy, z, _pol_weight(orientation, ox, oy, z)


def _moments(x: np.ndarray) -> tuple[int, float, float]:
    """Count, mean and sum of squared deviations of the samples x."""
    if not len(x):
        return 0, 0.0, 0.0
    mean = float(np.sum(x)) / len(x)
    return len(x), mean, float(np.sum((x - mean) ** 2))


def _pool(a: tuple[int, float, float], b: tuple[int, float, float]
          ) -> tuple[int, float, float]:
    """The moments of two sample sets pooled, each (count, mean, sum of
    squared deviations): the pairwise update of Chan, Golub & LeVeque
    (Am. Stat. 37, 242, 1983), exact in exact arithmetic."""
    (n_a, mean_a, sq_a), (n_b, mean_b, sq_b) = a, b
    if not n_b:
        return a
    if not n_a:
        return b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * n_b / n,
            sq_a + sq_b + delta * delta * n_a * n_b / n)


def _fejer_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Fejer's first n-point rule on [-1, 1], nodes ascending:
    x_k = cos(theta_k), theta_k = (2k - 1) pi / (2n), and
    w_k = (2/n) (1 - 2 sum_{j=1}^{n//2} cos(2 j theta_k) / (4 j^2 - 1))
    (Waldvogel, BIT 46 (2006) 195).  It is exact below degree n, its
    weights are positive, and it takes no iteration and no eigensolver.
    The j-sum runs in blocks of at most BLOCK_NODES terms over the nodes
    of one half, which the other half mirrors."""
    half = (n + 1) // 2
    theta = 0.5 * math.pi * np.arange(1, 2 * half, 2) / n
    total = np.zeros(half)
    step = max(1, BLOCK_NODES // half)
    for start in range(1, n // 2 + 1, step):
        j = np.arange(start, min(start + step, n // 2 + 1), dtype=float)
        total += np.sum(np.cos(np.outer(theta, 2.0 * j)) / (4.0 * j * j - 1.0),
                        axis=1)
    x, w = np.cos(theta), (2.0 / n) * (1.0 - 2.0 * total)
    x = np.concatenate([-x, x[:n // 2][::-1]])
    w = np.concatenate([w, w[:n // 2][::-1]])
    return x, w


def _sphere_rule(n_cos, n_azimuth, theta):
    """The 2-D reference rule on the grid of the folded cap: Fejer's
    nodes in cos(theta) on [cos(theta_eff), 1] times a uniform azimuth
    rule, in blocks of whole cos-node rows, at most BLOCK_NODES nodes a
    block (one row where a row is longer).  Yields for each block the
    directions (ox, oy, oz) and the weight of each node before the
    polarization weight, each of shape (1, nodes): the polar weight,
    doubled for the south cap, times the azimuth step, over the 4 pi of
    the full solid angle.  It depends on neither the position nor the
    dipole."""
    c_edge = math.cos(theta)
    x, w = _fejer_rule(n_cos)
    c = 0.5 * (1.0 - c_edge) * x + 0.5 * (1.0 + c_edge)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    weight = (1.0 - c_edge) * w * (0.5 / n_azimuth)
    az = 2.0 * math.pi * np.arange(n_azimuth) / n_azimuth
    cos_az, sin_az = np.cos(az), np.sin(az)
    rows = max(1, BLOCK_NODES // n_azimuth)
    for i in range(0, n_cos, rows):
        block = slice(i, i + rows)
        ox = s[block, None] * cos_az
        directions = (ox, s[block, None] * sin_az,
                      np.broadcast_to(c[block, None], ox.shape))
        yield ([a.reshape(1, -1) for a in directions],
               np.repeat(weight[block], n_azimuth)[None, :])


def _reference_pass(kr, orientations, config, phi0, grid) -> list[Response]:
    """The response at one position kr of each dipole of
    ``orientations``, gradient included, by the 2-D reference rule on
    ``grid``: its kernel runs once a block of ``_sphere_rule`` for every
    dipole, each dipole's weight is built only when its sums are taken,
    and each dipole's sums add up the blocks in order after its band
    share."""
    theta = effective_theta(config)
    kx, ky, kz = np.array(kr, dtype=float).reshape(3, 1, 1)
    phi0 = np.array([[phi0]], dtype=float)
    sums = [[aperture_weights(o, math.cos(theta))[0], 0.0, 0.0]
            for o in orientations]
    for directions, weight in _sphere_rule(grid.n_polar, grid.n_azimuth,
                                           theta):
        ox, oy, oz = directions
        weighted = ((weight * _pol_weight(o, *directions), 0.0)
                    for o in orientations)
        for total, parts in zip(sums, _integrate_once(
                kx * kx + ky * ky + kz * kz, ox * kx + oy * ky + oz * kz,
                zip(directions, (kx, ky, kz)), phi0, config, weighted,
                True)):
            for i, (part,) in enumerate(parts):
                total[i] += part
    return [Response(float(gamma), float(shift), grad)
            for gamma, shift, grad in sums]


def richardson_gradient(position, orientation: DipoleOrientation,
                        config: CavityConfig,
                        detuning: Detuning) -> np.ndarray:
    """Finite-difference oracle for the shift gradient.

    Central differences at steps h = RICHARDSON_STEP and h/2,
    Richardson-extrapolated to O(h^4).  All evaluations share one fixed
    angular grid, the default grid of the stencil's farthest row, so
    discretization error cancels between the +h and -h points instead of
    polluting the difference.  The 12 points of the stencil are one
    block, each row bit-identical to a call at that point alone on the
    same grid.
    """
    kr, step = Position.of(position).vec, RICHARDSON_STEP
    phi0 = detuning.phase(config.rho)
    # rows by axis, then step h and h/2, then +h and -h
    stencil = np.array([kr + sign * h * e for e in np.eye(3)
                        for h in (step, 0.5 * step) for sign in (1.0, -1.0)])
    grid = AngularGrid.for_position(stencil, config)
    shift = integrate_sphere(stencil, orientation, config, phi0,
                             grid=grid).shift_ratio.reshape(3, 2, 2)
    d_h = (shift[:, 0, 0] - shift[:, 0, 1]) / (2.0 * step)
    d_h2 = (shift[:, 1, 0] - shift[:, 1, 1]) / step
    return (4.0 * d_h2 - d_h) / 3.0


@_check("closed_form_vs_quadrature")
def check_closed_form_vs_quadrature(config: CavityConfig, phi0: float):
    worst = 0.0
    for orientation in _ORIENTATIONS:
        resp = integrate_sphere([0.0, 0.0, 0.0], orientation, config, phi0,
                                tolerance=1e-8)
        cg = float(center_gamma(orientation, config, phi0))
        cs = float(center_shift(orientation, config, phi0))
        worst = max(worst, abs(resp.gamma_ratio - cg) / max(1.0, abs(cg)))
        worst = max(worst, abs(resp.shift_ratio - cs) / max(1.0, abs(cs)))
    return _bounded("worst_relative_error", worst, CLOSED_FORM_TOLERANCE)


@_check("orientation_decomposition")
def check_orientation_decomposition(config: CavityConfig, phi0: float):
    """The three-axis sum rule through the zonal rule: the x, y and z
    dipoles average to the isotropic result, as their polarization
    weights sum to 3 in every direction.  Each dipole's zonal nodes are
    its own, so the rule holds only if each ring's weight integral is
    right.  One block of the rule points per dipole, gamma and shift
    relative and floored at 1."""
    axes = [integrate_sphere(_RULE_POINTS, o, config, phi0) for o in _AXES]
    iso = integrate_sphere(_RULE_POINTS, _ORIENTATIONS[2], config, phi0)
    worst = 0.0
    for field in ("gamma_ratio", "shift_ratio"):
        mean = sum(getattr(r, field) for r in axes) / 3.0
        want = getattr(iso, field)
        worst = max(worst, float(np.max(np.abs(mean - want)
                                        / np.maximum(1.0, np.abs(want)))))
    return _bounded("worst_relative_error", worst, 1e-12)


@_check("fsr_sum_rule")
def check_fsr_sum_rule(config: CavityConfig):
    """Mean of the center damping over one free spectral range must be 1
    and of the center shift 0 (periodic trapezoid over one pi period).

    The trapezoid error decays like exp(-2 n delta) with delta =
    ``cavity._half_width``, the resonance half width in phase, so its
    n = max(4096, ceil(18 / delta)) phases scale with finesse (4,096
    without mirrors, where delta is inf); it is summed in blocks of
    BLOCK_NODES phases, so its memory does not, and the default's 4,096
    phases are one block.
    """
    n_phase = max(4096, math.ceil(18.0 / _half_width(config.rho)))
    iso = DipoleOrientation.isotropic()
    sum_gamma = sum_shift = 0.0
    for start in range(0, n_phase, BLOCK_NODES):
        phases = (np.pi * np.arange(start, min(start + BLOCK_NODES, n_phase))
                  / n_phase)
        sum_gamma += float(np.sum(center_gamma(iso, config, phases)))
        sum_shift += float(np.sum(center_shift(iso, config, phases)))
    mean_gamma, mean_shift = sum_gamma / n_phase, sum_shift / n_phase
    tolerance = 1e-6
    ok = abs(mean_gamma - 1.0) < tolerance and abs(mean_shift) < tolerance
    return ok, {"mean_gamma": mean_gamma, "mean_shift": mean_shift,
                "tolerance": tolerance}


def _seeded_points(seed: int, count: int, low: float,
                   high: float) -> np.ndarray:
    """``count`` points, four draws of the stream of ``seed`` each: a
    direction from the cube [-1, 1)^3, scaled to a radius uniform on
    [low, high)."""
    u = _stream(seed)(np.arange(4 * count)).reshape(count, 4)
    kr = 2.0 * u[:, :3] - 1.0
    radius = low + (high - low) * u[:, 3]
    norm = np.maximum(np.linalg.norm(kr, axis=1), 1e-12)
    return kr * (radius / norm)[:, None]


@_check("parity")
def check_parity(config: CavityConfig, phi0: float, seed: int):
    """Inversion kr -> -kr must not move the damping or the shift and
    must reverse the shift gradient: the five pairs are one block of ten
    rows per dipole, each row on its own default grid.  A pair shares its
    ring-frame sums, so the gradient tests that each row turns them by
    its own frame."""
    kr = _seeded_points(seed, 5, 0.0, 40.0)
    points = np.stack([kr, -kr], axis=1).reshape(10, 3)
    worst = 0.0
    for orientation in _ORIENTATIONS:
        pairs = integrate_sphere(points, orientation, config, phi0,
                                 with_gradient=True)
        grad = pairs.shift_gradient
        for gaps in (pairs.gamma_ratio[::2] - pairs.gamma_ratio[1::2],
                     pairs.shift_ratio[::2] - pairs.shift_ratio[1::2],
                     grad[::2] + grad[1::2]):
            worst = max(worst, float(np.abs(gaps).max()))
    return _bounded("worst_abs_difference", worst, 1e-10)


@_check("rotation_symmetry")
def check_rotation_symmetry(config: CavityConfig, phi0: float, seed: int):
    """Rotating an off-axis position about the cavity axis must not move
    axis-symmetric results (axis-parallel or isotropic dipole), and must
    turn the shift gradient with it.  The base point and its three turns
    are one block of four rows, five draws of the stream of ``seed`` a
    dipole: r_perp, z and the turns."""
    draws = _stream(seed)(np.arange(10)).reshape(2, 5)
    worst = 0.0
    for orientation, u in zip((_ORIENTATIONS[0], _ORIENTATIONS[2]), draws):
        r_perp, z = 1.0 + 29.0 * u[0], 60.0 * u[1] - 30.0
        turns = [(math.cos(angle), math.sin(angle))
                 for angle in 2.0 * math.pi * u[2:]]
        points = [[r_perp, 0.0, z]] + [[r_perp * c, r_perp * s, z]
                                       for c, s in turns]
        rot = integrate_sphere(np.array(points), orientation, config, phi0,
                               with_gradient=True)
        gx, gy, gz = rot.shift_gradient[0]
        turned = [[c * gx - s * gy, s * gx + c * gy, gz] for c, s in turns]
        for gaps in (rot.gamma_ratio[1:] - rot.gamma_ratio[0],
                     rot.shift_ratio[1:] - rot.shift_ratio[0],
                     rot.shift_gradient[1:] - turned):
            worst = max(worst, float(np.abs(gaps).max()))
    return _bounded("worst_abs_difference", worst, 1e-8)


@_check("zonal_vs_sphere_rule")
def check_zonal_vs_sphere_rule(config: CavityConfig, phi0: float):
    """The zonal rule of every integral against the 2-D reference rule,
    gradient included, on and off the axis, each on the default grid of
    its position.  The zonal side is one block of the five points per
    dipole, the reference one pass per point for the three dipoles.  A
    point whose reference grid is above MAX_REFERENCE_NODES is skipped,
    and the check fails whatever the other points give: its detail adds
    ``skipped``, each such point's kr and node count, to the worst
    difference of the points compared.  The differences are kept as
    Python floats, so that the report is plain JSON."""
    grids = [AngularGrid.for_position(kr, config) for kr in _RULE_POINTS]
    zonal = [integrate_sphere(_RULE_POINTS, orientation, config, phi0,
                              with_gradient=True)
             for orientation in _ORIENTATIONS]
    worst, skipped = 0.0, []
    for i, (kr, grid) in enumerate(zip(_RULE_POINTS, grids)):
        nodes = grid.n_polar * grid.n_azimuth
        if nodes > MAX_REFERENCE_NODES:
            skipped.append({"kr": kr.tolist(), "nodes": nodes})
            continue
        reference = _reference_pass(kr, _ORIENTATIONS, config, phi0, grid)
        for a, b in zip(zonal, reference):
            worst = max(worst, abs(a.gamma_ratio[i].item() - b.gamma_ratio),
                        abs(a.shift_ratio[i].item() - b.shift_ratio),
                        *np.abs(a.shift_gradient[i]
                                - b.shift_gradient).tolist())
    passed, detail = _bounded("worst_abs_difference", worst, 1e-10)
    if skipped:
        return False, {**detail, "skipped": skipped}
    return passed, detail


@_check("monte_carlo_agreement")
def check_monte_carlo(config: CavityConfig, phi0: float, seed: int):
    """Quadrature against seeded Monte-Carlo sampling of
    MONTE_CARLO_SAMPLES directions at three points, whose quadrature is
    one block.

    Six z-scores are compared, but a point's gamma and shift share their
    samples and correlate at about 0.9, so some three are independent.
    The bound is 5 standard errors, which a correct program exceeds on
    about 2e-6 of seeds; a bound of 3 was exceeded on 4 of seeds 0-599,
    about 0.7%.
    """
    points = _seeded_points(seed, 3, 0.0, 30.0)
    quad = integrate_sphere(points, _ORIENTATIONS[2], config, phi0)
    worst_z = 0.0
    for i, (kr, gamma, shift) in enumerate(zip(
            points, quad.gamma_ratio.tolist(), quad.shift_ratio.tolist())):
        mc, (se_g, se_s) = monte_carlo_reference(
            kr, _ORIENTATIONS[2], config, phi0, MONTE_CARLO_SAMPLES,
            seed=seed + 1000 + i)
        z_g = abs(gamma - mc.gamma_ratio) / max(se_g, 1e-12)
        z_s = abs(shift - mc.shift_ratio) / max(se_s, 1e-12)
        worst_z = max(worst_z, z_g, z_s)
    passed, detail = _bounded("worst_z_score", worst_z, 5.0)
    return passed, {**detail, "n_samples": MONTE_CARLO_SAMPLES, "seed": seed}


@_check("gradient_vs_finite_difference")
def check_gradient(config: CavityConfig, detuning: Detuning, seed: int):
    """The analytic shift gradient against ``richardson_gradient`` at two
    seeded points, whose analytic side is one block with the doubling
    check at DEFAULT_TOLERANCE: a point that does not converge fails the
    check under its own row."""
    orientation = _ORIENTATIONS[2]
    points = _seeded_points(seed, 2, 2.0, 40.0)
    analytic = integrate_sphere(points, orientation, config,
                                detuning.phase(config.rho),
                                tolerance=DEFAULT_TOLERANCE,
                                with_gradient=True).shift_gradient
    worst = 0.0
    for kr, grad in zip(points, analytic):
        fd = richardson_gradient(kr, orientation, config, detuning)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12)
        worst = max(worst, float(rel))
    return _bounded("worst_relative_error", worst, 1e-4)


def run_validation_suite(config: CavityConfig, detuning: Detuning,
                         seed: int = 0) -> list[CheckResult]:
    """Run every internal-consistency check for one configuration."""
    phi0 = detuning.phase(config.rho)
    checks = [
        check_closed_form_vs_quadrature(config, phi0),
        check_orientation_decomposition(config, phi0),
        check_fsr_sum_rule(config),
        check_parity(config, phi0, seed),
        check_rotation_symmetry(config, phi0, seed),
        check_zonal_vs_sphere_rule(config, phi0),
        check_monte_carlo(config, phi0, seed),
        check_gradient(config, detuning, seed),
    ]
    return checks
