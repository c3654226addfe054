"""Sphere quadrature of the damping/shift direction integrals.

The integrand at direction omega_hat is

    gamma:  w * (l_odd cos^2(u) + l_even sin^2(u))
    shift:  w * (d_odd cos^2(u) + d_even sin^2(u))

with u = omega_hat . kr, w the polarization weight (1 for the isotropic
average) and the resonance factors of ``cavity.airy_factors`` evaluated
at the aberration phase ``cavity.ray_phase`` of the ray through kr.  The
mirror reflectivity applies only inside the double cap
|cos(theta)| >= cos(theta_eff).  Outside it, in the vacuum band, the
factors are exactly (1, 0), so the sample is (w, 0) whatever kr is.

Only the caps are integrated numerically; the band contributes the
position-independent constant ``cavity.aperture_weights`` to gamma and
nothing to the shift or its gradient.  Inversion omega_hat -> -omega_hat
maps the south cap onto the north one and leaves every integrand
unchanged (u enters only as u^2 and as sin(2u) omega_hat, the dipole only
as (d . omega_hat)^2), so the north cap with doubled weights carries
both.  One integrator, ``_integrate_once``, makes one pass over the
directions and weights of a rule, and one rule serves every position:
the zonal rule, whose nodes are rings about kr.  On such a ring u is
constant, so its integral over the arc inside the cap is closed form, and
what is left is a 1-D Gauss-Legendre integral over the ring angle in one
or two panels (a Funk-Hecke reduction restricted to a cap; Atkinson &
Han, Spherical Harmonics and Approximations on the Unit Sphere, LNM 2044).
``integrate_sphere`` runs that rule and no other.  The independent
reference that ``validate`` and the tests compare it with, a 2-D rule of
Gauss-Legendre nodes in cos(theta) times a uniform azimuth rule, is
``validation``'s own code and passes its nodes to ``_integrate_once``.

The production rule in one variable is composite: one 32-node
Gauss-Legendre base rule, built once at import by Newton's method on the
Legendre recurrence, shifted onto each of n / 32 equal sub-panels of
[-1, 1] (``_leggauss``).  Tiling it takes microseconds, so no rule is
stored.  The 2-D reference rule takes numpy's Gauss-Legendre rule
instead, so the two sides of that check share no node.

An ``AngularGrid`` is node counts only; the cap edge comes from the
cavity configuration.  The integrand oscillates with spatial frequency up
to |kr| across the sphere, so node counts scale linearly in |kr| (with a
floor); the polar count also grows with the resonance linewidths that the
aberration phase sweeps, and is rounded up to whole 32-node sub-panels.
``plan_blocks`` groups a scan's positions by polar count and by the
panels they have into blocks of at most BLOCK_NODES nodes;
``integrate_sphere`` integrates a block in one pass through the kernel
over (points x nodes) arrays, one position being a block of one.  Every
operation is elementwise along the rows and each row is summed on its own
in a fixed order, so a row's bits do not depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import (
    POSITION_MAX_RADIUS,
    CavityConfig,
    DipoleOrientation,
    Position,
    Response,
    airy_factors,
    aperture_weights,
    effective_theta,
    ray_phase,
)


class ConvergenceError(RuntimeError):
    """Doubling the node counts moved the result more than the requested
    tolerance.  Carries the refined estimate, the observed change and
    ``rows``, the rows of a block that failed ([0] for one position)."""

    def __init__(self, message: str, estimate: Response, change: tuple,
                 rows: list[int]):
        super().__init__(message)
        self.estimate = estimate
        self.change = change
        self.rows = rows


# Nodes of the one Gauss-Legendre base rule, tiled over the equal
# sub-panels of every panel: the fewest nodes of any panel, the polar
# floor at the center and the step of every polar node count.
MIN_POLAR_NODES = 32

# Most Gauss-Legendre nodes per panel that a default grid may take, and
# half of what any grid may take (a default grid doubled).  A rule of n
# nodes takes microseconds to tile, so the cap bounds the kernel arrays
# of a block, which grow with n, not build time.
MAX_POLAR_NODES = 16_384

# Points times nodes of the doubled pass (4 n_polar per point) that one
# block of a scan may take.  Larger blocks spread the Python work of a
# pass over more points but hold larger kernel temporaries: on a 15 x 15
# plane scan a budget of 1,024 took 2.1-2.4 times as long (median of 15
# warm runs), and one of 8,192 had the same fastest run and twice the
# traced peak memory, 1.6 MB against 0.84 MB.
BLOCK_NODES = 4096


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending, by
    Newton's method on the three-term recurrence of P_n for the n // 2
    nodes in (0, 1), mirrored: five steps from
    x = cos(pi (k - 1/4) / (n + 1/2)), of which the fourth is already at
    rounding for n = 32.  The weight 2 / ((1 - x^2) P_n'^2) is
    taken at the last iterate and carried through the last step to first
    order, so the rounding of the node, which moves 1 - x^2 by up to
    ulp(x) / (1 - |x|) relative, does not reach it."""
    x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(5):
        p_prev, p = np.ones_like(x), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        one_minus_sq = (1.0 - x) * (1.0 + x)
        dp = n * (p_prev - x * p) / one_minus_sq
        step = p / dp
        last, x = x, x - step
    w = 2.0 / (dp * dp * (one_minus_sq - 2.0 * last * step))
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


_BASE_NODES, _BASE_WEIGHTS = _gauss_legendre(MIN_POLAR_NODES)


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The composite rule of n nodes on [-1, 1], n a multiple of
    MIN_POLAR_NODES, nodes ascending: the base Gauss-Legendre rule on
    each of n / MIN_POLAR_NODES equal sub-panels.  Sub-panel centers are
    odd integers over the panel count, so the rule is mirror-symmetric
    bit for bit, and the one-panel rule is the base rule itself."""
    panels = n // MIN_POLAR_NODES
    center = np.arange(1 - panels, panels, 2, dtype=float)[:, None]
    nodes = (center + _BASE_NODES) / panels
    return nodes.ravel(), np.tile(_BASE_WEIGHTS / panels, panels)


def polar_node_floor(kr_norm: float) -> int:
    """Minimum Gauss-Legendre nodes per polar panel: at least four nodes
    per oscillation period, never fewer than MIN_POLAR_NODES."""
    return max(MIN_POLAR_NODES, math.ceil(4.0 * (kr_norm + 1.0)))


def polar_node_count(kr_norm: float, config: CavityConfig) -> int:
    """Gauss-Legendre nodes per panel of the default grid at |kr|.

    The polar floor, or four nodes per resonance linewidth that the
    aberration phase sweeps where that is more:
    2 |kr|^2 sqrt(rho) / (kR (1 - rho)), as the sweep is at most
    |kr|^2 / (2 kR) and a linewidth about (1 - rho) / sqrt(rho) in phase.
    With the default mirrors that term stays below the floor.  The count
    is rounded up to a multiple of MIN_POLAR_NODES, whole sub-panels of
    the composite rule.  Above MAX_POLAR_NODES it raises ValueError.
    """
    sweep = (2.0 * kr_norm ** 2 * math.sqrt(config.rho)
             / (config.k_r_mirror * (1.0 - config.rho)))
    need = max(polar_node_floor(kr_norm), math.ceil(sweep))
    n_polar = MIN_POLAR_NODES * -(-need // MIN_POLAR_NODES)
    if n_polar > MAX_POLAR_NODES:
        raise ValueError(
            f"|kr| = {kr_norm:.1f} needs {n_polar} polar nodes with these "
            f"mirrors, above the cap of {MAX_POLAR_NODES}")
    return n_polar


def _radius(kr):
    """|kr| of a position (3,) or of each row of a block (P, 3), by the
    one formula that checks positions, sizes grids and admits them: the
    squares summed in order, as ``Position`` sums them, so a row gets the
    same bits alone and in a block."""
    kr = np.asarray(kr, dtype=float)
    x, y, z = kr[..., 0], kr[..., 1], kr[..., 2]
    with np.errstate(over="ignore"):  # an overflow is out of range anyway
        return np.sqrt(x * x + y * y + z * z)


def azimuth_node_floor(kr_perp: float) -> int:
    """Minimum uniform azimuth nodes, scaled by the transverse offset."""
    return max(16, math.ceil(4.0 * (kr_perp + 1.0)))


@dataclass(frozen=True)
class AngularGrid:
    """Node counts: nodes per panel of the zonal rule's composite
    Gauss-Legendre rule, whole sub-panels of MIN_POLAR_NODES (and
    Gauss-Legendre nodes in cos(theta) for the 2-D reference rule), and
    uniform azimuth nodes of the 2-D rule.  ``integrate_sphere`` reads
    n_polar only; n_azimuth is read by ``validation``'s reference rule
    and by the benchmark's traced child, which counts nodes with it.
    Where the cap ends is not part of the grid; the integrator reads it
    from the cavity configuration."""

    n_polar: int
    n_azimuth: int

    def __post_init__(self):
        if self.n_polar < MIN_POLAR_NODES or self.n_azimuth < 1:
            raise ValueError(f"a grid needs n_polar >= {MIN_POLAR_NODES} and "
                             f"n_azimuth >= 1, got {self.n_polar} and "
                             f"{self.n_azimuth}")
        if self.n_polar % MIN_POLAR_NODES:
            raise ValueError(f"n_polar={self.n_polar} is not a multiple of "
                             f"{MIN_POLAR_NODES}, the nodes of one sub-panel")
        if self.n_polar > 2 * MAX_POLAR_NODES:
            raise ValueError(f"n_polar={self.n_polar} is above the cap of "
                             f"{2 * MAX_POLAR_NODES}")

    @classmethod
    def for_position(cls, kr, config: CavityConfig) -> "AngularGrid":
        """Default grid for a position and mirrors: ``polar_node_count``
        nodes per polar panel, and for the 2-D reference rule the
        azimuth floor plus a margin of 16 (the periodic rule needs ~16
        modes beyond the integrand's band edge before its spectral tail
        dies)."""
        kr = Position.of(kr).vec
        return cls(
            n_polar=polar_node_count(float(_radius(kr)), config),
            n_azimuth=azimuth_node_floor(math.hypot(kr[0], kr[1])) + 16,
        )

    def doubled(self) -> "AngularGrid":
        return AngularGrid(2 * self.n_polar, 2 * self.n_azimuth)

    def check_admissible(self, kr: np.ndarray) -> None:
        """Reject grids below the polar node floor for this position.  The
        azimuth count is not checked: ``integrate_sphere`` does not read
        it, only ``validation``'s 2-D reference rule and the benchmark's
        traced child do."""
        kr_norm = float(_radius(kr))
        if self.n_polar < polar_node_floor(kr_norm):
            raise ValueError(
                f"n_polar={self.n_polar} is below the floor "
                f"{polar_node_floor(kr_norm)} for |kr|={kr_norm:.2f}"
            )


def _pol_weight(orientation: DipoleOrientation, ox, oy, oz):
    d = orientation.unit_vector
    if d is None:
        return np.ones_like(oz)  # isotropic: weight is identically 1
    cos = ox * d[0] + oy * d[1] + oz * d[2]
    return 1.5 * (1.0 - cos * cos)


def _cap_terms(rho: float, phi, u, with_gradient: bool = False):
    """Gamma and shift brackets inside the reflective caps.

    With ``with_gradient`` also the chain-rule pieces of d(shift)/d(kr),
    else None: ``u_part`` multiplies omega_hat (standing-wave factors),
    ``phase_part`` multiplies grad(phi) = (kr - u omega_hat)/kR, with
    d(d_odd)/dphi = 2 rho cos(2 phi) l_odd/T - 4 d_odd^2 and
    d(d_even)/dphi = -2 rho cos(2 phi) l_even/T - 4 d_even^2.
    """
    f = airy_factors(rho, phi)
    cos_u_sq = np.cos(u) ** 2
    sin_u_sq = 1.0 - cos_u_sq
    gamma = f.l_odd * cos_u_sq + f.l_even * sin_u_sq
    shift = f.d_odd * cos_u_sq + f.d_even * sin_u_sq
    if not with_gradient:
        return gamma, shift, None, None
    slope = 2.0 * rho * np.cos(2.0 * phi) / (1.0 - rho * rho)
    dd_odd = slope * f.l_odd - 4.0 * f.d_odd ** 2
    dd_even = -slope * f.l_even - 4.0 * f.d_even ** 2
    phase_part = dd_odd * cos_u_sq + dd_even * sin_u_sq
    u_part = (f.d_even - f.d_odd) * np.sin(2.0 * u)
    return gamma, shift, u_part, phase_part


def _sample_terms(dirs: np.ndarray, kr: np.ndarray,
                  orientation: DipoleOrientation, config: CavityConfig,
                  phi0: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized integrand over an (n, 3) array of unit directions."""
    w = _pol_weight(orientation, dirs[:, 0], dirs[:, 1], dirs[:, 2])
    gamma = w.copy()
    shift = np.zeros_like(w)
    inside = np.abs(dirs[:, 2]) >= math.cos(effective_theta(config))
    if np.any(inside):
        u = dirs[inside] @ kr
        phi = ray_phase(phi0, float(kr @ kr), u, config.k_r_mirror)
        g, s, _, _ = _cap_terms(config.rho, phi, u)
        gamma[inside] = w[inside] * g
        shift[inside] = w[inside] * s
    return gamma, shift


def _cone_angle(kr):
    """beta, the angle of each row of the (P, 3) block kr from the axis
    of its folded cap, sign(kz) z: in [0, pi/2], and 0 at kr = 0."""
    kr = np.asarray(kr, dtype=float)
    return np.arctan2(np.hypot(kr[:, 0], kr[:, 1]), np.abs(kr[:, 2]))


def _zonal_rule(orientation, n_polar, theta, kr):
    """(ox, oy, oz, weight), each of shape (P, n_polar) or (P, 2 n_polar),
    with one node per ring about r = kr/|kr| for each row of the (P, 3)
    block kr.

    The folded cap is taken about n = sign(kz) z, at the angle
    beta <= pi/2 from r (r = n at kr = 0).  On the ring at angle alpha
    from r, omega = cos(alpha) r + sin(alpha) (cos(psi) e1 + sin(psi) e2)
    with e1 towards n, so u = |kr| cos(alpha) is constant and the ring
    meets the cap on the arc |psi| <= psi0.  The node carries
    W = integral of w dpsi over the arc and the direction V / W, with
    V = integral of w omega dpsi: kr . V / W = u, and every integrand,
    gradient included, is w f(u) or linear in omega, so the node
    reproduces the ring exactly.  The moments of 1, cos, cos^2, sin^2,
    cos^3 and cos sin^2 over the arc are closed forms, and so are W and V
    (w is quadratic in omega).

    Alpha runs over up to two panels of the n_polar-node composite rule
    (``_leggauss``: 32-node Gauss-Legendre sub-panels) each: whole rings
    on [0, theta - beta] (psi0 = pi), which a row has if beta < theta,
    then cut rings on [|theta - beta|, theta + beta], which it has if
    beta > 0, both mapped by
    alpha = a + (b - a) (1 - cos(tau)) / 2, which removes the square-root
    behaviour of psi0 at the panel ends.  psi0 comes from the half-angle
    formula of the spherical triangle (r, n, edge point), with
    s = (alpha + beta + theta) / 2:
    tan(psi0 / 2) = sqrt(sin(s - alpha) sin(s - beta)
                         / (sin(s) sin(s - theta))),
    its small factors taken from the map, not by subtraction.  A panel
    is built only if some row of the block has it, so a block of rows of
    one kind, as ``plan_blocks`` makes them, gets only its own panels.
    In a block that mixes kinds, a row without one of the built panels
    lays its nodes over a stand-in of width theta, where every ring
    weight is positive, and gives them weight exactly 0, so no 0/0
    reaches a sum.  Those zeros are a run of n_polar columns, a multiple
    of 32, that numpy's pairwise sum adds as a separate half, so they
    leave a row's sums exactly as its own panels give them.

    Every operation is elementwise along the rows, so a row's values do
    not depend on the other rows of its block.
    """
    kx, ky, kz = kr.T.copy()
    k_perp = np.hypot(kx, ky)
    beta = _cone_angle(kr)
    sign = np.where(kz < 0.0, -1.0, 1.0)
    on_axis = k_perp == 0.0
    k_perp[on_axis] = 1.0
    cos_p = np.where(on_axis, 1.0, kx / k_perp)
    sin_p = np.where(on_axis, 0.0, ky / k_perp)
    cb, sb = np.cos(beta), np.sin(beta)
    frame = ((sb * cos_p, sb * sin_p, sign * cb),  # r
             (-cb * cos_p, -cb * sin_p, sign * sb),  # e1
             (-sin_p, cos_p, np.zeros_like(cb)))  # e2
    # w = 1.5 (1 - omega . D omega) with D = d d^T, or I/3 for the
    # isotropic average; q is D in the frame (r, e1, e2), one value per
    # row.  The ring integrals below spend trace(D) = 1 so that nothing
    # cancels: the form 1.5 (m0 - integral of omega . D omega) gives 0/0
    # for a dipole along r.
    d = orientation.unit_vector
    if d is None:
        q = [[1.0 / 3.0 if i == j else 0.0 for j in range(3)]
             for i in range(3)]
    else:
        v = [f[0] * d[0] + f[1] * d[1] + f[2] * d[2] for f in frame]
        q = [[(v[i] * v[j])[:, None] for j in range(3)] for i in range(3)]
    k_c, k_s = 1.5 * (q[1][1] + q[2][2]), 1.5 * q[0][0]
    k_cs, k_1, k_2 = -3.0 * q[0][1], 1.5 * q[1][1], 1.5 * q[2][2]

    x, w_gl = _leggauss(n_polar)
    half_tau = 0.25 * math.pi * (x + 1.0)
    lo = np.sin(half_tau) ** 2  # (alpha - a) / (b - a)
    hi = np.cos(half_tau) ** 2  # (b - alpha) / (b - a)
    # d(alpha) per unit of b - a, over the 2 pi of the folded sphere
    d_alpha = 0.125 * np.sin(2.0 * half_tau) * w_gl

    def panel(width):
        """Width of the nodes' interval and of their weight per row."""
        present = width > 0.0
        return (np.where(present, width, theta)[:, None],
                np.where(present, width, 0.0)[:, None] * d_alpha)

    panels = []
    if np.any(beta < theta):
        width, weight_w = panel(np.maximum(theta - beta, 0.0))
        panels.append((width * lo, weight_w, math.pi, 0.0, -1.0))
    if np.any(beta > 0.0):
        a = np.abs(theta - beta)
        width, weight_c = panel(theta + beta - a)
        a = a[:, None]
        alpha = a + width * lo
        grows = np.sin(0.5 * width * lo)  # sin of (alpha - a) / 2
        stays = np.sin(0.5 * (alpha + a))
        outside = (beta >= theta)[:, None]
        psi0 = 2.0 * np.arctan2(
            np.sqrt(np.sin(0.5 * width * hi)
                    * np.where(outside, grows, stays)),
            np.sqrt(np.sin(0.5 * (alpha + beta[:, None] + theta))
                    * np.where(outside, stays, grows)))
        panels.append((alpha, weight_c, psi0, np.sin(psi0), np.cos(psi0)))
    nodes = []
    for alpha, d_weight, psi0, sin0, cos0 in panels:
        # moments of 1, cos, cos^2, sin^2, cos sin^2 and cos^3 on the arc
        m0, mc = 2.0 * psi0, 2.0 * sin0
        mcc, mss = psi0 + sin0 * cos0, psi0 - sin0 * cos0
        mcss = 2.0 * sin0 ** 3 / 3.0
        mccc = mc - mcss
        c, s = np.cos(alpha), np.sin(alpha)
        cs, ss = c * s, s * s
        tilt = k_c * c * c + k_s * ss
        ring = tilt * m0 + cs * (k_cs * mc) + ss * (k_1 * mss + k_2 * mcc)
        ring_c = tilt * mc + cs * (k_cs * mcc) + ss * (k_1 * mcss + k_2 * mccc)
        ring_s = cs * (-3.0 * q[0][2] * mss) + ss * (-3.0 * q[1][2] * mcss)
        nodes.append((c, s * ring_c / ring, s * ring_s / ring,
                      s * d_weight * ring))
    c, t1, t2, weight = (np.concatenate(part, axis=1) for part in zip(*nodes))
    ox, oy, oz = (c * r[:, None] + t1 * e[:, None] + t2 * f[:, None]
                  for r, e, f in zip(*frame))
    return ox, oy, oz, weight


def _integrate_once(kr, orientation, config, phi0, nodes, with_gradient):
    """The folded cap by quadrature for each row of the (P, 3) block kr,
    in one pass through the kernel over (P, n) arrays, plus the vacuum
    band's closed-form share.  ``nodes`` is a rule's (ox, oy, oz, weight),
    each (P, n), or (1, n) for a rule that serves every row.

    The band's share takes the cap edge from the configuration.  The
    gradient is d(shift)/d(kr) = sum of
    weight * (u_part omega_hat + phase_part (kr - u omega_hat) / kR),
    whose integrand is also even under omega_hat -> -omega_hat.  Each row
    is summed on its own along the contiguous node axis, so its bits do
    not depend on the block.  Returns (P,) gamma and shift and the
    (P, 3) gradient or None.
    """
    theta = effective_theta(config)
    kR = config.k_r_mirror
    ox, oy, oz, weight = nodes
    kx, ky, kz = (k[:, None] for k in kr.T.copy())
    u = ox * kx + oy * ky + oz * kz
    phi = ray_phase(phi0[:, None], kx * kx + ky * ky + kz * kz, u, kR)
    g, sh, u_part, phase_part = _cap_terms(config.rho, phi, u, with_gradient)
    grad = None
    if with_gradient:
        grad = np.stack([
            np.sum(weight * (u_part * o + phase_part * (k - u * o) / kR),
                   axis=-1)
            for o, k in zip((ox, oy, oz), (kx, ky, kz))], axis=-1)
    band, _ = aperture_weights(orientation, math.cos(theta))
    return (band + np.sum(weight * g, axis=-1),
            np.sum(weight * sh, axis=-1), grad)


def integrate_sphere(kr, orientation: DipoleOrientation, config: CavityConfig,
                     phi0, grid: AngularGrid | None = None,
                     tolerance: float | None = None,
                     with_gradient: bool = False) -> Response:
    """Average both integrands over the full solid angle, at one position
    or at each row of a block.

    A block is a (P, 3) array of positions that share ``grid``, with
    ``phi0`` one phase or one per row; without a grid it takes the
    default grid of its farthest row.  Its Response holds (P,) ratios and
    a (P, 3) gradient, and each row is bit-identical to a call at that
    row alone with the same n_polar: one position is the block of one.
    A phase that is not finite, a count of phases other than one or P
    and a ``tolerance`` that is not positive raise ValueError.

    With a ``tolerance``, the grid is doubled once and the refined result
    is returned; if the two estimates of a row disagree by more than the
    tolerance (relative, floored at 1 in absolute terms) a
    ConvergenceError is raised carrying the refined estimate of every
    row and the rows that failed.
    """
    if tolerance is not None and not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    block = np.ndim(kr) == 2
    if block:
        kr = np.array(kr, dtype=float)
        if kr.shape[0] == 0 or kr.shape[1] != 3:
            raise ValueError(f"a block of positions has shape (P, 3), got "
                             f"{kr.shape}")
        # a row that is not finite or is out of range raises as Position
        # does; the ValidityWarning is left to whoever built the block,
        # as it names the caller's line, not this one
        for row in kr[~(_radius(kr) <= POSITION_MAX_RADIUS)]:
            Position.of(row)
    else:
        kr = Position.of(kr).vec[None, :]
    farthest = kr[np.argmax(_radius(kr))]
    if grid is None:
        grid = AngularGrid.for_position(farthest, config)
    grid.check_admissible(farthest)
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape not in ((), (len(kr),)):
        raise ValueError(f"{phi0.size} phases for {len(kr)} positions")
    phi0 = np.broadcast_to(phi0, len(kr)).copy()
    bad = np.flatnonzero(~np.isfinite(phi0))
    if bad.size:
        raise ValueError(f"phase phi0 of row {bad[0]} must be finite, "
                         f"got {phi0[bad[0]]}")

    theta = effective_theta(config)

    def once(n_polar):
        nodes = _zonal_rule(orientation, n_polar, theta, kr)
        return _integrate_once(kr, orientation, config, phi0, nodes,
                               with_gradient)

    gamma, shift, grad = once(grid.n_polar)
    failed = []
    if tolerance is not None:
        gamma2, shift2, grad2 = once(grid.doubled().n_polar)
        d_gamma = np.abs(gamma2 - gamma)
        d_shift = np.abs(shift2 - shift)
        ok = ((d_gamma <= tolerance * np.maximum(1.0, np.abs(gamma2)))
              & (d_shift <= tolerance * np.maximum(1.0, np.abs(shift2))))
        if with_gradient:
            d_grad = np.linalg.norm(grad2 - grad, axis=1)
            ok &= d_grad <= tolerance * np.maximum(
                1.0, np.linalg.norm(grad2, axis=1))
        gamma, shift, grad = gamma2, shift2, grad2
        failed = np.flatnonzero(~ok).tolist()
    if block:
        result = Response(gamma, shift, grad)
    else:
        result = Response(float(gamma[0]), float(shift[0]),
                          None if grad is None else grad[0])
    if failed:
        i = failed[0]
        change = ((d_gamma, d_shift) if block
                  else (float(d_gamma[0]), float(d_shift[0])))
        raise ConvergenceError(
            f"sphere integral did not converge at |kr|="
            f"{float(np.linalg.norm(kr[i])):.2f}: doubling changed "
            f"(gamma, shift) by ({d_gamma[i]:.3e}, {d_shift[i]:.3e}) "
            f"with tolerance {tolerance:g}",
            estimate=result, change=change, rows=failed)
    return result


def plan_blocks(kr, config: CavityConfig
                ) -> list[tuple[AngularGrid, list[int]]]:
    """Blocks of a scan's positions: (grid, row indices) with the rows of
    each block on one polar node count and of one panel kind, at most
    BLOCK_NODES // (4 n_polar) of them (at least one).  The kind is the
    set of zonal panels a row has: on the axis only whole rings, outside
    the cap cone (beta >= theta) only cut rings, between them both; so
    ``_zonal_rule`` builds no stand-in panel for a scan.  Every position
    is checked and sized first, in one pass over the radii, so a bad one
    raises before any work, as ``Position`` would for the first bad row,
    and a scan beyond the warning radius warns.  Each count and kind gets
    one grid, that of its first row."""
    kr = np.asarray(kr, dtype=float)
    radii = _radius(kr)
    bad = np.flatnonzero(~(radii <= POSITION_MAX_RADIUS))
    # raises for the first bad row, or warns if the farthest is beyond the
    # warning radius: a count's first row may lie inside it
    Position.of(kr[bad[0] if bad.size else np.argmax(radii)])
    beta = _cone_angle(kr)
    theta = effective_theta(config)
    kinds = zip((beta < theta).tolist(), (beta > 0.0).tolist())
    counts: dict[float, int] = {}
    groups: dict[tuple[int, tuple[bool, bool]], list[int]] = {}
    for i, (r, kind) in enumerate(zip(radii.tolist(), kinds)):
        if r not in counts:
            counts[r] = polar_node_count(r, config)
        groups.setdefault((counts[r], kind), []).append(i)
    blocks = []
    for (n, _), rows in groups.items():
        grid = AngularGrid.for_position(kr[rows[0]], config)
        size = max(1, BLOCK_NODES // (4 * n))
        blocks += [(grid, rows[i:i + size])
                   for i in range(0, len(rows), size)]
    return blocks


def monte_carlo_reference(kr, orientation: DipoleOrientation,
                          config: CavityConfig, phi0: float,
                          n_samples: int, seed: int
                          ) -> tuple[Response, tuple[float, float]]:
    """Uniform-on-sphere Monte-Carlo estimate of both integrals.

    Returns the mean Response and the standard error of each component.
    Deterministic for a fixed seed; intended as an independent oracle for
    integrate_sphere, not for production use.

    Every sample is drawn, but only the cap samples, selected by their
    cos(theta) alone, get a direction and go straight to ``_cap_terms``;
    ``_sample_terms`` is the pointwise form of the same integrand.  A band
    sample counts its polarization weight to gamma and 0 to the shift,
    and gets a direction only when the dipole has one: the isotropic
    weight is 1.
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10^4")
    kr = Position.of(kr).vec
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n_samples)
    az = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    in_cap = np.abs(z) >= math.cos(effective_theta(config))

    def directions(rows):
        zr, ar = z[rows], az[rows]
        s = np.sqrt(np.clip(1.0 - zr * zr, 0.0, None))
        return np.column_stack([s * np.cos(ar), s * np.sin(ar), zr])

    def weight(dirs):
        return _pol_weight(orientation, dirs[:, 0], dirs[:, 1], dirs[:, 2])

    dirs = directions(in_cap)
    u = dirs @ kr
    phi = ray_phase(phi0, float(kr @ kr), u, config.k_r_mirror)
    g, s, _, _ = _cap_terms(config.rho, phi, u)
    w = weight(dirs)
    gamma, shift = w * g, w * s
    band = 1.0
    if orientation.unit_vector is not None:
        band = weight(directions(~in_cap))
    mean_g, se_g = _mean_and_error(gamma, band, n_samples)
    mean_s, se_s = _mean_and_error(shift, 0.0, n_samples)
    return Response(mean_g, mean_s), (se_g, se_s)


def _mean_and_error(cap: np.ndarray, band, n: int) -> tuple[float, float]:
    """Mean and standard error of n samples: the array ``cap``, then the
    rest, ``band``, either their array or the one value they all take."""
    n_band = n - len(cap)

    def band_sum(x):
        return float(np.sum(x)) if np.ndim(x) else n_band * x

    mean = (float(np.sum(cap)) + band_sum(band)) / n
    squares = float(np.sum((cap - mean) ** 2)) + band_sum((band - mean) ** 2)
    return mean, math.sqrt(squares / (n - 1)) / math.sqrt(n)
