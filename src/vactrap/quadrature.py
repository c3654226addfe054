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
what is left is a 1-D Gauss-Legendre integral over the ring angle in two
panels (a Funk-Hecke reduction restricted to a cap; Atkinson & Han,
Spherical Harmonics and Approximations on the Unit Sphere, LNM 2044).
The 2-D rule, Gauss-Legendre in cos(theta) times a uniform azimuth rule,
is kept only as the independent reference that ``validate`` and the
tests compare the zonal rule with.

Gauss-Legendre rules are built from asymptotic expansions in O(n) work
and memory per rule, with no eigensolver and no loop over the degree
(``_build_rules``; Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)
A652): the Stieltjes-Szego expansion in the interior and the exact
cosine series of P_n next to the ends and in small rules, both in the
angle theta of x = cos(theta).  Any set of rules is built at once, and a
rule is bit-identical whichever set it was built with.  ``_rules`` keeps
every rule built in one store, which never evicts, and ``_leggauss`` is
its one-rule lookup.

An ``AngularGrid`` is node counts only; the cap edge comes from the
cavity configuration.  The integrand oscillates with spatial frequency up
to |kr| across the sphere, so node counts scale linearly in |kr| (with a
floor); the polar count also grows with the resonance linewidths that the
aberration phase sweeps, and is rounded up to a rung of an octave ladder:
a multiple of 16 up to 512 nodes, and above that 16 rungs per octave,
each 1/32 of the octave's top apart.
``plan_blocks`` groups a scan's positions by rung into blocks of at most
BLOCK_NODES nodes and builds every rule they need before any block runs;
``integrate_sphere`` integrates a block in one pass through the kernel
over (points x nodes) arrays, one position being a block of one.  Every
operation is elementwise along the rows and each row is summed on its own
in a fixed order, so a row's bits depend neither on its block nor on how
callers parallelize.
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


# Most Gauss-Legendre nodes per panel that a default grid may take, and
# half of what any grid may take (a default grid doubled).  Large rules
# build in O(n), so the cap bounds memory, not build time: the rule
# store holds 16 bytes a node, and a block's kernel arrays grow with it.
MAX_POLAR_NODES = 16_384

# Points times nodes of the doubled pass (4 n_polar per point) that one
# block of a scan may take.  Larger blocks spread the Python work of a
# pass over more points but hold larger kernel temporaries: on a 15 x 15
# plane scan on two threads a budget of 1,024 was slower, and one of
# 8,192 took 1.6 MB more peak memory than this one for no speed.
BLOCK_NODES = 4096

# Terms of the Stieltjes-Szego expansion for the interior nodes of a
# rule, and the nodes at each end that come from the cosine series
# instead: up to the tenth node from x = 1 the expansion's error, which
# falls as (n sin theta)^-M, is still above rounding.  Rules of fewer
# than _SZEGO_MIN_NODES nodes take every node from the cosine series.
_SZEGO_TERMS = 12
_END_NODES = 10
_SZEGO_MIN_NODES = 32
# The first _END_NODES zeros of the Bessel function J_0.
_J0_ZEROS = (2.4048255576957728, 5.5200781102863106, 8.6537279129110122,
             11.791534439014282, 14.930917708487786, 18.071063967910923,
             21.211636629879259, 24.352471530749303, 27.493479132040255,
             30.634606468431975)


def _mirrored(ns, sizes, x, w) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Whole read-only rules from their halves: for each n, in the order
    of ``ns``, ``sizes`` = (n + 1) // 2 nodes of ``x`` in [0, 1),
    descending, with their weights ``w``."""
    rules, start = {}, 0
    for n, size in zip(ns, sizes):
        xr, wr = x[start:start + size], w[start:start + size]
        start += size
        half = n // 2  # the node 0 of odd n is not mirrored
        nodes = np.concatenate([-xr[:half], xr[::-1]])
        weights = np.concatenate([wr[:half], wr[::-1]])
        nodes.flags.writeable = weights.flags.writeable = False
        rules[n] = nodes, weights
    return rules


def _gamma_quarter_ratio(z):
    """Gamma(z + 1/4) / Gamma(z + 3/4) for z >= 32, to a few ulp, by its
    asymptotic series: the log of z^(1/2) times the ratio is
    sum over j >= 1 of E_2j / (4 j 16^j z^2j), with E the Euler numbers
    -1, 5, -61, 1385, -50521, ..., and the first term left out is below
    2e-18 there.  A running product of n factors j / (j + 1/2) drifts by
    ~sqrt(n) ulp, which at n = 5120 moved the weights' sum off 2 by
    3e-14."""
    r = 1.0 / (z * z)
    log_ratio = r * (-1 / 64 + r * (5 / 2048 + r * (-61 / 49152
                                                + r * (1385 / 1048576))))
    return np.exp(log_ratio) / np.sqrt(z)


def _szego(degree, theta):
    """P_n(cos theta) / C_n and its theta-derivative by M =
    _SZEGO_TERMS terms of the Stieltjes-Szego expansion,

        P_n(cos theta) = C_n sum over m < M of h_{n,m} cos(alpha_m)
                         / (2 sin theta)^(m + 1/2),

    alpha_m = (n + m + 1/2) theta - (m + 1/2) pi / 2, h_{n,0} = 1 and
    h_{n,m} = h_{n,m-1} (m - 1/2)^2 / (m (n + m + 1/2)).  Each alpha_m is
    the previous one turned by theta - pi/2.  For 0 < theta <= pi/2,
    elementwise, with each node's own degree."""
    sin, cos = np.sin(theta), np.cos(theta)
    cot = cos / sin
    alpha = (degree + 0.5) * theta - 0.25 * math.pi
    c, s = np.cos(alpha), np.sin(alpha)
    term = 1.0 / np.sqrt(2.0 * sin)  # h_{n,m} / (2 sin theta)^(m + 1/2)
    p = term * c
    dp = -term * ((degree + 0.5) * s + 0.5 * cot * c)
    for m in range(1, _SZEGO_TERMS):
        term = term * ((m - 0.5) ** 2 / m) / ((degree + m + 0.5) * 2.0 * sin)
        c, s = c * sin + s * cos, s * sin - c * cos
        p += term * c
        dp -= term * ((degree + m + 0.5) * s + (m + 0.5) * cot * c)
    return p, dp


def _central_binomials(n: int) -> np.ndarray:
    """a_k = C(2k, k) / 4^k = Gamma(k + 1/2) / (sqrt(pi) k!) for k <= n:
    exact below k = 64, from ``_gamma_quarter_ratio`` at and above."""
    k = np.arange(n + 1)
    a = _gamma_quarter_ratio(np.maximum(k, 64) + 0.25) / math.sqrt(math.pi)
    a[:64] = [math.comb(2 * i, i) / 4 ** i for i in range(min(n + 1, 64))]
    return a


def _cosine_series(n: int, theta, a):
    """P_n(cos theta) and its theta-derivative at each theta, by the
    finite cosine series P_n(cos theta) = sum over k <= n of
    a_k a_{n-k} cos((n - 2k) theta), with a = ``_central_binomials`` to
    n or beyond, its terms k and n - k summed as one.  Exact up to
    rounding at any theta, in O(n) work per theta: its coefficients are
    positive and sum to 1."""
    k = np.arange(n // 2 + 1)
    order = n - 2 * k
    coeff = np.where(order > 0, 2.0, 1.0) * a[k] * a[n - k]
    phase = theta[:, None] * order
    return (np.sum(np.cos(phase) * coeff, axis=1),
            -np.sum(np.sin(phase) * (coeff * order), axis=1))


def _curvature(n, theta, p, dp):
    """d^2 P_n(cos theta) / dtheta^2 from Legendre's equation in theta,
    given P_n and its derivative there (or both scaled alike)."""
    return -dp * np.cos(theta) / np.sin(theta) - n * (n + 1.0) * p


def _newton(n, theta, expansion):
    """Two Newton steps in theta on the zero of P_n(cos theta) from
    ``theta``, with ``expansion(theta)`` = P_n and its theta-derivative
    (or both scaled alike): the last node, and the derivative carried to
    it from the last iterate by a Taylor step with P_n'' from Legendre's
    equation."""
    for _ in range(2):
        last = theta
        p, dp = expansion(last)
        step = p / dp
        theta = last - step
    return theta, dp - step * _curvature(n, last, p, dp)


def _build_rules(ns) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1] for every
    node count in ``ns``, in O(n) work per rule.

    The nodes x = cos(theta) in [0, 1) are found in theta, each by
    ``_newton``.  The interior ones of a rule of at least _SZEGO_MIN_NODES
    nodes, all but the _END_NODES nearest 1, step on the Stieltjes-Szego
    expansion (``_szego``), for every rule at once.  Near theta = 0 that
    expansion has not converged, and in a small rule nowhere, so the
    other nodes step on the exact cosine series (``_cosine_series``).
    Each starts from theta = psi + (psi cot psi - 1) / (8 psi rho^2),
    psi = j_k / rho, rho = n + 1/2, with j_k the zeros of J_0, if it is
    one of the _END_NODES nearest 1, and from Tricomi's guess otherwise.
    The weights are 2 / (dP_n/dtheta)^2; the interior ones are scaled by
    C_n = (4 / pi) prod over j <= n of j / (j + 1/2)
    = (2 / sqrt(pi)) Gamma(n + 1) / Gamma(n + 3/2).  Taken in theta, the
    weights keep their relative accuracy next to x = +-1, where a weight
    from the rounded x is off by up to ulp(x) / (1 - |x|).  Each rule is
    bit-identical whichever set it was built with.
    """
    ns = sorted(set(ns), reverse=True)
    sizes = [(n + 1) // 2 for n in ns]
    degree = np.repeat(np.array(ns, dtype=float), sizes)
    k = np.concatenate([np.arange(1, size + 1) for size in sizes])
    # Tricomi's x = (1 - 1/(8 n^2) + 1/(8 n^3)) cos(phi), to first order
    # in theta (arccos and tan would load more of numpy's code pages)
    phi = math.pi * (4 * k - 1) / (4 * degree + 2)
    theta = phi + ((1.0 / (8.0 * degree ** 2) - 1.0 / (8.0 * degree ** 3))
                   * np.cos(phi) / np.sin(phi))
    end = k <= _END_NODES
    rho = degree[end] + 0.5
    psi = np.array(_J0_ZEROS)[k[end] - 1] / rho
    theta[end] = psi + ((psi * np.cos(psi) / np.sin(psi) - 1.0)
                        / (8.0 * psi * rho ** 2))
    dp = np.empty(len(k))

    inner = ~end & (degree >= _SZEGO_MIN_NODES)
    n_in = degree[inner]
    theta[inner], d = _newton(n_in, theta[inner],
                              lambda t: _szego(n_in, t))
    dp[inner] = (d * (2.0 / math.sqrt(math.pi))
                 * _gamma_quarter_ratio(n_in + 0.75))

    a = _central_binomials(ns[0])
    start = 0
    for n, size in zip(ns, sizes):
        at = slice(start, start + (size if n < _SZEGO_MIN_NODES
                                   else _END_NODES))
        start += size
        theta[at], dp[at] = _newton(n, theta[at],
                                    lambda t: _cosine_series(n, t, a))
    x = np.cos(theta)
    x[2 * k - 1 == degree] = 0.0
    return _mirrored(ns, sizes, x, 2.0 / (dp * dp))


# Gauss-Legendre rules by node count, never evicted.  A rule holds 16 n
# bytes, n <= 2 * MAX_POLAR_NODES (the AngularGrid cap): the 128 rungs of
# the ladder up to the cap hold 12.8 MB, and a scan a few MB.  No lock: a
# scan's plan fills the store before its workers start, and two threads
# that race on a missing rule elsewhere build bit-identical copies of it.
_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _rules(ns) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The store, after building the rules of ``ns`` that it lacks, all
    together."""
    missing = [n for n in ns if n not in _RULES]
    if missing:
        _RULES.update(_build_rules(missing))
    return _RULES


def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] (nodes ascending), from
    the store or built for it."""
    return _rules((n,))[n]


def polar_node_floor(kr_norm: float) -> int:
    """Minimum Gauss-Legendre nodes per polar panel: at least four nodes
    per oscillation period, never fewer than 32."""
    return max(32, math.ceil(4.0 * (kr_norm + 1.0)))


def _ladder_step(n: int) -> int:
    """Spacing of the octave ladder's rungs at n nodes: 1/32 of the power
    of two at or above n, and at least 16."""
    return max(16, (1 << (n - 1).bit_length()) // 32)


def polar_node_count(kr_norm: float, config: CavityConfig) -> int:
    """Gauss-Legendre nodes per panel of the default grid at |kr|.

    The polar floor, or four nodes per resonance linewidth that the
    aberration phase sweeps where that is more:
    2 |kr|^2 sqrt(rho) / (kR (1 - rho)), as the sweep is at most
    |kr|^2 / (2 kR) and a linewidth about (1 - rho) / sqrt(rho) in phase.
    With the default mirrors that term stays below the floor.  The count
    is rounded up to a rung of the octave ladder, a multiple of
    ``_ladder_step``: multiples of 16 up to 512, of 32 up to 1024, and so
    on.  The ladder is closed under doubling, so doubled grids lie on it
    too, and up to |kr| = 300 the default grids need 66 rules.  Above
    MAX_POLAR_NODES it raises ValueError.
    """
    sweep = (2.0 * kr_norm ** 2 * math.sqrt(config.rho)
             / (config.k_r_mirror * (1.0 - config.rho)))
    need = max(polar_node_floor(kr_norm), math.ceil(sweep))
    step = _ladder_step(need)
    n_polar = step * -(-need // step)
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
    """Node counts: Gauss-Legendre nodes per panel of the zonal rule (and
    in cos(theta) for the 2-D reference rule), and uniform azimuth nodes
    of the 2-D rule.  Where the cap ends is not part of the grid; the
    integrator reads it from the cavity configuration."""

    n_polar: int
    n_azimuth: int

    def __post_init__(self):
        if self.n_polar < 1 or self.n_azimuth < 1:
            raise ValueError("node counts must be positive")
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
        """Reject grids below the polar node floor for this position (the
        azimuth count is read by the 2-D reference rule only)."""
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


def _sphere_rule(orientation, grid, theta, kr):
    """The 2-D reference rule: (ox, oy, oz, weight), each of shape
    (1, n_polar * n_azimuth), on the grid of the folded cap:
    Gauss-Legendre nodes in cos(theta) on [cos(theta_eff), 1] times a
    uniform azimuth rule.  The weight is the polar weight, doubled for
    the south cap, times the azimuth step and the polarization weight,
    over the 4 pi of the full solid angle.  It does not depend on kr, so
    one row serves every row of a block.  Integrals use the zonal rule;
    this one is the independent check that ``validate`` and the tests
    compare it with."""
    c_edge = math.cos(theta)
    x, w_gl = _leggauss(grid.n_polar)
    c = 0.5 * (1.0 - c_edge) * x + 0.5 * (1.0 + c_edge)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    az = 2.0 * math.pi * np.arange(grid.n_azimuth) / grid.n_azimuth
    ox = s[:, None] * np.cos(az)[None, :]
    oy = s[:, None] * np.sin(az)[None, :]
    oz = np.broadcast_to(c[:, None], ox.shape)
    weight = (1.0 - c_edge) * w_gl * (0.5 / grid.n_azimuth)
    weight = weight[:, None] * _pol_weight(orientation, ox, oy, oz)
    return tuple(a.reshape(1, -1) for a in (ox, oy, oz, weight))


def _zonal_rule(orientation, grid, theta, kr):
    """(ox, oy, oz, weight), each of shape (P, 2 n_polar), with one node
    per ring about r = kr/|kr| for each row of the (P, 3) block kr.

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

    Alpha runs over two panels of n_polar Gauss-Legendre nodes each,
    columns [0, n_polar) and [n_polar, 2 n_polar): whole rings on
    [0, theta - beta] (psi0 = pi) and cut rings on
    [|theta - beta|, theta + beta], both mapped by
    alpha = a + (b - a) (1 - cos(tau)) / 2, which removes the square-root
    behaviour of psi0 at the panel ends.  psi0 comes from the half-angle
    formula of the spherical triangle (r, n, edge point), with
    s = (alpha + beta + theta) / 2:
    tan(psi0 / 2) = sqrt(sin(s - alpha) sin(s - beta)
                         / (sin(s) sin(s - theta))),
    its small factors taken from the map, not by subtraction.  A row
    without one of the panels (beta >= theta, or beta = 0) lays its
    nodes over a stand-in of width theta, where every ring weight is
    positive, and gives them weight exactly 0, so no 0/0 reaches a sum.

    Every operation is elementwise along the rows, so a row's values do
    not depend on the other rows of its block.
    """
    kx, ky, kz = kr.T.copy()
    k_perp = np.hypot(kx, ky)
    beta = np.arctan2(k_perp, np.abs(kz))
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

    x, w_gl = _leggauss(grid.n_polar)
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

    a = np.abs(theta - beta)
    width, weight_w = panel(np.maximum(theta - beta, 0.0))
    panels = [(width * lo, weight_w, math.pi, 0.0, -1.0)]
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


def _integrate_once(kr, orientation, config, phi0, grid, with_gradient,
                    rule=_zonal_rule):
    """The folded cap by quadrature for each row of the (P, 3) block kr,
    in one pass through the kernel over (P, nodes) arrays, plus the
    vacuum band's closed-form share.

    The cap edge is read once from the configuration.  The gradient is
    d(shift)/d(kr) = sum of
    weight * (u_part omega_hat + phase_part (kr - u omega_hat) / kR),
    whose integrand is also even under omega_hat -> -omega_hat.  Each row
    is summed on its own along the contiguous node axis, so its bits do
    not depend on the block.  Returns (P,) gamma and shift and the
    (P, 3) gradient or None.
    """
    theta = effective_theta(config)
    kR = config.k_r_mirror
    ox, oy, oz, weight = rule(orientation, grid, theta, kr)
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
                     with_gradient: bool = False,
                     _rule=_zonal_rule) -> Response:
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
    row and the rows that failed.  ``_rule`` is for the checks:
    ``_sphere_rule`` puts the 2-D reference rule in place of the zonal one.
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
        # as it names the caller's line and a worker thread has none
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

    gamma, shift, grad = _integrate_once(kr, orientation, config, phi0, grid,
                                         with_gradient, _rule)
    failed = []
    if tolerance is not None:
        gamma2, shift2, grad2 = _integrate_once(
            kr, orientation, config, phi0, grid.doubled(), with_gradient,
            _rule)
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


def plan_blocks(kr, config: CavityConfig, doubled: bool
                ) -> list[tuple[AngularGrid, list[int]]]:
    """Blocks of a scan's positions: (grid, row indices) with the rows of
    each block on one rung of the ladder, at most BLOCK_NODES // (4 n_polar)
    of them (at least one).  Every position is checked and sized first,
    in one pass over the radii, so a bad one raises before any work, as
    ``Position`` would for the first bad row, and a scan beyond the
    warning radius warns.  Then every rule the blocks need, with the
    doubles when ``doubled``, is built before any block runs, and each
    rung gets one grid, that of its first row."""
    kr = np.asarray(kr, dtype=float)
    radii = _radius(kr)
    bad = np.flatnonzero(~(radii <= POSITION_MAX_RADIUS))
    # raises for the first bad row, or warns if the farthest is beyond the
    # warning radius: a rung's first row may lie inside it
    Position.of(kr[bad[0] if bad.size else np.argmax(radii)])
    counts: dict[float, int] = {}
    rungs: dict[int, list[int]] = {}
    for i, r in enumerate(radii.tolist()):
        if r not in counts:
            counts[r] = polar_node_count(r, config)
        rungs.setdefault(counts[r], []).append(i)
    _rules(list(rungs) + ([2 * n for n in rungs] if doubled else []))
    blocks = []
    for n, rows in rungs.items():
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
    """
    if n_samples < 10_000:
        raise ValueError("n_samples must be at least 10^4")
    kr = Position.of(kr).vec
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, n_samples)
    az = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    dirs = np.column_stack([s * np.cos(az), s * np.sin(az), z])
    gamma, shift = _sample_terms(dirs, kr, orientation, config, phi0)
    se_gamma = float(np.std(gamma, ddof=1) / math.sqrt(n_samples))
    se_shift = float(np.std(shift, ddof=1) / math.sqrt(n_samples))
    return (
        Response(float(np.mean(gamma)), float(np.mean(shift))),
        (se_gamma, se_shift),
    )
