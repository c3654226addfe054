"""Sphere quadrature of the damping/shift direction integrals.

The integrand at direction omega_hat is w times the damping and shift
brackets of ``cavity.cap_brackets``, the one Fabry-Perot kernel, at
u = omega_hat . kr and the aberration phase ``cavity.ray_phase`` of the
ray through kr; w is the polarization weight (1 for the isotropic
average).  The mirror reflectivity applies only inside the double cap
|cos(theta)| >= cos(theta_eff).  Outside it, in the vacuum band, the
brackets are exactly (1, 0), so the sample is (w, 0) whatever kr is.

Only the caps are integrated numerically; the band contributes the
position-independent constant ``cavity.aperture_weights`` to gamma and
nothing to the shift or its gradient.  Inversion omega_hat -> -omega_hat
maps the south cap onto the north one and leaves every integrand
unchanged (u enters only as cos(2u) and as sin(2u) omega_hat, the dipole
only as (d . omega_hat)^2), so the north cap with doubled weights
carries both.  One integrator, ``_integrate_once``, makes one pass over the
directions and weights of a rule, and one rule serves every position:
the zonal rule, whose nodes are rings about kr.  On such a ring u is
constant, so its integral over the arc inside the cap is closed form, and
what is left is a 1-D Gauss-Legendre integral over the ring angle in one
or two panels (a Funk-Hecke reduction restricted to a cap; Atkinson &
Han, Spherical Harmonics and Approximations on the Unit Sphere, LNM 2044).
``integrate_sphere`` runs that rule and no other.  This module is that
engine alone.  The oracles that ``validate`` and the tests compare it
with are ``validation``'s own code: the 2-D reference rule of Fejer nodes
in cos(theta) times a uniform azimuth rule, which passes its nodes to
``_integrate_once``, each pass for every dipole, its node counts
(``AngularGrid``), and the Monte-Carlo sampler with its counter-based
stream.

The production rule in one variable is composite: one 32-node
Gauss-Legendre base rule, built once at import by Newton's method on the
Legendre recurrence, shifted onto each of n / 32 equal sub-panels of
[-1, 1] (``_leggauss``).  Tiling it takes microseconds, so no rule is
stored between calls; within one, passes whose rows share the rule's
inputs share its one-row rule.  The 2-D reference rule takes Fejer's
first rule in closed form instead, so the two sides of that check share
no node.

The integrand oscillates with spatial frequency up to |kr| across the
sphere, so the polar node count scales linearly in |kr| (with a floor,
and with the aperture above 45 degrees); it also grows with the
resonance linewidths that the aberration phase sweeps, and is rounded up
to whole 32-node sub-panels.  ``integrate_sphere`` integrates a block of
positions, one position being a block of one, and sizes each row itself,
by ``polar_node_count`` of its own radius, unless a grid is given for
every row, of which it reads only ``n_polar``; it admits that count by
``_check_polar_count``, the one statement of the counts that the
composite rule can tile, and checks it against the polar floor of the
farthest row; a whole scan is one call.
Its positions are admitted, their |kr| taken and the ValidityWarning
issued once a call by ``cavity._admit``, the one admission that
``Position`` uses too.
A row's zonal integrand reads the row only through its key: the cone
angle of kr from the cap axis, the dipole in the frame of the rings
about kr, |kr| and phi0; its polar count and panel kind follow from
these within one call.  The block's rows of one key, such as the
mirror images of a point in a scan, take one kernel row, integrated in
the ring frame; each row turns its gradient back by its own frame.  The
kernel runs in passes over (rows x nodes) arrays, each over rows of one
polar count and one panel kind and at most BLOCK_NODES nodes.  Every
operation is elementwise along the rows and each row is summed on its
own in a fixed order, so a row's bits do not depend on its block or
pass.
"""

from __future__ import annotations

import math

import numpy as np

from .cavity import (
    CavityConfig,
    DipoleOrientation,
    Response,
    _admit,
    _half_width,
    aperture_weights,
    cap_brackets,
    effective_theta,
    ray_phase,
)


class ConvergenceError(RuntimeError):
    """Doubling the node counts moved the result more than the requested
    tolerance.  Carries the refined estimate, ``change``, the observed
    change of each quantity judged (gamma, the shift and, when it was
    computed, the gradient's norm), and ``rows``, the rows of a block
    that failed ([0] for one position)."""

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
# pass of ``integrate_sphere`` through the kernel may take, whatever the
# size of its block.  Larger passes spread the Python work over more
# points but hold larger kernel temporaries: on a 15 x 15 plane scan a
# budget of 1,024 took 2.1-2.4 times as long (median of 15 warm runs),
# and one of 8,192 had the same fastest run and twice the traced peak
# memory, 1.6 MB against 0.84 MB.
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


def _check_polar_count(n_polar) -> None:
    """Refuse, with ValueError, a polar count that the composite rule
    cannot tile: one that is not an integer (Python's or numpy's) of at
    least MIN_POLAR_NODES, not whole sub-panels of MIN_POLAR_NODES, or
    above 2 * MAX_POLAR_NODES, a default grid doubled."""
    if not (isinstance(n_polar, (int, np.integer))
            and n_polar >= MIN_POLAR_NODES):
        raise ValueError(f"n_polar={n_polar} is not an integer of at least "
                         f"{MIN_POLAR_NODES}")
    if n_polar % MIN_POLAR_NODES:
        raise ValueError(f"n_polar={n_polar} is not a multiple of "
                         f"{MIN_POLAR_NODES}, the nodes of one sub-panel")
    if n_polar > 2 * MAX_POLAR_NODES:
        raise ValueError(f"n_polar={n_polar} is above the cap of "
                         f"{2 * MAX_POLAR_NODES}")


def polar_node_floor(kr_norm: float) -> int:
    """Minimum Gauss-Legendre nodes per polar panel: at least four nodes
    per oscillation period, never fewer than MIN_POLAR_NODES."""
    return max(MIN_POLAR_NODES, math.ceil(4.0 * (kr_norm + 1.0)))


def polar_node_count(kr_norm: float, config: CavityConfig) -> int:
    """Gauss-Legendre nodes per panel of the default grid at |kr|.

    The polar floor, or four nodes per resonance linewidth that the
    aberration phase sweeps where that is more: |kr|^2 / (kR delta), as
    the sweep is at most |kr|^2 / (2 kR) and a linewidth about 2 delta
    in phase, with delta = ``cavity._half_width`` (inf, so no term,
    without mirrors).  With the default mirrors that term stays below
    the floor.  The floor is taken at |kr| times
    max(1, 4 theta_eff / pi): it was sized for panels at most pi/2 wide,
    and a cut-ring panel is up to 2 theta_eff wide, so apertures above
    45 degrees take more nodes.  The count is rounded up to a multiple of
    MIN_POLAR_NODES, whole sub-panels of the composite rule.  Above
    MAX_POLAR_NODES it raises ValueError.
    """
    sweep = kr_norm ** 2 / (config.k_r_mirror * _half_width(config.rho))
    wide = max(1.0, 4.0 * effective_theta(config) / math.pi)
    need = max(polar_node_floor(wide * kr_norm), math.ceil(sweep))
    n_polar = MIN_POLAR_NODES * -(-need // MIN_POLAR_NODES)
    if n_polar > MAX_POLAR_NODES:
        raise ValueError(
            f"|kr| = {kr_norm:.1f} needs {n_polar} polar nodes with these "
            f"mirrors, above the cap of {MAX_POLAR_NODES}")
    return n_polar


def _ring_frame(kr):
    """(beta, frame): the cone angle of each row of the (P, 3) block kr,
    in [0, pi/2] and 0 at kr = 0, and the frame (r, e1, e2) of the rings
    about it, of shape (3, P, 3), axis by row by x, y, z.  r = kr/|kr| is
    at beta from the axis n = sign(kz) z of the row's folded cap (r = n
    at kr = 0), e1 is normal to r towards n and e2 normal to both."""
    kx, ky, kz = kr.T.copy()
    k_perp = np.hypot(kx, ky)
    beta = np.arctan2(k_perp, np.abs(kz))
    sign = np.where(kz < 0.0, -1.0, 1.0)
    on_axis = k_perp == 0.0
    k_perp[on_axis] = 1.0
    cos_p = np.where(on_axis, 1.0, kx / k_perp)
    sin_p = np.where(on_axis, 0.0, ky / k_perp)
    cb, sb = np.cos(beta), np.sin(beta)
    frame = np.array([(sb * cos_p, sb * sin_p, sign * cb),  # r
                      (-cb * cos_p, -cb * sin_p, sign * sb),  # e1
                      (-sin_p, cos_p, np.zeros_like(cb))])  # e2
    return beta, frame.transpose(0, 2, 1)


def _ring_dipole(orientation, frame):
    """q, the dipole's D = d d^T (I/3 for the isotropic average) in the
    ``_ring_frame`` frame of each row, as (P, 6) columns q_rr, q_r1,
    q_r2, q_11, q_12 and q_22.  Adding 0.0 turns a -0.0 into +0.0, so
    that rows whose q differs only there, as a dipole along the axis
    has at kz and -kz, read one q."""
    d = orientation.unit_vector
    if d is None:
        third = 1.0 / 3.0
        return np.broadcast_to([third, 0.0, 0.0, third, 0.0, third],
                               (frame.shape[1], 6))
    v = [f[:, 0] * d[0] + f[:, 1] * d[1] + f[:, 2] * d[2] for f in frame]
    return np.stack([v[0] * v[0], v[0] * v[1], v[0] * v[2],
                     v[1] * v[1], v[1] * v[2], v[2] * v[2]], axis=1) + 0.0


def _zonal_rule(n_polar, theta, beta, q, whole, cut, with_gradient):
    """(cos(alpha), weight), and with the gradient (cos(alpha), weight,
    t1, t2), each of shape (P, n_polar) or (P, 2 n_polar), with one node
    per ring about r for each row of a block, the row read only through
    its cone angle beta (P,) and its dipole q (P, 6) in the ring frame
    (``_ring_frame``, ``_ring_dipole``).

    The folded cap is taken about n = sign(kz) z, at the angle
    beta <= pi/2 from r.  On the ring at angle alpha from r,
    omega = cos(alpha) r + sin(alpha) (cos(psi) e1 + sin(psi) e2), so
    u = |kr| cos(alpha) is constant and the ring meets the cap on the
    arc |psi| <= psi0.  The node carries W = integral of w dpsi over the
    arc and the direction V / W = cos(alpha) r + t1 e1 + t2 e2, with
    V = integral of w omega dpsi: kr . V / W = u, and every integrand,
    gradient included, is w f(u) or linear in omega, so the node
    reproduces the ring exactly.  The moments of 1, cos, cos^2, sin^2,
    cos^3 and cos sin^2 over the arc are closed forms, and so are W and V
    (w is quadratic in omega).  Only the gradient reads t1 and t2.

    Alpha runs over up to two panels of the n_polar-node composite rule
    (``_leggauss``: 32-node Gauss-Legendre sub-panels) each: whole rings
    on [0, theta - beta] (psi0 = pi), built if ``whole``, then cut rings
    on [|theta - beta|, theta + beta], built if ``cut``, both mapped by
    alpha = a + (b - a) (1 - cos(tau)) / 2, which removes the square-root
    behaviour of psi0 at the panel ends.  psi0 comes from the half-angle
    formula of the spherical triangle (r, n, edge point), with
    s = (alpha + beta + theta) / 2:
    tan(psi0 / 2) = sqrt(sin(s - alpha) sin(s - beta)
                         / (sin(s) sin(s - theta))),
    its small factors taken from the map, not by subtraction.

    The rows share one kind, which ``integrate_sphere`` passes with
    them: ``whole`` and ``cut`` say whether their whole-ring and
    cut-ring panels have widths above 0.  Every operation is elementwise
    along the rows, so a row's values do not depend on the other rows of
    its block.
    """
    # w = 1.5 (1 - omega . D omega).  The ring integrals below spend
    # trace(D) = 1 so that nothing cancels: the form
    # 1.5 (m0 - integral of omega . D omega) gives 0/0 for a dipole
    # along r.
    q_rr, q_r1, q_r2, q_11, q_12, q_22 = (col[:, None] for col in q.T)
    k_c, k_s = 1.5 * (q_11 + q_22), 1.5 * q_rr
    k_cs, k_1, k_2 = -3.0 * q_r1, 1.5 * q_11, 1.5 * q_22

    x, w_gl = _leggauss(n_polar)
    half_tau = 0.25 * math.pi * (x + 1.0)
    lo = np.sin(half_tau) ** 2  # (alpha - a) / (b - a)
    hi = np.cos(half_tau) ** 2  # (b - alpha) / (b - a)
    # d(alpha) per unit of b - a, over the 2 pi of the folded sphere
    d_alpha = 0.125 * np.sin(2.0 * half_tau) * w_gl

    panels = []
    if whole:
        width = (theta - beta)[:, None]
        panels.append((width * lo, width * d_alpha, math.pi, 0.0, -1.0))
    if cut:
        a = np.abs(theta - beta)[:, None]
        width = theta + beta[:, None] - a
        alpha = a + width * lo
        grows = np.sin(0.5 * width * lo)  # sin of (alpha - a) / 2
        stays = np.sin(0.5 * (alpha + a))
        # sin(s - beta) and sin(s - theta), as a = theta - beta inside
        # the cap cone and beta - theta outside it
        s_beta, s_theta = (stays, grows) if whole else (grows, stays)
        psi0 = 2.0 * np.arctan2(
            np.sqrt(np.sin(0.5 * width * hi) * s_beta),
            np.sqrt(np.sin(0.5 * (alpha + beta[:, None] + theta)) * s_theta))
        panels.append((alpha, width * d_alpha, psi0, np.sin(psi0),
                       np.cos(psi0)))
    nodes = []
    for alpha, d_weight, psi0, sin0, cos0 in panels:
        # moments of 1, cos, cos^2, sin^2, cos sin^2 and cos^3 on the arc
        m0, mc = 2.0 * psi0, 2.0 * sin0
        mcc, mss = psi0 + sin0 * cos0, psi0 - sin0 * cos0
        c, s = np.cos(alpha), np.sin(alpha)
        cs, ss = c * s, s * s
        tilt = k_c * c * c + k_s * ss
        ring = tilt * m0 + cs * (k_cs * mc) + ss * (k_1 * mss + k_2 * mcc)
        node = [c, s * d_weight * ring]
        if with_gradient:
            mcss = 2.0 * sin0 ** 3 / 3.0
            mccc = mc - mcss
            ring_c = (tilt * mc + cs * (k_cs * mcc)
                      + ss * (k_1 * mcss + k_2 * mccc))
            ring_s = cs * (-3.0 * q_r2 * mss) + ss * (-3.0 * q_12 * mcss)
            node += [s * ring_c / ring, s * ring_s / ring]
        nodes.append(node)
    return tuple(np.concatenate(part, axis=1) for part in zip(*nodes))


def _integrate_once(kr_sq, u, axes, phi0, config, weighted, with_gradient):
    """The folded cap by quadrature for each row of a block, in one pass
    through the kernel over (P, n) arrays, plus the vacuum band's
    closed-form share.  A row is read through kr_sq = kr . kr and its
    phase phi0, each (P, 1), and u = omega_hat . kr at its nodes, (P, n);
    the gradient also through ``axes``, one pair (o, k) for each axis of
    an orthonormal frame: the component along it of the nodes' directions
    ((P, n), or (1, n) for a rule that serves every row) and of kr ((P, 1)
    or a number).  ``weighted`` yields one (weight, band share) pair per
    dipole, each summing the one kernel pass.

    The gradient is d(shift)/d(kr) = sum of
    weight * (u_part omega_hat + phase_part (kr - u omega_hat) / kR),
    whose integrand is also even under omega_hat -> -omega_hat, taken in
    the frame of ``axes``.  Each row is summed on its own along the
    contiguous node axis, so its bits do not depend on the block.
    Returns, per pair, (P,) gamma and shift and the (P, 3) gradient or
    None.
    """
    kR = config.k_r_mirror
    phi = ray_phase(phi0, kr_sq, u, kR)
    g, sh, u_part, phase_part = cap_brackets(config.rho, phi, u,
                                            with_gradient)
    terms = []
    if with_gradient:
        terms = [u_part * o + phase_part * (k - u * o) / kR
                 for o, k in axes]
    return [(band + np.sum(weight * g, axis=-1), np.sum(weight * sh, axis=-1),
             np.stack([np.sum(weight * t, axis=-1) for t in terms], axis=-1)
             if terms else None) for weight, band in weighted]


def integrate_sphere(kr, orientation: DipoleOrientation, config: CavityConfig,
                     phi0, grid=None, tolerance: float | None = None,
                     with_gradient: bool = False) -> Response:
    """Average both integrands over the full solid angle, at one position
    or at each row of a block.

    A block is a (P, 3) array of positions, with ``phi0`` one phase or
    one per row.  It is admitted as ``Position`` admits one point, by
    ``cavity._admit``: a bad shape, or a row that is not finite or lies
    beyond the supported region, raises ValueError for the first such
    row, and a row beyond the warning radius warns once a call, for the
    farthest row.  Without a grid each row takes ``polar_node_count`` of
    its own radius, so a block of any radii, a whole scan among them, is
    one call; with a grid, which is read through its ``n_polar`` alone
    (``validation.AngularGrid`` is one), every row takes that count.
    The count must be one the composite rule can tile
    (``_check_polar_count``: an integer, whole 32-node sub-panels, from
    32 to the cap of 2 * MAX_POLAR_NODES), reach the polar floor of the
    farthest row and, with a ``tolerance``, stay within that cap when
    doubled; a count that fails is refused with ValueError before any
    kernel pass.  Its
    Response holds (P,) ratios and a (P, 3) gradient, and each row is
    bit-identical to a call at that row alone with the same n_polar: one
    position is the block of one.  Rows whose keys (cone angle, q, see
    ``_ring_dipole``, |kr| and phi0: the integrand's inputs, from which
    the polar count and panel kind follow) are equal bytes are
    integrated once, at the first of them.  The distinct rows
    are integrated in passes over rows of one polar count and one panel
    kind, at most BLOCK_NODES // (4 n_polar) of them (at least one), whose
    results are scattered back to the block's rows; so a block of any
    size and mix holds at most one pass's arrays.  A pass whose rows
    share the rule's inputs (count, kind, cone angle and q) runs on its
    one-row rule, which later passes with those inputs reuse.
    A phase that is not finite, a count of phases other than one or P
    and a ``tolerance`` that is not positive raise ValueError.

    With a ``tolerance``, each pass is run again at twice its count and
    the refined result is returned.  The check judges gamma, the shift
    and, with ``with_gradient``, the gradient's norm; if the two
    estimates of a row disagree in any of them by more than the
    tolerance (relative, floored at 1 in absolute terms) a
    ConvergenceError is raised carrying the refined estimate of every
    row, the change of each quantity judged (one float each for a
    position, one array each for a block), named in its message, and
    the rows that failed.
    """
    if tolerance is not None and not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    block = np.ndim(kr) == 2
    kr, radii = _admit(kr)
    if grid is None:
        # once per distinct radius, farthest first: the count grows with
        # the radius, so a block over the node cap is refused at its
        # farthest row
        sizes = {r: polar_node_count(r, config)
                 for r in sorted(set(radii.tolist()), reverse=True)}
        counts = np.array([sizes[r] for r in radii.tolist()])
    else:
        _check_polar_count(grid.n_polar)
        far = float(radii.max())
        if grid.n_polar < polar_node_floor(far):
            raise ValueError(f"n_polar={grid.n_polar} is below the floor "
                             f"{polar_node_floor(far)} for |kr|={far:.2f}")
        if tolerance is not None:  # the doubling pass keeps the cap
            _check_polar_count(2 * grid.n_polar)
        counts = np.full(len(kr), grid.n_polar)
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape not in ((), (len(kr),)):
        raise ValueError(f"{phi0.size} phases for {len(kr)} positions")
    phi0 = np.broadcast_to(phi0, len(kr)).copy()
    bad = np.flatnonzero(~np.isfinite(phi0))
    if bad.size:
        raise ValueError(f"phase phi0 of row {bad[0]} must be finite, "
                         f"got {phi0[bad[0]]}")

    theta = effective_theta(config)
    beta, frame = _ring_frame(kr)
    q = _ring_dipole(orientation, frame)
    # A row has a panel if its width, as ``_zonal_rule`` builds it, is
    # above 0: a row a hair off the axis, whose cut width rounds to 0, has
    # whole rings only.  The kind is 1 for whole rings only, 2 for cut
    # rings only and 3 for both.
    kinds = (theta - beta > 0.0) + 2 * (theta + beta > abs(theta - beta))
    # A row's integrand reads its cone angle and q (its rule's inputs),
    # |kr| and phi0, and nothing else: within one call its polar count
    # follows from |kr| (or the grid) and its kind from its cone angle.
    # A row whose key is, bit for bit, an earlier row's takes that row's
    # kernel result.  A dict of the key bytes finds them: np.unique's
    # first call alone adds a quarter MB of peak memory.
    key = np.ascontiguousarray(np.column_stack([beta, q, radii, phi0]))
    packed = key.view(np.dtype((np.void, key.itemsize * key.shape[1])))
    packed = packed.ravel().tolist()
    first = dict(zip(reversed(packed), range(len(kr) - 1, -1, -1)))
    source = np.fromiter(map(first.__getitem__, packed), np.intp, len(kr))
    distinct = source == np.arange(len(kr))
    rule_key = key[:, :-2].view(np.int64)

    # the kernel passes: distinct rows of one polar count and one panel
    # kind, at most BLOCK_NODES nodes of the doubled pass, each with the
    # panels of its kind (whole rings?, cut rings?)
    passes = []
    for n_polar, kind in sorted(set(zip(counts[distinct].tolist(),
                                        kinds[distinct].tolist()))):
        cap = max(1, BLOCK_NODES // (4 * n_polar))  # rows a pass
        rows = np.flatnonzero(distinct & (counts == n_polar) & (kinds == kind))
        passes += [(n_polar, (kind != 2, kind != 1), rows[i:i + cap])
                   for i in range(0, len(rows), cap)]

    band, _ = aperture_weights(orientation, math.cos(theta))

    def once(scale):
        gamma, shift = np.empty((2, len(kr)))
        grad = np.empty(kr.shape) if with_gradient else None
        shared = None, None  # the last repeated (count, kind, rule key)
        for n_polar, kind, rows in passes:
            bits = rule_key[rows]
            if (bits == bits[0]).all():
                if (n_polar, kind, bits[0].tobytes()) != shared[0]:
                    shared = (n_polar, kind, bits[0].tobytes()), _zonal_rule(
                        scale * n_polar, theta, beta[rows[:1]], q[rows[:1]],
                        *kind, with_gradient)
                c, weight, *tangents = shared[1]
            else:
                c, weight, *tangents = _zonal_rule(
                    scale * n_polar, theta, beta[rows], q[rows], *kind,
                    with_gradient)
            norm = radii[rows, None]
            # the gradient in the ring frame: kr = |kr| r
            axes = [(c, norm)] + [(t, 0.0) for t in tangents]
            (gamma[rows], shift[rows], part), = _integrate_once(
                norm * norm, norm * c, axes, phi0[rows, None], config,
                [(weight, band)], with_gradient)
            if with_gradient:
                grad[rows] = part
        if with_gradient:  # each row turns the frame sums by its own frame
            r, e1, e2 = frame
            grad = grad[source]
            grad = grad[:, :1] * r + grad[:, 1:2] * e1 + grad[:, 2:] * e2
        return gamma[source], shift[source], grad

    gamma, shift, grad = once(1)
    failed = []
    if tolerance is not None:
        refined = once(2)
        # (change, refined size) of each quantity judged; a NaN fails
        judged = [(np.abs(fine - coarse), np.abs(fine)) for coarse, fine
                  in ((gamma, refined[0]), (shift, refined[1]))]
        if with_gradient:
            judged.append((np.linalg.norm(refined[2] - grad, axis=1),
                           np.linalg.norm(refined[2], axis=1)))
        ok = np.logical_and.reduce(
            [d <= tolerance * np.maximum(1.0, size) for d, size in judged])
        gamma, shift, grad = refined
        failed = np.flatnonzero(~ok).tolist()
    if block:
        result = Response(gamma, shift, grad)
    else:
        result = Response(float(gamma[0]), float(shift[0]),
                          None if grad is None else grad[0])
    if failed:
        i = failed[0]
        names = ", ".join(("gamma", "shift", "gradient")[:len(judged)])
        by = ", ".join(f"{d[i]:.3e}" for d, _ in judged)
        raise ConvergenceError(
            f"sphere integral did not converge at |kr|={radii[i]:.2f}: "
            f"doubling changed ({names}) by ({by}) with tolerance "
            f"{tolerance:g}", estimate=result,
            change=tuple(d if block else float(d[0]) for d, _ in judged),
            rows=failed)
    return result


def __getattr__(name):
    # The benchmark imports these two from here.  They live in
    # ``validation``, and this lookup goes once the benchmark imports them
    # from there (the benchmark half of ROADMAP item 17).
    if name in ("AngularGrid", "monte_carlo_reference"):
        from . import validation
        return getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
