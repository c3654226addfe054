"""A slice of the regime map: the doubling check over the accepted inputs.

The box of ROADMAP item 13 holds 3,072 cases, in ``itertools.product``
order: rho, kR, theta_m, detuning, dipole and point.  This module takes
every 17th case from the first, 181 of them; a stride of 16 would pick
one point and one dipole.  Each case is integrated with the gradient at
tolerance 1e-9 and is refused (ValueError: over the polar node cap),
flagged (ConvergenceError) or passed.  No passing case may lie more than
the tolerance off a pass at 8 times its default polar count, capped at
32,768 nodes; the refused and flagged cases are pinned as data, so a
change that adds one fails here, and one that removes one updates the
data.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np

from vactrap.cavity import (CavityConfig, Detuning, DipoleOrientation,
                            _radius)
from vactrap.quadrature import (MAX_POLAR_NODES, ConvergenceError,
                                integrate_sphere, polar_node_count)

TOLERANCE = 1e-9
BOX = list(itertools.product(
    (0.9, 0.98, 0.995, 0.999),  # rho
    (1e3, 4e3, 8e4, 1e6),  # kR
    (20.0, 45.0, 70.0, 85.0),  # theta_m in degrees
    (0.0, -0.5, 2.0),  # detuning in linewidths
    (DipoleOrientation.isotropic(), DipoleOrientation.parallel()),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 3.7), (0.0, 0.0, 20.0), (0.0, 0.0, 100.0),
     (3.7, 0.0, 0.0), (50.0, 0.0, 0.0), (-12.0, 5.0, 16.0),
     (30.0, 0.0, 40.0)),
))
SLICE = range(0, len(BOX), 17)
REFUSED = [2363]
FLAGGED = [51, 187, 340, 748, 867, 884, 1649, 1683, 1700, 2108, 2465, 2652,
           3060]


def _off(response, reference) -> float:
    """The largest of the gamma, shift and gradient differences of two
    responses, each relative to the reference and floored at 1."""
    changes = [
        (response.gamma_ratio - reference.gamma_ratio,
         reference.gamma_ratio),
        (response.shift_ratio - reference.shift_ratio,
         reference.shift_ratio),
        (np.linalg.norm(response.shift_gradient - reference.shift_gradient),
         np.linalg.norm(reference.shift_gradient))]
    return max(abs(d) / max(1.0, abs(size)) for d, size in changes)


def test_regime_slice_flags_what_it_does_not_converge():
    assert len(SLICE) == 181
    refused, flagged, worst = [], [], 0.0
    for index in SLICE:
        rho, k_r, theta_deg, linewidths, dipole, point = BOX[index]
        config = CavityConfig(rho, k_r, math.radians(theta_deg))
        phi0 = Detuning(linewidths).phase(rho)
        try:
            response = integrate_sphere(point, dipole, config, phi0,
                                        tolerance=TOLERANCE,
                                        with_gradient=True)
        except ValueError:
            refused.append(index)
            continue
        except ConvergenceError:
            flagged.append(index)
            continue
        n_polar = polar_node_count(float(_radius(point)), config)
        fine = SimpleNamespace(n_polar=min(8 * n_polar, 2 * MAX_POLAR_NODES))
        reference = integrate_sphere(point, dipole, config, phi0, grid=fine,
                                     with_gradient=True)
        worst = max(worst, _off(response, reference))
    assert refused == REFUSED
    assert flagged == FLAGGED
    assert worst <= TOLERANCE
