"""Optimal single-particle basis: one coupled mode, one dark mode.

Because both wells talk to the *same* reservoir states, a single rotation
of the two-well amplitudes concentrates the entire reservoir coupling in
one mode (the bright mode, width ``gamma2_prime = gamma1 + gamma2``) and
leaves the orthogonal combination completely decoupled (the dark mode).
For aligned levels the dark mode is an exact bound state embedded in the
continuum; misaligned levels feed it back into the bright mode through the
residual matrix element ``g12``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, WellPair

__all__ = [
    "RotatedBasis",
    "rotate",
    "dark_state",
]


@dataclass(frozen=True)
class RotatedBasis:
    """Rotation angle and rotated-model parameters.

    ``alpha`` satisfies ``tan(alpha) = omega1 / omega2``; the rotated modes
    are ``c1 = cos(a) a1 - sin(a) a2`` (dark) and
    ``c2 = sin(a) a1 + cos(a) a2`` (bright).  ``g1`` is the dark-mode
    reservoir coupling and vanishes by construction; it is kept so callers
    can assert exactly that.  ``g12`` is the detuning-induced dark-bright
    matrix element, and ``E1_prime``/``E2_prime`` the rotated level
    energies.
    """

    alpha: float
    cos_alpha: float
    sin_alpha: float
    g1: float
    g2: float
    g12: float
    E1_prime: float
    E2_prime: float
    gamma2_prime: float


def rotate(pair: WellPair) -> RotatedBasis:
    """Rotate a :class:`WellPair` into its dark/bright mode basis."""
    o1, o2 = pair.omega1, pair.omega2
    h = math.hypot(o1, o2)
    cos_a = o2 / h
    sin_a = o1 / h
    alpha = math.atan2(o1, o2)
    g1 = o1 * cos_a - o2 * sin_a
    g2 = o1 * sin_a + o2 * cos_a
    h2 = h * h
    g12 = pair.epsilon * o1 * o2 / h2
    e1p = (pair.E1 * o2 * o2 + pair.E2 * o1 * o1) / h2
    e2p = (pair.E2 * o2 * o2 + pair.E1 * o1 * o1) / h2
    return RotatedBasis(
        alpha=alpha,
        cos_alpha=cos_a,
        sin_alpha=sin_a,
        g1=g1,
        g2=g2,
        g12=g12,
        E1_prime=e1p,
        E2_prime=e2p,
        gamma2_prime=TWO_PI * g2 * g2 * pair.rho,
    )


def dark_state(pair: WellPair) -> np.ndarray:
    """Unit vector of the decoupled mode in the (well1, well2) basis.

    Equals ``(omega2, -omega1) / hypot(omega1, omega2)``; with widths
    ``gamma2 = y * gamma1`` and relative sign ``eta`` this is
    ``(eta*sqrt(y), -1) / sqrt(1+y)``.
    """
    rb = rotate(pair)
    return np.array([rb.cos_alpha, -rb.sin_alpha])

