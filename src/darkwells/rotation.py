"""Optimal single-particle basis: one coupled mode, one dark mode.

Because both wells talk to the *same* reservoir states, a single rotation
of the two-well amplitudes concentrates the entire reservoir coupling in
one mode (the bright mode, width ``gamma1 + gamma2``) and leaves the
orthogonal combination completely decoupled (the dark mode).  For aligned
levels the dark mode is an exact bound state embedded in the continuum;
misaligned levels feed it back into the bright mode through the residual
matrix element ``epsilon sin(a) cos(a)``.  The rotation reads only the
couplings' ratio: every dark/bright pair is normalised by :func:`unit`.
"""

from __future__ import annotations

import math

import numpy as np

from .model import WellPair

__all__ = ["unit", "dark_state"]


def unit(a: float, b: float) -> tuple[float, float]:
    """``(a, b) / hypot(a, b)``, formed with no square, so an exact power-of-two
    scale of ``(a, b)`` keeps every bit wherever both stay normal floats."""
    h = math.hypot(a, b)
    return a / h, b / h


def dark_state(pair: WellPair) -> np.ndarray:
    """Unit vector ``(cos(a), -sin(a)) = (omega2, -omega1) / hypot(omega1, omega2)``
    of the decoupled mode in the (well1, well2) basis; with widths ``gamma2 = y
    gamma1`` and relative sign ``eta`` it is ``(eta*sqrt(y), -1) / sqrt(1+y)``.
    The bright mode is ``(sin(a), cos(a))``."""
    cos_a, sin_a = unit(pair.omega2, pair.omega1)
    return np.array([cos_a, -sin_a])
