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
    "NullResultError",
    "rotate",
    "dark_state",
    "bright_state",
    "dot_to_rotated",
    "dot_from_rotated",
    "check_constant_ratio",
    "null_measurement_project",
]


class NullResultError(ValueError):
    """Projection on a null measurement is impossible: no dot amplitude left."""


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


def bright_state(pair: WellPair) -> np.ndarray:
    """Unit vector of the fully coupled mode, orthogonal to the dark one."""
    rb = rotate(pair)
    return np.array([rb.sin_alpha, rb.cos_alpha])


def dot_to_rotated(basis: RotatedBasis, amplitudes) -> np.ndarray:
    """Map well-basis amplitudes (b1, b2) to (dark, bright) amplitudes."""
    b1, b2 = amplitudes
    return np.array(
        [
            basis.cos_alpha * b1 - basis.sin_alpha * b2,
            basis.sin_alpha * b1 + basis.cos_alpha * b2,
        ]
    )


def dot_from_rotated(basis: RotatedBasis, amplitudes) -> np.ndarray:
    """Inverse of :func:`dot_to_rotated`."""
    c1, c2 = amplitudes
    return np.array(
        [
            basis.cos_alpha * c1 + basis.sin_alpha * c2,
            -basis.sin_alpha * c1 + basis.cos_alpha * c2,
        ]
    )


def check_constant_ratio(table, rel_tol: float = 1e-9) -> tuple[bool, float]:
    """Test whether per-state couplings share one amplitude ratio.

    The dark mode survives beyond the strict wide-band limit whenever the
    ratio ``omega2(E_r) / omega1(E_r)`` is the same for every reservoir
    state ``r``.  ``table`` is an (n, 2) array-like of per-state couplings.
    Returns ``(ok, worst)`` where ``worst`` is the largest deviation of a
    row's ratio from the first row's, relative to the first row's ratio.

    Rows with a vanishing first-column coupling have no finite ratio and
    are rejected.
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, 2) table, got shape {arr.shape}")
    zero_rows = np.flatnonzero(arr[:, 0] == 0.0)
    if zero_rows.size:
        raise ValueError(
            f"rows {zero_rows.tolist()} have omega1 = 0; ratio undefined"
        )
    ratios = arr[:, 1] / arr[:, 0]
    ref = ratios[0]
    if ref != 0.0:
        rel = np.abs(ratios - ref) / abs(ref)
    else:
        rel = np.where(ratios == 0.0, 0.0, math.inf)
    worst = float(np.max(rel))
    return worst <= rel_tol, worst


def null_measurement_project(state):
    """Condition a state on the reservoir detector having seen nothing.

    A null result projects out the reservoir component and renormalizes
    what is left in the wells: amplitudes become
    ``(b1, b2) / sqrt(|b1|^2 + |b2|^2)`` and the reservoir weight is reset
    to zero.  For a state carrying only a density matrix the dot block of
    sigma is renormalized by its trace instead.

    Accepts a ``SingleParticleState`` (returned as a new projected state)
    or a plain amplitude pair (returned as a normalized numpy pair).
    """
    from .dynamics import SingleParticleState

    if isinstance(state, SingleParticleState):
        if state.b1 is not None:
            w = abs(state.b1) ** 2 + abs(state.b2) ** 2
            if w == 0.0:
                raise NullResultError(
                    "no amplitude left in the wells; a null result has "
                    "probability zero and cannot be conditioned on"
                )
            scale = 1.0 / math.sqrt(w)
            return SingleParticleState.from_amplitudes(
                state.b1 * scale, state.b2 * scale, t=state.t
            )
        trace = state.sigma11 + state.sigma22
        if trace == 0.0:
            raise NullResultError(
                "dot block of sigma has zero trace; nothing to project"
            )
        return SingleParticleState.from_sigma(
            state.sigma11 / trace,
            state.sigma22 / trace,
            state.sigma12 / trace,
            sigma00=0.0,
            t=state.t,
        )
    b1, b2 = state
    w = abs(b1) ** 2 + abs(b2) ** 2
    if w == 0.0:
        raise NullResultError(
            "no amplitude left in the wells; a null result has probability "
            "zero and cannot be conditioned on"
        )
    return np.array([b1, b2], dtype=complex) / math.sqrt(w)
