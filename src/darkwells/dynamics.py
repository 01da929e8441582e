"""Single-particle dynamics of two wells decaying into a shared continuum.

Everything here lives in the wide-band limit, where tracing out the
reservoir is exact and leaves a 2x2 non-Hermitian effective Hamiltonian
for the well amplitudes and a closed linear master equation for the
reduced density matrix ``sigma``.  The convention for the coherence is
``sigma12 = b1 * conj(b2)``.

One closed-form propagator ``U(t) = exp(-i H_eff t)`` of the well
amplitudes, vectorized over a stack of pairs and their times, drives the
reduced state, whose master equation has the exact solution
``sigma(t) = U sigma(0) U^dagger`` for pure and mixed starts alike.  Each
pair's set-up is scalar: its eigenvalues ``tr/2 -+ mu``, the slow one as
``det(H_eff) / lambda_fast`` so that it does not cancel when the widths
differ by many orders.  Over the stack of times, ``U`` and the sandwich
are written entrywise, with no 2x2 matrix products.  A start is one
triple ``(sigma11, sigma22, sigma12)``, checked as a state before it
evolves, and the one record of reduced states is a :class:`Trajectory` of
arrays over its times.
Widths are multiplied, and ``H_eff``'s entries squared or multiplied,
only on power-of-two-scaled mantissas, so scaling every energy and width
by an exact ``2^k`` and every time by ``2^-k`` keeps every output bit.  The
module also provides the trapped-fraction asymptotics, the dwell time of
the long-lived superposition for slightly misaligned levels, and the
exponential-rate fit that sweeps read it back with.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import NoBoundStateError, WellPair
from .rotation import dark_state, unit

__all__ = [
    "InfiniteDwellTimeError",
    "PropagatorOverflowError",
    "Trajectory",
    "effective_hamiltonian",
    "evolve_master",
    "master_trajectory",
    "asymptotic_probs",
    "dwell_time",
    "fit_decay_rate",
]

_NORM_TOL = 1e-9


class InfiniteDwellTimeError(ValueError):
    """Aligned levels support a true bound state: the dwell time diverges."""


class PropagatorOverflowError(ValueError):
    """``exp(-i H_eff t)`` leaves the float range, as when a phase ``lambda t`` does.

    ``index`` is the place of the pair in the stack that was evolved.
    """

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _reduced_states(s11, s22, s12, s00) -> np.ndarray:
    """``sigma00`` of the states ``(sigma11, sigma22, sigma12, sigma00)``, arrays of
    one shape, clamped to 0 within ``_NORM_TOL`` below it.  The first point in C
    order that is not a state raises ``ValueError`` for the first check it fails:
    probabilities in [0, 1] that sum to 1, and ``|sigma12|^2 <= sigma11 sigma22``."""
    s11, s22, s12, s00 = (np.asarray(x) for x in (s11, s22, s12, s00))
    s00 = np.where((s00 >= -_NORM_TOL) & (s00 < 0.0), 0.0, s00)
    total = s11 + s22 + s00
    bound = s11 * s22
    checks = [
        (~((p >= -_NORM_TOL) & (p <= 1.0 + _NORM_TOL)), p, name + " = {} is not a probability")
        for name, p in (("sigma11", s11), ("sigma22", s22), ("sigma00", s00))
    ]
    checks.append((np.abs(total - 1.0) > 1e-8, total, "probabilities sum to {}, expected 1"))
    checks.append((np.abs(s12) ** 2 > bound + 1e-9 * (bound + 1.0), s12,
                   "coherence violates |sigma12|^2 <= sigma11*sigma22"))
    bad = checks[0][0] | checks[1][0] | checks[2][0] | checks[3][0] | checks[4][0]
    if bad.any():
        k = np.unravel_index(np.argmax(bad), bad.shape)
        _, value, message = next(check for check in checks if check[0][k])
        raise ValueError(message.format(value[k]))
    return s00


def _effective_entries(pair: WellPair) -> tuple[complex, complex, complex]:
    """``H_eff``'s entries ``(h11, h12, h22)``, with ``h21 = h12``, as Python complex
    numbers: ``h_jj = E_j - (i/2) gamma_j`` and ``h12 = -(i/2) eta r``, with ``r =
    sqrt(gamma1 gamma2)`` taken on mantissas."""
    gamma1, gamma2, eta = pair.gamma1, pair.gamma2, pair.eta
    m1, e1 = math.frexp(gamma1)
    m2, e2 = math.frexp(gamma2)
    root = math.ldexp(math.sqrt(math.ldexp(m1 * m2, (e1 + e2) & 1)), (e1 + e2) >> 1)
    return (
        pair.E1 + complex(0.0, -0.5 * gamma1),
        complex(0.0, -0.5 * eta * root),
        pair.E2 + complex(0.0, -0.5 * gamma2),
    )


def effective_hamiltonian(pair: WellPair) -> np.ndarray:
    """``H_eff = diag(E1, E2) - (i/2) [[gamma1, eta r], [eta r, gamma2]]``, the generator
    of ``i db/dt = H_eff b``, with ``r = sqrt(gamma1 gamma2)`` taken on mantissas."""
    h11, h12, h22 = _effective_entries(pair)
    return np.array([[h11, h12], [h12, h22]], dtype=complex)


def _scaled(z: complex, e: int) -> complex:
    """``z * 2^e`` part by part, exact unless a part rounds to a subnormal;
    ``OverflowError`` past the float range."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _pair_terms(pair: WellPair) -> tuple:
    """One pair's scalars for :func:`_propagators`: ``|mu|``, ``mu``, ``2 mu``, the
    exponents ``-i tr/2`` and ``-i (tr/2 -+ mu)``, and the entries ``m11, m12, m22``
    of ``m = H_eff - tr/2``, where ``mu^2 = m11^2 + m12^2``."""
    h11, h12, h22 = _effective_entries(pair)
    half_tr = 0.5 * (h11 + h22)
    a, b = h11 - half_tr, h12
    # the root of the entries scaled by 2^-e, scaled back by 2^e: exact, so
    # no square leaves the float range; cmath, not numpy, so the complex
    # square root matches to the last bit
    e = math.frexp(max(map(abs, (a.real, a.imag, b.real, b.imag))))[1]
    a_e, b_e = _scaled(a, -e), _scaled(b, -e)
    root = cmath.sqrt(a_e * a_e + b_e * b_e)
    try:
        mu = _scaled(root, e)
        abs_mu = abs(mu)
    except OverflowError:
        # |mu| past the float range: a propagator that is not finite, refused later
        mu, abs_mu = complex(math.inf, math.inf), math.inf
    # The eigenvalues tr/2 -+ mu: the one of larger modulus as that sum, the
    # other as det(H_eff) over it, which does not cancel when the widths
    # differ by many orders.  det = E1 E2 - (i/2) (E1 gamma2 + E2 gamma1),
    # the gamma1 gamma2 / 4 terms cancelling in closed form, is taken on
    # the diagonal scaled by 2^-f, and so is the choice of root.
    f = math.frexp(max(map(abs, (h11.real, h11.imag, h22.real, h22.imag))))[1]
    d1, d2, half_tr_f, mu_f = (_scaled(z, -f) for z in (h11, h22, half_tr, mu))
    det = complex(d1.real * d2.real, d1.real * d2.imag + d2.real * d1.imag)
    plus_is_fast = half_tr_f.real * mu_f.real + half_tr_f.imag * mu_f.imag >= 0.0
    fast = half_tr + mu if plus_is_fast else half_tr - mu
    try:
        slow = _scaled(det / _scaled(fast, -f), f)
    except OverflowError:
        slow = complex(math.inf, math.inf)
    minus, plus = (slow, fast) if plus_is_fast else (fast, slow)
    return (abs_mu, mu, 2.0 * mu, -1j * half_tr, -1j * minus, -1j * plus,
            a, b, h22 - half_tr)


# an overflow shows as a propagator that is not finite, refused at the end
@np.errstate(over="ignore", invalid="ignore")
def _propagators(pairs, times) -> np.ndarray:
    """Closed-form exp(-i H_eff t) for a stack of pairs, each on its own times.

    ``times`` has one leading entry per pair (``times[k]`` is the grid of
    ``pairs[k]``); the result has shape ``times.shape + (2, 2)``.  Each
    pair's scalars are Python numbers (:func:`_pair_terms`; the slow
    eigenvalue is ``det(H_eff) / lambda_fast``), laid out as one array per
    quantity; ``U = cos_term - sin_term m`` is then written entry by entry
    over the stack.  Written in terms of the two eigen-exponentials
    exp(-i lambda_pm t), which decay for any passive system, so no
    intermediate cosh blowup occurs at large t.  Where the arithmetic leaves
    the float range, as a phase ``lambda t`` does at ``|eps| t ~ 1e308``, the
    first pair and time whose propagator is not finite raise
    :class:`PropagatorOverflowError`.
    """
    times = np.asarray(times, dtype=float)
    per_pair = (slice(None),) + (None,) * (times.ndim - 1)
    abs_mu, *terms = (np.array(column)[per_pair] for column in zip(*map(_pair_terms, pairs)))
    mu, two_mu, decay, minus, plus, m11, m12, m22 = (
        np.broadcast_to(term, times.shape) for term in terms
    )
    cos_term = np.empty(times.shape, dtype=complex)
    sin_term = np.empty(times.shape, dtype=complex)
    series = abs_mu * times < 1e-6
    # series in (mu t); the overall decay sits in exp(-i tr t / 2)
    ts = times[series]
    z2 = (mu[series] * ts) ** 2
    scale = np.exp(decay[series] * ts)
    cos_term[series] = scale * (1.0 - z2 / 2.0 + z2 * z2 / 24.0)
    sin_term[series] = 1j * scale * ts * (1.0 - z2 / 6.0 + z2 * z2 / 120.0)
    rest = ~series
    ts = times[rest]
    e_minus = np.exp(minus[rest] * ts)
    e_plus = np.exp(plus[rest] * ts)
    cos_term[rest] = 0.5 * (e_minus + e_plus)
    sin_term[rest] = (e_minus - e_plus) / two_mu[rest]
    # U's entries, each contiguous, seen as times.shape + (2, 2)
    u = np.empty((2, 2) + times.shape, dtype=complex)
    off = -sin_term * m12
    u[0, 0] = cos_term - sin_term * m11
    u[0, 1] = off
    u[1, 0] = off
    u[1, 1] = cos_term - sin_term * m22
    u = np.moveaxis(u, (0, 1), (-2, -1))
    finite = np.isfinite(u).all(axis=(-2, -1))
    if not finite.all():
        bad = np.argwhere(~finite)[0]
        raise PropagatorOverflowError(
            int(bad[0]), f"exp(-i H_eff t) leaves the float range at t = {float(times[tuple(bad)])!r}"
        )
    return u


def _sigma_start(initial) -> tuple[float, float, complex]:
    """The start ``(sigma11, sigma22, sigma12)`` as numbers; one that is not a state
    raises the ``ValueError`` of :func:`_reduced_states`."""
    s11, s22, s12 = initial
    s11, s22, s12 = float(s11), float(s22), complex(s12)
    _reduced_states(s11, s22, s12, 1.0 - s11 - s22)
    return s11, s22, s12


def _evolve_sigma(pairs, initial, times):
    """``U sigma0 U^dagger`` for every pair and time, validated as states.

    ``initial`` is the start ``(sigma11, sigma22, sigma12)``, refused before
    anything evolves if it is not a state; ``times`` is laid out as for
    :func:`_propagators`.  The sandwich is written entrywise, from ``U``'s
    four entries and the start's three numbers, as ``(U sigma0)
    U^dagger``.  Returns the arrays ``(sigma11, sigma22, sigma12,
    sigma00)`` of shape ``times.shape``, with the clamp and the checks of
    :func:`_reduced_states` applied to the whole stack at once; the first
    failing point, in pair-then-time order, raises its error.
    """
    times = np.asarray(times, dtype=float)
    if times.size and times.min() < 0.0:
        raise ValueError("backward evolution of a decaying system is not supported")
    x, z, w = _sigma_start(initial)
    u = _propagators(pairs, times)
    u11, u12, u21, u22 = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    # the rows of U sigma0
    a1, a2 = u11 * x + u12 * w.conjugate(), u11 * w + u12 * z
    b1, b2 = u21 * x + u22 * w.conjugate(), u21 * w + u22 * z
    u21c, u22c = u21.conj(), u22.conj()
    # each sum ends in + 0.0, so a zero is +0.0, as a product summed from 0 gives
    s11 = (a1 * u11.conj() + a2 * u12.conj()).real + 0.0
    s22 = (b1 * u21c + b2 * u22c).real + 0.0
    s12 = a1 * u21c + a2 * u22c + 0.0
    return s11, s22, s12, _reduced_states(s11, s22, s12, 1.0 - s11 - s22)


@dataclass(frozen=True)
class Trajectory:
    """Reduced state sampled on a time grid."""

    times: np.ndarray
    sigma11: np.ndarray
    sigma22: np.ndarray
    sigma12: np.ndarray
    sigma00: np.ndarray

    @property
    def occupation(self) -> np.ndarray:
        return self.sigma11 + self.sigma22


def master_trajectory(pair: WellPair, initial, times) -> Trajectory:
    """Exact reduced state on a grid of times (each from t = 0).

    ``sigma(t) = U sigma(0) U^dagger`` with the closed-form amplitude
    propagator ``U = exp(-i H_eff t)``, so genuinely mixed states evolve
    exactly as well.  ``initial`` is the start ``(sigma11, sigma22,
    sigma12)``; one that is not a state raises ``ValueError``, whatever the
    grid.
    """
    times = np.asarray(times, dtype=float)
    s11, s22, s12, s00 = _evolve_sigma([pair], initial, times[None])
    return Trajectory(
        times=times, sigma11=s11[0], sigma22=s22[0], sigma12=s12[0], sigma00=s00[0]
    )


def evolve_master(pair: WellPair, initial, t: float) -> Trajectory:
    """:func:`master_trajectory` at the one time ``t``: a one-point :class:`Trajectory`.

    No program calls it; it stays because ``perfbench/tracing.py`` times the
    CLI's ``evolve_master`` by name.
    """
    return master_trajectory(pair, initial, [t])


def asymptotic_probs(pair: WellPair, initial) -> tuple[float, float]:
    """Trapped and emitted probabilities at t -> infinity for aligned levels.

    Returns ``(p_trapped, p_emitted)``.  The trapped part is the squared
    overlap with the dark mode, ``|C1 eta sqrt(y) - C2|^2 / (1 + y)``.
    Misaligned levels have no bound state: everything eventually leaves,
    on the dwell-time scale; that regime is rejected here.
    """
    if pair.epsilon != 0.0:
        raise NoBoundStateError(
            "levels are misaligned (eps != 0): no trapped fraction exists; "
            "see dwell_time for the decay scale"
        )
    c1, c2 = complex(initial[0]), complex(initial[1])
    norm = abs(c1) ** 2 + abs(c2) ** 2
    if abs(norm - 1.0) > _NORM_TOL:
        raise ValueError(
            f"initial amplitudes have norm {norm}; normalize explicitly, "
            "no silent renormalization is done"
        )
    dark = dark_state(pair)
    p0 = abs(dark[0] * c1 + dark[1] * c2) ** 2
    p0 = min(1.0, float(p0))
    return p0, 1.0 - p0


def dwell_time(pair: WellPair) -> float:
    """Lifetime of the long-lived superposition for misaligned levels.

    Golden rule through the lossy bright mode of width ``gamma1 + gamma2``:
    ``tau = (gamma1 + gamma2) / (4 g12^2)`` with the dark-bright mixing
    ``g12 = epsilon sin(a) cos(a)`` of :func:`~darkwells.rotation.dark_state`'s
    angle, equal to ``(1/gamma1) (1+y)^3 / (4 y) * (gamma1/eps)^2``.  It
    reads only the ratio of the couplings and the widths, so it does not
    depend on their overall scale.  Aligned levels, or a decoupled well
    (``eta = 0``), make tau infinite and raise
    :class:`InfiniteDwellTimeError` instead of returning a float.  A mixing
    whose square underflows to zero, or a tau outside the positive float
    range (``epsilon = 1e308`` at ``rho = 0.1`` gives 0.0), raises
    ``ValueError``.
    """
    if pair.epsilon == 0.0:
        raise InfiniteDwellTimeError(
            "aligned levels (eps = 0) support a bound state: infinite dwell time"
        )
    if pair.eta == 0:
        raise InfiniteDwellTimeError(
            "dark-bright mixing vanishes (a well is decoupled): infinite dwell time"
        )
    cos_a, sin_a = unit(pair.omega2, pair.omega1)
    g12 = pair.epsilon * sin_a * cos_a
    mixing = 4.0 * g12 * g12
    if mixing == 0.0:
        raise ValueError(
            f"dark-bright mixing g12 = {g12!r} squares to zero: the dwell time overflows"
        )
    tau = (pair.gamma1 + pair.gamma2) / mixing
    if not 0.0 < tau < math.inf:
        raise ValueError(f"the dwell time {tau!r} leaves the positive float range")
    return tau


def fit_decay_rate(times, values):
    """Least-squares exponential rate of a decaying positive signal.

    Fits ``log(values)`` linearly in ``times`` along the last axis and
    returns minus the slope, ``-sum(dt * log v) / sum(dt^2)`` with
    ``dt = t - mean(t)``.  One series gives a float; a ``(k, n)`` stack
    gives ``k`` rates, each with the bits of fitting its row alone.
    Refuses fewer than two samples, a value that is not finite and
    positive, a time that is not finite, and times that are all equal.
    """
    # C order: a sum along a contiguous last axis is pairwise, row by row,
    # as for one series; a strided one would sum in another order
    times = np.ascontiguousarray(times, dtype=float)
    values = np.ascontiguousarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError(
            f"decay fit requires times and values of one shape, got {times.shape} "
            f"and {values.shape}"
        )
    if times.ndim == 0 or times.shape[-1] < 2:
        raise ValueError("need at least two samples to fit a rate")
    if not np.isfinite(times).all():
        raise ValueError("decay fit requires finite times")
    if not ((values > 0.0) & (values < math.inf)).all():
        raise ValueError("decay fit requires finite, strictly positive values")
    dt = times - times.mean(axis=-1, keepdims=True)
    # each row's dt scaled by 2^-e of its largest |dt|, and the rate back by
    # 2^-e: exact, so no square leaves the float range
    _, e = np.frexp(np.abs(dt).max(axis=-1, keepdims=True))
    dt = np.ldexp(dt, -e)
    spread = np.sum(dt * dt, axis=-1)
    if not spread.all():
        raise ValueError("decay fit requires times that are not all equal")
    rate = np.ldexp(-np.sum(dt * np.log(values), axis=-1) / spread, -e[..., 0])
    return float(rate) if rate.ndim == 0 else rate
