"""Core model types for two quantum wells coupled to a common reservoir.

A :class:`WellPair` holds the bare parameters of two localized levels
(energies ``E1``, ``E2``) tunnel-coupled to one continuum of band states
with constant density of states ``rho`` and energy-independent hopping
amplitudes ``omega1``, ``omega2``.  All derived quantities used elsewhere
(level widths, relative sign of the couplings, width ratio) come from
:func:`derive`, and the wide-band-limit self-energy of the two-level
subsystem from :func:`wide_band_self_energy`.

Sign convention: the hopping amplitudes are real and may be negative; the
product sign ``eta = sign(omega1 * omega2)`` is what the dynamics depends
on, never the individual signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


class DegenerateSystemError(ValueError):
    """Both wells decouple from the reservoir (omega1 = omega2 = 0)."""


class NoBoundStateError(ValueError):
    """Asymptotic trapped population requested where no bound state exists.

    A superposition protected from decay exists only for aligned levels
    (E1 = E2).  For misaligned levels everything decays; use the dwell-time
    machinery instead.
    """


class WidthOverflowError(ValueError):
    """A finite coupling whose width ``2 pi omega^2 rho`` is infinite.

    ``well`` is 1 or 2, the well whose width overflows.
    """

    def __init__(self, well: int, omega: float, rho: float):
        super().__init__(
            f"width gamma{well} = 2 pi omega{well}^2 rho overflows at "
            f"omega{well} = {omega!r}, rho = {rho!r}"
        )
        self.well = well


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_positive(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class WellPair:
    """Two levels coupled to one wide-band reservoir.

    Parameters
    ----------
    E1, E2 : float
        Level energies of the first and second well.
    omega1, omega2 : float
        Real hopping amplitudes to the reservoir band states.  At most one
        may vanish; both vanishing is rejected as degenerate.
    rho : float
        Density of reservoir states, constant across the band (wide-band
        limit).  Must be positive, and the widths ``2 pi omega_j^2 rho``
        must be finite (:class:`WidthOverflowError` otherwise).
    lambda_cutoff : float, optional
        Half-bandwidth used when the reservoir is discretized explicitly.
        ``None`` means "pick a default wide enough for the wide-band limit".
    """

    E1: float
    E2: float
    omega1: float
    omega2: float
    rho: float = 1.0 / TWO_PI
    lambda_cutoff: float | None = None

    def __post_init__(self) -> None:
        for name in ("E1", "E2", "omega1", "omega2"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        object.__setattr__(self, "rho", _require_positive("rho", self.rho))
        if self.omega1 == 0.0 and self.omega2 == 0.0:
            raise DegenerateSystemError(
                "degenerate system: both couplings vanish, nothing decays"
            )
        if self.lambda_cutoff is not None:
            cut = _require_positive("lambda_cutoff", self.lambda_cutoff)
            object.__setattr__(self, "lambda_cutoff", cut)
        for well, width, omega in ((1, self.gamma1, self.omega1), (2, self.gamma2, self.omega2)):
            if math.isinf(width):
                raise WidthOverflowError(well, omega, self.rho)

    @classmethod
    def from_widths(
        cls,
        gamma1: float,
        gamma2: float,
        eta: int = 1,
        epsilon: float = 0.0,
        rho: float = 1.0 / TWO_PI,
        lambda_cutoff: float | None = None,
    ) -> "WellPair":
        """Build a pair from decay widths instead of raw hoppings.

        ``gamma_j = 2 pi omega_j^2 rho`` is inverted for ``omega_j``, the
        relative sign ``eta`` goes on ``omega2``, and the detuning is split
        symmetrically: ``E1 = +epsilon/2``, ``E2 = -epsilon/2``.  ``rho``
        and the widths are checked before any arithmetic.
        """
        rho = _require_positive("rho", rho)
        if gamma1 < 0.0 or gamma2 < 0.0:
            raise ValueError("widths must be non-negative")
        if eta not in (1, -1):
            raise ValueError(f"eta must be +1 or -1, got {eta!r}")
        omega1 = math.sqrt(gamma1 / (TWO_PI * rho))
        omega2 = eta * math.sqrt(gamma2 / (TWO_PI * rho))
        return cls(
            E1=0.5 * epsilon,
            E2=-0.5 * epsilon,
            omega1=omega1,
            omega2=omega2,
            rho=rho,
            lambda_cutoff=lambda_cutoff,
        )

    @property
    def gamma1(self) -> float:
        return TWO_PI * self.omega1 * self.omega1 * self.rho

    @property
    def gamma2(self) -> float:
        return TWO_PI * self.omega2 * self.omega2 * self.rho

    @property
    def epsilon(self) -> float:
        """Level detuning E1 - E2."""
        return self.E1 - self.E2


@dataclass(frozen=True)
class DerivedParams:
    """Width/sign/ratio record computed from a :class:`WellPair`.

    ``eta12`` is ``None`` when either coupling vanishes (the relative sign
    is then undefined); ``y = gamma2 / gamma1`` is ``math.inf`` with
    ``y_infinite`` set when the first well decouples.
    """

    gamma1: float
    gamma2: float
    epsilon: float
    eta12: int | None
    y: float
    y_infinite: bool = False


def derive(pair: WellPair) -> DerivedParams:
    """Compute widths ``gamma_j = 2 pi omega_j^2 rho``, sign, and ratio."""
    g1 = pair.gamma1
    g2 = pair.gamma2
    if pair.omega1 == 0.0 or pair.omega2 == 0.0:
        eta: int | None = None
    else:
        eta = 1 if pair.omega1 * pair.omega2 > 0.0 else -1
    if g1 > 0.0:
        return DerivedParams(g1, g2, pair.epsilon, eta, g2 / g1)
    return DerivedParams(g1, g2, pair.epsilon, eta, math.inf, y_infinite=True)


def wide_band_self_energy(pair: WellPair, j: int, jp: int) -> complex:
    """Self-energy matrix element F_{j,jp} of the two-level subsystem.

    Tracing out a wide flat band leaves a purely imaginary, energy
    independent self-energy

        F_{j,jp} = -i * eta_{j,jp} * sqrt(gamma_j * gamma_jp) / 2,

    with ``eta_{jj} = +1`` and ``eta_{12} = eta_{21} = sign(omega1*omega2)``.
    A vanishing coupling makes the off-diagonal element zero, so the
    undefined sign never matters there.
    """
    if j not in (1, 2) or jp not in (1, 2):
        raise ValueError(f"well indices must be 1 or 2, got ({j}, {jp})")
    gj = pair.gamma1 if j == 1 else pair.gamma2
    gjp = pair.gamma1 if jp == 1 else pair.gamma2
    if j == jp:
        eta = 1.0
    else:
        prod = pair.omega1 * pair.omega2
        eta = math.copysign(1.0, prod) if prod != 0.0 else 0.0
    return complex(0.0, -0.5 * eta * math.sqrt(gj * gjp))


@dataclass(frozen=True)
class ParallelWellPair:
    """Each well carries a second level in parallel, plus on-site repulsion.

    The primed level of well ``j`` couples to the same reservoir with
    amplitude ``omega_j' = yprime * omega_j``: ``yprime`` is the common
    amplitude ratio omega_j' / omega_j, identical for both wells, so one
    linear combination per well (the local dark mode) decouples exactly.
    ``U`` is the on-site interaction energy paid when both levels of the
    same well are occupied.
    """

    base: WellPair
    yprime: float
    U: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.base, WellPair):
            raise TypeError("base must be a WellPair")
        object.__setattr__(self, "yprime", _require_positive("yprime", self.yprime))
        object.__setattr__(self, "U", _require_finite("U", self.U))
