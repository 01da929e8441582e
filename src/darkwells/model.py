"""Core model types for two quantum wells coupled to a common reservoir.

A :class:`WellPair` holds the bare parameters of two localized levels
(energies ``E1``, ``E2``) tunnel-coupled to one continuum of band states
with constant density of states ``rho`` and energy-independent hopping
amplitudes ``omega1``, ``omega2``.  The pair also owns the quantities
derived from them: the level widths ``gamma1``, ``gamma2``, the detuning
``epsilon``, the relative sign ``eta`` of the couplings and the width
ratio ``y``; :func:`darkwells.dynamics.effective_hamiltonian` forms the
wide-band-limit self-energy of the two-level subsystem from them.

Sign convention: the hopping amplitudes are real and may be negative; the
relative sign ``eta = sign(omega1) sign(omega2)`` is what the dynamics
depends on, never the individual signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


class DegenerateSystemError(ValueError):
    """Both widths ``2 pi omega^2 rho`` are zero: both couplings vanish, or
    they are too small for a width in the float range."""


class NoBoundStateError(ValueError):
    """Asymptotic trapped population requested where no bound state exists.

    A superposition protected from decay exists only for aligned levels
    (E1 = E2).  For misaligned levels everything decays; use the dwell-time
    machinery instead.
    """


class WidthOverflowError(ValueError):
    """A width ``gamma = 2 pi omega^2 rho`` and its coupling ``omega`` that are
    not both finite.

    ``well`` is 1 or 2, the well whose width or coupling overflows.
    """

    def __init__(self, well: int, message: str):
        super().__init__(message)
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


def _width(omega: float, rho: float) -> float:
    """``2 pi omega^2 rho`` on the mantissas of ``omega`` and ``rho``, scaled once:
    the bits of ``TWO_PI * omega * omega * rho`` wherever its products stay
    normal, and only the last step can round to a subnormal, 0 or ``inf``."""
    m, e = math.frexp(omega)
    r, f = math.frexp(rho)
    try:
        return math.ldexp(TWO_PI * m * m * r, 2 * e + f)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class WellPair:
    """Two levels coupled to one wide-band reservoir.

    Parameters
    ----------
    E1, E2 : float
        Level energies of the first and second well.
    omega1, omega2 : float
        Real hopping amplitudes to the reservoir band states.  Both widths
        vanishing (both couplings zero, or too small for a nonzero width)
        is rejected as degenerate (:class:`DegenerateSystemError`).
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
        if self.gamma1 == self.gamma2 == 0.0:
            raise DegenerateSystemError(
                "degenerate system: both couplings vanish, nothing decays"
                if self.omega1 == self.omega2 == 0.0
                else f"degenerate system: both widths 2 pi omega^2 rho underflow at "
                f"omega1 = {self.omega1!r}, omega2 = {self.omega2!r}, rho = {self.rho!r}"
            )
        if self.lambda_cutoff is not None:
            cut = _require_positive("lambda_cutoff", self.lambda_cutoff)
            object.__setattr__(self, "lambda_cutoff", cut)
        for well, width, omega in ((1, self.gamma1, self.omega1), (2, self.gamma2, self.omega2)):
            if math.isinf(width):
                raise WidthOverflowError(
                    well,
                    f"width gamma{well} = 2 pi omega{well}^2 rho overflows at "
                    f"omega{well} = {omega!r}, rho = {self.rho!r}",
                )

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
        and the widths are checked before any arithmetic.  A width too large
        for a finite coupling ``sqrt(gamma / (2 pi rho))`` raises
        :class:`WidthOverflowError`, naming the first such well.
        """
        rho = _require_positive("rho", rho)
        if gamma1 < 0.0 or gamma2 < 0.0:
            raise ValueError("widths must be non-negative")
        if eta not in (1, -1):
            raise ValueError(f"eta must be +1 or -1, got {eta!r}")
        for well, gamma in ((1, gamma1), (2, gamma2)):
            # inf, or nan where an infinite gamma meets an infinite 2 pi rho
            if not math.isfinite(gamma / (TWO_PI * rho)):
                raise WidthOverflowError(
                    well,
                    f"width gamma{well} = {gamma!r} is too large for a finite "
                    f"coupling at rho = {rho!r}",
                )
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
        return _width(self.omega1, self.rho)

    @property
    def gamma2(self) -> float:
        return _width(self.omega2, self.rho)

    @property
    def epsilon(self) -> float:
        """Level detuning E1 - E2."""
        return self.E1 - self.E2

    @property
    def eta(self) -> int:
        """Relative sign ``sign(omega1) sign(omega2)`` of the couplings, 0 when
        one vanishes; taken from each coupling, so no product underflows."""
        if self.omega1 == 0.0 or self.omega2 == 0.0:
            return 0
        return 1 if (self.omega1 > 0.0) == (self.omega2 > 0.0) else -1

    @property
    def y(self) -> float:
        """Width ratio ``gamma2 / gamma1``, ``math.inf`` when ``gamma1`` is 0."""
        return self.gamma2 / self.gamma1 if self.gamma1 else math.inf


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
