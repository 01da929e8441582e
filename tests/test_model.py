import math

import pytest

from darkwells.dynamics import effective_hamiltonian
from darkwells.model import (
    TWO_PI,
    DegenerateSystemError,
    ParallelWellPair,
    WellPair,
    WidthOverflowError,
)


def test_from_widths_roundtrip():
    pair = WellPair.from_widths(2.0, 0.5, epsilon=0.3)
    assert pair.gamma1 == pytest.approx(2.0, rel=1e-14)
    assert pair.gamma2 == pytest.approx(0.5, rel=1e-14)
    assert pair.E1 == pytest.approx(0.15)
    assert pair.E2 == pytest.approx(-0.15)
    assert pair.epsilon == pytest.approx(0.3)


def test_width_definition_matches_golden_rule():
    # gamma_j = 2 pi omega_j^2 rho by definition of the decay width
    pair = WellPair(E1=0.0, E2=0.0, omega1=1.3, omega2=-0.7, rho=0.11)
    assert pair.gamma1 == pytest.approx(TWO_PI * 1.3**2 * 0.11, rel=1e-14)
    assert pair.gamma2 == pytest.approx(TWO_PI * 0.7**2 * 0.11, rel=1e-14)


def test_eta_encoded_in_coupling_sign():
    plus = WellPair.from_widths(1.0, 4.0, eta=1)
    minus = WellPair.from_widths(1.0, 4.0, eta=-1)
    assert plus.eta == 1
    assert minus.eta == -1
    assert minus.omega2 < 0 < plus.omega2
    assert plus.y == pytest.approx(4.0, rel=1e-14)
    assert WellPair(E1=0.0, E2=0.0, omega1=-0.5, omega2=-2.0).eta == 1


def test_eta_and_y_of_one_sided_couplings():
    right = WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0)
    assert right.y == 0.0 and right.eta == 0
    left = WellPair(E1=0.0, E2=0.0, omega1=0.0, omega2=1.0)
    assert left.y == math.inf and left.eta == 0
    assert WellPair(E1=0.0, E2=0.0, omega1=-0.0, omega2=1.0).eta == 0


def test_eta_and_cross_self_energy_survive_an_underflowing_product():
    # each width is about 1e-23, but omega1 * omega2 underflows to 0, which
    # once gave eta = -1 and a cross self-energy of -0j
    pair = WellPair(E1=0.0, E2=0.0, omega1=1.2e-162, omega2=1.2e-162, rho=1e300)
    assert pair.omega1 * pair.omega2 == 0.0 and pair.gamma1 > 1e-24
    assert pair.eta == 1
    f12 = complex(0.0, -0.5 * math.sqrt(pair.gamma1 * pair.gamma2))
    assert f12.imag < 0
    h = effective_hamiltonian(pair)
    assert h[0, 1] == f12
    assert h[1, 0] == f12


def test_self_energy_wide_band_values():
    # the levels sit at 0, so H_eff is the self-energy F
    pair = WellPair.from_widths(2.0, 0.5, eta=-1)
    h = effective_hamiltonian(pair)
    assert h[0, 0] == pytest.approx(-1j * 2.0 / 2, rel=1e-12)
    assert h[1, 1] == pytest.approx(-1j * 0.5 / 2, rel=1e-12)
    # off-diagonal carries the relative sign eta
    assert h[0, 1] == pytest.approx(+1j * math.sqrt(2.0 * 0.5) / 2, rel=1e-12)
    assert h[1, 0] == h[0, 1]


def test_self_energy_vanishes_with_coupling():
    pair = WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0)
    h = effective_hamiltonian(pair)
    assert h[0, 1] == 0.0
    assert h[1, 1] == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(E1=0.0, E2=0.0, omega1=0.0, omega2=0.0),
        # both widths 2 pi omega^2 rho underflow, with or without hypot^2
        dict(E1=0.0, E2=0.0, omega1=1e-200, omega2=-1e-200),
        dict(E1=1.0, E2=0.0, omega1=1e-150, omega2=1e-150, rho=1e-30),
        dict(E1=0.0, E2=0.0, omega1=0.0, omega2=1e-170),
    ],
)
def test_degenerate_system_rejected(kwargs):
    with pytest.raises(DegenerateSystemError):
        WellPair(**kwargs)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=1.0, rho=0.0)
    with pytest.raises(ValueError):
        WellPair(E1=math.nan, E2=0.0, omega1=1.0, omega2=1.0)
    with pytest.raises(ValueError):
        WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=1.0, lambda_cutoff=-3.0)
    with pytest.raises(ValueError):
        WellPair.from_widths(-1.0, 1.0)
    with pytest.raises(ValueError):
        WellPair.from_widths(1.0, 1.0, eta=2)


@pytest.mark.parametrize(
    "rho, message",
    [
        (0.0, "rho must be positive, got 0.0"),
        (-1.0, "rho must be positive, got -1.0"),
        (math.nan, "rho must be finite, got nan"),
    ],
)
def test_from_widths_checks_rho_before_arithmetic(rho, message):
    # rho = 0 used to divide by zero and rho < 0 take a negative square root
    with pytest.raises(ValueError, match=message):
        WellPair.from_widths(1.0, 1.0, rho=rho)


def test_parallel_pair_validation():
    base = WellPair.from_widths(1.0, 1.0)
    model = ParallelWellPair(base=base, yprime=2.0, U=1.5)
    assert model.yprime == 2.0 and model.U == 1.5
    with pytest.raises(ValueError):
        ParallelWellPair(base=base, yprime=0.0)
    with pytest.raises(ValueError):
        ParallelWellPair(base=base, yprime=math.inf)


@pytest.mark.parametrize(
    "make, well",
    [
        # the largest width, whose coupling squares back past the float range
        (lambda: WellPair.from_widths(1.7976931348623157e308, 1.0, rho=0.3), 1),
        (lambda: WellPair(E1=0.0, E2=0.0, omega1=1e155, omega2=1.0), 1),
        (lambda: WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=-1e155), 2),
        (lambda: WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=1e100, rho=1e120), 2),
    ],
)
def test_overflowing_width_rejected(make, well):
    # a finite coupling whose width 2 pi omega^2 rho is infinite
    with pytest.raises(WidthOverflowError, match=rf"^width gamma{well} = 2 pi omega{well}\^2 rho"
                       ) as exc:
        make()
    assert isinstance(exc.value, ValueError) and exc.value.well == well


@pytest.mark.parametrize(
    "gamma1, gamma2, rho, well, gamma",
    [(1.0, 1.0, 1e-320, 1, "1.0"), (1.0, 1e300, 1e-10, 2, "1e+300"),
     (1.7e308, 1.0, 0.01, 1, "1.7e+308"), (1.0, math.inf, 1e308, 2, "inf")],
)
def test_from_widths_refuses_an_infinite_coupling(gamma1, gamma2, rho, well, gamma):
    # sqrt(gamma / (2 pi rho)) is infinite: the model names the well itself
    with pytest.raises(WidthOverflowError) as exc:
        WellPair.from_widths(gamma1, gamma2, rho=rho)
    assert exc.value.well == well
    assert str(exc.value) == (
        f"width gamma{well} = {gamma} is too large for a finite coupling at rho = {rho!r}"
    )


def test_large_finite_widths_kept():
    pair = WellPair.from_widths(1e300, 1e-300)
    assert pair.gamma1 == pytest.approx(1e300, rel=1e-14)
    assert pair.gamma2 == pytest.approx(1e-300, rel=1e-14)
    # 2 pi omega1 * omega1, left to right, overflows before rho scales it down
    assert WellPair.from_widths(1.7e308, 1.0).gamma1 == pytest.approx(1.7e308, rel=1e-14)
