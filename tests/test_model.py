import math

import pytest

from darkwells.model import (
    TWO_PI,
    DegenerateSystemError,
    ParallelWellPair,
    WellPair,
    WidthOverflowError,
    derive,
    wide_band_self_energy,
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
    assert derive(plus).eta12 == 1
    assert derive(minus).eta12 == -1
    assert minus.omega2 < 0 < plus.omega2
    assert derive(plus).y == pytest.approx(4.0, rel=1e-14)


def test_derive_one_sided_couplings():
    d1 = derive(WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0))
    assert d1.y == 0.0 and d1.eta12 is None and not d1.y_infinite
    d2 = derive(WellPair(E1=0.0, E2=0.0, omega1=0.0, omega2=1.0))
    assert d2.y_infinite and d2.eta12 is None


def test_self_energy_wide_band_values():
    pair = WellPair.from_widths(2.0, 0.5, eta=-1)
    f11 = wide_band_self_energy(pair, 1, 1)
    f22 = wide_band_self_energy(pair, 2, 2)
    f12 = wide_band_self_energy(pair, 1, 2)
    assert f11 == pytest.approx(-1j * 2.0 / 2, rel=1e-12)
    assert f22 == pytest.approx(-1j * 0.5 / 2, rel=1e-12)
    # off-diagonal carries the relative sign eta
    assert f12 == pytest.approx(+1j * math.sqrt(2.0 * 0.5) / 2, rel=1e-12)
    assert wide_band_self_energy(pair, 2, 1) == f12


def test_self_energy_vanishes_with_coupling():
    pair = WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0)
    assert wide_band_self_energy(pair, 1, 2) == 0.0
    assert wide_band_self_energy(pair, 2, 2) == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(E1=0.0, E2=0.0, omega1=0.0, omega2=0.0),
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
        (lambda: WellPair.from_widths(1.7e308, 1.0), 1),
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


def test_large_finite_widths_kept():
    pair = WellPair.from_widths(1e300, 1e-300)
    assert pair.gamma1 == pytest.approx(1e300, rel=1e-14)
    assert pair.gamma2 == pytest.approx(1e-300, rel=1e-14)
