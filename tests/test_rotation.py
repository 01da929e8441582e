import math

import numpy as np
import pytest

from darkwells.dynamics import dwell_time, effective_hamiltonian
from darkwells.model import TWO_PI, WellPair
from darkwells.rotation import dark_state, unit

from oracles import check_constant_ratio


@pytest.mark.parametrize("y", [0.25, 1.0, 4.0, 17.3])
@pytest.mark.parametrize("eta", [1, -1])
def test_dark_mode_decouples_exactly(y, eta):
    pair = WellPair.from_widths(1.0, y, eta=eta, epsilon=0.7)
    couplings = np.array([pair.omega1, pair.omega2])
    h = math.hypot(pair.omega1, pair.omega2)
    dark = dark_state(pair)
    bright = np.array(unit(pair.omega1, pair.omega2))
    # the defining property of the rotation: the dark mode has no
    # reservoir coupling and the bright mode carries all of it
    assert np.dot(dark, couplings) == pytest.approx(0.0, abs=1e-14 * h)
    assert abs(np.dot(bright, couplings)) == pytest.approx(h, rel=1e-13)
    bright_width = TWO_PI * np.dot(bright, couplings) ** 2 * pair.rho
    assert bright_width == pytest.approx(pair.gamma1 + pair.gamma2, rel=1e-12)


@pytest.mark.parametrize("y", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("eta", [1, -1])
def test_dark_state_closed_form(y, eta):
    pair = WellPair.from_widths(1.0, y, eta=eta)
    expect = np.array([eta * math.sqrt(y), -1.0]) / math.sqrt(1.0 + y)
    np.testing.assert_allclose(dark_state(pair), expect, atol=1e-13)


def test_rotated_frame_orthonormal():
    pair = WellPair.from_widths(2.0, 0.3, eta=-1, epsilon=0.4)
    d = dark_state(pair)
    b = np.array(unit(pair.omega1, pair.omega2))  # the bright mode (sin a, cos a)
    assert np.dot(d, d) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(b, b) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(d, b) == pytest.approx(0.0, abs=1e-14)


def test_residual_coupling_and_energies():
    pair = WellPair(E1=0.9, E2=0.1, omega1=0.6, omega2=0.8)
    h2 = 0.6**2 + 0.8**2
    frame = np.column_stack([dark_state(pair), unit(pair.omega1, pair.omega2)])
    rotated = frame.T @ np.diag([pair.E1, pair.E2]) @ frame
    g12 = (0.9 - 0.1) * 0.6 * 0.8 / h2
    assert rotated[0, 1] == pytest.approx(g12, rel=1e-13)
    assert rotated[0, 0] == pytest.approx((0.9 * 0.64 + 0.1 * 0.36) / h2, rel=1e-13)
    assert rotated[1, 1] == pytest.approx((0.1 * 0.64 + 0.9 * 0.36) / h2, rel=1e-13)
    # trace of the 2x2 dot Hamiltonian is rotation invariant
    assert np.trace(rotated) == pytest.approx(pair.E1 + pair.E2, rel=1e-13)
    # the golden-rule lifetime reads the same mixing through the bright width
    tau = (pair.gamma1 + pair.gamma2) / (4.0 * g12**2)
    assert dwell_time(pair) == pytest.approx(tau, rel=1e-13)


def test_aligned_levels_leave_dark_mode_stationary():
    pair = WellPair(E1=0.3, E2=0.3, omega1=0.4, omega2=-1.1)
    dark = dark_state(pair)
    np.testing.assert_allclose(effective_hamiltonian(pair) @ dark, 0.3 * dark, atol=1e-15)


def test_rotation_handles_one_sided_coupling():
    pair = WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0)
    assert dark_state(pair).tolist() == [0.0, -1.0]
    assert unit(pair.omega1, pair.omega2) == (1.0, 0.0)


@pytest.mark.parametrize("a, b", [(0.6, 0.8), (3.0, -4.0), (1e-3, 7.0), (-1.0, 1.0)])
def test_unit_is_scale_free(a, b):
    # no square is formed, so an exact power-of-two scale keeps every bit,
    # also where a^2 or b^2 would leave the float range
    c, s = unit(a, b)
    assert math.hypot(c, s) == pytest.approx(1.0, abs=1e-15)
    assert c * b == pytest.approx(s * a, abs=1e-15 * math.hypot(a, b))
    for k in range(-1020, 1021, 5):
        scaled = (math.ldexp(a, k), math.ldexp(b, k))
        if all(1e-307 < abs(v) < 1e307 for v in scaled):
            assert unit(*scaled) == (c, s), k


def test_check_constant_ratio_accepts_proportional_table():
    rng = np.random.default_rng(7)
    col1 = rng.uniform(0.5, 2.0, size=40)
    table = np.column_stack([col1, -1.7 * col1])
    ok, worst = check_constant_ratio(table)
    assert ok and worst < 1e-12


def test_check_constant_ratio_flags_deviation():
    table = [[1.0, 2.0], [1.0, 2.0 * (1 + 1e-6)]]
    ok, worst = check_constant_ratio(table, rel_tol=1e-9)
    assert not ok
    assert worst == pytest.approx(1e-6, rel=1e-3)
    ok2, _ = check_constant_ratio(table, rel_tol=1e-5)
    assert ok2


def test_check_constant_ratio_rejects_bad_input():
    with pytest.raises(ValueError, match="rows \\[1\\]"):
        check_constant_ratio([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        check_constant_ratio(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        check_constant_ratio([[1.0, 2.0, 3.0]])


def test_width_ratio_consistent_with_rotation():
    pair = WellPair.from_widths(1.0, 4.0, eta=-1)
    vec = dark_state(pair)
    # occupancy split of the dark mode follows the width ratio
    assert vec[0] ** 2 == pytest.approx(pair.y / (1 + pair.y), rel=1e-13)
    assert vec[1] ** 2 == pytest.approx(1 / (1 + pair.y), rel=1e-13)
