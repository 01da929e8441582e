import math

import numpy as np
import pytest

from darkwells.model import WellPair
from darkwells.rotation import dark_state, rotate

from oracles import check_constant_ratio


@pytest.mark.parametrize("y", [0.25, 1.0, 4.0, 17.3])
@pytest.mark.parametrize("eta", [1, -1])
def test_dark_mode_decouples_exactly(y, eta):
    pair = WellPair.from_widths(1.0, y, eta=eta, epsilon=0.7)
    rb = rotate(pair)
    # the defining property of the rotation
    assert rb.g1 == pytest.approx(0.0, abs=1e-14)
    assert rb.g2 == pytest.approx(
        math.hypot(pair.omega1, pair.omega2), rel=1e-13
    ) or rb.g2 == pytest.approx(-math.hypot(pair.omega1, pair.omega2), rel=1e-13)
    assert rb.gamma2_prime == pytest.approx(pair.gamma1 + pair.gamma2, rel=1e-12)


@pytest.mark.parametrize("y", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("eta", [1, -1])
def test_dark_state_closed_form(y, eta):
    pair = WellPair.from_widths(1.0, y, eta=eta)
    expect = np.array([eta * math.sqrt(y), -1.0]) / math.sqrt(1.0 + y)
    np.testing.assert_allclose(dark_state(pair), expect, atol=1e-13)


def test_rotated_frame_orthonormal():
    pair = WellPair.from_widths(2.0, 0.3, eta=-1, epsilon=0.4)
    rb = rotate(pair)
    d = dark_state(pair)
    b = np.array([rb.sin_alpha, rb.cos_alpha])  # the bright mode c2
    assert np.dot(d, d) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(b, b) == pytest.approx(1.0, abs=1e-14)
    assert np.dot(d, b) == pytest.approx(0.0, abs=1e-14)


def test_residual_coupling_and_energies():
    pair = WellPair(E1=0.9, E2=0.1, omega1=0.6, omega2=0.8)
    rb = rotate(pair)
    h2 = 0.6**2 + 0.8**2
    assert rb.g12 == pytest.approx((0.9 - 0.1) * 0.6 * 0.8 / h2, rel=1e-13)
    assert rb.E1_prime == pytest.approx((0.9 * 0.64 + 0.1 * 0.36) / h2, rel=1e-13)
    assert rb.E2_prime == pytest.approx((0.1 * 0.64 + 0.9 * 0.36) / h2, rel=1e-13)
    # trace of the 2x2 dot Hamiltonian is rotation invariant
    assert rb.E1_prime + rb.E2_prime == pytest.approx(pair.E1 + pair.E2, rel=1e-13)


def test_aligned_levels_leave_dark_mode_stationary():
    pair = WellPair.from_widths(1.0, 3.0, epsilon=0.0)
    assert rotate(pair).g12 == 0.0


def test_rotation_handles_one_sided_coupling():
    pair = WellPair(E1=0.0, E2=0.0, omega1=1.0, omega2=0.0)
    rb = rotate(pair)
    assert rb.cos_alpha == 0.0
    assert abs(rb.sin_alpha) == 1.0
    assert rb.g1 == pytest.approx(0.0, abs=1e-14)


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
