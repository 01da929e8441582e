import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from darkwells.bosons import (
    ZERO_AMPLITUDE,
    BosonFockState,
    FockDistribution,
    SurdAmplitude,
    distribution_rows,
    emission_distribution,
    equal_fill_even_distribution,
    one_well_distribution,
    retained_state_split,
    rotate_fock,
)
from darkwells.fermions import two_electron_asymptotic
from darkwells.model import WellPair
from darkwells.rotation import dark_state

from oracles import boson_inner_product, boson_rotation_oracle


PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
# squares from about 2^-2100 (a subnormal root) up to 2^2000
squares = st.builds(Fraction, st.integers(0, 2**2000), st.integers(1, 2**2100))
# its square is subnormal, so sqrt(float(square)) is wrong in the sixth digit
TINY = rotate_fock(40, 3, Fraction("1e-30")).amplitude(14, 29)


@PROPERTY
@given(amp=st.builds(lambda sign, square: SurdAmplitude(sign if square else 0, square),
                     st.sampled_from((-1, 1)), squares))
@example(amp=TINY)
def test_surd_float_is_the_root_within_one_ulp(amp):
    with localcontext() as ctx:
        ctx.prec = 60
        root = Decimal(amp.square.numerator) / Decimal(amp.square.denominator)
        want = amp.sign * float(root.sqrt())
    assert abs(float(amp) - want) <= math.ulp(want)


def test_tiny_amplitude_has_a_subnormal_square():
    assert TINY.sign == -1 and 0 < TINY.square < sys.float_info.min
    assert float(TINY) == pytest.approx(-9.173308e-160, rel=1e-6, abs=0)
    assert math.sqrt(float(TINY.square)) != pytest.approx(-float(TINY), rel=1e-7, abs=0)


def test_rotation_matches_operator_oracle_exactly():
    # zero-tolerance comparison: sign and squared amplitude as rationals
    for y in (1, Fraction(1, 4), Fraction(9, 7)):
        for eta in (1, -1):
            for n1 in range(5):
                for n2 in range(5 - n1):
                    if n1 + n2 == 0:
                        continue
                    state = rotate_fock(n1, n2, y, eta=eta)
                    want = boson_rotation_oracle(n1, n2, y, eta=eta)
                    for n_dark, (sign, square) in want.items():
                        amp = state.amplitude(n_dark, n1 + n2 - n_dark)
                        assert amp.sign == sign
                        assert amp.square == square


def test_single_particle_rotation_is_the_dark_vector():
    for y in (0.25, 1.0, 4.0):
        for eta in (1, -1):
            pair = WellPair.from_widths(1.0, y, eta=eta)
            state = rotate_fock(1, 0, Fraction(y), eta=eta)
            dark = dark_state(pair)
            assert float(state.amplitude(1, 0)) == pytest.approx(dark[0], abs=1e-13)
            assert float(state.amplitude(0, 1)) == pytest.approx(
                math.sqrt(1.0 - dark[0] ** 2), abs=1e-13
            )


def test_one_boson_per_well_at_equal_widths():
    state = rotate_fock(1, 1, 1)
    assert state.amplitude(1, 1) == ZERO_AMPLITUDE
    assert state.amplitude(0, 2) == SurdAmplitude(1, Fraction(1, 2))
    assert state.amplitude(2, 0) == SurdAmplitude(-1, Fraction(1, 2))


def test_two_bosons_per_well_at_equal_widths():
    state = rotate_fock(2, 2, 1)
    assert state.amplitude(1, 3) == ZERO_AMPLITUDE
    assert state.amplitude(3, 1) == ZERO_AMPLITUDE
    assert state.amplitude(0, 4) == SurdAmplitude(1, Fraction(3, 8))
    assert state.amplitude(4, 0) == SurdAmplitude(1, Fraction(3, 8))
    assert state.amplitude(2, 2) == SurdAmplitude(-1, Fraction(1, 4))


@pytest.mark.parametrize("y", [Fraction(1, 4), 1, 4])
def test_two_boson_emission_law(y):
    dist = emission_distribution(rotate_fock(1, 1, y))
    denom = (1 + Fraction(y)) ** 2
    assert dist.probability(0) == 2 * Fraction(y) / denom
    assert dist.probability(1) == (1 - Fraction(y)) ** 2 / denom
    assert dist.probability(2) == 2 * Fraction(y) / denom


def test_bosons_bunch_where_fermions_do_not():
    # equal widths: the fermion pair always emits exactly one particle,
    # the boson pair never emits exactly one
    boson = emission_distribution(rotate_fock(1, 1, 1))
    assert boson.probability(1) == 0
    assert boson.probability(0) == Fraction(1, 2)
    fermion = two_electron_asymptotic(1.0)
    assert fermion[0].reservoir_count == 1 and fermion[0].probability == 1.0


def test_fermion_like_limit_of_thin_second_well():
    y = Fraction(1, 10**6)
    dist = emission_distribution(rotate_fock(1, 1, y))
    assert float(dist.probability(1)) == pytest.approx(0.999996, abs=1e-6)


def test_one_well_binomial_law():
    dist = one_well_distribution(3, 1)
    assert [dist.probability(m) for m in range(4)] == [
        Fraction(1, 8),
        Fraction(3, 8),
        Fraction(3, 8),
        Fraction(1, 8),
    ]
    # starting from one well is the same as rotating |N, 0>
    for y in (Fraction(1, 4), Fraction(5, 3)):
        via_state = emission_distribution(rotate_fock(3, 0, y))
        assert via_state.probabilities == one_well_distribution(3, y).probabilities


def test_equal_fill_law_even_counts_only():
    n1 = equal_fill_even_distribution(1)
    assert n1.probability(0) == Fraction(1, 2)
    assert n1.probability(1) == 0
    assert n1.probability(2) == Fraction(1, 2)
    n2 = equal_fill_even_distribution(2)
    assert n2.probability(0) == Fraction(3, 8)
    assert n2.probability(2) == Fraction(1, 4)
    assert n2.probability(4) == Fraction(3, 8)
    assert n2.probability(1) == 0 and n2.probability(3) == 0
    # closed form against the general rotation machinery
    assert n2.probabilities == emission_distribution(rotate_fock(2, 2, 1)).probabilities


def test_retained_split_examples():
    split = retained_state_split(2, Fraction(1, 4))
    assert split.probability(0) == Fraction(16, 25)
    assert split.probability(1) == Fraction(8, 25)
    assert split.probability(2) == Fraction(1, 25)
    assert retained_state_split(0, 1).probabilities == {0: Fraction(1)}
    even = retained_state_split(3, 1)
    assert even.probability(1) == Fraction(3, 8)
    with pytest.raises(ValueError):
        retained_state_split(-1, 1)
    with pytest.raises(ValueError):
        retained_state_split(2, 0)


def test_rotated_states_are_orthonormal():
    total = 6
    states = [rotate_fock(n1, total - n1, Fraction(9, 7)) for n1 in range(total + 1)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert boson_inner_product(a, b) == pytest.approx(want, abs=1e-12)


def test_state_validation():
    half = SurdAmplitude(1, Fraction(1, 2))
    with pytest.raises(ValueError, match="norm"):
        BosonFockState(total=1, amplitudes={(1, 0): half})
    with pytest.raises(ValueError, match="inconsistent"):
        BosonFockState(total=2, amplitudes={(1, 0): half})
    with pytest.raises(ValueError):
        BosonFockState(total=0, amplitudes={})
    ok = BosonFockState(total=1, amplitudes={(1, 0): half, (0, 1): half})
    assert {key: float(a) for key, a in ok.amplitudes.items()} == {
        (1, 0): pytest.approx(math.sqrt(0.5)),
        (0, 1): pytest.approx(math.sqrt(0.5)),
    }


def test_distribution_validation():
    with pytest.raises(ValueError, match="negative"):
        FockDistribution(probabilities={0: Fraction(-1, 2), 1: Fraction(3, 2)})
    with pytest.raises(ValueError, match="sum"):
        FockDistribution(probabilities={0: Fraction(1, 2)})
    with pytest.raises(ValueError, match="integer"):
        FockDistribution(probabilities={-1: Fraction(1)})
    dist = FockDistribution(probabilities={0: Fraction(1, 4), 2: Fraction(3, 4)})
    assert max(dist.probabilities) == 2
    assert dist.probability(1) == 0
    assert {m: float(p) for m, p in dist.probabilities.items()} == {0: 0.25, 2: 0.75}


def test_rotation_argument_validation():
    with pytest.raises(ValueError):
        rotate_fock(0, 0, 1)
    with pytest.raises(ValueError):
        rotate_fock(1, 0, 0)
    with pytest.raises(ValueError):
        rotate_fock(1, 0, 1, eta=2)


def test_distribution_serialization():
    dist = emission_distribution(rotate_fock(1, 1, Fraction(1, 4)))
    rows = distribution_rows(dist)
    assert [m for m, _ in rows] == [0, 1, 2]
    assert rows[1][1] == pytest.approx(9.0 / 25.0)
    assert rows[0] == (0, 8.0 / 25.0)
