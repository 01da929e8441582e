"""Exact bosonic Fock-state rotations and emission statistics.

N1 + N2 bosons split between two wells rotate into the (dark, bright)
mode pair; every bright quantum eventually leaves while dark quanta stay
forever, so the reservoir count distribution is read directly off the
rotated expansion.  Everything here is exact integer/rational
combinatorics: each amplitude is a :class:`SurdAmplitude`, its sign and
its exact rational square, only converted to floating point at the very
end, so oracle comparisons can demand exact equality instead of
tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "SurdAmplitude",
    "BosonFockState",
    "FockDistribution",
    "rotate_fock",
    "emission_distribution",
    "equal_fill_even_distribution",
    "one_well_distribution",
    "retained_state_split",
    "distribution_rows",
]


@dataclass(frozen=True)
class SurdAmplitude:
    """Exact real amplitude ``sign * sqrt(square)``.

    ``sign`` is -1, 0 or 1 and ``square`` the exact rational square, 0 with
    the sign 0, so equal values have equal fields and hashes.
    """

    sign: int
    square: Fraction

    def __float__(self) -> float:
        # the root from the integers, as the square can be too small for a
        # normal float: 2^k scales it to 55 bits or more, and an odd last bit
        # stands for the rest of an inexact root, so the division rounds it
        n, d = self.square.numerator, self.square.denominator
        k = max(0, 56 + (d.bit_length() - n.bit_length()) // 2)
        root = math.isqrt((n << 2 * k) // d)
        inexact = root * root * d != n << 2 * k
        return self.sign * (2 * root + inexact) / (2 << k)


ZERO_AMPLITUDE = SurdAmplitude(0, Fraction(0))


@dataclass(frozen=True)
class BosonFockState:
    """Exact (dark, bright) Fock expansion with a fixed total particle number.

    ``amplitudes`` maps occupation pairs ``(n_dark, n_bright)`` to
    SurdAmplitude values.
    """

    total: int
    amplitudes: dict

    def __post_init__(self) -> None:
        if self.total < 1:
            raise ValueError("need at least one particle")
        norm = Fraction(0)
        for key, amp in self.amplitudes.items():
            n1, n2 = key
            if n1 < 0 or n2 < 0 or n1 + n2 != self.total:
                raise ValueError(f"occupation {key} inconsistent with N={self.total}")
            norm += amp.square
        if norm != 1:
            raise ValueError(f"state norm^2 = {norm} != 1")

    def amplitude(self, n1: int, n2: int) -> SurdAmplitude:
        return self.amplitudes.get((n1, n2), ZERO_AMPLITUDE)


@dataclass(frozen=True)
class FockDistribution:
    """Probabilities indexed by an integer count, exact where possible."""

    probabilities: dict

    def __post_init__(self) -> None:
        total = Fraction(0)
        for m, p in self.probabilities.items():
            if m < 0 or int(m) != m:
                raise ValueError(f"count {m} must be a non-negative integer")
            if p < 0:
                raise ValueError(f"negative probability at m={m}")
            total += p
        if abs(total - 1) > Fraction(1, 10**12):
            raise ValueError(f"probabilities sum to {total}, not 1")

    def probability(self, m: int) -> Fraction:
        return self.probabilities.get(m, Fraction(0))


def _ratio(y) -> tuple[int, int]:
    """The positive width ratio ``y`` as coprime integers ``(p, q)``, y = p / q."""
    yq = Fraction(y)
    if yq <= 0:
        raise ValueError("width ratio y must be positive")
    return yq.numerator, yq.denominator


def _binomial_row(n: int, a: int, b: int) -> list:
    """The terms C(n, k) a^(n-k) b^k of (a + b)^n, k = 0..n, as integers."""
    term = a**n
    row = [term]
    for k in range(n):
        term = term * (n - k) * b // ((k + 1) * a)
        row.append(term)
    return row


def _rotation_polynomial(N1: int, N2: int, p: int, q: int) -> list:
    """The integer coefficients I(0..N) of G(x) = (q + p x)^N1 (1 - x)^N2.

    G solves (q + p x)(1 - x) G' = (N1 p (1 - x) - N2 (q + p x)) G, so
    from I(0) = q^N1 each coefficient follows from the two before it,

        q (m+1) I(m+1) = (N1 p - N2 q - (p - q) m) I(m) - p (N + 1 - m) I(m-1),

    an exact integer division.
    """
    N = N1 + N2
    slope = N1 * p - N2 * q
    prev, cur = 0, q**N1
    coeffs = [cur]
    for m in range(N):
        prev, cur = cur, (
            (slope - (p - q) * m) * cur - p * (N + 1 - m) * prev
        ) // (q * (m + 1))
        coeffs.append(cur)
    return coeffs


def rotate_fock(N1: int, N2: int, y, eta: int = 1) -> BosonFockState:
    """Exact (dark, bright) expansion of the two-well Fock state |N1, N2>.

    Expands (cos(a) c1^dag + sin(a) c2^dag)^N1 (-sin(a) c1^dag +
    cos(a) c2^dag)^N2 |0> / sqrt(N1! N2!) with cos(a) = eta sqrt(y/(1+y)),
    c1 the dark and c2 the bright mode.  With y = p/q in lowest terms (the
    rational value of the argument) and I(n1) the integer coefficient of
    x^n1 in (q + p x)^N1 (1 - x)^N2, the amplitude on (n1, N-n1) has the
    sign sign(I(n1)) eta^(N2-n1) and the square

        C(N, N1) I(n1)^2 p^(N2-n1) q^(n1-N1) / (C(N, n1) (p + q)^N),

    one exact Fraction per amplitude.
    """
    if N1 < 0 or N2 < 0 or N1 + N2 < 1:
        raise ValueError("need N1, N2 >= 0 with at least one particle")
    if eta not in (1, -1):
        raise ValueError(f"eta must be +1 or -1, got {eta!r}")
    p, q = _ratio(y)
    N = N1 + N2
    binomials = _binomial_row(N, 1, 1)
    scale = (p + q) ** N
    amps = {}
    for n1, coeff in enumerate(_rotation_polynomial(N1, N2, p, q)):
        a, b = N2 - n1, n1 - N1
        square = Fraction(
            binomials[N1] * coeff * coeff * p ** max(a, 0) * q ** max(b, 0),
            binomials[n1] * scale * p ** max(-a, 0) * q ** max(-b, 0),
        )
        sign = ((coeff > 0) - (coeff < 0)) * eta ** (a % 2)
        amps[(n1, N - n1)] = SurdAmplitude(sign, square)
    return BosonFockState(total=N, amplitudes=amps)


def emission_distribution(state: BosonFockState) -> FockDistribution:
    """Reservoir-count distribution: every bright quantum is emitted.

    Holds for aligned wells (``epsilon = 0``) only; misaligned wells have
    no dark mode, everything decays, and no stationary count distribution
    over retained particles exists.
    """
    probs = {m: Fraction(0) for m in range(state.total + 1)}
    for (n_dark, n_bright), amp in state.amplitudes.items():
        probs[n_bright] += amp.square
    return FockDistribution(probabilities=probs)


def equal_fill_even_distribution(N: int) -> FockDistribution:
    """Emitted-count law for |N, N> at y = 1: only even counts occur.

    P(2m) = C(2(N-m), N-m) C(2m, m) / 4^N, odd counts exactly zero.
    """
    if N < 1:
        raise ValueError("need N >= 1 bosons per well")
    probs = {m: Fraction(0) for m in range(2 * N + 1)}
    denom = 4**N
    for m in range(N + 1):
        probs[2 * m] = Fraction(math.comb(2 * (N - m), N - m) * math.comb(2 * m, m), denom)
    return FockDistribution(probabilities=probs)


def one_well_distribution(N: int, y) -> FockDistribution:
    """Emitted-count law for |N, 0>: binomial with escape odds 1 : y.

    P(m) = C(N, m) y^(N-m) / (1+y)^N = C(N, m) p^(N-m) q^m / (p+q)^N with
    y = p/q in lowest terms; each boson independently lands in the bright
    mode with probability 1/(1+y).
    """
    if N < 1:
        raise ValueError("need N >= 1 bosons")
    p, q = _ratio(y)
    denom = (p + q) ** N
    probs = {m: Fraction(term, denom) for m, term in enumerate(_binomial_row(N, p, q))}
    return FockDistribution(probabilities=probs)


def retained_state_split(n_retained: int, y) -> FockDistribution:
    """Where the surviving dark quanta sit: binomial split over the wells.

    The retained state c_dark^dag^Ntilde |0> / sqrt(Ntilde!) expands over
    well occupations with P(k in well 1) = C(Ntilde, k) y^k / (1+y)^Ntilde,
    that is C(Ntilde, k) p^k q^(Ntilde-k) / (p+q)^Ntilde with y = p/q.
    """
    if n_retained < 0:
        raise ValueError("retained count must be non-negative")
    if n_retained == 0:
        return FockDistribution(probabilities={0: Fraction(1)})
    p, q = _ratio(y)
    denom = (p + q) ** n_retained
    probs = {
        k: Fraction(term, denom) for k, term in enumerate(_binomial_row(n_retained, q, p))
    }
    return FockDistribution(probabilities=probs)


def distribution_rows(dist: FockDistribution) -> list:
    """(count, probability) float rows sorted by count."""
    return [(m, float(p)) for m, p in sorted(dist.probabilities.items())]

