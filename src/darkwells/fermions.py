"""Few-electron asymptotics in separated and parallel-level wells.

Two electrons filling both wells put exactly one particle in the dark
mode, so exactly one is emitted and the survivor is dark.  With a second
(parallel) level per well and an on-site interaction ``U``, each well
splits into a spectator mode that never decays and a coupled mode whose
decay problem maps back to the single-particle machinery with shifted
levels and enhanced widths; resonance between the shifted levels then
decides whether a long-lived two-electron superposition survives.

All multi-electron states are expanded programmatically from mode vectors
by a small creation-operator engine with a fixed mode order
(well1, well1', well2, well2', reservoir...), creation operators applied
right to left; no hand-transcribed sign conventions anywhere.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import NoBoundStateError, ParallelWellPair
from .rotation import unit

__all__ = [
    "FermionAsymptoticState",
    "apply_creation",
    "creation_product",
    "dark_vector",
    "two_electron_asymptotic",
    "two_electron_parallel_asymptotic",
    "three_electron_asymptotic",
    "branches_to_json",
]


def apply_creation(state: dict, vector) -> dict:
    """Apply ``sum_m vector[m] a_m^dagger`` to an expansion over index tuples.

    ``state`` maps strictly increasing mode-index tuples to amplitudes.
    Signs follow from commuting the new operator into sorted position:
    ``a_m^dagger`` picks up one minus sign per occupied mode below ``m``.
    """
    out: dict = {}
    for occ, amp in state.items():
        for m, v in enumerate(vector):
            if v == 0 or m in occ:
                continue
            ins = bisect_left(occ, m)
            new = occ[:ins] + (m,) + occ[ins:]
            sign = -1.0 if ins % 2 else 1.0
            out[new] = out.get(new, 0.0) + sign * v * amp
    return {occ: amp for occ, amp in out.items() if amp != 0.0}


def creation_product(vectors, n_modes: int) -> dict:
    """Normalized expansion of ``v1^dag v2^dag ... vN^dag |0>``.

    ``vectors`` are single-particle amplitude vectors of length
    ``n_modes`` (need not be orthogonal; the result is normalized, and a
    null wedge product raises).  Returns a map from occupation vectors
    (tuples of 0/1 of length ``n_modes``) to amplitudes.
    """
    state: dict = {(): 1.0}
    for vec in reversed(list(vectors)):
        if len(vec) != n_modes:
            raise ValueError("vector length does not match n_modes")
        state = apply_creation(state, vec)
    norm = math.sqrt(sum(abs(a) ** 2 for a in state.values()))
    if norm == 0.0:
        raise ValueError("vectors are linearly dependent: wedge product vanishes")
    out = {}
    for occ, amp in state.items():
        occupation = tuple(1 if m in occ else 0 for m in range(n_modes))
        out[occupation] = amp / norm
    return out


@dataclass(frozen=True)
class FermionAsymptoticState:
    """One asymptotic branch: ``reservoir_count`` emitted, rest retained.

    ``amplitudes`` maps dot-mode occupation vectors (0/1 tuples) to the
    normalized amplitudes of the retained state.
    """

    reservoir_count: int
    probability: float
    amplitudes: dict

    def __post_init__(self) -> None:
        if not -1e-12 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"branch probability {self.probability} out of range")
        if not self.amplitudes:
            raise ValueError("empty amplitude table")
        counts = set()
        norm = 0.0
        for occ, amp in self.amplitudes.items():
            if any(n not in (0, 1) for n in occ):
                raise ValueError(f"occupation {occ} is not fermionic")
            counts.add(sum(occ))
            norm += abs(amp) ** 2
        if len(counts) != 1:
            raise ValueError("mixed particle numbers in one branch")
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"branch state norm {norm} != 1")


def dark_vector(y: float, eta: int = 1) -> np.ndarray:
    """Dark-mode vector ``(eta sqrt(y), -1)/sqrt(1+y)``."""
    if y < 0.0:
        raise ValueError("width ratio y must be non-negative")
    if eta not in (1, -1):
        raise ValueError(f"eta must be +1 or -1, got {eta!r}")
    return np.array(unit(eta * math.sqrt(y), -1.0))


def two_electron_asymptotic(y: float, eta: int = 1) -> list[FermionAsymptoticState]:
    """Long-time fate of one electron per well, separated wells, aligned.

    The initial determinant ``a1^dag a2^dag|0>`` equals (dark)(bright);
    the bright electron always leaves, the dark one never does, so the
    only branch is one emitted electron with the dark state retained:
    its density matrix is ``(y, 1, -eta sqrt(y)) / (1+y)``.  Holds for
    aligned wells (``epsilon = 0``) only: misaligned wells have no dark
    mode and retain no electron.
    """
    dark = dark_vector(y, eta)
    amplitudes = {(1, 0): complex(dark[0]), (0, 1): complex(dark[1])}
    return [
        FermionAsymptoticState(
            reservoir_count=1, probability=1.0, amplitudes=amplitudes
        )
    ]


def _d_vectors(model: ParallelWellPair) -> dict:
    """Local dark/coupled creation vectors over (w1, w1', w2, w2')."""
    cos_b, sin_b = unit(model.yprime, 1.0)
    return {
        "d1": np.array([cos_b, -sin_b, 0.0, 0.0]),
        "d1c": np.array([sin_b, cos_b, 0.0, 0.0]),
        "d2": np.array([0.0, 0.0, cos_b, -sin_b]),
        "d2c": np.array([0.0, 0.0, sin_b, cos_b]),
    }


def _coupled_dark(model: ParallelWellPair):
    """``(y, vectors, dark)``: the coupled-sector dark vector and its inputs.

    ``vectors`` are :func:`_d_vectors`; ``dark`` combines ``d1c`` and
    ``d2c`` with the entries of :func:`dark_vector`, ``(eta sqrt(y) d1c -
    d2c) / sqrt(1 + y)``, the dark mode of the two coupled levels.  Both
    wells must couple to the reservoir.
    """
    y = model.base.y
    if not 0.0 < y < math.inf:
        raise ValueError("both wells must couple to the reservoir")
    vecs = _d_vectors(model)
    c1, c2 = dark_vector(y, model.base.eta)
    return y, vecs, c1 * vecs["d1c"] + c2 * vecs["d2c"]


def _resonant(model: ParallelWellPair) -> bool:
    base = model.base
    gap = abs(base.E2 - base.E1 - model.U)
    scale = max(abs(base.E1), abs(base.E2), abs(model.U))
    return gap <= 1e-9 * scale


def two_electron_parallel_asymptotic(
    model: ParallelWellPair,
) -> list[FermionAsymptoticState]:
    """Fate of two electrons filling the first well's two levels.

    The initial state ``a1^dag a1'^dag|0>`` equals ``d1^dag d1'^dag|0>``:
    a spectator in the local dark mode plus a mobile electron in the
    coupled mode at energy ``E1 + U``.  Off resonance the mobile electron
    simply leaves.  On resonance (``E2 = E1 + U``) it is a left-start
    aligned two-well problem with widths ``(1+yprime^2) gamma_j``, whose
    dark fraction ``y/(1+y) = gamma2/(gamma1+gamma2)`` stays trapped,
    giving a two-electron entangled branch with zero emitted.

    The resonance dichotomy is asymptotic and sharp; intermediate
    detunings of order the level widths are outside this operation's
    domain (they decay, but only on the dwell-time scale).
    """
    y, vecs, trapped_vec = _coupled_dark(model)
    branches = []
    if _resonant(model):
        p_trapped = y / (1.0 + y)
        retained_two = creation_product([vecs["d1"], trapped_vec], 4)
        branches.append(
            FermionAsymptoticState(
                reservoir_count=0,
                probability=p_trapped,
                amplitudes=retained_two,
            )
        )
        emitted_prob = 1.0 - p_trapped
    else:
        emitted_prob = 1.0
    spectator = creation_product([vecs["d1"]], 4)
    branches.append(
        FermionAsymptoticState(
            reservoir_count=1, probability=emitted_prob, amplitudes=spectator
        )
    )
    return branches


def three_electron_asymptotic(model: ParallelWellPair) -> FermionAsymptoticState:
    """Retained three-electron state when all four levels start filled.

    ``a1^dag a1'^dag a2^dag a2'^dag|0>`` holds two spectators (one local
    dark mode per well) plus two mobile electrons filling both coupled
    modes.  For aligned wells the mobile pair is (dark)(bright) of the
    effective problem: one electron leaves, and the retained state is

        d1^dag (cos(a) d1'^dag - sin(a) d2'^dag) d2^dag |0>,

    with ``cos(a) = eta sqrt(y/(1+y))``, expanded into physical modes and
    normalized.  Both coupled levels are shifted by the same ``U`` (one
    spectator each), so only the bare alignment ``E1 = E2`` matters.
    """
    base = model.base
    if base.epsilon != 0.0:
        raise NoBoundStateError(
            "bright-sector levels are misaligned (eps != 0): the mobile pair "
            "decays completely and no three-electron state survives"
        )
    _, vecs, mobile_dark = _coupled_dark(model)
    amplitudes = creation_product([vecs["d1"], mobile_dark, vecs["d2"]], 4)
    return FermionAsymptoticState(
        reservoir_count=1, probability=1.0, amplitudes=amplitudes
    )


def branches_to_json(branches) -> list[dict]:
    """JSON-ready branch list with deterministic term ordering."""
    out = []
    for br in sorted(branches, key=lambda b: b.reservoir_count):
        terms = []
        for occ in sorted(br.amplitudes):
            amp = complex(br.amplitudes[occ])
            terms.append(
                {"occupation": list(occ), "amplitude": [amp.real, amp.imag]}
            )
        out.append(
            {
                "reservoir_count": br.reservoir_count,
                "probability": br.probability,
                "terms": terms,
            }
        )
    return out
