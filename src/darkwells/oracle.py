"""Brute-force oracle: the reservoir kept explicitly as discrete levels.

Everything analytic in this package rests on the wide-band elimination of
the continuum.  This module keeps the band instead, as ``n`` uniformly
spaced levels across ``[-cutoff, +cutoff]`` with level couplings scaled so
every well keeps its physical width, and evolves the full single-particle
or many-body problem exactly.  Agreement with the closed forms, and its
improvement as the discretization is refined, is what certifies them.

Two propagators are provided: a dense eigen-decomposition
(:func:`evolve_exact`, the reference contract for moderate dimensions) and
a Chebyshev polynomial expansion of ``exp(-iHt)``
(:func:`chebyshev_propagate`) whose cost scales with the sparse structure,
used for large grids and for many-body Fock vectors.  The expansion always
applies H as a CSR matrix; it is built once per call, up to the degree the
latest time needs, and every requested time is accumulated from it into
one output array with Bessel weights from one table and no phase, which
multiplies each time once at the end.  Each propagation logs one DEBUG
event on the ``darkwells`` logger (dimension, output times, last-time
drift, and for an expansion the nnz and degree).  The dense propagator
always takes ``rows``, the expansion takes ``rows=``; either then returns
a :class:`Projection`: those rows at every time and the full state at the
last time alone.  Both are fully deterministic, refuse the same starts and
time grids, and check norm drift to one tolerance, ``_NORM_TOL``.
:func:`single_particle_method` picks the propagator of a single-particle
run from its dimension alone.  Single-particle and Fock runs share one
one-body Hamiltonian, :func:`build_single_particle_hamiltonian`.  Before
anything is built, a run past the caps is refused (:class:`OracleRequestError`):
``_MAX_LEVELS`` levels, ``_MAX_TABLE_ENTRIES`` of a dense run's (n_points x
dim) phase factors, or for any expansion a Chebyshev degree (about
half-bandwidth x t_max) of ``_MAX_CHEBYSHEV_DEGREE`` or ``_MAX_TABLE_ENTRIES``
entries of its (n_points x degree) Bessel table.

A finite band is faithful only for a finite while: the discrete spectrum
revives after the recurrence time ``2 pi / spacing``, and the band edges
produce a short-time transient of relative size ``~ (gamma1+gamma2) /
cutoff``.  Helpers here report both limits instead of pretending they do
not exist.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .dynamics import Trajectory
from .model import ParallelWellPair, WellPair

__all__ = [
    "OracleRequestError",
    "DiscretizedReservoir",
    "default_cutoff",
    "reservoir_couplings",
    "build_single_particle_hamiltonian",
    "single_particle_bounds",
    "evolve_exact",
    "chebyshev_propagate",
    "Projection",
    "OracleRun",
    "single_particle_method",
    "single_particle_trajectory",
    "convergence_report",
    "FockSpace",
    "fock_basis_state",
    "dot_mode_count",
    "build_fock_hamiltonian",
    "fock_spectral_bounds",
    "evolve_fock",
    "ReducedQuantities",
    "reduced_quantities",
    "slater_reservoir_distribution",
    "slater_dot_rdm",
]

# single-particle runs take the dense propagator up to this dimension, and
# evolve_exact refuses larger ones
DENSE_MAX_DIM = 1500
_MAX_FOCK_DIM = 250_000
_MAX_LEVELS = 100_000
_MAX_CHEBYSHEV_DEGREE = 100_000
_MAX_TABLE_ENTRIES = 5_000_000
# output times evolved per batched product in evolve_exact; bounds the
# temporaries beyond the output to O(_TIME_BLOCK * dim)
_TIME_BLOCK = 64
# Bessel coefficients at or below this are dropped from the expansion
_CHEBYSHEV_TOL = 1e-16
# Miller's recurrence rescales a column to 1 once it passes this; one step
# grows it by at most 2 m / a + 1, below 1e158 for a > _BESSEL_TINY and
# m < 5e7, so nothing overflows
_BESSEL_RESCALE = 1e100
_BESSEL_TINY = 1e-150
# tables with at most this many columns past _BESSEL_TINY run the
# recurrence per column in Python floats; a Fock run's table has two
_BESSEL_SCALAR_COLUMNS = 16
# relative padding of computed spectral enclosures against rounding in
# eigvalsh and in the assembled matrix entries (both ~ n eps)
_BOUNDS_MARGIN = 1e-10
# largest norm drift a propagator lets through in a state it returns
_NORM_TOL = 1e-10
_log = logging.getLogger("darkwells")
# (-1)^parity by parity: a lookup and a product cost less than np.where
# on a mask with no pattern, and give the same bits
_SIGNS = np.array([1.0, -1.0])


class OracleRequestError(ValueError):
    """A request refused before anything is built; ``source``, what set the refused
    quantity, is ``"n_levels"``, ``"band"``, ``"phases"``, ``"n_points"`` or ``"t_max"``."""

    def __init__(self, source: str, message: str):
        super().__init__(message)
        self.source = source


def default_cutoff(pair: WellPair) -> float:
    """Half-bandwidth wide enough for the wide-band limit to apply.

    ``20 * max(gamma1 + gamma2, |eps|)``: twenty total widths (or
    detunings, if larger) between the physics and the band edges.
    """
    return 20.0 * max(pair.gamma1 + pair.gamma2, abs(pair.epsilon))


@dataclass(frozen=True, eq=False)
class DiscretizedReservoir:
    """Uniform midpoint-offset discretization of the band.

    ``n_levels`` must be even so the grid ``-cutoff + (k + 1/2) * spacing``
    stays symmetric and never places a level at exactly zero energy, where
    it would artificially pin the aligned-well resonance, from 10 up to
    ``_MAX_LEVELS``.  A spacing ``2 cutoff / n_levels`` not finite, or whose
    recurrence time ``2 pi / spacing`` is not, raises :class:`OracleRequestError`.
    """

    n_levels: int
    cutoff: float
    spacing: float
    energies: np.ndarray
    recurrence_time: float

    @classmethod
    def uniform(cls, n_levels: int, cutoff: float) -> "DiscretizedReservoir":
        if n_levels < 10:
            raise OracleRequestError(
                "n_levels", f"n_levels = {n_levels} is too coarse to mean anything; need >= 10"
            )
        if n_levels % 2:
            raise OracleRequestError(
                "n_levels", f"n_levels must be even to keep the grid symmetric, got {n_levels}"
            )
        if n_levels > _MAX_LEVELS:
            raise OracleRequestError(
                "n_levels", f"{n_levels} levels exceed the cap of {_MAX_LEVELS}"
            )
        if cutoff <= 0.0:
            raise OracleRequestError("band", f"cutoff must be positive, got {cutoff}")
        spacing = 2.0 * cutoff / n_levels
        # an infinite spacing makes the levels NaN, and one too fine leaves
        # the recurrence time infinite
        if not (0.0 < spacing < math.inf) or math.isinf(2.0 * math.pi / spacing):
            raise OracleRequestError(
                "band", f"the band spacing 2 * {cutoff!r} / {n_levels} = {spacing!r} "
                "or its recurrence time 2 pi / spacing leaves the float range"
            )
        energies = -cutoff + spacing * (np.arange(n_levels) + 0.5)
        return cls(
            n_levels=n_levels,
            cutoff=float(cutoff),
            spacing=spacing,
            energies=energies,
            recurrence_time=2.0 * math.pi / spacing,
        )

    @classmethod
    def for_pair(cls, pair: WellPair, n_levels: int) -> "DiscretizedReservoir":
        """The band of ``pair``: ``pair.lambda_cutoff``, else :func:`default_cutoff`."""
        cutoff = pair.lambda_cutoff
        return cls.uniform(n_levels, default_cutoff(pair) if cutoff is None else cutoff)


def reservoir_couplings(pair: WellPair, res: DiscretizedReservoir) -> np.ndarray:
    """Per-level couplings, shape (n_levels, 2).

    Each level absorbs a bandwidth slice ``spacing``, so the coupling is
    ``omega_j * sqrt(rho * spacing)``; this keeps ``2 pi * coupling^2 /
    spacing`` equal to the physical width ``gamma_j`` level by level, and
    the two columns keep the exact constant ratio that protects the dark
    state at finite discretization.
    """
    scale = math.sqrt(pair.rho * res.spacing)
    column = np.ones(res.n_levels)
    return np.column_stack((pair.omega1 * scale * column, pair.omega2 * scale * column))


def build_single_particle_hamiltonian(
    model: WellPair | ParallelWellPair,
    res: DiscretizedReservoir,
    sparse: bool = False,
):
    """One-body Hamiltonian in the basis (wells, levels in energy order).

    The wells are (well1, well2), or (well1, well1', well2, well2') for a
    :class:`ParallelWellPair`, whose primed wells couple with ``yprime``
    times the amplitudes.  Dense ndarray by default (the :func:`evolve_exact`
    contract, and the Fock build's); ``sparse=True`` gives the CSR form the
    expansion applies.  Both are laid out from one (row, column, value) list:
    the dense form keeps each value as it is, a ``-0.0`` energy included,
    and the CSR form stores no zero entry.
    """
    parallel = isinstance(model, ParallelWellPair)
    pair, scales = (model.base, (1.0, model.yprime)) if parallel else (model, (1.0,))
    n_dots, n = 2 * len(scales), res.n_levels
    coup = reservoir_couplings(pair, res)
    block = np.concatenate([s * coup[:, j] for j in (0, 1) for s in scales])
    dots, levels, dim = np.arange(n_dots), np.arange(n_dots, n_dots + n), n_dots + n
    wells = np.repeat(dots, n)
    rows = np.concatenate((dots, levels, wells, np.tile(levels, n_dots)))
    cols = np.concatenate((dots, levels, np.tile(levels, n_dots), wells))
    vals = np.concatenate((np.repeat([pair.E1, pair.E2], len(scales)), res.energies, block, block))
    if sparse:
        h = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        h.eliminate_zeros()
        return h
    h = np.zeros((dim, dim))
    h[rows, cols] = vals
    return h


def single_particle_bounds(pair: WellPair, res: DiscretizedReservoir) -> tuple[float, float]:
    """Rigorous spectral enclosure of the single-particle Hamiltonian.

    Read from the model without building H: the diagonal range widened by
    the norm of the dot-reservoir block, which is at most its Frobenius
    norm ``sqrt(sum_j c1_j^2 + c2_j^2)`` (Weyl).  Known before anything is
    allocated, so callers can size a Chebyshev run in advance.
    """
    coup = reservoir_couplings(pair, res)
    # couplings past about 1e154 square to inf: the bounds are then +-inf,
    # which callers refuse, so the overflow itself is not worth a warning
    with np.errstate(over="ignore"):
        off_norm = math.sqrt(float(np.sum(coup**2)))
    lo = min(pair.E1, pair.E2, float(res.energies[0]))
    hi = max(pair.E1, pair.E2, float(res.energies[-1]))
    return lo - off_norm, hi + off_norm


def _check_start(psi: np.ndarray, times: np.ndarray, dim: int) -> None:
    """Refuse a start of another length than ``dim``, one (any column, for
    stacks) off unit norm or NaN, or a grid that is negative, decreasing or NaN."""
    if psi.shape[:1] != (dim,):
        raise ValueError(f"initial vector has shape {psi.shape}; h has dimension {dim}")
    norms = np.atleast_1d(np.linalg.norm(psi, axis=0))
    off = ~(np.abs(norms - 1.0) <= 1e-9)
    if off.any():
        raise ValueError(f"initial vector has norm {norms[off][0]}; normalize it first")
    if not (np.all(times >= 0.0) and np.all(np.diff(times) >= 0.0)):
        raise ValueError("times must be non-decreasing and non-negative")


def _check_hermitian(h: np.ndarray) -> None:
    """Refuse an ``h`` off its adjoint by more than 1e-12 of its scale, or holding NaN.

    One buffer takes ``|h - h^H|`` and then ``|h|``, each written in place.
    """
    buf = h - h.conj().T
    asymmetry = np.abs(buf, out=buf).real.max()
    if not asymmetry <= 1e-12 * max(1.0, np.abs(h, out=buf).real.max()):
        raise ValueError("Hamiltonian is not Hermitian")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, as two real products when one operand is real and one complex.

    A complex product would cast the real operand to complex first.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(a):
        real, imag = a.real @ b, a.imag @ b
    else:
        real, imag = a @ b.real, a @ b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _check_drift(states: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Norm drift of each state (of its worst column, for stacks), one per time.

    Raises at the first time whose drift passes ``_NORM_TOL`` or is NaN.
    """
    norms = np.linalg.norm(states, axis=1)
    drift = np.abs(norms - 1.0).reshape(times.size, -1).max(axis=1)
    failed = np.flatnonzero(~(drift <= _NORM_TOL))
    if failed.size:
        j = failed[0]
        raise RuntimeError(f"norm drifted by {float(drift[j])} at t = {times[j]}")
    return drift


class Projection(NamedTuple):
    """Selected rows of a propagation at every time, plus the state at the last time.

    ``degree`` and ``truncation_bound`` describe a Chebyshev expansion and
    are ``None`` for a dense run.
    """

    amplitudes: np.ndarray
    final_state: np.ndarray
    degree: int | None
    truncation_bound: float | None


def evolve_exact(h: np.ndarray, psi0: np.ndarray, times, rows) -> Projection:
    """Propagate by full eigen-decomposition, keeping ``rows`` at every time.

    Refuses dimensions above ``DENSE_MAX_DIM``, where
    :func:`single_particle_method` picks the expansion, the starts and
    grids :func:`chebyshev_propagate` refuses, and then a stack of starts,
    which :func:`chebyshev_propagate` takes.  Validates Hermiticity, and
    works through the output times in blocks of ``_TIME_BLOCK``, one matrix
    product per block, into which only ``rows`` of the eigenvectors enter.
    The result is a :class:`Projection` whose ``amplitudes`` have shape
    ``(len(times), len(rows))`` and whose ``final_state``, the full state
    at the last time, is the only state whose norm is checked.  Each
    propagation logs one DEBUG event on the ``darkwells`` logger with the
    dimension, the number of output times and the norm drift at the last
    time; empty ``times`` run none.
    """
    h = np.asarray(h)
    dim = h.shape[0]
    if h.ndim != 2 or h.shape[1] != dim:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if dim > DENSE_MAX_DIM:
        raise ValueError(
            f"dimension {dim} exceeds the dense limit {DENSE_MAX_DIM}; use "
            "chebyshev_propagate"
        )
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    _check_start(psi0, times, dim)
    if psi0.ndim != 1:
        raise ValueError(
            f"initial vector has shape {psi0.shape}; evolve_exact takes one state, "
            "use chebyshev_propagate for a stack of states"
        )
    _check_hermitian(h)
    if times.size == 0:
        empty = np.empty((0,) + psi0[rows].shape, dtype=complex)
        return Projection(empty, psi0.copy(), None, None)
    evals, evecs = np.linalg.eigh(h)
    coeff = _product(evecs.conj().T, psi0)
    kept = evecs[rows]
    out = np.empty((times.size, kept.shape[0]), dtype=complex)
    for start in range(0, times.size, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        phases = np.exp(-1j * np.outer(times[block], evals)) * coeff
        out[block] = _product(phases, kept.T)
    final = _product(evecs, phases[-1])
    drift = float(_check_drift(final[None], times[-1:])[0])
    _log.debug(
        "dense propagation: dim %d, %d output times, last-time drift %s",
        dim, times.size, drift,
        extra={"dim": dim, "n_times": int(times.size), "drift": drift},
    )
    return Projection(out, final, None, None)


def _bessel_table(a) -> np.ndarray:
    """``J_k(a_j)`` for every ``a_j >= 0`` and ``k = 0 .. m``, shape (m + 1, len(a)).

    Miller's backward recurrence ``J_{k-1} = (2k / a) J_k - J_{k+1}``, started
    from ``(0, 1)`` at an order ``m`` far enough above ``max(a)`` that the
    start error has died out by the orders that matter, and normalized by
    ``J_0 + 2 sum_k J_2k = 1`` (Abramowitz & Stegun 9.12.28).  A column is
    rescaled to 1 whenever it passes ``_BESSEL_RESCALE``, so small ``a``
    cannot overflow; the high orders this pushes to zero are negligible.
    Columns with ``a <= _BESSEL_TINY`` are ``J_0 = 1``, ``J_1 = a / 2`` to
    double precision and zero beyond, and skip the recurrence.  Up to
    ``_BESSEL_SCALAR_COLUMNS`` remaining columns run the recurrence one at a
    time in Python floats (:func:`_miller_column`), more run it as one loop
    of array operations; both take the same float64 operations in the same
    order, so either gives the same bits.
    """
    a = np.asarray(a, dtype=float)
    a_max = float(a.max()) if a.size else 0.0
    m = int(math.ceil(a_max + 50.0 + 8.0 * a_max ** (1.0 / 3.0)))
    table = np.zeros((m + 1, a.size))
    small = a <= _BESSEL_TINY
    table[0, small] = 1.0
    table[1, small] = 0.5 * a[small]
    live = np.flatnonzero(~small)
    if live.size:
        sub = np.zeros((m + 1, live.size))
        if live.size <= _BESSEL_SCALAR_COLUMNS:
            for j, a_j in enumerate(a[live].tolist()):
                sub[:, j] = _miller_column(2.0 / a_j, m)
        else:
            two_over_a = 2.0 / a[live]
            f_next = np.zeros(live.size)
            f = sub[m] = np.ones(live.size)
            for k in range(m, 0, -1):
                f_prev = (k * two_over_a) * f - f_next
                big = np.flatnonzero(np.abs(f_prev) > _BESSEL_RESCALE)
                if big.size:
                    scale = np.abs(f_prev[big])
                    sub[k:, big] /= scale
                    f_prev[big] /= scale
                    f[big] /= scale
                sub[k - 1] = f_prev
                f_next, f = f, f_prev
        sub /= sub[0] + 2.0 * sub[2::2].sum(axis=0)
        table[:, live] = sub
    return table


def _miller_column(two_over_a: float, m: int) -> list[float]:
    """One column of :func:`_bessel_table`'s recurrence before normalization, orders 0 .. m."""
    column = [1.0]  # orders m, m - 1, ... as they are reached
    f_next, f = 0.0, 1.0
    for k in range(m, 0, -1):
        f_prev = (k * two_over_a) * f - f_next
        if abs(f_prev) > _BESSEL_RESCALE:
            scale = abs(f_prev)
            column = [value / scale for value in column]
            f_prev /= scale
            f /= scale
        column.append(f_prev)
        f_next, f = f, f_prev
    return column[::-1]


def chebyshev_propagate(
    h,
    psi0: np.ndarray,
    times,
    bounds: tuple[float, float],
    rows=None,
):
    """Propagate under a Hermitian ``h`` by one Chebyshev expansion.

    ``h`` may be dense or sparse; it is applied as a CSR matrix either way.
    ``psi0`` is a single vector or an orbital stack (dim x k), each column
    of unit norm.  ``times`` must be non-decreasing and start at or after
    zero.  ``T_k(h_s) psi0``
    is built once, up to the degree ``K`` that the latest time needs, and
    every output time is accumulated from that one sequence: ``psi(t) =
    exp(-i c t) sum_k (2 - delta_k0) (-i)^k J_k(half t) T_k psi0``
    (Tal-Ezer & Kosloff, JCP 81, 3967 (1984)), with ``h_s = (h - c) /
    half``.  The sum is taken without the centre phase ``exp(-i c t)``,
    which multiplies each output time once at the end.  ``K`` is the last
    order at which some time's Bessel coefficient exceeds 1e-16; an
    earlier time stops at its own last such order.  ``bounds`` is an
    (E_min, E_max) spectral enclosure, required: the oracle reads it from
    the model (:func:`single_particle_bounds`, :func:`fock_spectral_bounds`)
    before ``h`` is built.  A real ``h`` and a real
    start run the recurrence in float64; each order's weight is then
    purely real or purely imaginary, so it adds into one float64 sum per
    time, and the result has the bits of the complex recurrence and sums.
    Deterministic: no randomized estimators anywhere.  Each expansion logs
    one DEBUG event on the ``darkwells`` logger with the dimension, the
    nnz of ``h``, the degree, the number of output times and the norm
    drift at the last time.

    Without ``rows`` the result is the full state at every time, shape
    ``(len(times),) + psi0.shape``.  With ``rows`` only the full state at
    the last time is accumulated, plus those rows of every ``T_k psi0``:
    the result is a :class:`Projection` whose ``amplitudes`` have shape
    ``(len(times), len(rows)) + psi0.shape[1:]``, whose ``final_state`` is
    the full state at the last time, and which carries the degree ``K``
    and the truncation bound ``2 max_t sum_{k > K_t} |J_k(half t)|`` read
    from the Bessel table, where ``K_t <= K`` is the last order time ``t``
    takes.  The norm of every accumulated full state is checked, and a
    drift past ``_NORM_TOL`` raises at the first time that shows it.
    """
    times = np.asarray(times, dtype=float)
    psi = np.asarray(psi0, dtype=complex)
    h = sp.csr_matrix(h)
    _check_start(psi, times, h.shape[0])
    if times.size == 0:
        out = np.empty((0,) + psi.shape, dtype=complex)
        if rows is None:
            return out
        return Projection(out[:, rows], psi.copy(), 0, 0.0)
    e_min, e_max = bounds
    if not e_max > e_min:
        e_max = e_min + 1.0
    center = 0.5 * (e_max + e_min)
    half = 0.5 * (e_max - e_min) * (1.0 + 1e-12) + 1e-300
    dim = h.shape[0]
    # A real h and a real start keep every T_k psi0 real, so the recurrence
    # runs in float64; a CSR row sums in the same order for both dtypes,
    # which gives the complex recurrence's bits up to the sign of exact
    # zeros.
    real = h.dtype.kind != "c" and not psi.imag.any()
    h2 = (h - sp.identity(dim, format="csr") * center) * (2.0 / half)
    h2 = h2.astype(float if real else complex, copy=False)
    table = _bessel_table(half * times)
    orders = np.arange(table.shape[0])
    significant = np.abs(table) > _CHEBYSHEV_TOL
    # each time's last significant order, made non-decreasing over the
    # times; a time takes no terms past its own
    reach = np.maximum.accumulate(orders[-1] - np.argmax(significant[::-1], axis=0))
    degree = int(reach[-1])
    first_time = np.searchsorted(reach, orders)
    tail = 2.0 * float((np.abs(table) * (orders[:, None] > reach)).sum(axis=0).max())
    # (2 - delta_k0) (-i)^k J_k is real for even k and imaginary for odd k;
    # parts holds its nonzero part, exactly: a factor 2 and a sign
    signs = 2.0 * np.array([1.0, -1.0, -1.0, 1.0])[np.arange(degree + 1) % 4]
    signs[0] = 1.0
    parts = table[: degree + 1].T * signs
    coeffs = parts * np.array([1.0, 1j])[np.arange(degree + 1) % 2]
    # sums[.., j] holds the state at out_times[j] without its phase: every
    # time, or with rows the last, which takes every order.  A real run
    # sums the real and imaginary parts apart; they start at +0, so they
    # end with the bits of complex sums, whose real-times-complex products
    # differ from these only in the sign of exact zeros.
    if rows is None:
        out_times, out_first = times, first_time
    else:
        out_times, out_first = times[-1:], np.zeros_like(first_time)
        kept = np.empty((degree + 1, len(rows)) + psi.shape[1:], dtype=h2.dtype)
    weights = (parts if real else coeffs)[-out_times.size:]
    sums = np.zeros((2 if real else 1, out_times.size) + psi.shape, dtype=h2.dtype)
    term = np.empty(psi.shape, dtype=h2.dtype)
    phi = psi.real.copy() if real else psi
    phi_prev = phi.copy()
    for k in range(degree + 1):
        if k == 1:
            phi = h2 @ phi_prev
            phi *= 0.5
        elif k > 1:
            # T_k = 2 h T_{k-1} - T_{k-2}, written over T_{k-2}
            np.subtract(h2 @ phi, phi_prev, out=phi_prev)
            phi_prev, phi = phi, phi_prev
        if rows is not None:
            kept[k] = phi[rows]
        total = sums[k & 1] if real else sums[0]
        for j in range(out_first[k], out_times.size):
            np.multiply(phi, weights[j, k], out=term)
            total[j] += term
    if real:
        out = np.empty(sums.shape[1:], dtype=complex)
        out.real, out.imag = sums
    else:
        out = sums[0]
    phase = np.exp(-1j * center * times).reshape((-1,) + (1,) * psi.ndim)
    out *= phase[-out_times.size:]
    drift = float(_check_drift(out, out_times)[-1])
    _log.debug(
        "chebyshev expansion: dim %d, nnz %d, degree %d, %d output times, "
        "last-time drift %s", dim, h.nnz, degree, times.size, drift,
        extra={"dim": dim, "nnz": int(h.nnz), "degree": degree,
               "n_times": int(times.size), "drift": drift},
    )
    if rows is None:
        return out
    amplitudes = np.tensordot(coeffs, kept, axes=1)
    amplitudes *= phase
    return Projection(amplitudes, out[-1], degree, tail)


@dataclass(frozen=True)
class OracleRun:
    """A finite-reservoir trajectory plus its honesty metadata.

    ``max_norm_drift`` is the norm drift of the full state at the last
    time, for either method: both keep only the two well rows at earlier
    times.  ``chebyshev_degree`` and ``truncation_bound`` describe the
    expansion and are ``None`` for dense runs.
    """

    trajectory: Trajectory
    reservoir: DiscretizedReservoir
    method: str
    max_norm_drift: float
    recurrence_exceeded: bool
    chebyshev_degree: int | None = None
    truncation_bound: float | None = None


def single_particle_method(n_levels: int) -> str:
    """The propagator of a single-particle run on ``n_levels`` levels.

    ``"dense"`` (eigen-decomposition) up to dimension ``DENSE_MAX_DIM``,
    ``"chebyshev"`` (one expansion) beyond.
    """
    return "dense" if n_levels + 2 <= DENSE_MAX_DIM else "chebyshev"


def _check_expansion(bounds: tuple[float, float], times: np.ndarray) -> None:
    """Refuse (``"t_max"``) an expansion whose degree, half-width of ``bounds`` times the
    last time, or Bessel table (points x degree) passes its cap."""
    lo, hi = bounds
    degree = 0.5 * (hi - lo) * (float(times[-1]) if times.size else 0.0)
    if degree > _MAX_CHEBYSHEV_DEGREE:
        raise OracleRequestError(
            "t_max", f"needs a Chebyshev degree of about {degree:.3g}, "
            f"above the cap of {_MAX_CHEBYSHEV_DEGREE}"
        )
    if times.size * degree > _MAX_TABLE_ENTRIES:
        raise OracleRequestError(
            "t_max", f"{times.size} points at a Chebyshev degree of about {degree:.3g} "
            f"exceed the cap of {_MAX_TABLE_ENTRIES} Bessel coefficients"
        )


def single_particle_trajectory(pair: WellPair, initial, times, n_levels: int) -> OracleRun:
    """Evolve one particle against the explicit reservoir.

    ``initial`` are the (well1, well2) amplitudes of a normalized state
    with nothing yet in the reservoir.  The band is
    :meth:`DiscretizedReservoir.for_pair`'s.  :func:`single_particle_method`
    picks the propagator from the dimension; either keeps only the two
    well rows, with the norm checked at the last time.  Bad grids, phases
    ``t E`` past the float range and runs past the caps (sized from
    :func:`single_particle_bounds`) are refused before anything is built.
    Requesting times past half the recurrence time logs a WARNING event on
    the ``darkwells`` logger (attributes ``t_max`` and ``recurrence_time``):
    beyond it the discrete band begins to feed the wells back and no longer
    emulates a continuum.
    """
    res = DiscretizedReservoir.for_pair(pair, n_levels)
    times = np.asarray(times, dtype=float)
    c1, c2 = complex(initial[0]), complex(initial[1])
    if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-9:
        raise ValueError("initial well amplitudes must be normalized")
    psi0 = np.zeros(n_levels + 2, dtype=complex)
    psi0[:2] = c1, c2
    _check_start(psi0, times, psi0.size)
    # the bounds enclose the spectrum, so finite t * bounds mean finite phases
    bounds = lo, hi = single_particle_bounds(pair, res)
    t_max = float(times[-1]) if times.size else 0.0
    if not (math.isfinite(t_max * lo) and math.isfinite(t_max * hi)):
        raise OracleRequestError(
            "phases", f"the phases t E of the band [{lo!r}, {hi!r}] overflow by t = {t_max!r}"
        )
    method = single_particle_method(n_levels)
    if method == "dense" and times.size * (n_levels + 2) > _MAX_TABLE_ENTRIES:
        raise OracleRequestError(
            "n_points", f"{times.size} points of dimension {n_levels + 2} exceed "
            f"the cap of {_MAX_TABLE_ENTRIES} phase factors"
        )
    if method == "chebyshev":
        _check_expansion(bounds, times)
    recurrence_exceeded = bool(times.size and times.max() > 0.5 * res.recurrence_time)
    if recurrence_exceeded:
        _log.warning(
            "requested t = %g exceeds half the recurrence time %g; the finite "
            "band is no longer a faithful continuum there",
            times.max(), res.recurrence_time,
            extra={"t_max": float(times.max()), "recurrence_time": res.recurrence_time},
        )
    if method == "dense":
        h = build_single_particle_hamiltonian(pair, res)
        run = evolve_exact(h, psi0, times, rows=[0, 1])
    else:
        h = build_single_particle_hamiltonian(pair, res, sparse=True)
        run = chebyshev_propagate(h, psi0, times, bounds=bounds, rows=[0, 1])
    b1, b2 = run.amplitudes[:, 0], run.amplitudes[:, 1]
    drift = abs(float(np.linalg.norm(run.final_state)) - 1.0) if times.size else 0.0
    s11 = np.abs(b1) ** 2
    s22 = np.abs(b2) ** 2
    traj = Trajectory(
        times=times,
        sigma11=s11,
        sigma22=s22,
        sigma12=b1 * b2.conj(),
        sigma00=np.clip(1.0 - s11 - s22, 0.0, None),
    )
    return OracleRun(
        trajectory=traj,
        reservoir=res,
        method=method,
        max_norm_drift=drift,
        recurrence_exceeded=recurrence_exceeded,
        chebyshev_degree=run.degree,
        truncation_bound=run.truncation_bound,
    )


def convergence_report(run: OracleRun) -> dict:
    """Flat JSON-ready summary of how trustworthy a run is."""
    res = run.reservoir
    return {
        "lambda_cutoff": res.cutoff,
        "n_levels": res.n_levels,
        "spacing": res.spacing,
        "recurrence_time": res.recurrence_time,
        "max_norm_drift": run.max_norm_drift,
        "recurrence_exceeded": run.recurrence_exceeded,
        "method": run.method,
        "chebyshev_degree": run.chebyshev_degree,
        "truncation_bound": run.truncation_bound,
    }


class FockSpace:
    """Fixed-particle-number many-body basis over a 1D mode list.

    ``_modes`` holds one row of sorted modes per basis state: strictly
    increasing for fermions, non-decreasing for bosons.  Rows are in
    lexicographic order, so basis order is reproducible across runs and
    platforms, and a state's index is its rank in the combinatorial number
    system.  Spaces larger than ``_MAX_FOCK_DIM`` are refused before
    anything is enumerated.
    """

    def __init__(self, n_modes: int, n_particles: int, statistics: str):
        if statistics not in ("fermi", "bose"):
            raise ValueError(f"statistics must be 'fermi' or 'bose', got {statistics!r}")
        if n_particles < 1:
            raise ValueError("need at least one particle")
        if n_modes < 1:
            raise ValueError(f"need at least one mode, got {n_modes}")
        if statistics == "fermi" and n_particles > n_modes:
            raise ValueError(
                f"cannot place {n_particles} fermions in {n_modes} modes"
            )
        self.n_modes = int(n_modes)
        self.n_particles = int(n_particles)
        self.statistics = statistics
        # bosons occupy the strictly increasing slots mode_i + i
        self._slots = self.n_modes + (self.n_particles - 1 if statistics == "bose" else 0)
        self.size = math.comb(self._slots, self.n_particles)
        if self.size > _MAX_FOCK_DIM:
            raise ValueError(f"Fock dimension {self.size} exceeds the cap {_MAX_FOCK_DIM}")
        self._modes = _subsets(self._slots, self.n_particles)
        if statistics == "bose":
            self._modes -= np.arange(self.n_particles)
        self._dot_hop_cache = {}

    @cached_property
    def _rank_terms(self) -> np.ndarray:
        """``C(S - 1 - c, N - k)`` at ``[k, m]``, clipped at the size.

        ``c`` is the slot that mode ``m`` takes at position ``k`` of a
        sorted row: ``m`` for fermions, ``m + k`` for bosons.  Ranks of
        basis states only read entries no larger than the size, so
        clipping changes nothing they use and keeps the table in int32,
        the index dtype of the CSR matrices built from the ranks (a sum of
        ``N`` entries stays below ``N x _MAX_FOCK_DIM``).
        """
        n, size, shift = self.n_particles, self.size, self.statistics == "bose"
        slot = self._slots - 1
        table = [
            [min(math.comb(slot - m - k * shift, n - k), size) for m in range(self.n_modes)]
            for k in range(n)
        ]
        return np.array(table, dtype=np.int32)

    def _rank(self, columns) -> np.ndarray:
        """Basis index of the states whose ``k``-th sorted mode is ``columns[k]``.

        ``columns`` holds one array per slot, such as ``modes.T`` for rows
        of sorted ``modes``.  Lexicographic rank of a strictly increasing
        slot row ``c`` among the ``C(S, N)`` subsets of ``S`` slots:
        ``C(S, N) - 1 - sum_k C(S - 1 - c_k, N - k)`` (Lin, PRB 42, 6561
        (1990)), summed one slot at a time from :attr:`_rank_terms`.
        """
        terms = self._rank_terms
        return self.size - 1 - sum(terms[k][column] for k, column in enumerate(columns))

    def mode_counts(self, first_modes: int) -> np.ndarray:
        """Particles among the first ``first_modes`` modes, per basis state."""
        return np.count_nonzero(self._modes < first_modes, axis=1)

    def _dot_hops(self, n_dot_modes: int):
        """:func:`_hops` of the dot-dot ones matrix, cached per ``n_dot_modes``.

        They depend only on the space, and the dot RDM of every state on it
        reads them.
        """
        if n_dot_modes not in self._dot_hop_cache:
            t = np.zeros((self.n_modes, self.n_modes))
            t[:n_dot_modes, :n_dot_modes] = 1.0 - np.eye(n_dot_modes)
            self._dot_hop_cache[n_dot_modes] = _hops(self, t)
        return self._dot_hop_cache[n_dot_modes]


def _subsets(slots: int, n: int) -> np.ndarray:
    """Every ``n``-subset of ``range(slots)`` as a sorted row, rows in lexicographic order.

    Built from the last position back.  ``tail`` holds the subsets of the
    last ``r`` positions, whose first slot is at least ``n - r``; in
    lexicographic order those with first slot above ``a`` are its last
    ``C(slots - 1 - a, r - 1)`` rows, so the rows with one more position
    and first slot ``a`` are ``a`` followed by those.
    """
    tail = np.arange(n - 1, slots, dtype=np.int64)[:, None]
    for r in range(2, n + 1):
        firsts = np.arange(n - r, slots - r + 1)
        counts = np.array([math.comb(slots - 1 - a, r - 1) for a in firsts])
        block = np.empty((int(counts.sum()), r), dtype=np.int64)
        block[:, 0] = np.repeat(firsts, counts)
        # the k-th row of group a reads row len(tail) - counts[a] + k of tail
        skip = len(tail) - counts - (np.cumsum(counts) - counts)
        block[:, 1:] = tail[np.repeat(skip, counts) + np.arange(len(block))]
        tail = block
    return tail


def _hops(space: FockSpace, t: np.ndarray):
    """Every nonzero ``t[q, p] <target| a_q^dagger a_p |source>`` on ``space``.

    ``t`` is an (n_modes, n_modes) one-body matrix with zero diagonal.
    Returns the arrays ``(source, target, p, q, value)``, grouped by the
    position ``pos`` of ``p`` in the source row and in source order within
    a group.  The kernel reads the basis one mode column at a time, with
    no 2-D block and no sort.  Sums of 1-D comparisons against the source
    row's columns give ``n_q``, ``n_p`` and the index ``ins`` at which
    ``q`` enters the remaining row ``rest``.  That row is already sorted,
    so slot ``k`` of the target row is ``rest[k]`` below ``ins``, ``q`` at
    it and ``rest[k - 1]`` above it, which is ``max(rest[k - 1],
    min(rest[k], q))``; the target's rank is summed column by column.
    Fermion signs are ``(-1)^(pos + ins)``.  Boson factors are
    ``sqrt(n_p (n_q + 1))``, with each occupied mode hopping once however
    many particles hold it.  ``source`` and ``target`` are int32, the
    index dtype scipy gives a COO of any Fock dimension below the cap, so
    a COO built from them takes them without a copy.
    """
    modes = np.ascontiguousarray(space._modes.T)  # modes[k]: slot k of every row
    columns = sp.csc_matrix(t)  # column p lists the q with t[q, p] != 0
    # one call per position: its temporaries are freed before the next
    # position or the concatenation allocates, which keeps the resident
    # peak down
    parts = [_hops_from(space, modes, columns, pos) for pos in range(space.n_particles)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _hops_from(space: FockSpace, modes: np.ndarray, columns, pos: int):
    """The hops of :func:`_hops` whose ``p`` leaves position ``pos`` of the source row.

    ``modes[k]`` is slot ``k`` of every basis row and ``columns`` is ``t``
    in CSC form.
    """
    fermi = space.statistics == "fermi"
    n = space.n_particles
    if fermi or pos == 0:
        rows = np.arange(space.size, dtype=np.int32)
    else:
        rows = np.flatnonzero(modes[pos] != modes[pos - 1]).astype(np.int32)
    # a row whose slot pos holds p is copied once per entry of column p,
    # and its k-th copy reads entry k
    leaving = modes[pos][rows]
    counts = np.diff(columns.indptr)[leaving]
    first_copy = np.cumsum(counts) - counts
    entry = np.repeat(columns.indptr[leaving] - first_copy, counts) + np.arange(counts.sum())
    source = np.repeat(rows, counts)
    q = columns.indices[entry]
    held = [column[source] for column in modes]
    n_q = sum(column == q for column in held)
    if fermi:
        keep = np.flatnonzero(n_q == 0)
        source, entry, q = source[keep], entry[keep], q[keep]
        held = [column[keep] for column in held]
    p, value = held[pos], columns.data[entry]
    if not fermi:
        n_p = sum(column == p for column in held)
        value = value * np.sqrt(n_p * (n_q + 1.0))
    rest = held[:pos] + held[pos + 1:]
    if fermi:
        ins = sum(column < q for column in rest)
        value = value * _SIGNS[(pos + ins) & 1]
    target = []
    for k in range(n):
        slot = q if k == n - 1 else np.minimum(rest[k], q)
        target.append(slot if k == 0 else np.maximum(rest[k - 1], slot))
    return source, space._rank(target), p, q, value


def dot_mode_count(model: WellPair | ParallelWellPair) -> int:
    """Number of localized modes in front of the reservoir block."""
    return 4 if isinstance(model, ParallelWellPair) else 2


def build_fock_hamiltonian(
    model: WellPair | ParallelWellPair,
    res: DiscretizedReservoir,
    space: FockSpace,
):
    """Sparse many-body Hamiltonian on a :class:`FockSpace`.

    One-body part: the mode energies on the diagonal of
    :func:`build_single_particle_hamiltonian`'s dense form, plus its
    dot-reservoir hops.  Two-body part (parallel models only): ``U`` per
    doubly occupied well, whose two levels (modes 0, 1 and 2, 3) share a
    site; it is diagonal in this basis.  Fermionic signs follow the mode
    order of the basis rows.
    """
    t = build_single_particle_hamiltonian(model, res)
    if space.n_modes != len(t):
        raise ValueError(f"space has {space.n_modes} modes, model needs {len(t)}")
    modes = space._modes
    diag = t.diagonal()[modes].sum(axis=1)
    if isinstance(model, ParallelWellPair):
        for a, b in ((0, 1), (2, 3)):
            n_a, n_b = (np.count_nonzero(modes == m, axis=1) for m in (a, b))
            diag += model.U * n_a * n_b
    np.fill_diagonal(t, 0.0)
    # t is real symmetric and a hop moves one particle, so the hop from
    # target back to source has the same value: each hop with q > p is
    # entered at both ends, and the COO holds every entry of H once
    source, target, _, _, value = _hops(space, np.tril(t))
    states = np.arange(space.size, dtype=np.int32)
    h = sp.coo_matrix(
        (
            np.concatenate((diag, value, value)),
            (np.concatenate((states, target, source)), np.concatenate((states, source, target))),
        ),
        shape=(space.size, space.size),
    )
    return h.tocsr()


def fock_spectral_bounds(
    model: WellPair | ParallelWellPair,
    res: DiscretizedReservoir,
    n_particles: int,
    statistics: str = "bose",
) -> tuple[float, float]:
    """Rigorous many-body spectral enclosure for the Chebyshev propagator.

    From the eigenvalues ``e`` of the (n_modes x n_modes) one-body matrix:
    ``N`` fermions span the sums of the lowest and of the highest ``N``
    values, ``N`` bosons ``N e_min`` to ``N e_max``.  The bosonic range
    contains the fermionic one, so the default holds for either
    statistics.  Interacting models add ``U`` times the most same-well
    pairs ``N`` particles can form: ``U n_a n_b`` summed over the two
    wells is at most ``floor(N^2 / 4)`` for bosons (and so for the
    default), and at most ``min(N // 2, 2)`` for fermions, whose
    occupations are 0 or 1.  A relative margin covers rounding.
    """
    evals = np.linalg.eigvalsh(build_single_particle_hamiltonian(model, res))
    if statistics == "fermi":
        e_lo, e_hi = float(evals[:n_particles].sum()), float(evals[-n_particles:].sum())
        pair_cap = min(n_particles // 2, 2)
    else:
        e_lo, e_hi = n_particles * float(evals[0]), n_particles * float(evals[-1])
        pair_cap = n_particles * n_particles // 4
    u_value = model.U if isinstance(model, ParallelWellPair) else 0.0
    e_lo += pair_cap * min(0.0, u_value)
    e_hi += pair_cap * max(0.0, u_value)
    pad = _BOUNDS_MARGIN * (n_particles * float(np.abs(evals).max()) + pair_cap * abs(u_value))
    return e_lo - pad, e_hi + pad


def fock_basis_state(space: FockSpace, modes) -> np.ndarray:
    """Unit vector with all particles placed in the given modes."""
    key = tuple(sorted(modes))
    valid = (
        len(key) == space.n_particles
        and all(isinstance(m, (int, np.integer)) and 0 <= m < space.n_modes for m in key)
        and (space.statistics == "bose" or len(set(key)) == len(key))
    )
    if not valid:
        raise ValueError(f"occupation {key} is not a basis state of this space")
    psi = np.zeros(space.size, dtype=complex)
    psi[space._rank(np.array([key], dtype=np.int64).T)[0]] = 1.0
    return psi


def evolve_fock(
    model: WellPair | ParallelWellPair,
    res: DiscretizedReservoir,
    space: FockSpace,
    psi0: np.ndarray,
    times,
) -> np.ndarray:
    """Exact many-body evolution against the explicit reservoir.

    A start or grid :func:`chebyshev_propagate` refuses, and an expansion past
    the Chebyshev caps, sized from :func:`fock_spectral_bounds`, are refused
    before H is built."""
    times = np.asarray(times, dtype=float)
    _check_start(np.asarray(psi0), times, space.size)
    bounds = fock_spectral_bounds(model, res, space.n_particles, space.statistics)
    _check_expansion(bounds, times)
    h = build_fock_hamiltonian(model, res, space)
    return chebyshev_propagate(h, psi0, times, bounds=bounds)


@dataclass(frozen=True)
class ReducedQuantities:
    """One-body summaries of a many-body state."""

    mode_occupations: np.ndarray
    reservoir_count_probs: np.ndarray
    dot_rdm: np.ndarray


def reduced_quantities(
    space: FockSpace, psi: np.ndarray, n_dot_modes: int
) -> ReducedQuantities:
    """Mode occupations, P(m particles emitted), and the dot one-body RDM.

    ``dot_rdm[p, q] = <a_q^dagger a_p>`` restricted to the localized
    modes; its diagonal repeats the first entries of
    ``mode_occupations``.
    """
    psi = np.asarray(psi, dtype=complex)
    weights = np.abs(psi) ** 2
    occ = np.bincount(
        space._modes.ravel(),
        weights=np.repeat(weights, space.n_particles),
        minlength=space.n_modes,
    )
    res_counts = space.n_particles - space.mode_counts(n_dot_modes)
    probs = np.bincount(res_counts, weights=weights, minlength=space.n_particles + 1)
    rdm = np.diag(occ[:n_dot_modes]).astype(complex)
    source, target, p, q, value = space._dot_hops(n_dot_modes)
    np.add.at(rdm, (p, q), value * psi[target].conj() * psi[source])
    return ReducedQuantities(
        mode_occupations=occ,
        reservoir_count_probs=probs,
        dot_rdm=rdm,
    )


def slater_reservoir_distribution(orbitals: np.ndarray, n_dot_modes: int) -> np.ndarray:
    """P(m particles in the reservoir) for a Slater determinant.

    ``orbitals`` is (dim, N) with orthonormal columns.  For a determinant
    the counting statistics of any mode subset is that of N independent
    binary events with probabilities given by the eigenvalues of the
    overlap matrix ``M = Phi^dagger P_res Phi``; the distribution is the
    coefficient list of ``prod_k ((1 - mu_k) + mu_k z)``.
    """
    phi = np.asarray(orbitals, dtype=complex)
    res_block = phi[n_dot_modes:, :]
    overlap = res_block.conj().T @ res_block
    mu = np.linalg.eigvalsh(overlap)
    mu = np.clip(mu.real, 0.0, 1.0)
    poly = np.array([1.0])
    for m in mu:
        poly = np.convolve(poly, np.array([1.0 - m, m]))
    return poly


def slater_dot_rdm(orbitals: np.ndarray, n_dot_modes: int) -> np.ndarray:
    """One-body RDM ``<a_q^dagger a_p>`` on the dot modes of a determinant."""
    phi = np.asarray(orbitals, dtype=complex)
    block = phi[:n_dot_modes, :]
    return block @ block.conj().T
