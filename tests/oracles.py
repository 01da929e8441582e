"""Independent reference implementations used only by the tests.

Each oracle recomputes a result through a different algorithm and, where
possible, different arithmetic than the library code: a literal stage-by-
stage RK4 integrator with its own right-hand side, ``expm`` of the literal
4x4 master-equation generator, ``expm`` of the literal 2x2 effective
Hamiltonian, closed forms for the wide-band dynamics (the equal-width
solution :func:`analytic_sigma_symmetric`, its slow pole
:func:`slow_decay_rate` and the long-time state
:func:`asymptotic_sigma_left_start`), ``expm`` of a whole Hamiltonian at
each output time for the oracle's propagators, the exact coupling-ratio
audit :func:`check_constant_ratio` of a discretized band,
determinant-based fermionic expansions and the pairing-spectrum
product-state test :func:`is_product_state`, an iterated-operator
polynomial expansion over Z[sqrt(y)] for the boson rotations, literal
second quantization on occupation vectors for the many-body Hamiltonian,
its hops and reduced quantities, the earlier sort-and-rank Fock hop
kernel, a row-list writer for the CLI's output files, and the sweep-point
width rule applied axis by axis.  No module here imports ``darkwells``,
so agreement between library and oracle checks the physics, not a shared
code path.  One guard rides along: :func:`bounded_fraction`, a
``Fraction`` that fails a test on a slow parse.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm


def master_rhs_reference(gamma1, gamma2, eta, eps, s11, s22, s12):
    """Master-equation right-hand side written directly from the rates."""
    mix = eta * math.sqrt(gamma1 * gamma2)
    u = s12.real
    d11 = -gamma1 * s11 - mix * u
    d22 = -gamma2 * s22 - mix * u
    d12 = -1j * eps * s12 - 0.5 * (gamma1 + gamma2) * s12 - 0.5 * mix * (s11 + s22)
    return d11, d22, d12


def rk4_literal(gamma1, gamma2, eta, eps, sigma0, t, n_steps):
    """Classic four-stage RK4 loop over the reference right-hand side."""
    s11, s22, s12 = float(sigma0[0]), float(sigma0[1]), complex(sigma0[2])
    h = t / n_steps
    for _ in range(n_steps):
        k1 = master_rhs_reference(gamma1, gamma2, eta, eps, s11, s22, s12)
        k2 = master_rhs_reference(
            gamma1, gamma2, eta, eps,
            s11 + 0.5 * h * k1[0], s22 + 0.5 * h * k1[1], s12 + 0.5 * h * k1[2],
        )
        k3 = master_rhs_reference(
            gamma1, gamma2, eta, eps,
            s11 + 0.5 * h * k2[0], s22 + 0.5 * h * k2[1], s12 + 0.5 * h * k2[2],
        )
        k4 = master_rhs_reference(
            gamma1, gamma2, eta, eps,
            s11 + h * k3[0], s22 + h * k3[1], s12 + h * k3[2],
        )
        s11 += h * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
        s22 += h * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
        s12 += h * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0
    return s11, s22, s12


def master_generator_sigma(gamma1, gamma2, eta, eps, sigma0, t):
    """Reduced state from ``expm`` of the literal 4x4 master generator.

    The generator acts on ``(sigma11, sigma22, Re sigma12, Im sigma12)``
    and is written from the same rates as :func:`master_rhs_reference`;
    ``scipy.linalg.expm`` of ``t`` times it is applied to ``sigma0 =
    (sigma11, sigma22, sigma12)``.  Returns ``(sigma11, sigma22, sigma12)``.
    """
    mix = eta * math.sqrt(gamma1 * gamma2)
    half_width = 0.5 * (gamma1 + gamma2)
    generator = np.array(
        [
            [-gamma1, 0.0, -mix, 0.0],
            [0.0, -gamma2, -mix, 0.0],
            [-0.5 * mix, -0.5 * mix, -half_width, eps],
            [0.0, 0.0, -eps, -half_width],
        ]
    )
    s12 = complex(sigma0[2])
    x0 = np.array([float(sigma0[0]), float(sigma0[1]), s12.real, s12.imag])
    x = expm(t * generator) @ x0
    return float(x[0]), float(x[1]), complex(x[2], x[3])


def effective_hamiltonian_sigma(gamma1, gamma2, eta, eps, amplitudes, t):
    """Well block of a single particle from ``expm`` of the literal H_eff.

    ``H_eff = diag(eps/2, -eps/2) - (i/2) [[g1, eta sqrt(g1 g2)],
    [eta sqrt(g1 g2), g2]]`` is exponentiated by ``scipy.linalg.expm`` and
    applied to the initial well ``amplitudes``; returns ``(sigma11,
    sigma22, sigma12)`` with ``sigma12 = a1 conj(a2)``.
    """
    mix = eta * math.sqrt(gamma1 * gamma2)
    h_eff = np.diag([0.5 * eps, -0.5 * eps]).astype(complex) - 0.5j * np.array(
        [[gamma1, mix], [mix, gamma2]]
    )
    a1, a2 = expm(-1j * t * h_eff) @ np.asarray(amplitudes, dtype=complex)
    return abs(a1) ** 2, abs(a2) ** 2, complex(a1 * np.conj(a2))


def analytic_sigma_symmetric(gamma: float, eps: float, t):
    """Exact reduced state for equal widths and positive coupling sign.

    Valid for ``gamma1 = gamma2 = gamma``, ``eta = +1``, particle starting
    in the first well.  ``t`` may be a scalar or an array; returns
    ``(sigma11, sigma22, sigma12)`` with matching shape.  The negative-sign
    case follows by flipping the sign of ``sigma12``.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    ts = np.asarray(t, dtype=float)
    om = cmath.sqrt(gamma * gamma - eps * eps)
    e0 = np.exp(-gamma * ts)
    s22 = np.empty(ts.shape)
    s12 = np.empty(ts.shape, dtype=complex)
    series = np.abs(om * ts) < 1e-5
    # series in (om t)^2; exact at om = 0 (critical alignment eps = gamma)
    tq, eq = ts[series], e0[series]
    z2 = (om * tq) ** 2
    s22[series] = (0.25 * gamma * gamma * eq * tq * tq * (1.0 + z2 / 12.0)).real
    s12[series] = 0.5 * gamma * eq * (
        0.5j * eps * tq * tq * (1.0 + z2 / 12.0) - tq * (1.0 + z2 / 6.0)
    )
    tq, eq = ts[~series], e0[~series]
    e_minus = np.exp(-(gamma - om) * tq)
    e_plus = np.exp(-(gamma + om) * tq)
    om2 = om * om
    s22[~series] = (gamma * gamma * (e_minus + e_plus - 2.0 * eq) / (4.0 * om2)).real
    s12[~series] = -gamma * (
        1j * eps * eq
        - 0.5j * eps * (e_minus + e_plus)
        + 0.5 * om * (e_minus - e_plus)
    ) / (2.0 * om2)
    s11 = s22 + e0
    if ts.ndim == 0:
        return float(s11), float(s22), complex(s12)
    return s11, s22, s12


def slow_decay_rate(gamma: float, eps: float) -> float:
    """Slow pole of the symmetric two-well system.

    ``gamma - Re sqrt(gamma^2 - eps^2)``: for small misalignment this is
    ``~ eps^2 / (2 gamma)``, and for ``|eps| > gamma`` both poles decay at
    the full rate ``gamma``.
    """
    return gamma - cmath.sqrt(gamma * gamma - eps * eps).real


def asymptotic_sigma_left_start(y: float, eta: int = 1):
    """Long-time reduced state for a particle started in the first well.

    For aligned levels and width ratio ``y = gamma2/gamma1`` the survivor
    is the dark mode: returns ``(sigma11, sigma22, sigma12, sigma00) =
    (y^2, y, -eta y^(3/2), (1+y)) / (1+y)^2``, the last entry being the
    emitted weight ``1/(1+y)``.
    """
    if y < 0.0:
        raise ValueError("width ratio y must be non-negative")
    if eta not in (1, -1):
        raise ValueError(f"eta must be +1 or -1, got {eta!r}")
    denom = (1.0 + y) ** 2
    return (
        y * y / denom,
        y / denom,
        complex(-eta * y ** 1.5 / denom, 0.0),
        1.0 / (1.0 + y),
    )


def expm_propagate(h, psi0, times):
    """States ``expm(-i h t) @ psi0`` at each time, one ``expm`` per time.

    ``h`` is a dense array or anything with ``toarray()``; ``psi0`` is a
    vector or a (dim, k) orbital stack.  No eigenbasis, step or expansion
    is shared between times.  Returns shape ``(len(times),) + psi0.shape``.
    """
    h = np.asarray(h.toarray() if hasattr(h, "toarray") else h, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    out = np.empty((len(times),) + psi0.shape, dtype=complex)
    for k, t in enumerate(times):
        out[k] = expm(-1j * t * h) @ psi0
    return out


def check_constant_ratio(table, rel_tol: float = 1e-9) -> tuple[bool, float]:
    """Test whether per-state couplings share one amplitude ratio.

    The dark mode survives beyond the strict wide-band limit whenever the
    ratio ``omega2(E_r) / omega1(E_r)`` is the same for every reservoir
    state ``r``.  ``table`` is an (n, 2) array-like of per-state couplings.
    Returns ``(ok, worst)`` where ``worst`` is the largest deviation of a
    row's ratio from the first row's, relative to the first row's ratio.

    Rows with a vanishing first-column coupling have no finite ratio and
    are rejected.
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError(f"expected a non-empty (n, 2) table, got shape {arr.shape}")
    zero_rows = np.flatnonzero(arr[:, 0] == 0.0)
    if zero_rows.size:
        raise ValueError(
            f"rows {zero_rows.tolist()} have omega1 = 0; ratio undefined"
        )
    ratios = arr[:, 1] / arr[:, 0]
    ref = ratios[0]
    if ref != 0.0:
        rel = np.abs(ratios - ref) / abs(ref)
    else:
        rel = np.where(ratios == 0.0, 0.0, math.inf)
    worst = float(np.max(rel))
    return worst <= rel_tol, worst


def fermion_expansion_oracle(vectors, n_modes):
    """Expansion of v1+ v2+ ... vN+ |0> via determinant minors.

    The amplitude on the sorted mode tuple (j1 < ... < jN) is the
    determinant of the matrix M[k, l] = vectors[k][j_l]; no insertion-sign
    bookkeeping is involved.  Returns a normalized occupation-vector map.
    """
    vs = [np.asarray(v, dtype=complex) for v in vectors]
    n_particles = len(vs)
    amps = {}
    for idx in itertools.combinations(range(n_modes), n_particles):
        minor = np.array([[v[j] for j in idx] for v in vs])
        val = complex(np.linalg.det(minor))
        if abs(val) > 1e-14:
            amps[idx] = val
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    out = {}
    for idx, a in amps.items():
        occ = tuple(1 if m in idx else 0 for m in range(n_modes))
        out[occ] = a / norm
    return out


def _coefficient_matrix(state) -> np.ndarray:
    """Antisymmetric coefficient matrix of a two-fermion state."""
    if isinstance(state, dict):
        first = next(iter(state))
        if not set(first) <= {0, 1}:
            raise ValueError("amplitude table must use 0/1 occupation vectors")
        n = len(first)
        mat = np.zeros((n, n), dtype=complex)
        for occ, amp in state.items():
            idx = [m for m, bit in enumerate(occ) if bit]
            if len(occ) != n or len(idx) != 2 or sum(occ) != 2:
                raise ValueError("need a two-particle state")
            i, j = idx
            mat[i, j] = amp
            mat[j, i] = -amp
        return mat
    mat = np.asarray(state, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("coefficient matrix must be square")
    scale = float(np.abs(mat).max())
    if scale == 0.0:
        raise ValueError("zero state")
    if float(np.abs(mat + mat.T).max()) > 1e-12 * scale:
        raise ValueError("coefficient matrix is not antisymmetric")
    return mat


def is_product_state(state, tol: float = 1e-9) -> tuple[bool, np.ndarray]:
    """Single-determinant test for a two-fermion state.

    ``state`` is an amplitude table over 0/1 occupation vectors or an
    antisymmetric coefficient matrix.  Any antisymmetric coefficient matrix
    has doubly degenerate singular values; the distinct values (the pairing
    spectrum, descending) count how many determinants the state needs.
    Exactly one nonzero pairing value means the state is a product
    ``u^dag v^dag|0>`` of two orbitals.  Returns ``(is_product,
    pairing_spectrum)``; the number of spectrum entries above ``tol`` is the
    Slater-number proxy.
    """
    mat = _coefficient_matrix(state)
    svals = np.linalg.svd(mat, compute_uv=False)
    spectrum = svals[::2].copy()
    total = math.sqrt(float(np.sum(spectrum**2)))
    if total == 0.0:
        raise ValueError("zero state")
    rest = spectrum[1:] / total
    return bool(np.all(rest < tol)), spectrum


def boson_rotation_oracle(N1, N2, y, eta=1):
    """Iterated-operator expansion of the rotated |N1, N2> boson state.

    Applies the rotated creation operators one factor at a time, tracking
    each monomial c1^a c2^b coefficient as an exact pair (A, B) meaning
    A + B*sqrt(y); possible because every coefficient stays in Z[sqrt(y)].
    Returns {n_dark: (sign, squared amplitude)} with exact Fractions.
    """
    y = Fraction(y)
    state = {(0, 0): (Fraction(1), Fraction(0))}

    def times_sqrt_y(pair):
        a, b = pair
        return b * y, a

    def add(table, key, pair):
        a, b = table.get(key, (Fraction(0), Fraction(0)))
        table[key] = (a + pair[0], b + pair[1])

    # a1+ -> eta sqrt(y) c1+ + c2+, a2+ -> -c1+ + eta sqrt(y) c2+,
    # with one overall factor 1/sqrt(1+y) per application.
    for _ in range(N1):
        new = {}
        for (a, b), coef in state.items():
            ca, cb = times_sqrt_y(coef)
            add(new, (a + 1, b), (eta * ca, eta * cb))
            add(new, (a, b + 1), coef)
        state = new
    for _ in range(N2):
        new = {}
        for (a, b), coef in state.items():
            add(new, (a + 1, b), (-coef[0], -coef[1]))
            ca, cb = times_sqrt_y(coef)
            add(new, (a, b + 1), (eta * ca, eta * cb))
        state = new

    N = N1 + N2
    fact_init = Fraction(math.factorial(N1) * math.factorial(N2))
    out = {}
    for (a, b), (A, B) in state.items():
        # Monomial parity in sqrt(y) is fixed by the occupation, so each
        # coefficient is purely rational or purely sqrt(y)-rational.
        assert A == 0 or B == 0
        rational = A if B == 0 else B
        sign = (rational > 0) - (rational < 0)
        square = rational * rational
        if A == 0 and B != 0:
            square *= y
        square *= Fraction(math.factorial(a) * math.factorial(b)) / fact_init
        square /= (1 + y) ** N
        out[a] = (sign, square)
    return out


def boson_inner_product(a, b) -> float:
    """``<a|b>`` of two (dark, bright) boson expansions of the same total."""
    assert a.total == b.total
    fa, fb = ({key: float(amp) for key, amp in s.amplitudes.items() if amp.sign != 0}
              for s in (a, b))
    return math.fsum(fa[key] * fb[key] for key in sorted(fa.keys() & fb.keys()))


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a tuple of indices."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _occupation_vectors(n_modes, n_particles, max_per_mode):
    """Every occupation vector with the given total, by recursion over modes."""
    if n_modes == 0:
        return [()] if n_particles == 0 else []
    out = []
    for n in range(min(n_particles, max_per_mode) + 1):
        for rest in _occupation_vectors(n_modes - 1, n_particles - n, max_per_mode):
            out.append((n,) + rest)
    return out


def _hop(occ, q, p, fermi):
    """``a_q^dagger a_p |occ>`` as (amplitude, occupation), or None if it vanishes.

    Fermions: each operator on mode ``m`` carries the Jordan-Wigner sign
    ``(-1)^(sum_{k<m} n_k)``; bosons: ``sqrt(n_p)`` then ``sqrt(n_q + 1)``.
    """
    occ = list(occ)
    if occ[p] == 0:
        return None
    amp = (-1) ** sum(occ[:p]) if fermi else math.sqrt(occ[p])
    occ[p] -= 1
    if fermi and occ[q]:
        return None
    amp *= (-1) ** sum(occ[:q]) if fermi else math.sqrt(occ[q] + 1)
    occ[q] += 1
    return amp, tuple(occ)


def sort_and_rank_hops(modes, n_modes, statistics, t):
    """The Fock hop arrays ``(source, target, p, q, value)`` of a sort-and-rank kernel.

    ``modes`` holds one sorted row of modes per basis state, in
    lexicographic order.  Row by row on 2-D blocks: the rows that ``p``
    leaves from position ``pos`` are copied once per nonzero ``t[q, p]``,
    ``n_q``, ``n_p`` and the fermion insertion index come from 2-D counts,
    and each target row is re-sorted with ``q`` and ranked by the
    combinatorial number system over all its columns at once.  This is the
    kernel the library used before it went column by column, kept to check
    that the rewrite gives the same five arrays, values and order included;
    its ``source`` and ``target`` are int64, where the library's are int32.
    """
    modes = np.asarray(modes)
    n_particles = modes.shape[1]
    fermi = statistics == "fermi"
    slots = n_modes + (0 if fermi else n_particles - 1)
    size = math.comb(slots, n_particles)
    binomials = np.array(
        [[min(math.comb(x, k), size) for k in range(n_particles + 1)] for x in range(slots)],
        dtype=np.int64,
    )

    def rank(rows):
        if not fermi:
            rows = rows + np.arange(n_particles)
        terms = binomials[slots - 1 - rows, np.arange(n_particles, 0, -1)]
        return size - 1 - terms.sum(axis=1)

    columns = sp.csc_matrix(t)
    per_column = np.diff(columns.indptr)
    parts = []
    for pos in range(n_particles):
        if fermi or pos == 0:
            source = np.arange(len(modes))
        else:
            source = np.flatnonzero(modes[:, pos] != modes[:, pos - 1])
        counts = per_column[modes[source, pos]]
        source = np.repeat(source, counts)
        p = modes[source, pos]
        first_copy = np.repeat(np.cumsum(counts) - counts, counts)
        entry = columns.indptr[p] + np.arange(source.size) - first_copy
        q = columns.indices[entry]
        value = columns.data[entry]
        held = modes[source]
        n_q = np.count_nonzero(held == q[:, None], axis=1)
        if fermi:
            free = n_q == 0
            source, p, q, value, held = source[free], p[free], q[free], value[free], held[free]
            ins = np.count_nonzero(held < q[:, None], axis=1) - (p < q)
            value = np.where((pos + ins) % 2, -value, value)
        else:
            n_p = np.count_nonzero(held == p[:, None], axis=1)
            value = value * np.sqrt(n_p * (n_q + 1.0))
        rest = np.delete(held, pos, axis=1)
        target = rank(np.sort(np.column_stack((rest, q)), axis=1))
        parts.append((source, target, p, q, value))
    return tuple(np.concatenate(column) for column in zip(*parts))


def full_hop_fock_hamiltonian(one_body, sites, u_value, modes, statistics):
    """The CSR Fock Hamiltonian from every hop in both directions, as a COO.

    ``one_body`` is the (n_modes x n_modes) one-body matrix, ``sites`` the
    mode pairs that pay ``u_value`` when both are filled and ``modes`` the
    basis rows.  Every nonzero off-diagonal ``t[q, p]`` is run through
    :func:`sort_and_rank_hops` (whose arrays the library kernel matches
    value for value), and the hops and the diagonal go into one COO that
    ``tocsr`` sums.  This is how the library built H before it ran the
    kernel on the lower triangle and entered each hop at both ends, kept
    to check that the mirrored build gives the same CSR bytes.
    """
    t = np.array(one_body, dtype=float)
    diag = t.diagonal()[modes].sum(axis=1)
    for a, b in sites:
        n_a, n_b = (np.count_nonzero(modes == m, axis=1) for m in (a, b))
        diag += u_value * n_a * n_b
    np.fill_diagonal(t, 0.0)
    source, target, _, _, value = sort_and_rank_hops(modes, len(t), statistics, t)
    states = np.arange(len(modes))
    h = sp.coo_matrix(
        (
            np.concatenate((diag, value)),
            (np.concatenate((states, target)), np.concatenate((states, source))),
        ),
        shape=(len(modes), len(modes)),
    )
    return h.tocsr()


def hop_reference(basis, t, statistics):
    """``{(i, j, p, q): t[q, p] <basis[j]| a_q^dagger a_p |basis[i]>}`` over nonzero terms.

    Literal second quantization on the occupation vectors ``basis`` with
    :func:`_hop`, for every nonzero off-diagonal ``t[q, p]``.
    """
    fermi = statistics == "fermi"
    where = {occ: i for i, occ in enumerate(basis)}
    out = {}
    for i, occ in enumerate(basis):
        for q, p in zip(*np.nonzero(t)):
            hop = _hop(occ, int(q), int(p), fermi)
            if hop is not None:
                out[(i, where[hop[1]], int(p), int(q))] = float(t[q, p]) * hop[0]
    return out


def fock_hamiltonian_reference(model, res, n_particles, statistics):
    """Dense many-body Hamiltonian by literal second quantization.

    ``model`` is a two-well pair, or a parallel model (it has ``base``,
    ``yprime`` and ``U``).  The modes are rebuilt from the fields: wells
    (well1[, well1'], well2[, well2']) coupled to every level of the
    uniform grid ``-cutoff + (k + 1/2) spacing`` with amplitude ``omega_j
    sqrt(rho spacing)``, times ``yprime`` for a primed well, which pays
    ``U n n'`` with its partner.  Returns ``(basis, h)``: the occupation
    vectors and the matrix ``<basis[i]| H |basis[j]>``.
    """
    parallel = hasattr(model, "base")
    pair = model.base if parallel else model
    g = math.sqrt(pair.rho * res.spacing)
    if parallel:
        wells = [
            (pair.E1, pair.omega1 * g),
            (pair.E1, model.yprime * pair.omega1 * g),
            (pair.E2, pair.omega2 * g),
            (pair.E2, model.yprime * pair.omega2 * g),
        ]
        u_pairs = [(0, 1, model.U), (2, 3, model.U)]
    else:
        wells = [(pair.E1, pair.omega1 * g), (pair.E2, pair.omega2 * g)]
        u_pairs = []
    levels = [-res.cutoff + res.spacing * (k + 0.5) for k in range(res.n_levels)]
    energies = [e for e, _ in wells] + levels
    n_dots, n_modes = len(wells), len(energies)
    fermi = statistics == "fermi"
    basis = _occupation_vectors(n_modes, n_particles, 1 if fermi else n_particles)
    where = {occ: i for i, occ in enumerate(basis)}
    h = np.zeros((len(basis), len(basis)))
    for i, occ in enumerate(basis):
        h[i, i] = sum(e * n for e, n in zip(energies, occ))
        h[i, i] += sum(u * occ[a] * occ[b] for a, b, u in u_pairs)
        for d, (_, amp) in enumerate(wells):
            for r in range(n_dots, n_modes):
                for q, p in ((d, r), (r, d)):
                    hop = _hop(occ, q, p, fermi)
                    if hop is not None:
                        h[where[hop[1]], i] += amp * hop[0]
    return basis, h


def fock_reduced_reference(basis, psi, n_dot_modes, statistics):
    """Occupations, P(m particles beyond the dots) and ``<a_q^dagger a_p>``.

    ``psi`` holds the amplitudes on the occupation vectors ``basis``;
    every dot-block entry ``rdm[p, q]`` is summed from the literal
    operator ``a_q^dagger a_p``, diagonal included.
    """
    fermi = statistics == "fermi"
    where = {occ: i for i, occ in enumerate(basis)}
    n_particles = sum(basis[0])
    occupations = np.zeros(len(basis[0]))
    probs = np.zeros(n_particles + 1)
    rdm = np.zeros((n_dot_modes, n_dot_modes), dtype=complex)
    for i, occ in enumerate(basis):
        weight = abs(psi[i]) ** 2
        occupations += weight * np.array(occ)
        probs[n_particles - sum(occ[:n_dot_modes])] += weight
        for p in range(n_dot_modes):
            for q in range(n_dot_modes):
                hop = _hop(occ, q, p, fermi)
                if hop is not None:
                    rdm[p, q] += np.conj(psi[where[hop[1]]]) * hop[0] * psi[i]
    return occupations, probs, rdm


def render_rows_reference(fmt, digest, manifest, columns, rows, extra):
    """Output file bytes written from row lists, cell by cell.

    CSV: a digest comment, the header and one line per row, with strings
    as they are, ints through ``str`` and floats through
    ``format(x, ".17g")``.  JSON: ``json.dumps(payload, indent=2,
    sort_keys=True)`` with the rows as nested lists.
    """
    if fmt == "csv":
        def cell(value):
            if isinstance(value, str):
                return value
            if isinstance(value, int):
                return str(value)
            return format(value, ".17g")

        lines = [f"# manifest-sha256 {digest}", ",".join(columns)]
        lines += [",".join(cell(value) for value in row) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    payload = {
        "manifest_sha256": digest,
        "manifest": manifest,
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    payload.update(extra)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def sweep_point_widths_reference(model, point):
    """``(gamma1, gamma2, eta, epsilon)`` of one sweep point, rule by rule.

    ``model`` holds the width keys a config gives (``gamma1``, ``eta``,
    ``epsilon``, and ``gamma2`` or ``y``); the rest take their defaults, and
    a missing ``gamma2`` without ``y`` defaults to the config's ``gamma1``.
    ``point`` lists ``(axis, value)`` in axis order.  Each value replaces
    the config's, a ``y`` also drops the config's ``gamma2``, and the second
    width is ``gamma2`` when one is left, else ``y * gamma1``.  So a ``gamma2``
    axis takes precedence over a config ``y``, and a defaulted ``gamma2``
    stays put when ``gamma1`` is swept.
    """
    widths = {"gamma1": 1.0, "eta": 1, "epsilon": 0.0}
    widths.update(model)
    if "y" not in widths:
        widths.setdefault("gamma2", widths["gamma1"])
    for axis, value in point:
        if axis == "y":
            widths.pop("gamma2", None)
        widths[axis] = value
    gamma2 = widths["gamma2"] if "gamma2" in widths else widths["y"] * widths["gamma1"]
    return widths["gamma1"], gamma2, widths["eta"], widths["epsilon"]


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def bounded_fraction(*args):
    """``Fraction``, but a string whose decimal exponent exceeds 400 in size is
    an ``AssertionError``: ``Fraction`` expands the exponent into an exact
    power of ten, whose cost grows faster than the exponent, so a slow parse
    shows as a failure instead of a long run."""
    if args and isinstance(args[0], str):
        exponent = _EXPONENT.search(args[0])
        if exponent and abs(int(exponent[1])) > 400:
            raise AssertionError(f"Fraction({args[0][:40]!r}) expands a large exponent")
    return Fraction(*args)
