"""Integrated-noise statistics of the pseudomode output.

A constant source of strength J tilts the generator to L + i(J/2) V^o with
V = a + a†, and the trace of the tilted evolution is the characteristic
function Z(J) of the time-integrated noise variable x.  The statistics of x
come by four routes that the tests compare:

- exact cumulants from one block-triangular exponential whose blocks are
  the Dyson orders of Z at J = 0 (:func:`cumulant_trace`);
- finite differences of Z at J = 0 (in the tests);
- moments of P(x), reconstructed from Z on a J grid by inverse Fourier
  quadrature (:func:`run_noise`); all new nodes of a grid are evaluated in
  one pass, each node by one banded LU of I - (t/10) B, with B the real
  form of the tilted generator (banded with half-bandwidth 2 n_max in its
  |m|-major basis), and a shift-and-invert Krylov space on it; the Krylov
  spaces of a group of nodes, as many as a byte budget on their LUs and
  bases allows, run in lockstep, and each space is checked on its
  shift-and-invert relation against the operator-level generator;
- nested time-ordered quadrature of multi-time V^o correlators
  (:func:`moment_by_correlator_quadrature`).
"""

from __future__ import annotations

import json
import math
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .fockbasis import FockState, Truncation
from .oracle import expm_propagate, multi_time_correlators
from .superops import InternalConsistencyError, ModelParams, check_time, full_generator

__all__ = [
    "NoiseRun",
    "TruncationError",
    "GridAdequacyError",
    "RealForm",
    "real_form",
    "xi_evolve",
    "generating_function",
    "default_x_grid",
    "probability_density",
    "moments_from_grid",
    "cumulants_from_moments",
    "cumulant_trace",
    "moment_by_correlator_quadrature",
    "run_noise",
]

Z_TAIL_TOL = 1e-6
Z_CONJ_TOL = 1e-10
P_REALNESS_TOL = 1e-8
P_NORM_TOL = 1e-6
#: cutoff weight, relative to the largest entry, above which a state counts
#: as truncated
TOP_TOL = 1e-6
#: J-grid doublings of :func:`run_noise` before its tail gate gives up
MAX_DOUBLINGS = 3
#: highest Dyson order of Z at J = 0 that cumulant_trace carries (kappa_1..4)
CUMULANT_ORDER = 4


class TruncationError(RuntimeError):
    """Population reached the Fock cutoff beyond the allowed weight."""


class GridAdequacyError(RuntimeError):
    """A J- or x-grid gate failed; results would be quadrature artifacts."""


@dataclass(frozen=True)
class RealForm:
    """The tilted generator made real: S^-1 (L + i(J/2) W) S = G_L + J G_W.

    ``S`` (sparse CSR, unitary) is the phase change i^(n1+n2) of entry
    (n1, n2) followed by an orthonormal Hermitian basis ordered by the
    coherence label |m| = |n1 - n2|; ``G_L`` and ``G_W`` are real sparse
    CSR matrices, banded in that order.
    """

    S: object
    G_L: object
    G_W: object


#: imaginary residue of the real form, relative to its largest entry, above
#: which the basis change counts as broken
REAL_FORM_TOL = 1e-12


def real_form(params: ModelParams, trunc: Truncation) -> RealForm:
    """Real form of the tilted generator on one truncation.

    After the phase change every drive, jump and anticommutator coefficient
    is real and only the Hamiltonian diagonal -i(H_n1 - H_n2) stays
    imaginary; that part is odd under transposition, so the generator maps
    Hermitian matrices to Hermitian matrices.  Column (i, j) of the basis is
    |i><i| for i = j, (|i><j| + |j><i|)/sqrt2 for i < j and
    i(|j><i| - |i><j|)/sqrt2 for i > j, so in it the generator is real.

    The columns run |m|-major: by |i - j|, then min(i, j), then i <= j
    before i > j.  L keeps m and feeds min(i, j) from min(i, j) + 1 and + 2
    (one- and two-body loss), so G_L stays within 4 of its diagonal; the
    source W moves |m| by one, so G_L + J G_W is banded with half-bandwidth
    2 n_max, against (n_max + 1)^2 - 1 in row-major order.
    """
    import scipy.sparse as sp

    d = trunc.dim
    pos = np.arange(d * d)
    i, j = np.divmod(pos, d)
    phase = np.array([1, 1j, -1, -1j])[(i + j) % 4]
    r = 1 / np.sqrt(2)
    # column col[p] holds Q[p, p] and, off the diagonal, Q[transpose(p), p]
    own = np.where(i == j, 1, np.where(i < j, r, -1j * r))
    off = i != j
    mirror = (j * d + i)[off]
    col = np.empty_like(pos)
    col[np.lexsort((i > j, np.minimum(i, j), np.abs(i - j)))] = pos
    rows = np.concatenate([pos, mirror])
    cols = col[np.concatenate([pos, pos[off]])]
    vals = np.concatenate([own, np.where(i < j, r, 1j * r)[off]]) * phase[rows]
    S = sp.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))
    action = full_generator(params, trunc)
    Sh = S.conj().T.tocsr()
    G_L = (Sh @ action.sparse_matrix() @ S).tocsr()
    G_W = (Sh @ (0.5j * action.source_matrix()) @ S).tocsr()
    scale = max(1.0, *(np.max(np.abs(G.data), initial=0.0) for G in (G_L, G_W)))
    residue = max(np.max(np.abs(G.data.imag), initial=0.0) for G in (G_L, G_W))
    if residue > REAL_FORM_TOL * scale:
        raise InternalConsistencyError(
            f"tilted generator not real in the Hermitian basis (residue {residue:.3e})"
        )
    return RealForm(S, G_L.real.copy(), G_W.real.copy())


#: shift of the Krylov space of each node, as a fraction of t:
#: gamma = t / 10 in (I - gamma B)^-1
_SHIFT = 0.1
#: Krylov dimensions between two convergence checks of a node
_STRIDE = 4
#: change of a node's solution between two checks, relative to the start
#: vector, below which it counts as converged
_KRYLOV_TOL = 1e-13
#: Krylov dimension at which a node that has not converged raises.  Nodes
#: converge by dimension 32 (n_max 12 to 40); a smaller real form caps the
#: space at its own dimension, where the solution is exact
_KRYLOV_CAP = 1089
#: deviation of a node's shift-and-invert relation from the operator-level
#: generator, on unit Krylov vectors, above which the node is refused.  The
#: right form gives at most 1.1e-14 (n_max 12 to 40, t 0.01 to 20); a G_W of
#: the wrong sign gives 4e-4 at J = 1e-3
_NODE_CHECK_TOL = 1e-10
#: bytes of banded LUs and Krylov bases, at the capped dimension, that one
#: group of nodes whose Krylov spaces run in lockstep may hold; it sets the
#: group width (:func:`_group_width`): 9 nodes from the vacuum at n_max 12,
#: one node from n_max 19 up.  The relation check takes one accepted space
#: at a time, so a group's traced peak stays within it (1.62 MiB for those
#: 9 nodes, 1.66 MiB for 3 at n_max 16); a single node can exceed it
#: (4.8 MiB at n_max 30, 10.1 MiB at n_max 40)
_GROUP_BYTES = 3 * 2**20
#: unit roundoff, against which an Arnoldi step counts as a breakdown
_EPS = float(np.finfo(float).eps)


def _group_width(n: int, lu_rows: int, parts: int) -> int:
    """Nodes per group: as many as fit in _GROUP_BYTES, each holding a
    ``dgbtrf`` LU of ``lu_rows`` rows and ``parts`` Krylov bases of
    min(n, _KRYLOV_CAP) + 1 rows, on the real-form dimension ``n``; at least
    one."""
    per_node = 8 * n * (lu_rows + parts * (min(n, _KRYLOV_CAP) + 1))
    return max(1, _GROUP_BYTES // per_node)


def _exp_e1(ritz: np.ndarray, t: float) -> np.ndarray:
    """Rows e^{tA} e_1 and int_0^t e^{sA} e_1 ds / t for each A of the
    stack ``ritz``.

    The integral is the last column of one exponential of A bordered by e_1
    (Van Loan, IEEE TAC 23, 395 (1978)); ``scipy.linalg.expm`` scales each
    matrix of the stack on its own.
    """
    import scipy.linalg as sla

    k, m = ritz.shape[:2]
    K = np.zeros((k, m + 1, m + 1))
    K[:, :m, :m] = ritz * t
    K[:, 0, m] = t
    E = sla.expm(K)
    return np.stack([E[:, :m, 0], E[:, :m, m] / t], axis=1)


def _norms(rows: np.ndarray) -> np.ndarray:
    """2-norm of each row of ``rows``, from one BLAS dot product each."""
    return np.sqrt((rows[:, None] @ rows[:, :, None])[:, 0, 0])


def _shift_invert_krylov(solves, vs: np.ndarray, t: float, operator) -> list[tuple]:
    """For each start vector v = vs[k]: x(t) and int_0^t x(s) ds for
    x' = B_k x from x(0) = v, the Krylov dimension that gave them and the
    deviation of the space's shift-and-invert relation.

    ``solves[k]`` maps b to (I - gamma B_k)^-1 b, gamma = t / 10, from one
    LU factor of I - gamma B_k, in a new array.  Arnoldi on
    (I - gamma B_k)^-1 from v gives V_m and H_m, and A_m = (I - H_m^-1) / gamma
    is the projection of B_k, so x(s) ~ |v| V_m e^{s A_m} e_1 (van den Eshof
    & Hochbruck, SIAM J. Sci. Comput. 27, 1438 (2006)); the cost does not
    grow with |B_k| t.  Every _STRIDE steps from 2 _STRIDE on, the solution
    at t, with its integral, is compared with the previous check and counts
    as converged when it moves by less than _KRYLOV_TOL; the first check
    only records it (no space converges sooner, n_max 12 to 40, t 0.01 to
    20).  A space that reaches the real-form dimension, or an invariant
    subspace, holds the exact solution.  A space that has not converged at
    _KRYLOV_CAP raises.

    A space accepted at dimension m is checked against B_k itself, which
    ``operator(owners, X)`` applies to each row X[r] as B of space
    owners[r], independently of the LU: the columns w_j of V_{m+1} Hbar_m,
    the solve outputs the projection stands for, must satisfy
    (I - gamma B_k) w_j = v_j; the deviation is the largest 2-norm of
    (I - gamma B_k) w_j - v_j over j.  A wrong form or LU shows in it at
    full size, not scaled down by a short step.

    The spaces run in lockstep, one dimension at a time: one solve per live
    space, then Gram-Schmidt (classical, repeated once), the norms and the
    H updates as stacked products over the live spaces.  A check takes one
    stacked inverse of the H_m, one stacked bordered exponential, one
    stacked comparison and, for each space it accepts, one ``operator``
    call on its m vectors w_j, so the relation products of one space at a
    time are held.  A space leaves once accepted, and the bases of the
    others move down slot by slot.  No operation mixes two spaces, so each
    result is, bit for bit, the one the space gives alone.  V and H grow by
    doubling, so they hold about the dimensions reached.
    """
    k, n = vs.shape
    gamma = _SHIFT * t
    cap = min(n, _KRYLOV_CAP)
    beta = _norms(vs)
    V = np.empty((k, min(cap, 4 * _STRIDE) + 1, n))
    H = np.zeros((k, V.shape[1], V.shape[1] - 1))
    V[:, 0] = vs / beta[:, None]
    # the space in each slot of V and H, their solutions at the last check,
    # the result of each space
    live = list(range(k))
    last, out = None, [None] * k
    for m in range(1, cap + 1):
        if m == V.shape[1]:
            rows = min(2 * m, cap + 1)
            V = np.concatenate([V, np.empty((k, rows - m, n))], axis=1)
            H = np.pad(H, ((0, 0), (0, rows - m), (0, rows - m)))
        nlive = len(live)
        w = np.empty((nlive, n))
        for s, i in enumerate(live):
            w[s] = solves[i](V[s, m - 1])
        size = _norms(w)
        Vm = V[:nlive, :m]
        for _ in range(2):
            h = (Vm @ w[:, :, None])[:, :, 0]
            w -= (h[:, None] @ Vm)[:, 0]
            H[:nlive, :m, m - 1] += h
        H[:nlive, m, m - 1] = _norms(w)
        whole = (H[:nlive, m, m - 1] <= _EPS * size) | (m == n)
        check = m % _STRIDE == 0 and m > _STRIDE
        slots = np.arange(nlive) if check else np.flatnonzero(whole)
        if slots.size:
            ritz = (np.eye(m) - np.linalg.inv(H[slots, :m, :m])) / gamma
            # x(t) and its integral of each space in slots
            y = _exp_e1(ritz, t)
            accept = whole[slots]
            if check and last is not None:
                moved = y.copy()
                moved[:, :, : last.shape[2]] -= last
                accept |= np.linalg.norm(moved, axis=-1).max(axis=-1) <= _KRYLOV_TOL
            if check:
                last = y
            done = slots[accept]
            for s, ys in zip(done, y[accept]):
                x, integral = beta[live[s]] * (ys @ V[s, :m])
                # column j of V_{m+1} Hbar_m; the last one adds w = h_{m+1,m} v_{m+1}
                solved = H[s, :m, :m].T @ V[s, :m]
                solved[m - 1] += w[s]
                # row-major, so each row's norm sums in the order it always has
                residual = np.multiply(operator(np.full(m, live[s]), solved), -gamma, order="C")
                residual += solved
                residual -= V[s, :m]
                out[live[s]] = (x, integral * t, m, float(np.max(np.linalg.norm(residual, axis=1))))
            if done.size:
                kept = np.delete(np.arange(nlive), done)
                if not kept.size:
                    return out
                live, w = [live[s] for s in kept], w[kept]
                if last is not None:
                    last = last[kept]
                # kept is increasing, so each slot moves down onto a free one
                for slot, s in enumerate(kept):
                    if slot != s:
                        V[slot, :m] = V[s, :m]
                        H[slot, : m + 1, :m] = H[s, : m + 1, :m]
        V[: len(live), m] = w / H[: len(live), m, m - 1][:, None]
    raise InternalConsistencyError(
        f"shift-and-invert Krylov space not converged at dimension {cap}"
    )


@dataclass
class _NodeReport:
    """Figures of the dense route's nodes over one :func:`run_noise`: the
    worst ones, the Arnoldi steps summed over every Krylov space and the
    widest group of nodes run in lockstep."""

    krylov_dim: int = 0
    check_dev: float = 0.0
    bandwidth: int = 0
    steps: int = 0
    group_width: int = 0


#: the report of the :func:`run_noise` call in progress, if any
_REPORT: ContextVar[_NodeReport | None] = ContextVar("noise_node_report", default=None)


def _dense_propagate(
    params: ModelParams, initial: FockState, t: float, Js, form: RealForm
) -> list[FockState]:
    """Propagation of one state under B = G_L + J G_W for every J in ``Js``.

    Per node, one banded real LU (LAPACK ``dgbtrf``) of I - gamma B
    (gamma = t / 10) serves a shift-and-invert Krylov space for each nonzero
    part of [Re c, Im c], c = S^-1 xi(0); see :func:`_shift_invert_krylov`.
    The bands of G_L and G_W are read once per call, their widths kl below
    and ku above the diagonal taken from their nonzeros (2 n_max each for
    :func:`real_form`), so the LU and its solves cost O(n kl^2) and O(n kl)
    on the real-form dimension n = (n_max + 1)^2.  The nodes run in groups:
    a group factors the LUs of its nodes and runs all their Krylov spaces
    in lockstep, so that each step is a few stacked products over the group
    and not a dozen small calls per node, and one S product takes all its
    nodes back to the Fock basis; a byte budget sets its width
    (:func:`_group_width`).

    A Krylov solution carries rounding relative to |c|, which would leave
    noise in Z(J) that swamps finite differences in J.  Since w^T G_L = 0
    (w^T x = tr S x), the trace obeys d/dt w^T x = J (G_W^T w) x, so
    tr xi(t) = w^T c + J (G_W^T w) int_0^t x(s) ds, exact relative to the
    J term; the vacuum population takes up its difference to the trace of
    the evolved state.

    Each Krylov space is checked on its shift-and-invert relation against
    the operator-level generator, B x = S^H (L + i(J/2) W)(S x), which
    takes neither G_L, G_W nor the LU; a node whose deviation exceeds
    _NODE_CHECK_TOL raises.  The largest Krylov dimension, the worst
    deviation, the LU half-bandwidth max(kl, ku), the Arnoldi steps and the
    widest group go to the report of the :func:`run_noise` call in progress.
    """
    import scipy.sparse as sp
    from scipy.linalg import lapack

    if t == 0 or len(Js) == 0:
        return [initial.copy() for _ in Js]
    S = form.S
    Sh = S.conj().T.tocsr()
    n = S.shape[0]
    shape = initial.entries.shape
    # the diagonal basis vectors of S carry the phase (-1)^i, the others no trace
    w = (S.T @ np.eye(shape[0]).ravel()).real
    drift = form.G_W.T @ w
    # S is unitary, so S^-1 = S^H
    c = Sh @ initial.entries.ravel().astype(complex)
    parts = [(unit, part) for unit, part in ((1, c.real), (1j, c.imag)) if part.any()]
    action = full_generator(params, initial.truncation)
    L, W = action.sparse_matrix(), action.source_matrix()
    report = _REPORT.get() or _NodeReport()
    # entry (r, col) of G_L and G_W in row ku + r - col of column col, each
    # band stored column by column, as the dgbtrf layout is
    coo = [sp.coo_matrix(G) for G in (form.G_L, form.G_W)]
    offsets = np.concatenate([G.row - G.col for G in coo])
    kl = int(max(0, offsets.max(initial=0)))
    ku = int(max(0, -offsets.min(initial=0)))
    bands = np.zeros((2, n, kl + ku + 1)).transpose(0, 2, 1)
    for band, G in zip(bands, coo):
        np.add.at(band, (ku + G.row - G.col, G.col), G.data)
    report.bandwidth = max(report.bandwidth, kl, ku)

    nodes = np.asarray(Js, dtype=float)
    width = _group_width(n, 2 * kl + ku + 1, len(parts))
    out = []
    # groups of at most ``width`` nodes, of sizes that differ by one at most
    for group in np.array_split(nodes, -(-nodes.size // width)):
        solves = []
        for J in group:
            # dgbtrf layout: kl rows for the fill-in of the LU above the band
            ab = np.zeros((2 * kl + ku + 1, n), order="F")
            band = np.multiply(bands[1], J, out=ab[kl:])
            band += bands[0]
            band *= -_SHIFT * t
            ab[kl + ku] += 1
            lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=1)
            if info != 0:
                raise InternalConsistencyError(f"I - gamma B singular at J={J}")
            solves.append(lambda b, lu=lu, piv=piv: lapack.dgbtrs(lu, kl, ku, b, piv)[0])
        # one Krylov space per node and nonzero part, node-major
        drives = 0.5j * np.repeat(group, len(parts))

        def operator(owners, X):
            Y = S @ X.T
            return (Sh @ (L @ Y + (W @ Y) * drives[owners])).T

        results = iter(_shift_invert_krylov(
            [solve for solve in solves for _ in parts],
            np.array([part for _ in group for _, part in parts]),
            t,
            operator,
        ))
        report.group_width = max(report.group_width, group.size)
        # x(t) and its integral per node
        xs, integrals = np.zeros((2, group.size, n), dtype=complex)
        for J, x, integral in zip(group, xs, integrals):
            for unit, _ in parts:
                xp, ip, dim, dev = next(results)
                x += unit * xp
                integral += unit * ip
                report.krylov_dim = max(report.krylov_dim, dim)
                report.steps += dim
                report.check_dev = max(report.check_dev, dev)
                if dev > _NODE_CHECK_TOL:
                    raise InternalConsistencyError(
                        f"tilted-generator Krylov solution unreliable (dev {dev:.3e}, J={J})"
                    )
        for J, xi, integral in zip(group, (S @ xs.T).T.reshape(-1, *shape), integrals):
            xi[0, 0] += w @ c + J * (drift @ integral) - np.trace(xi)
            out.append(FockState(xi))
    return out


def xi_evolve(
    params: ModelParams, J: float, t: float, initial: FockState, backend: str = "auto"
) -> FockState:
    """Tilted evolution of xi under L + i(J/2) V^o from xi(0) = initial,
    gated on its cutoff weight.  "auto" is :func:`_evolve_nodes` at one J;
    "expm" takes the sparse exponential at every kappa2, the reference for
    the dense route."""
    if backend == "auto":
        return _evolve_nodes(params, [J], t, initial)[0]
    if backend != "expm":
        raise ValueError("backend must be 'auto' or 'expm'")
    xi = expm_propagate(params, initial, t, drive=0.5j * J)
    _gate_cutoff_weight(xi.entries, f"at n_max={initial.n_max}, J={J}, t={t}")
    return xi


def _evolve_nodes(params: ModelParams, Js, t: float, initial: FockState) -> list[FockState]:
    """xi(t) of :func:`xi_evolve` "auto" for every J in ``Js``, each gated
    on its cutoff weight: at kappa2 > 0 one :func:`_dense_propagate` call
    for all nodes, at any cutoff; at kappa2 = 0 one sparse exponential per node.

    The dense route would serve kappa2 = 0 too (Z within 2.3e-14), but it is
    slower there except on a large grid from the vacuum, where it wins by a
    fifth, so the route still follows kappa2 alone.  Dense against sparse
    exponentials, one BLAS thread on a 2-core host, best of two or three
    runs: from the coherent state 0.6 + 0.3i, 5 nodes in [0, 1], at omega 1,
    U 0.5, kappa1 0.8, 336 / 345 against 49 / 111 ms at n_max 14,
    t = 1 / 5, and 1,555 against 136 ms at n_max 30, t = 1; LINEAR
    (omega 1, kappa1 1) from the vacuum, 34 against 30 ms at n_max 30,
    t = 1, 5 nodes, but 812 against 1,023 ms at n_max 40, t = 2, 33 nodes
    with J <= 5.75.
    """
    check_time(t)
    if params.kappa2 > 0:
        states = _dense_propagate(params, initial, t, Js, real_form(params, initial.truncation))
    else:
        states = [expm_propagate(params, initial, t, drive=0.5j * J) for J in Js]
    for J, xi in zip(Js, states):
        _gate_cutoff_weight(xi.entries, f"at n_max={initial.n_max}, J={J}, t={t}")
    return states


def _gate_cutoff_weight(entries: np.ndarray, where: str) -> None:
    """Raise TruncationError if the top row/column carries more than TOP_TOL."""
    scale = max(np.max(np.abs(entries)), 1e-300)
    edge = max(np.max(np.abs(entries[-1, :])), np.max(np.abs(entries[:, -1])))
    # once xi has decayed to rounding noise its edge weight is meaningless
    # and contributes nothing to Z, so only gate at observable magnitude
    if edge > TOP_TOL * scale and scale > 1e-9:
        raise TruncationError(f"cutoff weight {edge / scale:.3e} exceeds {TOP_TOL:.1e} {where}")


def symmetric_J_grid(J_max: float, N_J: int) -> np.ndarray:
    if N_J % 2 == 0 or N_J < 3:
        raise ValueError("N_J must be odd and >= 3 so the grid includes 0")
    return np.linspace(-J_max, J_max, N_J)


def generating_function(
    params: ModelParams,
    initial: FockState,
    t: float,
    J_grid: np.ndarray,
    known: dict[float, complex] | None = None,
) -> np.ndarray:
    """Z(J) = tr xi(t) over a symmetric grid; the J < 0 half is conj-mirrored.

    ``known`` maps J to Z(J) already evaluated for the same params, initial
    state and t; those nodes are reused and the new ones are added to it.
    """
    check_time(t)
    J_grid = np.asarray(J_grid, dtype=float)
    if np.max(np.abs(J_grid + J_grid[::-1])) > 1e-12 or not np.any(J_grid == 0):
        raise ValueError("J grid must be symmetric about and include 0")
    half = J_grid[J_grid >= 0]
    known = {} if known is None else known
    missing = [J for J in half if J not in known]
    if missing:
        for J, xi in zip(missing, _evolve_nodes(params, missing, t, initial)):
            known[J] = xi.trace()
    Z_half = np.array([known[J] for J in half])
    Z = np.empty(len(J_grid), dtype=complex)
    n_neg = len(J_grid) - len(half)
    Z[n_neg:] = Z_half
    Z[:n_neg] = np.conj(Z_half[1 : n_neg + 1])[::-1]
    z0 = Z[J_grid == 0][0]
    if abs(z0 - 1.0) > 1e-10:
        raise GridAdequacyError(f"Z(0) = {z0} deviates from 1 (trace not preserved)")
    return Z


def default_x_grid(J_grid: np.ndarray) -> np.ndarray:
    """Nyquist-paired x grid: dx = 2 pi / (N_J dJ), same point count, centered."""
    N = len(J_grid)
    dJ = J_grid[1] - J_grid[0]
    dx = 2 * np.pi / (N * dJ)
    return (np.arange(N) - N // 2) * dx


def probability_density(Z_values: np.ndarray, J_grid: np.ndarray):
    """P(x) by trapezoidal quadrature of (1/2pi) int dJ Z(J) e^{-iJx} on
    the :func:`default_x_grid` of ``J_grid``.

    Returns (x_grid, P).  Gates: |Z| at the grid ends below Z_TAIL_TOL,
    reconstruction real to P_REALNESS_TOL, total mass 1 to P_NORM_TOL.
    """
    Z_values = np.asarray(Z_values, dtype=complex)
    J_grid = np.asarray(J_grid, dtype=float)
    if max(abs(Z_values[0]), abs(Z_values[-1])) > Z_TAIL_TOL:
        raise GridAdequacyError(
            f"|Z(+-J_max)| = {max(abs(Z_values[0]), abs(Z_values[-1])):.3e} "
            f"exceeds {Z_TAIL_TOL}; enlarge J_max"
        )
    sym_dev = np.max(np.abs(Z_values - np.conj(Z_values[::-1])))
    if sym_dev > Z_CONJ_TOL:
        raise GridAdequacyError(f"Z conjugation symmetry broken by {sym_dev:.3e}")
    x_grid = default_x_grid(J_grid)
    weights = np.ones(len(J_grid))
    weights[0] = weights[-1] = 0.5
    dJ = J_grid[1] - J_grid[0]
    kernel = np.exp(-1j * np.outer(x_grid, J_grid))
    raw = kernel @ (weights * Z_values) * dJ / (2 * np.pi)
    imag_residue = float(np.max(np.abs(raw.imag)))
    if imag_residue > P_REALNESS_TOL:
        raise GridAdequacyError(f"P imaginary residue {imag_residue:.3e}")
    Pv = raw.real
    mass = float(np.trapezoid(Pv, x_grid))
    if abs(mass - 1.0) > P_NORM_TOL:
        raise GridAdequacyError(f"P mass {mass} deviates from 1")
    return x_grid, Pv


def moments_from_grid(x_grid: np.ndarray, P_values: np.ndarray) -> np.ndarray:
    """Raw moments int x^n P(x) dx, n = 1..6, by the trapezoidal rule on ``x_grid``.

    The weight x^n amplifies the rounding of P (and of Z behind it) towards
    the edges of the x window, so orders 5 and 6 carry about 8 significant
    digits: at the ``kerrloss noise`` defaults a change of Z by 4e-15 moves
    m_6 = 142.13 by 1.8e-6 and m_4 by 7e-10.  Compare runs to that many
    digits, not to all 17 that ``noise.json`` prints.
    """
    return np.array(
        [float(np.trapezoid(P_values * x_grid**n, x_grid)) for n in range(1, 7)]
    )


def cumulants_from_moments(m: np.ndarray) -> np.ndarray:
    """kappa_1..kappa_4 from raw moments m[0]=m_1 ... m[3]=m_4."""
    m1, m2, m3, m4 = m[:4]
    k1 = m1
    k2 = m2 - m1**2
    k3 = m3 - 3 * m1 * m2 + 2 * m1**3
    k4 = m4 - 4 * m1 * m3 - 3 * m2**2 + 12 * m1**2 * m2 - 6 * m1**4
    return np.array([k1, k2, k3, k4])


def _cumulant_generator(L, W, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, keep): M = [[L, W, 0..], [0, L, W..], ..] of CUMULANT_ORDER + 1
    blocks on d levels, dense on the positions ``keep`` that hold the sectors
    |m| <= b of block b, assembled from the COO entries of L and W."""
    q, dd = CUMULANT_ORDER, d * d
    i, j = np.divmod(np.arange(dd), d)
    keep = np.concatenate([b * dd + np.flatnonzero(np.abs(i - j) <= b) for b in range(q + 1)])
    # row and column of M of each position of the stack, -1 if dropped
    index = np.full((q + 1) * dd, -1)
    index[keep] = np.arange(keep.size)
    M = np.zeros((keep.size, keep.size), dtype=complex)
    L, W = L.tocoo(), W.tocoo()
    for G, b, col in [(L, b, b) for b in range(q + 1)] + [(W, b, b + 1) for b in range(q)]:
        r, c = index[b * dd + G.row], index[col * dd + G.col]
        hit = (r >= 0) & (c >= 0)
        M[r[hit], c[hit]] += G.data[hit]
    return M, keep


def cumulant_trace(params: ModelParams, initial: FockState, time_samples) -> list[dict]:
    """Exact cumulants kappa_1..kappa_4 and excess kurtosis along a time grid.

    The n-th J-derivative of Z at 0 is an n-fold time-ordered Dyson integral
    of W X = V X + X V between free evolutions.  All orders up to q = 4 are
    blocks of one exponential of the block upper-bidiagonal generator
    M = [[L, W, 0..], [0, L, W..], ..] (Van Loan): with rho0 in block q,
    block q - n of e^{Mt} rho0 holds the order-n integral, and
    m_n = (n!/2^n) tr[block q - n].

    L never raises the photon number and keeps the coherence label
    m = n1 - n2; each W raises or lowers one side by one and moves m by one;
    the trace reads m = 0.  So order n only needs the sectors |m| <= q - n,
    which leaves 25d - 40 unknowns on d levels (d >= 5) instead of 5d^2.  In
    row-major order L is upper triangular and W sits in the blocks above
    the diagonal, so the restricted M (:func:`_cumulant_generator`) is
    upper triangular.  One dense exponential of M per segment carries the
    stacked vector from one time sample to the next; a segment as long as
    the one before reuses it.

    A path from a state on levels <= n0 that lifts one side above
    n0 + q/2 has spent more than q/2 insertions and left |m| too large to
    return to 0 with the rest, so the run on the cutoff min(n_max, n0 + q/2)
    is exact.  When that cutoff is n_max itself, every kept sector of every
    order block passes the cutoff-weight gate of :func:`xi_evolve` at every
    sample.
    """
    import scipy.linalg as sla

    time_samples = list(time_samples)
    if not all(math.isfinite(t) for t in time_samples):
        raise ValueError(f"time samples must be finite, got {time_samples!r}")
    if any(t < 0 for t in time_samples) or sorted(time_samples) != time_samples:
        raise ValueError("time samples must be non-negative and increasing")
    q = CUMULANT_ORDER
    occupied = initial.entries != 0
    levels = np.flatnonzero(occupied.any(axis=0) | occupied.any(axis=1))
    reach = (int(levels[-1]) if levels.size else 0) + q // 2
    gated = reach > initial.n_max
    d = min(reach, initial.n_max) + 1
    action = full_generator(params, Truncation(d - 1))
    M, keep = _cumulant_generator(action.sparse_matrix(), action.source_matrix(), d)
    full = np.zeros((q + 1) * d * d, dtype=complex)
    full[q * d * d :] = initial.entries[:d, :d].ravel()
    vec = full[keep]
    weights = np.array([math.factorial(n) / 2.0**n for n in range(1, q + 1)])
    out = []
    prev, gap = 0.0, None
    for t in time_samples:
        if t > prev:
            if t - prev != gap:
                gap = t - prev
                step = sla.expm(M * gap)
            vec = step @ vec
        prev = t
        full = np.zeros((q + 1) * d * d, dtype=complex)
        full[keep] = vec
        blocks = full.reshape(q + 1, d, d)
        if gated:
            for n in range(q + 1):
                _gate_cutoff_weight(blocks[q - n], f"in order {n} at n_max={initial.n_max}, t={t}")
        # block q - n holds order n, so orders 1..q are blocks q-1..0
        orders = np.trace(blocks, axis1=1, axis2=2).real[q - 1 :: -1]
        kappa = cumulants_from_moments(weights * orders)
        kurt = kappa[3] / kappa[1] ** 2 if kappa[1] > 1e-12 else 0.0
        out.append({"t": t, "cumulants": kappa, "excess_kurtosis": float(kurt)})
    return out


def moment_by_correlator_quadrature(
    params: ModelParams, initial: FockState, t: float, n: int, nodes: int = 24
) -> float:
    """n-th moment of P as (n!/2^n) x the nested ordered V^o correlator integral.

    One Gauss-Legendre rule on [0, 1] is mapped onto [0, t] and onto each
    [0, t1]; all nodes of one order go to the oracle as one batch of
    sequences.
    """
    if n not in (1, 2):
        raise ValueError("quadrature oracle implemented for n in {1, 2}")
    check_time(t)
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    t1s, w1s = t * x, t * w
    if n == 1:
        vals = multi_time_correlators(params, [[("o", s)] for s in t1s], initial)
        return float(np.real(0.5 * np.dot(w1s, vals)))
    sequences = [[("o", t1), ("o", t2)] for t1 in t1s for t2 in t1 * x]
    weights = (w1s[:, None] * t1s[:, None] * w).ravel()
    vals = multi_time_correlators(params, sequences, initial)
    return float(np.real((2.0 / 4.0) * np.dot(weights, vals)))


@dataclass
class NoiseRun:
    """One complete noise characterization at a fixed evolution time."""

    params: ModelParams
    initial: FockState
    t: float
    J_grid: np.ndarray
    x_grid: np.ndarray = field(default=None)
    Z_values: np.ndarray = field(default=None)
    P_values: np.ndarray = field(default=None)
    moments: np.ndarray = field(default=None)    # n = 1..6, from P; n = 5, 6 to ~8 digits
    cumulants: np.ndarray = field(default=None)  # n = 1..4, exact (cumulant_trace)
    doublings: int = 0                 # J-grid doublings of the tail gate
    backend: str | None = None         # of the Z(J) nodes: "dense" at kappa2 > 0, else "expm"
    krylov_dim: int | None = None      # largest Krylov dimension of a dense node
    check_dev: float | None = None     # worst shift-and-invert relation deviation
    lu_bandwidth: int | None = None    # half-bandwidth of the dense nodes' LU
    krylov_steps: int | None = None    # Arnoldi steps over every Krylov space
    group_width: int | None = None     # most nodes run in lockstep

    @property
    def excess_kurtosis(self) -> float:
        return float(self.cumulants[3] / self.cumulants[1] ** 2)

    def to_json(self) -> str:
        p = self.params
        return json.dumps(
            {
                "params": {
                    "omega": p.omega,
                    "U": p.U,
                    "kappa1": p.kappa1,
                    "kappa2": p.kappa2,
                },
                "n_max": self.initial.n_max,
                "t": self.t,
                "J_max": float(self.J_grid[-1]),
                "N_J": len(self.J_grid),
                "Z_re": list(self.Z_values.real),
                "Z_im": list(self.Z_values.imag),
                "x": list(self.x_grid),
                "P": list(self.P_values),
                "moments": list(self.moments),
                "cumulants": list(self.cumulants),
                "excess_kurtosis": self.excess_kurtosis,
                "grid_doublings": self.doublings,
                "backend": self.backend,
                "krylov_dim_max": self.krylov_dim,
                "lu_bandwidth": self.lu_bandwidth,
                "node_check_dev": self.check_dev,
                "krylov_steps": self.krylov_steps,
                "group_width": self.group_width,
                "node_check_tol": _NODE_CHECK_TOL if self.backend == "dense" else None,
            }
        )


def run_noise(
    params: ModelParams,
    initial: FockState,
    t: float,
    J_max: float = 8.0,
    N_J: int = 257,
) -> NoiseRun:
    """Full pipeline: Z on the grid, P by inverse Fourier, moments, cumulants.

    If the tail gate |Z(J_max)| < Z_TAIL_TOL fails, J_max and N_J are doubled
    (keeping the J resolution) up to :data:`MAX_DOUBLINGS` times.  The doubled
    grid carries the previous nodes bit for bit, so each J is evaluated once.
    The run reports its doublings, the backend of its nodes and, on the
    dense backend, the largest Krylov dimension, the worst deviation of a
    node's shift-and-invert relation (against _NODE_CHECK_TOL), the
    half-bandwidth of the nodes' LU, the Arnoldi steps of all nodes and the
    widest group of nodes run in lockstep.
    """
    J_grid = symmetric_J_grid(J_max, N_J)
    known: dict[float, complex] = {}
    report = _NodeReport()
    token = _REPORT.set(report)
    try:
        for doublings in range(MAX_DOUBLINGS + 1):
            Z = generating_function(params, initial, t, J_grid, known=known)
            if max(abs(Z[0]), abs(Z[-1])) < Z_TAIL_TOL:
                break
            if doublings == MAX_DOUBLINGS:
                raise GridAdequacyError(
                    f"|Z(J_max)| = {abs(Z[-1]):.3e} after {MAX_DOUBLINGS} doublings"
                )
            J_max *= 2
            inner, N_J = J_grid, 2 * N_J - 1
            J_grid = symmetric_J_grid(J_max, N_J)
            # linspace rounds the old nodes differently on the wider grid
            offset = (len(inner) - 1) // 2
            J_grid[offset : offset + len(inner)] = inner
    finally:
        _REPORT.reset(token)
    x_grid, Pv = probability_density(Z, J_grid)
    moments = moments_from_grid(x_grid, Pv)
    trace = cumulant_trace(params, initial, [t])
    # the node figures exist on the dense route only, taken at kappa2 > 0
    nodes = dict(backend="expm")
    if params.kappa2 > 0:
        nodes = dict(backend="dense", krylov_dim=report.krylov_dim, check_dev=report.check_dev,
                     lu_bandwidth=report.bandwidth, krylov_steps=report.steps,
                     group_width=report.group_width)
    return NoiseRun(
        params=params,
        initial=initial,
        t=t,
        J_grid=J_grid,
        x_grid=x_grid,
        Z_values=Z,
        P_values=Pv,
        moments=moments,
        cumulants=trace[0]["cumulants"],
        doublings=doublings,
        **nodes,
    )
