"""Brute-force reference implementations.

Everything here consumes only the operator-level definition of the
generator (dense matrices for a, N and the dissipators); none of the
closed-form eigenvalue, eigenvector or propagator expressions from
:mod:`kerrloss.spectral` / :mod:`kerrloss.evolution` may appear.  These
routines arbitrate every derived value used in the tests.

The multi-time correlators run on the Fock levels their sequences can
reach: K = min(n_max, max(2, n0 + n // 2)) for a state whose highest
nonzero level is n0 and a longest sequence of n insertions.  They cut the
vectorized generator on those levels into one dense block per coherence
sector m = i - j, found from its own row-major indices and gated to be
uncoupled, and evolve all sequences of one length at once: one stacked
Pade exponential per step and per sector that can still reach the trace,
each sequence with its own gap.
"""

from __future__ import annotations

import numpy as np

from .fockbasis import FockState, Truncation
from .superops import (
    BlockMatrix,
    GeneratorAction,
    InternalConsistencyError,
    ModelParams,
    annihilation,
    check_time,
    full_generator,
    sector_blocks,
)

__all__ = [
    "ode_propagate",
    "expm_propagate",
    "multi_time_correlators",
    "right_residual",
    "left_residual",
]

#: relative and absolute tolerances of the adaptive reference integrator
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
#: bytes of the four (chunk, d, d) complex stacks that one chunk of
#: :func:`multi_time_correlators` holds at once (state, exponentials, insertion)
CHUNK_BYTES = 1 << 22


class StiffnessError(RuntimeError):
    """The adaptive reference integrator of :func:`ode_propagate` failed."""


def right_residual(Lb: BlockMatrix, lam: complex, v: np.ndarray) -> float:
    """|| Lb v - lam v || / (scale ||v||)."""
    scale = max(1.0, float(np.max(np.abs(Lb.entries))))
    return float(np.linalg.norm(Lb.entries @ v - lam * v) / (scale * np.linalg.norm(v)))


def left_residual(Lb: BlockMatrix, lam: complex, u: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(Lb.entries))))
    return float(np.linalg.norm(u @ Lb.entries - lam * u) / (scale * np.linalg.norm(u)))


def ode_propagate(action: GeneratorAction, initial: FockState, t: float) -> FockState:
    """Reference integration of dX/dt = action(X) from X(0) = initial to time
    t, by the embedded 4/5 Runge-Kutta pair at :data:`ODE_RTOL` and
    :data:`ODE_ATOL`."""
    from scipy.integrate import solve_ivp

    check_time(t)
    if t == 0:
        return initial.copy()
    d = initial.entries.shape[0]

    def rhs(_, y):
        return action.apply(y.reshape(d, d)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, t),
        initial.entries.ravel().astype(complex),
        method="RK45",
        rtol=ODE_RTOL,
        atol=ODE_ATOL,
    )
    if not sol.success:
        raise StiffnessError(f"adaptive integrator failed: {sol.message}")
    return FockState(sol.y[:, -1].reshape(d, d))


def expm_propagate(
    params: ModelParams, initial: FockState, t: float, drive: complex = 0.0
) -> FockState:
    """e^{Lt} initial through the vectorized sparse generator.

    Handles the stiff two-body-loss regime (kappa2 n_max^2 t large) where
    explicit stepping is impractical.
    """
    import scipy.sparse.linalg as spla

    check_time(t)
    if t == 0:
        return initial.copy()
    d = initial.entries.shape[0]
    mat = full_generator(params, initial.truncation, complex(drive)).sparse_matrix()
    vec = spla.expm_multiply(mat * t, initial.entries.ravel().astype(complex))
    return FockState(vec.reshape(d, d))


def _check_sequence(sequence) -> None:
    """Raise ValueError unless ``sequence`` is a valid insertion list."""
    if not sequence:
        raise ValueError("empty superoperator sequence")
    for tag, _ in sequence:
        if tag not in ("+", "-", "o"):
            raise ValueError(f"unknown superoperator tag {tag!r} (use '+', '-', 'o')")
    times = [float(t) for _, t in sequence]
    if not all(np.isfinite(times)):
        raise ValueError("insertion times must be finite")
    if any(t2 > t1 for t1, t2 in zip(times, times[1:])) or times[-1] < 0:
        raise ValueError("times must satisfy t1 >= t2 >= ... >= tn >= 0")


#: coefficients b_0..b_13 of the degree-13 Pade approximant to exp, and the
#: 1-norm up to which it is accurate to double precision (Higham, SIAM J.
#: Matrix Anal. Appl. 26, 1179 (2005))
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _exp_divided_difference(x: np.ndarray) -> np.ndarray:
    """(e^{x_{k+1}} - e^{x_k}) / (x_{k+1} - x_k) along the last axis, and
    e^{x_k} where the two points agree."""
    ex = np.exp(x)
    den = np.diff(x, axis=-1)
    equal = den == 0
    return np.where(equal, ex[..., :-1], np.diff(ex, axis=-1) / np.where(equal, 1.0, den))


def _stacked_expm(block: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """exp(block * g) for every gap g >= 0, for one upper-triangular block.

    Returns the stack (len(gaps), n, n).  One degree-13 Pade approximant
    serves the whole stack, each matrix X = block g 2^-s scaled by its own
    power of two and squared back s times.  The approximant is evaluated
    in Higham's nesting, and since every X is a multiple c block, the
    powers block^2, ^4, ^6 are formed once and scaled by c^2, c^4, c^6.
    After each squaring the diagonal and first superdiagonal are set to
    their exact values, as ``scipy.linalg.expm`` does for a triangular
    matrix (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009),
    Code Fragment 2.1).  A zero gap, or a diagonal block, gets the
    exponential of the diagonal, so a zero gap gives the identity exactly.
    """
    n = block.shape[0]
    k = np.arange(n)
    gaps = np.asarray(gaps, dtype=float)
    norm = gaps * np.max(np.sum(np.abs(block), axis=0))
    s = np.zeros(len(gaps), dtype=int)
    big = norm > _THETA13
    s[big] = np.ceil(np.log2(norm[big] / _THETA13))
    c = gaps * np.ldexp(1.0, -s)
    B2 = block @ block
    B4 = B2 @ B2
    B6 = B2 @ B4
    powers = np.stack([B6, B4, B2, np.eye(n)]).reshape(4, n * n)
    scales = np.stack([c**6, c**4, c**2, np.ones_like(c)], axis=1)

    def even(b6, b4, b2, b0):
        # b6 X^6 + b4 X^4 + b2 X^2 + b0 I for every X
        return ((scales * (b6, b4, b2, b0)) @ powers).reshape(-1, n, n)

    # in-place updates keep the working set at three stacks
    b = _PADE13
    c6 = scales[:, 0, None, None]
    U = B6 @ even(b[13], b[11], b[9], 0.0)
    U *= c6
    U += even(b[7], b[5], b[3], b[1])
    U = block @ U
    U *= c[:, None, None]
    V = B6 @ even(b[12], b[10], b[8], 0.0)
    V *= c6
    V += even(b[6], b[4], b[2], b[0])
    P = V + U
    V -= U
    del U
    E = np.linalg.solve(V, P)
    del V, P
    diag = np.multiply.outer(gaps, np.diag(block))
    superdiag = np.multiply.outer(gaps, np.diag(block, 1))
    scaled = np.flatnonzero(s)
    E[scaled[:, None], k, k] = np.exp(diag[scaled] * np.ldexp(1.0, -s[scaled])[:, None])
    for squared in range(1, int(s.max(initial=0)) + 1):
        idx = np.flatnonzero(s >= squared)
        Ei = E[idx]
        Ei = Ei @ Ei
        step = np.ldexp(1.0, squared - s[idx])[:, None]
        Ei[:, k, k] = np.exp(diag[idx] * step)
        Ei[:, k[:-1], k[1:]] = _exp_divided_difference(diag[idx] * step) * (superdiag[idx] * step)
        E[idx] = Ei
    diagonal_block = np.count_nonzero(block) == np.count_nonzero(np.diag(block))
    exact = np.flatnonzero((gaps == 0) | diagonal_block)
    E[exact] = 0.0
    E[exact[:, None], k, k] = np.exp(diag[exact])
    return E


def _assert_trace_invariance(B0: np.ndarray, kappa2: float) -> float:
    """Check that the identity is a left null vector of the sector-0 block.

    The telescoped correlator drops the leading inverse propagator; that is
    only legitimate because tr[L X] = 0 for every X.  No block couples two
    sectors and only sector 0 (the diagonal, in order) has a trace, so the
    condition is exactly 1^T B0 = 0; the inverse propagator must then keep
    1^T fixed, checked at a step where its amplification stays benign: the
    two-body decay rate of the top level K of the block is about kappa2 K^2,
    so the step 0.02/(kappa2 K^2) shrinks with it.  Returns the larger
    deviation-to-tolerance ratio.
    """
    import scipy.linalg

    dev0 = float(np.max(np.abs(B0.sum(axis=0)))) / max(1.0, float(np.max(np.abs(B0))))
    if not dev0 <= 1e-12:
        raise InternalConsistencyError(
            f"identity is not a left null vector of the generator (dev {dev0:.3e})"
        )
    top = B0.shape[0] - 1
    prop = scipy.linalg.expm(B0 * (-0.02 / max(1.0, kappa2 * top**2)))
    dev = float(np.max(np.abs(prop.sum(axis=0) - 1.0)))
    tol = 1e-9 * max(1.0, float(np.max(np.abs(prop))))
    if not dev <= tol:
        raise InternalConsistencyError(
            f"trace not invariant under the inverse propagator (dev {dev:.3e})"
        )
    return max(dev0 / 1e-12, dev / tol)


def _insert(V: np.ndarray, states: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """V X for tag '+', X V for '-' and V X + X V for 'o', one per state."""
    left = V @ states
    left[tags == "-"] = 0.0
    right = states @ V
    right[tags == "+"] = 0.0
    left += right
    return left


def multi_time_correlators(params: ModelParams, sequences, initial: FockState) -> np.ndarray:
    """tr[ V~^{p1}(t1) ... V~^{pn}(tn) rho ] for V = a + a†, one per sequence.

    Each sequence is [(tag, time), ...] with finite times t1 >= ... >= tn >= 0
    and tags in {'+', '-', 'o'}; all are validated before any propagation.
    Evaluated in the telescoped form: evolve by tn, apply V^{pn}, evolve by
    the next gap, and so on; the leading inverse propagator is dropped by
    trace invariance (checked on every call).

    The generator is built once per call from the operator-level
    definition, on the levels <= K = min(n_max, max(2, n0 + n // 2)), with
    n0 the highest level that holds a nonzero of ``initial`` and n the
    length of the longest sequence; the state is cropped to K (the floor 2
    is the smallest truncation).  This is exact, by the argument of
    :func:`~kerrloss.noise.cumulant_trace`: L never raises a level and keeps
    m = i - j, each insertion moves one side by one, and a path that lifts
    one side above n0 + n // 2 has left |m| too large to return to 0, where
    the trace reads.  At K = n_max nothing is cropped.  The generator never
    couples two coherence sectors m = i - j of the row-major vectorisation
    (checked), so it is cut into one dense block per sector.  Every
    insertion moves m by exactly one and the trace reads m = 0, so with r
    insertions still to apply only the sectors |m| <= r are evolved and the
    rest are dropped.  All sequences of one length are
    evolved together, in chunks whose (chunk, d, d) complex stacks stay
    within :data:`CHUNK_BYTES`: at each step, each sector that is nonzero in
    some sequence of the chunk takes one stacked exponential of its block
    times every sequence's own gap (see :func:`_stacked_expm`).
    """
    sequences = [list(seq) for seq in sequences]
    for seq in sequences:
        _check_sequence(seq)
    occupied = initial.entries != 0
    held = np.flatnonzero(occupied.any(axis=0) | occupied.any(axis=1))
    n0 = int(held[-1]) if held.size else 0
    longest = max((len(seq) for seq in sequences), default=0)
    cut = min(initial.n_max, max(2, n0 + longest // 2))
    d = cut + 1
    trunc = Truncation(cut)
    blocks = sector_blocks(full_generator(params, trunc).sparse_matrix(), d)
    _assert_trace_invariance(blocks[d - 1], params.kappa2)
    V = annihilation(trunc)
    V = V + V.conj().T
    levels = np.arange(d)
    distance = np.abs(np.subtract.outer(levels, levels))  # |m| of each entry
    out = np.empty(len(sequences), dtype=complex)
    by_length: dict[int, list[int]] = {}
    for n, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(n)
    size = max(1, CHUNK_BYTES // (4 * 16 * d * d))
    chunks = [(length, ns[lo : lo + size]) for length, ns in by_length.items()
              for lo in range(0, len(ns), size)]
    for length, members in chunks:
        tags = np.array([[tag for tag, _ in sequences[n]] for n in members])
        times = np.array([[t for _, t in sequences[n]] for n in members])
        state = np.repeat(initial.entries[:d, :d].astype(complex)[None], len(members), axis=0)
        prev = np.zeros(len(members))
        # from the last insertion back: evolve up to its time, then insert
        for step in range(length - 1, -1, -1):
            reach = step + 1
            gaps = times[:, step] - prev
            for m in range(max(-reach, 1 - d), min(reach, d - 1) + 1):
                kk = np.arange(d - abs(m))
                i, j = kk + max(m, 0), kk + max(-m, 0)
                x = state[:, i, j]
                if x.any():
                    block = blocks[m + d - 1, : len(kk), : len(kk)]
                    state[:, i, j] = np.einsum("nkl,nl->nk", _stacked_expm(block, gaps), x)
            state[:, distance > reach] = 0.0
            state = _insert(V, state, tags[:, step])
            prev = times[:, step]
        out[members] = np.trace(state, axis1=1, axis2=2)
    return out
