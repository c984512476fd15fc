"""Integrated-noise statistics of the pseudomode output.

A constant source of strength J tilts the generator to L + i(J/2) V^o with
V = a + a†, and the trace of the tilted evolution is the characteristic
function Z(J) of the time-integrated noise variable x.  The statistics of x
come by four routes that the tests compare:

- exact cumulants from one block-triangular exponential whose blocks are
  the Dyson orders of Z at J = 0 (:func:`cumulant_trace`);
- finite differences of Z at J = 0 (:func:`fd_moments`);
- moments of P(x), reconstructed from Z on a J grid by inverse Fourier
  quadrature (:func:`run_noise`);
- nested time-ordered quadrature of multi-time V^o correlators
  (:func:`moment_by_correlator_quadrature`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .fockbasis import FockState, Truncation
from .oracle import IntegratorConfig, expm_propagate, multi_time_correlator, ode_propagate
from .superops import ModelParams, full_generator

__all__ = [
    "NoiseRun",
    "TruncationError",
    "GridAdequacyError",
    "xi_evolve",
    "generating_function",
    "default_x_grid",
    "probability_density",
    "moments_from_grid",
    "fd_moments",
    "cumulants_from_moments",
    "cumulant_trace",
    "moment_by_correlator_quadrature",
    "extensivity_ratio",
    "run_noise",
]

Z_TAIL_TOL = 1e-6
Z_CONJ_TOL = 1e-10
P_REALNESS_TOL = 1e-8
P_NORM_TOL = 1e-6
#: cutoff weight, relative to the largest entry, above which a state counts
#: as truncated
TOP_TOL = 1e-6
#: highest Dyson order of Z at J = 0 that cumulant_trace carries (kappa_1..4)
CUMULANT_ORDER = 4


class TruncationError(RuntimeError):
    """Population reached the Fock cutoff beyond the allowed weight."""


class GridAdequacyError(RuntimeError):
    """A J- or x-grid gate failed; results would be quadrature artifacts."""


_EIG_CACHE: dict[tuple, tuple] = {}


def _eig_propagate(params: ModelParams, initial: FockState, t: float, drive: complex) -> FockState:
    """Propagation through a full dense eigendecomposition of the tilted generator.

    Setup cost is per (params, n_max, drive) and cached, after which any t is
    a diagonal exponential; this is what makes the stiff kappa2 t >> 1 grid
    runs affordable.  Each fresh decomposition is checked against one short
    Taylor-stepped propagation before being trusted.
    """
    import scipy.linalg as sla

    from .oracle import _cached_sparse
    from .superops import InternalConsistencyError

    trunc = initial.truncation
    key = (params.omega, params.U, params.kappa1, params.kappa2, trunc.n_max, drive)
    if key not in _EIG_CACHE:
        if len(_EIG_CACHE) > 64:
            _EIG_CACHE.clear()
        mat = _cached_sparse(params, trunc, drive)
        lam, V = sla.eig(mat.toarray())
        lu = sla.lu_factor(V)
        t_check = 0.05 / (1.0 + params.kappa1 + params.kappa2 + abs(drive))
        vec0 = initial.entries.ravel().astype(complex)
        via_eig = V @ (np.exp(lam * t_check) * sla.lu_solve(lu, vec0))
        via_expm = expm_propagate(params, initial, t_check, drive=drive).entries.ravel()
        dev = np.max(np.abs(via_eig - via_expm)) / max(1.0, np.max(np.abs(via_expm)))
        if dev > 1e-8:
            raise InternalConsistencyError(
                f"tilted-generator eigendecomposition unreliable (dev {dev:.3e})"
            )
        _EIG_CACHE[key] = (lam, V, lu)
    lam, V, lu = _EIG_CACHE[key]
    vec = V @ (np.exp(lam * t) * sla.lu_solve(lu, initial.entries.ravel().astype(complex)))
    return FockState(vec.reshape(initial.entries.shape))


def xi_evolve(
    params: ModelParams,
    J: float,
    t: float,
    initial: FockState,
    config: IntegratorConfig | None = None,
    backend: str = "auto",
    top_tol: float = TOP_TOL,
) -> FockState:
    """Tilted evolution of xi under L + i(J/2) V^o from xi(0) = initial.

    Backends: "eig" (cached dense eigendecomposition, best for stiff
    two-body-loss runs), "expm" (Taylor-stepped sparse exponential), "ode"
    (the adaptive reference integrator); "auto" picks eig for small stiff
    systems and expm otherwise.  The cutoff row/column weight is gated
    against ``top_tol`` relative to the largest entry.
    """
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    drive = 0.5j * J
    if backend == "auto":
        backend = "eig" if (params.kappa2 > 0 and initial.truncation.dim <= 33) else "expm"
    if backend == "eig":
        out = _eig_propagate(params, initial, t, drive)
    elif backend == "expm":
        out = expm_propagate(params, initial, t, drive=drive)
    elif backend == "ode":
        action = full_generator(params, initial.truncation, drive=drive)
        out = ode_propagate(action, initial, t, config)
    else:
        raise ValueError("backend must be 'auto', 'eig', 'expm' or 'ode'")
    if top_tol is not None:
        _gate_cutoff_weight(out.entries, top_tol, f"at n_max={initial.n_max}, J={J}, t={t}")
    return out


def _gate_cutoff_weight(entries: np.ndarray, top_tol: float, where: str) -> None:
    """Raise TruncationError if the top row/column carries more than top_tol."""
    scale = max(np.max(np.abs(entries)), 1e-300)
    edge = max(np.max(np.abs(entries[-1, :])), np.max(np.abs(entries[:, -1])))
    # once xi has decayed to rounding noise its edge weight is meaningless
    # and contributes nothing to Z, so only gate at observable magnitude
    if edge > top_tol * scale and scale > 1e-9:
        raise TruncationError(
            f"cutoff weight {edge / scale:.3e} exceeds {top_tol:.1e} {where}"
        )


def symmetric_J_grid(J_max: float, N_J: int) -> np.ndarray:
    if N_J % 2 == 0 or N_J < 3:
        raise ValueError("N_J must be odd and >= 3 so the grid includes 0")
    return np.linspace(-J_max, J_max, N_J)


def generating_function(
    params: ModelParams,
    initial: FockState,
    t: float,
    J_grid: np.ndarray,
    config: IntegratorConfig | None = None,
    backend: str = "auto",
) -> np.ndarray:
    """Z(J) = tr xi(t) over a symmetric grid; the J < 0 half is conj-mirrored."""
    J_grid = np.asarray(J_grid, dtype=float)
    if np.max(np.abs(J_grid + J_grid[::-1])) > 1e-12 or not np.any(J_grid == 0):
        raise ValueError("J grid must be symmetric about and include 0")
    half = J_grid[J_grid >= 0]
    Z_half = np.array(
        [xi_evolve(params, J, t, initial, config, backend).trace() for J in half]
    )
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


def probability_density(
    Z_values: np.ndarray, J_grid: np.ndarray, x_grid: np.ndarray | None = None
):
    """P(x) by trapezoidal quadrature of (1/2pi) int dJ Z(J) e^{-iJx}.

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
    if x_grid is None:
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


def moments_from_grid(x_grid: np.ndarray, P_values: np.ndarray, orders=range(1, 7)) -> np.ndarray:
    return np.array(
        [float(np.trapezoid(P_values * x_grid**n, x_grid)) for n in orders]
    )


def fd_moments(z_of_J, step: float, n_points: int = 9) -> np.ndarray:
    """Moments m_1..m_{n_points-1} from derivatives of Z at J = 0.

    ``z_of_J`` maps a float J to Z(J); the stencil is interpolated exactly
    by a degree n_points-1 polynomial in the scaled variable J/step, whose
    coefficients give the derivatives without Vandermonde blow-up.
    """
    half = n_points // 2
    u = np.arange(-half, half + 1, dtype=float)
    Zs = np.array([z_of_J(step * uu) for uu in u], dtype=complex)
    coeffs = P.polyfit(u, Zs, n_points - 1)
    orders = np.arange(1, n_points)
    derivs = coeffs[1:] * np.array([float(math.factorial(n)) for n in orders]) / step**orders
    return np.real((-1j) ** orders * derivs)


def cumulants_from_moments(m: np.ndarray) -> np.ndarray:
    """kappa_1..kappa_4 from raw moments m[0]=m_1 ... m[3]=m_4."""
    m1, m2, m3, m4 = m[:4]
    k1 = m1
    k2 = m2 - m1**2
    k3 = m3 - 3 * m1 * m2 + 2 * m1**3
    k4 = m4 - 4 * m1 * m3 - 3 * m2**2 + 12 * m1**2 * m2 - 6 * m1**4
    return np.array([k1, k2, k3, k4])


def cumulant_trace(params: ModelParams, initial: FockState, time_samples) -> list[dict]:
    """Exact cumulants kappa_1..kappa_4 and excess kurtosis along a time grid.

    The n-th J-derivative of Z at 0 is an n-fold time-ordered Dyson integral
    of W X = V X + X V between free evolutions.  All orders up to q = 4 are
    blocks of one exponential of the block upper-bidiagonal generator
    M = [[L, W, 0..], [0, L, W..], ..] (Van Loan): with rho0 in block q,
    block q - n of e^{Mt} rho0 holds the order-n integral, and
    m_n = (n!/2^n) tr[block q - n].  The stacked vector is carried from one
    time sample to the next by one exponential action per segment.

    L never raises the photon number and keeps the coherence label
    m = n1 - n2; each W raises or lowers one side by one and moves m by one;
    the trace reads m = 0.  A path from a state on levels <= n0 that lifts
    one side above n0 + q/2 has spent more than q/2 insertions and left |m|
    too large to return to 0 with the rest, so the run on the cutoff
    min(n_max, n0 + q/2) is exact.  When that cutoff is n_max itself, every
    order block passes the cutoff-weight gate of :func:`xi_evolve` at every
    sample.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    time_samples = list(time_samples)
    if any(t < 0 for t in time_samples) or sorted(time_samples) != time_samples:
        raise ValueError("time samples must be non-negative and increasing")
    q = CUMULANT_ORDER
    occupied = initial.entries != 0
    levels = np.flatnonzero(occupied.any(axis=0) | occupied.any(axis=1))
    reach = (int(levels[-1]) if levels.size else 0) + q // 2
    gated = reach > initial.n_max
    d = min(reach, initial.n_max) + 1
    action = full_generator(params, Truncation(d - 1))
    L = action.sparse_matrix()
    W = action.source_matrix()
    M = sp.bmat(
        [[L if j == i else W if j == i + 1 else None for j in range(q + 1)]
         for i in range(q + 1)],
        format="csr",
    )
    vec = np.zeros((q + 1) * d * d, dtype=complex)
    vec[q * d * d :] = initial.entries[:d, :d].ravel()
    weights = np.array([math.factorial(n) / 2.0**n for n in range(1, q + 1)])
    out = []
    prev = 0.0
    for t in time_samples:
        if t > prev:
            vec = spla.expm_multiply(M * (t - prev), vec)
        prev = t
        blocks = vec.reshape(q + 1, d, d)
        if gated:
            for n in range(q + 1):
                _gate_cutoff_weight(
                    blocks[q - n], TOP_TOL, f"in order {n} at n_max={initial.n_max}, t={t}"
                )
        # block q - n holds order n, so orders 1..q are blocks q-1..0
        orders = np.trace(blocks, axis1=1, axis2=2).real[q - 1 :: -1]
        kappa = cumulants_from_moments(weights * orders)
        kurt = kappa[3] / kappa[1] ** 2 if kappa[1] > 1e-12 else 0.0
        out.append({"t": t, "cumulants": kappa, "excess_kurtosis": float(kurt)})
    return out


def _gauss_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def moment_by_correlator_quadrature(
    params: ModelParams, initial: FockState, t: float, n: int, nodes: int = 24
) -> float:
    """n-th moment of P as (n!/2^n) x the nested ordered V^o correlator integral."""
    if n == 1:
        ts, ws = _gauss_nodes(0.0, t, nodes)
        vals = [multi_time_correlator(params, [("o", s)], initial) for s in ts]
        return float(np.real(0.5 * np.dot(ws, vals)))
    if n == 2:
        t1s, w1s = _gauss_nodes(0.0, t, nodes)
        total = 0.0 + 0j
        for t1, w1 in zip(t1s, w1s):
            t2s, w2s = _gauss_nodes(0.0, t1, nodes)
            inner = sum(
                w2 * multi_time_correlator(params, [("o", t1), ("o", t2)], initial)
                for t2, w2 in zip(t2s, w2s)
            )
            total += w1 * inner
        return float(np.real((2.0 / 4.0) * total))
    raise ValueError("quadrature oracle implemented for n in {1, 2}")


def extensivity_ratio(params: ModelParams, initial: FockState, t: float) -> float:
    """var(2t)/var(t): the long-time linear growth check of the exact variance."""
    out = cumulant_trace(params, initial, [t, 2 * t])
    return float(out[1]["cumulants"][1] / out[0]["cumulants"][1])


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
    moments: np.ndarray = field(default=None)    # n = 1..6, from P
    cumulants: np.ndarray = field(default=None)  # n = 1..4, exact (cumulant_trace)

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
            }
        )

    def z_csv(self) -> str:
        lines = ["J,re_Z,im_Z"]
        for J, z in zip(self.J_grid, self.Z_values):
            lines.append(f"{J:.17g},{z.real:.17g},{z.imag:.17g}")
        return "\n".join(lines) + "\n"

    def p_csv(self) -> str:
        lines = ["x,P"]
        for x, p in zip(self.x_grid, self.P_values):
            lines.append(f"{x:.17g},{p:.17g}")
        return "\n".join(lines) + "\n"


def run_noise(
    params: ModelParams,
    initial: FockState,
    t: float,
    J_max: float = 8.0,
    N_J: int = 257,
    config: IntegratorConfig | None = None,
    max_doublings: int = 3,
) -> NoiseRun:
    """Full pipeline: Z on the grid, P by inverse Fourier, moments, cumulants.

    If the tail gate |Z(J_max)| < Z_TAIL_TOL fails, J_max and N_J are doubled
    (keeping the J resolution) up to ``max_doublings`` times.
    """
    for attempt in range(max_doublings + 1):
        J_grid = symmetric_J_grid(J_max, N_J)
        Z = generating_function(params, initial, t, J_grid, config)
        if max(abs(Z[0]), abs(Z[-1])) < Z_TAIL_TOL:
            break
        if attempt == max_doublings:
            raise GridAdequacyError(
                f"|Z(J_max)| = {abs(Z[-1]):.3e} after {max_doublings} doublings"
            )
        J_max *= 2
        N_J = 2 * N_J - 1
    x_grid, Pv = probability_density(Z, J_grid)
    moments = moments_from_grid(x_grid, Pv, range(1, 7))
    trace = cumulant_trace(params, initial, [t])
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
    )
