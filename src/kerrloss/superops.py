"""Superoperators of the lossy Kerr mode, in full and block representations.

The generator is

    L X = -i[H, X] + kappa1 D[a] X + kappa2 D[a^2] X,
    H   = omega N + (U/2)(N^2 - N),

with D[c] X = c X c† - (c† c X + X c† c)/2.  Phase-rotation symmetry makes
L commute with the number commutator N^x, so it is block diagonal over the
coherence label m, and within each block it is upper triangular with
bandwidth 2: the lowering superoperator A X = a X a† only decreases k.

Block matrices here are built by direct operator algebra (apply the dense
operators to each ketbra and read off components); the closed-form
eigen-expressions live in :mod:`kerrloss.spectral` and are checked against
these constructions.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fockbasis import BlockVector, FockState, Truncation, from_blocks, phi_indices, to_blocks

__all__ = [
    "ModelParams",
    "BlockMatrix",
    "InternalConsistencyError",
    "annihilation",
    "number_diag",
    "block_A_matrix",
    "apply_A",
    "apply_exp_A",
    "expm_nilpotent",
    "superop_block",
    "liouvillian_block",
    "transformed_block",
    "c_superdiagonal",
    "GeneratorAction",
    "full_generator",
    "similarity_identity_suite",
    "block_matrix_csv",
]


class InternalConsistencyError(AssertionError):
    """Two independent constructions of the same object disagree."""


@dataclass(frozen=True)
class ModelParams:
    """Model constants: frequency, Kerr strength, one- and two-body loss rates."""

    omega: float
    U: float
    kappa1: float
    kappa2: float
    allow_unitary: bool = False

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.omega, self.U, self.kappa1, self.kappa2)):
            raise ValueError("model parameters must be finite")
        if self.kappa1 < 0 or self.kappa2 < 0:
            raise ValueError("loss rates must be non-negative")
        if self.kappa1 == 0 and self.kappa2 == 0 and not self.allow_unitary:
            raise ValueError(
                "kappa1 = kappa2 = 0 is the Hamiltonian-only case; "
                "pass allow_unitary=True to accept it"
            )


@dataclass
class BlockMatrix:
    """Complex matrix over the k-index of one block; row = output, col = input."""

    m: int
    entries: np.ndarray
    upper_bandwidth: int | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ValueError("block matrix must be square")
        if self.upper_bandwidth is None:
            self.upper_bandwidth = measured_upper_bandwidth(self.entries)


def measured_upper_bandwidth(mat: np.ndarray) -> int:
    nz = np.argwhere(mat != 0)
    if nz.size == 0:
        return 0
    return int(np.max(nz[:, 1] - nz[:, 0]))


def annihilation(trunc: Truncation) -> np.ndarray:
    """Dense a with a|n> = sqrt(n)|n-1>."""
    d = trunc.dim
    mat = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        mat[n - 1, n] = math.sqrt(n)
    return mat


def number_diag(trunc: Truncation) -> np.ndarray:
    return np.arange(trunc.dim, dtype=float)


def block_A_matrix(trunc: Truncation, m: int) -> np.ndarray:
    """Matrix of A X = a X a† on block m: A phi_k = sqrt(k(k+|m|)) phi_{k-1}."""
    size = trunc.block_size(m)
    mat = np.zeros((size, size), dtype=complex)
    am = abs(m)
    for k in range(1, size):
        mat[k - 1, k] = math.sqrt(k * (k + am))
    return mat


def apply_A(v: BlockVector, trunc: Truncation, power: int = 1) -> BlockVector:
    """A^power applied to a block vector (exact lowering, no truncation loss)."""
    if power < 0:
        raise ValueError("power must be non-negative")
    out = v.coeffs.copy()
    am = abs(v.m)
    for _ in range(power):
        shifted = np.zeros_like(out)
        k = np.arange(1, len(out))
        shifted[:-1] = np.sqrt(k * (k + am)) * out[1:]
        out = shifted
    return BlockVector(v.m, out)


def expm_nilpotent(mat: np.ndarray) -> np.ndarray:
    """exp of a nilpotent matrix by its exact finite series."""
    n = mat.shape[0]
    out = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for j in range(1, n):
        term = term @ mat / j
        if not term.any():
            break
        out += term
    return out


def apply_exp_A(v: BlockVector, trunc: Truncation, scale: complex) -> BlockVector:
    """e^{scale A} v via the finite nilpotent series (exact)."""
    out = v.coeffs.copy()
    term = v.coeffs.copy()
    am = abs(v.m)
    k = np.arange(1, len(out))
    # precision follows the input dtype so extended-precision callers keep
    # their extra digits through the alternating series
    factors = np.sqrt((k * (k + am)).astype(out.real.dtype))
    for j in range(1, len(out)):
        lowered = np.zeros_like(term)
        lowered[:-1] = factors * term[1:]
        term = scale * lowered / j
        if not term.any():
            break
        out += term
    return BlockVector(v.m, out)


def superop_block(apply_full, trunc: Truncation, m: int) -> np.ndarray:
    """Block-m matrix of a number-conserving superoperator by operator algebra.

    ``apply_full`` maps a dense (dim, dim) operator to another; each ketbra
    phi_k^(m) is pushed through it and the phi_j^(m) components are read off.
    """
    size = trunc.block_size(m)
    mat = np.zeros((size, size), dtype=complex)
    for k in range(size):
        ketbra = np.zeros((trunc.dim, trunc.dim), dtype=complex)
        n1, n2 = phi_indices(m, k)
        ketbra[n1, n2] = 1.0
        image = apply_full(ketbra)
        for j in range(size):
            p1, p2 = phi_indices(m, j)
            mat[j, k] = image[p1, p2]
    return mat


def _hamiltonian_diag(params: ModelParams, trunc: Truncation) -> np.ndarray:
    n = number_diag(trunc)
    return params.omega * n + 0.5 * params.U * (n * n - n)


class GeneratorAction:
    """Matrix-free action X -> L X + drive (V X + X V), V = a + a†.

    ``apply`` broadcasts over leading batch axes, so a whole grid of states
    can be evolved in one call.  ``sparse_matrix`` gives the vectorized
    (dim^2, dim^2) CSR form for matrix-exponential propagation.
    """

    def __init__(self, params: ModelParams, trunc: Truncation, drive: complex = 0.0):
        self.params = params
        self.trunc = trunc
        self.drive = complex(drive)
        self.a = annihilation(trunc)
        self.a2 = self.a @ self.a
        self.adag = self.a.conj().T
        self.a2dag = self.a2.conj().T
        n = number_diag(trunc)
        self.h_diag = _hamiltonian_diag(params, trunc)
        self.n_diag = n
        self.nn_diag = n * n - n
        self.V = self.a + self.adag

    def apply(self, X: np.ndarray) -> np.ndarray:
        p = self.params
        h = self.h_diag
        out = -1j * (h[:, None] * X - X * h[None, :])
        if p.kappa1:
            out += p.kappa1 * (
                self.a @ X @ self.adag
                - 0.5 * (self.n_diag[:, None] * X + X * self.n_diag[None, :])
            )
        if p.kappa2:
            out += p.kappa2 * (
                self.a2 @ X @ self.a2dag
                - 0.5 * (self.nn_diag[:, None] * X + X * self.nn_diag[None, :])
            )
        if self.drive:
            out += self.drive * (self.V @ X + X @ self.V)
        return out

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.apply(X)

    def apply_state(self, state: FockState) -> FockState:
        return FockState(self.apply(state.entries))

    def _left(self, op) -> sp.csr_matrix:
        """X -> op X in the row-major vectorization."""
        eye = sp.identity(self.trunc.dim, dtype=complex, format="csr")
        return sp.kron(sp.csr_matrix(op), eye, format="csr")

    def _right(self, op) -> sp.csr_matrix:
        """X -> X op in the row-major vectorization."""
        eye = sp.identity(self.trunc.dim, dtype=complex, format="csr")
        return sp.kron(eye, sp.csr_matrix(np.asarray(op).T), format="csr")

    def source_matrix(self) -> sp.csr_matrix:
        """Vectorized V^o X = V X + X V, the operator the drive multiplies."""
        return (self._left(self.V) + self._right(self.V)).tocsr()

    def sparse_matrix(self) -> sp.csr_matrix:
        p = self.params
        left, right = self._left, self._right

        def sandwich(op):
            return sp.kron(sp.csr_matrix(op), sp.csr_matrix(np.asarray(op).conj()), format="csr")

        H = np.diag(self.h_diag).astype(complex)
        N = np.diag(self.n_diag).astype(complex)
        NN = np.diag(self.nn_diag).astype(complex)
        mat = -1j * (left(H) - right(H))
        if p.kappa1:
            mat = mat + p.kappa1 * (sandwich(self.a) - 0.5 * (left(N) + right(N)))
        if p.kappa2:
            mat = mat + p.kappa2 * (sandwich(self.a2) - 0.5 * (left(NN) + right(NN)))
        if self.drive:
            mat = mat + self.drive * self.source_matrix()
        return mat.tocsr()


def full_generator(params: ModelParams, trunc: Truncation, drive: complex = 0.0) -> GeneratorAction:
    return GeneratorAction(params, trunc, drive)


def liouvillian_block(params: ModelParams, trunc: Truncation, m: int) -> BlockMatrix:
    """Block-m matrix of L by direct operator algebra (the oracle constructor)."""
    action = GeneratorAction(params, trunc, drive=0.0)
    mat = superop_block(action.apply, trunc, m)
    bw = measured_upper_bandwidth(mat)
    if bw > 2 or np.any(np.tril(mat, -1) != 0):
        raise InternalConsistencyError("Liouvillian block is not upper triangular banded")
    return BlockMatrix(m, mat, upper_bandwidth=bw)


def c_superdiagonal(params: ModelParams, m: int, k: int, signed_m_in_loss: bool = False) -> complex:
    """Superdiagonal entry of e^A L e^{-A}: coefficient of phi_{k-1} from phi_k.

    The two-body-loss bracket uses |m|; ``signed_m_in_loss`` evaluates the
    signed-m variant instead (kept for documentation of the discrepancy, the
    conjugation construction arbitrates in tests).
    """
    am = abs(m)
    loss_m = m if signed_m_in_loss else am
    return -math.sqrt(k * (k + am)) * (params.kappa2 * (2 * (k - 1) + loss_m) + 1j * params.U * m)


def _transformed_diag(params: ModelParams, m: int, k: int) -> complex:
    """Diagonal of e^A L e^{-A} from the N-superoperator eigenvalues on phi_k^(m)."""
    nc = 2 * k + abs(m)  # anticommutator eigenvalue
    nn_cross = (nc - 1) * m
    nn_circ = 0.5 * (nc * nc + m * m) - nc
    return (
        -1j * params.omega * m
        - 0.5 * params.kappa1 * nc
        - 0.5j * params.U * nn_cross
        - 0.5 * params.kappa2 * nn_circ
    )


def transformed_block(
    params: ModelParams,
    trunc: Truncation,
    m: int,
    verify: bool = False,
    tol: float = 1e-12,
    signed_m_in_loss: bool = False,
) -> BlockMatrix:
    """Bidiagonal e^A L e^{-A} on block m from the closed form.

    With ``verify=True`` the same matrix is built by conjugating the
    operator-algebra Liouvillian block with the exact nilpotent exponentials
    and the two must agree entrywise to ``tol``.
    """
    size = trunc.block_size(m)
    mat = np.zeros((size, size), dtype=complex)
    for k in range(size):
        mat[k, k] = _transformed_diag(params, m, k)
        if k >= 1:
            mat[k - 1, k] = c_superdiagonal(params, m, k, signed_m_in_loss=signed_m_in_loss)
    if verify:
        A = block_A_matrix(trunc, m)
        conj = expm_nilpotent(A) @ liouvillian_block(params, trunc, m).entries @ expm_nilpotent(-A)
        scale = max(1.0, float(np.max(np.abs(conj))))
        dev = float(np.max(np.abs(conj - mat))) / scale
        if dev > tol:
            raise InternalConsistencyError(
                f"closed-form and conjugated transformed blocks disagree (rel dev {dev:.3e})"
            )
    return BlockMatrix(m, mat, upper_bandwidth=1)


def similarity_identity_suite(params: ModelParams, trunc: Truncation, m: int) -> dict:
    """Entrywise checks of the e^A conjugation identities on block m.

    Both sides of every identity are assembled from operator-algebra block
    matrices, so the report is independent of any closed-form expression.
    """
    a = annihilation(trunc)
    adag = a.conj().T
    N = np.diag(number_diag(trunc)).astype(complex)
    NN = N @ N - N

    n_cross = superop_block(lambda X: N @ X - X @ N, trunc, m)
    n_circ = superop_block(lambda X: N @ X + X @ N, trunc, m)
    nn_circ = superop_block(lambda X: NN @ X + X @ NN, trunc, m)
    A_blk = superop_block(lambda X: a @ X @ adag, trunc, m)
    d_a = superop_block(lambda X: a @ X @ adag - 0.5 * (N @ X + X @ N), trunc, m)
    a2 = a @ a
    d_a2 = superop_block(lambda X: a2 @ X @ a2.conj().T - 0.5 * (NN @ X + X @ NN), trunc, m)

    expA = expm_nilpotent(A_blk)
    expmA = expm_nilpotent(-A_blk)
    eye = np.eye(A_blk.shape[0], dtype=complex)

    def conj(mat):
        return expA @ mat @ expmA

    checks = {
        "n_cross_invariant": (conj(n_cross), n_cross),
        "n_circ_shift": (conj(n_circ), n_circ + 2 * A_blk),
        "one_body_dissipator": (conj(d_a), -0.5 * n_circ),
        "two_body_dissipator": (conj(d_a2), A_blk @ (2 * eye - n_circ) - 0.5 * nn_circ),
    }
    tolerance = 1e-12
    report = {}
    for name, (lhs, rhs) in checks.items():
        # e^A entries grow combinatorially with the cutoff, so compare
        # relative to the magnitude of the identity being tested
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        dev = float(np.max(np.abs(lhs - rhs))) / scale
        report[name] = {"max_dev": dev, "tolerance": tolerance, "pass": dev < tolerance}
    return report


def block_matrix_csv(blocks: list[BlockMatrix]) -> str:
    """CSV dump `m,row,col,re,im`, zero entries omitted."""
    buf = io.StringIO()
    buf.write("m,row,col,re,im\n")
    for blk in blocks:
        for (r, c) in np.argwhere(blk.entries != 0):
            v = blk.entries[r, c]
            buf.write(f"{blk.m},{r},{c},{v.real:.17g},{v.imag:.17g}\n")
    return buf.getvalue()


def blocks_apply(blocks_mats: dict[int, np.ndarray], state: FockState) -> FockState:
    """Apply per-block matrices to a state via the block decomposition."""
    blocks = to_blocks(state)
    out = {m: BlockVector(m, blocks_mats[m] @ v.coeffs) for m, v in blocks.items()}
    return from_blocks(out, state.truncation)
