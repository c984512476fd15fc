"""Superoperators of the lossy Kerr mode, in full and block representations.

The generator is

    L X = -i[H, X] + kappa1 D[a] X + kappa2 D[a^2] X,
    H   = omega N + (U/2)(N^2 - N),

with D[c] X = c X c† - (c† c X + X c† c)/2.  Phase-rotation symmetry makes
L commute with the number commutator N^x, so it is block diagonal over the
coherence label m, and within each block it is upper triangular with
bandwidth 2: the lowering superoperator A X = a X a† only decreases k.

Block matrices here are built from the dense operators alone: the blocks
of L are cut from its sparse Kronecker form (:func:`sector_blocks`), and
:func:`superop_block` pushes each ketbra through any other superoperator.
The closed-form eigen-expressions live in :mod:`kerrloss.spectral` and are
checked against these constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fockbasis import Truncation, phi_indices

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "ModelParams",
    "check_time",
    "BlockMatrix",
    "InternalConsistencyError",
    "annihilation",
    "number_diag",
    "block_A_matrix",
    "apply_exp_A",
    "expm_nilpotent",
    "superop_block",
    "sector_blocks",
    "liouvillian_blocks",
    "liouvillian_block",
    "conjugated_block",
    "transformed_block",
    "c_superdiagonal",
    "GeneratorAction",
    "full_generator",
    "similarity_identity_suite",
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
        if self.kappa2 > 0 and not math.isfinite(self.kappa1 / self.kappa2):
            raise ValueError("kappa1/kappa2 must be finite")
        if self.kappa1 == 0 and self.kappa2 == 0 and not self.allow_unitary:
            raise ValueError(
                "kappa1 = kappa2 = 0 is the Hamiltonian-only case; "
                "pass allow_unitary=True to accept it"
            )


def check_time(t: float) -> None:
    """Reject an evolution time that is not finite and non-negative."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"evolution time must be finite and non-negative, got {t!r}")


@dataclass
class BlockMatrix:
    """Complex matrix over the k-index of one block; row = output, col = input."""

    m: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ValueError("block matrix must be square")


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


def apply_exp_A(v: np.ndarray, m, scale, transpose: bool = False) -> np.ndarray:
    """e^{scale A} v on block m by the finite nilpotent series, or e^{scale A^T} v
    (A^T raises k) with ``transpose``.  ``v`` is one block (S,) or a stack
    (..., S) with ``m`` and ``scale`` per row; lowering keeps a row's zero
    padding past K(m).  The series runs in place on two buffers."""
    v = np.moveaxis(v, -1, 0)  # slots first: each window below is one contiguous block
    k = np.arange(1, len(v)).reshape((-1,) + (1,) * (v.ndim - 1))
    # precision follows the input dtype so extended-precision callers keep
    # their extra digits through the alternating series; row i is scale A[i, i + 1]
    factors = np.asarray(scale) * np.sqrt((k * (k + np.abs(m))).astype(v.real.dtype))
    if transpose:  # A^T lowers the slots taken in reverse order, with reversed factors
        v, factors = v[::-1], factors[::-1]
    out = v.astype(np.result_type(v, factors))  # a real v may take a complex scale
    term, spare = out.copy(), np.empty_like(out)
    for j in range(1, len(v)):
        lo = len(v) - j  # term j is zero in slots k >= lo
        new = np.multiply(factors[:lo], term[1 : lo + 1], out=spare[:lo])
        new /= j
        if not new.any():
            break
        out[:lo] += new
        term, spare = spare, term
    return np.moveaxis(out[::-1] if transpose else out, 0, -1)


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

    def source_matrix(self) -> sp.csr_matrix:
        """Vectorized V^o X = V X + X V, the operator the drive multiplies."""
        return _csr(self.trunc.dim**2, self._source_terms(1.0))

    def sparse_matrix(self) -> sp.csr_matrix:
        """The (dim^2, dim^2) CSR form of the action, from one COO build.

        In the row-major vectorization op X is op ⊗ I, X op is I ⊗ opᵀ and
        op X op† is op ⊗ conj(op).  The jump and source terms sit off the
        diagonal, each at positions of its own; the diagonal adds the
        Hamiltonian and anticommutator terms in the order of the operator
        sum -i(H ⊗ I - I ⊗ Hᵀ) + kappa1 (a ⊗ conj(a) - (N ⊗ I + I ⊗ Nᵀ)/2)
        + kappa2 (a² ⊗ conj(a²) - (N(N-1) ⊗ I + I ⊗ N(N-1)ᵀ)/2)
        + drive (V ⊗ I + I ⊗ Vᵀ).
        """
        p = self.params

        def pair(x, op):
            x = x.astype(complex)
            return op(x[:, None], x[None, :])

        diag = -1j * pair(self.h_diag, np.subtract)
        terms = []
        if p.kappa1:
            diag = diag + p.kappa1 * -(0.5 * pair(self.n_diag, np.add))
            terms.append(_kron_nonzeros(self.a, self.a.conj(), p.kappa1))
        if p.kappa2:
            diag = diag + p.kappa2 * -(0.5 * pair(self.nn_diag, np.add))
            terms.append(_kron_nonzeros(self.a2, self.a2.conj(), p.kappa2))
        if self.drive:
            terms += self._source_terms(self.drive)
        pos = np.arange(self.trunc.dim**2)
        return _csr(self.trunc.dim**2, [(pos, pos, diag.ravel())] + terms)

    def _source_terms(self, scale: complex) -> list:
        eye = np.eye(self.trunc.dim)
        return [_kron_nonzeros(self.V, eye, scale), _kron_nonzeros(eye, self.V.T, scale)]


def _kron_nonzeros(A: np.ndarray, B: np.ndarray, scale: complex):
    """Rows, columns and values of scale * kron(A, B) at the nonzeros of A and B."""
    ra, ca = np.nonzero(A)
    rb, cb = np.nonzero(B)
    n = B.shape[0]
    rows = np.add.outer(ra * n, rb).ravel()
    cols = np.add.outer(ca * n, cb).ravel()
    return rows, cols, scale * np.multiply.outer(A[ra, ca], B[rb, cb]).ravel()


def _csr(size: int, terms: list) -> sp.csr_matrix:
    """(size, size) CSR matrix of (rows, cols, values) terms at distinct
    positions; entries that are exactly zero are not stored."""
    import scipy.sparse as sp

    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    stored = vals != 0
    return sp.csr_matrix((vals[stored], (rows[stored], cols[stored])), shape=(size, size))


def full_generator(params: ModelParams, trunc: Truncation, drive: complex = 0.0) -> GeneratorAction:
    return GeneratorAction(params, trunc, drive)


def sector_blocks(gen: sp.csr_matrix, d: int) -> np.ndarray:
    """Coherence-sector blocks of a row-major (d^2, d^2) generator as one
    zero-padded stack (2d - 1, d, d), after checking that no nonzero entry
    couples two sectors.

    Row m + d - 1 holds sector m = i - j.  Inside a sector, position (i, j)
    has index min(i, j), which keeps the row-major order.
    """
    i, j = np.divmod(np.arange(d * d), d)
    sector = i - j
    coo = gen.tocoo()
    nz = coo.data != 0
    rows, cols = coo.row[nz], coo.col[nz]
    crossing = int(np.count_nonzero(sector[rows] != sector[cols]))
    if crossing:
        raise InternalConsistencyError(
            f"generator couples coherence sectors ({crossing} entries)"
        )
    local = np.minimum(i, j)
    blocks = np.zeros((2 * d - 1, d, d), dtype=complex)
    blocks[sector[rows] + d - 1, local[rows], local[cols]] = coo.data[nz]
    return blocks


def liouvillian_blocks(params: ModelParams, trunc: Truncation) -> dict[int, BlockMatrix]:
    """Every block matrix of L, keyed by m, cut from one sparse generator
    (the oracle constructor), after checking that each block is upper
    triangular with bandwidth 2."""
    d = trunc.dim
    stack = sector_blocks(GeneratorAction(params, trunc).sparse_matrix(), d)
    # the padding of the stack is zero, so one mask gates every block
    lag = np.subtract.outer(np.arange(d), np.arange(d))
    if np.any(stack[:, (lag > 0) | (lag < -2)]):
        raise InternalConsistencyError("Liouvillian block is not upper triangular banded")
    # block m has d - |m| rows
    return {m: BlockMatrix(m, stack[m + d - 1, : d - abs(m), : d - abs(m)].copy()) for m in trunc.blocks()}


def liouvillian_block(params: ModelParams, trunc: Truncation, m: int) -> BlockMatrix:
    """Block-m matrix of L from :func:`liouvillian_blocks`."""
    trunc.block_bound(m)  # ValueError for a block outside the truncation
    return liouvillian_blocks(params, trunc)[m]


def c_superdiagonal(params: ModelParams, m: int, k: int) -> complex:
    """Superdiagonal entry of e^A L e^{-A}: coefficient of phi_{k-1} from phi_k.

    The two-body-loss bracket uses |m|, as the conjugation construction
    :func:`conjugated_block` confirms for both signs of m (acceptance
    criterion 5, ``c_superdiagonal``).
    """
    am = abs(m)
    return -math.sqrt(k * (k + am)) * (params.kappa2 * (2 * (k - 1) + am) + 1j * params.U * m)


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


def conjugated_block(params: ModelParams, trunc: Truncation, m: int) -> np.ndarray:
    """e^A L_m e^{-A}: the operator-algebra block conjugated with the exact
    nilpotent exponentials, independent of any closed form."""
    A = block_A_matrix(trunc, m)
    return expm_nilpotent(A) @ liouvillian_block(params, trunc, m).entries @ expm_nilpotent(-A)


def transformed_block(params: ModelParams, trunc: Truncation, m: int) -> BlockMatrix:
    """Bidiagonal e^A L e^{-A} on block m from the closed form; acceptance
    criterion 5 (``transformed_block``) compares it with
    :func:`conjugated_block`."""
    size = trunc.block_size(m)
    mat = np.zeros((size, size), dtype=complex)
    for k in range(size):
        mat[k, k] = _transformed_diag(params, m, k)
        if k >= 1:
            mat[k - 1, k] = c_superdiagonal(params, m, k)
    return BlockMatrix(m, mat)


def similarity_identity_suite(params: ModelParams, trunc: Truncation, m: int) -> dict:
    """Entrywise checks of the e^A conjugation identities on block m:
    {identity: max_dev}, each deviation relative to the identity's largest entry.

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
    report = {}
    for name, (lhs, rhs) in checks.items():
        # e^A entries grow combinatorially with the cutoff, so compare
        # relative to the magnitude of the identity being tested
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        report[name] = float(np.max(np.abs(lhs - rhs))) / scale
    return report

