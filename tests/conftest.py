"""Helpers shared by several test modules, as fixtures."""

import numpy as np
import pytest

from kerrloss.superops import BlockMatrix, InternalConsistencyError

DEGENERATE_PIVOT_TOL = 1e-10


def _triangular_eigendecomp(Lb: BlockMatrix):
    """Eigensystem of an upper-triangular block by back-substitution.

    Returns (eigenvalues, R, L): eigenvalues are the diagonal read off
    directly, column k of R solves (Lb - lambda_k) v = 0 with v_k = 1, row k
    of L solves u (Lb - lambda_k) = 0 with u_k = 1.  A vanishing pivot with a
    vanishing numerator (the only degeneracy the model admits) picks the
    zero component, which lands on the two-dimensional null-space basis.
    """
    mat = Lb.entries
    if np.any(np.tril(mat, -1) != 0):
        raise ValueError("block matrix must be upper triangular")
    n = mat.shape[0]
    lams = np.diag(mat).copy()
    scale = max(1.0, float(np.max(np.abs(mat))))
    R = np.zeros((n, n), dtype=complex)
    L = np.zeros((n, n), dtype=complex)
    for k in range(n):
        # right vector: back-substitute upward from v_k = 1
        v = np.zeros(n, dtype=complex)
        v[k] = 1.0
        for p in range(k - 1, -1, -1):
            num = mat[p, p + 1 : k + 1] @ v[p + 1 : k + 1]
            pivot = lams[k] - mat[p, p]
            if abs(pivot) < DEGENERATE_PIVOT_TOL * scale:
                if abs(num) > DEGENERATE_PIVOT_TOL * scale:
                    raise InternalConsistencyError(
                        f"non-trivial Jordan structure at rows {p},{k}"
                    )
                v[p] = 0.0
            else:
                v[p] = num / pivot
        R[:, k] = v
        # left vector: forward-substitute downward from u_k = 1
        u = np.zeros(n, dtype=complex)
        u[k] = 1.0
        for p in range(k + 1, n):
            num = u[k:p] @ mat[k:p, p]
            pivot = lams[k] - mat[p, p]
            if abs(pivot) < DEGENERATE_PIVOT_TOL * scale:
                if abs(num) > DEGENERATE_PIVOT_TOL * scale:
                    raise InternalConsistencyError(
                        f"non-trivial Jordan structure at rows {k},{p}"
                    )
                u[p] = 0.0
            else:
                u[p] = num / pivot
        L[k, :] = u
    return lams, R, L


@pytest.fixture(scope="session")
def triangular_eigendecomp():
    """The back-substitution eigensystem of an upper-triangular block, the
    reference the closed-form eigenvectors are checked against."""
    return _triangular_eigendecomp
