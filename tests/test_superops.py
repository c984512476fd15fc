import numpy as np
import pytest

from kerrloss.fockbasis import FockState, Truncation
from kerrloss.superops import (
    GeneratorAction,
    InternalConsistencyError,
    ModelParams,
    annihilation,
    apply_A,
    apply_exp_A,
    block_A_matrix,
    block_matrix_csv,
    c_superdiagonal,
    expm_nilpotent,
    liouvillian_block,
    similarity_identity_suite,
    superop_block,
    transformed_block,
)
from kerrloss.fockbasis import BlockVector

GENERIC = ModelParams(0.9, 0.6, 0.37, 1.1)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.5, 0.0, 0.0)
    ModelParams(1.0, 0.5, 0.0, 0.0, allow_unitary=True)
    for bad in (
        (float("nan"), 0.0, 1.0, 1.0),
        (1.0, float("inf"), 1.0, 1.0),
        (1.0, 0.0, float("nan"), 1.0),
        (1.0, 0.0, 1.0, float("inf")),
    ):
        with pytest.raises(ValueError):
            ModelParams(*bad, allow_unitary=True)


def test_annihilation_algebra():
    tr = Truncation(6)
    a = annihilation(tr)
    comm = a @ a.conj().T - a.conj().T @ a
    # [a, a†] = 1 except at the cutoff corner
    assert np.max(np.abs(comm[:-1, :-1] - np.eye(6))) < 1e-12


def test_block_A_lowering():
    tr = Truncation(6)
    for m in (0, 2, -3):
        A = block_A_matrix(tr, m)
        v = np.zeros(tr.block_size(m), dtype=complex)
        v[2] = 1.0
        out = A @ v
        assert out[1] == pytest.approx(np.sqrt(2 * (2 + abs(m))))
        # matches the matrix-free application
        free = apply_A(BlockVector(m, v), tr)
        assert np.max(np.abs(free.coeffs - out)) == 0


def test_apply_exp_A_matches_dense_exponential():
    tr = Truncation(8)
    rng = np.random.default_rng(0)
    for m in (0, 1, -2):
        size = tr.block_size(m)
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        A = block_A_matrix(tr, m)
        for s in (1.0, -1.0, 0.3 - 0.2j):
            dense = expm_nilpotent(s * A) @ v
            free = apply_exp_A(BlockVector(m, v), tr, s).coeffs
            assert np.max(np.abs(dense - free)) < 1e-12 * np.max(np.abs(dense))


def test_generator_matches_sparse_matrix():
    tr = Truncation(7)
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    for drive in (0.0, 0.25j):
        action = GeneratorAction(GENERIC, tr, drive=drive)
        direct = action.apply(X)
        via_sparse = (action.sparse_matrix() @ X.ravel()).reshape(8, 8)
        assert np.max(np.abs(direct - via_sparse)) < 1e-12 * np.max(np.abs(direct))
    # the source superoperator V^o X = V X + X V in the same vectorization
    action = GeneratorAction(GENERIC, tr)
    direct = action.V @ X + X @ action.V
    via_sparse = (action.source_matrix() @ X.ravel()).reshape(8, 8)
    assert np.max(np.abs(direct - via_sparse)) < 1e-12 * np.max(np.abs(direct))


def test_generator_batch_broadcast():
    tr = Truncation(5)
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6))
    action = GeneratorAction(GENERIC, tr)
    stacked = action.apply(batch)
    for i in range(3):
        assert np.max(np.abs(stacked[i] - action.apply(batch[i]))) == 0


def test_generator_trace_annihilation():
    tr = Truncation(6)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    action = GeneratorAction(GENERIC, tr)
    assert abs(np.trace(action.apply(X))) < 1e-12 * np.max(np.abs(X))


def test_liouvillian_block_structure():
    tr = Truncation(9)
    for m in (0, 1, -2, 4):
        blk = liouvillian_block(GENERIC, tr, m)
        assert blk.upper_bandwidth <= 2
        assert np.all(np.tril(blk.entries, -1) == 0)


def test_block_diagonal_decoupling():
    # L must not mix coherence blocks: apply to a single ketbra and confirm
    # support stays on its block
    tr = Truncation(6)
    action = GeneratorAction(GENERIC, tr)
    X = np.zeros((7, 7), dtype=complex)
    X[5, 2] = 1.0  # block m = 3
    out = action.apply(X)
    n1, n2 = np.nonzero(out)
    assert np.all(n1 - n2 == 3)


def test_similarity_identity_suite_passes():
    tr = Truncation(10)
    for m in (0, 1, -1, 3):
        report = similarity_identity_suite(GENERIC, tr, m)
        assert set(report) == {
            "n_cross_invariant",
            "n_circ_shift",
            "one_body_dissipator",
            "two_body_dissipator",
        }
        for rec in report.values():
            assert rec["pass"], report


def test_transformed_block_verification():
    tr = Truncation(10)
    for params in (GENERIC, ModelParams(1.0, 0.5, 0.0, 1.0), ModelParams(1.0, 0.5, 2.0, 1.0)):
        for m in (0, 1, -1, 2, -3):
            blk = transformed_block(params, tr, m, verify=True)
            assert blk.upper_bandwidth <= 1


def test_signed_m_variant_fails_for_negative_blocks():
    # the two-body-loss bracket takes |m|; the signed variant disagrees with
    # the conjugated construction whenever m < 0 and kappa2 > 0
    tr = Truncation(8)
    with pytest.raises(InternalConsistencyError):
        transformed_block(GENERIC, tr, -2, verify=True, signed_m_in_loss=True)
    # for m >= 0 the two variants coincide
    transformed_block(GENERIC, tr, 2, verify=True, signed_m_in_loss=True)


def test_c_superdiagonal_closed_form():
    tr = Truncation(8)
    m, k = -2, 3
    blk = transformed_block(GENERIC, tr, m, verify=True)
    assert blk.entries[k - 1, k] == pytest.approx(c_superdiagonal(GENERIC, m, k))


def test_superop_block_identity():
    tr = Truncation(5)
    for m in (0, -2):
        mat = superop_block(lambda X: X, tr, m)
        assert np.max(np.abs(mat - np.eye(tr.block_size(m)))) == 0


def test_block_matrix_csv_shape():
    tr = Truncation(4)
    blk = liouvillian_block(GENERIC, tr, 1)
    text = block_matrix_csv([blk])
    lines = text.strip().split("\n")
    assert lines[0] == "m,row,col,re,im"
    assert all(line.split(",")[0] == "1" for line in lines[1:])
