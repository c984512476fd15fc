import numpy as np
import pytest
import scipy.sparse as sp

from kerrloss.checks import TOLERANCES, seeded_draws
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.spectral import CaseTag
from kerrloss.superops import (
    GeneratorAction,
    InternalConsistencyError,
    ModelParams,
    annihilation,
    apply_exp_A,
    block_A_matrix,
    c_superdiagonal,
    conjugated_block,
    expm_nilpotent,
    liouvillian_block,
    liouvillian_blocks,
    measured_upper_bandwidth,
    similarity_identity_suite,
    superop_block,
    transformed_block,
)

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
        (1.0, 0.0, 1.0, 1e-320),  # kappa1/kappa2 overflows
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


def test_apply_exp_A_matches_dense_exponential():
    # each block alone, lowering and (transposed) raising, its real part with
    # the same (possibly complex) scale, and all of them as one zero-padded
    # stack with m and scale given per row
    tr = Truncation(8)
    rng = np.random.default_rng(0)
    cases = []
    for m in (0, 1, -2):
        size = tr.block_size(m)
        v = rng.normal(size=size) + 1j * rng.normal(size=size)
        cases += [(m, s, v) for s in (1.0, -1.0, 0.3 - 0.2j)]
    stack = np.zeros((len(cases), tr.dim), dtype=complex)
    for i, (_, _, v) in enumerate(cases):
        stack[i, : len(v)] = v
    ms, scales = np.array([c[0] for c in cases]), np.array([c[1] for c in cases])
    for transpose in (False, True):
        stacked = apply_exp_A(stack, ms, scales, transpose)
        for i, (m, s, v) in enumerate(cases):
            E = expm_nilpotent(s * block_A_matrix(tr, m))
            E = E.T if transpose else E
            dense, real = E @ v, E @ v.real
            for free in (apply_exp_A(v, m, s, transpose), stacked[i, : len(v)]):
                assert np.max(np.abs(dense - free)) < 1e-12 * np.max(np.abs(dense))
            free = apply_exp_A(v.real, m, s, transpose)
            assert np.max(np.abs(real - free)) < 1e-12 * np.max(np.abs(real))
            if not transpose:  # lowering keeps the zero padding
                assert not stacked[i, len(v) :].any()


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


def _kron_generator(action):
    """(L + drive V^o, V^o) from scipy.sparse.kron products, summed in the
    order of the operator sum: the reference for the one-pass COO build."""
    d = action.trunc.dim
    eye = sp.identity(d, dtype=complex, format="csr")

    def left(op):
        return sp.kron(sp.csr_matrix(op), eye, format="csr")

    def right(op):
        return sp.kron(eye, sp.csr_matrix(np.asarray(op).T), format="csr")

    def sandwich(op):
        return sp.kron(sp.csr_matrix(op), sp.csr_matrix(np.asarray(op).conj()), format="csr")

    p = action.params
    H, N, NN = (np.diag(x).astype(complex) for x in (action.h_diag, action.n_diag, action.nn_diag))
    mat = -1j * (left(H) - right(H))
    if p.kappa1:
        mat = mat + p.kappa1 * (sandwich(action.a) - 0.5 * (left(N) + right(N)))
    if p.kappa2:
        mat = mat + p.kappa2 * (sandwich(action.a2) - 0.5 * (left(NN) + right(NN)))
    source = (left(action.V) + right(action.V)).tocsr()
    if action.drive:
        mat = mat + action.drive * source
    return mat.tocsr(), source


def test_sparse_build_equals_kron_construction():
    # every entry, the stored pattern included, is bit for bit the one the
    # Kronecker-product construction gives
    channels = (
        GENERIC,
        ModelParams(1.0, 0.0, 1.0, 0.0),
        ModelParams(1.0, 0.0, 1.0, 10.0),
        ModelParams(0.3, -0.7, 0.0, 2.0),
        ModelParams(1 / 3, 0.1, 1 / 7, 0.0),
        ModelParams(0.0, 0.0, 0.0, 0.0, allow_unitary=True),
    )
    for params in channels:
        for n_max in (2, 5, 14, 40):
            for drive in (0.0, 0.75j, 3j, 0.3 - 0.1j):
                action = GeneratorAction(params, Truncation(n_max), drive=drive)
                for got, ref in zip((action.sparse_matrix(), action.source_matrix()),
                                    _kron_generator(action)):
                    assert got.has_canonical_format
                    assert np.array_equal(got.indptr, ref.indptr)
                    assert np.array_equal(got.indices, ref.indices)
                    assert np.all(got.data == ref.data), (params, n_max, drive)


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
        assert measured_upper_bandwidth(blk.entries) <= 2
        assert np.all(np.tril(blk.entries, -1) == 0)


@pytest.mark.parametrize("case", list(CaseTag))
def test_liouvillian_block_equals_the_ketbra_construction(case):
    # the cut of the sparse generator and the operator algebra of apply give
    # the same block, entry for entry, at every label
    for n_max, params in zip((2, 12, 30), seeded_draws(case, 3, seed=11)):
        tr = Truncation(n_max)
        apply = GeneratorAction(params, tr).apply
        blocks = liouvillian_blocks(params, tr)
        assert list(blocks) == list(tr.blocks())
        for m in tr.blocks():
            expected = superop_block(apply, tr, m)
            assert np.array_equal(blocks[m].entries, expected), (n_max, m)
        assert np.array_equal(liouvillian_block(params, tr, 1).entries, blocks[1].entries)


def test_liouvillian_block_gates_sector_crossing(monkeypatch):
    driven = GeneratorAction(GENERIC, Truncation(4), drive=0.3).sparse_matrix()
    monkeypatch.setattr(GeneratorAction, "sparse_matrix", lambda self: driven)
    with pytest.raises(InternalConsistencyError, match="couples coherence sectors"):
        liouvillian_block(GENERIC, Truncation(4), 1)


@pytest.mark.parametrize("local", [(1, 4), (4, 1)], ids=["above_the_band", "below_the_diagonal"])
def test_liouvillian_blocks_gate_every_block(monkeypatch, local):
    # one stray entry inside block 2, beyond its band or below its diagonal,
    # fails the cut of every block, block 0 included
    tr = Truncation(6)
    d = tr.dim
    gen = GeneratorAction(GENERIC, tr).sparse_matrix().tolil()
    row, col = ((k + 2) * d + k for k in local)
    gen[row, col] = 0.5
    monkeypatch.setattr(GeneratorAction, "sparse_matrix", lambda self: gen.tocsr())
    for call in (lambda: liouvillian_blocks(GENERIC, tr), lambda: liouvillian_block(GENERIC, tr, 0)):
        with pytest.raises(InternalConsistencyError, match="not upper triangular banded"):
            call()


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
        for dev in report.values():
            assert dev < TOLERANCES["similarity_identities"][1], report


def assert_matches_conjugated_block(params, tr, m):
    # entrywise to 1e-12 relative to max(1, max|conjugated|)
    blk = transformed_block(params, tr, m)
    conj = conjugated_block(params, tr, m)
    scale = max(1.0, float(np.max(np.abs(conj))))
    assert np.max(np.abs(conj - blk.entries)) / scale <= 1e-12, (params, m)
    return blk


def test_transformed_block_verification():
    tr = Truncation(10)
    for params in (GENERIC, ModelParams(1.0, 0.5, 0.0, 1.0), ModelParams(1.0, 0.5, 2.0, 1.0)):
        for m in (0, 1, -1, 2, -3):
            blk = assert_matches_conjugated_block(params, tr, m)
            assert measured_upper_bandwidth(blk.entries) <= 1


def test_c_superdiagonal_closed_form():
    tr = Truncation(8)
    m, k = -2, 3
    blk = assert_matches_conjugated_block(GENERIC, tr, m)
    assert blk.entries[k - 1, k] == pytest.approx(c_superdiagonal(GENERIC, m, k))


def test_superop_block_identity():
    tr = Truncation(5)
    for m in (0, -2):
        mat = superop_block(lambda X: X, tr, m)
        assert np.max(np.abs(mat - np.eye(tr.block_size(m)))) == 0

