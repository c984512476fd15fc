import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kerrloss import noise, oracle
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.oracle import (
    expm_propagate,
    left_residual,
    multi_time_correlators,
    ode_propagate,
    right_residual,
)
from kerrloss.spectral import decompose, eigenvalue
from kerrloss.superops import (
    BlockMatrix,
    InternalConsistencyError,
    ModelParams,
    annihilation,
    full_generator,
    liouvillian_blocks,
    sector_blocks,
)

GENERIC = ModelParams(0.9, 0.6, 0.37, 1.1)
LINEAR = ModelParams(1.0, 0.0, 1.0, 0.0)
NONLINEAR = ModelParams(1.0, 0.0, 1.0, 10.0)

def test_triangular_eigendecomp_2x2(triangular_eigendecomp):
    blk = BlockMatrix(0, np.array([[1.0, 3.0], [0.0, 2.0]], dtype=complex))
    lams, R, L = triangular_eigendecomp(blk)
    assert np.allclose(lams, [1.0, 2.0])
    # (Lb - 2) v = 0 with v_1 = 1 gives v_0 = 3
    assert np.allclose(R[:, 1], [3.0, 1.0])
    assert np.allclose(L @ R, np.diag(np.diag(L @ R)))
    with pytest.raises(ValueError):
        triangular_eigendecomp(BlockMatrix(0, np.array([[1.0, 0], [1.0, 2.0]], dtype=complex)))


def test_triangular_eigendecomp_rejects_jordan_block(triangular_eigendecomp):
    blk = BlockMatrix(0, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(InternalConsistencyError):
        triangular_eigendecomp(blk)


def test_arbiter_matches_spectral_construction(triangular_eigendecomp):
    tr = Truncation(10)
    for params in (GENERIC, ModelParams(1.0, 0.5, 0.0, 1.0)):
        decomp = decompose(params, tr)
        blocks = liouvillian_blocks(params, tr)
        for m in (0, 1, -2):
            blk = blocks[m]
            lams, R, L = triangular_eigendecomp(blk)
            size = blk.entries.shape[0]
            closed = np.array([eigenvalue(params, m, k) for k in range(size)])
            assert np.max(np.abs(lams - closed)) < 1e-12
            for k in range(size):
                assert right_residual(blk, lams[k], R[:, k]) < 1e-10
                assert left_residual(blk, lams[k], L[k, :]) < 1e-10
            # the two independently built eigenbases span the same rays
            mine = decomp.R[m].entries
            for k in range(size):
                ratio = mine[k, k] / R[k, k]
                assert np.max(np.abs(mine[:, k] - ratio * R[:, k])) < 1e-8 * max(
                    1.0, np.max(np.abs(mine[:, k]))
                )


def test_residual_helpers_scale():
    blk = BlockMatrix(0, np.diag([1.0, 2.0]).astype(complex))
    assert right_residual(blk, 1.0, np.array([1.0, 0.0])) == 0.0
    assert left_residual(blk, 2.0, np.array([0.0, 1.0])) == 0.0
    assert right_residual(blk, 1.5, np.array([1.0, 0.0])) > 0.1


def test_ode_vs_expm_propagate():
    tr = Truncation(8)
    rho0 = FockState.coherent(tr, 0.7)
    gen = full_generator(GENERIC, tr)
    for t in (0.3, 1.2):
        a = ode_propagate(gen, rho0, t)
        b = expm_propagate(GENERIC, rho0, t)
        assert np.max(np.abs(a.entries - b.entries)) < 1e-8


def test_ode_vs_dense_matrix_exponential():
    tr = Truncation(5)
    rho0 = FockState.coherent(tr, 0.5)
    gen = full_generator(GENERIC, tr)
    t = 0.8
    dense = scipy.linalg.expm(gen.sparse_matrix().toarray() * t)
    ref = (dense @ rho0.entries.ravel()).reshape(rho0.entries.shape)
    out = ode_propagate(gen, rho0, t)
    assert np.max(np.abs(out.entries - ref)) < 1e-8


def test_ode_t_eval_and_validation():
    tr = Truncation(5)
    rho0 = FockState.vacuum(tr)
    gen = full_generator(GENERIC, tr)
    with pytest.raises(ValueError):
        ode_propagate(gen, rho0, -1.0)


def test_correlator_vacuum_one_point():
    # <V(t)> from vacuum is zero for all insertions
    tr = Truncation(8)
    vac = FockState.vacuum(tr)
    for tag in ("+", "-", "o"):
        val = multi_time_correlators(GENERIC, [[(tag, 0.7)]], vac)[0]
        assert abs(val) < 1e-12


def test_correlator_equal_time_two_point():
    # V^o V^o at t=0 on vacuum: tr[(a+a†)(a+a†)|0><0| + 2(a+a†)|0><0|(a+a†)
    #  + |0><0|(a+a†)(a+a†)] = 1 + 2 + 1 = 4
    tr = Truncation(8)
    vac = FockState.vacuum(tr)
    val = multi_time_correlators(GENERIC, [[("o", 0.0), ("o", 0.0)]], vac)[0]
    assert val == pytest.approx(4.0, abs=1e-12)


def test_correlator_conjugate_symmetry():
    # swapping +/- tags on a hermitian state conjugates the correlator
    tr = Truncation(8)
    rho0 = FockState.coherent(tr, 0.5 + 0.2j)
    seq = [("+", 1.1), ("-", 0.6), ("+", 0.2)]
    swapped = [("-", 1.1), ("+", 0.6), ("-", 0.2)]
    a, b = multi_time_correlators(
        GENERIC, [list(reversed(sorted(s, key=lambda x: x[1]))) for s in (seq, swapped)], rho0)
    assert a == pytest.approx(np.conj(b), abs=1e-10)


def test_correlator_sequence_validation(monkeypatch):
    vac = FockState.vacuum(Truncation(6))
    good = [("o", 0.7), ("+", 0.2)]
    bad = (
        [],
        [("o", float("nan"))],
        [("o", float("inf")), ("-", 0.1)],
        [("o", 0.5), ("+", float("nan"))],
        [("o", 0.5), ("-", -0.1)],
        [("o", 0.2), ("o", 0.5)],
        [("x", 0.5), ("o", 0.2)],
    )

    def no_build(*args, **kwargs):
        raise AssertionError("generator built before the sequences were validated")

    monkeypatch.setattr(oracle, "full_generator", no_build)
    for seq in bad:
        with pytest.raises(ValueError):
            multi_time_correlators(GENERIC, [good, seq], vac)
        with pytest.raises(ValueError):
            multi_time_correlators(GENERIC, [seq], vac)


def test_expm_propagate_validation():
    tr = Truncation(5)
    vac = FockState.vacuum(tr)
    with pytest.raises(ValueError):
        expm_propagate(GENERIC, vac, -0.5)
    same = expm_propagate(GENERIC, vac, 0.0)
    assert np.max(np.abs(same.entries - vac.entries)) == 0


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_oracle_propagators_reject_bad_times(t):
    # a NaN or infinite time must fail at once: the adaptive integrator
    # never returns for either, and scipy's exponential fails inside
    vac = FockState.vacuum(Truncation(6))
    with pytest.raises(ValueError, match="finite and non-negative"):
        ode_propagate(full_generator(GENERIC, vac.truncation), vac, t)
    with pytest.raises(ValueError, match="finite and non-negative"):
        expm_propagate(GENERIC, vac, t)


def _telescoped_by_expm_multiply(params, seq, rho0):
    """The correlator on the full sparse generator, one exponential action per gap."""
    gen = full_generator(params, rho0.truncation).sparse_matrix()
    d = rho0.entries.shape[0]
    V = annihilation(rho0.truncation)
    V = V + V.conj().T
    X = rho0.entries.astype(complex)
    prev = 0.0
    for tag, t in reversed(seq):
        if t > prev:
            X = spla.expm_multiply(gen * (t - prev), X.ravel()).reshape(d, d)
        X = {"+": V @ X, "-": X @ V, "o": V @ X + X @ V}[tag]
        prev = t
    return np.trace(X)


def test_sector_correlators_match_full_space_route():
    sequences = [
        [("+", 0.7)],
        [("o", 0.0)],
        [("-", 1.3), ("o", 0.4)],
        [("o", 0.5), ("+", 0.5)],
        [("+", 1.1), ("-", 0.6), ("o", 0.0)],
        [("o", 0.9), ("o", 0.9), ("-", 0.3)],
        [("-", 0.0), ("+", 0.0), ("o", 0.0)],
    ]
    rng = np.random.default_rng(5)
    worst = 0.0
    for n_max in (6, 10):
        tr = Truncation(n_max)
        G = rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim))
        states = (
            FockState.vacuum(tr),
            FockState.coherent(tr, 0.6 - 0.3j),
            FockState(G @ G.conj().T / np.trace(G @ G.conj().T)),
        )
        for params in (GENERIC, LINEAR, NONLINEAR):
            for rho0 in states:
                got = multi_time_correlators(params, sequences, rho0)
                for seq, value in zip(sequences, got):
                    ref = _telescoped_by_expm_multiply(params, seq, rho0)
                    worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    assert worst < 1e-12, worst


def _low_level_state(tr, top, seed):
    """A seeded density matrix on the levels <= top of the truncation."""
    rng = np.random.default_rng(seed)
    G = np.zeros((tr.dim, tr.dim), dtype=complex)
    G[: top + 1, : top + 1] = rng.normal(size=(top + 1,) * 2) + 1j * rng.normal(size=(top + 1,) * 2)
    rho = G @ G.conj().T
    return FockState(rho / np.trace(rho))


#: every tag at every position: all sequences of lengths 1 and 2, and the
#: nine of length 3 whose tag pairs at any two positions are all distinct
_CUT_SEQUENCES = [
    [(tag, t) for tag, t in zip(tags, (1.3, 0.7, 0.25)[3 - len(tags):])]
    for tags in [*itertools.product("+-o", repeat=1), *itertools.product("+-o", repeat=2),
                 *(("+-o"[a], "+-o"[b], "+-o"[(a + b) % 3]) for a in range(3) for b in range(3))]
]


def test_cut_correlators_match_full_space_route():
    # states on low levels run on the cut K = min(n_max, max(2, n0 + 1)):
    # vacuum, |2><2| and a seeded state on levels <= 3, against the full
    # sparse generator at the full n_max (NONLINEAR at n_max 6 only: its
    # expm_multiply reference takes seconds per state at 12)
    worst = 0.0
    for n_max, channels in ((6, (GENERIC, LINEAR, NONLINEAR)), (12, (GENERIC, LINEAR))):
        tr = Truncation(n_max)
        states = (FockState.vacuum(tr), FockState.fock(tr, 2), _low_level_state(tr, 3, 17))
        for params in channels:
            for rho0 in states:
                got = multi_time_correlators(params, _CUT_SEQUENCES, rho0)
                for seq, value in zip(_CUT_SEQUENCES, got):
                    ref = _telescoped_by_expm_multiply(params, seq, rho0)
                    worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    assert worst < 1e-12, worst


def test_correlator_cut_follows_the_reach(monkeypatch):
    # the generator is built on K = min(n_max, max(2, n0 + longest // 2))
    cutoffs = []

    def recorded(params, trunc):
        cutoffs.append(trunc.n_max)
        return full_generator(params, trunc)

    monkeypatch.setattr(oracle, "full_generator", recorded)
    one, three = [("o", 0.4)], [("+", 0.9), ("-", 0.5), ("o", 0.1)]
    four, five = three + [("o", 0.05)], three + [("o", 0.05), ("+", 0.01)]
    tr = Truncation(8)
    cases = (
        (FockState.vacuum(tr), [one], 2),
        (FockState.vacuum(tr), [one, one], 2),
        (FockState.vacuum(tr), [one, three], 2),
        (FockState.fock(tr, 2), [three], 3),
        (FockState.fock(tr, 2), [four], 4),
        (FockState.fock(tr, 2), [one, five], 4),
        (_low_level_state(tr, 3, 4), [one, three], 4),
        (FockState.fock(tr, 6), [three], 7),
        (FockState.fock(tr, 7), [three], 8),
        (FockState.fock(tr, 8), [one], 8),
        (FockState.coherent(tr, 0.3), [one], 8),
        (FockState.zero(tr), [three], 2),
    )
    for rho0, sequences, expected in cases:
        cutoffs.clear()
        multi_time_correlators(GENERIC, sequences, rho0)
        assert cutoffs == [expected], (sequences, cutoffs, expected)


def test_empty_sequence_list_gives_empty_array():
    out = multi_time_correlators(GENERIC, [], FockState.vacuum(Truncation(6)))
    assert isinstance(out, np.ndarray) and out.shape == (0,)


def test_stacked_exponential_matches_scipy_on_sector_blocks():
    # the oracle's own blocks: a zero gap gives the identity exactly, and
    # every other gap scipy's exponential to 2e-15 of the largest entry
    gaps = np.array([0.0, 0.05, 0.7, 2.0])
    for params, n_max in ((NONLINEAR, 10), (LINEAR, 16)):
        d = n_max + 1
        gen = full_generator(params, Truncation(n_max)).sparse_matrix()
        blocks = sector_blocks(gen, d)
        for m in (0, 1, 2):
            block = blocks[m + d - 1, : d - m, : d - m]
            stacked = oracle._stacked_expm(block, gaps)
            assert np.array_equal(stacked[0], np.eye(d - m))
            for gap, got in zip(gaps[1:], stacked[1:]):
                ref = scipy.linalg.expm(block * gap)
                dev = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
                assert dev <= 2e-15, (params, m, gap, dev)


def test_stacked_exponential_refines_superdiagonal():
    # a close pair of large diagonal entries under a large superdiagonal: the
    # squarings lose the (0, 1) entry to cancellation unless it is reset to
    # its exact divided-difference value after each one (1.7e-14 without)
    block = np.array([[-3 + 40j, 300], [0, -3.1 - 40j]])
    gap = 10.0
    with mpmath.workdps(50):
        exact = mpmath.expm(mpmath.matrix(block.tolist()) * gap)
        ref = np.array([[complex(exact[i, j]) for j in range(2)] for i in range(2)])
    got = oracle._stacked_expm(block, np.array([gap]))[0]
    dev = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert dev <= 2e-15, dev


def _per_sequence_correlators(params, sequences, rho0):
    """The correlators one sequence, one gap and one sector at a time, each
    a scipy exponential of the block cut from the generator by fancy index."""
    gen = full_generator(params, rho0.truncation).sparse_matrix()
    d = rho0.entries.shape[0]
    flat = np.arange(d * d)
    sector = flat // d - flat % d
    pos = {m: np.flatnonzero(sector == m) for m in range(1 - d, d)}
    blocks = {m: gen[p][:, p].toarray() for m, p in pos.items()}
    V = annihilation(rho0.truncation)
    V = V + V.conj().T
    out = []
    for seq in sequences:
        state = rho0.entries.astype(complex)
        prev = 0.0
        for remaining, (tag, t) in zip(range(len(seq), 0, -1), reversed(seq)):
            if t > prev:
                flat_state = state.ravel()
                evolved = np.zeros_like(flat_state)
                for m in range(max(-remaining, 1 - d), min(remaining, d - 1) + 1):
                    x = flat_state[pos[m]]
                    if x.any():
                        evolved[pos[m]] = scipy.linalg.expm(blocks[m] * (t - prev)) @ x
                state = evolved.reshape(d, d)
            state = {"+": V @ state, "-": state @ V, "o": V @ state + state @ V}[tag]
            prev = t
        out.append(np.trace(state))
    return np.array(out)


def test_batched_correlators_match_per_sequence_loop():
    # mixed tags, lengths 1-3 in one call, zero gaps and equal times
    sequences = [
        [("o", 0.8)],
        [("+", 0.0)],
        [("-", 2.5)],
        [("o", 1.2), ("+", 0.3)],
        [("-", 0.7), ("o", 0.7)],
        [("+", 0.0), ("-", 0.0)],
        [("o", 3.0), ("o", 0.05)],
        [("+", 1.9), ("o", 1.1), ("-", 0.4)],
        [("o", 0.6), ("o", 0.6), ("o", 0.0)],
        [("-", 2.0), ("+", 0.9), ("+", 0.9)],
    ]
    rho0 = FockState.coherent(Truncation(10), 0.6 - 0.3j)
    for params in (GENERIC, LINEAR, NONLINEAR):
        got = multi_time_correlators(params, sequences, rho0)
        ref = _per_sequence_correlators(params, sequences, rho0)
        dev = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
        assert dev <= 1e-13, (params, dev)


def test_correlator_trace_gate_fires(monkeypatch):
    # a uniform decay -0.1 X keeps every sector but loses trace
    class Leaky:
        def __init__(self, params, trunc):
            self.base, self.dim = full_generator(params, trunc), trunc.dim

        def sparse_matrix(self):
            leak = 0.1 * sp.identity(self.dim**2, dtype=complex, format="csr")
            return (self.base.sparse_matrix() - leak).tocsr()

    monkeypatch.setattr(oracle, "full_generator", Leaky)
    vac = FockState.vacuum(Truncation(5))
    with pytest.raises(InternalConsistencyError, match="left null vector"):
        multi_time_correlators(GENERIC, [[("o", 0.4)]], vac)


def _sector0_block(params, n_max):
    gen = full_generator(params, Truncation(n_max)).sparse_matrix()
    return sector_blocks(gen, n_max + 1)[n_max]


def test_trace_invariance_gate_fires_at_large_cutoff(monkeypatch):
    # one column sum of the inverse propagator off by 1e-6 at n_max 40: the
    # step shrinks with kappa2 n_max^2, so the propagator stays O(1) and the
    # tolerance near 1e-9 instead of the 1e7 that a fixed step would give
    B0 = _sector0_block(NONLINEAR, 40)
    expm = scipy.linalg.expm

    def perturbed(a):
        out = expm(a)
        out[0, 0] += 1e-6
        return out

    monkeypatch.setattr(scipy.linalg, "expm", perturbed)
    with pytest.raises(InternalConsistencyError, match="inverse propagator"):
        oracle._assert_trace_invariance(B0, NONLINEAR.kappa2)


def test_trace_invariance_gate_margin():
    # both conditions pass with orders of magnitude to spare, at every cutoff
    for params in (NONLINEAR, GENERIC, LINEAR):
        for n_max in (8, 40):
            ratio = oracle._assert_trace_invariance(_sector0_block(params, n_max),
                                                    params.kappa2)
            assert ratio < 1e-2, (params, n_max, ratio)


def test_correlator_sector_gate_fires(monkeypatch):
    # a drive V X + X V moves the coherence label by one
    def driven(params, trunc):
        return full_generator(params, trunc, drive=0.3)

    monkeypatch.setattr(oracle, "full_generator", driven)
    vac = FockState.vacuum(Truncation(5))
    with pytest.raises(InternalConsistencyError, match="couples coherence sectors"):
        multi_time_correlators(GENERIC, [[("o", 0.4)]], vac)


def test_correlator_chunks_give_identical_values(monkeypatch):
    # chunks of 3 sequences, or one chunk for all, give the same numbers
    sequences = [[("o", 0.1 * n)] for n in range(7)]
    sequences += [[("+", 0.3 + 0.1 * n), ("o", 0.05 * n)] for n in range(8)]
    sequences += [[("o", 1.0), ("-", 0.5), ("o", 0.01 * n)] for n in range(5)]
    rho0 = FockState.coherent(Truncation(8), 0.6 - 0.3j)
    whole = multi_time_correlators(NONLINEAR, sequences, rho0)
    monkeypatch.setattr(oracle, "CHUNK_BYTES", 3 * 4 * 16 * 9 * 9)
    chunked = multi_time_correlators(NONLINEAR, sequences, rho0)
    assert np.array_equal(chunked, whole)


def test_correlator_quadrature_memory_is_bounded():
    # order 2 at the default 24 nodes is one batch of 576 sequences; as one
    # chunk it peaked at 37 MB at n_max 30, its four stacks alone 35 MB
    rho0 = FockState.coherent(Truncation(30), 1.0)
    tracemalloc.start()
    try:
        noise.moment_by_correlator_quadrature(NONLINEAR, rho0, 2.0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak
