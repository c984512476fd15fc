import math

import numpy as np
import pytest

from kerrloss import evolution, spectral
from kerrloss.evolution import (
    PropagatorCoefficients,
    g_coefficient,
    heisenberg_a_factor,
    heisenberg_a_factors,
    heisenberg_phi,
    propagate_phi,
    similarity_propagate,
    simaan_g,
)
from kerrloss.fockbasis import FockState, Truncation, phi_indices
from kerrloss.oracle import expm_propagate, ode_propagate
from kerrloss.specfun import sqrt_binom
from kerrloss.spectral import decompose, eigenvalue
from kerrloss.superops import InternalConsistencyError, ModelParams, annihilation, full_generator

GENERIC = ModelParams(0.9, 0.6, 0.37, 1.1)
PURE_LOSS = ModelParams(0.0, 0.0, 0.0, 1.0)
#: one channel per case tag, kappa2 = 0 and kappa1 = kappa2 = 0 included
CASE_CHANNELS = (
    GENERIC,
    ModelParams(1.0, 0.5, 2.0, 1.0),
    ModelParams(1.0, 0.5, 0.0, 1.0),
    ModelParams(1.0, 0.5, 0.8, 0.0),
    ModelParams(1.0, 0.5, 0.0, 0.0, allow_unitary=True),
)


def random_hermitian_state(trunc, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(trunc.dim, trunc.dim)) + 1j * rng.normal(size=(trunc.dim, trunc.dim))
    rho = X @ X.conj().T
    rho /= np.trace(rho)
    return FockState(rho, hermitian=True)


def test_g_requires_two_body_loss():
    with pytest.raises(ValueError):
        g_coefficient(ModelParams(1.0, 0.0, 1.0, 0.0), 0, 0, 1, 0.5)


def test_g_r0_is_eigenvalue_exponential():
    for m, k, t in [(0, 2, 0.4), (2, 1, 1.3), (-3, 0, 0.2)]:
        assert g_coefficient(GENERIC, m, k, 0, t) == pytest.approx(
            np.exp(eigenvalue(GENERIC, m, k) * t)
        )


def test_g_t0_is_kronecker():
    for r in range(7):
        val = g_coefficient(GENERIC, 1, 2, r, 0.0)
        assert abs(val - (1.0 if r == 0 else 0.0)) < 1e-10


def test_simaan_g_examples():
    # r = 0 reduces to the bare decay exponential, zero modes stay put
    assert simaan_g(2, 1, 0, 0.7, 1.3) == pytest.approx(
        np.exp(eigenvalue(ModelParams(0, 0, 0, 1.3), 2, 1) * 0.7)
    )
    assert simaan_g(0, 0, 0, 5.0, 1.0) == pytest.approx(1.0)
    assert simaan_g(0, 1, 0, 5.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        simaan_g(-1, 0, 0, 1.0, 1.0)


def test_g_odd_vanishing_and_simaan_match():
    for t in (0.1, 0.5, 2.0):
        for m in range(5):
            for k in range(7):
                for r in range(7):
                    if r % 2 == 1:
                        assert abs(g_coefficient(PURE_LOSS, m, k, r, t)) < 1e-12
                    assert abs(
                        g_coefficient(PURE_LOSS, m, k, 2 * r, t)
                        - simaan_g(m, k, r, t, 1.0)
                    ) < 1e-10


def test_g_matches_pure_loss_example():
    # m=2, k=1, r=4, t=0.3 under pure two-body loss
    assert g_coefficient(PURE_LOSS, 2, 1, 4, 0.3) == pytest.approx(
        simaan_g(2, 1, 2, 0.3, 1.0), abs=1e-12
    )


def test_propagate_phi_t0_and_trace():
    tr = Truncation(10)
    rho0 = FockState.coherent(tr, 0.8)
    out = propagate_phi(GENERIC, rho0, 0.0)
    assert np.max(np.abs(out.entries - rho0.entries)) < 1e-10
    out = propagate_phi(GENERIC, rho0, 1.3)
    assert out.trace() == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(out.entries - out.entries.conj().T)) < 1e-10
    with pytest.raises(ValueError):
        propagate_phi(GENERIC, rho0, -0.1)
    with pytest.raises(ValueError):  # coefficients built for another cutoff
        propagate_phi(GENERIC, rho0, 0.5, PropagatorCoefficients(GENERIC, Truncation(12)))
    # the flag is carried, not re-checked: a check on this matrix would raise
    flagged = FockState(np.triu(rho0.entries))
    flagged.hermitian = True
    for route in (propagate_phi, heisenberg_phi):
        assert route(GENERIC, flagged, 0.5).hermitian is True
        assert route(GENERIC, FockState(rho0.entries), 0.5).hermitian is False


def test_propagation_matches_oracle_all_cases():
    tr = Truncation(8)
    rho0 = FockState.coherent(tr, 0.8)
    for params in CASE_CHANNELS:
        gen = full_generator(params, tr)
        for t in (0.2, 1.0):
            mine = propagate_phi(params, rho0, t)
            ref = ode_propagate(gen, rho0, t)
            dev = np.max(np.abs(mine.entries - ref.entries))
            assert dev < 1e-6, (params, t, dev)


def test_similarity_propagate_agrees_with_phi_route():
    # every case tag, from full-support states: the eigenvector factors
    # against the similarity transform of the bidiagonal closed form, and the
    # Heisenberg picture against it by duality tr[O^H(t) rho0] = tr[O rho(t)]
    tr = Truncation(10)
    rho0 = random_hermitian_state(tr, 12)
    rng = np.random.default_rng(13)
    obs = FockState(rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim)))
    for params in CASE_CHANNELS:
        coeffs = PropagatorCoefficients(params, tr)
        for t in (0.1, 0.7, 3.0):
            a = propagate_phi(params, rho0, t, coeffs)
            b = similarity_propagate(params, rho0, t)
            assert np.max(np.abs(a.entries - b.entries)) < 1e-8, (params, t)
            sched = np.trace(obs.entries @ b.entries)
            heis = np.trace(heisenberg_phi(params, obs, t, coeffs).entries @ rho0.entries)
            assert abs(sched - heis) < 1e-8 * max(1.0, abs(sched)), (params, t)


def test_similarity_propagate_never_builds_eigenvectors(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigenvector factors built by the similarity route")

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", forbidden)
    monkeypatch.setattr(spectral.PropagatorCoefficients, "__init__", forbidden)
    tr = Truncation(10)
    rho0 = random_hermitian_state(tr, 14)
    for params in CASE_CHANNELS:
        for t in (0.2, 1.0):
            ref = expm_propagate(params, rho0, t).entries
            out = similarity_propagate(params, rho0, t).entries
            assert np.max(np.abs(out - ref)) <= 1e-10, (params, t)


def test_similarity_propagate_eigenmode():
    # a right eigenvector placed in block m evolves by its eigenvalue alone
    tr = Truncation(9)
    m, k, t = 1, 2, 0.9
    R = PropagatorCoefficients(GENERIC, tr).factors(m)[1]
    entries = np.zeros((tr.dim, tr.dim), dtype=complex)
    for p in range(tr.block_size(m)):
        entries[phi_indices(m, p)] = R[p, k]
    mode = FockState(entries)
    expected = np.exp(eigenvalue(GENERIC, m, k) * t) * entries
    for route in (similarity_propagate, propagate_phi):
        out = route(GENERIC, mode, t)
        assert np.max(np.abs(out.entries - expected)) < 1e-10, route


def test_semigroup_property():
    tr = Truncation(9)
    rho0 = random_hermitian_state(tr, 21)
    one = propagate_phi(GENERIC, propagate_phi(GENERIC, rho0, 0.4), 0.8)
    two = propagate_phi(GENERIC, rho0, 1.2)
    assert np.max(np.abs(one.entries - two.entries)) < 1e-8


def test_positivity_at_samples():
    tr = Truncation(9)
    for seed in (1, 2):
        rho0 = random_hermitian_state(tr, seed)
        for t in (0.3, 2.0):
            out = propagate_phi(GENERIC, rho0, t)
            sym = 0.5 * (out.entries + out.entries.conj().T)
            assert np.min(np.linalg.eigvalsh(sym)) > -1e-8


def test_steady_state_vacuum():
    tr = Truncation(10)
    rho0 = FockState.coherent(tr, 0.8)
    out = propagate_phi(GENERIC, rho0, 50.0 / GENERIC.kappa1)
    target = FockState.vacuum(tr)
    assert np.max(np.abs(out.entries - target.entries)) < 1e-8


def test_parity_functional_conserved_without_one_body_loss():
    p = ModelParams(1.0, 0.5, 0.0, 1.0)
    tr = Truncation(10)
    rho0 = FockState.zero(tr)
    rho0.entries[0, 0] = 0.4
    rho0.entries[2, 2] = 0.6
    parity_plus = np.diag((np.arange(tr.dim) % 2 == 0).astype(float))
    ref = np.trace(parity_plus @ rho0.entries)
    for t in (0.1, 1.0, 10.0):
        out = propagate_phi(p, rho0, t)
        assert np.trace(parity_plus @ out.entries) == pytest.approx(ref, abs=1e-9)


def test_heisenberg_identity_fixed():
    tr = Truncation(8)
    ident = FockState(np.eye(tr.dim, dtype=complex), hermitian=True)
    out = heisenberg_phi(GENERIC, ident, 1.7)
    assert np.max(np.abs(out.entries - ident.entries)) < 1e-9


def test_heisenberg_duality():
    tr = Truncation(9)
    rho0 = FockState.coherent(tr, 0.6)
    obs = FockState(np.diag(np.arange(tr.dim, dtype=complex)), hermitian=True)
    for params in (GENERIC, ModelParams(1.0, 0.5, 0.8, 0.0)):
        for t in (0.3, 1.5):
            sched = np.trace(propagate_phi(params, rho0, t).entries @ obs.entries)
            heis = np.trace(heisenberg_phi(params, obs, t).entries @ rho0.entries)
            assert abs(sched - heis) < 1e-8


def test_heisenberg_number_decay_linear_loss():
    p = ModelParams(1.0, 0.0, 1.0, 0.0)
    tr = Truncation(10)
    obs = FockState(np.diag(np.arange(tr.dim, dtype=complex)), hermitian=True)
    rho0 = FockState.coherent(tr, 0.9)
    n0 = np.trace(obs.entries @ rho0.entries).real
    for t in (0.4, 1.1):
        nt = np.trace(heisenberg_phi(p, obs, t).entries @ rho0.entries).real
        assert nt == pytest.approx(n0 * np.exp(-p.kappa1 * t), abs=1e-8)


def test_heisenberg_a_sparsity_and_factor():
    tr = Truncation(9)
    a_op = FockState(annihilation(tr))
    coeffs = PropagatorCoefficients(GENERIC, tr)
    for t in (0.2, 0.8):
        aH = heisenberg_phi(GENERIC, a_op, t, coeffs)
        mask = np.ones_like(aH.entries, dtype=bool)
        idx = np.arange(tr.dim - 1)
        mask[idx, idx + 1] = False
        assert np.max(np.abs(aH.entries[mask])) == 0
        for k in range(tr.dim - 1):
            f = heisenberg_a_factor(GENERIC, tr, k, t, coeffs)
            assert abs(aH.entries[k, k + 1] - f * np.sqrt(k + 1)) < 1e-9


def test_propagator_cache_block_matrix():
    tr = Truncation(7)
    lam, R, L = PropagatorCoefficients(GENERIC, tr).factors(1)
    T = (R * np.exp(lam * 0.5)[..., None, :]) @ L
    assert np.all(np.tril(T, -1) == 0)
    assert T[0, 0] == pytest.approx(np.exp(eigenvalue(GENERIC, 1, 0) * 0.5))
    # kappa2 = 0 factors are the Gaussian-limit blocks of the spectral route
    linear = ModelParams(1.0, 0.5, 1.0, 0.0)
    lam, R, L = PropagatorCoefficients(linear, tr).factors(-2)
    ref = decompose(linear, tr)
    assert np.array_equal(lam, ref.eigenvalues[-2])
    assert np.array_equal(R, ref.R[-2].entries) and np.array_equal(L, ref.Lmat[-2].entries)


FACTOR_CHANNELS = (
    GENERIC,
    ModelParams(1.0, 0.5, 2.0, 1.0),
    ModelParams(1.0, 0.5, 0.0, 1.0),
    PURE_LOSS,
)


def test_block_factorization_matches_g_double_sum():
    # the paper's scalar double sum is the reference for R e^{Lambda t} L;
    # deviations are relative to the largest entry, since cancelling
    # entries (odd r under pure loss) are zero to rounding
    for params in FACTOR_CHANNELS:
        for n_max in (6, 9):
            tr = Truncation(n_max)
            coeffs = PropagatorCoefficients(params, tr)
            for m in (-3, -1, 0, 2):
                am = abs(m)
                size = tr.block_size(m)
                for t in (0.0, 0.3, 2.0):
                    ref = np.zeros((size, size), dtype=complex)
                    for k in range(size):
                        for q in range(k, size):
                            ref[k, q] = (
                                sqrt_binom(am + q, am + k)
                                * sqrt_binom(q, k)
                                * g_coefficient(params, m, k, q - k, t)
                            )
                    lam, R, L = coeffs.factors(m)
                    T = (R * np.exp(lam * t)[..., None, :]) @ L
                    dev = np.max(np.abs(T - ref)) / np.max(np.abs(ref))
                    assert dev < 1e-12, (params, n_max, m, t, dev)
            for t in (0.0, 0.3, 2.0):
                ref = np.array([
                    sum(math.comb(k, q) * g_coefficient(params, 1, q, k - q, t)
                        for q in range(k + 1))
                    for k in range(n_max)
                ])
                mine = np.array([heisenberg_a_factor(params, tr, k, t, coeffs)
                                 for k in range(n_max)])
                dev = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
                assert dev < 1e-12, (params, n_max, t, dev)


def test_a_factor_column_matches_full_block():
    # the a-factor table is one row-vector product on each side of block 1;
    # forming the whole block and slicing its columns gives the same values
    # to rounding, and each row is that table's entry
    tr = Truncation(20)
    coeffs = PropagatorCoefficients(GENERIC, tr)
    lam, R, L = coeffs.factors(1)
    for t in (0.3, 2.0, 7.0):
        T = (R * np.exp(lam * t)[..., None, :]) @ L
        ref = []
        for k in range(tr.dim - 1):
            q = np.arange(k + 1)
            ref.append(np.sqrt((q + 1) / (k + 1)) @ T[q, k])
        ref = np.array(ref)
        mine = heisenberg_a_factors(GENERIC, tr, t, coeffs)
        dev = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
        assert dev < 1e-14, (t, dev)
        rows = [heisenberg_a_factor(GENERIC, tr, k, t, coeffs) for k in range(tr.dim - 1)]
        assert np.array_equal(rows, mine)
    for k in (-1, tr.n_max):
        with pytest.raises(ValueError):
            heisenberg_a_factor(GENERIC, tr, k, 1.0, coeffs)
    with pytest.raises(ValueError):  # coefficients built for another cutoff
        heisenberg_a_factors(GENERIC, Truncation(12), 1.0, coeffs)


def test_factors_built_once_per_block(monkeypatch):
    calls = []
    original = spectral.EigenvectorBuilder.fill_blocks

    def counted(self, ams, R, L):
        calls.extend(ams)
        return original(self, ams, R, L)

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", counted)
    tr = Truncation(8)
    rho0 = FockState.coherent(tr, 0.7)
    coeffs = PropagatorCoefficients(GENERIC, tr)
    assert not calls  # the constructor does no work
    propagate_phi(GENERIC, rho0, 0.1, coeffs)
    built = len(calls)
    # one build per |m|: block -m is the conjugate of block m
    assert sorted(calls) == list(range(tr.n_max + 1))
    for t in (0.2, 0.5, 1.0, 3.0, 7.0):
        propagate_phi(GENERIC, rho0, t, coeffs)
        heisenberg_phi(GENERIC, rho0, t, coeffs)
    assert len(calls) == built
    # the a-factor rows read block 1 only, however many rows and times
    calls.clear()
    fresh = PropagatorCoefficients(GENERIC, tr)
    for t in (0.2, 3.0):
        for k in range(tr.n_max):
            heisenberg_a_factor(GENERIC, tr, k, t, fresh)
    assert calls == [1]


#: (omega, U, kappa1) of the kappa2 = 0 product-form checks, and U = 0
GAUSSIAN = ModelParams(1.0, 0.5, 0.8, 0.0)
GAUSSIAN_LINEAR = ModelParams(1.0, 0.0, 0.8, 0.0)
UNITARY = ModelParams(1.0, 0.5, 0.0, 0.0, allow_unitary=True)


@pytest.mark.parametrize("n_max", [30, 40])
@pytest.mark.parametrize("params", [GAUSSIAN, GAUSSIAN_LINEAR], ids=["kerr", "U0"])
def test_product_form_matches_expm(params, n_max):
    # the damped-Kerr product form against the sparse matrix exponential, on a
    # full-support state at cutoffs where a double-precision product of the
    # eigenvector factors cancels to 1e-4 (n_max 30) and O(1) (n_max 40)
    tr = Truncation(n_max)
    rho0 = random_hermitian_state(tr, 31)
    for t in (0.1, 1.0):
        ref = expm_propagate(params, rho0, t).entries
        mine = propagate_phi(params, rho0, t).entries
        dev = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-12, (n_max, t, dev)


def test_product_form_linear_loss_is_binomial_thinning():
    # at U = 0, x_m = 1 - e^{-kappa1 t} for every block: a Fock state thins
    # binomially, p_k(t) = C(n, k) x^(n-k) (1 - x)^k
    tr, n, t = Truncation(20), 20, 0.7
    x = 1.0 - math.exp(-GAUSSIAN_LINEAR.kappa1 * t)
    out = propagate_phi(GAUSSIAN_LINEAR, FockState.fock(tr, n), t).entries
    ref = [math.comb(n, k) * x ** (n - k) * (1 - x) ** k for k in range(n + 1)]
    assert np.max(np.abs(np.diag(out) - ref)) < 1e-15
    assert np.max(np.abs(out - np.diag(np.diag(out)))) == 0


def test_product_form_hamiltonian_only_is_exact_phases():
    # no loss: rho_pq(t) = e^{-i(E_p - E_q) t} rho_pq(0), nothing mixes
    tr = Truncation(20)
    rho0 = random_hermitian_state(tr, 32)
    n = np.arange(tr.dim)
    E = UNITARY.omega * n + 0.5 * UNITARY.U * n * (n - 1)
    for t in (0.1, 1.0, 7.0):
        ref = np.exp(-1j * (E[:, None] - E[None, :]) * t) * rho0.entries
        out = propagate_phi(UNITARY, rho0, t).entries
        # every modulus kept to rounding: no decay and no mixing
        moduli = np.abs(np.abs(out) - np.abs(rho0.entries))
        assert np.max(moduli) <= 4 * np.finfo(float).eps * np.max(np.abs(rho0.entries))
        # E_p - E_q is exact in binary here, so the phases are too
        assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(rho0.entries)), t


@pytest.mark.parametrize("params", [GAUSSIAN, GAUSSIAN_LINEAR, UNITARY],
                         ids=["kerr", "U0", "unitary"])
def test_product_form_heisenberg_duality(params):
    # tr[O^H(t) rho0] = tr[O rho(t)] for N and a, and the a-factor rows are
    # the superdiagonal of a^H(t)
    tr = Truncation(16)
    rho0 = random_hermitian_state(tr, 33)
    coeffs = PropagatorCoefficients(params, tr)
    number = FockState(np.diag(np.arange(tr.dim, dtype=complex)), hermitian=True)
    a_op = FockState(annihilation(tr))
    k = np.arange(tr.n_max)
    for t in (0.1, 1.0, 4.0):
        rho_t = propagate_phi(params, rho0, t, coeffs).entries
        for obs in (number, a_op):
            sched = np.trace(obs.entries @ rho_t)
            heis = np.trace(heisenberg_phi(params, obs, t, coeffs).entries @ rho0.entries)
            assert abs(sched - heis) < 1e-13 * max(1.0, abs(sched)), (t, sched, heis)
        aH = heisenberg_phi(params, a_op, t, coeffs).entries
        f = heisenberg_a_factors(params, tr, t, coeffs)
        assert np.max(np.abs(aH[k, k + 1] - f * np.sqrt(k + 1))) < 1e-14


def test_product_form_never_builds_eigenvectors(monkeypatch):
    def forbidden(self, ams, R, L):
        raise AssertionError(f"eigenvector blocks {ams} built at kappa2 = 0")

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", forbidden)
    tr = Truncation(10)
    rho0 = FockState.coherent(tr, 0.7)
    for params in (GAUSSIAN, UNITARY):
        coeffs = PropagatorCoefficients(params, tr)
        for route in (propagate_phi, heisenberg_phi):
            route(params, rho0, 0.5)
            route(params, rho0, 0.5, coeffs)
        heisenberg_a_factors(params, tr, 0.5, coeffs)
        coeffs.product_form(0.5, slice(2, 3))


#: one channel per kappa2 > 0 case tag: generic ratio, integer ratio, kappa1 = 0
LOSSY_CHANNELS = (GENERIC, ModelParams(1.0, 0.5, 2.0, 1.0), ModelParams(1.0, 0.5, 0.0, 1.0))


@pytest.mark.parametrize("n_max", [12, 30])
@pytest.mark.parametrize("params", LOSSY_CHANNELS, ids=["generic", "integer", "zero_kappa1"])
def test_factor_route_matches_propagator_stack(params, n_max):
    # R (e^{Lambda t} (L v)) against T(t) = (R e^{Lambda t}) L formed and then
    # applied, both pictures; at t = 0 both orders carry the cancellation of
    # R L = I at binomial size (about 5e-13 at n_max 30), so t > 0 here
    tr = Truncation(n_max)
    coeffs = PropagatorCoefficients(params, tr)
    rows, cols, filled = coeffs.layout
    rng = np.random.default_rng(n_max)
    v = (rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim)))[rows, cols]
    lam, R, L = coeffs.stack()
    for t in (0.1, 1.0):
        T = (R * np.exp(lam * t)[..., None, :]) @ L
        for transpose, ref_T in ((False, T), (True, T[::-1].swapaxes(1, 2))):
            ref = (ref_T @ v[..., None])[..., 0][filled]
            out = coeffs.apply(v, t, transpose)[filled]
            dev = np.max(np.abs(out - ref)) / np.max(np.abs(out))
            assert dev <= 1e-14, (t, transpose, dev)


@pytest.mark.parametrize("n_max", [30, 40])
def test_factor_route_matches_expm(n_max):
    tr = Truncation(n_max)
    rho0 = random_hermitian_state(tr, 31)
    coeffs = PropagatorCoefficients(GENERIC, tr)
    for t in (0.1, 1.0):
        ref = expm_propagate(GENERIC, rho0, t).entries
        mine = propagate_phi(GENERIC, rho0, t, coeffs).entries
        dev = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
        assert dev <= 1e-12, (t, dev)


def test_factor_route_heisenberg_duality():
    # tr[O^H(t) rho0] = tr[O rho(t)] at n_max 30 for N, a and a full
    # non-Hermitian observable
    tr = Truncation(30)
    rho0 = random_hermitian_state(tr, 33)
    rng = np.random.default_rng(34)
    observables = (
        FockState(np.diag(np.arange(tr.dim, dtype=complex)), hermitian=True),
        FockState(annihilation(tr)),
        FockState(rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim))),
    )
    assert {spectral.classify(p) for p in LOSSY_CHANNELS} == {
        spectral.CaseTag.GENERIC_RATIO, spectral.CaseTag.INTEGER_RATIO, spectral.CaseTag.ZERO_KAPPA1}
    for params in LOSSY_CHANNELS:
        coeffs = PropagatorCoefficients(params, tr)
        for t in (0.1, 1.0, 4.0):
            rho_t = propagate_phi(params, rho0, t, coeffs).entries
            for obs in observables:
                sched = np.trace(obs.entries @ rho_t)
                heis = np.trace(heisenberg_phi(params, obs, t, coeffs).entries @ rho0.entries)
                assert abs(sched - heis) < 1e-13 * max(1.0, abs(sched)), (params, t)


def test_a_factor_rows_evaluate_block_one_alone(monkeypatch):
    # at kappa2 = 0 the a-factor rows evaluate block 1 of the product form
    # alone, with the bits of block 1 of the whole stack
    tr = Truncation(10)
    refs = {p: PropagatorCoefficients(p, tr).product_form(0.5, slice(None))
            for p in (GAUSSIAN, UNITARY)}
    product_form = spectral.PropagatorCoefficients.product_form
    asked = []
    monkeypatch.setattr(spectral.PropagatorCoefficients, "product_form",
                        lambda self, t, blocks: asked.append(blocks) or product_form(self, t, blocks))
    root = np.sqrt(np.arange(1, tr.dim))
    for params, T in refs.items():
        f = heisenberg_a_factors(params, tr, 0.5, PropagatorCoefficients(params, tr))
        assert np.array_equal(f, root @ T[1, :-1, :-1] / root)
    assert asked == [slice(1, 2)] * 2


@pytest.mark.parametrize("n_max", [30, 40])
def test_routes_return_the_input_at_t0(n_max):
    # R_m L_m = I holds only to the rounding of binomial-size entries (5e-13
    # at n_max 30 on this state), so at t = 0 every route returns its input
    tr = Truncation(n_max)
    rho0 = random_hermitian_state(tr, 35)
    for params in (ModelParams(0.7, 0.4, 0.3, 0.6), GAUSSIAN):
        coeffs = PropagatorCoefficients(params, tr)
        for route in (propagate_phi, heisenberg_phi):
            out = route(params, rho0, 0.0, coeffs)
            assert np.array_equal(out.entries, rho0.entries), (params, route)
            assert out.hermitian is True
        assert np.array_equal(heisenberg_a_factors(params, tr, 0.0, coeffs), np.ones(n_max))


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("params", [GENERIC, GAUSSIAN], ids=["lossy", "kappa2_0"])
def test_routes_reject_bad_times(params, t):
    tr = Truncation(6)
    rho0 = FockState.coherent(tr, 0.5)
    coeffs = PropagatorCoefficients(params, tr)
    for route in (propagate_phi, heisenberg_phi):
        with pytest.raises(ValueError, match="finite and non-negative"):
            route(params, rho0, t, coeffs)
    with pytest.raises(ValueError, match="finite and non-negative"):
        heisenberg_a_factors(params, tr, t, coeffs)


def test_routes_reject_coefficients_of_another_channel():
    tr = Truncation(6)
    rho0 = FockState.coherent(tr, 0.5)
    for mine, other in ((GENERIC, ModelParams(0.9, 0.6, 0.37, 1.2)), (GAUSSIAN, GAUSSIAN_LINEAR)):
        coeffs = PropagatorCoefficients(other, tr)
        for route in (propagate_phi, heisenberg_phi):
            with pytest.raises(ValueError, match="parameters do not match"):
                route(mine, rho0, 0.5, coeffs)
        with pytest.raises(ValueError, match="parameters do not match"):
            heisenberg_a_factors(mine, tr, 0.5, coeffs)


#: the channel of the ROADMAP's factor-build figures
ROADMAP = ModelParams(0.7, 0.4, 0.3, 0.6)


def _on_blocks(tr, blocks, seed):
    """A seeded complex matrix whose entries lie in the coherence blocks ``blocks`` only."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim))
    n1, n2 = np.indices(X.shape)
    return FockState(np.where(np.isin(n1 - n2, blocks), X, 0))


def _every_row(params, coeffs, op, t, transpose):
    """``op`` propagated on every row of the stack, occupied or not: R e^{Lambda t} L v
    over all of ``coeffs.stack()`` at kappa2 > 0, the product form of every block at
    kappa2 = 0."""
    rows, cols, filled = coeffs.layout
    v = op.entries[rows, cols]
    if params.kappa2 > 0:
        lam, R, L = coeffs.stack()
        if transpose:
            lam, R, L = lam[::-1], L[::-1].swapaxes(1, 2), R[::-1].swapaxes(1, 2)
        w = (R @ (np.exp(lam * t) * (L @ v[..., None])[..., 0])[..., None])[..., 0]
    else:
        T = coeffs.product_form(t, slice(None))
        T = np.concatenate((T[:0:-1].conj(), T))
        if transpose:
            T = T[::-1].swapaxes(1, 2)
        w = (T @ v[..., None])[..., 0]
    out = np.zeros_like(op.entries)
    out[rows[filled], cols[filled]] = w[filled]
    return out


@pytest.mark.parametrize("params", [ROADMAP, GAUSSIAN], ids=["lossy", "kappa2_0"])
def test_block_sparse_operands_give_the_bytes_of_every_row(params):
    # only the occupied rows are built and propagated; every byte, the sign
    # of each zero included, is that of propagating every row of the stack
    tr = Truncation(12)
    a = annihilation(tr)
    operands = {
        "vacuum": FockState.vacuum(tr),
        "fock:7": FockState.fock(tr, 7),
        "N": FockState(np.diag(np.arange(tr.dim, dtype=complex)), hermitian=True),
        "a": FockState(a),
        "a+": FockState(a.T.copy()),
        "blocks -3, 0, 2": _on_blocks(tr, [-3, 0, 2], 36),
        "coherent": FockState.coherent(tr, 1.1 - 0.6j),
    }
    reference = PropagatorCoefficients(params, tr)
    for name, op in operands.items():
        coeffs = PropagatorCoefficients(params, tr)  # built from this operand alone
        for t in (0.1, 1.0):
            for route, transpose in ((propagate_phi, False), (heisenberg_phi, True)):
                out = route(params, op, t, coeffs).entries
                ref = _every_row(params, reference, op, t, transpose)
                assert out.tobytes() == ref.tobytes(), (name, t, route.__name__)


def _record_builds(monkeypatch):
    """The |m| lists :meth:`EigenvectorBuilder.fill_blocks` is asked for, in order."""
    built, original = [], spectral.EigenvectorBuilder.fill_blocks

    def recorded(self, ams, R, L):
        built.append([int(am) for am in ams])
        return original(self, ams, R, L)

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", recorded)
    return built


def test_propagation_builds_only_the_occupied_blocks(monkeypatch):
    built = _record_builds(monkeypatch)
    tr = Truncation(40)
    coeffs = PropagatorCoefficients(ROADMAP, tr)
    propagate_phi(ROADMAP, FockState.fock(tr, 10), 1.0, coeffs)
    assert built == [[0]]
    heisenberg_phi(ROADMAP, FockState(annihilation(tr)), 1.0, coeffs)  # block -1 reads block 1
    assert built == [[0], [1]]
    rho0 = FockState.coherent(tr, 1.5)
    propagate_phi(ROADMAP, rho0, 1.0, coeffs)
    assert built == [[0], [1], list(range(2, tr.n_max + 1))]
    heisenberg_phi(ROADMAP, rho0, 0.5, coeffs)
    assert len(built) == 3


def test_gapped_block_set_gates_exactly_its_blocks(monkeypatch):
    # blocks {0, 3}: the unbuilt zero blocks 1 and 2 between them are not
    # gated (they would fail at an infinite ratio)
    built = _record_builds(monkeypatch)
    gated, gate = [], spectral.check_biorthogonality

    def recorded(R, L, sizes=None, labels=None):
        gated.append([int(m) for m in labels])
        return gate(R, L, sizes, labels)

    monkeypatch.setattr(spectral, "check_biorthogonality", recorded)
    tr = Truncation(10)
    op = _on_blocks(tr, [0, -3], 37)
    for route in (propagate_phi, heisenberg_phi):
        built.clear()
        gated.clear()
        route(ROADMAP, op, 1.0, PropagatorCoefficients(ROADMAP, tr))
        assert built == [[0, 3]] and gated == [[0], [3]], route.__name__
    # a corrupted entry of block 3 fails the gate, which names block 3
    fill = spectral.EigenvectorBuilder.fill_blocks

    def corrupted(self, ams, R, L):
        fill(self, ams, R, L)
        L[3, 0, 1] *= 1 + 1e-9

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", corrupted)
    with pytest.raises(InternalConsistencyError, match="block m=3: "):
        propagate_phi(ROADMAP, op, 1.0, PropagatorCoefficients(ROADMAP, tr))
