import math

import numpy as np
import pytest
import scipy.linalg as sla

from kerrloss.fockbasis import FockState, Truncation
from kerrloss.noise import (
    GridAdequacyError,
    NoiseRun,
    TruncationError,
    cumulant_trace,
    cumulants_from_moments,
    default_x_grid,
    extensivity_ratio,
    fd_moments,
    generating_function,
    moment_by_correlator_quadrature,
    moments_from_grid,
    probability_density,
    run_noise,
    symmetric_J_grid,
    xi_evolve,
)
from kerrloss.superops import GeneratorAction, ModelParams

NONLINEAR = ModelParams(1.0, 0.0, 1.0, 10.0)
LINEAR = ModelParams(1.0, 0.0, 1.0, 0.0)
GENERIC = ModelParams(0.9, 0.6, 0.37, 1.1)


def vacuum(n_max):
    return FockState.vacuum(Truncation(n_max))


def test_symmetric_grid_validation():
    g = symmetric_J_grid(4.0, 9)
    assert g[0] == -4.0 and g[-1] == 4.0 and 0.0 in g
    with pytest.raises(ValueError):
        symmetric_J_grid(4.0, 8)
    with pytest.raises(ValueError):
        symmetric_J_grid(4.0, 1)


def test_xi_evolve_backends_agree():
    vac = vacuum(12)
    for J in (0.0, 1.5, 6.0):
        ref = xi_evolve(NONLINEAR, J, 0.8, vac, backend="expm")
        for backend in ("eig", "ode", "auto"):
            out = xi_evolve(NONLINEAR, J, 0.8, vac, backend=backend)
            assert np.max(np.abs(out.entries - ref.entries)) < 1e-8, backend
    with pytest.raises(ValueError):
        xi_evolve(NONLINEAR, 1.0, 0.5, vac, backend="magic")
    # every backend, the eig one included, refuses to evolve backward
    for backend in ("auto", "eig", "expm", "ode"):
        with pytest.raises(ValueError):
            xi_evolve(NONLINEAR, 1.0, -0.5, vac, backend=backend)


def test_xi_evolve_truncation_gate():
    # a strong source on a tiny cutoff piles weight on the top level
    with pytest.raises(TruncationError):
        xi_evolve(LINEAR, 6.0, 1.0, vacuum(3), backend="expm")
    # same run passes with the gate disabled
    xi_evolve(LINEAR, 6.0, 1.0, vacuum(3), backend="expm", top_tol=None)


def test_generating_function_basics():
    vac = vacuum(12)
    grid = symmetric_J_grid(4.0, 17)
    Z = generating_function(NONLINEAR, vac, 0.5, grid)
    assert Z[grid == 0][0] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(Z - np.conj(Z[::-1]))) < 1e-10
    assert np.all(np.abs(Z) <= 1.0 + 1e-10)
    with pytest.raises(ValueError):
        generating_function(NONLINEAR, vac, 0.5, np.linspace(0.0, 4.0, 9))
    with pytest.raises(ValueError):
        generating_function(NONLINEAR, vac, -0.5, grid)


def test_probability_t0_is_delta():
    # Z(J) = 1 for t = 0; reconstruction concentrates all mass at x = 0
    grid = symmetric_J_grid(8.0, 129)
    Z = np.ones(len(grid), dtype=complex)
    # tail gate would trip on the flat function, as it should
    with pytest.raises(GridAdequacyError):
        probability_density(Z, grid)


def test_probability_gaussian_analytic():
    # Z = exp(-J^2/2) must reconstruct the unit normal
    grid = symmetric_J_grid(8.0, 257)
    Z = np.exp(-(grid**2) / 2).astype(complex)
    x, Pv = probability_density(Z, grid)
    ref = np.exp(-(x**2) / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(Pv - ref)) < 1e-7
    m = moments_from_grid(x, Pv, range(1, 5))
    assert abs(m[0]) < 1e-9 and m[1] == pytest.approx(1.0, abs=1e-6)
    k = cumulants_from_moments(m)
    assert abs(k[3]) < 1e-4


def test_probability_gate_on_broken_symmetry():
    grid = symmetric_J_grid(8.0, 65)
    Z = np.exp(-(grid**2) / 2).astype(complex)
    Z[3] += 1e-6j
    with pytest.raises(GridAdequacyError):
        probability_density(Z, grid)


def test_default_x_grid_nyquist_pairing():
    grid = symmetric_J_grid(8.0, 129)
    x = default_x_grid(grid)
    dJ = grid[1] - grid[0]
    assert len(x) == len(grid)
    assert x[1] - x[0] == pytest.approx(2 * np.pi / (len(grid) * dJ))
    assert 0.0 in x


def test_fd_moments_compound_poisson():
    # Z(J) = exp(lam (e^{iJ} - 1)) has kappa_n = lam for every n, so the raw
    # moments follow the Bell polynomial ladder: m1 = lam, m2 = lam + lam^2, ...
    lam = 0.7

    def z(J):
        return np.exp(lam * (np.exp(1j * J) - 1.0))

    m = fd_moments(z, 1e-2)
    assert m[0] == pytest.approx(lam, abs=1e-8)
    assert m[1] == pytest.approx(lam + lam**2, abs=1e-7)
    k = cumulants_from_moments(m)
    assert np.max(np.abs(k - lam)) < 1e-5


def test_fd_moments_gaussian():
    def z(J):
        return np.exp(-(J**2) / 2)

    m = fd_moments(z, 1e-2)
    k = cumulants_from_moments(m)
    assert k[0] == pytest.approx(0.0, abs=1e-9)
    assert k[1] == pytest.approx(1.0, abs=1e-8)
    assert abs(k[3]) < 1e-5


def test_cumulant_trace_matches_single_runs():
    vac = vacuum(14)
    trace = cumulant_trace(NONLINEAR, vac, [0.5, 2.0])
    # each entry must agree with an independent one-shot finite difference
    for rec in trace:
        def z(J, t=rec["t"]):
            out = xi_evolve(NONLINEAR, abs(J), t, vac)
            zz = out.trace()
            return zz if J >= 0 else np.conj(zz)

        m = fd_moments(z, 1e-2)
        k = cumulants_from_moments(m)
        # the one-shot finite differences carry rounding-level Z noise
        # amplified by 1/h^4 in the fourth cumulant
        assert np.max(np.abs(k - rec["cumulants"])) < 1e-5
    with pytest.raises(ValueError):
        cumulant_trace(NONLINEAR, vac, [2.0, 0.5])


def test_moment_duality_first_and_second():
    # derivative moments of Z against nested ordered correlator quadrature
    vac = vacuum(14)
    for t in (0.5, 2.0):
        trace = cumulant_trace(NONLINEAR, vac, [t])
        k = trace[0]["cumulants"]
        m1 = k[0]
        m2 = k[1] + k[0] ** 2
        q1 = moment_by_correlator_quadrature(NONLINEAR, vac, t, 1)
        q2 = moment_by_correlator_quadrature(NONLINEAR, vac, t, 2)
        assert q1 == pytest.approx(m1, rel=1e-6, abs=1e-9)
        assert q2 == pytest.approx(m2, rel=1e-6, abs=1e-9)
    with pytest.raises(ValueError):
        moment_by_correlator_quadrature(NONLINEAR, vac, 0.5, 3)


def test_variance_extensivity_long_time():
    # the integrated noise variance grows linearly once transients die out
    ratio = extensivity_ratio(NONLINEAR, vacuum(14), 10.0)
    assert 1.8 < ratio < 2.2


def test_run_noise_nonlinear_consistency():
    run = run_noise(NONLINEAR, vacuum(14), 0.5, J_max=16.0, N_J=257)
    assert isinstance(run, NoiseRun)
    # moments of the reconstructed density agree with the Z-derivative route
    m_P = run.moments
    k = run.cumulants
    assert m_P[0] == pytest.approx(k[0], abs=1e-5)
    assert m_P[1] == pytest.approx(k[1] + k[0] ** 2, rel=1e-4)
    assert np.trapezoid(run.P_values, run.x_grid) == pytest.approx(1.0, abs=1e-6)
    # serializations round-trip basic fields
    import json

    payload = json.loads(run.to_json())
    assert payload["t"] == 0.5
    assert payload["N_J"] == len(run.J_grid)
    assert run.z_csv().splitlines()[0] == "J,re_Z,im_Z"
    assert run.p_csv().splitlines()[0] == "x,P"


def test_run_noise_adaptive_doubling():
    # slow Z tail at t = 2 forces at least one grid doubling
    run = run_noise(NONLINEAR, vacuum(14), 2.0, J_max=8.0, N_J=129)
    assert run.J_grid[-1] >= 16.0
    assert abs(run.Z_values[-1]) < 1e-6
    with pytest.raises(GridAdequacyError):
        run_noise(NONLINEAR, vacuum(14), 2.0, J_max=8.0, N_J=129, max_doublings=0)


def test_truncation_stability_of_cumulants():
    # raising the cutoff must not move the converged nonlinear cumulants
    a = cumulant_trace(NONLINEAR, vacuum(14), [1.0])[0]["cumulants"]
    b = cumulant_trace(NONLINEAR, vacuum(22), [1.0])[0]["cumulants"]
    assert np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))) < 1e-3


def test_linear_case_is_gaussian():
    # with kappa2 = 0 the model is quadratic and all cumulants above the
    # second vanish; the excess kurtosis stays at numerical zero
    trace = cumulant_trace(LINEAR, vacuum(40), [0.5, 2.0])
    for rec in trace:
        assert abs(rec["excess_kurtosis"]) < 1e-4
        assert rec["cumulants"][1] > 0


def test_exact_vacuum_variance():
    # from the vacuum only block m = +-1, k = 0 is visited; its eigenvalue
    # lam = -i omega - kappa1/2 has no U or kappa2 term, so
    # var x(t) = 2 Re (e^{lam t} - 1 - lam t) / lam^2 for both channels
    times = [0.5, 2.0, 10.0]
    for params, n_max in ((LINEAR, 40), (NONLINEAR, 14)):
        lam = -1j * params.omega - 0.5 * params.kappa1
        trace = cumulant_trace(params, vacuum(n_max), times)
        for rec in trace:
            t = rec["t"]
            exact = 2.0 * ((np.exp(lam * t) - 1.0 - lam * t) / lam**2).real
            assert rec["cumulants"][1] == pytest.approx(exact, rel=1e-10)


def _seeded_state(n_max, top_level, seed):
    rng = np.random.default_rng(seed)
    size = top_level + 1
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    rho = g @ g.conj().T
    entries = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    entries[:size, :size] = rho / np.trace(rho)
    return FockState(entries)


def _full_space_cumulants(params, initial, t, q=4):
    # the untilted generator and W = V^o from two generator builds (drive 0
    # and 1), stacked into the block upper-bidiagonal generator at the full
    # cutoff and exponentiated densely
    trunc = initial.truncation
    L = GeneratorAction(params, trunc).sparse_matrix().toarray()
    W = GeneratorAction(params, trunc, drive=1.0).sparse_matrix().toarray() - L
    D = L.shape[0]
    M = np.zeros(((q + 1) * D, (q + 1) * D), dtype=complex)
    for i in range(q + 1):
        M[i * D : (i + 1) * D, i * D : (i + 1) * D] = L
        if i < q:
            M[i * D : (i + 1) * D, (i + 1) * D : (i + 2) * D] = W
    vec = np.zeros((q + 1) * D, dtype=complex)
    vec[q * D :] = initial.entries.ravel()
    blocks = (sla.expm(M * t) @ vec).reshape(q + 1, trunc.dim, trunc.dim)
    moments = [
        math.factorial(n) / 2.0**n * np.trace(blocks[q - n]).real for n in range(1, q + 1)
    ]
    return cumulants_from_moments(np.array(moments))


def test_reachable_level_restriction_is_exact():
    # a state on levels <= 3 at n_max = 9 runs at cutoff 5 inside
    # cumulant_trace; the full 10-level space must give the same cumulants
    initial = _seeded_state(9, 3, seed=2024)
    times = [0.5, 2.0]
    for params in (LINEAR, NONLINEAR, GENERIC):
        trace = cumulant_trace(params, initial, times)
        for rec in trace:
            ref = _full_space_cumulants(params, initial, rec["t"])
            np.testing.assert_allclose(rec["cumulants"], ref, rtol=1e-12, atol=0)


def test_cumulant_trace_truncation_gate():
    # a coherent state reaches the cutoff, so no reachable-level restriction
    # applies and the cutoff-weight gate still fires
    coherent = FockState.coherent(Truncation(6), 2.0)
    with pytest.raises(TruncationError):
        cumulant_trace(LINEAR, coherent, [0.5])


def test_cutoff_reaching_cumulants():
    # a coherent state occupies every level, so cumulant_trace runs at the
    # full cutoff and gates every order block; at alpha = 1 the top levels
    # carry too little weight to trip the gate or move the cumulants
    times = [0.5, 2.0]
    traces = {}
    for n_max in (10, 16):
        initial = FockState.coherent(Truncation(n_max), 1.0)
        traces[n_max] = cumulant_trace(NONLINEAR, initial, times)
        for rec in traces[n_max]:
            def z(J, t=rec["t"], initial=initial):
                zz = xi_evolve(NONLINEAR, abs(J), t, initial).trace()
                return zz if J >= 0 else np.conj(zz)

            k = cumulants_from_moments(fd_moments(z, 2e-2))
            scale = np.maximum(1.0, np.abs(k))
            assert np.max(np.abs(k - rec["cumulants"]) / scale) < 1e-5
    for a, b in zip(traces[10], traces[16]):
        dev = np.abs(a["cumulants"] - b["cumulants"]) / np.maximum(1.0, np.abs(a["cumulants"]))
        assert np.max(dev) < 1e-6
    # at n_max = 10 the gated run is the dense full-space block exponential
    initial = FockState.coherent(Truncation(10), 1.0)
    for rec in traces[10]:
        ref = _full_space_cumulants(NONLINEAR, initial, rec["t"])
        np.testing.assert_allclose(rec["cumulants"], ref, rtol=1e-10, atol=0)
