import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import polynomial as P
from scipy.linalg import lapack

from kerrloss import noise, oracle
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.noise import (
    GridAdequacyError,
    NoiseRun,
    TruncationError,
    cumulant_trace,
    cumulants_from_moments,
    default_x_grid,
    generating_function,
    moment_by_correlator_quadrature,
    moments_from_grid,
    probability_density,
    real_form,
    run_noise,
    symmetric_J_grid,
    xi_evolve,
)
from kerrloss.superops import (
    GeneratorAction,
    InternalConsistencyError,
    ModelParams,
    full_generator,
)

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
        out = xi_evolve(NONLINEAR, J, 0.8, vac)
        assert np.max(np.abs(out.entries - ref.entries)) < 1e-8
    for backend in ("magic", "dense"):
        with pytest.raises(ValueError, match="backend must be"):
            xi_evolve(NONLINEAR, 1.0, 0.5, vac, backend=backend)
    # both backends, the dense route behind auto included, refuse to evolve backward
    for backend in ("auto", "expm"):
        with pytest.raises(ValueError):
            xi_evolve(NONLINEAR, 1.0, -0.5, vac, backend=backend)


def test_xi_evolve_truncation_gate():
    # a strong source on a tiny cutoff piles weight on the top level
    for backend in ("auto", "expm"):
        with pytest.raises(TruncationError):
            xi_evolve(LINEAR, 6.0, 1.0, vacuum(3), backend=backend)
    # the same evolution, ungated, returns a state
    oracle.expm_propagate(LINEAR, vacuum(3), 1.0, drive=3j)


def test_real_form_is_exact():
    # S (G_L + J G_W) S^-1 is the tilted generator L + i(J/2) V^o, with
    # G_L and G_W real; a coherent state with complex alpha gives a complex,
    # asymmetric Z, on which the dense route must match the sparse exponential
    rng = np.random.default_rng(314)
    for params in (LINEAR, NONLINEAR, GENERIC):
        for n_max in (5, 9):
            trunc = Truncation(n_max)
            form = real_form(params, trunc)
            assert form.G_L.dtype == form.G_W.dtype == np.float64
            S = form.S.toarray()
            X = rng.normal(size=(trunc.dim,) * 2) + 1j * rng.normal(size=(trunc.dim,) * 2)
            coherent = FockState.coherent(trunc, 0.6 + 0.3j)
            for J in (0.0, 1.5, 6.0):
                ref = full_generator(params, trunc, 0.5j * J).apply(X).ravel()
                got = S @ ((form.G_L + J * form.G_W) @ np.linalg.solve(S, X.ravel()))
                assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
                for t in (0.5, 5.0):
                    a = noise._dense_propagate(params, coherent, t, [J], form)[0]
                    b = oracle.expm_propagate(params, coherent, t, drive=0.5j * J)
                    assert np.max(np.abs(a.entries - b.entries)) < 1e-10, (params, n_max, J, t)


def test_real_form_gate_fires_on_a_complex_generator(monkeypatch):
    # i 1e-6 I maps a Hermitian matrix to an anti-Hermitian one, so the
    # generator it is added to has no real form: the residue gate must fire
    class Shifted(GeneratorAction):
        def sparse_matrix(self):
            mat = super().sparse_matrix()
            return (mat + 1e-6j * sp.identity(mat.shape[0], format="csr")).tocsr()

    monkeypatch.setattr(noise, "full_generator", Shifted)
    with pytest.raises(InternalConsistencyError, match="not real in the Hermitian basis"):
        real_form(NONLINEAR, Truncation(5))


def test_real_form_is_banded_in_the_coherence_order():
    # ordered |m|-major, the real form is banded: G_W moves |m| by one and
    # reaches exactly 2 n_max off the diagonal, and no nonzero of G_L or
    # G_W lies beyond it
    for params in (LINEAR, NONLINEAR, GENERIC):
        for n_max in (5, 9, 12, 20):
            form = real_form(params, Truncation(n_max))
            reach = [np.max(np.abs(G.row - G.col)) for G in map(sp.coo_matrix, (form.G_L, form.G_W))]
            assert max(reach) == 2 * n_max, (params, n_max, reach)


def test_auto_backend_is_dense_at_every_cutoff():
    # auto sends every kappa2 > 0 run to the banded route, past the old
    # dense-dimension ceiling of 33 levels too, and kappa2 = 0 to expm
    coherent = FockState.coherent(Truncation(34), 0.6 + 0.3j)
    a, report = _reported(lambda: xi_evolve(NONLINEAR, 6.0, 0.05, coherent))
    assert report.bandwidth == 68 and report.steps > 0
    b = xi_evolve(NONLINEAR, 6.0, 0.05, coherent, backend="expm")
    assert np.max(np.abs(a.entries - b.entries)) <= 1e-10
    _, report = _reported(lambda: xi_evolve(LINEAR, 0.5, 0.05, coherent))
    assert report.bandwidth == report.steps == 0


def test_dense_route_matches_expm_across_times():
    # t = 0 returns the initial state untouched; from t = 0.01 to 20 the
    # shifted matrix gamma B (gamma = t/10) grows from 1-norm 0.17 to 3000
    n_max = 9
    coherent = FockState.coherent(Truncation(n_max), 0.6 + 0.3j)
    for params in (NONLINEAR, GENERIC):
        form = real_form(params, coherent.truncation)
        for J in (0.0, 6.0, 16.0):
            for t in (0.0, 0.01, 5.0, 20.0):
                a = noise._dense_propagate(params, coherent, t, [J], form)[0]
                b = oracle.expm_propagate(params, coherent, t, drive=0.5j * J)
                assert np.max(np.abs(a.entries - b.entries)) < 1e-10, (params, J, t)
                if t == 0:
                    assert np.array_equal(a.entries, coherent.entries)


def test_dense_route_self_check_fires_on_a_wrong_form():
    # with the sign of G_W flipped the LU solves (I - gamma B) for -J; the
    # shift-and-invert relation against the operator-level generator sees
    # it on every Krylov vector at full size: dev 4.2e-4 at J = 1e-3
    vac = vacuum(9)
    form = real_form(NONLINEAR, vac.truncation)
    flipped = noise.RealForm(form.S, form.G_L, -form.G_W)
    for J in (1e-3, 6.0):
        noise._dense_propagate(NONLINEAR, vac, 2.0, [J], form)
        with pytest.raises(InternalConsistencyError, match="solution unreliable"):
            noise._dense_propagate(NONLINEAR, vac, 2.0, [J], flipped)


def test_dense_route_self_check_fires_on_a_perturbed_lu(monkeypatch):
    # banded solves off by up to 1e-6 relative, entry by entry, leave the
    # real form intact but break (I - gamma B) w_j = v_j by about as much
    vac = vacuum(9)
    solve = lapack.dgbtrs

    def perturbed(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        return x * (1 + 1e-6 * np.cos(np.arange(x.size))), info

    monkeypatch.setattr(lapack, "dgbtrs", perturbed)
    with pytest.raises(InternalConsistencyError, match="solution unreliable"):
        xi_evolve(NONLINEAR, 6.0, 2.0, vac)


def test_dense_route_flags_the_unreliable_nodes_of_a_grid(monkeypatch):
    # a flipped G_W moves the relation by about 6e-12 within 1.5e-11 of
    # J = 0, below the tolerance: a grid of such nodes passes, and the same
    # grid widened by J = 1, 2, 3 raises
    vac = vacuum(9)
    form = real_form(NONLINEAR, vac.truncation)
    monkeypatch.setattr(noise, "real_form", lambda *_: noise.RealForm(form.S, form.G_L, -form.G_W))
    tiny = 1e-12 * np.arange(16)
    generating_function(NONLINEAR, vac, 2.0, np.concatenate([-tiny[:0:-1], tiny]))
    half = np.concatenate([tiny, [1.0, 2.0, 3.0]])
    with pytest.raises(InternalConsistencyError, match="solution unreliable"):
        generating_function(NONLINEAR, vac, 2.0, np.concatenate([-half[:0:-1], half]))


def test_dense_route_checks_every_node_of_a_group():
    # among nodes within 1.5e-11 of J = 0 a flipped G_W moves only the one
    # at J = 1; wherever that node sits in its lockstep group, its own
    # check catches it
    vac = vacuum(6)
    form = real_form(NONLINEAR, vac.truncation)
    flipped = noise.RealForm(form.S, form.G_L, -form.G_W)
    tiny = list(1e-12 * np.arange(16))
    assert noise._group_width(7**2, 6 * 6 + 1, 1) >= len(tiny)
    noise._dense_propagate(NONLINEAR, vac, 2.0, tiny, flipped)
    for k in range(len(tiny)):
        Js = tiny.copy()
        Js[k] = 1.0
        with pytest.raises(InternalConsistencyError, match="solution unreliable"):
            noise._dense_propagate(NONLINEAR, vac, 2.0, Js, flipped)


def test_unconverged_krylov_space_raises(monkeypatch):
    # the nodes need a Krylov dimension of 16 or more; capped at 8 the run
    # raises instead of returning a state
    vac = vacuum(9)
    monkeypatch.setattr(noise, "_KRYLOV_CAP", 8)
    with pytest.raises(InternalConsistencyError, match="not converged at dimension 8"):
        xi_evolve(NONLINEAR, 6.0, 2.0, vac)
    # in a group run in lockstep, the stationary node J = 0 converges at
    # dimension 1 and leaves; the others still raise at the cap
    with pytest.raises(InternalConsistencyError, match="not converged at dimension 8"):
        noise._evolve_nodes(NONLINEAR, [0.0, 2.0, 6.0], 2.0, vac)
    monkeypatch.undo()
    xi_evolve(NONLINEAR, 6.0, 2.0, vac)


def _reported(run):
    """The value of ``run()`` and the node report it filled."""
    report = noise._NodeReport()
    token = noise._REPORT.set(report)
    try:
        return run(), report
    finally:
        noise._REPORT.reset(token)


def test_lockstep_group_with_a_stationary_node_equals_single_nodes():
    # from the vacuum J = 0 is stationary: its Krylov space breaks down at
    # dimension 1 and leaves the group at once, while the others run on to
    # dimension 12-16 and leave at different checks; nine nodes fit one
    # group at n_max 12, and each state equals its single-node result bit
    # for bit, with the same Arnoldi steps
    vac = vacuum(12)
    form = real_form(NONLINEAR, vac.truncation)
    Js = [float(J) for J in range(9)]
    group, report = _reported(lambda: noise._dense_propagate(NONLINEAR, vac, 20.0, Js, form))
    assert report.group_width == len(Js)
    singles = [_reported(lambda J=J: noise._dense_propagate(NONLINEAR, vac, 20.0, [J], form)[0])
               for J in Js]
    assert singles[0][1].steps == 1
    assert all(12 <= single.steps <= 16 for _, single in singles[1:])
    assert len({single.steps for _, single in singles[1:]}) > 1
    assert report.steps == sum(single.steps for _, single in singles)
    assert report.check_dev == max(single.check_dev for _, single in singles)
    for J, xi, (alone, _) in zip(Js, group, singles):
        assert np.array_equal(xi.entries, alone.entries), J


def test_group_width_follows_the_byte_budget():
    # a group holds the LUs (3 * 2 n_max + 1 rows in dgbtrf layout) and the
    # Krylov bases of its nodes: several nodes at n_max 12, one at n_max 40,
    # where one LU and one basis of the capped dimension take about 18 MB
    def width(n_max, parts=1):
        return noise._group_width((n_max + 1) ** 2, 6 * n_max + 1, parts)

    assert width(12) == 9
    assert 1 <= width(12, parts=2) <= width(12)
    assert width(40) == width(40, parts=2) == 1


def test_group_stays_within_its_byte_budget():
    # one full group, nine nodes from the vacuum at n_max 12, peaks below
    # the budget its width was sized on, relation checks included: a check
    # that holds every accepted space's products at once peaks at 3.14 MiB
    vac = vacuum(12)
    form = real_form(NONLINEAR, vac.truncation)
    Js = list(np.linspace(0.5, 4.5, 9))
    assert noise._group_width(13**2, 6 * 12 + 1, 1) == len(Js)
    noise._dense_propagate(NONLINEAR, vac, 5.0, Js[:1], form)
    tracemalloc.start()
    try:
        noise._dense_propagate(NONLINEAR, vac, 5.0, Js, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= noise._GROUP_BYTES, peak / 2**20


def _dense_propagate_per_node(params, initial, t, J, form):
    """One J node by the earlier per-node route: a step tau = t/2^k no
    longer than t_check = 0.05/(1 + kappa1 + kappa2 + |J|/2), k full
    squarings of the bordered exponential and a check against
    ``expm_propagate`` over tau."""
    if t == 0:
        return initial.copy()
    S = form.S
    n = S.shape[0]
    drive = 0.5j * J
    t_check = 0.05 / (1.0 + params.kappa1 + params.kappa2 + abs(drive))
    k = math.ceil(math.log2(t / t_check)) if t > t_check else 0
    tau = t / 2**k
    w = (S.T @ np.eye(initial.entries.shape[0]).ravel()).real
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = (form.G_L + J * form.G_W).toarray() * tau
    B[n, :n] = w @ B[:n, :n]
    E = sla.expm(B)
    c = S.conj().T @ initial.entries.ravel().astype(complex)
    via_dense = S @ (E[:n, :n] @ c)
    via_expm = oracle.expm_propagate(params, initial, tau, drive=drive).entries.ravel()
    assert np.max(np.abs(via_dense - via_expm)) <= 1e-8 * max(1.0, np.max(np.abs(via_expm)))
    for _ in range(k):
        E = E @ E
    xi = (S @ (E[:n, :n] @ c)).reshape(initial.entries.shape)
    xi[0, 0] += w @ c + E[n, :n] @ c - np.trace(xi)
    return FockState(xi)


def _dense_lu_nodes(initial, t, Js, form):
    """Z(J) nodes by the earlier dense-LU route: the real form densified,
    one ``dgetrf`` of I - (t/10) B per node and the shift-and-invert Krylov
    space solved by ``dgetrs``, with the trace from the source integral.
    The Krylov relation is checked against the densified B itself."""
    S = form.S
    n = S.shape[0]
    G_L, G_W = form.G_L.toarray(), form.G_W.toarray()
    w = (S.T @ np.eye(initial.entries.shape[0]).ravel()).real
    c = S.conj().T @ initial.entries.ravel().astype(complex)
    Z = []
    for J in Js:
        B = G_L + J * G_W
        lu, piv, info = lapack.dgetrf(np.eye(n) - noise._SHIFT * t * B)
        assert info == 0
        x, integral = np.zeros((2, n), dtype=complex)
        for unit, part in ((1, c.real), (1j, c.imag)):
            if part.any():
                xp, ip, _, dev = noise._shift_invert_krylov(
                    [lambda b: lapack.dgetrs(lu, piv, b)[0]], part[None], t,
                    lambda _, X: X @ B.T,
                )[0]
                assert dev <= 1e-13
                x += unit * xp
                integral += unit * ip
        xi = (S @ x).reshape(initial.entries.shape)
        xi[0, 0] += w @ c + J * ((G_W.T @ w) @ integral) - np.trace(xi)
        Z.append(np.trace(xi))
    return np.array(Z)


def test_banded_lu_matches_the_dense_lu_route():
    # the two final grids of the benchmark's noise_grid workload: the banded
    # LU of each node against a dense LU of the same matrix
    vac = vacuum(12)
    form = real_form(NONLINEAR, vac.truncation)
    for t, J_max in ((5.0, 16.0), (20.0, 8.0)):
        grid = symmetric_J_grid(J_max, 129)
        Z = generating_function(NONLINEAR, vac, t, grid)
        ref = _dense_lu_nodes(vac, t, grid[grid >= 0], form)
        assert np.max(np.abs(Z[grid >= 0] - ref)) <= 1e-13, t


def test_batched_grid_matches_the_per_node_route():
    # the two final grids of the benchmark's noise_grid workload: Z from
    # one batched pass against the per-node route
    vac = vacuum(12)
    form = real_form(NONLINEAR, vac.truncation)
    for t, J_max in ((5.0, 16.0), (20.0, 8.0)):
        grid = symmetric_J_grid(J_max, 129)
        Z = generating_function(NONLINEAR, vac, t, grid)
        half = grid[grid >= 0]
        ref = [_dense_propagate_per_node(NONLINEAR, vac, t, J, form).trace() for J in half]
        assert np.max(np.abs(Z[grid >= 0] - ref)) <= 1e-12, t


def test_batch_over_several_groups_equals_single_nodes():
    # 37 nodes span two lockstep groups; each node's LU and Krylov space do
    # not depend on its batch, so the states agree bit for bit
    coherent = FockState.coherent(Truncation(8), 0.5 - 0.2j)
    Js = list(np.linspace(0.0, 9.0, 37))
    assert len(Js) > noise._group_width(9**2, 6 * 8 + 1, 2) >= len(Js) / 2
    batch = noise._evolve_nodes(NONLINEAR, Js, 3.0, coherent)
    for J, xi in zip(Js, batch):
        single = xi_evolve(NONLINEAR, J, 3.0, coherent)
        assert np.array_equal(xi.entries, single.entries), J


def test_dense_route_trace_is_smooth_in_J():
    # a Krylov solution carries rounding relative to the state, which would
    # be noise in tr xi; the trace from the integral of the source term
    # keeps Z(J) smooth to rounding, which finite differences in J rely on
    vac = vacuum(12)
    form = real_form(NONLINEAR, vac.truncation)
    J = np.linspace(0.0, 0.04, 21)
    Z = np.array([xi.trace() for xi in noise._dense_propagate(NONLINEAR, vac, 2.0, list(J), form)])
    u = J / J[-1]
    fit = np.polynomial.polynomial.polyval(u, np.polynomial.polynomial.polyfit(u, Z.real, 8))
    assert np.max(np.abs(Z.real - fit)) < 1e-14
    assert np.max(np.abs(Z.imag)) < 1e-14


def test_dense_route_trace_is_smooth_in_J_at_long_times():
    # the Krylov rounding grows with t; without the trace from the source
    # integral it reads 4.5e-14 (vacuum, t = 20) and 1.1e-13 (complex
    # coherent state, t = 5) on this fit, with it about 1.4e-15
    for initial, t in ((vacuum(12), 20.0), (FockState.coherent(Truncation(12), 0.6 + 0.3j), 5.0)):
        J = np.linspace(0.0, 0.04, 21)
        Z = np.array([xi.trace() for xi in noise._evolve_nodes(NONLINEAR, list(J), t, initial)])
        u = J / J[-1]
        for part in (Z.real, Z.imag):
            fit = np.polynomial.polynomial.polyval(u, np.polynomial.polynomial.polyfit(u, part, 8))
            assert np.max(np.abs(part - fit)) < 1e-14, t


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


def test_bad_times_are_rejected_before_any_node(monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("a node was evaluated")

    monkeypatch.setattr(noise, "_evolve_nodes", no_nodes)
    vac = vacuum(8)
    grid = symmetric_J_grid(4.0, 9)
    for t in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError, match="finite and non-negative"):
            generating_function(NONLINEAR, vac, t, grid)
        with pytest.raises(ValueError, match="finite and non-negative"):
            generating_function(NONLINEAR, vac, t, grid, known={J: 1.0 for J in grid})
        with pytest.raises(ValueError, match="finite and non-negative"):
            run_noise(NONLINEAR, vac, t, J_max=4.0, N_J=9)


def test_generating_function_gate_on_z0():
    # an initial state of trace 1.01 gives Z(0) = 1.01 at every t
    vac = vacuum(12)
    heavy = FockState(1.01 * vac.entries, hermitian=True)
    with pytest.raises(GridAdequacyError, match=r"deviates from 1 \(trace not preserved\)"):
        generating_function(NONLINEAR, heavy, 0.5, symmetric_J_grid(4.0, 5))


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
    m = moments_from_grid(x, Pv)
    assert abs(m[0]) < 1e-9 and m[1] == pytest.approx(1.0, abs=1e-6)
    k = cumulants_from_moments(m)
    assert abs(k[3]) < 1e-4


def test_probability_gate_on_broken_symmetry():
    grid = symmetric_J_grid(8.0, 65)
    Z = np.exp(-(grid**2) / 2).astype(complex)
    Z[3] += 1e-6j
    with pytest.raises(GridAdequacyError):
        probability_density(Z, grid)


def test_probability_gate_on_mass():
    # a Gaussian Z scaled by 1.01 passes the tail, symmetry and realness
    # gates and reconstructs a density of mass 1.01
    grid = symmetric_J_grid(8.0, 257)
    Z = 1.01 * np.exp(-(grid**2) / 2).astype(complex)
    with pytest.raises(GridAdequacyError, match="P mass .* deviates from 1"):
        probability_density(Z, grid)


def test_default_x_grid_nyquist_pairing():
    grid = symmetric_J_grid(8.0, 129)
    x = default_x_grid(grid)
    dJ = grid[1] - grid[0]
    assert len(x) == len(grid)
    assert x[1] - x[0] == pytest.approx(2 * np.pi / (len(grid) * dJ))
    assert 0.0 in x


def fd_moments(z_of_J, step: float) -> np.ndarray:
    """Moments m_1..m_8 from derivatives of Z at J = 0.

    ``z_of_J`` maps a float J to Z(J); the nine-point stencil J = -4 step
    .. 4 step is interpolated exactly by a degree-8 polynomial in the scaled
    variable J/step, whose coefficients give the derivatives without
    Vandermonde blow-up.
    """
    u = np.arange(-4, 5, dtype=float)
    Zs = np.array([z_of_J(step * uu) for uu in u], dtype=complex)
    coeffs = P.polyfit(u, Zs, 8)
    orders = np.arange(1, 9)
    derivs = coeffs[1:] * np.array([float(math.factorial(n)) for n in orders]) / step**orders
    return np.real((-1j) ** orders * derivs)


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


def test_non_finite_times_are_rejected():
    vac = vacuum(6)
    for bad in ([float("nan")], [0.5, float("inf")], [float("nan"), 1.0]):
        with pytest.raises(ValueError, match="must be finite"):
            cumulant_trace(NONLINEAR, vac, bad)
    for t in (float("nan"), float("inf")):
        for backend in ("auto", "expm"):
            with pytest.raises(ValueError, match="finite and non-negative"):
                xi_evolve(NONLINEAR, 1.0, t, vac, backend=backend)


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


def test_quadrature_validates_before_the_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle called before the arguments were validated")

    monkeypatch.setattr(noise, "multi_time_correlators", no_oracle)
    vac = vacuum(6)
    for t, n in ((float("nan"), 1), (float("inf"), 2), (-0.5, 1), (0.5, 0), (0.5, 3)):
        with pytest.raises(ValueError):
            moment_by_correlator_quadrature(NONLINEAR, vac, t, n)


def test_quadrature_builds_one_gauss_rule(monkeypatch):
    # one leggauss call per quadrature call, mapped onto every interval
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    for order in (1, 2):
        calls.clear()
        moment_by_correlator_quadrature(NONLINEAR, vacuum(6), 0.5, order, nodes=5)
        assert calls == [5], (order, calls)


def test_quadrature_exponentials_per_sector(monkeypatch):
    # all nodes of one order share one stacked exponential per (step,
    # sector that is nonzero in some sequence and within reach of the trace)
    calls = []
    stacked = oracle._stacked_expm

    def counted(block, gaps):
        calls.append(len(gaps))
        return stacked(block, gaps)

    monkeypatch.setattr(oracle, "_stacked_expm", counted)
    N = 5
    tr = Truncation(8)
    # vacuum: m = 0, then m = +-1; coherent: |m| <= 2, then |m| <= 1
    for rho0, per_order in ((FockState.vacuum(tr), (1, 3)),
                            (FockState.coherent(tr, 0.8), (3, 8))):
        for order, expected in zip((1, 2), per_order):
            calls.clear()
            moment_by_correlator_quadrature(NONLINEAR, rho0, 0.6, order, nodes=N)
            assert len(calls) == expected, (order, len(calls))
            assert all(batch == N**order for batch in calls)


def test_variance_extensivity_long_time():
    # the integrated noise variance grows linearly once transients die out
    out = cumulant_trace(NONLINEAR, vacuum(14), [10.0, 20.0])
    ratio = out[1]["cumulants"][1] / out[0]["cumulants"][1]
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


def test_run_noise_adaptive_doubling(monkeypatch):
    # slow Z tail at t = 2 forces at least one grid doubling
    run = run_noise(NONLINEAR, vacuum(14), 2.0, J_max=8.0, N_J=129)
    assert run.J_grid[-1] >= 16.0
    assert abs(run.Z_values[-1]) < 1e-6
    monkeypatch.setattr(noise, "MAX_DOUBLINGS", 0)
    with pytest.raises(GridAdequacyError, match="after 0 doublings"):
        run_noise(NONLINEAR, vacuum(14), 2.0, J_max=8.0, N_J=129)


def test_run_noise_reports_doublings_and_node_figures():
    # the two runs of the benchmark's noise_grid workload, the first of which
    # doubles its J grid once; the Krylov dimension and the worst deviation
    # of a node's shift-and-invert relation are reported on success, with a
    # margin of 1e3 or more below the tolerance
    import json

    for t, N_J, doublings in ((5.0, 65, 1), (20.0, 129, 0)):
        run = run_noise(NONLINEAR, vacuum(12), t, J_max=8.0, N_J=N_J)
        assert run.doublings == doublings and len(run.J_grid) == 129
        assert run.backend == "dense"
        assert 1 <= run.krylov_dim <= 13**2
        assert 0 < run.check_dev <= 1e-13 <= 1e-3 * noise._NODE_CHECK_TOL
        payload = json.loads(run.to_json())
        assert payload["grid_doublings"] == doublings
        assert payload["krylov_dim_max"] == run.krylov_dim
        assert payload["node_check_dev"] == run.check_dev
        assert payload["node_check_tol"] == noise._NODE_CHECK_TOL


def test_run_noise_reports_arnoldi_steps_and_group_width():
    # the t = 5 run of the benchmark's noise_grid workload: its 65 nodes
    # take 1 (J = 0) to 16 Arnoldi steps each, each space stopping once its
    # solution at t has converged; they run in groups of up to nine
    import json

    run = run_noise(NONLINEAR, vacuum(12), 5.0, J_max=8.0, N_J=65)
    nodes = np.count_nonzero(run.J_grid >= 0)
    assert nodes <= run.krylov_steps <= nodes * run.krylov_dim <= nodes * 16
    assert run.group_width == noise._group_width(13**2, 6 * 12 + 1, 1) == 9
    payload = json.loads(run.to_json())
    assert payload["krylov_steps"] == run.krylov_steps
    assert payload["group_width"] == run.group_width
    assert "krylov_tau_steps" not in payload


def test_krylov_checks_start_at_twice_the_stride(monkeypatch):
    # the t = 5 noise_grid run: every bordered exponential is of the
    # stationary J = 0 space, whole at dimension 1, or of a check at a
    # multiple of _STRIDE from 2 _STRIDE on, where the first check only
    # records its solution; no space converges by 2 _STRIDE, so the Arnoldi
    # steps are those of a first check at _STRIDE
    dims = []
    exp_e1 = noise._exp_e1

    def recorded(ritz, t):
        dims.append(ritz.shape[1])
        return exp_e1(ritz, t)

    monkeypatch.setattr(noise, "_exp_e1", recorded)
    run = run_noise(NONLINEAR, vacuum(12), 5.0, J_max=8.0, N_J=65)
    stride = noise._STRIDE
    assert 1 in dims and 2 * stride in dims
    assert all(m == 1 or (m % stride == 0 and m >= 2 * stride) for m in dims), sorted(set(dims))
    assert run.krylov_steps == 1025


def test_run_noise_reports_the_lu_bandwidth():
    # the dense nodes factor a band of half-bandwidth 2 n_max, reported on
    # success beside the Krylov dimension and the node-check margin
    import json

    run = run_noise(NONLINEAR, vacuum(14), 2.0, J_max=8.0, N_J=33)
    assert run.backend == "dense" and run.lu_bandwidth == 28
    payload = json.loads(run.to_json())
    assert payload["lu_bandwidth"] == 28
    assert payload["krylov_dim_max"] == run.krylov_dim


def test_run_noise_evaluates_each_J_once(monkeypatch):
    # a grid whose step is not a binary fraction doubles twice; every node
    # of the final grid is evolved once and matches a fresh evaluation
    import kerrloss.noise as noise_module

    evolved = []
    batched = noise_module._evolve_nodes

    def counting(params, Js, *args, **kwargs):
        evolved.extend(Js)
        return batched(params, Js, *args, **kwargs)

    monkeypatch.setattr(noise_module, "_evolve_nodes", counting)
    run = run_noise(NONLINEAR, vacuum(10), 5.0, J_max=4.7, N_J=39)
    monkeypatch.undo()
    assert len(run.J_grid) > 2 * 39 - 1
    assert len(evolved) == len(set(evolved)) == np.count_nonzero(run.J_grid >= 0)
    fresh = generating_function(NONLINEAR, vacuum(10), 5.0, run.J_grid)
    np.testing.assert_allclose(run.Z_values, fresh, rtol=0, atol=1e-14)


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


def test_cumulant_generator_equals_the_sliced_block_stack(monkeypatch):
    # the sector-restricted generator is assembled from the COO entries of
    # L and W; it must equal, entry for entry, the sp.bmat stack sliced to
    # the kept sectors, on the cutoffs that cumulant_trace picks: the reach
    # n0 + 2 for the vacuum at n_max 2 (the cutoff at the reach) and 12, and
    # n_max for a coherent state, which occupies every level (the cutoff
    # below the reach)
    built = []
    assemble = noise._cumulant_generator

    def recorded(L, W, d):
        M, keep = assemble(L, W, d)
        built.append((L, W, d, M, keep))
        return M, keep

    monkeypatch.setattr(noise, "_cumulant_generator", recorded)
    coherent = FockState.coherent(Truncation(10), 0.6 + 0.3j)
    for params in (LINEAR, NONLINEAR, GENERIC):
        for initial in (vacuum(2), vacuum(12), coherent):
            cumulant_trace(params, initial, [0.5])
    assert [d for _, _, d, _, _ in built] == [3, 3, 11] * 3
    q = noise.CUMULANT_ORDER
    for L, W, d, M, keep in built:
        stack = sp.bmat(
            [[L if j == i else W if j == i + 1 else None for j in range(q + 1)]
             for i in range(q + 1)],
            format="csr",
        )
        i, j = np.divmod(np.arange(d * d), d)
        kept = [np.flatnonzero(np.abs(i - j) <= b) for b in range(q + 1)]
        ref_keep = np.concatenate([b * d * d + pos for b, pos in enumerate(kept)])
        assert np.array_equal(keep, ref_keep)
        assert np.array_equal(M, stack[ref_keep][:, ref_keep].toarray()), d


def test_repeated_time_gaps_reuse_their_exponential(monkeypatch):
    # the six samples of the benchmark's noise_moments traces have the gaps
    # 0.5, 0.5, 1, 3, 5, 10: the second 0.5 reuses the first propagator
    calls = []
    expm = sla.expm

    def counted(A):
        calls.append(A.shape)
        return expm(A)

    monkeypatch.setattr(sla, "expm", counted)
    trace = cumulant_trace(NONLINEAR, vacuum(14), [0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    assert len(trace) == 6
    assert len(calls) == 5


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


def _expm_multiply_cumulants(params, initial, times, q=4):
    # the unrestricted Van Loan stack on the full cutoff, carried from one
    # time to the next by scipy's sparse exponential action
    action = full_generator(params, initial.truncation)
    L, W = action.sparse_matrix(), action.source_matrix()
    M = sp.bmat(
        [[L if j == i else W if j == i + 1 else None for j in range(q + 1)]
         for i in range(q + 1)],
        format="csr",
    )
    D = L.shape[0]
    vec = np.zeros((q + 1) * D, dtype=complex)
    vec[q * D :] = initial.entries.ravel()
    out, prev = [], 0.0
    for t in times:
        vec = spla.expm_multiply(M * (t - prev), vec)
        prev = t
        traces = np.trace(vec.reshape(q + 1, initial.n_max + 1, -1), axis1=1, axis2=2).real
        moments = [math.factorial(n) / 2.0**n * traces[q - n] for n in range(1, q + 1)]
        out.append(cumulants_from_moments(np.array(moments)))
    return out


def test_restricted_dense_route_matches_sparse_action():
    # the sector-restricted dense exponential against the full sparse stack
    # carried by expm_multiply, on a state that reaches the cutoff
    initial = FockState.coherent(Truncation(10), 1.0)
    times = [0.5, 2.0, 20.0]
    trace = cumulant_trace(NONLINEAR, initial, times)
    for rec, ref in zip(trace, _expm_multiply_cumulants(NONLINEAR, initial, times)):
        dev = np.max(np.abs(rec["cumulants"] - ref) / np.maximum(1.0, np.abs(ref)))
        assert dev <= 1e-10, (rec["t"], dev)
