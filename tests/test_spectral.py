import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from kerrloss import spectral
from kerrloss.fockbasis import FockState, Truncation, to_blocks
from kerrloss.specfun import VanishingDenominatorError
from kerrloss.spectral import (
    INTEGER_RATIO_TOL,
    CaseTag,
    F_matrix,
    PropagatorCoefficients,
    _degeneracy_scan,
    _eigenvalue_table,
    classify,
    decompose,
    eigenvalue,
    eigenvectors_csv,
    spectrum,
    spectrum_csv,
    x_parameter,
)
from kerrloss.superops import (
    InternalConsistencyError,
    ModelParams,
    apply_exp_A,
    c_superdiagonal,
    liouvillian_blocks,
    transformed_block,
)
from kerrloss.oracle import left_residual, right_residual

GENERIC = ModelParams(0.9, 0.6, 0.37, 1.1)
CASES = {
    CaseTag.GENERIC_RATIO: GENERIC,
    CaseTag.INTEGER_RATIO: ModelParams(1.0, 0.5, 2.0, 1.0),
    CaseTag.ZERO_KAPPA1: ModelParams(1.0, 0.5, 0.0, 1.0),
    CaseTag.ZERO_KAPPA2: ModelParams(1.0, 0.5, 0.8, 0.0),
    CaseTag.HAMILTONIAN_ONLY: ModelParams(1.0, 0.5, 0.0, 0.0, allow_unitary=True),
}


def test_classify_tags():
    for tag, params in CASES.items():
        assert classify(params) == tag
    with pytest.warns(RuntimeWarning):
        classify(ModelParams(1.0, 0.0, 2.0 + 1e-7, 1.0))


def test_eigenvalue_closed_form_value():
    p = ModelParams(1.0, 0.5, 0.3, 1.0)
    assert eigenvalue(p, 2, 3) == pytest.approx(-14.2 - 5.5j, abs=1e-14)


def test_eigenvalues_match_oracle_diagonal():
    tr = Truncation(12)
    rng = np.random.default_rng(7)
    for _ in range(5):
        omega, U = rng.uniform(-1, 1, 2)
        k1, k2 = rng.uniform(0.1, 2, 2)
        p = ModelParams(omega, U, k1, k2)
        blocks = liouvillian_blocks(p, tr)
        for m in (-3, 0, 1, 4):
            diag = np.diag(blocks[m].entries)
            lams = np.array([eigenvalue(p, m, k) for k in range(tr.block_size(m))])
            assert np.max(np.abs(diag - lams)) < 1e-12


def test_x_parameter():
    p = GENERIC
    assert x_parameter(p, 2, 3) == pytest.approx((8) / 2 + 1j * p.U * 2 / (2 * p.kappa2))
    with pytest.raises(ValueError):
        x_parameter(CASES[CaseTag.ZERO_KAPPA2], 1, 0)


def test_eigenvector_residuals_all_cases():
    tr = Truncation(10)
    for tag, params in CASES.items():
        coeffs = PropagatorCoefficients(params, tr)
        blocks = liouvillian_blocks(params, tr)
        for m in (0, 1, -2, 3):
            Lb = blocks[m]
            _, R, L = coeffs.factors(m)
            for k in range(tr.block_size(m)):
                lam = eigenvalue(params, m, k)
                assert right_residual(Lb, lam, R[:, k]) < 1e-9, (tag, m, k)
                assert left_residual(Lb, lam, L[k]) < 1e-9, (tag, m, k)


def right_eigenvector_productform(
    params: ModelParams, trunc: Truncation, m: int, k: int
) -> np.ndarray:
    """Independent construction of the right eigenvector via eigenvalue-gap products."""
    size = trunc.block_size(m)
    lam_k = eigenvalue(params, m, k)
    summed = np.zeros(size, dtype=np.clongdouble)
    summed[k] = 1.0
    prod = np.clongdouble(1.0)
    for p in range(k - 1, -1, -1):
        gap = lam_k - eigenvalue(params, m, p)
        if gap == 0:
            raise ZeroDivisionError(
                f"degenerate eigenvalues lambda_{k} = lambda_{p} in block m={m}"
            )
        prod *= c_superdiagonal(params, m, p + 1) / np.clongdouble(gap)
        summed[p] = prod
    return apply_exp_A(summed, m, -1.0).astype(complex)


def test_right_eigenvector_two_routes_agree():
    tr = Truncation(9)
    coeffs = PropagatorCoefficients(GENERIC, tr)
    for m in (0, 2, -1):
        R = coeffs.factors(m)[1]
        for k in range(tr.block_size(m)):
            hyp = R[:, k]
            prod = right_eigenvector_productform(GENERIC, tr, m, k)
            assert np.max(np.abs(hyp - prod)) < 1e-9 * max(1.0, np.max(np.abs(hyp)))


def test_degenerate_pair_conventions():
    p = CASES[CaseTag.ZERO_KAPPA1]
    tr = Truncation(8)
    _, R, L = PropagatorCoefficients(p, tr).factors(0)
    r0, r1, l0, l1 = R[:, 0], R[:, 1], L[0], L[1]
    assert np.max(np.abs(r0 - np.eye(9)[0])) == 0  # |0><0|
    assert np.max(np.abs(r1 - np.eye(9)[1])) == 0  # |1><1|
    assert np.max(np.abs(l0 - np.array([1, 0] * 4 + [1]))) == 0  # parity projector
    assert np.max(np.abs(l0 + l1 - np.ones(9))) == 0  # complements sum to identity


def test_biorthonormality_and_completeness():
    tr = Truncation(16)
    for tag in (CaseTag.GENERIC_RATIO, CaseTag.ZERO_KAPPA1, CaseTag.ZERO_KAPPA2):
        decomp = decompose(CASES[tag], tr)
        for m in (0, 1, -2, 5):
            R = decomp.R[m].entries
            L = decomp.Lmat[m].entries
            size = R.shape[0]
            assert np.max(np.abs(L @ R - np.eye(size))) < 1e-10, (tag, m)
            safe = tr.block_bound(m) - 2 + 1  # indices up to K(m) - 2, clear of the cutoff
            comp = R[:safe, :] @ L[:, :safe]
            assert np.max(np.abs(comp - np.eye(safe))) < 1e-8, (tag, m)


def test_degeneracy_scan_results():
    tr = Truncation(8)
    assert decompose(GENERIC, tr).degenerate_modes == ()
    assert decompose(CASES[CaseTag.ZERO_KAPPA1], tr).degenerate_modes == ((0, 0, 1),)
    # just above the ZERO_KAPPA1 threshold of classify the scan finds no
    # collision either, and the builder's R L = I gate inside decompose holds
    for ratio in (1e-9, 1.5e-9):
        with pytest.warns(RuntimeWarning, match="within"):
            decomp = decompose(ModelParams(0.3, 1.0, ratio, 1.0), Truncation(14))
        assert decomp.case == CaseTag.GENERIC_RATIO
        assert decomp.degenerate_modes == ()


def _degeneracy_scan_loop(params, trunc):
    """The scan as it was first written: one numpy-scalar gap per pair."""
    rate = params.kappa2 or params.kappa1
    found = []
    for m in trunc.blocks():
        lams = np.array([eigenvalue(params, m, k) for k in range(trunc.block_size(m))])
        for k in range(len(lams)):
            for q in range(k + 1, len(lams)):
                if abs(lams[k] - lams[q]) / rate < INTEGER_RATIO_TOL:
                    found.append((m, k, q))
    return tuple(found)


def test_degeneracy_scan_matches_pairwise_loop():
    # seeded draws of every case, and the near-threshold ratios of classify;
    # with no loss rate every gap is 0 / 0, a collision on neither side
    tr = Truncation(10)
    rng = np.random.default_rng(41)
    draws = list(CASES.values())
    for _ in range(4):
        omega, U = rng.uniform(-1, 1, 2)
        k1, k2 = rng.uniform(0.1, 2, 2)
        draws += [ModelParams(omega, U, k1, k2), ModelParams(omega, U, float(rng.integers(1, 4)) * k2, k2),
                  ModelParams(omega, U, 0.0, k2), ModelParams(omega, U, k1, 0.0),
                  ModelParams(omega, U, 0.0, 0.0, allow_unitary=True)]
    for ratio in (1e-9, 1.5e-9):
        draws.append(ModelParams(0.3, 1.0, ratio, 1.0))
    for params in draws:
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            case = classify(params)
            ref = _degeneracy_scan_loop(params, tr)
            assert _degeneracy_scan(params, _eigenvalue_table(params, tr), case) == ref, params
        assert ref == (((0, 0, 1),) if case == CaseTag.ZERO_KAPPA1 else ())
    # a found collision the case does not expect raises, as in the loop
    with pytest.raises(InternalConsistencyError, match="degeneracy scan found"):
        params = CASES[CaseTag.ZERO_KAPPA1]
        _degeneracy_scan(params, _eigenvalue_table(params, tr), CaseTag.GENERIC_RATIO)


def _peak_bytes(f, *args):
    """(f(*args), the tracemalloc peak of the call)."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_degeneracy_scan_holds_one_chunk_of_blocks(monkeypatch):
    # n_max 100 has 201 blocks of up to 5,050 pairs each: every pair at once
    # held 46.5 MB; in chunks of blocks the scan holds about GATE_CHUNK_BYTES
    tr = Truncation(100)
    for tag in (CaseTag.GENERIC_RATIO, CaseTag.ZERO_KAPPA1):
        params = CASES[tag]
        lams = _eigenvalue_table(params, tr)
        found, peak = _peak_bytes(_degeneracy_scan, params, lams, tag)
        assert found == (((0, 0, 1),) if tag == CaseTag.ZERO_KAPPA1 else ())
        assert peak < 2 * spectral.GATE_CHUNK_BYTES, (tag, peak)
    # one block a chunk finds what the pairwise loop finds, in its order
    monkeypatch.setattr(spectral, "GATE_CHUNK_BYTES", 1)
    small = Truncation(10)
    params = CASES[CaseTag.ZERO_KAPPA1]
    with pytest.raises(InternalConsistencyError, match=r"found \[\(0, 0, 1\)\], expected \[\]"):
        _degeneracy_scan(params, _eigenvalue_table(params, small), CaseTag.GENERIC_RATIO)
    assert _degeneracy_scan(params, _eigenvalue_table(params, small), CaseTag.ZERO_KAPPA1) == (
        _degeneracy_scan_loop(params, small))


def test_F_inverse_and_diagonalization():
    tr = Truncation(10)
    for m in (0, 1, -2, 3):
        F = F_matrix(GENERIC, tr, m, "forward")
        Fi = F_matrix(GENERIC, tr, m, "inverse")
        size = F.shape[0]
        assert np.max(np.abs(F @ Fi - np.eye(size))) < 1e-10
        assert np.max(np.abs(Fi @ F - np.eye(size))) < 1e-10
        T = transformed_block(GENERIC, tr, m).entries
        D = F @ T @ Fi
        off = D - np.diag(np.diag(D))
        assert np.max(np.abs(off)) < 1e-9
        lams = np.array([eigenvalue(GENERIC, m, k) for k in range(size)])
        assert np.max(np.abs(np.diag(D) - lams)) < 1e-9


def test_F_matrix_rejects_non_generic():
    tr = Truncation(6)
    with pytest.raises(ValueError):
        F_matrix(CASES[CaseTag.INTEGER_RATIO], tr, 0, "forward")


def test_coherent_expansion_coefficient_formula():
    # b_k^(m) for a coherent initial state against the scalar confluent form
    tr = Truncation(16)
    alpha = 0.8 * np.exp(0.3j)
    decomp = decompose(GENERIC, tr)
    blocks = to_blocks(FockState.coherent(tr, alpha))
    eta = GENERIC.kappa1 / GENERIC.kappa2
    for m, k in [(0, 0), (1, 1), (2, 0), (-1, 2)]:
        b = decomp.Lmat[m].entries[k, :] @ blocks[m]
        x = x_parameter(GENERIC, m, k)
        am = abs(m)
        ref = (
            abs(alpha) ** (am + 2 * k)
            * np.exp(1j * m * np.angle(alpha))
            / math.sqrt(math.factorial(k) * math.factorial(am + k))
            * complex(mpmath.hyp1f1(x, 2 * x + eta, -2 * abs(alpha) ** 2))
        )
        assert b == pytest.approx(ref, rel=1e-8, abs=1e-10)
    # unit trace pairs with the identity functional when kappa1 > 0
    assert decomp.Lmat[0].entries[0, :] @ blocks[0] == pytest.approx(1.0, abs=1e-9)


def test_csv_dumps():
    tr = Truncation(4)
    decomp = decompose(GENERIC, tr)
    spec_lines = spectrum_csv(decomp).strip().split("\n")
    assert spec_lines[0] == "m,k,re_lambda,im_lambda"
    assert len(spec_lines) == 1 + tr.dim * tr.dim
    vec_lines = eigenvectors_csv(decomp).strip().split("\n")
    assert vec_lines[0] == "m,k,p,re,im,side"
    assert any(line.endswith("right") for line in vec_lines[1:])
    assert any(line.endswith("left") for line in vec_lines[1:])


def _spectrum_csv_loop(decomp):
    """The eigenvalue dump as it was first written: one f-string per mode."""
    lines = ["m,k,re_lambda,im_lambda\n"]
    for m in decomp.truncation.blocks():
        for k, lam in enumerate(decomp.eigenvalues[m]):
            lines.append(f"{m},{k},{lam.real:.17g},{lam.imag:.17g}\n")
    return "".join(lines)


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_spectrum_csv_matches_loop(tag):
    decomp = spectrum(CASES[tag], Truncation(12))
    # signed zeros and non-finite values are written as the f-string writes them
    lam = decomp.eigenvalues[-2] = decomp.eigenvalues[-2].copy()
    lam[:5] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               complex(5e-324, -1.7976931348623157e308), complex(float("inf"), float("nan"))]
    text = spectrum_csv(decomp)
    assert text == _spectrum_csv_loop(decomp)
    assert "\n-2,0,-0,0\n-2,1,0,-0\n-2,2,-0,-0\n" in text
    assert "\n-2,4,inf,nan\n" in text


def _eigenvectors_csv_numpy_loop(decomp):
    """The dump as it was first written: numpy scalars, np.flatnonzero per vector."""
    lines = ["m,k,p,re,im,side\n"]
    for m in decomp.truncation.blocks():
        R, L = decomp.R[m].entries, decomp.Lmat[m].entries
        for k in range(R.shape[0]):
            for side, vec in (("right", R[:, k]), ("left", L[k])):
                for p in np.flatnonzero(vec):
                    lines.append(f"{m},{k},{p},{vec[p].real:.17g},{vec[p].imag:.17g},{side}\n")
    return "".join(lines)


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_eigenvectors_csv_matches_numpy_loop(tag):
    decomp = decompose(CASES[tag], Truncation(12))
    # signed zeros: an entry with one zero part is written with its sign, and
    # -0 - 0j is a zero entry, skipped like 0j
    R = decomp.R[1].entries
    R[0, 3], R[1, 3], R[2, 3] = complex(-0.0, 0.5), complex(0.25, -0.0), complex(-0.0, -0.0)
    text = eigenvectors_csv(decomp)
    assert text == _eigenvectors_csv_numpy_loop(decomp)
    assert "\n1,3,0,-0,0.5,right\n" in text and "\n1,3,1,0.25,-0,right\n" in text
    assert "\n1,3,2," not in text


def test_eigenvectors_csv_holds_its_text_and_one_block():
    # formatted block by block: the writer's peak is its parts and their
    # join, about twice the text (three times while every row's numpy
    # columns were concatenated first); test_csv_bodies_are_pinned pins
    # this body ("generic-40")
    decomp = decompose(ModelParams(0.7, 0.4, 0.3, 0.6), Truncation(40))
    text, peak = _peak_bytes(eigenvectors_csv, decomp)
    assert peak < 2.25 * len(text), peak / len(text)


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_spectrum_builds_no_eigenvector(tag, monkeypatch):
    # the same spectrum.csv as decompose, with no factor build and no gate
    tr = Truncation(12)
    ref = decompose(CASES[tag], tr)

    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum built or gated eigenvectors")

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", forbidden)
    monkeypatch.setattr(spectral, "check_biorthogonality", forbidden)
    decomp = spectrum(CASES[tag], tr)
    assert spectrum_csv(decomp) == spectrum_csv(ref)
    assert (decomp.case, decomp.degenerate_modes) == (ref.case, ref.degenerate_modes)
    assert decomp.R == {} and decomp.Lmat == {}


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_eigenvalue_table_is_the_stack_lambda(tag):
    # one table, zero-padded past K(m), bit for bit the scalar eigenvalues
    tr = Truncation(9)
    params = CASES[tag]
    table = _eigenvalue_table(params, tr)
    assert table.tobytes() == PropagatorCoefficients(params, tr).stack()[0].tobytes()
    ref = np.zeros((2 * tr.n_max + 1, tr.dim), dtype=complex)
    for m in tr.blocks():
        for k in range(tr.block_size(m)):
            ref[m + tr.n_max, k] = eigenvalue(params, m, k)
    assert table.tobytes() == ref.tobytes()


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_decompose_copies_the_one_build(tag):
    # every block of decompose is an owned copy of the propagator factors,
    # and no conjugated block -m leaves a -0 part for eigvecs.csv to print
    tr = Truncation(12)
    decomp = decompose(CASES[tag], tr)
    coeffs = PropagatorCoefficients(CASES[tag], tr)
    for m in tr.blocks():
        lam, R, L = coeffs.factors(m)
        assert np.array_equal(decomp.eigenvalues[m], lam)
        for mine, ref in ((decomp.R[m].entries, R), (decomp.Lmat[m].entries, L)):
            assert np.array_equal(mine, ref) and mine.base is None, m
            z = mine[mine != 0]
            negative_zero = ((z.real == 0) & np.signbit(z.real)) | ((z.imag == 0) & np.signbit(z.imag))
            assert not negative_zero.any(), (m, int(negative_zero.sum()))


@pytest.mark.parametrize("params, n_max, spectrum_sha, eigvecs_sha", [
    ((1.0, 0.0, 1.0, 1.0), 12,
     "8fdd1abd02d8a4e14401555517df14da5bd2c20fbffd9e0e3c1f99ff3d26ba10",
     "fe7e750ebb1a91c36ba826bb48d6934c72affc43988264fc11de44db53d38783"),
    ((0.7, 0.4, 0.3, 0.6), 40,
     "8ea4b9ab6cdd556bc3729cafab246bcc72f4f13b65cc422b1771873d1f79b8d0",
     "c9c92e06bc1ba9c38fb8702686646b0c876e2e8ea8422c5c9cbd765796416675"),
    ((0.3, 0.2, 0.0, 0.6), 20,  # over 1022 working bits: the true-division rounding
     "77fcb551140100ee18b1ce9e63e839d24778a31f416b1e5fb53ae37bafced94d",
     "f975a7576e7beddd3734bc9870119ec491cecc1d5516d0aa9db0f8584d8d1471"),
    ((1.0, 0.5, 0.8, 0.0), 20,
     "14c39470f47e8b2c9137293d080b6db8c004c035709b6d02e59f7627b55ed095",
     "f583f22ef11c4ef814576847407ec1d95c7ddae5b6237c7c65c9f00c83eebc00"),
], ids=["default-12", "generic-40", "zero-kappa1-20", "zero-kappa2-20"])
def test_csv_bodies_are_pinned(params, n_max, spectrum_sha, eigvecs_sha):
    # SHA-256 of the bodies the builder feeds, pinned while every entry was
    # rounded by big-integer true division and each block gated on its own
    decomp = decompose(ModelParams(*params), Truncation(n_max))
    assert hashlib.sha256(spectrum_csv(decomp).encode()).hexdigest() == spectrum_sha
    assert hashlib.sha256(eigenvectors_csv(decomp).encode()).hexdigest() == eigvecs_sha


def test_eigenvalue_broadcasts_bit_for_bit():
    # the stack's eigenvalues and the degeneracy scan fill whole blocks in
    # one call; every entry, the sign of a zero part included, is the scalar's
    rng = np.random.default_rng(26)
    draws = list(CASES.values())
    draws += [ModelParams(*rng.uniform(-2, 2, 2), *rng.uniform(0, 2, 2)) for _ in range(20)]
    n = 15
    for params in draws:
        lams = eigenvalue(params, np.arange(-n, n + 1)[:, None], np.arange(n + 1))
        ref = np.array([[eigenvalue(params, m, k) for k in range(n + 1)] for m in range(-n, n + 1)])
        assert lams.tobytes() == ref.tobytes(), params
