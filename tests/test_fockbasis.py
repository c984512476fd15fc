import numpy as np
import pytest

from kerrloss.fockbasis import (
    FockState,
    Truncation,
    block_layout,
    coherent_ket,
    csv_table,
    phi_indices,
    to_blocks,
)


def test_truncation_bounds():
    tr = Truncation(8)
    assert tr.dim == 9
    assert tr.block_bound(0) == 8
    assert tr.block_bound(-3) == 5
    assert tr.block_size(8) == 1
    assert list(tr.blocks()) == list(range(-8, 9))
    with pytest.raises(ValueError):
        tr.block_bound(9)
    with pytest.raises(ValueError):
        Truncation(1)


def test_phi_indices():
    assert phi_indices(2, 3) == (5, 3)
    assert phi_indices(-2, 3) == (3, 5)
    assert phi_indices(0, 4) == (4, 4)


def test_to_blocks_reads_phi_entries():
    rng = np.random.default_rng(3)
    entries = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    state = FockState(entries)
    blocks = to_blocks(state)
    # the diagonal indexing reads the entries the phi_k^(m) labels name
    for m, block in blocks.items():
        expected = [entries[phi_indices(m, k)] for k in range(len(block))]
        assert list(block) == expected
    # and the layout's filled slots scatter the blocks back exactly
    rows, cols, filled = block_layout(state.truncation)
    back = np.zeros_like(entries)
    for m, block in blocks.items():
        row = m + state.n_max
        back[rows[row, : len(block)], cols[row, : len(block)]] = block
    assert np.max(np.abs(back - entries)) == 0
    assert filled.sum() == entries.size


def test_coherent_state_basics():
    tr = Truncation(24)
    alpha = 0.8 * np.exp(0.4j)
    ket = coherent_ket(tr, alpha)
    assert np.sum(np.abs(ket) ** 2) == pytest.approx(1.0, abs=1e-12)
    state = FockState.coherent(tr, alpha)
    assert state.trace() == pytest.approx(1.0, abs=1e-12)
    # a|alpha> = alpha |alpha> on the retained amplitudes
    n = np.arange(1, tr.dim)
    assert np.max(np.abs(np.sqrt(n) * ket[1:] - alpha * ket[:-1])) < 1e-12


def test_vacuum_and_fock():
    tr = Truncation(4)
    assert FockState.vacuum(tr).entries[0, 0] == 1.0
    assert FockState.fock(tr, 3).trace() == 1.0
    with pytest.raises(ValueError):
        FockState.fock(tr, 5)


def test_hermitian_flag_validation():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        FockState(bad, hermitian=True)
    entries = FockState(bad).entries
    assert np.max(np.abs(entries - entries.conj().T)) == 1.0


def test_json_roundtrip():
    rng = np.random.default_rng(5)
    entries = rng.normal(size=(5, 5))
    entries = entries + entries.T
    state = FockState(entries.astype(complex), hermitian=True)
    back = FockState.from_json(state.to_json())
    assert back.hermitian
    assert np.max(np.abs(back.entries - state.entries)) == 0


def test_csv_table_writes_what_the_f_strings_wrote():
    # random bit patterns (subnormals, infinities and nans among them) and
    # the edge values, beside negative integers and a string column, more
    # rows than one chunk
    rng = np.random.default_rng(33)
    x = rng.integers(0, 2**64, 3 * 4096 + 5, dtype=np.uint64).view(np.float64)
    x[:8] = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
    m = rng.integers(-40, 41, len(x))
    side = np.array(["right", "left"], dtype=object)[rng.integers(0, 2, len(x))]
    ref = "".join(["m,x,side\n"] + [f"{a},{b:.17g},{c}\n" for a, b, c in zip(m, x, side)])
    assert csv_table("m,x,side", m, x, side) == ref
    assert csv_table("J,re_Z", [], []) == "J,re_Z\n"
