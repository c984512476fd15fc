"""Truncated Fock space and the coherence-block representation.

Operators on the single mode are stored either as dense (n1, n2) matrices
(``FockState``) or decomposed over the ketbra basis
phi_k^(m) = |k+m><k| (m >= 0) and |k><k-m| (m < 0), where m labels the
photon-number-difference coherence sector and k the excitation index.
With a global cutoff n_max, block m holds indices k in [0, K(m)],
K(m) = n_max - |m|, so the two layouts describe the same finite space.
:func:`block_layout` is the one map between them: it places every block in
a zero-padded (2 n_max + 1, n_max + 1) stack, row m + n_max for block m,
which batched propagation gathers and scatters with one index each.
Every CSV body the package writes comes from :func:`csv_groups`, most
through :func:`csv_table`.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .specfun import log_factorial

__all__ = [
    "Truncation",
    "FockState",
    "block_layout",
    "to_blocks",
    "as_integer",
    "csv_table",
    "csv_groups",
]

HERMITICITY_TOL = 1e-12
#: rows :func:`csv_table` turns into Python objects at a time, so that a
#: table costs little more memory than its text
CSV_CHUNK_ROWS = 1 << 8


def as_integer(value, what: str) -> int:
    """``value`` as an int; anything but an integral number is a ValueError,
    so a level of 1.5 or a cutoff of 4.9 is refused rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class Truncation:
    """Global Fock cutoff with per-block bound K(m) = n_max - |m|."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2 (two-step loss coupling)")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def block_bound(self, m: int) -> int:
        """K(m); raises if the block does not exist at this cutoff."""
        if abs(m) > self.n_max:
            raise ValueError(f"block m={m} outside truncation n_max={self.n_max}")
        return self.n_max - abs(m)

    def block_size(self, m: int) -> int:
        return self.block_bound(m) + 1

    def blocks(self):
        """All block labels m with |m| <= n_max."""
        return range(-self.n_max, self.n_max + 1)


def phi_indices(m: int, k: int) -> tuple[int, int]:
    """(n1, n2) Fock pair of phi_k^(m)."""
    if m >= 0:
        return k + m, k
    return k, k - m


class FockState:
    """Dense operator (density-matrix-like) on the truncated Fock space."""

    def __init__(self, entries: np.ndarray, hermitian: bool = False):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be a square matrix")
        if entries.shape[0] < 3:
            raise ValueError("truncation must satisfy n_max >= 2")
        self.entries = entries
        self.hermitian = hermitian
        if hermitian:
            dev = np.max(np.abs(entries - entries.conj().T))
            if dev > HERMITICITY_TOL * max(1.0, np.max(np.abs(entries))):
                raise ValueError(f"state marked hermitian but deviation is {dev:.3e}")

    @property
    def n_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def truncation(self) -> Truncation:
        return Truncation(self.n_max)

    @classmethod
    def zero(cls, trunc: Truncation) -> "FockState":
        return cls(np.zeros((trunc.dim, trunc.dim), dtype=complex), hermitian=True)

    @classmethod
    def fock(cls, trunc: Truncation, n: int) -> "FockState":
        """Projector |n><n|."""
        if not 0 <= n <= trunc.n_max:
            raise ValueError("Fock index outside truncation")
        state = cls.zero(trunc)
        state.entries[n, n] = 1.0
        return state

    @classmethod
    def vacuum(cls, trunc: Truncation) -> "FockState":
        return cls.fock(trunc, 0)

    @classmethod
    def coherent(cls, trunc: Truncation, alpha: complex) -> "FockState":
        """Truncated coherent projector |alpha><alpha| (trace < 1 from the cutoff tail)."""
        if not cmath.isfinite(alpha):
            raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
        ket = coherent_ket(trunc, alpha)
        return cls(np.outer(ket, ket.conj()), hermitian=True)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def copy(self) -> "FockState":
        return FockState(self.entries.copy(), hermitian=self.hermitian)

    def to_json(self) -> str:
        nz = np.argwhere(self.entries != 0)
        records = [
            [int(n1), int(n2), float(self.entries[n1, n2].real), float(self.entries[n1, n2].imag)]
            for n1, n2 in nz
        ]
        return json.dumps(
            {"n_max": self.n_max, "hermitian": bool(self.hermitian), "entries": records}
        )

    @classmethod
    def from_json(cls, payload: str) -> "FockState":
        data = json.loads(payload)
        if not isinstance(data, dict) or not {"n_max", "entries"} <= data.keys():
            raise ValueError("state JSON needs an object with 'n_max' and 'entries'")
        hermitian = data.get("hermitian", False)
        if not isinstance(hermitian, bool):
            raise ValueError(f"'hermitian' must be true or false, got {hermitian!r}")
        try:
            trunc = Truncation(as_integer(data["n_max"], "n_max"))
            records = [
                (as_integer(n1, "level"), as_integer(n2, "level"), complex(float(re), float(im)))
                for n1, n2, re, im in data["entries"]
            ]
        except TypeError as exc:
            raise ValueError(f"malformed state JSON: {exc}") from exc
        entries = np.zeros((trunc.dim, trunc.dim), dtype=complex)
        for n1, n2, value in records:
            if not (0 <= n1 <= trunc.n_max and 0 <= n2 <= trunc.n_max):
                raise ValueError(f"level pair ({n1}, {n2}) outside 0..{trunc.n_max}")
            if not cmath.isfinite(value):
                raise ValueError(f"entry ({n1}, {n2}) is not finite: {value}")
            entries[n1, n2] = value
        return cls(entries, hermitian=hermitian)


def csv_table(header: str, *columns) -> str:
    """A CSV body: the ``header`` line, then one comma-separated line per
    row of ``columns``, each line ending in a newline.  Integer columns are
    written in decimal, float columns to 17 significant digits (enough to
    round-trip) and any other column as its str."""
    return csv_groups(header, [columns])


def csv_groups(header: str, groups) -> str:
    """:func:`csv_table` of the rows of each column tuple of ``groups`` in
    turn, the header written once.  ``groups`` may be a generator: tuples
    are read and formatted as soon as they hold CSV_CHUNK_ROWS rows between
    them, so only those tuples need exist at a time."""
    parts, pending, count = [header + "\n"], [], 0
    for columns in groups:
        pending.append(columns)
        count += len(columns[0])
        if count >= CSV_CHUNK_ROWS:
            parts.append(_csv_rows(pending))
            pending, count = [], 0
    if pending:
        parts.append(_csv_rows(pending))
    return "".join(parts)


def _csv_rows(groups: list) -> str:
    """The lines of the column tuples ``groups``, joined column by column,
    CSV_CHUNK_ROWS rows turned into Python objects at a time."""
    if len(groups) == 1:
        columns = [np.asarray(c) for c in groups[0]]
    else:
        columns = list(map(np.concatenate, zip(*groups)))
    spec = {"i": "%d", "u": "%d", "f": "%.17g"}
    line = ",".join(spec.get(c.dtype.kind, "%s") for c in columns) + "\n"
    parts = []
    for i in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = zip(*(c[i : i + CSV_CHUNK_ROWS].tolist() for c in columns))
        parts.append("".join(map(line.__mod__, rows)))
    return "".join(parts)


def coherent_ket(trunc: Truncation, alpha: complex) -> np.ndarray:
    """Taylor-series coherent state amplitudes e^{-|a|^2/2} a^n / sqrt(n!)."""
    n = np.arange(trunc.dim)
    log_amp = np.zeros(trunc.dim)
    if alpha != 0:
        log_amp = n * math.log(abs(alpha))
    phases = np.exp(1j * np.angle(alpha) * n) if alpha != 0 else (n == 0).astype(complex)
    log_norm = np.array([log_factorial(int(q)) for q in n])
    amps = np.where(
        (alpha != 0) | (n == 0),
        np.exp(-abs(alpha) ** 2 / 2 + log_amp - 0.5 * log_norm),
        0.0,
    )
    return amps * phases


def block_layout(trunc: Truncation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The phi basis as a padded block stack: (rows, cols, filled).

    Slot k of stack row m + n_max is the matrix entry
    (k + max(m, 0), k + max(-m, 0)), and ``filled`` marks the slots k <= K(m).
    ``entries[rows, cols]`` gathers the (2 n_max + 1, n_max + 1) stack; its
    padding slots repeat entry K(m) of the same block.
    ``entries[rows[filled], cols[filled]] = stack[filled]`` scatters a stack
    back into the (dim, dim) matrix.
    """
    n = trunc.n_max
    m = np.arange(-n, n + 1)[:, None]
    k, bound = np.arange(n + 1), n - np.abs(m)
    k_in = np.minimum(k, bound)
    return k_in + np.maximum(m, 0), k_in + np.maximum(-m, 0), k <= bound


def to_blocks(state: FockState) -> dict[int, np.ndarray]:
    """Decompose a FockState over the phi basis: {m: coefficients over k}."""
    trunc = state.truncation
    rows, cols, _ = block_layout(trunc)
    stack = state.entries[rows, cols]
    return {m: stack[m + trunc.n_max, : trunc.block_size(m)] for m in trunc.blocks()}
