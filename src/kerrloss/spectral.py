"""Closed-form eigenvalues and eigenvectors of the block Liouvillian.

Within block m the eigenvalues are the triangular diagonal,

    lambda_k^(m) = -i(omega - U/2) m - (kappa1 + i U m)(k + |m|/2)
                   - kappa2 [ (k+|m|)(k-1) + |m|(|m|+1)/2 ],

and the eigenvector entries are terminating sums, built in one place
(:class:`EigenvectorBuilder`): R_m[p, k] = (-1)^(k-p) w F_(k-p) and
L_m[k, q] = w F_(q-k) with w = sqrt(C(hi, lo) C(hi+|m|, lo+|m|)) of the two
indices and F_n = 2F1(-n, b; c; 2), b = 1 - x, c = 2 - 2x - eta (right) or
b = x, c = 2x + eta (left).  Gauss's contiguous relation in the first
parameter gives F_0 = 1, (c + j) F_(j+1) = (c - 2b) F_j + j F_(j-1) with
c - 2b = -eta (right) or +eta (left); at kappa2 = 0, F_(j+1) = s F_j with
s = 1 / (1 + i m U / kappa1).  The recurrence is benign, |d_j| >= |g| + j h
for its coefficients: that is proved for kappa1, kappa2 >= 0 and gated, and
any other recurrence is refused.  It runs in two phases.  First, every mode
of the requested blocks at once, in lockstep in double-double arithmetic,
each entry with a rigorous error bound; an entry is certified when its bound,
plus the exact path's own uncertainty, keeps it clear of the nearest rounding
midpoint, and its double is then the exact path's.  Second, a mode with any
uncertified entry reruns exactly: forward in fixed-point Gaussian integers,
each F_j within 2 j last places, the width growing until each F_j is resolved
or proved an exact zero, and each entry rounded to double once, as ldexp of
its correctly rounded fixed-point numerator (:func:`_round_entries`;
big-integer true division where that could leave the normal range).  Either
way each entry is the correctly rounded double of its exact value (up to
ties within 2^-GUARD_BITS ulp).  :class:`PropagatorCoefficients` gates
exactly the blocks each of its calls builds with stacked
:func:`check_biorthogonality` calls.  Parameter cases are :class:`CaseTag`s; the
one true degeneracy (kappa1 = 0, block 0, k < 2) gets parity-based vectors.
:func:`spectrum` reads every eigenvalue from one table and builds no
eigenvector; :func:`decompose` adds R and L, copied from one built stack.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np

from .fockbasis import Truncation, block_layout, csv_groups, csv_table
from .specfun import DENOMINATOR_FLOOR, VanishingDenominatorError
from .superops import (
    BlockMatrix,
    InternalConsistencyError,
    ModelParams,
    block_A_matrix,
)

__all__ = [
    "CaseTag",
    "SpectralDecomposition",
    "classify",
    "eigenvalue",
    "x_parameter",
    "EigenvectorBuilder",
    "PropagatorCoefficients",
    "check_biorthogonality",
    "F_matrix",
    "spectrum",
    "decompose",
    "spectrum_csv",
    "eigenvectors_csv",
]

INTEGER_RATIO_TOL = 1e-9
INTEGER_RATIO_WARN = 1e-6


class CaseTag(Enum):
    GENERIC_RATIO = "generic_ratio"        # kappa1, kappa2 > 0, ratio not a non-negative integer
    INTEGER_RATIO = "integer_ratio"        # kappa1, kappa2 > 0, ratio a positive integer
    ZERO_KAPPA1 = "zero_kappa1"            # kappa1 = 0 < kappa2
    ZERO_KAPPA2 = "zero_kappa2"            # kappa2 = 0 < kappa1 (Gaussian limit)
    HAMILTONIAN_ONLY = "hamiltonian_only"  # kappa1 = kappa2 = 0


def classify(params: ModelParams) -> CaseTag:
    """Deterministic parameter-case tag; tags partition parameter space."""
    k1, k2 = params.kappa1, params.kappa2
    if k1 == 0 and k2 == 0:
        return CaseTag.HAMILTONIAN_ONLY
    if k2 == 0:
        return CaseTag.ZERO_KAPPA2
    ratio = k1 / k2
    nearest = round(ratio)
    gap = abs(ratio - nearest)
    if gap < INTEGER_RATIO_TOL:
        if nearest == 0:
            return CaseTag.ZERO_KAPPA1
        return CaseTag.INTEGER_RATIO
    if gap < INTEGER_RATIO_WARN:
        warnings.warn(
            f"loss-rate ratio {ratio} is within {gap:.1e} of an integer; "
            "series denominators are poorly conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    return CaseTag.GENERIC_RATIO


def eigenvalue(
    params: ModelParams, m: int | np.ndarray, k: int | np.ndarray
) -> complex | np.ndarray:
    """lambda_k^(m); m and k may be integer arrays, which broadcast, and each
    entry is bit for bit the scalar value."""
    am = abs(m)
    return (
        -1j * (params.omega - params.U / 2) * m
        - (params.kappa1 + 1j * params.U * m) * (k + am / 2)
        - params.kappa2 * ((k + am) * (k - 1) + am * (am + 1) / 2)
    )


def _eigenvalue_table(params: ModelParams, trunc: Truncation) -> np.ndarray:
    """lambda_k^(m) of every block in one broadcast :func:`eigenvalue` call:
    the zero-padded (2 n_max + 1, n_max + 1) stack, row m + n_max for block m."""
    n = trunc.n_max
    m, k = np.arange(-n, n + 1)[:, None], np.arange(n + 1)
    return np.where(k <= n - np.abs(m), eigenvalue(params, m, k), 0)


def x_parameter(params: ModelParams, m: int, k: int) -> complex:
    """(2k+|m|)/2 + i U m / (2 kappa2), the hypergeometric parameter."""
    if params.kappa2 == 0:
        raise ValueError("x-parameter undefined at kappa2 = 0; use the Gaussian-limit path")
    return (2 * k + abs(m)) / 2 + 1j * params.U * m / (2 * params.kappa2)


#: bits kept beyond double precision: each F_j is resolved to 53 + GUARD_BITS
#: bits beyond its error bound, so an entry is the correctly rounded double of
#: its exact value unless that lies within 2^-GUARD_BITS ulp of a tie
GUARD_BITS = 32
#: fixed-point bits of root[n][j] = sqrt(C(n, j)), the prefactor table
ROOT_BITS = 53 + GUARD_BITS


def _run_recurrence(rec: tuple, n: int, bits: int) -> tuple[list[int], list[int]]:
    """F_j, j <= n, of the recurrence ``rec`` = (g, h, cr, ci, r) as
    Gaussian integers with 1 = 2^bits: F_0 = 1 and
    F_(j+1) = (g F_j + j h F_(j-1)) conj(d_j) / |d_j|^2, d_j = cr + j h + i ci,
    each component floored once."""
    g, h, cr, ci, _ = rec
    ci2 = ci * ci
    fr, fi, pr, pi = 1 << bits, 0, 0, 0
    re, im = [fr], [fi]
    dr, hj = cr, 0  # Re d_j and j h
    for _ in range(n):
        q = dr * dr + ci2
        nr, ni = g * fr + hj * pr, g * fi + hj * pi
        pr, pi = fr, fi
        fr, fi = (nr * dr + ni * ci) // q, (ni * dr - nr * ci) // q
        re.append(fr)
        im.append(fi)
        dr += h
        hj += h
    return re, im


def _round_entries(re: list[int], im: list[int], w: list[int], shift: int) -> list[complex]:
    """(re + i im) w 2^-shift entry by entry, each component rounded once to
    the nearest double.

    CPython's int -> float conversion rounds correctly, and scaling by a power
    of two is exact on normal doubles, so ldexp(float(x v), -shift) equals
    the true quotient x v / 2^shift.  Each w is at least 2^(2 ROOT_BITS) in
    magnitude, so every nonzero value is normal while shift - 2 ROOT_BITS
    <= 1022.  A product past the double range (float() overflows) and a
    wider shift take the big-integer true division instead."""
    if shift - 2 * ROOT_BITS <= 1022:
        ldexp = math.ldexp
        try:
            return [complex(ldexp(float(x * v), -shift), ldexp(float(y * v), -shift))
                    for x, y, v in zip(re, im, w)]
        except OverflowError:
            pass
    scale = 1 << shift
    return [complex(x * v / scale, y * v / scale) for x, y, v in zip(re, im, w)]


#: Veltkamp's constant 2^27 + 1: ``_SPLIT * x`` splits a double into two
#: halves of 26 bits or fewer, whose products with other halves are exact
_SPLIT = 134217729.0
#: bound on the rounding of one double-double step of
#: :meth:`EigenvectorBuilder._run_batch` relative to |alpha| |F_j| + |beta| |F_(j-1)|:
#: at most 90 u^2 (u = 2^-53) is proved, 47 u^2 for the step (8 u^2 per
#: product and 25 u^2 for their sum, in each of the two parts) and 43 u^2 for
#: the coefficients; the slack covers the rounding of the bound itself and the
#: 24 u^2 of the product with w
STEP_ERROR = 128.0 * 2.0**-106
#: factor that rounds a computed bound, or the modulus of a coefficient, up
#: past any rounding of the double arithmetic that formed it
_UP = 1.0 + 2.0**-40
#: nonzero parts of F_j, |d_j| and nonzero |alpha_j|, |beta_j| outside
#: [1/_RANGE, _RANGE] are left to the exact path, so no product of the
#: double-double pass under- or overflows
_RANGE = 2.0**300


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: x = hi + lo with hi and lo of 26 bits or fewer."""
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s + e = a + b exactly, s = fl(a + b)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _dd_mul(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """(ah + al)(bh + bl) as a double-double (hi, lo), hi = fl(hi + lo), within
    8 u^2 |a| |b|: Dekker's TwoProduct of the high parts, exact, plus the two
    cross products (Joldes, Muller & Popescu, ACM TOMS 44, 15 (2017))."""
    p = ah * bh
    a1, a2 = _split(ah)
    b1, b2 = _split(bh)
    return _two_sum(p, (((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2) + (ah * bl + al * bh))


def _reciprocal(dh: np.ndarray, dl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1/d = (re d - i im d) / q, q = |d|^2, of the double-double d = (re, im)
    as a double-double (re, im): 1/q takes one Newton step from 1/fl(q)."""
    sh, sl = _dd_mul(dh, dl, dh, dl)
    s, t = _two_sum(sh[0], sh[1])
    qh, ql = _two_sum(s, t + (sl[0] + sl[1]))
    y = 1.0 / qh
    p = qh * y
    q1, q2 = _split(qh)
    y1, y2 = _split(y)
    inv = _two_sum(y, y * (((1.0 - p) - (((q1 * y1 - p) + q1 * y2 + q2 * y1) + q2 * y2)) - ql * y))
    conj = np.array([[1.0], [-1.0]])
    return _dd_mul(dh * conj, dl * conj, *inv)


#: bytes of the temporaries one chunk of :func:`check_biorthogonality` holds
GATE_CHUNK_BYTES = 1 << 20
#: bytes of the arrays one chunk of :meth:`EigenvectorBuilder.fill_blocks` holds
BUILD_CHUNK_BYTES = 1 << 23
#: peak bytes of the double-double pass per (mode, step) cell of a chunk
CELL_BYTES = 640


def _gate_ratios(R: np.ndarray, L: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """max|R_b L_b - I_b| / (S_b eps max(|R_b| |L_b|)) of each pair of one chunk."""
    diag = np.arange(R.shape[-1])
    bound = sizes * np.finfo(float).eps * np.max(np.abs(R) @ np.abs(L), axis=(1, 2))
    dev = R @ L
    dev[:, diag, diag] -= diag < sizes[:, None]
    return np.max(np.abs(dev), axis=(1, 2)) / bound


def check_biorthogonality(
    R: np.ndarray,
    L: np.ndarray,
    sizes: Sequence[int] | None = None,
    labels: Sequence[int] | None = None,
) -> np.ndarray:
    """Gate max|R_b L_b - I_b| <= S_b eps max(|R_b| |L_b|), the rounding
    bound of the product, on every pair of the stacks R, L of shape
    (..., S, S); returns each deviation over its bound (the gate margins).

    Pair b is zero-padded past its leading S_b = ``sizes[b]`` indices
    (default S), where I_b is the identity.  The pairs are gated in chunks:
    a pair holds at most 24 S^2 bytes of temporaries at once, so a chunk
    holds at most GATE_CHUNK_BYTES.  A failure names the block ``labels[b]``
    (default: pair b) with the largest ratio."""
    shape, S = R.shape[:-2], R.shape[-1]
    R, L = R.reshape(-1, S, S), L.reshape(-1, S, S)
    sizes = np.broadcast_to(S if sizes is None else np.asarray(sizes), len(R))
    ratios, step = np.empty(len(R)), max(1, GATE_CHUNK_BYTES // (24 * S * S))
    for lo in range(0, len(R), step):
        chunk = slice(lo, lo + step)
        top = int(sizes[chunk].max())  # the padding past the largest pair adds nothing
        ratios[chunk] = _gate_ratios(R[chunk, :top, :top], L[chunk, :top, :top], sizes[chunk])
    if not np.all(ratios <= 1.0):
        worst = int(np.argmax(np.where(np.isnan(ratios), np.inf, ratios)))
        where = f"pair {worst}" if labels is None else f"eigenvector block m={labels[worst]}"
        raise InternalConsistencyError(f"{where}: max|R L - I| is {ratios[worst]:.3g} x its bound")
    return ratios.reshape(shape)


class EigenvectorBuilder:
    """The one builder of the closed-form eigenvector entries at one truncation.

    It works in two phases (Ziv, ACM TOMS 17, 410 (1991)).  :meth:`fill_blocks`,
    the phase every build takes, runs the recurrence of every mode of the
    requested blocks at once, stepping j in lockstep over numpy arrays that
    hold each F_j as a double-double (TwoSum, Dekker's split and TwoProduct),
    with a rigorous error bound per entry (:meth:`_run_batch`).  An entry is
    certified when that bound, plus the exact path's own uncertainty, keeps it
    clear of the nearest rounding midpoint; its double is then, bit for bit,
    the one the exact path writes (:meth:`_certify`).  A mode with any entry
    it cannot certify (a near-zero that is not structural, a near-tie, a
    product out of range) reruns through the exact path, which stays the only
    code that proves a zero; :attr:`fallback_modes` counts them.

    The exact path (:meth:`_fill`, and :meth:`block` mode by mode) takes U,
    kappa1 and kappa2 as exact fractions, so every coefficient of the
    three-term recurrence is a Gaussian integer in units of 2 D kappa2 (D the
    common denominator).  Each mode runs the recurrence once in fixed point
    (:func:`_run_recurrence`), every step exact up to one floor per component,
    under the error bound 2 j that :meth:`_recurrence` gates; an F_j short of
    53 + GUARD_BITS resolved bits widens the run, and one within its bound of
    zero is an exact zero once the width exceeds the size of its denominators.
    Blocks m >= 0 are built; block -m is their complex conjugate (U -> -U).
    """

    def __init__(self, params: ModelParams, trunc: Truncation):
        self.bits = [0, 0]  # working bits of the last right and left mode, the next guess
        self.truncation = trunc
        self._fallbacks = 0
        U, k1, k2 = (Fraction(v) for v in (params.U, params.kappa1, params.kappa2))
        D = math.lcm(U.denominator, k1.denominator, k2.denominator)
        self.K1, self.K2, self.KU = int(k1 * D), int(k2 * D), int(U * D)
        # the same rationals as doubles, for the double-double pass (None: not doubles)
        doubles = tuple(float(v) for v in (U, k1, k2))
        self._doubles = doubles if all(map(Fraction.__eq__, (U, k1, k2), doubles)) else None

    @property
    def fallback_modes(self) -> int:
        """How many modes :meth:`fill_blocks` has so far left to the exact
        path (:meth:`_fill`), because the double-double pass could not certify
        one of their entries."""
        return self._fallbacks

    @cached_property
    def root(self) -> list[list[int]]:
        """The prefactor table of the exact path: w = root[hi][j] root[hi + |m|][j],
        j = hi - lo, with root[n][j] = sqrt(C(n, j)) 2^ROOT_BITS, floored."""
        return [[math.isqrt(math.comb(n, j) << 2 * ROOT_BITS) for j in range(n + 1)]
                for n in range(self.truncation.n_max + 1)]

    @cached_property
    def _root_dd(self) -> tuple[np.ndarray, np.ndarray]:
        """sqrt(C(n, j)) as a double-double table (hi, lo), zero past j = n:
        C(n, j) to u^2 from the integers, then one Newton step from the double
        square root, so each entry is within 4 u^2 of sqrt(C(n, j))."""
        size = self.truncation.n_max + 1
        at = np.tril_indices(size)
        exact = [math.comb(n, j) for n, j in zip(*(x.tolist() for x in at))]
        ch = np.array(exact, dtype=float)
        cl = np.array([float(x - int(h)) for x, h in zip(exact, ch.tolist())])
        s = np.sqrt(ch)
        p = s * s
        s1, s2 = _split(s)
        r = (((ch - p) - (((s1 * s1 - p) + 2 * s1 * s2) + s2 * s2)) + cl) / (2 * s)
        hi, lo = np.zeros((2, size, size))
        hi[at], lo[at] = _two_sum(s, r)
        return hi, lo

    def _recurrence(self, am: int, k: int, right: bool, n: int) -> tuple:
        """Recurrence (g, h, cr, ci, r) of mode (|m|, k) for
        :func:`_run_recurrence`, in Gaussian integers times one = 2 D kappa2,
        all divided by their common factor: the smaller the d_j, the fewer bits
        prove an exact zero.

        (c + j) F_(j+1) = (c - 2b) F_j + j F_(j-1) is Gauss's contiguous relation
        in the first parameter, with c - 2b = -eta (right) or +eta (left), so
        g = c - 2b, h = 1 and d_j = c + j.  At kappa2 = 0 (one = D kappa1) it
        is F_(j+1) = s F_j: g = 1, h = 0, d_j = 1 + i U m / kappa1.  The
        numerator b + j vanishes at j = r (r = n if it never does).

        The gate, cr >= |g| or -cr >= |g| + 2 (n - 1) h, makes |d_j| at least
        |g| + j h for j < n.  A step floors once (under 2 last places), so each
        F_j is within e_j = 2 j: (|g| 2j + j h 2(j - 1)) / |d_j| + 2 <= 2j + 2.
        It holds at kappa1, kappa2 >= 0 (unreduced, one = 2 K2, T = (2k + |m|) K2):
        - left: cr - |g| = 2T >= 0;
        - right (n = k): -cr - |g| - 2 (n - 1) h = 2 |m| K2 >= 0;
        - kappa2 = 0: cr = g = K1 > 0.
        Re d_j can vanish only at kappa1 = 0, m = 0, k < 2, the degenerate
        pair :meth:`_fill` returns before; any other recurrence is refused."""
        K1, K2, Y = self.K1, self.K2, self.KU * am
        if K2:
            one, T = 2 * K2, (2 * k + am) * K2  # 1 and Re(x) times one
            br, cr, ci = (one - T, 2 * one - 2 * T - 2 * K1, -2 * Y) if right else (T, 2 * T + 2 * K1, 2 * Y)
            r = -br // one if Y == 0 and br <= 0 and br % one == 0 else n
            g, h = -2 * K1 if right else 2 * K1, one
        else:
            g, h, cr, ci, r = K1, 0, K1, Y, n
        G = math.gcd(g, h, cr, ci)
        g, h, cr, ci = g // G, h // G, cr // G, ci // G
        if not (cr >= abs(g) or -cr >= abs(g) + 2 * (n - 1) * h):
            side = "right" if right else "left"
            raise InternalConsistencyError(f"{side}-eigenvector (m,k)=({am},{k}): recurrence not benign")
        return g, h, cr, ci, r

    def _fill(self, am: int, k: int, right: bool, out: np.ndarray, bits: int = 0) -> int:
        """Write mode (|m|, k) into the zeroed ``out`` (column k of R_m or row
        k of L_m); return the working bits it took.

        The F_j run at the caller's guess of bits, at least 53 + GUARD_BITS +
        log2 E with E = 2 n, the largest error bound e_j = 2 j, and the width
        grows by the measured shortfall until each F_j is resolved to
        53 + GUARD_BITS bits.  F_j times the product of its denominators d_l,
        l < min(j, r), is a Gaussian integer, so an F_j within E of zero once
        2 E 2^-bits is below the reciprocal of that product is an exact zero."""
        out[k] = 1.0
        n = k if right else len(out) - 1 - k
        if self.K1 == self.K2 == 0 or n == 0:  # Hamiltonian only: R = L = I
            return bits
        if self.K1 == 0 and am == 0 and k < 2:
            # exact degenerate pair: rho_k = |k><k|, bar rho_0 / bar rho_1 = even / odd parity
            if not right:
                out[k % 2 :: 2] = 1.0
            return bits
        rec = self._recurrence(am, k, right, n)
        _, h, cr, ci, r = rec
        target, bound = 53 + GUARD_BITS, 2 * n
        lim = bound << target  # resolved: |F_j| 2^bits at least this
        bits = max(bits, target + bound.bit_length())
        slack, logd = math.log2(2 * bound) + 1, None  # logd[i]: sum of log2 |d_l|^2, l < i
        while True:
            re, im = _run_recurrence(rec, n, bits)
            extra = 0
            for j in [j for j in range(n + 1) if abs(re[j]) < lim > abs(im[j])]:
                f2 = re[j] ** 2 + im[j] ** 2
                if f2 >= lim * lim:
                    continue
                if f2 > bound * bound:  # resolved, but short of the target
                    extra = max(extra, bound.bit_length() + target + 1 - f2.bit_length() // 2)
                    continue
                if logd is None:  # once per mode, summed left to right
                    logd = list(accumulate((math.log2((cr + l * h) ** 2 + ci * ci)
                                            for l in range(min(n, r))), initial=0))
                need = logd[min(j, r)] / 2 + slack
                if bits > need:  # within E of zero and below any nonzero value
                    re[j] = im[j] = 0
                else:
                    extra = max(extra, math.ceil(need) + 1 - bits)
            if not extra:
                break
            bits += extra + 16  # headroom, so the next mode of the side rarely reruns
        root, shift = self.root, bits + 2 * ROOT_BITS
        if right:
            w = [root[k][j] * root[k + am][j] * (-1) ** j for j in range(1, n + 1)]
        else:
            w = [root[k + j][j] * root[k + j + am][j] for j in range(1, n + 1)]
        vals = _round_entries(re[1:], im[1:], w, shift)
        out[slice(k - 1, None, -1) if right else slice(k + 1, None)] = vals
        return bits

    def block(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(R_m, L_m) of block m >= 0 from the exact path alone, not gated: every
        mode through :meth:`_fill`, each side from its longest sum down, every
        mode starting at ``self.bits``.  :class:`PropagatorCoefficients` builds
        with :meth:`fill_blocks`, which writes the same bytes."""
        if m < 0:
            raise ValueError("build block |m|; block -m is its complex conjugate")
        R, L = (np.zeros((self.truncation.block_size(m),) * 2, dtype=complex) for _ in "RL")
        for k, top in enumerate(range(len(R) - 1, -1, -1)):
            self.bits[0] = self._fill(m, top, True, R[:, top], self.bits[0])
            self.bits[1] = self._fill(m, k, False, L[k], self.bits[1])
        return R, L

    def fill_blocks(self, ams: Sequence[int], R: np.ndarray, L: np.ndarray) -> None:
        """Write block m of every m >= 0 in ``ams`` into the leading
        block_size(m) square of the zeroed R[m] and L[m], not yet gated.

        Every mode passes the gate of :meth:`_recurrence`, in its closed form
        :meth:`_admitted`; a mode that form does not admit goes to
        :meth:`_recurrence` itself, in the order :meth:`block` visits them, so
        a refusal raises there as in :meth:`block`.  Then all modes run
        together in :meth:`_run_batch`, longest first, in chunks of at most
        BUILD_CHUNK_BYTES.  A mode with an entry that pass cannot certify
        reruns through :meth:`_fill`, as in :meth:`block`, and counts in
        :attr:`fallback_modes`."""
        n_max, ams = self.truncation.n_max, np.asarray(ams, dtype=int)
        # every mode of the blocks, in the order block() visits them: in a block
        # of size S, right mode S - 1 - i and then left mode i, i = 0, 1, ...
        per = 2 * (n_max + 1 - ams)
        am, sizes = np.repeat(ams, per), np.repeat(n_max + 1 - ams, per)
        i = np.arange(len(am)) - np.repeat(np.cumsum(per) - per, per)
        right = i % 2 == 0
        k = np.where(right, sizes - 1 - i // 2, i // 2)
        n = np.where(right, k, sizes - 1 - k)
        R[am, k, k] = L[am, k, k] = 1.0
        if self.K1 == self.K2 == 0:  # Hamiltonian only: R = L = I
            return
        pair = (am == 0) & (k < 2) & (self.K1 == 0)  # the degenerate pair
        for j in np.flatnonzero(pair).tolist():
            self._fill(0, int(k[j]), bool(right[j]), R[0, :, k[j]] if right[j] else L[0, k[j]])
        run = (n > 0) & ~pair
        am, k, right, n = am[run], k[run], right[run], n[run]
        for j in np.flatnonzero(~self._admitted(am, k, right, n)).tolist():
            self._recurrence(int(am[j]), int(k[j]), bool(right[j]), int(n[j]))  # refuses, or admits after all
        order, bad, start = np.argsort(-n, kind="stable"), np.ones(len(n), dtype=bool), 0
        cells = np.cumsum(n[order])  # (mode, step) cells up to each mode
        while self._doubles is not None and start < len(order):
            # the chunk from ``start`` holds at most BUILD_CHUNK_BYTES / CELL_BYTES cells (one mode at least)
            top = cells[start] - n[order[start]] + BUILD_CHUNK_BYTES // CELL_BYTES
            stop = max(start + 1, int(np.searchsorted(cells, top, side="right")))
            chunk = order[start:stop]
            bad[chunk] = self._run_batch(am[chunk], k[chunk], right[chunk], n[chunk], R, L)
            start = stop
        failed = np.flatnonzero(bad).tolist()
        for j in failed:
            m, kk, side = int(am[j]), int(k[j]), int(not right[j])
            size = n_max + 1 - m
            out = L[m, kk, :size] if side else R[m, :size, kk]
            self.bits[side] = self._fill(m, kk, not side, out, self.bits[side])
        self._fallbacks += len(failed)

    def _admitted(self, am, k, right, n) -> np.ndarray:
        """Which of the modes the gate of :meth:`_recurrence` admits, in closed
        form: its two conditions, before the common factor is divided out, are
        A K2 >= K1 + |K1| or A K2 >= |K1| - K1 with an integer A of the mode
        (right: 2 - 2k - |m| or |m|; left: -(2k + |m| + 2n - 2) or 2k + |m|), so
        each is one comparison of A with a ceiling.  At kappa2 = 0 every mode
        is admitted.  False also stands for "not decided here" (K2 < 0): the
        caller runs :meth:`_recurrence` on every mode that is not admitted."""
        K1, K2 = self.K1, self.K2
        if K2 == 0:
            return np.ones(len(am), dtype=bool)
        if K2 < 0:
            return np.zeros(len(am), dtype=bool)
        up, down = (min(-(-v // K2), 1 << 62) for v in (K1 + abs(K1), abs(K1) - K1))
        return np.where(right, (2 - 2 * k - am >= up) | (am >= down),
                        (-(2 * k + am + 2 * n - 2) >= up) | (2 * k + am >= down))

    def _run_batch(self, am, k, right, n, R, L) -> np.ndarray:
        """Run the modes (|m|, k) of one chunk, sorted by length n from the
        longest, in lockstep in double-double, write the entries of every mode
        it certifies into R and L, and return which modes it could not.

        Step j takes F_(j+1) = alpha_j F_j + beta_j F_(j-1) for every mode with
        n > j, as one broadcast product of the coefficient matrices of
        :meth:`_coefficients` with (F_(j-1), F_j), whose four products per part
        TwoSum adds.  The bound E_(j+1) = |alpha_j| Et_j + |beta_j| Et_(j-1),
        Et_j = E_j + STEP_ERROR |F_j|, holds by induction and stays below
        n STEP_ERROR max |F|, as the gate of :meth:`_recurrence` makes
        |alpha_j| + |beta_j| <= 1.  Structural zeros (odd j at kappa1 = 0) come
        out exact with a zero bound.  :meth:`_certify` then checks every entry."""
        steps, c = int(n[0]), len(n)
        jj, ii = np.nonzero(np.arange(steps)[:, None] < n)  # cell (jj, ii): step jj of mode ii
        with np.errstate(all="ignore"):
            K, mod, guard = self._coefficients(am, k, right, jj, ii)
            W = np.zeros((4, 2, 2, c))  # hi, lo and halves of hi of (F_(j-1), F_j), as (re, im)
            W[[0, 2], 1, 0] = 1.0  # F_0 = 1
            F = np.empty((2, 2, len(ii)))  # hi and lo of F_(jj+1) of every cell, as (re, im)
            Et = np.zeros((steps + 2, c))  # row j + 1: Et_j / STEP_ERROR
            Et[1] = 1.0
            terms = np.empty((4, c))
            counts = np.bincount(jj, minlength=steps).tolist()
            for j, (start, cj) in enumerate(zip(accumulate(counts, initial=0), counts)):
                cells = slice(start, start + cj)
                D = W[:, :, None, :, :cj]
                Kj = K[..., cells]
                p = Kj[0] * D[0]
                h = Kj[2:, None] * D[None, 2:]  # Dekker's partial products, each exact
                x = Kj[:2] * D[1::-1]  # the two cross products
                e = ((((h[0, 0] - p) + h[0, 1]) + h[1, 0]) + h[1, 1]) + (x[0] + x[1])
                x, y = _two_sum(p[0], p[1])  # over F_(j-1) and F_j
                s, z = _two_sum(x[:, 0], x[:, 1])  # over the two parts of each
                y += e[0] + e[1]
                t = z + (y[:, 0] + y[:, 1])
                W[:, 0, :, :cj] = W[:, 1, :, :cj]
                hi, lo, h1, h2 = W[:, 1, :, :cj]
                np.add(s, t, out=hi)
                z = hi - s
                np.add(s - (hi - z), t - z, out=lo)
                g = _SPLIT * hi
                np.subtract(g, g - hi, out=h1)
                np.subtract(hi, h1, out=h2)
                F[..., cells] = W[:2, 1, :, :cj]
                np.multiply(mod[:, cells], Et[j : j + 2, :cj], out=terms[:2, :cj])
                np.abs(hi, out=terms[2:, :cj])
                np.add.reduce(terms[:, :cj], axis=0, out=Et[j + 2, :cj])
            del K, mod
            ok = self._certify(F, Et, ~guard, am, k, right, jj, ii, R, L)
        return np.bincount(ii[~ok], minlength=c) > 0

    def _coefficients(self, am, k, right, jj, ii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K, mod, guard) of the cells (jj, ii), step jj of mode ii: K[:, s, o, i]
        (hi, lo and the halves of hi) is the coefficient of part i of F_(j-1)
        (s = 0, beta_j) or F_j (s = 1, alpha_j) in part o of F_(j+1), the 2 x 2
        real matrix [[re, -im], [im, re]]; mod bounds |beta_j| and |alpha_j|
        from above; guard marks cells past the range the arithmetic is sure in.

        alpha_j = kappa1 / d_j and beta_j = j kappa2 / d_j: the recurrence of
        :meth:`_recurrence` divided by a common factor.  A right mode runs
        G_j = (-1)^j F_j, with d_j = kappa2 (2 - 2k - |m| + j) - kappa1 - i U |m|;
        a left mode has d_j = kappa2 (2k + |m| + j) + kappa1 + i U |m|.  kappa2 M
        and U |m| are exact double-doubles (M and |m| have under 26 bits), and
        1/q = 1/|d_j|^2 takes one Newton step from 1/fl(q); each coefficient is
        within 43 u^2 of its modulus."""
        U, k1, k2 = self._doubles
        sign = np.where(right, -1.0, 1.0)[ii]
        v = np.stack([np.where(right, 2 - 2 * k - am, 2 * k + am)[ii] + jj, am[ii]])
        scale = np.array([[k2], [U]])
        sh, sl = _split(scale)
        p = scale * v
        e = (sh * v - p) + sl * v
        s, t = _two_sum(p[0], sign * k1)
        dh, dl = np.stack([s, sign * p[1]]), np.stack([t + e[0], sign * e[1]])
        dh[0], dl[0] = _two_sum(s, dl[0])  # d_j = dr + i ci
        bh = k2 * jj  # b_j = j kappa2 exactly
        fh = np.stack([bh, np.full_like(bh, k1)])
        fl = np.stack([(sh[0] * jj - bh) + sl[0] * jj, np.zeros_like(bh)])
        size = np.hypot(dh[0], dh[1])
        mod = fh * (_UP / size)
        guard = (size < 1 / _RANGE) | (size > _RANGE) | np.any((mod > 0) & (mod < 1 / _RANGE), axis=0)
        ch, cl = _dd_mul(fh[:, None], fl[:, None], *_reciprocal(dh, dl))
        K = np.empty((4, 2, 2, 2, len(ii)))
        for x, part in zip(K, (ch, cl)):
            x[:, 0, 0] = x[:, 1, 1] = part[:, 0]
            x[:, 1, 0] = part[:, 1]
            np.negative(part[:, 1], out=x[:, 0, 1])
        np.multiply(K[0], _SPLIT, out=K[3])  # Veltkamp's split of the high parts, in place
        np.subtract(K[3], K[0], out=K[2])
        np.subtract(K[3], K[2], out=K[2])
        np.subtract(K[0], K[2], out=K[3])
        return K, mod, guard

    def _certify(self, F, Et, ok, am, k, right, jj, ii, R, L) -> np.ndarray:
        """Write every entry V = w F_j of the cells (jj, ii) whose mode it
        certifies into R and L, and return which cells it certifies, of those
        ``ok`` admits.

        w is the double-double sqrt(C) sqrt(C) of :attr:`_root_dd`.  A cell is
        certified when its bound, plus 3 2^-(53 + GUARD_BITS) |V| for the exact
        path (every F_j that :meth:`_fill` rounds is resolved to
        2^-(53 + GUARD_BITS), and each floored root of its w is within that of
        sqrt(C)), keeps each part clear of the midpoints next to its double:
        that double is then the one :meth:`_fill` writes.  A part that is an
        exact zero with a zero bound is +0.0, and so is the imaginary part of a
        real mode (U |m| = 0) on both paths.  Nonzero parts of F_j stay within
        [1/_RANGE, _RANGE]."""
        c, f, (Fh, Fl) = Et.shape[1], jj + 1, F
        Wh, Wl = self._root_dd
        size = len(Wh)
        ra = (k[ii] + np.where(right[ii], 0, f)) * size + f
        rb = ra + am[ii] * size
        wh, wl = _dd_mul(np.take(Wh, ra), np.take(Wl, ra), np.take(Wh, rb), np.take(Wl, rb))
        Vh, Vl = _dd_mul(Fh, Fl, wh, wl)
        aF, aV = np.abs(Fh), np.abs(Vh)
        EV = STEP_ERROR * wh * (np.take(Et, (f + 1) * c + ii) + aF.sum(axis=0))
        rad = (EV + 3 * 2.0 ** -(53 + GUARD_BITS) * (aV.sum(axis=0) + EV)) * _UP
        clear = ((np.abs(Vl) + rad) * _UP < (aV - np.nextafter(aV, 0)) / 2) & (aF >= 1 / _RANGE) & (aF <= _RANGE)
        parts = np.where(Fh == 0, rad == 0, clear)
        parts[1] |= (self.KU == 0) | (am[ii] == 0)
        ok = ok & parts[0] & parts[1]
        keep = np.bincount(ii[~ok], minlength=c)[ii] == 0
        vals = np.ascontiguousarray((Vh + 0.0).T).view(complex)[keep, 0]
        kk, ff, r = k[ii][keep], f[keep], right[ii][keep]
        at = (am[ii][keep] * size + np.where(r, kk - ff, kk)) * size + np.where(r, kk, kk + ff)
        np.put(R, at[r], vals[r])
        np.put(L, at[~r], vals[~r])
        return ok


class PropagatorCoefficients:
    """Per-block factorization T_m(t) = R_m e^{Lambda_m t} L_m of the propagator.

    Column k of R_m and row k of L_m are the right and left eigenvectors of
    mode (m, k); at kappa2 > 0, (R_m e^{Lambda_m t} L_m)[k, q] is
    sqrt(C(q+|m|, k+|m|) C(q, k)) G_{q-k,k}^(m)(t) term by term.  The
    factors of every block live in one zero-padded stack, row m + n_max for
    block m in the layout of :func:`~kerrloss.fockbasis.block_layout`:
    Lambda (2 n_max + 1, n_max + 1), the :func:`_eigenvalue_table`, and R and
    L (2 n_max + 1, n_max + 1, n_max + 1), whose blocks m and -m are built
    together on first use, so memory
    depends on n_max only, not on the number of times asked for.  Each
    :meth:`factors`, :meth:`stack` or :meth:`apply` call that builds gates
    exactly its new blocks, in one :func:`check_biorthogonality` per run of
    consecutive |m| over their rows of the stack, in chunks of at most
    GATE_CHUNK_BYTES of temporaries.

    :meth:`apply` propagates the rows of a gathered block stack and builds
    only the blocks they read: at kappa2 > 0 it applies
    L_m, e^{Lambda_m t} and R_m in turn and never forms T_m(t).  At
    kappa2 = 0 it uses the exact damped-Kerr solution in product form
    (:meth:`product_form`; Milburn & Holmes, PRL 56, 2237 (1986)), which
    needs no eigenvectors: the entries of R_m and L_m grow at binomial size
    and their product cancels, while every term of the product form is a
    binomial-thinning weight.
    """

    def __init__(self, params: ModelParams, trunc: Truncation):
        self.params = params
        self.truncation = trunc
        self._lam = _eigenvalue_table(params, trunc)
        self._R, self._L = (np.zeros(self._lam.shape + (trunc.dim,), dtype=complex) for _ in "RL")
        self._built = [False] * trunc.dim
        #: :func:`~kerrloss.fockbasis.block_layout` of the truncation
        self.layout = block_layout(trunc)

    @cached_property
    def builder(self) -> EigenvectorBuilder:
        """The builder of this coefficient set's factors; its
        :attr:`~EigenvectorBuilder.fallback_modes` counts the modes that took
        the exact path."""
        return EigenvectorBuilder(self.params, self.truncation)

    def _build(self, ams: Sequence[int]) -> None:
        """Build the blocks |m| in ``ams`` that are not built yet, mirror each
        as block -m, then gate exactly those blocks in
        :func:`check_biorthogonality`, one call per run of consecutive |m|:
        a run is a slice, so the gate reads the stack in place."""
        missing = sorted({am for am in ams if not self._built[am]})
        if not missing:
            return
        ams = np.array(missing)
        n = self.truncation.n_max
        self.builder.fill_blocks(ams, self._R[n:], self._L[n:])  # row n + m holds block m
        for run in np.split(ams, np.flatnonzero(np.diff(ams) > 1) + 1):
            lo, hi = int(run[0]), int(run[-1])
            one = max(lo, 1)
            # block -m is the conjugate, written on its rows k <= K(m) only, so the
            # padding rows stay untouched; + 0.0 keeps -0 out of it
            kept = (np.arange(n + 1) <= n - np.arange(one, hi + 1)[:, None])[..., None]
            for F in (self._R, self._L):
                mirror = F[n - hi : n - one + 1][::-1]
                np.conjugate(F[n + one : n + hi + 1], out=mirror, where=kept)
                np.add(mirror, 0.0, out=mirror, where=kept)
            sizes = [self.truncation.block_size(am) for am in run]
            check_biorthogonality(self._R[n + lo : n + hi + 1], self._L[n + lo : n + hi + 1], sizes, run)
        for am in ams.tolist():
            self._built[am] = True

    def factors(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda, R, L) of block m, views into the stack."""
        size = self.truncation.block_size(m)
        if not self._built[abs(m)]:
            self._build([abs(m)])
        i = m + self.truncation.n_max
        return self._lam[i, :size], self._R[i, :size, :size], self._L[i, :size, :size]

    def stack(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Lambda, R, L) of every block, padded, after building what is missing."""
        self._build(range(self.truncation.dim))
        return self._lam, self._R, self._L

    @cached_property
    def _damped_kerr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Time-independent pieces of the kappa2 = 0 product form on the
        blocks m >= 0, row k and column q of each: (lambda, gamma, B, j) with
        lambda[m, k] the eigenvalues (rows m >= 0 of the table), gamma_m =
        kappa1 + i U m, the powers j = max(q - k, 0) of x_m, and
        B[m, k, q] = sqrt(C(q+m, j) C(q, j)) for k <= q <= K(m), zero elsewhere."""
        n = self.truncation.n_max
        m, k, q = np.arange(n + 1)[:, None, None], np.arange(n + 1)[:, None], np.arange(n + 1)
        root = np.sqrt([[float(math.comb(a, i)) for i in range(n + 1)] for a in range(2 * n + 1)])
        j = np.maximum(q - k, 0)
        B = np.where((k <= q) & (q <= n - m), root[q + m, j] * root[q, j], 0.0)
        gamma = self.params.kappa1 + 1j * self.params.U * m[:, 0, 0]
        return self._lam[n:], gamma, B, j

    def product_form(self, t: float, blocks: slice | np.ndarray) -> np.ndarray:
        """T_m(t) at kappa2 = 0, coeffs_k(t) = sum_q T_m[k, q] coeffs_q(0), of
        the blocks m >= 0 in ``blocks`` (a slice or an index array): rows of a
        zero-padded (n_max + 1)^3 stack, each evaluated on its own, so any
        selection has the bits of the whole stack.  The level (k+m, k)
        decays at mu = -lambda_k^(m) and each jump into it from one level up
        adds gamma_m = kappa1 + i U m, so
        T_m(t) = diag(e^{lambda t}) (B_m * x_m^(q-k)) with
        x_m(t) = kappa1 (1 - e^{-gamma_m t}) / gamma_m (kappa1 t at gamma_m = 0).
        """
        lam, gamma, B, j = self._damped_kerr
        lam, gamma, B = lam[blocks], gamma[blocks], B[blocks]
        kappa1 = self.params.kappa1
        # gamma_m vanishes only at kappa1 = 0, where x_m = kappa1 t = 0
        x = -kappa1 * np.expm1(-gamma * t) / gamma if kappa1 else np.zeros_like(gamma)
        powers = x[:, None] ** np.arange(self.truncation.dim)
        return np.exp(lam * t)[:, :, None] * B * powers[:, j]

    def apply(self, v: np.ndarray, t: float, transpose: bool = False,
              rows: np.ndarray | None = None) -> np.ndarray:
        """T_m(t) v_m on every row of the gathered block stack ``v``: its
        rows ``rows`` of the (2 n_max + 1, n_max + 1) stack (row m + n_max for
        block m), all of them by default; with ``transpose``, T_{-m}(t)^T v_m,
        the Heisenberg picture.  Only the blocks these rows read are built.

        At kappa2 > 0 the factors act in turn, R_m (e^{Lambda_m t} (L_m v_m)):
        two batched matrix-vector products, O(n_max^3), and T is never
        formed.  Transposed, row m reads block -m transposed,
        L_{-m}^T (e^{Lambda_{-m} t} (R_{-m}^T v_m)).  At kappa2 = 0 the
        :meth:`product_form` of every block |m| read is applied, block -m
        its conjugate.  Without ``rows`` every row of the stack is read as a
        view, with them a copy of those rows.
        """
        n = self.truncation.n_max
        if rows is None:  # every row, read as a view
            read, ams = (np.s_[::-1] if transpose else np.s_[:]), range(n + 1)
        else:  # blocks m and -m share |m|
            read, ams = (2 * n - rows if transpose else rows), np.abs(rows - n).tolist()
        if self.params.kappa2 > 0:
            self._build(ams)
            lam, R, L = self._lam[read], self._R[read], self._L[read]
            if transpose:
                R, L = L.swapaxes(1, 2), R.swapaxes(1, 2)
            w = np.exp(lam * t) * (L @ v[..., None])[..., 0]
            return (R @ w[..., None])[..., 0]
        m = np.arange(-n, n + 1)[read]  # the block each row reads
        ams, which = np.unique(np.abs(m), return_inverse=True)
        T = self.product_form(t, ams)[which]
        np.conjugate(T, out=T, where=(m < 0)[:, None, None])  # T_{-m}(t) is the conjugate of T_m(t)
        if transpose:
            T = T.swapaxes(1, 2)
        return (T @ v[..., None])[..., 0]


def F_matrix(params: ModelParams, trunc: Truncation, m: int, direction: str) -> np.ndarray:
    """Block matrix of the hypergeometric map F (forward) or its inverse.

    Forward places the rising-factorial diagonal coefficients to the left of
    the A powers, the inverse to the right; A and the x-diagonal do not
    commute, so the order matters.
    """
    if classify(params) not in (CaseTag.GENERIC_RATIO,):
        raise ValueError("F and its inverse require the generic-ratio case")
    size = trunc.block_size(m)
    x = np.array([x_parameter(params, m, k) for k in range(size)])
    eta = params.kappa1 / params.kappa2
    A = block_A_matrix(trunc, m)
    out = np.eye(size, dtype=complex)
    Apow = np.eye(size, dtype=complex)
    diag = np.ones(size, dtype=complex)
    for j in range(1, size):
        if direction == "forward":
            num, den = x + (j - 1), 2 * x + eta + (j - 1)
            z = -2.0
        elif direction == "inverse":
            num, den = 1 - x + (j - 1), 2 - (2 * x + eta) + (j - 1)
            z = 2.0
        else:
            raise ValueError("direction must be 'forward' or 'inverse'")
        if np.any(np.abs(den) < DENOMINATOR_FLOOR):
            raise VanishingDenominatorError(
                f"F {direction} denominator vanished at order {j} in block m={m}"
            )
        diag = diag * num / den
        Apow = Apow @ (z * A) / j
        if direction == "forward":
            out += diag[:, None] * Apow
        else:
            out += Apow * diag[None, :]
    return out


@dataclass
class SpectralDecomposition:
    """Per-block eigenvalues, with right/left eigenvector matrices from
    :func:`decompose` (none from :func:`spectrum`).

    Column k of ``R[m]`` holds the right eigenvector in phi coordinates;
    row k of ``Lmat[m]`` the left one.
    """

    params: ModelParams
    truncation: Truncation
    case: CaseTag
    eigenvalues: dict[int, np.ndarray]
    R: dict[int, BlockMatrix] = field(default_factory=dict)
    Lmat: dict[int, BlockMatrix] = field(default_factory=dict)
    degenerate_modes: tuple = ()


def _degeneracy_scan(params: ModelParams, lams: np.ndarray, case: CaseTag) -> tuple:
    """Exhaustive eigenvalue-collision scan of the :func:`_eigenvalue_table`
    ``lams``; must match the analytic criterion.

    A gap is a collision below INTEGER_RATIO_TOL in units of the loss rate
    kappa2 (kappa1 at kappa2 = 0).  In block 0 |lambda_0 - lambda_1| is
    kappa1 exactly, so that pair applies the ratio test of :func:`classify`
    to the same float; every other gap is at least one unit.  The blocks are
    scanned in chunks of at most GATE_CHUNK_BYTES of temporaries.
    """
    rate, n = params.kappa2 or params.kappa1, lams.shape[1] - 1
    k, q = np.triu_indices(n + 1, 1)  # every pair k < q, in loop order
    step, found = max(1, GATE_CHUNK_BYTES // (64 * len(k))), []  # at most 64 bytes a pair
    for lo in range(0, len(lams), step):  # row lo + i is block lo + i - n
        gaps = lams[lo : lo + step]
        m = np.arange(lo, lo + len(gaps))[:, None] - n
        hit = (np.abs(gaps[:, k] - gaps[:, q]) / rate < INTEGER_RATIO_TOL) & (q < n + 1 - np.abs(m))
        found += [(int(m[i, 0]), int(k[j]), int(q[j])) for i, j in zip(*np.nonzero(hit))]
    expected = [(0, 0, 1)] if case == CaseTag.ZERO_KAPPA1 else []
    if found != expected:
        raise InternalConsistencyError(
            f"degeneracy scan found {found}, expected {expected} for case {case}"
        )
    return tuple(found)


def spectrum(params: ModelParams, trunc: Truncation) -> SpectralDecomposition:
    """Case, degeneracy scan and eigenvalues of every block, read from one
    :func:`_eigenvalue_table`; no eigenvector is built or gated."""
    case, lams = classify(params), _eigenvalue_table(params, trunc)
    scan = () if case == CaseTag.HAMILTONIAN_ONLY else _degeneracy_scan(params, lams, case)
    eigenvalues = {m: lams[m + trunc.n_max, : trunc.block_size(m)] for m in trunc.blocks()}
    return SpectralDecomposition(params, trunc, case, eigenvalues, degenerate_modes=scan)


def decompose(params: ModelParams, trunc: Truncation) -> SpectralDecomposition:
    """:func:`spectrum` plus the eigenvectors of every block: copies of the
    factors of one fully built :class:`PropagatorCoefficients` stack, not
    views, so the padded stack is freed on return."""
    decomp = spectrum(params, trunc)
    coeffs = PropagatorCoefficients(params, trunc)
    coeffs.stack()
    for m in trunc.blocks():
        decomp.R[m], decomp.Lmat[m] = (BlockMatrix(m, F.copy()) for F in coeffs.factors(m)[1:])
    return decomp


def spectrum_csv(decomp: SpectralDecomposition) -> str:
    trunc = decomp.truncation
    lam = np.concatenate([decomp.eigenvalues[m] for m in trunc.blocks()])
    m, k = np.array([(b, k) for b in trunc.blocks() for k in range(trunc.block_size(b))]).T
    return csv_table("m,k,re_lambda,im_lambda", m, k, lam.real, lam.imag)


def eigenvectors_csv(decomp: SpectralDecomposition) -> str:
    """The nonzero entries of block m, mode k, right then left vector,
    component p, formatted block by block."""
    sides = np.array(["right", "left"], dtype=object)  # one str per label, not per row

    def block(m: int) -> tuple:
        V = np.stack((decomp.R[m].entries.T, decomp.Lmat[m].entries), axis=1)  # (k, side, p)
        k, side, p = np.nonzero(V)  # -0 - 0j is a zero entry too
        z = V[k, side, p]
        return np.full(len(k), m), k, p, z.real, z.imag, sides[side]

    return csv_groups("m,k,p,re,im,side", map(block, decomp.truncation.blocks()))
