"""Exact spectral treatment of a lossy Kerr mode.

Single bosonic mode with Kerr nonlinearity, one-body loss kappa1 D[a] and
two-body loss kappa2 D[a^2]: closed-form Liouvillian eigensystem per
coherence block, exact propagators, brute-force oracles, and integrated
noise statistics of the mode used as a pseudomode environment.
"""

from .fockbasis import FockState, Truncation, to_blocks
from .spectral import CaseTag, SpectralDecomposition, classify, decompose, eigenvalue
from .superops import BlockMatrix, ModelParams, full_generator, liouvillian_block

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix",
    "CaseTag",
    "FockState",
    "ModelParams",
    "SpectralDecomposition",
    "Truncation",
    "classify",
    "decompose",
    "eigenvalue",
    "full_generator",
    "liouvillian_block",
    "to_blocks",
    "__version__",
]
