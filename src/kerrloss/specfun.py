"""Scalar special functions used by the closed-form spectral expressions.

Everything here is finite-degree arithmetic: terminating hypergeometric
sums, double factorials and log factorials.
"""

from __future__ import annotations

import math

__all__ = [
    "hyp2f1_terminating",
    "double_factorial",
    "log_factorial",
]

#: denominators smaller than this are treated as a misclassified parameter
#: case rather than evaluated to a huge number
DENOMINATOR_FLOOR = 1e-9


class VanishingDenominatorError(ArithmeticError):
    """A rising-factorial denominator vanished.

    This happens exactly when a hypergeometric closed form is evaluated
    outside its parameter case (e.g. the generic-ratio inverse at an
    integer loss-rate ratio).
    """


def hyp2f1_terminating(n: int, b: complex, c: complex, z: complex) -> complex:
    """2F1(-n, b; c; z) as the exact (n+1)-term sum.

    Terms are accumulated with running products; a zero numerator factor
    terminates the sum before the matching denominator factor can vanish.
    """
    if n < 0:
        raise ValueError("terminating 2F1 needs n >= 0")
    total = complex(1.0)
    term = complex(1.0)
    for q in range(n):
        num = (-n + q) * (b + q)
        if num == 0:
            break
        den = c + q
        if abs(den) < DENOMINATOR_FLOOR:
            raise VanishingDenominatorError(
                f"(c)_q vanishes at q={q + 1} for c={c}: parameter case misclassified"
            )
        term *= num * z / (den * (q + 1))
        total += term
    return total


def double_factorial(n: int) -> float:
    """n!! with the conventions 0!! = (-1)!! = 1."""
    if n < -1:
        raise ValueError("double factorial defined for n >= -1")
    out = 1.0
    k = n
    while k > 1:
        out *= k
        k -= 2
    return out


def log_factorial(n: int) -> float:
    """ln(n!) via lgamma."""
    return math.lgamma(n + 1)

