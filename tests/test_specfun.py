import math

import pytest
from scipy import special

from kerrloss.specfun import (
    VanishingDenominatorError,
    double_factorial,
    hyp2f1_terminating,
    log_factorial,
)


def test_hyp2f1_terminating_small_cases():
    # 2F1(-1, b; c; z) = 1 - b z / c
    b, c, z = 0.7 - 0.1j, 2.3, 2.0
    assert hyp2f1_terminating(1, b, c, z) == pytest.approx(1 - b * z / c)
    # against scipy for real parameters
    assert hyp2f1_terminating(3, 0.4, 1.9, 2.0) == pytest.approx(
        special.hyp2f1(-3, 0.4, 1.9, 2.0)
    )


def test_hyp2f1_terminating_zero_numerator_first():
    # b = -1 zeroes the running numerator at q = 1; c = -2 would vanish at
    # q = 2 but must never be reached
    val = hyp2f1_terminating(3, -1.0, -2.0, 2.0)
    assert val == pytest.approx(1 + (-3) * (-1) * 2.0 / (-2.0))


def test_hyp2f1_terminating_raises_on_needed_zero_denominator():
    # c = -1 vanishes at q = 1 while the numerator is still non-zero
    with pytest.raises(VanishingDenominatorError):
        hyp2f1_terminating(3, 0.5, -1.0, 2.0)


def test_hyp2f1_known_vanishing():
    # 2F1(-n, b; 2b; 2) = 0 for odd n
    for b in (0.75, 1.5, 2.25 + 0.3j):
        for n in (1, 3, 5):
            assert abs(hyp2f1_terminating(n, b, 2 * b, 2.0)) < 1e-13


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(5) == 15
    assert double_factorial(6) == 48
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_log_factorial():
    assert log_factorial(5) == pytest.approx(math.log(120))
