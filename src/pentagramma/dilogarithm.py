"""Euler and Rogers dilogarithms and the pentagon five-term identity."""
from __future__ import annotations

import math

from .errors import DomainError

PI2_6 = math.pi ** 2 / 6.0
PI2_2 = math.pi ** 2 / 2.0  # the five-term sum's constant

# B_2k / (2k+1)! for k = 1..10, Bernoulli numbers B_2 = 1/6, B_4 = -1/30, ...
# Each int/int literal is one correctly rounded division.  The next term,
# B_22/23! z^23, is below 1e-22 for z <= ln 2.
_BERNOULLI_COEFFS = (
    1 / 36,
    -1 / 3600,
    1 / 211680,
    -1 / 10886400,
    1 / 526901760,
    -691 / 16999766784000,
    1 / 1120863744000,
    -3617 / 181400588328960000,
    43867 / 97072790126247936000,
    -174611 / 16860010916664115200000,
)


def _li2_and_log_product(x: float) -> tuple[float, float]:
    """Li2(x) and ln x ln(1-x) for x in [0, 1], both from one log pair.

    Li2(x) = sum_n B_n z^(n+1)/(n+1)! with z = -ln(1-x) ('t Hooft and
    Veltman 1979): z - z^2/4 + z^3 P(z^2), whose terms fall like
    (z/2pi)^2n.  Every term carries a factor z, so tiny x keeps its digits.
    The series runs on z = -ln(1-x) up to 1/2 and, reflected through
    Li2(x) = pi^2/6 - ln x ln(1-x) - Li2(1-x), on z = -ln x above it, so
    z never exceeds ln 2.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"li2 argument {x!r} outside [0, 1]")
    if x == 0.0:
        return 0.0, 0.0
    if x == 1.0:
        return PI2_6, 0.0
    log_x, log_1mx = math.log(x), math.log1p(-x)
    product = log_x * log_1mx
    z = -log_x if x > 0.5 else -log_1mx
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _BERNOULLI_COEFFS
    w = z * z
    series = z - 0.25 * w + z * w * (c1 + w * (c2 + w * (c3 + w * (c4 + w * (
        c5 + w * (c6 + w * (c7 + w * (c8 + w * (c9 + w * c10)))))))))
    if x > 0.5:
        return PI2_6 - product - series, product
    return series, product


def li2(x: float) -> float:
    """Euler dilogarithm on [0, 1], within 1e-15 relative down to the tiniest x."""
    return _li2_and_log_product(float(x))[0]


def rogers_L(x: float) -> float:
    """Rogers dilogarithm Li2(x) + (1/2) ln x ln(1-x), with L(0)=0, L(1)=pi^2/6."""
    value, product = _li2_and_log_product(float(x))
    return value + 0.5 * product


def spence_residual(x: float, y: float) -> float:
    """Five-term combination L(x)+L(y)-L(xy)-L(x(1-y)/(1-xy))-L(y(1-x)/(1-xy))."""
    x, y = float(x), float(y)
    for v in (x, y):
        if not 0.0 < v < 1.0:
            raise DomainError(f"spence argument {v!r} outside (0, 1)")
    xy = x * y
    # L(v) = Li2(v) + 0.5 ln v ln(1-v), each bracketed as rogers_L forms it, so the
    # sum is bit for bit the five rogers_L calls
    lx, px = _li2_and_log_product(x)
    ly, py = _li2_and_log_product(y)
    lxy, pxy = _li2_and_log_product(xy)
    l1, p1 = _li2_and_log_product(x * (1.0 - y) / (1.0 - xy))
    l2, p2 = _li2_and_log_product(y * (1.0 - x) / (1.0 - xy))
    return ((lx + 0.5 * px) + (ly + 0.5 * py) - (lxy + 0.5 * pxy)
            - (l1 + 0.5 * p1) - (l2 + 0.5 * p2))


def pentagon_five_term(betas) -> float:
    """sum L(beta_j) - pi^2/2 over five chord quantities in (0, 1)."""
    betas = tuple(betas)
    if len(betas) != 5:
        raise DomainError("expected exactly five beta values")
    total = 0.0
    for v in betas:
        if not 0.0 < v < 1.0:
            raise DomainError(f"beta value {v!r} outside (0, 1)")
        value, product = _li2_and_log_product(float(v))
        total += value + 0.5 * product
    return total - PI2_2
