"""Euler and Rogers dilogarithms and the pentagon five-term identity."""
from __future__ import annotations

import math

from .errors import DomainError

PI2_6 = math.pi ** 2 / 6.0


def _li2_series(x: float) -> float:
    # geometric decay for x <= 1/2: ~50 terms reach 1e-18 relative to the
    # leading term x, so tiny x keeps its digits instead of summing to 0
    total = 0.0
    term = x
    n = 1
    cut = 1e-18 * x
    while term / (n * n) > cut:
        total += term / (n * n)
        term *= x
        n += 1
    return total


def li2(x: float) -> float:
    """Euler dilogarithm on [0, 1], relative accuracy ~1e-15 down to the tiniest x.

    Direct series below 1/2, reflection through pi^2/6 - ln x ln(1-x) above
    (the series converges too slowly near 1).
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"li2 argument {x!r} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return PI2_6
    if x > 0.5:
        return PI2_6 - math.log(x) * math.log1p(-x) - _li2_series(1.0 - x)
    return _li2_series(x)


def rogers_L(x: float) -> float:
    """Rogers dilogarithm Li2(x) + (1/2) ln x ln(1-x), with L(0)=0, L(1)=pi^2/6."""
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return PI2_6
    return li2(x) + 0.5 * math.log(x) * math.log1p(-x)


def spence_residual(x: float, y: float) -> float:
    """Five-term combination L(x)+L(y)-L(xy)-L(x(1-y)/(1-xy))-L(y(1-x)/(1-xy))."""
    for v in (x, y):
        if not 0.0 < v < 1.0:
            raise DomainError(f"spence argument {v!r} outside (0, 1)")
    xy = x * y
    return (rogers_L(x) + rogers_L(y) - rogers_L(xy)
            - rogers_L(x * (1.0 - y) / (1.0 - xy))
            - rogers_L(y * (1.0 - x) / (1.0 - xy)))


def pentagon_five_term(betas) -> float:
    """sum L(beta_j) - pi^2/2 over five chord quantities in (0, 1)."""
    betas = tuple(betas)
    if len(betas) != 5:
        raise DomainError("expected exactly five beta values")
    for v in betas:
        if not 0.0 < v < 1.0:
            raise DomainError(f"beta value {v!r} outside (0, 1)")
    return sum(rogers_L(v) for v in betas) - math.pi ** 2 / 2.0
