"""Euler and Rogers dilogarithms and the pentagon five-term identity."""
from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class FiveCycle:
    """The b-cycle in (0,1) and its companion a-cycle a_n = b_n/(1-b_n).

    Cyclic laws: b_{n-1} b_{n+1} = 1 - b_n and a_{n-2} a_{n+2} = 1 + a_n.
    The a-law is the pentagon side-cycle law under the identity relabelling,
    since -2 == +3 (mod 5).
    """

    b: tuple[float, ...]
    a: tuple[float, ...]

    def b_residuals(self) -> tuple[float, ...]:
        return tuple(self.b[(n - 1) % 5] * self.b[(n + 1) % 5] - (1.0 - self.b[n])
                     for n in range(5))

    def a_residuals(self) -> tuple[float, ...]:
        return tuple(self.a[(n - 2) % 5] * self.a[(n + 2) % 5] - (1.0 + self.a[n])
                     for n in range(5))


def five_cycle(x: float, y: float) -> FiveCycle:
    """The cycle (x, 1-xy, y, (1-y)/(1-xy), (1-x)/(1-xy)) and its a-companion."""
    for v in (x, y):
        if not 0.0 < v < 1.0:
            raise DomainError(f"five_cycle argument {v!r} outside (0, 1)")
    xy = x * y
    b = (x, 1.0 - xy, y, (1.0 - y) / (1.0 - xy), (1.0 - x) / (1.0 - xy))
    a = tuple(bn / (1.0 - bn) for bn in b)
    return FiveCycle(b=b, a=a)


def pentagon_five_term(betas) -> float:
    """sum L(beta_j) - pi^2/2 over five chord quantities in (0, 1)."""
    betas = tuple(betas)
    if len(betas) != 5:
        raise DomainError("expected exactly five beta values")
    for v in betas:
        if not 0.0 < v < 1.0:
            raise DomainError(f"beta value {v!r} outside (0, 1)")
    return sum(rogers_L(v) for v in betas) - math.pi ** 2 / 2.0
