"""Chord polygons between two nested circles and their elliptic shadow.

Vertices on the outer circle sit at doubled angles 2*phi_i; each chord is
tangent to the inner circle, which ties consecutive half-angles by
(R+a) cos cos + (R-a) sin sin = r.  Substituting phi_i = am(u0 + i t) turns
the iteration into a straight walk in the elliptic argument, and the walk
returns to its start after n chords and m turns exactly when
F(alpha, k) = (m/n) F(pi, k).  A full turn of the polygon advances every
half-angle by pi, which is where the factor two between the two bookkeeping
conventions goes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .elliptic_kernel import incomplete_F
from .errors import (DomainError, GeometryError, InvariantError, NoSolutionError,
                     NoTangentError)


@dataclass(frozen=True)
class TwoCircleConfig:
    """Outer radius R, inner radius r, centre distance a."""

    R: float
    r: float
    a: float


@dataclass(frozen=True)
class PonceletTrajectory:
    """Unwrapped half-angles along a chord walk."""

    phis: np.ndarray
    config: TwoCircleConfig


def _check_nesting(c: TwoCircleConfig) -> None:
    if c.R <= 0.0:
        raise GeometryError("outer radius must be positive")
    if c.r <= 0.0:
        raise GeometryError("inner radius must be positive")
    if c.a < 0.0:
        raise GeometryError("centre distance must be nonnegative")
    if c.a + c.r >= c.R:
        raise GeometryError(
            f"inner circle not strictly nested: a + r = {c.a + c.r!r} >= R = {c.R!r}")
    if c.a >= c.r:
        raise GeometryError(
            f"outer centre must lie inside the inner circle: a = {c.a!r} >= r = {c.r!r}")


def validate_config(c: TwoCircleConfig) -> TwoCircleConfig:
    """Check nesting constraints; return the configuration rescaled to R = 1."""
    _check_nesting(c)
    return TwoCircleConfig(R=1.0, r=c.r / c.R, a=c.a / c.R)


def modulus_of_config(c: TwoCircleConfig) -> tuple[float, float]:
    """Elliptic modulus and chord amplitude: k^2 = 4Ra/((R+a)^2 - r^2), cos(alpha) = r/(R+a)."""
    _check_nesting(c)
    R, r, a = c.R, c.r, c.a
    k2 = 4.0 * R * a / ((R + a) ** 2 - r ** 2)
    if k2 >= 1.0:
        raise DomainError("modulus reached 1; circles are not strictly nested")
    k = math.sqrt(k2)
    alpha = math.acos(r / (R + a))
    lhs = math.sqrt(1.0 - k2 * math.sin(alpha) ** 2)
    rhs = (R - a) / (R + a)
    if abs(lhs - rhs) > 1e-12:
        raise InvariantError(f"modulus consistency broke: {lhs!r} vs {rhs!r}")
    return k, alpha


def modulus_residual(c: TwoCircleConfig, k: float, alpha: float) -> float:
    """Worse of |sqrt(1 - k^2 sin^2 alpha) - (R-a)/(R+a)| and |cos(alpha) - r/(R+a)|.

    modulus_of_config asserts only the first; a miss in the second is left to the checks.
    """
    R, r, a = c.R, c.r, c.a
    return max(abs(math.sqrt(1.0 - (k * math.sin(alpha)) ** 2) - (R - a) / (R + a)),
               abs(math.cos(alpha) - r / (R + a)))


def chord_step(c: TwoCircleConfig, phi: float, prev: float | None = None) -> float:
    """Next half-angle along the forward tangent chord.

    The tangency condition is linear in (cos, sin) of the next angle, so two
    chords leave each vertex; the forward one advances the unwrapped angle
    by an offset in (0, pi).  With the previous vertex supplied, the
    three-term recursion tan((next+prev)/2) = (R-a)/(R+a) tan(phi) is
    asserted in cross-multiplied form (the tan form has poles on any long
    trajectory).
    """
    _check_nesting(c)
    R, r, a = c.R, c.r, c.a
    A = (R + a) * math.cos(phi)
    B = (R - a) * math.sin(phi)
    amp = math.hypot(A, B)
    if amp < r:
        raise NoTangentError("no real chord: configuration outside validity")
    psi = math.atan2(B, A)
    delta = math.acos(r / amp)
    base = math.atan2(math.sin(psi - phi), math.cos(psi - phi))
    offsets = []
    for cand in (base + delta, base - delta):
        reduced = math.atan2(math.sin(cand), math.cos(cand))
        if 0.0 < reduced < math.pi:
            offsets.append(reduced)
    if len(offsets) != 1:
        raise NoTangentError(f"forward branch ambiguous at phi={phi!r}")
    nxt = phi + offsets[0]
    if prev is not None:
        half = 0.5 * (nxt + prev)
        rho = (R - a) / (R + a)
        res = math.sin(half) * math.cos(phi) - rho * math.cos(half) * math.sin(phi)
        if abs(res) > 1e-10:
            raise InvariantError(f"chord recursion residual {res:.3e}")
    return nxt


def trajectory(c: TwoCircleConfig, phi0: float, n: int) -> PonceletTrajectory:
    """n chord steps from phi0; angles are cumulative (never reduced mod 2pi)."""
    if n < 1:
        raise DomainError("need at least one chord step")
    phis = [float(phi0)]
    prev = None
    for _ in range(n):
        nxt = chord_step(c, phis[-1], prev)
        prev = phis[-1]
        phis.append(nxt)
    return PonceletTrajectory(phis=np.array(phis), config=c)


def porism_residual(c: TwoCircleConfig, n: int, m: int, starts) -> float:
    """Worst miss of n chords from each start angle against m full turns (m pi)."""
    return max(abs(trajectory(c, float(p0), n).phis[-1] - p0 - m * math.pi)
               for p0 in starts)


def _check_walk(n: int, m: int) -> None:
    if n < 3 or not 1 <= m < n:
        raise DomainError(f"need n >= 3 chords and 1 <= m < n turns, got {(n, m)}")


def closure_residual(c: TwoCircleConfig, n: int, m: int) -> float:
    """F(alpha, k) - (m/n) F(pi, k); zero exactly when the walk closes."""
    _check_walk(n, m)
    k, alpha = modulus_of_config(c)
    return incomplete_F(alpha, k) - (m / n) * incomplete_F(math.pi, k)


def search_closing_config(n: int, m: int, R: float, r: float) -> TwoCircleConfig:
    """Centre distance making the (n, m) walk close, by bracketed root search.

    The bracket [0, min(r, R-r)) keeps every probed configuration valid.
    Raises NoSolutionError when the closure residual does not change sign
    there — for star polygons that happens whenever the inner circle is too
    large (e.g. a 5/2 star needs r below about 0.31 R).  A walk with
    2m >= n is refused before any evaluation: cos(alpha) = r/(R+a) > 0 puts
    alpha below pi/2, so the forward rotation number F(alpha)/2K stays
    below 1/2.
    """
    if R <= 0.0 or r <= 0.0:
        raise GeometryError("radii must be positive")
    _check_walk(n, m)
    if 2 * m >= n:
        raise NoSolutionError(
            f"(n={n}, m={m}) needs rotation number m/n >= 1/2, but the forward "
            f"walk's rotation number F(alpha)/2K is below 1/2 for every nested "
            f"pair of circles; ({n}, {n - m}) is the same polygon walked backwards")
    upper = min(r, R - r) - 1e-9 * R
    if upper <= 0.0:
        raise NoSolutionError("no admissible centre-distance bracket")

    def res(a: float) -> float:
        return closure_residual(TwoCircleConfig(R=R, r=r, a=a), n, m)

    lo = res(0.0)
    if lo == 0.0:
        return TwoCircleConfig(R=R, r=r, a=0.0)
    hi = res(upper)
    if math.copysign(1.0, lo) == math.copysign(1.0, hi):
        raise NoSolutionError(
            f"closure residual keeps sign {lo:+.3e} .. {hi:+.3e} for "
            f"(n={n}, m={m}, R={R}, r={r}): no closing configuration")
    a = brentq(res, 0.0, upper, xtol=1e-15, rtol=8.9e-16)
    return TwoCircleConfig(R=R, r=r, a=a)
