"""Chord polygons between two nested circles and their elliptic shadow.

Vertices on the outer circle sit at doubled angles 2*phi_i; each chord is
tangent to the inner circle, which ties consecutive half-angles by
(R+a) cos cos + (R-a) sin sin = r.  Substituting phi_i = am(u0 + i t) turns
the iteration into a straight walk in the elliptic argument, and the walk
returns to its start after n chords and m turns exactly when
F(alpha, k) = (m/n) 2K(k).  A full turn of the polygon advances every
half-angle by pi, an elliptic argument F(pi, k) = 2K, which is where the
factor two between the two bookkeeping conventions goes.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .elliptic_kernel import MAX_MODULUS, complete_K, incomplete_F
from .errors import (DomainError, GeometryError, InvariantError, NoSolutionError,
                     NoTangentError)

if TYPE_CHECKING:  # numpy is imported where the walk is built, not with the module
    import numpy as np

# the chord step's libm calls, looked up once here rather than on math per call
_sin, _cos, _hypot, _atan2, _acos = math.sin, math.cos, math.hypot, math.atan2, math.acos


@dataclass(frozen=True)
class TwoCircleConfig:
    """Outer radius R, inner radius r, centre distance a, checked when made.

    R is finite and positive, r > 0, a >= 0 and a + r < R: the circles are strictly nested.
    GeometryError names a broken bound.
    Once checked it holds s = a/R and t = r/R, the only ratios the formulas read, and
    from them the modulus k^2 = 4Ra/((R+a)^2 - r^2), amplitude cos(alpha) = r/(R+a) and
    the chord recursion's ratio rho = (1-s)/(1+s).
    k above the kernel's MAX_MODULUS (a + r too near R) is a DomainError naming k and a + r.
    """

    R: float
    r: float
    a: float
    s: float = field(init=False, repr=False, compare=False)
    t: float = field(init=False, repr=False, compare=False)
    k: float = field(init=False, repr=False, compare=False)
    alpha: float = field(init=False, repr=False, compare=False)
    rho: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R, r, a = self.R, self.r, self.a
        if not 0.0 < R < math.inf:
            raise GeometryError(f"outer radius R={R!r} must be finite and positive")
        if not r > 0.0:
            raise GeometryError(f"inner radius r={r!r} must be positive")
        if not a >= 0.0:
            raise GeometryError(f"centre distance a={a!r} must be nonnegative")
        if a + r >= R:
            raise GeometryError(
                f"inner circle not strictly nested: a + r = {a + r!r} >= R = {R!r}")
        s, t = a / R, r / R
        k = math.sqrt(4.0 * s / ((1.0 + s) ** 2 - t ** 2))
        if not k <= MAX_MODULUS:
            raise DomainError(f"modulus k={k!r} exceeds MAX_MODULUS = {MAX_MODULUS!r}: a + r = "
                              f"{a + r!r} is too close to R = {R!r} (tangency) for the kernel")
        alpha = math.acos(t / (1.0 + s))
        rho = (1.0 - s) / (1.0 + s)
        # both closed forms of the complement: k^2 sin^2 alpha + rho^2 = 1, cos alpha = t/(1+s)
        residual = max(abs((k * math.sin(alpha)) ** 2 + rho ** 2 - 1.0),
                       abs(math.cos(alpha) - t / (1.0 + s)))
        if residual > 1e-12:
            raise InvariantError(f"modulus consistency broke: residual {residual!r} > 1e-12")
        for name, value in (("s", s), ("t", t), ("k", k), ("alpha", alpha), ("rho", rho)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PonceletTrajectory:
    """Unwrapped half-angles along a chord walk."""

    phis: np.ndarray  # float64, one angle per vertex
    config: TwoCircleConfig


def modulus_of_config(c: TwoCircleConfig) -> tuple[float, float]:
    """Elliptic modulus k and chord amplitude alpha, held by the config since it was made."""
    return c.k, c.alpha


def chord_step(c: TwoCircleConfig, phi: float, prev: float | None = None) -> float:
    """Next half-angle along the forward tangent chord.

    The tangency condition (R+a) cos q cos phi + (R-a) sin q sin phi = r is linear in
    (cos q, sin q), so two chords leave each vertex, offset psi - phi +- acos(t/amp) from
    phi, where amp e^{i psi} = (1+s) cos phi + i (1-s) sin phi in units of R.  Turned back
    by phi that is 1 + s e^{-2i phi}, on the circle of radius s < 1 about 1, so
    |psi - phi| <= asin(s) < pi/2 unreduced; with acos in [0, pi/2] the + offset is below
    pi, and it is the forward chord, the one offset in (0, pi), when the - offset is <= 0.
    With the previous vertex supplied, the three-term recursion
    tan((next+prev)/2) = (1-s)/(1+s) tan(phi) is asserted in cross-multiplied
    form (the tan form has poles on any long trajectory).
    """
    s, t = c.s, c.t
    sin_phi, cos_phi = _sin(phi), _cos(phi)
    re_part = 1.0 + s * (cos_phi - sin_phi) * (cos_phi + sin_phi)
    im_part = -2.0 * s * sin_phi * cos_phi
    amp = _hypot(re_part, im_part)
    if amp < t:
        raise NoTangentError("no real chord: configuration outside validity")
    base, delta = _atan2(im_part, re_part), _acos(t / amp)
    ahead = base + delta
    if not base - delta <= 0.0 < ahead:
        raise NoTangentError(f"forward branch ambiguous at phi={phi!r}")
    nxt = phi + ahead
    if prev is not None:
        half = 0.5 * (nxt + prev)
        res = _sin(half) * cos_phi - c.rho * _cos(half) * sin_phi
        if abs(res) > 1e-10:
            raise InvariantError(f"chord recursion residual {res:.3e}")
    return nxt


# 2 pi in two parts (Cody-Waite): _TWO_PI_HI is 2 pi rounded to a double and
# _TWO_PI_LO the rest, so theta - _TWO_PI_HI - _TWO_PI_LO removes a full turn
# to within one rounding of theta
_TWO_PI_HI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16
# theta rounds at ulp(phi0): from |phi0| near 2^19 (ulp 1.2e-10) the 1e-10 recursion check fails
PHI0_MAX = 2.0 ** 18


def trajectory(c: TwoCircleConfig, phi0: float, n: int) -> PonceletTrajectory:
    """n chord steps from |phi0| <= PHI0_MAX; angles are cumulative (never reduced mod 2pi).

    The walk itself runs on a phase-reduced angle theta below phi0 + 2 pi: a
    step that crosses the bound takes a full turn off theta and off the
    previous vertex.  Each chord therefore rounds at ulp(theta), not at the
    ulp of the growing cumulative angle, where a long walk's roundings would
    add up coherently.  The returned angles are
    phi_i = theta_i + turns*_TWO_PI_LO + turns*_TWO_PI_HI, summed in that
    order, strictly increasing from phis[0] == phi0.  On the closing (5, 2, r = 0.3)
    star, the worst porism miss |phi(5j) - phi0 - 2 j pi| over 20 starts in
    [0, 2 pi) was 2.3e-13 by 10^3 chords, 1.8e-12 by 10^4 and 2.9e-11 by
    10^5, two ulps of the cumulative angle there.
    """
    import numpy as np

    return PonceletTrajectory(phis=np.frombuffer(_walk(c, phi0, n)), config=c)


def _walk(c: TwoCircleConfig, phi0: float, n: int) -> array:
    """trajectory's angles, without numpy."""
    if n < 1:
        raise DomainError("need at least one chord step")
    if not abs(phi0) <= PHI0_MAX:
        raise DomainError(f"starting half-angle phi0={phi0!r} is not a finite number "
                          f"within |phi0| <= PHI0_MAX = {PHI0_MAX!r}")
    theta = float(phi0)
    bound = theta + _TWO_PI_HI
    phis = array("d", (theta,))  # packed doubles: 8 bytes a chord, not a float object
    append, prev, turns, lo, hi = phis.append, None, 0, 0.0, 0.0
    for _ in range(n):
        prev, theta = theta, chord_step(c, theta, prev)
        if theta >= bound:
            theta = theta - _TWO_PI_HI - _TWO_PI_LO
            prev = prev - _TWO_PI_HI - _TWO_PI_LO
            turns += 1
            lo, hi = turns * _TWO_PI_LO, turns * _TWO_PI_HI
        append(theta + lo + hi)
    return phis


def porism_residual(c: TwoCircleConfig, n: int, m: int, starts) -> float:
    """Worst miss of n chords from each start angle against m full turns (m pi)."""
    return max(abs(_walk(c, float(p0), n)[-1] - p0 - m * math.pi) for p0 in starts)


def _check_walk(n: int, m: int) -> None:
    if n < 3 or not 1 <= m < n:
        raise DomainError(f"need n >= 3 chords and 1 <= m < n turns, got {(n, m)}")


def closure_residual(c: TwoCircleConfig, n: int, m: int) -> float:
    """F(alpha, k) - (m/n) 2K(k); zero exactly when the walk closes."""
    _check_walk(n, m)
    return incomplete_F(c.alpha, c.k) - (m / n) * 2.0 * complete_K(c.k)


# Brent's bracket tolerances: the root is returned within xtol + rtol*|a|
_XTOL = 1e-15
_RTOL = 8.9e-16
_MAXITER = 100
# a = 0 residual accepted as a closure at the concentric limit, in ulps of pi
_CONCENTRIC_ULPS = 4


def _brent(f, xpre: float, xcur: float, fpre: float, fcur: float) -> float:
    """Root of f between xpre and xcur, given end values fpre and fcur of opposite sign.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4), step for step as the C brentq that the tests compare against: a
    secant or inverse-quadratic step when it stays well inside the bracket
    and shrinks it fast enough, bisection otherwise.  xcur is the best estimate, xblk the
    other end of the bracket; spre and scur are the last two steps.  A nan
    residual or a bracket not closed in _MAXITER steps is a NoSolutionError.
    """
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through all three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NoSolutionError(f"residual is nan at {xcur!r}; the search cannot continue")
    raise NoSolutionError(f"bracket search did not converge in {_MAXITER} steps; "
                          f"last estimate {xcur!r}")


def search_closing_config(n: int, m: int, R: float, r: float) -> TwoCircleConfig:
    """Centre distance making the (n, m) walk close, by Brent's bracketed search.

    The a = 0 configuration is made first, so a pair that is not nested
    raises GeometryError before anything else.  The bracket [0, min(r, R-r))
    is the search's own limit, not the configuration's: a root with a >= r,
    such as Chapple-Euler's triangle at r = 0.3 R, is not found.  A walk with
    2m >= n is refused before any evaluation: cos(alpha) = r/(R+a) > 0 puts
    alpha below pi/2, so the forward rotation number F(alpha)/2K stays
    below 1/2.  Otherwise NoSolutionError is raised when the closure residual
    does not change sign on the bracket, naming the bound that is violated:
    the concentric limit r < R cos(pi m/n), where the rotation number peaks
    at a = 0 with arccos(r/R)/pi (e.g. a 5/2 star needs r below about
    0.31 R), or else the bracket edge.  At the concentric limit itself the
    regular star a = 0 is returned, its residual within a few ulps of pi of zero.
    """
    concentric = TwoCircleConfig(R=R, r=r, a=0.0)
    _check_walk(n, m)
    if 2 * m >= n:
        raise NoSolutionError(
            f"(n={n}, m={m}) needs rotation number m/n >= 1/2, but the forward "
            f"walk's rotation number F(alpha)/2K is below 1/2 for every nested "
            f"pair of circles; ({n}, {n - m}) is the same polygon walked backwards")
    # on the unit outer circle in s = a/R, Brent's absolute tolerance holds at every scale
    t = concentric.t
    upper = max(min(t, 1.0 - t) - 1e-9, 0.0)

    def res(s: float) -> float:
        return closure_residual(TwoCircleConfig(R=1.0, r=t, a=s), n, m)

    lo, hi = closure_residual(concentric, n, m), res(upper)
    if math.copysign(1.0, lo) == math.copysign(1.0, hi):
        # at r = R cos(pi m/n) the regular star closes at a = 0, where F(pi, 0)
        # = pi, but its residual can round to a fraction of an ulp of pi below 0
        if abs(lo) <= _CONCENTRIC_ULPS * math.ulp(math.pi):
            return concentric
        limit = R * math.cos(math.pi * m / n)
        if r > limit:
            raise NoSolutionError(
                f"inner radius r={r!r} is beyond the concentric limit "
                f"R cos(pi m/n) = {limit!r} for (n={n}, m={m}, R={R!r}); the "
                f"rotation number peaks at a = 0, so there is no closing configuration")
        raise NoSolutionError(
            f"closure residual keeps sign {lo:+.3e} .. {hi:+.3e} on the bracket "
            f"a in [0, {R * upper!r}] for (n={n}, m={m}, R={R}, r={r}): no closing configuration")
    return TwoCircleConfig(R=R, r=r, a=R * _brent(res, 0.0, upper, lo, hi))
