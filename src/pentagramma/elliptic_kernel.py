"""Real Jacobi elliptic functions for modulus 0 <= k <= MAX_MODULUS.

Everything is built on the arithmetic-geometric mean: the quarter-period K
comes straight from the AGM limit, and the amplitude is evaluated by the
descending Landen recurrence on the AGM phases (DLMF 19.8, A&S 17.5-17.6).
That makes am(u) continuous and strictly increasing on all of R (the winding
count falls out of the phase seeding, no table of branch cuts), which the
Poncelet turn counting relies on.  The incomplete integral F is the same
descent run backwards, so it needs no root finding either.  The phases are
computed once per modulus and kept in a bounded memo.  sn, cn, dn are then
trig of the amplitude; the quadrature definition of these functions is only
ever used as an independent test oracle, never in this module.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, InvariantError, NearPoleError

DEFAULT_TOL = 1e-12

# K(k) ~ log(4/k') as k -> 1; past this bound doubles cannot represent the
# distinction between k and 1 and the AGM loses its contract.
MAX_MODULUS = 1.0 - 1e-12

# |u| and |phi| are multiplied by 2^N (N <= 8 on the modulus domain), which
# must not overflow.
MAX_ARGUMENT = 1e300

_MAX_AGM_ITER = 64


def _argument_error(name: str, x: float) -> DomainError:
    # built only once the caller's inline test abs(x) <= MAX_ARGUMENT failed
    return DomainError(f"argument {name}={x!r} is not a finite number "
                       f"of magnitude <= {MAX_ARGUMENT!r}")


# Callers sweep a few moduli many times over; the bound keeps a stream of
# fresh k (the battery draws hundreds per run) from growing the memo.
@functools.lru_cache(maxsize=256)
def _agm_phases(k: float) -> tuple[float, float, tuple, tuple]:
    """AGM of (a_0, b_0, c_0) = (1, k', k) to machine convergence.

    The kernel's one modulus check: k outside [0, MAX_MODULUS] raises
    DomainError here.  lru_cache keeps no call that raised, so a bad k is
    rejected on every call and each memo entry is a k checked once.
    Returns K = pi / (2 a_N), the seed scale 2^N a_N, am's descent ratios
    c_n/a_n for n = N..1, and F's step constants (c_n, b_{n-1}) for n = 1..N.
    """
    if not 0.0 <= k <= MAX_MODULUS:
        raise DomainError(f"modulus k={k!r} outside [0, MAX_MODULUS = {MAX_MODULUS!r}]")
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    ratios, steps = [], []
    for _ in range(_MAX_AGM_ITER):
        nxt = (0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b))
        # quadratic convergence bottoms out at rounding noise ~eps*a, so the
        # cut sits just above one ulp, with a plateau guard behind it
        if abs(c) <= 2.5e-16 * a or abs(nxt[2]) >= abs(c):
            return (math.pi / (2.0 * a), math.ldexp(a, len(steps)),
                    tuple(reversed(ratios)), tuple(steps))
        steps.append((nxt[2], b))
        a, b, c = nxt
        ratios.append(c / a)
    raise InvariantError(f"AGM failed to converge for k={k!r}")


def complete_K(k: float) -> float:
    """Quarter-period K(k), exact to the last AGM iterate."""
    return _agm_phases(k)[0]


def am(u: float, k: float) -> float:
    """Jacobi amplitude, continuous and strictly increasing in u.

    Phase seeding: phi_N = 2^N a_N u, then the half-angle descent
    phi_{n-1} = (phi_n + asin((c_n/a_n) sin phi_n)) / 2.  Because the seed is
    linear in u and every descent step is a contraction, the quasi-period
    am(u + 2K) = am(u) + pi holds to rounding without explicit unwinding.
    """
    _, seed, ratios, _ = _agm_phases(k)
    if not abs(u) <= MAX_ARGUMENT:
        raise _argument_error("u", u)
    phi = seed * u
    for ratio in ratios:
        phi = 0.5 * (phi + math.asin(ratio * math.sin(phi)))
    return phi


class JacobiTriple(NamedTuple):
    """The values (sn u, cn u, dn u) at a common argument."""

    sn: float
    cn: float
    dn: float


def jacobi_triple(u: float, k: float) -> JacobiTriple:
    """(sn, cn, dn) at u.  dn is the positive root of 1 - k^2 sn^2."""
    phi = am(u, k)
    sn = math.sin(phi)
    # tuple.__new__ skips the NamedTuple's Python-level __new__ frame
    return tuple.__new__(JacobiTriple, (sn, math.cos(phi), math.sqrt(1.0 - (k * sn) ** 2)))


def incomplete_F(phi: float, k: float) -> float:
    """Incomplete integral of the first kind, i.e. the inverse of am on all of R.

    am's descent run backwards: for n = 1..N, theta = 2 phi_{n-1} and
    phi_n = theta - atan2(c_n sin theta, a_n + c_n cos theta), then
    F = phi_N / (2^N a_N).  a_n + c_n cos theta > 0 because c_n < a_n, so
    atan2 never leaves (-pi/2, pi/2) and no branch or turn count is needed.
    The denominator is evaluated as b_{n-1} + 2 c_n cos^2 phi_{n-1}, which
    equals it but does not cancel when k -> 1 and cos theta -> -1.
    """
    _, seed, _, steps = _agm_phases(k)
    if not abs(phi) <= MAX_ARGUMENT:
        raise _argument_error("phi", phi)
    for gap, geo in steps:
        s = math.sin(phi)
        c = math.cos(phi)
        phi = 2.0 * phi - math.atan2(2.0 * gap * s * c, geo + 2.0 * gap * c * c)
    return phi / seed


def jacobi_sum(u: float, v: float, k: float) -> JacobiTriple:
    """(sn, cn, dn) of u+v through the addition-formula quotients."""
    su, cu, du = jacobi_triple(u, k)
    sv, cv, dv = jacobi_triple(v, k)
    denom = 1.0 - (k * su * sv) ** 2
    if abs(denom) <= DEFAULT_TOL:
        # denom >= 1 - k^2 > 0 for any real arguments, so reaching this
        # means the kernel itself broke.
        raise InvariantError(f"addition-formula denominator vanished: {denom!r}")
    sn = (su * cv * dv + cu * sv * du) / denom
    cn = (cu * cv - su * sv * du * dv) / denom
    dn = (du * dv - k * k * su * sv * cu * cv) / denom
    return JacobiTriple(sn, cn, dn)


def half_angle_tan(x: float, y: float, k: float) -> float:
    """tan((am x + am y)/2), cross-checked against dn((x-y)/2) tan(am((x+y)/2)).

    The internal check uses the cross-multiplied residual
    sin(h) cos(am m) - dn(v) cos(h) sin(am m), which stays bounded where the
    two tangents blow up together.
    """
    half = 0.5 * (am(x, k) + am(y, k))
    pole_distance = abs(half % math.pi - 0.5 * math.pi)
    if pole_distance <= DEFAULT_TOL:
        raise NearPoleError(f"half-sum amplitude within {DEFAULT_TOL} of pi/2 mod pi")
    mid = am(0.5 * (x + y), k)
    dnv = jacobi_triple(0.5 * (x - y), k).dn
    residual = math.sin(half) * math.cos(mid) - dnv * math.cos(half) * math.sin(mid)
    if abs(residual) > 1e-10:
        raise InvariantError(f"half-angle identity residual {residual:.3e}")
    return math.tan(half)
