"""Independent oracles the acceptance battery and the tests check the library against.

Everything here goes through a different computational route than the code
it checks: quadrature instead of AGM, direct series summation, the spherical
law of cosines, numpy's symmetric eigensolver, plain polynomial evaluation,
root finding over whole frames, chord quantities from planar data.
"""
import functools
import math

from . import napier_uniformization
from .cone_spectrum import OMEGA_CRITICAL
from .errors import DomainError, SubcriticalError
from .pentagram_algebra import NapierParts


# Gauss-Legendre points per panel; halvings of a panel at most; the panel
# test's tolerance relative to the whole integral
_GAUSS_POINTS = 24
_MAX_DEPTH = 30
_PANEL_TOL = 1e-15


@functools.cache
def _gauss_legendre():
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1], positive nodes only.

    Each node is a root of P_n, found by Newton's method on the three-term
    recurrence (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1} from the
    asymptotic guess cos(pi (i - 1/4) / (n + 1/2)); the weight is
    2 / ((1 - x^2) P_n'(x)^2) (Davis & Rabinowitz, Methods of Numerical
    Integration, 1984, sec. 2.7).  n = _GAUSS_POINTS is even, so the nodes
    come in +-x pairs.
    """
    n = _GAUSS_POINTS

    def legendre(x):
        p0, p1 = 1.0, x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    rule = []
    for i in range(1, n // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-16:
                break
        _, dp = legendre(x)
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return tuple(rule)


def _panel(a, b, k, kc2):
    """Gauss-Legendre sum of 1/sqrt(cos^2 t + k'^2 sin^2 t) over [a, b].

    The radicand is evaluated as k'^2 + (k cos t)^2, the same sum of two
    non-negative terms, with kc2 = k'^2 = (1 - k)(1 + k): nothing cancels as
    k -> 1, where 1 - k^2 sin^2 t would.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for x, w in _gauss_legendre():
        c1 = k * math.cos(mid + half * x)
        c2 = k * math.cos(mid - half * x)
        total += w * (1.0 / math.sqrt(kc2 + c1 * c1) + 1.0 / math.sqrt(kc2 + c2 * c2))
    return half * total


def _adaptive(b, k, kc2):
    """Integral over [0, b] by panels, each halved where it and its two halves disagree.

    A panel is kept once its halves' sum is within _PANEL_TOL of the whole
    interval's one-panel estimate (a tolerance on the whole integral, not on
    the panel), or once it has been halved _MAX_DEPTH times.
    """
    whole = _panel(0.0, b, k, kc2)
    tol = _PANEL_TOL * whole
    total = 0.0
    pending = [(0.0, b, whole, 0)]
    while pending:
        lo, hi, estimate, depth = pending.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(lo, mid, k, kc2)
        right = _panel(mid, hi, k, kc2)
        if abs(left + right - estimate) <= tol or depth >= _MAX_DEPTH:
            total += left + right
        else:
            pending.append((lo, mid, left, depth + 1))
            pending.append((mid, hi, right, depth + 1))
    return total


def quad_F(phi, k):
    """Incomplete first-kind integral F(phi, k) by adaptive Gauss-Legendre panels.

    Domain: 0 <= k < 1 and finite phi; negative phi by oddness.  phi is
    split exactly as n pi + r with |r| <= pi/2 (math.remainder against the
    float pi), and F = n F(pi) + F(r), so every integral runs over at most
    [0, pi] and the work is bounded for every finite phi.  For |phi| <= pi/2
    that is one adaptive integral over [0, phi].

    Measured against mpmath.ellipf at 30 digits, on random samples: within
    1e-15 absolute on k <= 0.95, 0 <= phi <= pi/2 (criterion 4's range);
    on |phi| <= pi, within 2e-15 relative for k <= 0.9999 and within 5e-15
    for k <= 1 - 1e-9.  Closer to k = 1 the rounding of the nodes next to
    pi/2 reaches the panel test and the depth cap ends the halving: 2e-14
    at k = 1 - 1e-13, 6e-13 at the largest float below 1, at about 50 ms
    a call.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"quad_F modulus k={k!r} outside 0 <= k < 1")
    if not math.isfinite(phi):
        raise DomainError(f"quad_F amplitude phi={phi!r} is not finite")
    kc2 = (1.0 - k) * (1.0 + k)
    r = math.remainder(phi, math.pi)
    value = math.copysign(_adaptive(abs(r), k, kc2), r) if r else 0.0
    periods = round((phi - r) / math.pi)
    if periods:
        value += periods * _adaptive(math.pi, k, kc2)
    return value


def quad_K(k):
    return quad_F(math.pi / 2.0, k)


def rotation_number(R, r, a):
    """Turns per chord of the Poncelet walk between nested circles, by quadrature.

    rho = F(alpha, k) / F(pi, k) with k^2 = 4Ra/((R+a)^2 - r^2) and
    cos(alpha) = r/(R+a); an (n, m) walk closes exactly when rho = m/n.
    """
    k = math.sqrt(4.0 * R * a / ((R + a) ** 2 - r ** 2))
    alpha = math.acos(r / (R + a))
    return quad_F(alpha, k) / quad_F(math.pi, k)


def invert_quad_F(u, k):
    """Amplitude by bisecting the quadrature integral; u must lie in [0, K]."""
    lo, hi = 0.0, math.pi / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if quad_F(mid, k) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def invert_omega_of_k(omega):
    """k with omega_of_k(k) = omega, by bisection over whole Napier frames on [0, 0.999999].

    The bracket is halved until it is 1e-15 wide in k, and the midpoint with
    the smallest residual is returned.  Where omega grows, that is an end of
    the last bracket.  Below k ~ 5e-4 omega is not monotone at the ulp level:
    omega - omega_c (true size about k^4) reads a few ulps of either sign, so
    the inverse is only defined to within [0, ~5e-4], the best k the bisection met.
    """
    omega_of_k = napier_uniformization.omega_of_k
    k_max = 0.999999
    if omega < OMEGA_CRITICAL - 1e-12:
        raise SubcriticalError(f"omega={omega!r} below the regular value")
    # omega_of_k(0) may round to either side of OMEGA_CRITICAL; both mean k = 0
    if omega <= max(OMEGA_CRITICAL, omega_of_k(0.0)):
        return 0.0
    top = omega_of_k(k_max)
    if omega > top:
        raise DomainError(f"omega={omega!r} beyond the supported range ({top:.3e})")
    lo, hi = 0.0, k_max
    best = (math.inf, hi)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        value = omega_of_k(mid)
        best = min(best, (abs(value - omega), mid))
        if value < omega:
            lo = mid
        else:
            hi = mid
    return best[1]


def chord_alphas(p):
    """Squared tangents from planar chords alone (no third coordinate)."""
    out = []
    for i in range(5):
        x1, y1 = p.point(i)
        x2, y2 = p.point(i + 1)
        num = (x1 - x2) ** 2 + (y1 - y2) ** 2 + (x1 * y2 - y1 * x2) ** 2
        out.append(num / (x1 * x2 + y1 * y2 + 1.0) ** 2)
    return tuple(out)


def chord_betas(p):
    """Squared sines of the vertex gaps, again from planar data."""
    out = []
    for i in range(5):
        x1, y1 = p.point(i)
        x2, y2 = p.point(i + 1)
        num = (x1 - x2) ** 2 + (y1 - y2) ** 2 + (x1 * y2 - y1 * x2) ** 2
        out.append(num / ((x1 ** 2 + y1 ** 2 + 1.0) * (x2 ** 2 + y2 ** 2 + 1.0)))
    return tuple(out)


# the most terms li2_series sums; x = 0.99 meets its 1e-18 cut after about 2,600
_LI2_SERIES_TERMS = 200000


def li2_series(x):
    """Li2(x) = sum x^n / n^2 by direct partial summation of the defining series.

    The independent route for li2, which sums the Bernoulli series in
    z = -ln(1 - x) instead.
    """
    total = 0.0
    term = x
    for n in range(1, _LI2_SERIES_TERMS + 1):
        inc = term / (n * n)
        total += inc
        term *= x
        if inc < 1e-18:
            break
    return total


def right_triangle(a, b):
    """Solve the right spherical triangle with legs a, b by the law of cosines.

    Returns (parts, hypotenuse, angle_a, angle_b); the right angle sits
    opposite the hypotenuse.
    """
    cos_c = math.cos(a) * math.cos(b)
    c = math.acos(cos_c)
    alpha = math.acos((math.cos(a) - math.cos(b) * cos_c)
                      / (math.sin(b) * math.sin(c)))
    beta = math.acos((math.cos(b) - math.cos(a) * cos_c)
                     / (math.sin(a) * math.sin(c)))
    half = math.pi / 2.0
    parts = NapierParts((a, b, half - alpha, half - c, half - beta))
    return parts, c, alpha, beta


def characteristic_matrix(c):
    """Symmetric matrix of the cone form c; its eigenvalues solve the characteristic cubic."""
    import numpy as np

    return np.array([
        [0.0, c.r / 2.0, c.p / 2.0],
        [c.r / 2.0, 0.0, c.q / 2.0],
        [c.p / 2.0, c.q / 2.0, 1.0],
    ])


def symmetric_eigenvalues(matrix):
    import numpy as np

    return np.linalg.eigvalsh(np.asarray(matrix, dtype=float))


def characteristic_poly(t, omega):
    return 4.0 * t ** 3 - 4.0 * t ** 2 + (1.0 - omega) * t + omega
