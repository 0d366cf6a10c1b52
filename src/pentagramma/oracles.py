"""Independent oracles the acceptance battery and the tests check the library against.

Everything here goes through a different computational route than the code
it checks: quadrature instead of AGM, direct series summation, the spherical
law of cosines, numpy's symmetric eigensolver, plain polynomial evaluation,
root finding over whole frames, chord quantities from planar data.
"""
import math
import warnings

from . import napier_uniformization
from .cone_spectrum import OMEGA_CRITICAL
from .errors import DomainError, SubcriticalError
from .pentagram_algebra import NapierParts


def quad_F(phi, k):
    """Incomplete first-kind integral by adaptive quadrature."""
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        # near k ~ 1 the integrand steepens and quad warns about roundoff
        # while still delivering ~1e-15; the check tolerances absorb that
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(lambda x: 1.0 / math.sqrt(1.0 - (k * math.sin(x)) ** 2),
                        0.0, phi, epsabs=1e-13, epsrel=1e-13, limit=200)
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
    """k with omega_of_k(k) = omega, by brentq over whole Napier frames on [0, 0.999999].

    Monotone growth of omega in k is relied on for the bracket (verified on
    a grid by the tests, not proved).
    """
    from scipy.optimize import brentq

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
    return brentq(lambda k: omega_of_k(k) - omega, 0.0, k_max,
                  xtol=1e-15, rtol=8.9e-16)


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
