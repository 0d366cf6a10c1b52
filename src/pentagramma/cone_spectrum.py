"""The vertex cone, its characteristic cubic, and the spectral-modulus bridge.

The five pentagon vertices span a quadric cone z^2 + p xz + q yz + r xy = 0
whose principal values solve t(2t-1)^2 = omega(t-1), omega being the product
of the five squared side tangents.  The three real roots (one negative, two
at least 1) carry the whole shape class; their ratios are the cn and dn of
the elliptic lag, which is the bridge this package is built around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateError, DomainError, InvariantError, SubcriticalError

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
OMEGA_CRITICAL = GOLDEN ** 5  # = (11 + 5 sqrt 5)/2, the least omega: the regular pentagram

# below this distance from the critical point the double root is returned
# exactly to dodge catastrophic cancellation in the modulus formula
_NEAR_CRITICAL = 1e-10
_SUBCRITICAL_SLACK = 1e-12
# the top of the solver's domain: the middle root G' = 1 + 1/omega + ... is
# resolved to an ulp up to here; beyond it the Newton polish loses G' (error
# 7e-15 by 1e68, 0.5 by 1e92) until it rounds to 0 from about 7.9e96
OMEGA_TOP = 1e64


@dataclass(frozen=True)
class ConeQuadric:
    """Coefficients of z^2 + p xz + q yz + r xy = 0."""

    p: float
    q: float
    r: float


@dataclass(frozen=True)
class SpectralTriple:
    """Real roots G < 0 < Gp <= Gpp of t(2t-1)^2 = omega(t-1), an order checked when made."""

    G: float
    Gp: float
    Gpp: float
    omega: float

    def __post_init__(self):
        if not self.G < 0.0 < self.Gp <= self.Gpp:
            raise DegenerateError(f"malformed spectral triple {(self.G, self.Gp, self.Gpp)} "
                                  f"for omega={self.omega!r}: need G < 0 < Gp <= Gpp")

    def product_residuals(self) -> tuple[float, float, float]:
        """Scaled residuals of the three root-product identities.

        The second, (G-1)(Gp-1)(Gpp-1) + 1/4, is absolute: Gp - 1 is about
        1/omega but carries an ulp of 1, so on correct roots it grows like
        omega * 3e-17.  It stays below 1e-10 up to omega = 1e6 (above
        napier_uniformization.OMEGA_MAX), reads 3.6e-8 at 1e9 and 0.25 from
        about 1e16; above 1e6 it is no check of the triple.
        """
        G, Gp, Gpp, w = self.G, self.Gp, self.Gpp, self.omega
        r1 = (G * Gp * Gpp + w / 4.0) / w
        r2 = (G - 1.0) * (Gp - 1.0) * (Gpp - 1.0) + 0.25
        r3 = ((2 * G - 1) * (2 * Gp - 1) * (2 * Gpp - 1) + w) / w
        return r1, r2, r3


def cone_coefficients(alpha: float, gamma: float) -> ConeQuadric:
    """(p, q, r) of the cone, for alpha, gamma > 0 whose product is a normal finite double."""
    if not (alpha > 0.0 and gamma > 0.0 and 2.0 ** -1022 <= alpha * gamma < math.inf):
        raise DomainError(f"cone seeds ({alpha!r}, {gamma!r}) need > 0 and a normal product")
    p = -math.sqrt(alpha)
    q = -math.sqrt(gamma)
    r = -(1.0 + alpha + gamma) / math.sqrt(alpha * gamma)
    return ConeQuadric(p=p, q=q, r=r)


def solve_characteristic(omega: float) -> SpectralTriple:
    """Three real roots of 4t^3 - 4t^2 + (1-omega)t + omega = 0, sorted.

    Closed-form trigonometric solution of the depressed cubic, then two Newton
    steps per root, sorted once polished.  Inside the +-1e-10 window around the
    critical omega the exact double root is returned instead.  The domain is omega in
    [OMEGA_CRITICAL, OMEGA_TOP]: SubcriticalError below it, DomainError above
    it and for nan.  Every root there lies within a few ulps of the exact
    cubic's, but SpectralTriple.product_residuals checks them only up to
    omega = 1e6.
    """
    if omega < OMEGA_CRITICAL - _SUBCRITICAL_SLACK:
        raise SubcriticalError(
            f"omega={omega!r} below the critical value {OMEGA_CRITICAL!r}: "
            "only one real root exists")
    if not omega <= OMEGA_TOP:
        raise DomainError(f"omega={omega!r} beyond OMEGA_TOP = {OMEGA_TOP!r}: the middle "
                          "root 1 + O(1/omega) is no longer resolved")
    if omega - OMEGA_CRITICAL < _NEAR_CRITICAL:
        half_sq = GOLDEN * GOLDEN / 2.0
        return SpectralTriple(G=-GOLDEN, Gp=half_sq, Gpp=half_sq, omega=omega)

    # monic form t^3 + A t^2 + B t + C, depressed by t = s - A/3
    A = -1.0
    B = (1.0 - omega) / 4.0
    C = omega / 4.0
    pc = B - A * A / 3.0
    qc = 2.0 * A ** 3 / 27.0 - A * B / 3.0 + C
    radius = 2.0 * math.sqrt(-pc / 3.0)
    arg = 3.0 * qc / (pc * radius)
    arg = max(-1.0, min(1.0, arg))
    theta = math.acos(arg)
    polished = []
    for j in range(3):
        t = radius * math.cos((theta - 2.0 * math.pi * j) / 3.0) - A / 3.0
        # two Newton steps on the cubic and its derivative, both in Horner form
        for _ in range(2):
            t -= ((((4.0 * t - 4.0) * t + (1.0 - omega)) * t + omega)
                  / ((12.0 * t - 8.0) * t + (1.0 - omega)))
        polished.append(t)
    G, Gp, Gpp = sorted(polished)
    return SpectralTriple(G=G, Gp=Gp, Gpp=Gpp, omega=omega)


def modulus_from_spectrum(s: SpectralTriple) -> tuple[float, float, float]:
    """(k, cn w, dn w) of the elliptic lag carried by a spectral triple.

    k^2 = (Gp^-2 - Gpp^-2)/(Gp^-2 - G^-2), cn w = -Gp/G, dn w = Gp/Gpp.
    A coincident positive pair is the regular pentagram: k = 0 exactly, and
    the returned cn is then cos(pi/5).
    """
    G, Gp, Gpp = s.G, s.Gp, s.Gpp
    cnw = -Gp / G
    dnw = Gp / Gpp
    k2 = (Gp ** -2 - Gpp ** -2) / (Gp ** -2 - G ** -2)
    k = math.sqrt(k2)
    if not (0.0 <= k < 1.0 and 0.0 < cnw < 1.0 and 0.0 < dnw <= 1.0):
        raise InvariantError(
            f"bridge quantities out of range: k={k!r} cnw={cnw!r} dnw={dnw!r}")
    return k, cnw, dnw
