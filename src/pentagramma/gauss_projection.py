"""Central projection of the pentagon onto the tangent plane.

The five projected vertices lie on an origin-centred axis-aligned ellipse;
each vertex is recoverable from its neighbours two ways (the right angles,
and the confocal-conic relation through the spectral roots), and the
eccentric anomalies satisfy the four half-sum identities checked by
gauss_theorem_residuals.  The sphere centre sits at (0, 0, 1) in this chart,
so the coordinates here never mix with the sphere-frame ones.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cone_spectrum import SpectralTriple
from .errors import InvariantError, OffEllipseError, SingularError
from .napier_uniformization import PentagonFrame
from .pentagram_algebra import orthogonality_residuals

TWO_PI = 2.0 * math.pi

# the residuals' libm calls, looked up once here rather than on math per call
_sin, _cos, _sqrt = math.sin, math.cos, math.sqrt

_FIT_TOL = 1e-9
_COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class PlanarPentagon:
    """Projected vertices, the lattice's semi-axes, and unwrapped anomalies.

    anomalies[0] lies in [0, 2pi); the sequence increases and gains exactly
    2pi per full cycle, so anomaly(j) is well defined for any integer j.
    """

    points: tuple[tuple[float, float], ...]  # five (x, y) rows
    axes: tuple[float, float]    # (g', g'')
    anomalies: tuple[float, ...]

    def point(self, j: int) -> tuple[float, float]:
        return self.points[j % 5]

    def anomaly(self, j: int) -> float:
        q, r = divmod(j, 5)
        return self.anomalies[r] + TWO_PI * q


def eccentric_anomaly(point, axes) -> float:
    """Angle phi in [0, 2pi) with point = (a cos phi, b sin phi)."""
    x, y = point
    a, b = axes
    cx = x / a
    sy = y / b
    if abs(cx * cx + sy * sy - 1.0) > _FIT_TOL:
        raise OffEllipseError(f"point {(x, y)} misses the ellipse {axes}")
    phi = math.atan2(sy, cx) % TWO_PI
    # just below the positive x axis atan2 is a tiny negative angle, and % rounds it up to 2pi
    return phi if phi < TWO_PI else 0.0


def pentagon_from_frame(f: PentagonFrame) -> PlanarPentagon:
    """Drop the frame rays to the plane; the axes are the lattice's (g', g'')."""
    rows = tuple((x, y) for x, y, _ in f.vectors)
    root_c = math.sqrt(f.cn_fifth)
    axes = (1.0 / root_c, math.sqrt(f.dn_fifth) / root_c)
    if max(abs(r) for r in orthogonality_residuals(f.vectors)) > _FIT_TOL:
        raise InvariantError("next-nearest rays are not orthogonal")

    raw = [eccentric_anomaly(p, axes) for p in rows]
    unwrapped = [raw[0]]
    for j in range(1, 5):
        unwrapped.append(unwrapped[-1] + (raw[j] - unwrapped[-1]) % TWO_PI)
    return PlanarPentagon(points=rows, axes=axes, anomalies=tuple(unwrapped))


def recover_from_pm2(p: PlanarPentagon, i: int) -> tuple[float, float]:
    """Vertex i from vertices i-2 and i+2 through the two right angles."""
    x2, y2 = p.point(i + 2)
    xm, ym = p.point(i - 2)
    den = x2 * ym - y2 * xm
    if abs(den) <= _COLLINEAR_TOL:
        raise SingularError("reference vertices collinear with the origin")
    return (y2 - ym) / den, (xm - x2) / den


def recover_from_pm1(p: PlanarPentagon, s: SpectralTriple, i: int) -> tuple[float, float]:
    """Vertex i from vertices i-1 and i+1 through the confocal relation."""
    x1, y1 = p.point(i + 1)
    xm, ym = p.point(i - 1)
    den = xm * y1 - x1 * ym
    if abs(den) <= _COLLINEAR_TOL:
        raise SingularError("reference vertices collinear with the origin")
    scale = 2.0 * s.G - 1.0
    return (-(2.0 * s.Gp - 1.0) / scale * (y1 - ym) / den,
            (2.0 * s.Gpp - 1.0) / scale * (x1 - xm) / den)


def confocal_residual(p: PlanarPentagon, s: SpectralTriple, i: int) -> float:
    """x_i x_{i+1}/(2G'-1) + y_i y_{i+1}/(2G''-1) + 1/(2G-1)."""
    x1, y1 = p.point(i)
    x2, y2 = p.point(i + 1)
    return (x1 * x2 / (2.0 * s.Gp - 1.0)
            + y1 * y2 / (2.0 * s.Gpp - 1.0)
            + 1.0 / (2.0 * s.G - 1.0))


def gauss_theorem_residuals(p: PlanarPentagon,
                            s: SpectralTriple) -> tuple[tuple[float, ...], ...]:
    """The four half-sum anomaly identities at all five positions, as four rows of five.

    Rows 0-1: next-nearest identities with coefficients G/G'' and G/G'.
    Rows 2-3: nearest identities with coefficients G(2G-1)/(G''(2G''-1)) and
    the primed twin.  The square-root forms of those coefficients are equal
    to the rational ones for a genuine triple; that equality is asserted
    here before the residuals are formed.
    """
    G, Gp, Gpp = s.G, s.Gp, s.Gpp
    coeff_pp = G * (2.0 * G - 1.0) / (Gpp * (2.0 * Gpp - 1.0))
    coeff_p = G * (2.0 * G - 1.0) / (Gp * (2.0 * Gp - 1.0))
    root_pp = _sqrt(G * (G - 1.0) / (Gpp * (Gpp - 1.0)))
    root_p = _sqrt(G * (G - 1.0) / (Gp * (Gp - 1.0)))
    if abs(root_pp - coeff_pp) > 1e-9 * abs(coeff_pp) or \
            abs(root_p - coeff_p) > 1e-9 * abs(coeff_p):
        raise InvariantError("root/rational coefficient forms disagree: "
                             "spectral triple inconsistent with its cubic")

    # anomaly(j) for j = -2..6 at ext[j + 2], summed as anomaly() sums them
    a = p.anomalies
    ext = (a[3] - TWO_PI, a[4] - TWO_PI, a[0] + 0.0, a[1] + 0.0, a[2] + 0.0,
           a[3] + 0.0, a[4] + 0.0, a[0] + TWO_PI, a[1] + TWO_PI)
    ratio_pp, ratio_p = G / Gpp, G / Gp
    columns = []  # the four residuals at position i, transposed into rows at the end
    for i in range(5):
        sin_phi, cos_phi = _sin(ext[i + 2]), _cos(ext[i + 2])
        fm2, fp2 = ext[i], ext[i + 4]
        half_sum2 = 0.5 * (fm2 + fp2)
        half_diff2 = _cos(0.5 * (fm2 - fp2))
        fm1, fp1 = ext[i + 1], ext[i + 3]
        half_sum1 = 0.5 * (fm1 + fp1)
        half_diff1 = _cos(0.5 * (fm1 - fp1))
        columns.append((_sin(half_sum2) / half_diff2 - ratio_pp * sin_phi,
                        _cos(half_sum2) / half_diff2 - ratio_p * cos_phi,
                        _sin(half_sum1) / half_diff1 - coeff_pp * sin_phi,
                        _cos(half_sum1) / half_diff1 - coeff_p * cos_phi))
    return tuple(zip(*columns))
