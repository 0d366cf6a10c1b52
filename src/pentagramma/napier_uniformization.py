"""Elliptic 5-division parametrization of Napier pentagons.

For modulus k and parameter u, five rays through (x, y, 1) whose planar
parts run over the quarter-period lattice u + 4jK/5 realise every pentagon
shape class: the squared-tangent cycle of the rays obeys the pentagon law,
and its product recovers the shape invariant omega as a function of k alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .cone_spectrum import OMEGA_CRITICAL
from .elliptic_kernel import complete_K, jacobi_triple
from .errors import ChordDegenerateError, DomainError, InvariantError, SubcriticalError
from .pentagram_algebra import ALPHA_MAX, AlphaCycle

_SEARCH_K_MAX = 0.999999


@dataclass(frozen=True)
class PentagonFrame:
    """The five ray endpoints r_j(k, u) with cached lattice constants."""

    k: float
    u: float
    K: float
    cn_fifth: float   # cn(2K/5) > 0
    dn_fifth: float   # dn(2K/5)
    vectors: np.ndarray  # shape (5, 3); third column is exactly 1


def frame_vectors(k: float, u: float) -> PentagonFrame:
    """r_j = (cn(u+4jK/5)/sqrt(c5), sqrt(d5) sn(u+4jK/5)/sqrt(c5), 1)."""
    quarter = complete_K(k)
    _, cn5, dn5 = jacobi_triple(0.4 * quarter, k)
    if cn5 <= 0.0:
        # 2K/5 < K forces a positive cn; anything else is a kernel branch bug
        raise InvariantError(f"cn(2K/5) = {cn5!r} not positive at k={k!r}")
    root_c = math.sqrt(cn5)
    root_d = math.sqrt(dn5)
    rows = []
    for j in range(5):
        sn, cn, _ = jacobi_triple(u + 0.8 * quarter * j, k)
        rows.append((cn / root_c, root_d * sn / root_c, 1.0))
    return PentagonFrame(k=k, u=u, K=quarter, cn_fifth=cn5, dn_fifth=dn5,
                         vectors=np.array(rows))


def _chords(f: PentagonFrame, tol: float) -> list[tuple[float, float, float]]:
    """(|a x b|^2, a.b, |a|^2 |b|^2) for each chord a = r_j, b = r_{j+1}."""
    rows = f.vectors.tolist()
    out = []
    for j in range(5):
        ax, ay, az = rows[j]
        bx, by, bz = rows[(j + 1) % 5]
        dot = ax * bx + ay * by + az * bz
        if abs(dot) <= tol:
            raise ChordDegenerateError(
                f"rays {j} and {j + 1} orthogonal within {tol} at (k={f.k}, u={f.u})")
        cx = ay * bz - az * by
        cy = az * bx - ax * bz
        cz = ax * by - ay * bx
        out.append((cx * cx + cy * cy + cz * cz, dot,
                    (ax * ax + ay * ay + az * az) * (bx * bx + by * by + bz * bz)))
    return out


def alpha_sequence(f: PentagonFrame, tol: float = 1e-12) -> AlphaCycle:
    """Squared tangents of the ray gaps; satisfies 1 + a_j = a_{j-2} a_{j+2}."""
    values = []
    for cross2, dot, _ in _chords(f, tol):
        alpha = cross2 / (dot * dot)
        if alpha > ALPHA_MAX:
            raise ChordDegenerateError(
                f"chord quantity {alpha:.3e} overflows at (k={f.k}, u={f.u})")
        values.append(alpha)
    return AlphaCycle(tuple(values))


def beta_sequence(f: PentagonFrame, tol: float = 1e-12) -> tuple[float, ...]:
    """Squared sines of the ray gaps: beta_j = alpha_j/(1+alpha_j), strictly < 1."""
    return tuple(cross2 / norms for cross2, _, norms in _chords(f, tol))


def omega_of_k(k: float) -> float:
    """Shape invariant of the k-frame; independent of u, so evaluated at u=0."""
    return alpha_sequence(frame_vectors(k, 0.0)).omega()


def k_of_omega(omega: float) -> float:
    """Numerical inverse of omega_of_k on [0, 0.999999].

    Monotone growth of omega in k is relied on for the bracket (verified on
    a grid by the tests, not proved).
    """
    if omega < OMEGA_CRITICAL - 1e-12:
        raise SubcriticalError(f"omega={omega!r} below the regular value")
    # omega_of_k(0) may round to either side of OMEGA_CRITICAL; both mean k = 0
    if omega <= max(OMEGA_CRITICAL, omega_of_k(0.0)):
        return 0.0
    top = omega_of_k(_SEARCH_K_MAX)
    if omega > top:
        raise DomainError(f"omega={omega!r} beyond the supported range ({top:.3e})")
    return brentq(lambda k: omega_of_k(k) - omega, 0.0, _SEARCH_K_MAX,
                  xtol=1e-15, rtol=8.9e-16)
