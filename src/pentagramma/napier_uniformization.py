"""Elliptic 5-division parametrization of Napier pentagons.

For modulus k and parameter u, five rays through (x, y, 1) whose planar
parts run over the quarter-period lattice u + 4jK/5 realise every pentagon
shape class: the squared-tangent cycle of the rays obeys the pentagon law,
and its product recovers the shape invariant omega as a function of k alone.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import cone_spectrum
from .elliptic_kernel import MAX_MODULUS, complete_K, jacobi_triple
from .errors import ChordDegenerateError, DomainError, InvariantError
from .pentagram_algebra import ALPHA_MAX, AlphaCycle

# a chord whose rays are this close to orthogonal has no finite tangent
_ORTHOGONAL_TOL = 1e-12
K_GRID = tuple(round(0.1 * i, 1) for i in range(10))  # the moduli of every (k, u) sweep


@dataclass(frozen=True)
class PentagonFrame:
    """The five ray endpoints r_j(k, u) with the lattice constants the projection reads."""

    k: float
    u: float
    K: float
    cn_fifth: float   # cn(2K/5) > 0
    dn_fifth: float   # dn(2K/5)
    vectors: tuple[tuple[float, float, float], ...]  # five rows r_j; third entry exactly 1
    # (|a x b|^2, a.b, |a|^2 |b|^2) per chord a = r_j, b = r_{j+1}; computed and checked when made
    chords: tuple[tuple[float, float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out = []
        for j in range(5):
            ax, ay, az = self.vectors[j]
            bx, by, bz = self.vectors[(j + 1) % 5]
            dot = ax * bx + ay * by + az * bz
            if abs(dot) <= _ORTHOGONAL_TOL:
                raise ChordDegenerateError(f"rays {j} and {j + 1} orthogonal within "
                                           f"{_ORTHOGONAL_TOL} at (k={self.k}, u={self.u})")
            cx = ay * bz - az * by
            cy = az * bx - ax * bz
            cz = ax * by - ay * bx
            out.append((cx * cx + cy * cy + cz * cz, dot,
                        (ax * ax + ay * ay + az * az) * (bx * bx + by * by + bz * bz)))
        object.__setattr__(self, "chords", tuple(out))


def lattice(k: float) -> tuple[float, float, float]:
    """K(k), cn(2K/5) and dn(2K/5): the frame's constants, which depend on k alone."""
    quarter = complete_K(k)
    _, cn5, dn5 = jacobi_triple(0.4 * quarter, k)
    if cn5 <= 0.0:
        # 2K/5 < K forces a positive cn; anything else is a kernel branch bug
        raise InvariantError(f"cn(2K/5) = {cn5!r} not positive at k={k!r}")
    return quarter, cn5, dn5


def _frame(k: float, u: float, quarter: float, cn5: float, dn5: float) -> PentagonFrame:
    """The frame at (k, u) from the lattice constants of k."""
    root_c = math.sqrt(cn5)
    root_d = math.sqrt(dn5)
    rows = []
    for j in range(5):
        sn, cn, _ = jacobi_triple(u + 0.8 * quarter * j, k)
        rows.append((cn / root_c, root_d * sn / root_c, 1.0))
    return PentagonFrame(k, u, quarter, cn5, dn5, tuple(rows))


def frame_vectors(k: float, u: float) -> PentagonFrame:
    """r_j = (cn(u+4jK/5)/sqrt(c5), sqrt(d5) sn(u+4jK/5)/sqrt(c5), 1)."""
    return _frame(k, u, *lattice(k))


def sweep_frames(rng, samples: int) -> Iterator[PentagonFrame]:
    """Frames on the (k, u) lattice, one k of K_GRID after another.

    Per k, `samples` u are drawn from rng uniform on [0, 0.8K), which covers
    the frame's period up to row order; the frames follow in increasing u.
    Each frame equals frame_vectors(k, u); the lattice constants are computed
    once per k.
    """
    for k in K_GRID:
        constants = lattice(k)
        for u in sorted(rng.uniform(0.0, 0.8 * constants[0], size=samples).tolist()):
            yield _frame(k, u, *constants)


def alpha_sequence(f: PentagonFrame) -> AlphaCycle:
    """Squared tangents of the ray gaps; satisfies 1 + a_j = a_{j-2} a_{j+2}."""
    values = []
    for cross2, dot, _ in f.chords:
        alpha = cross2 / (dot * dot)
        if alpha > ALPHA_MAX:
            raise ChordDegenerateError(
                f"chord quantity {alpha:.3e} overflows at (k={f.k}, u={f.u})")
        values.append(alpha)
    return AlphaCycle(tuple(values))


def beta_sequence(f: PentagonFrame) -> tuple[float, ...]:
    """Squared sines of the ray gaps: beta_j = alpha_j/(1+alpha_j), strictly < 1."""
    return tuple(cross2 / norms for cross2, _, norms in f.chords)


def omega_of_k(k: float) -> float:
    """Shape invariant of the k-frame; independent of u, so evaluated at u=0.

    Increasing in k, but only above k ~ 5e-4 at the ulp level: below that the
    true omega - OMEGA_CRITICAL (about k^4) is under the rounding of the
    frame, and reads -1, -2, 9, -1, 2 and 11 ulps of OMEGA_CRITICAL at
    k = 0, 1e-5, 2e-4, 3e-4, 3.3e-4 and 4e-4.
    """
    return alpha_sequence(frame_vectors(k, 0.0)).omega()


# the top of the (k, omega) domain: omega_of_k is increasing, so k <= MAX_MODULUS
# exactly when omega <= OMEGA_MAX
OMEGA_MAX = omega_of_k(MAX_MODULUS)


def k_of_omega(omega: float) -> float:
    """Modulus of the shape class omega, by the spectral bridge.

    k comes in closed form from the roots of t(2t-1)^2 = omega(t-1)
    (cone_spectrum.modulus_from_spectrum).  Domain: omega in
    [OMEGA_CRITICAL, OMEGA_MAX] <-> k in [0, MAX_MODULUS]; below it
    SubcriticalError (slack 1e-12), above it DomainError.  Near the critical
    value omega - OMEGA_CRITICAL grows like k^4, so k is ill-conditioned
    there, and inside the 1e-10 window around it k is exactly 0.  Nor does
    omega_of_k invert this below k ~ 5e-4, where it is not monotone at the
    ulp level (see omega_of_k).
    """
    if not omega <= OMEGA_MAX:
        raise DomainError(f"omega={omega!r} beyond OMEGA_MAX = {OMEGA_MAX!r}: "
                          f"k would exceed MAX_MODULUS = {MAX_MODULUS!r}")
    return cone_spectrum.modulus_from_spectrum(cone_spectrum.solve_characteristic(omega))[0]
