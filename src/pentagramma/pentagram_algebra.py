"""Right spherical triangles, the cyclic parts machinery, and pentagon algebra.

A self-polar spherical pentagon is encoded by the five squared tangents of
its sides (an AlphaCycle); every identity in this module is rational in
those quantities, so the cycle is the canonical datum and angle tuples are
derived views.  Indices are zero-based and cyclic mod 5 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .cone_spectrum import cone_coefficients
from .errors import DomainError, InvariantError

ALPHA_MIN = 1e-8
ALPHA_MAX = 1e8
GEOM_TOL = 1e-10  # identities that go through trig evaluations


@dataclass(frozen=True)
class NapierParts:
    """Five parts of a right spherical triangle in cyclic order."""

    parts: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.parts) != 5:
            raise DomainError("a parts tuple has exactly five entries")


def napier_rotate(t: NapierParts) -> NapierParts:
    """Cyclic shift by one position; order five."""
    p = t.parts
    return NapierParts((p[1], p[2], p[3], p[4], p[0]))


def gauss_reflect(t: NapierParts) -> NapierParts:
    """The square of the rotation; reflects the triangle in a vertex."""
    return napier_rotate(napier_rotate(t))


def verify_napier(t: NapierParts):
    """Residuals of the two Napier rules at each of the five positions.

    Rule I:  sin(middle) - tan(neighbour left) tan(neighbour right)
    Rule II: sin(middle) - cos(opposite) cos(opposite)
    Returns (rule_one, rule_two), two 5-tuples; all ten vanish exactly when
    the tuple belongs to a genuine right triangle.
    """
    s0, s1, s2, s3, s4 = map(math.sin, t.parts)
    t0, t1, t2, t3, t4 = map(math.tan, t.parts)
    c0, c1, c2, c3, c4 = map(math.cos, t.parts)
    rule_one = (s0 - t4 * t1, s1 - t0 * t2, s2 - t1 * t3, s3 - t2 * t4, s4 - t3 * t0)
    rule_two = (s0 - c2 * c3, s1 - c3 * c4, s2 - c4 * c0, s3 - c0 * c1, s4 - c1 * c2)
    return rule_one, rule_two


@dataclass(frozen=True)
class AlphaCycle:
    """Squared tangents (alpha, beta, gamma, delta, epsilon) of pentagon sides."""

    alphas: tuple[float, float, float, float, float]

    def __post_init__(self):
        if len(self.alphas) != 5:
            raise DomainError("an alpha cycle has exactly five entries")
        for a in self.alphas:
            if not ALPHA_MIN <= a <= ALPHA_MAX:
                raise DomainError(
                    f"alpha value {a!r} outside [{ALPHA_MIN}, {ALPHA_MAX}]: "
                    "pentagon collapsed or tangent overflowed")

    def relation_residuals(self) -> tuple[float, ...]:
        """Scaled residuals of 1 + a_i = a_{i+2} a_{i+3} at each position."""
        a0, a1, a2, a3, a4 = self.alphas
        return ((1.0 + a0 - a2 * a3) / (1.0 + a0), (1.0 + a1 - a3 * a4) / (1.0 + a1),
                (1.0 + a2 - a4 * a0) / (1.0 + a2), (1.0 + a3 - a0 * a1) / (1.0 + a3),
                (1.0 + a4 - a1 * a2) / (1.0 + a4))

    def omega(self) -> float:
        prod = 1.0
        for a in self.alphas:
            prod *= a
        return prod


def sides_from_alphas(c: AlphaCycle) -> tuple[float, ...]:
    """Inverse view: p_i = arctan sqrt(alpha_i)."""
    return tuple(math.atan(math.sqrt(a)) for a in c.alphas)


def complete_from_two(alpha: float, gamma: float) -> AlphaCycle:
    """Rebuild the full cycle from the first and third entries.

    beta = (1+alpha+gamma)/(alpha gamma), delta = (1+alpha)/gamma,
    epsilon = (1+gamma)/alpha; the five cyclic relations then hold
    identically.
    """
    if alpha <= 0.0 or gamma <= 0.0:
        raise DomainError("both seed quantities must be positive")
    beta = (1.0 + alpha + gamma) / (alpha * gamma)
    delta = (1.0 + alpha) / gamma
    epsilon = (1.0 + gamma) / alpha
    return AlphaCycle((alpha, beta, gamma, delta, epsilon))


def pentagram_invariants(c: AlphaCycle) -> tuple[float, float, float]:
    """(3 + sum, product, sqrt of product of (1+a_i)) — all three coincide."""
    a = c.alphas
    total = 3.0 + sum(a)
    prod = c.omega()
    augmented = 1.0
    for v in a:
        augmented *= 1.0 + v
    return total, prod, math.sqrt(augmented)


def pentagon_parts(sides, i: int) -> NapierParts:
    """Parts tuple of the i-th right triangle cut off the pentagon (i = 0..4).

    Entry pattern (complements of sides): indices i+1, i+4, i+2, i+5, i+3
    in one-based labels; successive i are related by the Gaussian reflection.
    """
    return NapierParts(tuple(0.5 * math.pi - sides[(i + d) % 5] for d in (1, 4, 2, 0, 3)))


@dataclass(frozen=True)
class SpherePentagon:
    """Five unit vertices on the sphere plus the arc lengths of the sides."""

    vertices: tuple[tuple[float, float, float], ...]  # rows P1..P5
    sides: tuple[float, ...]      # p_i = arctan sqrt(alpha_i), the arc P_{i+2} P_{i+3} (1-based)


def orthogonality_residuals(vertices) -> tuple[float, ...]:
    """Dot products P_{j-1} . P_{j+1} for j = 0..4; zero for a genuine pentagon."""
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3), (x4, y4, z4) = vertices
    return (x4 * x1 + y4 * y1 + z4 * z1, x0 * x2 + y0 * y2 + z0 * z2,
            x1 * x3 + y1 * y3 + z1 * z3, x2 * x4 + y2 * y4 + z2 * z4,
            x3 * x0 + y3 * y0 + z3 * z0)


def build_sphere_vertices(c: AlphaCycle) -> SpherePentagon:
    """Place the pentagon on the unit sphere in the standard frame.

    P3 = (1,0,0) and P1 = (0,1,0); P5 and P4 follow from sides p3 and p1;
    P2 spans the ray orthogonal to the P4, P5 plane.  The raw coordinates of
    P2 are along the correct ray but not unit length, so it is normalised.
    Raises InvariantError when the cycle is not a genuine pentagon (the
    orthogonality or cone-membership residuals then exceed GEOM_TOL).
    """
    p1, p2, p3, p4, p5 = sides_from_alphas(c)
    x2, y2, z2 = math.cos(p5), math.cos(p4), -math.cos(p3) * math.sin(p5)
    norm = math.hypot(x2, y2, z2)
    vertices = ((0.0, 1.0, 0.0),                            # P1
                (x2 / norm, y2 / norm, z2 / norm),          # P2
                (1.0, 0.0, 0.0),                            # P3
                (math.cos(p1), 0.0, math.sin(p1)),          # P4
                (0.0, math.cos(p3), math.sin(p3)))          # P5

    worst = max(abs(r) for r in orthogonality_residuals(vertices))
    if worst > GEOM_TOL:
        raise InvariantError(
            f"vertex orthogonality residual {worst:.3e} exceeds {GEOM_TOL:.1e}; "
            "the alpha cycle is not a pentagon")

    # membership in the quadric cone z^2 + p xz + q yz + r xy = 0 built from
    # the first and third cycle entries
    cone = cone_coefficients(c.alphas[0], c.alphas[2])
    for x, y, z in vertices:
        res = z * z + cone.p * x * z + cone.q * y * z + cone.r * x * y
        if abs(res) > GEOM_TOL:
            raise InvariantError(f"cone membership residual {res:.3e} exceeds {GEOM_TOL:.1e}")

    return SpherePentagon(vertices=vertices, sides=(p1, p2, p3, p4, p5))
