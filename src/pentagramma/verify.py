"""The acceptance battery: every release criterion as a named residual check.

Each criterion function returns a list of Check records; a check passes when
its residual is at or below its tolerance.  All randomness flows from one
seed so a fixed seed reproduces the report byte for byte.  The independent
second routes the checks compare against come from pentagramma.oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import (cone_spectrum, dilogarithm, elliptic_kernel, gauss_projection,
               napier_uniformization, oracles, pentagram_algebra, poncelet)
from .cone_spectrum import GOLDEN
from .errors import NoSolutionError

PI = math.pi

# u draws per modulus of the pentagon-law and five-term sweeps
_SAMPLES_PER_K = 20


@dataclass
class Check:
    name: str
    residual: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


class _Collector(list):
    def add(self, name: str, residual: float, tol: float, detail: str = "") -> None:
        self.append(Check(name=name, residual=float(residual), tol=tol, detail=detail))


def criterion_1(col: _Collector, rng) -> None:
    """The (9, 2/3, 2, 5, 1/3) example: exact cycle, omega, triple invariant."""
    cycle = pentagram_algebra.complete_from_two(9.0, 2.0)
    target = (9.0, 2.0 / 3.0, 2.0, 5.0, 1.0 / 3.0)
    col.add("example.cycle", max(abs(a - t) for a, t in zip(cycle.alphas, target)),
            1e-14)
    total, prod, augmented = pentagram_algebra.pentagram_invariants(cycle)
    col.add("example.omega", abs(prod - 20.0), 1e-14)
    col.add("example.invariant_sum", abs(total - 20.0), 1e-12)
    col.add("example.invariant_sqrt", abs(augmented - 20.0), 1e-12)


def criterion_2(col: _Collector, rng) -> None:
    """Spectral roots at omega = 20 and the root-product identities."""
    s = cone_spectrum.solve_characteristic(20.0)
    for name, got, want in (("G", s.G, -2.197), ("Gp", s.Gp, 1.069),
                            ("Gpp", s.Gpp, 2.128)):
        col.add(f"roots20.{name}", abs(got - want), 2e-3)
    col.add("roots20.products", max(abs(r) for r in s.product_residuals()), 1e-10)


def criterion_3(col: _Collector, rng) -> None:
    """Critical omega, and the cubic's simple root G and double root G' = G'' there."""
    w0 = cone_spectrum.OMEGA_CRITICAL
    col.add("critical.value", abs(w0 - 11.0901699), 1e-7)
    s = cone_spectrum.solve_characteristic(w0)
    col.add("critical.G", abs(oracles.characteristic_poly(s.G, w0)), 1e-9)
    # a double root is a root of the cubic and of its derivative 12t^2 - 8t + 1 - omega
    col.add("critical.double", max(max(abs(oracles.characteristic_poly(t, w0)),
                                       abs((12.0 * t - 8.0) * t + (1.0 - w0)))
                                   for t in (s.Gp, s.Gpp)), 1e-9)


def criterion_4(col: _Collector, rng) -> None:
    """Elliptic kernel against itself (identities) and against quadrature."""
    col.add("kernel.K0", abs(elliptic_kernel.complete_K(0.0) - PI / 2), 1e-15)

    worst_rt = worst_add = worst_main = 0.0
    # one block of draws in the order k, phi, u, v per sample, as plain floats;
    # lo + (hi - lo) * U is how Generator.uniform scales each draw
    for k_unit, phi_unit, u_unit, v_unit in rng.random((400, 4)).tolist():
        k = 0.95 * k_unit
        quarter = elliptic_kernel.complete_K(k)
        phi = PI / 2 * phi_unit
        worst_rt = max(worst_rt, abs(
            elliptic_kernel.am(elliptic_kernel.incomplete_F(phi, k), k) - phi))
        u = -3 * quarter + 6 * quarter * u_unit
        v = -3 * quarter + 6 * quarter * v_unit
        added = elliptic_kernel.jacobi_sum(u, v, k)
        direct = elliptic_kernel.jacobi_triple(u + v, k)
        worst_add = max(worst_add, abs(added.sn - direct.sn),
                        abs(added.cn - direct.cn), abs(added.dn - direct.dn))
        tu = elliptic_kernel.jacobi_triple(u, k)
        tv = elliptic_kernel.jacobi_triple(v, k)
        diff = elliptic_kernel.jacobi_triple(u - v, k)
        worst_main = max(worst_main, abs(
            diff.cn - (tu.cn * tv.cn + tu.sn * tv.sn * diff.dn)))
    col.add("kernel.roundtrip", worst_rt, 1e-12)
    col.add("kernel.addition", worst_add, 1e-12)
    col.add("kernel.main_formula", worst_main, 1e-12)

    worst_oracle = 0.0
    for _ in range(20):
        k = rng.uniform(0.0, 0.95)
        u = rng.uniform(0.0, elliptic_kernel.complete_K(k))
        phi = elliptic_kernel.am(u, k)
        worst_oracle = max(worst_oracle, abs(oracles.quad_F(phi, k) - u))
    worst_oracle = max(worst_oracle, abs(oracles.quad_F(PI / 2, 0.8)
                                         - elliptic_kernel.complete_K(0.8)))
    col.add("kernel.quadrature_oracle", worst_oracle, 1e-11)


def criterion_5(col: _Collector, rng) -> None:
    """Pentagon law on the (k, u) grid; regular values at k = 0."""
    worst_law = 0.0
    for frame in napier_uniformization.sweep_frames(rng, _SAMPLES_PER_K):
        cycle = napier_uniformization.alpha_sequence(frame)
        worst_law = max(worst_law, max(abs(r) for r in cycle.relation_residuals()))
    col.add("law.grid", worst_law, 1e-10)

    frame = napier_uniformization.frame_vectors(0.0, float(rng.uniform(0.0, 2.0)))
    a = napier_uniformization.alpha_sequence(frame).alphas
    col.add("law.regular_alpha", max(abs(v - GOLDEN) for v in a), 1e-12)
    col.add("law.regular_norm", max(
        abs(sum(c * c for c in v) - math.sqrt(5.0)) for v in frame.vectors), 1e-12)


def criterion_6(col: _Collector, rng) -> None:
    """The spectral-modulus bridge both ways across the k grid."""
    worst_cn = worst_dn = worst_formula = 0.0
    for k in napier_uniformization.K_GRID[1:]:
        omega = napier_uniformization.omega_of_k(k)
        s = cone_spectrum.solve_characteristic(omega)
        quarter = elliptic_kernel.complete_K(k)
        tri = elliptic_kernel.jacobi_triple(0.4 * quarter, k)
        k_spectral, cnw, dnw = cone_spectrum.modulus_from_spectrum(s)
        worst_cn = max(worst_cn, abs(tri.cn - cnw))
        worst_dn = max(worst_dn, abs(tri.dn - dnw))
        worst_formula = max(worst_formula, abs(k_spectral - k))
    col.add("bridge.cn", worst_cn, 1e-9)
    col.add("bridge.dn", worst_dn, 1e-9)
    col.add("bridge.k_formula", worst_formula, 1e-9)


def _projection_cases(rng):
    k20 = cone_spectrum.modulus_from_spectrum(
        cone_spectrum.solve_characteristic(20.0))[0]
    for k in (0.2, 0.5, k20):
        for u in rng.uniform(0.1, 1.0, size=3):
            frame = napier_uniformization.frame_vectors(k, float(u))
            pentagon = gauss_projection.pentagon_from_frame(frame)
            omega = napier_uniformization.alpha_sequence(frame).omega()
            yield pentagon, cone_spectrum.solve_characteristic(omega)


def criterion_7(col: _Collector, rng) -> None:
    """Anomaly identities, recovery formulas, confocal relation."""
    worst_theorem = worst_rec = worst_conf = 0.0
    for pentagon, s in _projection_cases(rng):
        worst_theorem = max(worst_theorem, *(
            abs(r) for row in gauss_projection.gauss_theorem_residuals(pentagon, s)
            for r in row))
        for i in range(5):
            worst_rec = max(
                worst_rec,
                math.dist(gauss_projection.recover_from_pm2(pentagon, i), pentagon.point(i)),
                math.dist(gauss_projection.recover_from_pm1(pentagon, s, i), pentagon.point(i)))
            worst_conf = max(worst_conf, abs(
                gauss_projection.confocal_residual(pentagon, s, i)))
    col.add("projection.theorem", worst_theorem, 1e-8)
    col.add("projection.recovery", worst_rec, 1e-9)
    col.add("projection.confocal", worst_conf, 1e-9)


def criterion_8(col: _Collector, rng) -> None:
    """Poncelet closure: the stated search, the porism, shadowing."""
    try:
        config = poncelet.search_closing_config(5, 2, 1.0, 0.4)
        worst = abs(poncelet.closure_residual(config, 5, 2))
        porism = poncelet.porism_residual(config, 5, 2, rng.uniform(0.0, 2 * PI, size=5))
        col.add("poncelet.search(5,2,R=1,r=0.4)", porism, 1e-8)
        col.add("poncelet.search_residual(5,2,R=1,r=0.4)", worst, 1e-12)
    except NoSolutionError as exc:
        detail = (f"{exc}; a 5/2 star cannot touch an inner circle beyond "
                  "~0.31 R, so this stated input has no closing distance")
        col.add("poncelet.search(5,2,R=1,r=0.4)", math.inf, 1e-8, detail)
        col.add("poncelet.search_residual(5,2,R=1,r=0.4)", math.inf, 1e-12, detail)

    # the same battery on a feasible star shows the machinery is sound
    config = poncelet.search_closing_config(5, 2, 1.0, 0.3)
    col.add("poncelet.search_residual(5,2,R=1,r=0.3)",
            abs(poncelet.closure_residual(config, 5, 2)), 1e-12)
    col.add("poncelet.porism(5,2,R=1,r=0.3)", poncelet.porism_residual(
        config, 5, 2, rng.uniform(0.0, 2 * PI, size=5)), 1e-8)

    worst_shadow = 0.0
    for cfg in (poncelet.TwoCircleConfig(1.0, 0.5, 0.2),
                poncelet.TwoCircleConfig(1.0, 0.4, 0.35),
                config):
        k, alpha = poncelet.modulus_of_config(cfg)
        step = elliptic_kernel.incomplete_F(alpha, k)
        phi0 = float(rng.uniform(0.0, 2 * PI))
        walk = poncelet.trajectory(cfg, phi0, 50)
        u0 = elliptic_kernel.incomplete_F(phi0, k)
        worst_shadow = max(worst_shadow, *(
            abs(phi - elliptic_kernel.am(u0 + i * step, k)) for i, phi in enumerate(walk.phis)))
    col.add("poncelet.shadowing", worst_shadow, 1e-9)


def criterion_9(col: _Collector, rng) -> None:
    """Dilogarithm values, the two functional equations, the pentagon sum."""
    col.add("dilog.landen", abs(dilogarithm.rogers_L(1.0 / GOLDEN) - PI ** 2 / 10),
            1e-12)
    worst_reflection = max(
        abs(dilogarithm.rogers_L(x) + dilogarithm.rogers_L(1.0 - x) - PI ** 2 / 6)
        for x in rng.uniform(1e-6, 1.0 - 1e-6, size=1000).tolist())
    col.add("dilog.reflection", worst_reflection, 1e-11)
    worst_spence = max(
        abs(dilogarithm.spence_residual(x, y))
        for x, y in rng.uniform(1e-6, 1.0 - 1e-6, size=(1000, 2)).tolist())
    col.add("dilog.spence", worst_spence, 1e-11)

    worst_sum = 0.0
    for frame in napier_uniformization.sweep_frames(rng, _SAMPLES_PER_K):
        worst_sum = max(worst_sum, abs(dilogarithm.pentagon_five_term(
            napier_uniformization.beta_sequence(frame))))
    col.add("dilog.pentagon_sum", worst_sum, 1e-10)


def criterion_10(col: _Collector, rng) -> None:
    """Napier's rules on oracle triangles and on the paper's five triangles of pentagons."""
    worst = max(abs(r) for legs in rng.uniform(0.2, 1.35, size=(100, 2)).tolist()
                for rule in pentagram_algebra.verify_napier(oracles.right_triangle(*legs)[0])
                for r in rule)
    col.add("napier.rules", worst, 1e-11)

    # (alpha, gamma) log-uniform on [1e-2, 1e2]; tau_{i+1} = g(tau_i) and tau_6 = tau_1
    worst, reflected = 0.0, True
    for seeds in (10.0 ** rng.uniform(-2.0, 2.0, size=(5, 2))).tolist():
        sides = pentagram_algebra.sides_from_alphas(pentagram_algebra.complete_from_two(*seeds))
        taus = [pentagram_algebra.pentagon_parts(sides, i) for i in range(5)]
        for tau, following in zip(taus, taus[1:] + taus[:1]):
            rule_one, rule_two = pentagram_algebra.verify_napier(tau)
            worst = max(worst, *map(abs, rule_one + rule_two))
            reflected = reflected and pentagram_algebra.gauss_reflect(tau) == following
    col.add("napier.pentagon_triangles", worst, 1e-11)
    col.add("napier.gauss_reflection", 0.0 if reflected else math.inf, 0.0)


CRITERIA = {
    1: ("Gauss example cycle and invariants", criterion_1),
    2: ("spectral roots at omega = 20", criterion_2),
    3: ("critical omega and double root", criterion_3),
    4: ("elliptic kernel identities and quadrature oracle", criterion_4),
    5: ("pentagon law on the modulus grid", criterion_5),
    6: ("spectral-modulus bridge", criterion_6),
    7: ("planar projection identities", criterion_7),
    8: ("Poncelet closure and porism", criterion_8),
    9: ("dilogarithm identities and pentagon sum", criterion_9),
    10: ("Napier rules on oracle and pentagon triangles", criterion_10),
}


def run_criterion(number: int, seed: int = 0) -> list[Check]:
    import numpy as np

    description, func = CRITERIA[number]
    col = _Collector()
    func(col, np.random.default_rng(seed + number))
    return list(col)


def run_all(seed: int = 0) -> dict[int, list[Check]]:
    return {number: run_criterion(number, seed=seed) for number in sorted(CRITERIA)}
