import math

import numpy as np
import pytest

from pentagramma.cone_spectrum import (modulus_from_spectrum, solve_characteristic)
from pentagramma.errors import InvariantError, OffEllipseError, SingularError
from pentagramma.gauss_projection import (PlanarPentagon, _fit_axes, confocal_residual,
                                          eccentric_anomaly, gauss_theorem_residuals,
                                          pentagon_from_frame, recover_from_pm1,
                                          recover_from_pm2)
from pentagramma.napier_uniformization import alpha_sequence, frame_vectors
from pentagramma.oracles import chord_alphas, chord_betas
from pentagramma.pentagram_algebra import GOLDEN


def k_for_omega20():
    return modulus_from_spectrum(solve_characteristic(20.0))[0]


def make_case(k, u):
    frame = frame_vectors(k, u)
    pentagon = pentagon_from_frame(frame)
    spectral = solve_characteristic(alpha_sequence(frame).omega())
    return frame, pentagon, spectral


class TestEccentricAnomaly:
    def test_on_axis_points(self):
        axes = (2.0, 1.0)
        assert eccentric_anomaly((2.0, 0.0), axes) == 0.0
        assert eccentric_anomaly((0.0, 1.0), axes) == pytest.approx(
            math.pi / 2, abs=1e-15)

    def test_roundtrip(self):
        axes = (2.0, 1.0)
        point = (2.0 * math.cos(1.0), math.sin(1.0))
        assert eccentric_anomaly(point, axes) == pytest.approx(1.0, abs=1e-14)

    def test_off_ellipse_rejected(self):
        with pytest.raises(OffEllipseError):
            eccentric_anomaly((2.1, 0.1), (2.0, 1.0))


class TestPentagonFromFrame:
    def test_regular_circle(self, rng):
        _, pentagon, _ = make_case(0.0, float(rng.uniform(0, 2)))
        radius = math.sqrt(2.0 / GOLDEN)
        assert pentagon.axes == pytest.approx((radius, radius), abs=1e-12)
        norms = np.linalg.norm(pentagon.points, axis=1)
        assert norms == pytest.approx(np.full(5, radius), abs=1e-12)
        steps = np.diff([pentagon.anomaly(j) for j in range(6)])
        assert steps == pytest.approx(np.full(5, 2 * math.pi / 5), abs=1e-12)

    def test_axes_match_root_ratios(self):
        for k in (0.3, k_for_omega20()):
            _, pentagon, s = make_case(k, 0.4)
            assert pentagon.axes[0] == pytest.approx(
                math.sqrt(-s.G / s.Gp), abs=1e-8)
            assert pentagon.axes[1] == pytest.approx(
                math.sqrt(-s.G / s.Gpp), abs=1e-8)

    def test_anomalies_increase(self):
        _, pentagon, _ = make_case(0.7, 0.9)
        seq = [pentagon.anomaly(j) for j in range(7)]
        assert all(a < b for a, b in zip(seq, seq[1:]))
        assert pentagon.anomaly(5) == pentagon.anomaly(0) + 2 * math.pi

    def test_orthogonality(self):
        _, pentagon, _ = make_case(0.5, 0.23)
        for i in range(5):
            xp, yp = pentagon.point(i - 1)
            xn, yn = pentagon.point(i + 1)
            assert xp * xn + yp * yn + 1.0 == pytest.approx(0.0, abs=1e-12)


class TestFitAxes:
    def test_matches_linear_solve(self, rng):
        for _ in range(200):
            a, b = rng.uniform(0.1, 10.0, size=2)
            t = rng.uniform(0.0, 2 * math.pi, size=5)
            pts = [(a * math.cos(v), b * math.sin(v)) for v in t]
            (x0, y0), (x1, y1) = pts[0], pts[1]
            inv_a2, inv_b2 = np.linalg.solve([[x0 ** 2, y0 ** 2], [x1 ** 2, y1 ** 2]],
                                             np.ones(2))
            want = (1.0 / math.sqrt(inv_a2), 1.0 / math.sqrt(inv_b2))
            assert _fit_axes(pts) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert _fit_axes(np.array(pts)) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_degenerate_pairs_rejected(self):
        # every vertex has the same x^2 and y^2, so no pair fixes the axes
        pts = [(1.0, 2.0), (-1.0, 2.0), (1.0, -2.0), (-1.0, -2.0), (1.0, 2.0)]
        with pytest.raises(InvariantError, match="degenerate"):
            _fit_axes(pts)

    def test_hyperbola_rejected(self):
        pts = [(1.0, 0.0), (math.sqrt(2.0), 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
        with pytest.raises(InvariantError, match="ellipse"):
            _fit_axes(pts)


class TestChordQuantities:
    def test_alphas_match_ray_route(self):
        frame, pentagon, _ = make_case(0.5, 0.3)
        from_rays = alpha_sequence(frame).alphas
        assert chord_alphas(pentagon) == pytest.approx(from_rays, abs=1e-10)

    def test_betas_are_alpha_ratios(self):
        _, pentagon, _ = make_case(0.4, 0.8)
        alphas = chord_alphas(pentagon)
        betas = chord_betas(pentagon)
        for a, b in zip(alphas, betas):
            assert b == pytest.approx(a / (1 + a), abs=1e-13)


class TestRecovery:
    @pytest.mark.parametrize("k,u", [(0.0, 0.9), (0.2, 0.31), (0.5, 0.72)])
    def test_both_routes_match_stored(self, k, u):
        _, pentagon, s = make_case(k, u)
        for i in range(5):
            assert recover_from_pm2(pentagon, i) == pytest.approx(
                pentagon.point(i), abs=1e-9)
            assert recover_from_pm1(pentagon, s, i) == pytest.approx(
                pentagon.point(i), abs=1e-9)

    def test_routes_agree_with_each_other(self):
        _, pentagon, s = make_case(k_for_omega20(), 0.4)
        for i in range(5):
            assert recover_from_pm2(pentagon, i) == pytest.approx(
                recover_from_pm1(pentagon, s, i), abs=1e-8)

    def test_collinear_rejected(self):
        # handcrafted degenerate data: the two reference points (indices 2
        # and 3 for i = 0) sit on one ray through the origin
        pentagon = PlanarPentagon(
            points=np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0],
                             [2.0, 2.0], [0.0, 1.0]]),
            axes=(1.0, 1.0), anomalies=(0.0, 1.0, 2.0, 3.0, 4.0))
        with pytest.raises(SingularError):
            recover_from_pm2(pentagon, 0)


class TestConfocalRelation:
    @pytest.mark.parametrize("k,u", [(0.2, 0.5), (0.5, 0.11), (0.0, 0.77)])
    def test_residuals_vanish(self, k, u):
        _, pentagon, s = make_case(k, u)
        for i in range(5):
            assert abs(confocal_residual(pentagon, s, i)) < 1e-9

    def test_random_points_fail(self, rng):
        _, pentagon, s = make_case(0.5, 0.4)
        shuffled = PlanarPentagon(points=pentagon.points + rng.uniform(0.5, 1.0, (5, 2)),
                                  axes=pentagon.axes, anomalies=pentagon.anomalies)
        assert max(abs(confocal_residual(shuffled, s, i)) for i in range(5)) > 1e-3


class TestAnomalyTheorem:
    @pytest.mark.parametrize("k", [0.2, 0.5])
    def test_frame_pentagons(self, k, rng):
        for u in rng.uniform(0.1, 1.0, size=3):
            _, pentagon, s = make_case(k, float(u))
            residuals = gauss_theorem_residuals(pentagon, s)
            assert np.abs(residuals).max() < 1e-8

    def test_omega20_class(self):
        _, pentagon, s = make_case(k_for_omega20(), 0.52)
        assert np.abs(gauss_theorem_residuals(pentagon, s)).max() < 1e-8

    def test_regular_pentagon(self):
        _, pentagon, s = make_case(0.0, 0.3)
        assert np.abs(gauss_theorem_residuals(pentagon, s)).max() < 1e-10

    def test_perturbed_pentagon_fails(self):
        _, pentagon, s = make_case(0.5, 0.4)
        bent = PlanarPentagon(points=pentagon.points, axes=pentagon.axes,
                              anomalies=tuple(a + 0.05 * (-1) ** j
                                              for j, a in enumerate(pentagon.anomalies)))
        assert np.abs(gauss_theorem_residuals(bent, s)).max() > 1e-3
