import dataclasses
import math

import numpy as np
import pytest

from pentagramma.cone_spectrum import (modulus_from_spectrum, solve_characteristic)
from pentagramma.errors import InvariantError, OffEllipseError, SingularError
from pentagramma.gauss_projection import (PlanarPentagon, confocal_residual, eccentric_anomaly,
                                          gauss_theorem_residuals, pentagon_from_frame,
                                          recover_from_pm1, recover_from_pm2)
from pentagramma.napier_uniformization import alpha_sequence, frame_vectors, sweep_frames
from pentagramma.oracles import chord_alphas, chord_betas
from pentagramma.cone_spectrum import GOLDEN


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

    @pytest.mark.parametrize("u", [-1e-17, -1e-300, -5e-324])
    def test_just_below_the_axis_wraps_to_zero(self, u):
        # atan2 gives a tiny negative angle, and x % 2pi rounds that up to 2pi itself
        assert eccentric_anomaly((2.0, u), (2.0, 1.0)) == 0.0
        assert pentagon_from_frame(frame_vectors(0.5, u)).anomalies[0] == 0.0


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
        for k in (0.0099, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98, k_for_omega20()):
            _, pentagon, s = make_case(k, 0.4)
            assert pentagon.axes[0] == pytest.approx(
                math.sqrt(-s.G / s.Gp), rel=1e-10, abs=0.0)
            assert pentagon.axes[1] == pytest.approx(
                math.sqrt(-s.G / s.Gpp), rel=1e-10, abs=0.0)

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

    @pytest.mark.parametrize("field", ["cn_fifth", "dn_fifth"])
    def test_lattice_constant_checked_against_rows(self, field):
        frame = frame_vectors(0.5, 0.3)
        bent = dataclasses.replace(frame, **{field: getattr(frame, field) * (1 + 1e-8)})
        with pytest.raises(OffEllipseError):
            pentagon_from_frame(bent)

    def test_moved_row_rejected(self):
        frame = frame_vectors(0.5, 0.3)
        x, y, z = frame.vectors[2]
        rows = frame.vectors[:2] + ((x * 1.001, y, z),) + frame.vectors[3:]
        with pytest.raises(InvariantError, match="next-nearest rays are not orthogonal"):
            pentagon_from_frame(dataclasses.replace(frame, vectors=rows))


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

    def test_sums_through_anomaly_bit_for_bit(self):
        # the residuals as first formed, anomalies read through PlanarPentagon.anomaly(j)
        def reference(p, s):
            G, Gp, Gpp = s.G, s.Gp, s.Gpp
            coeff_pp = G * (2.0 * G - 1.0) / (Gpp * (2.0 * Gpp - 1.0))
            coeff_p = G * (2.0 * G - 1.0) / (Gp * (2.0 * Gp - 1.0))
            res = ([], [], [], [])
            for i in range(5):
                phi = p.anomaly(i)
                fm2, fp2 = p.anomaly(i - 2), p.anomaly(i + 2)
                half_sum = 0.5 * (fm2 + fp2)
                half_diff = math.cos(0.5 * (fm2 - fp2))
                res[0].append(math.sin(half_sum) / half_diff - (G / Gpp) * math.sin(phi))
                res[1].append(math.cos(half_sum) / half_diff - (G / Gp) * math.cos(phi))
                fm1, fp1 = p.anomaly(i - 1), p.anomaly(i + 1)
                half_sum = 0.5 * (fm1 + fp1)
                half_diff = math.cos(0.5 * (fm1 - fp1))
                res[2].append(math.sin(half_sum) / half_diff - coeff_pp * math.sin(phi))
                res[3].append(math.cos(half_sum) / half_diff - coeff_p * math.cos(phi))
            return tuple(tuple(row) for row in res)

        for frame in sweep_frames(np.random.default_rng(7), 30):
            pentagon = pentagon_from_frame(frame)
            s = solve_characteristic(alpha_sequence(frame).omega())
            ours, ref = gauss_theorem_residuals(pentagon, s), reference(pentagon, s)
            assert [[x.hex() for x in row] for row in ours] == \
                [[x.hex() for x in row] for row in ref], (frame.k, frame.u)
