import math
import re

import numpy as np
import pytest

from pentagramma import poncelet
from pentagramma.elliptic_kernel import am, incomplete_F
from pentagramma.errors import DomainError, GeometryError, NoSolutionError
from pentagramma.poncelet import (TwoCircleConfig, chord_step, closure_residual,
                                  modulus_of_config, search_closing_config,
                                  trajectory, validate_config)


class TestValidateConfig:
    def test_valid(self):
        scaled = validate_config(TwoCircleConfig(2.0, 1.0, 0.4))
        assert scaled == TwoCircleConfig(1.0, 0.5, 0.2)

    def test_centre_outside_inner(self):
        with pytest.raises(GeometryError):
            validate_config(TwoCircleConfig(1.0, 0.5, 0.6))

    def test_not_nested(self):
        with pytest.raises(GeometryError):
            validate_config(TwoCircleConfig(1.0, 0.9, 0.2))

    def test_bad_radii(self):
        with pytest.raises(GeometryError):
            validate_config(TwoCircleConfig(1.0, -0.5, 0.2))


class TestModulus:
    def test_concentric(self):
        k, alpha = modulus_of_config(TwoCircleConfig(1.0, 0.5, 0.0))
        assert k == 0.0
        assert alpha == pytest.approx(math.acos(0.5), abs=1e-15)

    def test_reference_arithmetic(self):
        k, alpha = modulus_of_config(TwoCircleConfig(1.0, 0.5, 0.2))
        assert k * k == pytest.approx(0.8 / 1.19, abs=1e-15)
        assert alpha == pytest.approx(math.acos(5.0 / 12.0), abs=1e-15)
        # both closed forms of the complement
        assert math.sqrt(1 - (k * math.sin(alpha)) ** 2) == pytest.approx(
            0.8 / 1.2, abs=1e-15)

    def test_second_example(self):
        k, _ = modulus_of_config(TwoCircleConfig(1.0, 0.3, 0.25))
        assert k * k == pytest.approx(1.0 / (1.5625 - 0.09), abs=1e-15)
        assert 0.0 < k < 1.0


class TestChordStep:
    def test_concentric_constant_step(self, rng):
        config = TwoCircleConfig(1.0, 0.5, 0.0)
        gap = math.acos(0.5)
        for phi in rng.uniform(0.0, 6.0, size=20):
            assert chord_step(config, float(phi)) == pytest.approx(
                phi + gap, abs=1e-14)

    def test_first_step_from_zero(self):
        config = TwoCircleConfig(1.0, 0.5, 0.2)
        assert chord_step(config, 0.0) == pytest.approx(
            math.acos(0.5 / 1.2), abs=1e-14)

    def test_recursion_holds_along_walk(self):
        config = TwoCircleConfig(1.0, 0.5, 0.2)
        walk = trajectory(config, 0.37, 40).phis
        rho = (config.R - config.a) / (config.R + config.a)
        for i in range(1, 40):
            half = 0.5 * (walk[i + 1] + walk[i - 1])
            res = (math.sin(half) * math.cos(walk[i])
                   - rho * math.cos(half) * math.sin(walk[i]))
            assert abs(res) < 1e-10

    def test_tangency_along_walk(self):
        R, r, a = 1.0, 0.4, 0.35
        config = TwoCircleConfig(R, r, a)
        walk = trajectory(config, 1.234, 30).phis
        for p, q in zip(walk, walk[1:]):
            touched = (R + a) * math.cos(q) * math.cos(p) \
                + (R - a) * math.sin(q) * math.sin(p)
            assert touched == pytest.approx(r, abs=1e-13)

    def test_chord_construction_forms_agree(self, rng):
        # the geometric form R cos(q-p) + a cos(q+p) and the product form
        # (R+a) cos q cos p + (R-a) sin q sin p are the same constraint
        R, r, a = 1.0, 0.5, 0.2
        config = TwoCircleConfig(R, r, a)
        for phi in rng.uniform(0.0, 2 * math.pi, size=20):
            q = chord_step(config, float(phi))
            geometric = R * math.cos(q - phi) + a * math.cos(q + phi)
            product = (R + a) * math.cos(q) * math.cos(phi) \
                + (R - a) * math.sin(q) * math.sin(phi)
            assert geometric == pytest.approx(product, abs=1e-14)
            assert geometric == pytest.approx(r, abs=1e-13)


UNNESTED = [TwoCircleConfig(1.0, 0.5, 0.6), TwoCircleConfig(1.0, 0.9, 0.2),
            TwoCircleConfig(1.0, -0.5, 0.2), TwoCircleConfig(-1.0, 0.5, 0.2),
            TwoCircleConfig(1.0, 0.5, -0.1)]


@pytest.mark.parametrize("config", UNNESTED)
def test_walk_on_unnested_config_raises(config):
    with pytest.raises(GeometryError) as expected:
        validate_config(config)
    message = re.escape(str(expected.value))
    with pytest.raises(GeometryError, match=message):
        chord_step(config, 0.3)
    with pytest.raises(GeometryError, match=message):
        chord_step(config, 0.3, prev=0.1)
    with pytest.raises(GeometryError, match=message):
        trajectory(config, 0.3, 5)


class TestTrajectory:
    def test_length_and_monotonicity(self):
        walk = trajectory(TwoCircleConfig(1.0, 0.5, 0.2), 0.0, 25).phis
        assert len(walk) == 26
        assert np.all(np.diff(walk) > 0.0)

    def test_elliptic_shadowing(self, rng):
        for R, r, a in ((1.0, 0.5, 0.2), (1.0, 0.4, 0.35), (2.0, 0.9, 0.5)):
            config = TwoCircleConfig(R, r, a)
            k, alpha = modulus_of_config(config)
            step = incomplete_F(alpha, k)
            phi0 = float(rng.uniform(0.0, 2 * math.pi))
            walk = trajectory(config, phi0, 50).phis
            u0 = incomplete_F(phi0, k)
            shadow = [am(u0 + i * step, k) for i in range(51)]
            assert np.abs(walk - np.array(shadow)).max() < 1e-9

    def test_rejects_empty_walk(self):
        with pytest.raises(DomainError):
            trajectory(TwoCircleConfig(1.0, 0.5, 0.2), 0.0, 0)


class TestClosureResidual:
    def test_concentric_exact_zero(self):
        for n, m in ((5, 2), (3, 1), (7, 2)):
            config = TwoCircleConfig(1.0, math.cos(m * math.pi / n), 0.0)
            assert closure_residual(config, n, m) == 0.0

    def test_non_closing_config(self):
        assert abs(closure_residual(TwoCircleConfig(1.0, 0.5, 0.2), 5, 2)) > 1e-4

    def test_bad_pair(self):
        with pytest.raises(DomainError):
            closure_residual(TwoCircleConfig(1.0, 0.5, 0.2), 2, 1)


class TestSearchClosingConfig:
    def test_triangle_matches_euler_formula(self):
        # for one chord per turn and three chords the centre distance obeys
        # a^2 = R(R - 2r)
        config = search_closing_config(3, 1, 1.0, 0.45)
        assert config.a == pytest.approx(math.sqrt(0.1), abs=1e-12)
        assert abs(closure_residual(config, 3, 1)) < 1e-12

    def test_star_pentagon(self, rng):
        config = search_closing_config(5, 2, 1.0, 0.3)
        assert abs(closure_residual(config, 5, 2)) < 1e-12
        for phi0 in rng.uniform(0.0, 2 * math.pi, size=5):
            walk = trajectory(config, float(phi0), 5).phis
            assert walk[-1] - walk[0] == pytest.approx(2 * math.pi, abs=1e-8)

    def test_quadrilateral(self, rng):
        config = search_closing_config(4, 1, 1.0, 0.6)
        for phi0 in rng.uniform(0.0, 2 * math.pi, size=5):
            walk = trajectory(config, float(phi0), 4).phis
            assert walk[-1] - walk[0] == pytest.approx(math.pi, abs=1e-8)

    def test_oversized_inner_circle(self):
        # a 5/2 star cannot touch an inner circle beyond ~0.31 R
        with pytest.raises(NoSolutionError):
            search_closing_config(5, 2, 1.0, 0.4)

    @pytest.mark.parametrize("n, m", [(5, 4), (5, 3), (4, 2), (7, 4)])
    def test_half_turn_bound_named_before_evaluation(self, n, m, monkeypatch):
        # F(alpha) < K for every nested pair, so m/n >= 1/2 never closes
        def no_evaluation(*args):
            raise AssertionError("closure residual evaluated")

        monkeypatch.setattr(poncelet, "closure_residual", no_evaluation)
        with pytest.raises(NoSolutionError, match=r"F\(alpha\)/2K is below 1/2") as info:
            search_closing_config(n, m, 1.0, 0.1)
        assert f"({n}, {n - m}) is the same polygon walked backwards" in str(info.value)

    def test_porism_start_independence(self, rng):
        config = search_closing_config(5, 2, 1.0, 0.29)
        closures = []
        for phi0 in rng.uniform(0.0, 2 * math.pi, size=5):
            walk = trajectory(config, float(phi0), 5).phis
            closures.append(walk[-1] - walk[0] - 2 * math.pi)
        assert max(abs(c) for c in closures) < 1e-8
