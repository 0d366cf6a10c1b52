import dataclasses
import math
import re
import types

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagramma import poncelet
from pentagramma.elliptic_kernel import MAX_MODULUS, am, incomplete_F
from pentagramma.errors import (DomainError, GeometryError, InvariantError, NoSolutionError,
                                NoTangentError)
from pentagramma.poncelet import (PHI0_MAX, TwoCircleConfig, chord_step, closure_residual,
                                  modulus_of_config, search_closing_config, trajectory)


class TestValidateConfig:
    # a configuration checks itself once, when made; no later call re-checks it
    def test_valid(self):
        config = TwoCircleConfig(2.0, 1.0, 0.4)
        assert (config.R, config.r, config.a) == (2.0, 1.0, 0.4)

    def test_centre_outside_inner(self):
        with pytest.raises(GeometryError):
            TwoCircleConfig(1.0, 0.5, 0.6)
        # nested, a + r < R, but the outer centre lies outside the inner circle
        with pytest.raises(GeometryError, match="outer centre must lie inside"):
            TwoCircleConfig(1.0, 0.3, 0.4)

    def test_not_nested(self):
        with pytest.raises(GeometryError, match="not strictly nested"):
            TwoCircleConfig(1.0, 0.9, 0.2)

    def test_bad_radii(self):
        with pytest.raises(GeometryError, match=re.escape("inner radius r=-0.5")):
            TwoCircleConfig(1.0, -0.5, 0.2)

    @pytest.mark.parametrize("config, named", [
        ((math.nan, 0.3, 0.1), "R=nan"),
        ((math.inf, 0.3, 0.1), "R=inf"),
        ((1.0, math.nan, 0.1), "r=nan"),
        ((1.0, 0.3, math.nan), "a=nan")])
    def test_non_finite_input_named(self, config, named):
        with pytest.raises(GeometryError, match=re.escape(named)):
            TwoCircleConfig(*config)

    def test_replace_is_checked(self):
        valid = TwoCircleConfig(1.0, 0.5, 0.2)
        with pytest.raises(GeometryError, match=re.escape("a + r = 1.1 >= R = 1.0")):
            dataclasses.replace(valid, a=0.6)

    def test_replace_recomputes_ratios(self):
        # s = a/R, t = r/R, k and alpha are derived, so neither the constructor, repr nor
        # == shows them
        original = TwoCircleConfig(1.0, 0.5, 0.2)
        config = dataclasses.replace(original, R=2.0, a=0.4)
        assert (config.s, config.t) == (0.2, 0.25)
        fresh = TwoCircleConfig(1.0, 0.25, 0.2)
        assert (config.k, config.alpha) == (fresh.k, fresh.alpha) != (original.k, original.alpha)
        assert repr(config) == "TwoCircleConfig(R=2.0, r=0.5, a=0.4)"
        assert config == TwoCircleConfig(2.0, 0.5, 0.4)


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

    @pytest.mark.parametrize("R", [1e-200, 1e-20, 1e-6, 1e6, 1e200, 1.7e308])
    def test_scale_free(self, R):
        # k reads a/R and r/R alone; (R + a)^2 overflows at R = 1e200 and underflows at
        # 1e-200, and R + a itself overflows at 1.7e308
        unit, _ = modulus_of_config(TwoCircleConfig(1.0, 0.3, 0.2))
        k, _ = modulus_of_config(TwoCircleConfig(R, 0.3 * R, 0.2 * R))
        assert _ulps(k, unit) <= 1

    # nested pairs within rounding of tangency, refused when made: k^2 rounds to 1 for
    # the first, and k = 0.999999999999934 is past the kernel's bound for the second
    @pytest.mark.parametrize("a", [0.23680569595328171, 0.2368056959532])
    def test_near_tangent_pair_names_the_bound(self, a):
        r = 0.7631943040467181
        named = re.escape(f"exceeds MAX_MODULUS = {MAX_MODULUS!r}: a + r = {a + r!r} "
                          f"is too close to R = 1.0")
        with pytest.raises(DomainError, match=named):
            TwoCircleConfig(1.0, r, a)
        with pytest.raises(DomainError, match=named):
            dataclasses.replace(TwoCircleConfig(1.0, 0.5, 0.2), r=r, a=a)

    # the config checks k and alpha against both closed forms of the complement when made;
    # a broken libm function drives one form past 1e-12, and the message names its residual
    def test_broken_sqrt_form_is_a_config_fault(self, monkeypatch):
        def bad_sin(x):
            return math.sin(x) * (1.0 + 1e-9)

        s, t = 0.2, 0.5
        k = math.sqrt(4.0 * s / ((1.0 + s) ** 2 - t ** 2))
        expected = abs(math.sqrt(1.0 - (k * bad_sin(math.acos(t / (1.0 + s)))) ** 2)
                       - (1.0 - s) / (1.0 + s))
        monkeypatch.setattr(poncelet, "math", types.SimpleNamespace(**{**vars(math),
                                                                       "sin": bad_sin}))
        with pytest.raises(InvariantError, match=re.escape(
                f"modulus consistency broke: residual {expected!r} > 1e-12")):
            TwoCircleConfig(1.0, t, s)

    def test_broken_cosine_form_is_a_config_fault(self, monkeypatch):
        # k = 0 zeroes the sqrt form, so the residual is |cos(alpha) - r/R| alone
        def bad_cos(x):
            return math.cos(x) + 1e-9

        expected = abs(bad_cos(math.acos(0.5)) - 0.5)
        monkeypatch.setattr(poncelet, "math", types.SimpleNamespace(**{**vars(math),
                                                                       "cos": bad_cos}))
        with pytest.raises(InvariantError, match=re.escape(
                f"modulus consistency broke: residual {expected!r} > 1e-12")):
            TwoCircleConfig(1.0, 0.5, 0.0)


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


def _nested(R, r_share, a_share):
    # a strictly nested pair with the outer centre inside the inner circle
    r = R * r_share
    return TwoCircleConfig(R, r, a_share * min(r, R - r))


def _shift_turns(phi, turns):
    # phi + 2 pi turns, rounded once
    with mpmath.workdps(40):
        return float(mpmath.mpf(phi) + 2 * turns * mpmath.pi)


class TestChordStepProperties:
    @given(st.floats(0.5, 4.0), st.floats(0.05, 0.95), st.floats(0.0, 0.99),
           st.floats(-1e4, 1e4))
    @settings(max_examples=300)
    def test_forward_tangent_chord(self, R, r_share, a_share, phi):
        config = _nested(R, r_share, a_share)
        q = chord_step(config, phi)
        assert 0.0 < q - phi < math.pi
        # the step is 2 pi periodic: take it on the reduced angle and shift back
        turns = math.floor(phi / (2 * math.pi))
        reduced = _shift_turns(phi, -turns)
        q_reduced = chord_step(config, reduced)
        assert abs(_shift_turns(q_reduced, turns) - q) <= 4 * math.ulp(abs(phi) + math.pi)
        # tangency on the reduced angles, where the double q_reduced rounds
        # below 1e-15 (q itself rounds at ulp(phi), up to 1.8e-12 here)
        touched = (config.R + config.a) * math.cos(q_reduced) * math.cos(reduced) \
            + (config.R - config.a) * math.sin(q_reduced) * math.sin(reduced)
        assert abs(touched - config.r) < 1e-13


def _reference_chord_step(c, phi, prev=None):
    # the chord step that tries both candidate offsets psi - phi +- acos(t/amp) and
    # takes the one in (0, pi); returns the next angle and whether it took the - one
    s, t = c.s, c.t
    sin_phi, cos_phi = math.sin(phi), math.cos(phi)
    re_part = 1.0 + s * (cos_phi - sin_phi) * (cos_phi + sin_phi)
    im_part = -2.0 * s * sin_phi * cos_phi
    amp = math.hypot(re_part, im_part)
    if amp < t:
        raise NoTangentError("no real chord: configuration outside validity")
    base = math.atan2(im_part, re_part)
    delta = math.acos(t / amp)
    ahead, behind = base + delta, base - delta
    ahead_forward = 0.0 < ahead < math.pi
    if ahead_forward == (0.0 < behind < math.pi):
        raise NoTangentError(f"forward branch ambiguous at phi={phi!r}")
    nxt = phi + (ahead if ahead_forward else behind)
    if prev is not None:
        half = 0.5 * (nxt + prev)
        res = math.sin(half) * cos_phi - c.rho * math.cos(half) * sin_phi
        if abs(res) > 1e-10:
            raise InvariantError(f"chord recursion residual {res:.3e}")
    return nxt, not ahead_forward


def _reference_trajectory(c, phi0, n):
    # trajectory's phase-reduced walk, step for step, on the two-branch chord step
    two_pi_hi, two_pi_lo = poncelet._TWO_PI_HI, poncelet._TWO_PI_LO
    theta = float(phi0)
    bound = theta + two_pi_hi
    phis = [theta]
    prev, turns, lo, hi = None, 0, 0.0, 0.0
    for _ in range(n):
        nxt, _ = _reference_chord_step(c, theta, prev)
        prev = theta
        if nxt >= bound:
            nxt = nxt - two_pi_hi - two_pi_lo
            prev = prev - two_pi_hi - two_pi_lo
            turns += 1
            lo, hi = turns * two_pi_lo, turns * two_pi_hi
        phis.append(nxt + lo + hi)
        theta = nxt
    return phis


class TestForwardBranch:
    """The one-branch chord step against the two-branch reference it replaced."""

    # the closing 5/2, 7/2 and 8/3 stars of the poncelet_walk benchmark, and a = 0
    @pytest.mark.parametrize("n, m, t", [(5, 2, 0.3), (7, 2, 0.6), (8, 3, 0.35),
                                         (None, None, 0.3)])
    @pytest.mark.parametrize("R", [1e-12, 2.0, 1.7e308])
    def test_walk_matches_two_branch_reference_bit_for_bit(self, n, m, t, R):
        if n is None:
            config = TwoCircleConfig(R, t * R, 0.0)
        else:
            config = search_closing_config(n, m, R, t * R)
        for phi0 in (0.0, 0.37, -3.0, PHI0_MAX, -PHI0_MAX):
            walk = trajectory(config, phi0, 2_000).phis
            expected = _reference_trajectory(config, phi0, 2_000)
            assert [x.hex() for x in walk.tolist()] == [x.hex() for x in expected], phi0

    # |psi - phi| <= asin(s) < pi/2 and acos(t/amp) <= pi/2 keep the + offset below pi
    @given(st.floats(1e-12, 1e12), st.floats(0.01, 0.99), st.floats(0.0, 0.999),
           st.floats(-PHI0_MAX, PHI0_MAX))
    @settings(max_examples=500)
    def test_reference_never_takes_the_minus_offset(self, R, r_share, a_share, phi):
        config = _nested(R, r_share, a_share)
        nxt, behind = _reference_chord_step(config, phi)
        assert not behind
        assert chord_step(config, phi).hex() == nxt.hex()

    def test_nan_angle_is_ambiguous(self):
        with pytest.raises(NoTangentError, match="forward branch ambiguous at phi=nan"):
            chord_step(TwoCircleConfig(1.0, 0.5, 0.2), math.nan)

    def test_wrong_previous_vertex_fails_the_recursion(self):
        config = TwoCircleConfig(1.0, 0.5, 0.2)
        prev = -chord_step(config, -0.4)  # the true previous vertex, by reflection
        chord_step(config, 0.4, prev)
        with pytest.raises(InvariantError, match="chord recursion residual"):
            chord_step(config, 0.4, prev + 1e-3)

    def test_trajectory_steps_through_the_module(self, monkeypatch):
        # the benchmark tracer rebinds poncelet.chord_step and counts one call a chord;
        # a walk that bound the step elsewhere would hide its chords from it
        config = search_closing_config(5, 2, 1.0, 0.3)
        calls = []

        def counting(*args):
            calls.append(args)
            return chord_step(*args)

        monkeypatch.setattr(poncelet, "chord_step", counting)
        trajectory(config, 0.4, 37)
        assert len(calls) == 37


# (R, r, a) breaking a bound: nesting (twice), r > 0, R > 0, a >= 0
UNNESTED = [(1.0, 0.5, 0.6), (1.0, 0.9, 0.2), (1.0, -0.5, 0.2), (-1.0, 0.5, 0.2),
            (1.0, 0.5, -0.1)]


@pytest.mark.parametrize("config", UNNESTED)
def test_walk_on_unnested_config_raises(config):
    # no walk can start from an unnested pair: neither a new config nor a
    # replaced valid one gets made, and both name the same bound
    with pytest.raises(GeometryError) as expected:
        TwoCircleConfig(*config)
    message = re.escape(str(expected.value))
    R, r, a = config
    with pytest.raises(GeometryError, match=message):
        dataclasses.replace(TwoCircleConfig(1.0, 0.5, 0.2), R=R, r=r, a=a)


class TestTrajectory:
    def test_length_and_monotonicity(self):
        for phi0 in (0.0, -3.0, 1e3, PHI0_MAX, -PHI0_MAX):
            walk = trajectory(TwoCircleConfig(1.0, 0.5, 0.2), phi0, 25).phis
            assert len(walk) == 26
            assert walk[0] == phi0
            assert np.all(np.diff(walk) > 0.0)

    def test_elliptic_shadowing(self, rng):
        # R + a overflows for the last pair; the walk reads a/R and r/R
        for R, r, a in ((1.0, 0.5, 0.2), (1.0, 0.4, 0.35), (2.0, 0.9, 0.5),
                        (1.7e308, 5e307, 1e307)):
            config = TwoCircleConfig(R, r, a)
            k, alpha = modulus_of_config(config)
            step = incomplete_F(alpha, k)
            phi0 = float(rng.uniform(0.0, 2 * math.pi))
            walk = trajectory(config, phi0, 200).phis
            u0 = incomplete_F(phi0, k)
            shadow = [am(u0 + i * step, k) for i in range(201)]
            assert np.abs(walk - np.array(shadow)).max() < 1e-9

    @pytest.mark.parametrize("phi0", [0.0, 0.37, 1.0, 4.0])
    def test_long_walk_porism(self, phi0):
        # 10^5 chords of the closing 5/2 star: the porism phi(5j) - phi0 - 2 j pi
        # holds at every 10^4 chords; at phi0 = 0 exact offsets on the cumulative
        # angle drift to 5e-10 by 10^4 chords, at 0.37 the cumulative walk
        # reaches 3.6e-10 by 10^5
        config = search_closing_config(5, 2, 1.0, 0.3)
        walk = trajectory(config, phi0, 100_000).phis
        for i in range(10_000, 100_001, 10_000):
            assert abs(walk[i] - phi0 - (i // 5) * 2 * math.pi) < 1e-10, i

    def test_walk_matches_mpmath(self):
        # the same chords at 30 digits, from the same double R, r, a and phi0
        config = search_closing_config(8, 3, 1.0, 0.35)
        phi0 = 0.8
        walk = trajectory(config, phi0, 2_000).phis
        with mpmath.workdps(30):
            R, r, a = (mpmath.mpf(x) for x in (config.R, config.r, config.a))
            phi = mpmath.mpf(phi0)
            worst = 0.0
            for i in range(1, 2_001):
                A, B = (R + a) * mpmath.cos(phi), (R - a) * mpmath.sin(phi)
                psi, delta = mpmath.atan2(B, A), mpmath.acos(r / mpmath.hypot(A, B))
                offsets = [(psi + sign * delta - phi + mpmath.pi) % (2 * mpmath.pi) - mpmath.pi
                           for sign in (1, -1)]
                phi += next(d for d in offsets if 0 < d < mpmath.pi)
                worst = max(worst, abs(walk[i] - float(phi)))
        assert worst < 1e-12

    def test_rejects_empty_walk(self):
        with pytest.raises(DomainError):
            trajectory(TwoCircleConfig(1.0, 0.5, 0.2), 0.0, 0)

    @pytest.mark.parametrize("phi0", [math.nan, math.inf, -math.inf, 1e6, -1e15])
    def test_non_finite_start_named(self, phi0):
        # beyond PHI0_MAX a chord rounds at ulp(phi0), past the recursion check's 1e-10
        with pytest.raises(DomainError, match=re.escape(f"phi0={phi0!r}")) as info:
            trajectory(TwoCircleConfig(1.0, 0.5, 0.2), phi0, 5)
        assert f"PHI0_MAX = {PHI0_MAX!r}" in str(info.value)


@pytest.mark.parametrize("t, s", [(0.3, 0.0), (0.5, 0.2), (0.4, 0.35), (0.7, 0.25)])
@pytest.mark.parametrize("j", [-1000, -30, 30, 1023])
def test_power_of_two_scale_is_bit_identical(t, s, j):
    # a/R and r/R are exact at R = 2^j, so every result repeats R = 1 bit for bit
    def results(R):
        config = TwoCircleConfig(R, t * R, s * R)
        k, alpha = modulus_of_config(config)
        return (k, alpha, closure_residual(config, 5, 2),
                trajectory(config, 0.37, 200).phis.tobytes())

    assert results(2.0 ** j) == results(1.0)


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

    def test_full_turn_is_twice_K(self, rng):
        # 2K from the kernel's memo is F(pi, k) bit for bit
        for _ in range(40):
            t = float(rng.uniform(0.01, 0.99))
            config = TwoCircleConfig(1.0, t, float(rng.uniform(0.0, min(t, 1.0 - t))))
            k, alpha = config.k, config.alpha
            for n in range(3, 13):
                for m in range(1, n):
                    if math.gcd(n, m) == 1:
                        assert closure_residual(config, n, m) == (
                            incomplete_F(alpha, k) - (m / n) * incomplete_F(math.pi, k))


def _no_evaluation(*args):
    raise AssertionError("closure residual evaluated")


def _brentq_distance(n, m, R, r):
    # the reference root: scipy's brentq on the same unit problem (outer
    # radius 1, centre distance a/R) and tolerances, scaled back by R
    from scipy.optimize import brentq
    t = r / R
    return R * brentq(lambda s: closure_residual(TwoCircleConfig(1.0, t, s), n, m),
                      0.0, min(t, 1.0 - t) - 1e-9, xtol=1e-15, rtol=8.9e-16)


def _ulps(x, y):
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


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

    @pytest.mark.parametrize("R, r, named", [(math.nan, 0.3, "R=nan"), (math.inf, 0.3, "R=inf"),
                                             (1.0, math.nan, "r=nan"), (1.0, -0.3, "r=-0.3")])
    def test_bad_radius_named(self, R, r, named):
        with pytest.raises(GeometryError, match=re.escape(named)):
            search_closing_config(5, 2, R, r)

    @pytest.mark.parametrize("r", [1.5, 1.0])
    def test_unnested_pair_is_a_geometry_error(self, r):
        # a domain error of the pair, raised before any search
        with pytest.raises(GeometryError, match=re.escape(f"a + r = {r!r} >= R = 1.0")):
            search_closing_config(5, 2, 1.0, r)

    def test_oversized_inner_circle(self):
        # a 5/2 star cannot touch an inner circle beyond ~0.31 R
        with pytest.raises(NoSolutionError):
            search_closing_config(5, 2, 1.0, 0.4)

    @pytest.mark.parametrize("n, m, r", [(5, 2, 0.4), (7, 3, 0.3)])
    def test_concentric_bound_named(self, n, m, r, monkeypatch):
        # the rotation number peaks at a = 0, where arccos(r/R)/pi < m/n; the
        # bound is named once both bracket ends have been evaluated
        probed = []

        def recording(c, n, m):
            probed.append(c.a)
            return closure_residual(c, n, m)

        monkeypatch.setattr(poncelet, "closure_residual", recording)
        with pytest.raises(NoSolutionError) as info:
            search_closing_config(n, m, 1.0, r)
        message = str(info.value)
        assert f"inner radius r={r!r}" in message
        assert f"R cos(pi m/n) = {math.cos(math.pi * m / n)!r}" in message
        assert "no closing configuration" in message
        assert len(probed) == 2

    @pytest.mark.parametrize("n, m", [(n, m) for n in range(3, 13) for m in range(1, n)
                                      if 2 * m < n])
    @pytest.mark.parametrize("R", [0.7, 1.0, 2.0])
    def test_star_closes_at_the_concentric_limit(self, n, m, R):
        # r = R cos(pi m/n) exactly: the concentric pair is the regular {n/m} star,
        # whose a = 0 residual may round a fraction of an ulp below zero
        config = search_closing_config(n, m, R, R * math.cos(math.pi * m / n))
        assert config.a < 1e-12
        assert abs(closure_residual(config, n, m)) < 1e-15

    def test_bracket_edge_named(self):
        # below the concentric limit, but the closing distance would need a >= r
        with pytest.raises(NoSolutionError, match=re.escape("on the bracket a in [0, ")) as info:
            search_closing_config(5, 1, 1.0, 0.3)
        assert "keeps sign" in str(info.value) and "no closing configuration" in str(info.value)

    def test_tiny_inner_circle_names_the_empty_bracket(self):
        # r/R <= 1e-9 leaves no room below r, so the bracket is [0, 0]
        with pytest.raises(NoSolutionError, match=re.escape("on the bracket a in [0, 0.0]")):
            search_closing_config(40, 1, 1.0, 1e-10)

    def test_near_tangent_inner_circle_names_the_concentric_limit(self):
        # r beyond R cos(pi/40), not the empty bracket, is why this pair cannot close
        with pytest.raises(NoSolutionError, match=re.escape(
                f"R cos(pi m/n) = {math.cos(math.pi / 40)!r}")):
            search_closing_config(40, 1, 1.0, 0.9999999995)

    @pytest.mark.parametrize("n, m", [(5, 4), (5, 3), (4, 2), (7, 4)])
    def test_half_turn_bound_named_before_evaluation(self, n, m, monkeypatch):
        # F(alpha) < K for every nested pair, so m/n >= 1/2 never closes
        monkeypatch.setattr(poncelet, "closure_residual", _no_evaluation)
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

    # (n, m, r) of the closing walks in the poncelet_walk benchmark
    @pytest.mark.parametrize("n, m, r", [(3, 1, 0.45), (4, 1, 0.6), (5, 1, 0.7), (6, 1, 0.8),
                                         (5, 2, 0.3), (7, 2, 0.6), (8, 3, 0.35)])
    def test_root_matches_brentq(self, n, m, r):
        assert _ulps(search_closing_config(n, m, 1.0, r).a, _brentq_distance(n, m, 1.0, r)) <= 4

    @pytest.mark.parametrize("R", [1e-200, 1e-20, 1e-6, 1e6, 1e200, 1.7e308])
    def test_scale_free(self, R):
        # the search runs on the unit outer circle: an absolute tolerance on a
        # would stop short at small R, and Brent's slopes underflow at large R
        unit = search_closing_config(5, 2, 1.0, 0.3).a
        config = search_closing_config(5, 2, R, 0.3 * R)
        assert abs(closure_residual(config, 5, 2)) <= 1e-12
        assert _ulps(config.a / R, unit) <= 1

    def test_random_roots_match_brentq(self):
        rng = np.random.default_rng(20111106)
        closing = 0
        for _ in range(300):
            n = int(rng.integers(3, 13))
            m = int(rng.integers(1, (n + 1) // 2))
            R = float(rng.uniform(0.5, 3.0))
            r = R * float(rng.uniform(0.02, math.cos(math.pi * m / n)))
            try:
                a = search_closing_config(n, m, R, r).a
            except NoSolutionError as exc:
                assert "keeps sign" in str(exc), (n, m, R, r)
                continue
            closing += 1
            assert _ulps(a, _brentq_distance(n, m, R, r)) <= 4, (n, m, R, r)
        assert closing >= 50

    def test_endpoints_evaluated_once(self, monkeypatch):
        probed = []

        def recording(c, n, m):
            probed.append(c.a)
            return closure_residual(c, n, m)

        monkeypatch.setattr(poncelet, "closure_residual", recording)
        search_closing_config(5, 2, 1.0, 0.3)
        assert len(probed) == len(set(probed)) > 2

    def test_non_converging_bracket_raises(self):
        # a jump at 1 in [0, 1e300] needs about a thousand halvings to reach
        # the tolerance; the search stops at its step limit instead
        probed = []

        def step(x):
            probed.append(x)
            return -1.0 if x < 1.0 else 1.0

        with pytest.raises(NoSolutionError, match="did not converge in 100 steps"):
            poncelet._brent(step, 0.0, 1e300, -1.0, 1.0)
        assert len(probed) == 100

    def test_nan_residual_raises(self):
        with pytest.raises(NoSolutionError, match="residual is nan at 1.0"):
            poncelet._brent(lambda x: math.nan, 0.0, 2.0, -1.0, 1.0)
