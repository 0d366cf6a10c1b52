import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagramma import dilogarithm
from pentagramma.dilogarithm import li2, pentagon_five_term, rogers_L, spence_residual
from pentagramma.elliptic_kernel import complete_K
from pentagramma.errors import DomainError
from pentagramma.napier_uniformization import alpha_sequence, beta_sequence, frame_vectors
from pentagramma.oracles import li2_series
from pentagramma.cone_spectrum import GOLDEN

unit_interval = st.floats(min_value=1e-3, max_value=1.0 - 1e-3,
                          allow_nan=False, allow_infinity=False)
closed_unit_interval = st.floats(min_value=0.0, max_value=1.0)
open_unit_interval = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                               exclude_max=True)
# a Python float or the numpy scalar that a frame or a sweep may hand over
float_or_numpy = st.sampled_from([float, np.float64])
# tiny x, both sides of the 1/2 switch between the direct and reflected series, near 1
EDGE_POINTS = [1e-300, 1e-20, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
               1.0 - 1e-16, 1.0]


def mp_li2(x):
    with mpmath.workdps(40):
        return mpmath.polylog(2, mpmath.mpf(x))


def mp_rogers_L(x):
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return mpmath.polylog(2, x) + mpmath.log(x) * mpmath.log1p(-x) / 2


def outcome(f, *args):
    """The exact value f returns, or the message of the DomainError it raises."""
    try:
        return repr(f(*args))
    except DomainError as exc:
        return f"DomainError: {exc}"


def relative_error(value, exact):
    with mpmath.workdps(40):
        return float(abs((value - exact) / exact))


def bernoulli_numbers(count):
    """B_0 .. B_count from sum_{j<=m} C(m+1, j) B_j = 0, exactly."""
    numbers = [Fraction(1)]
    for m in range(1, count + 1):
        numbers.append(-sum(math.comb(m + 1, j) * numbers[j] for j in range(m)) / (m + 1))
    return numbers


class TestLi2:
    def test_endpoints(self):
        assert li2(0.0) == 0.0
        assert li2(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-15)

    def test_half(self):
        expected = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
        assert li2(0.5) == pytest.approx(expected, abs=1e-14)

    def test_against_series_oracle(self, rng):
        for x in rng.uniform(0.0, 0.9, size=40):
            assert li2(float(x)) == pytest.approx(li2_series(float(x)), abs=1e-13)

    @pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-17, 1e-10])
    def test_relative_accuracy_for_tiny_x(self, x):
        assert li2(x) == pytest.approx(li2_series(x), rel=1e-15, abs=0.0)

    def test_domain(self):
        for x in (-0.1, 1.1):
            with pytest.raises(DomainError):
                li2(x)

    @given(closed_unit_interval)
    @settings(max_examples=300)
    def test_mpmath_agreement(self, x):
        if x == 0.0:
            assert li2(x) == 0.0
        else:
            assert relative_error(li2(x), mp_li2(x)) < 1e-15

    @pytest.mark.parametrize("x", EDGE_POINTS)
    def test_mpmath_agreement_at_edges(self, x):
        assert relative_error(li2(x), mp_li2(x)) < 1e-15

    def test_series_coefficients_are_bernoulli_ratios(self):
        # the literals are B_2k/(2k+1)!, each rounded once from the exact rational
        bernoulli = bernoulli_numbers(20)
        assert bernoulli[1] == Fraction(-1, 2)  # the -z^2/4 term of the series
        exact = [bernoulli[2 * k] / math.factorial(2 * k + 1) for k in range(1, 11)]
        assert dilogarithm._BERNOULLI_COEFFS == tuple(float(c) for c in exact)

    def test_numpy_scalar_matches_float(self, rng):
        xs = [*rng.uniform(0.0, 1.0, size=200), *EDGE_POINTS, 0.0]
        for x in np.asarray(xs, dtype=np.float64):
            assert li2(x) == li2(float(x))
            assert rogers_L(x) == rogers_L(float(x))
            assert type(li2(x)) is float


class TestRogersL:
    def test_symmetric_point(self):
        assert rogers_L(0.5) == pytest.approx(math.pi ** 2 / 12, abs=1e-14)

    def test_landen_value(self):
        assert rogers_L(1 / GOLDEN) == pytest.approx(math.pi ** 2 / 10, abs=1e-12)

    def test_endpoints_extended(self):
        assert rogers_L(0.0) == 0.0
        assert rogers_L(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-15)

    # from the smallest normal float: below it L(x) ~ x ln(1/x) is subnormal
    @given(st.floats(min_value=sys.float_info.min, max_value=math.nextafter(1.0, 0.0)))
    @settings(max_examples=300)
    def test_mpmath_agreement(self, x):
        assert relative_error(rogers_L(x), mp_rogers_L(x)) < 1e-15

    @pytest.mark.parametrize("x", EDGE_POINTS[:-1])
    def test_mpmath_agreement_at_edges(self, x):
        assert relative_error(rogers_L(x), mp_rogers_L(x)) < 1e-15

    @given(unit_interval)
    @settings(max_examples=300)
    def test_reflection(self, x):
        assert rogers_L(x) + rogers_L(1 - x) == pytest.approx(
            math.pi ** 2 / 6, abs=1e-12)


class TestSpence:
    def test_symmetric(self):
        assert abs(spence_residual(0.5, 0.5)) < 1e-12

    def test_small_y_limit(self):
        assert abs(spence_residual(0.37, 1e-6)) < 1e-12

    def test_random_batch(self, rng):
        worst = max(abs(spence_residual(float(x), float(y)))
                    for x, y in rng.uniform(1e-6, 1 - 1e-6, size=(100, 2)))
        assert worst < 1e-11

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            spence_residual(0.0, 0.5)

    @given(open_unit_interval, open_unit_interval, float_or_numpy)
    @settings(max_examples=300)
    def test_is_the_rogers_composition(self, x, y, kind):
        # bit for bit, and the same DomainError if an inner argument rounds out of [0, 1]
        def composed(x, y):
            x, y = float(x), float(y)
            xy = x * y
            return (rogers_L(x) + rogers_L(y) - rogers_L(xy)
                    - rogers_L(x * (1.0 - y) / (1.0 - xy))
                    - rogers_L(y * (1.0 - x) / (1.0 - xy)))

        x, y = kind(x), kind(y)
        assert outcome(spence_residual, x, y) == outcome(composed, x, y)


class TestFiveCycle:
    """A frame's chord quantities b_n in (0,1) obey b_{n-1} b_{n+1} = 1 - b_n.

    Their companions a_n = b_n/(1-b_n) are the frame's alpha cycle, and the
    a-law a_{n-2} a_{n+2} = 1 + a_n is the side-cycle law, since -2 == +3 (mod 5).
    """

    def test_golden_fixed_point(self):
        x = 1 / GOLDEN  # solves x = 1 - x^2
        frame = frame_vectors(0.0, 0.37)
        assert beta_sequence(frame) == pytest.approx((x,) * 5, abs=1e-14)
        assert alpha_sequence(frame).alphas == pytest.approx((GOLDEN,) * 5, abs=1e-12)

    def test_reference_pair(self):
        b = beta_sequence(frame_vectors(0.2, 0.7))
        a = [bn / (1 - bn) for bn in b]
        assert max(abs(b[n - 1] * b[(n + 1) % 5] - (1 - b[n])) for n in range(5)) < 1e-13
        assert max(abs(a[n - 2] * a[(n + 2) % 5] - (1 + a[n])) for n in range(5)) < 1e-13

    @given(st.floats(0.0, 0.99), st.floats(-4.0, 4.0))
    @settings(max_examples=300)
    def test_cyclic_laws(self, k, turns):
        frame = frame_vectors(k, turns * complete_K(k))
        b = beta_sequence(frame)
        a = alpha_sequence(frame).alphas
        assert max(abs(b[n - 1] * b[(n + 1) % 5] - (1 - b[n])) for n in range(5)) < 1e-13
        # near k = 1 the a values reach ~1/(1-b); scale out the product
        # magnitude so the check measures ulps, not dynamic range
        for n in range(5):
            assert abs(a[n - 2] * a[(n + 2) % 5] - (1 + a[n])) / (1 + a[n]) < 1e-10

    @given(st.floats(0.0, 0.99), st.floats(-4.0, 4.0))
    @settings(max_examples=200)
    def test_rogers_sum(self, k, turns):
        b = beta_sequence(frame_vectors(k, turns * complete_K(k)))
        total = sum(rogers_L(bn) for bn in b)
        assert total == pytest.approx(math.pi ** 2 / 2, abs=1e-12)

    def test_a_cycle_matches_pentagon_law(self):
        # the b-companions are the alphas, which obey the side-cycle law
        frame = frame_vectors(0.3, 0.55)
        a = [bn / (1 - bn) for bn in beta_sequence(frame)]
        assert a == pytest.approx(alpha_sequence(frame).alphas, rel=1e-14)
        for n in range(5):
            assert a[(n + 2) % 5] * a[(n + 3) % 5] == pytest.approx(
                1 + a[n], abs=1e-12)


class TestPentagonFiveTerm:
    def test_regular_frame(self):
        betas = beta_sequence(frame_vectors(0.0, 0.4))
        assert abs(pentagon_five_term(betas)) < 1e-12

    def test_generic_frame(self):
        betas = beta_sequence(frame_vectors(0.5, 0.3))
        assert abs(pentagon_five_term(betas)) < 1e-10

    def test_grid(self, rng):
        worst = 0.0
        for k in [0.1 * i for i in range(10)]:
            quarter = complete_K(k)
            for u in rng.uniform(0.0, 0.8 * quarter, size=10):
                betas = beta_sequence(frame_vectors(k, float(u)))
                worst = max(worst, abs(pentagon_five_term(betas)))
        assert worst < 1e-10

    def test_negative_control(self):
        assert abs(pentagon_five_term((0.1,) * 5)) > 0.1

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            pentagon_five_term((0.2, 0.3, 1.0, 0.4, 0.5))

    @given(st.lists(st.tuples(open_unit_interval, float_or_numpy), min_size=5, max_size=5))
    @settings(max_examples=300)
    def test_is_the_rogers_sum(self, drawn):
        betas = [kind(v) for v, kind in drawn]
        assert outcome(pentagon_five_term, betas) == outcome(
            lambda b: sum(rogers_L(v) for v in b) - math.pi ** 2 / 2, betas)

    def test_frame_betas_match_alpha_route(self):
        # the cycle built from any frame's alphas reproduces its betas
        frame = frame_vectors(0.6, 0.21)
        alphas = alpha_sequence(frame).alphas
        betas = beta_sequence(frame)
        for a, b in zip(alphas, betas):
            assert a / (1 + a) == pytest.approx(b, abs=1e-12)
