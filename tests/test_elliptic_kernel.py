import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipkinc

from pentagramma import elliptic_kernel
from pentagramma.elliptic_kernel import (MAX_ARGUMENT, MAX_MODULUS, JacobiTriple, _agm_phases,
                                         am, complete_K, half_angle_tan, incomplete_F,
                                         jacobi_sum, jacobi_triple)
from pentagramma.errors import DomainError, InvariantError, NearPoleError
from pentagramma.oracles import invert_quad_F, quad_F, quad_K

# frozen against an adaptive-quadrature / series evaluation of the defining
# integrals (independent multi-precision route, 25 digits)
K_08 = 1.9953027776647294
F_PI5_06 = 0.6429228814909583
TRIPLE_07_05 = (0.6342932763351124, 0.7730925168413343, 0.9483765127305806)


# both ends of the modulus domain, and two points near k = 1
EDGE_MODULI = [0.0, 1e-300, 0.5, 0.9999, 1.0 - 1e-9, MAX_MODULUS]


class TestCompleteK:
    def test_k0_is_half_pi(self):
        assert complete_K(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_frozen_value(self):
        assert complete_K(0.8) == pytest.approx(K_08, abs=1e-14)

    def test_monotone(self):
        ks = np.linspace(0.0, 0.99, 40)
        values = [complete_K(float(k)) for k in ks]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_quadrature_agreement(self):
        for k in (0.1, 0.5, 0.8, 0.95):
            assert complete_K(k) == pytest.approx(quad_K(k), abs=1e-12)

    @pytest.mark.parametrize("k", [-0.1, 1.0, 1.5])
    def test_domain(self, k):
        with pytest.raises(DomainError):
            complete_K(k)


class TestIncompleteF:
    def test_zero(self):
        assert incomplete_F(0.0, 0.7) == 0.0

    def test_quarter_period(self):
        for k in (0.0, 0.3, 0.8):
            assert incomplete_F(math.pi / 2, k) == pytest.approx(
                complete_K(k), abs=1e-13)

    def test_frozen_value(self):
        assert incomplete_F(math.pi / 5, 0.6) == pytest.approx(F_PI5_06, abs=1e-13)

    def test_strictly_increasing(self, rng):
        k = 0.77
        phis = np.sort(rng.uniform(-7.0, 7.0, size=30))
        values = [incomplete_F(float(p), k) for p in phis]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_shift_rule(self, rng):
        k = 0.45
        two_k = 2.0 * complete_K(k)
        for phi in rng.uniform(-3.0, 3.0, size=20):
            assert incomplete_F(phi + math.pi, k) == pytest.approx(
                incomplete_F(phi, k) + two_k, abs=1e-12)

    def test_oddness(self):
        assert incomplete_F(-1.1, 0.6) == -incomplete_F(1.1, 0.6)

    @pytest.mark.parametrize("k", EDGE_MODULI)
    def test_mpmath_agreement(self, k, rng):
        # F is the descent run backwards, so the whole real line, both signs
        # and the moduli next to 0 and 1 go through one path
        phis = [1e-12, 1e-6, 0.3, 1.0, math.pi / 2, math.pi / 2 + 1e-9, 3.0,
                7.7, 123.4, 6365 * math.pi / 2, 1e4]
        phis += list(10.0 ** rng.uniform(-3.0, 4.0, size=20))
        phis += [-p for p in phis]
        with mpmath.workdps(30):
            ksq = mpmath.mpf(k) ** 2
            expected = [float(mpmath.ellipf(phi, ksq)) for phi in phis]
        for phi, value in zip(phis, expected):
            assert incomplete_F(phi, k) == pytest.approx(value, rel=1e-13)

    def test_scipy_agreement(self, rng):
        for _ in range(200):
            k = rng.uniform(0.0, 0.99)
            phi = rng.uniform(-math.pi / 2, math.pi / 2)
            assert incomplete_F(phi, k) == pytest.approx(
                ellipkinc(phi, k * k), rel=1e-13)

    @pytest.mark.parametrize("k", EDGE_MODULI)
    def test_shift_and_oddness_across_moduli(self, k, rng):
        two_k = 2.0 * complete_K(k)
        for phi in rng.uniform(-50.0, 50.0, size=20):
            shifted = incomplete_F(phi + math.pi, k)
            assert shifted == pytest.approx(incomplete_F(phi, k) + two_k,
                                            rel=1e-13, abs=1e-13 * two_k)
            assert incomplete_F(-phi, k) == -incomplete_F(phi, k)

    @given(st.floats(0.0, MAX_MODULUS), st.floats(-1e4, 1e4))
    @settings(max_examples=300)
    def test_am_inverts_F(self, k, phi):
        assert abs(am(incomplete_F(phi, k), k) - phi) <= 1e-12 * max(1.0, abs(phi))


class TestAmplitude:
    def test_at_zero(self):
        assert am(0.0, 0.5) == 0.0

    def test_at_quarter_period(self):
        for k in (0.2, 0.6, 0.9):
            assert am(complete_K(k), k) == pytest.approx(math.pi / 2, abs=1e-13)

    def test_quasi_period_once(self):
        k = 0.6
        assert am(3.0 * complete_K(k), k) == pytest.approx(
            1.5 * math.pi, abs=1e-12)

    def test_roundtrip(self, rng):
        for _ in range(200):
            k = rng.uniform(0.0, 0.95)
            phi = rng.uniform(0.0, math.pi / 2)
            assert am(incomplete_F(phi, k), k) == pytest.approx(phi, abs=1e-12)

    def test_quasi_periodicity_random(self, rng):
        k = 0.8
        two_k = 2.0 * complete_K(k)
        for u in rng.uniform(-20.0, 20.0, size=100):
            assert am(u + two_k, k) - am(u, k) - math.pi == pytest.approx(
                0.0, abs=1e-12)

    def test_against_quadrature_inversion(self):
        k = 0.5
        phi = invert_quad_F(0.7, k)
        assert am(0.7, k) == pytest.approx(phi, abs=1e-12)

    def test_odd(self, rng):
        for u in rng.uniform(0.0, 5.0, size=10):
            assert am(-u, 0.7) == -am(u, 0.7)

    # am(u) = u (1 + O(u^2)): at subnormal u the seed 2^N a_N u is formed in one
    # rounding, so only the descent's roundings on the subnormal grid remain
    @given(st.floats(5e-324, sys.float_info.min, exclude_max=True), st.floats(0.0, MAX_MODULUS))
    @example(5.1214e-318, MAX_MODULUS)
    @example(1.811198269652768e-308, MAX_MODULUS)
    @settings(max_examples=300)
    def test_subnormal_argument(self, u, k):
        assert abs(am(u, k) - u) <= 4 * math.ulp(u)


class TestJacobiTriple:
    def test_at_zero(self):
        assert tuple(jacobi_triple(0.0, 0.4)) == (0.0, 1.0, 1.0)

    def test_at_quarter_period(self):
        k = 0.6
        sn, cn, dn = jacobi_triple(complete_K(k), k)
        assert sn == pytest.approx(1.0, abs=1e-13)
        assert cn == pytest.approx(0.0, abs=1e-13)
        assert dn == pytest.approx(math.sqrt(1 - k * k), abs=1e-13)

    def test_frozen_value(self):
        sn, cn, dn = jacobi_triple(0.7, 0.5)
        assert (sn, cn, dn) == pytest.approx(TRIPLE_07_05, abs=1e-13)

    def test_pythagorean_identities(self, rng):
        for _ in range(200):
            k = rng.uniform(0.0, 0.95)
            u = rng.uniform(-15.0, 15.0)
            sn, cn, dn = jacobi_triple(u, k)
            assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-13)
            assert dn * dn + (k * sn) ** 2 == pytest.approx(1.0, abs=1e-13)

    def test_parity(self, rng):
        k = 0.7
        for u in rng.uniform(0.0, 8.0, size=20):
            plus = jacobi_triple(u, k)
            minus = jacobi_triple(-u, k)
            assert minus.sn == pytest.approx(-plus.sn, abs=1e-13)
            assert minus.cn == pytest.approx(plus.cn, abs=1e-13)
            assert minus.dn == pytest.approx(plus.dn, abs=1e-13)

    def test_periods(self, rng):
        k = 0.65
        quarter = complete_K(k)
        for u in rng.uniform(-5.0, 5.0, size=20):
            a = jacobi_triple(u, k)
            b = jacobi_triple(u + 4 * quarter, k)
            assert (a.sn, a.cn) == pytest.approx((b.sn, b.cn), abs=1e-12)
            assert jacobi_triple(u + 2 * quarter, k).dn == pytest.approx(
                a.dn, abs=1e-12)

    def test_k0_degenerates_to_trig(self, rng):
        for u in rng.uniform(-10.0, 10.0, size=50):
            sn, cn, dn = jacobi_triple(u, 0.0)
            assert sn == pytest.approx(math.sin(u), abs=1e-14)
            assert cn == pytest.approx(math.cos(u), abs=1e-14)
            assert dn == 1.0

    def test_named_fields_are_trig_of_am_bit_for_bit(self, rng):
        for k, u in zip(rng.uniform(0.0, MAX_MODULUS, 300), rng.uniform(-50.0, 50.0, 300)):
            triple = jacobi_triple(u, k)
            assert type(triple) is JacobiTriple
            assert triple._fields == ("sn", "cn", "dn")
            phi = am(u, k)
            sn = math.sin(phi)
            assert (triple.sn, triple.cn, triple.dn) == (
                sn, math.cos(phi), math.sqrt(1.0 - (k * sn) ** 2))
            assert triple == tuple(triple) and repr(triple).startswith("JacobiTriple(sn=")


class TestAdditionFormulas:
    def test_v_zero(self, rng):
        k = 0.3
        for u in rng.uniform(-5.0, 5.0, size=10):
            s = jacobi_sum(u, 0.0, k)
            d = jacobi_triple(u, k)
            assert tuple(s) == pytest.approx(tuple(d), abs=1e-14)

    def test_half_quarter_doubling(self):
        k = 0.8
        quarter = complete_K(k)
        s = jacobi_sum(quarter / 2, quarter / 2, k)
        assert s.sn == pytest.approx(1.0, abs=1e-12)
        assert s.cn == pytest.approx(0.0, abs=1e-12)
        assert s.dn == pytest.approx(math.sqrt(1 - k * k), abs=1e-12)

    def test_grid(self, rng):
        k = 0.3
        for _ in range(400):
            u, v = rng.uniform(-8.0, 8.0, size=2)
            s = jacobi_sum(u, v, k)
            d = jacobi_triple(u + v, k)
            assert tuple(s) == pytest.approx(tuple(d), abs=1e-12)

    def test_vanishing_denominator_is_a_kernel_fault(self, monkeypatch):
        # denom >= 1 - k^2 for real triples; a broken triple sn = sqrt(2)
        # drives 1 - (k sn_u sn_v)^2 to zero at k = 1/2
        monkeypatch.setattr(elliptic_kernel, "jacobi_triple",
                            lambda u, k: (math.sqrt(2.0), 0.0, 1.0))
        with pytest.raises(InvariantError, match="denominator vanished"):
            jacobi_sum(0.1, 0.2, 0.5)

    def test_main_formula(self, rng):
        for _ in range(200):
            k = rng.uniform(0.0, 0.95)
            u, v = rng.uniform(-8.0, 8.0, size=2)
            tu, tv = jacobi_triple(u, k), jacobi_triple(v, k)
            diff = jacobi_triple(u - v, k)
            assert diff.cn - (tu.cn * tv.cn + tu.sn * tv.sn * diff.dn) == \
                pytest.approx(0.0, abs=1e-12)


class TestHalfAngleTan:
    def test_equal_arguments(self):
        x, k = 0.62, 0.44
        assert half_angle_tan(x, x, k) == pytest.approx(
            math.tan(am(x, k)), abs=1e-13)

    def test_opposite_arguments(self):
        assert half_angle_tan(0.8, -0.8, 0.5) == pytest.approx(0.0, abs=1e-13)

    def test_identity_residual(self, rng):
        k = 0.5
        for _ in range(50):
            x, y = rng.uniform(-1.2, 1.2, size=2)
            lhs = half_angle_tan(x, y, k)
            rhs = jacobi_triple((x - y) / 2, k).dn * math.tan(am((x + y) / 2, k))
            assert lhs - rhs == pytest.approx(0.0, abs=1e-10)

    def test_near_pole(self):
        k = 0.6
        quarter = complete_K(k)
        with pytest.raises(NearPoleError):
            half_angle_tan(quarter, quarter, k)


@pytest.mark.parametrize("func, name", [(am, "u"), (jacobi_triple, "u"),
                                        (incomplete_F, "phi")])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e308, -1e308,
                               math.nextafter(MAX_ARGUMENT, math.inf),
                               math.nextafter(-MAX_ARGUMENT, -math.inf)])
def test_argument_outside_domain(func, name, x):
    # the whole message, and a bad modulus is still named ahead of the argument
    with pytest.raises(DomainError, match=re.escape(
            f"argument {name}={x!r} is not a finite number of magnitude <= 1e+300")):
        func(x, 0.5)
    with pytest.raises(DomainError, match=re.escape("modulus k=1.0 outside")):
        func(x, 1.0)
    func(MAX_ARGUMENT, MAX_MODULUS)
    func(-MAX_ARGUMENT, 0.5)


# outside [0, MAX_MODULUS]: negative, nan, 1, and the next float above the bound
BAD_MODULI = [-0.1, math.nan, 1.0, math.nextafter(MAX_MODULUS, 2.0)]
# every public entry point of the kernel, called at one argument x and modulus k
ENTRY_POINTS = {"complete_K": lambda x, k: complete_K(k), "am": am,
                "jacobi_triple": jacobi_triple, "incomplete_F": incomplete_F,
                "jacobi_sum": lambda x, k: jacobi_sum(x, x, k)}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("k", BAD_MODULI)
def test_modulus_outside_domain(entry, k):
    # the phase memo is the one check; a call that raised is never memoised, so
    # the second call raises too, and a bad argument is reported after the modulus
    size = _agm_phases.cache_info().currsize
    for x in (0.3, 0.3, math.nan):
        with pytest.raises(DomainError, match=re.escape(
                f"modulus k={k!r} outside [0, MAX_MODULUS = {MAX_MODULUS!r}]")):
            ENTRY_POINTS[entry](x, k)
    assert _agm_phases.cache_info().currsize == size


class TestPhaseMemo:
    def evaluate(self):
        out = []
        for k in (0.0, 0.3, 0.8, MAX_MODULUS):
            out += [complete_K(k), am(2.5, k), tuple(jacobi_triple(-7.0, k)),
                    incomplete_F(1.2, k), incomplete_F(-40.0, k)]
        return out

    def test_cold_and_warm_bit_identical(self):
        _agm_phases.cache_clear()
        cold = self.evaluate()
        assert _agm_phases.cache_info().currsize == 4
        warm = self.evaluate()
        assert _agm_phases.cache_info().hits > 0
        assert cold == warm

    def test_bounded(self, rng):
        maxsize = _agm_phases.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for k in rng.uniform(0.0, 0.99, size=maxsize + 50):
            complete_K(float(k))
        assert _agm_phases.cache_info().currsize == maxsize


def _mpmath_F(phi, k):
    with mpmath.workdps(30):
        return float(mpmath.ellipf(phi, mpmath.mpf(k) ** 2))


class TestQuadratureOracle:
    """oracles.quad_F, the battery's second route to F, against mpmath at 30 digits."""

    def test_criterion_4_range(self, rng):
        for k_unit, phi_unit in rng.random((300, 2)).tolist():
            k, phi = 0.95 * k_unit, math.pi / 2 * phi_unit
            assert abs(quad_F(phi, k) - _mpmath_F(phi, k)) <= 1e-14, (phi, k)

    # 0.9983 is the modulus of rotation_number(1, 0.4, a) for a near R - r,
    # where a single fixed rule on [0, pi] is off by 0.07
    @pytest.mark.parametrize("k", [0.99, 0.999, 0.9983, 0.9999])
    @pytest.mark.parametrize("phi", [1.3, math.pi / 2, math.pi])
    def test_near_unit_modulus(self, k, phi):
        assert quad_F(phi, k) == pytest.approx(_mpmath_F(phi, k), rel=1e-14, abs=0.0)

    # negative phi by oddness, and beyond pi by whole periods
    @pytest.mark.parametrize("k", [0.0, 0.5, 0.9999])
    @pytest.mark.parametrize("phi", [-1.3, -math.pi, 4.0, 100.0, -1e4])
    def test_whole_line(self, k, phi):
        assert quad_F(phi, k) == pytest.approx(_mpmath_F(phi, k), rel=1e-14, abs=0.0)
        assert quad_F(-phi, k) == -quad_F(phi, k)

    def test_agrees_with_quadpack(self, rng):
        from scipy.integrate import quad

        for k_unit, phi_unit in rng.random((50, 2)).tolist():
            k, phi = 0.95 * k_unit, math.pi / 2 * phi_unit
            reference, _ = quad(lambda x: 1.0 / math.sqrt(1.0 - (k * math.sin(x)) ** 2),
                                0.0, phi, epsabs=1e-13, epsrel=1e-13)
            assert abs(quad_F(phi, k) - reference) <= 1e-13, (phi, k)

    @pytest.mark.parametrize("k", [-0.1, 1.0, 1.5, math.nan])
    def test_modulus_outside_domain(self, k):
        with pytest.raises(DomainError, match="outside 0 <= k < 1"):
            quad_F(1.0, k)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_amplitude_not_finite(self, phi):
        with pytest.raises(DomainError, match="is not finite"):
            quad_F(phi, 0.5)
