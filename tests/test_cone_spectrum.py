import math
import re
from fractions import Fraction

import numpy as np
import pytest

from pentagramma.cone_spectrum import (GOLDEN, OMEGA_CRITICAL, OMEGA_TOP, ConeQuadric,
                                       SpectralTriple, cone_coefficients, modulus_from_spectrum,
                                       solve_characteristic)
from pentagramma.elliptic_kernel import complete_K, jacobi_triple
from pentagramma.errors import DegenerateError, DomainError, SubcriticalError
from pentagramma.oracles import characteristic_matrix, characteristic_poly
from pentagramma.pentagram_algebra import complete_from_two


class TestConeCoefficients:
    def test_gauss_example(self):
        q = cone_coefficients(9.0, 2.0)
        assert q.p == pytest.approx(-3.0, abs=1e-15)
        assert q.q == pytest.approx(-math.sqrt(2), abs=1e-15)
        assert q.r == pytest.approx(-2.0 * math.sqrt(2), abs=1e-14)

    def test_golden_seeds(self):
        # r = -(1 + 2 phi)/phi = -phi^2, by phi^2 = phi + 1
        q = cone_coefficients(GOLDEN, GOLDEN)
        assert q.p == q.q == pytest.approx(-math.sqrt(GOLDEN), abs=1e-15)
        assert q.r == pytest.approx(-GOLDEN ** 2, abs=1e-14)

    def test_unit_seeds(self):
        q = cone_coefficients(1.0, 1.0)
        assert (q.p, q.q, q.r) == pytest.approx((-1.0, -1.0, -3.0), abs=1e-15)

    def test_small_seeds_need_no_cycle(self):
        # beta = 1.00002e10 lies beyond ALPHA_MAX, yet the cone is well defined
        q = cone_coefficients(1e-5, 1e-5)
        assert q.p == q.q == -math.sqrt(1e-5)
        assert q.r == pytest.approx(-100002.0, rel=1e-15)
        assert q.r == -(1.0 + 1e-5 + 1e-5) / math.sqrt(1e-5 * 1e-5)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            cone_coefficients(0.0, 1.0)

    @pytest.mark.parametrize("seeds", [(1.0, -2.0), (math.nan, 1.0), (1.0, math.inf),
                                       (1e-200, 1e-200), (1e200, 1e200)])
    def test_outside_domain_named(self, seeds):
        # alpha gamma underflowing to 0 divided by zero; overflowing to inf gave r = -0.0
        with pytest.raises(DomainError, match="need > 0 and a normal product"):
            cone_coefficients(*seeds)


class TestCharacteristicMatrix:
    def test_entries(self):
        m = characteristic_matrix(ConeQuadric(-1.0, -1.0, -3.0))
        assert m[0, 1] == -1.5 and m[0, 2] == -0.5 and m[2, 2] == 1.0
        assert np.allclose(m, m.T)

    def test_zero_quadric(self):
        eig = np.linalg.eigvalsh(characteristic_matrix(ConeQuadric(0, 0, 0)))
        assert eig == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_gauss_eigenvalues(self):
        eig = np.linalg.eigvalsh(characteristic_matrix(cone_coefficients(9.0, 2.0)))
        assert eig == pytest.approx([-2.197, 1.069, 2.128], abs=2e-3)

    def test_eigenvalues_match_cubic_roots(self, rng):
        for _ in range(100):
            alpha, gamma = rng.uniform(0.2, 10.0, size=2)
            cycle = complete_from_two(float(alpha), float(gamma))
            eig = np.linalg.eigvalsh(
                characteristic_matrix(cone_coefficients(float(alpha), float(gamma))))
            s = solve_characteristic(cycle.omega())
            assert eig == pytest.approx([s.G, s.Gp, s.Gpp], abs=1e-8)


class TestCriticalOmega:
    def test_printed_digits(self):
        assert OMEGA_CRITICAL == pytest.approx(11.0901699, abs=1e-7)

    def test_closed_forms(self):
        assert OMEGA_CRITICAL == pytest.approx(
            (11 + 5 * math.sqrt(5)) / 2, abs=1e-12)
        assert OMEGA_CRITICAL == pytest.approx(3 + 5 * GOLDEN, abs=1e-12)


class TestSolveCharacteristic:
    def test_omega_20(self):
        s = solve_characteristic(20.0)
        assert (s.G, s.Gp, s.Gpp) == pytest.approx(
            (-2.197, 1.069, 2.128), abs=2e-3)
        assert max(abs(r) for r in s.product_residuals()) < 1e-10

    def test_critical_double_root(self):
        s = solve_characteristic(OMEGA_CRITICAL)
        assert s.G == pytest.approx(-GOLDEN, abs=1e-15)
        assert s.Gp == s.Gpp == pytest.approx(GOLDEN ** 2 / 2, abs=1e-15)

    def test_substitution_residuals(self):
        s = solve_characteristic(12.0)
        for t in (s.G, s.Gp, s.Gpp):
            assert abs(characteristic_poly(t, 12.0)) < 1e-11

    def test_subcritical_raises(self, rng):
        for omega in rng.uniform(1e-6, OMEGA_CRITICAL - 1e-6, size=25):
            with pytest.raises(SubcriticalError):
                solve_characteristic(float(omega))

    def test_product_identities_log_grid(self):
        for omega in np.geomspace(OMEGA_CRITICAL, 1e4, 50):
            s = solve_characteristic(float(omega))
            assert max(abs(r) for r in s.product_residuals()) < 1e-9
            assert s.G < 0.0 < s.Gp <= s.Gpp
            if omega > OMEGA_CRITICAL + 1e-9:
                assert s.Gp > 1.0

    def test_product_identities_up_to_stated_limit(self):
        # product_residuals documents 1e-10 up to omega = 1e6
        for omega in np.geomspace(OMEGA_CRITICAL, 1e6, 2000):
            s = solve_characteristic(float(omega))
            assert max(abs(r) for r in s.product_residuals()) < 1e-10, omega

    @pytest.mark.parametrize("omega", [math.nan, math.inf, OMEGA_TOP * 1.0000001, 7.9e96, 1e300])
    def test_beyond_top_named(self, omega):
        with pytest.raises(DomainError, match=re.escape(f"omega={omega!r} beyond OMEGA_TOP")):
            solve_characteristic(omega)

    def test_domain_top_sweep(self):
        # every omega gets three roots, each within 4 ulps of a sign change of
        # the exact cubic, or is refused above OMEGA_TOP; none breaks an invariant
        def cubic(t, omega):
            t, w = Fraction(t), Fraction(omega)
            return ((4 * t - 4) * t + (1 - w)) * t + w

        for omega in np.logspace(5, 300, 20_001):
            omega = float(omega)
            try:
                s = solve_characteristic(omega)
            except DomainError:
                assert omega > OMEGA_TOP
                continue
            assert s.G < 0.0 < s.Gp < s.Gpp, omega
            for t in (s.G, s.Gp, s.Gpp):
                slack = 4 * math.ulp(t)
                assert cubic(t - slack, omega) * cubic(t + slack, omega) <= 0, (omega, t)

    def test_polish_bit_for_bit(self):
        # the roots as first formed: sorted, polished through the two helper polynomials, sorted
        def cubic(t, omega):
            return ((4.0 * t - 4.0) * t + (1.0 - omega)) * t + omega

        def cubic_derivative(t, omega):
            return (12.0 * t - 8.0) * t + (1.0 - omega)

        def reference(omega):
            A, B, C = -1.0, (1.0 - omega) / 4.0, omega / 4.0
            pc = B - A * A / 3.0
            qc = 2.0 * A ** 3 / 27.0 - A * B / 3.0 + C
            radius = 2.0 * math.sqrt(-pc / 3.0)
            theta = math.acos(max(-1.0, min(1.0, 3.0 * qc / (pc * radius))))
            roots = sorted(radius * math.cos((theta - 2.0 * math.pi * j) / 3.0) - A / 3.0
                           for j in range(3))
            polished = []
            for t in roots:
                for _ in range(2):
                    t -= cubic(t, omega) / cubic_derivative(t, omega)
                polished.append(t)
            return sorted(polished)

        omegas = np.concatenate([OMEGA_CRITICAL + np.geomspace(1e-10, 1.0, 200),
                                 np.geomspace(OMEGA_CRITICAL + 1.0, OMEGA_TOP, 3000), [OMEGA_TOP]])
        for omega in omegas:
            s = solve_characteristic(float(omega))
            assert [x.hex() for x in (s.G, s.Gp, s.Gpp)] == \
                [x.hex() for x in reference(float(omega))], omega

    def test_near_critical_continuity(self):
        # just above the exact-double-root window the full solve must agree
        s = solve_characteristic(OMEGA_CRITICAL + 1e-9)
        assert s.G == pytest.approx(-GOLDEN, abs=1e-4)
        assert s.Gp == pytest.approx(GOLDEN ** 2 / 2, rel=1e-4)
        assert s.Gp <= s.Gpp


class TestModulusFromSpectrum:
    def test_double_root_is_regular(self):
        k, cnw, dnw = modulus_from_spectrum(solve_characteristic(OMEGA_CRITICAL))
        assert k == 0.0
        assert cnw == pytest.approx(math.cos(math.pi / 5), abs=1e-15)
        assert dnw == 1.0

    @pytest.mark.parametrize("omega", [12.0, 20.0])
    def test_bridge_consistency(self, omega):
        s = solve_characteristic(omega)
        k, cnw, dnw = modulus_from_spectrum(s)
        lattice = jacobi_triple(0.4 * complete_K(k), k)
        assert lattice.cn == pytest.approx(cnw, abs=1e-9)
        assert lattice.dn == pytest.approx(dnw, abs=1e-9)

    def test_ranges(self):
        for omega in np.geomspace(OMEGA_CRITICAL + 1e-3, 100.0, 40):
            k, cnw, dnw = modulus_from_spectrum(solve_characteristic(float(omega)))
            assert 0.0 <= k < 1.0
            assert 0.0 < cnw < 1.0
            assert 0.0 < dnw <= 1.0

    def test_malformed_triple_rejected(self):
        # the triple checks its root order when made, so no bridge sees a bad one
        with pytest.raises(DegenerateError, match=re.escape("(1.0, 2.0, 3.0) for omega=20.0")):
            SpectralTriple(G=1.0, Gp=2.0, Gpp=3.0, omega=20.0)

    @pytest.mark.parametrize("roots", [(-1.0, 0.0, 2.0), (-1.0, 2.0, 1.0), (0.0, 1.0, 2.0),
                                       (-1.0, math.nan, 2.0)])
    def test_root_order_checked_when_made(self, roots):
        with pytest.raises(DegenerateError, match="need G < 0 < Gp <= Gpp"):
            SpectralTriple(*roots, omega=20.0)


def test_bridge_property_across_omega_range():
    # the central synthesis: lattice values of cn, dn against root ratios
    for omega in np.geomspace(OMEGA_CRITICAL + 1e-3, 100.0, 30):
        s = solve_characteristic(float(omega))
        k, _, _ = modulus_from_spectrum(s)
        lattice = jacobi_triple(0.4 * complete_K(k), k)
        assert abs(lattice.cn + s.Gp / s.G) < 1e-9
        assert abs(lattice.dn - s.Gp / s.Gpp) < 1e-9
