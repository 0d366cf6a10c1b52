import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagramma import napier_uniformization, verify
from pentagramma.cone_spectrum import (_NEAR_CRITICAL, OMEGA_CRITICAL,
                                       modulus_from_spectrum, solve_characteristic)
from pentagramma.elliptic_kernel import MAX_MODULUS, complete_K, jacobi_triple
from pentagramma.errors import ChordDegenerateError, DomainError, SubcriticalError
from pentagramma.napier_uniformization import (K_GRID, OMEGA_MAX, PentagonFrame,
                                               alpha_sequence, beta_sequence, frame_vectors,
                                               k_of_omega, omega_of_k, sweep_frames)
from pentagramma.cone_spectrum import GOLDEN


def invert_omega_of_k(omega):
    """k with omega_of_k(k) = omega, by bisection over whole Napier frames on [0, 0.999999].

    The bracket is halved until it is 1e-15 wide in k, and the midpoint with
    the smallest residual is returned.  Where omega grows, that is an end of
    the last bracket.  Below k ~ 5e-4 omega is not monotone at the ulp level:
    omega - omega_c (true size about k^4) reads a few ulps of either sign, so
    the inverse is only defined to within [0, ~5e-4], the best k the bisection met.
    """
    omega_of_k = napier_uniformization.omega_of_k
    k_max = 0.999999
    if omega < OMEGA_CRITICAL - 1e-12:
        raise SubcriticalError(f"omega={omega!r} below the regular value")
    # omega_of_k(0) may round to either side of OMEGA_CRITICAL; both mean k = 0
    if omega <= max(OMEGA_CRITICAL, omega_of_k(0.0)):
        return 0.0
    top = omega_of_k(k_max)
    if omega > top:
        raise DomainError(f"omega={omega!r} beyond the supported range ({top:.3e})")
    lo, hi = 0.0, k_max
    best = (math.inf, hi)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        value = omega_of_k(mid)
        best = min(best, (abs(value - omega), mid))
        if value < omega:
            lo = mid
        else:
            hi = mid
    return best[1]


class TestFrameVectors:
    def test_third_coordinate_exactly_one(self, rng):
        for k in (0.0, 0.4, 0.9):
            f = frame_vectors(k, float(rng.uniform(-2, 2)))
            assert all(v[2] == 1.0 for v in f.vectors)

    def test_regular_norms(self, rng):
        f = frame_vectors(0.0, float(rng.uniform(0, 2)))
        for v in f.vectors:
            assert float(np.dot(v, v)) == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_regular_first_vector(self):
        f = frame_vectors(0.0, 0.0)
        assert f.vectors[0] == pytest.approx(
            [1.0 / math.sqrt(math.cos(math.pi / 5)), 0.0, 1.0], abs=1e-14)

    def test_period_five(self, rng):
        for k in (0.3, 0.8):
            u = float(rng.uniform(-1, 1))
            f = frame_vectors(k, u)
            quarter = complete_K(k)
            wrapped = frame_vectors(k, u + 5 * 0.8 * quarter)
            assert np.abs(np.asarray(f.vectors) - np.asarray(wrapped.vectors)).max() < 1e-12

    def test_lattice_constants_positive(self):
        f = frame_vectors(0.9, 0.1)
        assert f.cn_fifth > 0.0
        assert f.dn_fifth > 0.0

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            frame_vectors(1.2, 0.0)


class TestSweepFrames:
    def test_draws_sorted_u_per_k_from_the_stream(self):
        frames = list(sweep_frames(np.random.default_rng(4), 6))
        rng = np.random.default_rng(4)
        want = [(k, float(u)) for k in K_GRID
                for u in sorted(rng.uniform(0.0, 0.8 * complete_K(k), size=6))]
        assert [(f.k, f.u) for f in frames] == want
        assert frames[31].vectors == frame_vectors(0.5, want[31][1]).vectors

    def test_zero_samples_yield_nothing(self):
        assert list(sweep_frames(np.random.default_rng(0), 0)) == []

    def test_grid_is_the_rounded_tenths(self):
        # 0.1 * i is one ulp off at 0.3, 0.6 and 0.7
        assert K_GRID == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    @pytest.mark.parametrize("seed, samples", [(0, 1), (4, 6), (11, 20), (2024, 37)])
    def test_each_frame_is_frame_vectors(self, seed, samples):
        # the sweep shares each k's lattice constants among its frames, bit for bit,
        # and each frame's chords equal frame_vectors' too
        count = 0
        for count, frame in enumerate(sweep_frames(np.random.default_rng(seed), samples), 1):
            assert type(frame.u) is float
            want = frame_vectors(frame.k, frame.u)
            for field in dataclasses.fields(PentagonFrame):
                assert getattr(frame, field.name) == getattr(want, field.name), field.name
        assert count == len(K_GRID) * samples

    @pytest.mark.parametrize("number, want", [(5, K_GRID), (6, K_GRID[1:]), (9, K_GRID)])
    def test_battery_frames_use_the_grid(self, number, want, monkeypatch):
        # the k of every frame a criterion reads, at alpha_sequence or beta_sequence
        seen = []

        def recording(read):
            def record(frame):
                seen.append(frame.k)
                return read(frame)
            return record

        for name in ("alpha_sequence", "beta_sequence"):
            monkeypatch.setattr(napier_uniformization, name,
                                recording(getattr(napier_uniformization, name)))
        verify.run_criterion(number)
        assert tuple(dict.fromkeys(seen)) == want


class TestAlphaSequence:
    def test_regular_values(self, rng):
        f = frame_vectors(0.0, float(rng.uniform(0, 2)))
        assert alpha_sequence(f).alphas == pytest.approx((GOLDEN,) * 5, abs=1e-12)

    def test_pentagon_law(self):
        a = alpha_sequence(frame_vectors(0.5, 0.3)).alphas
        for j in range(5):
            assert 1 + a[j] == pytest.approx(
                a[(j - 2) % 5] * a[(j + 2) % 5], abs=1e-10)

    def test_translation_is_cyclic_shift(self):
        k, u = 0.5, 0.27
        quarter = complete_K(k)
        a = alpha_sequence(frame_vectors(k, u)).alphas
        b = alpha_sequence(frame_vectors(k, u + 0.8 * quarter)).alphas
        assert b == pytest.approx(tuple(a[(j + 1) % 5] for j in range(5)),
                                  abs=1e-10)

    def test_law_on_grid(self, rng):
        worst = 0.0
        for k in K_GRID:
            quarter = complete_K(k)
            for u in rng.uniform(0.0, 0.8 * quarter, size=20):
                a = alpha_sequence(frame_vectors(k, float(u))).alphas
                worst = max(worst, max(
                    abs(1 + a[j] - a[(j - 2) % 5] * a[(j + 2) % 5])
                    for j in range(5)))
        assert worst < 1e-10

    def test_sum_product_identity_on_grid(self, rng):
        for k in K_GRID:
            quarter = complete_K(k)
            for u in rng.uniform(0.0, 0.8 * quarter, size=5):
                a = alpha_sequence(frame_vectors(k, float(u))).alphas
                prod = math.prod(a)
                assert 3 + sum(a) == pytest.approx(prod, abs=1e-9 * max(1, prod))


class TestBetaSequence:
    def test_regular_values(self):
        f = frame_vectors(0.0, 0.9)
        assert beta_sequence(f) == pytest.approx((1 / GOLDEN,) * 5, abs=1e-12)

    def test_matches_alpha_ratio(self):
        f = frame_vectors(0.5, 0.3)
        alphas = alpha_sequence(f).alphas
        betas = beta_sequence(f)
        for b, a in zip(betas, alphas):
            assert b == pytest.approx(a / (1 + a), abs=1e-12)

    def test_strictly_below_one(self, rng):
        for k in (0.2, 0.7, 0.9):
            f = frame_vectors(k, float(rng.uniform(0, 1)))
            assert all(0.0 < b < 1.0 for b in beta_sequence(f))


def hand_frame(*rows):
    return PentagonFrame(k=0.0, u=0.0, K=math.pi / 2, cn_fifth=1.0, dn_fifth=1.0,
                         vectors=rows + ((1.0, 0.0, 1.0),) * (5 - len(rows)))


class TestChordGuards:
    @pytest.mark.parametrize("sequence", [alpha_sequence, beta_sequence])
    def test_orthogonal_rays_named(self, sequence):
        # refused when made, by the constructor and by replace, before either
        # sequence could read it; the frame it was replaced from still reads
        with pytest.raises(ChordDegenerateError, match="rays 0 and 1 orthogonal"):
            hand_frame((1.0, 0.0, 1.0), (-1.0, 0.0, 1.0))
        frame = frame_vectors(0.5, 0.3)
        rows = ((1.0, 0.0, 1.0),) * 3 + ((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
        with pytest.raises(ChordDegenerateError,
                           match=r"rays 2 and 3 orthogonal within 1e-12 at \(k=0.5, u=0.3\)"):
            dataclasses.replace(frame, vectors=rows)
        assert sequence(frame) == sequence(frame_vectors(0.5, 0.3))

    def test_nearly_orthogonal_alpha_overflows(self):
        # a.b = 1e-6 passes the orthogonality guard; alpha ~ 4e12 exceeds ALPHA_MAX
        frame = hand_frame((1.0, 0.0, 1.0), (-1.0 + 1e-6, 0.0, 1.0))
        with pytest.raises(ChordDegenerateError, match="overflows"):
            alpha_sequence(frame)
        assert max(beta_sequence(frame)) < 1.0

    def test_gap_cosines_far_from_the_guards_on_the_sweep(self):
        # beta is the squared sine of a gap; [0, 0.8K) is the frame's whole
        # period up to row order, and the smallest cosine there is 0.474
        worst = min(math.sqrt(1.0 - max(beta_sequence(frame_vectors(k, float(u)))))
                    for k in K_GRID
                    for u in np.linspace(0.0, 0.8 * complete_K(k), 401, endpoint=False))
        assert worst >= 0.4


class TestChordPass:
    def test_alpha_and_beta_share_one_pass(self):
        f = frame_vectors(0.5, 0.3)
        chords = f.chords
        assert chords == PentagonFrame(f.k, f.u, f.K, f.cn_fifth, f.dn_fifth, f.vectors).chords
        # both sequences read the stored pass: doctored entries show through
        object.__setattr__(f, "chords", tuple((2.0 * c, d, n) for c, d, n in chords))
        assert alpha_sequence(f).alphas == tuple(2.0 * c / (d * d) for c, d, _ in chords)
        assert beta_sequence(f) == tuple(2.0 * c / n for c, _, n in chords)

    def test_replaced_frame_recomputes(self):
        f = frame_vectors(0.5, 0.3)
        first = f.chords
        moved = dataclasses.replace(f, vectors=frame_vectors(0.5, 0.7).vectors)
        assert moved.chords == frame_vectors(0.5, 0.7).chords != first
        assert f.chords is first

    def test_degenerate_frame_raises_when_made(self, monkeypatch):
        # frame_vectors makes no frame without its chords: a kernel giving rows
        # (1, 0, 1) and (-1, 0, 1) next to each other is refused in the build
        triples = iter([(0.0, 1.0, 1.0)] * 2 + [(0.0, -1.0, 1.0)] + [(0.0, 1.0, 1.0)] * 3)
        monkeypatch.setattr(napier_uniformization, "jacobi_triple",
                            lambda u, k: next(triples))
        with pytest.raises(ChordDegenerateError,
                           match=r"rays 0 and 1 orthogonal within 1e-12 at \(k=0.7, u=0.2\)"):
            frame_vectors(0.7, 0.2)


def numpy_chords(f):
    """The chord quantities through np.cross and np.dot, one chord at a time."""
    alphas, betas = [], []
    for j in range(5):
        a, b = f.vectors[j], f.vectors[(j + 1) % 5]
        cross = np.cross(a, b)
        cross2, dot = float(np.dot(cross, cross)), float(np.dot(a, b))
        alphas.append(cross2 / dot ** 2)
        betas.append(cross2 / (float(np.dot(a, a)) * float(np.dot(b, b))))
    return alphas, betas


class TestChordsAgainstNumpy:
    @given(st.floats(0.0, 0.99), st.floats(-4.0, 4.0))
    @settings(max_examples=300)
    def test_plain_floats_match_vector_route(self, k, turns):
        f = frame_vectors(k, turns * complete_K(k))
        alphas = alpha_sequence(f).alphas
        betas = beta_sequence(f)
        want_alphas, want_betas = numpy_chords(f)
        assert alphas == pytest.approx(want_alphas, rel=1e-14, abs=0.0)
        assert betas == pytest.approx(want_betas, rel=1e-14, abs=0.0)
        # beta_j = alpha_j / (1 + alpha_j), by Lagrange's identity
        assert betas == pytest.approx([a / (1.0 + a) for a in alphas], rel=1e-14, abs=0.0)


class TestOmegaOfK:
    def test_regular_value(self):
        assert omega_of_k(0.0) == pytest.approx(11.0901699, abs=1e-7)

    def test_u_independence(self):
        k = 0.62
        f1 = alpha_sequence(frame_vectors(k, 0.0)).omega()
        f2 = alpha_sequence(frame_vectors(k, 1.1)).omega()
        assert abs(f1 - f2) < 1e-9

    def test_strictly_increasing(self):
        values = [omega_of_k(k) for k in np.linspace(0.0, 0.95, 25)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            omega_of_k(-0.5)


class TestKOfOmega:
    def test_regular(self):
        assert k_of_omega(OMEGA_CRITICAL) == 0.0

    @pytest.mark.parametrize("offset", [-1e-12, -1e-13, 0.0, 1e-13, 1e-11, 0.99e-10])
    def test_zero_inside_near_critical_window(self, offset):
        assert abs(offset) < _NEAR_CRITICAL
        assert k_of_omega(OMEGA_CRITICAL + offset) == 0.0

    # the bisection inverse over whole frames is the oracle for the spectral
    # route; its own properties are pinned by the next three tests
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_regular_whichever_side_k0_rounds(self, ulps, monkeypatch):
        exact = omega_of_k
        shifted = OMEGA_CRITICAL + ulps * math.ulp(OMEGA_CRITICAL)
        monkeypatch.setattr(napier_uniformization, "omega_of_k",
                            lambda k: shifted if k == 0.0 else exact(k))
        assert invert_omega_of_k(OMEGA_CRITICAL) == 0.0

    @pytest.mark.parametrize("ulps", [1, 2, 3, 5, 8])
    def test_just_above_regular(self, ulps):
        omega = OMEGA_CRITICAL + ulps * math.ulp(OMEGA_CRITICAL)
        k = invert_omega_of_k(omega)
        # omega - OMEGA_CRITICAL grows like k^4, so a few ulps reach k ~ 1e-4
        assert 0.0 <= k < 1e-3
        assert abs(omega_of_k(k) - omega) <= 4 * math.ulp(OMEGA_CRITICAL)

    def test_omega_20_against_root_formula(self):
        k = invert_omega_of_k(20.0)
        k_formula, _, _ = modulus_from_spectrum(solve_characteristic(20.0))
        assert abs(k - k_formula) < 1e-6
        # the printed four-digit roots imply k ~ 0.98973
        assert k == pytest.approx(0.98973, abs=2e-3)

    def test_agrees_with_brentq_oracle(self):
        for omega in np.geomspace(omega_of_k(0.1), omega_of_k(0.999999), 40):
            assert abs(k_of_omega(float(omega)) - invert_omega_of_k(float(omega))) < 1e-9

    def test_top_of_domain_is_exact(self):
        assert OMEGA_MAX == omega_of_k(MAX_MODULUS)
        assert k_of_omega(OMEGA_MAX) == MAX_MODULUS
        omega = OMEGA_MAX
        for _ in range(1000):
            omega = math.nextafter(omega, 0.0)
            assert k_of_omega(omega) <= MAX_MODULUS

    @pytest.mark.parametrize("omega", [math.nextafter(OMEGA_MAX, math.inf), 1e6, 1e12,
                                       1e300, math.inf, math.nan])
    def test_beyond_top_names_the_bound(self, omega):
        with pytest.raises(DomainError, match="MAX_MODULUS") as info:
            k_of_omega(omega)
        assert f"omega={omega!r}" in str(info.value)

    def test_roundtrip(self):
        assert omega_of_k(k_of_omega(12.0)) == pytest.approx(12.0, abs=1e-9)

    def test_subcritical(self):
        with pytest.raises(SubcriticalError):
            k_of_omega(5.0)
        with pytest.raises(SubcriticalError):
            k_of_omega(OMEGA_CRITICAL - 2e-12)


def test_bridge_on_grid(rng):
    # cn(2K/5) = -G'/G and dn(2K/5) = G'/G'' with the roots taken at the
    # frame's own omega; the k = 0 double root is excluded
    for k in K_GRID[1:]:
        u = float(rng.uniform(0.0, 0.5))
        omega = alpha_sequence(frame_vectors(k, u)).omega()
        s = solve_characteristic(omega)
        lattice = jacobi_triple(0.4 * complete_K(k), k)
        assert abs(lattice.cn + s.Gp / s.G) < 1e-9
        assert abs(lattice.dn - s.Gp / s.Gpp) < 1e-9
        assert abs(k_of_omega(omega) - k) < 1e-9
