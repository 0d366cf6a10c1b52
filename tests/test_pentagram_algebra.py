import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentagramma.cone_spectrum import GOLDEN
from pentagramma.errors import DomainError, InvariantError
from pentagramma.oracles import right_triangle
from pentagramma.pentagram_algebra import (AlphaCycle, NapierParts,
                                           build_sphere_vertices, complete_from_two,
                                           gauss_reflect, napier_rotate,
                                           orthogonality_residuals, pentagon_parts,
                                           pentagram_invariants, sides_from_alphas,
                                           verify_napier)

GAUSS_TUPLE = (9.0, 2.0 / 3.0, 2.0, 5.0, 1.0 / 3.0)

positive_seed = st.floats(min_value=0.05, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
# subnormal to the largest double, so alpha * gamma can underflow or overflow
any_positive_seed = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestCyclicMaps:
    def test_rotation_is_shift(self):
        t = NapierParts((1.0, 2.0, 3.0, 4.0, 5.0))
        assert napier_rotate(t).parts == (2.0, 3.0, 4.0, 5.0, 1.0)

    def test_constant_tuple_fixed(self):
        t = NapierParts((0.3,) * 5)
        assert napier_rotate(t) == t

    @given(st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 5))
    def test_rotation_order_five(self, parts):
        t = NapierParts(parts)
        out = t
        for _ in range(5):
            out = napier_rotate(out)
        assert out == t

    @given(st.tuples(*[st.floats(-2, 2, allow_nan=False)] * 5))
    def test_reflection_is_double_rotation(self, parts):
        t = NapierParts(parts)
        assert gauss_reflect(t) == napier_rotate(napier_rotate(t))
        out = t
        for _ in range(5):
            out = gauss_reflect(out)
        assert out == t


class TestNapierRules:
    def test_oracle_triangles(self, rng):
        for _ in range(100):
            a, b = rng.uniform(0.2, 1.35, size=2)
            parts, _, _, _ = right_triangle(float(a), float(b))
            rule_one, rule_two = verify_napier(parts)
            assert max(abs(r) for r in rule_one + rule_two) < 1e-11

    def test_isoceles(self):
        parts, _, _, _ = right_triangle(0.9, 0.9)
        rule_one, rule_two = verify_napier(parts)
        assert max(abs(r) for r in rule_one + rule_two) < 1e-12

    def test_perturbed_tuple_fails(self):
        parts, _, _, _ = right_triangle(0.7, 1.0)
        broken = NapierParts((parts.parts[0] + 0.1,) + parts.parts[1:])
        rule_one, rule_two = verify_napier(broken)
        assert max(abs(r) for r in rule_one + rule_two) > 0.01

    def test_regular_pentagram_parts(self):
        # all five parts equal the complement of the regular side arc
        side = math.acos(1.0 / GOLDEN)
        parts = NapierParts((math.pi / 2 - side,) * 5)
        rule_one, rule_two = verify_napier(parts)
        assert max(abs(r) for r in rule_one + rule_two) < 1e-12

    def test_pentagon_triangles_all_valid(self):
        # the five triangles cut off a genuine pentagon all obey both rules
        sides = sides_from_alphas(complete_from_two(9.0, 2.0))
        for i in range(5):
            rule_one, rule_two = verify_napier(pentagon_parts(sides, i))
            assert max(abs(r) for r in rule_one + rule_two) < 1e-12

    def test_pentagon_triangles_are_reflections(self):
        sides = sides_from_alphas(complete_from_two(3.0, 1.2))
        for i in range(4):
            assert gauss_reflect(pentagon_parts(sides, i)) == \
                pentagon_parts(sides, i + 1)


def tan_squared(sides) -> AlphaCycle:
    return AlphaCycle(tuple(math.tan(s) ** 2 for s in sides))


class TestAlphaCycle:
    def test_pole_rejected(self):
        # a side at pi/2 puts tan^2 near 2.7e32, beyond ALPHA_MAX
        with pytest.raises(DomainError):
            tan_squared([0.5, 0.5, math.pi / 2, 0.5, 0.5])

    def test_bounds_rejected(self):
        with pytest.raises(DomainError):
            AlphaCycle((1e9, 1.0, 1.0, 1.0, 1.0))

    def test_roundtrip(self):
        for seed in ((9.0, 2.0), (1.0, 1.0), (GOLDEN, GOLDEN)):
            cycle = complete_from_two(*seed)
            back = tan_squared(sides_from_alphas(cycle))
            assert back.alphas == pytest.approx(cycle.alphas, rel=1e-14)


class TestCompleteFromTwo:
    def test_gauss_example(self):
        assert complete_from_two(9.0, 2.0).alphas == pytest.approx(
            GAUSS_TUPLE, abs=1e-15)

    def test_golden_fixed_point(self):
        cycle = complete_from_two(GOLDEN, GOLDEN)
        assert cycle.alphas == pytest.approx((GOLDEN,) * 5, abs=1e-14)

    def test_unit_seeds(self):
        cycle = complete_from_two(1.0, 1.0)
        assert cycle.alphas == (1.0, 3.0, 1.0, 2.0, 2.0)
        total, prod, augmented = pentagram_invariants(cycle)
        assert (total, prod, augmented) == pytest.approx((12.0,) * 3, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            complete_from_two(-1.0, 2.0)

    @given(any_positive_seed, any_positive_seed)
    @settings(max_examples=300)
    def test_any_positive_seeds_give_a_cycle_or_a_domain_error(self, alpha, gamma):
        # AlphaCycle holds every entry to its bounds; any other exception fails the test
        try:
            complete_from_two(alpha, gamma)
        except DomainError:
            pass

    @given(positive_seed, positive_seed)
    @settings(max_examples=300)
    def test_cyclic_relations(self, alpha, gamma):
        cycle = complete_from_two(alpha, gamma)
        assert max(abs(r) for r in cycle.relation_residuals()) < 1e-12

    @given(positive_seed, positive_seed)
    @settings(max_examples=300)
    def test_three_invariants_coincide(self, alpha, gamma):
        total, prod, augmented = pentagram_invariants(complete_from_two(alpha, gamma))
        scale = max(1.0, prod)
        assert abs(total - prod) / scale < 1e-10
        assert abs(augmented - prod) / scale < 1e-10

    @given(positive_seed, positive_seed)
    @settings(max_examples=300)
    def test_omega_never_subcritical(self, alpha, gamma):
        _, prod, _ = pentagram_invariants(complete_from_two(alpha, gamma))
        assert prod >= GOLDEN ** 5 - 1e-9


class TestGoldenFacts:
    def test_cos_fifth(self):
        assert math.cos(math.pi / 5) == pytest.approx(
            (1 + math.sqrt(5)) / 4, abs=1e-15)

    def test_product_and_difference(self):
        c = math.cos(math.pi / 5)
        cp = math.cos(2 * math.pi / 5)
        assert c * cp == pytest.approx(0.25, abs=1e-15)
        assert c - cp == pytest.approx(0.5, abs=1e-15)


class TestSphereVertices:
    def test_gauss_tuple_roundtrip(self):
        cycle = complete_from_two(9.0, 2.0)
        pentagon = build_sphere_vertices(cycle)
        recovered = tuple(math.tan(s) ** 2 for s in pentagon.sides)
        assert recovered == pytest.approx(cycle.alphas, abs=1e-10)

    def test_unit_vertices(self):
        pentagon = build_sphere_vertices(complete_from_two(2.5, 0.8))
        assert np.linalg.norm(pentagon.vertices, axis=1) == pytest.approx(
            np.ones(5), abs=1e-14)

    def test_orthogonality(self):
        pentagon = build_sphere_vertices(complete_from_two(9.0, 2.0))
        assert max(abs(r) for r in orthogonality_residuals(pentagon.vertices)) < 1e-10

    def test_orthogonality_residuals_bit_for_bit(self, rng):
        # the dot products as first formed, through a three-term dot helper
        def dot(a, b):
            return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

        for _ in range(300):
            alpha, gamma = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            vertices = build_sphere_vertices(complete_from_two(float(alpha), float(gamma))).vertices
            for rows in (vertices, tuple(tuple(r) for r in rng.normal(size=(5, 3)))):
                ours = orthogonality_residuals(rows)
                ref = tuple(dot(rows[(j - 1) % 5], rows[(j + 1) % 5]) for j in range(5))
                assert [float(x).hex() for x in ours] == [float(x).hex() for x in ref]

    def test_regular_sides(self):
        pentagon = build_sphere_vertices(complete_from_two(GOLDEN, GOLDEN))
        expected = (math.sqrt(5) - 1) / 2
        for s in pentagon.sides:
            assert math.cos(s) == pytest.approx(expected, abs=1e-12)

    def test_inconsistent_cycle_rejected(self):
        bad = AlphaCycle((9.0 * 1.1, 2.0 / 3.0, 2.0, 5.0, 1.0 / 3.0))
        with pytest.raises(InvariantError):
            build_sphere_vertices(bad)

    def test_vertices_realise_sides(self, rng):
        # the arc P_{i+2} P_{i+3} (1-based), measured on the vertices, is side p_i
        for _ in range(200):
            alpha, gamma = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
            pentagon = build_sphere_vertices(complete_from_two(float(alpha), float(gamma)))
            for i, side in enumerate(pentagon.sides):
                a, b = pentagon.vertices[(i + 2) % 5], pentagon.vertices[(i + 3) % 5]
                arc = math.atan2(np.linalg.norm(np.cross(a, b)), np.dot(a, b))
                assert abs(arc - side) <= 1e-12

    def test_identity_on_cycles(self, rng):
        for _ in range(25):
            alpha, gamma = rng.uniform(0.3, 8.0, size=2)
            cycle = complete_from_two(float(alpha), float(gamma))
            pentagon = build_sphere_vertices(tan_squared(sides_from_alphas(cycle)))
            recovered = tuple(math.tan(s) ** 2 for s in pentagon.sides)
            assert recovered == pytest.approx(cycle.alphas, rel=1e-10)
