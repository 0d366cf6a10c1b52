"""Self-tests of the benchmark's tracer and checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  The file is not named test_*.py, so the
repository's own pytest suite does not collect it.
"""
from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402
from pentagramma import (cli, elliptic_kernel, napier_uniformization,  # noqa: E402
                         poncelet, verify)


def traced_calls(run, op_id=0):
    """Call counts by "module.function" for one traced call of run()."""
    tracer = tracing.Tracer()
    tracer.install(op_id)
    try:
        run()
    finally:
        tracer.uninstall()
    summary, _ = tracer.summary()
    return {name[:-len(".calls")]: value for name, value in summary.items()
            if name.endswith(".calls") and value}


class TracerBindings(unittest.TestCase):

    def test_frame_vectors_counts(self):
        calls = traced_calls(lambda: napier_uniformization.frame_vectors(0.5, 0.3))
        self.assertEqual(calls, {"napier_uniformization.frame_vectors": 1,
                                 "elliptic_kernel.complete_K": 1,
                                 "elliptic_kernel.jacobi_triple": 6,
                                 "elliptic_kernel.am": 6})

    def test_trajectory_counts(self):
        config = poncelet.search_closing_config(5, 2, 1.0, 0.3)
        calls = traced_calls(lambda: poncelet.trajectory(config, 0.4, 37))
        self.assertEqual(calls, {"poncelet.trajectory": 1, "poncelet.chord_step": 37})

    def test_names_imported_by_name_are_bound(self):
        tracer = tracing.Tracer()
        self.assertEqual(tracer.bound_keys("napier_uniformization"),
                         ["alpha_sequence", "beta_sequence", "complete_K", "frame_vectors",
                          "jacobi_triple", "k_of_omega", "omega_of_k"])
        self.assertIn("incomplete_F", tracer.bound_keys("poncelet"))
        self.assertGreaterEqual(len(tracer.bound_keys("cli")), 20)
        originals = dict(vars(cli))
        tracer.install(0)
        try:
            self.assertIs(cli.incomplete_F.__wrapped__, originals["incomplete_F"])
            self.assertIsNot(verify.CRITERIA[4][1], verify.criterion_4.__wrapped__)
        finally:
            tracer.uninstall()
        self.assertIs(cli.incomplete_F, originals["incomplete_F"])
        self.assertIs(verify.CRITERIA[4][1], verify.criterion_4)

    def test_absent_function_is_reported(self):
        # remove k_of_omega as a later commit may: from its module and from
        # every pentagramma module that imported it by name
        removed = {name: module for name, module in sys.modules.items()
                   if name.startswith("pentagramma") and module is not None
                   and vars(module).get("k_of_omega") is napier_uniformization.k_of_omega}
        original = napier_uniformization.k_of_omega
        for module in removed.values():
            delattr(module, "k_of_omega")
        try:
            tracer = tracing.Tracer()
            tracer.install(0)
            try:
                napier_uniformization.omega_of_k(0.3)
            finally:
                tracer.uninstall()
        finally:
            for module in removed.values():
                module.k_of_omega = original
        summary, _ = tracer.summary()
        self.assertIn("pentagramma.cli", removed)
        self.assertEqual(tracer.absent, ["napier_uniformization.k_of_omega"])
        self.assertEqual(summary["napier_uniformization.k_of_omega.calls"], 0)
        self.assertEqual(summary["napier_uniformization.omega_of_k_per_k_of_omega"], 0.0)
        self.assertEqual(summary["napier_uniformization.omega_of_k.calls"], 1)
        self.assertIs(cli.k_of_omega, original)

    def test_typed_error_counted_once_where_raised(self):
        tracer = tracing.Tracer()
        tracer.install(0)
        try:
            with self.assertRaises(poncelet.NoSolutionError):
                poncelet.search_closing_config(5, 2, 1.0, 0.4)
        finally:
            tracer.uninstall()
        summary, _ = tracer.summary()
        self.assertEqual(summary["poncelet.errors"], 1)
        self.assertEqual(summary["poncelet.search_success_share"], 0.0)
        self.assertEqual(summary["poncelet.closure_residual_per_search"], 2.0)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.install(0)
        try:
            napier_uniformization.frame_vectors(0.5, 0.3)
        finally:
            tracer.uninstall()
        spans = tracer.arrays()
        summary, _ = tracer.summary()
        total = float(spans["dur"][spans["parent"] < 0].sum())
        layer_self = sum(v for k, v in summary.items()
                         if k.count(".") == 1 and k.endswith(".self_s"))
        self.assertAlmostEqual(layer_self, total, delta=1e-9)


class TracedRuns(unittest.TestCase):

    def traced_run(self, name, seed):
        workload = WORKLOADS[name]
        tracer = tracing.Tracer()
        inputs = workload.make_inputs(np.random.default_rng([seed, 0]), workload.cycle * 2)
        verdicts = worker.run_ops(workload, inputs, tracer)[4]
        self.assertTrue(all(v.ok for v in verdicts), verdicts)
        return {k: v for k, v in tracer.summary()[0].items() if not k.endswith("_s")}

    def test_same_seed_same_counts(self):
        for name in ("battery", "shape_sweep", "jacobi_grid", "poncelet_walk"):
            with self.subTest(workload=name):
                first = self.traced_run(name, 7)
                self.assertEqual(first, self.traced_run(name, 7))
                self.assertGreater(sum(v for k, v in first.items() if k.endswith(".calls")), 0)


class ProbeTracking(unittest.TestCase):

    def test_recovers_slope_within_classes(self):
        rng = np.random.default_rng(0)
        local = 1.7e-3 * rng.uniform(1.0, 2.0, size=400)
        classes = [i % 4 for i in range(400)]
        base = np.array([1e-4, 1e-3, 1e-2, 5e-2])[classes]
        seconds = base * (local / 1.7e-3) ** 0.6 * rng.lognormal(0.0, 0.01, size=400)
        slope, slope_se = probe.tracking(seconds, local, classes)
        self.assertAlmostEqual(slope, 0.6, delta=3 * slope_se)
        self.assertLess(slope_se, 0.01)


def perturbed_failure(name, perturb, index=0):
    """Run one op of the workload, perturb its output, and check it."""
    workload = WORKLOADS[name]
    inp = workload.make_inputs(np.random.default_rng([3, 0]), workload.cycle)[index]
    out = workload.run(inp)
    assert workload.check(inp, out).ok, "unperturbed output must pass"
    return worker.verdict_of(workload, inp, perturb(out), None)


class PerturbedOutputs(unittest.TestCase):

    def test_battery_status_flip(self):
        def flip(out):
            code, text = out
            return code, text.replace('"criterion_03": "pass"', '"criterion_03": "fail"')
        self.assertFalse(perturbed_failure("battery", flip).ok)

    def test_battery_expected_pair_must_still_fail(self):
        def heal(out):
            code, text = out
            return code, text.replace('"value": "inf"', '"value": 0.0', 1)
        self.assertFalse(perturbed_failure("battery", heal).ok)

    def test_shape_sweep_modulus(self):
        def shift(out):
            cycle, five, k_back, gauss = out
            return cycle, five, k_back + 1e-6, gauss
        self.assertFalse(perturbed_failure("shape_sweep", shift).ok)

    def test_jacobi_grid_roundtrip(self):
        def shift(out):
            amps, triples, args, back = out
            return amps, triples, args, [back[0] + 1e-9] + back[1:]
        self.assertFalse(perturbed_failure("jacobi_grid", shift).ok)

    def test_jacobi_grid_triples_shifted_by_one(self):
        def shift(out):
            amps, triples, args, back = out
            return amps, triples[1:] + triples[:1], args, back
        self.assertFalse(perturbed_failure("jacobi_grid", shift).ok)

    def test_jacobi_grid_dn_identity(self):
        def scale(out):
            amps, triples, args, back = out
            sn, cn, dn = triples[3]
            return amps, triples[:3] + [(sn, cn, dn * (1 + 1e-10))] + triples[4:], args, back
        self.assertFalse(perturbed_failure("jacobi_grid", scale).ok)

    def test_jacobi_grid_oracle(self):
        workload = WORKLOADS["jacobi_grid"]
        inp = workload.make_inputs(np.random.default_rng([3, 0]), 1)[0]
        out = workload.run(inp)
        sample = workload.sample(0, inp, out)
        ((index, good),) = workload.check_samples([sample])
        self.assertTrue(good.ok)
        _, k, points, (phi, f_value) = sample
        ((_, bad),) = workload.check_samples([(0, k, points, (phi, f_value * (1 + 1e-9)))])
        self.assertFalse(bad.ok)
        # every sampled u within 3K is held to a tolerance, not only the first
        self.assertEqual(len(points), 1 + workload.inside_points)
        for i in range(1, len(points)):
            u, (sn, cn, dn) = points[i]
            moved = points[:i] + [(u, (sn, cn + 1e-9, dn))] + points[i + 1:]
            ((_, bad),) = workload.check_samples([(0, k, moved, (phi, f_value))])
            self.assertFalse(bad.ok, i)

    def test_poncelet_walk_angle(self):
        workload = WORKLOADS["poncelet_walk"]
        entries = [e[:4] for e in workload.make_inputs(np.random.default_rng([3, 0]),
                                                       workload.cycle)]
        feasible = next(i for i, e in enumerate(entries) if e[3] is not None)

        def nudge(out):
            config, walk = out
            phis = walk.phis.copy()
            phis[5:] += 1e-7
            return config, poncelet.PonceletTrajectory(phis=phis, config=config)
        self.assertFalse(perturbed_failure("poncelet_walk", nudge, feasible).ok)

    def test_missing_no_solution_error_fails(self):
        workload = WORKLOADS["poncelet_walk"]
        inp = (5, 2, 0.4, None, 0.0)
        self.assertTrue(workload.check(inp, workload.run(inp)).ok)
        config = poncelet.search_closing_config(5, 2, 1.0, 0.3)
        self.assertFalse(workload.check(inp, (config, None)).ok)

    def test_exception_fails_the_op(self):
        verdict = worker.verdict_of(WORKLOADS["shape_sweep"], (0.5, 0.1), None,
                                    ValueError("boom"))
        self.assertEqual(verdict, Verdict(False, math.inf, "ValueError: boom"))


if __name__ == "__main__":
    unittest.main()
