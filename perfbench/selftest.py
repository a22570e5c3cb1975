"""Self-test of the benchmark; runs in seconds.

    python3 perfbench/selftest.py

Checks that every workload, run at a tiny size, emits each metric that
``BENCHMARK.json`` names with its unit, traced and untraced, and that the
tracing wrappers leave ``tensor.conv3d`` and ``tensor.matmul`` outputs and
gradients bit-identical.
"""

from __future__ import annotations

import json
import tempfile
import unittest
from pathlib import Path

import run  # first: it caps BLAS threads before numpy loads

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class WorkloadTest(unittest.TestCase):
    def check(self, name: str, traced: bool, expected: dict):
        doc = run.run_workload(name, seed=3, seconds=0.01, traced=traced,
                               tiny=True, write=False)
        line = doc["line"]
        self.assertTrue(line["correct"], doc["failures"])
        self.assertGreaterEqual(line["attempted"], 1)
        self.assertEqual(line["failed"], 0)
        self.assertEqual({k: m["unit"] for k, m in line["metrics"].items()}, expected)
        for key, metric in line["metrics"].items():
            self.assertTrue(np.isfinite(metric["value"]), key)
        self.assertIn("commit", doc["machine"])
        run.render(doc)

    def test_untraced_workloads_emit_end_to_end_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.check(name, False, run.END_TO_END)

    def test_traced_workloads_emit_per_layer_metrics(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                self.check(name, True, run.PER_LAYER)


class MapCheckTest(unittest.TestCase):
    """localize-audit fails a wrong map or inference that is off."""

    def test_problems_flags_bad_outputs(self):
        vf = run.load_volformer()
        with tempfile.TemporaryDirectory() as tmp:
            wl = WORKLOADS["localize-audit"](vf, 3, Path(tmp), tiny=True)
            try:
                wl.setup()
                volume = vf.data.read_volume(wl.rows[0][0])
                probs = vf.model.forward_volume(wl.model, volume).data
                good = vf.localize.grad_cam(wl.model, volume, target_class=0,
                                            layer="stem")
                self.assertEqual(wl.problems(volume, probs, good, 0), [])
                flat = vf.localize.ActivationMap(np.zeros_like(good.volume), "stem", 0,
                                                 degenerate=True)
                self.assertEqual(len(wl.problems(volume, probs, flat, 0)),
                                 0 if good.degenerate else 1)
                uniform = vf.localize.ActivationMap(np.ones_like(good.volume), "stem", 0)
                self.assertEqual(len(wl.problems(volume, probs, uniform, 0)), 1)
                self.assertEqual(len(wl.problems(volume, probs[::-1], good, 0)), 1)
                self.assertEqual(len(wl.problems(volume, 2 * probs, good, 0)), 1)
            finally:
                wl.close()


class WrapperIdentityTest(unittest.TestCase):
    """The tracer may time the arithmetic but never change it."""

    @staticmethod
    def conv_and_matmul(T):
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(2, 3, 6, 5, 7)), requires_grad=True)
        k = T.Tensor(rng.normal(size=(4, 3, 3, 3, 3)), requires_grad=True)
        a = T.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        conv = T.conv3d(x, k, stride=2, pad=1)
        prod = T.matmul(a, b)
        loss = T.add(T.tensor_sum(T.mul(conv, conv)), T.tensor_sum(T.mul(prod, prod)))
        T.backward(loss)
        return [t.tobytes() for t in (conv.data, prod.data, x.grad, k.grad, a.grad, b.grad)]

    def test_wrapped_kernels_are_bit_identical(self):
        vf = run.load_volformer()
        plain = self.conv_and_matmul(vf.tensor)
        originals = (vf.tensor.conv3d, vf.tensor.matmul, vf.tensor.backward)
        tracer = Tracer(vf)
        tracer.install()
        try:
            self.assertIsNot(vf.tensor.conv3d, originals[0])
            traced = self.conv_and_matmul(vf.tensor)
        finally:
            tracer.uninstall()
        self.assertEqual((vf.tensor.conv3d, vf.tensor.matmul, vf.tensor.backward), originals)
        self.assertEqual(plain, traced)
        names = {span[2] for span in tracer.spans}
        self.assertTrue({"tensor.conv3d", "tensor.conv3d.bwd", "tensor.matmul",
                         "tensor.matmul.bwd", "tensor.backward"} <= names)


if __name__ == "__main__":
    unittest.main()
