"""Self-test of the benchmark's own code: tracer patching and restoring,
self-time arithmetic, the tail rule, the import-time parser, metric names
against BENCHMARK.json, and the self-time identity on a real traced op.

Run with ``python3 stagebench/run.py --selftest`` from the checkout root.
"""

import json
import os
import sys
import types
import unittest

import harness
import tracer as tracing
import workloads


def _fake_modules():
    """Two modules in the ``conespectra`` namespace: ``fake`` defines
    ``outer``/``inner``/``fact``; ``user`` binds ``inner`` by from-import and
    in a dispatch dict."""
    fake = types.ModuleType("conespectra.fake")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * 2\n"
         "def boom():\n    raise KeyError('x')\n"
         "def fact(n):\n    return 1 if n <= 1 else n * fact(n - 1)\n"
         "def _private():\n    return 0\n",
         fake.__dict__)
    user = types.ModuleType("conespectra.user")
    user.inner = fake.inner
    user.TABLE = {"inc": fake.inner}
    return fake, user


class TracerTest(unittest.TestCase):
    def test_install_wraps_every_binding_and_uninstall_restores(self):
        fake, user = _fake_modules()
        originals = (fake.inner, fake.outer, user.inner, user.TABLE["inc"],
                     fake._private)
        tr = tracing.Tracer()
        with tr.installed([fake, user]):
            self.assertIsNot(user.inner, originals[2])
            self.assertIs(user.inner, fake.inner)
            self.assertIs(user.TABLE["inc"], fake.inner)
            self.assertIs(fake._private, originals[4])
            with tr.span("op", "op", op=7):
                self.assertEqual(fake.outer(1), 4)
                user.TABLE["inc"](0)
        self.assertEqual((fake.inner, fake.outer, user.inner,
                          user.TABLE["inc"], fake._private), originals)
        names = [s[tracing.NAME] for s in tr.spans]
        self.assertEqual(names, ["op", "fake.outer", "fake.inner",
                                 "fake.inner"])
        self.assertEqual([s[tracing.PARENT] for s in tr.spans], [-1, 0, 1, 0])
        self.assertTrue(all(s[tracing.OP] == 7 for s in tr.spans))

    def test_exception_closes_span(self):
        fake, _ = _fake_modules()
        tr = tracing.Tracer()
        with tr.installed([fake]):
            with self.assertRaises(KeyError):
                fake.boom()
        self.assertIsNotNone(tr.spans[0][tracing.END])
        self.assertEqual(tr._stack, [])

    def test_self_times_and_nesting(self):
        # op [0, 10] > a [1, 6] > b [2, 4] > b [2.5, 3]; op > a [7, 9]
        spans = [["op", 0.0, 10.0, -1, 1, "op"],
                 ["m.a", 1.0, 6.0, 0, 1, "op"],
                 ["m.b", 2.0, 4.0, 1, 1, "op"],
                 ["m.b", 2.5, 3.0, 2, 1, "op"],
                 ["m.a", 7.0, 9.0, 0, 1, "op"]]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs, [3.0, 3.0, 1.5, 0.5, 2.0])
        self.assertEqual(sum(selfs), 10.0)
        by_name, ops = tracing.aggregate(spans)
        self.assertEqual(ops, {1: 10.0})
        # the inner m.b call lies inside the outer one: inclusive time once
        self.assertEqual(by_name["m.b"]["op"], [2.0, 2.0, 2])
        self.assertEqual(by_name["m.a"]["op"], [7.0, 5.0, 2])

    def test_recursive_function_inclusive_counted_once(self):
        fake, _ = _fake_modules()
        tr = tracing.Tracer()
        with tr.installed([fake]), tr.span("op", "op", op=0):
            fake.fact(5)
        by_name, ops = tracing.aggregate(tr.spans)
        s, own, calls = by_name["fake.fact"]["op"]
        self.assertEqual(calls, 5)
        outer = tr.spans[1]
        self.assertEqual(s, outer[tracing.END] - outer[tracing.START])


class HelpersTest(unittest.TestCase):
    def test_tail_rule(self):
        self.assertIsNone(harness.tail(range(19)))
        self.assertEqual(harness.tail(range(20))[0], 50.0)
        p, value, n = harness.tail(range(1000))
        self.assertEqual((p, n), (99.0, 1000))
        self.assertEqual(sum(v > value for v in range(1000)), 10)

    def test_parse_importtime(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   conespectra",
            "import time:       300 |       2000 |     scipy",
            "import time:       500 |       4000 |     scipy.special._ufuncs",
            "import time:        50 |         50 |       scipy._lib",
            "import time:      1000 |       9000 |   conespectra.cone",
            "import time:      2000 |      12000 | conespectra.cli",
            "import time:        10 |         10 | json",
        ])
        total, sp = harness.parse_importtime(text)
        self.assertAlmostEqual(total, 0.012)
        self.assertAlmostEqual(sp, 0.006)

    def test_metric_names_match_benchmark_json(self):
        if not os.path.exists("BENCHMARK.json"):
            self.skipTest("no BENCHMARK.json in the working directory")
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         harness.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         harness.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


class RealOpTest(unittest.TestCase):
    def test_self_times_sum_to_op_span(self):
        wl = workloads.WORKLOADS["spectral-sweep"]
        inp = wl.make_input(None, 3, 1)
        tr = tracing.Tracer()
        mods = harness._modules()
        with tr.installed(mods), tr.span("op", "op", op=0):
            out = wl.op(None, inp)
        self.assertIsNone(wl.check(None, inp, out))
        selfs = tracing.self_times(tr.spans)
        root = tr.spans[0]
        duration = root[tracing.END] - root[tracing.START]
        self.assertGreater(len(tr.spans), 10)
        self.assertAlmostEqual(sum(selfs), duration,
                               delta=1e-12 * len(selfs) + 1e-12)
        self.assertTrue(all(v >= 0 for v in selfs))
        # every public pipeline stage is wrapped
        names = {s[tracing.NAME] for s in tr.spans}
        for stage in ("curveperiods.period_data", "bidiff.h_expansion",
                      "smatrix.t_matrix_zero", "cone.asymptotic_entries",
                      "numerics.integrate_surface", "core.bidiff_values"):
            self.assertIn(stage, names)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1
