"""The benchmark's own tests; they run outside the timed runs.

    python3 bench/selftest.py

They check that the benchmark is wired as BENCHMARK.json declares, that the
exact and truncated routes agree on every exact-ladder input, that tracing
changes no report, that the pinned fields do not depend on the seed, and
that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_pweyl()

import pweyl  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _pinned_by_input(workload, result):
    """(name, prime) -> pinned fields, for every report of one pass."""
    fields = workloads.PINNED_FIELDS + ("bad_prime",)
    return {
        key: {field: report.get(field) for field in fields}
        for key, report in zip(workload.keys, result.reports)
    }


class BenchmarkDeclaration(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])

    def test_refuses_to_run_without_sources(self):
        os.makedirs(run.OUT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
            shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CrossRoute(unittest.TestCase):
    def test_exact_ladder_matches_truncated_route(self):
        for gen, p, annihilator, *_ in workloads.EXACT_LADDER:
            with self.subTest(generator=gen, p=p):
                spec = pweyl.DModuleSpec(1, (pweyl.parse_weyl(gen, 1, pweyl.QQ),))
                ideal = pweyl.specialize_mod_p(spec, p)
                result = pweyl.central_annihilator_truncated(ideal, pweyl.FrobeniusTwist(p, 1))
                got = tuple(str(g) for g in result.ideal.groebner_basis())
                self.assertEqual(got, annihilator, result.status)


class TracingAndSeeds(unittest.TestCase):
    def test_traced_reports_equal_untraced(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                workload = workloads.build(name, 3, run.OUT)
                plain = workload.run_pass()
                with Tracer() as tracer:
                    traced = workload.run_pass()
                self.assertEqual(plain.failures, [])
                self.assertEqual(traced.reports, plain.reports)
                self.assertGreater(tracer.span_count(), 0)

    def test_uninstall_restores_every_binding(self):
        def bindings():
            return {
                (name, attr): obj
                for name, module in sys.modules.items()
                if name == "pweyl" or name.startswith("pweyl.")
                for attr, obj in vars(module).items()
                if callable(obj)
            }

        before = bindings()
        mul = pweyl.WeylOp.__mul__
        with Tracer():
            self.assertIsNot(pweyl.WeylOp.__mul__, mul)
            self.assertIsNot(pweyl.p_support, before[("pweyl", "p_support")])
        self.assertIs(pweyl.WeylOp.__mul__, mul)
        self.assertEqual(bindings(), before)

    def test_self_time_excludes_children(self):
        workload = workloads.build("exact-ladder", 1, run.OUT)
        with Tracer() as tracer:
            workload.run_pass()
        totals = tracer.totals()
        for name, (calls, total, self_s) in totals.items():
            self.assertGreater(calls, 0, name)
            self.assertLessEqual(self_s, total + 1e-9, name)
        root_total = totals["psupport.p_support"][1]
        self.assertAlmostEqual(sum(s for _, _, s in totals.values()), root_total, delta=1e-6)

    def test_pinned_fields_do_not_depend_on_seed(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                pinned = []
                for seed in (1, 2):
                    workload = workloads.build(name, seed, run.OUT)
                    result = workload.run_pass()
                    self.assertEqual(result.failures, [])
                    pinned.append(_pinned_by_input(workload, result))
                self.assertEqual(pinned[0], pinned[1])
                self.assertEqual(len(pinned[0]), len(workload.keys))


if __name__ == "__main__":
    unittest.main()
