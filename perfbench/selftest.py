"""The benchmark's own tests, on smoke-sized workloads.

    python3 perfbench/selftest.py

Kept out of the package's pytest run on purpose: they time real passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402

wl = run.import_workloads()
SMOKE = {
    "sweep_city": wl.Sweep("sweep_city", wl.SWEEP_CITY_BUDGETS[:2], 2),
    "sweep_fractional": wl.Sweep("sweep_fractional", wl.SWEEP_FRACTIONAL_BUDGETS[:2], 2,
                                 group_by="household_size"),
    "city_4x": wl.Sweep("city_4x", wl.CITY_4X_BUDGETS, 1, city=wl.CITY_4X),
    "exact_small": wl.ExactSmall(10),
}
SEED = 3


def smoke_measure(name: str, trace: bool):
    """One pass (two in a traced run) of the smoke-sized workload."""
    full = wl.WORKLOADS[name]
    wl.WORKLOADS[name] = SMOKE[name]
    try:
        return run.measure(name, SEED, seconds=0.0, trace=trace, setup_probes=1)
    finally:
        wl.WORKLOADS[name] = full


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_checks(self):
        for name in SMOKE:
            with self.subTest(workload=name):
                result, details, _ = smoke_measure(name, trace=False)
                self.assertEqual(details["fail_ratio"], 0.0, details["problems"])
                self.assertTrue(result["correct"])
                self.assertEqual(len(details["setup_s"]), 2)
                for entry in result["metrics"].values():
                    self.assertGreater(entry["value"], 0.0)


class TraceTest(unittest.TestCase):
    def check_spans(self, tracer: tracing.Tracer, traced_pass_s: float) -> None:
        spans = tracer.spans
        for index, span in enumerate(spans):
            self.assertLessEqual(span.start, span.end)
            self.assertGreaterEqual(tracer.self_time(index), -1e-9, span.name)
            children = sorted((spans[c] for c in span.children), key=lambda s: s.start)
            for child in children:
                self.assertLessEqual(span.start, child.start)
                self.assertLessEqual(child.end, span.end)
            for before, after in zip(children, children[1:]):
                self.assertLessEqual(before.end, after.start)
        pass_roots = [r for r in tracer.roots() if spans[r].name == "pass"]
        self.assertTrue(pass_roots)
        for root in pass_roots:
            total_self = sum(tracer.self_time(i) for i in tracer.descendants(root))
            self.assertAlmostEqual(total_self, spans[root].duration, delta=1e-9)
        # The pass timer runs inside the root span, so the two differ by the span's own cost.
        self.assertAlmostEqual(spans[pass_roots[0]].duration, traced_pass_s,
                               delta=1e-3 + 0.01 * traced_pass_s)

    def test_spans_nest_and_self_times_sum_to_the_pass(self):
        for name in ("sweep_city", "exact_small"):
            with self.subTest(workload=name):
                result, details, tracer = smoke_measure(name, trace=True)
                self.assertTrue(result["correct"], details["problems"])
                self.check_spans(tracer, details["traced_pass_s"]["p50"])

    def test_traced_outputs_equal_untraced_and_overhead_is_reported(self):
        for name in ("sweep_fractional", "exact_small"):
            with self.subTest(workload=name):
                _, plain, _ = smoke_measure(name, trace=False)
                result, traced, _ = smoke_measure(name, trace=True)
                self.assertEqual(plain["digests"], traced["digests"])
                self.assertEqual(set(result["metrics"]), set(tracing.PER_LAYER))
                print(f"\n{name}: tracing overhead {traced['tracing_overhead_s']:+.4f} s "
                      f"on an untraced pass of {traced['pass_s']['p50']:.4f} s", file=sys.stderr)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {m: tracing.unit(m) for m in tracing.PER_LAYER})
        result, _, _ = smoke_measure("exact_small", trace=False)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v["unit"] for k, v in result["metrics"].items()})

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "sweep_city",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
