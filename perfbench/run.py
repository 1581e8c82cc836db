"""Benchmark of the allocation pipeline: one workload per run, from one process.

    python3 perfbench/run.py --workload sweep_city --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the package is imported from its `src/`.
A run sets up (imports, the first HiGHS call, the workload's inputs), then
times passes until `--seconds` have gone, checking each pass's outputs
outside the timed region. `--trace 0` reports the end-to-end metrics;
`--trace 1` wraps the package's public functions and reports per-layer
metrics instead. The last line of standard output is the result as JSON;
the line before it holds the details (environment, digests, work counts).
`--workload all` runs every workload with and without tracing, each in its
own process, and prints every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)  # before numpy loads, in this process and its children

# Set-up is timed in fresh interpreters (imports happen once per process) plus this one.
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def import_workloads():
    """Import the benchmark's workloads against this checkout's `src/`, never an installed copy."""
    package = ROOT / "src" / "transit_equity" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a full checkout")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def set_up(name: str, seed: int, scratch: Path, tracer=None):
    """Time imports, the first HiGHS call and input generation; return (seconds, workload, inputs)."""
    started = perf_counter()
    wl = import_workloads()
    wl.first_call_warmup()
    workload = wl.WORKLOADS[name]
    if tracer is None:
        inputs = workload.setup(seed, scratch)
    else:
        with tracing.installed(tracer), tracer.span("setup"):
            inputs = workload.setup(seed, scratch)
    return perf_counter() - started, workload, inputs


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--probe-setup"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def tail(times: list[float]) -> dict | None:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            rank = max(1, int(n * p / 100))
            return {"percentile": p, "value": sorted(times)[rank - 1]}
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Passes:
    """Attempted and failed passes of one run, with their output digests."""

    def __init__(self, workload, inputs, scratch: Path):
        self.workload, self.inputs = workload, inputs
        self.out = scratch / "out"
        self.digests: list[str] = []
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def run_one(self, region=nullcontext, extra_check=None) -> float | None:
        """Run one pass inside `region`, then check it; its seconds, or None if it failed."""
        self.attempted += 1
        try:
            with region():
                started = perf_counter()
                result = self.workload.run(self.inputs, self.out)
                elapsed = perf_counter() - started
            problems, digest = self.workload.check(self.inputs, result, self.out)
            problems += extra_check() if extra_check else []
            if self.digests and digest != self.digests[0]:
                problems.append("outputs differ from the first pass of this run")
            self.digests.append(digest)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
            return None
        return elapsed


def summary(times: list[float]) -> dict:
    return {"p50": statistics.median(times) if times else None, "tail": tail(times),
            "samples": len(times), "each": times}


def measure(name: str, seed: int, seconds: float, trace: bool, setup_probes: int = SETUP_PROBES):
    """One benchmark run; returns (result, details, tracer or None)."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        scratch = Path(tmp)
        tracer = tracing.Tracer() if trace else None
        own_setup, workload, inputs = set_up(name, seed, scratch, tracer)
        setup_samples = [own_setup]
        setup_samples += [probe_setup(name, seed) for _ in range(0 if trace else setup_probes)]
        from transit_equity import lp

        @contextmanager
        def traced():
            with tracing.installed(tracer), tracer.span("pass"):
                yield

        def verified() -> list[str]:
            bad = sum(bool(lp.verify_solution(i, s)) for i, s in tracer.solutions)
            tracer.solutions.clear()
            return [f"{bad} solve_lp results fail verify_solution"] if bad else []

        passes = Passes(workload, inputs, scratch)
        plain_times, traced_times, took = [], [], []
        deadline = perf_counter() + seconds
        while True:
            started = perf_counter()
            # A traced run alternates plain and traced passes, so that it checks
            # that tracing leaves the outputs alone and measures its overhead.
            if trace and len(took) % 2:
                traced_times.append(passes.run_one(traced, verified))
            else:
                plain_times.append(passes.run_one())
            took.append(perf_counter() - started)
            # Start no pass expected to end more than half a pass past the deadline.
            if perf_counter() + 0.5 * statistics.median(took) >= deadline and (
                not trace or len(took) >= 2
            ):
                break
        plain_times = [t for t in plain_times if t is not None]
        traced_times = [t for t in traced_times if t is not None]

        details = {
            "workload": name, "trace": int(trace), "env": environment(seed),
            "setup_s": setup_samples, "work": workload.work(inputs),
            "attempted": passes.attempted, "failed": passes.failed,
            "fail_ratio": passes.failed / passes.attempted,
            "pass_s": summary(plain_times),
            "digests": sorted(set(passes.digests)), "problems": passes.problems[:20],
        }
        if trace:
            layers = tracing.layer_metrics(tracer, tracer.roots())
            details["traced_pass_s"] = summary(traced_times)
            if plain_times and traced_times:
                details["tracing_overhead_s"] = (
                    statistics.median(traced_times) - statistics.median(plain_times)
                )
            details["work"].update({k: v for k, v in layers.items() if tracing.unit(k) == "count"})
            metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "pass_s": {"value": details["pass_s"]["p50"], "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
                "ok_ratio": {"value": 1.0 - details["fail_ratio"], "unit": "ratio"},
            }
    correct = passes.failed == 0 and len(details["digests"]) == 1 and bool(plain_times)
    result = {"correct": correct, "attempted": passes.attempted, "failed": passes.failed,
              "metrics": metrics}
    return result, details, tracer


def run_all(seed: int, seconds: float) -> int:
    names = list(import_workloads().WORKLOADS)
    status = 0
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: failed\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])
            print(f"{name}  trace={trace}  attempted={result['attempted']} "
                  f"failed={result['failed']} fail_ratio={details['fail_ratio']:.4g} "
                  f"correct={result['correct']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
            if details["pass_s"]["tail"]:
                print(f"  pass_s.p{details['pass_s']['tail']['percentile']:<33} "
                      f"{details['pass_s']['tail']['value']:>14.6g} s")
            print(f"  {'pass_s.samples':<40} {details['pass_s']['samples']:>14d} count")
            if "tracing_overhead_s" in details:
                print(f"  {'tracing_overhead_s':<40} {details['tracing_overhead_s']:>14.6g} s")
            status |= 0 if result["correct"] else 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.probe_setup:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            print(set_up(args.workload, args.seed, Path(tmp))[0])
        return 0
    result, details, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
