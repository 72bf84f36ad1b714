"""kljnsim benchmark: one closed-loop workload per run, checked and timed.

Usage (from the root of the repository)::

    python3 benchmarks/run.py --workload keygen --seed 1 --seconds 15 --trace 0

One client in one process sends the workload's next request only after the
previous one completes, for ``--seconds`` seconds. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs every request twice, untraced and
traced in alternating order, and prints the per-layer metrics of the traced
executions plus the tracing overhead. The last line of standard output is
the JSON result; the line before it is the run record. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import reference
from checks import Outcome
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

#: Set-up is measured in this many fresh processes (after one discarded
#: warm-up that compiles bytecode) and reported as their median.
SETUP_PROBES = 5

WORKLOAD_NAMES = (
    "keygen", "analysis.ber", "analysis.passive", "analysis.injection",
    "network.sat", "network.churn",
)


def load_workloads():
    """Import the workload module against this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import kljnsim

    found = Path(kljnsim.__file__).resolve().parent
    if found != (SRC / "kljnsim").resolve():
        raise ImportError(f"kljnsim imported from {found}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(args) -> list[float]:
    """Wall time from process start until a fresh process is ready to send
    its first request, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited with {code}")
        if probe:
            times.append(elapsed)
    return times


def safe_call(fn, arg):
    """Run one request step; an exception becomes a failed outcome."""
    try:
        return fn(arg), None
    except Exception as exc:  # a crashing request is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def execute(workload, seed) -> tuple[float, Outcome]:
    """Time one request and check its result."""
    start = time.perf_counter()
    raw, error = safe_call(workload.run, seed)
    elapsed = time.perf_counter() - start
    if error is None:
        outcome, error = safe_call(workload.check, raw)
    if error is not None:
        outcome = Outcome(0, error)
    return elapsed, outcome


def run_untraced(workload, args) -> list[tuple[float, float, Outcome]]:
    """Requests until the run length is spent, as (seconds, reference
    seconds, outcome). Every group of requests that took at least
    ``reference.INTERVAL_S`` is bracketed by reference bursts, and its
    reference time is the mean of the two."""
    samples, group = [], []
    kernel = workload.reference_kernel
    before = reference.burst(kernel)
    deadline = time.perf_counter() + args.seconds
    group_start = time.perf_counter()
    while True:
        group.append(execute(workload, [args.seed, len(samples) + len(group)]))
        now = time.perf_counter()
        done = now >= deadline
        if done or now - group_start >= reference.INTERVAL_S:
            after = reference.burst(kernel)
            samples.extend((s, (before + after) / 2, o) for s, o in group)
            group, before, group_start = [], after, time.perf_counter()
        if done:
            return samples


def run_traced(workload, args, tracer, hooks):
    """Each request runs untraced and traced, alternating which goes first."""
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        seed = [args.seed, index]
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(execute(workload, seed))
                continue
            tracer.install(hooks)
            try:
                with tracer.request(workload.kind):
                    traced.append(execute(workload, seed))
            finally:
                tracer.uninstall()
        index += 1
    return plain, traced


def quantiles(values: list[float]) -> dict:
    """Median, and p90 when at least ten samples lie beyond it."""
    out = {"n": len(values), "p50": statistics.median(values)}
    if len(values) >= 2:
        p90 = statistics.quantiles(values, n=10)[-1]
        beyond = sum(v > p90 for v in values)
        if beyond >= 10:
            out.update(p90=p90, beyond_p90=beyond)
    return out


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy

    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "kljnsim").glob("*.py"))


UNITS = {"units_per_kref": "1/kref", "setup_s": "s", "peak_rss_mb": "MB"}


def end_to_end(samples, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics, and the raw figures behind them for the record.

    Request costs are in reference units: seconds over the reference
    kernel's time at that moment (see reference.py)."""
    seconds = [s for s, _, _ in samples]
    costs = [s / ref for s, ref, _ in samples]
    units = sum(o.units for _, _, o in samples)
    metrics = {
        "units_per_kref": 1e3 * units / sum(costs),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "requests": len(samples),
        "units": units,
        "units_per_s": units / sum(seconds),
        "latency_s": quantiles(seconds),
        "cost_ref": quantiles(costs),
        "reference_ms": quantiles([1e3 * ref for _, ref, _ in samples]),
        "setup_s": setup_times,
    }
    return metrics, record


def workload_stats(outcomes) -> dict:
    """Counts the workload's own results carry, summed over requests."""
    totals: dict = {}
    for outcome in outcomes:
        for key, value in outcome.info.items():
            if isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    if "periods" in totals:
        totals["kept_ratio"] = totals["kept"] / totals["periods"]
        totals["misclassified_ratio"] = totals["misclassified"] / totals["periods"]
    if outcomes and "digest" in outcomes[0].info:
        totals["metrics_digest_request0"] = outcomes[0].info["digest"]
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        workloads = load_workloads()
    except ImportError as exc:
        print(f"cannot import kljnsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    import layers

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        wrong = checks.self_test()
        if wrong:
            print(f"check self-test failed: {wrong}", file=sys.stderr)
            return 1
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine(), "git_commit": git_commit(),
            "src_kljnsim_lines": src_lines(),
        }
        if args.trace:
            tracer = Tracer()
            plain, traced = run_traced(workload, args, tracer, layers.HOOKS)
            outcomes = [o for _, o in plain + traced]
            metrics = layers.layer_metrics(
                tracer, workload.kind, [o for _, o in traced],
                sum(s for s, _ in plain), sum(s for s, _ in traced),
            )
            units = {name: layers.LAYER_METRICS[name][0] for name in metrics}
            record["requests"] = {"untraced": len(plain), "traced": len(traced)}
            record["missing_names"] = sorted(tracer.missing)
            record["paths"] = [
                {"kind": kind, "path": "/".join(path), "calls": a[0],
                 "total_s": a[1], "self_s": a[2]}
                for (kind, path), a in sorted(tracer.paths.items())
            ]
            record["stats"] = workload_stats([o for _, o in traced])
        else:
            setup_times = measure_setup(args)
            samples = run_untraced(workload, args)
            metrics, detail = end_to_end(samples, setup_times)
            units = UNITS
            outcomes = [o for _, _, o in samples]
            record.update(detail)
            record["stats"] = workload_stats(outcomes)
        failures = [o.failure for o in outcomes if o.failure]
        record["failures"] = failures[:10]
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": not failures,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
