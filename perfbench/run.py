"""qwalk benchmark: run workloads, check every output, print the metrics.

Usage (from the repository root)::

    python3 perfbench/run.py                        # every workload
    python3 perfbench/run.py --workload long-walk --seed 3
    python3 perfbench/run.py --workload tables --trace 1

The timed loop of each workload runs for ``run_seconds`` of
``BENCHMARK.json``, so every run of the benchmark measures the same
length.  ``--seconds`` is accepted because benchmark drivers pass the run
length explicitly; a value other than ``run_seconds`` is refused.

Each workload runs in a fresh interpreter (``loop.py``) with the BLAS and
OpenMP thread counts pinned to 1: one client, a closed loop, calling
``qwalk.cli.main`` in-process and writing ``--out`` files into a work
directory under the checkout.  After the loop this process checks every
op's output against an independent route (``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of
one pass over the op sequence), ``op_p50_s`` and ``op_tail_s`` (per-op
latency), ``setup_s`` (fresh interpreter importing ``qwalk.cli``, median
of several) and ``peak_rss_mb`` of the loop process.  ``qwalk.cli`` is
imported before the loop starts.  Repetition 0 of the sequence is timed
too: rescaled, it reads 0.996 of the later ones' median (0.90-1.15 over
60 runs of the three workloads), and a 30-second run of ``long-walk``
has only four repetitions to give.

The end-to-end times are rescaled to a fixed machine speed.  On a shared
host (a 2-vCPU Xeon VM) the speed swings by up to 1.5x over minutes, for
all the ops of a run alike.  A fixed probe (``loop.probe``: a pure-Python
loop and a small numpy walk that uses nothing of ``qwalk``), timed next to
each op, swings with it.  Rescaled, the spread of the time metrics over
10 seeds, (q3 - q1) / median, fell from 0.06-0.30 to 0.03-0.11.  Each
time is multiplied by ``PROBE_REF_S / probe``, giving the time the call
would take on a machine where the probe takes ``PROBE_REF_S``; set-up
time uses the probe's median over the run.  A change to ``qwalk`` moves the rescaled times as
it moves the raw ones; the raw figures and the probe's median are in the
report too.

``--trace 1`` alternates untraced and traced passes and reports
per-layer metrics (``<module>.<function>.<stat>``, per pass over the
sequence, not rescaled) from an outside-in span recorder (``tracer.py``).
A human-readable report comes first; the last line of stdout is one JSON
object.  The exit code is 0 when every output check passed, 1 when one
failed, and 2 when the benchmark could not run.  Each run also leaves a
JSON record (machine, versions, commit, seed, metrics, each op's raw
latencies and probe times, spans) in ``.perfbench-records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Fresh interpreters started per run to measure set-up time; half before
#: the timed loop and half after, so a slow stretch of the machine does
#: not set the median.
SETUP_RUNS = 10
#: Speed-probe time, in seconds, to which every end-to-end time is
#: rescaled: about the probe's time on an unloaded 2-vCPU Xeon VM
#: (Python 3.11, numpy 2.4).
PROBE_REF_S = 0.006
#: Percentile reported as ``op_tail_s``: the highest of 99/95/90/75 that
#: leaves at least 10 samples beyond it at every workload's usual pass
#: count.  It is fixed, not chosen per run, because a run repeats one op
#: sequence: latencies form one cluster per op, and a percentile picked
#: from the sample count would jump between clusters when the pass count
#: changes.  The report states how many samples lie beyond it.
TAIL_PERCENTILE = 75

#: Per-layer stats reported with ``--trace 1``, per traced pass.  Rates
#: are derived from a time and a work count, both reported too.
LAYER_STATS = {
    "dynamics.evolve": ("calls", "self_s", "site_steps", "ns_per_site_step",
                        "distinct_ratio"),
    "dynamics.step": ("calls", "self_s"),
    "dynamics.distribution": ("calls", "self_s", "sites", "ns_per_site"),
    "spectral.spectral_evolve": ("calls", "self_s", "grid_steps", "ns_per_grid_step"),
    "spectral.eigensystem": ("calls", "self_s", "ks", "us_per_k"),
    "limits.LimitDensity.cdf": ("calls", "self_s", "points", "us_per_point"),
    "limits.LimitDensity.density": ("calls", "self_s"),
    "limits.LimitDensity.moment": ("calls", "self_s"),
    "limits.limit_masses": ("calls", "self_s", "positions"),
    "analysis.mass_trace": ("calls", "self_s", "taus"),
    "analysis.rescaled_cdf_distance": ("calls", "self_s"),
    "analysis.moment": ("calls", "self_s"),
    "analysis.localized_mass": ("calls", "self_s"),
    "cli.emit": ("calls", "self_s", "rows", "bytes", "ns_per_row"),
    "cli.main": ("calls", "self_s"),
}
#: Derived rates: stat -> (scale, base count).
RATES = {
    "ns_per_site_step": (1e9, "site_steps"),
    "ns_per_site": (1e9, "sites"),
    "ns_per_grid_step": (1e9, "grid_steps"),
    "us_per_k": (1e6, "ks"),
    "us_per_point": (1e6, "points"),
    "ns_per_row": (1e9, "rows"),
}
UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio",
         "bytes": "bytes", "ns_per_site_step": "ns", "ns_per_site": "ns",
         "ns_per_grid_step": "ns", "us_per_k": "us", "us_per_point": "us",
         "ns_per_row": "ns"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def thread_env() -> dict[str, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict[str, str], runs: int) -> list[float]:
    """Wall time of fresh interpreters that import ``qwalk.cli``."""
    code = ("import sys, qwalk.cli; "
            f"sys.exit(not qwalk.cli.__file__.startswith({str(SRC)!r}))")
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"importing qwalk.cli failed: {proc.stderr.decode()[-500:]}")
    return times


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    passes = raw["layers"]
    metrics = {}
    for layer, stats in LAYER_STATS.items():
        first = passes[0].get(layer, {})
        for stat in stats:
            if stat == "self_s":
                value = statistics.median(p.get(layer, {}).get("self_s", 0.0) for p in passes)
            elif stat in RATES:
                scale, base = RATES[stat]
                self_s = statistics.median(p.get(layer, {}).get("self_s", 0.0) for p in passes)
                value = scale * self_s / first[base] if first.get(base) else 0.0
            elif stat == "distinct_ratio":
                value = first["distinct"] / first["calls"] if first.get("calls") else 0.0
            else:
                value = first.get(stat, 0.0)
            metrics[f"{layer}.{stat}"] = (float(value), UNITS.get(stat, "count"))
    plain = statistics.median(r["wall"] for r in raw["reps"] if not r["traced"])
    traced = statistics.median(r["wall"] for r in raw["reps"] if r["traced"])
    metrics["trace.untraced_wall_s"] = (plain, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    return metrics


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qwalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "src_sha256": digest.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    import checks  # imports qwalk, so only once src/ is on the path

    env = thread_env()
    work = ROOT / ".perfbench-work" / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup = [] if trace else measure_setup(env, SETUP_RUNS // 2)
    try:
        cmd = [sys.executable, str(HERE / "loop.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(work)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=seconds + 60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: the timed loop did not finish") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name}: the timed loop failed:\n{proc.stderr[-2000:]}")
        raw = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if not trace:
            setup += measure_setup(env, SETUP_RUNS - SETUP_RUNS // 2)

        checker = checks.Checker()
        ops = workloads.build(name, seed)
        attempted = failed = 0
        problems = {}
        for op, rec, out in zip(ops, raw["ops"], raw["stdout"]):
            found = checker.check(op, work / "rep0", out)
            bad_status = [s for s in rec["status"] if s != 0]
            if bad_status:
                found.append(f"exit status {bad_status[0]!r}: {rec.get('stderr', '')[-300:]}")
            if not all(rec["same"]):
                found.append("output differs between repetitions")
            attempted += len(rec["status"])
            if found:
                problems[op.name] = found
                failed += len(rec["status"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [k for k, r in enumerate(raw["reps"]) if not r["traced"]]
    if trace:
        metrics = layer_metrics(raw)
    else:
        scaled = [[rec["latency"][k] * PROBE_REF_S / rec["probe"][k] for k in plain]
                  for rec in raw["ops"]]
        # Set-up samples are few and flank the loop, so they are rescaled
        # by the probe's median over the whole run.
        probe_s = statistics.median(rec["probe"][k] for rec in raw["ops"] for k in plain)
        latencies = [lat for op_lats in scaled for lat in op_lats]
        tail_s = statistics.quantiles(latencies, n=100,
                                      method="inclusive")[TAIL_PERCENTILE - 1]
        metrics = {
            "wall_s": (statistics.median(map(sum, zip(*scaled))), "s"),
            "op_p50_s": (statistics.median(latencies), "s"),
            "op_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(setup) * PROBE_REF_S / probe_s, "s"),
            "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        }
    info = {
        "ops_per_pass": len(ops),
        "passes": len(raw["reps"]),
        "timed_passes": len(plain),
        "measured_s": raw["measured_s"],
        "pass_wall_s": [r["wall"] for r in raw["reps"]],
        "error_rate": failed / attempted,
        "op_median_s": {rec["name"]: statistics.median(rec["latency"][k] for k in plain)
                        for rec in raw["ops"]},
    }
    if not trace:
        info.update(op_tail_percentile=TAIL_PERCENTILE, op_samples=len(latencies),
                    op_samples_beyond_tail=sum(lat > tail_s for lat in latencies),
                    probe_median_s=probe_s,
                    unscaled_wall_s=statistics.median(raw["reps"][k]["wall"] for k in plain),
                    unscaled_setup_s=statistics.median(setup),
                    setup_samples_s=setup)
    else:
        info["bindings_patched"] = raw["bindings"]
    return {"workload": name, "seed": seed, "trace": trace, "correct": failed == 0,
            "attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "info": info, "spans": raw["spans"],
            "latencies": {rec["name"]: {"s": [rec["latency"][k] for k in plain],
                                        "probe_s": [rec["probe"][k] for k in plain]}
                          for rec in raw["ops"]}}


def report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    for key, value in result["info"].items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in value.items())
        elif isinstance(value, list):
            value = ", ".join(f"{v:.4g}" for v in value)
        print(f"   {key:<24} {value}")
    for name, (value, unit) in result["metrics"].items():
        print(f"   {name:<44} {value:.6g} {unit}")
    for op, found in result["problems"].items():
        for problem in found:
            print(f"   FAILED {op}: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    help="must equal run_seconds of BENCHMARK.json (the default)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no run_seconds in {SPEC}: {exc}", file=sys.stderr)
        return 2
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds}: the run length is fixed at "
              f"run_seconds = {seconds} by {SPEC.name}", file=sys.stderr)
        return 2
    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"error: no qwalk sources at {SRC / 'qwalk'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        results = [run_workload(n, args.seed, seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = machine()
    records = ROOT / ".perfbench-records"
    records.mkdir(exist_ok=True)
    print(f"machine: {json.dumps(env)}")
    for result in results:
        report(result)
        path = records / f"{result['workload']}-s{args.seed}-t{args.trace}.json"
        path.write_text(json.dumps({**result, "machine": env,
                                    "metrics": {k: {"value": v, "unit": u} for k, (v, u)
                                                in result["metrics"].items()}}))
    single = len(results) == 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(k if single else f"{r['workload']}.{k}"): {"value": v, "unit": u}
                    for r in results for k, (v, u) in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
