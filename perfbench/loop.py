"""Timed closed loop over one workload, run in a fresh interpreter.

One client calls ``qwalk.cli.main(argv)`` in-process, one op at a time,
repeating the workload's op sequence until the time budget is spent.
Only the call itself is timed.  A fixed speed probe (``probe``) runs
before the first op and after every op, outside the timed call; each op
records the geometric mean of the two probes around it, so ``run.py``
can rescale its latency to a fixed machine speed.  Repetition 0 writes
its outputs to ``rep0/`` for the output checks; later repetitions write
to ``cur/`` and are compared byte for byte with repetition 0.  With
``--trace 1`` untraced and traced repetitions alternate, so the tracing
overhead is measured in the same process.  Raw measurements go to ``result.json``
in the work directory; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


#: The speed probe: a pure-Python loop and a small two-component walk in
#: numpy (many calls on arrays of a few hundred elements, as ``qwalk``
#: makes), together about 6 ms.  The host's slow spells hit the two kinds
#: of work by different amounts; over 6-minute recordings of ``tables``
#: and ``tau-sweep`` the sum followed the ops more closely than either
#: part alone or a loop over large arrays did.
PROBE_PY_ITERATIONS = 30_000
PROBE_WALK_SITES = 401
PROBE_WALK_STEPS = 150


def probe() -> float:
    """Time of the fixed probe, which uses nothing of ``qwalk``."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_PY_ITERATIONS):
        acc += i * i % 7
    up = np.zeros(PROBE_WALK_SITES, complex)
    down = np.zeros(PROBE_WALK_SITES, complex)
    up[PROBE_WALK_SITES // 2] = 1.0
    c = 0.5 ** 0.5
    for _ in range(PROBE_WALK_STEPS):
        up, down = np.roll(c * (up + down), -1), np.roll(c * (up - down), 1)
    return time.perf_counter() - start


def _call(cli, op, outdir: Path):
    argv = list(op.argv)
    if op.out is not None:
        argv += ["--out", str(outdir / op.out)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:  # an op that raises is a failed op, not a crash
            status = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, status, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qwalk.cli as cli
    import workloads
    from tracer import SpanRecorder

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qwalk imported from {cli.__file__}, not from {ROOT / 'src'}")

    ops = workloads.build(args.workload, args.seed)
    work = Path(args.workdir)
    (work / "rep0").mkdir(parents=True)
    (work / "cur").mkdir()
    records = [{"name": op.name, "latency": [], "probe": [], "status": [], "same": []}
               for op in ops]
    digests: list[dict[str, str | None]] = []
    stdout0: list[str] = []
    reps: list[dict] = []
    layers: list[dict] = []
    spans: list = []
    bindings: dict = {}

    begin = time.perf_counter()
    while True:
        rep = len(reps)
        traced = bool(args.trace) and rep % 2 == 1
        outdir = work / ("rep0" if rep == 0 else "cur")
        recorder = SpanRecorder() if traced else contextlib.nullcontext()
        wall = 0.0
        before = probe()
        with recorder:
            for i, op in enumerate(ops):
                if traced:
                    recorder.op = i
                elapsed, status, out, err = _call(cli, op, outdir)
                after = probe()
                wall += elapsed
                rec = records[i]
                rec["latency"].append(elapsed)
                rec["probe"].append((before * after) ** 0.5)
                before = after
                rec["status"].append(status)
                files = {f: _digest(outdir / f) for f in op.outputs()}
                if rep == 0:
                    digests.append(files)
                    stdout0.append(out)
                    rec["stderr"] = err
                    rec["same"].append(True)
                else:
                    rec["same"].append(files == digests[i] and out == stdout0[i])
        reps.append({"wall": wall, "traced": traced})
        if traced:
            layers.append(recorder.layer_totals())
            if not spans:
                spans, bindings = recorder.span_log(), recorder.bindings
        elapsed = time.perf_counter() - begin
        # Start another repetition only if it should fit in the budget; a
        # traced run needs at least one traced repetition.
        typical = statistics.median(r["wall"] for r in reps)
        if elapsed + typical > args.seconds and len(reps) >= 1 + args.trace:
            break

    result = {
        "ops": records,
        "stdout": stdout0,
        "reps": reps,
        "measured_s": time.perf_counter() - begin,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
        "bindings": bindings,
        "spans": spans,
    }
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
