"""Seeded op sequences for the benchmark workloads.

Each workload is a fixed sequence of ``qwalk`` CLI invocations (ops)
generated from ``(workload, seed)``.  The seed draws every walk: theta
uniformly over the angles ``WalkParams`` accepts, theta1 uniformly on
``[0, 2*pi)`` and a random unit spinor.  Sizes (``tau``, ``--xmax``,
``--k-samples`` ...) sit on a fixed ladder across the stated range with
a small seeded jitter, or are fixed (the trace sweeps), so every seed
asks for nearly the same amount of work and a run's timings are
comparable between seeds.

A run repeats its sequence, so per-op latencies come in one cluster per
op.  Each sequence has 21 ops: with 4k+1 ops both the median and the 75th
percentile fall well inside a cluster instead of on the edge between two
(0.5 * 21 = 10.5, 0.75 * 21 = 15.75), and that many distinct ops keep
them from hanging on a single walk.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("long-walk", "tau-sweep", "tables")

#: tau range of the long-walk workload (measurement at t = 2*tau+1 or 2*tau+2).
LONG_TAU = (1000, 2000)
#: Seeded jitter on each ladder size, as a share of the ladder's range.
JITTER = 0.01
#: Every trace op sweeps tau = 0..TRACE_TAU_MAX.  One size, not a ladder:
#: a trace's cost depends on theta by up to 1.8x, so on a ladder the median
#: op was whichever walk the seed put at the middle size, and op_p50_s
#: moved by 13 % between seeds.  At one size the 18 trace ops differ only
#: in their stratified walks, which every seed draws alike.
TRACE_TAU_MAX = 80


@dataclass(frozen=True)
class Walk:
    """Walk parameters as the CLI receives them."""

    theta: float
    theta1: float
    alpha: complex
    beta: complex

    def argv(self) -> list[str]:
        # "--alpha=RE,IM": a negative RE would otherwise read as an option.
        return ["--theta", repr(self.theta), "--theta1", repr(self.theta1),
                f"--alpha={self.alpha.real!r},{self.alpha.imag!r}",
                f"--beta={self.beta.real!r},{self.beta.imag!r}"]


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``argv`` excludes ``--out``; an op with an ``out`` name writes there
    (``simulate --times`` writes one file per time, named as the CLI
    does).  ``spec`` holds what the output checks need.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str | None
    spec: dict = field(default_factory=dict, compare=False)

    def outputs(self) -> list[str]:
        """File names the op writes, relative to its output directory."""
        if self.out is None:
            return []
        if self.kind == "simulate-times":
            stem, ext = self.out.rsplit(".", 1)
            return [f"{stem}_t{t}.{ext}" for t in self.spec["times"]]
        return [self.out]


def draw_walks(rng: random.Random, n: int) -> list[Walk]:
    """``n`` walks: uniform theta over the accepted domain, uniform theta1,
    random unit spinor.

    The thetas are stratified: one per ``1/n`` of ``[0, 2*pi)``, in a
    seeded random order, so each is still uniform over the accepted
    domain while the ``n`` ops of one kind cover it evenly.  Run time
    depends on theta (amplitudes that decay into subnormal numbers cost
    more), and stratifying keeps that cost nearly the same for every seed.
    """
    from qwalk.coin import ExcludedAngleError, WalkParams

    strata = list(range(n))
    rng.shuffle(strata)
    walks = []
    for j in strata:
        while True:
            theta = 2.0 * math.pi * (j + rng.random()) / n
            try:
                WalkParams(theta=theta, theta1=0.0, tau=0, alpha=1.0, beta=0.0)
            except ExcludedAngleError:
                continue
            break
        theta1 = rng.uniform(0.0, 2.0 * math.pi)
        alpha = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        beta = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        norm = math.hypot(abs(alpha), abs(beta))
        walks.append(Walk(theta, theta1, alpha / norm, beta / norm))
    return walks


def ladder(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """``n`` sizes at the stratum midpoints of ``[lo, hi]``, each jittered."""
    jitter = JITTER * (hi - lo)
    return [round(lo + (hi - lo) * (j + 0.5) / n + rng.uniform(-jitter, jitter))
            for j in range(n)]


def _long_walk(rng: random.Random) -> list[Op]:
    ops = []
    for kind, count in (("simulate", 5), ("simulate-times", 5),
                        ("compare", 4), ("spectral-check", 7)):
        taus = ladder(rng, *LONG_TAU, count)
        for j, (tau, walk) in enumerate(zip(taus, draw_walks(rng, count))):
            t = 2 * tau + rng.choice((1, 2))
            name = f"{kind}-{j}"
            base = [*walk.argv(), "--tau", str(tau)]
            spec = {"walk": walk, "tau": tau, "t": t}
            if kind == "simulate":
                ops.append(Op(name, kind, ("simulate", *base, "--t", str(t)),
                              f"{name}.csv", spec))
            elif kind == "simulate-times":
                spec["times"] = (tau, t)
                ops.append(Op(name, kind, ("simulate", *base, "--times", f"{tau},{t}"),
                              f"{name}.csv", spec))
            elif kind == "compare":
                spec["moments"] = (0, 1, 2)
                ops.append(Op(name, kind, ("compare", *base, "--t", str(t),
                                           "--moments", "0,1,2"),
                              f"{name}.json", spec))
            else:
                ops.append(Op(name, kind, ("spectral-check", *base, "--t", str(t)),
                              None, spec))
    return ops


def _tau_sweep(rng: random.Random) -> list[Op]:
    ops = [Op(f"figures-{fig}", "figures", ("figures", "--paper-fig", fig),
              f"figures-{fig}.csv", {"fig": fig})
           for fig in ("5a", "5b", "5c")]
    for observable in ("mass", "moment"):
        for j, walk in enumerate(draw_walks(rng, 9)):
            parity = rng.choice(("odd", "even"))
            spec = {"walk": walk, "taus": tuple(range(TRACE_TAU_MAX + 1)),
                    "parity": parity, "observable": observable}
            argv = ["trace", *walk.argv(), "--observable", observable,
                    "--parity", parity, "--jobs", "1",
                    "--taus", ",".join(map(str, spec["taus"]))]
            if observable == "mass":
                spec["x"] = rng.choice((-3, -1, 1, 3) if parity == "odd" else (-2, 0, 2))
                argv += ["--x", str(spec["x"])]
            else:
                spec["r"] = rng.randint(1, 4)
                argv += ["--r", str(spec["r"])]
            name = f"trace-{observable}-{j}"
            ops.append(Op(name, "trace", tuple(argv), f"{name}.csv", spec))
    return ops


def _tables(rng: random.Random) -> list[Op]:
    ops = []
    sizes = ladder(rng, 15000, 25000, 6)
    for j, (xmax, walk) in enumerate(zip(sizes, draw_walks(rng, 6))):
        parity = ("odd", "even")[j % 2]
        name = f"limits-{j}"
        ops.append(Op(name, "limits",
                      ("limits", *walk.argv(), "--parity", parity, "--xmax", str(xmax)),
                      f"{name}.csv", {"walk": walk, "parity": parity, "xmax": xmax}))
    sizes = ladder(rng, 40000, 60000, 6)
    for j, (points, walk) in enumerate(zip(sizes, draw_walks(rng, 6))):
        name = f"density-{j}"
        ops.append(Op(name, "density",
                      ("density", *walk.argv(), "--points", str(points)),
                      f"{name}.csv", {"walk": walk, "points": points}))
    sizes = ladder(rng, 10000, 30000, 5)
    for j, (k_samples, walk) in enumerate(zip(sizes, draw_walks(rng, 5))):
        theta = walk.theta
        name = f"eigen-{j}"
        ops.append(Op(name, "eigen",
                      ("eigen", "--theta", repr(theta), "--k-samples", str(k_samples)),
                      f"{name}.csv", {"theta": theta, "k_samples": k_samples}))
    ops += [Op(f"figures-{fig}", "figures", ("figures", "--paper-fig", fig),
               f"figures-{fig}.csv", {"fig": fig})
            for fig in ("2a", "4a", "7a", "7b")]
    return ops


_SEQUENCES = {"long-walk": _long_walk, "tau-sweep": _tau_sweep, "tables": _tables}


def build(workload: str, seed: int) -> list[Op]:
    """The op sequence of ``workload`` for ``seed``; same seed, same ops."""
    return _SEQUENCES[workload](random.Random(f"{workload}/{seed}"))
