"""Output checks for benchmark ops, run after the timed loop.

Every output is compared with a route the timed command did not use:
``spectral_evolve`` for anything the position-space stepping produced,
``asymptotic_amplitude`` for the point-mass tables, ``limit_mass_total``
for the localized mass, the eigenvalues of ``fourier_coin`` for
``eigen``, and this module's own evaluation of the Theorem 2 density
(closed form plus a graded Gauss-Legendre quadrature) for densities,
limit moments and the limit distribution function behind the rescaled-CDF
distance.  Invariants are checked as well.  Tolerances come from
the acceptance criteria where one applies; none is tighter than the
agreement two correct routes reach, so reordered arithmetic (for
example an eigenphase propagator) passes while a wrong value does not.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import traceback
from pathlib import Path

import numpy as np

from qwalk.coin import Schedule, WalkParams, build_coins, fourier_coin
from qwalk.limits import limit_mass_total
from qwalk.spectral import asymptotic_amplitude, spectral_evolve

#: Entrywise agreement of position-space and spectral amplitudes (criterion 4).
AMP_TOL = 1e-10
#: Values derived from probabilities: masses, moments, distances.
DERIVED_TOL = 1e-9
#: Norm conservation, |sum(prob) - 1| (criterion 5).
NORM_TOL = 1e-12
#: Sum of the stationary point masses against delta (criterion 3).
MASS_SUM_TOL = 1e-10
#: Normalization and moments of the weak limit law (criterion 6).
LIMIT_TOL = 1e-8
#: |lambda| = 1 and lambda1*lambda2 = -1 (criterion 9).
EIGEN_TOL = 1e-13
#: Relative agreement of two evaluations of one closed form.
CLOSED_FORM_RTOL = 1e-9

_OFFSET = {"odd": 1, "even": 2}
_SYMMETRIC = (complex(1.0 / math.sqrt(2.0), 0.0), complex(0.0, 1.0 / math.sqrt(2.0)))
_UP = (1.0 + 0.0j, 0.0j)

# Parameters behind the reference figures, from the paper (theta = pi/4):
# spacetime plots (spinor, theta1, tau, schedule), limit densities (spinor)
# and mass traces over tau = 0..250 (positions, parity).
_SPACETIME_FIGURES = {
    "2a": (_SYMMETRIC, 0.0, 24, Schedule.half_time()),
    "4a": (_SYMMETRIC, math.pi / 4, 0, Schedule.usual()),
}
_DENSITY_FIGURES = {"7a": _SYMMETRIC, "7b": _UP}
_MASS_FIGURES = {"5a": ((-1, 1), "odd"), "5b": ((0,), "even"), "5c": ((-2, 2), "even")}


def _walk_params(walk, tau: int = 0) -> WalkParams:
    return WalkParams(theta=walk.theta, theta1=walk.theta1, tau=tau,
                      alpha=walk.alpha, beta=walk.beta)


def _figure_params(spinor, theta1: float, tau: int) -> WalkParams:
    return WalkParams(theta=math.pi / 4, theta1=theta1, tau=tau,
                      alpha=spinor[0], beta=spinor[1])


def read_csv(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """``# key = value`` lines, the header and the numeric rows."""
    meta, lines = {}, path.read_text(encoding="utf-8").splitlines()
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value
    header = lines[0].split(",")
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return meta, header, data.reshape(len(lines) - 1, len(header))


class Checker:
    """Checks op outputs; reference evolutions are cached for the run."""

    def __init__(self) -> None:
        self._amps: dict = {}

    def amps(self, params: WalkParams, schedule: Schedule, t: int) -> np.ndarray:
        key = (params, schedule, t)
        if key not in self._amps:
            self._amps[key] = spectral_evolve(params, schedule, t).amps
        return self._amps[key]

    def probs(self, params: WalkParams, schedule: Schedule, t: int) -> np.ndarray:
        return np.sum(np.abs(self.amps(params, schedule, t)) ** 2, axis=1)

    def check(self, op, outdir: Path, stdout: str) -> list[str]:
        """Problems found in one op's output; empty when it is correct."""
        try:
            return getattr(self, "_" + op.kind.replace("-", "_"))(op, outdir, stdout)
        except Exception:  # a malformed output fails its op, not the benchmark
            return [f"check raised:\n{traceback.format_exc(limit=-3)}"]

    # -- long-walk -----------------------------------------------------

    def _state_file(self, path: Path, params: WalkParams, t: int) -> list[str]:
        _, header, data = read_csv(path)
        if header != ["x", "prob", "amp0_re", "amp0_im", "amp1_re", "amp1_im"]:
            return [f"{path.name}: header {header}"]
        errors = []
        if not np.array_equal(data[:, 0], np.arange(-t, t + 1)):
            return [f"{path.name}: positions are not -{t}..{t}"]
        amps = data[:, 2::2] + 1j * data[:, 3::2]
        dev = float(np.max(np.abs(amps - self.amps(params, Schedule.half_time(), t))))
        if dev > AMP_TOL:
            errors.append(f"{path.name}: amplitudes off the spectral route by {dev:.2e}")
        if np.max(np.abs(data[:, 1] - np.sum(np.abs(amps) ** 2, axis=1))) > 1e-14:
            errors.append(f"{path.name}: prob is not |amp|^2")
        drift = abs(math.fsum(data[:, 1]) - 1.0)
        if drift > NORM_TOL:
            errors.append(f"{path.name}: sum(prob) - 1 = {drift:.2e}")
        return errors

    def _simulate(self, op, outdir, stdout):
        spec = op.spec
        return self._state_file(outdir / op.out, _walk_params(spec["walk"], spec["tau"]),
                                spec["t"])

    def _simulate_times(self, op, outdir, stdout):
        spec = op.spec
        params = _walk_params(spec["walk"], spec["tau"])
        return [e for name, t in zip(op.outputs(), spec["times"])
                for e in self._state_file(outdir / name, params, t)]

    def _spectral_check(self, op, outdir, stdout):
        t = op.spec["t"]
        m = re.fullmatch(rf"max entrywise deviation at t={t}: (\S+) \(tolerance (\S+)\)\n",
                         stdout)
        if m is None:
            return [f"unexpected output {stdout!r}"]
        if float(m.group(1)) > float(m.group(2)):
            return [f"deviation {m.group(1)} above tolerance {m.group(2)}"]
        return []

    def _compare(self, op, outdir, stdout):
        spec = op.spec
        t = spec["t"]
        params = _walk_params(spec["walk"], spec["tau"])
        report = json.loads((outdir / op.out).read_text(encoding="utf-8"))
        xs = np.arange(-t, t + 1)
        ps = self.probs(params, Schedule.half_time(), t)
        density = Density(params)
        parity = "odd" if t % 2 else "even"
        errors = []

        def near(label, got, want, tol):
            if not abs(got - want) <= tol:
                errors.append(f"{label} = {got!r}, expected {want!r} (tol {tol:g})")

        near("ks_distance", report["ks_distance"], _ks_distance(xs, ps, t, params),
             LIMIT_TOL)
        near("delta_mass_sim", report["delta_mass_sim"],
             math.fsum(ps[np.abs(xs) <= t ** 0.5]), DERIVED_TOL)
        near("delta_mass_theory", report["delta_mass_theory"],
             limit_mass_total(params, parity), MASS_SUM_TOL)
        rows = {row["r"]: row for row in report["moments"]}
        if sorted(rows) != sorted(spec["moments"]):
            errors.append(f"moments for r={sorted(rows)}")
        for r, row in rows.items():
            near(f"walk moment {r}", row["walk"], math.fsum((xs / t) ** r * ps), DERIVED_TOL)
            near(f"limit moment {r}", row["limit"], density.moment(r), LIMIT_TOL)
        if 0 in rows:
            near("walk moment 0", rows[0]["walk"], 1.0, NORM_TOL)
            near("limit moment 0", rows[0]["limit"], 1.0, LIMIT_TOL)
        return errors

    # -- tau-sweep -----------------------------------------------------

    def _trace_values(self, params, taus, parity, value) -> np.ndarray:
        schedule = Schedule.half_time()
        out = []
        for tau in taus:
            t = 2 * tau + _OFFSET[parity]
            p = dataclasses.replace(params, tau=tau)
            out.append(value(np.arange(-t, t + 1), self.probs(p, schedule, t), t))
        return np.array(out)

    def _trace(self, op, outdir, stdout):
        spec = op.spec
        meta, header, data = read_csv(outdir / op.out)
        if meta.get("observable") != spec["observable"] or header != ["tau", "t", "value"]:
            return [f"meta {meta} / header {header}"]
        taus = np.array(spec["taus"])
        if not (np.array_equal(data[:, 0], taus)
                and np.array_equal(data[:, 1], 2 * taus + _OFFSET[spec["parity"]])):
            return ["tau/t columns do not match the request"]
        if spec["observable"] == "mass":
            x = spec["x"]
            value = lambda xs, ps, t: ps[x + t] if abs(x) <= t else 0.0  # noqa: E731
        else:
            r = spec["r"]
            value = lambda xs, ps, t: math.fsum((xs / t) ** r * ps)  # noqa: E731
        want = self._trace_values(_walk_params(spec["walk"]), spec["taus"],
                                  spec["parity"], value)
        dev = float(np.max(np.abs(data[:, 2] - want)))
        return [f"values off the spectral route by {dev:.2e}"] if dev > DERIVED_TOL else []

    def _figures(self, op, outdir, stdout):
        fig, path = op.spec["fig"], outdir / op.out
        if fig in _MASS_FIGURES:
            return self._mass_figure(path, fig)
        if fig in _DENSITY_FIGURES:
            return self._density_file(path, _figure_params(_DENSITY_FIGURES[fig], 0.0, 0), 2001)
        spinor, theta1, tau, schedule = _SPACETIME_FIGURES[fig]
        return self._spacetime_figure(path, _figure_params(spinor, theta1, tau), schedule)

    def _mass_figure(self, path, fig):
        positions, parity = _MASS_FIGURES[fig]
        _, header, data = read_csv(path)
        if header != ["tau", "t", "x", "prob"]:
            return [f"header {header}"]
        taus = list(range(251))
        params = _figure_params(_SYMMETRIC, 0.0, 0)
        want = self._trace_values(params, taus, parity,
                                  lambda xs, ps, t: [ps[x + t] if abs(x) <= t else 0.0
                                                     for x in positions])
        got = data[:, 3].reshape(len(taus), len(positions))
        rows_ok = (np.array_equal(data[:, 0], np.repeat(taus, len(positions)))
                   and np.array_equal(data[:, 2], np.tile(positions, len(taus))))
        dev = float(np.max(np.abs(got - want)))
        errors = [] if rows_ok else ["tau/x columns do not match the figure"]
        if dev > DERIVED_TOL:
            errors.append(f"masses off the spectral route by {dev:.2e}")
        return errors

    # -- tables --------------------------------------------------------

    def _spacetime_figure(self, path, params, schedule, t_max=100):
        _, header, data = read_csv(path)
        if header != ["t", "x", "prob"]:
            return [f"header {header}"]
        errors, start = [], 0
        for t in range(t_max + 1):
            block = data[start:start + 2 * t + 1]
            start += 2 * t + 1
            if (len(block) != 2 * t + 1 or np.any(block[:, 0] != t)
                    or not np.array_equal(block[:, 1], np.arange(-t, t + 1))):
                return [f"rows for t={t} do not cover -{t}..{t}"]
            dev = float(np.max(np.abs(block[:, 2] - self.probs(params, schedule, t))))
            drift = abs(math.fsum(block[:, 2]) - 1.0)
            if dev > DERIVED_TOL or drift > NORM_TOL:
                errors.append(f"t={t}: off the spectral route by {dev:.2e}, "
                              f"sum(prob) - 1 = {drift:.2e}")
        if start != len(data):
            errors.append("rows beyond t_max")
        return errors

    def _density_file(self, path, params, points):
        meta, header, data = read_csv(path)
        if header != ["x", "f_ac"]:
            return [f"header {header}"]
        density = Density(params)
        errors = []
        delta = float(meta.get("delta_mass", "nan"))
        if not abs(delta - density.delta) <= CLOSED_FORM_RTOL * density.delta + 1e-300:
            errors.append(f"delta_mass = {delta!r}, expected {density.delta!r}")
        xs = np.linspace(-density.cabs, density.cabs, points + 2)[1:-1]
        if not np.allclose(data[:, 0], xs, rtol=0.0, atol=1e-15):
            return errors + ["x grid is not the open support split evenly"]
        want = density(xs)
        dev = np.abs(data[:, 1] - want) / np.maximum(np.abs(want), 1e-300)
        if np.max(dev) > CLOSED_FORM_RTOL or np.min(data[:, 1]) < 0.0:
            errors.append(f"density off the closed form by {np.max(dev):.2e} (relative)")
        return errors

    def _density(self, op, outdir, stdout):
        spec = op.spec
        return self._density_file(outdir / op.out, _walk_params(spec["walk"]), spec["points"])

    def _limits(self, op, outdir, stdout):
        spec = op.spec
        params = _walk_params(spec["walk"])
        meta, header, data = read_csv(outdir / op.out)
        if header != ["x", "limit_mass"]:
            return [f"header {header}"]
        xmax, parity = spec["xmax"], spec["parity"]
        if not np.array_equal(data[:, 0], np.arange(-xmax, xmax + 1)):
            return [f"positions are not -{xmax}..{xmax}"]
        errors = []
        want = np.array([float(np.sum(np.abs(asymptotic_amplitude(params, x, parity)) ** 2))
                         for x in range(-xmax, xmax + 1)])
        dev = np.abs(data[:, 1] - want) / np.maximum(want, 1e-250)
        if np.max(dev) > CLOSED_FORM_RTOL:
            errors.append(f"point masses off the asymptotic amplitudes by "
                          f"{np.max(dev):.2e} (relative)")
        delta = float(meta.get("delta_mass", "nan"))
        total = limit_mass_total(params, parity)
        if not abs(delta - total) <= MASS_SUM_TOL:
            errors.append(f"delta_mass = {delta!r}, point masses sum to {total!r}")
        if not math.fsum(data[:, 1]) <= delta + MASS_SUM_TOL:
            errors.append("tabulated masses exceed delta_mass")
        return errors

    def _eigen(self, op, outdir, stdout):
        spec = op.spec
        _, header, data = read_csv(outdir / op.out)
        if header != ["k", "re_l1", "im_l1", "re_l2", "im_l2"]:
            return [f"header {header}"]
        n = spec["k_samples"]
        ks = -np.pi + 2.0 * np.pi * np.arange(n) / n
        if not np.allclose(data[:, 0], ks, rtol=0.0, atol=1e-14):
            return ["k grid is not [-pi, pi) split evenly"]
        l1 = data[:, 1] + 1j * data[:, 2]
        l2 = data[:, 3] + 1j * data[:, 4]
        errors = []
        modulus = max(np.max(np.abs(np.abs(l1) - 1.0)), np.max(np.abs(np.abs(l2) - 1.0)))
        product = np.max(np.abs(l1 * l2 + 1.0))
        if modulus > EIGEN_TOL or product > EIGEN_TOL:
            errors.append(f"|lambda| - 1 up to {modulus:.2e}, "
                          f"|l1*l2 + 1| up to {product:.2e}")
        coin = build_coins(WalkParams(theta=spec["theta"], theta1=0.0, tau=0,
                                      alpha=1.0, beta=0.0)).u
        pairs = np.linalg.eigvals(np.array([fourier_coin(coin, k) for k in ks]))
        order = np.argsort(-pairs.real, axis=1)  # lambda1 has the positive real part
        pairs = np.take_along_axis(pairs, order, axis=1)
        dev = max(np.max(np.abs(l1 - pairs[:, 0])), np.max(np.abs(l2 - pairs[:, 1])))
        if dev > 1e-12:
            errors.append(f"eigenvalues off the 2x2 matrix route by {dev:.2e}")
        return errors


def _ks_distance(xs, ps, t, params) -> float:
    """Rescaled-CDF distance of a distribution, as ``compare`` defines it,
    against this module's limit distribution function."""
    inside = np.abs(xs) <= t ** 0.5
    points = np.append(xs[~inside] / t, 0.0)
    masses = np.append(ps[~inside], np.sum(ps[inside]))
    order = np.argsort(points, kind="stable")
    points, masses = points[order], masses[order]
    right = np.cumsum(masses)
    dens = Density(params)
    limit_right = dens.cdf(points)
    limit_left = limit_right - dens.delta * (points == 0.0)
    return max(float(np.max(np.abs(limit_right - right))),
               float(np.max(np.abs(limit_left - (right - masses)))))


_RULE_NODES = 20
_BASE_NODES, _BASE_WEIGHTS = np.polynomial.legendre.leggauss(_RULE_NODES)


def _graded_edges(ratio: float = 0.7, finest: float = 1e-10) -> np.ndarray:
    """Panel edges on ``[-pi/2, pi/2]``, graded toward both ends."""
    gaps = [math.pi / 2]
    while gaps[-1] > finest:
        gaps.append(gaps[-1] * ratio)
    right = [math.pi / 2 - g for g in gaps] + [math.pi / 2]
    return np.array([-e for e in reversed(right)] + right[1:])


def _panel_rule(lo, hi):
    """Gauss-Legendre nodes and weights on each panel ``[lo, hi]`` (one row each)."""
    mid, half = (hi + lo) / 2, (hi - lo) / 2
    return mid[:, None] + half[:, None] * _BASE_NODES, half[:, None] * _BASE_WEIGHTS


_U_EDGES = _graded_edges()
_U_NODES, _U_WEIGHTS = _panel_rule(_U_EDGES[:-1], _U_EDGES[1:])


class Density:
    """Theorem 2 limit law, evaluated here independently of ``qwalk.limits``.

    The atom ``delta = g^2 / (1 + |s|)`` sits at 0 (``g = c1*s - s1*c``);
    on ``(-|c|, |c|)`` the density is

        |s| (1 - w x) (g^2 x^4 + (2 s1 c g - c1^2) x^2 + c^2)
        / (pi c^2 (1 - x^2)^2 sqrt(c^2 - x^2))

    with ``w = |alpha|^2 - |beta|^2 + 2 Re(alpha conj(beta)) s / c``.
    Integrals use ``x = |c| sin u``, which removes the endpoint
    singularity, on panels graded toward ``u = +-pi/2`` so the
    ``(1 - x^2)^-2`` peak is resolved however close ``|c|`` is to 1.
    """

    def __init__(self, params: WalkParams) -> None:
        c, s = math.cos(params.theta), math.sin(params.theta)
        c1, s1 = math.cos(params.theta1), math.sin(params.theta1)
        a, b = params.alpha, params.beta
        g = c1 * s - s1 * c
        self.c, self.s, self.cabs = c, s, abs(c)
        self.delta = g * g / (1.0 + abs(s))
        self.w = abs(a) ** 2 - abs(b) ** 2 + 2.0 * (a * b.conjugate()).real * s / c
        self.poly = (g * g, 2.0 * s1 * c * g - c1 * c1, c * c)

    def _core(self, x):
        a4, a2, a0 = self.poly
        return (abs(self.s) * (1.0 - self.w * x) * (a4 * x ** 4 + a2 * x ** 2 + a0)
                / (math.pi * self.c ** 2 * (1.0 - x ** 2) ** 2))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._core(x) / np.sqrt(self.c ** 2 - x ** 2)

    def moment(self, r: int) -> float:
        x = self.cabs * np.sin(_U_NODES)
        ac = float(np.sum(_U_WEIGHTS * x ** r * self._core(x)))
        return ac + (self.delta if r == 0 else 0.0)

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Right-continuous distribution function: whole panels below
        ``u = arcsin(x / |c|)``, the panel holding it up to ``u``, and the
        atom where ``x >= 0``."""
        upper = np.arcsin(np.clip(x / self.cabs, -1.0, 1.0))
        panel = np.clip(np.searchsorted(_U_EDGES, upper, side="right") - 1,
                        0, len(_U_EDGES) - 2)
        whole = np.sum(_U_WEIGHTS * self._core(self.cabs * np.sin(_U_NODES)), axis=1)
        below = np.concatenate(([0.0], np.cumsum(whole)))[panel]
        nodes, weights = _panel_rule(_U_EDGES[panel], upper)
        part = np.sum(weights * self._core(self.cabs * np.sin(nodes)), axis=1)
        return below + part + self.delta * (x >= 0.0)
