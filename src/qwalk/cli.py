"""Command-line interface: simulation, checks, limit tables, figure data.

All subcommands are deterministic (no randomness exists anywhere in the
package), so rerunning a command with the same arguments produces
byte-identical output.  Exit codes: 0 success, 1 validation or I/O
error, 2 tolerance failure in check-style commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import re
import stat
import sys
from typing import Callable, Sequence

import numpy as np

from .analysis import (
    _limit_distance,
    check_measurement_time,
    localized_mass,
    moment,
    rescaled_cdf_distance,
    tau_sweep,
    trace_masses,
    trace_moments,
)
from .coin import Schedule, ScheduleKind, WalkParams, parity_offset
from .dynamics import (StateVector, check_time, distribution, evolve, max_time_cap,
                       snapshots)
from .limits import LimitDensity, delta_mass, theorem1_limit
from .spectral import _eigenvalues, spectral_evolve, wavenumber_grid

__all__ = ["EmptyOutput", "Table", "emit", "main"]

SPECTRAL_CHECK_TOL = 1e-10

_SYMMETRIC = (complex(1.0 / math.sqrt(2.0), 0.0), complex(0.0, 1.0 / math.sqrt(2.0)))
_UP = (complex(1.0, 0.0), complex(0.0, 0.0))


class EmptyOutput(ValueError):
    """Raised when a command would write a table with no rows."""


class Table:
    """Row data held as named columns, each made a numpy array (``np.asarray``).

    A column must hold integers or real floats of at most 64 bits: a
    bool, complex, str, object or long double column is refused, as
    neither writer has one text for it.

    In a table of walk sites, ``occupied`` (one boolean per row) marks the
    sites the walk can occupy, where ``x + t`` is even; a column may then
    hold, in order, a value for each occupied row only, and reads 0 on the
    other rows.  Both writers read the table through :meth:`blocks`, a
    block of rows at a time, and never hold a copy of the whole of it.
    """

    def __init__(self, occupied: np.ndarray | None = None, **columns) -> None:
        self.keys = tuple(columns)
        self.columns = tuple(map(np.asarray, columns.values()))
        self.occupied = None if occupied is None else np.asarray(occupied, dtype=bool)
        n = len(self)
        sites = n if occupied is None else int(np.count_nonzero(self.occupied))
        if any(len(col) not in (n, sites) for col in self.columns):
            raise ValueError("table columns differ in length")
        for key, col in zip(self.keys, self.columns):
            if col.dtype.kind not in "iuf" or col.dtype.itemsize > 8:
                raise ValueError(f"column {key!r} has dtype {col.dtype}, "
                                 "not an integer or a real float of at most 64 bits")

    def __len__(self) -> int:
        if self.occupied is not None:
            return len(self.occupied)
        return len(self.columns[0]) if self.columns else 0

    def blocks(self, size: int):
        """Per block of up to ``size`` rows: its row count, the offsets of its
        occupied rows (None without ``occupied``) and each column's slice, which
        holds the occupied rows only (the others read 0) if shorter than the block."""
        n, first = len(self), 0  # first: occupied rows before the block
        for lo in range(0, n, size):
            hi = min(lo + size, n)
            on = None if self.occupied is None else np.flatnonzero(self.occupied[lo:hi])
            sites = slice(first, first + (0 if on is None else len(on)))
            first = sites.stop
            yield hi - lo, on, [col[sites] if len(col) < n else col[lo:hi]
                                for col in self.columns]


#: Rows of a table that JSON output holds as Python objects at once.
JSON_BLOCK_ROWS = 2048


def _json_text(table: Table, meta: dict | None):
    """The JSON text of a table (see :func:`emit`), in parts of UTF-8 bytes.

    The text of the payload with one row, ``0``, is cut around that 0 (the
    last one: only brackets follow it), and the rows go between, a block at
    a time as ``json.dumps`` lays out a list, brackets off, indented as the 0.
    """
    # the text before the 0 leads the first block, and a comma and a
    # newline indented as the 0 lead each later one
    sep, _, tail = json.dumps({**meta, "rows": [0]} if meta else [0], indent=2).rpartition("0")
    newline = sep[sep.rindex("\n"):]
    for n, on, parts in table.blocks(JSON_BLOCK_ROWS):
        values = []
        for part in parts:
            if len(part) < n:  # the occupied rows only: 0 on the others
                part, sites = np.zeros(n, part.dtype), part
                part[on] = sites
            values.append(part.tolist())
        body = json.dumps([dict(zip(table.keys, row)) for row in zip(*values)], indent=2)
        yield (sep + body[4:-2].replace("\n  ", newline)).encode()
        sep = "," + newline
    yield (tail + "\n").encode()


def emit(data: Table | dict, fmt: str = "csv", path: str | None = None,
         meta: dict | None = None) -> None:
    """Write a :class:`Table` or a flat object (dict).

    CSV output has a header row and LF newlines; a float prints as C's
    ``%.17g`` (17 significant digits, round-trip exact), an integer in
    decimal, and ``meta`` entries become leading ``# key = value`` comment
    lines (:func:`qwalk._csvtext.csv_text`).  JSON output is
    ``json.dumps(payload, indent=2)`` and a newline: for a table a list of
    row objects, which ``meta`` wraps in an object (:func:`_json_text`),
    and ``meta`` merged in front of a flat object.  A table's text is made
    a block of rows at a time, in memory that does not grow with the table.

    The text is UTF-8 bytes: stdout, a text stream that callers may
    replace, takes it decoded, and a file (``path``) as it is.  A regular
    file, or a new one, is written under a temporary name beside it and
    renamed over ``path`` when whole, so a failed write leaves no file, or
    the earlier one as it was; any other file, such as ``/dev/null``, is
    written in place.
    """
    if not data:
        raise EmptyOutput("refusing to emit an empty table")
    if fmt == "csv":
        if not isinstance(data, Table):
            raise ValueError("csv output requires a table of row data, not a flat object")
        # imported on the first CSV table, so commands that write none
        # (compare, spectral-check, JSON output) never load it
        from ._csvtext import csv_text
        parts = csv_text(data, meta)
    elif fmt == "json":
        if isinstance(data, Table):
            parts = _json_text(data, meta)
        else:
            parts = [(json.dumps({**meta, **data} if meta else data, indent=2) + "\n").encode()]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.writelines(part.decode() for part in parts)
        return
    try:
        _write(path, parts)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write(path: str, parts) -> None:
    """Write ``parts`` to ``path``: whole or, for a regular file, not at all."""
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):  # written through, as open() does
            path = os.path.realpath(path)
            mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.writelines(parts)
        return
    if mode is not None:  # a file its user may not write fails, as open() would
        os.close(os.open(path, os.O_WRONLY))
    temp = f"{path}.{os.urandom(4).hex()}.tmp"
    # 0o666 less the umask, as open() gives a new file
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            if mode is not None and mode != os.fstat(fd).st_mode:  # an old file's mode
                os.chmod(fd, stat.S_IMODE(mode))
            fh.writelines(parts)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" and "-0.6,0" as options, since its own test
        # for a negative number is ^-\d+$|^-\d*\.\d+$; take a "-" followed by
        # a digit, or by a point and a digit, for a value instead
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # Usage errors exit 1; the default ArgumentParser would exit 2,
    # which is reserved for tolerance failures here.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected 're,im', got {text!r}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count(text: str) -> int:
    """An integer of at least 1, such as a number of samples."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A finite, non-negative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _add_walk_arguments(parser: argparse.ArgumentParser, with_tau: bool = True) -> None:
    group = parser.add_argument_group("walk parameters")
    group.add_argument("--theta", type=float, help="coin angle of U in radians")
    group.add_argument("--theta1", type=float, help="coin angle of H in radians")
    if with_tau:
        group.add_argument("--tau", type=int, help="swap step (default 0)")
    group.add_argument("--alpha", type=_parse_complex_pair, metavar="RE,IM",
                       help="initial upper amplitude")
    group.add_argument("--beta", type=_parse_complex_pair, metavar="RE,IM",
                       help="initial lower amplitude")
    group.add_argument("--preset", choices=("symmetric", "up"),
                       help="initial spinor shorthand: (1/sqrt2, i/sqrt2) or (1, 0)")
    group.add_argument("--schedule", choices=("usual", "half-time", "multi"),
                       help="coin schedule (default half-time)")
    group.add_argument("--swap-steps", type=_parse_int_list, metavar="T1,T2,...",
                       help="swap steps for the multi schedule")
    group.add_argument("--config", help="JSON file with walk parameters")


_SPINOR_KEYS = ("alpha_re", "alpha_im", "beta_re", "beta_im")
_CONFIG_KEYS = ("theta", "theta1", "tau", *_SPINOR_KEYS, "schedule", "swap_steps")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"config {path} has unknown key {key!r}; "
                             f"known keys: {', '.join(_CONFIG_KEYS)}")
    return cfg


def _resolve_walk(args) -> tuple[WalkParams, Schedule]:
    """Merge CLI flags over JSON config; flags win."""
    cfg = _load_config(args.config) if args.config else {}

    def pick(flag, key, default=None):
        return flag if flag is not None else cfg.get(key, default)

    theta = pick(args.theta, "theta")
    theta1 = pick(args.theta1, "theta1")
    if theta is None or theta1 is None:
        raise ValueError("theta and theta1 are required (flags or config)")
    tau = pick(getattr(args, "tau", None), "tau", 0)

    if args.preset is not None and (args.alpha is not None or args.beta is not None):
        raise ValueError("--preset and --alpha/--beta are mutually exclusive")
    if args.preset is not None:
        alpha, beta = _SYMMETRIC if args.preset == "symmetric" else _UP
    elif args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ValueError("--alpha and --beta must be given together")
        alpha, beta = args.alpha, args.beta
    elif any(key in cfg for key in _SPINOR_KEYS):
        parts = [cfg.get(key, 0.0) for key in _SPINOR_KEYS]
        for key, value in zip(_SPINOR_KEYS, parts):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"config {key} must be a real number, got {value!r}")
        alpha, beta = complex(*parts[:2]), complex(*parts[2:])
    else:
        alpha, beta = _SYMMETRIC

    kind = pick(args.schedule, "schedule", "half-time")
    steps = pick(args.swap_steps, "swap_steps")
    if kind == "usual":
        schedule = Schedule.usual()
    elif kind == "half-time":
        schedule = Schedule.half_time()
    elif kind == "multi":
        if not steps:
            raise ValueError("the multi schedule requires --swap-steps")
        schedule = Schedule.multi(steps)
    else:
        raise ValueError(f"unknown schedule {kind!r}")
    if kind != "multi" and steps:
        raise ValueError("--swap-steps is only valid with --schedule multi")

    params = WalkParams(theta=theta, theta1=theta1, tau=tau, alpha=alpha, beta=beta)
    return params, schedule


def _state_table(state: StateVector, **columns) -> Table:
    """Rows ``x = -t..t``, then the probabilities and ``columns`` of the ``t + 1`` sites."""
    xs = np.arange(-state.time, state.time + 1)
    return Table(occupied=(xs + state.time) % 2 == 0, x=xs,
                 prob=distribution(state).values, **columns)


def _require_half_time(schedule: Schedule, what: str) -> None:
    if schedule.kind is not ScheduleKind.HALF_TIME:
        raise ValueError(f"{what} needs --schedule half-time: the limit law "
                         "exists only for the half-time walk")


def _timed_path(path: str | None, t: int) -> str | None:
    if path is None:
        return None
    stem, ext = os.path.splitext(path)
    return f"{stem}_t{t}{ext}"


def _cmd_simulate(args) -> int:
    params, schedule = _resolve_walk(args)
    if (args.t is None) == (args.times is None):
        raise ValueError("exactly one of --t / --times is required")
    times = [args.t] if args.times is None else sorted(set(args.times))
    for t in times:  # every time is checked before the first file is written
        check_time(t)
    for t in times:
        path = args.out if args.times is None else _timed_path(args.out, t)
        state = spectral_evolve(params, schedule, t)
        a = state.sites
        emit(_state_table(state, amp0_re=a[:, 0].real, amp0_im=a[:, 0].imag,
                          amp1_re=a[:, 1].real, amp1_im=a[:, 1].imag), args.format, path)
    return 0


def _cmd_spectral_check(args) -> int:
    params, schedule = _resolve_walk(args)
    if args.n_grid is not None and args.n_grid < args.t + 1:
        raise ValueError(f"--n-grid must be at least t + 1 = {args.t + 1}, got {args.n_grid}")
    direct = evolve(params, schedule, args.t)
    fourier = spectral_evolve(params, schedule, args.t, n_grid=args.n_grid)
    deviation = float(np.max(np.abs(direct.sites - fourier.sites)))
    print(f"max entrywise deviation at t={args.t}: {deviation:.3e} "
          f"(tolerance {args.tol:.3e})")
    return 0 if deviation <= args.tol else 2


def _check_rows(rows: int, flag: str) -> None:
    """Reject, before any allocation, more rows than ``simulate --t cap`` prints."""
    cap = max_time_cap()
    if rows > 2 * cap + 1:
        raise ValueError(f"{flag} asks for {rows} rows, above the limit of {2 * cap + 1} "
                         f"(2 * QWALK_MAX_T + 1, the rows of simulate --t {cap})")


def _cmd_eigen(args) -> int:
    _check_rows(args.k_samples, "--k-samples")
    # Only theta matters for the eigensystem; the remaining parameters
    # take harmless placeholder values.
    params = WalkParams(theta=args.theta, theta1=0.0, tau=0,
                        alpha=1.0 + 0.0j, beta=0.0j)
    ks = wavenumber_grid(args.k_samples)
    l1, l2 = _eigenvalues(params, ks)
    emit(Table(k=ks, re_l1=l1.real, im_l1=l1.imag, re_l2=l2.real, im_l2=l2.imag),
         args.format, args.out)
    return 0


def _cmd_limits(args) -> int:
    if args.xmax < 0:
        raise ValueError(f"--xmax must be non-negative, got {args.xmax}")
    _check_rows(2 * args.xmax + 1, "--xmax")
    params, schedule = _resolve_walk(args)
    _require_half_time(schedule, "limits")
    xs = np.arange(-args.xmax, args.xmax + 1)
    # the masses are 0 off the parity track, where x + offset is odd
    occupied = (xs + parity_offset(args.parity)) % 2 == 0
    masses = theorem1_limit(params, xs[occupied], args.parity)
    emit(Table(occupied=occupied, x=xs, limit_mass=masses), args.format, args.out,
         meta={"delta_mass": delta_mass(params)})
    return 0


def _density_table(params: WalkParams, points: int):
    """The weak-limit density at ``points`` interior points of its support."""
    dens = LimitDensity.from_params(params)
    lo, hi = dens.support
    xs = np.linspace(lo, hi, points + 2)[1:-1]
    return Table(x=xs, f_ac=dens.density(xs)), {"delta_mass": dens.delta}


def _cmd_density(args) -> int:
    _check_rows(args.points, "--points")
    params, schedule = _resolve_walk(args)
    _require_half_time(schedule, "density")
    table, meta = _density_table(params, args.points)
    emit(table, args.format, args.out, meta=meta)
    return 0


def _cmd_trace(args) -> int:
    params, schedule = _resolve_walk(args)
    if not args.taus:
        raise ValueError("--taus must not be empty")
    if args.observable == "mass" and args.x is None:
        raise ValueError("--x is required for the mass observable")
    offset = parity_offset(args.parity)
    if args.observable == "ks":
        _require_half_time(schedule, "trace --observable ks")
        dens = LimitDensity.from_params(params)  # the same law for every tau
        states = tau_sweep(params, schedule, args.parity, args.taus)
        values = [_limit_distance(dens, distribution(state.sublattice())) for state in states]
    elif args.observable == "mass":
        values = trace_masses(params, schedule, args.parity, args.taus, (args.x,))[:, 0]
    else:
        values = trace_moments(params, schedule, args.parity, args.taus, args.r)
    table = Table(tau=args.taus, t=[2 * tau + offset for tau in args.taus], value=values)
    emit(table, args.format, args.out, meta={"observable": args.observable})
    return 0


def _cmd_compare(args) -> int:
    params, schedule = _resolve_walk(args)
    _require_half_time(schedule, "compare")
    dens = LimitDensity.from_params(params)
    limits = [dens.moment(r) for r in args.moments]  # rejects orders before evolving
    check_measurement_time(params.tau, args.t)
    dist = distribution(spectral_evolve(params, schedule, args.t))
    report = {
        "ks_distance": rescaled_cdf_distance(params, dist),
        "delta_mass_sim": localized_mass(dist),
        "delta_mass_theory": dens.delta,
        "moments": [
            {"r": r, "walk": moment(dist, r), "limit": limit}
            for r, limit in zip(args.moments, limits)
        ],
    }
    emit(report, args.format, args.out)
    return 0


def _figure_params(init: str, theta1: float, tau: int) -> WalkParams:
    alpha, beta = _SYMMETRIC if init == "symmetric" else _UP
    return WalkParams(theta=math.pi / 4, theta1=theta1, tau=tau,
                      alpha=alpha, beta=beta)


def _fig_distribution(init: str, theta1: float, tau: int,
                      schedule: Schedule, t: int):
    return _state_table(spectral_evolve(_figure_params(init, theta1, tau), schedule, t)), None


def _fig_spacetime(init: str, theta1: float, tau: int, schedule: Schedule):
    states = list(snapshots(_figure_params(init, theta1, tau), schedule, range(101)))
    ts = np.concatenate([np.full(2 * state.time + 1, state.time) for state in states])
    xs = np.concatenate([np.arange(-state.time, state.time + 1) for state in states])
    probs = np.concatenate([distribution(state).values for state in states])
    return Table(occupied=(xs + ts) % 2 == 0, t=ts, x=xs, prob=probs), None


def _fig_mass_trace(positions: Sequence[int], parity: str):
    # every position is read off the same block of phases, so each tau propagates once
    sweep = np.arange(251)
    probs = trace_masses(_figure_params("symmetric", 0.0, 0), Schedule.half_time(),
                         parity, sweep, positions).ravel()
    taus = np.repeat(sweep, len(positions))
    return Table(tau=taus, t=2 * taus + parity_offset(parity),
                 x=np.tile(positions, len(sweep)), prob=probs), None


def _fig_density(init: str):
    return _density_table(_figure_params(init, 0.0, 0), 2001)


_FIGURES: dict[str, Callable] = {
    "1a": lambda: _fig_distribution("symmetric", 0.0, 249, Schedule.half_time(), 500),
    "1b": lambda: _fig_distribution("up", 0.0, 249, Schedule.half_time(), 500),
    "2a": lambda: _fig_spacetime("symmetric", 0.0, 24, Schedule.half_time()),
    "2b": lambda: _fig_spacetime("up", 0.0, 24, Schedule.half_time()),
    "3a": lambda: _fig_distribution("symmetric", math.pi / 4, 0, Schedule.usual(), 500),
    "3b": lambda: _fig_distribution("up", math.pi / 4, 0, Schedule.usual(), 500),
    "4a": lambda: _fig_spacetime("symmetric", math.pi / 4, 0, Schedule.usual()),
    "4b": lambda: _fig_spacetime("up", math.pi / 4, 0, Schedule.usual()),
    "5a": lambda: _fig_mass_trace((-1, 1), "odd"),
    "5b": lambda: _fig_mass_trace((0,), "even"),
    "5c": lambda: _fig_mass_trace((-2, 2), "even"),
    "7a": lambda: _fig_density("symmetric"),
    "7b": lambda: _fig_density("up"),
}


def _cmd_figures(args) -> int:
    data, meta = _FIGURES[args.paper_fig]()
    emit(data, args.format, args.out, meta=meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, walk: bool = True,
            with_tau: bool = True, formats=("csv", "json")) -> argparse.ArgumentParser:
        # the first of ``formats`` is the default; none: the command writes no output file
        p = sub.add_parser(name, help=help_text)
        if walk:
            _add_walk_arguments(p, with_tau=with_tau)
        if formats:
            p.add_argument("--out", help="output path (default: stdout)")
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=handler)
        return p

    p = add("simulate", _cmd_simulate, "evolve the walk and emit the distribution")
    p.add_argument("--t", type=int, help="final time")
    p.add_argument("--times", type=_parse_int_list, metavar="T1,T2,...",
                   help="emit one file per listed time")

    p = add("spectral-check", _cmd_spectral_check,
            "compare position-space and Fourier-space evolutions", formats=())
    p.add_argument("--t", type=int, required=True, help="final time")
    p.add_argument("--n-grid", type=int, default=None,
                   help="points on the half-circle wavenumber grid, at least t+1 "
                        "(default: the smallest 2^a 3^b 5^c >= t+1)")
    p.add_argument("--tol", type=_tolerance, default=SPECTRAL_CHECK_TOL,
                   help="max allowed entrywise deviation")

    p = add("eigen", _cmd_eigen, "tabulate the momentum-space eigenvalues",
            walk=False)
    p.add_argument("--theta", type=float, required=True,
                   help="coin angle of U in radians")
    p.add_argument("--k-samples", type=_count, default=1000,
                   help="number of wavenumber samples on [-pi, pi)")

    p = add("limits", _cmd_limits, "tabulate stationary point masses",
            with_tau=False)
    p.add_argument("--parity", choices=("odd", "even"), required=True)
    p.add_argument("--xmax", type=int, default=50,
                   help="tabulate positions -xmax..xmax")

    p = add("density", _cmd_density, "sample the weak-limit density",
            with_tau=False)
    p.add_argument("--points", type=_count, default=2001,
                   help="number of interior sample points")

    p = add("trace", _cmd_trace, "observable vs half-time trace")
    p.add_argument("--observable", choices=("mass", "ks", "moment"),
                   required=True)
    p.add_argument("--x", type=int, help="position for the mass observable")
    p.add_argument("--r", type=int, default=2,
                   help="moment order for the moment observable")
    p.add_argument("--parity", choices=("odd", "even"), default="odd",
                   help="measure at t=2*tau+1 (odd) or 2*tau+2 (even)")
    p.add_argument("--taus", type=_parse_int_list, required=True,
                   metavar="T1,T2,...")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: a trace "
                        "costs O(n) per tau and runs in-process")

    p = add("compare", _cmd_compare, "simulation vs limit-law report (half-time only)",
            formats=("json",))
    p.add_argument("--t", type=int, required=True,
                   help="measurement time (2*tau+1 or 2*tau+2)")
    p.add_argument("--moments", type=_parse_int_list, default=(0, 1, 2),
                   metavar="R1,R2,...")

    p = add("figures", _cmd_figures, "emit data behind a published figure",
            walk=False)
    p.add_argument("--paper-fig", choices=sorted(_FIGURES), required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of main, not at import, and reused by every
    # later call: argparse keeps no state between parses, and the handlers
    # it dispatches to look up emit and the evolutions by name when called.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
