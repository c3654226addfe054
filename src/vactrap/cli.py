"""Command-line front end.

``COMMANDS`` declares each command once: its help line, the flags it
reads, its [scan] defaults, the columns it writes and its runner.  A run
builds the parser of the command it names, and only that; a flag the
command does not read is rejected like an unknown one.  A line that
names no command first goes to the top-level parser, which prints help
or a usage error.

Exit codes: 0 success, 2 configuration error or unwritable output
(stdout too), 3 numerical trouble (non-converged or out-of-regime rows;
the table is still written), 4 validation failure.  They hold with
stderr closed: its lines are then dropped.

All output is dimensionless (rates over Gamma_vac, lengths in 1/k,
energies in hbar*Gamma_vac, forces in hbar*k*Gamma_vac).  Identical
configuration yields byte-identical output; wall-clock timings therefore
only appear in JSON metadata when --timings is passed explicitly, and
--timings with CSV output is an error.
"""

from __future__ import annotations

import argparse
import collections
import errno
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .cavity import DipoleOrientation, center_gamma, center_shift
from .config import ConfigError, RunConfig, load_config
from .fields import (DEFAULT_TOLERANCE, MAX_THREADS, ScanSpec, _check_span,
                     _scan_points, run_scan, trap_minimum)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


def _positive(kind, most=math.inf):
    """argparse type: a finite number of ``kind`` above zero and at most
    ``most``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a positive finite {kind.__name__}, got {text!r}")
        if value > most:
            raise argparse.ArgumentTypeError(
                f"must be at most {most}, got {text!r}")
        return value
    return parse


def _seed(text: str) -> int:
    """argparse type: a non-negative integer of any size, as the oracle
    stream (``validation._stream``) takes."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _path(text: str) -> str:
    """argparse type: a path that is not empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


# Every flag once, as ``add_argument`` takes it; a command names the ones
# it reads.
_FLAGS = {
    "--config": dict(metavar="PATH",
                     help="configuration file (defaults used if omitted)"),
    "--out": dict(metavar="PATH", type=_path,
                  help="output file (stdout if omitted)"),
    "--timings": dict(action="store_true",
                      help="include wall-clock timings in JSON metadata "
                           "(breaks byte-for-byte reproducibility)"),
    "--format": dict(choices=("csv", "json"),
                     help="output format (default csv)"),
    "--tolerance": dict(type=_positive(float), default=DEFAULT_TOLERANCE,
                        help="quadrature doubling tolerance (default "
                             f"{DEFAULT_TOLERANCE:g})"),
    "--threads": dict(type=_positive(int, MAX_THREADS), default=1,
                      help="accepted for compatibility; scans run on one "
                           f"thread (default 1, at most {MAX_THREADS})"),
    "--quadrature": dict(action="store_true",
                         help="force full sphere quadrature where closed "
                              "forms would be used"),
    "--seed": dict(type=_seed, default=0,
                   help="seed for Monte-Carlo checks (default 0)"),
}
_SCAN_FLAGS = ("--config", "--out", "--timings", "--format", "--tolerance",
               "--threads")


# A command's entry in ``COMMANDS``: its line in the top-level --help,
# the ``_FLAGS`` it reads in --help's order, its [scan] start, stop and
# n_points defaults (None: it scans nothing), the value columns it writes
# after the coordinates (None: all of its scan's) and its runner,
# run(args, RunConfig) -> exit code.
Command = collections.namedtuple("Command", "help flags scan columns run")


def _parser(command: str) -> argparse.ArgumentParser:
    """The parser of ``command``: the flags it reads, and no other."""
    parser = argparse.ArgumentParser(prog=f"vactrap {command}")
    for flag in COMMANDS[command].flags:
        parser.add_argument(flag, **_FLAGS[flag])
    return parser


def _top_level_parser() -> argparse.ArgumentParser:
    """The parser of a line that does not start with a command: its bare
    command entries only list the commands, so it prints help or a usage
    error, and exits."""
    parser = argparse.ArgumentParser(
        prog="vactrap",
        description="Cavity-modified spontaneous emission and "
                    "vacuum-induced trapping near a spherical-mirror "
                    "cavity center.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, entry in COMMANDS.items():
        sub.add_parser(name, help=entry.help, add_help=False)
    return parser


def _scan_range(run: RunConfig, command: str) -> tuple[float, float, int]:
    """The [scan] start, stop and n_points, each the command's default
    where the config leaves it out."""
    given = (run.scan_start, run.scan_stop, run.scan_points)
    start, stop, n_points = (
        default if value is None else value
        for value, default in zip(given, COMMANDS[command].scan))
    try:
        _check_span(start, stop)
    except ValueError:
        # the config refuses start >= stop when it gives both, so one of
        # the two is the command's default: say which
        def named(value, entry):
            suffix = f" (the {command} default)" if entry is None else ""
            return f"{float(value)!r}{suffix}"
        raise ConfigError(f"scan start {named(start, run.scan_start)} must "
                          f"be below stop {named(stop, run.scan_stop)}"
                          ) from None
    return start, stop, n_points


def _format_value(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _round_trip(value: float, precision: int) -> float:
    return float(_format_value(value, precision))


def _render_csv(columns, rows, precision: int) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(columns, rows, metadata: dict, precision: int) -> str:
    import json  # only JSON output needs it: not at every start-up

    payload = {
        "metadata": metadata,
        "columns": list(columns),
        "rows": [[_round_trip(v, precision) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def _create_beside(target: str) -> tuple[int, str]:
    """(fd, path) of a new file opened for writing beside ``target``,
    under a random name.  The kernel gives it mode 0o666 less the umask,
    as ``open`` would the target itself; the umask is never changed."""
    while True:
        path = f"{target}.{os.urandom(6).hex()}.tmp"
        try:
            return os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                           0o666), path
        except FileExistsError:
            continue  # the name is taken: draw another


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to ``out_path``, or to stdout when it is None.  A
    target that cannot be written is a usage error: exit 2, no
    traceback."""
    try:
        if out_path is None:
            if sys.stdout is None:  # fd 1 was closed at start
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(text)
            sys.stdout.flush()
            return
        if os.path.exists(out_path) and not os.path.isfile(out_path):
            # a FIFO, a device or a pipe is written to, never replaced
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            return
        # a regular file, or none yet, is replaced whole; through a
        # symlink that is the link's target, and the link stays
        target = os.path.realpath(out_path)
        fd, tmp_path = _create_beside(target)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp_path, target)
        except BaseException:
            os.unlink(tmp_path)
            raise
    except OSError as err:
        raise ConfigError(f"cannot write {out_path or 'stdout'}: "
                          f"{err.strerror or err}") from err


def _metadata(args, run: RunConfig, started: float, **entries) -> dict:
    metadata = {
        "command": args.command,
        "version": __version__,
        "config": run.to_metadata(),
        **entries,
    }
    if args.timings:
        metadata["timings"] = {
            "compute_seconds": time.perf_counter() - started}
    return metadata


def _emit_table(args, run: RunConfig, columns, rows, started: float,
                non_converged=(), weak_excitation=(),
                extra_metadata=None) -> int:
    if args.format == "json":
        metadata = _metadata(args, run, started, tolerance=args.tolerance,
                             non_converged_rows=list(non_converged),
                             weak_excitation_rows=list(weak_excitation),
                             **(extra_metadata or {}))
        text = _render_json(columns, rows, metadata, run.precision)
    else:
        text = _render_csv(columns, rows, run.precision)
    _emit(text, args.out)
    status = EXIT_OK
    if non_converged:
        _say(f"vactrap {args.command}: {len(non_converged)} row(s) failed "
             f"the convergence check: {list(non_converged)[:10]}")
        status = EXIT_NUMERICAL
    if weak_excitation:
        _say(f"vactrap {args.command}: {len(weak_excitation)} row(s) "
             f"exceed the weak-excitation limit: "
             f"{list(weak_excitation)[:10]}")
        status = EXIT_NUMERICAL
    return status


def cmd_center(args, run: RunConfig) -> int:
    started = time.perf_counter()
    start, stop, n_points = _scan_range(run, "center")
    specs = [ScanSpec("detuning", start, stop, n_points, run.cavity, d)
             for d in (DipoleOrientation.parallel(),
                       DipoleOrientation.perpendicular())]
    coords, phases, _ = _scan_points(specs[0])
    columns = ("detuning_linewidths",) + COMMANDS["center"].columns
    non_converged: list[int] = []
    if args.quadrature:
        res_par, res_perp = (run_scan(spec, tolerance=args.tolerance)
                             for spec in specs)
        values = [res.column(name) for name in ("gamma_ratio", "shift_ratio")
                  for res in (res_par, res_perp)]
        non_converged = sorted(set(res_par.non_converged)
                               | set(res_perp.non_converged))
    else:
        values = [np.atleast_1d(form(spec.orientation, run.cavity, phases))
                  for form in (center_gamma, center_shift) for spec in specs]
    rows = np.column_stack([coords] + values)
    return _emit_table(args, run, columns, rows, started,
                       non_converged=non_converged)


def cmd_spatial(args, run: RunConfig) -> int:
    """axial and plane scan the response; force and potential scan a
    drive's profile along [scan] type (axial unless transverse)."""
    started = time.perf_counter()
    command = args.command
    profile = COMMANDS[command].columns
    axis, drive = command, {}
    if profile:
        if run.pi_e is None and run.weak_drive is None:
            raise ConfigError(f"{command} profiles need a [drive] section "
                              "(pi_e, or rabi with laser_detuning)")
        axis = run.scan_type or "axial"
        drive = {"pi_e": run.pi_e, "weak_drive": run.weak_drive}
    start, stop, n_points = _scan_range(run, command)
    spec = ScanSpec(axis, start, stop, n_points, run.cavity, run.orientation,
                    detuning=run.detuning)
    result = run_scan(spec, tolerance=args.tolerance, **drive)
    columns, extra = result.columns, None
    if profile:
        columns = columns[:1] + profile
        trap = trap_minimum(result)
        extra = {"trap": {"potential_min": trap["potential_min"],
                          "coordinates": trap["coordinates"]}}
    indices = [result.columns.index(c) for c in columns]
    rows = result.values[:, indices]
    return _emit_table(args, run, columns, rows, started,
                       non_converged=result.non_converged,
                       weak_excitation=result.weak_excitation,
                       extra_metadata=extra)


def cmd_validate(args, run: RunConfig) -> int:
    # imported here, not at the top, so that scans start without them
    import json

    from .validation import run_validation_suite

    started = time.perf_counter()
    checks = run_validation_suite(run.cavity, run.detuning, seed=args.seed)
    passed = all(check.passed for check in checks)
    report = {
        "metadata": _metadata(args, run, started, seed=args.seed),
        "passed": passed,
        "checks": [{"name": check.name, "passed": check.passed,
                    "detail": check.detail} for check in checks],
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    if not passed:
        failed = [check.name for check in checks if not check.passed]
        _say(f"vactrap validate: FAILED checks: {', '.join(failed)}")
        return EXIT_VALIDATION
    return EXIT_OK


COMMANDS = {
    "center": Command("detuning scan of the center damping and shift",
                      _SCAN_FLAGS + ("--quadrature",), (-3.0, 3.0, 241),
                      ("gamma_parallel", "gamma_perpendicular",
                       "shift_parallel", "shift_perpendicular"), cmd_center),
    "axial": Command("on-axis spatial scan", _SCAN_FLAGS,
                     (-100.0, 100.0, 401), None, cmd_spatial),
    "plane": Command("(z, x) plane scan", _SCAN_FLAGS, (-20.0, 20.0, 41),
                     None, cmd_spatial),
    "force": Command("vacuum-force profile", _SCAN_FLAGS, (-50.0, 50.0, 201),
                     ("force_x", "force_y", "force_z", "potential"),
                     cmd_spatial),
    "potential": Command("trapping-potential profile", _SCAN_FLAGS,
                         (-50.0, 50.0, 201), ("potential",), cmd_spatial),
    "validate": Command("run the internal consistency suite",
                        ("--config", "--out", "--timings", "--seed"), None,
                        None, cmd_validate),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        _top_level_parser().parse_args(argv)  # exits
    args = _parser(argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    try:
        run = load_config(args.config) if args.config else RunConfig.defaults()
        # validate reads no --format: its report is always JSON
        args.format = getattr(args, "format", "json") or run.out_format
        run.out_format = args.format  # metadata records the format written
        if args.out is None:
            args.out = run.out_path
        if args.timings and args.format != "json":
            raise ConfigError("--timings needs JSON output "
                              "(--format json or [output] format = json)")
        return COMMANDS[args.command].run(args, run)
    except (ConfigError, ValueError) as err:
        _say(f"vactrap: {err}")
        return EXIT_CONFIG


def _say(line: str, file=None) -> None:
    """Write ``line`` to ``file``, stderr by default.  As Python's own
    warning display, drop it when there is no stream to take it (None or
    closed), so that the exit code is the command's, whatever stderr is."""
    try:
        (sys.stderr if file is None else file).write(line + "\n")
    except (AttributeError, OSError):
        pass


def _show_warning(message, category, filename, lineno, file=None,
                  line=None) -> None:
    """``warnings.showwarning`` of the command line: the message alone,
    without the Python source location it was issued from."""
    _say(f"vactrap: warning: {message}", file)


def entry_point() -> None:
    """The ``vactrap`` console script and ``python -m vactrap.cli``: once
    stdout and stderr are flushed (a failure dropped, as by ``_say``), it
    exits with main's status and no interpreter teardown or atexit
    handler, some 6-9 ms a run; argparse's own exits are the usual ones."""
    warnings.showwarning = _show_warning
    status = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, OSError):
            pass
    os._exit(status)


if __name__ == "__main__":
    entry_point()
