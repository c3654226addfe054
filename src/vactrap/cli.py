"""Command-line front end.

Subcommands and the flags each one reads
    center     damping/shift at the cavity center vs detuning
               (scan flags, plus --quadrature)
    axial      damping/shift along the cavity axis (scan flags)
    plane      damping/shift on a (z, x) grid through the center
               (scan flags)
    force      vacuum-force profile along [scan] type, axial or
               transverse (scan flags; needs a [drive] section)
    potential  trapping-potential profile, as force
    validate   run the internal oracle suite, emit a JSON report
               (base flags, plus --seed)

Base flags are --config, --out and --timings; scan flags are the base
flags plus --format, --tolerance and --threads.  --threads is accepted
for compatibility; scans run on one thread.  A flag that a command does
not read is rejected like an unknown one.  axial and plane ignore
[drive] and [scan] type.

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
from .quadrature import ConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4

_SCAN_DEFAULTS = {
    "center": (-3.0, 3.0, 241),
    "axial": (-100.0, 100.0, 401),
    "plane": (-20.0, 20.0, 41),
    "force": (-50.0, 50.0, 201),
    "potential": (-50.0, 50.0, 201),
}


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
    stream (``quadrature._stream``) takes."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _path(text: str) -> str:
    """argparse type: a path that is not empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It rejects the arguments it does not take
    itself, so the error names the command and shows its usage, not the
    top-level parser's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vactrap",
        description="Cavity-modified spontaneous emission and "
                    "vacuum-induced trapping near a spherical-mirror "
                    "cavity center.")
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--config", metavar="PATH",
                      help="configuration file (defaults used if omitted)")
    base.add_argument("--out", metavar="PATH", type=_path,
                      help="output file (stdout if omitted)")
    base.add_argument("--timings", action="store_true",
                      help="include wall-clock timings in JSON metadata "
                           "(breaks byte-for-byte reproducibility)")
    scan = argparse.ArgumentParser(add_help=False, parents=[base])
    scan.add_argument("--format", choices=("csv", "json"), default=None,
                      help="output format (default csv)")
    scan.add_argument("--tolerance", type=_positive(float),
                      default=DEFAULT_TOLERANCE,
                      help="quadrature doubling tolerance (default "
                           f"{DEFAULT_TOLERANCE:g})")
    scan.add_argument("--threads", type=_positive(int, MAX_THREADS),
                      default=1,
                      help="accepted for compatibility; scans run on one "
                           f"thread (default 1, at most {MAX_THREADS})")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    sub.add_parser(
        "center", parents=[scan],
        help="detuning scan of the center damping and shift",
    ).add_argument("--quadrature", action="store_true",
                   help="force full sphere quadrature where closed forms "
                        "would be used")
    for name, help_text in [
        ("axial", "on-axis spatial scan"),
        ("plane", "(z, x) plane scan"),
        ("force", "vacuum-force profile"),
        ("potential", "trapping-potential profile"),
    ]:
        sub.add_parser(name, parents=[scan], help=help_text)
    validate = sub.add_parser("validate", parents=[base],
                              help="run the internal consistency suite")
    validate.add_argument("--seed", type=_seed, default=0,
                          help="seed for Monte-Carlo checks (default 0)")
    validate.set_defaults(format="json")  # the report is always JSON
    return parser


def _scan_range(run: RunConfig, command: str) -> tuple[float, float, int]:
    """The [scan] start, stop and n_points, each the command's default
    where the config leaves it out."""
    given = (run.scan_start, run.scan_stop, run.scan_points)
    start, stop, n_points = (
        default if value is None else value
        for value, default in zip(given, _SCAN_DEFAULTS[command]))
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
    columns = ("detuning_linewidths", "gamma_parallel", "gamma_perpendicular",
               "shift_parallel", "shift_perpendicular")
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


# The value columns that force and potential keep of a force scan.
_PROFILE_COLUMNS = {
    "force": ("force_x", "force_y", "force_z", "potential"),
    "potential": ("potential",),
}


def cmd_spatial(args, run: RunConfig) -> int:
    """axial and plane scan the response; force and potential scan a
    drive's profile along [scan] type (axial unless transverse)."""
    started = time.perf_counter()
    command = args.command
    profile = _PROFILE_COLUMNS.get(command)
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


_COMMANDS = {
    "center": cmd_center,
    "axial": cmd_spatial,
    "plane": cmd_spatial,
    "force": cmd_spatial,
    "potential": cmd_spatial,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = load_config(args.config) if args.config else RunConfig.defaults()
        args.format = args.format or run.out_format
        run.out_format = args.format  # metadata records the format written
        if args.out is None:
            args.out = run.out_path
        if args.timings and args.format != "json":
            raise ConfigError("--timings needs JSON output "
                              "(--format json or [output] format = json)")
        return _COMMANDS[args.command](args, run)
    except (ConfigError, ValueError) as err:
        _say(f"vactrap: {err}")
        return EXIT_CONFIG
    except ConvergenceError as err:
        _say(f"vactrap: {err}")
        return EXIT_NUMERICAL


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
