"""Run configuration: flat key/value sections with line-precise errors.

File format (all sections and keys optional; defaults below):

    [mirrors]
    rho = 0.98
    theta_m_deg = 45.0
    kR = 8.0e4
    diffraction_correction = false

    [dipole]
    orientation = isotropic        # parallel | perpendicular | isotropic
                                   # or three components: 0.0 0.0 1.0

    [detuning]
    linewidths = 0.0

    [drive]                        # read by force and potential only
    pi_e = 0.05                    # or rabi = ... with laser_detuning = ...

    [scan]
    type = axial                   # axial | transverse (force, potential)
    start = -100.0
    stop = 100.0
    n_points = 401                 # 2 to 10001 (a plane to 205)

    [output]
    path = out.csv
    format = csv                   # csv | json
    precision = 17                 # significant digits written

'#' and ';' start comments.  The file is UTF-8 text; a byte-order mark
at its start is ignored.  Every diagnostic carries file and line; a value
refused by the type or check that owns it also carries its key and value
as written, before the owner's own message.  The owners are
``CavityConfig``, ``DipoleOrientation`` and ``Detuning.phase`` for their
keys, ``fields._check_span`` for a start and stop given together,
``fields._check_points`` for n_points and ``fields._check_drive``
for pi_e, which it takes with the rabi/laser_detuning pair read before
it; the config checks only what is its own, such as a key that needs
another.
"""

from __future__ import annotations

import math

import numpy as np

from .cavity import CavityConfig, Detuning, DipoleOrientation, _Record
from .fields import _check_drive, _check_points, _check_span

_SECTIONS = {
    "mirrors": ("rho", "theta_m_deg", "kr", "diffraction_correction"),
    "dipole": ("orientation",),
    "detuning": ("linewidths",),
    "drive": ("pi_e", "rabi", "laser_detuning"),
    "scan": ("type", "start", "stop", "n_points"),
    "output": ("path", "format", "precision"),
}

_SCAN_TYPES = ("axial", "transverse")


class ConfigError(Exception):
    """Invalid configuration; the message pinpoints file and line."""


class RunConfig(_Record):
    """Everything a configuration file sets, with the defaults of the
    sections and keys it leaves out; ``weak_drive`` is (rabi,
    laser_detuning)."""

    _fields = ("cavity", "orientation", "detuning", "pi_e", "weak_drive",
               "scan_type", "scan_start", "scan_stop", "scan_points",
               "out_path", "out_format", "precision")

    def __init__(self, cavity: CavityConfig, orientation: DipoleOrientation,
                 detuning: Detuning, pi_e: float | None = None,
                 weak_drive: tuple[float, float] | None = None,
                 scan_type: str | None = None,
                 scan_start: float | None = None,
                 scan_stop: float | None = None,
                 scan_points: int | None = None,
                 out_path: str | None = None, out_format: str = "csv",
                 precision: int = 17):
        self.cavity = cavity
        self.orientation = orientation
        self.detuning = detuning
        self.pi_e = pi_e
        self.weak_drive = weak_drive
        self.scan_type = scan_type
        self.scan_start = scan_start
        self.scan_stop = scan_stop
        self.scan_points = scan_points
        self.out_path = out_path
        self.out_format = out_format
        self.precision = precision

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(
            cavity=CavityConfig(rho=0.98),
            orientation=DipoleOrientation.isotropic(),
            detuning=Detuning(0.0),
        )

    def to_metadata(self) -> dict:
        orientation = (list(self.orientation.d_hat)
                       if self.orientation.kind == "fixed"
                       else self.orientation.kind)
        meta = {
            "mirrors": {
                "rho": self.cavity.rho,
                "transmission": self.cavity.transmission,
                "theta_m_deg": math.degrees(self.cavity.theta_m),
                "kR": self.cavity.k_r_mirror,
                "diffraction_correction":
                    self.cavity.apply_diffraction_correction,
            },
            "dipole": {"orientation": orientation},
            "detuning": {"linewidths": self.detuning.linewidths},
            "output": {"format": self.out_format,
                       "precision": self.precision},
        }
        if self.pi_e is not None:
            meta["drive"] = {"pi_e": self.pi_e}
        elif self.weak_drive is not None:
            rabi, laser_detuning = self.weak_drive
            meta["drive"] = {"rabi": rabi, "laser_detuning": laser_detuning}
        scan = {"type": self.scan_type, "start": self.scan_start,
                "stop": self.scan_stop, "n_points": self.scan_points}
        if any(value is not None for value in scan.values()):
            meta["scan"] = scan
        return meta


def _parse_sections(text: str, source: str) -> dict:
    """Raw (value, line, key as written) entries keyed by section and
    lower-case key, validated against the known schema."""
    sections: dict[str, dict[str, tuple[str, int, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(
                f"{source}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        key_l = key.lower()
        if key_l not in _SECTIONS[current]:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in [{current}]")
        if key_l in sections[current]:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key_l] = (value, lineno, key)
    return sections


def _at(entry, source, make, *args):
    """``make(*args)``, where ``make`` is the type or check that owns
    ``entry``'s value.  Its ValueError is reported at the entry's line,
    after the key and value as written: the owner speaks in its own terms
    (radians, ``k_r_mirror``), the prefix in the file's."""
    value, lineno, key = entry
    try:
        return make(*args)
    except ValueError as err:
        raise ConfigError(
            f"{source}:{lineno}: {key} = {value}: {err}") from None


def _as_float(entry, source) -> float:
    value, lineno, key = entry
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(
            f"{source}:{lineno}: {key} must be a finite number, got {value!r}")
    return number


def _as_int(entry, source) -> int:
    value, lineno, key = entry
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"{source}:{lineno}: {key} must be an integer, got {value!r}"
        ) from None


def _as_bool(entry, source) -> bool:
    value, lineno, key = entry
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(
        f"{source}:{lineno}: {key} must be true or false, got {value!r}")


# The [mirrors] keys in the order of CavityConfig's fields, each with its
# reader.
_MIRRORS = (
    ("rho", _as_float),
    ("kr", _as_float),
    ("theta_m_deg",
     lambda entry, source: math.radians(_as_float(entry, source))),
    ("diffraction_correction", _as_bool),
)


def _parse_orientation(entry, source) -> DipoleOrientation:
    value, lineno, _ = entry
    lowered = value.lower()
    if lowered in ("parallel", "axis-parallel"):
        return DipoleOrientation.parallel()
    if lowered in ("perpendicular", "axis-perpendicular"):
        return DipoleOrientation.perpendicular()
    if lowered in ("isotropic", "random", "average"):
        return DipoleOrientation.isotropic()
    parts = value.replace(",", " ").split()
    if len(parts) == 3:
        try:
            vec = np.array([float(p) for p in parts])
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: orientation components must be "
                f"numbers, got {value!r}") from None
        big = float(np.max(np.abs(vec)))
        if not 0.0 < big < math.inf:
            raise ConfigError(
                f"{source}:{lineno}: orientation vector must be finite and "
                f"nonzero, got {value!r}")
        # divide by the power of two of the largest component, so that the
        # largest square is near 1: none overflows, and none that the norm
        # needs is subnormal.  The scaling is exact, so a vector whose
        # squares stay normal keeps the bits of numpy's norm
        vec = np.ldexp(vec, -math.frexp(big)[1])
        return _at(entry, source, DipoleOrientation.fixed,
                   vec / np.linalg.norm(vec))
    raise ConfigError(
        f"{source}:{lineno}: orientation must be parallel, perpendicular, "
        f"isotropic or three vector components, got {value!r}")


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate configuration text into a RunConfig."""
    sections = _parse_sections(text, source)
    run = RunConfig.defaults()

    # each key is folded into the cavity as it is read, so a refusal is
    # that key's; the joint check of aperture against diffraction comes
    # with the last key, diffraction_correction
    mirrors = sections.get("mirrors", {})
    fields = list(run.cavity._values())
    for i, (key, read) in enumerate(_MIRRORS):
        if key in mirrors:
            fields[i] = read(mirrors[key], source)
            run.cavity = _at(mirrors[key], source, CavityConfig, *fields)

    if "orientation" in sections.get("dipole", {}):
        run.orientation = _parse_orientation(
            sections["dipole"]["orientation"], source)

    if "linewidths" in sections.get("detuning", {}):
        entry = sections["detuning"]["linewidths"]
        run.detuning = Detuning(_as_float(entry, source))
        _at(entry, source, run.detuning.phase, run.cavity.rho)

    # the pair first, then pi_e with it through the one drive check
    drive = sections.get("drive", {})
    for key, other in (("rabi", "laser_detuning"), ("laser_detuning", "rabi")):
        if key in drive and other not in drive:
            raise ConfigError(f"{source}:{drive[key][1]}: {key} requires "
                              f"{other} in the same section")
    if "rabi" in drive:
        run.weak_drive = (_as_float(drive["rabi"], source),
                          _as_float(drive["laser_detuning"], source))
    if "pi_e" in drive:
        run.pi_e = _as_float(drive["pi_e"], source)
        _at(drive["pi_e"], source, _check_drive, run.pi_e, run.weak_drive)

    scan = sections.get("scan", {})
    if "type" in scan:
        value, lineno, _ = scan["type"]
        if value.lower() not in _SCAN_TYPES:
            raise ConfigError(
                f"{source}:{lineno}: scan type must be one of "
                f"{', '.join(_SCAN_TYPES)} (the axis of force and "
                f"potential profiles), got {value!r}")
        run.scan_type = value.lower()
    if "start" in scan:
        run.scan_start = _as_float(scan["start"], source)
    if "stop" in scan:
        run.scan_stop = _as_float(scan["stop"], source)
    if "start" in scan and "stop" in scan:
        _at(scan["start"], source, _check_span, run.scan_start,
            run.scan_stop)
    if "n_points" in scan:
        run.scan_points = _as_int(scan["n_points"], source)
        _at(scan["n_points"], source, _check_points, run.scan_points)

    output = sections.get("output", {})
    if "path" in output:
        run.out_path, lineno, _ = output["path"]
        if not run.out_path:
            raise ConfigError(f"{source}:{lineno}: output path must not be "
                              "empty; omit it to write to stdout")
    if "format" in output:
        value, lineno, _ = output["format"]
        if value.lower() not in ("csv", "json"):
            raise ConfigError(
                f"{source}:{lineno}: format must be csv or json, "
                f"got {value!r}")
        run.out_format = value.lower()
    if "precision" in output:
        run.precision = _as_int(output["precision"], source)
        if not 1 <= run.precision <= 17:
            raise ConfigError(
                f"{source}:{output['precision'][1]}: precision must be "
                "between 1 and 17 significant digits")
    return run


def load_config(path: str) -> RunConfig:
    try:
        # utf-8-sig drops the byte-order mark that some editors write
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: cannot read config file: {err}") from None
    return parse_config(text, source=path)
