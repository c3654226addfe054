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
    n_points = 401                 # 2 to 10001

    [output]
    path = out.csv
    format = csv                   # csv | json
    precision = 17                 # significant digits written

'#' and ';' start comments.  Every diagnostic carries file and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityConfig, Detuning, DipoleOrientation

_SECTIONS = {
    "mirrors": ("rho", "theta_m_deg", "kr", "diffraction_correction"),
    "dipole": ("orientation",),
    "detuning": ("linewidths",),
    "drive": ("pi_e", "rabi", "laser_detuning"),
    "scan": ("type", "start", "stop", "n_points"),
    "output": ("path", "format", "precision"),
}

_SCAN_TYPES = ("axial", "transverse")

# 25 times the largest default scan; plane maps cost n_points squared
_MAX_SCAN_POINTS = 10_001


class ConfigError(Exception):
    """Invalid configuration; the message pinpoints file and line."""


@dataclass
class RunConfig:
    cavity: CavityConfig
    orientation: DipoleOrientation
    detuning: Detuning
    pi_e: float | None = None
    weak_drive: tuple[float, float] | None = None  # (rabi, laser_detuning)
    scan_type: str | None = None
    scan_start: float | None = None
    scan_stop: float | None = None
    scan_points: int | None = None
    out_path: str | None = None
    out_format: str = "csv"
    precision: int = 17

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
    """Raw (value, line) pairs keyed by section/key, validated against
    the known schema."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
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
        sections[current][key_l] = (value, lineno)
    return sections


def _as_float(entry, source, name) -> float:
    value, lineno = entry
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(
            f"{source}:{lineno}: {name} must be a finite number, got {value!r}")
    return number


def _as_int(entry, source, name) -> int:
    value, lineno = entry
    try:
        return int(value)
    except ValueError:
        raise ConfigError(
            f"{source}:{lineno}: {name} must be an integer, got {value!r}"
        ) from None


def _as_bool(entry, source, name) -> bool:
    value, lineno = entry
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(
        f"{source}:{lineno}: {name} must be true or false, got {value!r}")


def _parse_orientation(entry, source) -> DipoleOrientation:
    value, lineno = entry
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
        norm = float(np.linalg.norm(vec))
        if not 0.0 < norm < math.inf:
            raise ConfigError(
                f"{source}:{lineno}: orientation vector must be finite and "
                f"nonzero, got {value!r}")
        return DipoleOrientation.fixed(vec / norm)
    raise ConfigError(
        f"{source}:{lineno}: orientation must be parallel, perpendicular, "
        f"isotropic or three vector components, got {value!r}")


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate configuration text into a RunConfig."""
    sections = _parse_sections(text, source)
    run = RunConfig.defaults()

    mirrors = sections.get("mirrors", {})
    rho = run.cavity.rho
    theta_m = run.cavity.theta_m
    k_r = run.cavity.k_r_mirror
    correction = run.cavity.apply_diffraction_correction
    if "rho" in mirrors:
        rho = _as_float(mirrors["rho"], source, "rho")
    if "theta_m_deg" in mirrors:
        theta_m = math.radians(
            _as_float(mirrors["theta_m_deg"], source, "theta_m_deg"))
    if "kr" in mirrors:
        k_r = _as_float(mirrors["kr"], source, "kR")
    if "diffraction_correction" in mirrors:
        correction = _as_bool(mirrors["diffraction_correction"], source,
                              "diffraction_correction")
    try:
        run.cavity = CavityConfig(rho=rho, k_r_mirror=k_r, theta_m=theta_m,
                                  apply_diffraction_correction=correction)
    except ValueError as err:
        lineno = _mirror_error_line(mirrors, str(err))
        raise ConfigError(f"{source}:{lineno}: {err}") from None

    if "orientation" in sections.get("dipole", {}):
        run.orientation = _parse_orientation(
            sections["dipole"]["orientation"], source)

    if "linewidths" in sections.get("detuning", {}):
        entry = sections["detuning"]["linewidths"]
        linewidths = _as_float(entry, source, "linewidths")
        run.detuning = Detuning(linewidths)
        try:
            run.detuning.phase(run.cavity.rho)
        except ValueError as err:
            raise ConfigError(f"{source}:{entry[1]}: {err}") from None

    drive = sections.get("drive", {})
    if "pi_e" in drive and ("rabi" in drive or "laser_detuning" in drive):
        raise ConfigError(
            f"{source}:{drive['pi_e'][1]}: pi_e and rabi/laser_detuning "
            "drive specifications are mutually exclusive")
    if "pi_e" in drive:
        run.pi_e = _as_float(drive["pi_e"], source, "pi_e")
        if not 0.0 <= run.pi_e <= 0.5:
            raise ConfigError(
                f"{source}:{drive['pi_e'][1]}: pi_e must lie in [0, 1/2], "
                f"got {run.pi_e}")
    if "rabi" in drive:
        if "laser_detuning" not in drive:
            raise ConfigError(
                f"{source}:{drive['rabi'][1]}: rabi requires "
                "laser_detuning in the same section")
        run.weak_drive = (_as_float(drive["rabi"], source, "rabi"),
                          _as_float(drive["laser_detuning"], source,
                                    "laser_detuning"))
    elif "laser_detuning" in drive:
        raise ConfigError(
            f"{source}:{drive['laser_detuning'][1]}: laser_detuning "
            "requires rabi in the same section")

    scan = sections.get("scan", {})
    if "type" in scan:
        value, lineno = scan["type"]
        if value.lower() not in _SCAN_TYPES:
            raise ConfigError(
                f"{source}:{lineno}: scan type must be one of "
                f"{', '.join(_SCAN_TYPES)} (the axis of force and "
                f"potential profiles), got {value!r}")
        run.scan_type = value.lower()
    if "start" in scan:
        run.scan_start = _as_float(scan["start"], source, "start")
    if "stop" in scan:
        run.scan_stop = _as_float(scan["stop"], source, "stop")
    if ("start" in scan and "stop" in scan
            and not run.scan_start < run.scan_stop):
        raise ConfigError(
            f"{source}:{scan['start'][1]}: scan start must be below stop")
    if "n_points" in scan:
        run.scan_points = _as_int(scan["n_points"], source, "n_points")
        if not 2 <= run.scan_points <= _MAX_SCAN_POINTS:
            raise ConfigError(
                f"{source}:{scan['n_points'][1]}: n_points must be >= 2 "
                f"and <= {_MAX_SCAN_POINTS}")

    output = sections.get("output", {})
    if "path" in output:
        run.out_path = output["path"][0]
    if "format" in output:
        value, lineno = output["format"]
        if value.lower() not in ("csv", "json"):
            raise ConfigError(
                f"{source}:{lineno}: format must be csv or json, "
                f"got {value!r}")
        run.out_format = value.lower()
    if "precision" in output:
        run.precision = _as_int(output["precision"], source, "precision")
        if not 1 <= run.precision <= 17:
            raise ConfigError(
                f"{source}:{output['precision'][1]}: precision must be "
                "between 1 and 17 significant digits")
    return run


def _mirror_error_line(mirrors: dict, message: str) -> int:
    """Best-effort mapping of a CavityConfig invariant message back to
    the config line that set the offending value."""
    for token, key in (("rho", "rho"), ("theta_m", "theta_m_deg"),
                       ("k_r_mirror", "kr"), ("diffraction", "theta_m_deg")):
        if token in message and key in mirrors:
            return mirrors[key][1]
    if mirrors:
        return min(entry[1] for entry in mirrors.values())
    return 0


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ConfigError(f"{path}: cannot read config file: {err}") from None
    return parse_config(text, source=path)
