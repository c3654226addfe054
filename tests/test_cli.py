"""End-to-end CLI behavior: subcommands, formats, exit codes,
determinism."""

import errno
import gc
import json
import os
import re
import stat
import subprocess
import sys
import time
import warnings

import pytest
from numpy.testing import assert_allclose

import vactrap.cli as cli
import vactrap.validation as validation

from vactrap.cavity import (
    CavityConfig,
    Detuning,
    DipoleOrientation,
    ValidityWarning,
    center_gamma,
)


def run_cli(*args, cwd=None, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "vactrap.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          preexec_fn=preexec_fn)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, rows


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- center

def test_center_default_csv():
    proc = run_cli("center")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["detuning_linewidths", "gamma_parallel",
                      "gamma_perpendicular", "shift_parallel",
                      "shift_perpendicular"]
    mid = rows[len(rows) // 2]
    assert mid[0] == 0.0
    assert mid[2] > mid[1] > 1.0  # perpendicular above parallel above vacuum
    assert mid[3] == 0.0 and mid[4] == 0.0


def test_center_free_space(tmp_path):
    config = write(tmp_path / "c.ini", "[mirrors]\nrho = 0.0\n")
    proc = run_cli("center", "--config", config)
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    for row in rows:
        assert row[1] == 1.0 and row[2] == 1.0
        assert row[3] == 0.0 and row[4] == 0.0


def test_center_quadrature_matches_closed_forms(tmp_path):
    config = write(tmp_path / "c.ini",
                   "[scan]\nstart = -1.0\nstop = 1.0\nn_points = 5\n")
    closed = run_cli("center", "--config", config)
    quad = run_cli("center", "--config", config, "--quadrature")
    assert closed.returncode == 0 and quad.returncode == 0
    _, rows_c = parse_csv(closed.stdout)
    _, rows_q = parse_csv(quad.stdout)
    for rc, rq in zip(rows_c, rows_q):
        assert_allclose(rq[1:], rc[1:], rtol=1e-6, atol=1e-9)


def test_center_scan_outside_resonance_window(tmp_path):
    config = write(tmp_path / "c.ini",
                   "[scan]\nstart = -300.0\nstop = 300.0\nn_points = 5\n")
    out = tmp_path / "never.csv"
    proc = run_cli("center", "--config", config, "--out", str(out))
    assert proc.returncode == 2
    assert "single-resonance window" in proc.stderr
    assert not out.exists()


# ----------------------------------------------------------------- axial

AXIAL_SMALL = "[scan]\nstart = -6.0\nstop = 6.0\nn_points = 25\n"


def test_axial_center_row_consistency(tmp_path):
    # axial ignores the drive: no gradient, no force columns
    config = write(tmp_path / "a.ini",
                   "[dipole]\norientation = parallel\n"
                   "[detuning]\nlinewidths = 0.5\n"
                   "[drive]\npi_e = 0.05\n" + AXIAL_SMALL)
    proc = run_cli("axial", "--config", config)
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["kz", "gamma_ratio", "shift_ratio"]
    mid = rows[len(rows) // 2]
    assert mid[0] == 0.0
    phi0 = Detuning(0.5).phase(0.98)
    expected = center_gamma(DipoleOrientation.parallel(),
                            CavityConfig(rho=0.98), phi0)
    assert_allclose(mid[1], expected, rtol=1e-6)


def test_axial_free_space_constant(tmp_path):
    config = write(tmp_path / "a.ini",
                   "[mirrors]\nrho = 0.0\n" + AXIAL_SMALL)
    proc = run_cli("axial", "--config", config)
    _, rows = parse_csv(proc.stdout)
    for row in rows:
        assert abs(row[1] - 1.0) < 1e-10
        assert abs(row[2]) < 1e-10


def test_axial_peak_at_center(tmp_path):
    config = write(tmp_path / "a.ini", AXIAL_SMALL)
    proc = run_cli("axial", "--config", config)
    _, rows = parse_csv(proc.stdout)
    gammas = [row[1] for row in rows]
    assert max(gammas) == gammas[len(rows) // 2]


def test_axial_range_guard(tmp_path):
    config = write(tmp_path / "a.ini",
                   "[scan]\nstart = -400.0\nstop = 400.0\nn_points = 5\n")
    proc = run_cli("axial", "--config", config)
    assert proc.returncode == 2
    assert proc.stderr == ("vactrap: |kr| = 400.0 exceeds the supported "
                           "region (<= 300)\n")


def test_plane_row_cap(tmp_path):
    # 206 x 206 rows, above 25 times the default plane; 10,001 points a
    # side once ran out of memory laying out its rows
    config = write(tmp_path / "p.ini", "[scan]\nn_points = 206\n")
    proc = run_cli("plane", "--config", config)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("vactrap: plane scan of 42436 rows is above the "
                           "cap of 42025 rows\n")


@pytest.mark.parametrize("stop, code", [
    (212.13203435596427, 0), (212.1320343559643, 2)])
def test_plane_range_guard_at_the_edge(tmp_path, capsys, stop, code):
    # the corner of the first plane lies at |kr| = 300.0 exactly, where
    # stop * sqrt(2) gave 300.00000000000006 and refused it; the next
    # float up is beyond
    config = write(tmp_path / "p.ini", f"[scan]\nstart = {-stop!r}\n"
                   f"stop = {stop!r}\nn_points = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        assert cli.main(["plane", "--config", config]) == code
    err = capsys.readouterr().err
    assert ("exceeds the supported region" in err) == bool(code)


@pytest.mark.parametrize("text,message", [
    ("start = 150\n",
     "scan start 150.0 must be below stop 100.0 (the axial default)"),
    ("stop = -150\n",
     "scan start -100.0 (the axial default) must be below stop -150.0"),
])
def test_scan_range_names_the_default(tmp_path, capsys, text, message):
    # a start past the default stop once gave only "must be below stop"
    config = write(tmp_path / "s.ini", "[scan]\n" + text)
    assert cli.main(["axial", "--config", config]) == 2
    assert capsys.readouterr().err == f"vactrap: {message}\n"


def test_axial_node_cap_checked_before_any_row(tmp_path):
    # the farthest point needs 1.8e6 polar nodes: refused up front, where
    # the scan once started and ran for hours
    config = write(tmp_path / "a.ini",
                   "[mirrors]\nrho = 0.9999\nkR = 1e3\n"
                   "[scan]\nstart = 0\nstop = 300\n")
    out = tmp_path / "never.csv"
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "vactrap.cli", "axial",
                           "--config", config, "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - started < 5.0
    assert proc.returncode == 2
    assert "cap of 16384" in proc.stderr
    # positions are admitted, with the warning, before rows are sized
    assert proc.stderr == (
        "vactrap: warning: positions beyond ~100/k; the ray model degrades "
        "out there\nvactrap: |kr| = 300.0 needs 1799936 polar nodes with "
        "these mirrors, above the cap of 16384\n")
    assert proc.stdout == ""
    assert not out.exists()

# ----------------------------------------------------------------- plane

def test_plane_columns(tmp_path):
    config = write(tmp_path / "p.ini",
                   "[scan]\nstart = -2.0\nstop = 2.0\nn_points = 3\n")
    proc = run_cli("plane", "--config", config)
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["kz", "kx", "gamma_ratio", "shift_ratio"]
    assert len(rows) == 9


# --------------------------------------------------------- force/potential

FORCE_INI = ("[detuning]\nlinewidths = -0.5\n"
             "[drive]\npi_e = 0.05\n"
             "[scan]\nstart = -10.0\nstop = 10.0\nn_points = 11\n")


def test_force_requires_drive(tmp_path):
    config = write(tmp_path / "f.ini", AXIAL_SMALL)
    proc = run_cli("force", "--config", config)
    assert proc.returncode == 2
    assert "drive" in proc.stderr


def test_force_zero_population(tmp_path):
    config = write(tmp_path / "f.ini",
                   FORCE_INI.replace("pi_e = 0.05", "pi_e = 0.0"))
    proc = run_cli("force", "--config", config)
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["kz", "force_x", "force_y", "force_z", "potential"]
    for row in rows:
        assert row[1:] == [0.0, 0.0, 0.0, 0.0]


def test_force_json_trap_metadata(tmp_path):
    config = write(tmp_path / "f.ini", FORCE_INI)
    out = tmp_path / "force.json"
    proc = run_cli("force", "--config", config, "--format", "json",
                   "--out", str(out))
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["trap"]["coordinates"] == [0.0]
    assert payload["metadata"]["trap"]["potential_min"] < 0.0
    assert payload["metadata"]["config"]["drive"] == {"pi_e": 0.05}
    assert "timings" not in payload["metadata"]


def test_json_metadata_records_format_written(tmp_path, capsys):
    # the config leaves the format at its CSV default: the metadata must
    # name the JSON that --format asked for and validate always writes
    config = write(tmp_path / "run.ini", "[scan]\nn_points = 3\n")
    assert cli.main(["axial", "--config", config, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["config"]["output"]["format"] == "json"
    assert cli.main(["validate", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata"]["config"]["output"]["format"] == "json"


@pytest.mark.parametrize("text,scan", [
    ("[scan]\nn_points = 3\n", {"n_points": 3}),
    ("[scan]\nstop = 5\nn_points = 3\n", {"stop": 5.0, "n_points": 3}),
], ids=["n_points", "stop"])
def test_json_metadata_records_scan_range(tmp_path, capsys, text, scan):
    # [scan] was left out of the metadata unless type or start was set
    config = write(tmp_path / "run.ini", text)
    assert cli.main(["axial", "--config", config, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    unset = dict.fromkeys(("type", "start", "stop", "n_points"))
    assert payload["metadata"]["config"]["scan"] == {**unset, **scan}
    assert len(payload["rows"]) == 3
    assert payload["rows"][-1][0] == scan.get("stop", 100.0)

def test_potential_sign_flips_with_detuning(tmp_path):
    blue = write(tmp_path / "blue.ini", FORCE_INI)
    red = write(tmp_path / "red.ini",
                FORCE_INI.replace("linewidths = -0.5", "linewidths = 0.5"))
    blue_rows = parse_csv(run_cli("potential", "--config", blue).stdout)[1]
    red_rows = parse_csv(run_cli("potential", "--config", red).stdout)[1]
    mid = len(blue_rows) // 2
    assert blue_rows[mid][1] < 0.0 < red_rows[mid][1]
    assert_allclose(red_rows[mid][1], -blue_rows[mid][1], rtol=1e-12)
    # blue-detuned cavity: center is the deepest point of the scan
    assert blue_rows[mid][1] == min(row[1] for row in blue_rows)


def test_weak_excitation_rows_exit_code(tmp_path):
    config = write(tmp_path / "w.ini",
                   "[mirrors]\nrho = 0.0\n"
                   "[drive]\nrabi = 2.0\nlaser_detuning = 0.0\n"
                   "[scan]\nstart = -2.0\nstop = 2.0\nn_points = 3\n")
    proc = run_cli("force", "--config", config)
    assert proc.returncode == 3
    assert "weak-excitation" in proc.stderr
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 3  # rows still written


# ------------------------------------------------------------- validate

def test_validate_passes_and_is_reproducible(tmp_path):
    first = run_cli("validate", "--seed", "5")
    second = run_cli("validate", "--seed", "5")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["passed"] is True
    names = {check["name"] for check in report["checks"]}
    assert "monte_carlo_agreement" in names
    assert "gradient_vs_finite_difference" in names
    assert all(check["passed"] for check in report["checks"])


@pytest.mark.parametrize("linewidths", ["-0.5", "0.3"])
def test_validate_detuned_writes_plain_json(tmp_path, capsys, linewidths):
    # off resonance a gradient component can be the zonal check's largest
    # difference; the report must still be plain JSON of Python values
    config = write(tmp_path / "detuned.ini",
                   f"[detuning]\nlinewidths = {linewidths}\n")
    assert cli.main(["validate", "--config", config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert len(report["checks"]) == 8
    run = cli.load_config(config)
    checks = validation.run_validation_suite(run.cavity, run.detuning)
    assert [{"name": check.name, "passed": check.passed,
             "detail": check.detail} for check in checks] == report["checks"]
    for check in checks:
        assert type(check.passed) is bool
        assert all(type(v) in (int, float) for v in check.detail.values())


def test_validate_rejects_bad_config(tmp_path):
    config = write(tmp_path / "bad.ini", "[mirrors]\nrho = 1.5\n")
    proc = run_cli("validate", "--config", config)
    assert proc.returncode == 2
    assert "rho" in proc.stderr


def test_validate_failure_exit_code(monkeypatch, capsys):
    # exit code 4 is reserved for a failing check suite
    import vactrap.cli as cli
    from vactrap.validation import CheckResult

    monkeypatch.setattr(
        validation, "run_validation_suite",
        lambda *a, **k: [CheckResult("forced_failure", False, {})])
    code = cli.main(["validate"])
    captured = capsys.readouterr()
    assert code == 4
    assert "forced_failure" in captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False


def test_validate_failure_exit_code_without_stderr(monkeypatch, capsys):
    # with no stderr to take the FAILED line, the exit code is still 4
    from vactrap.validation import CheckResult

    monkeypatch.setattr(
        validation, "run_validation_suite",
        lambda *a, **k: [CheckResult("forced_failure", False, {})])
    monkeypatch.setattr(sys, "stderr", None)
    assert cli.main(["validate"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["passed"] is False


# ------------------------------------------------- output and determinism

def test_csv_round_trip(tmp_path):
    config = write(tmp_path / "c.ini",
                   "[output]\nprecision = 17\n" + AXIAL_SMALL)
    json_out = run_cli("axial", "--config", config, "--format", "json")
    csv_out = run_cli("axial", "--config", config, "--format", "csv")
    payload = json.loads(json_out.stdout)
    _, rows = parse_csv(csv_out.stdout)
    for parsed, exact in zip(rows, payload["rows"]):
        assert parsed == exact  # CSV re-parses to the same values


def test_low_precision_round_trip(tmp_path):
    config = write(tmp_path / "c.ini",
                   "[output]\nprecision = 6\n" + AXIAL_SMALL)
    json_out = run_cli("axial", "--config", config, "--format", "json")
    csv_out = run_cli("axial", "--config", config)
    payload = json.loads(json_out.stdout)
    _, rows = parse_csv(csv_out.stdout)
    for parsed, exact in zip(rows, payload["rows"]):
        assert parsed == exact


def test_thread_count_determinism(tmp_path):
    config = write(tmp_path / "a.ini", AXIAL_SMALL)
    outputs = [run_cli("axial", "--config", config, "--threads", str(n))
               for n in (1, 4)]
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].returncode == outputs[1].returncode == 0


def test_cli_import_loads_no_thread_pool():
    # scans run on the calling thread; concurrent.futures would also load
    # logging, some 8 ms of every command's start-up.  The validation
    # suite and json load only in the commands that use them, and nothing
    # loads numpy.random where numpy itself does not (numpy 1.x does)
    code = ("import sys, numpy; before = set(sys.modules); "
            "import vactrap.cli; "
            "print(sorted({'concurrent.futures', 'vactrap.validation', "
            "'json', 'numpy.random'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_loads_no_numpy_random():
    # every draw of the oracles is a SplitMix64 hash of its index in
    # numpy integer arrays, so validate runs without numpy.random, some
    # 5 MB of memory and 12 ms of start-up
    code = ("import os, sys, vactrap.cli; "
            "status = vactrap.cli.main(['validate', '--out', os.devnull]); "
            "print(status, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_output_file_not_written_on_config_error(tmp_path):
    config = write(tmp_path / "bad.ini", "[mirrors]\nrho = 1.5\n")
    out = tmp_path / "never.csv"
    proc = run_cli("center", "--config", config, "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()


@pytest.mark.parametrize("command,text", [
    ("axial", "[detuning]\nlinewidths = nan\n"),
    ("force", "[drive]\nrabi = nan\nlaser_detuning = 0.0\n"),
])
def test_non_finite_config_number_rejected(tmp_path, command, text):
    # NaN once gave all-NaN rows (exit 3 for axial, 0 for force)
    config = write(tmp_path / "nan.ini", text)
    out = tmp_path / "never.csv"
    proc = run_cli(command, "--config", config, "--out", str(out))
    assert proc.returncode == 2
    assert "nan.ini:2: " in proc.stderr
    assert "must be a finite number" in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


HARD_PLANE = ("[mirrors]\nrho = 0.995\nkR = 1.0e3\ntheta_m_deg = 50.0\n"
              "[scan]\nstart = 72.0\nstop = 80.0\nn_points = 3\n")


def test_nonconvergent_scan_exit_code(tmp_path):
    config = write(tmp_path / "hard.ini", HARD_PLANE)
    proc = run_cli("plane", "--config", config, "--tolerance", "1e-10")
    assert proc.returncode == 3
    assert "convergence" in proc.stderr
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 9  # estimates still reported


def test_timings_flag_adds_metadata(tmp_path, capsys):
    config = write(tmp_path / "c.ini", AXIAL_SMALL)
    proc = run_cli("axial", "--config", config, "--format", "json",
                   "--timings")
    payload = json.loads(proc.stdout)
    assert "timings" in payload["metadata"]
    assert payload["metadata"]["timings"]["compute_seconds"] > 0.0
    # timings only go into JSON: with CSV output the flag is an error
    out = tmp_path / "timed.json"
    assert cli.main(["center", "--timings", "--out", str(out)]) == 2
    assert "--timings needs JSON output" in capsys.readouterr().err
    csv_config = write(tmp_path / "csv.ini", "[output]\nformat = csv\n")
    assert cli.main(["center", "--timings", "--config", csv_config,
                     "--out", str(out)]) == 2
    assert not out.exists()
    json_config = write(tmp_path / "json.ini", "[output]\nformat = json\n")
    assert cli.main(["center", "--timings", "--config", json_config,
                     "--out", str(out)]) == 0
    assert "timings" in json.loads(out.read_text())["metadata"]


@pytest.mark.parametrize("argv", [
    pytest.param(["center", "--tolerance=-1"], id="--tolerance--1"),
    pytest.param(["center", "--tolerance=0"], id="--tolerance-0"),
    pytest.param(["center", "--tolerance=nan"], id="--tolerance-nan"),
    pytest.param(["center", "--threads=-3"], id="--threads--3"),
    pytest.param(["center", "--threads=0"], id="--threads-0"),
    # parsed and refused: no thread is started
    pytest.param(["plane", "--threads=65"], id="--threads-65"),
    # flags of other commands: each command takes only what it reads
    pytest.param(["axial", "--seed", "1"], id="axial --seed"),
    pytest.param(["plane", "--quadrature"], id="plane --quadrature"),
    pytest.param(["center", "--seed", "3"], id="center --seed"),
    pytest.param(["validate", "--format", "json"], id="validate --format"),
    pytest.param(["validate", "--tolerance", "1e-3"],
                 id="validate --tolerance"),
    pytest.param(["validate", "--threads", "2"], id="validate --threads"),
    # once numpy's "expected non-negative integer", naming no flag
    pytest.param(["validate", "--seed", "-1"], id="validate --seed -1"),
])
def test_bad_flag_values_rejected(tmp_path, capsys, argv):
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert argv[1].split("=")[0] in err
    # the command's own parser reports it, with that command's usage
    assert err.startswith(f"usage: vactrap {argv[0]} ")
    assert f"vactrap {argv[0]}: error:" in err
    assert not out.exists()


def test_thread_cap_named(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["axial", f"--threads={cli.MAX_THREADS + 1}"])
    assert excinfo.value.code == 2
    assert f"must be at most {cli.MAX_THREADS}" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_only_the_flags_read(command, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    flags = set(re.findall(r"(--[a-z]+)", capsys.readouterr().out))
    expected = {"--help", "--config", "--out", "--timings"}
    if command != "validate":
        expected |= {"--format", "--tolerance", "--threads"}
    expected |= {"center": {"--quadrature"},
                 "validate": {"--seed"}}.get(command, set())
    assert flags == expected


def test_output_written_atomically(tmp_path, monkeypatch):
    out = tmp_path / "center.csv"
    assert cli.main(["center", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["center.csv"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def failing_replace(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert cli.main(["center", "--out", str(tmp_path / "second.csv")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["center.csv"]


def test_output_mode_is_left_to_the_umask(tmp_path, monkeypatch):
    # the kernel applies the umask; the CLI never sets it, not even
    # briefly, as a thread of a host program may create a file meanwhile
    umask = os.umask(0)
    os.umask(umask)

    def refused(mask):
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", refused)
    out = tmp_path / "center.csv"
    assert cli.main(["center", "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["center.csv"]


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert cli.main(["center", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"vactrap: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


# How a child can start without a usable stderr: fd 2 closed, as the
# shell's 2>&- leaves it (Python then sets sys.stderr to None), or open
# for reading only, so that every write fails.
STDERR_GONE = {
    "closed": lambda: os.close(2),
    "read-only": lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2),
}


@pytest.mark.parametrize("gone", list(STDERR_GONE))
@pytest.mark.parametrize("text,argv,code", [
    ("[mirrors]\nrho = 1.5\n", ("center",), cli.EXIT_CONFIG),
    (HARD_PLANE, ("plane", "--tolerance", "1e-10"), cli.EXIT_NUMERICAL),
])
def test_exit_code_holds_without_stderr(tmp_path, text, argv, code, gone):
    # the message is dropped: it once went to stdout, or made the run
    # exit 1 with a traceback
    config = write(tmp_path / "c.ini", text)
    table = run_cli(*argv, "--config", config).stdout
    proc = run_cli(*argv, "--config", config, preexec_fn=STDERR_GONE[gone])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, table, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("redirect,reason", [
    (lambda: os.close(1), errno.EBADF),
    (lambda: os.dup2(os.open("/dev/full", os.O_WRONLY), 1), errno.ENOSPC),
], ids=["closed", "full"])
def test_unwritable_stdout_exits_2(redirect, reason):
    # stdout closed or on a full device once ended in a traceback, exit 1
    proc = run_cli("center", preexec_fn=redirect)
    assert (proc.returncode, proc.stderr) == (
        cli.EXIT_CONFIG,
        f"vactrap: cannot write stdout: {os.strerror(reason)}\n")


CENTER_SMALL = "[scan]\nn_points = 5\n"


def center_table(tmp_path, capsys):
    config = write(tmp_path / "c.ini", CENTER_SMALL)
    assert cli.main(["center", "--config", config]) == 0
    return config, capsys.readouterr().out.encode()


def test_output_to_a_fifo_is_written_in_place(tmp_path, capsys):
    # replacing the FIFO by a file would leave its reader with nothing
    config, table = center_table(tmp_path, capsys)
    fifo = tmp_path / "table.csv"
    os.mkfifo(fifo)
    # holding both ends, the test reads what was written without waiting
    # on it; the table fits in the pipe's buffer
    fd = os.open(fifo, os.O_RDWR | os.O_NONBLOCK)
    try:
        assert cli.main(["center", "--config", config,
                         "--out", str(fifo)]) == 0
        received = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert received == table
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini",
                                                          "table.csv"]


def test_output_through_a_symlink_rewrites_its_target(tmp_path, capsys):
    config, table = center_table(tmp_path, capsys)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "target.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    dangling = tmp_path / "new.csv"
    dangling.symlink_to(tmp_path / "sub" / "new.csv")
    for path in (link, dangling):
        assert cli.main(["center", "--config", config,
                         "--out", str(path)]) == 0
        assert path.is_symlink()
        assert path.read_bytes() == table
    # the temporary file is made beside the target, and is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.ini", "link.csv", "new.csv", "sub"]
    assert sorted(p.name for p in target.parent.iterdir()) == [
        "new.csv", "target.csv"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_output_through_a_symlink_to_the_own_stdout_pipe(tmp_path, capsys):
    # what /dev/stdout is when stdout is a pipe: its real path names no
    # file, so the pipe is written through the link as given
    config, table = center_table(tmp_path, capsys)
    link = tmp_path / "stdout.csv"
    link.symlink_to("/proc/self/fd/1")
    proc = run_cli("center", "--config", config, "--out", str(link))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode() == table
    assert link.is_symlink()


@pytest.mark.parametrize("command", ["center", "axial", "validate"])
def test_empty_output_path_exits_2(tmp_path, command):
    # an empty path is refused where it is given, the flag by argparse
    # and the key with its file and line, and nothing is written
    proc = run_cli(command, "--out", "", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(f"vactrap {command}: error: argument --out: "
                                "must not be empty\n")
    config = tmp_path / "empty_path.ini"
    config.write_text("[output]\npath =\n")
    proc = run_cli(command, "--config", str(config), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr == (f"vactrap: {config}:2: output path must not be "
                           "empty; omit it to write to stdout\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty_path.ini"]


def test_unknown_command_rejected():
    proc = run_cli("wobble")
    assert proc.returncode == 2


# --------------------------------------------------------- process entry

class _Stream:
    """A stdout or stderr that records its flushes in ``calls``, and
    fails them with ``error`` when one is given."""

    def __init__(self, calls, name, error=None):
        self.calls, self.name, self.error = calls, name, error

    def flush(self):
        self.calls.append(f"flush {self.name}")
        if self.error:
            raise self.error


def test_entry_point_freezes_before_main_and_exits_with_its_status(
        monkeypatch):
    # os._exit is patched: called for real it would end this process.  A
    # flush that fails, or a stream that is gone, is dropped, and the
    # status is main's
    calls = []

    def exit_now(status):
        calls.append(("exit", status))
        raise SystemExit(status)

    monkeypatch.setattr(os, "_exit", exit_now)
    # entry_point sets the warning display: restored after the test
    monkeypatch.setattr(warnings, "showwarning", warnings.showwarning)
    for status in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL):
        for out, err in [(_Stream(calls, "stdout"), _Stream(calls, "stderr")),
                         (_Stream(calls, "stdout", OSError(errno.ENOSPC)),
                          None)]:
            calls.clear()
            monkeypatch.setattr(sys, "stdout", out)
            monkeypatch.setattr(sys, "stderr", err)
            monkeypatch.setattr(cli, "main",
                                lambda s=status: calls.append("main") or s)
            with pytest.raises(SystemExit):
                cli.entry_point()
            assert calls == ["main", "flush stdout",
                             *(["flush stderr"] if err else []),
                             ("exit", status)]


def test_entry_point_lets_argparse_exit(monkeypatch, capsys):
    # a usage error raises SystemExit out of main, before os._exit
    def exit_now(status):
        raise AssertionError("os._exit called on a usage error")

    monkeypatch.setattr(os, "_exit", exit_now)
    monkeypatch.setattr(warnings, "showwarning", warnings.showwarning)
    monkeypatch.setattr(sys, "argv", ["vactrap", "center", "--bogus"])
    with pytest.raises(SystemExit) as exit_info:
        cli.entry_point()
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_process_exit_leaves_no_output_behind(tmp_path):
    # the process ends without interpreter teardown: the default plane's
    # 1,681 rows still reach a pipe and an --out file whole
    header = "kz,kx,gamma_ratio,shift_ratio\n"
    piped = run_cli("plane")
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout.startswith(header)
    assert len(piped.stdout.splitlines()) == 1682
    out = tmp_path / "plane.csv"
    proc = run_cli("plane", "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert out.read_text() == piped.stdout


FAR_AXIAL = "[scan]\nstart = 99.0\nstop = 101.0\nn_points = 3\n"


def test_process_entry_prints_a_warning_as_one_line(tmp_path):
    # a CLI user has no use for the Python source line of a warning
    config = write(tmp_path / "far.ini", FAR_AXIAL)
    proc = run_cli("axial", "--config", config)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("vactrap: warning: positions beyond ~100/k; "
                           "the ray model degrades out there\n")
    assert ".py:" not in proc.stderr


def test_main_keeps_pythons_warning_display(tmp_path, monkeypatch, capsys):
    shown = []

    def show(message, category, filename, lineno, file=None, line=None):
        shown.append((category, filename))

    monkeypatch.setattr(warnings, "showwarning", show)
    config = write(tmp_path / "far.ini", FAR_AXIAL)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert cli.main(["axial", "--config", config]) == 0
        assert warnings.showwarning is show
    # attributed to the first frame outside the package, this test's
    assert shown == [(ValidityWarning, __file__)]


def test_main_leaves_the_collector_alone(tmp_path, capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    config = write(tmp_path / "a.ini", AXIAL_SMALL)
    assert cli.main(["axial", "--config", config]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_process_entry_writes_what_main_writes(tmp_path):
    config = write(tmp_path / "a.ini", AXIAL_SMALL)
    spawned, in_process = tmp_path / "spawned.csv", tmp_path / "main.csv"
    proc = run_cli("axial", "--config", config, "--out", str(spawned))
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["axial", "--config", config,
                     "--out", str(in_process)]) == 0
    assert spawned.read_bytes() == in_process.read_bytes()
