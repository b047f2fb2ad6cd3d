"""Golden outputs of ``dhjac sweep``, ``dhjac units``, ``dhjac pose`` and ``dhjac validate``.

Each case is run again into ``tmp_path`` and compared with its files under
``tests/golden/``; a ``pose`` case writes its exit code, stdout and stderr to
one file, a ``validate`` case its exit code and stdout to one file and its
report to another.  On the numpy, BLAS and machine recorded in
``tests/golden/platform.json`` the files must be equal byte for byte;
elsewhere every status and every other word must be equal and every number
equal to 1e-12 relative, except where a case says otherwise.  To write the
golden files from the current tree, of every case or of the cases named:

    PYTHONPATH=src python tests/test_golden.py [case ...]

``platform.json`` is written only with every case; naming a case that does
not exist, or naming cases on another platform than the recorded one, is
refused.
"""

import contextlib
import io
import json
import math
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dhjac import dhj
from dhjac.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference_4dof.json"
#: offset PRS rails (``conftest.offset_prs_config``) in the config schema
OFFSET = GOLDEN / "offset_layout.json"
#: rails under the anchors (``conftest.square_config``): G^T singular at theta = 0
SQUARE = GOLDEN / "square_layout.json"

# case -> (argv without --out, files written); the first file is the --out path
CASES = {
    "sweep_y0_z150": (["sweep", "--config", REFERENCE, "--grid", "11", "--y", "0",
                       "--z", "150"], ["sweep_y0_z150.csv"]),
    # 22 cells past the reach of the links: unreachable
    "sweep_y380": (["sweep", "--config", REFERENCE, "--grid", "11", "--y", "380"],
                   ["sweep_y380.csv"]),
    # across theta = 0: ok, no_convergence, and singular_selection at psi = +/-59.5 deg
    "sweep_offset": (["sweep", "--config", OFFSET, "--grid", "11", "--envelope-deg", "89",
                      "--range-deg", "74.375"], ["sweep_offset.csv"]),
    "units_grid7": (["units", "--config", REFERENCE, "--grid", "7"],
                    ["units_grid7.json", "units_grid7.csv"]),
    # ok cells and, past the reach of the links, unreachable ones
    "units_y380": (["units", "--config", REFERENCE, "--grid", "11", "--y", "380"],
                   ["units_y380.json", "units_y380.csv"]),
}

# case -> argv of a ``pose`` request, whose output goes to <case>.txt
POSE_CASES = {
    "pose_10_5": ["pose", "--config", REFERENCE, "--json", "0", "150", "10", "5"],
    "pose_home": ["pose", "--config", REFERENCE, "--json", "0", "150", "0", "0"],
    "pose_20_160": ["pose", "--config", REFERENCE, "--json", "20", "160", "-30", "40"],
    "pose_corner": ["pose", "--config", REFERENCE, "--json", "-50", "120", "45", "-45"],
    "pose_100_180": ["pose", "--config", REFERENCE, "--json", "100", "180", "-12", "33"],
    # one refused pose per code, exit 2 and the message on stderr
    "pose_unreachable_reach": ["pose", "--config", REFERENCE, "500", "150", "0", "0"],
    "pose_unreachable_envelope": ["pose", "--config", REFERENCE, "0", "150", "60", "0"],
    "pose_degenerate_pair": ["pose", "--config", REFERENCE, "--plan", "opposite",
                             "0", "150", "10", "5"],
    "pose_singular_selection": ["pose", "--config", OFFSET, "--envelope-deg", "89",
                                "0", "150", "0", "59.5"],
    "pose_no_convergence": ["pose", "--config", OFFSET, "--envelope-deg", "89",
                            "0", "150", "-74.375", "-74.375"],
    "pose_singular_configuration": ["pose", "--config", SQUARE, "0", "150", "0", "10"],
}
#: cases whose message prints the condition number of a singular matrix, which is
#: rounding noise: off the recorded platform only their words are compared
NOISE_CASES = {"pose_singular_selection", "pose_singular_configuration"}


def square_layout(link_length: float):
    """The square layout with another link length, written into the directory of a run."""
    def write(directory: Path) -> Path:
        path = directory / f"square_layout_l{link_length:g}.json"
        raw = json.loads(SQUARE.read_text())
        path.write_text(json.dumps(dict(raw, l=link_length)))
        return path
    return write


# case -> argv of a ``validate`` request without --out: the reference, offset and
# square layouts at a few seeds, then the offset layout at +/-89 deg, which
# exits 1 (constraint_rows_annihilate_tangent reads the truncation error of the
# finite-difference tangent; see ``test_verify.test_offset_tangent_error_is_truncation``)
VALIDATE_CASES = {
    "validate_reference_seed_0": ["--config", REFERENCE, "--seed", "0", "--poses", "10"],
    "validate_reference_seed_5": ["--config", REFERENCE, "--seed", "5", "--poses", "12"],
    "validate_reference_seed_777": ["--config", REFERENCE, "--seed", "777", "--poses", "10"],
    "validate_reference_seed_42_100_poses": ["--config", REFERENCE, "--seed", "42",
                                             "--poses", "100"],
    "validate_offset_seed_42": ["--config", OFFSET, "--seed", "42", "--poses", "12"],
    # dhj_vs_brute_force stops on no_forward_solution (BRUTE_FORCE_STOPS)
    "validate_square_seed_11": ["--config", SQUARE, "--seed", "11", "--poses", "10"],
    "validate_square_seed_17": ["--config", SQUARE, "--seed", "17", "--poses", "10"],
    "validate_square_seed_26": ["--config", SQUARE, "--seed", "26", "--poses", "10"],
    "validate_square_short_link": ["--config", square_layout(300.0), "--seed", "13",
                                   "--poses", "20"],
    "validate_unreachable": ["--config", square_layout(100.0), "--seed", "3", "--poses", "5"],
    "validate_offset_89": ["--config", OFFSET, "--envelope-deg", "89", "--poses", "30"],
}

# case -> the poses dhj_vs_brute_force judges before a target has no forward solution,
# which the report must show on any platform
BRUTE_FORCE_STOPS = {"validate_square_seed_11": 0, "validate_square_seed_17": 4,
                     "validate_square_seed_26": 3}

NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
RTOL = 1e-12


def current_platform() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "machine": platform.machine()}


def run_case(case: str, directory: Path) -> None:
    argv, files = CASES[case]
    rc = main([str(a) for a in argv] + ["--out", str(directory / files[0])])
    assert rc == 0


def run_pose_case(case: str) -> str:
    """Exit code, stdout and stderr of a ``pose`` case, as the text of its golden file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in POSE_CASES[case]])
    return f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def run_validate_case(case: str, directory: Path) -> tuple[str, str]:
    """The exit code and stdout of a ``validate`` case, and its report, as the texts of its
    two golden files; stdout names the report by its golden file."""
    out_path = directory / f"{case}.json"
    argv = [str(a(directory) if callable(a) else a) for a in VALIDATE_CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(["validate", *argv, "--out", str(out_path)])
    stdout = out.getvalue().replace(str(out_path), out_path.name)
    return f"exit {rc}\n--- stdout\n{stdout}", out_path.read_text()


def validation_counts(report: dict) -> dict:
    """What a validation report counts, and each check's verdict, which no rounding moves."""
    return {
        "poses": (report["seed"], report["poses_requested"], report["poses_feasible"]),
        "failures": [f["code"] for f in report["pose_failures"]],
        "checks": [(c["name"], c["threshold"], c["passed"], c["poses_tested"])
                   for c in report["checks"]],
        "all_passed": report["all_passed"],
    }


def assert_close_text(got: str, want: str) -> None:
    """Equal outside the numbers, and every number equal to RTOL relative."""
    assert NUMBER.split(got) == NUMBER.split(want)
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want), strict=True):
        x, y = float(a), float(b)
        assert math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0), (a, b)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(tmp_path, capsys, case):
    run_case(case, tmp_path)
    capsys.readouterr()
    same_platform = json.loads((GOLDEN / "platform.json").read_text()) == current_platform()
    for name in CASES[case][1]:
        got, want = (tmp_path / name).read_bytes(), (GOLDEN / name).read_bytes()
        if same_platform:
            assert got == want, name
        else:
            assert_close_text(got.decode(), want.decode())


def run_sweep_case(case: str, directory: Path, capsys) -> tuple[bytes, str]:
    """The CSV and stdout of a ``sweep`` case; stdout names the CSV by its golden file."""
    capsys.readouterr()
    run_case(case, directory)
    out_path = directory / CASES[case][1][0]
    return out_path.read_bytes(), capsys.readouterr().out.replace(str(out_path), out_path.name)


def test_sweep_output_does_not_depend_on_the_block_size(tmp_path, capsys, monkeypatch):
    # the offset grid, whose 11 rows hold ok, no_convergence and singular_selection cells,
    # in blocks of one row, of one row and 3 poses (a cap that is not a whole number of
    # rows), of two rows and 3 poses (a last block of one row) and of the default size
    outputs = []
    for block_poses in (11, 11 + 3, 2 * 11 + 3, dhj.GRID_BLOCK_POSES):
        monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", block_poses)
        outputs.append(run_sweep_case("sweep_offset", tmp_path, capsys))
    assert outputs[1:] == outputs[:1] * 3
    csv, stdout = outputs[0]
    statuses = [line.rsplit(b",", 1)[1] for line in csv.splitlines()[1:]]
    assert {s: statuses.count(s) for s in set(statuses)} == {
        b"ok": 97, b"no_convergence": 22, b"singular_selection": 2}
    assert stdout.startswith("sweep_offset.csv: 121 cells (24 skipped), unit mm\n")


#: stdout of ``sweep_y380``: the medians and extremes over its 99 ok cells
SWEEP_Y380_STDOUT = """\
sweep_y380.csv: 121 cells (22 skipped), unit mm
cond(G^T):  median     406.16   max    1945.54
cond(J_dh): median     11.842   max     57.857   min 4.789
band ratio (medians): 34.3x
"""


def test_sweep_stdout_summary(tmp_path, capsys):
    assert run_sweep_case("sweep_y380", tmp_path, capsys)[1] == SWEEP_Y380_STDOUT


@pytest.mark.parametrize("case", POSE_CASES)
def test_golden_pose(case):
    got = run_pose_case(case)
    want = (GOLDEN / f"{case}.txt").read_text()
    if json.loads((GOLDEN / "platform.json").read_text()) == current_platform():
        assert got == want
    elif case in NOISE_CASES:
        assert NUMBER.split(got) == NUMBER.split(want)
    else:
        assert_close_text(got, want)


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_golden_validate(tmp_path, case):
    got_text, got_report = run_validate_case(case, tmp_path)
    want_text = (GOLDEN / f"{case}.txt").read_text()
    want_report = (GOLDEN / f"{case}.json").read_text()
    if case in BRUTE_FORCE_STOPS:
        checks = json.loads(got_report)["checks"]
        dhj_fd = next(c for c in checks if c["name"] == "dhj_vs_brute_force")
        assert dhj_fd["note"].startswith("no_forward_solution at")
        assert dhj_fd["poses_tested"] == BRUTE_FORCE_STOPS[case]
    if json.loads((GOLDEN / "platform.json").read_text()) == current_platform():
        assert got_text == want_text
        assert got_report == want_report
        return
    # elsewhere the error numbers are finite-difference noise (the differences of nearly
    # equal resolved poses), so every number is compared as a word only, and the exit
    # code, the counts and each check's verdict exactly
    assert got_text.splitlines()[0] == want_text.splitlines()[0]
    assert NUMBER.split(got_text) == NUMBER.split(want_text)
    assert NUMBER.split(got_report) == NUMBER.split(want_report)
    assert validation_counts(json.loads(got_report)) == validation_counts(json.loads(want_report))


def test_number_pattern_splits_every_field():
    line = "-50,1.5e-05,12.000000000000002,,no_convergence"
    assert NUMBER.findall(line) == ["-50", "1.5e-05", "12.000000000000002"]
    assert_close_text(line, "-50,1.5000000000000001e-05,12.000000000000002,,no_convergence")
    with pytest.raises(AssertionError):
        assert_close_text(line, "-50,1.5e-05,12.000000000000002,,ok")
    with pytest.raises(AssertionError):
        assert_close_text(line, "-50,1.5e-05,12.0000000001,,no_convergence")


def regenerate(names, directory: Path = GOLDEN) -> None:
    """Write the golden files of the cases ``names`` (every case when empty) into
    ``directory`` from the current tree; ``platform.json`` only when writing every case.

    A named case that is not a case is refused, and so is a subset on another platform
    than the recorded one, which would mix the files of two platforms."""
    everything = [*CASES, *POSE_CASES, *VALIDATE_CASES]
    unknown = [case for case in names if case not in everything]
    if unknown:
        raise SystemExit(f"unknown golden case: {', '.join(unknown)}")
    recorded = directory / "platform.json"
    if names and json.loads(recorded.read_text()) != current_platform():
        raise SystemExit(f"{recorded} records another platform: regenerate every case")
    with tempfile.TemporaryDirectory() as scratch:
        for case in names or everything:
            if case in CASES:
                run_case(case, directory)
            elif case in POSE_CASES:
                (directory / f"{case}.txt").write_text(run_pose_case(case))
            else:
                text, report = run_validate_case(case, Path(scratch))
                (directory / f"{case}.txt").write_text(text)
                (directory / f"{case}.json").write_text(report)
    if not names:
        recorded.write_text(json.dumps(current_platform(), indent=2) + "\n")


def test_regenerate_writes_only_the_named_cases(tmp_path, capsys):
    (tmp_path / "platform.json").write_text(json.dumps(current_platform()))
    regenerate(["pose_home", "sweep_y0_z150"], tmp_path)
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "platform.json", "pose_home.txt", "sweep_y0_z150.csv"]
    assert (tmp_path / "platform.json").read_text() == json.dumps(current_platform())
    with pytest.raises(SystemExit, match="unknown golden case: pose_nowhere"):
        regenerate(["pose_home", "pose_nowhere"], tmp_path)
    (tmp_path / "platform.json").write_text(json.dumps({"numpy": "0"}))
    with pytest.raises(SystemExit, match="another platform"):
        regenerate(["pose_home"], tmp_path)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
