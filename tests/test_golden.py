"""Golden outputs of ``dhjac sweep``, ``dhjac units`` and ``dhjac pose``.

Each case is run again into ``tmp_path`` and compared with its files under
``tests/golden/``; a ``pose`` case writes its exit code, stdout and stderr to
one file.  On the numpy, BLAS and machine recorded in
``tests/golden/platform.json`` the files must be equal byte for byte;
elsewhere every status and every other word must be equal and every number
equal to 1e-12 relative.  To write the golden files from the current tree:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import platform
import re
from pathlib import Path

import numpy as np
import pytest

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


def test_number_pattern_splits_every_field():
    line = "-50,1.5e-05,12.000000000000002,,no_convergence"
    assert NUMBER.findall(line) == ["-50", "1.5e-05", "12.000000000000002"]
    assert_close_text(line, "-50,1.5000000000000001e-05,12.000000000000002,,no_convergence")
    with pytest.raises(AssertionError):
        assert_close_text(line, "-50,1.5e-05,12.000000000000002,,ok")
    with pytest.raises(AssertionError):
        assert_close_text(line, "-50,1.5e-05,12.0000000001,,no_convergence")


if __name__ == "__main__":
    for case in CASES:
        run_case(case, GOLDEN)
    for case in POSE_CASES:
        (GOLDEN / f"{case}.txt").write_text(run_pose_case(case))
    (GOLDEN / "platform.json").write_text(json.dumps(current_platform(), indent=2) + "\n")
