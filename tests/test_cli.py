import contextlib
import dataclasses
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhjac import cli, dhj, verify
from dhjac.cli import SWEEP_HEADER, main, sweep_rows
from dhjac.dhj import condition_numbers_at, dexterity_at, unit_scaling_experiment
from dhjac.errors import KinematicsError
from dhjac.model import load_config
from dhjac.selection import PRIMARY_PLAN

from conftest import REFERENCE_CONFIG, offset_prs_config, square_config

CFG = str(REFERENCE_CONFIG)


def _short_link_config(tmp_path):
    """Reference layout with a 100 mm link: no pose is reachable."""
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({
        "unit": "mm", "r_a": 200.0, "r_b": 450.0, "l": 100.0,
        "actuator": "linear",
        "limbs": [
            {"angle_deg": 0.0, "kind": "PUS", "base_angle_deg": 45.0},
            {"angle_deg": 90.0, "kind": "PRS"},
            {"angle_deg": 180.0, "kind": "PUS", "base_angle_deg": 135.0},
            {"angle_deg": 270.0, "kind": "PRS"},
        ],
        "mobility": {"lambda": 6, "n": 10, "j": 12, "f_sum": 22},
    }))
    return str(cfg)


def _config_file(tmp_path, cfg):
    """``cfg`` written in the JSON schema that ``load_config`` reads."""
    path = tmp_path / "layout.json"
    path.write_text(json.dumps({
        "unit": cfg.unit, "r_a": cfg.moving_plate_radius, "r_b": cfg.base_radius,
        "l": cfg.link_length,
        "limbs": [{"angle_deg": s.angle_deg, "kind": s.kind, "base_angle_deg": s.base_deg}
                  for s in cfg.limbs],
    }))
    return str(path)


# One pose per refusal: the stderr line `pose` prints, exit code 2.  The printed
# cond values of the singular poses and the pair difference are rounding noise,
# as numpy 2.4.6 with its bundled OpenBLAS on x86-64 computes them.
POSE_REFUSALS = {
    "non_finite": (None, ["0", "150", "nan", "0"],
                   "Unreachable: pose coordinates (0.0, 150.0, nan, 0.0) are not all finite"),
    "envelope": (None, ["0", "150", "60", "0"],
                 "Unreachable: (theta, psi) = (60.00, 0.00) deg outside the +/-50 deg envelope"),
    "ik": (None, ["450", "150", "0", "0"],
           "Unreachable: limb 4: lateral offset 700 exceeds link 687"),
    "plane_limit": (offset_prs_config, ["0", "150", "0", "70", "--envelope-deg", "75"],
                    "Unreachable: psi = 70.00 deg outside the +/-67.00 deg limit of the PRS "
                    "rail planes"),
    "singular_limb": (lambda: square_config(link_length=250.0), ["0", "150", "0", "0"],
                      "SingularLimb: limb 2: actuation screw reciprocal to rail "
                      "(|u.s1| = 0.000e+00)"),
    "singular_configuration": (square_config, ["0", "150", "0", "10"],
                               "SingularConfiguration: cond(G^T) = 2.807e+16 exceeds 1.0e+12"),
    "degenerate_pair": (None, ["0", "150", "10", "5", "--plan", "opposite"],
                        "DegeneratePair: pair (v_2y, v_4z): a_2x - a_4x = -3.155e-30 "
                        "(threshold 1.992e-07)"),
    "singular_selection": (offset_prs_config, ["0", "150", "0", "59.5", "--envelope-deg", "89"],
                           "SingularSelection: cond(J_dh) = 7.890e+16 exceeds 1.0e+12"),
}


@pytest.mark.parametrize("case", POSE_REFUSALS)
def test_pose_refusal_lines(tmp_path, capsys, case):
    layout, argv, line = POSE_REFUSALS[case]
    cfg = CFG if layout is None else _config_file(tmp_path, layout())
    assert main(["pose", *argv, "--config", cfg]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_pose_ok(capsys):
    assert main(["pose", "0", "150", "10", "5", "--config", CFG]) == 0
    out = capsys.readouterr().out
    assert "cond(J_dh)" in out and "q_a:" in out


def test_pose_json_record(capsys):
    assert main(["pose", "0", "150", "10", "5", "--config", CFG, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["cond_Jdh"] >= 1.0
    assert np.isfinite(record["cond_Jdh"])
    assert len(record["q"]) == 4
    assert np.asarray(record["J_dh"]).shape == (4, 4)
    assert record["plan"] == [["1y", "2z"], ["2y", "3z"], ["3y", "4z"], ["4y", "1z"]]
    # the printed numbers are the pipeline's record at the same pose, exactly
    rec = dexterity_at(load_config(CFG), 0.0, 150.0, math.radians(10.0), math.radians(5.0))
    assert record["J_dh"] == rec.J_dh.tolist()
    assert record["singular_values"] == rec.sigmas.tolist()
    assert record["cond_Jdh"] == rec.k
    assert record["cond_G"] == rec.k_conventional


def test_pose_outside_envelope_exit_2(capsys):
    for theta in ("60", "nan"):
        assert main(["pose", "0", "150", theta, "0", "--config", CFG]) == 2
        assert "Unreachable" in capsys.readouterr().err


def test_malformed_config_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["pose", "0", "150", "0", "0", "--config", str(bad)]) == 3
    assert "config error" in capsys.readouterr().err


def test_undecodable_config_exit_3(tmp_path, capsys):
    # JSON is UTF-8: other bytes, and nesting deeper than the decoder recurses, are config errors
    for name, data in (("utf16.json", b"\xff\xfe{}"),
                       ("deep.json", b"[" * 200000 + b"]" * 200000)):
        bad = tmp_path / name
        bad.write_bytes(data)
        assert main(["pose", "0", "150", "0", "0", "--config", str(bad)]) == 3, name
        assert "config error: cannot read config" in capsys.readouterr().err


def test_degenerate_plan_exit_2(capsys):
    code = main(["pose", "0", "150", "10", "5", "--config", CFG,
                 "--plan", "opposite"])
    assert code == 2
    assert "DegeneratePair" in capsys.readouterr().err


#: plans whose pairs hold entries that are not strings: ints, null, an object
NON_STRING_PLANS = ('[[1,2],[2,3],[3,4],[4,1]]',
                    '[[null,"2z"],["2y","3z"],["3y","4z"],["4y","1z"]]',
                    '[["1y",{}],["2y","3z"],["3y","4z"],["4y","1z"]]')


def test_bad_plan_exit_3(tmp_path, capsys):
    assert main(["pose", "0", "150", "0", "0", "--config", CFG,
                 "--plan", "nonsense["]) == 3
    # a pair entry that is not a string is a config error on every command that takes --plan
    for plan in NON_STRING_PLANS:
        for argv in (["pose", "0", "150", "10", "5"],
                     ["sweep", "--grid", "3", "--out", str(tmp_path / "s.csv")],
                     ["units", "--grid", "3", "--out", str(tmp_path / "u.json")]):
            assert main([*argv, "--config", CFG, "--plan", plan]) == 3, (argv[0], plan)
            assert "config error: bad plan pair" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_nested_plan_exit_3(tmp_path, capsys):
    # nesting deeper than the JSON decoder recurses is a config error, not a traceback
    plan = "[" * 20000 + "]" * 20000
    for argv in (["pose", "0", "150", "0", "0"],
                 ["sweep", "--grid", "3", "--out", str(tmp_path / "s.csv")],
                 ["units", "--grid", "3", "--out", str(tmp_path / "u.json")]):
        assert main([*argv, "--config", CFG, "--plan", plan]) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot parse plan '[[[") and "recursion" in err
    assert list(tmp_path.iterdir()) == []


#: refused plans whose text is far longer than a line: plan -> (how the line starts, a word
#: it names)
LONG_PLANS = {
    "nested_3000": ("[" * 3000 + "]" * 3000, "config error: cannot parse plan '[[[", "recursion"),
    "nested_20000": ("[" * 20000 + "]" * 20000, "config error: cannot parse plan '[[[",
                     "recursion"),
    "word": ("x" * 5000, "config error: cannot parse plan 'xxx", "Expecting value"),
    "digits": (json.dumps([["1" * 5000 + "y", "2z"]]), "config error: bad plan pair ['111",
               "expected like"),
    "long_pair": (json.dumps([["1y", "z" * 5000]]), "config error: bad plan pair ['1y', 'zzz",
                  "expected like"),
}


@pytest.mark.parametrize("case", LONG_PLANS)
def test_refused_plan_echo_is_bounded(tmp_path, capsys, case):
    # a refusal quotes the start of what it refuses and its length, not the whole text
    plan, start, word = LONG_PLANS[case]
    for argv in (["pose", "0", "150", "0", "0"],
                 ["sweep", "--grid", "3", "--out", str(tmp_path / "s.csv")],
                 ["units", "--grid", "3", "--out", str(tmp_path / "u.json")]):
        assert main([*argv, "--config", CFG, "--plan", plan]) == 3, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 200, (argv[0], len(err))
        assert err.startswith(start) and word in err and "characters)" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", CFG, "--grid", "7", "--z", "150",
                 "--out", str(out)]) == 0
    assert "49 cells (0 skipped), unit mm" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 49
    first = lines[1].split(",")
    assert first[4] == "ok"
    # row-major order: theta outer, psi inner
    thetas = [float(l.split(",")[0]) for l in lines[1:]]
    psis = [float(l.split(",")[1]) for l in lines[1:]]
    assert thetas == sorted(thetas)
    assert psis[:7] == sorted(psis[:7])
    assert thetas[0] == -50.0 and thetas[-1] == 50.0
    # full-precision numeric fields survive a parse round trip
    val = first[2]
    assert float(val) == float(f"{float(val):.17g}")


def test_sweep_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--config", CFG, "--grid", "5", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_units_match(tmp_path):
    mm, m = tmp_path / "mm.csv", tmp_path / "m.csv"
    assert main(["sweep", "--config", CFG, "--grid", "5", "--out", str(mm)]) == 0
    assert main(["sweep", "--config", CFG, "--grid", "5", "--unit", "m",
                 "--out", str(m)]) == 0
    rows_mm = [l.split(",") for l in mm.read_text().splitlines()[1:]]
    rows_m = [l.split(",") for l in m.read_text().splitlines()[1:]]
    for r_mm, r_m in zip(rows_mm, rows_m):
        k_mm, k_m = float(r_mm[3]), float(r_m[3])
        assert abs(k_mm - k_m) / k_mm < 1e-9      # cond(J_dh) unit-invariant
    g_dev = max(abs(float(a[2]) - float(b[2])) / float(a[2])
                for a, b in zip(rows_mm, rows_m))
    assert g_dev > 0.10                            # cond(G^T) is not


@pytest.mark.parametrize("cmd", ["sweep", "units"])
@pytest.mark.parametrize("rows", [3, 5])
def test_plan_row_count_must_match_limbs(tmp_path, capsys, cmd, rows):
    # refused once, before any pose is evaluated or any file written
    out = tmp_path / "out.json"
    assert main([cmd, "--config", CFG, "--grid", "3", "--plan", _cyclic_plan(rows),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"config error: plan has {rows} rows but 4 points given\n"
    assert list(tmp_path.iterdir()) == []


def _limbs(*kinds):
    """Limbs of the given kinds spread evenly around both circles."""
    return [{"angle_deg": 360.0 * i / len(kinds), "kind": kind} for i, kind in enumerate(kinds)]


def _cyclic_plan(rows):
    return json.dumps([[f"{r}y", f"{r % rows + 1}z"] for r in range(1, rows + 1)])


# Configs the loader refuses: (patch of the reference config, plan, stderr line).
# The plan matches the limb count, so nothing but the config is at fault.
REFUSED_AT_LOAD = {
    "three_limbs": ({"limbs": _limbs("PUS", "PRS", "PRS")}, _cyclic_plan(3),
                    "the pipeline supports four limbs, two of them PRS; got 3 limbs, 2 PRS"),
    "five_limbs": ({"limbs": _limbs("PUS", "PRS", "PUS", "PRS", "PUS")}, _cyclic_plan(5),
                   "the pipeline supports four limbs, two of them PRS; got 5 limbs, 2 PRS"),
    "mobility_int": ({"mobility": 5}, None, "mobility must be an object of counts, got 5"),
    "mobility_null": ({"mobility": None}, None,
                      "mobility must be an object of counts, got None"),
    "mobility_negative": ({"mobility": {"lambda": 6, "n": -10, "j": 12, "f_sum": 22}}, None,
                          "mobility counts must be nonnegative"),
    "mobility_fraction": ({"mobility": {"lambda": 6.9}}, None,
                          "mobility count 'lambda' must be an integer, got 6.9"),
    "mobility_bool": ({"mobility": {"lambda": True}}, None,
                      "mobility count 'lambda' must be an integer, got True"),
    "unknown_key": ({"envelope_dg": 80}, None, "unknown key 'envelope_dg' in config"),
    "unknown_limb_key": ({"limbs": [{"angle_deg": 0.0, "kind": "PUS", "base_deg": 45.0},
                                    *_limbs("PUS", "PRS", "PUS", "PRS")[1:]]}, None,
                         "unknown key 'base_deg' in limb 1"),
    "unknown_mobility_key": ({"mobility": {"lambda": 6, "lamda": 6}}, None,
                             "unknown key 'lamda' in mobility"),
    "actuator_rotational": ({"actuator": "rotational"}, None,
                            'actuator must be "linear" (the chain writes prismatic actuation '
                            "rows), got 'rotational'"),
    "actuator_mixed": ({"actuator": "mixed"}, None,
                       'actuator must be "linear" (the chain writes prismatic actuation '
                       "rows), got 'mixed'"),
    "unit_km": ({"unit": "km"}, None, "unknown unit 'km' (expected mm or m)"),
    "limb_kind_rrr": ({"limbs": _limbs("RRR", "PRS", "PUS", "PRS")}, None,
                      "unknown limb kind 'RRR'"),
}

COMMANDS = {
    "pose": ["pose", "0", "150", "10", "5"],
    "sweep": ["sweep", "--grid", "3"],
    "units": ["units", "--grid", "3"],
    "validate": ["validate", "--poses", "3"],
}


@pytest.mark.parametrize("cmd", COMMANDS)
@pytest.mark.parametrize("case", REFUSED_AT_LOAD)
def test_config_refused_at_load_exit_3(tmp_path, capsys, monkeypatch, case, cmd):
    import dhjac

    def no_pose(*args, **kwargs):
        raise AssertionError("a pose was resolved before the config was refused")

    for module in (dhjac.model, dhjac.dhj, dhjac.verify):
        monkeypatch.setattr(module, "resolve_many", no_pose)
    patch, plan, line = REFUSED_AT_LOAD[case]
    cfg = tmp_path / "layout.json"
    cfg.write_text(json.dumps({**json.loads(REFERENCE_CONFIG.read_text()), **patch}))
    argv = [*COMMANDS[cmd], "--config", str(cfg)]
    if cmd != "pose":
        argv += ["--out", str(tmp_path / "out.json")]
    if plan is not None and cmd != "validate":
        argv += ["--plan", plan]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == f"config error: {line}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [cfg]


def test_validate_has_no_plan_flag(capsys):
    # validate judges the plans it names itself, so --plan is a usage error there
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", CFG, "--plan", "primary"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --plan primary" in capsys.readouterr().err


def test_sweep_range_guard(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", CFG, "--grid", "5", "--range-deg", "80",
                 "--out", str(out)]) == 3
    assert main(["sweep", "--config", CFG, "--grid", "5", "--range-deg", "80",
                 "--envelope-deg", "85", "--out", str(out)]) == 0
    for flag in (["--range-deg", "nan"], ["--y", "nan"], ["--z", "inf"]):
        assert main(["sweep", "--config", CFG, "--grid", "5", *flag,
                     "--out", str(out)]) == 3


GRID_REFUSALS = {
    "one_step": (["--grid", "1"], "grid steps must be >= 2"),
    "zero_range": (["--range-deg", "0"], "range half-width must be positive"),
    "nan_range": (["--range-deg", "nan"], "range half-width must be positive"),
    "nan_y": (["--y", "nan"], "--y and --z must be finite, got nan, 150.0"),
    "inf_z": (["--z", "inf"], "--y and --z must be finite, got 0.0, inf"),
    "past_envelope": (["--range-deg", "80"],
                      "range exceeds the +/-50 deg envelope (raise --envelope-deg to override)"),
}


@pytest.mark.parametrize("cmd, out", [("sweep", "s.csv"), ("units", "u.json")])
@pytest.mark.parametrize("case", GRID_REFUSALS)
def test_grid_refusals(tmp_path, capsys, cmd, out, case):
    flags, message = GRID_REFUSALS[case]
    assert main([cmd, "--config", CFG, "--grid", "5", *flags,
                 "--out", str(tmp_path / out)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_unwritable_exit_4(tmp_path, capsys, monkeypatch):
    import dhjac.dhj

    def no_compute(*args, **kwargs):
        raise AssertionError("computed before the output was opened")

    missing = tmp_path / "missing"
    for cmd in (["units", "--grid", "3"], ["validate", "--poses", "2"],
                ["sweep", "--grid", "5"]):
        out = str(missing / f"{cmd[0]}.out")
        if cmd[0] == "sweep":  # the CSV is opened before any cell is computed
            monkeypatch.setattr(dhjac.dhj, "condition_numbers_at", no_compute)
        assert main([*cmd, "--config", CFG, "--out", out]) == 4
        err = capsys.readouterr().err
        # the message names the requested path, not the temporary file beside it
        assert f"cannot write output: [Errno 2] No such file or directory: '{out}'" in err
        assert ".tmp" not in err


def test_interrupted_sweep_keeps_previous_csv(tmp_path, monkeypatch, cpus):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", CFG, "--grid", "5", "--out", str(out)]) == 0
    before = out.read_bytes()
    rows = np.radians(np.linspace(-40.0, 40.0, 5))
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(args[3][0])
        if args[3][0] == rows[1]:  # the second row, the worker's job, after the first was written
            raise KeyboardInterrupt
        return condition_numbers_at(*args, **kwargs)

    cpus(2)
    monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", 5)  # one theta row per block
    monkeypatch.setattr(dhj, "condition_numbers_at", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", CFG, "--grid", "5", "--range-deg", "40",
              "--out", str(out)])
    assert sorted(calls) == rows[:2].tolist()
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_interrupted_units_keeps_previous_pair(tmp_path, monkeypatch):
    out = tmp_path / "units.json"
    assert main(["units", "--config", CFG, "--grid", "3", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    argv = ["units", "--config", CFG, "--grid", "3", "--scale", "0.5", "--out", str(out)]
    replacing, opened, seen = cli._replacing, {}, []

    class Interrupted:
        """The CSV file: its write fails, once the JSON text is complete in its temporary file."""

        def write(self, text):
            opened[str(out)].flush()
            seen.append(json.loads(out.with_name(f"{out.name}.{os.getpid()}.tmp").read_text()))
            raise KeyboardInterrupt

    @contextlib.contextmanager
    def interrupted(path, newline=None):
        with replacing(path, newline) as fh:
            opened[path] = fh
            yield Interrupted() if path.endswith(".csv") else fh

    monkeypatch.setattr(cli, "_replacing", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    [report] = seen
    assert report["unit_scaled"] == "mmx0.5" and len(report["cells"]) == 9
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def unformatted(*args):
        raise KeyboardInterrupt

    # the formatter fails inside both blocks, before either file is written
    monkeypatch.setattr(cli, "_replacing", replacing)
    monkeypatch.setattr(cli, "_units_text", unformatted)
    with pytest.raises(KeyboardInterrupt):
        main(argv)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_completed_writes_remove_nothing(tmp_path, monkeypatch, capsys):
    # os.replace moved each temporary file into place, so nothing is left to remove; where
    # the move fails, the temporary file is removed and the run exits 4
    import os

    removed = []

    def counted(path, *args, **kwargs):
        removed.append(os.path.basename(path))
        return remove(path, *args, **kwargs)

    remove = os.remove
    monkeypatch.setattr(os, "remove", counted)
    for cmd, out in ((["sweep", "--grid", "5"], "sweep.csv"),
                     (["units", "--grid", "3"], "units.json"),
                     (["validate", "--poses", "2"], "validate.json")):
        assert main([*cmd, "--config", CFG, "--out", str(tmp_path / out)]) in (0, 1)
    assert removed == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "sweep.csv", "units.csv", "units.json", "validate.json"]

    def refused(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(os, "replace", refused)
    out = tmp_path / "moved" / "sweep.csv"
    out.parent.mkdir()
    assert main(["sweep", "--config", CFG, "--grid", "5", "--out", str(out)]) == 4
    assert removed == [f"sweep.csv.{os.getpid()}.tmp"]
    assert list(out.parent.iterdir()) == []
    capsys.readouterr()


def test_units_command(tmp_path, capsys):
    out = tmp_path / "units.json"
    assert main(["units", "--config", CFG, "--grid", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["k_dh_invariant"] is True
    assert report["k_G_unit_sensitive"] is True
    assert report["unit_scaled"] == "m"
    csv_lines = (tmp_path / "units.csv").read_text().splitlines()
    assert csv_lines[0].startswith("theta_deg,psi_deg,cond_G_base")
    assert len(csv_lines) == 1 + 25


def test_units_csv_labels_equal_the_sweep_labels(tmp_path):
    # both label the cells from the same degree axis: at grid 21 the round trip through
    # radians printed -29.999999999999996 and 14.999999999999998 for -30 and 15
    assert main(["units", "--config", CFG, "--grid", "21", "--out",
                 str(tmp_path / "units.json")]) == 0
    assert main(["sweep", "--config", CFG, "--grid", "21", "--out",
                 str(tmp_path / "sweep.csv")]) == 0

    def labels(name):
        return [line.split(",")[:2] for line in (tmp_path / name).read_text().splitlines()]

    units, sweep = labels("units.csv"), labels("sweep.csv")
    assert len(units) == 1 + 21 * 21 and units == sweep
    assert ["-30", "15"] in units


def test_units_noop_scale(tmp_path, capsys):
    out = tmp_path / "noop.json"
    assert main(["units", "--config", CFG, "--grid", "3", "--scale", "1.0",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_rel_dev_k_dh"] == 0.0
    assert report["max_rel_dev_k_G"] == 0.0
    capsys.readouterr()
    # a bad scale is refused by name; one that takes a length out of bounds names the bound
    for bad, message in (("-1", "scale must be finite and positive, got -1.0"),
                         ("nan", "scale must be finite and positive, got nan"),
                         ("inf", "scale must be finite and positive, got inf"),
                         ("1e-320", "radii and link length must be at least 1e-150 and at "
                                    "most 1e+150, got r_a = 1.99998e-318")):
        assert main(["units", "--config", CFG, "--grid", "3", "--scale", bad,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_validate_reference(tmp_path, capsys):
    out = tmp_path / "validation_report.json"
    assert main(["validate", "--config", CFG, "--poses", "10", "--seed", "42",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("flag, message", [
    (["--seed", "-1"], "seed must be non-negative, got -1"),
    (["--poses", "0"], "at least one pose is needed, got 0"),
])
def test_validate_bad_sampling_exit_3(tmp_path, capsys, flag, message):
    out = tmp_path / "report.json"
    assert main(["validate", "--config", CFG, *flag, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_validate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["validate", "--config", CFG, "--poses", "6", "--seed", "1",
                     "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_every_cell_skipped(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", _short_link_config(tmp_path), "--grid", "3",
                 "--out", str(out)]) == 0
    assert "9 cells (9 skipped)" in capsys.readouterr().out
    assert all(line.endswith(",,,unreachable")
               for line in out.read_text().splitlines()[1:])


def test_validate_unreachable_config(tmp_path):
    out = tmp_path / "report.json"
    assert main(["validate", "--config", _short_link_config(tmp_path), "--poses", "5",
                 "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["all_passed"] is False
    assert all(f["code"] == "unreachable" for f in report["pose_failures"])


def test_explicit_json_plan(tmp_path, capsys):
    plan = json.dumps([["1y", "3z"], ["2y", "1z"], ["3y", "2z"], ["4y", "3z"]])
    assert main(["pose", "0", "150", "10", "5", "--config", CFG,
                 "--plan", plan, "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["plan"][0] == ["1y", "3z"]


REUSED_PARSER_REQUESTS = [
    ["pose", "0", "150", "10", "5", "--config", CFG, "--json"],
    ["sweep", "--config", CFG, "--grid", "3", "--y", "20"],
    ["pose", "0", "150", "10", "5", "--config", CFG],
    ["units", "--config", CFG, "--grid", "3", "--scale", "0.5"],
]


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys):
    # one parser serves every main call; no flag of one request leaks into the next
    def request(argv):
        if argv[0] != "pose":
            argv = [*argv, "--out", str(tmp_path / argv[0])]
        rc = main(argv)
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for p in tmp_path.iterdir():
            p.unlink()
        captured = capsys.readouterr()
        return rc, captured.out, captured.err, files

    cli._parser.cache_clear()
    in_turn = [request(argv) for argv in REUSED_PARSER_REQUESTS]
    assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 3)
    fresh = []
    for argv in REUSED_PARSER_REQUESTS:
        cli._parser.cache_clear()
        fresh.append(request(argv))
    assert in_turn == fresh
    assert [rc for rc, *_ in in_turn] == [0, 0, 0, 0]
    assert json.loads(in_turn[0][1])["cond_Jdh"] > 1.0 and "q_a:" in in_turn[2][1]


# offset PRS rails over +/-85 deg: ok, unreachable and singular_selection cells
OFFSET_WIDE = dataclasses.replace(offset_prs_config(), envelope_deg=89.0)
OFFSET_AXIS = np.linspace(-85.0, 85.0, 21)


@pytest.mark.parametrize("rows_per_block, blocks", [(4, 6), (21, 1)])
def test_grid_blocks_equal_row_by_row(monkeypatch, rows_per_block, blocks):
    # 21 rows under a cap of 4 rows make six blocks, dealt out as 4, 4, 4, 3, 3, 3; 21 rows fit
    # the cap whole, which makes one block of the two unit systems of ``units``, and two blocks
    # of the one ``sweep`` run (11 + 10 rows)
    th_deg, ps_deg = OFFSET_AXIS, OFFSET_AXIS
    th, ps = np.radians(th_deg), np.radians(ps_deg)
    row_by_row = [condition_numbers_at(OFFSET_WIDE, 0.0, 150.0, t, ps)
                  for t in th.tolist()]
    cfg_m = OFFSET_WIDE.scaled(0.001)
    row_by_row_m = [condition_numbers_at(cfg_m, 0.0, 150.0 * 0.001, t, ps)
                    for t in th.tolist()]
    # a cap that is not a whole number of rows
    monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", rows_per_block * len(ps) + 3)
    calls = []

    def counted(cfg, y, z, theta, psi, **kwargs):
        calls.append((theta[0], len(theta)))  # the calls of two threads arrive in any order
        return condition_numbers_at(cfg, y, z, theta, psi, **kwargs)

    def block_calls(count):
        return [(rows[0], len(ps) * len(rows)) for rows in np.array_split(th, count)]

    monkeypatch.setattr(dhj, "condition_numbers_at", counted)

    want = ["%.17g,%.17g,,,%s\n" % (t, p, code) if code != "ok"
            else "%.17g,%.17g,%.17g,%.17g,ok\n" % (t, p, kg, kd)
            for t, (status, k_g, k_dh) in zip(th_deg.tolist(), row_by_row)
            for p, code, kg, kd in zip(ps_deg.tolist(), status, k_g.tolist(), k_dh.tolist())]
    got = list(sweep_rows(OFFSET_WIDE, OFFSET_AXIS, 0.0, 150.0, PRIMARY_PLAN))
    sweep_calls = block_calls(max(blocks, 2))
    assert sorted(calls) == sweep_calls
    assert len(calls) == max(blocks, 2)
    # each block yields the lines of its whole theta rows as one string, and its conds
    assert [text.count("\n") for text, _, _ in got] == [n for _, n in sweep_calls]
    assert "".join(text for text, _, _ in got) == "".join(want)
    for i, want_k in ((1, [k_g for _, k_g, _ in row_by_row]),
                      (2, [k_dh for _, _, k_dh in row_by_row])):
        np.testing.assert_array_equal(np.concatenate([block[i] for block in got]),
                                      np.concatenate(want_k))
    assert {line.rsplit(",", 1)[1] for line in want} == {
        "ok\n", "unreachable\n", "singular_selection\n"}

    calls.clear()
    cells = unit_scaling_experiment(OFFSET_WIDE, th, ps, y=0.0, z=150.0)["cells"]
    assert sorted(calls) == sorted(2 * block_calls(blocks))
    assert len(calls) == 2 * blocks
    want = []
    for t, (st_a, kG_a, kdh_a), (st_b, kG_b, kdh_b) in zip(th.tolist(), row_by_row,
                                                            row_by_row_m):
        for j, p in enumerate(ps.tolist()):
            if st_a[j] != "ok" or st_b[j] != "ok":
                want.append({"theta": t, "psi": p,
                             "status": st_a[j] if st_a[j] != "ok" else st_b[j]})
            else:
                want.append({"theta": t, "psi": p, "status": "ok",
                             "k_G_base": kG_a[j], "k_G_scaled": kG_b[j],
                             "k_dh_base": kdh_a[j], "k_dh_scaled": kdh_b[j]})
    assert cells == want


GRID5 = np.radians(np.linspace(-50.0, 50.0, 5))


@pytest.mark.parametrize("steps, runs", [(21, 1), (15, 2), (51, 1), (51, 2), (101, 1),
                                         (101, 2), (2, 1), (1, 1), (0, 1)])
def test_grid_blocks_deal_the_rows_out_evenly(monkeypatch, reference, steps, runs):
    # the benchmark's grids (sweep 21, units 15), the CLI default 51 and ROADMAP's 101
    thetas = np.radians(np.linspace(-50.0, 50.0, steps))
    psis = thetas if steps else GRID5  # 0: an empty theta axis
    calls = []

    def spied(cfg, y, z, theta, psi, **kwargs):
        calls.append((cfg, theta, psi))  # the calls of two threads arrive in any order

    monkeypatch.setattr(dhj, "condition_numbers_at", spied)
    configs = [reference, reference.scaled(0.001)][:runs]
    list(dhj.grid_conditions([(cfg, 0.0, 150.0) for cfg in configs], thetas, psis))
    if not steps:
        assert calls == []
        return
    blocks = {id(cfg): [] for cfg in configs}
    for cfg, theta, psi in calls:
        rows = theta[::len(psis)]
        # whole theta rows, theta outer
        np.testing.assert_array_equal(theta, np.repeat(rows, len(psis)))
        np.testing.assert_array_equal(psi, np.tile(psis, len(rows)))
        blocks[id(cfg)].append(rows)
    for rows in blocks.values():
        rows.sort(key=lambda r: r[0])
        np.testing.assert_array_equal(np.concatenate(rows), thetas)
    # every run gets the same blocks
    sizes = [len(r) for r in blocks[id(reference)]]
    assert all([len(r) for r in b] == sizes for b in blocks.values())
    assert max(sizes) * len(psis) <= dhj.GRID_BLOCK_POSES
    assert max(sizes) - min(sizes) <= 1
    assert len(sizes) * runs % 2 == 0 or steps < 2
    fewest = -(-steps // (dhj.GRID_BLOCK_POSES // len(psis)))
    assert len(sizes) in (fewest, fewest + 1)
    if (steps, runs) == (21, 1):
        assert sizes == [11, 10]
    if (steps, runs) == (15, 2):
        assert sizes == [15]


def units_csv(report, theta_labels, psi_labels) -> str:
    """The ``units`` CSV text of ``report``, a line per cell and a ``%.17g`` format per
    number, at the labels of its row-major (theta outer) cells."""
    lines = ["theta_deg,psi_deg,cond_G_base,cond_G_scaled,cond_Jdh_base,cond_Jdh_scaled,"
             "rel_dev_Jdh,status"]
    for (th, ps), cell in zip(itertools.product(theta_labels, psi_labels), report["cells"]):
        values = [""] * 5
        if cell["status"] == "ok":
            base, scaled = cell["k_dh_base"], cell["k_dh_scaled"]
            values = ["%.17g" % v for v in (cell["k_G_base"], cell["k_G_scaled"], base, scaled,
                                            abs(base - scaled) / base)]
        lines.append(",".join([th, ps, *values, cell["status"]]))
    return "".join(line + "\n" for line in lines)


# report -> (theta axis, psi axis, experiment on the reference config at those axes,
# what makes the report a case)
WRITER_REPORTS = {
    # y = 380 mm: the links reach only part of the grid
    "mixed": (GRID5, GRID5, lambda ref, th, ps: unit_scaling_experiment(ref, th, ps, y=380.0),
              lambda r: {c["status"] for c in r["cells"]} == {"ok", "unreachable"}),
    "all_skipped": (GRID5, GRID5, lambda ref, th, ps: unit_scaling_experiment(
        dataclasses.replace(ref, link_length=100.0), th, ps),
        lambda r: r["skipped"] == 25 and math.isnan(r["max_rel_dev_k_dh"])),
    "no_cells": (GRID5[:0], GRID5, unit_scaling_experiment, lambda r: r["cells"] == []),
    "scaled_label": (GRID5[:2], GRID5[:3],
                     lambda ref, th, ps: unit_scaling_experiment(ref, th, ps, scale=0.5),
                     lambda r: r["unit_scaled"] == "mmx0.5"),
}


@pytest.mark.parametrize("name", WRITER_REPORTS)
def test_units_writer_equals_json_dump(reference, name):
    thetas, psis, experiment, is_case = WRITER_REPORTS[name]
    report = experiment(reference, thetas, psis)
    assert is_case(report)
    want = io.StringIO()
    json.dump(report, want, indent=2, sort_keys=True)
    labels = (["t%d" % i for i in range(len(thetas))], ["p%d" % i for i in range(len(psis))])
    got_json, got_csv = cli._units_text(report, thetas.tolist(), psis.tolist(), labels)
    assert got_json == want.getvalue() + "\n"
    assert got_csv == units_csv(report, *labels)


#: radian axis values: signed zeros and values whose repr has an exponent among them
AXIS_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1e-05, -1e-05, 1e+16, 0.1]),
                        st.floats(min_value=-math.pi, max_value=math.pi))
#: every reason code a cell can carry
REFUSAL_CODES = sorted(cls.code for cls in KinematicsError.__subclasses__())
#: the conds of an "ok" cell are finite (both are capped at COND_LIMIT)
CONDS = st.floats(min_value=1.0, max_value=1e12)
SUMMARIES = st.one_of(st.just(math.nan), st.floats(min_value=0.0, max_value=1.0))


@st.composite
def units_reports(draw):
    """A theta axis, a psi axis and a report shaped as ``unit_scaling_experiment``'s."""
    thetas = draw(st.lists(AXIS_VALUES, max_size=4))
    psis = draw(st.lists(AXIS_VALUES, max_size=4))
    cells = []
    for t, p in itertools.product(thetas, psis):
        status = draw(st.sampled_from(["ok", *REFUSAL_CODES]))
        cell = {"theta": t, "psi": p, "status": status}
        if status == "ok":
            cell.update(zip(("k_G_base", "k_G_scaled", "k_dh_base", "k_dh_scaled"),
                            draw(st.lists(CONDS, min_size=4, max_size=4))))
        cells.append(cell)
    evaluated = sum(c["status"] == "ok" for c in cells)
    report = {"unit_base": "mm", "unit_scaled": draw(st.sampled_from(["m", "mmx0.5"])),
              "scale": draw(st.sampled_from([0.001, 0.5, 1e-05])),
              "plan": PRIMARY_PLAN.pair_strings(), "cells": cells, "evaluated": evaluated,
              "skipped": len(cells) - evaluated, "max_rel_dev_k_dh": draw(SUMMARIES),
              "max_rel_dev_k_G": draw(SUMMARIES), "k_dh_invariant": draw(st.booleans()),
              "k_G_unit_sensitive": draw(st.booleans())}
    return thetas, psis, report


@given(case=units_reports())
@settings(max_examples=150, deadline=None)
def test_units_writer_equals_json_dump_on_any_report(case):
    # no chain run: the templates against the encoder on reports of every shape
    thetas, psis, report = case
    want = io.StringIO()
    json.dump(report, want, indent=2, sort_keys=True)
    labels = tuple(["%.17g" % math.degrees(v) for v in axis] for axis in (thetas, psis))
    got_json, got_csv = cli._units_text(report, thetas, psis, labels)
    assert got_json == want.getvalue() + "\n"
    assert got_csv == units_csv(report, *labels)
    # an axis that does not span the cells is refused
    for th, ps in ((thetas + [0.5], psis), (thetas, psis[1:])):
        if len(th) * len(ps) != len(report["cells"]):
            with pytest.raises(ValueError, match="cells on a"):
                cli._units_text(report, th, ps, labels)


def _on_two_cpus_and_one(monkeypatch, cpus, run):
    """``run()`` with two CPUs, then with one (the serial loop): the two results.

    Checks that the first run evaluated blocks on the caller and on workers, each driver
    call's own, and the second on the caller alone.
    """
    on_caller = []

    def spied(*args, **kwargs):
        on_caller.append(threading.current_thread() is threading.main_thread())
        return condition_numbers_at(*args, **kwargs)

    monkeypatch.setattr(dhj, "condition_numbers_at", spied)
    results = []
    for n, where in ((2, {True, False}), (1, {True})):
        cpus(n)
        on_caller.clear()
        results.append(run())
        assert set(on_caller) == where
    return results


@pytest.mark.parametrize("layout", ["offset", "reference"])
def test_grid_files_do_not_depend_on_the_worker(tmp_path, monkeypatch, capsys, cpus, layout):
    # the offset grid holds ok, unreachable and singular_selection cells; the reference grid
    # at 101 steps makes six blocks per unit system
    if layout == "offset":
        config = _config_file(tmp_path, OFFSET_WIDE)
        grid = ["--grid", "21", "--range-deg", "85", "--envelope-deg", "89"]
    else:
        config, grid = CFG, ["--grid", "101"]
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def run():
        codes = [main([cmd, "--config", config, *grid, "--out", str(out_dir / out)])
                 for cmd, out in (("sweep", "sweep.csv"), ("units", "units.json"))]
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        return codes, capsys.readouterr(), files

    threaded, serial = _on_two_cpus_and_one(monkeypatch, cpus, run)
    assert threaded == serial
    assert threaded[0] == [0, 0]
    assert sorted(threaded[2]) == ["sweep.csv", "units.csv", "units.json"]
    statuses = {line.rsplit(b",", 1)[1] for line in threaded[2]["sweep.csv"].splitlines()[1:]}
    assert statuses == ({b"ok", b"unreachable", b"singular_selection"} if layout == "offset"
                        else {b"ok"})


FAILURES = [pytest.param(RuntimeError, id="error"), pytest.param(KeyboardInterrupt, id="interrupt")]


@pytest.mark.parametrize("error", FAILURES)
@pytest.mark.parametrize("units", [False, True], ids=["one_run", "two_runs"])
def test_a_failed_worker_job_surfaces_at_its_place(monkeypatch, cpus, reference, error, units):
    # one row per block; job 3 is odd, so the worker runs it: the fourth block of one run, or
    # the second unit system of the second block of two
    runs = [(reference, 0.0, 150.0)] + units * [(reference.scaled(0.001), 0.0, 0.15)]
    block, run = divmod(3, len(runs))
    started = []

    def failing(cfg, y, z, theta, psi, **kwargs):
        started.append(theta[0])
        if theta[0] == GRID5[block] and cfg is runs[run][0]:
            assert threading.current_thread() is not threading.main_thread()
            raise error("job 3")
        return condition_numbers_at(cfg, y, z, theta, psi, **kwargs)

    cpus(2)
    monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", len(GRID5))
    monkeypatch.setattr(dhj, "condition_numbers_at", failing)
    yielded = []
    with pytest.raises(error, match="job 3"):
        for theta, _, results in dhj.grid_conditions(runs, GRID5, GRID5):
            yielded.append(theta[0])
    # every block ahead of the failing job, and none after it; no job past the one the
    # caller ran beside it was started
    assert yielded == GRID5[:block].tolist()
    assert len(started) == 4


@pytest.mark.parametrize("error", FAILURES)
@pytest.mark.parametrize("cmd", ["sweep", "units"])
def test_a_failed_worker_job_keeps_the_previous_files(tmp_path, monkeypatch, cpus, error, cmd):
    out = tmp_path / ("units.json" if cmd == "units" else "sweep.csv")
    argv = [cmd, "--config", CFG, "--grid", "5", "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing(*args, **kwargs):
        # row 3 is the worker's second job, as the second unit system or as the fourth block
        if args[3][0] == GRID5[3] and threading.current_thread() is not threading.main_thread():
            raise error("row 3")
        return condition_numbers_at(*args, **kwargs)

    cpus(2)
    monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", 5)  # one theta row per block
    monkeypatch.setattr(dhj, "condition_numbers_at", failing)
    with pytest.raises(error, match="row 3"):
        main(argv)
    # nothing replaced, no temporary file left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_worker_jobs_run_in_the_callers_context(monkeypatch, cpus, reference):
    # numpy's errstate is a context variable, which a new thread does not inherit
    seen = []

    def spied(*args, **kwargs):
        seen.append((threading.get_ident(), np.geterr()["divide"]))
        return condition_numbers_at(*args, **kwargs)

    cpus(2)
    monkeypatch.setattr(dhj, "condition_numbers_at", spied)
    with np.errstate(divide="ignore"):
        list(dhj.grid_conditions([(reference, 0.0, 150.0)], GRID5, GRID5))
    assert len({ident for ident, _ in seen}) == 2
    assert {divide for _, divide in seen} == {"ignore"}


def test_a_lone_pose_loads_no_thread_machinery():
    # what perfbench times as set-up: import, load a config, one pose
    code = ("import sys, threading\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import dhjac\n"
            "dhjac.dexterity_at(dhjac.load_config(sys.argv[2]), 0.0, 150.0, 0.0, 0.0)\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n")
    src = str(Path(dhj.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, src, CFG], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split() == ["False", "1"]


def test_only_a_grid_of_two_jobs_on_two_cpus_starts_a_thread(monkeypatch, cpus, reference):
    started = []
    start = threading.Thread.start

    def counted(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    threads = threading.active_count()
    cpus(2)
    dexterity_at(reference, 0.0, 150.0, 0.1, 0.2)
    verify.run_validation(reference, seed=0, n_poses=3)
    list(dhj.grid_conditions([(reference, 0.0, 150.0)], GRID5[:1], GRID5))  # one job
    cpus(1)
    list(dhj.grid_conditions([(reference, 0.0, 150.0)], GRID5, GRID5))
    unit_scaling_experiment(reference, GRID5, GRID5)
    assert started == []
    cpus(2)
    list(dhj.grid_conditions([(reference, 0.0, 150.0)], GRID5, GRID5))
    assert len(started) == 1
    assert threading.active_count() == threads  # the worker is joined before the call returns


def _grid_statuses(reference, queue):
    queue.put([status for _, _, [(status, _, _)] in dhj.grid_conditions(
        [(reference, 0.0, 150.0)], GRID5, GRID5)])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_child_forked_after_a_grid_runs_a_grid(cpus, reference):
    cpus(2)  # the child inherits this too, so it starts a worker of its own
    want = [status for _, _, [(status, _, _)] in dhj.grid_conditions(
        [(reference, 0.0, 150.0)], GRID5, GRID5)]
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_grid_statuses, args=(reference, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
        child.join(timeout=60)
        assert not child.is_alive()
    finally:
        child.kill()
    assert child.exitcode == 0
    assert got == want
