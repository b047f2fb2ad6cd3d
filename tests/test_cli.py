import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhjac import cli, dhj
from dhjac.cli import SWEEP_HEADER, SweepSpec, main, sweep_rows
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
    "no_convergence": (offset_prs_config, ["0", "150", "0", "70", "--envelope-deg", "75"],
                       "NoConvergence: damped Newton made no progress"),
    "singular_limb": (lambda: square_config(link_length=250.0), ["0", "150", "0", "0"],
                      "SingularLimb: limb 1: actuation screw reciprocal to rail "
                      "(|u.s1| = 0.000e+00)"),
    "singular_configuration": (square_config, ["0", "150", "0", "10"],
                               "SingularConfiguration: cond(G^T) = 6.990e+18 exceeds 1.0e+12"),
    "degenerate_pair": (None, ["0", "150", "10", "5", "--plan", "opposite"],
                        "DegeneratePair: pair (v_2y, v_4z): a_2x - a_4x = 4.880e-14 "
                        "(threshold 1.992e-07)"),
    "singular_selection": (offset_prs_config, ["0", "150", "0", "59.5", "--envelope-deg", "89"],
                           "SingularSelection: cond(J_dh) = 1.358e+16 exceeds 1.0e+12"),
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


def test_interrupted_sweep_keeps_previous_csv(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", CFG, "--grid", "5", "--out", str(out)]) == 0
    before = out.read_bytes()
    calls = []

    def interrupted(*args, **kwargs):
        calls.append(len(args[3]))
        if len(calls) == 2:  # the second block, after the first was written
            raise KeyboardInterrupt
        return condition_numbers_at(*args, **kwargs)

    monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", 5)  # one theta row per block
    monkeypatch.setattr(dhj, "condition_numbers_at", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--config", CFG, "--grid", "5", "--range-deg", "40",
              "--out", str(out)])
    assert calls == [5, 5]
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_interrupted_units_keeps_previous_pair(tmp_path, monkeypatch):
    import dhjac.cli

    out = tmp_path / "units.json"
    assert main(["units", "--config", CFG, "--grid", "3", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def interrupted(th, ps, cell):
        raise KeyboardInterrupt

    # fails on the first CSV row, after the JSON report is written
    monkeypatch.setattr(dhjac.cli, "_units_line", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["units", "--config", CFG, "--grid", "3", "--scale", "0.5", "--out", str(out)])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


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


# offset PRS rails over +/-85 deg: ok, no_convergence and singular_selection cells
OFFSET_WIDE = dataclasses.replace(offset_prs_config(), envelope_deg=89.0)
OFFSET_SPEC = SweepSpec(range_deg=85.0, steps=21, y_mm=0.0, z_mm=150.0, plan=PRIMARY_PLAN,
                        out="unused.csv")


@pytest.mark.parametrize("rows_per_block, blocks", [(4, 6), (21, 1)])
def test_grid_blocks_equal_row_by_row(monkeypatch, rows_per_block, blocks):
    # 21 rows in blocks of 4 leave a last block of one row; 21 rows fit the cap whole
    th_deg, ps_deg = OFFSET_SPEC.grids()
    th, ps = np.radians(th_deg), np.radians(ps_deg)
    row_by_row = [condition_numbers_at(OFFSET_WIDE, 0.0, 150.0, t, ps)
                  for t in th.tolist()]
    cfg_m = OFFSET_WIDE.scaled(0.001, unit="m")
    row_by_row_m = [condition_numbers_at(cfg_m, 0.0, 150.0 * 0.001, t, ps)
                    for t in th.tolist()]
    # a cap that is not a whole number of rows
    monkeypatch.setattr(dhj, "GRID_BLOCK_POSES", rows_per_block * len(ps) + 3)
    calls = []

    def counted(cfg, y, z, theta, psi, **kwargs):
        calls.append(len(theta))
        return condition_numbers_at(cfg, y, z, theta, psi, **kwargs)

    monkeypatch.setattr(dhj, "condition_numbers_at", counted)

    want = ["%.17g,%.17g,,,%s\n" % (t, p, code) if code != "ok"
            else "%.17g,%.17g,%.17g,%.17g,ok\n" % (t, p, kg, kd)
            for t, (status, k_g, k_dh) in zip(th_deg.tolist(), row_by_row)
            for p, code, kg, kd in zip(ps_deg.tolist(), status, k_g.tolist(), k_dh.tolist())]
    got = list(sweep_rows(OFFSET_WIDE, OFFSET_SPEC))
    assert calls == [len(ps) * min(rows_per_block, len(th) - i)
                     for i in range(0, len(th), rows_per_block)]
    assert len(calls) == blocks
    # each block yields the lines of its whole theta rows as one string, and its conds
    assert [text.count("\n") for text, _, _ in got] == calls
    assert "".join(text for text, _, _ in got) == "".join(want)
    for i, want_k in ((1, [k_g for _, k_g, _ in row_by_row]),
                      (2, [k_dh for _, _, k_dh in row_by_row])):
        np.testing.assert_array_equal(np.concatenate([block[i] for block in got]),
                                      np.concatenate(want_k))
    assert {line.rsplit(",", 1)[1] for line in want} == {
        "ok\n", "no_convergence\n", "singular_selection\n"}

    calls.clear()
    cells = unit_scaling_experiment(OFFSET_WIDE, th, ps, y=0.0, z=150.0)["cells"]
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
    got = io.StringIO()
    cli._write_units_json(report, got, thetas.tolist(), psis.tolist())
    assert got.getvalue() == want.getvalue() + "\n"


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
    got = io.StringIO()
    cli._write_units_json(report, got, thetas, psis)
    assert got.getvalue() == want.getvalue() + "\n"
    # an axis that does not span the cells is refused, before anything is written
    for th, ps in ((thetas + [0.5], psis), (thetas, psis[1:])):
        if len(th) * len(ps) != len(report["cells"]):
            got = io.StringIO()
            with pytest.raises(ValueError, match="cells on a"):
                cli._write_units_json(report, got, th, ps)
            assert got.getvalue() == ""
