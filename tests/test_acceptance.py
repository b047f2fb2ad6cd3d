"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from dhjac.cli import main
from dhjac.dhj import dexterity_at, unit_scaling_experiment
from dhjac.forward_map import block_Ja, invert_full
from dhjac.model import MobilityInputs, resolve_many, resolve_pose, tsai_mobility
from dhjac.pointmap import build_Vp
from dhjac.screws import build_inverse_jacobian
from dhjac.selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, PRIMARY_PLAN,
                             build_selection_matrix, nominal_map)
from dhjac.verify import fd_oracles, fd_rows, run_validation, sample_poses

from conftest import REFERENCE_CONFIG, bf_at, checked, one

SEED = 42
SWEEP_N = 51
SWEEP_Z = 150.0


def _report(num, desc, passed, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="session")
def poses(reference):
    centers, failures = sample_poses(reference, 100, seed=SEED)
    assert not failures
    return centers.coords.tolist()


@pytest.fixture(scope="session")
def oracle_rows(reference, poses):
    """Per-pose (tangent, FD Jacobian, screw matrix of a stack of one) plus the wall time."""
    rows = []
    t0 = time.perf_counter()
    for coords in poses:
        centers = resolve_many(reference, [coords])
        T, FD = (one(oracle) for oracle in fd_oracles(reference, centers,
                                                      fd_rows(reference, centers)))
        G = checked(build_inverse_jacobian(centers))
        rows.append((coords, T, FD, G))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="session")
def unit_sweep(reference):
    """51 x 51 mm-vs-m experiment at z = 150 mm plus the wall time."""
    angles = np.radians(np.linspace(-50.0, 50.0, SWEEP_N))
    t0 = time.perf_counter()
    report = unit_scaling_experiment(reference, angles, angles, y=0.0, z=SWEEP_Z,
                                     scale=0.001)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="session")
def validation_report(reference):
    return run_validation(reference, seed=SEED, n_poses=40)


def test_criterion_1_actuation_oracle(oracle_rows):
    rows, elapsed = oracle_rows
    worst = max(np.max(np.abs(G.G_a_T @ T - FD)) / np.max(np.abs(FD))
                for _, T, FD, G in rows)
    _report(1, "analytic actuation rows match the FD IK Jacobian on "
               f"{len(rows)} poses", worst < 1e-5 and elapsed < 10.0,
            f"max rel err {worst:.3e}, {elapsed:.1f} s")


def test_criterion_2_constraint_compatibility(oracle_rows):
    rows, _ = oracle_rows
    worst = max(np.max(np.abs(G.G_c_T @ T)) for _, T, _, G in rows)
    _report(2, "constraint rows annihilate the feasible tangent",
            worst < 1e-7, f"max |G_c^T T| {worst:.3e}")


def test_criterion_3_inversion_consistency(oracle_rows):
    rows, _ = oracle_rows
    worst_res = worst_block = 0.0
    for _, _, _, G in rows:
        fwd = checked(invert_full(G))
        worst_res = max(worst_res, np.max(np.abs(G.stacked @ fwd.J - np.eye(6))))
        worst_block = max(worst_block,
                          np.max(np.abs(one(block_Ja(G)) - fwd.J_a[0]))
                          / np.max(np.abs(fwd.J_a)))
    _report(3, "direct inversion residual and block-formula agreement",
            worst_res < 1e-10 and worst_block < 1e-9,
            f"residual {worst_res:.3e}, block dev {worst_block:.3e}")


def test_criterion_4_dhj_oracle(reference, poses):
    worst = 0.0
    for coords in poses[:50]:
        rec = dexterity_at(reference, *coords)
        BF = bf_at(reference, coords)
        worst = max(worst, np.max(np.abs(BF - rec.J_dh)) / np.max(np.abs(rec.J_dh)))
    _report(4, "assembled DHJ matches the brute-force joint-rate oracle on 50 poses",
            worst < 1e-5, f"max rel err {worst:.3e}")


def test_criterion_5_annihilation(reference, poses):
    worst = 0.0
    for coords in poses:
        pts = resolve_pose(reference, *coords).a  # the anchors of a stack of one
        V_p = build_Vp(pts)
        for plan in (PRIMARY_PLAN, ALTERNATE_PLAN):
            V_ps = nominal_map(checked(build_selection_matrix(plan, pts)), V_p)
            worst = max(worst, np.max(np.abs(V_ps[:, :, list(CONSTRAINED_COLS)])))
    _report(5, "selection kills the constrained freedoms for both plans",
            worst < 1e-12, f"max column magnitude {worst:.3e}")


def test_criterion_6_unit_invariance(unit_sweep):
    report, elapsed = unit_sweep
    ok = (report["skipped"] == 0
          and report["max_rel_dev_k_dh"] < 1e-9
          and report["max_rel_dev_k_G"] > 0.10
          and elapsed < 60.0)
    _report(6, f"cond(J_dh) invariant and cond(G^T) unit-sensitive on the "
               f"{SWEEP_N}x{SWEEP_N} sweep",
            ok, f"dh dev {report['max_rel_dev_k_dh']:.3e}, "
                f"G dev {report['max_rel_dev_k_G']:.3f}, {elapsed:.1f} s")


def test_criterion_7_conditioning_bands(unit_sweep):
    report, _ = unit_sweep
    cells = report["cells"]
    k_G = np.array([c["k_G_base"] for c in cells])
    k_dh = np.array([c["k_dh_base"] for c in cells]).reshape(SWEEP_N, SWEEP_N)
    i, j = np.unravel_index(np.argmin(k_dh), k_dh.shape)
    interior = 0 < i < SWEEP_N - 1 and 0 < j < SWEEP_N - 1
    center_near_min = k_dh[SWEEP_N // 2, SWEEP_N // 2] < 2.0 * k_dh.min()
    ok = (np.median(k_G) >= 10.0 * np.median(k_dh)
          and np.all(k_dh >= 1.0)
          and np.all(np.isfinite(k_dh))
          and interior
          and center_near_min)
    _report(7, "median cond(G^T) an order of magnitude above median cond(J_dh); "
               "cond(J_dh) finite, >= 1, interior minimum",
            ok, f"medians {np.median(k_G):.1f} vs {np.median(k_dh):.2f}, "
                f"min {k_dh.min():.2f} at cell ({i},{j})")


def test_criterion_8_plan_equivalence(reference, unit_sweep, validation_report):
    report, _ = unit_sweep
    angles = np.radians(np.linspace(-50.0, 50.0, SWEEP_N))
    k_primary = np.array([c["k_dh_base"] for c in report["cells"]]).reshape(SWEEP_N,
                                                                            SWEEP_N)
    dev = 0.0
    for a, th in enumerate(angles[::5]):
        for b, ps in enumerate(angles[::5]):
            k_alt = dexterity_at(reference, 0.0, SWEEP_Z, th, ps,
                                 plan=ALTERNATE_PLAN).k
            dev = max(dev, abs(k_primary[5 * a, 5 * b] - k_alt) / k_primary[5 * a, 5 * b])
    if dev <= 1e-6:
        _report(8, "primary and alternate plans give equal cond(J_dh)", True,
                f"max rel dev {dev:.3e}")
        return
    documented = next(c for c in validation_report["checks"]
                      if c["name"] == "plan_equivalence_cond_dhj")
    ok = documented["poses_tested"] > 0 and "discrepancy" in documented["note"]
    _report(8, "plan discrepancy measured and documented in the validation report",
            ok, f"max rel dev {dev:.3e}; report note: {documented['note'][:60]}...")


def test_criterion_9_mobility():
    _report(9, "mobility count returns exactly 4 for the reference counts",
            tsai_mobility(MobilityInputs(6, 10, 12, 22)) == 4)


def test_criterion_10_determinism(tmp_path):
    cfg = str(REFERENCE_CONFIG)
    sweeps = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--config", cfg, "--grid", "15", "--out", str(out)]) == 0
        sweeps.append(out.read_bytes())
    reports = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        assert main(["validate", "--config", cfg, "--poses", "25", "--seed",
                     str(SEED), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    _report(10, "sweep CSV and validation report byte-identical across runs",
            sweeps[0] == sweeps[1] and reports[0] == reports[1])


def test_validation_report_passes_everything(validation_report):
    # not a numbered criterion: the bundled oracle harness must agree
    assert validation_report["all_passed"] is True
    assert json.dumps(validation_report)
