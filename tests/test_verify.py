import collections
import json
import math

import numpy as np
import pytest

from dhjac.dhj import dexterity_at, singular_values
from dhjac.errors import NoForwardSolution
from dhjac.model import resolve_pose
from dhjac.screws import build_inverse_jacobian
from dhjac.verify import (brute_force_dhj, fd_actuation_jacobian, fd_constraint_tangent,
                          forward_refine, run_validation, sample_poses)

from conftest import random_coords, square_config


def test_tangent_home_columns(reference):
    coords = (0.0, 150.0, 0.0, 0.0)
    T = fd_constraint_tangent(reference, coords)
    # y-perturbation moves the platform along y only (x, phi_z stay locked)
    np.testing.assert_allclose(T[:, 0], [0, 1, 0, 0, 0, 0], atol=1e-7)
    np.testing.assert_allclose(T[:, 1], [0, 0, 1, 0, 0, 0], atol=1e-7)
    # columns independent
    assert singular_values(T)[-1] > 1e-6


def test_constraint_rows_annihilate_tangent(reference):
    for coords in random_coords(reference, 8, seed=41):
        T = fd_constraint_tangent(reference, coords)
        G = build_inverse_jacobian(resolve_pose(reference, *coords).limbs)
        assert np.max(np.abs(G.G_c_T @ T)) < 1e-7


def test_actuation_fd_home_symmetry(reference):
    FD = fd_actuation_jacobian(reference, (0.0, 150.0, 0.0, 0.0))
    # heave column: every limb rate equals the platform z rate
    np.testing.assert_allclose(FD[:, 1], np.ones(4), atol=1e-9)


def test_actuation_fd_matches_rows(reference):
    for coords in random_coords(reference, 15, seed=43):
        FD = fd_actuation_jacobian(reference, coords)
        T = fd_constraint_tangent(reference, coords)
        G = build_inverse_jacobian(resolve_pose(reference, *coords).limbs)
        err = np.max(np.abs(G.G_a_T @ T - FD)) / np.max(np.abs(FD))
        assert err < 1e-5


def test_fd_error_second_order_in_step(reference):
    # central differences: halving h divides the error by about four
    coords = (0.0, 150.0, math.radians(30.0), math.radians(35.0))
    G = build_inverse_jacobian(resolve_pose(reference, *coords).limbs)
    T_ref = fd_constraint_tangent(reference, coords, h=1e-7)
    analytic = G.G_a_T @ T_ref
    hs = [2e-3, 1e-3, 5e-4]
    errs = [np.max(np.abs(fd_actuation_jacobian(reference, coords, h=h) - analytic))
            for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.7


def test_forward_refine_round_trip(reference):
    for coords in random_coords(reference, 6, seed=47):
        q = np.array([limb.q for limb in resolve_pose(reference, *coords).limbs])
        guess = (coords[0], coords[1] + 1.0, coords[2] + 0.01, coords[3] - 0.01)
        refined = forward_refine(reference, q, guess)
        q_back = np.array([limb.q for limb in resolve_pose(reference, *refined).limbs])
        np.testing.assert_allclose(q_back, q, atol=1e-8)
        np.testing.assert_allclose(refined, coords, atol=1e-8 * reference.base_radius)


def test_forward_refine_unreachable_target(reference):
    with pytest.raises(NoForwardSolution):
        forward_refine(reference, np.array([1e5, -1e5, 1e5, -1e5]),
                       (0.0, 150.0, 0.0, 0.0))


def test_brute_force_dhj_matches_assembled(reference):
    for coords in random_coords(reference, 6, seed=53):
        rec = dexterity_at(reference, *coords)
        BF = brute_force_dhj(reference, coords)
        err = np.max(np.abs(BF - rec.J_dh)) / np.max(np.abs(rec.J_dh))
        assert err < 1e-5


def test_brute_force_dhj_metric_units(reference):
    metric = reference.scaled(0.001, unit="m")
    coords = (0.0, 0.150, math.radians(20.0), math.radians(-15.0))
    rec = dexterity_at(metric, *coords)
    BF = brute_force_dhj(metric, coords)
    assert np.max(np.abs(BF - rec.J_dh)) / np.max(np.abs(rec.J_dh)) < 1e-5


def test_oracle_and_analytic_blow_up_together():
    # the same-angle layout approaches its forward singularity as theta -> 0:
    # both condition numbers explode and stay within a factor of ten
    cfg = square_config()
    coords = (0.0, 150.0, 0.05, 0.2)
    rec = dexterity_at(cfg, *coords)
    BF = brute_force_dhj(cfg, coords)
    k_oracle = float(singular_values(BF)[0] / singular_values(BF)[-1])
    assert rec.k > 50.0
    assert k_oracle > 50.0
    assert 0.1 < rec.k / k_oracle < 10.0


def test_sample_poses_deterministic(reference):
    a, fa = sample_poses(reference, 20, seed=9)
    b, fb = sample_poses(reference, 20, seed=9)
    assert a == b and fa == fb
    assert len(a) == 20  # whole Table-1 envelope is reachable


def test_run_validation_reference(reference):
    report = run_validation(reference, seed=7, n_poses=12, n_dhj=4)
    assert report["all_passed"] is True
    assert report["poses_feasible"] == 12
    names = {c["name"] for c in report["checks"]}
    assert {"actuation_rows_vs_fd_ik", "constraint_rows_annihilate_tangent",
            "inversion_residual", "block_formula_vs_direct_inversion",
            "selection_annihilates_constrained_freedoms", "dhj_vs_brute_force",
            "cond_dhj_unit_invariance", "plan_equivalence_cond_dhj",
            "tsai_mobility_matches_limb_count"} <= names
    # adopted formula variants are documented with measured rejected errors
    variants = report["variants"]
    assert variants["actuation_rows"]["rejected_pus_normal_rows_max_rel_err"] > 1e-3
    assert variants["moment_block"]["rejected_u_x_a_max_rel_err"] > 1e-3
    assert "degenerate" in variants["opposite_pair_plan"]["status"]
    json.dumps(report)  # must be serializable as-is


def test_run_validation_evaluates_each_oracle_once_per_pose(reference, monkeypatch):
    import dhjac.dhj
    import dhjac.verify

    calls = collections.Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(dhjac.verify, "fd_constraint_tangent")
    count(dhjac.verify, "fd_actuation_jacobian")
    count(dhjac.dhj, "dexterity_at")
    report = run_validation(reference, seed=7, n_poses=12, n_dhj=2)
    n = report["poses_feasible"]
    assert n == 12 and report["all_passed"] is True
    assert calls["fd_constraint_tangent"] == n
    assert calls["fd_actuation_jacobian"] == n
    # the primary-plan, alternate-plan and metric-unit records, once each
    assert calls["dexterity_at"] <= 3 * n


def test_run_validation_deterministic(reference):
    a = run_validation(reference, seed=5, n_poses=6, n_dhj=2)
    b = run_validation(reference, seed=5, n_poses=6, n_dhj=2)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_validation_unreachable_geometry():
    report = run_validation(square_config(link_length=100.0), seed=3,
                            n_poses=5, n_dhj=2)
    assert report["all_passed"] is False
    assert report["poses_feasible"] == 0
    assert report["pose_failures"]
    assert all(f["code"] == "unreachable" for f in report["pose_failures"])
