import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from dhjac.dhj import dexterity_at, singular_values
from dhjac.errors import KinematicsError, NoForwardSolution, StepTooLarge
from dhjac.model import resolve_pose
from dhjac.screws import build_inverse_jacobian
from dhjac.selection import PRIMARY_PLAN, build_selection_matrix
from dhjac.verify import (BRUTE_FORCE_STEP, REFINE_MAX_ITER, REFINE_TOL, brute_force_dhj,
                          fd_actuation_jacobian, fd_constraint_tangent, forward_refine,
                          run_validation, sample_poses)

from conftest import checked, offset_prs_config, random_coords, square_config


# Scalar references: the oracles written pose by pose, one resolve_pose per
# perturbed pose.  The stacked oracles must reproduce them bit for bit.

def _scalar_steps(cfg, h=1e-6):
    return h * max(cfg.base_radius, 1e-30), h


def _scalar_q(cfg, coords, envelope_deg=None):
    return resolve_pose(cfg, *coords, envelope_deg=envelope_deg).q


def _perturbed(coords, k, delta):
    c = list(coords)
    c[k] += delta
    return tuple(c)


def scalar_fd_actuation_jacobian(cfg, coords, h=1e-6):
    h_len, h_ang = _scalar_steps(cfg, h)
    J = np.zeros((cfg.limb_count, 4))
    env = cfg.envelope_deg + 1.0
    for k in range(4):
        hk = h_len if k < 2 else h_ang
        try:
            qp = _scalar_q(cfg, _perturbed(coords, k, +hk), env)
            qm = _scalar_q(cfg, _perturbed(coords, k, -hk), env)
        except KinematicsError as exc:
            raise StepTooLarge(f"perturbed pose infeasible along coord {k}: {exc}") from exc
        J[:, k] = (qp - qm) / (2.0 * hk)
    return J


def scalar_fd_constraint_tangent(cfg, coords, h=1e-6):
    h_len, h_ang = _scalar_steps(cfg, h)
    R0 = resolve_pose(cfg, *coords).rotation
    T = np.zeros((6, 4))
    env = cfg.envelope_deg + 1.0
    for k in range(4):
        hk = h_len if k < 2 else h_ang
        try:
            pp = resolve_pose(cfg, *_perturbed(coords, k, +hk), envelope_deg=env)
            pm = resolve_pose(cfg, *_perturbed(coords, k, -hk), envelope_deg=env)
        except KinematicsError as exc:
            raise StepTooLarge(f"perturbed pose infeasible along coord {k}: {exc}") from exc
        T[:3, k] = (pp.origin - pm.origin) / (2.0 * hk)
        W = ((pp.rotation - pm.rotation) / (2.0 * hk)) @ R0.T
        T[3, k] = 0.5 * (W[2, 1] - W[1, 2])
        T[4, k] = 0.5 * (W[0, 2] - W[2, 0])
        T[5, k] = 0.5 * (W[1, 0] - W[0, 1])
    return T


def scalar_forward_refine(cfg, q_target, guess_coords):
    tol = REFINE_TOL * max(cfg.base_radius, 1e-30)
    env = cfg.envelope_deg + 5.0
    coords = np.array(guess_coords, float)
    for _ in range(REFINE_MAX_ITER):
        try:
            r = _scalar_q(cfg, coords, env) - q_target
        except KinematicsError as exc:
            raise NoForwardSolution(f"iterate left the workspace: {exc}") from exc
        if np.max(np.abs(r)) < tol:
            return coords
        h_len, h_ang = _scalar_steps(cfg)
        Jq = np.zeros((4, 4))
        for k in range(4):
            hk = h_len if k < 2 else h_ang
            qp = _scalar_q(cfg, _perturbed(coords, k, +hk), env)
            qm = _scalar_q(cfg, _perturbed(coords, k, -hk), env)
            Jq[:, k] = (qp - qm) / (2.0 * hk)
        coords = coords - np.linalg.solve(Jq, r)
    raise NoForwardSolution(f"no convergence in {REFINE_MAX_ITER} iterations")


def scalar_brute_force_dhj(cfg, coords, plan=PRIMARY_PLAN):
    h_q = BRUTE_FORCE_STEP * max(cfg.base_radius, 1e-30)
    pose0 = resolve_pose(cfg, *coords)
    q0 = pose0.q
    S = checked(build_selection_matrix(plan, pose0.a)).S
    out = np.zeros((cfg.limb_count, cfg.limb_count))
    for m in range(cfg.limb_count):
        qp, qm = q0.copy(), q0.copy()
        qp[m] += h_q
        qm[m] -= h_q
        pp = resolve_pose(cfg, *scalar_forward_refine(cfg, qp, coords),
                          envelope_deg=cfg.envelope_deg + 5.0)
        pm = resolve_pose(cfg, *scalar_forward_refine(cfg, qm, coords),
                          envelope_deg=cfg.envelope_deg + 5.0)
        bp = np.concatenate([pp.origin + pp.rotation @ p for p in cfg.platform_points()])
        bm = np.concatenate([pm.origin + pm.rotation @ p for p in cfg.platform_points()])
        out[:, m] = S @ (bp - bm) / (2.0 * h_q)
    return out


def scalar_sample_poses(cfg, n, seed):
    rng = np.random.default_rng(seed)
    lim = math.radians(cfg.envelope_deg)
    z_scale = cfg.base_radius / 450.0
    feasible, failures = [], []
    for _ in range(n):
        coords = (0.0, float(rng.uniform(100.0, 200.0) * z_scale),
                  float(rng.uniform(-lim, lim)), float(rng.uniform(-lim, lim)))
        try:
            resolve_pose(cfg, *coords)
            feasible.append(coords)
        except KinematicsError as exc:
            failures.append((coords, exc.code))
    return feasible, failures


ORACLE_LAYOUTS = {"reference": None, "offset": offset_prs_config}


@pytest.mark.parametrize("layout", sorted(ORACLE_LAYOUTS))
def test_stacked_oracles_equal_scalar_references(reference, layout):
    cfg = reference if ORACLE_LAYOUTS[layout] is None else ORACLE_LAYOUTS[layout]()
    for coords in random_coords(cfg, 6, seed=67):
        np.testing.assert_array_equal(fd_actuation_jacobian(cfg, coords),
                                      scalar_fd_actuation_jacobian(cfg, coords))
        np.testing.assert_array_equal(fd_constraint_tangent(cfg, coords),
                                      scalar_fd_constraint_tangent(cfg, coords))
        q = _scalar_q(cfg, coords) + np.array([0.3, -0.2, 0.1, 0.25])
        np.testing.assert_array_equal(forward_refine(cfg, q, coords),
                                      scalar_forward_refine(cfg, q, coords))
    for coords in random_coords(cfg, 2, seed=71):
        np.testing.assert_array_equal(brute_force_dhj(cfg, coords),
                                      scalar_brute_force_dhj(cfg, coords))


def test_forward_refine_stack_equals_one_target_at_a_time(reference):
    coords = (0.0, 150.0, 0.3, -0.2)
    q0 = _scalar_q(reference, coords)
    targets = q0 + np.array([[0.5, 0.0, 0.0, 0.0], [0.0, -2.0, 1.0, 0.0], [3.0, 3.0, 3.0, 3.0]])
    refined = forward_refine(reference, targets, coords)
    assert refined.shape == (3, 4)
    for t, row in zip(targets, refined):
        np.testing.assert_array_equal(row, forward_refine(reference, t, coords))


def test_forward_refine_stack_raises_the_first_failed_targets_error(reference):
    coords = (0.0, 150.0, 0.0, 0.0)
    good = _scalar_q(reference, coords) + 0.5
    bad = [np.array([1e5, -1e5, 1e5, -1e5]), np.array([0.0, 0.0, 0.0, 2e3])]
    alone = []
    for target in bad:
        with pytest.raises(NoForwardSolution) as info:
            scalar_forward_refine(reference, target, coords)
        alone.append(str(info.value))
    assert alone[0] != alone[1] and "left the workspace" in alone[0]
    for first, second in ((0, 1), (1, 0)):
        with pytest.raises(NoForwardSolution) as stacked:
            forward_refine(reference, np.stack([good, bad[first], good, bad[second]]), coords)
        assert str(stacked.value) == alone[first]


def test_perturbation_past_the_guard_is_step_too_large(reference):
    # theta sits just inside envelope + 1 deg, so its +h perturbation is refused
    coords = (0.0, 150.0, math.radians(reference.envelope_deg + 1.0) - 1e-7, 0.0)
    with pytest.raises(StepTooLarge) as got:
        fd_actuation_jacobian(reference, coords)
    with pytest.raises(StepTooLarge) as want:
        scalar_fd_actuation_jacobian(reference, coords)
    assert str(got.value) == str(want.value)
    assert "along coord 2" in str(got.value)


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
        G = checked(build_inverse_jacobian(resolve_pose(reference, *coords)))
        assert np.max(np.abs(G.G_c_T @ T)) < 1e-7


def test_actuation_fd_home_symmetry(reference):
    FD = fd_actuation_jacobian(reference, (0.0, 150.0, 0.0, 0.0))
    # heave column: every limb rate equals the platform z rate
    np.testing.assert_allclose(FD[:, 1], np.ones(4), atol=1e-9)


def test_actuation_fd_matches_rows(reference):
    for coords in random_coords(reference, 15, seed=43):
        FD = fd_actuation_jacobian(reference, coords)
        T = fd_constraint_tangent(reference, coords)
        G = checked(build_inverse_jacobian(resolve_pose(reference, *coords)))
        err = np.max(np.abs(G.G_a_T @ T - FD)) / np.max(np.abs(FD))
        assert err < 1e-5


def test_fd_error_second_order_in_step(reference):
    # central differences: halving h divides the error by about four
    coords = (0.0, 150.0, math.radians(30.0), math.radians(35.0))
    G = checked(build_inverse_jacobian(resolve_pose(reference, *coords)))
    T_ref = fd_constraint_tangent(reference, coords, h=1e-7)
    analytic = G.G_a_T @ T_ref
    hs = [2e-3, 1e-3, 5e-4]
    errs = [np.max(np.abs(fd_actuation_jacobian(reference, coords, h=h) - analytic))
            for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.7


def test_forward_refine_round_trip(reference):
    for coords in random_coords(reference, 6, seed=47):
        q = resolve_pose(reference, *coords).q
        guess = (coords[0], coords[1] + 1.0, coords[2] + 0.01, coords[3] - 0.01)
        refined = forward_refine(reference, q, guess)
        q_back = resolve_pose(reference, *refined).q
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


SCREEN_LAYOUTS = {
    "reference": lambda: None,
    "offset": offset_prs_config,
    "offset_wide": lambda: dataclasses.replace(offset_prs_config(), envelope_deg=80.0),
    "square_short_link": lambda: square_config(link_length=300.0),
    "square_unreachable": lambda: square_config(link_length=100.0),
}


@pytest.mark.parametrize("layout", sorted(SCREEN_LAYOUTS))
def test_sample_poses_equals_scalar_screen(reference, layout):
    # one stacked screen; refused poses keep resolve_pose's code, in order
    cfg = SCREEN_LAYOUTS[layout]() or reference
    feasible, failures = sample_poses(cfg, 60, seed=13)
    assert (feasible, failures) == scalar_sample_poses(cfg, 60, seed=13)
    codes = {code for _, code in failures}
    expected = {"reference": set(), "offset": set(), "offset_wide": {"no_convergence"},
                "square_short_link": {"unreachable"}, "square_unreachable": {"unreachable"}}
    assert codes == expected[layout]
    assert (len(feasible) == 0) == (layout == "square_unreachable")


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
    count(dhjac.verify, "forward_refine")
    count(dhjac.verify, "resolve_pose")
    count(dhjac.verify, "resolve_many")
    count(dhjac.dhj, "dexterity_at")
    report = run_validation(reference, seed=7, n_poses=12, n_dhj=2)
    n = report["poses_feasible"]
    assert n == 12 and report["all_passed"] is True
    assert calls["fd_constraint_tangent"] == n
    assert calls["fd_actuation_jacobian"] == n
    # the primary-plan, alternate-plan and metric-unit records, once each
    assert calls["dexterity_at"] <= 3 * n
    # the oracles resolve every perturbed pose in stacked calls: resolve_pose
    # only for a center (tangent, brute force), one stacked call per oracle
    # and per refinement iteration; one-pose-at-a-time oracles made 538 here
    assert calls["forward_refine"] == 2
    assert calls["resolve_pose"] == n + 2
    assert calls["resolve_many"] <= 3 * n


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
