"""Independent finite-difference oracles for every analytic matrix.

Nothing here consults the screw rows or the block inversion: the actuation
oracle differentiates the closed-form IK, the tangent oracle differentiates
the constrained pose resolution, and the brute-force DHJ differentiates
Newton-refined forward kinematics.  These are the arbiters for the formula
variants documented in the validation report.

``run_validation`` evaluates each oracle, and each ``dexterity_at`` record it
judges, once per pose; every check reads those shared results.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dhj, forward_map, screws
from .errors import (BlockSingular, DegeneratePair, KinematicsError,
                     NoForwardSolution, StepTooLarge)
from .model import ManipulatorConfig, resolve_pose, tsai_mobility
from .selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, OPPOSITE_PLAN,
                        PRIMARY_PLAN, build_selection_matrix)

DEFAULT_SEED = 42

REFINE_TOL = 1e-12  # forward_refine stops when IK reproduces q to this * r_b
REFINE_MAX_ITER = 30
BRUTE_FORCE_STEP = 1e-5  # actuated-joint step of brute_force_dhj, as a fraction of r_b


def step_sizes(cfg: ManipulatorConfig, h: float = 1e-6) -> tuple[float, float]:
    """(translation step, rotation step): h * r_b and h * 1 rad."""
    return h * max(cfg.base_radius, 1e-30), h


def _joint_values(cfg, coords, envelope_deg=None):
    pose = resolve_pose(cfg, *coords, envelope_deg=envelope_deg)
    return np.array([limb.q for limb in pose.limbs])


def _perturbed(coords, k, delta):
    c = list(coords)
    c[k] += delta
    return tuple(c)


def fd_actuation_jacobian(cfg: ManipulatorConfig, coords, h: float = 1e-6) -> np.ndarray:
    """Central differences of the IK joint values over (y, z, theta, psi)."""
    h_len, h_ang = step_sizes(cfg, h)
    J = np.zeros((cfg.limb_count, 4))
    env = cfg.envelope_deg + 1.0  # perturbations of a feasible pose may graze the guard
    for k in range(4):
        hk = h_len if k < 2 else h_ang
        try:
            qp = _joint_values(cfg, _perturbed(coords, k, +hk), env)
            qm = _joint_values(cfg, _perturbed(coords, k, -hk), env)
        except KinematicsError as exc:
            raise StepTooLarge(f"perturbed pose infeasible along coord {k}: {exc}") from exc
        J[:, k] = (qp - qm) / (2.0 * hk)
    return J


def fd_constraint_tangent(cfg: ManipulatorConfig, coords, h: float = 1e-6) -> np.ndarray:
    """6 x 4 basis of the feasible twist cone by differencing resolve_pose."""
    h_len, h_ang = step_sizes(cfg, h)
    pose0 = resolve_pose(cfg, *coords)
    R0 = pose0.rotation
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


def forward_refine(cfg: ManipulatorConfig, q_target: np.ndarray,
                   guess_coords) -> tuple[float, float, float, float]:
    """Newton-refine (y, z, theta, psi) until IK reproduces q_target.

    Uses the finite-difference coordinate Jacobian, so the refinement stays
    independent of the analytic screw rows.
    """
    tol = REFINE_TOL * max(cfg.base_radius, 1e-30)
    env = cfg.envelope_deg + 5.0  # refinement may step slightly past the envelope
    coords = np.array(guess_coords, float)
    q_target = np.asarray(q_target, float)
    for _ in range(REFINE_MAX_ITER):
        try:
            r = _joint_values(cfg, coords, env) - q_target
        except KinematicsError as exc:
            raise NoForwardSolution(f"iterate left the workspace: {exc}") from exc
        if np.max(np.abs(r)) < tol:
            return tuple(coords)
        h_len, h_ang = step_sizes(cfg)
        Jq = np.zeros((4, 4))
        for k in range(4):
            hk = h_len if k < 2 else h_ang
            qp = _joint_values(cfg, _perturbed(coords, k, +hk), env)
            qm = _joint_values(cfg, _perturbed(coords, k, -hk), env)
            Jq[:, k] = (qp - qm) / (2.0 * hk)
        try:
            coords = coords - np.linalg.solve(Jq, r)
        except np.linalg.LinAlgError as exc:
            raise NoForwardSolution(f"singular forward Jacobian: {exc}") from exc
    raise NoForwardSolution(f"no convergence in {REFINE_MAX_ITER} iterations")


def brute_force_dhj(cfg: ManipulatorConfig, coords, plan=PRIMARY_PLAN) -> np.ndarray:
    """Differentiate the selected point-velocity combinations w.r.t. q_a.

    The selection weights are frozen at the center pose; each actuated joint
    is perturbed and the pose re-found by Newton forward refinement.
    """
    h_q = BRUTE_FORCE_STEP * max(cfg.base_radius, 1e-30)
    limbs0 = resolve_pose(cfg, *coords).limbs
    q0 = np.array([limb.q for limb in limbs0])
    S = build_selection_matrix(plan, [limb.a for limb in limbs0]).S
    P = cfg.platform_points()
    out = np.zeros((cfg.limb_count, cfg.limb_count))
    for m in range(cfg.limb_count):
        qp, qm = q0.copy(), q0.copy()
        qp[m] += h_q
        qm[m] -= h_q
        cp = forward_refine(cfg, qp, coords)
        cm = forward_refine(cfg, qm, coords)
        pp = resolve_pose(cfg, *cp, envelope_deg=cfg.envelope_deg + 5.0)
        pm = resolve_pose(cfg, *cm, envelope_deg=cfg.envelope_deg + 5.0)
        bp = np.concatenate([pp.origin + pp.rotation @ p for p in P])
        bm = np.concatenate([pm.origin + pm.rotation @ p for p in P])
        out[:, m] = S @ (bp - bm) / (2.0 * h_q)
    return out


@dataclass
class OracleReport:
    name: str
    max_abs_err: float
    max_rel_err: float
    threshold: float
    passed: bool
    poses_tested: int
    note: str = ""


def _rel(err_matrix, ref_matrix):
    ref = np.max(np.abs(ref_matrix))
    return float(np.max(np.abs(err_matrix)) / ref) if ref > 0 else math.inf


def sample_poses(cfg: ManipulatorConfig, n: int, seed: int = DEFAULT_SEED):
    """Deterministic random poses across the rotational envelope and z band."""
    rng = np.random.default_rng(seed)
    lim = math.radians(cfg.envelope_deg)
    z_scale = cfg.base_radius / 450.0
    feasible, failures = [], []
    for _ in range(n):
        coords = (0.0,
                  float(rng.uniform(100.0, 200.0) * z_scale),
                  float(rng.uniform(-lim, lim)),
                  float(rng.uniform(-lim, lim)))
        try:
            resolve_pose(cfg, *coords)
            feasible.append(coords)
        except KinematicsError as exc:
            failures.append((coords, exc.code))
    return feasible, failures


def run_validation(cfg: ManipulatorConfig, seed: int = DEFAULT_SEED,
                   n_poses: int = 100, n_dhj: int = 50) -> dict:
    """Run every oracle; returns the JSON-serializable validation report."""
    poses, failures = sample_poses(cfg, n_poses, seed)
    checks: list[OracleReport] = []
    # each per-pose oracle and record is computed once and read by every check
    tangent = functools.cache(lambda c: fd_constraint_tangent(cfg, c))
    fd_ik = functools.cache(lambda c: fd_actuation_jacobian(cfg, c))
    record = functools.cache(lambda c, plan: dhj.dexterity_at(cfg, *c, plan=plan))
    scale = 0.001
    cfg_m = cfg.scaled(scale, unit="m" if cfg.unit == "mm" else cfg.unit)

    def pose_check(name, threshold, fn, subset=None, relative=True):
        worst_abs = worst_rel = 0.0
        tested = 0
        note = ""
        for coords in (poses if subset is None else poses[:subset]):
            try:
                abs_err, rel_err = fn(coords)
            except KinematicsError as exc:
                note = f"{exc.code} at {tuple(round(c, 4) for c in coords)}"
                worst_abs = worst_rel = math.inf
                break
            worst_abs = max(worst_abs, abs_err)
            worst_rel = max(worst_rel, rel_err)
            tested += 1
        if tested == 0 and not note:
            note = "no feasible poses"
        metric = worst_rel if relative else worst_abs
        checks.append(OracleReport(
            name=name, max_abs_err=worst_abs, max_rel_err=worst_rel,
            threshold=threshold, passed=bool(tested > 0 and metric < threshold),
            poses_tested=tested, note=note,
        ))

    def actuation(coords, **variant):
        T, FD = tangent(coords), fd_ik(coords)
        rec = record(coords, PRIMARY_PLAN)
        G = screws.build_inverse_jacobian(rec.pose.limbs, **variant) if variant else rec.G
        diff = G.G_a_T @ T - FD
        return float(np.max(np.abs(diff))), _rel(diff, FD)

    pose_check("actuation_rows_vs_fd_ik", 1e-5, actuation)

    def constraint(coords):
        T = tangent(coords)
        err = float(np.max(np.abs(record(coords, PRIMARY_PLAN).G.G_c_T @ T)))
        return err, err

    pose_check("constraint_rows_annihilate_tangent", 1e-7, constraint, relative=False)

    def inversion(coords):
        rec = record(coords, PRIMARY_PLAN)
        err = float(np.max(np.abs(rec.G.stacked @ rec.fwd.J - np.eye(6))))
        return err, err

    pose_check("inversion_residual", 1e-10, inversion, relative=False)

    def block(coords):
        rec = record(coords, PRIMARY_PLAN)
        J_a = rec.fwd.J_a
        try:
            Jb = forward_map.block_Ja(rec.G)
        except BlockSingular:
            Jb = J_a  # documented fallback
        diff = Jb - J_a
        return float(np.max(np.abs(diff))), _rel(diff, J_a)

    pose_check("block_formula_vs_direct_inversion", 1e-9, block)

    def selection_annihilation(coords):
        worst = 0.0
        for plan in (PRIMARY_PLAN, ALTERNATE_PLAN):
            V_ps = record(coords, plan).V_ps
            worst = max(worst, float(np.max(np.abs(V_ps[:, list(CONSTRAINED_COLS)]))))
        return worst, worst

    pose_check("selection_annihilates_constrained_freedoms", 1e-12,
               selection_annihilation, relative=False)

    def dhj_fd(coords):
        J_dh = record(coords, PRIMARY_PLAN).J_dh
        diff = brute_force_dhj(cfg, coords) - J_dh
        return float(np.max(np.abs(diff))), _rel(diff, J_dh)

    pose_check("dhj_vs_brute_force", 1e-5, dhj_fd, subset=n_dhj)

    def unit_invariance(coords):
        k = record(coords, PRIMARY_PLAN).k
        k_m = dhj.dexterity_at(cfg_m, coords[0] * scale, coords[1] * scale,
                               coords[2], coords[3]).k
        err = abs(k - k_m) / k
        return err, err

    pose_check("cond_dhj_unit_invariance", 1e-9, unit_invariance,
               subset=min(25, len(poses)), relative=False)

    # plan equivalence: measured and recorded; the discrepancy itself is the result
    plan_dev = 0.0
    plan_tested = 0
    plan_note = ""
    for coords in poses[:min(25, len(poses))]:
        try:
            k_primary = record(coords, PRIMARY_PLAN).k
            k_alt = record(coords, ALTERNATE_PLAN).k
        except KinematicsError as exc:
            plan_note = exc.code
            break
        if math.isfinite(k_primary) and math.isfinite(k_alt):
            plan_dev = max(plan_dev, abs(k_primary - k_alt) / k_primary)
            plan_tested += 1
    plans_equal = plan_dev < 1e-6
    if not plan_note:
        plan_note = ("plans agree to 1e-6" if plans_equal else
                     f"measured discrepancy {plan_dev:.6g} between primary and "
                     f"alternate plans (documented, not an equality failure)")
    checks.append(OracleReport(
        name="plan_equivalence_cond_dhj", max_abs_err=plan_dev, max_rel_err=plan_dev,
        threshold=math.inf, passed=plan_tested > 0, poses_tested=plan_tested,
        note=plan_note,
    ))

    mob = tsai_mobility(cfg.mobility)
    checks.append(OracleReport(
        name="tsai_mobility_matches_limb_count", max_abs_err=float(abs(mob - cfg.limb_count)),
        max_rel_err=float(abs(mob - cfg.limb_count)), threshold=1.0,
        passed=mob == cfg.limb_count, poses_tested=0,
        note=f"formula gives {mob} for f = {cfg.limb_count}",
    ))

    # formula variants: measure the rejected ones on a few poses for the record
    variant_errs = {"pus_normal_rows": 0.0, "flipped_moment_block": 0.0}
    for coords in poses[:min(10, len(poses))]:
        try:
            variant_errs["pus_normal_rows"] = max(
                variant_errs["pus_normal_rows"], actuation(coords, variant="normal")[1])
            variant_errs["flipped_moment_block"] = max(
                variant_errs["flipped_moment_block"], actuation(coords, moment_sign=-1.0)[1])
        except KinematicsError:
            break
    opposite_status = "valid"
    if poses:
        try:
            limbs = record(poses[0], PRIMARY_PLAN).pose.limbs
            build_selection_matrix(OPPOSITE_PLAN, [limb.a for limb in limbs])
        except DegeneratePair as exc:
            opposite_status = f"degenerate at this geometry: {exc}"
        except KinematicsError as exc:
            opposite_status = exc.code

    variants = {
        "actuation_rows": {
            "adopted": "unit link-direction force rows for all limbs (for PRS "
                       "limbs this is also the reciprocal-screw row, the link "
                       "being perpendicular to the revolute axis)",
            "rejected_pus_normal_rows_max_rel_err": variant_errs["pus_normal_rows"],
        },
        "moment_block": {
            "adopted": "a_i x u_i (power balance with the shifting property)",
            "rejected_u_x_a_max_rel_err": variant_errs["flipped_moment_block"],
        },
        "selection_normalization": {
            "adopted": "y-pair weights divided by |a_ix - a_jx|; the signed "
                       "difference would collapse the v_y and v_z columns of "
                       "the restricted nominal map to all-ones (rank-deficient "
                       "for every plan)",
        },
        "opposite_pair_plan": {
            "pairs": OPPOSITE_PLAN.pair_strings(),
            "status": opposite_status,
            "substitute_used": ALTERNATE_PLAN.pair_strings(),
        },
    }

    return {
        "seed": seed,
        "unit": cfg.unit,
        "poses_requested": n_poses,
        "poses_feasible": len(poses),
        "pose_failures": [{"coords": list(c), "code": code} for c, code in failures[:10]],
        "checks": [asdict(c) for c in checks],
        "variants": variants,
        "all_passed": all(c.passed for c in checks),
    }
