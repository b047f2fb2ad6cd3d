"""Independent finite-difference oracles for every analytic matrix.

Nothing here consults the screw rows or the block inversion: the actuation
oracle differentiates the closed-form IK, the tangent oracle differentiates
the constrained pose resolution, and the brute-force DHJ differentiates
Newton-refined forward kinematics.  These are the arbiters for the formula
variants documented in the validation report.  Each differencing step
resolves all its perturbed poses in one ``model.resolve_many`` call, whose
rows equal ``resolve_pose`` bit for bit.

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
from .model import ManipulatorConfig, resolve_many, resolve_pose, tsai_mobility
from .selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, OPPOSITE_PLAN,
                        PRIMARY_PLAN, build_selection_matrix)

DEFAULT_SEED = 42

REFINE_TOL = 1e-12  # forward_refine stops when IK reproduces q to this * r_b
REFINE_MAX_ITER = 30
BRUTE_FORCE_STEP = 1e-5  # actuated-joint step of brute_force_dhj, as a fraction of r_b


def step_sizes(cfg: ManipulatorConfig, h: float = 1e-6) -> np.ndarray:
    """Steps along (y, z, theta, psi): h * r_b for the lengths, h rad for the angles."""
    h_len = h * max(cfg.base_radius, 1e-30)
    return np.array([h_len, h_len, h, h])


def _central_rows(center, steps) -> np.ndarray:
    """(..., 2n, n): row 2k adds steps[k] to entry k of ``center``, row 2k + 1 subtracts it.

    So the first refused row is the first one a loop over the steps meets.
    """
    n = np.shape(center)[-1]
    rows = np.repeat(np.asarray(center, float)[..., None, :], 2 * n, axis=-2)
    k = np.arange(n)
    rows[..., 2 * k, k] += steps
    rows[..., 2 * k + 1, k] -= steps
    return rows


def _refused(cfg, coords, envelope_deg=None) -> KinematicsError:
    """The error ``resolve_pose`` raises at a pose that ``resolve_many`` refused."""
    try:
        resolve_pose(cfg, *coords, envelope_deg=envelope_deg)
    except KinematicsError as exc:
        return exc
    raise RuntimeError(f"resolve_many refused {tuple(coords)}, which resolve_pose accepts")


def _perturbed_poses(cfg, coords, h):
    """``resolve_many`` at the 8 central-difference rows of ``coords``, and 2 h_k."""
    steps = step_sizes(cfg, h)
    rows = _central_rows(coords, steps)
    env = cfg.envelope_deg + 1.0  # perturbations of a feasible pose may graze the guard
    R, origin, _, q, ok = resolve_many(cfg, rows, env)
    if not ok.all():
        i = int(np.argmin(ok))
        exc = _refused(cfg, rows[i], env)
        raise StepTooLarge(f"perturbed pose infeasible along coord {i // 2}: {exc}") from exc
    return R, origin, q, 2.0 * steps


def fd_actuation_jacobian(cfg: ManipulatorConfig, coords, h: float = 1e-6) -> np.ndarray:
    """Central differences of the IK joint values over (y, z, theta, psi)."""
    _, _, q, two_h = _perturbed_poses(cfg, coords, h)
    return ((q[0::2] - q[1::2]) / two_h[:, None]).T


def fd_constraint_tangent(cfg: ManipulatorConfig, coords, h: float = 1e-6) -> np.ndarray:
    """6 x 4 basis of the feasible twist cone by differencing resolve_pose."""
    R0 = resolve_pose(cfg, *coords).rotation
    R, origin, _, two_h = _perturbed_poses(cfg, coords, h)
    T = np.zeros((6, 4))
    T[:3] = ((origin[0::2] - origin[1::2]) / two_h[:, None]).T
    W = ((R[0::2] - R[1::2]) / two_h[:, None, None]) @ R0.T
    T[3:] = 0.5 * (W[:, [2, 0, 1], [1, 2, 0]] - W[:, [1, 2, 0], [2, 0, 1]]).T  # vee(skew W)
    return T


def forward_refine(cfg: ManipulatorConfig, q_target: np.ndarray, guess_coords) -> np.ndarray:
    """Newton-refine (y, z, theta, psi) until IK reproduces q_target.

    ``q_target`` is (f,) or (T, f), ``guess_coords`` broadcasts to (T, 4) and
    the result is (4,) or (T, 4).  Each target iterates on its own; one
    ``resolve_many`` call per iteration takes the center and 8 perturbed
    poses of every unconverged target.  The first failed target raises the
    error it raises alone (a singular Jacobian fails its whole iteration).
    The finite-difference coordinate Jacobian keeps the refinement
    independent of the analytic screw rows.
    """
    tol = REFINE_TOL * max(cfg.base_radius, 1e-30)
    env = cfg.envelope_deg + 5.0  # refinement may step slightly past the envelope
    steps = step_sizes(cfg)
    q_target = np.asarray(q_target, float)
    targets = np.atleast_2d(q_target)
    coords = np.array(np.broadcast_to(guess_coords, (len(targets), 4)), float)
    errors: dict[int, KinematicsError] = {}
    active = np.arange(len(targets))
    for _ in range(REFINE_MAX_ITER):
        rows = np.concatenate([coords[active, None], _central_rows(coords[active], steps)], 1)
        _, _, _, q, ok = resolve_many(cfg, rows, env)
        q, ok = q.reshape(len(active), 9, -1), ok.reshape(len(active), 9)
        r = q[:, 0] - targets[active]
        stepping = ~(ok[:, 0] & (np.abs(r).max(axis=1) < tol))
        for t in np.flatnonzero(stepping & ~ok.all(axis=1)):
            i = int(np.argmin(ok[t]))
            exc = _refused(cfg, rows[t, i], env)
            if i == 0:  # the iterate itself
                cause, exc = exc, NoForwardSolution(f"iterate left the workspace: {exc}")
                exc.__cause__ = cause
            errors[active[t]] = exc
        s = np.flatnonzero(stepping & ok.all(axis=1))
        Jq = ((q[s, 1::2] - q[s, 2::2]) / (2.0 * steps)[:, None]).transpose(0, 2, 1)
        try:
            coords[active[s]] -= np.linalg.solve(Jq, r[s, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            errors.update((t, NoForwardSolution(f"singular forward Jacobian: {exc}"))
                          for t in active[s])
        active = np.array([t for t in active[s] if t not in errors], int)
        if not len(active):
            break
    else:
        errors.update((t, NoForwardSolution(f"no convergence in {REFINE_MAX_ITER} iterations"))
                      for t in active)
    if errors:
        raise errors[min(errors)]
    return coords[0] if q_target.ndim == 1 else coords


def brute_force_dhj(cfg: ManipulatorConfig, coords, plan=PRIMARY_PLAN) -> np.ndarray:
    """Differentiate the selected point-velocity combinations w.r.t. q_a.

    The selection weights are frozen at the center pose; each actuated joint
    is perturbed both ways, and the 2f poses are re-found together by Newton
    forward refinement.
    """
    h_q = BRUTE_FORCE_STEP * max(cfg.base_radius, 1e-30)
    limbs0 = resolve_pose(cfg, *coords).limbs
    S = build_selection_matrix(plan, [limb.a for limb in limbs0]).S
    refined = forward_refine(cfg, _central_rows([limb.q for limb in limbs0], h_q), coords)
    # forward_refine accepted each refined pose at this envelope in its last iteration
    B = resolve_many(cfg, refined, cfg.envelope_deg + 5.0)[2]
    d = (B[0::2] - B[1::2]).reshape(cfg.limb_count, -1)  # the f anchor points, concatenated
    # a matrix-vector product per column, as S @ (bp - bm) rounds it
    return ((S @ d[:, :, None])[..., 0] / (2.0 * h_q)).T


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
    coords = [(0.0,
               float(rng.uniform(100.0, 200.0) * z_scale),
               float(rng.uniform(-lim, lim)),
               float(rng.uniform(-lim, lim)))
              for _ in range(n)]
    ok = resolve_many(cfg, coords)[-1]
    feasible = [c for c, good in zip(coords, ok) if good]
    # only a refused pose goes through resolve_pose, for its code
    failures = [(c, _refused(cfg, c).code) for c, good in zip(coords, ok) if not good]
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
