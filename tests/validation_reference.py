"""``dhjac validate`` written one pose at a time.

The validation run as it was before it was evaluated over stacks: every
check walks the feasible poses in order and evaluates, at each, the
one-pose forms of the oracles and the ``dexterity_at`` records it judges,
computed once per pose and cached.  Kept as the reference that the stacked
``verify.run_validation`` must reproduce byte for byte.
"""

import functools
import math
from dataclasses import asdict

import numpy as np

from dhjac import dhj, forward_map, screws
from dhjac.errors import BlockSingular, ConfigError, DegeneratePair, KinematicsError
from dhjac.model import ManipulatorConfig, tsai_mobility
from dhjac.selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, OPPOSITE_PLAN, PRIMARY_PLAN,
                             build_selection_matrix)
from dhjac.verify import (DEFAULT_SEED, OracleReport, brute_force_dhj, fd_actuation_jacobian,
                          fd_constraint_tangent, sample_poses)


def _rel(err_matrix, ref_matrix):
    ref = np.max(np.abs(ref_matrix))
    return float(np.max(np.abs(err_matrix)) / ref) if ref > 0 else math.inf


def scalar_run_validation(cfg: ManipulatorConfig, seed: int = DEFAULT_SEED,
                          n_poses: int = 100, n_dhj: int = 50) -> dict:
    """Run every oracle; returns the JSON-serializable validation report (ConfigError for a
    negative seed or no pose)."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n_poses < 1:
        raise ConfigError(f"at least one pose is needed, got {n_poses}")
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
        G = screws.build_inverse_jacobian(rec.pose, **variant) if variant else rec.G
        G.status.check()
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
            anchors = record(poses[0], PRIMARY_PLAN).pose.a
            build_selection_matrix(OPPOSITE_PLAN, anchors).status.check()
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
