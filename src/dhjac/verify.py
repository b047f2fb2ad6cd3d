"""Independent finite-difference oracles for every analytic matrix.

Nothing here consults the screw rows or the block inversion: the actuation
oracle differentiates the closed-form IK, the tangent oracle differentiates
the constrained pose resolution, and the brute-force DHJ differentiates
Newton-refined forward kinematics.  These are the arbiters for the formula
variants documented in the validation report.

Each oracle takes one pose, and returns its value or raises, or a stack of
poses (N, 4), and returns a ``Stacked`` whose status gives each pose the
error it raises alone.  Each differencing step resolves all its perturbed
poses in one ``model.resolve_many`` call, whose rows equal ``resolve_pose``
bit for bit.  ``run_validation`` evaluates each oracle, and each chain of
``dhj`` it judges, once over the stack of all feasible poses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dhj, forward_map, screws
from .errors import (ConfigError, DegeneratePair, NoForwardSolution, Refusal, Stacked, Status,
                     StepTooLarge)
from .model import ManipulatorConfig, resolve_many, tsai_mobility
from .model import resolve_pose  # noqa: F401  (perfbench's tracer test reads verify.resolve_pose)
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


def fd_oracles(cfg: ManipulatorConfig, coords, h: float = 1e-6) -> tuple[Stacked, Stacked]:
    """The constraint tangents (N, 6, 4) and the actuation Jacobians (N, f, 4) at the poses
    ``coords`` (N, 4), which ``fd_constraint_tangent`` and ``fd_actuation_jacobian`` return.

    Both difference the same 8 central-difference rows of every pose, resolved
    in one call; a refused row is StepTooLarge for its pose.  The tangent also
    resolves the centers, whose rotation it differences against.
    """
    coords = np.array(coords, float).reshape(-1, 4)
    n = len(coords)
    steps = step_sizes(cfg, h)
    two_h = 2.0 * steps
    centers = resolve_many(cfg, coords)
    env = cfg.envelope_deg + 1.0  # perturbations of a feasible pose may graze the guard
    rows = resolve_many(cfg, _central_rows(coords, steps), env)
    stepped = rows.status.gather(np.arange(8 * n) // 8, n, lambda i, r: Refusal(
        StepTooLarge, lambda: f"perturbed pose infeasible along coord {i % 8 // 2}: "
                              f"{r.message()}"))
    q = rows.q.reshape(n, 8, cfg.limb_count)
    FD = ((q[:, 0::2] - q[:, 1::2]) / two_h[:, None]).swapaxes(-1, -2)
    origin, R = rows.origin.reshape(n, 8, 3), rows.rotation.reshape(n, 8, 3, 3)
    T = np.empty((n, 6, 4))
    T[:, :3] = ((origin[:, 0::2] - origin[:, 1::2]) / two_h[:, None]).swapaxes(-1, -2)
    W = ((R[:, 0::2] - R[:, 1::2]) / two_h[:, None, None]) \
        @ centers.rotation[:, None].swapaxes(-1, -2)
    T[:, 3:] = 0.5 * (W[..., [2, 0, 1], [1, 2, 0]]
                      - W[..., [1, 2, 0], [2, 0, 1]]).swapaxes(-1, -2)  # vee(skew W)
    tangent = centers.status.then(stepped)
    FD[~stepped.ok] = T[~tangent.ok] = math.nan
    return Stacked(T, tangent), Stacked(FD, stepped)


def fd_actuation_jacobian(cfg: ManipulatorConfig, coords, h: float = 1e-6):
    """Central differences of the IK joint values over (y, z, theta, psi): (f, 4) per pose."""
    out = fd_oracles(cfg, coords, h)[1]
    return out if np.ndim(coords) == 2 else out.one()


def fd_constraint_tangent(cfg: ManipulatorConfig, coords, h: float = 1e-6):
    """6 x 4 basis of the feasible twist cone at each pose, by differencing the pose resolution."""
    out = fd_oracles(cfg, coords, h)[0]
    return out if np.ndim(coords) == 2 else out.one()


def _iterate_failed(i: int, r: Refusal) -> Refusal:
    """The refusal of row ``i`` of a target's 9 in ``forward_refine``: row 0 is the iterate."""
    if i % 9:
        return r
    return Refusal(NoForwardSolution, lambda: f"iterate left the workspace: {r.message()}")


def forward_refine(cfg: ManipulatorConfig, q_target: np.ndarray, guess_coords):
    """Newton-refine (y, z, theta, psi) until IK reproduces q_target.

    ``q_target`` is one target (f,), refined to (4,) or raising, or a stack
    (T, f), refined to a ``Stacked`` (T, 4); ``guess_coords`` broadcasts to
    (T, 4).  Each target iterates on its own and gets the result and error it
    gets alone; one ``resolve_many`` call per iteration takes the center and 8
    perturbed poses of every unconverged target.  The finite-difference
    coordinate Jacobian keeps the refinement independent of the analytic
    screw rows.
    """
    tol = REFINE_TOL * max(cfg.base_radius, 1e-30)
    env = cfg.envelope_deg + 5.0  # refinement may step slightly past the envelope
    steps = step_sizes(cfg)
    q_target = np.asarray(q_target, float)
    targets = np.atleast_2d(q_target)
    size = len(targets)
    coords = np.array(np.broadcast_to(guess_coords, (size, 4)), float)
    status = Status((size,))
    active = np.arange(size)
    for _ in range(REFINE_MAX_ITER):
        if not len(active):
            break
        rows = np.concatenate([coords[active, None], _central_rows(coords[active], steps)], 1)
        poses = resolve_many(cfg, rows, env)
        q, resolved = poses.q.reshape(len(active), 9, -1), poses.status
        del poses  # the rest of this iteration's poses would stay alive through the next
        ok = resolved.ok.reshape(len(active), 9)
        r = q[:, 0] - targets[active]
        stepping = ~(ok[:, 0] & (np.abs(r).max(axis=1) < tol))
        owner = np.where(np.repeat(stepping, 9), np.repeat(active, 9), -1)
        status = status.then(resolved.gather(owner, size, _iterate_failed))
        s = np.flatnonzero(stepping & ok.all(axis=1))
        Jq = ((q[s, 1::2] - q[s, 2::2]) / (2.0 * steps)[:, None]).transpose(0, 2, 1)
        try:
            step = np.linalg.solve(Jq, r[s, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # a singular forward Jacobian fails its own target only
            step = np.full((len(s), 4), math.nan)
            for k, t in enumerate(s):
                try:
                    step[k] = np.linalg.solve(Jq[k], r[t, :, None])[:, 0]
                except np.linalg.LinAlgError as exc:
                    status.refuse(np.arange(size) == active[t], NoForwardSolution,
                                  lambda i, exc=exc: f"singular forward Jacobian: {exc}")
        coords[active[s]] -= step
        active = active[s][status.ok[active[s]]]
    else:
        status.refuse(np.isin(np.arange(size), active), NoForwardSolution,
                      lambda i: f"no convergence in {REFINE_MAX_ITER} iterations")
    coords[~status.ok] = math.nan
    out = Stacked(coords, status)
    return out if q_target.ndim == 2 else out.one()


def brute_force_dhj(cfg: ManipulatorConfig, coords, plan=PRIMARY_PLAN):
    """Differentiate the selected point-velocity combinations w.r.t. q_a: (f, f) per pose.

    The selection weights are frozen at the center pose; each actuated joint
    is perturbed both ways, and the 2f poses of every pose are re-found
    together by one Newton forward refinement.
    """
    stacked = np.ndim(coords) == 2
    coords = np.array(coords, float).reshape(-1, 4)
    n, f = len(coords), cfg.limb_count
    h_q = BRUTE_FORCE_STEP * max(cfg.base_radius, 1e-30)
    centers = resolve_many(cfg, coords)
    sel = build_selection_matrix(plan, centers.a)
    status = centers.status.then(sel.status)
    todo = np.flatnonzero(status.ok)
    refined = forward_refine(cfg, _central_rows(centers.q[todo], h_q).reshape(-1, f),
                             np.repeat(coords[todo], 2 * f, axis=0))
    status = status.then(refined.status.gather(np.repeat(todo, 2 * f), n))
    # forward_refine accepted each refined pose at this envelope in its last iteration
    B = np.full((n, 2 * f, f, 3), math.nan)
    B[todo] = resolve_many(cfg, refined.value, cfg.envelope_deg + 5.0).B.reshape(-1, 2 * f, f, 3)
    d = (B[:, 0::2] - B[:, 1::2]).reshape(n, f, 3 * f)  # the f anchor points, concatenated
    # a matrix-vector product per column, as S @ (bp - bm) rounds it
    BF = ((sel.S[:, None] @ d[..., None])[..., 0] / (2.0 * h_q)).swapaxes(-1, -2)
    BF[~status.ok] = math.nan
    out = Stacked(BF, status)
    return out if stacked else out.one()


@dataclass
class OracleReport:
    name: str
    max_abs_err: float
    max_rel_err: float
    threshold: float
    passed: bool
    poses_tested: int
    note: str = ""


def _errors(diff, ref):
    """Per pose: max |diff|, and that relative to max |ref| (infinite where ref is 0)."""
    err = np.abs(diff).max(axis=(-2, -1))
    size = np.abs(ref).max(axis=(-2, -1))
    return err, np.divide(err, size, out=np.full(err.shape, math.inf), where=size > 0)


def _worst(values) -> float:
    """The largest of ``values`` and 0, as a running ``max`` from 0 finds it."""
    return max([0.0, *np.asarray(values, float).tolist()])


def _first_refusal(statuses, count: int):
    """``(i, error)``: the first of the first ``count`` poses that one of ``statuses`` refuses,
    and the error of the first of them that does; ``(count, None)`` if none does."""
    ok = np.logical_and.reduce([s.ok[:count] for s in statuses])
    if ok.all():
        return count, None
    i = int(np.argmin(ok))
    return i, next(e for e in (s.error(i) for s in statuses) if e is not None)


def random_coords(cfg: ManipulatorConfig, n: int,
                  seed: int = DEFAULT_SEED) -> list[tuple[float, float, float, float]]:
    """Deterministic random poses (0, z, theta, psi): z in the 100-200 band of a 450 mm base
    radius, scaled to the config's, and both angles across the rotational envelope."""
    rng = np.random.default_rng(seed)
    lim = math.radians(cfg.envelope_deg)
    z_scale = cfg.base_radius / 450.0
    return [(0.0,
             float(rng.uniform(100.0, 200.0) * z_scale),
             float(rng.uniform(-lim, lim)),
             float(rng.uniform(-lim, lim)))
            for _ in range(n)]


def sample_poses(cfg: ManipulatorConfig, n: int, seed: int = DEFAULT_SEED):
    """``random_coords`` split into the feasible poses and the refused ones with their codes."""
    coords = random_coords(cfg, n, seed)
    codes = resolve_many(cfg, coords).status.codes()
    feasible = [c for c, code in zip(coords, codes) if code == "ok"]
    failures = [(c, code) for c, code in zip(coords, codes) if code != "ok"]
    return feasible, failures


def run_validation(cfg: ManipulatorConfig, seed: int = DEFAULT_SEED,
                   n_poses: int = 100, n_dhj: int = 50) -> dict:
    """Run every oracle; returns the JSON-serializable validation report (ConfigError for a
    negative seed or no pose)."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n_poses < 1:
        raise ConfigError(f"at least one pose is needed, got {n_poses}")
    poses, failures = sample_poses(cfg, n_poses, seed)
    n = len(poses)
    coords = np.array(poses, float).reshape(n, 4)
    n_unit = min(25, n)
    n_bf = len(poses[:n_dhj])
    checks: list[OracleReport] = []
    # each oracle and each judged chain is evaluated once, over the stack of feasible
    # poses, and read by every check; a check counts the poses before its first refusal
    tangent, fd_ik = fd_oracles(cfg, coords)
    T, FD = tangent.value, fd_ik.value
    centers = resolve_many(cfg, coords)
    G, fwd, _, V_ps, J_dh, _, k, rec = dhj._chain(centers, PRIMARY_PLAN)
    *_, V_ps_alt, _, _, k_alt, rec_alt = dhj._chain(centers, ALTERNATE_PLAN)
    scale = 0.001
    cfg_m = cfg.scaled(scale, unit="m" if cfg.unit == "mm" else cfg.unit)
    *_, k_m, rec_m = dhj._chain(resolve_many(cfg_m, coords[:n_unit] * [scale, scale, 1, 1]),
                                PRIMARY_PLAN)
    bf = brute_force_dhj(cfg, coords[:n_bf])

    def pose_check(name, threshold, statuses, errors, count=n, relative=True):
        """``errors(i)`` gives the per-pose (abs, rel) errors of the first i poses."""
        tested, exc = _first_refusal(statuses, count)
        note = ""
        if exc is not None:
            note = f"{exc.code} at {tuple(round(c, 4) for c in poses[tested])}"
            worst_abs = worst_rel = math.inf
        else:
            worst_abs, worst_rel = map(_worst, errors(tested))
            if tested == 0:
                note = "no feasible poses"
        metric = worst_rel if relative else worst_abs
        checks.append(OracleReport(
            name=name, max_abs_err=worst_abs, max_rel_err=worst_rel,
            threshold=threshold, passed=bool(tested > 0 and metric < threshold),
            poses_tested=tested, note=note,
        ))

    def same(err):
        return err, err

    pose_check("actuation_rows_vs_fd_ik", 1e-5, (tangent.status, fd_ik.status, rec),
               lambda i: _errors(G.G_a_T[:i] @ T[:i] - FD[:i], FD[:i]))
    pose_check("constraint_rows_annihilate_tangent", 1e-7, (tangent.status, rec),
               lambda i: same(np.abs(G.G_c_T[:i] @ T[:i]).max(axis=(-2, -1))), relative=False)
    pose_check("inversion_residual", 1e-10, (rec,),
               lambda i: same(np.abs(G.stacked[:i] @ fwd.J[:i] - np.eye(6)).max(axis=(-2, -1))),
               relative=False)

    block = forward_map.block_Ja(G)
    # where the block route is BlockSingular, the documented fallback is direct inversion
    J_b = np.where(block.status.ok[:, None, None], block.value, fwd.J_a)
    pose_check("block_formula_vs_direct_inversion", 1e-9, (rec,),
               lambda i: _errors(J_b[:i] - fwd.J_a[:i], fwd.J_a[:i]))

    cols = list(CONSTRAINED_COLS)
    pose_check("selection_annihilates_constrained_freedoms", 1e-12, (rec, rec_alt),
               lambda i: same(np.maximum(np.abs(V_ps[:i, :, cols]).max(axis=(-2, -1)),
                                         np.abs(V_ps_alt[:i, :, cols]).max(axis=(-2, -1)))),
               relative=False)
    pose_check("dhj_vs_brute_force", 1e-5, (rec, bf.status),
               lambda i: _errors(bf.value[:i] - J_dh[:i], J_dh[:i]), count=n_bf)
    pose_check("cond_dhj_unit_invariance", 1e-9, (rec, rec_m),
               lambda i: same(np.abs(k[:i] - k_m[:i]) / k[:i]), count=n_unit, relative=False)

    # plan equivalence: measured and recorded; the discrepancy itself is the result
    plan_tested, exc = _first_refusal((rec, rec_alt), n_unit)
    finite = np.isfinite(k[:plan_tested]) & np.isfinite(k_alt[:plan_tested])
    k_p, k_a = k[:plan_tested][finite], k_alt[:plan_tested][finite]
    plan_dev = _worst(np.abs(k_p - k_a) / k_p)
    plan_tested = int(finite.sum())
    plans_equal = plan_dev < 1e-6
    if exc is not None:
        plan_note = exc.code
    else:
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

    # formula variants: measure the rejected ones on a few poses for the record; each
    # pose is measured with one variant, then the other, up to the first refusal
    n_var = min(10, n)
    judged = (tangent.status, fd_ik.status, rec)
    G_normal = screws.build_inverse_jacobian(centers, variant="normal")
    G_flipped = screws.build_inverse_jacobian(centers, moment_sign=-1.0)
    stop_normal = _first_refusal((*judged, G_normal.status), n_var)[0]
    stop_flipped = _first_refusal((*judged, G_flipped.status), n_var)[0]
    measured = {
        "pus_normal_rows": (G_normal, stop_flipped + 1 if stop_flipped < stop_normal
                            else stop_normal),
        "flipped_moment_block": (G_flipped, min(stop_normal, stop_flipped)),
    }
    variant_errs = {name: _worst(_errors(Gv.G_a_T[:i] @ T[:i] - FD[:i], FD[:i])[1])
                    for name, (Gv, i) in measured.items()}
    opposite_status = "valid"
    if n:
        exc = rec.error(0) or build_selection_matrix(OPPOSITE_PLAN, centers.a[0]).status.error()
        if isinstance(exc, DegeneratePair):
            opposite_status = f"degenerate at this geometry: {exc}"
        elif exc is not None:
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
