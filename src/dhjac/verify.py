"""Independent finite-difference oracles for every analytic matrix.

Nothing here consults the screw rows or the block inversion: the actuation
oracle differentiates the closed-form IK, the tangent oracle differentiates
the constrained pose resolution, and the brute-force DHJ differentiates
Newton-refined forward kinematics.  These are the arbiters for the formula
variants documented in the validation report.

Each oracle takes a stack of poses resolved by ``model.resolve_many`` and
returns a ``Stacked`` whose status gives each pose the error it gets as a
stack of one.  Each differencing step resolves all its perturbed poses in one
``resolve_many`` call, whose rows equal ``resolve_pose`` bit for bit, so a
pose resolved once may stand for every equal one: the Newton refinement
resolves each distinct iterate once per iteration, and the perturbed poses
only of the iterates that still step.  ``run_validation`` resolves the
sampled poses once, takes the feasible rows of that stack, and evaluates each
oracle, and each chain of ``dhj`` it judges, once over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dhj, forward_map, screws
from .errors import (ConfigError, DegeneratePair, NoForwardSolution, Refusal, Stacked, Status,
                     StepTooLarge)
from .model import ManipulatorConfig, PlatformPose, resolve_many, tsai_mobility
from .model import resolve_pose  # noqa: F401  (perfbench's tracer test reads verify.resolve_pose)
from .selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, OPPOSITE_PLAN,
                        PRIMARY_PLAN, build_selection_matrix)

DEFAULT_SEED = 42

REFINE_TOL = 1e-12  # forward_refine stops when IK reproduces q to this * r_b
REFINE_MAX_ITER = 30
BRUTE_FORCE_STEP = 1e-5  # actuated-joint step of _brute_force_dhj, as a fraction of r_b


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


def fd_oracles(cfg: ManipulatorConfig, centers: PlatformPose,
               h: float = 1e-6) -> tuple[Stacked, Stacked]:
    """The constraint tangents (N, 6, 4) and the actuation Jacobians (N, f, 4) at the poses
    ``centers`` that ``resolve_many`` resolved, by central differences over (y, z, theta, psi).

    The tangent is a basis of the feasible twist cone, from differencing the
    pose resolution; the actuation Jacobian differences the IK joint values.
    Both difference the same 8 central-difference rows of every pose, resolved
    in one call; a refused row is StepTooLarge for its pose.  The tangent also
    takes the refusal of its center, whose rotation it differences against.
    """
    coords = np.stack(centers.coords, axis=-1)
    n = len(coords)
    steps = step_sizes(cfg, h)
    two_h = 2.0 * steps
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


def _iterate_failed(r: Refusal) -> Refusal:
    """The refusal of a target in ``forward_refine`` whose iterate was refused."""
    return Refusal(NoForwardSolution, lambda: f"iterate left the workspace: {r.message()}")


@dataclass(frozen=True)
class Refined(Stacked):
    """``forward_refine``'s result: the refined coordinates (T, 4), and the anchor points
    ``B`` (T, f, 3) that the iteration which accepted them resolved there; NaN where refused."""

    B: np.ndarray


def forward_refine(cfg: ManipulatorConfig, targets: np.ndarray, guess_coords) -> Refined:
    """Newton-refine (y, z, theta, psi) until IK reproduces each of the ``targets`` (T, f).

    ``guess_coords`` broadcasts to (T, 4).  Each target iterates on its own
    and gets the result and error it gets as a stack of one.  An iteration
    resolves the distinct iterates in one call (equal consecutive iterates, as
    the targets of one pose in ``_brute_force_dhj`` start, share a row), tests
    convergence on them, and resolves in a second call the 8 perturbed poses
    of the distinct iterates that still step.  The finite-difference
    coordinate Jacobian keeps the refinement independent of the analytic
    screw rows.
    """
    tol = REFINE_TOL * max(cfg.base_radius, 1e-30)
    env = cfg.envelope_deg + 5.0  # refinement may step slightly past the envelope
    steps = step_sizes(cfg)
    targets = np.asarray(targets, float)
    size = len(targets)
    coords = np.array(np.broadcast_to(guess_coords, (size, 4)), float)
    B = np.full((size, cfg.limb_count, 3), math.nan)
    status = Status(size)
    active = np.arange(size)
    for _ in range(REFINE_MAX_ITER):
        if not len(active):
            break
        # target active[i] iterates from the distinct iterate iterate[i]; equal means equal bits
        now = coords[active]
        bits = now.view(np.int64)
        new = np.ones(len(active), bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        iterate = np.cumsum(new) - 1
        distinct = now[new]
        centers = resolve_many(cfg, distinct, env)
        r = centers.q[iterate] - targets[active]
        resolved = centers.status.ok[iterate]
        done = resolved & (np.abs(r).max(axis=1) < tol)
        B[active[done]] = centers.B[iterate[done]]
        stepping = resolved & ~done
        refused = centers.status.take(np.where(resolved, -1, iterate), _iterate_failed)
        if np.count_nonzero(stepping):
            # row slot[u] of the perturbed iterates is distinct iterate u
            perturb = np.zeros(len(distinct), bool)
            perturb[iterate[stepping]] = True
            slot = np.cumsum(perturb) - 1
            rows = resolve_many(cfg, _central_rows(distinct[perturb], steps), env)
            m = np.count_nonzero(perturb)
            q = rows.q.reshape(m, 8, -1)
            first = rows.status.gather(np.arange(8 * m) // 8, m)
            refused = refused.then(first.take(np.where(stepping, slot[iterate], -1)))
            del rows  # the rest of this iteration's poses would stay alive through the next
        status = status.then(refused.gather(active, size))
        s = np.flatnonzero(stepping & refused.ok)
        if len(s):
            Jq = ((q[:, 0::2] - q[:, 1::2]) / (2.0 * steps)[:, None]).transpose(0, 2, 1)
            Jq = Jq[slot[iterate[s]]]
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
    return Refined(coords, status, B)


def brute_force_dhj(cfg: ManipulatorConfig, coords, plan=PRIMARY_PLAN) -> np.ndarray:
    """``_brute_force_dhj`` at one pose (y, z, theta, psi): its (f, f) value; raises its refusal.

    The only one-pose entry here: it stays for the correctness checks of the benchmark harness
    (``perfbench/workloads.py``) until ROADMAP item 1 moves them to the stacked oracles.
    """
    out = _brute_force_dhj(cfg, resolve_many(cfg, [coords]), plan)
    out.status.check()
    return out.value[0]


def _brute_force_dhj(cfg: ManipulatorConfig, centers: PlatformPose, plan=PRIMARY_PLAN) -> Stacked:
    """Differentiate the selected point-velocity combinations w.r.t. q_a: (N, f, f) at the
    poses ``centers`` that ``resolve_many`` resolved.

    The selection weights are frozen at the center pose; each actuated joint
    is perturbed both ways, and the 2f poses of every pose are re-found
    together by one Newton forward refinement, whose accepting iteration
    gives their anchor points.
    """
    n, f = len(centers.q), cfg.limb_count
    h_q = BRUTE_FORCE_STEP * max(cfg.base_radius, 1e-30)
    sel = build_selection_matrix(plan, centers.a)
    status = centers.status.then(sel.status)
    todo = np.flatnonzero(status.ok)
    refined = forward_refine(cfg, _central_rows(centers.q[todo], h_q).reshape(-1, f),
                             np.repeat(np.stack(centers.coords, axis=-1)[todo], 2 * f, axis=0))
    status = status.then(refined.status.gather(np.repeat(todo, 2 * f), n))
    B = np.full((n, 2 * f, f, 3), math.nan)
    B[todo] = refined.B.reshape(-1, 2 * f, f, 3)
    d = (B[:, 0::2] - B[:, 1::2]).reshape(n, f, 3 * f)  # the f anchor points, concatenated
    # a matrix-vector product per column, as S @ (bp - bm) rounds it
    BF = ((sel.S[:, None] @ d[..., None])[..., 0] / (2.0 * h_q)).swapaxes(-1, -2)
    BF[~status.ok] = math.nan
    return Stacked(BF, status)


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
    # one (z, theta, psi) draw per pose, in the order of one uniform call per coordinate
    draws = rng.uniform([100.0, -lim, -lim], [200.0, lim, lim], size=(n, 3))
    draws[:, 0] *= cfg.base_radius / 450.0
    return [(0.0, *pose) for pose in draws.tolist()]


def sample_poses(cfg: ManipulatorConfig, n: int, seed: int = DEFAULT_SEED):
    """``random_coords`` split into the feasible poses, the refused ones with their codes,
    and the stack of the feasible poses: the rows of the one that resolved every sampled
    pose (a row is the same in any stack)."""
    coords = random_coords(cfg, n, seed)
    stack = resolve_many(cfg, coords)
    codes = stack.status.codes()
    rows = [i for i, code in enumerate(codes) if code == "ok"]
    failures = [(c, code) for c, code in zip(coords, codes) if code != "ok"]
    return [coords[i] for i in rows], failures, stack.take(rows)


def run_validation(cfg: ManipulatorConfig, seed: int = DEFAULT_SEED,
                   n_poses: int = 100, n_dhj: int = 50) -> dict:
    """Run every oracle; returns the JSON-serializable validation report (ConfigError for a
    negative seed, or no pose to sample or to check against the brute-force oracle)."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n_poses < 1:
        raise ConfigError(f"at least one pose is needed, got {n_poses}")
    if n_dhj < 1:
        raise ConfigError(f"at least one brute-force pose is needed, got {n_dhj}")
    # the sampled poses are resolved once, and the feasible rows of that stack are the
    # centers; each oracle and each judged chain is evaluated once, over that stack, and
    # read by every check; a check counts the poses before its first refusal
    poses, failures, centers = sample_poses(cfg, n_poses, seed)
    n = len(poses)
    coords = np.array(poses, float).reshape(n, 4)
    n_unit = min(25, n)
    n_bf = min(n_dhj, n)
    checks: list[OracleReport] = []
    tangent, fd_ik = fd_oracles(cfg, centers)
    T, FD = tangent.value, fd_ik.value
    G, fwd, _, V_ps, J_dh, _, k, rec = dhj._chain(centers, PRIMARY_PLAN)
    *_, V_ps_alt, _, _, k_alt, rec_alt = dhj._chain(centers, ALTERNATE_PLAN, (G, fwd))
    scale = 0.001
    cfg_m = cfg.scaled(scale, unit="m" if cfg.unit == "mm" else cfg.unit)
    *_, k_m, rec_m = dhj._chain(resolve_many(cfg_m, coords[:n_unit] * [scale, scale, 1, 1]),
                                PRIMARY_PLAN)
    bf = _brute_force_dhj(cfg, centers if n_bf == n else centers.take(range(n_bf)))

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
        exc = rec.error(0) or build_selection_matrix(OPPOSITE_PLAN, centers.a[:1]).status.error(0)
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
        "checks": [vars(c).copy() for c in checks],  # the fields, in order, as asdict gives
        "variants": variants,
        "all_passed": all(c.passed for c in checks),
    }
