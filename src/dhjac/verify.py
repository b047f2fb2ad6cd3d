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
pose resolved once may stand for every equal one.  Who resolves what:

* ``fd_rows`` resolves the 8 central-difference rows of every pose; the FD
  tangent and IK Jacobian of ``fd_oracles`` difference them, and so does the
  brute-force ``J_dh``, which takes them from its caller and whose Newton
  steps at each pose all solve against that one forward Jacobian (chord
  Newton);
* ``forward_refine`` resolves, per iteration, the brute force's iterates
  from its first step on, and no perturbed pose: its caller passes the
  forward Jacobian.

``run_validation`` keeps the stack of the feasible sampled poses (``sample_poses``);
``check_table`` resolves their central-difference rows once, evaluates each oracle,
and each chain of ``dhj`` it judges, once over it, and ``summarize`` reads the errors.
Who builds what: the primary chain builds G^T, its inverse, V_p and S; the
alternate plan's chain takes the first three and builds its own S, the brute
force takes the primary S, the flipped moment block negates the primary G^T,
and the chain in meters builds its own; only the PUS-normal rows and the
opposite plan's S at the first pose are built apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dhj, forward_map, screws
from .errors import (ConfigError, DegeneratePair, NoForwardSolution, Refusal, Stacked, Status,
                     StepTooLarge)
from .model import ManipulatorConfig, PlatformPose, resolve_many, tsai_mobility
from .model import resolve_pose  # noqa: F401  (perfbench's tracer test reads verify.resolve_pose)
from .selection import (ALTERNATE_PLAN, CONSTRAINED_COLS, OPPOSITE_PLAN,
                        PRIMARY_PLAN, SelectionMatrix, build_selection_matrix)

DEFAULT_SEED = 42

REFINE_TOL = 1e-12  # forward_refine stops when IK reproduces q to this * r_b
REFINE_MAX_ITER = 30
BRUTE_FORCE_STEP = 1e-5  # actuated-joint step of _brute_force_dhj, as a fraction of r_b
BRUTE_FORCE_POSES = 50  # run_validation checks J_dh against the brute force at the first 50


def step_sizes(cfg: ManipulatorConfig, h: float = 1e-6) -> np.ndarray:
    """Steps along (y, z, theta, psi): h * r_b for the lengths, h rad for the angles."""
    h_len = h * cfg.base_radius
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


def fd_rows(cfg: ManipulatorConfig, centers: PlatformPose, h: float = 1e-6) -> PlatformPose:
    """The 8 central-difference rows of every pose of ``centers`` (``_central_rows`` at
    ``step_sizes(cfg, h)``), resolved in one ``resolve_many`` call at envelope + 1 deg: (8N,)."""
    env = cfg.envelope_deg + 1.0  # perturbations of a feasible pose may graze the guard
    return resolve_many(cfg, _central_rows(centers.coords, step_sizes(cfg, h)), env)


def _fd_jacobian(rows: PlatformPose, steps, wrap=None) -> Stacked:
    """The central-difference Jacobians (N, f, 4) of the joint values over the 8N ``rows``
    that ``_central_rows`` laid out at ``steps``.  A pose takes the refusal of its first
    refused row, as ``wrap(row, refusal)`` when given."""
    n = len(rows.q) // 8
    q = rows.q.reshape(n, 8, rows.cfg.limb_count)
    J = ((q[:, 0::2] - q[:, 1::2]) / (2.0 * steps)[:, None]).swapaxes(-1, -2)
    return Stacked(J, rows.status.gather(np.arange(8 * n) // 8, n, wrap))


def fd_oracles(cfg: ManipulatorConfig, centers: PlatformPose, rows: PlatformPose,
               h: float = 1e-6) -> tuple[Stacked, Stacked]:
    """The constraint tangents (N, 6, 4) and the actuation Jacobians (N, f, 4) at the poses
    ``centers`` that ``resolve_many`` resolved, by central differences over (y, z, theta, psi).

    The tangent is a basis of the feasible twist cone, from differencing the
    pose resolution; the actuation Jacobian differences the IK joint values.
    Both difference the caller's ``rows``, the 8 central-difference rows of
    every pose, ``fd_rows(cfg, centers, h)``; a refused row is StepTooLarge
    for its pose.  The tangent also takes the refusal of its center, whose
    rotation it differences against.
    """
    n = len(centers.q)
    steps = step_sizes(cfg, h)
    two_h = 2.0 * steps
    actuation = _fd_jacobian(rows, steps, lambda i, r: Refusal(
        StepTooLarge, lambda: f"perturbed pose infeasible along coord {i % 8 // 2}: "
                              f"{r.message()}"))
    FD, stepped = actuation.value, actuation.status
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


def _newton_step(Jq: Stacked, r: np.ndarray) -> Stacked:
    """The Newton steps (M, 4) that solve ``Jq @ step = r`` for the M iterates, from their
    forward Jacobians ``Jq`` (M, f, 4) and IK residuals ``r`` (M, f).

    An iterate keeps the refusal of its Jacobian; a singular Jacobian fails
    its own iterate only, as NoForwardSolution.  A refused step is NaN.
    """
    status = Jq.status.then()
    step = np.full((len(r), 4), math.nan)
    s = np.flatnonzero(status.ok)
    try:
        step[s] = np.linalg.solve(Jq.value[s], r[s, :, None])[..., 0]
    except np.linalg.LinAlgError:
        for t in s.tolist():
            try:
                step[t] = np.linalg.solve(Jq.value[t], r[t, :, None])[:, 0]
            except np.linalg.LinAlgError as exc:
                status.refuse(np.arange(len(r)) == t, NoForwardSolution,
                              lambda i, exc=exc: f"singular forward Jacobian: {exc}")
    return Stacked(step, status)


def forward_refine(cfg: ManipulatorConfig, targets: np.ndarray, guess_coords,
                   jacobian: np.ndarray) -> Refined:
    """Newton-refine (y, z, theta, psi) until IK reproduces each of the ``targets`` (T, f).

    ``guess_coords`` broadcasts to (T, 4).  Each target iterates on its own
    and gets the result and error it gets as a stack of one.  This is the
    chord (simplified) Newton method: every step of a target solves against
    one forward Jacobian, the caller's ``jacobian`` (T, f, 4).  An iteration
    resolves the iterates in one call and tests convergence on them, and
    ``_newton_step`` solves for the steps.  A finite-difference Jacobian
    keeps the refinement independent of the analytic screw rows; each
    accepted pose is certified by its own resolution alone,
    ``|q - target| < REFINE_TOL * r_b``.
    """
    tol = REFINE_TOL * cfg.base_radius
    env = cfg.envelope_deg + 5.0  # refinement may step slightly past the envelope
    targets = np.asarray(targets, float)
    size = len(targets)
    coords = np.array(np.broadcast_to(guess_coords, (size, 4)), float)
    B = np.full((size, cfg.limb_count, 3), math.nan)
    status = Status(size)
    active = np.arange(size)
    for _ in range(REFINE_MAX_ITER):
        if not len(active):
            break
        iterates = resolve_many(cfg, coords[active], env)
        r = iterates.q - targets[active]
        resolved = iterates.status.ok
        done = resolved & (np.abs(r).max(axis=1) < tol)
        B[active[done]] = iterates.B[done]
        s = np.flatnonzero(resolved & ~done)
        refused = iterates.status.take(np.arange(len(active)), _iterate_failed)
        if len(s):
            step = _newton_step(Stacked(jacobian[active[s]], Status(len(s))), r[s])
            refused = refused.then(step.status.gather(s, len(active)))
            coords[active[s]] -= step.value
            s = s[step.status.ok]
        status = status.then(refused.gather(active, size))
        active = active[s]
    else:
        status.refuse(np.isin(np.arange(size), active), NoForwardSolution,
                      lambda i: f"no convergence in {REFINE_MAX_ITER} iterations")
    coords[~status.ok] = math.nan
    return Refined(coords, status, B)


def brute_force_dhj(cfg: ManipulatorConfig, coords, plan=PRIMARY_PLAN) -> np.ndarray:
    """``_brute_force_dhj`` at one pose (y, z, theta, psi): its (f, f) value; raises its refusal.

    The only one-pose entry here: it stays for the correctness checks of the benchmark harness
    (``perfbench/workloads.py``) until ROADMAP item 1 moves them to the stacked oracles.  It
    resolves the pose and its selection matrix under ``plan``, raises the refusal of either,
    and only then resolves the pose's 8 central-difference rows (``fd_rows``).
    """
    centers = resolve_many(cfg, [coords])
    sel = build_selection_matrix(plan, centers.a)
    centers.status.then(sel.status).check()
    out = _brute_force_dhj(cfg, centers, sel, fd_rows(cfg, centers))
    out.status.check()
    return out.value[0]


def _brute_force_dhj(cfg: ManipulatorConfig, centers: PlatformPose, sel: SelectionMatrix,
                     rows: PlatformPose) -> Stacked:
    """Differentiate the selected point-velocity combinations w.r.t. q_a: (N, f, f) at the
    poses ``centers`` that ``resolve_many`` resolved at the config's envelope (its default).

    The weights of ``sel``, the chain's selection matrices of the centers, are
    frozen at the center pose; each actuated joint
    is perturbed both ways, and the 2f poses of every pose are re-found
    together by Newton forward refinement, whose accepting iteration gives
    their anchor points.

    Every Newton step of a target solves against one forward Jacobian, the
    actuation oracle's at its center: the central differences, at
    ``step_sizes(cfg)``, of the caller's ``rows``, ``fd_rows(cfg, centers)``.
    The first step is taken at the center, where the
    residual is the joint step, far above REFINE_TOL, so no target converges
    there.  ``forward_refine`` then refines every target from its stepped
    iterate against the same Jacobian (chord Newton), resolving only the
    iterates, with its own budget of REFINE_MAX_ITER iterations; each refined
    pose is accepted only where its own IK reproduces the target to
    REFINE_TOL * r_b.  ``fd_rows`` resolves
    at envelope + 1 deg, ``forward_refine`` at + 5 deg; the two guards refuse
    the same rows of a center inside the config's envelope, which a 1e-6 rad
    step cannot leave by 1 deg, and a row's values do not depend on its
    guard.  A refused row fails the targets of its pose with its own refusal.
    """
    n, f = len(centers.q), cfg.limb_count
    h_q = BRUTE_FORCE_STEP * cfg.base_radius
    status = centers.status.then(sel.status)
    todo = np.flatnonzero(status.ok)
    if not len(todo):
        return Stacked(np.full((n, f, f), math.nan), status)
    # target t perturbs pose owner[t]; it is row t_row[t] of the (N * 2f) targets of the stack
    t_row = (2 * f * todo[:, None] + np.arange(2 * f)).ravel()
    owner = t_row // (2 * f)
    targets = _central_rows(centers.q[todo], h_q).reshape(-1, f)
    Jq = _fd_jacobian(rows, step_sizes(cfg))
    first = _newton_step(Stacked(Jq.value[owner], Jq.status.take(owner)),
                         centers.q[owner] - targets)
    go = np.flatnonzero(first.status.ok)
    refined = forward_refine(cfg, targets[go], centers.coords[owner[go]] - first.value[go],
                             Jq.value[owner[go]])
    refusals = first.status.then(refined.status.gather(go, len(owner)))
    status = status.then(refusals.gather(owner, n))
    B = np.full((n, 2 * f, f, 3), math.nan)
    B.reshape(-1, f, 3)[t_row[go]] = refined.B
    d = (B[:, 0::2] - B[:, 1::2]).reshape(n, f, 3 * f)  # the f anchor points, concatenated
    # a matrix-vector product per column, as S @ (bp - bm) rounds it
    BF = ((sel.S[:, None] @ d[..., None])[..., 0] / (2.0 * h_q)).swapaxes(-1, -2)
    BF[~status.ok] = math.nan
    return Stacked(BF, status)


@dataclass(frozen=True)
class CheckRow:
    """One pose-wise record of the validation report over the N poses of ``check_table``:
    the errors of each pose (N,), NaN past ``count`` or where one of ``statuses`` refuses it
    (an absolute record gives its error as both).  A check (``note`` None) fails at its
    first refusal; a measurement reports the poses before it, its ``note`` the worst."""

    name: str
    threshold: float
    abs_err: np.ndarray
    rel_err: np.ndarray
    statuses: tuple[Status, ...]
    count: int  # the leading poses the record may test
    note: Callable[[float], str] | None = None


def _errors(diff, ref):
    """Per pose: max |diff|, and that relative to max |ref| (infinite where ref is 0)."""
    err = np.abs(diff).max(axis=(-2, -1))
    size = np.abs(ref).max(axis=(-2, -1))
    return err, np.divide(err, size, out=np.full(err.shape, math.inf), where=size > 0)


def _first_refusal(statuses, count: int):
    """``(i, error)``: the first of the first ``count`` poses that one of ``statuses`` refuses,
    and the error of the first of them that does; ``(count, None)`` if none does."""
    if not any(s.refusals for s in statuses):
        return count, None
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
    """``(centers, failures)``: the ``random_coords`` poses resolved in one stack, split into
    the stack of the feasible ones (its rows, in order: a row is the same in any stack) and
    the refused ones as ``(coords, code)`` tuples."""
    coords = random_coords(cfg, n, seed)
    stack = resolve_many(cfg, coords)
    failures = [(c, code) for c, code in zip(coords, stack.status.codes()) if code != "ok"]
    return stack.take(np.flatnonzero(stack.status.ok)), failures


def check_table(cfg: ManipulatorConfig, centers: PlatformPose):
    """``(rows, opposite)``: the ``CheckRow`` of each pose-wise record at the poses ``centers``
    that ``resolve_many`` resolved, and the opposite plan's refusal at the first pose or None.
    A row computes errors only at the poses it leaves "ok": the seven checks, plan equivalence
    at the first 25 and the rejected variants at the first 10, both up to the first refusal of
    the oracles, the chain or the PUS-normal rows (the flipped block refuses what G^T does)."""
    n = len(centers.q)
    n_unit, n_bf = min(25, n), min(BRUTE_FORCE_POSES, n)
    rows = fd_rows(cfg, centers)  # read by the FD oracles and the brute force's first step
    tangent, fd_ik = fd_oracles(cfg, centers, rows)
    T, FD = tangent.value, fd_ik.value
    (G, fwd, V_p), sel, V_ps, J_dh, _, k, rec = dhj._chain(centers, PRIMARY_PLAN)
    _, _, V_ps_alt, _, _, k_alt, rec_alt = dhj._chain(centers, ALTERNATE_PLAN, (G, fwd, V_p))
    scale = 0.001
    cfg_m = cfg.scaled(scale)
    *_, k_m, rec_m = dhj._chain(
        resolve_many(cfg_m, centers.coords[:n_unit] * [scale, scale, 1, 1]), PRIMARY_PLAN)
    first = range(n_bf)
    bf = _brute_force_dhj(cfg, centers, sel, rows) if n_bf == n else _brute_force_dhj(
        cfg, centers.take(first), SelectionMatrix(sel.S[:n_bf], sel.status.take(first)),
        rows.take(range(8 * n_bf)))
    block = forward_map.block_Ja(G)
    # where the block route is BlockSingular, the documented fallback is direct inversion
    J_b = np.where(block.status.ok[:, None, None], block.value, fwd.J_a)
    cols = list(CONSTRAINED_COLS)
    G_normal = screws.pus_normal_rows(centers)
    table = []

    def row(name, threshold, statuses, errors, count=n, note=None):
        """``errors(i)``: the (abs, rel) errors, or the absolute one, at the poses ``i``."""
        i = slice(count) if not any(s.refusals for s in statuses) else np.flatnonzero(
            np.logical_and.reduce([s.ok[:count] for s in statuses]))
        err = errors(i)
        abs_err, rel_err = np.full(n, math.nan), np.full(n, math.nan)
        abs_err[i], rel_err[i] = err if isinstance(err, tuple) else (err, err)
        table.append(CheckRow(name, threshold, abs_err, rel_err, statuses, count, note))

    row("actuation_rows_vs_fd_ik", 1e-5, (tangent.status, fd_ik.status, rec),
        lambda i: _errors(G.G_a_T[i] @ T[i] - FD[i], FD[i]))
    row("constraint_rows_annihilate_tangent", 1e-7, (tangent.status, rec),
        lambda i: np.abs(G.G_c_T[i] @ T[i]).max(axis=(-2, -1)))
    row("inversion_residual", 1e-10, (rec,),
        lambda i: np.abs(G.stacked[i] @ fwd.J[i] - np.eye(6)).max(axis=(-2, -1)))
    row("block_formula_vs_direct_inversion", 1e-9, (rec,),
        lambda i: _errors(J_b[i] - fwd.J_a[i], fwd.J_a[i]))
    row("selection_annihilates_constrained_freedoms", 1e-12, (rec, rec_alt),
        lambda i: np.maximum(np.abs(V_ps[i][..., cols]).max(axis=(-2, -1)),
                             np.abs(V_ps_alt[i][..., cols]).max(axis=(-2, -1))))
    row("dhj_vs_brute_force", 1e-5, (rec, bf.status),
        lambda i: _errors(bf.value[i] - J_dh[i], J_dh[i]), count=n_bf)
    row("cond_dhj_unit_invariance", 1e-9, (rec, rec_m),
        lambda i: np.abs(k[i] - k_m[i]) / k[i], count=n_unit)
    # measured and recorded: the discrepancy itself is the result (k is finite where ok)
    row("plan_equivalence_cond_dhj", math.inf, (rec, rec_alt),
        lambda i: np.abs(k[i] - k_alt[i]) / k[i], count=n_unit,
        note=lambda dev: "plans agree to 1e-6" if dev < 1e-6 else (
            f"measured discrepancy {dev:.6g} between primary and alternate plans "
            f"(documented, not an equality failure)"))
    for name, Gv in (("pus_normal_rows", G_normal),
                     ("flipped_moment_block", screws.flip_moment_blocks(G))):
        row(name, math.inf, (tangent.status, fd_ik.status, rec, G_normal.status),
            lambda i, Gv=Gv: _errors(Gv.G_a_T[i] @ T[i] - FD[i], FD[i]), count=min(10, n),
            note=lambda err: "rejected formula variant")
    return table, (rec.error(0) or build_selection_matrix(
        OPPOSITE_PLAN, centers.a[:1]).status.error(0)) if n else None


def summarize(rows, coords) -> dict[str, dict]:
    """Each ``check_table`` row's record, by name, as the report writes it under "checks";
    ``coords`` are the poses.  A check refused among its first ``count`` poses reports
    infinite errors and that pose's code and coords; a measurement, and a check with no
    refusal, the worst errors before the first."""
    reports = {}
    for r in rows:
        tested, exc = _first_refusal(r.statuses, r.count)
        # the largest error and 0, as a running max from 0 finds it
        worst_abs, worst_rel = (max([0.0, *e[:tested].tolist()]) for e in (r.abs_err, r.rel_err))
        if r.note is not None:
            note, passed = exc.code if exc is not None else r.note(worst_rel), tested > 0
        elif exc is not None:
            worst_abs = worst_rel = math.inf
            note, passed = f"{exc.code} at {tuple(round(c, 4) for c in coords[tested])}", False
        else:
            note = "" if tested else "no feasible poses"
            passed = tested > 0 and worst_rel < r.threshold
        reports[r.name] = {"name": r.name, "max_abs_err": worst_abs, "max_rel_err": worst_rel,
                           "threshold": r.threshold, "passed": passed, "poses_tested": tested,
                           "note": note}
    return reports


def run_validation(cfg: ManipulatorConfig, seed: int = DEFAULT_SEED,
                   n_poses: int = 100) -> dict:
    """Run every oracle over the stack of the feasible sampled poses (the brute force over
    its first BRUTE_FORCE_POSES); returns the JSON-serializable validation report
    (ConfigError for a negative seed or no pose to sample)."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n_poses < 1:
        raise ConfigError(f"at least one pose is needed, got {n_poses}")
    centers, failures = sample_poses(cfg, n_poses, seed)
    rows, opposite = check_table(cfg, centers)
    reports = summarize(rows, centers.coords.tolist())  # Python floats, as the notes round them
    variants = {
        "actuation_rows": {
            "adopted": "unit link-direction force rows for all limbs (for PRS "
                       "limbs this is also the reciprocal-screw row, the link "
                       "being perpendicular to the revolute axis)",
            "rejected_pus_normal_rows_max_rel_err": reports.pop("pus_normal_rows")["max_rel_err"],
        },
        "moment_block": {
            "adopted": "a_i x u_i (power balance with the shifting property)",
            "rejected_u_x_a_max_rel_err": reports.pop("flipped_moment_block")["max_rel_err"],
        },
        "selection_normalization": {
            "adopted": "y-pair weights divided by |a_ix - a_jx|; the signed "
                       "difference would collapse the v_y and v_z columns of "
                       "the restricted nominal map to all-ones (rank-deficient "
                       "for every plan)",
        },
        "opposite_pair_plan": {
            "pairs": OPPOSITE_PLAN.pair_strings(),
            "status": "valid" if opposite is None else (
                f"degenerate at this geometry: {opposite}"
                if isinstance(opposite, DegeneratePair) else opposite.code),
            "substitute_used": ALTERNATE_PLAN.pair_strings(),
        },
    }
    mob, f = tsai_mobility(cfg.mobility), cfg.limb_count
    checks = [*reports.values(), {  # the records left once the variants are taken
        "name": "tsai_mobility_matches_limb_count", "max_abs_err": float(abs(mob - f)),
        "max_rel_err": float(abs(mob - f)), "threshold": 1.0, "passed": mob == f,
        "poses_tested": 0, "note": f"formula gives {mob} for f = {f}"}]
    return {
        "seed": seed,
        "unit": cfg.unit,
        "poses_requested": n_poses,
        "poses_feasible": len(centers.q),
        "pose_failures": [{"coords": list(c), "code": code} for c, code in failures[:10]],
        "checks": checks,
        "variants": variants,
        "all_passed": all(c["passed"] for c in checks),
    }
