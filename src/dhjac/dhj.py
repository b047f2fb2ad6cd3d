"""Dimensionally homogeneous Jacobian, condition numbers, unit experiments.

The pose -> J_dh chain is written once, over a stack of poses: resolve the
poses and their IK (``model.resolve_many``), stack G^T (``screws``), invert
it (``forward_map``), build S and V_p (``selection``, ``pointmap``) and read
the singular values of J_dh = S V_p J_a.  Each stage that can refuse records
in a ``Status`` the refusal a pose would raise alone, and a pose keeps the
first, so every pose of a stack gets the outcome it gets alone.
``condition_numbers_at`` runs the chain on the N poses of a block of grid rows,
and ``grid_conditions`` runs it over whole grids, a block at a time, on a
second CPU where there is one;
``dexterity_at`` runs it on the stack of one that ``resolve_pose`` returns,
raises its refusal, and returns every intermediate that ``dhjac pose`` reads.

Singular values come from LAPACK (``np.linalg.svd``); the test suite
cross-checks them against an independent symmetric eigensolve of M^T M.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import screws
from .errors import SingularSelection
from .forward_map import (COND_LIMIT, ForwardJacobian, cond_from_sigmas, invert_full,
                          singular_values)
from .model import ManipulatorConfig, PlatformPose, resolve_many, resolve_pose
from .pointmap import build_Vp
from .screws import InverseJacobian
from .selection import PRIMARY_PLAN, SelectionPlan, build_selection_matrix, nominal_map


def assemble_dhj(V_ps: np.ndarray, J_a: np.ndarray) -> np.ndarray:
    """J_dh = V_ps J_a (N, f, f) mapping actuated joint rates to nominal velocities.

    Shapes that do not chain raise ValueError (from the product itself).
    """
    return np.asarray(V_ps, float) @ np.asarray(J_a, float)


@dataclass
class DexterityRecord:
    """Everything dexterity-related at one pose; ``pose``, ``G`` and ``fwd`` are stacks of one."""

    pose: PlatformPose      # carries the IK: joints ``pose.q``, links ``pose.link``
    G: InverseJacobian      # G_a^T, G_c^T and the stacked G^T
    fwd: ForwardJacobian    # (G^T)^-1, J_a and cond(G^T)
    S: np.ndarray           # (f, 3f) extended selection matrix
    V_ps: np.ndarray        # (f, 6) nominal map S V_p
    J_dh: np.ndarray        # (f, f)
    sigmas: np.ndarray      # (f,) singular values of J_dh, descending
    k: float                # cond(J_dh)
    unit: str
    plan: SelectionPlan

    @property
    def k_conventional(self) -> float:
        """cond of the stacked G^T."""
        return self.fwd.cond_GT[0]


def _chain(pose: PlatformPose, plan: SelectionPlan, shared=None):
    """G^T -> J_dh at N resolved poses: ``(shared, sel, V_ps, J_dh, sigmas, k, status)``, stacked.

    ``shared`` is ``(G, fwd, V_p)``: G^T, its inverse and the point map, which
    depend on the pose only, so a chain at the same poses under another plan
    takes them from an earlier one; ``sel`` is the plan's ``SelectionMatrix``.
    ``status`` holds each pose's first refusal from ``pose.status`` on; a
    cond(J_dh) over COND_LIMIT (the rule of ``invert_full``) is SingularSelection.
    """
    sel = build_selection_matrix(plan, pose.a)  # a plan of the wrong length raises here
    if shared is None:
        G = screws.build_inverse_jacobian(pose)
        shared = G, invert_full(G), build_Vp(pose.a)
    G, fwd, V_p = shared
    V_ps = nominal_map(sel, V_p)
    J_dh = assemble_dhj(V_ps, fwd.J_a)
    sv = singular_values(J_dh)
    k = cond_from_sigmas(sv)
    status = pose.status.then(G.status, fwd.status, sel.status)
    status.refuse(~(k <= COND_LIMIT), SingularSelection,
                  lambda i: f"cond(J_dh) = {k[i]:.3e} exceeds {COND_LIMIT:.1e}", value=k)
    return shared, sel, V_ps, J_dh, sv, k, status


def dexterity_at(
    cfg: ManipulatorConfig,
    y: float,
    z: float,
    theta: float,
    psi: float,
    plan: SelectionPlan = PRIMARY_PLAN,
) -> DexterityRecord:
    """Full pipeline at one pose: resolve (with IK), G^T, J_a, S, V_ps, J_dh.

    Raises the typed refusal of the first failing stage.
    """
    pose = resolve_pose(cfg, y, z, theta, psi)
    (G, fwd, _), sel, V_ps, J_dh, sv, k, status = _chain(pose, plan)
    status.check()
    return DexterityRecord(
        pose=pose, G=G, fwd=fwd, S=sel.S[0], V_ps=V_ps[0], J_dh=J_dh[0], sigmas=sv[0],
        k=k[0], unit=cfg.unit, plan=plan,
    )


def condition_numbers_at(
    cfg: ManipulatorConfig,
    y,
    z,
    theta,
    psi,
    plan: SelectionPlan = PRIMARY_PLAN,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """cond(G^T) and cond(J_dh) at N poses, the chain of ``dexterity_at`` on a stack.

    The coordinates broadcast to one 1-D shape (N,).  Returns ``(status,
    cond_G, cond_Jdh)``: N codes, "ok" or the ``KinematicsError.code`` that
    ``dexterity_at`` raises at that pose, and two float arrays, NaN where the
    status is not "ok".  A plan whose row count is not the limb count raises
    ConfigError before G^T is built.
    """
    coords = np.stack(np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, float)) for v in (y, z, theta, psi))), axis=1)
    (_, fwd, _), *_, k, status = _chain(resolve_many(cfg, coords), plan)
    ok = status.ok
    return status.codes(), np.where(ok, fwd.cond_GT, math.nan), np.where(ok, k, math.nan)


#: the most poses per ``condition_numbers_at`` call when a grid is evaluated (one theta row
#: where a row is longer); the chain's working arrays peak at 4.7 MiB for a block that full
#: (tracemalloc), and ``grid_conditions`` keeps two blocks in flight
GRID_BLOCK_POSES = 2048


def _cpus() -> int:
    """The CPUs this process may run on."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def grid_conditions(runs, thetas, psis, plan: SelectionPlan = PRIMARY_PLAN):
    """``condition_numbers_at`` of each run over a grid, one block of whole theta rows at a time.

    ``runs`` holds ``(cfg, y, z)`` triples; ``thetas`` and ``psis`` are the
    radian axes.  The blocks are the fewest of whole theta rows that keep to
    GRID_BLOCK_POSES poses (one row per block where a row is longer), one more
    where blocks times runs would be odd and a row is left to give, and the
    rows are dealt out evenly (``np.array_split``); an empty theta axis makes
    no block.  Yields ``(theta, psi, results)`` per block, theta outer, in
    order, with one ``(status, cond_G, cond_Jdh)`` per run.  The jobs are
    the blocks times the runs, row-major: the caller runs the even ones, and
    one worker thread the odd ones, each submitted just before the caller
    starts the job ahead of it and run in the caller's ``contextvars``
    context (numpy's ``errstate`` lives there).  A pose's arithmetic does not
    depend on its stack or its thread, so the results are those of a serial
    loop.  A job's exception surfaces at its place in the order, after the
    blocks ahead of it, and the worker is joined before the call returns or
    raises.  On one CPU every job runs in the caller; no thread starts there,
    nor for a grid of one job.
    """
    thetas, psis = np.asarray(thetas, float), np.asarray(psis, float)
    count = -(-len(thetas) // max(1, GRID_BLOCK_POSES // max(len(psis), 1)))
    if count * len(runs) % 2 and count < len(thetas):
        count += 1
    blocks = [(np.repeat(rows, len(psis)), np.tile(psis, len(rows)))
              for rows in np.array_split(thetas, count)] if count else []
    jobs = len(blocks) * len(runs)

    def job(i):
        th, ps = blocks[i // len(runs)]
        cfg, y, z = runs[i % len(runs)]
        return condition_numbers_at(cfg, y, z, th, ps, plan=plan)

    def evaluate(submit):
        # submit(i) starts job i and returns the call that gives its result
        results, ahead = [], None
        for i in range(jobs):
            if i % 2:
                results.append(ahead())
            else:
                ahead = submit(i + 1) if i + 1 < jobs else None
                results.append(job(i))
            if len(results) == len(runs):
                yield (*blocks[i // len(runs)], results)
                results = []

    if _cpus() < 2:
        yield from evaluate(lambda i: functools.partial(job, i))
        return
    import contextvars
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        yield from evaluate(lambda i: pool.submit(contextvars.copy_context().run, job, i).result)


#: invariance gate on cond(J_dh) between unit systems
UNIT_INVARIANCE_TOL = 1e-9
#: cond(G^T) is expected to move at least this much somewhere in the grid
UNIT_SENSITIVITY_FLOOR = 0.10


def unit_scaling_experiment(
    cfg: ManipulatorConfig,
    thetas,
    psis,
    y: float = 0.0,
    z: float = 150.0,
    scale: float = 0.001,
    plan: SelectionPlan = PRIMARY_PLAN,
) -> dict:
    """Evaluate cond(G^T) and cond(J_dh) on a grid in two unit systems.

    The scaled run multiplies every config length and the translational pose
    coordinates by ``scale`` (0.001 = the millimeter-to-meter experiment).
    Cells where the pipeline fails are reported with their reason code and
    excluded from the deviation statistics.  A scale that is not finite and
    positive raises ConfigError.
    """
    cfg_b = cfg.scaled(scale)
    cells = []
    devs_dh, devs_G = [], []
    runs = [(cfg, y, z), (cfg_b, y * scale, z * scale)]
    for th, ps, ((st_a, kG_a, kdh_a), (st_b, kG_b, kdh_b)) in grid_conditions(
            runs, thetas, psis, plan):
        for t, p, s_a, s_b, k_G_a, k_G_b, k_dh_a, k_dh_b in zip(
                th.tolist(), ps.tolist(), st_a, st_b, kG_a.tolist(), kG_b.tolist(),
                kdh_a.tolist(), kdh_b.tolist()):
            if s_a != "ok" or s_b != "ok":
                cells.append({"theta": t, "psi": p, "status": s_a if s_a != "ok" else s_b})
                continue
            cells.append({"theta": t, "psi": p, "status": "ok",
                          "k_G_base": k_G_a, "k_G_scaled": k_G_b,
                          "k_dh_base": k_dh_a, "k_dh_scaled": k_dh_b})
            # "ok" cells carry finite condition numbers (both are capped at COND_LIMIT)
            devs_dh.append(abs(k_dh_a - k_dh_b) / k_dh_a)
            devs_G.append(abs(k_G_a - k_G_b) / k_G_a)
    max_dev_dh = max(devs_dh, default=math.nan)
    max_dev_G = max(devs_G, default=math.nan)
    return {
        "unit_base": cfg.unit,
        # a supported unit names the scaled run only when the scale lands on it; a unit
        # lands on itself at a scale of 1 only
        "unit_scaled": cfg_b.unit if cfg_b.unit != cfg.unit or scale == 1.0
        else f"{cfg.unit}x{scale:g}",
        "scale": scale,
        "plan": plan.pair_strings(),
        "cells": cells,
        "evaluated": len(devs_dh),
        "skipped": sum(1 for c in cells if c["status"] != "ok"),
        "max_rel_dev_k_dh": max_dev_dh,
        "max_rel_dev_k_G": max_dev_G,
        "k_dh_invariant": bool(max_dev_dh < UNIT_INVARIANCE_TOL) if devs_dh else False,
        "k_G_unit_sensitive": bool(max_dev_G > UNIT_SENSITIVITY_FLOOR) if devs_G else False,
    }
