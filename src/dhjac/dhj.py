"""Dimensionally homogeneous Jacobian, condition numbers, unit experiments.

The pose -> J_dh chain is written once, over a stack of poses: resolve the
poses and their IK (``model.resolve_many``), stack G^T (``screws``), invert
it (``forward_map``), build S and V_p (``selection``, ``pointmap``) and read
the singular values of J_dh = S V_p J_a.  Each stage that can refuse records
in a ``Status`` the refusal a pose would raise alone, and a pose keeps the
first, so every pose of a stack gets the outcome it gets alone.
``condition_numbers_at`` runs the chain on the N poses of a block of grid rows;
``dexterity_at`` runs it on one pose (``resolve_pose`` is a stack of one),
raises its refusal, and returns every intermediate that ``dhjac pose`` and
the validation checks read.

Singular values come from LAPACK (``np.linalg.svd``); the test suite
cross-checks them against an independent symmetric eigensolve of M^T M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import screws
from .errors import SingularSelection
from .forward_map import (COND_LIMIT, ForwardJacobian, cond_from_sigmas, invert_full,
                          singular_values)
from .model import UNIT_SCALES, ManipulatorConfig, PlatformPose, resolve_many, resolve_pose
from .pointmap import build_Vp
from .screws import InverseJacobian
from .selection import PRIMARY_PLAN, SelectionPlan, build_selection_matrix, nominal_map


def condition_number(M: np.ndarray) -> float:
    """2-norm condition (sigma_max / sigma_min); infinite below the floor."""
    return cond_from_sigmas(singular_values(M))


def assemble_dhj(V_ps: np.ndarray, J_a: np.ndarray) -> np.ndarray:
    """J_dh = V_ps J_a mapping actuated joint rates to nominal velocities.

    Shapes that do not chain raise ValueError (from the product itself).
    """
    return np.asarray(V_ps, float) @ np.asarray(J_a, float)


@dataclass
class DexterityRecord:
    """Everything dexterity-related evaluated at one pose, with its intermediates."""

    pose: PlatformPose      # carries the IK: joints ``pose.q``, links ``pose.link``
    G: InverseJacobian      # G_a^T, G_c^T and the stacked G^T
    fwd: ForwardJacobian    # (G^T)^-1, J_a and cond(G^T)
    S: np.ndarray           # extended selection matrix
    V_ps: np.ndarray        # nominal map S V_p
    J_dh: np.ndarray
    sigmas: np.ndarray      # singular values of J_dh, descending
    k: float                # cond(J_dh)
    unit: str
    plan: SelectionPlan

    @property
    def k_conventional(self) -> float:
        """cond of the stacked G^T."""
        return self.fwd.cond_GT


def _chain(pose: PlatformPose, plan: SelectionPlan, inverse=None):
    """G^T -> J_dh at one resolved pose or a stack: ``(G, fwd, S, V_ps, J_dh, sigmas, k, status)``.

    ``status`` holds each pose's first refusal from ``pose.status`` on; a
    cond(J_dh) over COND_LIMIT (the rule of ``invert_full``) is SingularSelection.
    ``inverse`` is the ``(G, fwd)`` of an earlier chain at the same poses under
    another plan: G^T and its inverse depend on the pose only.
    """
    sel = build_selection_matrix(plan, pose.a)  # a plan of the wrong length raises here
    if inverse is None:
        G = screws.build_inverse_jacobian(pose)
        inverse = G, invert_full(G)
    G, fwd = inverse
    V_ps = nominal_map(sel, build_Vp(pose.a))
    J_dh = assemble_dhj(V_ps, fwd.J_a)
    sv = singular_values(J_dh)
    k = cond_from_sigmas(sv)
    status = pose.status.then(G.status, fwd.status, sel.status)
    status.refuse(~(k <= COND_LIMIT), SingularSelection,
                  lambda i: f"cond(J_dh) = {k[i]:.3e} exceeds {COND_LIMIT:.1e}", value=k)
    return G, fwd, sel.S, V_ps, J_dh, sv, k, status


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
    G, fwd, S, V_ps, J_dh, sv, k, status = _chain(pose, plan)
    status.check()
    return DexterityRecord(
        pose=pose, G=G, fwd=fwd, S=S, V_ps=V_ps, J_dh=J_dh, sigmas=sv,
        k=k, unit=cfg.unit, plan=plan,
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
    _, fwd, _, _, _, _, k, status = _chain(resolve_many(cfg, coords), plan)
    ok = status.ok
    return status.codes(), np.where(ok, fwd.cond_GT, math.nan), np.where(ok, k, math.nan)


#: poses per ``condition_numbers_at`` call when a grid is evaluated; the
#: chain's working arrays for a block of that many poses peak near 5 MB
GRID_BLOCK_POSES = 2048


def grid_blocks(thetas, psis):
    """The (theta, psi) grid, theta outer, in blocks of whole theta rows.

    Yields the ``(theta, psi)`` of every pose of a block as two flat arrays;
    a block holds at most GRID_BLOCK_POSES poses, or one row if a row is longer.
    """
    thetas, psis = np.asarray(thetas, float), np.asarray(psis, float)
    step = max(1, GRID_BLOCK_POSES // max(len(psis), 1))
    for start in range(0, len(thetas), step):
        rows = thetas[start:start + step]
        yield np.repeat(rows, len(psis)), np.tile(psis, len(rows))


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
    # a supported unit names the scaled run only when the scale lands on it
    target = UNIT_SCALES[cfg.unit] * scale
    scaled_unit = next((u for u, f in UNIT_SCALES.items() if f == target), None)
    cfg_b = cfg.scaled(scale, unit=scaled_unit)
    cells = []
    devs_dh, devs_G = [], []
    for th, ps in grid_blocks(thetas, psis):
        # one call per block of whole theta rows and unit system
        st_a, kG_a, kdh_a = condition_numbers_at(cfg, y, z, th, ps, plan=plan)
        st_b, kG_b, kdh_b = condition_numbers_at(cfg_b, y * scale, z * scale, th, ps,
                                                 plan=plan)
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
        "unit_scaled": scaled_unit or f"{cfg.unit}x{scale:g}",
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
