"""Dimensionally homogeneous Jacobian, condition numbers, unit experiments.

``dexterity_at`` is the one place the pose -> J_dh chain is written; every
caller that needs an intermediate (limbs, G^T, the forward map, S, V_ps)
reads it from the returned record.  Singular values come from LAPACK
(``np.linalg.svd``); the test suite cross-checks them against an independent
symmetric eigensolve of M^T M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import screws
from .errors import KinematicsError, MixedActuation
from .forward_map import ForwardJacobian, cond_from_sigmas, invert_full, singular_values
from .model import UNIT_SCALES, ManipulatorConfig, PlatformPose, resolve_pose
from .pointmap import build_Vp
from .screws import InverseJacobian
from .selection import PRIMARY_PLAN, SelectionPlan, build_selection_matrix, nominal_map


def condition_number(M: np.ndarray) -> float:
    """2-norm condition (sigma_max / sigma_min); infinite below the floor."""
    return cond_from_sigmas(singular_values(M))


def assemble_dhj(V_ps: np.ndarray, J_a: np.ndarray) -> np.ndarray:
    """J_dh = V_ps J_a mapping actuated joint rates to nominal velocities."""
    V_ps = np.asarray(V_ps, float)
    J_a = np.asarray(J_a, float)
    if V_ps.shape[1] != J_a.shape[0]:
        raise ValueError(f"shape mismatch: V_ps {V_ps.shape} vs J_a {J_a.shape}")
    return V_ps @ J_a


@dataclass(frozen=True)
class DexterityRecord:
    """Everything dexterity-related evaluated at one pose, with its intermediates."""

    pose: PlatformPose      # carries the limb kinematics as ``pose.limbs``
    G: InverseJacobian      # stacked G^T and its blocks
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


def dexterity_at(
    cfg: ManipulatorConfig,
    y: float,
    z: float,
    theta: float,
    psi: float,
    plan: SelectionPlan = PRIMARY_PLAN,
) -> DexterityRecord:
    """Full pipeline at one pose: resolve (with IK), G^T, J_a, S, V_ps, J_dh."""
    pose = resolve_pose(cfg, y, z, theta, psi)
    G = screws.build_inverse_jacobian(pose.limbs)
    fwd = invert_full(G)
    pts = [limb.a for limb in pose.limbs]
    sel = build_selection_matrix(plan, pts)
    V_ps, _ = nominal_map(sel, build_Vp(pts))
    J_dh = assemble_dhj(V_ps, fwd.J_a)
    sv = singular_values(J_dh)
    return DexterityRecord(
        pose=pose, G=G, fwd=fwd, S=sel.S, V_ps=V_ps, J_dh=J_dh, sigmas=sv,
        k=cond_from_sigmas(sv), unit=cfg.unit, plan=plan,
    )


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
    for ti, th in enumerate(thetas):
        for pi, ps in enumerate(psis):
            cell = {"theta": float(th), "psi": float(ps)}
            try:
                rec_a = dexterity_at(cfg, y, z, th, ps, plan=plan)
                rec_b = dexterity_at(cfg_b, y * scale, z * scale, th, ps, plan=plan)
            except KinematicsError as exc:
                cell["status"] = exc.code
                cells.append(cell)
                continue
            cell.update(
                status="ok",
                k_G_base=rec_a.k_conventional, k_G_scaled=rec_b.k_conventional,
                k_dh_base=rec_a.k, k_dh_scaled=rec_b.k,
            )
            if math.isfinite(rec_a.k) and math.isfinite(rec_b.k):
                devs_dh.append(abs(rec_a.k - rec_b.k) / rec_a.k)
            if math.isfinite(rec_a.k_conventional) and math.isfinite(rec_b.k_conventional):
                devs_G.append(abs(rec_a.k_conventional - rec_b.k_conventional)
                              / rec_a.k_conventional)
            cells.append(cell)
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


_POWER_NAMES = {-1: "1/{u}", 0: "1", 1: "{u}"}


def _unit_name(power: int, unit: str) -> str:
    return _POWER_NAMES.get(power, "{u}^" + str(power)).format(u=unit)


def dimensional_audit(cfg: ManipulatorConfig) -> dict:
    """Symbolic length powers of every pipeline block plus a homogeneity check.

    Linear actuation must yield a dimensionless J_dh; rotational actuation a
    J_dh with one uniform power of length.  Raises MixedActuation otherwise.
    """
    if cfg.actuator_kind == "mixed":
        raise MixedActuation("mixed linear/rotational actuation is out of scope")
    row_units = screws.actuation_row_units(cfg)
    u = cfg.unit
    vp_v, vp_w, s_pow = 0, 1, 0
    jdh_from_v = s_pow + vp_v + row_units.j_linear
    jdh_from_w = s_pow + vp_w + row_units.j_angular
    homogeneous = jdh_from_v == jdh_from_w
    table = {
        "V_p_translation_block": _unit_name(vp_v, u),
        "V_p_moment_block": _unit_name(vp_w, u),
        "S": _unit_name(s_pow, u),
        "G_av_T": _unit_name(row_units.g_linear, u),
        "G_aw_T": _unit_name(row_units.g_angular, u),
        "J_a1": _unit_name(row_units.j_linear, u),
        "J_a2": _unit_name(row_units.j_angular, u),
        "J_dh": _unit_name(jdh_from_v, u) if homogeneous else "inhomogeneous",
    }
    return {
        "actuator": cfg.actuator_kind,
        "unit": u,
        "blocks": table,
        "J_dh_length_power": jdh_from_v if homogeneous else None,
        "homogeneous": homogeneous,
    }
