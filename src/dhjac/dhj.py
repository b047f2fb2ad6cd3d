"""Dimensionally homogeneous Jacobian, condition numbers, unit experiments.

The pose -> J_dh chain is written in two forms:

* ``dexterity_at`` is the per-pose form and the reference.  It builds the
  full record (limbs, G^T, the forward map, S, V_ps, J_dh) that ``dhjac
  pose`` and the validation checks read, and it is the only place that
  raises the typed refusals.
* ``condition_numbers_at`` is the batched form that serves grids
  (``dhjac sweep``, ``unit_scaling_experiment``, one theta row per call).
  Its kinematics (pose resolution and IK) are ``model.resolve_many``, the
  batched form of ``resolve_pose``; from there it carries only the two
  condition numbers through array code with the same constants and guards,
  and hands every pose a guard flags back to ``dexterity_at``.  Its numbers
  agree with the per-pose form to about 1e-13 relative (rounding order
  only); the tests hold it to 1e-12.

Singular values come from LAPACK (``np.linalg.svd``); the test suite
cross-checks them against an independent symmetric eigensolve of M^T M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import screws
from .errors import KinematicsError, MixedActuation, SingularSelection
from .forward_map import (COND_LIMIT, SIGMA_FLOOR, ForwardJacobian, cond_from_sigmas,
                          invert_full, singular_values)
from .model import (UNIT_SCALES, ManipulatorConfig, PlatformPose, collinear, resolve_many,
                    resolve_pose)
from .pointmap import build_Vp
from .screws import DENOMINATOR_THRESHOLD, InverseJacobian
from .selection import (PAIR_THRESHOLD, PRIMARY_PLAN, SelectionPlan,
                        build_selection_matrix, nominal_map)


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
    """Full pipeline at one pose: resolve (with IK), G^T, J_a, S, V_ps, J_dh.

    Raises the typed refusal of the failing stage; a J_dh whose condition
    number exceeds COND_LIMIT (the rule ``invert_full`` applies to G^T)
    raises SingularSelection.
    """
    pose = resolve_pose(cfg, y, z, theta, psi)
    G = screws.build_inverse_jacobian(pose.limbs)
    fwd = invert_full(G)
    pts = [limb.a for limb in pose.limbs]
    sel = build_selection_matrix(plan, pts)
    V_ps, _ = nominal_map(sel, build_Vp(pts))
    J_dh = assemble_dhj(V_ps, fwd.J_a)
    sv = singular_values(J_dh)
    k = cond_from_sigmas(sv)
    if not k <= COND_LIMIT:
        raise SingularSelection(f"cond(J_dh) = {k:.3e} exceeds {COND_LIMIT:.1e}")
    return DexterityRecord(
        pose=pose, G=G, fwd=fwd, S=sel.S, V_ps=V_ps, J_dh=J_dh, sigmas=sv,
        k=k, unit=cfg.unit, plan=plan,
    )


def _conds(sv: np.ndarray) -> np.ndarray:
    """``cond_from_sigmas`` over a stack of descending singular values."""
    return np.divide(sv[:, 0], sv[:, -1], out=np.full(len(sv), math.inf),
                     where=sv[:, -1] >= SIGMA_FLOOR)


def condition_numbers_at(
    cfg: ManipulatorConfig,
    y,
    z,
    theta,
    psi,
    plan: SelectionPlan = PRIMARY_PLAN,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """cond(G^T) and cond(J_dh) at N poses, the chain of ``dexterity_at`` as array code.

    The coordinates broadcast to one 1-D shape (N,).  Returns ``(status,
    cond_G, cond_Jdh)``: N codes, "ok" or the ``KinematicsError.code`` that
    ``dexterity_at`` raises at that pose, and two float arrays, NaN where the
    status is not "ok".  A pose that any guard of the chain flags
    (non-finite or out-of-envelope coordinates, a failed Newton solve, no
    IK solution, a vanishing row denominator, cond(G^T) over COND_LIMIT, a
    degenerate pair, collinear anchors, cond(J_dh) over COND_LIMIT) is
    evaluated again by ``dexterity_at``, so refusals and their codes come
    from the per-pose path.
    """
    y, z, th, ps = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, float)) for v in (y, z, theta, psi)))
    n = len(th)
    cond_G, cond_Jdh = np.full(n, math.nan), np.full(n, math.nan)
    _, origin, B, q, ok = resolve_many(cfg, np.stack([y, z, th, ps], axis=1))
    live = np.flatnonzero(ok if plan.f == cfg.limb_count else np.zeros(n, bool))
    origin, B, q = origin[live], B[live], q[live]
    A = cfg.base_points()
    link = np.stack([B[..., 0] - A[:, 0], B[..., 1] - A[:, 1], B[..., 2] - q], axis=-1)
    a = B - origin[:, None, :]                           # platform origin -> B

    # G^T: actuation rows along the links, constraint rows along the PRS x axes
    u = link / np.linalg.norm(link, axis=-1, keepdims=True)
    den = u[..., 2:]                                     # u . s1, s1 = z
    ok = (np.abs(den) >= DENOMINATOR_THRESHOLD).all(axis=(1, 2))
    live, a, u, den = live[ok], a[ok], u[ok], den[ok]
    f, prs = cfg.limb_count, cfg.prs_indices()
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    GT = np.zeros((len(live), f + len(prs), 6))
    GT[:, :f, :3] = u / den
    # a x u, term by term as np.cross
    GT[:, :f, 3:] = np.stack([a1 * u2 - a2 * u1, a2 * u0 - a0 * u2, a0 * u1 - a1 * u0],
                             axis=-1) / den
    GT[:, f:, 0] = 1.0                                   # s2 = x
    GT[:, f:, 4], GT[:, f:, 5] = a2[:, prs], -a1[:, prs]  # a x s2
    k_G = _conds(singular_values(GT))
    ok = k_G <= COND_LIMIT
    live, a, a0, a1, a2, GT, k_G = (v[ok] for v in (live, a, a0, a1, a2, GT, k_G))
    J_a = np.linalg.solve(GT, np.eye(6))[:, :, :f]

    # S from the anchors' x-coordinates, V_p = [I, -skew(a_i)] per anchor
    ax = a[..., 0]
    scale = np.maximum(np.abs(ax).max(axis=1), 1e-300)
    ok = ~collinear(a)
    for i, j in plan.pairs:
        ok &= np.abs(ax[:, i - 1] - ax[:, j - 1]) > PAIR_THRESHOLD * scale
    live, ax, J_a, k_G = live[ok], ax[ok], J_a[ok], k_G[ok]
    a0, a1, a2 = a0[ok], a1[ok], a2[ok]
    m = len(live)
    S = np.zeros((m, f, 3 * f))
    for r, (i, j) in enumerate(plan.pairs):
        delta = np.abs(ax[:, i - 1] - ax[:, j - 1])
        S[:, r, 3 * (i - 1) + 1] = -ax[:, j - 1] / delta
        S[:, r, 3 * (j - 1) + 1] = ax[:, i - 1] / delta
        S[:, r, 3 * (min(i, j) - 1) + 2] = 1.0
    V_p = np.zeros((m, f, 3, 6))
    V_p[:, :, [0, 1, 2], [0, 1, 2]] = 1.0
    V_p[..., 0, 4], V_p[..., 0, 5] = a2, -a1
    V_p[..., 1, 3], V_p[..., 1, 5] = -a2, a0
    V_p[..., 2, 3], V_p[..., 2, 4] = a1, -a0
    J_dh = S @ V_p.reshape(m, 3 * f, 6) @ J_a
    k_dh = _conds(singular_values(J_dh))
    ok = k_dh <= COND_LIMIT
    live = live[ok]
    cond_G[live], cond_Jdh[live] = k_G[ok], k_dh[ok]

    status = ["ok"] * n
    flagged = np.ones(n, bool)
    flagged[live] = False
    for i in np.flatnonzero(flagged):
        try:
            rec = dexterity_at(cfg, float(y[i]), float(z[i]), float(th[i]), float(ps[i]),
                               plan=plan)
        except KinematicsError as exc:
            status[i] = exc.code
            continue
        cond_G[i], cond_Jdh[i] = rec.k_conventional, rec.k
    return status, cond_G, cond_Jdh


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
    psis = np.asarray(psis, float)
    cells = []
    devs_dh, devs_G = [], []
    for th in thetas:
        # one call per theta row and unit system
        st_a, kG_a, kdh_a = condition_numbers_at(cfg, y, z, th, psis, plan=plan)
        st_b, kG_b, kdh_b = condition_numbers_at(cfg_b, y * scale, z * scale, th, psis,
                                                 plan=plan)
        for j, ps in enumerate(psis.tolist()):
            cell = {"theta": float(th), "psi": ps}
            if st_a[j] != "ok" or st_b[j] != "ok":
                cell["status"] = st_a[j] if st_a[j] != "ok" else st_b[j]
                cells.append(cell)
                continue
            k_G_a, k_G_b = float(kG_a[j]), float(kG_b[j])
            k_dh_a, k_dh_b = float(kdh_a[j]), float(kdh_b[j])
            cell.update(status="ok", k_G_base=k_G_a, k_G_scaled=k_G_b,
                        k_dh_base=k_dh_a, k_dh_scaled=k_dh_b)
            # "ok" cells carry finite condition numbers (both are capped at COND_LIMIT)
            devs_dh.append(abs(k_dh_a - k_dh_b) / k_dh_a)
            devs_G.append(abs(k_G_a - k_G_b) / k_G_a)
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
