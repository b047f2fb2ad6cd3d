"""The pose -> J_dh chain written one pose and one limb at a time.

A second writing of what ``dhjac.dhj`` computes over stacks of poses, kept
as the reference the stacked chain is compared against: a damped Newton on
Python floats for the dependent coordinates (where the package solves them in
closed form), loops over the limbs for the IK and the rows of G^T, and one
matrix per pose for every product.  It shares only the constants with the
package, and keeps those of its Newton to itself.
"""

import math

import numpy as np

from dhjac.errors import (DegeneratePair, SingularConfiguration, SingularLimb, SingularSelection,
                          Unreachable)
from dhjac.forward_map import COND_LIMIT, SIGMA_FLOOR
from dhjac.model import ENVELOPE_SLACK, IK_CLAMP
from dhjac.screws import DENOMINATOR_THRESHOLD
from dhjac.selection import PAIR_THRESHOLD

X_HAT = np.array([1.0, 0.0, 0.0])

RESOLVE_TOL = 1e-12  # Newton tolerance on the plane residuals, relative to r_b
RESOLVE_MAX_ITER = 50
#: the 2x2 Newton system is singular when |det| < RESOLVE_DET_RTOL * max|jac|^2
RESOLVE_DET_RTOL = 1e-14
#: step halvings of the line search before the damped Newton gives up
RESOLVE_HALVINGS = 25


def _rotation(theta, psi, phi):
    """Rx(theta) @ Ry(psi) @ Rz(phi)."""
    ct, st, cp, sp, cf, sf = (f(t) for t in (theta, psi, phi) for f in (math.cos, math.sin))
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, ct, -st], [0.0, st, ct]])
    Ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    Rz = np.array([[cf, -sf, 0.0], [sf, cf, 0.0], [0.0, 0.0, 1.0]])
    return Rx @ Ry @ Rz


def _plane_residuals(cfg, cos_psi, x, phi):
    """B_ix - A_ix of the two PRS limbs and their phi-derivatives."""
    P, A = cfg.platform_points(), cfg.base_points()
    c, s = math.cos(phi), math.sin(phi)
    res = [x + cos_psi * (c * P[i, 0] - s * P[i, 1]) - A[i, 0] for i in cfg.prs_indices()]
    dres = [-cos_psi * (s * P[i, 0] + c * P[i, 1]) for i in cfg.prs_indices()]
    return res, dres


def scalar_resolve(cfg, y, z, theta, psi):
    """(rotation, origin) of one pose; raises Unreachable, also where the Newton fails."""
    if not all(map(math.isfinite, (y, z, theta, psi))):
        raise Unreachable("coordinates not finite")
    lim = math.radians(cfg.envelope_deg) + ENVELOPE_SLACK
    if abs(theta) > lim or abs(psi) > lim:
        raise Unreachable("outside the envelope")
    tol = RESOLVE_TOL * cfg.base_radius
    cos_psi = math.cos(psi)
    x = phi = 0.0
    res, dres = _plane_residuals(cfg, cos_psi, x, phi)
    norm = max(map(abs, res))
    for _ in range(RESOLVE_MAX_ITER):
        if norm < tol:
            break
        det = dres[1] - dres[0]
        if abs(det) < RESOLVE_DET_RTOL * max(1.0, abs(dres[0]), abs(dres[1])) ** 2:
            raise Unreachable("dependent-coordinate system singular")
        dx, dphi = np.linalg.solve([[1.0, dres[0]], [1.0, dres[1]]], [-res[0], -res[1]])
        lam = 1.0
        for _ in range(RESOLVE_HALVINGS):
            res_t, dres_t = _plane_residuals(cfg, cos_psi, x + lam * dx, phi + lam * dphi)
            norm_t = max(map(abs, res_t))
            if norm_t < norm or norm_t < tol:
                break
            lam *= 0.5
        else:
            raise Unreachable("damped Newton made no progress")
        x, phi = x + lam * dx, phi + lam * dphi
        res, dres, norm = res_t, dres_t, norm_t
    else:
        raise Unreachable("dependent-coordinate Newton exhausted its iterations")
    return _rotation(theta, psi, phi), np.array([x, y, z])


def _cond(M):
    sv = np.linalg.svd(M, compute_uv=False)
    return math.inf if sv[-1] < SIGMA_FLOOR else float(sv[0] / sv[-1])


def scalar_condition_numbers(cfg, y, z, theta, psi, plan):
    """(cond(G^T), cond(J_dh)) at one pose, or the refusal of its first failing stage."""
    R, origin = scalar_resolve(cfg, y, z, theta, psi)
    P, A, L = cfg.platform_points(), cfg.base_points(), cfg.link_length
    f = cfg.limb_count
    # the IK of every limb before any row of G^T, the order in which the pipeline refuses
    anchors, links = [], []
    for i in range(f):
        B = origin + R @ P[i]
        disc = L * L - (B[0] - A[i, 0]) ** 2 - (B[1] - A[i, 1]) ** 2
        if -IK_CLAMP * L * L <= disc < 0.0:
            disc = 0.0
        if disc < 0.0:
            raise Unreachable(f"limb {i + 1} out of reach")
        links.append(B - (A[i] + (B[2] - math.sqrt(disc)) * np.array([0.0, 0.0, 1.0])))
        anchors.append(B - origin)
    actuation, constraint = [], []
    for i, (spec, a, link) in enumerate(zip(cfg.limbs, anchors, links)):
        u = link / np.linalg.norm(link)
        if abs(u[2]) < DENOMINATOR_THRESHOLD:
            raise SingularLimb(f"limb {i + 1}")
        actuation.append(np.concatenate([u, np.cross(a, u)]) / u[2])
        if spec.kind == "PRS":
            constraint.append(np.concatenate([X_HAT, np.cross(a, X_HAT)]))
    GT = np.array(actuation + constraint)
    k_G = _cond(GT)
    if not k_G <= COND_LIMIT:
        raise SingularConfiguration(f"cond(G^T) = {k_G:.3e}")
    J_a = np.linalg.solve(GT, np.eye(6))[:, :f]

    ax = [a[0] for a in anchors]
    scale = max(max(abs(v) for v in ax), 1e-300)
    S = np.zeros((f, 3 * f))
    for r, (i, j) in enumerate(plan.pairs):
        delta = ax[i - 1] - ax[j - 1]
        if abs(delta) <= PAIR_THRESHOLD * scale:
            raise DegeneratePair(f"pair {r + 1}")
        S[r, 3 * (i - 1) + 1] = -ax[j - 1] / abs(delta)
        S[r, 3 * (j - 1) + 1] = ax[i - 1] / abs(delta)
        S[r, 3 * (min(i, j) - 1) + 2] = 1.0
    V_p = np.vstack([np.hstack([np.eye(3), [[0.0, a[2], -a[1]], [-a[2], 0.0, a[0]],
                                            [a[1], -a[0], 0.0]]]) for a in anchors])
    k = _cond(S @ V_p @ J_a)
    if not k <= COND_LIMIT:
        raise SingularSelection(f"cond(J_dh) = {k:.3e}")
    return k_G, k
