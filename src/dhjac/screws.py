"""Constraint-embedded inverse Jacobian G^T from limb kinematics.

Row recipe (validated against the finite-difference oracle in ``verify``):

* actuation row i: a unit force along the link through the spherical joint,
  q_i' = [l_hat, a_i x l_hat] . (v, w) / (l_hat . s1).  For PRS limbs the
  link is structurally perpendicular to the revolute axis, so this coincides
  with the reciprocal-screw row built from n_i = s3 x s2; for PUS limbs the
  link force is the unique wrench reciprocal to both universal axes and the
  spherical joint.
* constraint rows (PRS limbs): a unit force along the revolute axis through
  the spherical joint, [s2, a_i x s2] . (v, w) = 0.

Moment blocks use a_i x u (power balance with the shifting property); the
variant with the flipped moment block fails the oracle and is kept only for
the documented comparison in the validation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularLimb, Status
from .model import X_HAT, PlatformPose, limb_axes, norms

#: |l_hat . s1| below this is treated as a limb singularity (dimensionless)
DENOMINATOR_THRESHOLD = 1e-12

#: adopted actuation-row generator; the validation report measures the rejected "normal"
#: rows against the FD oracle and describes this one in its fixed ``adopted`` text
PUS_ROW_VARIANT = "link"


@dataclass
class InverseJacobian:
    """Stacked [G_a^T; G_c^T] at a stack of N poses."""

    G_a_T: np.ndarray  # (N, f, 6), actuation rows
    G_c_T: np.ndarray  # (N, 6 - f, 6), constraint rows
    status: Status     # limb singularities

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([self.G_a_T, self.G_c_T], axis=-2)


#: component k of a x b is a[_NEXT[k]] * b[_LAST[k]] - a[_LAST[k]] * b[_NEXT[k]]
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over (..., 3), ``b`` broadcast to ``a``, term by term as ``np.cross`` rounds it."""
    return (a.take(_NEXT, axis=-1) * b.take(_LAST, axis=-1)
            - a.take(_LAST, axis=-1) * b.take(_NEXT, axis=-1))


def build_inverse_jacobian(
    pose: PlatformPose,
    variant: str = PUS_ROW_VARIANT,
    moment_sign: float = 1.0,
) -> InverseJacobian:
    """Assemble G^T (N, 6, 6) at the N poses of ``pose``; a vanishing row denominator is
    SingularLimb.

    ``variant`` and ``moment_sign`` select the documented formula variants for
    oracle comparison; defaults are the adopted (oracle-passing) recipe.
    """
    u = pose.link / norms(pose.link)[..., None]
    if variant == "normal":
        # n_i rows for the PUS limbs: kept for oracle comparison only
        pus = [spec.kind == "PUS" for spec in pose.cfg.limbs]
        u[..., pus, :] = limb_axes(pose.link[..., pus, :], pose.cfg.link_length)[1]
    elif variant != "link":
        raise ValueError(f"unknown row variant {variant!r}")
    den = u[..., 2:]  # u . s1 with s1 = z_hat
    size = np.abs(den[..., 0])
    singular = size < DENOMINATOR_THRESHOLD
    status = Status(len(singular))
    status.refuse_first(singular, SingularLimb,
                        lambda i, k: f"limb {k + 1}: actuation screw reciprocal to rail "
                                     f"(|u.s1| = {size[i][k]:.3e})",
                        value=size)
    if status.refusals:
        den = np.where(singular[..., None], math.nan, den)
    Ga = np.concatenate([u, _cross(pose.a, u)], axis=-1)
    a = pose.a.take(pose.cfg.prs_indices(), axis=-2)
    Gc = np.empty(a.shape[:-1] + (6,))
    Gc[..., :3] = X_HAT  # s2
    Gc[..., 3:] = _cross(a, X_HAT)
    if moment_sign != 1.0:  # a product by 1.0 is exact, so the adopted recipe skips it
        Ga[..., 3:] *= moment_sign
        Gc[..., 3:] *= moment_sign
    Ga /= den
    return InverseJacobian(G_a_T=Ga, G_c_T=Gc, status=status)
