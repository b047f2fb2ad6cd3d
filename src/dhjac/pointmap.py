"""Point-velocity map: platform twist -> linear velocities of chosen points.

The shifting property v_i = v + w x a_i, stacked over the chosen points,
gives the 3f x 6 matrix with row blocks [I, -skew(a_i)].  The points are
the anchors a_i = R P_i of a resolved pose, and the config refuses
collinear platform points P at load, so the map always spans the rigid
motion and ``build_Vp`` has nothing to refuse.
"""

from __future__ import annotations

import numpy as np

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def skew(a: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of the vectors (..., 3)."""
    a = np.asarray(a, float)
    S = np.zeros(a.shape + (3,))
    S[..., 0, 1], S[..., 0, 2] = -a[..., 2], a[..., 1]
    S[..., 1, 0], S[..., 1, 2] = a[..., 2], -a[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -a[..., 1], a[..., 0]
    return S


def build_Vp(points) -> np.ndarray:
    """V_p (..., 3n, 6): the stacked [I, -skew(a_i)] blocks of the points (..., n, 3)."""
    pts = np.asarray(points, float)
    V_p = np.empty(pts.shape + (6,))
    V_p[..., :3] = _EYE3
    V_p[..., 3:] = -skew(pts)
    return V_p.reshape(pts.shape[:-2] + (3 * pts.shape[-2], 6))
