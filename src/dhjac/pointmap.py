"""Point-velocity map: platform twist -> linear velocities of chosen points.

The shifting property v_i = v + w x a_i, stacked over the chosen points,
gives the 3f x 6 matrix with row blocks [I, -skew(a_i)].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoints, Status
from .model import collinear


def skew(a: np.ndarray) -> np.ndarray:
    """Cross-product matrices (..., 3, 3) of the vectors (..., 3)."""
    a = np.asarray(a, float)
    S = np.zeros(a.shape + (3,))
    S[..., 0, 1], S[..., 0, 2] = -a[..., 2], a[..., 1]
    S[..., 1, 0], S[..., 1, 2] = a[..., 2], -a[..., 0]
    S[..., 2, 0], S[..., 2, 1] = -a[..., 1], a[..., 0]
    return S


def point_velocity(v: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Velocity of the platform point at offset a from the reference point."""
    return np.asarray(v, float) + np.cross(w, a)


@dataclass(frozen=True)
class PointVelocityMap:
    points: np.ndarray  # (..., n, 3)
    V_p: np.ndarray     # (..., 3n, 6)
    status: Status = field(default_factory=Status)  # collinear point sets

    @property
    def count(self) -> int:
        return self.points.shape[-2]


def build_Vp(points) -> PointVelocityMap:
    """Stack [I, -skew(a_i)] blocks of points (..., n, 3); a collinear set is DegeneratePoints."""
    pts = np.asarray(points, float)
    status = Status(pts.shape[:-2])
    if pts.shape[-2] >= 3:
        status.refuse(collinear(pts), DegeneratePoints, lambda i: "point set is collinear")
    V_p = np.empty(pts.shape + (6,))
    V_p[..., :3] = np.eye(3)
    V_p[..., 3:] = -skew(pts)
    return PointVelocityMap(pts, V_p.reshape(pts.shape[:-2] + (-1, 6)), status)
